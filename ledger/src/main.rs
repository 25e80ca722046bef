//! The ledger's command line:
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload <offline_lp|serve_steady|serve_bulk> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report on stderr and, as the last line of
//! stdout, one JSON object `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! traced pass with `--trace 1`. Exits 1 when a correctness check or the
//! exact-repeat guard failed, 2 on bad arguments.

use glp_ledger::{offline, per_layer_names, repeat, serve, Outcome, END_TO_END, STATE_DIR};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 15u64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out: Outcome = match args.workload.as_str() {
        "offline_lp" => offline::run(args.seed, args.seconds, args.trace),
        "serve_steady" => serve::run(&serve::STEADY, args.seed, args.seconds, args.trace),
        "serve_bulk" => serve::run(&serve::BULK, args.seed, args.seconds, args.trace),
        w => {
            eprintln!("error: unknown workload {w} (offline_lp, serve_steady, serve_bulk)");
            return ExitCode::from(2);
        }
    };

    let key = format!("{}-seed{}-s{}", args.workload, args.seed, args.seconds);
    match repeat::check(Path::new(STATE_DIR), &key, &out.fingerprint) {
        Ok(diffs) => {
            for d in diffs {
                out.fail(format!("differs from the previous run of {key}: {d}"));
            }
        }
        Err(e) => out.fail(format!("exact-repeat record for {key}: {e}")),
    }

    let (names, source): (Vec<(String, &str)>, _) = if args.trace {
        (per_layer_names(), &out.per_layer)
    } else {
        (
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect(),
            &out.end_to_end,
        )
    };
    let mut fields = Vec::with_capacity(names.len());
    let mut bad = Vec::new();
    for (name, unit) in &names {
        // A layer this workload does not exercise reads 0.
        let value = source.get(name).unwrap_or(0.0);
        if !value.is_finite() {
            bad.push(format!("metric {name} is not finite ({value})"));
        }
        eprintln!("  {name:<40} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            if value.is_finite() { value } else { 0.0 }
        ));
    }
    for (name, _, _) in &source.0 {
        if !names.iter().any(|(n, _)| n == name) {
            bad.push(format!("metric {name} is not declared"));
        }
    }
    for b in bad {
        out.fail(b);
    }
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    let correct = out.errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
