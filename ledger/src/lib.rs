//! The performance ledger: a steady benchmark of the GLP engine and the
//! `glp-serve` fleet, driven by one synchronous thread.
//!
//! Three workloads (see `README.md` beside this crate):
//!
//! * [`offline`] — `offline_lp`: classic LP on three Table-2 signatures
//!   through [`Engine::run`](glp_core::Engine::run) on a `GpuEngine`.
//! * [`serve`] — `serve_steady`: an open loop at a fixed rate into a warm
//!   1-shard fleet; `serve_bulk`: a closed-loop multi-day replay through a
//!   journaled 4-shard fleet.
//!
//! Every count, modeled time and digest is a function of the seed alone;
//! only wall times vary. [`repeat`] holds the guard that checks this.

pub mod offline;
pub mod repeat;
pub mod schedule;
pub mod serve;
pub mod spans;
pub mod stats;

use repeat::Fingerprint;
use spans::Recorder;
use std::collections::BTreeMap;
use std::path::Path;

/// Where, relative to the working directory, the exact-repeat records,
/// the traces and the serve journal live.
pub const STATE_DIR: &str = ".ledger-run";

/// Datasets of the per-dataset engine metrics (`offline_lp`'s cycle).
pub const DATASETS: [&str; 3] = ["roadNet", "aligraph", "youtube"];

/// Per-dataset layer metrics, `<name>.<dataset>`, with units.
const PER_DATASET: [(&str, &str); 10] = [
    ("engine.run_ms", "ms"),
    ("engine.ns_per_edge_iter", "ns"),
    ("engine.host_per_modeled", "ratio"),
    ("engine.iterations", "count"),
    ("engine.active_share", "ratio"),
    ("engine.pull_iters", "count"),
    ("gpusim.global_mb", "MB"),
    ("gpusim.warp_util", "ratio"),
    ("sketch.smem_vertices", "count"),
    ("sketch.fallback_rate", "ratio"),
];

/// Run-wide layer metrics, with units.
const PER_RUN: [(&str, &str); 39] = [
    ("e2e.latency_tail_ms", "ms"),
    ("gpusim.launches", "count"),
    ("gpusim.launch_overhead_share", "ratio"),
    ("router.apply_ms_p50", "ms"),
    ("router.apply_ms_tail", "ms"),
    ("router.batch_size_p50", "count"),
    ("wal.bytes_per_tx", "B"),
    ("recluster.full", "count"),
    ("recluster.incremental", "count"),
    ("recluster.incremental_share", "ratio"),
    ("recluster.frontier_p50", "count"),
    ("recluster.full_ms_p50", "ms"),
    ("recluster.incremental_ms_p50", "ms"),
    ("recluster.ms_tail", "ms"),
    ("recluster.modeled_ms", "ms"),
    ("recluster.round_max_ms_p50", "ms"),
    ("recluster.shard_skew", "ratio"),
    ("exchange.ms_p50", "ms"),
    ("exchange.ms_tail", "ms"),
    ("exchange.boundary_users_p50", "count"),
    ("exchange.spanning_components_p50", "count"),
    ("exchange.boundary_incremental_share", "ratio"),
    ("query.lookup_p50_us", "us"),
    ("query.lookup_tail_us", "us"),
    ("query.flagged_share", "ratio"),
    ("quality.recall", "ratio"),
    ("quality.precision", "ratio"),
    ("quality.failed_share", "ratio"),
    ("driver.batch_wait_ms_p50", "ms"),
    ("driver.lag_ms_tail", "ms"),
    ("self.engine_ms", "ms"),
    ("self.router_ms", "ms"),
    ("self.recluster_ms", "ms"),
    ("self.exchange_ms", "ms"),
    ("self.query_ms", "ms"),
    ("self.driver_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("host.steal_share", "ratio"),
];

/// End-to-end metrics: printed by every workload's untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("modeled_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, with its unit, in print order. Every workload
/// prints all of them; a layer a workload does not exercise reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for (m, unit) in PER_DATASET {
        for d in DATASETS {
            out.push((format!("{m}.{d}"), unit));
        }
    }
    out.extend(PER_RUN.iter().map(|&(m, u)| (m.to_string(), u)));
    out
}

/// Named metrics with units, in insertion order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics, from the untraced pass.
    pub end_to_end: Metrics,
    /// Per-layer metrics, from the traced pass (empty without one).
    pub per_layer: Metrics,
    /// Operations attempted (LP runs, transactions).
    pub attempted: u64,
    /// Operations that failed, were shed or rejected, plus one per
    /// failed correctness check.
    pub failed: u64,
    /// Every correctness check that failed, in words.
    pub errors: Vec<String>,
    /// The run's deterministic values, for the exact-repeat guard.
    pub fingerprint: Fingerprint,
}

impl Outcome {
    /// Records a failed correctness check.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }
}

/// Layers whose self time is reported, by span-name prefix.
const LAYERS: [&str; 6] = [
    "engine",
    "router",
    "recluster",
    "exchange",
    "query",
    "driver",
];

/// The traced pass's self-time split (`self.<layer>_ms`), its span
/// count, and `trace.overhead_share`: how much longer the traced pass
/// kept the driver busy than the untraced one, as a share of the
/// untraced busy time. Returns the difference between the summed self
/// times and the root span, which is 0 up to rounding when the spans
/// nest.
pub fn self_metrics(m: &mut Metrics, rec: &Recorder, traced_busy: f64, untraced_busy: f64) -> f64 {
    let by_layer: BTreeMap<String, f64> = spans::self_by_layer(rec.spans());
    for l in LAYERS {
        m.put(
            format!("self.{l}_ms"),
            by_layer.get(l).copied().unwrap_or(0.0) * 1e3,
            "ms",
        );
    }
    m.put("trace.spans", rec.spans().len() as f64, "count");
    m.put(
        "trace.overhead_share",
        (traced_busy - untraced_busy) / untraced_busy,
        "ratio",
    );
    let root: f64 = rec
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end - s.start)
        .sum();
    by_layer.values().sum::<f64>() - root
}

/// Checks a traced pass and stores its spans: tracing must not change
/// any deterministic value of the untraced pass, and the per-layer self
/// times must add up to the traced wall (`gap`, see [`self_metrics`]).
pub fn check_traced(
    out: &mut Outcome,
    traced: &Fingerprint,
    gap: f64,
    rec: &Recorder,
    workload: &str,
    seed: u64,
) {
    for d in out.fingerprint.diff(traced) {
        out.fail(format!("tracing changed a deterministic value: {d}"));
    }
    if gap.abs() > 1e-6 {
        out.fail(format!("self times miss the traced wall by {gap:e} s"));
    }
    if let Err(e) = write_trace(rec, workload, seed) {
        out.fail(format!("writing the trace failed: {e}"));
    }
}

/// Writes a traced pass's spans to `STATE_DIR/trace-<workload>-<seed>.json`.
fn write_trace(rec: &Recorder, workload: &str, seed: u64) -> std::io::Result<()> {
    std::fs::create_dir_all(STATE_DIR)?;
    let path = Path::new(STATE_DIR).join(format!("trace-{workload}-{seed}.json"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    rec.write_chrome(&mut f)?;
    std::io::Write::flush(&mut f)
}

/// `(steal, total)` CPU jiffies of the whole machine so far, from the
/// first line of `/proc/stat`; `None` where it cannot be read.
pub fn host_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of the machine's CPU time the hypervisor stole between two
/// [`host_jiffies`] readings: when it is high, every wall time of the
/// run is inflated by other tenants, not by this program.
pub fn steal_share(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> f64 {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// Steal share (see [`steal_share`]) above which a measured pass is run
/// once more, on a fresh set-up, and the pass with less steal is kept.
/// On a shared host steal comes in bursts of tens of seconds that slow
/// every wall time by tens of percent; one retry keeps most bursts out of
/// the numbers. Both passes do the same work, so every count is the same.
pub const STEAL_RETRY: f64 = 0.03;

/// Peak resident set of this process in MB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: derives independent sub-seeds from the run's seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Times `f` `k` times and returns the median seconds plus the last result.
pub fn median_setup<T>(k: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(k);
    let mut last = None;
    for _ in 0..k {
        let t = std::time::Instant::now();
        let v = f();
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (stats::median(&times), last.expect("k >= 1"))
}
