//! The ledger's own arithmetic: the percentile rule, self time from
//! spans, due-time latency accounting, the exact-repeat guard, and the
//! metric list agreeing with `BENCHMARK.json`.

use glp_ledger::repeat::{check, Fingerprint};
use glp_ledger::schedule::{constant_rate, micro_batches, waits, Batch, BatchTiming};
use glp_ledger::spans::{self_by_layer, self_times, Recorder, Span};
use glp_ledger::stats::{beyond, median, percentile, tail};
use glp_ledger::{per_layer_names, END_TO_END};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn tail_percentiles_need_ten_samples_beyond_them() {
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(beyond(1000, 0.99), 10);
    assert_eq!(percentile(&v, 0.99), Some(990.0));
    assert_eq!(
        percentile(&v[..999], 0.99),
        None,
        "only 9 samples beyond p99"
    );
    assert_eq!(percentile(&v[..100], 0.90), Some(90.0));
    assert_eq!(
        percentile(&v[..99], 0.90),
        None,
        "only 9 samples beyond p90"
    );
    assert_eq!(tail(&v), (0.99, 990.0));
    assert_eq!(
        tail(&v[..500]),
        (0.90, 450.0),
        "p99 has 5 beyond, p90 has 50"
    );
    assert_eq!(
        tail(&v[..19]),
        (0.5, 10.0),
        "too few for any tail: the median"
    );
    assert_eq!(tail(&[]), (0.5, 0.0));
}

#[test]
fn the_median_is_always_reported() {
    assert_eq!(percentile(&[3.0], 0.5), Some(3.0));
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[]), 0.0, "an idle layer reads 0");
}

fn span(name: &str, start: f64, end: f64, parent: Option<usize>) -> Span {
    Span {
        name: name.into(),
        start,
        end,
        parent,
        op: 0,
    }
}

#[test]
fn self_time_is_span_minus_covered_child_time() {
    let spans = vec![
        span("driver.run", 0.0, 10.0, None),
        span("exchange.round", 1.0, 7.0, Some(0)),
        span("recluster.shard0", 1.0, 3.0, Some(1)),
        span("recluster.shard1", 3.0, 6.0, Some(1)),
        span("router.apply", 8.0, 9.0, Some(0)),
    ];
    let t = self_times(&spans);
    assert!(close(t[0], 10.0 - 6.0 - 1.0));
    assert!(close(t[1], 6.0 - 5.0));
    assert!(close(t[2], 2.0) && close(t[3], 3.0) && close(t[4], 1.0));
    let by_layer = self_by_layer(&spans);
    assert!(
        close(by_layer.values().sum::<f64>(), 10.0),
        "nested self times add up to the root"
    );
    assert!(close(by_layer["recluster"], 5.0));
}

#[test]
fn overlapping_children_are_covered_once() {
    let spans = vec![
        span("exchange.round", 0.0, 10.0, None),
        span("recluster.a", 1.0, 4.0, Some(0)),
        span("recluster.b", 2.0, 6.0, Some(0)),
        // Reaches past its parent: only the part inside counts.
        span("recluster.c", 9.0, 12.0, Some(0)),
    ];
    let t = self_times(&spans);
    assert!(close(t[0], 10.0 - 5.0 - 1.0), "union [1,6] and [9,10]");
}

#[test]
fn recorder_nests_and_places_reported_children() {
    let mut rec = Recorder::new(true);
    rec.begin("driver.run", 0);
    rec.begin("exchange.round", 7);
    let at = rec.open_start();
    rec.child("recluster.shard0", 7, at, 0.0);
    rec.end();
    rec.end();
    let s = rec.spans();
    assert_eq!(s.len(), 3);
    assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(1)));
    assert_eq!(s[2].op, 7);
    let mut off = Recorder::new(false);
    off.begin("driver.run", 0);
    off.end();
    assert!(
        off.spans().is_empty(),
        "a disabled recorder records nothing"
    );
}

#[test]
fn batches_close_on_size_or_budget() {
    let due = constant_rate(10, 100.0); // one every 10 ms
    let b = micro_batches(&due, 4, 1.0);
    assert_eq!(b.len(), 3);
    assert_eq!(
        (b[0].txs.clone(), b[0].ready),
        (0..4, due[3]),
        "full: ready at its last arrival"
    );
    assert_eq!(b[2].txs, 8..10);
    assert!(
        close(b[2].ready, due[8] + 1.0),
        "partial: ready when the budget runs out"
    );
    let b = micro_batches(&due, 64, 0.015);
    assert_eq!(b[0].txs, 0..2);
    assert!(close(b[0].ready, 0.015));
}

#[test]
fn latency_runs_from_due_time_when_the_driver_is_late() {
    let due = constant_rate(4, 100.0);
    let batch = Batch {
        txs: 2..4,
        ready: 0.035,
    };
    // The driver reaches the batch 100 ms after it was ready.
    let w = waits(
        &due,
        &batch,
        BatchTiming {
            started: 0.135,
            published: 0.150,
        },
    );
    assert_eq!(w.len(), 2);
    let (lat, wait, lag) = w[0];
    assert!(
        close(lat, 0.150 - 0.02),
        "from due, not from when the driver got there"
    );
    assert!(close(wait, 0.015) && close(lag, 0.100));
    assert!(
        close(lat, wait + lag + 0.015),
        "latency = batch wait + lag + service"
    );
    let on_time = waits(
        &due,
        &batch,
        BatchTiming {
            started: 0.035,
            published: 0.040,
        },
    );
    assert!(close(on_time[1].2, 0.0));
}

#[test]
fn the_repeat_guard_flags_any_changed_value() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("repeat-guard");
    let _ = std::fs::remove_dir_all(&dir);
    let mut a = Fingerprint::default();
    a.count("rounds", 12);
    a.exact("modeled_s", 0.1 + 0.2);
    a.digest("snapshot", 0xfeed);
    assert!(
        check(&dir, "k", &a).unwrap().is_empty(),
        "first run records"
    );
    assert!(
        check(&dir, "k", &a).unwrap().is_empty(),
        "exact repeat passes"
    );
    let mut b = a.clone();
    b.exact("modeled_s", 0.3);
    let diffs = check(&dir, "k", &b).unwrap();
    assert_eq!(diffs.len(), 1, "0.1 + 0.2 != 0.3 bit for bit: {diffs:?}");
    let mut c = a.clone();
    c.count("extra", 1);
    assert_eq!(check(&dir, "k", &c).unwrap().len(), 1);
    assert!(
        check(&dir, "other", &b).unwrap().is_empty(),
        "records are per key"
    );
}

#[test]
fn benchmark_json_declares_every_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut declared = 0;
    for (name, unit) in END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .chain(per_layer_names())
    {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        declared += 1;
    }
    assert_eq!(
        json.matches("\"unit\": ").count(),
        declared,
        "no extra metrics"
    );
}
