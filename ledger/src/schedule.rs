//! The open-loop arrival schedule and its micro-batches, in virtual time.
//!
//! Batch boundaries come from the schedule, never from the wall clock:
//! a batch opens at its first transaction's due time and closes when it
//! holds `max_batch` transactions or when `budget` has passed since it
//! opened, whichever comes first — the service's `max_batch` /
//! `batch_budget` rule, applied to due times. The same seed therefore
//! gives the same batches however late the driver runs; only the wall
//! latencies move.

use std::ops::Range;

/// One micro-batch of the schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct Batch {
    /// Indices of its transactions in the schedule.
    pub txs: Range<usize>,
    /// Virtual time (seconds from the schedule's start) at which the
    /// batch is complete and may be applied.
    pub ready: f64,
}

/// Due times of `n` arrivals at a constant `rate` per second.
pub fn constant_rate(n: usize, rate: f64) -> Vec<f64> {
    assert!(rate > 0.0, "rate must be positive");
    (0..n).map(|i| i as f64 / rate).collect()
}

/// Cuts `due` (ascending) into micro-batches by the size-or-budget rule.
pub fn micro_batches(due: &[f64], max_batch: usize, budget: f64) -> Vec<Batch> {
    assert!(max_batch > 0, "max_batch must be positive");
    let mut out = Vec::new();
    let mut i = 0;
    while i < due.len() {
        let deadline = due[i] + budget;
        let mut j = i + 1;
        while j < due.len() && j - i < max_batch && due[j] <= deadline {
            j += 1;
        }
        let ready = if j - i == max_batch {
            due[j - 1]
        } else {
            deadline
        };
        out.push(Batch { txs: i..j, ready });
        i = j;
    }
    out
}

/// The time accounting of one applied batch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatchTiming {
    /// When the driver started applying it, seconds from the schedule's
    /// start (`>= ready` unless the clock is broken).
    pub started: f64,
    /// When the round that publishes its verdicts ended.
    pub published: f64,
}

/// Per-transaction waits of one batch, all in seconds:
/// `(latency, batch_wait, lag)` where `latency = published - due` is
/// what the user sees, `batch_wait = ready - due` is the schedule's own
/// batching delay, and `lag = started - ready` is how late the driver
/// ran (0 when on time). Latency counts the wait a stall imposes on
/// every later transaction, because it starts at the due time, not at
/// the (late) moment the driver got to the batch.
pub fn waits(due: &[f64], batch: &Batch, t: BatchTiming) -> Vec<(f64, f64, f64)> {
    due[batch.txs.clone()]
        .iter()
        .map(|&d| {
            (
                t.published - d,
                batch.ready - d,
                (t.started - batch.ready).max(0.0),
            )
        })
        .collect()
}
