//! Order statistics under the ledger's percentile rule.
//!
//! A tail percentile is reported only when at least [`MIN_BEYOND`]
//! samples lie beyond it; with fewer, the number would be set by one or
//! two outliers and would not repeat from run to run. The median is
//! always reported.

/// Samples that must lie strictly beyond a tail percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Tail levels tried by [`tail`], highest first.
pub const TAIL_LEVELS: [f64; 2] = [0.99, 0.90];

/// Number of samples of `n` that lie beyond the nearest-rank `q`-quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q) - 1
}

/// Zero-based nearest-rank index of the `q`-quantile of `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "no samples");
    assert!((0.0..=1.0).contains(&q), "quantile level out of range");
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The nearest-rank `q`-quantile of `samples` (any order), or `None` when
/// there are no samples or, for a tail level (`q > 0.5`), fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    if q > 0.5 && beyond(samples.len(), q) < MIN_BEYOND {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), q)])
}

/// The median of `samples`, 0 when there are none (an idle layer).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).unwrap_or(0.0)
}

/// The highest level of [`TAIL_LEVELS`] with enough samples beyond it,
/// and its value; falls back to the median `(0.5, median)` for small
/// samples and to `(0.5, 0.0)` for none.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    TAIL_LEVELS
        .iter()
        .find_map(|&q| percentile(samples, q).map(|v| (q, v)))
        .unwrap_or((0.5, median(samples)))
}
