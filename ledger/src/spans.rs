//! In-memory spans around the benchmark's calls into each layer, and the
//! per-layer self time computed from them.
//!
//! A span is named `<layer>.<what>`; its self time is its duration minus
//! the part of its interval that its child spans cover (overlapping
//! children count once). Summing self time over every span of a tree
//! gives back the root's duration, so the per-layer split of a traced
//! run adds up to that run's wall.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval, in seconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`, e.g. `router.apply` or `recluster.shard2`.
    pub name: String,
    /// Start, seconds since the origin.
    pub start: f64,
    /// End, seconds since the origin (`>= start`).
    pub end: f64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// The operation this span served (an LP run, a micro-batch).
    pub op: u64,
}

impl Span {
    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Records nested spans when enabled; a disabled recorder costs one
/// branch per call, so the untraced run and the traced one execute the
/// same driver code.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Seconds since the origin.
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: impl Into<String>, op: u64) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name: name.into(),
            start,
            end: start,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now();
        let i = self.open.pop().expect("end() without a matching begin()");
        self.spans[i].end = now;
    }

    /// Records an already-measured child of the innermost open span,
    /// `[start, start + seconds]` — used for the per-shard reclusters a
    /// fleet call runs internally and reports back as wall seconds.
    pub fn child(&mut self, name: impl Into<String>, op: u64, start: f64, seconds: f64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.into(),
            start,
            end: start + seconds,
            parent: self.open.last().copied(),
            op,
        });
    }

    /// The start of the innermost open span (0 when none is open).
    pub fn open_start(&self) -> f64 {
        self.open.last().map_or(0.0, |&i| self.spans[i].start)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto), one complete event per span, microseconds.
    pub fn write_chrome(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":1,\"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}}}{sep}",
                s.name,
                s.layer(),
                s.start * 1e6,
                (s.end - s.start) * 1e6,
                s.op,
                i,
                s.parent.map_or(-1, |p| p as i64),
            )?;
        }
        writeln!(out, "]")
    }
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if e <= s {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of it covered
/// by its children.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| (s.end - s.start) - covered(kids, s.start, s.end))
        .collect()
}

/// Self seconds summed per layer.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer().to_string()).or_insert(0.0) += t;
    }
    out
}
