//! In-memory span recorder and sample statistics.
//!
//! Spans are recorded by the benchmark around each call into a layer —
//! never inside the program — and only when tracing is on. Each span has a
//! name, start and end (nanoseconds since the run's epoch), the index of
//! the span it nests in, and the id of the operation it belongs to (one
//! build, one delta batch or one read). Spans stay in memory and are
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: String,
}

/// A per-thread span recorder. A disabled recorder runs the wrapped calls
/// and records nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` that belongs to operation `op`.
    /// Spans opened inside `f` through the tracer it receives nest here.
    pub fn span<T>(&mut self, name: &'static str, op: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: op.to_owned(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Record an already-measured interval (used by threads that time
    /// their own calls, such as the HTTP reader).
    pub fn record(&mut self, name: &'static str, op: String, start: Instant, end: Instant) {
        if self.on {
            let start_ns = self.ns_of(start);
            let end_ns = self.ns_of(end);
            let parent = self.open.last().copied();
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                op,
            });
        }
    }

    fn now_ns(&self) -> u64 {
        self.ns_of(Instant::now())
    }

    fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Per span name: every span's self time in milliseconds (its duration
    /// minus the part its direct children cover), in recording order.
    pub fn self_times_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s
                .end_ns
                .saturating_sub(s.start_ns)
                .saturating_sub(child_ns[i]);
            out.entry(s.name).or_default().push(own as f64 / 1e6);
        }
        out
    }

    /// Per span name: every span's full duration in milliseconds.
    pub fn durations_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name)
                .or_default()
                .push(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6);
        }
        out
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks; 0 for an empty set.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The arithmetic mean of `samples`; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The number of samples a percentile needs so that at least ten lie
/// beyond it.
pub fn samples_needed(q: f64) -> usize {
    (10.0 / (1.0 - q)).round() as usize
}
