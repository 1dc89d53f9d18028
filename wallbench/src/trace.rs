//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! One span per timed call: name, start and end (ns since the run's
//! origin), parent span, request id and client thread. Spans stay in
//! memory until the run ends, then are written out as one JSON file.
//! A disabled tracer records nothing and reads no clock, which is how the
//! untraced loops run the very same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
    pub thread: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    enabled: bool,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool, thread: usize) -> Self {
        Self {
            origin,
            enabled,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` for request `req`; spans
    /// opened inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
            thread: self.thread,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread buffers, rebasing parent indices.
pub fn merge(buffers: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for buf in buffers {
        let base = all.len();
        all.extend(buf.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Durations, µs, of every span named `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect()
}

/// Per-name totals of self time (span time minus the time its child
/// spans cover), ns, and span counts.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, c) in spans.iter().zip(&child_ns) {
        let e = out.entry(s.name).or_default();
        e.0 += s.dur_ns().saturating_sub(*c);
        e.1 += 1;
    }
    out
}

/// Writes the spans as a JSON array.
pub fn write_json(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{},\"thread\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.req, s.thread
        );
    }
    out.push_str("]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                req: 0,
                thread: 0,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                req: 0,
                thread: 0,
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
                req: 0,
                thread: 0,
            },
        ];
        let st = self_times(&spans);
        assert_eq!(st["op"], (30, 1));
        assert_eq!(st["a"], (30, 1));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false, 0);
        let v = t.span("op", 1, |t| t.span("inner", 1, |_| 7));
        assert_eq!(v, 7);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_merge_rebases() {
        let mut t = Tracer::new(Instant::now(), true, 0);
        t.span("op", 1, |t| t.span("inner", 1, |_| ()));
        let a = t.into_spans();
        assert_eq!(a[1].parent, Some(0));
        let all = merge(vec![a.clone(), a]);
        assert_eq!(all[3].parent, Some(2));
    }
}
