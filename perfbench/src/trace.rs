//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is (name, start, end, parent, statement id). Spans stay in memory
//! while the run measures and are written out as JSON when it ends. A
//! layer's self time is its spans' duration minus the part of that interval
//! its child spans cover.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Spans of one statement share an id; 0 for spans outside statements.
    pub stmt: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. Spans nest by call order: `enter` pushes,
/// `exit` pops, so the open span is the parent of the next one.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// All tracers of a run share `epoch`, so their spans share a clock.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, stmt: u64) -> usize {
        let start_ns = self.now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            stmt,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) -> u64 {
        let end_ns = self.now();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in reverse order of opening");
        self.spans[id].end_ns = end_ns;
        self.spans[id].dur_ns()
    }

    /// Time `f` under a span and return its result with the duration.
    pub fn span<T>(&mut self, name: &'static str, stmt: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.enter(name, stmt);
        let out = f();
        (out, self.exit(id))
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over one tracer's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
}

/// Self time per span name. `spans` must come from one tracer (parents are
/// indices into the same list).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
    }
    out
}

/// Merge per-thread self-time tables.
pub fn merge(
    tables: impl IntoIterator<Item = BTreeMap<&'static str, LayerTime>>,
) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for t in tables {
        for (name, lt) in t {
            let e = out.entry(name).or_default();
            e.count += lt.count;
            e.total_ns += lt.total_ns;
            e.self_ns += lt.self_ns;
        }
    }
    out
}

/// Write span lists (one per thread) to `path` as a JSON document.
pub fn write_json(path: &Path, header: &str, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write!(w, "{{{header}, \"threads\": [")?;
    for (t, spans) in threads.iter().enumerate() {
        write!(w, "{}\n[", if t > 0 { "," } else { "" })?;
        for (i, sp) in spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"stmt\":{}}}",
                if i > 0 { "," } else { "" },
                sp.name,
                sp.start_ns,
                sp.end_ns,
                parent,
                sp.stmt
            )?;
        }
        write!(w, "]")?;
    }
    writeln!(w, "]}}")?;
    // A dropped BufWriter would swallow a failed write.
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            stmt: 1,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span("stmt", 0, 100, None),
            span("parse", 5, 15, Some(0)),
            span("execute", 20, 90, Some(0)),
            span("scan", 25, 60, Some(2)),
            span("stmt", 100, 130, None),
        ];
        let t = self_times(&spans);
        // 100 - (10 + 70) from the first, 30 from the childless second.
        assert_eq!(
            t["stmt"],
            LayerTime {
                count: 2,
                total_ns: 130,
                self_ns: 50
            }
        );
        assert_eq!(t["parse"].self_ns, 10);
        // Grandchildren count against their parent only.
        assert_eq!(
            t["execute"],
            LayerTime {
                count: 1,
                total_ns: 70,
                self_ns: 35
            }
        );
        assert_eq!(t["scan"].self_ns, 35);
        let total_self: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(total_self, 130, "self times partition the root spans");
    }

    #[test]
    fn tracer_nests_by_call_order() {
        let mut tr = Tracer::new(Instant::now());
        let outer = tr.enter("outer", 7);
        let ((), inner_ns) = tr.span("inner", 7, || ());
        let outer_ns = tr.exit(outer);
        let spans = tr.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(outer_ns >= inner_ns);
        let merged = merge([self_times(&spans), self_times(&spans)]);
        assert_eq!(merged["inner"].count, 2);
    }
}
