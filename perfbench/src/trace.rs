//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer was
//! created) and the span that caused it. Spans of one transaction share
//! the transaction's root span. They are kept in memory and written as
//! JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Open a root span whose end is filled in by [`Tracer::close`], so
    /// children can name it as their parent while it runs.
    pub fn open(&mut self, name: &'static str, start_ns: u64) -> SpanId {
        self.record(name, None, start_ns, start_ns)
    }

    pub fn close(&mut self, id: SpanId, end_ns: u64) {
        self.spans[id].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are merged first, and a
/// child reaching outside its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let Some(kids) = children.get_mut(&id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per span name: (count, summed duration, summed self time) in nanoseconds.
pub type Totals = BTreeMap<&'static str, (u64, u64, u64)>;

/// Per-name totals over a trace.
pub fn totals_by_name(spans: &[Span]) -> Totals {
    let selfs = self_times(spans);
    let mut out = Totals::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, a: u64, b: u64) -> Span {
        Span {
            name,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            span("txn", None, 0, 100),
            span("parse", Some(0), 0, 10),
            span("dml", Some(0), 20, 50),
            span("commit", Some(0), 50, 95),
            span("inner", Some(3), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![15, 10, 30, 35, 10]);
        let t = totals_by_name(&spans);
        assert_eq!(t["txn"], (1, 100, 15));
        assert_eq!(t["commit"], (1, 45, 35));
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", None, 10, 60),
            span("a", Some(0), 0, 30),
            span("b", Some(0), 20, 40),
            span("c", Some(0), 55, 90),
        ];
        // Covered: [10, 40) and [55, 60) = 35 of 50.
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn open_close_and_jsonl() {
        let mut t = Tracer::default();
        let root = t.open("txn", 5);
        t.record("parse", Some(root), 5, 7);
        t.close(root, 9);
        assert_eq!(t.spans()[0].dur_ns(), 4);
        let dir = std::env::temp_dir().join(format!("perfbench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"parse\",\"parent\":0"));
    }
}
