//! In-memory spans recorded by the benchmark around calls into each
//! layer's public functions (the program itself is not instrumented).

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call: name, start and end (ns since the recorder was made),
/// the enclosing span and the request it belongs to.
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, request });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Run `f` inside a span.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let out = std::hint::black_box(f());
        self.close(id);
        out
    }

    /// Self time of every span (ns): its duration minus the time its
    /// children cover. Children of one parent run one after another, so
    /// the time they cover is the sum of their durations.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new();
        spans.spans.push(Span { name: "root", start: 0, end: 100, parent: None, request: 1 });
        spans.spans.push(Span { name: "a", start: 10, end: 30, parent: Some(0), request: 1 });
        spans.spans.push(Span { name: "b", start: 40, end: 90, parent: Some(0), request: 1 });
        spans.spans.push(Span { name: "b.inner", start: 50, end: 60, parent: Some(2), request: 1 });
        assert_eq!(spans.self_times(), vec![30, 20, 40, 10]);
    }
}
