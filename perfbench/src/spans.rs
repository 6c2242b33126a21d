//! In-memory span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call it
//! makes into a layer (nothing inside the crates is instrumented). Each
//! span has a name, a start and an end (nanoseconds since the recorder
//! was created) and the index of the span that caused it. They stay in
//! memory until the run ends and are then written as JSON lines; a
//! layer's self time is its spans' durations minus the part their child
//! spans cover.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    open: Vec<u32>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now, as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, now.
    pub fn exit(&mut self, id: u32) {
        self.exit_at(id, Instant::now());
    }

    /// Closes the innermost open span, which must be `id`, at `end`.
    pub fn exit_at(&mut self, id: u32, end: Instant) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id as usize].end_ns = self.ns(end);
    }

    /// Records an already-measured leaf span under the innermost open
    /// span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
    }

    /// Per-name `(name, calls, total_ns, self_ns)` in first-seen order.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            let total = span.end_ns - span.start_ns;
            let own = total.saturating_sub(covered);
            match rows.iter_mut().find(|row| row.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += total;
                    row.3 += own;
                }
                None => rows.push((span.name, 1, total, own)),
            }
        }
        rows
    }

    /// The self-time table as JSON (milliseconds).
    pub fn self_time_json(&self) -> Json {
        let rows = self
            .self_times()
            .into_iter()
            .map(|(name, calls, total, own)| {
                Json::obj()
                    .with("name", name)
                    .with("calls", calls)
                    .with("total_ms", total as f64 / 1e6)
                    .with("self_ms", own as f64 / 1e6)
            })
            .collect::<Vec<_>>();
        Json::Arr(rows)
    }

    /// Writes every span as one JSON line: `id`, `name`, `start_ns`,
    /// `end_ns`, `parent`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }

    /// Durations (ns) of every span called `name`.
    pub fn spans_named(&self, name: &'static str) -> impl Iterator<Item = u64> + '_ {
        self.spans
            .iter()
            .filter(move |span| span.name == name)
            .map(|span| span.end_ns - span.start_ns)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}
