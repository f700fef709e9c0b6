//! Span recorder: one span around every call the benchmark makes into a
//! layer. Spans are kept in memory and written out when the rep ends;
//! a layer's self time is its span minus the part its child spans cover.
//!
//! The recorder only records in the traced build (package feature
//! `trace`); the timed build takes its two end-to-end times from plain
//! `Instant` reads and pays nothing here.

use std::io::Write;
use std::time::Instant;

/// One recorded call into a layer.
pub struct Span {
    /// Layer-qualified name, e.g. `sim.tables_build`.
    pub name: &'static str,
    /// Start, nanoseconds since process start.
    pub start_ns: u64,
    /// End, nanoseconds since process start.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// In-memory span log of one rep.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose clock starts at `origin` (process start).
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span called `name`; spans opened before the matching
    /// [`Recorder::exit`] become its children.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !cfg!(feature = "trace") {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes the span [`Recorder::enter`] opened.
    pub fn exit(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
            self.open.pop();
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Seconds since process start.
    pub fn elapsed_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Summed self time (seconds) of every span called `name`: each
    /// span's duration minus its direct children's.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut ns = 0u64;
        for (id, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let children: u64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| c.end_ns - c.start_ns)
                .sum();
            ns += (s.end_ns - s.start_ns).saturating_sub(children);
        }
        ns as f64 * 1e-9
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &str, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"workload\":\"{workload}\"}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
