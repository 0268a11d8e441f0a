//! In-memory span recording for the traced run.
//!
//! A span is one timed call from the benchmark into a crate's public API:
//! name, tag (for a workload step, its phase), start, end, the span that
//! enclosed it, and the run it belongs to. Spans are kept in memory and
//! written out once, when the run ends, so file I/O never lands inside a
//! timed region. Per-name aggregates (count, total, self time, every
//! duration) are kept for all spans; the stored span list is capped so a
//! long run cannot exhaust memory.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept for the written trace; later spans still feed the
/// aggregates.
const MAX_STORED: usize = 100_000;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called, e.g. `workloads.step`.
    pub name: &'static str,
    /// A per-call tag (a workload step's phase; 0 otherwise).
    pub tag: u64,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing stored span, if any.
    pub parent: Option<usize>,
    /// The run this span belongs to.
    pub run: u64,
}

/// Aggregates over every span of one name.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    /// Spans recorded.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by child spans.
    pub self_ns: u64,
    /// Every duration, in nanoseconds.
    pub durations: Vec<f64>,
}

struct Open {
    name: &'static str,
    start: u64,
    child_ns: u64,
    stored: Option<usize>,
}

/// The recorder.
pub struct Spans {
    origin: Instant,
    stored: Vec<Span>,
    dropped: u64,
    stack: Vec<Open>,
    aggs: BTreeMap<&'static str, Agg>,
    run: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            stored: Vec::new(),
            dropped: 0,
            stack: Vec::new(),
            aggs: BTreeMap::new(),
            run: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tag every following span with run `id`.
    pub fn set_run(&mut self, id: u64) {
        self.run = id;
    }

    /// Open a span; it encloses every span opened before its [`exit`].
    ///
    /// [`exit`]: Spans::exit
    pub fn enter(&mut self, name: &'static str, tag: u64) {
        let parent = self.stack.last().and_then(|o| o.stored);
        let start = self.now();
        let stored = if self.stored.len() < MAX_STORED {
            self.stored.push(Span {
                name,
                tag,
                start_ns: start,
                end_ns: start,
                parent,
                run: self.run,
            });
            Some(self.stored.len() - 1)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(Open {
            name,
            start,
            child_ns: 0,
            stored,
        });
    }

    /// Close the innermost open span.
    ///
    /// # Panics
    ///
    /// If no span is open (a bug in the caller's pairing).
    pub fn exit(&mut self) {
        let end = self.now();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end - open.start;
        if let Some(i) = open.stored {
            self.stored[i].end_ns = end;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let agg = self.aggs.entry(open.name).or_default();
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        agg.durations.push(dur as f64);
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, tag: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, tag);
        let out = f();
        self.exit();
        out
    }

    /// The aggregates of spans named `name`.
    pub fn agg(&self, name: &str) -> Option<&Agg> {
        self.aggs.get(name)
    }

    /// Every aggregate, by name.
    pub fn aggs(&self) -> &BTreeMap<&'static str, Agg> {
        &self.aggs
    }

    /// Stored spans and the count that did not fit.
    pub fn stored(&self) -> (&[Span], u64) {
        (&self.stored, self.dropped)
    }

    /// Write the stored spans as JSON lines.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.stored.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"tag\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.tag, s.start_ns, s.end_ns, s.run
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new();
        s.set_run(7);
        s.enter("outer", 0);
        s.time("inner", 3, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        s.exit();
        let outer = s.agg("outer").expect("recorded");
        let inner = s.agg("inner").expect("recorded");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        let (stored, dropped) = s.stored();
        assert_eq!(dropped, 0);
        assert_eq!(stored[1].parent, Some(0));
        assert_eq!((stored[1].tag, stored[1].run), (3, 7));
    }
}
