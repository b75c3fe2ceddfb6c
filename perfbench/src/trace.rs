//! Spans and counters recorded from the benchmark's side of each layer's
//! public calls. Spans are kept in memory and written out once, when the run
//! ends. With tracing off every call is a plain pass-through.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start: f64,
    end: f64,
    /// Time covered by direct child spans.
    child: f64,
}

/// The recorder. Single-threaded: every span opens and closes on the
/// benchmark's driving thread.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    counts: RefCell<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            counts: RefCell::new(BTreeMap::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`, attributed to operation `op`.
    pub fn span<T>(&self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                op,
                parent,
                start: self.t0.elapsed().as_secs_f64(),
                end: 0.0,
                child: 0.0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let mut spans = self.spans.borrow_mut();
        let end = self.t0.elapsed().as_secs_f64();
        spans[idx].end = end;
        let dur = end - spans[idx].start;
        if let Some(p) = spans[idx].parent {
            spans[p].child += dur;
        }
        out
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&self, name: &'static str, value: f64) {
        if self.on {
            *self.counts.borrow_mut().entry(name).or_insert(0.0) += value;
        }
    }

    /// Total of counter `name` (0 if never counted).
    pub fn counter(&self, name: &'static str) -> f64 {
        self.counts.borrow().get(name).copied().unwrap_or(0.0)
    }

    /// Self times (duration minus direct children) of the spans named `name`
    /// of timed operations. Operation 0 is the untimed warm-up and is left out.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && s.op > 0)
            .map(|s| s.end - s.start - s.child)
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Writes every span as a tab-separated line, then the counters.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\top\tparent\tstart_s\tend_s\tself_s")?;
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{parent}\t{:.9}\t{:.9}\t{:.9}",
                s.name,
                s.op,
                s.start,
                s.end,
                s.end - s.start - s.child
            )?;
        }
        for (name, value) in self.counts.borrow().iter() {
            writeln!(out, "#count\t{name}\t{value}")?;
        }
        out.flush()
    }
}
