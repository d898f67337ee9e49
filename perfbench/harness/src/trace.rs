//! In-memory spans around calls into the program's layers.
//!
//! A span records its name, start, end and parent. Spans are kept in
//! memory while the run measures and written out once it ends, so the
//! trace adds no I/O to the timed region. The benchmark is single-threaded
//! wherever it traces, so children nest strictly inside their parent and a
//! layer's self time is its spans' durations minus their children's.
//!
//! With tracing off, [`Tracer::span`] still times the call (the untraced
//! run needs those durations for its end-to-end metrics) but records
//! nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Restarts the wall clock: everything before this call (input
    /// generation) is outside the traced wall time.
    pub fn reset_origin(&mut self) {
        assert!(self.spans.is_empty(), "reset before any span");
        self.origin = Instant::now();
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span that later spans nest under until [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end = end;
    }

    /// Runs `f` as one leaf span and returns its result with its
    /// duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let secs = end.duration_since(start).as_secs_f64();
        if self.on {
            let start = start.duration_since(self.origin).as_secs_f64();
            self.spans.push(Span {
                name,
                start,
                end: start + secs,
                parent: self.open.last().copied(),
            });
        }
        (out, secs)
    }

    /// Durations of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Per-layer self time (the layer is the span name up to its first
    /// `.`), the wall time since the origin, and the part of the wall
    /// time no span covers. Self times plus the uncovered part add up to
    /// the wall time.
    pub fn layer_summary(&self) -> (BTreeMap<String, f64>, f64, f64) {
        assert!(self.open.is_empty(), "every span is closed");
        let wall = self.now();
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut layers = BTreeMap::new();
        let mut covered = 0.0;
        for (s, child) in self.spans.iter().zip(child_time) {
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            *layers.entry(layer).or_insert(0.0) += (s.end - s.start) - child;
            if s.parent.is_none() {
                covered += s.end - s.start;
            }
        }
        (layers, wall, wall - covered)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}
