//! In-memory spans for the traced run.
//!
//! A span is one timed call into a layer: name, start, end, the span that
//! caused it, and the batch it served.  Spans stay in memory while the run
//! measures and are written out as JSON lines when it ends.  A span's self
//! time is its duration minus the time its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Parent of a root span.
pub const ROOT: usize = usize::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `engine.kernel`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the causing span, or [`ROOT`].
    pub parent: usize,
    /// Batch the call served (workload-defined numbering).
    pub batch: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Records spans against one origin.  Disabled tracers record nothing, so
/// untraced runs call the same code.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            enabled,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished call; returns its index (for children), or
    /// [`ROOT`] when disabled.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        batch: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return ROOT;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            batch,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span whose end is set by [`Tracer::close`]; children can name
    /// it as their parent meanwhile.
    pub fn open(&mut self, name: &'static str, parent: usize, batch: u64, start: Instant) -> usize {
        self.record(name, parent, batch, start, start)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: usize, end: Instant) {
        if id != ROOT {
            let end_ns = self.ns(end);
            self.spans[id].end_ns = end_ns;
        }
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self times (ms) of every span called `name`: duration minus the time
    /// covered by its direct children.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if span.parent != ROOT {
                child_ms[span.parent] += span.ms();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.ms() - child_ms[i])
            .collect()
    }

    /// Moves another tracer's spans (same origin) in after this one's,
    /// re-indexing their parents.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += offset;
            }
            s
        }));
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"batch\": {}}}",
                s.name, s.start_ns, s.end_ns, s.batch
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let mut tracer = Tracer::new(origin, true);
        let parent = tracer.open("drain", ROOT, 0, at(0));
        tracer.record("kernel", parent, 0, at(1), at(4));
        tracer.record("validate", parent, 0, at(4), at(5));
        tracer.close(parent, at(10));
        assert_eq!(tracer.durations("drain"), vec![10.0]);
        assert_eq!(tracer.self_times("drain"), vec![6.0]);
        assert_eq!(tracer.self_times("kernel"), vec![3.0]);

        let mut merged = Tracer::new(origin, true);
        merged.record("other", ROOT, 1, at(0), at(1));
        merged.absorb(tracer);
        assert_eq!(merged.self_times("drain"), vec![6.0]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin, false);
        let id = tracer.open("drain", ROOT, 0, origin);
        tracer.close(id, origin);
        assert!(tracer.durations("drain").is_empty());
    }
}
