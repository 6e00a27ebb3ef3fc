//! Spans recorded around the benchmark's calls into each layer.
//!
//! Every call is timed in both modes, because the end-to-end metrics need
//! its wall time. Only a traced run keeps spans (name, start, end, parent and
//! counts measured at the same boundary) in memory; they are written out as
//! JSON lines when the run ends. Nothing inside the program is instrumented.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub pass: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts measured at the span's boundary (e.g. pivots of a query).
    pub counts: Vec<(&'static str, f64)>,
}

/// Span recorder; a no-op apart from timing when `enabled` is false.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pass: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            pass: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (a trace run alternates both kinds of
    /// pass over identical inputs).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that later spans nest under until [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, pass: usize) {
        self.pass = pass;
        if self.enabled {
            let start = self.now_ns();
            self.push(name, start, start);
            self.open.push(self.spans.len() - 1);
        }
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            pass: self.pass,
            parent: self.open.last().copied(),
            start_ns,
            end_ns,
            counts: Vec::new(),
        });
    }

    /// Runs `f`, returning its result and wall time in seconds; a traced
    /// run also records the call as a span under the innermost open one.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        if self.enabled {
            let start_ns = start.duration_since(self.origin).as_nanos() as u64;
            let end_ns = end.duration_since(self.origin).as_nanos() as u64;
            self.push(name, start_ns, end_ns);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Attaches a count to the span recorded last.
    pub fn count(&mut self, key: &'static str, value: f64) {
        if self.enabled {
            if let Some(span) = self.spans.last_mut() {
                span.counts.push((key, value));
            }
        }
    }

    /// The recorded spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"pass\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                span.pass, span.name, span.start_ns, span.end_ns
            );
            for (key, value) in &span.counts {
                let _ = write!(out, ",\"{key}\":{}", crate::report::json_number(*value));
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untraced_calls_are_timed_but_not_recorded() {
        let mut tracer = Tracer::new(false);
        tracer.open("pass", 0);
        let (value, secs) = tracer.call("work", || 21 * 2);
        tracer.count("n", 1.0);
        tracer.close();
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn traced_calls_nest_under_the_open_span() {
        let mut tracer = Tracer::new(true);
        tracer.open("pass", 3);
        tracer.call("query", || ());
        tracer.count("pivots", 7.0);
        tracer.close();
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].pass, 3);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let lines = tracer.to_json_lines();
        assert!(lines.contains("\"name\":\"query\""));
        assert!(lines.contains("\"pivots\":7"));
    }
}
