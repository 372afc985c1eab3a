// lint:allow-file(D2): the benchmark's span recorder timestamps spans with the
// wall clock; this benchmark package is the repository's end-to-end timing
// harness.

//! The benchmark's own span recorder.
//!
//! Spans are recorded around the benchmark's calls into each layer (the
//! program itself is not instrumented by this package), kept in memory, and
//! written once at the end as a Chrome trace-event file that Perfetto and
//! `chrome://tracing` load directly.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified span name, e.g. `core.pipeline.measure`.
    pub name: String,
    /// Start offset from the recorder's origin.
    pub start: Duration,
    /// Wall-clock duration.
    pub dur: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// An in-memory span recorder for one single-threaded run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from now.
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing: `span` only runs and times its
    /// closure. The untimed-overhead baseline of the traced run.
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    /// Runs `f` inside a span called `name` and returns its result together
    /// with the span's duration.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, Duration) {
        if !self.enabled {
            let start = Instant::now();
            let out = f(self);
            return (out, start.elapsed());
        }
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start = Instant::now();
        self.spans.push(Span {
            name: name.to_string(),
            start: start - self.origin,
            dur: Duration::ZERO,
            parent,
        });
        self.open.push(index);
        let out = f(self);
        let dur = start.elapsed();
        self.open.pop();
        self.spans[index].dur = dur;
        (out, dur)
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span called exactly `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur)
            .sum()
    }

    /// The Chrome trace-event JSON of every span (complete `X` events, one
    /// thread; each event's args carry its index and its parent's).
    pub fn to_chrome_json(&self, metadata: &[(&str, String)]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (k, v)) in metadata.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", escape(k), escape(v));
        }
        out.push_str("},\"traceEvents\":[");
        out.push_str(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"e2e-bench\"}}",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let cat = s.name.split('.').next().unwrap_or("bench");
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                escape(&s.name),
                escape(cat),
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
            );
        }
        out.push_str("]}\n");
        out
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| ());
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].dur >= t.spans()[1].dur);
        let json = t.to_chrome_json(&[("workload", "x".into())]);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"parent\":0"));
    }
}
