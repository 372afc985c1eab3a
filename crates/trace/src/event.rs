//! The event vocabulary of the trace layer.
//!
//! A [`TraceEvent`] is deliberately tiny and allocation-light: a static name,
//! a phase ([`EventKind`]), a **logical** sequence number (its position in
//! the stream that recorded it — never a wall-clock reading, see the crate
//! docs for why), and a short list of named integer arguments. Everything
//! wall-clock lives in the sched channel and the [`crate::sink`] module.

/// The phase of a trace event, mirroring the chrome://tracing `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span open (`ph: "B"`). Must be balanced by an [`EventKind::End`] in
    /// the same stream.
    Begin,
    /// Span close (`ph: "E"`).
    End,
    /// A point event (`ph: "i"`).
    Instant,
    /// A counter sample (`ph: "C"`).
    Counter,
}

impl EventKind {
    /// The chrome trace-event `ph` letter for this kind.
    pub fn chrome_ph(self) -> char {
        match self {
            EventKind::Begin => 'B',
            EventKind::End => 'E',
            EventKind::Instant => 'i',
            EventKind::Counter => 'C',
        }
    }

    /// Single-letter tag used by the canonical textual transcript.
    pub fn tag(self) -> char {
        match self {
            EventKind::Begin => 'B',
            EventKind::End => 'E',
            EventKind::Instant => 'I',
            EventKind::Counter => 'C',
        }
    }
}

/// One recorded event. `seq` is the logical clock: the index this event was
/// assigned by its stream's monotone counter (ring-buffer truncation drops
/// old events but never renumbers survivors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Logical timestamp: position in the recording stream.
    pub seq: u64,
    /// Static event name, e.g. `"groebner.compute"`.
    pub name: &'static str,
    /// Phase of the event.
    pub kind: EventKind,
    /// Named integer arguments, in recording order.
    pub args: Vec<(&'static str, u64)>,
}

/// A bounded stream of events plus the count of events the ring dropped.
///
/// The buffer is a true ring: when full, the **oldest** event is dropped so
/// the stream always holds the most recent `capacity` events. Because every
/// stream in the deterministic channels is itself a pure function of its
/// input, the kept window (and the drop count) are deterministic too.
#[derive(Debug, Clone, Default)]
pub struct EventStream {
    /// Human-readable stream label (job label, compute-key rendering).
    pub label: String,
    /// The surviving events, oldest first, `seq` strictly increasing.
    pub events: Vec<TraceEvent>,
    /// Events evicted by the ring bound.
    pub dropped: u64,
}

/// One scheduling-channel event. This channel is **explicitly outside** the
/// byte-identity contract: it records which worker did what and when, which
/// is exactly the nondeterminism the deterministic channels must exclude.
#[derive(Debug, Clone)]
pub struct SchedEvent {
    /// Arrival index in the sched channel (global, racy by design).
    pub seq: u64,
    /// Wall-clock nanoseconds from the collector's [`crate::clock::Clock`].
    pub ts_ns: u64,
    /// Worker index when the recording site knows it.
    pub worker: Option<usize>,
    /// Static event name, e.g. `"pool.start"`.
    pub name: &'static str,
    /// Named integer arguments.
    pub args: Vec<(&'static str, u64)>,
}
