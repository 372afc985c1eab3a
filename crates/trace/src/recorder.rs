//! The recorder: per-thread scopes, bounded ring buffers and the three-channel
//! [`TraceCollector`].
//!
//! # The three channels
//!
//! Worker scheduling decides *which thread* runs a job and *which lookup*
//! computes a shared cache entry — but never what any computation returns.
//! The recorder turns that invariant into a byte-identity contract by
//! splitting events into three channels:
//!
//! * **Job channel** — events recorded under a [`JobScope`] (one per
//!   `MapJob`, installed by the engine around `map_polynomial`). A mapping
//!   job is a pure function of its inputs, so its event stream is too.
//!   Streams are merged **by job index**, never by completion order.
//! * **Compute channel** — events recorded under a [`ComputeScope`]
//!   (installed by the shared Gröbner cache around each basis computation,
//!   keyed by the ring-local cache key). A basis computation is a pure
//!   function of its key, so every racing computation of the same key
//!   yields the **identical** stream; the collector stores streams in a
//!   `BTreeMap` by key, so duplicates collapse and the channel is the
//!   deterministic set of computed keys in key order.
//! * **Sched channel** — worker identities, job start/finish, cache hit/miss
//!   races, wall-clock timestamps. Explicitly nondeterministic; excluded from the
//!   canonical transcript and from all byte-identity tests.
//!
//! Both deterministic channels use **logical clocks only**: an event's
//! timestamp is its index in its own stream. Lint rule D2 stays intact
//! because nothing here reads wall time — sched timestamps come from the
//! collector's [`Clock`], whose real implementation is quarantined in
//! [`crate::sink`].
//!
//! # Zero cost when disabled
//!
//! All recording funnels through [`record_raw`]/[`sched_raw`], which the
//! `trace_*!` macros guard with [`enabled`] — a single relaxed atomic load
//! when no collector exists anywhere in the process. With a collector live
//! but no scope installed on the calling thread, recording is one
//! thread-local check. The non-perturbation claim (batch output
//! byte-identical with tracing on/off) is enforced by test, not argued.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::clock::{Clock, NullClock};
use crate::event::{EventKind, EventStream, SchedEvent, TraceEvent};

/// Default per-stream ring capacity (events kept per job / per compute).
pub const DEFAULT_STREAM_CAPACITY: usize = 8192;

/// Process-wide count of live [`TraceCollector`]s: the fast-path gate.
static ACTIVE_COLLECTORS: AtomicUsize = AtomicUsize::new(0);

/// True when any collector is live in the process. The `trace_*!` macros
/// check this before touching thread-local state, so a disabled build path
/// costs one relaxed load.
#[inline]
pub fn enabled() -> bool {
    ACTIVE_COLLECTORS.load(Ordering::Relaxed) > 0
}

/// A bounded ring of events with a monotone logical clock.
#[derive(Debug)]
struct RingBuf {
    label: String,
    capacity: usize,
    events: Vec<TraceEvent>,
    /// Index of the logical start of the ring inside `events` once full.
    head: usize,
    next_seq: u64,
    dropped: u64,
}

impl RingBuf {
    fn new(label: String, capacity: usize) -> Self {
        RingBuf {
            label,
            capacity: capacity.max(1),
            events: Vec::new(),
            head: 0,
            next_seq: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, name: &'static str, kind: EventKind, args: &[(&'static str, u64)]) {
        let event = TraceEvent {
            seq: self.next_seq,
            name,
            kind,
            args: args.to_vec(),
        };
        self.next_seq += 1;
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            // Ring semantics: overwrite the oldest event. The window kept is
            // the most recent `capacity` events; survivors keep their seq.
            self.events[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn into_stream(self) -> EventStream {
        let RingBuf {
            label,
            events,
            head,
            dropped,
            ..
        } = self;
        let mut ordered = Vec::with_capacity(events.len());
        ordered.extend_from_slice(&events[head..]);
        ordered.extend_from_slice(&events[..head]);
        EventStream {
            label,
            events: ordered,
            dropped,
        }
    }
}

/// The finalized output of one traced batch.
#[derive(Debug, Clone, Default)]
pub struct BatchTrace {
    /// One stream per job, indexed by job index (deterministic channel).
    pub jobs: Vec<EventStream>,
    /// One stream per computed cache key, in key order (deterministic
    /// channel; racing duplicate computations collapse to one entry).
    pub computes: Vec<(u64, EventStream)>,
    /// The nondeterministic scheduling channel, in arrival order.
    pub sched: Vec<SchedEvent>,
}

impl BatchTrace {
    /// The canonical textual transcript of the **deterministic** channels:
    /// job streams by index, then compute streams by key. This is the string
    /// the determinism suite compares byte-for-byte across worker counts.
    /// Sched events are deliberately absent.
    pub fn deterministic_transcript(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, stream) in self.jobs.iter().enumerate() {
            writeln!(out, "job {i} {}", stream.label).expect("writing to String cannot fail");
            write_stream_events(&mut out, stream);
        }
        for (key, stream) in &self.computes {
            writeln!(out, "compute {key:016x} {}", stream.label)
                .expect("writing to String cannot fail");
            write_stream_events(&mut out, stream);
        }
        out
    }

    /// Total events surviving in the deterministic channels.
    pub fn deterministic_event_count(&self) -> usize {
        self.jobs.iter().map(|s| s.events.len()).sum::<usize>()
            + self
                .computes
                .iter()
                .map(|(_, s)| s.events.len())
                .sum::<usize>()
    }
}

fn write_stream_events(out: &mut String, stream: &EventStream) {
    use std::fmt::Write as _;
    for e in &stream.events {
        write!(out, "  {:>6} {} {}", e.seq, e.kind.tag(), e.name)
            .expect("writing to String cannot fail");
        for (k, v) in &e.args {
            write!(out, " {k}={v}").expect("writing to String cannot fail");
        }
        out.push('\n');
    }
    if stream.dropped > 0 {
        writeln!(out, "  dropped={}", stream.dropped).expect("writing to String cannot fail");
    }
}

/// Collects the three channels for one batch. Construct one per traced
/// batch (the engine does this when tracing is enabled), install
/// [`JobScope`]s on worker threads, and [`finalize`](Self::finalize) after
/// the pool barrier.
pub struct TraceCollector {
    stream_capacity: usize,
    jobs: Mutex<Vec<Option<EventStream>>>,
    computes: Mutex<BTreeMap<u64, EventStream>>,
    sched: Mutex<Vec<SchedEvent>>,
    sched_seq: AtomicU64,
    clock: Box<dyn Clock>,
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCollector")
            .field("stream_capacity", &self.stream_capacity)
            .finish_non_exhaustive()
    }
}

impl TraceCollector {
    /// A collector for `job_count` jobs with the default ring capacity and
    /// a [`NullClock`] (sched timestamps read 0; arrival order still holds).
    pub fn new(job_count: usize) -> Arc<Self> {
        Self::with_clock(job_count, DEFAULT_STREAM_CAPACITY, Box::new(NullClock))
    }

    /// Full-control constructor: ring capacity per stream and the sched
    /// channel's clock (pass [`crate::sink::WallClock`] for real timestamps).
    pub fn with_clock(
        job_count: usize,
        stream_capacity: usize,
        clock: Box<dyn Clock>,
    ) -> Arc<Self> {
        ACTIVE_COLLECTORS.fetch_add(1, Ordering::Relaxed);
        Arc::new(TraceCollector {
            stream_capacity: stream_capacity.max(1),
            jobs: Mutex::new((0..job_count).map(|_| None).collect()),
            computes: Mutex::new(BTreeMap::new()),
            sched: Mutex::new(Vec::new()),
            sched_seq: AtomicU64::new(0),
            clock,
        })
    }

    /// Records one sched-channel event with an explicit worker identity
    /// (the engine calls this around each pool job).
    pub fn sched_event(
        &self,
        worker: Option<usize>,
        name: &'static str,
        args: &[(&'static str, u64)],
    ) {
        let event = SchedEvent {
            seq: self.sched_seq.fetch_add(1, Ordering::Relaxed),
            ts_ns: self.clock.now_ns(),
            worker,
            name,
            args: args.to_vec(),
        };
        self.sched
            .lock()
            .expect("sched channel poisoned")
            .push(event);
    }

    /// Drains the collector into a [`BatchTrace`]. Call after every scope
    /// has dropped (the engine's pool barrier guarantees this); a job that
    /// never installed a scope yields an empty stream.
    pub fn finalize(&self) -> BatchTrace {
        let jobs = self
            .jobs
            .lock()
            .expect("job channel poisoned")
            .iter_mut()
            .map(|slot| slot.take().unwrap_or_default())
            .collect();
        let computes =
            std::mem::take(&mut *self.computes.lock().expect("compute channel poisoned"))
                .into_iter()
                .collect();
        let sched = std::mem::take(&mut *self.sched.lock().expect("sched channel poisoned"));
        BatchTrace {
            jobs,
            computes,
            sched,
        }
    }
}

impl Drop for TraceCollector {
    fn drop(&mut self) {
        ACTIVE_COLLECTORS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Per-thread recording context: the installed collector, the active job
/// buffer and the stack of active compute buffers.
#[derive(Default)]
struct ThreadCtx {
    collector: Option<Arc<TraceCollector>>,
    job: Option<(usize, RingBuf)>,
    computes: Vec<(u64, RingBuf)>,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = RefCell::new(ThreadCtx::default());
}

/// Guard for one job's recording scope. Created by the engine on whichever
/// worker runs the job; dropping it files the stream under the job's index,
/// so the merged output never depends on completion order.
#[must_use = "the job stream is filed when the scope drops"]
pub struct JobScope {
    active: bool,
}

/// Installs a job scope for `job_index` on the current thread. Nested job
/// scopes are a caller bug and panic (jobs never nest: one scope per pool
/// job invocation).
pub fn install_job_scope(
    collector: &Arc<TraceCollector>,
    job_index: usize,
    label: &str,
) -> JobScope {
    CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        assert!(
            ctx.job.is_none() && ctx.collector.is_none(),
            "job scopes must not nest"
        );
        ctx.collector = Some(Arc::clone(collector));
        ctx.job = Some((
            job_index,
            RingBuf::new(label.to_string(), collector.stream_capacity),
        ));
    });
    record_raw("job", EventKind::Begin, &[("job", job_index as u64)]);
    JobScope { active: true }
}

impl Drop for JobScope {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        record_raw("job", EventKind::End, &[]);
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            debug_assert!(
                ctx.computes.is_empty(),
                "compute scopes must close before their job scope"
            );
            if let (Some(collector), Some((index, buf))) = (ctx.collector.take(), ctx.job.take()) {
                let mut jobs = collector.jobs.lock().expect("job channel poisoned");
                if index < jobs.len() {
                    jobs[index] = Some(buf.into_stream());
                }
            }
        });
    }
}

/// Guard for one basis computation's recording scope, keyed by the
/// (pre-hashed) ring-local cache key. Events recorded while it is open go
/// to the compute channel; on drop the stream is filed under `key` —
/// overwriting any racing duplicate, which recorded the identical stream
/// (the computation is a pure function of the key).
#[must_use = "the compute stream is filed when the scope drops"]
pub struct ComputeScope {
    active: bool,
}

/// Opens a compute scope on the current thread. Returns an inert guard when
/// no collector is installed here (e.g. a cache used outside a traced
/// batch), so callers never branch.
pub fn install_compute_scope(key: u64, label: &str) -> ComputeScope {
    let active = CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        let Some(collector) = ctx.collector.as_ref() else {
            return false;
        };
        let capacity = collector.stream_capacity;
        ctx.computes
            .push((key, RingBuf::new(label.to_string(), capacity)));
        true
    });
    if active {
        record_raw("compute", EventKind::Begin, &[("key", key)]);
    }
    ComputeScope { active }
}

impl Drop for ComputeScope {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        record_raw("compute", EventKind::End, &[]);
        CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            if let Some((key, buf)) = ctx.computes.pop() {
                if let Some(collector) = ctx.collector.as_ref() {
                    collector
                        .computes
                        .lock()
                        .expect("compute channel poisoned")
                        .insert(key, buf.into_stream());
                }
            }
        });
    }
}

/// Records one event into the innermost deterministic stream on this thread
/// (compute scope if one is open, else the job scope, else dropped). The
/// `trace_event!`/`trace_span!` macros are the supported entry point; lint
/// rule D6 flags direct calls outside `crates/trace` and the engine.
pub fn record_raw(name: &'static str, kind: EventKind, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        if let Some((_, buf)) = ctx.computes.last_mut() {
            buf.push(name, kind, args);
        } else if let Some((_, buf)) = ctx.job.as_mut() {
            buf.push(name, kind, args);
        }
    });
}

/// Records one sched-channel event through the thread's installed collector
/// (no worker identity — recording sites below the pool don't know theirs).
/// Use the `trace_sched!` macro; lint rule D6 flags direct calls.
pub fn sched_raw(name: &'static str, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    CTX.with(|ctx| {
        let ctx = ctx.borrow();
        if let Some(collector) = ctx.collector.as_ref() {
            collector.sched_event(None, name, args);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_a_no_op() {
        // No collector installed on this thread: record_raw must not panic
        // and must not leak state. (`enabled()` may be true because other
        // tests hold collectors; the TLS check still drops the event.)
        record_raw("orphan", EventKind::Instant, &[("k", 1)]);
        sched_raw("orphan.sched", &[]);
    }

    #[test]
    fn job_streams_are_filed_by_index_not_completion_order() {
        let collector = TraceCollector::new(2);
        {
            let _scope = install_job_scope(&collector, 1, "second");
            record_raw("work", EventKind::Instant, &[("x", 2)]);
        }
        {
            let _scope = install_job_scope(&collector, 0, "first");
            record_raw("work", EventKind::Instant, &[("x", 1)]);
        }
        let trace = collector.finalize();
        assert_eq!(trace.jobs.len(), 2);
        assert_eq!(trace.jobs[0].label, "first");
        assert_eq!(trace.jobs[1].label, "second");
        assert_eq!(trace.jobs[0].events[1].args, vec![("x", 1)]);
    }

    #[test]
    fn compute_scope_captures_nested_events_and_dedups_by_key() {
        let collector = TraceCollector::new(1);
        for _ in 0..2 {
            // Two "racing" computations of the same key record the same
            // stream; the channel keeps one entry.
            let _job = install_job_scope(&collector, 0, "job");
            let _compute = install_compute_scope(0xfeed, "basis");
            record_raw("inner", EventKind::Instant, &[("r", 7)]);
        }
        let trace = collector.finalize();
        assert_eq!(trace.computes.len(), 1);
        let (key, stream) = &trace.computes[0];
        assert_eq!(*key, 0xfeed);
        // compute Begin, inner, compute End.
        assert_eq!(stream.events.len(), 3);
        assert_eq!(stream.events[1].name, "inner");
        // The job stream holds only the job span (inner went to the compute).
        assert_eq!(trace.jobs[0].events.len(), 2);
    }

    #[test]
    fn ring_buffer_keeps_the_newest_window_and_counts_drops() {
        let collector = TraceCollector::with_clock(1, 4, Box::new(NullClock));
        {
            let _job = install_job_scope(&collector, 0, "ring");
            for i in 0..10u64 {
                record_raw("tick", EventKind::Instant, &[("i", i)]);
            }
        }
        let trace = collector.finalize();
        let stream = &trace.jobs[0];
        // 12 events total (job Begin + 10 ticks + job End), capacity 4.
        assert_eq!(stream.events.len(), 4);
        assert_eq!(stream.dropped, 8);
        let seqs: Vec<u64> = stream.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![8, 9, 10, 11], "newest window, original seqs");
        assert_eq!(stream.events.last().unwrap().name, "job");
    }

    #[test]
    fn transcript_is_stable_and_excludes_sched() {
        let collector = TraceCollector::new(1);
        collector.sched_event(Some(3), "pool.start", &[("job", 5)]);
        {
            let _job = install_job_scope(&collector, 0, "t");
            record_raw("point", EventKind::Instant, &[("a", 1), ("b", 2)]);
        }
        let trace = collector.finalize();
        let transcript = trace.deterministic_transcript();
        assert!(transcript.contains("job 0 t"));
        assert!(transcript.contains("point a=1 b=2"));
        assert!(
            !transcript.contains("pool.start"),
            "sched leaked: {transcript}"
        );
        assert_eq!(trace.sched.len(), 1);
        assert_eq!(trace.sched[0].worker, Some(3));
    }

    #[test]
    fn compute_scope_without_a_collector_is_inert() {
        let _scope = install_compute_scope(1, "orphan");
        record_raw("nothing", EventKind::Instant, &[]);
    }
}
