//! # symmap-trace
//!
//! The workspace's deterministic observability layer: structured trace
//! spans/events over **logical clocks**, a unified metrics registry, and
//! chrome://tracing + JSON exporters. Dependency-free by design so every
//! crate (algebra, engine, bench) can instrument without widening its
//! dependency cone.
//!
//! Three ideas carry the whole module (DESIGN.md §8 has the full argument):
//!
//! 1. **Logical clocks only on algorithmic paths.** Deterministic trace
//!    streams are stamped with their own event ordinals — reduction counts,
//!    S-pair pops, prime rotations and cache probe sequence numbers are the
//!    time axis, never wall time. Lint rule D2 (no `Instant::now` outside
//!    the bench tree) therefore survives instrumentation untouched; the one
//!    real clock lives in [`sink`], the single module allowed under rule
//!    D2, and only timestamps the explicitly nondeterministic sched channel.
//! 2. **Three channels** ([`recorder`]): per-*job* streams merged by job
//!    index, per-*compute* streams keyed by the ring-local cache key (a
//!    basis computation is a pure function of its key, so racing duplicate
//!    computations record identical streams and collapse), and a *sched*
//!    channel for worker/job/cache-race events that is excluded from the
//!    byte-identity contract. The first two are compared byte-for-byte
//!    across worker counts by the determinism suite.
//! 3. **One metrics facade** ([`registry`]): counters/gauges/histograms as
//!    `Arc`-shared atomic handles, snapshots as `BTreeMap`s, and a single
//!    [`MetricsSnapshot::delta_since`] replacing the three hand-rolled
//!    per-struct delta idioms the engine used to carry.
//!
//! Instrumentation goes through the [`trace_event!`], [`trace_span!`] and
//! [`trace_sched!`] macros — lint rule D6 flags direct recorder calls
//! outside this crate and the engine entry points. All macros gate on
//! [`enabled`], a relaxed atomic load, so a build with tracing off pays one
//! predictable branch per site.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod clock;
pub mod event;
pub mod export;
pub mod recorder;
pub mod registry;
pub mod sink;

pub use clock::{Clock, NullClock};
pub use event::{EventKind, EventStream, SchedEvent, TraceEvent};
pub use export::{parse_json, to_chrome_json, validate_chrome_trace, JsonValue};
pub use recorder::{enabled, BatchTrace, TraceCollector};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
};

/// Records one instant event into the innermost deterministic stream on
/// this thread (compute scope if open, else job scope, else dropped).
///
/// ```
/// symmap_trace::trace_event!("mapper.node", depth = 2usize, cost = 14u64);
/// ```
#[macro_export]
macro_rules! trace_event {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::recorder::record_raw($name, $crate::EventKind::Instant, &[]);
        }
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::recorder::record_raw(
                $name,
                $crate::EventKind::Instant,
                &[$((stringify!($key), ($value) as u64)),+],
            );
        }
    };
}

/// Records a span boundary (`begin` / `end`) in the innermost deterministic
/// stream. Callers are responsible for balance: every `begin` needs an
/// `end` on every control-flow path (the chrome-trace schema test enforces
/// this for the shipped exporters).
///
/// ```
/// symmap_trace::trace_span!(begin "mm.image", prime = 97u64);
/// symmap_trace::trace_span!(end "mm.image", complete = 1u64);
/// ```
#[macro_export]
macro_rules! trace_span {
    (begin $name:expr) => {
        if $crate::enabled() {
            $crate::recorder::record_raw($name, $crate::EventKind::Begin, &[]);
        }
    };
    (begin $name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::recorder::record_raw(
                $name,
                $crate::EventKind::Begin,
                &[$((stringify!($key), ($value) as u64)),+],
            );
        }
    };
    (end $name:expr) => {
        if $crate::enabled() {
            $crate::recorder::record_raw($name, $crate::EventKind::End, &[]);
        }
    };
    (end $name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::recorder::record_raw(
                $name,
                $crate::EventKind::End,
                &[$((stringify!($key), ($value) as u64)),+],
            );
        }
    };
}

/// Records a counter sample into the innermost deterministic stream
/// (renders as a chrome://tracing counter track).
#[macro_export]
macro_rules! trace_counter {
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::recorder::record_raw(
                $name,
                $crate::EventKind::Counter,
                &[$((stringify!($key), ($value) as u64)),+],
            );
        }
    };
}

/// Records one event into the **sched** channel (worker races, cache
/// hit/miss outcomes, evictions — anything scheduling-dependent). Sched
/// events never enter the deterministic transcript.
#[macro_export]
macro_rules! trace_sched {
    ($name:expr) => {
        if $crate::enabled() {
            $crate::recorder::sched_raw($name, &[]);
        }
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        if $crate::enabled() {
            $crate::recorder::sched_raw($name, &[$((stringify!($key), ($value) as u64)),+]);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::recorder::{install_job_scope, TraceCollector};

    #[test]
    fn macros_record_into_the_active_scope() {
        let collector = TraceCollector::new(1);
        {
            let _job = install_job_scope(&collector, 0, "macro-test");
            trace_event!("bare");
            trace_event!("args", a = 1u64, b = 2usize);
            trace_span!(begin "span", x = 3u64);
            trace_span!(end "span");
            trace_counter!("ctr", v = 9u64);
            trace_sched!("sched.note", w = 1u64);
        }
        let trace = collector.finalize();
        let names: Vec<&str> = trace.jobs[0].events.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec!["job", "bare", "args", "span", "span", "ctr", "job"]
        );
        assert_eq!(trace.jobs[0].events[2].args, vec![("a", 1), ("b", 2)]);
        assert_eq!(trace.sched.len(), 1);
        assert_eq!(trace.sched[0].name, "sched.note");
    }
}
