//! The unified metrics registry: counters, gauges and histograms behind one
//! snapshot/delta facade.
//!
//! Before this module the workspace carried three parallel hand-rolled stat
//! idioms — per-shard cache counter structs, the fp-probe counters and
//! `LiftStats`, each with its own `delta_since` — plus the pool's steal
//! count. All of them are now handles registered here; the **single**
//! delta implementation is [`MetricsSnapshot::delta_since`].
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`-shared atomics:
//! registration takes a lock once, every subsequent increment is lock-free.
//! Snapshots are `BTreeMap`s, so iteration order is deterministic (lint rule
//! D1 applies to the registry like everything else).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of power-of-two histogram buckets: bucket `i` counts values whose
/// bit length is `i` (value 0 → bucket 0, 1 → 1, 2..3 → 2, 4..7 → 3, …),
/// saturating in the last bucket.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotone counter handle.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A level gauge handle (e.g. the number of bases a cache holds).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (negative to lower the level), so several writers can
    /// keep one total.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A power-of-two-bucket histogram handle.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let bucket = (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.0.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.0.count.load(Ordering::Relaxed),
            sum: self.0.sum.load(Ordering::Relaxed),
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The registry: name → metric handle. One per `SharedGroebnerCache` (the
/// engine shares the cache's registry for its own pool counters), many
/// readers/writers, deterministic snapshot order.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter named `name`, registering it on first use.
    /// Registering an existing name with a different metric type panics —
    /// that is a naming bug, not a runtime condition.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(Metric::Counter(c)) = self.metrics.read().expect("registry poisoned").get(name)
        {
            return c.clone();
        }
        let mut metrics = self.metrics.write().expect("registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Returns the gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(Metric::Gauge(g)) = self.metrics.read().expect("registry poisoned").get(name) {
            return g.clone();
        }
        let mut metrics = self.metrics.write().expect("registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Returns the histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(Metric::Histogram(h)) =
            self.metrics.read().expect("registry poisoned").get(name)
        {
            return h.clone();
        }
        let mut metrics = self.metrics.write().expect("registry poisoned");
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::default()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// A point-in-time snapshot of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.read().expect("registry poisoned");
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// Frozen histogram state inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Per-bucket counts (bucket `i` = values of bit length `i`).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .map(|(i, b)| b.saturating_sub(earlier.buckets.get(i).copied().unwrap_or(0)))
                .collect(),
        }
    }
}

/// A frozen view of a registry: the one snapshot/delta facade everything
/// (engine stats, reports, exporters) consumes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The change between `earlier` and `self`: counters and histograms
    /// subtract (saturating; a counter absent earlier counts from 0), gauges
    /// keep their **current** value (a gauge is a level, not a flow).
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|(name, v)| {
                    let before = earlier.counters.get(name).copied().unwrap_or(0);
                    (name.clone(), v.saturating_sub(before))
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(name, h)| {
                    let before = earlier.histograms.get(name).cloned().unwrap_or_default();
                    (name.clone(), h.delta_since(&before))
                })
                .collect(),
        }
    }

    /// Counter value by exact name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by exact name (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Machine-readable JSON rendering (`{"counters": {...}, "gauges":
    /// {...}, "histograms": {...}}`). Names are registry-controlled ASCII,
    /// but escaped anyway so the output is valid JSON for any name.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, v) in &self.counters {
            write_kv_sep(&mut out, &mut first);
            write!(out, "\"{}\": {v}", escape_json(name)).expect("writing to String cannot fail");
        }
        out.push_str("\n  },\n  \"gauges\": {");
        let mut first = true;
        for (name, v) in &self.gauges {
            write_kv_sep(&mut out, &mut first);
            write!(out, "\"{}\": {v}", escape_json(name)).expect("writing to String cannot fail");
        }
        out.push_str("\n  },\n  \"histograms\": {");
        let mut first = true;
        for (name, h) in &self.histograms {
            write_kv_sep(&mut out, &mut first);
            write!(
                out,
                "\"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                escape_json(name),
                h.count,
                h.sum
            )
            .expect("writing to String cannot fail");
            for (i, b) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write!(out, "{b}").expect("writing to String cannot fail");
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

fn write_kv_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
        out.push_str("\n    ");
    } else {
        out.push_str(",\n    ");
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to String cannot fail");
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_register_once_and_share_handles() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("cache.hits");
        let b = registry.counter("cache.hits");
        a.inc();
        b.add(2);
        assert_eq!(registry.counter("cache.hits").get(), 3);

        let g = registry.gauge("cache.len");
        g.set(7);
        assert_eq!(registry.gauge("cache.len").get(), 7);
        g.add(-2);
        assert_eq!(registry.gauge("cache.len").get(), 5);

        let h = registry.histogram("groebner.reductions");
        h.observe(0);
        h.observe(1);
        h.observe(5);
        let snap = registry.snapshot();
        let hs = &snap.histograms["groebner.reductions"];
        assert_eq!(hs.count, 3);
        assert_eq!(hs.sum, 6);
        assert_eq!(hs.buckets[0], 1); // value 0
        assert_eq!(hs.buckets[1], 1); // value 1
        assert_eq!(hs.buckets[3], 1); // value 5 (bit length 3)
    }

    #[test]
    fn snapshot_delta_is_the_single_delta_idiom() {
        let registry = MetricsRegistry::new();
        let hits = registry.counter("hits");
        let len = registry.gauge("len");
        let h = registry.histogram("sizes");
        hits.add(5);
        len.set(2);
        h.observe(4);
        let before = registry.snapshot();
        hits.add(3);
        len.set(9);
        h.observe(4);
        h.observe(100);
        let delta = registry.snapshot().delta_since(&before);
        assert_eq!(delta.counter("hits"), 3);
        assert_eq!(delta.gauge("len"), 9, "gauges report current level");
        assert_eq!(delta.histograms["sizes"].count, 2);
        assert_eq!(delta.histograms["sizes"].sum, 104);
        // A counter born after the earlier snapshot deltas from zero.
        registry.counter("new").add(4);
        let delta2 = registry.snapshot().delta_since(&before);
        assert_eq!(delta2.counter("new"), 4);
    }

    #[test]
    fn snapshot_json_is_valid_and_deterministic() {
        let registry = MetricsRegistry::new();
        registry.counter("b").add(1);
        registry.counter("a").add(2);
        registry.gauge("g").set(-3);
        registry.histogram("h").observe(2);
        let snap = registry.snapshot();
        let json = snap.to_json();
        assert_eq!(json, registry.snapshot().to_json());
        let parsed = crate::export::parse_json(&json).expect("metrics JSON must parse");
        let obj = parsed.as_object().expect("top level is an object");
        assert!(obj.contains_key("counters"));
        assert!(obj.contains_key("gauges"));
        assert!(obj.contains_key("histograms"));
        let counters = obj["counters"].as_object().unwrap();
        assert_eq!(counters["a"].as_u64(), Some(2));
        // BTreeMap order: "a" renders before "b".
        assert!(json.find("\"a\"").unwrap() < json.find("\"b\"").unwrap());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn name_reuse_across_metric_types_panics() {
        let registry = MetricsRegistry::new();
        registry.counter("x");
        registry.gauge("x");
    }
}
