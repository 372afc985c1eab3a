//! The [`MappingEngine`]: deterministic parallel execution of mapping jobs.
//!
//! A [`MapJob`] is one library-mapping problem — target polynomial, library,
//! mapper configuration. The engine runs a batch of jobs over the
//! shared-cursor pool ([`crate::pool`]) while every worker prices its
//! side-relation subsets through one shared [`SharedGroebnerCache`], and
//! returns the outcomes **by job index** plus an [`EngineStats`] report.
//!
//! # Determinism
//!
//! Each job is a pure function of its `(target, library, config)` inputs, so
//! the outcome vector is byte-identical at any worker count and across
//! repeated runs. Two scheduling-sensitive side channels are closed
//! explicitly:
//!
//! * **Variable interning.** The process-wide [`Var`] interner assigns
//!   indices in first-intern order, and monomials store exponents densely by
//!   that index — so if *worker threads* raced to intern a library's output
//!   symbols, the assignment (and with it `Poly::vars()` discovery order and
//!   the default elimination orders built from it) could vary run to run.
//!   [`MappingEngine::run`] therefore pre-interns every job's output symbols
//!   on the calling thread, in job order, before any worker starts. (Targets
//!   and library polynomials are interned by construction.)
//! * **Cache effects.** Scheduling changes which lookup *computes* a basis
//!   and which one hits, and what the bounded cache evicts — i.e. cache
//!   counters and timing — but a memoized basis is a pure function of its
//!   key, so cached values (and thus solutions) never vary.

use std::sync::Arc;
use std::time::{Duration, Instant};

use symmap_algebra::groebner::{CacheConfig, CacheStats, SharedGroebnerCache};
use symmap_algebra::poly::Poly;
use symmap_algebra::var::Var;
use symmap_libchar::Library;
// batch.rs is a D6-exempt engine entry point: it owns the collector
// lifecycle and reports the pool's job lifecycle on the sched channel (see
// symmap-lint).
use symmap_trace::recorder::{install_job_scope, DEFAULT_STREAM_CAPACITY};
use symmap_trace::sink::WallClock;
use symmap_trace::{BatchTrace, MetricsSnapshot, TraceCollector};

use crate::decompose::{Mapper, MapperConfig};
use crate::error::CoreError;
use crate::mapping::MappingSolution;
use crate::pool;

/// Sizing of the batch engine: worker threads and shared-cache capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads per batch. `1` reproduces the historic sequential
    /// mapper exactly (jobs run in index order on the calling thread); any
    /// other count produces byte-identical output, faster.
    pub workers: usize,
    /// Bounded capacity (in memoized bases) of the shared Gröbner cache.
    pub cache_capacity: usize,
    /// Has no effect: nothing reads it. The advisory mod-p membership
    /// prefilter it used to switch on is gone; the field stays only because
    /// the frozen end-to-end benchmark still sets it, and is removed
    /// together with that benchmark's pin.
    pub modular_prefilter: bool,
    /// Enables structured tracing for the batch: every run collects per-job
    /// and per-compute event streams plus a sched channel, returned as
    /// [`BatchResult::trace`]. Non-perturbing by construction — outcomes are
    /// byte-identical with it on or off (the trace-determinism suite pins
    /// this at every worker count).
    pub trace: bool,
}

impl Default for EngineConfig {
    /// One worker — the sequential path — with tracing off. Tests and
    /// benches that need the parallel path or a trace set `workers` and
    /// `trace` explicitly; output is identical either way.
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            cache_capacity: CacheConfig::default().capacity,
            modular_prefilter: false,
            trace: false,
        }
    }
}

impl EngineConfig {
    /// The cache sizing part of this configuration.
    pub fn cache_config(&self) -> CacheConfig {
        CacheConfig {
            capacity: self.cache_capacity,
        }
    }
}

/// One library-mapping problem in a batch.
#[derive(Debug, Clone)]
pub struct MapJob {
    /// Caller's identifier for the job (e.g. the profiled function name);
    /// carried through to make outcomes self-describing.
    pub label: String,
    /// The target polynomial to map.
    pub target: Poly,
    /// The library to map against (shared, not cloned, across jobs).
    pub library: Arc<Library>,
    /// The mapper configuration for this job.
    pub config: MapperConfig,
}

impl MapJob {
    /// Creates a job.
    pub fn new(
        label: impl Into<String>,
        target: Poly,
        library: Arc<Library>,
        config: MapperConfig,
    ) -> Self {
        MapJob {
            label: label.into(),
            target,
            library,
            config,
        }
    }
}

/// What one batch run did: volume, scheduling and cache activity.
///
/// Every cache/probe/lift field below is *derived* from one
/// [`MetricsSnapshot`] delta over the shared registry
/// ([`SharedGroebnerCache::metrics`]) — the named fields are the stable
/// convenience view, [`EngineStats::metrics`] is the full window.
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// Jobs in the batch.
    pub jobs: usize,
    /// Worker threads used (clamped to the job count).
    pub workers: usize,
    /// Wall time of the batch, including result collection.
    pub wall: Duration,
    /// Cache counters over this batch's run (`len` is the current resident
    /// count). The counters are global to the shared cache, so when several
    /// engines share one cache and run batches *concurrently*, a batch's
    /// deltas include the concurrent batches' activity; with one batch in
    /// flight at a time (how every in-repo consumer runs) they are exactly
    /// this batch's.
    pub cache: CacheStats,
    /// Basis computations settled by the verified multi-modular lift this
    /// batch (no exact Buchberger run). Zero unless jobs carried
    /// `GroebnerOptions::multimodular`.
    pub lift_success: usize,
    /// Reconstruction/verification rounds that failed and forced another
    /// prime this batch.
    pub lift_retry: usize,
    /// Basis computations the lift could not certify this batch, answered by
    /// the exact fallback.
    pub lift_fallback: usize,
    /// Mod-p prime images feeding the successful lifts' CRT combines this
    /// batch.
    pub crt_primes_used: usize,
    /// Basis requests the lift gate routed straight to the exact engine
    /// this batch: ideals whose leading monomials are pairwise coprime (no
    /// S-pair survives the first criterion; every single-generator ideal)
    /// and small all-integer ideals.
    pub lift_bypass: usize,
    /// Library shards dismissed whole by the fingerprint index's support
    /// test across this batch's candidate scans.
    pub index_shards_skipped: usize,
    /// Elements pruned by the fingerprint index without touching their
    /// polynomials this batch.
    pub index_rejected: usize,
    /// Elements that survived candidate pruning this batch.
    pub index_kept: usize,
    /// The full metrics window this batch's named fields were derived from:
    /// every counter/histogram as a delta over the run, every gauge at its
    /// post-run level. Includes metrics with no named field (e.g. the
    /// `groebner.reductions` histogram).
    pub metrics: MetricsSnapshot,
}

impl EngineStats {
    /// Cache lookups answered from the shared cache during this batch.
    pub fn cache_hits(&self) -> usize {
        self.cache.hits
    }

    /// Cache lookups that computed a fresh basis during this batch.
    pub fn cache_misses(&self) -> usize {
        self.cache.misses
    }

    /// Cache entries evicted by the capacity bound during this batch.
    pub fn cache_evictions(&self) -> usize {
        self.cache.evictions
    }

    /// Always 0: no lookup is answered by a second cache layer. Kept only
    /// because the frozen end-to-end benchmark reports it; it goes with
    /// that benchmark's pin.
    pub fn cache_alpha_hits(&self) -> usize {
        0
    }

    /// Basis computations run during this batch: every cache miss runs
    /// exactly one, so this is [`EngineStats::cache_misses`]. Kept, like
    /// [`EngineStats::cache_alpha_hits`], only for the frozen end-to-end
    /// benchmark.
    pub fn cache_alpha_misses(&self) -> usize {
        self.cache.misses
    }
}

/// Outcomes of a batch, in job order, plus the run's statistics.
#[derive(Debug)]
pub struct BatchResult {
    /// One outcome per job, at the job's index in the submitted batch.
    pub outcomes: Vec<Result<MappingSolution, CoreError>>,
    /// Scheduling and cache statistics of the run.
    pub stats: EngineStats,
    /// The run's trace when [`EngineConfig::trace`] was on: per-job streams
    /// in job-index order, per-compute streams keyed by cache key, and the
    /// (non-deterministic) sched channel. `None` with tracing off.
    pub trace: Option<BatchTrace>,
}

impl BatchResult {
    /// The successful solutions, in job order (failed jobs skipped).
    pub fn solutions(&self) -> impl Iterator<Item = &MappingSolution> + '_ {
        self.outcomes.iter().filter_map(|o| o.as_ref().ok())
    }
}

/// The batch-mapping service: a worker pool plus one shared Gröbner cache.
///
/// Cloning an engine shares its cache (the clone is a second handle onto the
/// same memo, exactly like the former `Rc`-shared pipeline cache — now
/// `Arc`-shared and thread-safe).
#[derive(Debug, Clone)]
pub struct MappingEngine {
    config: EngineConfig,
    cache: Arc<SharedGroebnerCache>,
}

/// Compile-time guard: everything a worker thread touches must cross the
/// spawn boundary.
#[allow(dead_code)]
fn _assert_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    fn assert_send<T: Send>() {}
    assert_send_sync::<MappingEngine>();
    assert_send_sync::<MapJob>();
    assert_send_sync::<Mapper>();
    assert_send::<MappingSolution>();
    assert_send::<CoreError>();
}

impl MappingEngine {
    /// Creates an engine with a fresh cache sized by `config`.
    pub fn new(config: EngineConfig) -> Self {
        let cache = Arc::new(SharedGroebnerCache::with_config(config.cache_config()));
        MappingEngine { config, cache }
    }

    /// Creates an engine that shares an existing cache (used to pool bases
    /// across several engines or pipelines; `config`'s cache capacity is
    /// ignored in favour of the cache's own).
    pub fn with_shared_cache(config: EngineConfig, cache: Arc<SharedGroebnerCache>) -> Self {
        MappingEngine { config, cache }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The shared Gröbner cache (counters are cumulative over the engine's
    /// lifetime; [`EngineStats`] reports per-batch deltas).
    pub fn cache(&self) -> &Arc<SharedGroebnerCache> {
        &self.cache
    }

    /// Runs a batch of jobs, returning outcomes by job index.
    ///
    /// Byte-identical output at any [`EngineConfig::workers`] value; see the
    /// module docs for the determinism argument.
    pub fn run(&self, jobs: &[MapJob]) -> BatchResult {
        // lint:allow(D2): stats-only wall clock — feeds EngineStats.wall for
        // reporting and never influences which mapping is produced.
        let start = Instant::now();
        let before = self.cache.metrics_snapshot();

        // Close the interner side channel: intern every output symbol on this
        // thread, in job order, before any worker can race to it. Jobs
        // sharing one library `Arc` (the common batch shape) intern it once —
        // on a thousand-element library the repeat walks would otherwise
        // cost more than the mapping itself.
        let mut seen: Vec<*const Library> = Vec::new();
        for job in jobs {
            let ptr = Arc::as_ptr(&job.library);
            if seen.contains(&ptr) {
                continue;
            }
            seen.push(ptr);
            for element in job.library.iter() {
                Var::new(element.output_symbol());
            }
        }

        // The collector exists only for traced runs; with tracing off every
        // macro site below (and in algebra) is a single relaxed load.
        let collector = self.config.trace.then(|| {
            TraceCollector::with_clock(
                jobs.len(),
                DEFAULT_STREAM_CAPACITY,
                Box::new(WallClock::new()),
            )
        });

        let outcomes = pool::run_indexed(jobs.len(), self.config.workers, |worker, i| {
            let job = &jobs[i];
            // Which worker ran which job is nondeterministic at
            // `workers > 1`, which is exactly what the sched channel is for.
            let sched = |name| {
                if let Some(c) = &collector {
                    c.sched_event(Some(worker), name, &[("job", i as u64)]);
                }
            };
            sched("pool.start");
            let outcome = {
                // Job-channel scope: every deterministic event a job records
                // (cache requests, compute spans it triggers) files under its
                // job index, so streams merge identically at any worker count.
                let _scope = collector
                    .as_ref()
                    .map(|c| install_job_scope(c, i, &job.label));
                Mapper::with_shared_cache(
                    Arc::clone(&job.library),
                    job.config.clone(),
                    Arc::clone(&self.cache),
                )
                .map_polynomial(&job.target)
            };
            sched("pool.finish");
            outcome
        });

        let delta = self.cache.metrics_snapshot().delta_since(&before);
        BatchResult {
            outcomes,
            stats: EngineStats {
                jobs: jobs.len(),
                workers: self.config.workers.clamp(1, jobs.len().max(1)),
                wall: start.elapsed(),
                cache: CacheStats::from_snapshot(&delta),
                lift_success: delta.counter("lift.success") as usize,
                lift_retry: delta.counter("lift.retry") as usize,
                lift_fallback: delta.counter("lift.fallback") as usize,
                crt_primes_used: delta.counter("lift.crt_primes") as usize,
                lift_bypass: delta.counter("lift.bypass") as usize,
                index_shards_skipped: delta.counter("index.shards_skipped") as usize,
                index_rejected: delta.counter("index.rejected") as usize,
                index_kept: delta.counter("index.kept") as usize,
                metrics: delta,
            },
            trace: collector.map(|c| c.finalize()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symmap_algebra::AlgebraError;
    use symmap_libchar::LibraryElement;

    fn p(s: &str) -> Poly {
        Poly::parse(s).unwrap()
    }

    fn toy_library() -> Arc<Library> {
        let mut lib = Library::new("t");
        for (name, symbol, poly, cycles) in [
            ("sum", "s", "x + y", 3),
            ("diff", "d", "x - y", 3),
            ("prod", "q", "x*y", 5),
            ("sq_x", "sx", "x^2", 4),
        ] {
            lib.push(
                LibraryElement::builder(name, symbol)
                    .polynomial(p(poly))
                    .cycles(cycles)
                    .energy_nj(cycles as f64)
                    .accuracy(1e-9)
                    .build()
                    .unwrap(),
            );
        }
        Arc::new(lib)
    }

    fn toy_jobs(library: &Arc<Library>) -> Vec<MapJob> {
        [
            "x^2 + 2*x*y + y^2",
            "x^2 - y^2",
            "x^2 - y^2 + x*y",
            "x^3*y",
            "u^3 + u",
            "x^4 - y^4 + x^2*y^2",
        ]
        .iter()
        .enumerate()
        .map(|(i, s)| {
            MapJob::new(
                format!("job-{i}"),
                p(s),
                Arc::clone(library),
                MapperConfig::default(),
            )
        })
        .collect()
    }

    fn config(workers: usize) -> EngineConfig {
        EngineConfig {
            workers,
            ..EngineConfig::default()
        }
    }

    #[test]
    fn outcomes_are_indexed_by_job_and_identical_across_worker_counts() {
        let library = toy_library();
        let jobs = toy_jobs(&library);
        let reference = MappingEngine::new(config(1)).run(&jobs);
        // Job 4 has no candidate elements; everything else succeeds.
        assert!(matches!(
            reference.outcomes[4],
            Err(CoreError::NoCandidateElements { .. })
        ));
        assert_eq!(reference.outcomes.len(), jobs.len());
        for workers in [2, 3, 8] {
            let batch = MappingEngine::new(config(workers)).run(&jobs);
            assert_eq!(
                format!("{:?}", batch.outcomes),
                format!("{:?}", reference.outcomes),
                "outcomes diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn batch_reports_stats_and_shares_the_cache_across_jobs() {
        let library = toy_library();
        let jobs = toy_jobs(&library);
        let engine = MappingEngine::new(config(1));
        let batch = engine.run(&jobs);
        assert_eq!(batch.stats.jobs, jobs.len());
        assert_eq!(batch.stats.workers, 1);
        assert!(batch.stats.cache_misses() > 0);
        assert!(
            batch.stats.cache_hits() > 0,
            "jobs over the same library must share side-relation bases"
        );
        assert_eq!(batch.stats.cache.len, engine.cache().len());
        // A repeated batch is answered from the cache: no new bases.
        let again = engine.run(&jobs);
        assert_eq!(again.stats.cache_misses(), 0);
        assert_eq!(
            format!("{:?}", again.outcomes),
            format!("{:?}", batch.outcomes)
        );
    }

    #[test]
    fn solutions_iterator_skips_failures_in_job_order() {
        let library = toy_library();
        let jobs = toy_jobs(&library);
        let batch = MappingEngine::new(config(2)).run(&jobs);
        let labels: Vec<usize> = batch
            .outcomes
            .iter()
            .enumerate()
            .filter(|(_, o)| o.is_ok())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(batch.solutions().count(), labels.len());
        assert_eq!(labels, vec![0, 1, 2, 3, 5]);
        for solution in batch.solutions() {
            assert!(solution.verify());
        }
    }

    #[test]
    fn shared_cache_engines_pool_their_bases() {
        let library = toy_library();
        let jobs = toy_jobs(&library);
        let first = MappingEngine::new(config(1));
        first.run(&jobs);
        let second = MappingEngine::with_shared_cache(config(2), Arc::clone(first.cache()));
        let batch = second.run(&jobs);
        assert_eq!(
            batch.stats.cache_misses(),
            0,
            "second engine recomputed bases the shared cache already holds"
        );
    }

    #[test]
    fn self_referential_element_fails_alike_through_mapper_and_engine() {
        // `t = t + x` cannot be a side relation. The search fails at the
        // first node that would price it, and a node cap that stops the
        // search before that node leaves a solution.
        let mut lib = Library::new("t");
        for (name, symbol, poly) in [("sum", "s", "x + y"), ("loop", "t", "t + x")] {
            lib.push(
                LibraryElement::builder(name, symbol)
                    .polynomial(p(poly))
                    .cycles(3)
                    .accuracy(1e-9)
                    .build()
                    .unwrap(),
            );
        }
        let library = Arc::new(lib);
        let target = p("x^2 + 2*x*y + y^2");
        for max_nodes in [1, 2, 3, 20_000] {
            let mapper_config = MapperConfig {
                max_nodes,
                ..MapperConfig::default()
            };
            let direct = Mapper::new(&library, mapper_config.clone()).map_polynomial(&target);
            let job = MapJob::new("loop", target.clone(), Arc::clone(&library), mapper_config);
            let batch = MappingEngine::new(config(1)).run(&[job]);
            assert_eq!(
                format!("{direct:?}"),
                format!("{:?}", batch.outcomes[0]),
                "max_nodes {max_nodes}"
            );
            // Node 1 is the root and node 2 prices {sum}, which maps the
            // target and prunes its subtree; node 3 would price {loop}.
            if max_nodes < 3 {
                assert!(direct.is_ok(), "max_nodes {max_nodes}: {direct:?}");
            } else {
                let expected = CoreError::Algebra(AlgebraError::InvalidSideRelation(
                    "symbol `t` occurs in its own definition".to_string(),
                ));
                assert_eq!(direct.unwrap_err(), expected);
            }
        }
    }

    #[test]
    fn defaults_are_sequential_untraced_and_lifted() {
        let config = EngineConfig::default();
        assert!(config.workers == 1 && !config.trace, "{config:?}");
        assert!(symmap_algebra::groebner::GroebnerOptions::default().multimodular);
    }
}
