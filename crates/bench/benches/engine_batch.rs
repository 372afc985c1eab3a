//! The batch-engine bench: the full 11-kernel MP3 mapping batch at 1 and N
//! workers, with byte-identical-output verification and the shared budget
//! table as the deterministic regression guard.
//!
//! Wall-clock speedup is hardware-dependent (it needs real cores), so the
//! `workers = N ≥ 2×` acceptance assertion only fires when the runner
//! actually has ≥ 4 hardware threads; the determinism assertion — identical
//! `MappingSolution`s at every worker count — fires everywhere, every run.
//! In `SYMMAP_QUICK=1` mode both cold wall clocks, the warm-cache wall clock
//! (one worker, every basis already cached: the search's per-node path),
//! the speedup and the shared cache's batch counters are appended to
//! `BENCH.json`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use symmap_bench::{budgets, mp3_kernel_jobs};
use symmap_engine::{BatchResult, EngineConfig, MapperConfig, MappingEngine};
use symmap_libchar::catalog;
use symmap_platform::machine::Badge4;

/// Worker count for the parallel measurement (the acceptance criterion's
/// "N").
const PARALLEL_WORKERS: usize = 4;

/// Cold batches per timed sample, and samples per worker count. A cold
/// batch takes about 0.8 ms on a 2-thread x86-64 box, so the alternating
/// measurement takes about 0.25 s: long enough that one scheduler blip
/// moves a sample by little, short enough for a CI quick run.
const COLD_ITERS: u32 = 10;
const COLD_SAMPLES: usize = 15;

fn engine(workers: usize) -> MappingEngine {
    MappingEngine::new(EngineConfig {
        workers,
        ..EngineConfig::default()
    })
}

/// Runs the batch on a fresh engine (cold cache) so both worker counts do
/// the same basis work and the comparison measures scheduling, not warmup.
fn run_cold(jobs: &[symmap_engine::MapJob], workers: usize) -> BatchResult {
    engine(workers).run(jobs)
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var("SYMMAP_QUICK").is_ok();
    let badge = Badge4::new();
    let library = Arc::new(catalog::full_catalog(&badge));
    let jobs = mp3_kernel_jobs(&library, &MapperConfig::default());
    assert_eq!(jobs.len(), 11, "the MP3 kernel batch is 11 jobs");
    let n = PARALLEL_WORKERS;

    // Deterministic guards first: identical solutions at every worker count,
    // and the shared reduction-budget table (also asserted by the
    // groebner_engine bench — same table, one definition).
    let sequential = run_cold(&jobs, 1);
    for workers in [2, n] {
        let parallel = run_cold(&jobs, workers);
        assert_eq!(
            format!("{:?}", parallel.outcomes),
            format!("{:?}", sequential.outcomes),
            "solutions diverged at {workers} workers"
        );
    }
    for (name, reductions, budget) in budgets::assert_groebner_budgets() {
        println!("engine_batch budget ok: {name} {reductions}/{budget}");
    }
    budgets::assert_elimination_budget();
    println!(
        "engine_batch: 11-kernel batch maps {} kernels ({} cache misses cold)",
        sequential.outcomes.iter().filter(|o| o.is_ok()).count(),
        sequential.stats.cache_misses()
    );

    // Wall-clock: median of batches at workers = 1 and workers = N, cold
    // cache each iteration so every run does the full basis workload. The
    // two are timed in alternating batches, so both medians sample the same
    // stretch of machine load.
    let (wall_1, wall_n) = symmap_bench::quickbench::measure_alternating_ns(
        (COLD_ITERS, || {
            criterion::black_box(run_cold(&jobs, 1));
        }),
        (COLD_ITERS, || {
            criterion::black_box(run_cold(&jobs, n));
        }),
        COLD_SAMPLES,
    );
    // Warm cache, one worker: every basis and normal form is a memo hit, so
    // this times the search's own per-node work, which a cold batch hides
    // behind its basis computations.
    let warm = engine(1);
    warm.run(&jobs);
    let samples = if quick { 5 } else { 9 };
    let wall_warm = symmap_bench::quickbench::measure_ns(2, samples, || {
        criterion::black_box(warm.run(&jobs));
    });
    let speedup = wall_1 as f64 / wall_n.max(1) as f64;
    let hardware = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!(
        "engine_batch: workers=1 {wall_1} ns, workers={n} {wall_n} ns, \
         warm cache {wall_warm} ns, speedup {speedup:.2}x on {hardware} hardware threads"
    );
    if hardware >= 4 {
        assert!(
            speedup >= 2.0,
            "11-kernel batch at {n} workers must be ≥ 2x faster than sequential \
             on a ≥ 4-core runner (got {speedup:.2}x)"
        );
    }

    if quick {
        use symmap_bench::quickbench;
        let note = quickbench::run_note();
        let stats = &sequential.stats;
        // hw_threads is a structured entry field now; the note keeps only
        // what the schema cannot carry (speedup, worker count, cache deltas).
        let cache_note = format!(
            "speedup {speedup:.2}x @{n}w; cold cache {}h/{}m/{}e",
            stats.cache_hits(),
            stats.cache_misses(),
            stats.cache_evictions(),
        );
        let full_note = if note.is_empty() {
            cache_note
        } else {
            format!("{note}; {cache_note}")
        };
        quickbench::append_entries(&[
            quickbench::QuickEntry {
                note: full_note.clone(),
                ..quickbench::entry("engine_batch/mp3-11-kernels/workers-1", wall_1, None)
            },
            quickbench::QuickEntry {
                note: full_note.clone(),
                ..quickbench::entry(
                    format!("engine_batch/mp3-11-kernels/workers-{n}"),
                    wall_n,
                    None,
                )
            },
            quickbench::QuickEntry {
                note: full_note,
                ..quickbench::entry("engine_batch/mp3-11-kernels/warm-cache", wall_warm, None)
            },
        ]);
        println!(
            "recorded engine_batch entries to {}",
            quickbench::bench_json_path().display()
        );
        return;
    }

    c.bench_function("engine_batch/mp3-11-kernels/workers-1", |b| {
        b.iter(|| run_cold(&jobs, 1))
    });
    c.bench_function(&format!("engine_batch/mp3-11-kernels/workers-{n}"), |b| {
        b.iter(|| run_cold(&jobs, n))
    });
    c.bench_function("engine_batch/mp3-11-kernels/warm-cache", |b| {
        b.iter(|| warm.run(&jobs))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench
}
criterion_main!(benches);
