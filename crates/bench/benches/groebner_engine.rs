//! The Gröbner hot-path engine bench: reduction counts and wall time of the
//! Buchberger engine (heap pair queue, both criteria) and the mapper's basis
//! memoization, on the workloads the mapping algorithm actually runs.
//!
//! Besides timing, this bench is a **deterministic regression guard**: the
//! engine's reduction counts are exact (no wall clock involved), so the run
//! fails — in CI via `SYMMAP_QUICK=1 cargo bench -p symmap-bench --bench
//! groebner_engine` — whenever the twisted cubic or the mapper's
//! side-relation ideal exceeds its fixed reduction budget.

use criterion::{criterion_group, criterion_main, Criterion};
use symmap_algebra::groebner::{buchberger, GroebnerOptions};
use symmap_algebra::poly::Poly;
use symmap_bench::budgets;
use symmap_core::decompose::{Mapper, MapperConfig};
use symmap_libchar::{Library, LibraryElement};

fn p(s: &str) -> Poly {
    Poly::parse(s).unwrap()
}

fn element(name: &str, symbol: &str, poly: &str, cycles: u64) -> LibraryElement {
    LibraryElement::builder(name, symbol)
        .polynomial(p(poly))
        .cycles(cycles)
        .energy_nj(cycles as f64)
        .accuracy(1e-9)
        .build()
        .unwrap()
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var("SYMMAP_QUICK").is_ok();
    let ideals = budgets::budgeted_ideals();

    println!("\ngroebner engine — S-polynomial reduction counts");
    println!(
        "{:<24} {:>6} {:>10} {:>8} {:>7} {:>6}",
        "ideal", "basis", "reductions", "coprime", "chain", "done"
    );
    for ideal in &ideals {
        let gb = buchberger(&ideal.generators, &ideal.order, &GroebnerOptions::default());
        println!(
            "{:<24} {:>6} {:>10} {:>8} {:>7} {:>6}",
            ideal.name,
            gb.polys().len(),
            gb.reductions,
            gb.skipped_coprime,
            gb.skipped_chain,
            gb.complete
        );
        assert!(gb.complete, "{} hit the iteration bound", ideal.name);
    }

    // The deterministic regression guard (this is what CI quick mode is
    // for): the shared budget table from `symmap_bench::budgets`, also
    // asserted by the engine_batch bench.
    for (name, reductions, budget) in budgets::assert_groebner_budgets() {
        println!("reduction budget ok: {name} {reductions}/{budget}");
    }
    let elimination = budgets::assert_elimination_budget();
    println!(
        "elimination budget ok: twisted-cubic-eliminate-x {}/{}",
        elimination.reductions,
        budgets::ELIMINATION_TWISTED_CUBIC_BUDGET
    );

    // Mapper memoization: identical map_polynomial calls are answered from
    // the basis cache (misses stay flat after the first call).
    let mut lib = Library::new("bench");
    lib.push(element("sum", "s", "x + y", 3));
    lib.push(element("diff", "d", "x - y", 3));
    lib.push(element("prod", "q", "x*y", 5));
    lib.push(element("sq_x", "sx", "x^2", 4));
    let mapper = Mapper::new(&lib, MapperConfig::default());
    let target = p("x^4 - y^4 + x^2*y^2");
    mapper.map_polynomial(&target).unwrap();
    let (_, misses_cold) = mapper.cache_stats();
    mapper.map_polynomial(&target).unwrap();
    let (hits_warm, misses_warm) = mapper.cache_stats();
    println!(
        "mapper memoization: {misses_cold} bases computed cold, repeat run {} hits / {} new bases\n",
        hits_warm,
        misses_warm - misses_cold
    );
    assert_eq!(
        misses_warm, misses_cold,
        "a repeated mapping call recomputed a Gröbner basis"
    );

    if quick {
        // Quick mode still records a wall-clock point per ideal (median of
        // batches, appended to BENCH.json) so the perf trajectory accumulates
        // without a full Criterion run; the reduction count anchors each
        // entry since it is representation-independent and exact.
        use symmap_bench::quickbench;
        let mut entries = Vec::new();
        println!("groebner_engine — quick wall-clock (median of batches)");
        for ideal in &ideals {
            let gb = buchberger(&ideal.generators, &ideal.order, &GroebnerOptions::default());
            let wall_ns = quickbench::measure_ns(10, 9, || {
                criterion::black_box(buchberger(
                    &ideal.generators,
                    &ideal.order,
                    &GroebnerOptions::default(),
                ));
            });
            println!("groebner_engine/{:<24} {wall_ns:>12} ns/iter", ideal.name);
            entries.push(quickbench::entry(
                format!("groebner_engine/{}", ideal.name),
                wall_ns,
                Some(gb.reductions as u64),
            ));
        }
        quickbench::append_entries(&entries);
        println!(
            "recorded {} entries to {}\n",
            entries.len(),
            quickbench::bench_json_path().display()
        );
        return;
    }

    for ideal in &ideals {
        c.bench_function(&format!("groebner_engine/{}/full", ideal.name), |b| {
            b.iter(|| buchberger(&ideal.generators, &ideal.order, &GroebnerOptions::default()))
        });
    }
    c.bench_function("groebner_engine/mapper_memoized", |b| {
        b.iter(|| mapper.map_polynomial(&target).unwrap())
    });
    c.bench_function("groebner_engine/mapper_cold_cache", |b| {
        b.iter(|| {
            Mapper::new(&lib, MapperConfig::default())
                .map_polynomial(&target)
                .unwrap()
        })
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
