//! The multi-modular lift bench: the exact ℚ Buchberger run against the
//! full verified lift (mod-p images → CRT → rational reconstruction →
//! ℚ-verification) on the katsura-3 coefficient-growth ideal from the
//! `modular_prefilter` bench.
//!
//! Unlike the prefilter bench — which times a *bare* mod-p basis run and is
//! only an advisory speed ceiling — this one times the whole primary
//! compute path the cache now routes through when
//! `GroebnerOptions::multimodular` is set, verification included, and
//! asserts its output byte-identical to the exact engine's. The regression
//! guard is the lift's reason to exist: at least 5× faster than exact on
//! this ideal (asserted in quick mode, where the CI perfgate also records
//! the walls and the prime count to BENCH.json).

use criterion::{criterion_group, criterion_main, Criterion};
use symmap_algebra::groebner::{buchberger, GroebnerOptions};
use symmap_algebra::multimodular::multimodular_basis;
use symmap_algebra::ordering::MonomialOrder;
use symmap_algebra::poly::Poly;

fn p(s: &str) -> Poly {
    Poly::parse(s).unwrap()
}

/// The katsura-3 hard ideal (see `modular_prefilter.rs` for why): dense
/// quadratics with a fractional constant under pure lex, the classic
/// rational-coefficient-growth trigger the lift is built to bypass.
fn hard_ideal() -> (Vec<Poly>, MonomialOrder) {
    let gens = vec![
        p("u0 + 2*u1 + 2*u2 + 2*u3 - 1/3"),
        p("u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0"),
        p("2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1"),
        p("u1^2 + 2*u0*u2 + 2*u1*u3 - u2"),
    ];
    let order = MonomialOrder::lex(&["u0", "u1", "u2", "u3"]);
    (gens, order)
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var("SYMMAP_QUICK").is_ok();
    let (gens, order) = hard_ideal();
    // Pin the flag off so the "exact" side is the exact engine even when the
    // environment routes defaults through the lift.
    let options = GroebnerOptions {
        multimodular: false,
        ..GroebnerOptions::default()
    };

    // The lift must succeed and be byte-identical — otherwise the timing
    // comparison is between different computations.
    let exact = buchberger(&gens, &order, &options);
    assert!(exact.complete);
    let outcome = multimodular_basis(&gens, &order, &options);
    let lifted = outcome
        .basis
        .as_ref()
        .expect("lift fell back to exact on the katsura-3 ideal");
    assert_eq!(
        format!("{:?}", lifted.polys),
        format!("{:?}", exact.polys()),
        "lifted basis differs from exact"
    );
    assert_eq!(lifted.reductions, exact.reductions);
    let primes_used = outcome.primes_used;

    if quick {
        use symmap_bench::quickbench;
        // The exact run is tens of ms per iteration, cheap enough for the
        // same nine-sample median as the lift: a thin exact sample lets one
        // scheduler blip swing the asserted ratio.
        let exact_ns = quickbench::measure_ns(2, 9, || {
            criterion::black_box(buchberger(&gens, &order, &options));
        });
        let lift_ns = quickbench::measure_ns(5, 9, || {
            criterion::black_box(multimodular_basis(&gens, &order, &options));
        });
        let ratio = exact_ns as f64 / lift_ns as f64;
        println!("multimodular_lift — katsura-3 lex, fractional constant");
        println!("multimodular_lift/katsura3-lex-exact-q  {exact_ns:>12} ns/iter");
        println!("multimodular_lift/katsura3-lex-lifted   {lift_ns:>12} ns/iter");
        println!("verified lift speedup: {ratio:.1}x (floor 5x), {primes_used} prime image(s)");
        assert!(
            ratio >= 5.0,
            "verified lift only {ratio:.1}x faster than exact (floor is 5x)"
        );
        let entries = vec![
            quickbench::entry(
                "multimodular_lift/katsura3-lex-exact-q",
                exact_ns,
                Some(exact.reductions as u64),
            ),
            quickbench::entry(
                "multimodular_lift/katsura3-lex-lifted",
                lift_ns,
                Some(lifted.reductions as u64),
            ),
            // The prime count rides along as a wall-less trajectory marker:
            // a jump here means the reconstruction started needing more
            // images (coefficient growth, unlucky primes, a vote change).
            quickbench::entry(
                "multimodular_lift/katsura3-lex-primes-used",
                primes_used as u128,
                None,
            ),
        ];
        quickbench::append_entries(&entries);
        println!(
            "recorded {} entries to {}\n",
            entries.len(),
            quickbench::bench_json_path().display()
        );
        return;
    }

    c.bench_function("multimodular_lift/katsura3-lex-exact-q", |b| {
        b.iter(|| buchberger(&gens, &order, &options))
    });
    c.bench_function("multimodular_lift/katsura3-lex-lifted", |b| {
        b.iter(|| multimodular_basis(&gens, &order, &options))
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
