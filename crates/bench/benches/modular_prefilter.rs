//! The modular-prefilter bench: exact ℚ Buchberger against the mod-p fast
//! path on a genuinely hard side-relation ideal — a dense quadratic
//! katsura-3 system with a fractional constant, under lex. This is the
//! regime the prefilter exists for: the exact run's rational coefficients
//! blow far past the small-fraction fast path (every elimination compounds
//! numerators and denominators), while the ℤ/p run keeps every coefficient
//! in one machine word.
//!
//! Small fractional ideals are deliberately NOT used here: symmap's
//! `Rational` has an inline `i64` fast path, so on the mapper's everyday
//! side relations the exact run is already cheap and the prefilter's win is
//! marginal. The prefilter pays off exactly when coefficient growth kicks
//! in — which is what this ideal forces.
//!
//! Besides timing, this bench is a regression guard on the prefilter's
//! reason to exist: the mod-p basis run must stay at least 5× faster than
//! the exact run on this ideal (asserted in quick mode, where the CI
//! perfgate also records both walls to BENCH.json).

use criterion::{criterion_group, criterion_main, Criterion};
use symmap_algebra::groebner::{buchberger, GroebnerOptions};
use symmap_algebra::modular::FpBasis;
use symmap_algebra::ordering::MonomialOrder;
use symmap_algebra::poly::Poly;
use symmap_numeric::PrimeIterator;

fn p(s: &str) -> Poly {
    Poly::parse(s).unwrap()
}

/// The hard ideal: katsura-3 (dense quadratic relations in four variables)
/// with a fractional constant in the linear relation, under pure lex — the
/// classic coefficient-growth trigger. Exact lex elimination on this system
/// produces rationals with hundreds of digits; mod p the same 46 reductions
/// run entirely in `u64` Montgomery arithmetic.
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
    // Pin the lift off: with the default options the "exact" side would be
    // the multi-modular lift (itself three mod-p images plus a ℚ verify),
    // not the exact engine this bench compares against.
    let options = GroebnerOptions {
        multimodular: false,
        ..GroebnerOptions::default()
    };
    let prime = PrimeIterator::new().next().unwrap();

    // Both paths must complete, agree on the basis shape, and the prime must
    // be lucky — otherwise the timing comparison is meaningless.
    let exact = buchberger(&gens, &order, &options);
    assert!(exact.complete);
    let fp = FpBasis::with_prime(prime, &gens, &order, &options)
        .expect("seed prime unlucky for the katsura-3 ideal");
    assert!(fp.complete);
    let exact_lms: Vec<_> = exact
        .polys()
        .iter()
        .map(|g| g.leading_monomial(&order).unwrap())
        .collect();
    assert_eq!(fp.leading_monomials(), exact_lms);

    if quick {
        use symmap_bench::quickbench;
        // The exact run is tens of ms per iteration, cheap enough for the
        // same nine-sample median as the mod-p run: a thin exact sample lets
        // one scheduler blip swing the asserted ratio.
        let exact_ns = quickbench::measure_ns(2, 9, || {
            criterion::black_box(buchberger(&gens, &order, &options));
        });
        let modp_ns = quickbench::measure_ns(10, 9, || {
            criterion::black_box(FpBasis::with_prime(prime, &gens, &order, &options).unwrap());
        });
        let ratio = exact_ns as f64 / modp_ns as f64;
        println!("modular_prefilter — katsura-3 lex, fractional constant");
        println!("modular_prefilter/katsura3-lex-exact-q {exact_ns:>12} ns/iter");
        println!("modular_prefilter/katsura3-lex-mod-p   {modp_ns:>12} ns/iter");
        println!("mod-p speedup: {ratio:.1}x (floor 5x)");
        assert!(
            ratio >= 5.0,
            "mod-p basis run only {ratio:.1}x faster than exact (floor is 5x)"
        );
        let entries = vec![
            quickbench::entry(
                "modular_prefilter/katsura3-lex-exact-q",
                exact_ns,
                Some(exact.reductions as u64),
            ),
            quickbench::entry(
                "modular_prefilter/katsura3-lex-mod-p",
                modp_ns,
                Some(fp.reductions as u64),
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

    c.bench_function("modular_prefilter/katsura3-lex-exact-q", |b| {
        b.iter(|| buchberger(&gens, &order, &options))
    });
    c.bench_function("modular_prefilter/katsura3-lex-mod-p", |b| {
        b.iter(|| FpBasis::with_prime(prime, &gens, &order, &options).unwrap())
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
