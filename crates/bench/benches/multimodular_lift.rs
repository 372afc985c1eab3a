//! The multi-modular lift bench: the exact ℚ Buchberger run against the
//! full verified lift (mod-p images → CRT → rational reconstruction →
//! ℚ-verification) on the katsura-3 coefficient-growth ideal, under lex and
//! under grevlex.
//!
//! It times the whole primary compute path the cache routes through when
//! `GroebnerOptions::multimodular` is set, verification included, and
//! asserts its output byte-identical to the exact engine's under both
//! orders. Grevlex exercises the flat image layout's order-sorted rows
//! (under lex the rows happen to be in the storage order).
//!
//! The regression guard is the lift's reason to exist: under lex it must
//! beat exact by [`LEX_FLOOR`] (asserted in quick mode, where the CI
//! perfgate also records the walls and the prime count to BENCH.json).
//! Grevlex is recorded but not floored: its exact run needs 10 reductions
//! and no coefficient growth, so the lift's fixed cost is not repaid there.

use criterion::{criterion_group, criterion_main, Criterion};
use symmap_algebra::groebner::{buchberger, GroebnerOptions};
use symmap_algebra::multimodular::multimodular_basis;
use symmap_algebra::ordering::MonomialOrder;
use symmap_algebra::poly::Poly;

fn p(s: &str) -> Poly {
    Poly::parse(s).unwrap()
}

/// The katsura-3 hard ideal: dense quadratics with a fractional constant
/// under pure lex, the classic rational-coefficient-growth trigger the lift
/// is built to bypass. Exact lex elimination on it produces rationals with
/// hundreds of digits; mod p every coefficient stays in one machine word.
fn hard_ideal() -> Vec<Poly> {
    vec![
        p("u0 + 2*u1 + 2*u2 + 2*u3 - 1/3"),
        p("u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0"),
        p("2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1"),
        p("u1^2 + 2*u0*u2 + 2*u1*u3 - u2"),
    ]
}

/// The minimum lex speedup of the lift over exact. Derived from what the
/// lift must beat rather than from history: with flat images and
/// fraction-free verification the lift measured 11.5–16.4× over exact
/// (median 16.1×) in five quick runs on a 2-thread x86-64 box, and the
/// floor sits at about half the median, so a scheduler blip cannot fail it
/// but losing either half of the fast path (images back on the generic
/// engine, or verification back on ℚ; the generic-engine lift measured
/// 5.6–7.4× in the same runs) does.
const LEX_FLOOR: f64 = 8.0;

/// One order's comparison: exact and lifted bases (asserted byte-identical
/// with equal reduction counts) and the lift's prime count.
struct Case {
    label: &'static str,
    order: MonomialOrder,
    reductions: usize,
    primes_used: usize,
}

fn case(
    label: &'static str,
    order: MonomialOrder,
    gens: &[Poly],
    options: &GroebnerOptions,
) -> Case {
    // The lift must succeed and be byte-identical — otherwise the timing
    // comparison is between different computations.
    let exact = buchberger(gens, &order, options);
    assert!(exact.complete);
    let outcome = multimodular_basis(gens, &order, options);
    let lifted = outcome
        .basis
        .as_ref()
        .unwrap_or_else(|| panic!("lift fell back to exact on katsura-3 {label}"));
    assert_eq!(
        format!("{:?}", lifted.polys),
        format!("{:?}", exact.polys()),
        "{label}: lifted basis differs from exact"
    );
    assert_eq!(lifted.reductions, exact.reductions);
    Case {
        label,
        order,
        reductions: exact.reductions,
        primes_used: outcome.primes_used,
    }
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var("SYMMAP_QUICK").is_ok();
    let gens = hard_ideal();
    // Pin the flag off so the "exact" side is the exact engine even when the
    // environment routes defaults through the lift.
    let options = GroebnerOptions {
        multimodular: false,
        ..GroebnerOptions::default()
    };
    let vars = ["u0", "u1", "u2", "u3"];
    let cases = [
        case("lex", MonomialOrder::lex(&vars), &gens, &options),
        case("grevlex", MonomialOrder::grevlex(&vars), &gens, &options),
    ];

    if quick {
        use symmap_bench::quickbench;
        let mut entries = Vec::new();
        println!("multimodular_lift — katsura-3, fractional constant");
        for case in &cases {
            let (label, order) = (case.label, &case.order);
            // The exact lex run is tens of ms per iteration, cheap enough for
            // the same nine-sample median as the lift: a thin exact sample
            // lets one scheduler blip swing the asserted ratio.
            let exact_ns = quickbench::measure_ns(2, 9, || {
                criterion::black_box(buchberger(&gens, order, &options));
            });
            let lift_ns = quickbench::measure_ns(5, 9, || {
                criterion::black_box(multimodular_basis(&gens, order, &options));
            });
            let ratio = exact_ns as f64 / lift_ns as f64;
            let primes_used = case.primes_used;
            println!("multimodular_lift/katsura3-{label}-exact-q  {exact_ns:>12} ns/iter");
            println!("multimodular_lift/katsura3-{label}-lifted   {lift_ns:>12} ns/iter");
            println!("{label}: verified lift speedup {ratio:.1}x, {primes_used} prime image(s)");
            if label == "lex" {
                assert!(
                    ratio >= LEX_FLOOR,
                    "verified lift only {ratio:.1}x faster than exact (floor is {LEX_FLOOR}x)"
                );
            }
            let reductions = Some(case.reductions as u64);
            entries.extend([
                quickbench::entry(
                    format!("multimodular_lift/katsura3-{label}-exact-q"),
                    exact_ns,
                    reductions,
                ),
                quickbench::entry(
                    format!("multimodular_lift/katsura3-{label}-lifted"),
                    lift_ns,
                    reductions,
                ),
                // The prime count rides along as a wall-less trajectory
                // marker: a jump here means the reconstruction started
                // needing more images (coefficient growth, unlucky primes,
                // a vote change).
                quickbench::entry(
                    format!("multimodular_lift/katsura3-{label}-primes-used"),
                    primes_used as u128,
                    None,
                ),
            ]);
        }
        quickbench::append_entries(&entries);
        println!(
            "recorded {} entries to {}\n",
            entries.len(),
            quickbench::bench_json_path().display()
        );
        return;
    }

    for case in &cases {
        let (label, order) = (case.label, &case.order);
        c.bench_function(
            &format!("multimodular_lift/katsura3-{label}-exact-q"),
            |b| b.iter(|| buchberger(&gens, order, &options)),
        );
        c.bench_function(&format!("multimodular_lift/katsura3-{label}-lifted"), |b| {
            b.iter(|| multimodular_basis(&gens, order, &options))
        });
    }
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
