//! Differential tests of the multi-modular (CRT + rational reconstruction)
//! Gröbner path against the exact ℚ path: on the bench-budget ideals —
//! including wide α-renamed copies whose variable names stress the
//! interner/ring boundary — the verified lift must be **byte-identical** to
//! the exact engine, counters included. The injection tests then prove the failure handling:
//! an unlucky prime planted at the front of the stream is outvoted and the
//! lift still lands on the exact basis, and a starved prime budget produces
//! a verified fallback, never a wrong basis.

use proptest::prelude::*;
use symmap_algebra::groebner::{buchberger, GroebnerOptions};
use symmap_algebra::multimodular::{multimodular_basis, multimodular_basis_with_primes};
use symmap_algebra::ordering::MonomialOrder;
use symmap_algebra::poly::Poly;
use symmap_numeric::PrimeIterator;

fn p(s: &str) -> Poly {
    Poly::parse(s).unwrap()
}

/// The three bench-budget ideals (`crates/bench/src/budgets.rs`) plus wide
/// α-renamed copies of two of them: the same ideal shapes under long, late
/// interner names, so the lift is exercised on ring-localized coordinates
/// that differ from the global ones.
fn budget_ideals() -> Vec<(&'static str, Vec<Poly>, MonomialOrder)> {
    vec![
        (
            "twisted-cubic",
            vec![p("x^2 - y"), p("x^3 - z")],
            MonomialOrder::lex(&["x", "y", "z"]),
        ),
        (
            "mapper-side-relations",
            vec![p("x + y - s"), p("x - y - d"), p("x*y - q"), p("x^2 - sx")],
            MonomialOrder::lex(&["x", "y", "s", "d", "q", "sx"]),
        ),
        (
            "circle-system",
            vec![p("x^2 + y^2 + z^2 - 1"), p("x*y - z"), p("x - y + z^2")],
            MonomialOrder::grevlex(&["x", "y", "z"]),
        ),
        (
            "twisted-cubic-wide",
            vec![
                p("mm_wide_var_x0^2 - mm_wide_var_y1"),
                p("mm_wide_var_x0^3 - mm_wide_var_z2"),
            ],
            MonomialOrder::lex(&["mm_wide_var_x0", "mm_wide_var_y1", "mm_wide_var_z2"]),
        ),
        (
            "circle-system-wide",
            vec![
                p("mm_wide_var_a^2 + mm_wide_var_b^2 + mm_wide_var_c^2 - 1"),
                p("mm_wide_var_a*mm_wide_var_b - mm_wide_var_c"),
                p("mm_wide_var_a - mm_wide_var_b + mm_wide_var_c^2"),
            ],
            MonomialOrder::grevlex(&["mm_wide_var_a", "mm_wide_var_b", "mm_wide_var_c"]),
        ),
    ]
}

/// The multimodular flag pinned off, so the oracle side is always the exact
/// engine.
fn exact_options() -> GroebnerOptions {
    GroebnerOptions {
        multimodular: false,
        ..Default::default()
    }
}

#[test]
fn lift_is_byte_identical_to_exact_across_ideals() {
    let options = exact_options();
    for (name, gens, order) in budget_ideals() {
        let exact = buchberger(&gens, &order, &options);
        assert!(exact.complete, "{name}: exact run must complete");
        let lift = multimodular_basis(&gens, &order, &options);
        let basis = lift
            .basis
            .unwrap_or_else(|| panic!("{name}: lift fell back on a clean system"));
        // Byte identity: same Debug rendering of the polynomial vectors
        // (coefficients, monomials, ordering — everything).
        assert_eq!(
            format!("{:?}", basis.polys),
            format!("{:?}", exact.polys()),
            "{name}: lifted basis differs from exact"
        );
        // The counters the mapper's budgets consume must match too.
        assert_eq!(basis.reductions, exact.reductions, "{name}");
        assert_eq!(basis.skipped_coprime, exact.skipped_coprime, "{name}");
        assert_eq!(basis.skipped_chain, exact.skipped_chain, "{name}");
    }
}

/// An unlucky prime planted at the *front* of the stream: mod 3 the tail
/// term of `x^2 - 3*y` vanishes, so the first image has a different
/// skeleton, reconstructs to a candidate that fails ℚ-verification, and is
/// eventually outvoted by the two good primes behind it. The lift must
/// recover the exact basis and report the discard.
#[test]
fn unlucky_leading_prime_is_outvoted_and_the_lift_recovers() {
    let gens = [p("x^2 - 3*y"), p("y^2 - 1")];
    let order = MonomialOrder::lex(&["x", "y"]);
    let options = exact_options();
    let exact = buchberger(&gens, &order, &options);
    assert!(exact.complete);

    let mut primes = vec![3_u64];
    primes.extend(PrimeIterator::new().take(2));
    let outcome = multimodular_basis_with_primes(&gens, &order, &options, primes, 3);
    let basis = outcome
        .basis
        .expect("majority vote must recover from one unlucky prime");
    assert_eq!(
        format!("{:?}", basis.polys),
        format!("{:?}", exact.polys()),
        "recovered basis differs from exact"
    );
    // The bad image was outvoted (counted discarded), and its candidate
    // failed verification at least once before the majority flipped.
    assert!(outcome.discarded_primes >= 1);
    assert!(outcome.retries >= 1);
    assert_eq!(outcome.primes_used, 3);
}

/// A localization-rejecting prime (denominator divisible by the planted
/// prime) is skipped by rotation, and the lift proceeds on the remaining
/// primes.
#[test]
fn localization_rejected_prime_is_rotated_past() {
    let gens = [p("x^2 - 1/3*y"), p("y^2 - 1")];
    let order = MonomialOrder::lex(&["x", "y"]);
    let options = exact_options();
    let exact = buchberger(&gens, &order, &options);

    let mut primes = vec![3_u64];
    primes.extend(PrimeIterator::new().take(2));
    let outcome = multimodular_basis_with_primes(&gens, &order, &options, primes, 2);
    let basis = outcome.basis.expect("rotation must recover");
    assert_eq!(format!("{:?}", basis.polys), format!("{:?}", exact.polys()));
    assert!(outcome.discarded_primes >= 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Starved prime budgets (one image from a possibly tiny prime) either
    /// produce the exact basis or a verified fallback (`None`) — never a
    /// wrong basis. This is the verification gate's contract: soundness
    /// does not depend on having enough primes.
    #[test]
    fn prop_capped_prime_budget_falls_back_but_never_lies(
        ideal_idx in 0usize..5,
        prime_idx in 0usize..6,
    ) {
        let (name, gens, order) = budget_ideals().swap_remove(ideal_idx);
        let options = exact_options();
        // Small primes make single-image reconstruction fail its bounds
        // (forcing the fallback); the production primes let it succeed.
        let prime = [3_u64, 5, 7, 11, 101][..5]
            .get(prime_idx)
            .copied()
            .unwrap_or_else(|| PrimeIterator::new().next().unwrap());
        let outcome = multimodular_basis_with_primes(&gens, &order, &options, [prime], 1);
        if let Some(basis) = outcome.basis {
            let exact = buchberger(&gens, &order, &options);
            prop_assert_eq!(
                format!("{:?}", basis.polys),
                format!("{:?}", exact.polys()),
                "{}: a certified single-prime lift must be the exact basis", name
            );
        }
        // `None` is always acceptable: the caller runs the exact engine.
    }
}
