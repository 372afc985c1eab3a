//! Differential proof of the mapper's factor test: for every target and
//! element, `TargetGuidance::is_factor` must agree with scanning the
//! factors `factor(target)` returns. Targets whose factorization is their
//! primitive part alone never build that part; their answer comes from
//! proportionality and primitivity instead, and must be the same.

use symmap_algebra::factor::{factor, is_primitive};
use symmap_algebra::fingerprint::{PolyFingerprint, TargetGuidance};
use symmap_algebra::poly::Poly;
use symmap_algebra::var::Var;
use symmap_libchar::catalog;
use symmap_mp3::{imdct, synthesis};
use symmap_numeric::Rational;
use symmap_platform::machine::Badge4;

fn p(s: &str) -> Poly {
    Poly::parse(s).expect("test polynomial parses")
}

/// Checks `is_factor` against the factor scan for `target` and every
/// element, all through one guidance record (so its memo is shared), and
/// returns how many elements were factors.
fn agree(target: &Poly, elements: &[Poly]) -> usize {
    let factors = factor(target).factors;
    let guidance = TargetGuidance::of(target);
    let mut hits = 0;
    for element in elements {
        let expected = factors.iter().any(|(f, _)| f == element);
        let efp = PolyFingerprint::of(element);
        let got = guidance.is_factor(target, element, &efp, || is_primitive(element));
        assert_eq!(got, expected, "target {target}, element {element}");
        hits += got as usize;
    }
    hits
}

/// The target, its scalar multiples and its product with a variable: the
/// elements the fingerprint screen cannot separate from the target by
/// shape alone, or only by degree.
fn multiples(target: &Poly) -> Vec<Poly> {
    let mut out = vec![
        target.clone(),
        target.scale(&Rational::integer(2)),
        target.neg(),
        target.scale(&Rational::new(-3, 7)),
        target.mul(&Poly::var(Var::new("x"))),
    ];
    if let Ok(c) = target.content().recip() {
        out.push(target.scale(&c));
    }
    out.extend(factor(target).factors.into_iter().map(|(f, _)| f));
    out
}

#[test]
fn is_factor_matches_the_factor_scan_on_the_mp3_kernels_and_the_full_catalog() {
    let catalog: Vec<Poly> = catalog::full_catalog(&Badge4::new())
        .iter()
        .map(|e| e.polynomial().clone())
        .collect();
    let mut targets = vec![
        catalog::dequantizer_polynomial(),
        catalog::stereo_polynomial(),
        catalog::antialias_polynomial(),
        catalog::hybrid_polynomial(),
    ];
    targets.extend((0..36).map(|line| imdct::imdct_polynomial(line, 36)));
    targets.extend((0..64).map(synthesis::synthesis_polynomial));
    let mut hits = 0;
    for target in &targets {
        let mut elements = catalog.clone();
        elements.extend(multiples(target));
        hits += agree(target, &elements);
    }
    // Each nonzero target's own factors are among its elements.
    assert!(hits >= targets.len() - 1, "{hits} factors found");
}

#[test]
fn is_factor_matches_the_factor_scan_on_synthetic_targets() {
    let targets = [
        // At least 4 terms and 2 variables, no common monomial: the
        // factorization is the primitive part alone.
        "6*x*y + 4*z + 2*w + 2",
        "-3*x^2*y + 1/2*z - w + 5",
        "1/3*a + 2/3*b + c + d",
        "x*y + y*z + z*w + w*x",
        // A common monomial, a difference of squares and a perfect square.
        "x^2*y + x*z + x*w + x",
        "x^2 - y^2",
        "4*x^2 + 4*x*y + y^2",
        // 2- and 3-term targets.
        "2*x + 3*y",
        "x*y - z + 1",
        // Univariate targets.
        "x^2 - 1",
        "2*x^3 - 2*x",
        "x^4 + x^3 + x + 5",
    ];
    let others = [p("x"), p("x - 1"), p("x + 1"), p("2*x + y"), p("x + y")];
    for target in targets.iter().map(|t| p(t)) {
        let mut elements = multiples(&target);
        elements.extend(others.iter().cloned());
        assert!(agree(&target, &elements) >= 1, "{target} has no factor");
    }
}
