//! Multivariate polynomial substitution.
//!
//! Substitution is one of the "guideline" manipulations of §3.3: replacing a
//! variable by another polynomial produces equivalent formulations of the
//! target, which widens the pool of candidate side-relation sets for the
//! branch-and-bound search.

use std::collections::BTreeMap;

use crate::error::AlgebraError;
use crate::poly::Poly;
use crate::var::Var;

/// Substitutes `replacement` for every occurrence of `var` in `poly`.
///
/// # Errors
///
/// Returns [`AlgebraError::ExponentTooLarge`] if an intermediate power would
/// exceed the safety bound of [`Poly::pow`], and
/// [`AlgebraError::DegreeOverflow`] if a substituted term's exponents or
/// total degree overflow `u32`.
pub fn substitute(poly: &Poly, var: Var, replacement: &Poly) -> Result<Poly, AlgebraError> {
    let mut assignment = BTreeMap::new();
    assignment.insert(var, replacement.clone());
    substitute_all(poly, &assignment)
}

/// Substitutes several variables simultaneously (occurrences of the
/// substituted variables inside the replacement polynomials are *not*
/// re-substituted, matching simultaneous substitution semantics).
///
/// # Errors
///
/// Returns [`AlgebraError::ExponentTooLarge`] if an intermediate power would
/// exceed the safety bound of [`Poly::pow`], and
/// [`AlgebraError::DegreeOverflow`] if a substituted term's exponents or
/// total degree overflow `u32`.
pub fn substitute_all(poly: &Poly, assignment: &BTreeMap<Var, Poly>) -> Result<Poly, AlgebraError> {
    let mut out = Poly::zero();
    for (m, c) in poly.iter() {
        let mut term = Poly::constant(c.clone());
        for (v, e) in m.iter() {
            let factor = match assignment.get(&v) {
                Some(rep) => rep.pow(e)?,
                None => Poly::from_term(
                    crate::monomial::Monomial::var(v, e),
                    symmap_numeric::Rational::one(),
                ),
            };
            term = term.try_mul(&factor)?;
        }
        out = out.add(&term);
    }
    Ok(out)
}

/// Renames a variable (a special case of substitution that cannot fail).
pub fn rename(poly: &Poly, from: Var, to: Var) -> Poly {
    substitute(poly, from, &Poly::var(to)).expect("renaming never raises exponents")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Poly {
        Poly::parse(s).unwrap()
    }

    #[test]
    fn substitute_variable_by_polynomial() {
        // x^2 + x with x := y + 1 gives y^2 + 3y + 2.
        let out = substitute(&p("x^2 + x"), Var::new("x"), &p("y + 1")).unwrap();
        assert_eq!(out, p("y^2 + 3*y + 2"));
    }

    #[test]
    fn substitute_by_constant_evaluates() {
        let out = substitute(&p("x^2*y + x"), Var::new("x"), &Poly::integer(2)).unwrap();
        assert_eq!(out, p("4*y + 2"));
    }

    #[test]
    fn simultaneous_substitution_does_not_cascade() {
        // x -> y, y -> x swaps the variables rather than collapsing them.
        let mut asn = BTreeMap::new();
        asn.insert(Var::new("x"), p("y"));
        asn.insert(Var::new("y"), p("x"));
        let out = substitute_all(&p("x^2 + y"), &asn).unwrap();
        assert_eq!(out, p("y^2 + x"));
    }

    #[test]
    fn substituting_missing_variable_is_identity() {
        let t = p("x^3 - 2");
        assert_eq!(substitute(&t, Var::new("unused_var"), &p("y")).unwrap(), t);
    }

    #[test]
    fn overflowing_substitution_is_an_error_not_a_panic() {
        // `e` is x^(2^30). Substituting y := e into e*y^3 multiplies x^(2^30)
        // by e^3 = x^(3·2^30): each factor fits u32, their product does not.
        let e = p("((((x^64)^64)^64)^64)^64");
        let target = e.mul(&p("y^3"));
        assert_eq!(
            substitute(&target, Var::new("y"), &e),
            Err(AlgebraError::DegreeOverflow)
        );
        // One power less fits: x^(2^30) · x^(2·2^30).
        let fits = substitute(&e.mul(&p("y^2")), Var::new("y"), &e).unwrap();
        assert_eq!(fits.total_degree(), 3 << 30);
    }

    #[test]
    fn rename_changes_variable() {
        let out = rename(&p("a^2 + a*b"), Var::new("a"), Var::new("c"));
        assert_eq!(out, p("c^2 + c*b"));
    }

    #[test]
    fn substitution_into_zero_is_zero() {
        assert!(substitute(&Poly::zero(), Var::new("x"), &p("y + 1"))
            .unwrap()
            .is_zero());
    }

    #[test]
    fn horner_identity_under_substitution() {
        // p(x) evaluated at x := q(y) equals substitute then evaluate.
        use symmap_numeric::Rational;
        let target = p("3*x^2 - x + 5");
        let q = p("2*y - 1");
        let composed = substitute(&target, Var::new("x"), &q).unwrap();
        let mut asn = BTreeMap::new();
        asn.insert(Var::new("y"), Rational::integer(4));
        let qv = q.eval(&asn);
        let mut asn_x = BTreeMap::new();
        asn_x.insert(Var::new("x"), qv);
        assert_eq!(composed.eval(&asn), target.eval(&asn_x));
    }
}
