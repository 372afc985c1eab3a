//! Variable elimination via elimination ideals.
//!
//! Gröbner bases under an elimination order solve the "variable elimination in
//! a set of polynomials" problem the paper cites as one of the capabilities of
//! symbolic computer algebra: intersecting the ideal with the subring that
//! omits the eliminated variables.

use crate::groebner::{buchberger, GroebnerOptions};
use crate::ordering::MonomialOrder;
use crate::poly::Poly;
use crate::var::VarSet;

/// Result of an elimination: the generators of the elimination ideal (all
/// polynomials free of the eliminated variables) plus the full basis.
#[derive(Debug, Clone)]
pub struct Elimination {
    /// Basis of the elimination ideal — free of the eliminated variables.
    pub eliminated: Vec<Poly>,
    /// The full Gröbner basis computed along the way.
    pub full_basis: Vec<Poly>,
    /// Whether the Gröbner computation ran to completion.
    pub complete: bool,
    /// Number of S-polynomial reductions spent on the basis.
    pub reductions: usize,
}

/// Eliminates the variables named in `eliminate` from the ideal generated by
/// `generators`, returning generators of the elimination ideal.
///
/// The remaining variables (appearing in the generators but not listed) are
/// kept; polynomials in the result involve only those.
pub fn eliminate(generators: &[Poly], eliminate: &[&str]) -> Elimination {
    let elim_set = VarSet::from_names(eliminate);
    let mut all_vars = elim_set.clone();
    for g in generators {
        all_vars = all_vars.union(&g.vars());
    }
    let order = MonomialOrder::Elimination(all_vars, elim_set.len());
    // The basis is computed in ring-local coordinates (a ring spanning the
    // generators is built once, inside `buchberger`); the elimination result
    // is a list of global polynomials, so this is one of the few callers
    // that actually materializes the globalized basis.
    let gb = buchberger(generators, &order, &GroebnerOptions::default());
    let full_basis = gb.polys().to_vec();
    let eliminated = full_basis
        .iter()
        .filter(|p| p.vars().iter().all(|v| !elim_set.contains(v)))
        .cloned()
        .collect();
    Elimination {
        eliminated,
        full_basis,
        complete: gb.complete,
        reductions: gb.reductions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Poly {
        Poly::parse(s).unwrap()
    }

    #[test]
    fn eliminate_parameter_from_parametric_curve() {
        // x = t^2, y = t^3  =>  eliminating t yields y^2 - x^3 = 0.
        let e = eliminate(&[p("x - t^2"), p("y - t^3")], &["t"]);
        assert!(e.complete);
        assert!(!e.eliminated.is_empty());
        let target = p("y^2 - x^3");
        assert!(
            e.eliminated.iter().any(|q| q == &target || q == &target.neg().monic(
                &MonomialOrder::lex(&["x", "y"])
            )),
            "expected y^2 - x^3 in {:?}",
            e.eliminated.iter().map(|q| q.to_string()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn eliminate_from_circle_line_intersection() {
        // x^2 + y^2 - 1 and x - y: eliminating x gives 2y^2 - 1 (up to scaling).
        let e = eliminate(&[p("x^2 + y^2 - 1"), p("x - y")], &["x"]);
        assert!(
            e.eliminated.iter().any(|q| q == &p("y^2 - 1/2")),
            "got {:?}",
            e.eliminated
                .iter()
                .map(|q| q.to_string())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn eliminating_nothing_returns_whole_basis() {
        let e = eliminate(&[p("x^2 - y")], &[]);
        assert_eq!(e.eliminated.len(), e.full_basis.len());
    }

    #[test]
    fn elimination_ideal_can_be_empty() {
        // A single generator involving t has trivial elimination ideal.
        let e = eliminate(&[p("x - t")], &["t"]);
        assert!(e.eliminated.is_empty());
    }

    #[test]
    fn eliminated_polys_do_not_mention_eliminated_vars() {
        let e = eliminate(
            &[p("u - x - y"), p("v - x*y"), p("x^2 + y^2 - 4")],
            &["x", "y"],
        );
        for q in &e.eliminated {
            let vars = q.vars();
            assert!(!vars.contains(crate::var::Var::new("x")));
            assert!(!vars.contains(crate::var::Var::new("y")));
        }
        // The symmetric-function relation u^2 - 2v = x^2 + y^2 = 4 must appear.
        assert!(
            e.eliminated.iter().any(|q| q == &p("u^2 - 2*v - 4")),
            "got {:?}",
            e.eliminated
                .iter()
                .map(|q| q.to_string())
                .collect::<Vec<_>>()
        );
    }
}
