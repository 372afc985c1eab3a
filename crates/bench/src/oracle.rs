//! The global-coordinate Gröbner oracle: the exact engine on the generators
//! as given, with no ring boundary. The ring-local path ([`buchberger`])
//! must reproduce it byte for byte, which is the correctness argument for
//! the ring layer. Never use it for real work: on late-interned variables
//! every monomial operation pays the full interner width.
//!
//! [`buchberger`]: symmap_algebra::groebner::buchberger

use symmap_algebra::coeff::{buchberger_core_in, CPoly, RationalField};
use symmap_algebra::groebner::GroebnerOptions;
use symmap_algebra::ordering::MonomialOrder;
use symmap_algebra::poly::Poly;

/// A basis computed by [`global_basis`], with the engine's counters (the
/// fields of [`GroebnerBasis`](symmap_algebra::groebner::GroebnerBasis)).
#[derive(Debug, Clone)]
pub struct GlobalBasis {
    pub polys: Vec<Poly>,
    pub complete: bool,
    pub reductions: usize,
    pub skipped_coprime: usize,
    pub skipped_chain: usize,
}

/// Runs the exact ℚ Buchberger engine on global interner coordinates.
pub fn global_basis(
    generators: &[Poly],
    order: &MonomialOrder,
    options: &GroebnerOptions,
) -> GlobalBasis {
    let cgens: Vec<CPoly<RationalField>> = generators
        .iter()
        .map(|g| CPoly::from_sorted_terms(g.iter().map(|(m, c)| (m.clone(), c.clone())).collect()))
        .collect();
    let core = buchberger_core_in(&RationalField, &cgens, order, options);
    GlobalBasis {
        polys: core
            .polys
            .into_iter()
            .map(|p| Poly::from_terms(p.into_terms()))
            .collect(),
        complete: core.complete,
        reductions: core.reductions,
        skipped_coprime: core.skipped_coprime,
        skipped_chain: core.skipped_chain,
    }
}
