//! Monomial orderings.
//!
//! Gröbner-basis computations and normal-form reduction are only defined
//! relative to a *monomial order*. The library-mapping algorithm uses
//! lexicographic and elimination orders so that reduction rewrites the target
//! polynomial **in terms of the library-element variables** (the new symbols
//! `p`, `q`, … introduced by side relations) rather than the other way around.
//!
//! Comparisons are plain loops over the packed exponent vectors of
//! [`Monomial`]: listed variables are probed in precedence order with
//! constant-time `degree_of` lookups and unlisted variables are swept by
//! index, so a comparison allocates nothing (the pre-packing implementation
//! built and sorted a `Vec` per operand per comparison — in the innermost
//! loop of the division algorithm).

use std::cmp::Ordering;

use crate::monomial::Monomial;
use crate::var::{Var, VarSet};

/// A monomial order over a fixed variable precedence list.
///
/// The precedence list ranks variables from most significant to least
/// significant, mirroring Maple's `[x, y, p]` ordering argument. Variables not
/// in the list rank after all listed variables, ordered by interner index.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum MonomialOrder {
    /// Pure lexicographic order.
    Lex(VarSet),
    /// Graded lexicographic: compare total degree first, ties broken by lex.
    GrLex(VarSet),
    /// Graded reverse lexicographic: total degree first, ties broken by the
    /// *smallest* variable having the *larger* exponent losing.
    GrevLex(VarSet),
    /// Elimination order: monomials involving any of the first `k` variables
    /// of the list are larger than monomials involving none; within each block
    /// GrevLex is used. Reduction under this order eliminates the first `k`
    /// variables whenever possible.
    Elimination(VarSet, usize),
}

/// Returns `true` when dense variable index `idx` belongs to a listed
/// variable (linear probe; precedence lists are short).
fn is_listed(listed: &[Var], idx: usize) -> bool {
    listed.iter().any(|v| v.index() as usize == idx)
}

/// Exponent of dense index `idx` in a packed exponent slice.
fn exp_at(exps: &[u32], idx: usize) -> u32 {
    exps.get(idx).copied().unwrap_or(0)
}

impl MonomialOrder {
    /// Convenience constructor for lexicographic order over named variables.
    pub fn lex(names: &[&str]) -> Self {
        MonomialOrder::Lex(VarSet::from_names(names))
    }

    /// Convenience constructor for graded lexicographic order.
    pub fn grlex(names: &[&str]) -> Self {
        MonomialOrder::GrLex(VarSet::from_names(names))
    }

    /// Convenience constructor for graded reverse lexicographic order.
    pub fn grevlex(names: &[&str]) -> Self {
        MonomialOrder::GrevLex(VarSet::from_names(names))
    }

    /// The variable precedence list of this order.
    pub fn vars(&self) -> &VarSet {
        match self {
            MonomialOrder::Lex(v)
            | MonomialOrder::GrLex(v)
            | MonomialOrder::GrevLex(v)
            | MonomialOrder::Elimination(v, _) => v,
        }
    }

    /// Rewrites the order into the local coordinates of `ring`: listed
    /// variables inside the ring map to their local handles (precedence
    /// preserved), listed variables outside the ring are dropped — every
    /// monomial of a ring-local computation has exponent zero on them, so
    /// they can never decide a comparison — and an [`MonomialOrder::Elimination`]
    /// block shrinks by exactly the dropped members of its first `k` entries
    /// (their block-degree contribution is identically zero).
    ///
    /// Unlisted variables need no mapping at all: they rank by ascending
    /// index in both coordinate systems, and localization preserves relative
    /// index order, so the unlisted sweeps of [`MonomialOrder::cmp`] agree.
    /// The net effect is that `localized(ring).cmp(localize(a), localize(b))
    /// == cmp(a, b)` for all monomials supported on the ring, while each
    /// comparison loops over at most `ring.len()` slots instead of the full
    /// interner width.
    pub fn localized(&self, ring: &crate::ring::Ring) -> MonomialOrder {
        let map = |vs: &VarSet| -> VarSet {
            vs.iter()
                .filter_map(|v| ring.local_of(v).map(Var::from_index))
                .collect()
        };
        match self {
            MonomialOrder::Lex(v) => MonomialOrder::Lex(map(v)),
            MonomialOrder::GrLex(v) => MonomialOrder::GrLex(map(v)),
            MonomialOrder::GrevLex(v) => MonomialOrder::GrevLex(map(v)),
            MonomialOrder::Elimination(v, k) => {
                let kept = v.iter().take(*k).filter(|&v| ring.contains(v)).count();
                MonomialOrder::Elimination(map(v), kept)
            }
        }
    }

    /// Whether this order coincides with the canonical storage order of
    /// `Monomial` (plain lex over exponent vectors, index 0 first): a lex
    /// order whose listed variables are exactly indices `0, 1, …` in that
    /// order. Ring-local lex orders over variables listed in interning order
    /// have this shape, and a sorted term vector's first term is then its
    /// leading term.
    pub(crate) fn is_storage_order(&self) -> bool {
        match self {
            MonomialOrder::Lex(vars) => vars
                .as_slice()
                .iter()
                .enumerate()
                .all(|(i, v)| v.index() as usize == i),
            _ => false,
        }
    }

    /// Lexicographic comparison: listed variables in precedence order, then
    /// unlisted variables by ascending interner index; the first variable
    /// with differing exponents decides (larger exponent wins).
    fn lex_cmp(&self, a: &Monomial, b: &Monomial) -> Ordering {
        let listed = self.vars().as_slice();
        for &v in listed {
            match a.degree_of(v).cmp(&b.degree_of(v)) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        let (ea, eb) = (a.exps(), b.exps());
        for idx in 0..ea.len().max(eb.len()) {
            if is_listed(listed, idx) {
                continue;
            }
            match exp_at(ea, idx).cmp(&exp_at(eb, idx)) {
                Ordering::Equal => {}
                o => return o,
            }
        }
        Ordering::Equal
    }

    /// Graded reverse lexicographic comparison: total degree first; on ties,
    /// scan variables from *least* significant (highest-index unlisted
    /// variable) to most significant — at the first variable with differing
    /// exponents, the monomial with the **larger** exponent is the smaller.
    fn grevlex_cmp(&self, a: &Monomial, b: &Monomial) -> Ordering {
        match a.total_degree_u64().cmp(&b.total_degree_u64()) {
            Ordering::Equal => {}
            o => return o,
        }
        let listed = self.vars().as_slice();
        let (ea, eb) = (a.exps(), b.exps());
        for idx in (0..ea.len().max(eb.len())).rev() {
            if is_listed(listed, idx) {
                continue;
            }
            match exp_at(ea, idx).cmp(&exp_at(eb, idx)) {
                Ordering::Equal => {}
                Ordering::Greater => return Ordering::Less,
                Ordering::Less => return Ordering::Greater,
            }
        }
        for &v in listed.iter().rev() {
            match a.degree_of(v).cmp(&b.degree_of(v)) {
                Ordering::Equal => {}
                Ordering::Greater => return Ordering::Less,
                Ordering::Less => return Ordering::Greater,
            }
        }
        Ordering::Equal
    }

    fn block_degree(&self, m: &Monomial, k: usize) -> u64 {
        self.vars()
            .iter()
            .take(k)
            .map(|v| m.degree_of(v) as u64)
            .sum()
    }

    /// Compares two monomials under this order.
    pub fn cmp(&self, a: &Monomial, b: &Monomial) -> Ordering {
        match self {
            MonomialOrder::Lex(_) => self.lex_cmp(a, b),
            MonomialOrder::GrLex(_) => match a.total_degree_u64().cmp(&b.total_degree_u64()) {
                Ordering::Equal => self.lex_cmp(a, b),
                o => o,
            },
            MonomialOrder::GrevLex(_) => self.grevlex_cmp(a, b),
            MonomialOrder::Elimination(_, k) => {
                match self.block_degree(a, *k).cmp(&self.block_degree(b, *k)) {
                    Ordering::Equal => self.grevlex_cmp(a, b),
                    o => o,
                }
            }
        }
    }

    /// Returns the maximal element of an iterator of monomials under this
    /// order, or `None` when empty.
    pub fn max<'a, I: IntoIterator<Item = &'a Monomial>>(&self, iter: I) -> Option<&'a Monomial> {
        iter.into_iter().fold(None, |best, m| match best {
            None => Some(m),
            Some(b) => {
                if self.cmp(m, b) == Ordering::Greater {
                    Some(m)
                } else {
                    Some(b)
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pairs: &[(&str, u32)]) -> Monomial {
        Monomial::from_pairs(
            &pairs
                .iter()
                .map(|&(n, e)| (Var::new(n), e))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn storage_order_is_identity_prefix_lex_only() {
        let lex =
            |idx: &[u32]| MonomialOrder::Lex(idx.iter().map(|&i| Var::from_index(i)).collect());
        assert!(lex(&[]).is_storage_order());
        assert!(lex(&[0, 1, 2]).is_storage_order());
        assert!(!lex(&[1, 0]).is_storage_order());
        assert!(!lex(&[0, 2]).is_storage_order());
        let vars: VarSet = [0, 1].into_iter().map(Var::from_index).collect();
        assert!(!MonomialOrder::GrLex(vars.clone()).is_storage_order());
        assert!(!MonomialOrder::GrevLex(vars.clone()).is_storage_order());
        assert!(!MonomialOrder::Elimination(vars, 1).is_storage_order());
        // It agrees with the canonical order on every pair of exponent
        // vectors over three variables, degrees 0..3.
        let order = lex(&[0, 1, 2]);
        let monos: Vec<Monomial> = (0..27_u32)
            .map(|k| {
                let exps = [k / 9, k / 3 % 3, k % 3];
                Monomial::from_pairs(
                    &exps
                        .iter()
                        .enumerate()
                        .map(|(i, &e)| (Var::from_index(i as u32), e))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        for a in &monos {
            for b in &monos {
                assert_eq!(order.cmp(a, b), a.cmp(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn lex_basic() {
        let o = MonomialOrder::lex(&["x", "y", "z"]);
        // x > y^5 under lex with x > y.
        assert_eq!(o.cmp(&m(&[("x", 1)]), &m(&[("y", 5)])), Ordering::Greater);
        assert_eq!(
            o.cmp(&m(&[("x", 1), ("y", 1)]), &m(&[("x", 1)])),
            Ordering::Greater
        );
        assert_eq!(o.cmp(&m(&[("x", 2)]), &m(&[("x", 2)])), Ordering::Equal);
        assert_eq!(o.cmp(&Monomial::one(), &m(&[("z", 1)])), Ordering::Less);
    }

    #[test]
    fn grlex_degree_dominates() {
        let o = MonomialOrder::grlex(&["x", "y"]);
        assert_eq!(o.cmp(&m(&[("y", 3)]), &m(&[("x", 2)])), Ordering::Greater);
        // Same degree: lex breaks the tie.
        assert_eq!(
            o.cmp(&m(&[("x", 2)]), &m(&[("x", 1), ("y", 1)])),
            Ordering::Greater
        );
    }

    #[test]
    fn grevlex_textbook_example() {
        // Cox–Little–O'Shea: under grevlex with x > y > z,
        // x^2*y*z^2 > x*y^3*z (same degree 5; compare last variable: z^2 vs z
        // means the first has MORE of the least variable... actually the
        // standard example is x*y^2*z vs x^2*z^2 — let us use exponent vectors
        // (1,2,1) and (2,0,2): total degree 4 both; reversed comparison finds
        // last differing exponent z: 1 vs 2, the one with larger z exponent is
        // smaller, so (1,2,1) > (2,0,2).
        let o = MonomialOrder::grevlex(&["x", "y", "z"]);
        let a = m(&[("x", 1), ("y", 2), ("z", 1)]);
        let b = m(&[("x", 2), ("z", 2)]);
        assert_eq!(o.cmp(&a, &b), Ordering::Greater);
        assert_eq!(o.cmp(&b, &a), Ordering::Less);
    }

    #[test]
    fn grevlex_differs_from_grlex() {
        // Exponents (1,1,2) vs (0,3,1) with x>y>z, degree 4 each.
        // grlex: lex compare → x^1 > x^0 so a > b.
        // grevlex: last differing from the end: z: 2 vs 1 → a has more of the
        // smallest variable → a < b.
        let a = m(&[("x", 1), ("y", 1), ("z", 2)]);
        let b = m(&[("y", 3), ("z", 1)]);
        let grlex = MonomialOrder::grlex(&["x", "y", "z"]);
        let grevlex = MonomialOrder::grevlex(&["x", "y", "z"]);
        assert_eq!(grlex.cmp(&a, &b), Ordering::Greater);
        assert_eq!(grevlex.cmp(&a, &b), Ordering::Less);
    }

    #[test]
    fn elimination_order_prefers_block_free_monomials() {
        // Eliminate x (k = 1): any monomial containing x is larger than any
        // monomial not containing x.
        let o = MonomialOrder::Elimination(VarSet::from_names(&["x", "y", "p"]), 1);
        assert_eq!(
            o.cmp(&m(&[("x", 1)]), &m(&[("y", 7), ("p", 3)])),
            Ordering::Greater
        );
        assert_eq!(o.cmp(&m(&[("y", 1)]), &m(&[("p", 1)])), Ordering::Greater);
    }

    #[test]
    fn max_picks_leading_monomial() {
        let o = MonomialOrder::lex(&["x", "y"]);
        let ms = vec![m(&[("y", 4)]), m(&[("x", 1), ("y", 1)]), m(&[("x", 2)])];
        assert_eq!(o.max(&ms), Some(&ms[2]));
        assert_eq!(o.max(std::iter::empty()), None);
    }

    #[test]
    fn unlisted_variables_rank_last() {
        let o = MonomialOrder::lex(&["x"]);
        // y is not listed: x beats any power of y.
        assert_eq!(o.cmp(&m(&[("x", 1)]), &m(&[("y", 9)])), Ordering::Greater);
    }

    #[test]
    fn unlisted_variables_order_by_interner_index() {
        // Two fresh unlisted variables: the earlier-interned one is the more
        // significant, exactly as the pre-packing rank `(MAX, index)` ranked
        // them.
        let a = Var::new("ord_unlisted_first");
        let b = Var::new("ord_unlisted_second");
        assert!(a.index() < b.index());
        let o = MonomialOrder::lex(&["x"]);
        let ma = Monomial::var(a, 1);
        let mb = Monomial::var(b, 5);
        assert_eq!(o.cmp(&ma, &mb), Ordering::Greater);
        let grevlex = MonomialOrder::grevlex(&["x"]);
        // Same degree: the one loaded on the less significant (later) var is
        // smaller under grevlex.
        assert_eq!(
            grevlex.cmp(&Monomial::var(a, 2), &Monomial::var(b, 2)),
            Ordering::Greater
        );
    }

    #[test]
    fn orders_are_total_and_antisymmetric() {
        let monos = vec![
            Monomial::one(),
            m(&[("x", 1)]),
            m(&[("y", 2)]),
            m(&[("x", 1), ("y", 1)]),
            m(&[("x", 3), ("z", 1)]),
            m(&[("z", 4)]),
        ];
        for order in [
            MonomialOrder::lex(&["x", "y", "z"]),
            MonomialOrder::grlex(&["x", "y", "z"]),
            MonomialOrder::grevlex(&["x", "y", "z"]),
            MonomialOrder::Elimination(VarSet::from_names(&["x", "y", "z"]), 1),
        ] {
            for a in &monos {
                for b in &monos {
                    let ab = order.cmp(a, b);
                    let ba = order.cmp(b, a);
                    assert_eq!(ab, ba.reverse(), "antisymmetry failed for {a} vs {b}");
                    if a == b {
                        assert_eq!(ab, Ordering::Equal);
                    }
                }
            }
            // Multiplicativity: a > b implies a*c > b*c.
            for a in &monos {
                for b in &monos {
                    for c in &monos {
                        if order.cmp(a, b) == Ordering::Greater {
                            assert_eq!(
                                order.cmp(&a.mul(c), &b.mul(c)),
                                Ordering::Greater,
                                "multiplicativity failed"
                            );
                        }
                    }
                }
            }
        }
    }
}
