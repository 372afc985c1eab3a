//! Differential proof of the algebra-substrate refactor.
//!
//! The packed-monomial / vec-backed-polynomial / small-rational substrate
//! must be **behaviorally byte-identical** to the representation it replaced
//! (`BTreeMap<Var, u32>` monomials, `BTreeMap<Monomial, Rational>` term maps,
//! always-`BigInt` rationals). This test keeps a verbatim port of the old
//! representation as the oracle — sparse map monomials, the old
//! rank/exponent-vector order comparisons, map-backed polynomials with
//! per-term `add_term` arithmetic, and `BigInt`-pair coefficients — and
//! checks, over random inputs:
//!
//! * monomial-order comparisons (all four orders) agree pairwise,
//! * add / sub / mul / scalar ops produce identical polynomials,
//! * multi-divisor normal forms are identical under lex, grlex and grevlex,
//! * reduced Gröbner bases are byte-identical under all three orders
//!   (the reduced basis is canonical, so any divergence is a substrate bug),
//! * `simplify_modulo` results are identical, and
//! * variable discovery order (`Poly::vars`) matches the old iteration
//!   order, because default variable orders in `simplify`/`eliminate` are
//!   built from it.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use proptest::prelude::*;
use symmap_algebra::monomial::Monomial;
use symmap_algebra::ordering::MonomialOrder;
use symmap_algebra::poly::Poly;
use symmap_algebra::simplify::{simplify_modulo, SideRelations};
use symmap_algebra::var::{Var, VarSet};
use symmap_numeric::{BigInt, Rational};

/// Verbatim port of the pre-refactor substrate (the oracle).
mod reference {
    use super::*;

    /// Old-style rational: always a reduced `BigInt` pair with positive
    /// denominator.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RefRational {
        pub num: BigInt,
        pub den: BigInt,
    }

    impl RefRational {
        pub fn new(num: BigInt, den: BigInt) -> Self {
            assert!(!den.is_zero());
            let mut r = RefRational { num, den };
            r.normalize();
            r
        }

        pub fn integer(n: i64) -> Self {
            RefRational::new(BigInt::from(n), BigInt::one())
        }

        pub fn ratio(n: i64, d: i64) -> Self {
            RefRational::new(BigInt::from(n), BigInt::from(d))
        }

        pub fn zero() -> Self {
            RefRational::integer(0)
        }

        pub fn is_zero(&self) -> bool {
            self.num.is_zero()
        }

        fn normalize(&mut self) {
            if self.num.is_zero() {
                self.den = BigInt::one();
                return;
            }
            if self.den.is_negative() {
                self.num = -self.num.clone();
                self.den = -self.den.clone();
            }
            let g = self.num.gcd(&self.den);
            if !g.is_one() {
                self.num = &self.num / &g;
                self.den = &self.den / &g;
            }
        }

        pub fn add(&self, o: &RefRational) -> RefRational {
            RefRational::new(
                &(&self.num * &o.den) + &(&o.num * &self.den),
                &self.den * &o.den,
            )
        }

        pub fn neg(&self) -> RefRational {
            RefRational {
                num: -self.num.clone(),
                den: self.den.clone(),
            }
        }

        pub fn mul(&self, o: &RefRational) -> RefRational {
            RefRational::new(&self.num * &o.num, &self.den * &o.den)
        }

        pub fn div(&self, o: &RefRational) -> RefRational {
            assert!(!o.is_zero());
            RefRational::new(&self.num * &o.den, &self.den * &o.num)
        }

        pub fn recip(&self) -> RefRational {
            assert!(!self.is_zero());
            RefRational::new(self.den.clone(), self.num.clone())
        }
    }

    /// Old-style sparse monomial: sorted map from variable to exponent.
    /// `Ord` is the derived map order the old storage keyed terms by.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    pub struct RefMonomial {
        pub exps: BTreeMap<Var, u32>,
    }

    impl RefMonomial {
        pub fn one() -> Self {
            RefMonomial {
                exps: BTreeMap::new(),
            }
        }

        pub fn from_pairs(pairs: &[(Var, u32)]) -> Self {
            let mut m = RefMonomial::one();
            for &(v, e) in pairs {
                if e > 0 {
                    *m.exps.entry(v).or_insert(0) += e;
                }
            }
            m
        }

        pub fn total_degree(&self) -> u32 {
            self.exps.values().sum()
        }

        pub fn degree_of(&self, v: Var) -> u32 {
            self.exps.get(&v).copied().unwrap_or(0)
        }

        pub fn iter(&self) -> impl Iterator<Item = (Var, u32)> + '_ {
            self.exps.iter().map(|(&v, &e)| (v, e))
        }

        pub fn mul(&self, other: &RefMonomial) -> RefMonomial {
            let mut exps = self.exps.clone();
            for (&v, &e) in &other.exps {
                *exps.entry(v).or_insert(0) += e;
            }
            RefMonomial { exps }
        }

        pub fn divides(&self, other: &RefMonomial) -> bool {
            self.exps.iter().all(|(v, &e)| other.degree_of(*v) >= e)
        }

        pub fn div(&self, other: &RefMonomial) -> Option<RefMonomial> {
            if !other.divides(self) {
                return None;
            }
            let mut exps = BTreeMap::new();
            for (&v, &e) in &self.exps {
                let d = e - other.degree_of(v);
                if d > 0 {
                    exps.insert(v, d);
                }
            }
            Some(RefMonomial { exps })
        }

        pub fn lcm(&self, other: &RefMonomial) -> RefMonomial {
            let mut exps = self.exps.clone();
            for (&v, &e) in &other.exps {
                let cur = exps.entry(v).or_insert(0);
                *cur = (*cur).max(e);
            }
            RefMonomial { exps }
        }

        pub fn is_coprime_with(&self, other: &RefMonomial) -> bool {
            self.exps.keys().all(|v| other.degree_of(*v) == 0)
        }
    }

    /// Verbatim port of the old `MonomialOrder` comparison logic
    /// (per-comparison exponent-vector construction and all).
    #[derive(Debug, Clone)]
    pub enum RefOrder {
        Lex(VarSet),
        GrLex(VarSet),
        GrevLex(VarSet),
        Elimination(VarSet, usize),
    }

    impl RefOrder {
        pub fn vars(&self) -> &VarSet {
            match self {
                RefOrder::Lex(v)
                | RefOrder::GrLex(v)
                | RefOrder::GrevLex(v)
                | RefOrder::Elimination(v, _) => v,
            }
        }

        fn rank(&self, v: Var) -> (usize, u32) {
            match self.vars().position(v) {
                Some(p) => (p, 0),
                None => (usize::MAX, v.index()),
            }
        }

        fn exponent_vector(&self, m: &RefMonomial) -> Vec<(usize, u32, u32)> {
            let mut v: Vec<(usize, u32, u32)> = m
                .iter()
                .map(|(var, e)| {
                    let (r, tie) = self.rank(var);
                    (r, tie, e)
                })
                .collect();
            v.sort();
            v
        }

        fn lex_cmp(&self, a: &RefMonomial, b: &RefMonomial) -> Ordering {
            let va = self.exponent_vector(a);
            let vb = self.exponent_vector(b);
            let mut ia = va.iter().peekable();
            let mut ib = vb.iter().peekable();
            loop {
                match (ia.peek(), ib.peek()) {
                    (None, None) => return Ordering::Equal,
                    (Some(_), None) => return Ordering::Greater,
                    (None, Some(_)) => return Ordering::Less,
                    (Some(&&(ra, ta, ea)), Some(&&(rb, tb, eb))) => match (ra, ta).cmp(&(rb, tb)) {
                        Ordering::Less => return Ordering::Greater,
                        Ordering::Greater => return Ordering::Less,
                        Ordering::Equal => match ea.cmp(&eb) {
                            Ordering::Equal => {
                                ia.next();
                                ib.next();
                            }
                            o => return o,
                        },
                    },
                }
            }
        }

        fn grevlex_cmp(&self, a: &RefMonomial, b: &RefMonomial) -> Ordering {
            match a.total_degree().cmp(&b.total_degree()) {
                Ordering::Equal => {}
                o => return o,
            }
            let va = self.exponent_vector(a);
            let vb = self.exponent_vector(b);
            let mut ia = va.iter().rev().peekable();
            let mut ib = vb.iter().rev().peekable();
            loop {
                match (ia.peek(), ib.peek()) {
                    (None, None) => return Ordering::Equal,
                    (Some(_), None) => return Ordering::Less,
                    (None, Some(_)) => return Ordering::Greater,
                    (Some(&&(ra, ta, ea)), Some(&&(rb, tb, eb))) => match (ra, ta).cmp(&(rb, tb)) {
                        Ordering::Greater => return Ordering::Less,
                        Ordering::Less => return Ordering::Greater,
                        Ordering::Equal => match ea.cmp(&eb) {
                            Ordering::Equal => {
                                ia.next();
                                ib.next();
                            }
                            Ordering::Greater => return Ordering::Less,
                            Ordering::Less => return Ordering::Greater,
                        },
                    },
                }
            }
        }

        fn block_degree(&self, m: &RefMonomial, k: usize) -> u32 {
            self.vars().iter().take(k).map(|v| m.degree_of(v)).sum()
        }

        pub fn cmp(&self, a: &RefMonomial, b: &RefMonomial) -> Ordering {
            match self {
                RefOrder::Lex(_) => self.lex_cmp(a, b),
                RefOrder::GrLex(_) => match a.total_degree().cmp(&b.total_degree()) {
                    Ordering::Equal => self.lex_cmp(a, b),
                    o => o,
                },
                RefOrder::GrevLex(_) => self.grevlex_cmp(a, b),
                RefOrder::Elimination(_, k) => {
                    match self.block_degree(a, *k).cmp(&self.block_degree(b, *k)) {
                        Ordering::Equal => self.grevlex_cmp(a, b),
                        o => o,
                    }
                }
            }
        }
    }

    /// Old-style polynomial: canonical `BTreeMap` from monomial to non-zero
    /// coefficient.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct RefPoly {
        pub terms: BTreeMap<RefMonomial, RefRational>,
    }

    impl RefPoly {
        pub fn zero() -> Self {
            RefPoly {
                terms: BTreeMap::new(),
            }
        }

        pub fn is_zero(&self) -> bool {
            self.terms.is_empty()
        }

        pub fn from_terms<I: IntoIterator<Item = (RefMonomial, RefRational)>>(iter: I) -> Self {
            let mut p = RefPoly::zero();
            for (m, c) in iter {
                p.add_term(&m, &c);
            }
            p
        }

        pub fn add_term(&mut self, m: &RefMonomial, c: &RefRational) {
            if c.is_zero() {
                return;
            }
            let entry = self
                .terms
                .entry(m.clone())
                .or_insert_with(RefRational::zero);
            *entry = entry.add(c);
            if entry.is_zero() {
                self.terms.remove(m);
            }
        }

        pub fn add(&self, other: &RefPoly) -> RefPoly {
            let mut out = self.clone();
            for (m, c) in &other.terms {
                out.add_term(m, c);
            }
            out
        }

        pub fn sub(&self, other: &RefPoly) -> RefPoly {
            let mut out = self.clone();
            for (m, c) in &other.terms {
                out.add_term(m, &c.neg());
            }
            out
        }

        pub fn mul(&self, other: &RefPoly) -> RefPoly {
            let mut out = RefPoly::zero();
            for (m, c) in &self.terms {
                for (m2, c2) in &other.terms {
                    out.add_term(&m.mul(m2), &c.mul(c2));
                }
            }
            out
        }

        pub fn mul_term(&self, m: &RefMonomial, c: &RefRational) -> RefPoly {
            if c.is_zero() {
                return RefPoly::zero();
            }
            RefPoly {
                terms: self
                    .terms
                    .iter()
                    .map(|(mm, k)| (mm.mul(m), k.mul(c)))
                    .collect(),
            }
        }

        pub fn sub_scaled(&mut self, g: &RefPoly, m: &RefMonomial, c: &RefRational) {
            if c.is_zero() {
                return;
            }
            for (mg, cg) in &g.terms {
                self.add_term(&mg.mul(m), &cg.mul(c).neg());
            }
        }

        pub fn scale(&self, c: &RefRational) -> RefPoly {
            if c.is_zero() {
                return RefPoly::zero();
            }
            RefPoly {
                terms: self
                    .terms
                    .iter()
                    .map(|(m, k)| (m.clone(), k.mul(c)))
                    .collect(),
            }
        }

        pub fn leading_term(&self, order: &RefOrder) -> Option<(RefMonomial, RefRational)> {
            let mut best: Option<&RefMonomial> = None;
            for m in self.terms.keys() {
                best = match best {
                    None => Some(m),
                    Some(b) => {
                        if order.cmp(m, b) == Ordering::Greater {
                            Some(m)
                        } else {
                            Some(b)
                        }
                    }
                };
            }
            best.map(|m| (m.clone(), self.terms[m].clone()))
        }

        pub fn monic(&self, order: &RefOrder) -> RefPoly {
            match self.leading_term(order) {
                None => RefPoly::zero(),
                Some((_, c)) => self.scale(&c.recip()),
            }
        }

        /// Old `Poly::vars`: first-seen discovery over ascending map keys.
        pub fn vars(&self) -> VarSet {
            let mut s = VarSet::new();
            for m in self.terms.keys() {
                for (v, _) in m.iter() {
                    s.push(v);
                }
            }
            s
        }
    }

    /// Old multi-divisor division (remainder only).
    pub fn normal_form(f: &RefPoly, divisors: &[RefPoly], order: &RefOrder) -> RefPoly {
        let mut remainder = RefPoly::zero();
        let mut p = f.clone();
        let leading: Vec<Option<(RefMonomial, RefRational)>> =
            divisors.iter().map(|g| g.leading_term(order)).collect();
        while let Some((lm_p, lc_p)) = p.leading_term(order) {
            let mut divided = false;
            for (i, lt) in leading.iter().enumerate() {
                let Some((lm_g, lc_g)) = lt else {
                    continue;
                };
                if let Some(m_quot) = lm_p.div(lm_g) {
                    let c_quot = lc_p.div(lc_g);
                    p.sub_scaled(&divisors[i], &m_quot, &c_quot);
                    divided = true;
                    break;
                }
            }
            if !divided {
                remainder.add_term(&lm_p, &lc_p);
                p.add_term(&lm_p, &lc_p.neg());
            }
        }
        remainder
    }

    fn s_polynomial(f: &RefPoly, g: &RefPoly, order: &RefOrder) -> RefPoly {
        let (Some((lm_f, lc_f)), Some((lm_g, lc_g))) =
            (f.leading_term(order), g.leading_term(order))
        else {
            return RefPoly::zero();
        };
        let lcm = lm_f.lcm(&lm_g);
        let mf = lcm.div(&lm_f).expect("lcm divisible");
        let mg = lcm.div(&lm_g).expect("lcm divisible");
        let lhs = f.mul_term(&mf, &lc_f.recip());
        let rhs = g.mul_term(&mg, &lc_g.recip());
        lhs.sub(&rhs)
    }

    /// The seed Buchberger (normal selection by linear scan, coprime
    /// criterion only) plus the old clone-heavy auto-reduction — enough to
    /// produce the canonical reduced basis, which is what the differential
    /// compares.
    pub fn reduced_groebner_basis(generators: &[RefPoly], order: &RefOrder) -> Vec<RefPoly> {
        let mut basis: Vec<RefPoly> = generators
            .iter()
            .filter(|g| !g.is_zero())
            .map(|g| g.monic(order))
            .collect();
        if basis.is_empty() {
            return Vec::new();
        }
        let lcm_of = |basis: &[RefPoly], i: usize, j: usize| {
            basis[i]
                .leading_term(order)
                .unwrap()
                .0
                .lcm(&basis[j].leading_term(order).unwrap().0)
        };
        let mut pairs: Vec<(usize, usize, RefMonomial)> = Vec::new();
        for i in 0..basis.len() {
            for j in (i + 1)..basis.len() {
                let lcm = lcm_of(&basis, i, j);
                pairs.push((i, j, lcm));
            }
        }
        let mut reductions = 0;
        while !pairs.is_empty() {
            if reductions >= 10_000 {
                break;
            }
            let selected = pairs
                .iter()
                .enumerate()
                .min_by(|(_, (_, _, la)), (_, (_, _, lb))| order.cmp(la, lb))
                .map(|(idx, _)| idx)
                .unwrap();
            let (i, j, _) = pairs.swap_remove(selected);
            let lm_i = basis[i].leading_term(order).unwrap().0;
            let lm_j = basis[j].leading_term(order).unwrap().0;
            if lm_i.is_coprime_with(&lm_j) {
                continue;
            }
            let s = s_polynomial(&basis[i], &basis[j], order);
            let r = normal_form(&s, &basis, order);
            reductions += 1;
            if !r.is_zero() {
                let r = r.monic(order);
                let new_index = basis.len();
                basis.push(r);
                for k in 0..new_index {
                    let lcm = lcm_of(&basis, k, new_index);
                    pairs.push((k, new_index, lcm));
                }
            }
        }
        let mut keep = vec![true; basis.len()];
        for i in 0..basis.len() {
            if !keep[i] {
                continue;
            }
            let lm_i = basis[i].leading_term(order).unwrap().0;
            for j in 0..basis.len() {
                if i == j || !keep[j] {
                    continue;
                }
                let lm_j = basis[j].leading_term(order).unwrap().0;
                if lm_j.divides(&lm_i) && (lm_i != lm_j || j < i) {
                    keep[i] = false;
                    break;
                }
            }
        }
        let basis: Vec<RefPoly> = basis
            .into_iter()
            .zip(keep)
            .filter_map(|(q, k)| if k { Some(q) } else { None })
            .collect();
        let mut reduced = Vec::with_capacity(basis.len());
        for i in 0..basis.len() {
            let others: Vec<RefPoly> = basis
                .iter()
                .enumerate()
                .filter_map(|(j, q)| if j != i { Some(q.clone()) } else { None })
                .collect();
            let r = normal_form(&basis[i], &others, order);
            if !r.is_zero() {
                reduced.push(r.monic(order));
            }
        }
        reduced.sort_by(|a, b| {
            let la = a.leading_term(order).unwrap().0;
            let lb = b.leading_term(order).unwrap().0;
            order.cmp(&lb, &la)
        });
        reduced
    }
}

use reference::{RefMonomial, RefOrder, RefPoly, RefRational};

/// A randomly generated term: exponents for (x, y, z) plus a rational
/// coefficient `n/d`.
type RawTerm = (u32, u32, u32, i64, i64);
/// A randomly generated polynomial as raw terms.
type RawPoly = Vec<RawTerm>;

fn vars3() -> (Var, Var, Var) {
    (Var::new("x"), Var::new("y"), Var::new("z"))
}

fn build_new(raw: &RawPoly) -> Poly {
    let (x, y, z) = vars3();
    Poly::from_terms(raw.iter().map(|&(ex, ey, ez, n, d)| {
        (
            Monomial::from_pairs(&[(x, ex), (y, ey), (z, ez)]),
            Rational::new(n, d.max(1)),
        )
    }))
}

fn build_ref(raw: &RawPoly) -> RefPoly {
    let (x, y, z) = vars3();
    RefPoly::from_terms(raw.iter().map(|&(ex, ey, ez, n, d)| {
        (
            RefMonomial::from_pairs(&[(x, ex), (y, ey), (z, ez)]),
            RefRational::ratio(n, d.max(1)),
        )
    }))
}

/// Converts an oracle polynomial into the new representation for comparison.
fn ref_to_new(p: &RefPoly) -> Poly {
    Poly::from_terms(p.terms.iter().map(|(m, c)| {
        (
            Monomial::from_pairs(&m.iter().collect::<Vec<_>>()),
            Rational::from_bigints(c.num.clone(), c.den.clone()),
        )
    }))
}

fn new_mono(raw: &(u32, u32, u32)) -> Monomial {
    let (x, y, z) = vars3();
    Monomial::from_pairs(&[(x, raw.0), (y, raw.1), (z, raw.2)])
}

fn ref_mono(raw: &(u32, u32, u32)) -> RefMonomial {
    let (x, y, z) = vars3();
    RefMonomial::from_pairs(&[(x, raw.0), (y, raw.1), (z, raw.2)])
}

fn order_pairs() -> Vec<(MonomialOrder, RefOrder)> {
    let names = ["x", "y", "z"];
    let set = VarSet::from_names(&names);
    vec![
        (MonomialOrder::lex(&names), RefOrder::Lex(set.clone())),
        (MonomialOrder::grlex(&names), RefOrder::GrLex(set.clone())),
        (
            MonomialOrder::grevlex(&names),
            RefOrder::GrevLex(set.clone()),
        ),
        (
            MonomialOrder::Elimination(set.clone(), 1),
            RefOrder::Elimination(set, 1),
        ),
    ]
}

/// Orders whose precedence list is deliberately *partial* (y unlisted), so
/// the unlisted-variable ranking paths are compared too.
fn partial_order_pairs() -> Vec<(MonomialOrder, RefOrder)> {
    let names = ["z", "x"];
    let set = VarSet::from_names(&names);
    vec![
        (MonomialOrder::lex(&names), RefOrder::Lex(set.clone())),
        (MonomialOrder::grlex(&names), RefOrder::GrLex(set.clone())),
        (
            MonomialOrder::grevlex(&names),
            RefOrder::GrevLex(set.clone()),
        ),
        (
            MonomialOrder::Elimination(set.clone(), 1),
            RefOrder::Elimination(set, 1),
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every monomial-order comparison agrees with the old implementation,
    /// including orders whose precedence list omits a variable.
    #[test]
    fn prop_order_comparisons_match_reference(
        a in (0u32..5, 0u32..5, 0u32..5),
        b in (0u32..5, 0u32..5, 0u32..5),
    ) {
        let (na, nb) = (new_mono(&a), new_mono(&b));
        let (ra, rb) = (ref_mono(&a), ref_mono(&b));
        for (new_order, ref_order) in order_pairs().into_iter().chain(partial_order_pairs()) {
            prop_assert_eq!(
                new_order.cmp(&na, &nb),
                ref_order.cmp(&ra, &rb),
                "order {:?} on {} vs {}", new_order, na, nb
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ring arithmetic is identical term-for-term and coefficient-for-
    /// coefficient.
    #[test]
    fn prop_arithmetic_matches_reference(
        raw_a in proptest::collection::vec((0u32..4, 0u32..4, 0u32..4, -9i64..10, 1i64..5), 0..6),
        raw_b in proptest::collection::vec((0u32..4, 0u32..4, 0u32..4, -9i64..10, 1i64..5), 0..6),
    ) {
        let (a, b) = (build_new(&raw_a), build_new(&raw_b));
        let (ra, rb) = (build_ref(&raw_a), build_ref(&raw_b));
        prop_assert_eq!(a.add(&b), ref_to_new(&ra.add(&rb)));
        prop_assert_eq!(a.sub(&b), ref_to_new(&ra.sub(&rb)));
        prop_assert_eq!(a.mul(&b), ref_to_new(&ra.mul(&rb)));
        // Variable discovery order must replay the old map iteration.
        prop_assert_eq!(a.vars(), ra.vars());
        prop_assert_eq!(a.mul(&b).vars(), ra.mul(&rb).vars());
    }

    /// Multi-divisor normal forms are identical under all three orders.
    #[test]
    fn prop_normal_form_matches_reference(
        raw_f in proptest::collection::vec((0u32..4, 0u32..4, 0u32..4, -6i64..7, 1i64..4), 1..6),
        raw_g1 in proptest::collection::vec((0u32..3, 0u32..3, 0u32..3, -4i64..5, 1i64..3), 1..4),
        raw_g2 in proptest::collection::vec((0u32..3, 0u32..3, 0u32..3, -4i64..5, 1i64..3), 1..4),
    ) {
        let f = build_new(&raw_f);
        let divisors = [build_new(&raw_g1), build_new(&raw_g2)];
        let rf = build_ref(&raw_f);
        let ref_divisors = [build_ref(&raw_g1), build_ref(&raw_g2)];
        for (new_order, ref_order) in order_pairs() {
            let got = symmap_algebra::division::normal_form(&f, &divisors, &new_order);
            let expected = reference::normal_form(&rf, &ref_divisors, &ref_order);
            prop_assert_eq!(got, ref_to_new(&expected), "order {:?}", new_order);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Reduced Gröbner bases are byte-identical to the oracle engine under
    /// lex, grlex and grevlex — the reduced basis is canonical for the
    /// ideal+order, so any divergence is a substrate bug.
    #[test]
    fn prop_reduced_basis_matches_reference(
        gens in proptest::collection::vec(
            proptest::collection::vec((0u32..3, 0u32..3, 0u32..3, -3i64..4, 1i64..3), 1..4),
            2..5,
        ),
    ) {
        let new_gens: Vec<Poly> = gens.iter().map(build_new).collect();
        let ref_gens: Vec<RefPoly> = gens.iter().map(build_ref).collect();
        for (new_order, ref_order) in order_pairs().into_iter().take(3) {
            let gb = symmap_algebra::groebner::groebner_basis(&new_gens, &new_order);
            prop_assume!(gb.complete);
            let expected: Vec<Poly> = reference::reduced_groebner_basis(&ref_gens, &ref_order)
                .iter()
                .map(ref_to_new)
                .collect();
            prop_assert_eq!(&gb.polys(), &expected, "order {:?}", new_order);
        }
    }
}

/// `simplify_modulo` — the paper's §3.3 primitive — agrees with the oracle
/// pipeline (reference Gröbner basis + reference normal form under the same
/// lex order) on the paper's own examples and on a small random sweep.
#[test]
fn simplify_modulo_matches_reference_pipeline() {
    /// One case: target, `(symbol, body)` side relations, variable order.
    type Case = (
        &'static str,
        Vec<(&'static str, &'static str)>,
        Vec<&'static str>,
    );
    let cases: Vec<Case> = vec![
        (
            "x + x^3*y^2 - 2*x*y^3",
            vec![("p", "x^2 - 2*y")],
            vec!["x", "y", "p"],
        ),
        (
            "x^2 + 2*x*y + y^2",
            vec![("s", "x + y")],
            vec!["x", "y", "s"],
        ),
        (
            "x^2 - y^2 + x*y",
            vec![("s", "x + y"), ("d", "x - y"), ("q", "x*y")],
            vec!["x", "y", "s", "d", "q"],
        ),
        (
            "x^4 - y^4 + x^2*y^2",
            vec![("s", "x + y"), ("d", "x - y"), ("q", "x*y"), ("sx", "x^2")],
            vec!["x", "y", "s", "d", "q", "sx"],
        ),
    ];
    for (target, relations, var_order) in cases {
        let t = Poly::parse(target).unwrap();
        let mut sr = SideRelations::new();
        for (sym, body) in &relations {
            sr.push(sym, Poly::parse(body).unwrap()).unwrap();
        }
        let got = simplify_modulo(&t, &sr, &var_order).unwrap();

        // Oracle pipeline under the same effective lex order.
        let order_set = VarSet::from_names(&var_order);
        let ref_order = RefOrder::Lex(order_set);
        let to_ref = |p: &Poly| {
            RefPoly::from_terms(p.iter().map(|(m, c)| {
                (
                    RefMonomial::from_pairs(&m.iter().collect::<Vec<_>>()),
                    RefRational::new(c.numer(), c.denom()),
                )
            }))
        };
        let ref_gens: Vec<RefPoly> = relations
            .iter()
            .map(|(sym, body)| {
                let body = Poly::parse(body).unwrap();
                let gen = body.sub(&Poly::var(Var::new(sym)));
                to_ref(&gen)
            })
            .collect();
        let ref_basis = reference::reduced_groebner_basis(&ref_gens, &ref_order);
        let expected = reference::normal_form(&to_ref(&t), &ref_basis, &ref_order);
        assert_eq!(got, ref_to_new(&expected), "target {target}");
    }
}

/// Pin the representation-independence claim the docs make: reduction counts
/// of the engine are a function of the algorithm, not the term storage, so
/// the refactor must leave the canonical workloads' counts untouched.
#[test]
fn reduction_counts_unchanged_by_representation() {
    let p = |s: &str| Poly::parse(s).unwrap();
    let cubic = symmap_algebra::groebner::groebner_basis(
        &[p("x^2 - y"), p("x^3 - z")],
        &MonomialOrder::lex(&["x", "y", "z"]),
    );
    assert!(cubic.complete);
    assert_eq!(cubic.reductions, 5, "twisted cubic reduction count drifted");

    let mut sr = SideRelations::new();
    sr.push("s", p("x + y")).unwrap();
    sr.push("d", p("x - y")).unwrap();
    sr.push("q", p("x*y")).unwrap();
    sr.push("sx", p("x^2")).unwrap();
    let mapper = symmap_algebra::groebner::groebner_basis(
        &sr.generators(),
        &MonomialOrder::lex(&["x", "y", "s", "d", "q", "sx"]),
    );
    assert!(mapper.complete);
    assert_eq!(mapper.reductions, 7, "mapper ideal reduction count drifted");
}
