//! Generic coefficient layer: one Buchberger engine and one division loop,
//! parameterized over the coefficient field.
//!
//! The monomial substrate (packed exponents, ring-local indices, order
//! comparisons) is coefficient-agnostic; what distinguishes a ℚ run from a
//! ℤ/p run is purely the scalar arithmetic. This module factors that
//! difference into a [`CoeffField`] context — the field-object idiom of
//! symbolica's `finite_field.rs`, where elements are plain data and all
//! arithmetic goes through the context — and implements the S-pair engine,
//! auto-reduction and the prepared-divisor normal form **once**, generically:
//!
//! * [`RationalField`] instantiates it over [`Rational`], and is what
//!   [`crate::groebner::buchberger`] and
//!   [`crate::division::prepared_normal_form`] run on. The entry/exit
//!   conversions with [`crate::poly::Poly`] are zero-copy term-vector moves (both types
//!   share the descending-canonical-sort storage invariant), so the exact
//!   path is byte-identical to the historic concrete implementation — the
//!   seed-oracle differential tests in `groebner.rs` pin this down.
//! * [`symmap_numeric::Fp64`] instantiates it over ℤ/p (see
//!   [`crate::modular`]), giving the multi-modular lift prime images whose
//!   coefficients never leave one machine word.
//!
//! Every algorithm here mirrors its `Poly` counterpart operation for
//! operation (same merge passes, same division-step selection, same
//! tiebreaks), so the two instantiations differ only in scalar cost.

use std::collections::HashSet;

use symmap_numeric::Rational;

use crate::groebner::GroebnerOptions;
use crate::monomial::Monomial;
use crate::ordering::MonomialOrder;

/// A coefficient field context. Elements are plain data ([`CoeffField::Elem`])
/// and all arithmetic goes through the context, so a field carrying runtime
/// state (like the Montgomery constants of ℤ/p) costs nothing extra over a
/// stateless one like [`RationalField`].
pub trait CoeffField: Clone + std::fmt::Debug {
    /// The element representation.
    type Elem: Clone + PartialEq + std::fmt::Debug;

    /// The multiplicative identity.
    fn one(&self) -> Self::Elem;
    /// Whether `a` is the additive identity.
    fn is_zero(&self, a: &Self::Elem) -> bool;
    /// Additive inverse.
    fn neg(&self, a: &Self::Elem) -> Self::Elem;
    /// Addition.
    fn add(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;
    /// Multiplication.
    fn mul(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem;
    /// Multiplicative inverse of a **nonzero** element.
    fn inv(&self, a: &Self::Elem) -> Self::Elem;
    /// Division by a **nonzero** element.
    fn div(&self, a: &Self::Elem, b: &Self::Elem) -> Self::Elem {
        self.mul(a, &self.inv(b))
    }
}

/// The exact rationals ℚ as a [`CoeffField`]. Stateless; every operation
/// delegates to [`Rational`]'s reference operators, so the generic engine
/// performs the identical arithmetic sequence as the historic concrete code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RationalField;

impl CoeffField for RationalField {
    type Elem = Rational;

    fn one(&self) -> Rational {
        Rational::one()
    }
    fn is_zero(&self, a: &Rational) -> bool {
        a.is_zero()
    }
    fn neg(&self, a: &Rational) -> Rational {
        -a
    }
    fn add(&self, a: &Rational, b: &Rational) -> Rational {
        a + b
    }
    fn mul(&self, a: &Rational, b: &Rational) -> Rational {
        a * b
    }
    fn inv(&self, a: &Rational) -> Rational {
        a.recip().expect("inverse of zero")
    }
    fn div(&self, a: &Rational, b: &Rational) -> Rational {
        a / b
    }
}

/// A multivariate polynomial over an arbitrary [`CoeffField`].
///
/// Storage mirrors [`crate::poly::Poly`] exactly: `(monomial, coefficient)`
/// pairs sorted strictly descending by the canonical (multiplication-
/// invariant) monomial order, no zero coefficients — so `Poly` term vectors
/// move in and out without re-sorting.
#[derive(Debug, Clone, PartialEq)]
pub struct CPoly<F: CoeffField> {
    terms: Vec<(Monomial, F::Elem)>,
}

impl<F: CoeffField> CPoly<F> {
    /// The zero polynomial.
    pub fn zero() -> Self {
        CPoly { terms: Vec::new() }
    }

    /// Builds a polynomial from a term vector that is **already** strictly
    /// descending in the canonical monomial order with no zero coefficients.
    pub fn from_sorted_terms(terms: Vec<(Monomial, F::Elem)>) -> Self {
        debug_assert!(
            terms
                .windows(2)
                .all(|w| w[0].0.cmp(&w[1].0) == std::cmp::Ordering::Greater),
            "term vector not strictly descending in the canonical order"
        );
        CPoly { terms }
    }

    /// The sorted term vector.
    pub fn terms(&self) -> &[(Monomial, F::Elem)] {
        &self.terms
    }

    /// Moves the sorted term vector out.
    pub fn into_terms(self) -> Vec<(Monomial, F::Elem)> {
        self.terms
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Total degree (max over terms); zero polynomial has degree 0.
    pub fn total_degree(&self) -> u32 {
        self.terms
            .iter()
            .map(|(m, _)| m.total_degree())
            .max()
            .unwrap_or(0)
    }

    /// Leading term under `order`: the first term when `order` is the
    /// storage order, else a linear scan (like `Poly::leading_term`).
    pub fn leading_term(&self, order: &MonomialOrder) -> Option<(Monomial, F::Elem)> {
        if order.is_storage_order() {
            return self.terms.first().cloned();
        }
        let mut best: Option<&(Monomial, F::Elem)> = None;
        for t in &self.terms {
            best = match best {
                None => Some(t),
                Some(b) => {
                    if order.cmp(&t.0, &b.0) == std::cmp::Ordering::Greater {
                        Some(t)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        best.cloned()
    }

    /// Adds `c * m` in place (binary search into the sorted vector).
    pub fn add_term(&mut self, field: &F, m: &Monomial, c: &F::Elem) {
        if field.is_zero(c) {
            return;
        }
        match self.terms.binary_search_by(|(tm, _)| m.cmp(tm)) {
            Ok(i) => {
                self.terms[i].1 = field.add(&self.terms[i].1, c);
                if field.is_zero(&self.terms[i].1) {
                    self.terms.remove(i);
                }
            }
            Err(i) => self.terms.insert(i, (m.clone(), c.clone())),
        }
    }

    /// In-place `self -= g * (c * m)` — the cancellation step of division,
    /// fused into one merge against the lazily scaled divisor term stream
    /// (sorted order is multiplication-invariant), exactly like
    /// `Poly::sub_scaled`.
    pub fn sub_scaled(&mut self, field: &F, g: &[(Monomial, F::Elem)], m: &Monomial, c: &F::Elem) {
        if field.is_zero(c) || g.is_empty() {
            return;
        }
        let own = std::mem::take(&mut self.terms);
        let capacity = own.len() + g.len();
        let scaled = g
            .iter()
            .map(|(gm, gc)| (gm.mul(m), field.neg(&field.mul(gc, c))));
        self.terms = merge_terms_in(field, own.into_iter(), scaled, capacity);
    }

    /// Multiplication by a single term `c * m` (sorted map, no re-sort).
    pub fn mul_term(&self, field: &F, m: &Monomial, c: &F::Elem) -> CPoly<F> {
        if field.is_zero(c) {
            return CPoly::zero();
        }
        CPoly {
            terms: self
                .terms
                .iter()
                .map(|(mm, k)| (mm.mul(m), field.mul(k, c)))
                .collect(),
        }
    }

    /// Scales so the leading coefficient under `order` becomes one (no-op on
    /// the zero polynomial).
    pub fn monic(&self, field: &F, order: &MonomialOrder) -> CPoly<F> {
        match self.leading_term(order) {
            None => CPoly::zero(),
            Some((_, lc)) => {
                let inv = field.inv(&lc);
                CPoly {
                    terms: self
                        .terms
                        .iter()
                        .map(|(m, k)| (m.clone(), field.mul(k, &inv)))
                        .collect(),
                }
            }
        }
    }
}

/// Merges two term streams sorted descending by the canonical monomial
/// order, summing coefficients of equal monomials and dropping zeros —
/// the generic twin of `poly::merge_terms`.
fn merge_terms_in<F: CoeffField>(
    field: &F,
    a: impl Iterator<Item = (Monomial, F::Elem)>,
    b: impl Iterator<Item = (Monomial, F::Elem)>,
    capacity: usize,
) -> Vec<(Monomial, F::Elem)> {
    let mut out: Vec<(Monomial, F::Elem)> = Vec::with_capacity(capacity);
    let mut a = a.peekable();
    let mut b = b.peekable();
    loop {
        let which = match (a.peek(), b.peek()) {
            (None, None) => break,
            (Some(_), None) => std::cmp::Ordering::Greater,
            (None, Some(_)) => std::cmp::Ordering::Less,
            (Some((ma, _)), Some((mb, _))) => ma.cmp(mb),
        };
        match which {
            std::cmp::Ordering::Greater => out.push(a.next().expect("peeked")),
            std::cmp::Ordering::Less => out.push(b.next().expect("peeked")),
            std::cmp::Ordering::Equal => {
                let (m, ca) = a.next().expect("peeked");
                let (_, cb) = b.next().expect("peeked");
                let c = field.add(&ca, &cb);
                if !field.is_zero(&c) {
                    out.push((m, c));
                }
            }
        }
    }
    out
}

/// What the division loop needs from a divisor: cached leading term, the
/// variable-support mask of the leading monomial, and the sorted term slice.
/// Implemented by [`CPrepared`] and by the ℚ-concrete
/// [`crate::division::PreparedDivisor`], so the exact path reuses its
/// prepared divisors without conversion.
pub trait DivisorView<F: CoeffField> {
    /// Cached leading monomial under the preparation order.
    fn lm(&self) -> &Monomial;
    /// Cached leading coefficient.
    fn lc(&self) -> &F::Elem;
    /// Variable-support fingerprint of the leading monomial.
    fn mask(&self) -> u64;
    /// The divisor's sorted term vector.
    fn terms(&self) -> &[(Monomial, F::Elem)];
}

/// A nonzero divisor with its leading term resolved once — the generic twin
/// of [`crate::division::PreparedDivisor`].
#[derive(Debug, Clone)]
pub struct CPrepared<F: CoeffField> {
    /// The divisor polynomial (nonzero).
    pub poly: CPoly<F>,
    /// Cached leading monomial under the preparation order.
    pub lm: Monomial,
    /// Cached leading coefficient.
    pub lc: F::Elem,
    /// Variable-support fingerprint of `lm`.
    pub mask: u64,
}

impl<F: CoeffField> CPrepared<F> {
    /// Prepares `poly` for repeated division under `order`; `None` when the
    /// polynomial is zero.
    pub fn new(poly: CPoly<F>, order: &MonomialOrder) -> Option<Self> {
        let (lm, lc) = poly.leading_term(order)?;
        let mask = lm.var_mask();
        Some(CPrepared { poly, lm, lc, mask })
    }
}

impl<F: CoeffField> DivisorView<F> for CPrepared<F> {
    fn lm(&self) -> &Monomial {
        &self.lm
    }
    fn lc(&self) -> &F::Elem {
        &self.lc
    }
    fn mask(&self) -> u64 {
        self.mask
    }
    fn terms(&self) -> &[(Monomial, F::Elem)] {
        self.poly.terms()
    }
}

/// Normal form of `p` modulo prepared divisors — THE division loop, shared
/// by the ℚ path ([`crate::division::prepared_normal_form`]) and the ℤ/p
/// path. `skip` excludes one divisor by index (auto-reduction). The divisor
/// selected at every step is the first whose leading monomial divides the
/// current leading term, identically to the historic concrete loop.
pub fn normal_form_in<F: CoeffField, D: DivisorView<F>>(
    field: &F,
    mut p: CPoly<F>,
    divisors: &[D],
    order: &MonomialOrder,
    skip: Option<usize>,
) -> CPoly<F> {
    let mut remainder = CPoly::zero();
    while let Some((lm_p, lc_p)) = p.leading_term(order) {
        let t_mask = lm_p.var_mask();
        let mut divided = false;
        for (i, d) in divisors.iter().enumerate() {
            if skip == Some(i) || d.mask() & !t_mask != 0 {
                continue;
            }
            if let Some(m_quot) = lm_p.div(d.lm()) {
                let c_quot = field.div(&lc_p, d.lc());
                p.sub_scaled(field, d.terms(), &m_quot, &c_quot);
                divided = true;
                break;
            }
        }
        if !divided {
            remainder.add_term(field, &lm_p, &lc_p);
            p.add_term(field, &lm_p, &field.neg(&lc_p));
        }
    }
    remainder
}

/// A pending S-pair: basis indices, the cached lcm of the two leading
/// monomials, and the pair's sugar degree. Coefficient-free.
#[derive(Debug)]
struct SPair {
    i: usize,
    j: usize,
    lcm: Monomial,
    sugar: u32,
}

/// Deterministic binary min-heap of S-pairs under the normal selection
/// strategy: smallest lcm first; ties broken by sugar degree when enabled,
/// then by pair age so the pop order is a total, reproducible function of
/// the push sequence.
#[derive(Debug)]
struct PairQueue {
    heap: Vec<SPair>,
    order: MonomialOrder,
    sugar_tiebreak: bool,
}

impl PairQueue {
    fn new(order: MonomialOrder, sugar_tiebreak: bool) -> Self {
        PairQueue {
            heap: Vec::new(),
            order,
            sugar_tiebreak,
        }
    }

    fn less(&self, a: &SPair, b: &SPair) -> bool {
        match self.order.cmp(&a.lcm, &b.lcm) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => {
                if self.sugar_tiebreak && a.sugar != b.sugar {
                    return a.sugar < b.sugar;
                }
                (a.j, a.i) < (b.j, b.i)
            }
        }
    }

    fn push(&mut self, pair: SPair) {
        self.heap.push(pair);
        let mut child = self.heap.len() - 1;
        while child > 0 {
            let parent = (child - 1) / 2;
            if self.less(&self.heap[child], &self.heap[parent]) {
                self.heap.swap(child, parent);
                child = parent;
            } else {
                break;
            }
        }
    }

    fn pop(&mut self) -> Option<SPair> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let top = self.heap.pop().expect("nonempty");
        let mut parent = 0;
        loop {
            let (l, r) = (2 * parent + 1, 2 * parent + 2);
            let mut smallest = parent;
            if l < self.heap.len() && self.less(&self.heap[l], &self.heap[smallest]) {
                smallest = l;
            }
            if r < self.heap.len() && self.less(&self.heap[r], &self.heap[smallest]) {
                smallest = r;
            }
            if smallest == parent {
                break;
            }
            self.heap.swap(parent, smallest);
            parent = smallest;
        }
        Some(top)
    }
}

/// The Buchberger working state, generic over the coefficient field.
struct Engine<'f, F: CoeffField> {
    field: &'f F,
    basis: Vec<CPrepared<F>>,
    sugars: Vec<u32>,
    queue: PairQueue,
    pending: HashSet<(usize, usize)>,
    options: GroebnerOptions,
    skipped_coprime: usize,
    skipped_chain: usize,
}

impl<F: CoeffField> Engine<'_, F> {
    /// Creates the pair `(i, j)` (with `i < j`) unless the coprime criterion
    /// discards it outright.
    fn push_pair(&mut self, i: usize, j: usize) {
        let (lm_i, lm_j) = (&self.basis[i].lm, &self.basis[j].lm);
        if self.options.use_coprime_criterion && lm_i.is_coprime_with(lm_j) {
            self.skipped_coprime += 1;
            return;
        }
        let lcm = lm_i.lcm(lm_j);
        let deg = lcm.total_degree();
        let sugar = (self.sugars[i] + deg - lm_i.total_degree())
            .max(self.sugars[j] + deg - lm_j.total_degree());
        self.pending.insert((i, j));
        self.queue.push(SPair { i, j, lcm, sugar });
    }

    /// Buchberger's chain (second) criterion.
    fn chain_skippable(&self, pair: &SPair) -> bool {
        let lcm_mask = pair.lcm.var_mask();
        (0..self.basis.len()).any(|k| {
            k != pair.i
                && k != pair.j
                && self.basis[k].mask & !lcm_mask == 0
                && self.basis[k].lm.divides(&pair.lcm)
                && !self.pending.contains(&ordered(pair.i, k))
                && !self.pending.contains(&ordered(pair.j, k))
        })
    }

    /// S-polynomial of basis entries `i` and `j`, reusing the pair's cached
    /// lcm and the entries' cached leading terms.
    fn s_polynomial(&self, pair: &SPair) -> CPoly<F> {
        let (f, g) = (&self.basis[pair.i], &self.basis[pair.j]);
        let mf = pair.lcm.div(&f.lm).expect("lcm divisible by lm(f)");
        let mg = pair.lcm.div(&g.lm).expect("lcm divisible by lm(g)");
        let mut s = f.poly.mul_term(self.field, &mf, &self.field.inv(&f.lc));
        let c = self.field.inv(&g.lc);
        s.sub_scaled(self.field, g.poly.terms(), &mg, &c);
        s
    }
}

fn ordered(a: usize, b: usize) -> (usize, usize) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Result of a generic Buchberger run: the reduced monic basis plus the
/// engine's counters, all in whatever coordinate system the input used.
#[derive(Debug)]
pub struct CoreOutput<F: CoeffField> {
    /// The reduced, monic basis, sorted descending by leading monomial.
    pub polys: Vec<CPoly<F>>,
    /// Whether the run finished before the iteration bound.
    pub complete: bool,
    /// S-polynomial reductions performed.
    pub reductions: usize,
    /// Pairs discarded by the coprime (first) criterion.
    pub skipped_coprime: usize,
    /// Pairs discarded by the chain (second) criterion.
    pub skipped_chain: usize,
}

/// Buchberger's algorithm over an arbitrary coefficient field — the engine
/// proper, shared by the ℚ path ([`crate::groebner::buchberger`]) and the
/// ℤ/p path ([`crate::modular`]). Heap pair queue (normal selection
/// strategy), coprime criterion at push, chain criterion at pop, cached
/// leading terms, clone-free auto-reduction; step for step the historic
/// concrete engine.
pub fn buchberger_core_in<F: CoeffField>(
    field: &F,
    generators: &[CPoly<F>],
    order: &MonomialOrder,
    options: &GroebnerOptions,
) -> CoreOutput<F> {
    let basis: Vec<CPrepared<F>> = generators
        .iter()
        .filter(|g| !g.is_zero())
        .map(|g| CPrepared::new(g.monic(field, order), order).expect("nonzero generator"))
        .collect();
    if basis.is_empty() {
        return CoreOutput {
            polys: Vec::new(),
            complete: true,
            reductions: 0,
            skipped_coprime: 0,
            skipped_chain: 0,
        };
    }

    let sugars = basis.iter().map(|e| e.poly.total_degree()).collect();
    let mut engine = Engine {
        field,
        basis,
        sugars,
        queue: PairQueue::new(order.clone(), options.use_sugar_tiebreak),
        pending: HashSet::new(),
        options: options.clone(),
        skipped_coprime: 0,
        skipped_chain: 0,
    };
    for i in 0..engine.basis.len() {
        for j in (i + 1)..engine.basis.len() {
            engine.push_pair(i, j);
        }
    }

    let mut reductions = 0;
    let mut complete = true;
    while let Some(pair) = engine.queue.pop() {
        engine.pending.remove(&(pair.i, pair.j));
        if engine.options.use_chain_criterion && engine.chain_skippable(&pair) {
            engine.skipped_chain += 1;
            continue;
        }
        // The bound is checked only when a pair survives the criteria: skips
        // are free, so a run whose tail pairs are all discarded by criteria
        // still reports `complete`.
        if reductions >= engine.options.max_iterations {
            complete = false;
            break;
        }
        let s = engine.s_polynomial(&pair);
        let r = normal_form_in(field, s, &engine.basis, order, None);
        reductions += 1;
        if !r.is_zero() {
            let entry = CPrepared::new(r.monic(field, order), order).expect("nonzero remainder");
            let new_index = engine.basis.len();
            engine.basis.push(entry);
            engine.sugars.push(pair.sugar);
            for k in 0..new_index {
                engine.push_pair(k, new_index);
            }
        }
    }

    let polys = auto_reduce_in(field, engine.basis, order);
    CoreOutput {
        polys,
        complete,
        reductions,
        skipped_coprime: engine.skipped_coprime,
        skipped_chain: engine.skipped_chain,
    }
}

/// Inter-reduces a basis to the reduced Gröbner basis: removes elements
/// whose leading monomial is divisible by another's, then tail-reduces each
/// element modulo the others via the index-skipping division — clone-free,
/// like the historic `auto_reduce`.
fn auto_reduce_in<F: CoeffField>(
    field: &F,
    basis: Vec<CPrepared<F>>,
    order: &MonomialOrder,
) -> Vec<CPoly<F>> {
    // Drop redundant elements (leading monomial divisible by another's).
    let mut keep = vec![true; basis.len()];
    for i in 0..basis.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..basis.len() {
            if i == j || !keep[j] {
                continue;
            }
            let (lm_i, lm_j) = (&basis[i].lm, &basis[j].lm);
            if lm_j.divides(lm_i) && (lm_i != lm_j || j < i) {
                keep[i] = false;
                break;
            }
        }
    }
    let kept: Vec<CPrepared<F>> = basis
        .into_iter()
        .zip(keep)
        .filter_map(|(e, k)| if k { Some(e) } else { None })
        .collect();

    // Tail-reduce each element modulo the others. No other kept leading
    // monomial divides lm_i, so the remainder keeps lm_i (and stays monic
    // and nonzero); the cached leading monomial remains valid for sorting.
    let mut reduced: Vec<(Monomial, CPoly<F>)> = Vec::with_capacity(kept.len());
    for i in 0..kept.len() {
        let r = normal_form_in(field, kept[i].poly.clone(), &kept, order, Some(i));
        if !r.is_zero() {
            reduced.push((kept[i].lm.clone(), r.monic(field, order)));
        }
    }
    // Canonical output order: sort by leading monomial, largest first.
    reduced.sort_by(|(la, _), (lb, _)| order.cmp(lb, la));
    reduced.into_iter().map(|(_, p)| p).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::Poly;

    fn cp(s: &str) -> CPoly<RationalField> {
        CPoly::from_sorted_terms(Poly::parse(s).unwrap().sorted_terms().to_vec())
    }

    fn back(p: CPoly<RationalField>) -> Poly {
        Poly::from_terms(p.into_terms())
    }

    #[test]
    fn rational_cpoly_roundtrips_and_matches_poly_ops() {
        let field = RationalField;
        let order = MonomialOrder::lex(&["x", "y"]);
        let f = cp("x^2 + 2*x*y - 3");
        assert_eq!(back(f.clone()).to_string(), "x^2 + 2*x*y - 3");
        let (lm, lc) = f.leading_term(&order).unwrap();
        assert_eq!(
            (lm, lc),
            Poly::parse("x^2 + 2*x*y - 3")
                .unwrap()
                .leading_term(&order)
                .unwrap()
        );
        // monic over ℚ agrees with Poly::monic.
        let g = cp("2*x^2 - 4*y");
        assert_eq!(
            back(g.monic(&field, &order)),
            Poly::parse("2*x^2 - 4*y").unwrap().monic(&order)
        );
    }

    #[test]
    fn generic_division_matches_concrete_division() {
        use crate::division::{divide, PreparedDivisor};
        let order = MonomialOrder::grlex(&["x", "y"]);
        let divisors = [
            Poly::parse("x^2 - y").unwrap(),
            Poly::parse("x*y - 1").unwrap(),
        ];
        let f = Poly::parse("x^3 + x^2*y^2 + y^3 + x + 1").unwrap();
        let prepared: Vec<PreparedDivisor> = divisors
            .iter()
            .filter_map(|g| PreparedDivisor::new(g.clone(), &order))
            .collect();
        let generic = normal_form_in(
            &RationalField,
            CPoly::from_sorted_terms(f.sorted_terms().to_vec()),
            &prepared,
            &order,
            None,
        );
        assert_eq!(back(generic), divide(&f, &divisors, &order).remainder);
    }
}
