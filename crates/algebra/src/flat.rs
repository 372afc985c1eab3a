//! Flat strided polynomials for the multi-modular lift.
//!
//! The field-generic engine of [`crate::coeff`] stores a polynomial as a
//! vector of `(Monomial, coefficient)` pairs in the canonical storage order.
//! That is the right shape for the exact path, but the lift's mod-p images
//! pay for it: every division step allocates a fresh merged vector, every
//! monomial carries an inline array sized for eight variables, and under
//! any order other than the storage order the leading term is found by a
//! rescan. This module keeps the lift's polynomials in the flat layout of
//! symbolica's `MultivariatePolynomial`:
//!
//! * **Layout.** One coefficient vector plus one `u32` exponent vector
//!   strided by the row width. A term's row holds the order's
//!   derived degree columns (none for lex, the total degree for the graded
//!   orders, block and total degree for elimination orders), then one
//!   column per ring variable, permuted so that the working
//!   [`MonomialOrder`] is a plain slice comparison of two rows.
//! * **Term order.** Terms are kept sorted descending by the working order
//!   (monomial orders are multiplication-invariant, so merges preserve it),
//!   and the leading term is always row 0.
//! * **Checked exponents.** Products check every variable column the way
//!   [`Monomial::mul`] does, with the same panic; the derived degree
//!   columns check against `u32` like [`Monomial::total_degree`].
//!
//! Two clients share it. [`buchberger_fp`] is the crate's ℤ/p Buchberger
//! run, behind every lift image: step for step the generic engine's
//! algorithm (pair order, criteria, first-divisor division,
//! auto-reduction), so the basis and every counter are identical, with merges into reused buffers and a bit matrix for the
//! pending pairs. [`IntReducer`] is the lift's ℚ verification done
//! fraction-free over ℤ (see [`IntReducer::reduces_to_zero`]).

use std::cmp::Ordering;

use symmap_numeric::{BigInt, Fp64, Rational};

use crate::coeff::{CPoly, CoreOutput};
use crate::groebner::GroebnerOptions;
use crate::monomial::Monomial;
use crate::ordering::MonomialOrder;

/// How one monomial order maps onto flat rows: which variable each column
/// holds, which derived degree columns lead the row, and in which sense the
/// variable columns compare.
#[derive(Debug, Clone)]
pub(crate) struct FlatLayout {
    /// Words per term: `extra` derived columns, then one per variable.
    stride: usize,
    /// Derived columns leading each row (0 lex, 1 graded, 2 elimination).
    extra: usize,
    /// Variable columns compare in reverse sense (grevlex tail): after the
    /// derived columns, the smaller exponent in the first differing column
    /// is the larger monomial.
    reverse: bool,
    /// Variable columns, relative to `extra`, summed into the elimination
    /// block-degree column.
    block: std::ops::Range<usize>,
    /// Variable index → variable column (relative to `extra`).
    col_of: Vec<usize>,
}

impl FlatLayout {
    /// The layout of `order` over variables `0..width` (every variable of
    /// the polynomials it will hold must be below `width`).
    ///
    /// The variable columns follow the order's precedence: the listed
    /// variables that occur below `width` in list order, then the unlisted
    /// ones by index, exactly the sequence `MonomialOrder::cmp` probes. Lex
    /// and grlex compare the columns forward; grevlex and elimination store
    /// them reversed and compare in reverse sense, which is the grevlex
    /// tie-break read from the least variable up.
    pub(crate) fn new(order: &MonomialOrder, width: usize) -> Self {
        let listed: Vec<usize> = order
            .vars()
            .iter()
            .map(|v| v.index() as usize)
            .filter(|&i| i < width)
            .collect();
        let mut precedence = listed.clone();
        precedence.extend((0..width).filter(|i| !listed.contains(i)));
        let (extra, reverse, block_len) = match order {
            MonomialOrder::Lex(_) => (0, false, 0),
            MonomialOrder::GrLex(_) => (1, false, 0),
            MonomialOrder::GrevLex(_) => (1, true, 0),
            MonomialOrder::Elimination(vars, k) => {
                let kept = vars
                    .iter()
                    .take(*k)
                    .filter(|v| (v.index() as usize) < width)
                    .count();
                (2, true, kept)
            }
        };
        if reverse {
            precedence.reverse();
        }
        let mut col_of = vec![0; width];
        for (col, &var) in precedence.iter().enumerate() {
            col_of[var] = col;
        }
        // Reversed storage puts the block's precedence prefix at the end.
        let block = width - block_len..width;
        FlatLayout {
            stride: extra + width,
            extra,
            reverse,
            block,
            col_of,
        }
    }

    /// The layout for polynomials whose terms are `monomials`.
    pub(crate) fn spanning<'a>(
        order: &MonomialOrder,
        monomials: impl IntoIterator<Item = &'a Monomial>,
    ) -> Self {
        let width = monomials
            .into_iter()
            .map(|m| m.exps().len())
            .max()
            .unwrap_or(0);
        // One column at least, so that a row is never empty.
        FlatLayout::new(order, width.max(1))
    }

    /// Words per term row.
    #[inline]
    pub(crate) fn stride(&self) -> usize {
        self.stride
    }

    /// Compares two rows under the working order.
    #[inline]
    pub(crate) fn cmp(&self, a: &[u32], b: &[u32]) -> Ordering {
        let s = self.stride;
        match a[..s].iter().zip(&b[..s]).position(|(p, q)| p != q) {
            None => Ordering::Equal,
            Some(i) if self.reverse && i >= self.extra => b[i].cmp(&a[i]),
            Some(i) => a[i].cmp(&b[i]),
        }
    }

    /// Appends the row of `m`.
    pub(crate) fn push_monomial(&self, m: &Monomial, out: &mut Vec<u32>) {
        let start = out.len();
        out.resize(start + self.stride(), 0);
        let row = &mut out[start..];
        for (var, &e) in m.exps().iter().enumerate() {
            row[self.extra + self.col_of[var]] = e;
        }
        self.fill_degrees(row);
    }

    /// The monomial of a row, in the caller's variable indices.
    pub(crate) fn monomial(&self, row: &[u32]) -> Monomial {
        let vars = &row[self.extra..];
        Monomial::from_fn(self.col_of.len(), |var| vars[self.col_of[var]])
    }

    /// Recomputes the derived degree columns from the variable columns.
    fn fill_degrees(&self, row: &mut [u32]) {
        if self.extra == 0 {
            return;
        }
        let vars = &row[self.extra..];
        let total = degree_u32(vars.iter().map(|&e| e as u64).sum());
        let block = degree_u32(vars[self.block.clone()].iter().map(|&e| e as u64).sum());
        row[self.extra - 1] = total;
        if self.extra == 2 {
            row[0] = block;
        }
    }

    /// Total degree of a row.
    pub(crate) fn degree(&self, row: &[u32]) -> u64 {
        match self.extra {
            0 => row.iter().map(|&e| e as u64).sum(),
            x => row[x - 1] as u64,
        }
    }

    /// Variable-support fingerprint: bit `column % 64` per nonzero variable
    /// column. A divisor's mask must be a subset of its multiple's.
    #[inline]
    pub(crate) fn mask(&self, row: &[u32]) -> u64 {
        row[self.extra..]
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e > 0)
            .fold(0u64, |m, (i, _)| m | 1u64 << (i % 64))
    }

    /// Whether row `a` divides row `b`. The derived columns are linear in
    /// the variable columns, so comparing the whole row is exact.
    #[inline]
    pub(crate) fn divides(&self, a: &[u32], b: &[u32]) -> bool {
        a.iter().zip(b).all(|(x, y)| x <= y)
    }

    /// Whether the two rows share no variable.
    pub(crate) fn coprime(&self, a: &[u32], b: &[u32]) -> bool {
        let x = self.extra;
        a[x..].iter().zip(&b[x..]).all(|(&p, &q)| p == 0 || q == 0)
    }

    /// Writes `a · b` to `out` (the whole row, `out.len() == stride`).
    ///
    /// # Panics
    ///
    /// Panics when a variable exponent overflows `u32`, like
    /// [`Monomial::mul`], or when a derived degree does.
    #[inline]
    pub(crate) fn mul_into(&self, a: &[u32], b: &[u32], out: &mut [u32]) {
        let mut overflow = false;
        for ((o, &p), &q) in out.iter_mut().zip(a).zip(b) {
            let (sum, carry) = p.overflowing_add(q);
            *o = sum;
            overflow |= carry;
        }
        if overflow {
            self.overflow_panic(a, b);
        }
    }

    /// The panic of an overflowing [`FlatLayout::mul_into`]: a derived
    /// degree column first, then a variable column.
    #[cold]
    fn overflow_panic(&self, a: &[u32], b: &[u32]) -> ! {
        let derived = (0..self.extra).any(|i| a[i].checked_add(b[i]).is_none());
        assert!(!derived, "total degree overflows u32");
        panic!("monomial exponent overflow")
    }

    /// Writes `a / b` to `out`; `b` must divide `a`.
    pub(crate) fn div_into(&self, a: &[u32], b: &[u32], out: &mut [u32]) {
        for ((o, &p), &q) in out.iter_mut().zip(a).zip(b) {
            *o = p - q;
        }
    }

    /// Writes `lcm(a, b)` to `out`.
    pub(crate) fn lcm_into(&self, a: &[u32], b: &[u32], out: &mut [u32]) {
        let x = self.extra;
        for i in x..self.stride() {
            out[i] = a[i].max(b[i]);
        }
        self.fill_degrees(out);
    }
}

/// A derived degree column, checked against `u32` like
/// [`Monomial::total_degree`].
fn degree_u32(d: u64) -> u32 {
    u32::try_from(d).expect("total degree overflows u32")
}

/// A polynomial in the flat layout: `coeffs[t]` and the row
/// `exps[t * stride..(t + 1) * stride]`, strictly descending in the
/// working order, no zero coefficients.
#[derive(Debug, Clone)]
pub(crate) struct FlatPoly<C> {
    coeffs: Vec<C>,
    exps: Vec<u32>,
}

impl<C> Default for FlatPoly<C> {
    fn default() -> Self {
        FlatPoly {
            coeffs: Vec::new(),
            exps: Vec::new(),
        }
    }
}

impl<C> FlatPoly<C> {
    /// Converts a term list (any order) into the layout, sorted by the
    /// working order.
    pub(crate) fn from_terms<'a>(
        layout: &FlatLayout,
        terms: impl IntoIterator<Item = (&'a Monomial, C)>,
    ) -> Self {
        let mut rows = Vec::new();
        let mut indexed: Vec<(usize, C)> = Vec::new();
        for (i, (m, c)) in terms.into_iter().enumerate() {
            layout.push_monomial(m, &mut rows);
            indexed.push((i, c));
        }
        let s = layout.stride();
        let row = |i: usize| &rows[i * s..(i + 1) * s];
        indexed.sort_unstable_by(|(a, _), (b, _)| layout.cmp(row(*b), row(*a)));
        let mut out = FlatPoly {
            coeffs: Vec::with_capacity(indexed.len()),
            exps: Vec::with_capacity(rows.len()),
        };
        for (i, c) in indexed {
            out.push(row(i), c);
        }
        out
    }

    /// Number of terms.
    pub(crate) fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// Whether this is the zero polynomial.
    pub(crate) fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Row of term `t`.
    #[inline]
    pub(crate) fn row(&self, layout: &FlatLayout, t: usize) -> &[u32] {
        &self.exps[t * layout.stride()..(t + 1) * layout.stride()]
    }

    fn clear(&mut self) {
        self.coeffs.clear();
        self.exps.clear();
    }

    fn push(&mut self, row: &[u32], c: C) {
        self.coeffs.push(c);
        self.exps.extend_from_slice(row);
    }

    /// The terms as `(Monomial, C)` pairs in the canonical storage order —
    /// the exit conversion back to [`CPoly`]/`Poly` term vectors.
    pub(crate) fn into_canonical_terms(self, layout: &FlatLayout) -> Vec<(Monomial, C)> {
        let mut terms: Vec<(Monomial, C)> = self
            .coeffs
            .into_iter()
            .enumerate()
            .map(|(t, c)| {
                let row = &self.exps[t * layout.stride()..(t + 1) * layout.stride()];
                (layout.monomial(row), c)
            })
            .collect();
        terms.sort_unstable_by(|a, b| b.0.cmp(&a.0));
        terms
    }
}

/// Writes `scale_p(p[ps..]) + x^q · scale_d(d[ds..])` into `out`, merging
/// the two descending term streams and dropping coefficients that cancel —
/// the one merge both clients run. `shifted` is a one-row scratch buffer.
#[allow(clippy::too_many_arguments)]
fn merge_shifted<C>(
    layout: &FlatLayout,
    out: &mut FlatPoly<C>,
    (p, ps): (&FlatPoly<C>, usize),
    (d, ds): (&FlatPoly<C>, usize),
    q: &[u32],
    shifted: &mut [u32],
    mut scale_p: impl FnMut(&C) -> C,
    mut scale_d: impl FnMut(&C) -> C,
    mut add: impl FnMut(C, C) -> Option<C>,
) {
    let s = layout.stride();
    out.clear();
    out.coeffs.reserve(p.len() - ps + d.len() - ds);
    out.exps.reserve((p.len() - ps + d.len() - ds) * s);
    let mut p_terms = p.exps[ps * s..].chunks_exact(s).zip(&p.coeffs[ps..]);
    let mut p_next = p_terms.next();
    for (d_row, d_c) in d.exps[ds * s..].chunks_exact(s).zip(&d.coeffs[ds..]) {
        layout.mul_into(d_row, q, shifted);
        loop {
            let Some((p_row, p_c)) = p_next else {
                out.push(shifted, scale_d(d_c));
                break;
            };
            match layout.cmp(p_row, shifted) {
                Ordering::Greater => {
                    out.push(p_row, scale_p(p_c));
                    p_next = p_terms.next();
                }
                Ordering::Less => {
                    out.push(shifted, scale_d(d_c));
                    break;
                }
                Ordering::Equal => {
                    if let Some(c) = add(scale_p(p_c), scale_d(d_c)) {
                        out.push(shifted, c);
                    }
                    p_next = p_terms.next();
                    break;
                }
            }
        }
    }
    if let Some((p_row, p_c)) = p_next {
        out.push(p_row, scale_p(p_c));
        for (p_row, p_c) in p_terms {
            out.push(p_row, scale_p(p_c));
        }
    }
}

/// A basis element of the ℤ/p run: a nonzero polynomial with its leading
/// row's mask cached (the leading row itself is row 0).
#[derive(Debug, Clone)]
struct FpElement {
    poly: FlatPoly<u64>,
    mask: u64,
}

impl FpElement {
    fn new(layout: &FlatLayout, poly: FlatPoly<u64>) -> Self {
        let mask = layout.mask(poly.row(layout, 0));
        FpElement { poly, mask }
    }

    fn lm<'a>(&'a self, layout: &FlatLayout) -> &'a [u32] {
        self.poly.row(layout, 0)
    }

    fn lc(&self) -> u64 {
        self.poly.coeffs[0]
    }
}

/// Reused buffers of the ℤ/p run: the division loop's working polynomial
/// and merge target, and single-row scratch.
#[derive(Default)]
struct FpScratch {
    cur: FlatPoly<u64>,
    next: FlatPoly<u64>,
    shifted_f: FlatPoly<u64>,
    quot: Vec<u32>,
    mono: Vec<u32>,
    shifted: Vec<u32>,
}

/// The ℤ/p arithmetic and layout one run works in.
struct FpRing<'a> {
    field: &'a Fp64,
    layout: &'a FlatLayout,
}

impl FpRing<'_> {
    /// Scales to a monic polynomial (leading coefficient one).
    fn monic(&self, mut p: FlatPoly<u64>) -> FlatPoly<u64> {
        let inv = self.field.inv(p.coeffs[0]);
        if inv != self.field.one() {
            for c in &mut p.coeffs {
                *c = self.field.mul(*c, inv);
            }
        }
        p
    }

    /// Normal form of `scratch.cur` modulo `divisors` (skipping index
    /// `skip`): the generic `normal_form_in` step for step. Each step takes
    /// the first divisor whose leading monomial divides the current leading
    /// term, or moves that term to the remainder. The leading terms of a
    /// step cancel exactly, so the merge starts after them.
    fn normal_form(
        &self,
        scratch: &mut FpScratch,
        divisors: &[FpElement],
        skip: Option<usize>,
    ) -> FlatPoly<u64> {
        let (field, layout) = (self.field, self.layout);
        let s = layout.stride();
        scratch.quot.resize(s, 0);
        scratch.shifted.resize(s, 0);
        let mut remainder = FlatPoly::default();
        let mut head = 0;
        while head < scratch.cur.len() {
            let lt = scratch.cur.row(layout, head);
            let lc = scratch.cur.coeffs[head];
            let t_mask = layout.mask(lt);
            let divisor = divisors.iter().enumerate().position(|(i, d)| {
                skip != Some(i) && d.mask & !t_mask == 0 && layout.divides(d.lm(layout), lt)
            });
            let Some(i) = divisor else {
                remainder.push(lt, lc);
                head += 1;
                continue;
            };
            let d = &divisors[i];
            layout.div_into(lt, d.lm(layout), &mut scratch.quot);
            let neg_c = field.neg(field.div(lc, d.lc()));
            merge_shifted(
                layout,
                &mut scratch.next,
                (&scratch.cur, head + 1),
                (&d.poly, 1),
                &scratch.quot,
                &mut scratch.shifted,
                |&c| c,
                |&c| field.mul(c, neg_c),
                |a, b| Some(field.add(a, b)).filter(|&c| c != 0),
            );
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
            head = 0;
        }
        remainder
    }
}

/// One pending S-pair; its lcm row lives in the queue's arena.
#[derive(Debug, Clone, Copy)]
struct FlatPair {
    i: usize,
    j: usize,
    lcm: usize,
    sugar: u32,
}

/// The generic engine's pair heap over flat lcm rows: smallest lcm first,
/// then (optionally) smallest sugar, then `(j, i)`. That key is a total
/// order on distinct pairs, so the pop sequence is the generic engine's.
struct FlatPairQueue {
    heap: Vec<FlatPair>,
    lcms: Vec<u32>,
    sugar_tiebreak: bool,
}

impl FlatPairQueue {
    fn lcm<'a>(&'a self, layout: &FlatLayout, pair: &FlatPair) -> &'a [u32] {
        &self.lcms[pair.lcm..pair.lcm + layout.stride()]
    }

    fn less(&self, layout: &FlatLayout, a: &FlatPair, b: &FlatPair) -> bool {
        match layout.cmp(self.lcm(layout, a), self.lcm(layout, b)) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => {
                if self.sugar_tiebreak && a.sugar != b.sugar {
                    return a.sugar < b.sugar;
                }
                (a.j, a.i) < (b.j, b.i)
            }
        }
    }

    fn push(&mut self, layout: &FlatLayout, pair: FlatPair) {
        self.heap.push(pair);
        let mut child = self.heap.len() - 1;
        while child > 0 {
            let parent = (child - 1) / 2;
            if self.less(layout, &self.heap[child], &self.heap[parent]) {
                self.heap.swap(child, parent);
                child = parent;
            } else {
                break;
            }
        }
    }

    fn pop(&mut self, layout: &FlatLayout) -> Option<FlatPair> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap.swap_remove(0);
        let mut parent = 0;
        loop {
            let (l, r) = (2 * parent + 1, 2 * parent + 2);
            let mut smallest = parent;
            if l < self.heap.len() && self.less(layout, &self.heap[l], &self.heap[smallest]) {
                smallest = l;
            }
            if r < self.heap.len() && self.less(layout, &self.heap[r], &self.heap[smallest]) {
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

/// The set of pending pairs `(i, j)`, `i < j`, as a bit per pair in
/// triangular order (`j·(j−1)/2 + i`), so the set grows with the basis.
#[derive(Default)]
struct PairBits(Vec<u64>);

impl PairBits {
    fn index(i: usize, j: usize) -> usize {
        let (i, j) = if i < j { (i, j) } else { (j, i) };
        j * (j - 1) / 2 + i
    }

    fn set(&mut self, i: usize, j: usize, on: bool) {
        let k = Self::index(i, j);
        if k / 64 >= self.0.len() {
            self.0.resize(k / 64 + 1, 0);
        }
        if on {
            self.0[k / 64] |= 1 << (k % 64);
        } else {
            self.0[k / 64] &= !(1 << (k % 64));
        }
    }

    fn contains(&self, i: usize, j: usize) -> bool {
        let k = Self::index(i, j);
        self.0.get(k / 64).is_some_and(|w| w & (1 << (k % 64)) != 0)
    }
}

/// The Buchberger working state of one ℤ/p run.
struct FpEngine<'a> {
    ring: FpRing<'a>,
    basis: Vec<FpElement>,
    sugars: Vec<u32>,
    queue: FlatPairQueue,
    pending: PairBits,
    options: &'a GroebnerOptions,
    skipped_coprime: usize,
    skipped_chain: usize,
}

impl FpEngine<'_> {
    /// Creates the pair `(i, j)` (with `i < j`) unless the coprime criterion
    /// discards it outright.
    fn push_pair(&mut self, i: usize, j: usize) {
        let layout = self.ring.layout;
        let (lm_i, lm_j) = (self.basis[i].lm(layout), self.basis[j].lm(layout));
        if self.options.use_coprime_criterion && layout.coprime(lm_i, lm_j) {
            self.skipped_coprime += 1;
            return;
        }
        let at = self.queue.lcms.len();
        self.queue.lcms.resize(at + layout.stride(), 0);
        layout.lcm_into(lm_i, lm_j, &mut self.queue.lcms[at..]);
        let deg = degree_u32(layout.degree(&self.queue.lcms[at..]));
        let (deg_i, deg_j) = (
            degree_u32(layout.degree(lm_i)),
            degree_u32(layout.degree(lm_j)),
        );
        let sugar = (self.sugars[i] + deg - deg_i).max(self.sugars[j] + deg - deg_j);
        self.pending.set(i, j, true);
        let pair = FlatPair {
            i,
            j,
            lcm: at,
            sugar,
        };
        self.queue.push(layout, pair);
    }

    /// Buchberger's chain (second) criterion.
    fn chain_skippable(&self, pair: &FlatPair) -> bool {
        let layout = self.ring.layout;
        let lcm = self.queue.lcm(layout, pair);
        let lcm_mask = layout.mask(lcm);
        (0..self.basis.len()).any(|k| {
            k != pair.i
                && k != pair.j
                && self.basis[k].mask & !lcm_mask == 0
                && layout.divides(self.basis[k].lm(layout), lcm)
                && !self.pending.contains(pair.i, k)
                && !self.pending.contains(pair.j, k)
        })
    }

    /// Writes the S-polynomial of a pair to `scratch.cur`. The scaled
    /// leading terms cancel exactly, so only the tails are merged.
    fn s_polynomial(&self, scratch: &mut FpScratch, pair: &FlatPair) {
        let (field, layout) = (self.ring.field, self.ring.layout);
        let (f, g) = (&self.basis[pair.i], &self.basis[pair.j]);
        let s = layout.stride();
        let lcm = self.queue.lcm(layout, pair);
        for buf in [&mut scratch.mono, &mut scratch.quot, &mut scratch.shifted] {
            buf.resize(s, 0);
        }
        layout.div_into(lcm, f.lm(layout), &mut scratch.mono);
        layout.div_into(lcm, g.lm(layout), &mut scratch.quot);
        // f·x^mf/lc(f), tail only.
        let inv_f = field.inv(f.lc());
        let ff = &mut scratch.shifted_f;
        ff.clear();
        for t in 1..f.poly.len() {
            layout.mul_into(f.poly.row(layout, t), &scratch.mono, &mut scratch.shifted);
            ff.push(&scratch.shifted, field.mul(f.poly.coeffs[t], inv_f));
        }
        let neg_inv_g = field.neg(field.inv(g.lc()));
        merge_shifted(
            layout,
            &mut scratch.cur,
            (&scratch.shifted_f, 0),
            (&g.poly, 1),
            &scratch.quot,
            &mut scratch.shifted,
            |&c| c,
            |&c| field.mul(c, neg_inv_g),
            |a, b| Some(field.add(a, b)).filter(|&c| c != 0),
        );
    }
}

/// Buchberger's algorithm over ℤ/p in the flat layout — the engine of the
/// lift's images. It is `buchberger_core_in::<Fp64>` step for step (same
/// pair queue, criteria, division and auto-reduction), so it returns the
/// same reduced monic basis and the same counters; the differential tests
/// pin that on every order and option combination. Generators are Montgomery form `CPoly`s in canonical
/// storage order, like the output.
pub(crate) fn buchberger_fp(
    field: &Fp64,
    generators: &[CPoly<Fp64>],
    order: &MonomialOrder,
    options: &GroebnerOptions,
) -> CoreOutput<Fp64> {
    let layout = FlatLayout::spanning(
        order,
        generators
            .iter()
            .flat_map(|g| g.terms().iter().map(|(m, _)| m)),
    );
    let gens: Vec<FlatPoly<u64>> = generators
        .iter()
        .filter(|g| !g.is_zero())
        .map(|g| FlatPoly::from_terms(&layout, g.terms().iter().map(|(m, c)| (m, *c))))
        .collect();
    let mut run = run_fp(field, &layout, gens, options);
    // Canonical output order: by leading monomial, largest first.
    run.polys
        .sort_by(|a, b| layout.cmp(b.row(&layout, 0), a.row(&layout, 0)));
    CoreOutput {
        polys: run
            .polys
            .into_iter()
            .map(|p| CPoly::from_sorted_terms(p.into_canonical_terms(&layout)))
            .collect(),
        complete: run.complete,
        reductions: run.reductions,
        skipped_coprime: run.skipped_coprime,
        skipped_chain: run.skipped_chain,
    }
}

/// What [`run_fp`] returns: the reduced monic basis in no particular order,
/// plus the counters of [`CoreOutput`].
struct FpRun {
    polys: Vec<FlatPoly<u64>>,
    complete: bool,
    reductions: usize,
    skipped_coprime: usize,
    skipped_chain: usize,
}

/// The Buchberger run on the nonzero generators.
fn run_fp(
    field: &Fp64,
    layout: &FlatLayout,
    generators: Vec<FlatPoly<u64>>,
    options: &GroebnerOptions,
) -> FpRun {
    let ring = FpRing { field, layout };
    let basis: Vec<FpElement> = generators
        .into_iter()
        .map(|g| FpElement::new(ring.layout, ring.monic(g)))
        .collect();
    let sugars = basis
        .iter()
        .map(|e| {
            let layout = ring.layout;
            let max = (0..e.poly.len())
                .map(|t| layout.degree(e.poly.row(layout, t)))
                .max();
            degree_u32(max.unwrap_or(0))
        })
        .collect();
    let mut engine = FpEngine {
        ring,
        basis,
        sugars,
        queue: FlatPairQueue {
            heap: Vec::new(),
            lcms: Vec::new(),
            sugar_tiebreak: options.use_sugar_tiebreak,
        },
        pending: PairBits::default(),
        options,
        skipped_coprime: 0,
        skipped_chain: 0,
    };
    for i in 0..engine.basis.len() {
        for j in (i + 1)..engine.basis.len() {
            engine.push_pair(i, j);
        }
    }

    let mut scratch = FpScratch::default();
    let mut reductions = 0;
    let mut complete = true;
    while let Some(pair) = engine.queue.pop(engine.ring.layout) {
        engine.pending.set(pair.i, pair.j, false);
        if options.use_chain_criterion && engine.chain_skippable(&pair) {
            engine.skipped_chain += 1;
            continue;
        }
        // As in the generic engine, only pairs that survive the criteria
        // count toward the bound.
        if reductions >= options.max_iterations {
            complete = false;
            break;
        }
        engine.s_polynomial(&mut scratch, &pair);
        let r = engine.ring.normal_form(&mut scratch, &engine.basis, None);
        reductions += 1;
        if !r.is_zero() {
            let entry = FpElement::new(engine.ring.layout, engine.ring.monic(r));
            let new_index = engine.basis.len();
            engine.basis.push(entry);
            engine.sugars.push(pair.sugar);
            for k in 0..new_index {
                engine.push_pair(k, new_index);
            }
        }
    }

    FpRun {
        polys: auto_reduce_fp(&engine.ring, &mut scratch, engine.basis),
        complete,
        reductions,
        skipped_coprime: engine.skipped_coprime,
        skipped_chain: engine.skipped_chain,
    }
}

/// Inter-reduction to the reduced basis, as the generic `auto_reduce_in`:
/// drop elements whose leading monomial another's divides, tail-reduce each
/// survivor modulo the others and make it monic. No other kept leading
/// monomial divides a survivor's, so each remainder keeps it as row 0.
fn auto_reduce_fp(
    ring: &FpRing<'_>,
    scratch: &mut FpScratch,
    basis: Vec<FpElement>,
) -> Vec<FlatPoly<u64>> {
    let layout = ring.layout;
    let mut keep = vec![true; basis.len()];
    for i in 0..basis.len() {
        if !keep[i] {
            continue;
        }
        for j in 0..basis.len() {
            if i == j || !keep[j] {
                continue;
            }
            let (lm_i, lm_j) = (basis[i].lm(layout), basis[j].lm(layout));
            if layout.divides(lm_j, lm_i) && (lm_i != lm_j || j < i) {
                keep[i] = false;
                break;
            }
        }
    }
    let kept: Vec<FpElement> = basis
        .into_iter()
        .zip(keep)
        .filter_map(|(e, k)| k.then_some(e))
        .collect();
    let mut reduced: Vec<FlatPoly<u64>> = Vec::with_capacity(kept.len());
    for i in 0..kept.len() {
        scratch.cur.coeffs.clone_from(&kept[i].poly.coeffs);
        scratch.cur.exps.clone_from(&kept[i].poly.exps);
        let r = ring.normal_form(scratch, &kept, Some(i));
        if !r.is_zero() {
            reduced.push(ring.monic(r));
        }
    }
    reduced
}

/// An integer coefficient of the fraction-free reduction: inline while it
/// fits an `i64` (the common case, where arithmetic allocates nothing), a
/// [`BigInt`] otherwise. Every result whose magnitude is below 2⁶³ is
/// `Small`, so zero and one always are, which `is_zero` and `is_one` rely
/// on.
#[derive(Debug, Clone, PartialEq)]
enum Int {
    Small(i64),
    Big(BigInt),
}

impl Int {
    fn from_i128(v: i128) -> Int {
        i64::try_from(v).map_or_else(|_| Int::Big(BigInt::from(v)), Int::Small)
    }

    fn from_big(v: BigInt) -> Int {
        // `bits() < 64` bounds the magnitude by 2⁶³ − 1, so the conversion
        // cannot fail (and never formats an overflow error).
        if v.bits() < 64 {
            Int::Small(v.to_i64().expect("fits i64"))
        } else {
            Int::Big(v)
        }
    }

    fn big(&self) -> std::borrow::Cow<'_, BigInt> {
        match self {
            Int::Small(v) => std::borrow::Cow::Owned(BigInt::from(*v)),
            Int::Big(v) => std::borrow::Cow::Borrowed(v),
        }
    }

    fn is_one(&self) -> bool {
        *self == Int::Small(1)
    }

    fn is_zero(&self) -> bool {
        *self == Int::Small(0)
    }

    fn mul(&self, other: &Int) -> Int {
        match (self, other) {
            (Int::Small(a), Int::Small(b)) => Int::from_i128(*a as i128 * *b as i128),
            _ => Int::from_big(&*self.big() * &*other.big()),
        }
    }

    fn add(self, other: Int) -> Int {
        match (&self, &other) {
            (Int::Small(a), Int::Small(b)) => Int::from_i128(*a as i128 + *b as i128),
            _ => Int::from_big(&*self.big() + &*other.big()),
        }
    }

    fn neg(self) -> Int {
        match self {
            Int::Small(a) => Int::from_i128(-(a as i128)),
            Int::Big(a) => Int::from_big(-a),
        }
    }

    /// The non-negative gcd.
    fn gcd(&self, other: &Int) -> Int {
        match (self, other) {
            (Int::Small(a), Int::Small(b)) => {
                let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
                while b != 0 {
                    (a, b) = (b, a % b);
                }
                Int::from_i128(a as i128)
            }
            _ => Int::from_big(self.big().gcd(&other.big())),
        }
    }

    /// `self / other` for a divisor `other` of `self`.
    fn div_exact(&self, other: &Int) -> Int {
        match (self, other) {
            (Int::Small(a), Int::Small(b)) => Int::from_i128(*a as i128 / *b as i128),
            _ => Int::from_big(&*self.big() / &*other.big()),
        }
    }
}

/// A nonzero primitive integer polynomial used as a divisor, with its
/// leading row's mask cached.
#[derive(Debug, Clone)]
struct IntElement {
    poly: FlatPoly<Int>,
    mask: u64,
}

/// How many fraction-free reduction steps run between two content
/// strips. Each step multiplies the working polynomial by the divisor's
/// leading coefficient (over a gcd), so without stripping its coefficients
/// grow by that much per step; stripping every step would pay a gcd over
/// every coefficient each time.
const CONTENT_STRIP_PERIOD: usize = 4;

/// Fraction-free membership over ℤ for a candidate basis over ℚ — the
/// lift's verification. Each candidate element is cleared of denominators
/// to a primitive integer polynomial once; a polynomial is then reduced
/// with the pseudo-division step `p ← (lc_d/g)·p − (c/g)·x^q·d`
/// (`c = lc(p)`, `g = gcd(lc_d, c)`), which scales the rational division
/// step `p ← p − (c/lc_d)·x^q·d` by the nonzero constant `lc_d/g`. Every
/// intermediate polynomial is therefore a nonzero multiple of the one the
/// rational normal form would hold, with the same leading monomial and so
/// the same divisor choice, and the rational normal form is zero exactly
/// when this reduction reaches zero.
pub(crate) struct IntReducer {
    layout: FlatLayout,
    divisors: Vec<IntElement>,
    scratch: IntScratch,
}

/// Reused buffers of [`IntReducer`]: the working polynomial, the merge
/// target, the scaled S-polynomial half and single-row scratch.
#[derive(Default)]
struct IntScratch {
    cur: FlatPoly<Int>,
    next: FlatPoly<Int>,
    half: FlatPoly<Int>,
    lcm: Vec<u32>,
    mono: Vec<u32>,
    quot: Vec<u32>,
    shifted: Vec<u32>,
}

impl IntReducer {
    /// Clears each candidate element (nonzero, in `layout`'s variables) to
    /// a primitive integer divisor.
    pub(crate) fn new<'a>(
        layout: FlatLayout,
        candidate: impl IntoIterator<Item = &'a crate::poly::Poly>,
    ) -> Self {
        let divisors = candidate
            .into_iter()
            .map(|p| {
                let poly = primitive_part(&layout, p);
                let mask = layout.mask(poly.row(&layout, 0));
                IntElement { poly, mask }
            })
            .collect();
        let s = layout.stride();
        let mut scratch = IntScratch::default();
        for row in [
            &mut scratch.lcm,
            &mut scratch.mono,
            &mut scratch.quot,
            &mut scratch.shifted,
        ] {
            row.resize(s, 0);
        }
        IntReducer {
            layout,
            divisors,
            scratch,
        }
    }

    /// Whether `p` (nonzero or zero, in the layout's variables) reduces to
    /// zero modulo the candidate — `normal_form_in(..).is_zero()` over ℚ.
    pub(crate) fn member(&mut self, p: &crate::poly::Poly) -> bool {
        if p.is_zero() {
            return true;
        }
        self.scratch.cur = primitive_part(&self.layout, p);
        self.reduces_to_zero()
    }

    /// Whether the S-polynomial of divisors `i` and `j` reduces to zero.
    pub(crate) fn s_pair_reduces(&mut self, i: usize, j: usize) -> bool {
        let (layout, sc) = (&self.layout, &mut self.scratch);
        let (f, g) = (&self.divisors[i].poly, &self.divisors[j].poly);
        let (lm_f, lm_g) = (f.row(layout, 0), g.row(layout, 0));
        layout.lcm_into(lm_f, lm_g, &mut sc.lcm);
        layout.div_into(&sc.lcm, lm_f, &mut sc.mono);
        layout.div_into(&sc.lcm, lm_g, &mut sc.quot);
        // (lc_g/h)·x^mf·f − (lc_f/h)·x^mg·g: the scaled leading terms
        // cancel, so only the tails are merged.
        let h = f.coeffs[0].gcd(&g.coeffs[0]);
        let (a, b) = (g.coeffs[0].div_exact(&h), f.coeffs[0].div_exact(&h));
        sc.half.clear();
        for t in 1..f.len() {
            layout.mul_into(f.row(layout, t), &sc.mono, &mut sc.shifted);
            sc.half.push(&sc.shifted, f.coeffs[t].mul(&a));
        }
        merge_shifted(
            layout,
            &mut sc.cur,
            (&sc.half, 0),
            (g, 1),
            &sc.quot,
            &mut sc.shifted,
            Int::clone,
            |c| c.mul(&b).neg(),
            add_nonzero,
        );
        self.reduces_to_zero()
    }

    /// Fraction-free reduction of `scratch.cur` by the divisors, first
    /// divisor first; `false` at the first leading term no divisor's
    /// leading monomial divides (the rational normal form keeps that term).
    fn reduces_to_zero(&mut self) -> bool {
        let (layout, sc) = (&self.layout, &mut self.scratch);
        let mut steps = 0;
        while !sc.cur.is_zero() {
            let lt = sc.cur.row(layout, 0);
            let t_mask = layout.mask(lt);
            let Some(d) = self
                .divisors
                .iter()
                .find(|d| d.mask & !t_mask == 0 && layout.divides(d.poly.row(layout, 0), lt))
            else {
                return false;
            };
            layout.div_into(lt, d.poly.row(layout, 0), &mut sc.quot);
            let g = d.poly.coeffs[0].gcd(&sc.cur.coeffs[0]);
            let a = d.poly.coeffs[0].div_exact(&g);
            let b = sc.cur.coeffs[0].div_exact(&g);
            let a_is_one = a.is_one();
            merge_shifted(
                layout,
                &mut sc.next,
                (&sc.cur, 1),
                (&d.poly, 1),
                &sc.quot,
                &mut sc.shifted,
                |c| if a_is_one { c.clone() } else { c.mul(&a) },
                |c| c.mul(&b).neg(),
                add_nonzero,
            );
            std::mem::swap(&mut sc.cur, &mut sc.next);
            steps += 1;
            if steps % CONTENT_STRIP_PERIOD == 0 {
                strip_content(&mut sc.cur.coeffs);
            }
        }
        true
    }
}

/// `a + b`, or `None` when the sum cancels.
fn add_nonzero(a: Int, b: Int) -> Option<Int> {
    let c = a.add(b);
    (!c.is_zero()).then_some(c)
}

/// Divides the coefficients by their gcd.
fn strip_content(coeffs: &mut [Int]) {
    let mut g = Int::Small(0);
    for c in coeffs.iter() {
        g = g.gcd(c);
        if g.is_one() {
            return;
        }
    }
    if !g.is_zero() {
        for c in coeffs.iter_mut() {
            *c = c.div_exact(&g);
        }
    }
}

/// The numerator and denominator of `c`.
fn int_parts(c: &Rational) -> (Int, Int) {
    match c.small_parts() {
        Some((num, den)) => (Int::Small(num), Int::from_i128(den as i128)),
        None => (Int::from_big(c.numer()), Int::from_big(c.denom())),
    }
}

/// `p` times the lcm of its denominators, divided by the content: the
/// primitive integer polynomial with the same sign as `p`.
fn primitive_part(layout: &FlatLayout, p: &crate::poly::Poly) -> FlatPoly<Int> {
    let mut den = Int::Small(1);
    for (_, c) in p.iter() {
        let (_, d) = int_parts(c);
        if !d.is_one() {
            den = den.div_exact(&den.gcd(&d)).mul(&d);
        }
    }
    let mut poly = FlatPoly::from_terms(
        layout,
        p.iter().map(|(m, c)| {
            let (num, d) = int_parts(c);
            (m, num.mul(&den.div_exact(&d)))
        }),
    );
    strip_content(&mut poly.coeffs);
    poly
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use symmap_numeric::PrimeIterator;

    use super::*;
    use crate::coeff::{buchberger_core_in, normal_form_in, CPrepared, CoeffField, RationalField};
    use crate::modular::localize_generator;
    use crate::poly::Poly;
    use crate::var::{Var, VarSet};

    fn p(s: &str) -> Poly {
        Poly::parse(s).unwrap()
    }

    fn option_combinations() -> Vec<GroebnerOptions> {
        let mut combos = Vec::new();
        for coprime in [true, false] {
            for chain in [true, false] {
                for sugar in [true, false] {
                    combos.push(GroebnerOptions {
                        use_coprime_criterion: coprime,
                        use_chain_criterion: chain,
                        use_sugar_tiebreak: sugar,
                        multimodular: false,
                        ..GroebnerOptions::default()
                    });
                }
            }
        }
        combos
    }

    /// The orders both engines are compared under: the three named orders
    /// over a permuted variable list, an order listing only some of the
    /// variables (the rest are swept by index), and an elimination order.
    fn orders(names: &[&str]) -> Vec<MonomialOrder> {
        let mut rev: Vec<&str> = names.to_vec();
        rev.reverse();
        let vars = VarSet::from_names(&rev);
        vec![
            MonomialOrder::lex(&rev),
            MonomialOrder::grlex(&rev),
            MonomialOrder::grevlex(&rev),
            MonomialOrder::lex(&names[1..]),
            MonomialOrder::grevlex(&names[..1]),
            MonomialOrder::Elimination(vars, 1),
        ]
    }

    /// Asserts the flat run equals the generic one — basis, completeness
    /// and every counter — on the images of `gens` mod `prime`. `false`
    /// when the prime is unlucky for the generators (nothing to compare).
    fn assert_same_run(
        gens: &[Poly],
        prime: u64,
        order: &MonomialOrder,
        options: &GroebnerOptions,
    ) -> bool {
        let field = Fp64::new(prime);
        let Ok(images) = gens
            .iter()
            .filter(|g| !g.is_zero())
            .map(|g| localize_generator(&field, g, order))
            .collect::<Result<Vec<_>, _>>()
        else {
            return false;
        };
        let flat = buchberger_fp(&field, &images, order, options);
        let generic = buchberger_core_in(&field, &images, order, options);
        let ctx = format!("prime {prime}, order {order:?}, options {options:?}");
        assert_eq!(flat.polys, generic.polys, "{ctx}");
        assert_eq!(flat.complete, generic.complete, "{ctx}");
        assert_eq!(flat.reductions, generic.reductions, "{ctx}");
        assert_eq!(flat.skipped_coprime, generic.skipped_coprime, "{ctx}");
        assert_eq!(flat.skipped_chain, generic.skipped_chain, "{ctx}");
        true
    }

    fn katsura3() -> Vec<Poly> {
        vec![
            p("u0 + 2*u1 + 2*u2 + 2*u3 - 1/3"),
            p("u0^2 + 2*u1^2 + 2*u2^2 + 2*u3^2 - u0"),
            p("2*u0*u1 + 2*u1*u2 + 2*u2*u3 - u1"),
            p("u1^2 + 2*u0*u2 + 2*u1*u3 - u2"),
        ]
    }

    #[test]
    fn layout_rows_compare_like_the_monomial_order() {
        let names = ["fl_a", "fl_b", "fl_c"];
        let monos: Vec<Monomial> = (0..27_u32)
            .map(|k| {
                Monomial::from_pairs(&[
                    (Var::new(names[0]), k / 9),
                    (Var::new(names[1]), k / 3 % 3),
                    (Var::new(names[2]), k % 3),
                ])
            })
            .collect();
        for order in orders(&names) {
            let layout = FlatLayout::spanning(&order, &monos);
            let rows: Vec<Vec<u32>> = monos
                .iter()
                .map(|m| {
                    let mut row = Vec::new();
                    layout.push_monomial(m, &mut row);
                    row
                })
                .collect();
            for (a, ra) in monos.iter().zip(&rows) {
                assert_eq!(&layout.monomial(ra), a, "{order:?}");
                for (b, rb) in monos.iter().zip(&rows) {
                    assert_eq!(layout.cmp(ra, rb), order.cmp(a, b), "{order:?}: {a} vs {b}");
                    assert_eq!(layout.divides(ra, rb), a.divides(b));
                    assert_eq!(layout.coprime(ra, rb), a.is_coprime_with(b));
                    let mut out = vec![0; ra.len()];
                    layout.mul_into(ra, rb, &mut out);
                    assert_eq!(layout.monomial(&out), a.mul(b));
                    layout.lcm_into(ra, rb, &mut out);
                    assert_eq!(layout.monomial(&out), a.lcm(b));
                    assert_eq!(layout.degree(&out), a.lcm(b).total_degree_u64());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "monomial exponent overflow")]
    fn row_products_check_exponents_like_monomials() {
        let order = MonomialOrder::lex(&["fl_a"]);
        let layout = FlatLayout::new(&order, 1);
        let mut out = [0];
        layout.mul_into(&[u32::MAX], &[1], &mut out);
    }

    #[test]
    #[should_panic(expected = "total degree overflows u32")]
    fn row_products_check_the_derived_degree_first() {
        let order = MonomialOrder::grlex(&["fl_a", "fl_b"]);
        let layout = FlatLayout::new(&order, 2);
        let mut out = [0; 3];
        // Both variable columns fit; only their total degree overflows.
        layout.mul_into(&[u32::MAX, u32::MAX, 0], &[1, 0, 1], &mut out);
    }

    #[test]
    fn pair_queue_pops_by_lcm_then_sugar_then_age() {
        let order = MonomialOrder::grevlex(&["fl_a", "fl_b"]);
        let mono = |m: &str| p(m).leading_term(&order).unwrap().0;
        let layout = FlatLayout::spanning(&order, &[mono("fl_a*fl_b")]);
        let lcm = |m: &str| {
            let mut row = Vec::new();
            layout.push_monomial(&mono(m), &mut row);
            row
        };
        for sugar_tiebreak in [false, true] {
            let mut queue = FlatPairQueue {
                heap: Vec::new(),
                lcms: Vec::new(),
                sugar_tiebreak,
            };
            // (i, j, lcm, sugar), pushed in an order that is none of the
            // expected pop orders.
            let pairs = [
                (0, 3, "fl_a*fl_b", 5),
                (1, 2, "fl_a*fl_b", 3),
                (2, 3, "fl_b^2", 9),
                (0, 1, "fl_a^3", 1),
                (1, 3, "fl_a*fl_b", 4),
            ];
            for (i, j, m, sugar) in pairs {
                let at = queue.lcms.len();
                queue.lcms.extend(lcm(m));
                queue.push(
                    &layout,
                    FlatPair {
                        i,
                        j,
                        lcm: at,
                        sugar,
                    },
                );
            }
            let mut popped = Vec::new();
            while let Some(pair) = queue.pop(&layout) {
                popped.push((pair.i, pair.j));
            }
            // fl_b^2 < fl_a*fl_b < fl_a^3 under grevlex; equal lcms by sugar
            // when enabled, else by (j, i).
            let expected = if sugar_tiebreak {
                [(2, 3), (1, 2), (1, 3), (0, 3), (0, 1)]
            } else {
                [(2, 3), (1, 2), (0, 3), (1, 3), (0, 1)]
            };
            assert_eq!(popped, expected, "sugar tiebreak {sugar_tiebreak}");
        }
    }

    #[test]
    fn katsura_images_match_the_generic_engine_on_every_order_and_option() {
        let gens = katsura3();
        let primes: Vec<u64> = PrimeIterator::new().take(2).chain([32003]).collect();
        for order in orders(&["u0", "u1", "u2", "u3"]) {
            for options in option_combinations() {
                for &prime in &primes {
                    assert!(assert_same_run(&gens, prime, &order, &options));
                }
            }
        }
    }

    #[test]
    fn truncated_runs_match_the_generic_engine() {
        let gens = katsura3();
        let order = MonomialOrder::lex(&["u0", "u1", "u2", "u3"]);
        let prime = PrimeIterator::new().next().unwrap();
        for max_iterations in [0, 1, 2, 5, 17, 45, 46] {
            for base in option_combinations() {
                let options = GroebnerOptions {
                    max_iterations,
                    ..base
                };
                assert!(assert_same_run(&gens, prime, &order, &options));
            }
        }
    }

    #[test]
    fn wide_rings_match_the_generic_engine() {
        // A 20-variable ideal, and the mapper's single-generator 19- and
        // 33-variable shapes.
        let names: Vec<String> = (0..33).map(|i| format!("flw_{i}")).collect();
        let x = |i: usize| names[i].as_str();
        let sum = |n: usize| (0..n).map(x).collect::<Vec<_>>().join(" + ");
        let ideal = vec![
            p(&format!("{} - 1/3", sum(20))),
            p(&format!("{}*{} - {}", x(0), x(1), x(19))),
            p(&format!("{}^2 - 2*{}", x(19), x(7))),
        ];
        let single19 = vec![p(&format!("{}*{} + {} - 1/7", sum(19), x(3), x(18)))];
        let single33 = vec![p(&format!("{}^2 - {}/5", sum(33), x(32)))];
        let prime = PrimeIterator::new().next().unwrap();
        for (gens, n) in [(ideal, 20), (single19, 19), (single33, 33)] {
            let vars: Vec<&str> = (0..n).map(x).collect();
            for order in [MonomialOrder::lex(&vars), MonomialOrder::grevlex(&vars)] {
                assert!(assert_same_run(
                    &gens,
                    prime,
                    &order,
                    &GroebnerOptions::default()
                ));
            }
        }
    }

    /// `member` against the rational oracle `normal_form_in(..).is_zero()`.
    fn assert_member_matches_rational(candidate: &[Poly], target: &Poly, order: &MonomialOrder) {
        let layout = FlatLayout::spanning(
            order,
            candidate
                .iter()
                .chain([target])
                .flat_map(|q| q.iter().map(|(m, _)| m)),
        );
        let mut reducer = IntReducer::new(layout, candidate);
        let prepared: Vec<CPrepared<RationalField>> = candidate
            .iter()
            .filter_map(|q| {
                CPrepared::new(CPoly::from_sorted_terms(q.sorted_terms().to_vec()), order)
            })
            .collect();
        let rational = normal_form_in(
            &RationalField,
            CPoly::from_sorted_terms(target.sorted_terms().to_vec()),
            &prepared,
            order,
            None,
        );
        assert_eq!(
            reducer.member(target),
            rational.is_zero(),
            "candidate {candidate:?}, target {target}, order {order:?}"
        );
    }

    #[test]
    fn integer_membership_separates_x_from_x_squared() {
        let order = MonomialOrder::lex(&["x"]);
        for (candidate, target, member) in [
            (vec![p("x")], p("x^2"), true),
            (vec![p("x^2")], p("x"), false),
            (vec![p("x^2")], p("x^3 - 2*x^2"), true),
            (vec![p("x^2")], p("x^3 - 1/2"), false),
        ] {
            let layout = FlatLayout::spanning(
                &order,
                candidate
                    .iter()
                    .chain([&target])
                    .flat_map(|q| q.iter().map(|(m, _)| m)),
            );
            assert_eq!(IntReducer::new(layout, &candidate).member(&target), member);
            assert_member_matches_rational(&candidate, &target, &order);
        }
    }

    #[test]
    fn integer_membership_matches_rational_on_the_katsura_basis() {
        let order = MonomialOrder::lex(&["u0", "u1", "u2", "u3"]);
        let exact = GroebnerOptions {
            multimodular: false,
            ..GroebnerOptions::default()
        };
        let basis = crate::groebner::buchberger(&katsura3(), &order, &exact)
            .polys()
            .to_vec();
        // Members: the generators and a combination of basis elements.
        let combo = basis[0]
            .mul(&p("u1^2 - 3/4*u3"))
            .add(&basis[basis.len() - 1].mul(&p("2/9*u0 + 5")));
        let mut targets: Vec<Poly> = katsura3();
        targets.push(combo.clone());
        // Planted non-members: a member plus a standard monomial, and the
        // basis element perturbed by a constant.
        targets.push(combo.add(&p("u3")));
        targets.push(basis[basis.len() - 1].add(&p("1/11")));
        for t in &targets {
            assert_member_matches_rational(&basis, t, &order);
        }
        let layout = FlatLayout::spanning(
            &order,
            basis
                .iter()
                .chain(&targets)
                .flat_map(|q| q.iter().map(|(m, _)| m)),
        );
        let mut reducer = IntReducer::new(layout, &basis);
        assert!(targets[..5].iter().all(|t| reducer.member(t)));
        assert!(!reducer.member(&targets[5]));
        assert!(!reducer.member(&targets[6]));
        // The basis is a Gröbner basis, so every S-pair reduces.
        for i in 0..basis.len() {
            for j in (i + 1)..basis.len() {
                assert!(reducer.s_pair_reduces(i, j));
            }
        }
    }

    fn small_poly(terms: &[(u32, u32, u32, i64, i64)]) -> Poly {
        Poly::from_terms(terms.iter().map(|&(ea, eb, ec, num, den)| {
            (
                Monomial::from_pairs(&[
                    (Var::new("flp_a"), ea),
                    (Var::new("flp_b"), eb),
                    (Var::new("flp_c"), ec),
                ]),
                Rational::new(num, den),
            )
        }))
    }

    fn term_strategy() -> impl Strategy<Value = (u32, u32, u32, i64, i64)> {
        (0u32..3, 0u32..3, 0u32..3, -4i64..5, 1i64..4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The flat image engine against `buchberger_core_in::<Fp64>` on
        /// random ideals: same basis, completeness and counters under every
        /// order and option combination, mod a production prime and mod a
        /// small prime where coefficients cancel often.
        #[test]
        fn prop_flat_images_match_the_generic_engine(
            gens in proptest::collection::vec(
                proptest::collection::vec(term_strategy(), 1..4),
                1..5,
            ),
            budget in 0usize..8,
        ) {
            // Mostly truncated runs, and the default bound.
            let max_iterations = if budget == 7 { 10_000 } else { budget };
            let gens: Vec<Poly> = gens.iter().map(|t| small_poly(t)).collect();
            let primes = [PrimeIterator::new().next().unwrap(), 7];
            for order in orders(&["flp_a", "flp_b", "flp_c"]) {
                for base in option_combinations() {
                    let options = GroebnerOptions { max_iterations, ..base };
                    for prime in primes {
                        assert_same_run(&gens, prime, &order, &options);
                    }
                }
            }
        }

        /// The flat division loop against `normal_form_in` over ℤ/p on
        /// arbitrary divisor sets (not Gröbner bases, so the result depends
        /// on taking the first dividing divisor at every step), with and
        /// without a skipped divisor.
        #[test]
        fn prop_flat_normal_form_matches_the_generic_division(
            divisors in proptest::collection::vec(
                proptest::collection::vec(term_strategy(), 1..4),
                1..5,
            ),
            target in proptest::collection::vec(term_strategy(), 1..8),
        ) {
            let field = Fp64::new(PrimeIterator::new().next().unwrap());
            let divisors: Vec<Poly> = divisors.iter().map(|t| small_poly(t)).collect();
            let target = small_poly(&target);
            for order in orders(&["flp_a", "flp_b", "flp_c"]) {
                let localize = |q: &Poly| localize_generator(&field, q, &order).ok();
                let Some(images) = divisors
                    .iter()
                    .filter(|q| !q.is_zero())
                    .map(localize)
                    .collect::<Option<Vec<_>>>()
                else {
                    continue;
                };
                let Some(t) = (!target.is_zero()).then(|| localize(&target)).flatten() else {
                    continue;
                };
                let layout = FlatLayout::spanning(
                    &order,
                    images.iter().chain([&t]).flat_map(|q| q.terms().iter().map(|(m, _)| m)),
                );
                let ring = FpRing { field: &field, layout: &layout };
                let flat: Vec<FpElement> = images
                    .iter()
                    .map(|q| {
                        let terms = q.terms().iter().map(|(m, c)| (m, *c));
                        FpElement::new(ring.layout, FlatPoly::from_terms(ring.layout, terms))
                    })
                    .collect();
                let prepared: Vec<CPrepared<Fp64>> = images
                    .iter()
                    .map(|q| CPrepared::new(q.clone(), &order).unwrap())
                    .collect();
                for skip in [None, Some(0)] {
                    let mut scratch = FpScratch::default();
                    let terms = t.terms().iter().map(|(m, c)| (m, *c));
                    scratch.cur = FlatPoly::from_terms(ring.layout, terms);
                    let nf = ring.normal_form(&mut scratch, &flat, skip);
                    let generic = normal_form_in(&field, t.clone(), &prepared, &order, skip);
                    prop_assert_eq!(nf.into_canonical_terms(ring.layout), generic.into_terms());
                }
            }
        }

        /// Integer membership and integer S-pair reduction against the
        /// rational normal form, on arbitrary (not necessarily Gröbner)
        /// candidate sets and targets.
        #[test]
        fn prop_integer_reduction_matches_rational(
            candidate in proptest::collection::vec(
                proptest::collection::vec(term_strategy(), 1..4),
                1..4,
            ),
            target in proptest::collection::vec(term_strategy(), 0..6),
            cofactor in proptest::collection::vec(term_strategy(), 1..3),
        ) {
            let candidate: Vec<Poly> = candidate
                .iter()
                .map(|t| small_poly(t))
                .filter(|q| !q.is_zero())
                .collect();
            prop_assume!(!candidate.is_empty());
            let target = small_poly(&target);
            let member = candidate[0].mul(&small_poly(&cofactor));
            for order in orders(&["flp_a", "flp_b", "flp_c"]) {
                assert_member_matches_rational(&candidate, &target, &order);
                assert_member_matches_rational(&candidate, &member, &order);
                assert_member_matches_rational(&candidate, &member.add(&target), &order);
                let layout = FlatLayout::spanning(
                    &order,
                    candidate.iter().flat_map(|q| q.iter().map(|(m, _)| m)),
                );
                let mut reducer = IntReducer::new(layout, &candidate);
                let field = RationalField;
                let prepared: Vec<CPrepared<RationalField>> = candidate
                    .iter()
                    .map(|q| {
                        CPrepared::new(CPoly::from_sorted_terms(q.sorted_terms().to_vec()), &order)
                            .unwrap()
                    })
                    .collect();
                for i in 0..prepared.len() {
                    for j in (i + 1)..prepared.len() {
                        let (f, g) = (&prepared[i], &prepared[j]);
                        let lcm = f.lm.lcm(&g.lm);
                        let mf = lcm.div(&f.lm).unwrap();
                        let mg = lcm.div(&g.lm).unwrap();
                        let mut s = f.poly.mul_term(&field, &mf, &field.inv(&f.lc));
                        s.sub_scaled(&field, g.poly.terms(), &mg, &field.inv(&g.lc));
                        let rational = normal_form_in(&field, s, &prepared, &order, None);
                        prop_assert_eq!(reducer.s_pair_reduces(i, j), rational.is_zero());
                    }
                }
            }
        }
    }
}
