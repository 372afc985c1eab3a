//! Multivariate polynomials over exact rationals.

// lint:allow-file(D3): eval_f64 and the test that cross-checks it are the
// declared float boundary; all polynomial arithmetic is exact Rational.
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use symmap_numeric::Rational;

use crate::error::AlgebraError;
use crate::monomial::Monomial;
use crate::ordering::MonomialOrder;
use crate::var::{Var, VarSet};

/// A multivariate polynomial with [`Rational`] coefficients.
///
/// Terms are stored as a flat vector sorted **descending** by the canonical
/// (multiplication-invariant) [`Monomial`] order, with no zero coefficients,
/// so equal polynomials have identical storage. Addition and subtraction are
/// linear merges of two sorted term lists, [`Poly::sub_scaled`] (the
/// cancellation step of division) is a single merge against a lazily scaled
/// divisor, and [`Poly::mul`] is a heap-merge over per-term product streams —
/// none of which rebuild a search tree the way the former
/// `BTreeMap<Monomial, Rational>` storage did.
///
/// ```
/// use symmap_algebra::poly::Poly;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = Poly::parse("(x + 1)*(x - 1)")?;
/// assert_eq!(p, Poly::parse("x^2 - 1")?);
/// assert_eq!(p.total_degree(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly {
    /// `(monomial, coefficient)` pairs, canonically sorted (descending), no
    /// zero coefficients, no duplicate monomials.
    terms: Vec<Term>,
}

/// A single `(monomial, coefficient)` term of a polynomial.
pub type Term = (Monomial, Rational);

/// Merges two term streams sorted descending by the canonical monomial
/// order, summing coefficients of equal monomials and dropping zeros.
fn merge_terms(
    a: impl Iterator<Item = Term>,
    b: impl Iterator<Item = Term>,
    capacity: usize,
) -> Vec<Term> {
    let mut out: Vec<Term> = Vec::with_capacity(capacity);
    let mut a = a.peekable();
    let mut b = b.peekable();
    loop {
        let which = match (a.peek(), b.peek()) {
            (None, None) => break,
            (Some(_), None) => Ordering::Greater,
            (None, Some(_)) => Ordering::Less,
            (Some((ma, _)), Some((mb, _))) => ma.cmp(mb),
        };
        match which {
            Ordering::Greater => out.push(a.next().expect("peeked")),
            Ordering::Less => out.push(b.next().expect("peeked")),
            Ordering::Equal => {
                let (m, ca) = a.next().expect("peeked");
                let (_, cb) = b.next().expect("peeked");
                let c = &ca + &cb;
                if !c.is_zero() {
                    out.push((m, c));
                }
            }
        }
    }
    out
}

/// A pending product stream head for the heap-merge multiplication: term `i`
/// of the shorter operand times term `j` of the longer one. Max-heap keyed by
/// the product monomial (ties broken by stream index for determinism).
struct ProductHead {
    mono: Monomial,
    i: usize,
    j: usize,
}

impl PartialEq for ProductHead {
    fn eq(&self, other: &Self) -> bool {
        self.mono == other.mono && self.i == other.i
    }
}
impl Eq for ProductHead {}
impl PartialOrd for ProductHead {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ProductHead {
    fn cmp(&self, other: &Self) -> Ordering {
        self.mono
            .cmp(&other.mono)
            .then_with(|| other.i.cmp(&self.i))
    }
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { terms: Vec::new() }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Self {
        Poly::constant(Rational::one())
    }

    /// A constant polynomial.
    pub fn constant(c: Rational) -> Self {
        if c.is_zero() {
            return Poly::zero();
        }
        Poly {
            terms: vec![(Monomial::one(), c)],
        }
    }

    /// An integer constant polynomial.
    pub fn integer(c: i64) -> Self {
        Poly::constant(Rational::integer(c))
    }

    /// The polynomial consisting of a single variable.
    pub fn var(v: Var) -> Self {
        Poly::from_term(Monomial::var(v, 1), Rational::one())
    }

    /// A single-term polynomial `c * m`.
    pub fn from_term(m: Monomial, c: Rational) -> Self {
        if c.is_zero() {
            return Poly::zero();
        }
        Poly {
            terms: vec![(m, c)],
        }
    }

    /// Builds a polynomial from a list of terms (duplicates accumulate).
    pub fn from_terms<I: IntoIterator<Item = Term>>(iter: I) -> Self {
        let mut terms: Vec<Term> = iter.into_iter().collect();
        // Sort descending by the canonical order, stably, so coefficients of
        // duplicate monomials accumulate in input order.
        terms.sort_by(|(ma, _), (mb, _)| mb.cmp(ma));
        let mut out: Vec<Term> = Vec::with_capacity(terms.len());
        for (m, c) in terms {
            match out.last_mut() {
                Some((lm, lc)) if *lm == m => {
                    *lc += &c;
                    if lc.is_zero() {
                        out.pop();
                    }
                }
                _ => {
                    if !c.is_zero() {
                        out.push((m, c));
                    }
                }
            }
        }
        Poly { terms: out }
    }

    /// Builds a polynomial from a term vector that is **already** strictly
    /// descending in the canonical monomial order with no zero coefficients —
    /// the ring localize/globalize boundary, which maps a sorted term vector
    /// through an order-preserving coordinate change and must not pay (or
    /// depend on) a re-sort.
    pub(crate) fn from_sorted_terms_unchecked(terms: Vec<Term>) -> Self {
        debug_assert!(
            terms
                .windows(2)
                .all(|w| w[0].0.cmp(&w[1].0) == Ordering::Greater),
            "term vector not strictly descending in the canonical order"
        );
        debug_assert!(terms.iter().all(|(_, c)| !c.is_zero()));
        Poly { terms }
    }

    /// The raw term vector, strictly descending in the canonical monomial
    /// order — the zero-copy boundary to the generic coefficient layer
    /// ([`crate::coeff`]), which shares this storage invariant.
    pub(crate) fn sorted_terms(&self) -> &[Term] {
        &self.terms
    }

    /// Parses a textual polynomial such as `"x^2 + 2*x*y - 3/2"`.
    ///
    /// The grammar accepts `+ - * ^ ( )`, integer and rational/decimal
    /// literals, and identifiers; see [`crate::parse`] for details. Products of
    /// sums are expanded, so the result is always in canonical expanded form.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::Parse`] on malformed input and
    /// [`AlgebraError::NotPolynomial`] when the expression contains division
    /// by a non-constant or a function call.
    pub fn parse(input: &str) -> Result<Self, AlgebraError> {
        crate::parse::parse_polynomial(input)
    }

    /// Returns `true` for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns `true` if the polynomial is a constant (including zero).
    pub fn is_constant(&self) -> bool {
        match self.terms.as_slice() {
            [] => true,
            [(m, _)] => m.is_one(),
            _ => false,
        }
    }

    /// Returns the constant value when [`Poly::is_constant`] is true.
    pub fn as_constant(&self) -> Option<Rational> {
        match self.terms.as_slice() {
            [] => Some(Rational::zero()),
            [(m, c)] if m.is_one() => Some(c.clone()),
            _ => None,
        }
    }

    /// Returns `Some(var)` when the polynomial is exactly a single variable
    /// with coefficient one.
    pub fn as_single_variable(&self) -> Option<Var> {
        match self.terms.as_slice() {
            [(m, c)] if c.is_one() && m.total_degree() == 1 => m.iter().next().map(|(v, _)| v),
            _ => None,
        }
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Iterates over `(monomial, coefficient)` pairs in canonical storage
    /// order (descending in the canonical monomial order).
    pub fn iter(&self) -> impl Iterator<Item = (&Monomial, &Rational)> + '_ {
        self.terms.iter().map(|(m, c)| (m, c))
    }

    /// Total degree (max over terms); zero polynomial has degree 0.
    pub fn total_degree(&self) -> u32 {
        self.terms
            .iter()
            .map(|(m, _)| m.total_degree())
            .max()
            .unwrap_or(0)
    }

    /// Degree in a specific variable.
    pub fn degree_in(&self, v: Var) -> u32 {
        self.terms
            .iter()
            .map(|(m, _)| m.degree_of(v))
            .max()
            .unwrap_or(0)
    }

    /// All variables that occur with non-zero exponent.
    ///
    /// The discovery order replays the pre-packing representation exactly
    /// (terms visited ascending in the legacy sparse-sequence monomial
    /// order): it feeds default variable orders in `simplify`/`eliminate`,
    /// so it must stay bit-compatible across the storage change.
    pub fn vars(&self) -> VarSet {
        let mut monos: Vec<&Monomial> = self.terms.iter().map(|(m, _)| m).collect();
        monos.sort_by(|a, b| a.legacy_seq_cmp(b));
        let mut s = VarSet::new();
        for m in monos {
            for (v, _) in m.iter() {
                s.push(v);
            }
        }
        s
    }

    /// Coefficient of a monomial (zero if absent).
    pub fn coefficient(&self, m: &Monomial) -> Rational {
        match self.position_of(m) {
            Ok(i) => self.terms[i].1.clone(),
            Err(_) => Rational::zero(),
        }
    }

    /// Binary search for `m` in the descending-sorted term vector.
    fn position_of(&self, m: &Monomial) -> Result<usize, usize> {
        self.terms.binary_search_by(|(tm, _)| m.cmp(tm))
    }

    /// Adds `c * m` in place.
    pub fn add_term(&mut self, m: &Monomial, c: &Rational) {
        if c.is_zero() {
            return;
        }
        match self.position_of(m) {
            Ok(i) => {
                self.terms[i].1 += c;
                if self.terms[i].1.is_zero() {
                    self.terms.remove(i);
                }
            }
            Err(i) => self.terms.insert(i, (m.clone(), c.clone())),
        }
    }

    /// Polynomial addition (linear merge of the sorted term vectors).
    pub fn add(&self, other: &Poly) -> Poly {
        Poly {
            terms: merge_terms(
                self.terms.iter().cloned(),
                other.terms.iter().cloned(),
                self.terms.len() + other.terms.len(),
            ),
        }
    }

    /// In-place `self -= g * (c * m)` — the cancellation step of multivariate
    /// division, fused into one merge pass: the scaled divisor terms are
    /// produced lazily (the canonical order is multiplication-invariant, so
    /// `g`'s sorted terms stay sorted after scaling by a monomial) and merged
    /// into the existing term vector without building `g.mul_term(m, c)`.
    pub fn sub_scaled(&mut self, g: &Poly, m: &Monomial, c: &Rational) {
        if c.is_zero() || g.is_zero() {
            return;
        }
        let own = std::mem::take(&mut self.terms);
        let capacity = own.len() + g.terms.len();
        let scaled = g.terms.iter().map(|(gm, gc)| (gm.mul(m), -(gc * c)));
        self.terms = merge_terms(own.into_iter(), scaled, capacity);
    }

    /// Polynomial subtraction.
    pub fn sub(&self, other: &Poly) -> Poly {
        Poly {
            terms: merge_terms(
                self.terms.iter().cloned(),
                other.terms.iter().map(|(m, c)| (m.clone(), -c)),
                self.terms.len() + other.terms.len(),
            ),
        }
    }

    /// Negation.
    pub fn neg(&self) -> Poly {
        Poly {
            terms: self.terms.iter().map(|(m, c)| (m.clone(), -c)).collect(),
        }
    }

    /// Multiplication by a scalar.
    pub fn scale(&self, c: &Rational) -> Poly {
        if c.is_zero() {
            return Poly::zero();
        }
        Poly {
            terms: self.terms.iter().map(|(m, k)| (m.clone(), k * c)).collect(),
        }
    }

    /// Multiplication by a single term `c * m`. The canonical order is
    /// multiplication-invariant, so the result is a sorted map — no re-sort.
    pub fn mul_term(&self, m: &Monomial, c: &Rational) -> Poly {
        if c.is_zero() {
            return Poly::zero();
        }
        Poly {
            terms: self
                .terms
                .iter()
                .map(|(mm, k)| (mm.mul(m), k * c))
                .collect(),
        }
    }

    /// Polynomial multiplication: a heap-merge over one product stream per
    /// term of the shorter operand. Each stream (`term_i * other`) is already
    /// sorted because the canonical order is multiplication-invariant, so the
    /// k-way max-heap pops products in order and equal monomials coalesce as
    /// they surface — the output is built sorted, never searched.
    pub fn mul(&self, other: &Poly) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let (short, long) = if self.terms.len() <= other.terms.len() {
            (&self.terms, &other.terms)
        } else {
            (&other.terms, &self.terms)
        };
        let mut heap: std::collections::BinaryHeap<ProductHead> =
            std::collections::BinaryHeap::with_capacity(short.len());
        for (i, (m, _)) in short.iter().enumerate() {
            heap.push(ProductHead {
                mono: m.mul(&long[0].0),
                i,
                j: 0,
            });
        }
        let mut out: Vec<Term> = Vec::with_capacity(short.len() + long.len());
        while let Some(head) = heap.pop() {
            let ProductHead { mono, i, j } = head;
            let mut coeff = &short[i].1 * &long[j].1;
            if j + 1 < long.len() {
                heap.push(ProductHead {
                    mono: short[i].0.mul(&long[j + 1].0),
                    i,
                    j: j + 1,
                });
            }
            // Coalesce every other stream head with the same product monomial.
            while let Some(next) = heap.peek() {
                if next.mono != mono {
                    break;
                }
                let next = heap.pop().expect("peeked");
                coeff += &(&short[next.i].1 * &long[next.j].1);
                if next.j + 1 < long.len() {
                    heap.push(ProductHead {
                        mono: short[next.i].0.mul(&long[next.j + 1].0),
                        i: next.i,
                        j: next.j + 1,
                    });
                }
            }
            if !coeff.is_zero() {
                out.push((mono, coeff));
            }
        }
        Poly { terms: out }
    }

    /// Polynomial multiplication that reports exponent overflow instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::DegreeOverflow`] when some variable's largest
    /// exponent in `self` plus its largest in `other` overflows `u32`, or
    /// when the product's total degree does. Every product monomial is
    /// then bounded, so [`Poly::mul`] cannot panic and
    /// [`Poly::total_degree`] of the result cannot either.
    pub fn try_mul(&self, other: &Poly) -> Result<Poly, AlgebraError> {
        let (a, b) = (self.max_exponents(), other.max_exponents());
        let overflows = a
            .iter()
            .zip(&b)
            .any(|(&ea, &eb)| ea.checked_add(eb).is_none());
        // The product's total degree is the sum of the factors' when both
        // are nonzero: their top-degree parts multiply to a nonzero part.
        let total = self.max_total_degree() + other.max_total_degree();
        if overflows || total > u32::MAX as u64 {
            return Err(AlgebraError::DegreeOverflow);
        }
        Ok(self.mul(other))
    }

    /// The largest total degree over all terms, as `u64` (never panics).
    fn max_total_degree(&self) -> u64 {
        self.terms
            .iter()
            .map(|(m, _)| m.total_degree_u64())
            .max()
            .unwrap_or(0)
    }

    /// The largest exponent of each variable slot over all terms.
    fn max_exponents(&self) -> Vec<u32> {
        let mut max: Vec<u32> = Vec::new();
        for (m, _) in &self.terms {
            let exps = m.exps();
            if exps.len() > max.len() {
                max.resize(exps.len(), 0);
            }
            for (slot, &e) in max.iter_mut().zip(exps) {
                *slot = (*slot).max(e);
            }
        }
        max
    }

    /// Raises the polynomial to a non-negative power.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::ExponentTooLarge`] when `exp > 64` (to guard
    /// against accidental term-count explosions) and
    /// [`AlgebraError::DegreeOverflow`] when the resulting exponents, or the
    /// result's total degree, would overflow `u32`.
    pub fn pow(&self, exp: u32) -> Result<Poly, AlgebraError> {
        if exp > 64 {
            return Err(AlgebraError::ExponentTooLarge(exp as u64));
        }
        // Every per-variable exponent of the result is bounded by the
        // largest single-variable exponent of the base times `exp`; check
        // once here so the repeated squaring below cannot overflow
        // (monomial arithmetic would panic rather than wrap).
        let max_exp = self
            .terms
            .iter()
            .flat_map(|(m, _)| m.iter().map(|(_, e)| e as u64))
            .max()
            .unwrap_or(0);
        // The result's total degree is the base's times `exp` (its
        // top-degree part is the base's raised to `exp`, which is nonzero).
        let total = self.max_total_degree().saturating_mul(exp as u64);
        if max_exp * exp as u64 > u32::MAX as u64 || total > u32::MAX as u64 {
            return Err(AlgebraError::DegreeOverflow);
        }
        let mut result = Poly::one();
        let mut base = self.clone();
        let mut e = exp;
        while e > 0 {
            if e & 1 == 1 {
                result = result.mul(&base);
            }
            e >>= 1;
            if e > 0 {
                base = base.mul(&base);
            }
        }
        Ok(result)
    }

    /// Leading term under a monomial order, or `None` for the zero polynomial.
    pub fn leading_term(&self, order: &MonomialOrder) -> Option<Term> {
        let mut best: Option<&Term> = None;
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

    /// Leading monomial under a monomial order.
    pub fn leading_monomial(&self, order: &MonomialOrder) -> Option<Monomial> {
        self.leading_term(order).map(|(m, _)| m)
    }

    /// Divides every coefficient by the leading coefficient so the leading
    /// coefficient becomes one (no-op for the zero polynomial).
    pub fn monic(&self, order: &MonomialOrder) -> Poly {
        match self.leading_term(order) {
            None => Poly::zero(),
            Some((_, c)) => self.scale(&c.recip().expect("leading coefficient is nonzero")),
        }
    }

    /// Evaluates the polynomial at rational points. Missing variables evaluate
    /// as zero.
    pub fn eval(&self, assignment: &BTreeMap<Var, Rational>) -> Rational {
        let mut acc = Rational::zero();
        for (m, c) in self.iter() {
            let mut term = c.clone();
            for (v, e) in m.iter() {
                let val = assignment.get(&v).cloned().unwrap_or_else(Rational::zero);
                term = &term * &val.pow(e as i32).expect("non-negative exponent");
            }
            acc = &acc + &term;
        }
        acc
    }

    /// Evaluates the polynomial in floating point. Missing variables evaluate
    /// as zero.
    pub fn eval_f64(&self, assignment: &BTreeMap<Var, f64>) -> f64 {
        let mut acc = 0.0;
        for (m, c) in self.iter() {
            let mut term = c.to_f64();
            for (v, e) in m.iter() {
                term *= assignment.get(&v).copied().unwrap_or(0.0).powi(e as i32);
            }
            acc += term;
        }
        acc
    }

    /// Collects the polynomial as a dense univariate coefficient vector in `v`
    /// with polynomial coefficients: index `k` holds the coefficient of `v^k`.
    pub fn coefficients_in(&self, v: Var) -> Vec<Poly> {
        let deg = self.degree_in(v) as usize;
        let mut out = vec![Poly::zero(); deg + 1];
        for (m, c) in self.iter() {
            let k = m.degree_of(v) as usize;
            let reduced = m
                .div(&Monomial::var(v, k as u32))
                .expect("divides by construction");
            out[k].add_term(&reduced, c);
        }
        out
    }

    /// Content: the gcd of all coefficient numerators divided by the lcm of
    /// denominators (positive), or zero for the zero polynomial.
    pub fn content(&self) -> Rational {
        use symmap_numeric::BigInt;
        if self.is_zero() {
            return Rational::zero();
        }
        let mut num_gcd = BigInt::zero();
        let mut den_lcm = BigInt::one();
        for (_, c) in self.iter() {
            num_gcd = num_gcd.gcd(&c.numer());
            den_lcm = den_lcm.lcm(&c.denom());
        }
        Rational::from_bigints(num_gcd, den_lcm)
    }

    /// Maps every coefficient through `f`, dropping terms that become zero.
    ///
    /// The monomials are untouched, so the result reuses the sorted term
    /// vector directly.
    pub fn map_coefficients(&self, mut f: impl FnMut(&Rational) -> Rational) -> Poly {
        Poly {
            terms: self
                .terms
                .iter()
                .filter_map(|(m, c)| {
                    let c = f(c);
                    if c.is_zero() {
                        None
                    } else {
                        Some((m.clone(), c))
                    }
                })
                .collect(),
        }
    }
}

impl fmt::Display for Poly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Display in a readable "descending degree" order.
        let order = MonomialOrder::GrLex(self.vars());
        let mut terms: Vec<(&Monomial, &Rational)> = self.iter().collect();
        terms.sort_by(|a, b| order.cmp(b.0, a.0));
        for (i, (m, c)) in terms.iter().enumerate() {
            let neg = c.is_negative();
            let abs = c.abs();
            if i == 0 {
                if neg {
                    write!(f, "-")?;
                }
            } else if neg {
                write!(f, " - ")?;
            } else {
                write!(f, " + ")?;
            }
            if m.is_one() {
                write!(f, "{abs}")?;
            } else if abs.is_one() {
                write!(f, "{m}")?;
            } else {
                write!(f, "{abs}*{m}")?;
            }
        }
        Ok(())
    }
}

impl std::ops::Add for &Poly {
    type Output = Poly;
    fn add(self, rhs: &Poly) -> Poly {
        Poly::add(self, rhs)
    }
}

impl std::ops::Sub for &Poly {
    type Output = Poly;
    fn sub(self, rhs: &Poly) -> Poly {
        Poly::sub(self, rhs)
    }
}

impl std::ops::Mul for &Poly {
    type Output = Poly;
    fn mul(self, rhs: &Poly) -> Poly {
        Poly::mul(self, rhs)
    }
}

impl std::ops::Neg for &Poly {
    type Output = Poly;
    fn neg(self) -> Poly {
        Poly::neg(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(s: &str) -> Poly {
        Poly::parse(s).unwrap()
    }

    #[test]
    fn construction_and_constants() {
        assert!(Poly::zero().is_zero());
        assert!(Poly::one().is_constant());
        assert_eq!(Poly::integer(5).as_constant(), Some(Rational::integer(5)));
        assert_eq!(Poly::constant(Rational::zero()), Poly::zero());
        assert_eq!(
            Poly::var(Var::new("x")).as_single_variable(),
            Some(Var::new("x"))
        );
        assert_eq!(p("2*x").as_single_variable(), None);
    }

    #[test]
    fn terms_are_canonically_sorted_and_zero_free() {
        let q = p("y^2 + x - x + 3*x*y + 1 - 1");
        // Storage invariant: strictly descending canonical order.
        let monos: Vec<&Monomial> = q.iter().map(|(m, _)| m).collect();
        for w in monos.windows(2) {
            assert_eq!(w[0].cmp(w[1]), std::cmp::Ordering::Greater);
        }
        assert_eq!(q.num_terms(), 2);
        assert_eq!(q, p("3*x*y + y^2"));
    }

    #[test]
    fn addition_cancels() {
        let a = p("x^2 + y");
        let b = p("-x^2 + y");
        assert_eq!(a.add(&b), p("2*y"));
        assert_eq!(a.sub(&a), Poly::zero());
    }

    #[test]
    fn sub_scaled_matches_sub_of_mul_term() {
        let mut a = p("x^3 + x^2*y^2 + y^3");
        let g = p("x*y - 1");
        let m = Monomial::var(Var::new("x"), 1);
        let c = Rational::new(3, 2);
        a.sub_scaled(&g, &m, &c);
        assert_eq!(a, p("x^3 + x^2*y^2 + y^3").sub(&g.mul_term(&m, &c)));
        // A zero scale is a no-op.
        let before = a.clone();
        a.sub_scaled(&g, &m, &Rational::zero());
        assert_eq!(a, before);
    }

    #[test]
    fn multiplication_expands() {
        assert_eq!(p("x + 1").mul(&p("x - 1")), p("x^2 - 1"));
        assert_eq!(p("x + y").mul(&p("x + y")), p("x^2 + 2*x*y + y^2"));
        assert_eq!(p("0").mul(&p("x + y")), Poly::zero());
    }

    #[test]
    fn pow() {
        assert_eq!(p("x + 1").pow(3).unwrap(), p("x^3 + 3*x^2 + 3*x + 1"));
        assert_eq!(p("x").pow(0).unwrap(), Poly::one());
        assert!(p("x").pow(1000).is_err());
    }

    #[test]
    fn pow_surfaces_degree_overflow() {
        let big = Poly::from_term(Monomial::var(Var::new("x"), u32::MAX / 2), Rational::one());
        assert_eq!(big.pow(2).map(|_| ()), Ok(()));
        let bigger = Poly::from_term(Monomial::var(Var::new("x"), u32::MAX), Rational::one());
        assert_eq!(bigger.pow(2), Err(AlgebraError::DegreeOverflow));
        // The guard bounds the total degree too: three variables at 2^30
        // squared is a total degree of ~6.4e9, although every resulting
        // exponent is 2^31, which fits u32.
        let wide = Poly::from_term(
            Monomial::from_pairs(&[
                (Var::new("x"), 1 << 30),
                (Var::new("y"), 1 << 30),
                (Var::new("z"), 1 << 30),
            ]),
            Rational::one(),
        );
        assert_eq!(wide.pow(2), Err(AlgebraError::DegreeOverflow));
        // Just under the bound still squares: total degree 2^32 − 2.
        let pair = Poly::from_term(
            Monomial::from_pairs(&[(Var::new("x"), 1 << 30), (Var::new("y"), (1 << 30) - 1)]),
            Rational::one(),
        );
        assert_eq!(pair.pow(2).unwrap().total_degree(), u32::MAX - 1);
    }

    #[test]
    fn degrees_and_vars() {
        let q = p("x^3*y + z - 7");
        assert_eq!(q.total_degree(), 4);
        assert_eq!(q.degree_in(Var::new("x")), 3);
        assert_eq!(q.degree_in(Var::new("w")), 0);
        assert_eq!(q.vars().len(), 3);
        assert_eq!(q.num_terms(), 3);
    }

    #[test]
    fn leading_term_depends_on_order() {
        let q = p("x + y^3");
        let lex = MonomialOrder::lex(&["x", "y"]);
        let grlex = MonomialOrder::grlex(&["x", "y"]);
        assert_eq!(q.leading_monomial(&lex).unwrap().to_string(), "x");
        assert_eq!(q.leading_monomial(&grlex).unwrap().to_string(), "y^3");
        assert!(Poly::zero().leading_term(&lex).is_none());
    }

    #[test]
    fn monic_normalizes_leading_coefficient() {
        let q = p("3*x^2 + 6*y");
        let lex = MonomialOrder::lex(&["x", "y"]);
        let m = q.monic(&lex);
        assert_eq!(m, p("x^2 + 2*y"));
        assert_eq!(Poly::zero().monic(&lex), Poly::zero());
    }

    #[test]
    fn eval_exact_and_float() {
        let q = p("x^2*y - 1/2");
        let mut a = BTreeMap::new();
        a.insert(Var::new("x"), Rational::integer(3));
        a.insert(Var::new("y"), Rational::new(1, 3));
        assert_eq!(q.eval(&a), Rational::new(5, 2));
        let mut af = BTreeMap::new();
        af.insert(Var::new("x"), 3.0);
        af.insert(Var::new("y"), 1.0 / 3.0);
        assert!((q.eval_f64(&af) - 2.5).abs() < 1e-12);
        // Missing variable treated as zero.
        assert_eq!(p("x + 5").eval(&BTreeMap::new()), Rational::integer(5));
    }

    #[test]
    fn coefficients_in_variable() {
        let q = p("x^2*y + x^2 + 2*x + y^2");
        let cs = q.coefficients_in(Var::new("x"));
        assert_eq!(cs.len(), 3);
        assert_eq!(cs[0], p("y^2"));
        assert_eq!(cs[1], p("2"));
        assert_eq!(cs[2], p("y + 1"));
    }

    #[test]
    fn content() {
        assert_eq!(p("6*x + 9*y").content(), Rational::integer(3));
        assert_eq!(p("x/2 + 3/4").content(), Rational::new(1, 4));
        assert_eq!(Poly::zero().content(), Rational::zero());
    }

    #[test]
    fn display_round_trips() {
        for s in ["x^2 - 1", "x^2 + 2*x*y + y^2", "-x + 1/2", "0", "3"] {
            let q = p(s);
            assert_eq!(Poly::parse(&q.to_string()).unwrap(), q);
        }
        assert_eq!(p("y + x^2").to_string(), "x^2 + y");
    }

    #[test]
    fn map_coefficients() {
        let doubled = p("x + y").map_coefficients(|c| c * &Rational::integer(2));
        assert_eq!(doubled, p("2*x + 2*y"));
        let zeroed = p("x + y").map_coefficients(|_| Rational::zero());
        assert!(zeroed.is_zero());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_ring_axioms(
            a in -5_i64..5, b in -5_i64..5, c in -5_i64..5,
            d in -5_i64..5, e in -5_i64..5, f in -5_i64..5,
        ) {
            // Build small random polynomials in x, y.
            let p1 = Poly::from_terms(vec![
                (Monomial::var(Var::new("x"), 1), Rational::integer(a)),
                (Monomial::var(Var::new("y"), 2), Rational::integer(b)),
                (Monomial::one(), Rational::integer(c)),
            ]);
            let p2 = Poly::from_terms(vec![
                (Monomial::var(Var::new("x"), 2), Rational::integer(d)),
                (Monomial::var(Var::new("y"), 1), Rational::integer(e)),
                (Monomial::one(), Rational::integer(f)),
            ]);
            prop_assert_eq!(p1.add(&p2), p2.add(&p1));
            prop_assert_eq!(p1.mul(&p2), p2.mul(&p1));
            prop_assert_eq!(p1.mul(&p2.add(&p1)), p1.mul(&p2).add(&p1.mul(&p1)));
            prop_assert_eq!(p1.sub(&p1), Poly::zero());
        }

        #[test]
        fn prop_eval_homomorphism(a in -4_i64..4, b in -4_i64..4, x in -3_i64..3, y in -3_i64..3) {
            let p1 = Poly::parse(&format!("{a}*x^2 + y")).unwrap();
            let p2 = Poly::parse(&format!("x + {b}*y")).unwrap();
            let mut asn = BTreeMap::new();
            asn.insert(Var::new("x"), Rational::integer(x));
            asn.insert(Var::new("y"), Rational::integer(y));
            prop_assert_eq!(p1.add(&p2).eval(&asn), &p1.eval(&asn) + &p2.eval(&asn));
            prop_assert_eq!(p1.mul(&p2).eval(&asn), &p1.eval(&asn) * &p2.eval(&asn));
        }
    }
}
