//! Packed power products (monomials) of symbolic variables.
//!
//! A monomial stores its exponents as a **dense vector indexed by variable
//! index** (the interner hands out dense indices), trimmed of trailing zeros,
//! with the total degree cached. Vectors of up to [`INLINE_VARS`] entries
//! live inline in the monomial itself; only wider monomials spill to the
//! heap. Divisibility, lcm/gcd and the monomial-order comparisons in
//! [`crate::ordering`] are plain slice loops over these vectors — no tree
//! walks, no per-comparison allocation, and `degree_of` is a constant-time
//! index lookup.
//!
//! All exponent arithmetic is checked: the `try_*` constructors surface
//! [`AlgebraError::DegreeOverflow`], and the infallible wrappers panic
//! instead of silently wrapping in release builds (the former representation
//! accumulated with unchecked `+=`).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::AlgebraError;
use crate::var::{Var, VarSet};

/// Number of exponent slots stored inline before spilling to the heap.
///
/// Eight covers every workload in the mapper corpus (the paper's examples use
/// 2–7 variables); the constant only bounds *inline* storage, not the number
/// of variables.
///
/// Storage is dense by variable index, so what must fit inline is the
/// *highest index* occurring in the monomial, not the variable count. In
/// **global** coordinates that index is the interner index — a monomial in
/// one late-interned variable of index `k` stores `k + 1` slots. The algebra
/// hot paths no longer run in global coordinates, though: Gröbner/normal-form
/// computations rewrite their inputs through a [`crate::ring::Ring`] into
/// dense **ring-local** indices `0..n` at entry, where `n` is the ideal's
/// variable count (2–7 for the paper's workloads — always inline), and only
/// the one-pass localize/globalize boundary ever touches the wide global
/// vectors. A process that interns thousands of names before doing algebra
/// pays a boundary scan proportional to the interner width once per ideal,
/// not per operation — see `DESIGN.md` §4 and the `wide_interner` bench.
pub const INLINE_VARS: usize = 8;

/// Exponent storage: a fixed inline array or a heap spill for wide monomials.
#[derive(Clone)]
enum Exps {
    /// Exponents `arr[..len]`; slots at `len..` are zero.
    Inline([u32; INLINE_VARS]),
    /// Heap storage, exactly `len` entries.
    Heap(Box<[u32]>),
}

/// A power product `x1^e1 * x2^e2 * ...` with non-negative integer exponents.
///
/// Stored as a packed exponent vector over dense variable indices with no
/// trailing zeros, so the empty vector is the constant `1`; the total degree
/// is cached at construction.
///
/// `Ord` is the *canonical storage order* used to keep [`crate::poly::Poly`]
/// term vectors sorted: exponent vectors compare lexicographically by
/// variable index (implicit zeros past the end). This order is total and
/// multiplication-invariant (`a < b` implies `a*c < b*c`), which is what
/// merge-based polynomial arithmetic needs; it is **not** one of the
/// [`crate::ordering::MonomialOrder`]s used for Gröbner reduction.
///
/// ```
/// use symmap_algebra::monomial::Monomial;
/// use symmap_algebra::var::Var;
///
/// let m = Monomial::from_pairs(&[(Var::new("x"), 2), (Var::new("y"), 1)]);
/// assert_eq!(m.total_degree(), 3);
/// assert_eq!(m.degree_of(Var::new("x")), 2);
/// ```
#[derive(Clone)]
pub struct Monomial {
    /// Number of significant exponent entries (last entry is non-zero).
    len: u32,
    /// Cached total degree, wide enough that the cache itself cannot wrap.
    degree: u64,
    exps: Exps,
}

impl Monomial {
    /// Builds from a dense exponent vector (index = variable index).
    fn from_dense(mut exps: Vec<u32>) -> Self {
        while exps.last() == Some(&0) {
            exps.pop();
        }
        let degree = exps.iter().map(|&e| e as u64).sum();
        let len = exps.len() as u32;
        if exps.len() <= INLINE_VARS {
            let mut arr = [0u32; INLINE_VARS];
            arr[..exps.len()].copy_from_slice(&exps);
            Monomial {
                len,
                degree,
                exps: Exps::Inline(arr),
            }
        } else {
            Monomial {
                len,
                degree,
                exps: Exps::Heap(exps.into_boxed_slice()),
            }
        }
    }

    /// Builds from `width` exponents produced by `get(index)`, writing
    /// directly into the inline array when the result fits — the binary
    /// operations on the division/Gröbner hot path go through here so that
    /// the common ≤ [`INLINE_VARS`]-wide case allocates nothing at all.
    /// Also the localization entry point of [`crate::ring::Ring`].
    pub(crate) fn from_fn(width: usize, get: impl Fn(usize) -> u32) -> Self {
        if width <= INLINE_VARS {
            let mut arr = [0u32; INLINE_VARS];
            let mut degree = 0u64;
            let mut len = 0usize;
            for (i, slot) in arr.iter_mut().enumerate().take(width) {
                let e = get(i);
                *slot = e;
                degree += e as u64;
                if e != 0 {
                    len = i + 1;
                }
            }
            Monomial {
                len: len as u32,
                degree,
                exps: Exps::Inline(arr),
            }
        } else {
            Monomial::from_dense((0..width).map(get).collect())
        }
    }

    /// Builds from a dense exponent vector whose trailing entry is already
    /// non-zero and whose total degree the caller knows — the globalization
    /// path of [`crate::ring::Ring`], where re-deriving either would cost an
    /// `O(width)` pass over a mostly-zero wide vector.
    pub(crate) fn from_dense_with_degree(exps: Vec<u32>, degree: u64) -> Self {
        debug_assert_ne!(exps.last().copied(), Some(0), "trailing zero not trimmed");
        debug_assert_eq!(exps.iter().map(|&e| e as u64).sum::<u64>(), degree);
        let len = exps.len() as u32;
        if exps.len() <= INLINE_VARS {
            let mut arr = [0u32; INLINE_VARS];
            arr[..exps.len()].copy_from_slice(&exps);
            Monomial {
                len,
                degree,
                exps: Exps::Inline(arr),
            }
        } else {
            Monomial {
                len,
                degree,
                exps: Exps::Heap(exps.into_boxed_slice()),
            }
        }
    }

    /// Appends the indices of all non-zero exponents to `out` (the variable
    /// support, ascending). Chunked so that the all-zero stretches of a wide
    /// global-coordinate vector are rejected by vectorizable OR-reductions —
    /// this is the ring-spanning scan, the only step of a localized
    /// computation that still walks the full global width, so it is written
    /// to move at memory speed: fixed-size 64-slot OR-folds (which LLVM
    /// turns into SIMD loads) inside 256-slot rejection blocks, descending
    /// to per-element work only where a block holds support.
    pub(crate) fn support_into(&self, out: &mut Vec<u32>) {
        const LANE: usize = 64;
        const BLOCK: usize = 4 * LANE;
        let exps = self.exps();
        let mut base = 0usize;
        for block in exps.chunks(BLOCK) {
            let mut any = 0u32;
            let lanes = block.chunks_exact(LANE);
            let tail = lanes.remainder();
            for lane in lanes {
                // Fixed-length array fold: no trip-count check per element,
                // so this compiles to straight-line SIMD ORs.
                let lane: &[u32; LANE] = lane.try_into().expect("exact chunk");
                any |= lane.iter().fold(0u32, |acc, &e| acc | e);
            }
            any |= tail.iter().fold(0u32, |acc, &e| acc | e);
            if any != 0 {
                for (j, &e) in block.iter().enumerate() {
                    if e != 0 {
                        out.push((base + j) as u32);
                    }
                }
            }
            base += BLOCK;
        }
    }

    /// The packed exponent slice (one entry per variable index, trailing
    /// zeros trimmed).
    pub(crate) fn exps(&self) -> &[u32] {
        match &self.exps {
            Exps::Inline(arr) => &arr[..self.len as usize],
            Exps::Heap(v) => v,
        }
    }

    /// The constant monomial `1`.
    pub fn one() -> Self {
        Monomial {
            len: 0,
            degree: 0,
            exps: Exps::Inline([0; INLINE_VARS]),
        }
    }

    /// A single variable raised to a power (degenerate to `1` when `exp == 0`).
    pub fn var(v: Var, exp: u32) -> Self {
        if exp == 0 {
            return Monomial::one();
        }
        let idx = v.index() as usize;
        Monomial::from_fn(idx + 1, |i| if i == idx { exp } else { 0 })
    }

    /// Builds a monomial from `(variable, exponent)` pairs; zero exponents are
    /// dropped and repeated variables accumulate.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::DegreeOverflow`] when accumulation overflows a
    /// `u32` exponent.
    pub fn try_from_pairs(pairs: &[(Var, u32)]) -> Result<Self, AlgebraError> {
        let width = pairs
            .iter()
            .filter(|&&(_, e)| e > 0)
            .map(|&(v, _)| v.index() as usize + 1)
            .max()
            .unwrap_or(0);
        let mut exps = vec![0u32; width];
        for &(v, e) in pairs {
            if e > 0 {
                let slot = &mut exps[v.index() as usize];
                *slot = slot.checked_add(e).ok_or(AlgebraError::DegreeOverflow)?;
            }
        }
        Ok(Monomial::from_dense(exps))
    }

    /// Builds a monomial from `(variable, exponent)` pairs; zero exponents are
    /// dropped and repeated variables accumulate.
    ///
    /// # Panics
    ///
    /// Panics when accumulation overflows a `u32` exponent; use
    /// [`Monomial::try_from_pairs`] to handle overflow as an error.
    pub fn from_pairs(pairs: &[(Var, u32)]) -> Self {
        Monomial::try_from_pairs(pairs).expect("monomial exponent overflow")
    }

    /// Returns `true` for the constant monomial.
    pub fn is_one(&self) -> bool {
        self.len == 0
    }

    /// Total degree (sum of all exponents), cached at construction.
    ///
    /// # Panics
    ///
    /// Panics if the (64-bit cached) total degree exceeds `u32::MAX` — only
    /// reachable through monomials whose individual exponents already sum
    /// past `u32`, which the checked constructors make explicit rather than
    /// wrapping.
    pub fn total_degree(&self) -> u32 {
        u32::try_from(self.degree).expect("total degree overflows u32")
    }

    /// Total degree as `u64` (never truncates; used by the graded orders).
    pub fn total_degree_u64(&self) -> u64 {
        self.degree
    }

    /// Exponent of a specific variable (0 when absent). Constant time.
    pub fn degree_of(&self, v: Var) -> u32 {
        self.exps().get(v.index() as usize).copied().unwrap_or(0)
    }

    /// The set of variables with a non-zero exponent, in interner order.
    pub fn vars(&self) -> VarSet {
        self.iter().map(|(v, _)| v).collect()
    }

    /// Iterates over `(variable, exponent)` pairs in ascending variable
    /// index, skipping zero exponents.
    pub fn iter(&self) -> impl Iterator<Item = (Var, u32)> + '_ {
        self.exps()
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e > 0)
            .map(|(i, &e)| (Var::from_index(i as u32), e))
    }

    /// Product of two monomials (exponents add, checked).
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::DegreeOverflow`] when any exponent sum
    /// overflows `u32`.
    pub fn try_mul(&self, other: &Monomial) -> Result<Monomial, AlgebraError> {
        let (a, b) = (self.exps(), other.exps());
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        // Validate first so the allocation-free builder below can use plain
        // (now provably non-wrapping) additions.
        for (&el, &es) in long.iter().zip(short) {
            el.checked_add(es).ok_or(AlgebraError::DegreeOverflow)?;
        }
        Ok(Monomial::from_fn(long.len(), |i| {
            long[i] + short.get(i).copied().unwrap_or(0)
        }))
    }

    /// Product of two monomials (exponents add).
    ///
    /// # Panics
    ///
    /// Panics when an exponent sum overflows `u32`; use
    /// [`Monomial::try_mul`] to handle overflow as an error.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        self.try_mul(other).expect("monomial exponent overflow")
    }

    /// Returns `true` when `self` divides `other` (component-wise `<=`).
    pub fn divides(&self, other: &Monomial) -> bool {
        let (a, b) = (self.exps(), other.exps());
        a.len() <= b.len() && a.iter().zip(b).all(|(&ea, &eb)| ea <= eb)
    }

    /// Quotient `self / other`, or `None` when `other` does not divide `self`.
    pub fn div(&self, other: &Monomial) -> Option<Monomial> {
        if !other.divides(self) {
            return None;
        }
        let (a, b) = (self.exps(), other.exps());
        Some(Monomial::from_fn(a.len(), |i| {
            a[i] - b.get(i).copied().unwrap_or(0)
        }))
    }

    /// Least common multiple (component-wise max).
    pub fn lcm(&self, other: &Monomial) -> Monomial {
        let (a, b) = (self.exps(), other.exps());
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        Monomial::from_fn(long.len(), |i| {
            long[i].max(short.get(i).copied().unwrap_or(0))
        })
    }

    /// Greatest common divisor (component-wise min).
    pub fn gcd(&self, other: &Monomial) -> Monomial {
        let (a, b) = (self.exps(), other.exps());
        let width = a.len().min(b.len());
        Monomial::from_fn(width, |i| a[i].min(b[i]))
    }

    /// Returns `true` when the two monomials share no variable — Buchberger's
    /// first criterion skips S-polynomials of such pairs.
    pub fn is_coprime_with(&self, other: &Monomial) -> bool {
        self.exps()
            .iter()
            .zip(other.exps())
            .all(|(&ea, &eb)| ea == 0 || eb == 0)
    }

    /// A 64-bit fingerprint of the variable support: bit `index % 64` is set
    /// for every variable with a non-zero exponent.
    ///
    /// If `self.divides(other)` then `self.var_mask() & !other.var_mask()`
    /// is zero; the converse can fail on bit collisions, so the mask is a
    /// cheap *necessary* condition used to prefilter divisibility tests in
    /// the division hot path.
    pub fn var_mask(&self) -> u64 {
        self.exps()
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e > 0)
            .fold(0u64, |m, (i, _)| m | 1u64 << (i % 64))
    }

    /// Raises the monomial to a power (exponents multiply, checked).
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::DegreeOverflow`] when any product overflows
    /// `u32`.
    pub fn try_pow(&self, k: u32) -> Result<Monomial, AlgebraError> {
        if k == 0 {
            return Ok(Monomial::one());
        }
        let exps = self.exps();
        for &e in exps {
            e.checked_mul(k).ok_or(AlgebraError::DegreeOverflow)?;
        }
        Ok(Monomial::from_fn(exps.len(), |i| exps[i] * k))
    }

    /// Raises the monomial to a power.
    ///
    /// # Panics
    ///
    /// Panics when an exponent product overflows `u32`; use
    /// [`Monomial::try_pow`] to handle overflow as an error.
    pub fn pow(&self, k: u32) -> Monomial {
        self.try_pow(k).expect("monomial exponent overflow")
    }

    /// The ordering the pre-packing representation (`BTreeMap<Var, u32>`
    /// keys) derived: sparse `(variable, exponent)` sequences compared
    /// lexicographically, shorter prefix first. [`crate::poly::Poly::vars`]
    /// replays it so variable discovery order — which feeds default monomial
    /// orders in `simplify`/`eliminate` — is bit-compatible with the old
    /// representation.
    pub(crate) fn legacy_seq_cmp(&self, other: &Monomial) -> Ordering {
        let mut a = self.iter();
        let mut b = other.iter();
        loop {
            match (a.next(), b.next()) {
                (None, None) => return Ordering::Equal,
                (None, Some(_)) => return Ordering::Less,
                (Some(_), None) => return Ordering::Greater,
                (Some(pa), Some(pb)) => match pa.cmp(&pb) {
                    Ordering::Equal => {}
                    o => return o,
                },
            }
        }
    }
}

impl Default for Monomial {
    fn default() -> Self {
        Monomial::one()
    }
}

impl PartialEq for Monomial {
    fn eq(&self, other: &Self) -> bool {
        // Trailing zeros are trimmed, so slice equality is value equality.
        self.exps() == other.exps()
    }
}

impl Eq for Monomial {}

impl Hash for Monomial {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash the logical slice so inline and heap storage of the same
        // value (impossible by construction, but cheap to be safe) agree.
        self.exps().hash(state);
    }
}

impl PartialOrd for Monomial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Monomial {
    /// The canonical storage order (see the type docs): dense exponent
    /// vectors compared lexicographically with implicit zeros past the end.
    fn cmp(&self, other: &Self) -> Ordering {
        let (a, b) = (self.exps(), other.exps());
        let common = a.len().min(b.len());
        match a[..common].cmp(&b[..common]) {
            Ordering::Equal => {
                // The longer vector ends in a non-zero exponent, so it is
                // greater at the first index the shorter one lacks.
                a.len().cmp(&b.len())
            }
            o => o,
        }
    }
}

impl fmt::Debug for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Monomial({self})")
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_one() {
            return write!(f, "1");
        }
        let mut first = true;
        for (v, e) in self.iter() {
            if !first {
                write!(f, "*")?;
            }
            first = false;
            if e == 1 {
                write!(f, "{v}")?;
            } else {
                write!(f, "{v}^{e}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn x() -> Var {
        Var::new("x")
    }
    fn y() -> Var {
        Var::new("y")
    }
    fn z() -> Var {
        Var::new("z")
    }

    #[test]
    fn construction_drops_zero_exponents() {
        let m = Monomial::from_pairs(&[(x(), 0), (y(), 2)]);
        assert_eq!(m.degree_of(x()), 0);
        assert_eq!(m.degree_of(y()), 2);
        assert_eq!(m.iter().count(), 1);
        assert!(Monomial::var(x(), 0).is_one());
    }

    #[test]
    fn multiplication_adds_exponents() {
        let a = Monomial::from_pairs(&[(x(), 1), (y(), 2)]);
        let b = Monomial::from_pairs(&[(x(), 3), (z(), 1)]);
        let p = a.mul(&b);
        assert_eq!(p.degree_of(x()), 4);
        assert_eq!(p.degree_of(y()), 2);
        assert_eq!(p.degree_of(z()), 1);
        assert_eq!(p.total_degree(), 7);
    }

    #[test]
    fn division() {
        let a = Monomial::from_pairs(&[(x(), 3), (y(), 2)]);
        let b = Monomial::from_pairs(&[(x(), 1), (y(), 2)]);
        assert!(b.divides(&a));
        assert!(!a.divides(&b));
        let q = a.div(&b).unwrap();
        assert_eq!(q, Monomial::var(x(), 2));
        assert!(b.div(&a).is_none());
        assert_eq!(a.div(&a).unwrap(), Monomial::one());
    }

    #[test]
    fn lcm_gcd() {
        let a = Monomial::from_pairs(&[(x(), 3), (y(), 1)]);
        let b = Monomial::from_pairs(&[(x(), 1), (z(), 2)]);
        let l = a.lcm(&b);
        assert_eq!(l.degree_of(x()), 3);
        assert_eq!(l.degree_of(y()), 1);
        assert_eq!(l.degree_of(z()), 2);
        let g = a.gcd(&b);
        assert_eq!(g, Monomial::var(x(), 1));
    }

    #[test]
    fn coprimality() {
        let a = Monomial::from_pairs(&[(x(), 2)]);
        let b = Monomial::from_pairs(&[(y(), 3)]);
        assert!(a.is_coprime_with(&b));
        assert!(!a.is_coprime_with(&a));
        assert!(Monomial::one().is_coprime_with(&a));
    }

    #[test]
    fn display() {
        assert_eq!(Monomial::one().to_string(), "1");
        let m = Monomial::from_pairs(&[(x(), 2), (y(), 1)]);
        assert_eq!(m.to_string(), "x^2*y");
    }

    #[test]
    fn pow() {
        let m = Monomial::from_pairs(&[(x(), 2), (y(), 1)]);
        assert_eq!(m.pow(3).degree_of(x()), 6);
        assert_eq!(m.pow(0), Monomial::one());
    }

    #[test]
    fn var_mask_is_a_divisibility_prefilter() {
        assert_eq!(Monomial::one().var_mask(), 0);
        let a = Monomial::from_pairs(&[(x(), 1)]);
        let b = Monomial::from_pairs(&[(x(), 2), (y(), 1)]);
        // a | b, so a's mask bits are a subset of b's.
        assert_eq!(a.var_mask() & !b.var_mask(), 0);
        // Exponents do not affect the mask, only the support does.
        assert_eq!(a.var_mask(), a.pow(5).var_mask());
    }

    #[test]
    fn checked_exponent_arithmetic_surfaces_degree_overflow() {
        // Accumulation in try_from_pairs.
        assert_eq!(
            Monomial::try_from_pairs(&[(x(), u32::MAX), (x(), 1)]),
            Err(AlgebraError::DegreeOverflow)
        );
        // Product of exponents at the same variable.
        let big = Monomial::var(x(), u32::MAX);
        assert_eq!(
            big.try_mul(&Monomial::var(x(), 1)),
            Err(AlgebraError::DegreeOverflow)
        );
        // Power.
        assert_eq!(
            Monomial::var(x(), 1 << 31).try_pow(2),
            Err(AlgebraError::DegreeOverflow)
        );
        // The boundary itself is fine.
        assert!(Monomial::var(x(), u32::MAX - 1)
            .try_mul(&Monomial::var(x(), 1))
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "monomial exponent overflow")]
    fn infallible_mul_panics_instead_of_wrapping() {
        let big = Monomial::var(x(), u32::MAX);
        let _ = big.mul(&Monomial::var(x(), 1));
    }

    #[test]
    fn wide_monomials_spill_to_the_heap_transparently() {
        // More than INLINE_VARS distinct variables forces heap storage; the
        // behavior must be identical.
        let pairs: Vec<(Var, u32)> = (0..INLINE_VARS as u32 + 4)
            .map(|i| (Var::new(&format!("wide_spill_v{i}")), i + 1))
            .collect();
        let m = Monomial::from_pairs(&pairs);
        assert_eq!(m.iter().count(), INLINE_VARS + 4);
        for &(v, e) in &pairs {
            assert_eq!(m.degree_of(v), e);
        }
        let sq = m.mul(&m);
        for &(v, e) in &pairs {
            assert_eq!(sq.degree_of(v), 2 * e);
        }
        assert!(m.divides(&sq));
        assert_eq!(sq.div(&m).unwrap(), m);
        assert_eq!(
            m.total_degree_u64(),
            pairs.iter().map(|&(_, e)| e as u64).sum::<u64>()
        );
    }

    #[test]
    fn canonical_order_is_total_and_multiplicative() {
        let monos = [
            Monomial::one(),
            Monomial::var(x(), 1),
            Monomial::var(y(), 2),
            Monomial::from_pairs(&[(x(), 1), (y(), 1)]),
            Monomial::from_pairs(&[(x(), 3), (z(), 1)]),
            Monomial::var(z(), 4),
        ];
        for a in &monos {
            for b in &monos {
                assert_eq!(a.cmp(b), b.cmp(a).reverse());
                if a.cmp(b) == Ordering::Equal {
                    assert_eq!(a, b);
                }
                for c in &monos {
                    if a.cmp(b) == Ordering::Greater {
                        assert_eq!(a.mul(c).cmp(&b.mul(c)), Ordering::Greater);
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_mul_then_div_round_trips(e1 in 0_u32..6, e2 in 0_u32..6, e3 in 0_u32..6, e4 in 0_u32..6) {
            let a = Monomial::from_pairs(&[(x(), e1), (y(), e2)]);
            let b = Monomial::from_pairs(&[(x(), e3), (y(), e4)]);
            let p = a.mul(&b);
            prop_assert_eq!(p.div(&b).unwrap(), a);
            prop_assert!(b.divides(&p));
        }

        #[test]
        fn prop_lcm_divisible_by_both(e1 in 0_u32..6, e2 in 0_u32..6, e3 in 0_u32..6, e4 in 0_u32..6) {
            let a = Monomial::from_pairs(&[(x(), e1), (y(), e2)]);
            let b = Monomial::from_pairs(&[(x(), e3), (y(), e4)]);
            let l = a.lcm(&b);
            prop_assert!(a.divides(&l) && b.divides(&l));
            let g = a.gcd(&b);
            prop_assert!(g.divides(&a) && g.divides(&b));
        }
    }
}
