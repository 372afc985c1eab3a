//! Invariant fingerprints over polynomials: cheap, deterministic summaries
//! that let a caller reject "these two polynomials cannot be equal" or
//! "these two polynomials share no variable" in O(support) integer work,
//! without touching a single [`Rational`].
//!
//! The mapper's branch-and-bound prices library subsets through the Gröbner
//! cache, but before any algebra runs it must *select* candidates from the
//! library — and on a thousand-element library even the selection scan
//! (`Poly::vars` allocates and sorts per element) dominates. A
//! [`PolyFingerprint`] is computed once per library element and answers the
//! selection predicates from three invariants:
//!
//! * **var-support mask + exact support** — a 64-bit bloom-style mask
//!   (bit `index % 64`, the same scheme as [`Monomial::var_mask`]) over the
//!   sorted global indices of the variables that occur with nonzero exponent.
//!   Disjoint masks prove disjoint supports; equal-bit collisions are
//!   confirmed against the exact sorted support.
//! * **degree signature** — total degree, per-support-var maximum degree and
//!   term count. Equal polynomials have equal signatures, so
//!   [`PolyFingerprint::may_equal`] compares them before the hash.
//! * **finite-field evaluation hash** — the polynomial evaluated over
//!   [`Fp64`] at fixed pseudo-random points derived from each variable's
//!   *name* (stable across interner orders), using the first prime from the
//!   deterministic [`PrimeIterator`] stream that divides none of the
//!   coefficient denominators. Equal polynomials evaluate identically, so a
//!   hash mismatch proves inequality; the converse is a ≈2⁻⁶² false-match,
//!   which callers resolve with one exact `Poly` comparison.
//!
//! Every predicate here is *conservative*: `false` is a proof, `true` means
//! "run the exact check". See `DESIGN.md` §9 for the per-filter soundness
//! arguments and the one tempting filter that is provably unsound
//! (degree-based candidate rejection in the mapper).
//!
//! [`Monomial::var_mask`]: crate::monomial::Monomial::var_mask
//! [`Rational`]: symmap_numeric::rational::Rational

use crate::factor::{factor, only_primitive_factor};
use crate::poly::Poly;
use crate::var::{Var, VarSet};
use symmap_numeric::fp64::{Fp64, PrimeIterator};
use symmap_numeric::rational::Rational;

/// How many primes the evaluation hash tries before falling back to a
/// structural hash. A prime is rejected only when it divides a coefficient
/// denominator; 62-bit primes make even one rejection vanishingly rare.
const MAX_HASH_PRIME_ROTATIONS: usize = 16;

/// An order-independent, scheduling-independent summary of a [`Poly`]:
/// exact variable support with a 64-bit mask, a degree signature and a
/// finite-field evaluation hash. Computed once (at library build time),
/// queried many times (once per mapper job per element).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolyFingerprint {
    /// OR of `1 << (index % 64)` over the support. `mask_a & mask_b == 0`
    /// proves the supports are disjoint; a nonzero AND proves nothing.
    mask: u64,
    /// Sorted global interner indices of the variables with nonzero exponent.
    support: Box<[u32]>,
    /// Maximum exponent of each support variable, parallel to `support`.
    max_degrees: Box<[u32]>,
    /// Maximum total degree over all terms.
    total_degree: u32,
    /// Number of (monomial, coefficient) terms.
    term_count: u32,
    /// ℤ/p evaluation at name-seeded points; equal polynomials hash equal.
    eval_hash: u64,
}

impl PolyFingerprint {
    /// Computes the fingerprint of `poly`. Cost is one pass over the terms
    /// plus one ℤ/p evaluation — no rational arithmetic, no sorting beyond
    /// an insertion-ordered support merge.
    pub fn of(poly: &Poly) -> Self {
        // Support with per-var max degree, kept sorted by global index.
        let mut vars: Vec<(Var, u32)> = Vec::new();
        let mut mask = 0u64;
        for (m, _) in poly.iter() {
            mask |= m.var_mask();
            for (v, e) in m.iter() {
                match vars.binary_search_by_key(&v.index(), |(w, _)| w.index()) {
                    Ok(i) => vars[i].1 = vars[i].1.max(e),
                    Err(i) => vars.insert(i, (v, e)),
                }
            }
        }
        let eval_hash = eval_hash(poly, &vars);
        PolyFingerprint {
            mask,
            support: vars.iter().map(|(v, _)| v.index()).collect(),
            max_degrees: vars.iter().map(|&(_, d)| d).collect(),
            total_degree: poly.total_degree(),
            term_count: poly.num_terms() as u32,
            eval_hash,
        }
    }

    /// The 64-bit support mask (`OR` of `1 << (index % 64)`).
    #[inline]
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Sorted global indices of the variables in the support.
    #[inline]
    pub fn support(&self) -> &[u32] {
        &self.support
    }

    /// Per-support-variable maximum degrees, parallel to [`support`].
    ///
    /// [`support`]: PolyFingerprint::support
    #[inline]
    pub fn max_degrees(&self) -> &[u32] {
        &self.max_degrees
    }

    /// Maximum total degree over all terms.
    #[inline]
    pub fn total_degree(&self) -> u32 {
        self.total_degree
    }

    /// Number of terms.
    #[inline]
    pub fn term_count(&self) -> u32 {
        self.term_count
    }

    /// The ℤ/p evaluation hash.
    #[inline]
    pub fn eval_hash(&self) -> u64 {
        self.eval_hash
    }

    /// Whether the two supports share at least one variable — the exact
    /// predicate `Mapper::candidates` filters on. The mask test fast-paths
    /// the disjoint case (sound: disjoint masks ⟹ disjoint supports); a
    /// colliding mask is confirmed against the exact sorted supports, so the
    /// answer is never approximate in either direction.
    pub fn intersects(&self, other: &PolyFingerprint) -> bool {
        if self.mask & other.mask == 0 {
            return false;
        }
        sorted_slices_intersect(&self.support, &other.support)
    }

    /// How many support variables the two fingerprints share. Exact (a
    /// sorted-merge count), used for candidate-ordering scores without
    /// materialising either `VarSet`.
    pub fn shared_support_count(&self, other: &PolyFingerprint) -> usize {
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < self.support.len() && j < other.support.len() {
            match self.support[i].cmp(&other.support[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Conservative equality test: `false` proves the polynomials differ;
    /// `true` means "possibly equal — run the exact comparison". Sound
    /// because every component is a function of the polynomial's exact term
    /// multiset: equal polynomials have identical supports, degree
    /// signatures and (same prime, same points) evaluation hashes.
    pub fn may_equal(&self, other: &PolyFingerprint) -> bool {
        self.eval_hash == other.eval_hash && self.same_shape(other)
    }

    /// Whether the two fingerprints agree on everything but the evaluation
    /// hash: support, per-variable and total degrees, and term count. Two
    /// scalar multiples of one polynomial always do.
    fn same_shape(&self, other: &PolyFingerprint) -> bool {
        self.mask == other.mask
            && self.total_degree == other.total_degree
            && self.term_count == other.term_count
            && self.support == other.support
            && self.max_degrees == other.max_degrees
    }
}

/// What the mapper's candidate scan and ordering need of a target: its
/// fingerprint, its variables, and what it takes to tell whether an element
/// is one of its factors. A pure function of the target, memoized once per
/// engine by
/// [`SharedGroebnerCache::guidance`](crate::groebner::SharedGroebnerCache::guidance).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetGuidance {
    /// Fingerprint of the target.
    pub fingerprint: PolyFingerprint,
    /// The target's variables.
    pub vars: VarSet,
    /// The non-constant factors of [`factor`] (multiplicities dropped),
    /// each with its fingerprint; `None` when [`only_primitive_factor`]
    /// says the one factor is the target's primitive part, which is then
    /// never built.
    factors: Option<Vec<(Poly, PolyFingerprint)>>,
}

impl TargetGuidance {
    /// Computes the guidance record of `target`.
    pub fn of(target: &Poly) -> Self {
        let vars = target.vars();
        let factors = (!only_primitive_factor(target, vars.len())).then(|| {
            factor(target)
                .factors
                .into_iter()
                .map(|(f, _)| {
                    let fp = PolyFingerprint::of(&f);
                    (f, fp)
                })
                .collect()
        });
        TargetGuidance {
            fingerprint: PolyFingerprint::of(target),
            vars,
            factors,
        }
    }

    /// Whether `element` (fingerprint `efp`) is one of the factors
    /// [`factor`] returns for `target`, the polynomial this record was
    /// computed from.
    ///
    /// When the factorization is the target's primitive part alone, the
    /// element is a factor exactly when it is a scalar multiple of the
    /// target and primitive. The shape fields of the fingerprints screen
    /// first; an element equal to the target (the common multiple: library
    /// elements are characterized from the kernels) is recognized by the
    /// hash and one comparison, any other by cross-multiplied
    /// coefficients. Only then is `element_is_primitive` asked: the
    /// element's [`is_primitive`](crate::factor::is_primitive), which a
    /// caller can memoize per element.
    pub fn is_factor(
        &self,
        target: &Poly,
        element: &Poly,
        efp: &PolyFingerprint,
        element_is_primitive: impl FnOnce() -> bool,
    ) -> bool {
        if let Some(factors) = &self.factors {
            return factors
                .iter()
                .any(|(f, ffp)| ffp.may_equal(efp) && f == element);
        }
        if !self.fingerprint.same_shape(efp) {
            return false;
        }
        let multiple = (self.fingerprint.eval_hash == efp.eval_hash && element == target)
            || scalar_multiple(target, element);
        multiple && element_is_primitive()
    }
}

/// Whether `b` is a nonzero scalar multiple of `a`. Compares monomials
/// term by term (both term lists are in the canonical order) and
/// cross-multiplies coefficients against the first term's, so no division
/// runs.
fn scalar_multiple(a: &Poly, b: &Poly) -> bool {
    if a.num_terms() != b.num_terms() {
        return false;
    }
    let mut terms = a.iter().zip(b.iter());
    let Some(((am0, a0), (bm0, b0))) = terms.next() else {
        return false;
    };
    am0 == bm0 && terms.all(|((am, ac), (bm, bc))| am == bm && ac * b0 == bc * a0)
}

/// Whether two sorted index slices share an element (merge walk).
fn sorted_slices_intersect(a: &[u32], b: &[u32]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// FNV-1a over a byte string — the point-derivation seed. Name-based (not
/// interner-index-based) so a fingerprint is a pure function of the
/// polynomial's text, independent of interning order.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: diffuses the FNV seed into a full-width point.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Evaluation hash driver: walks the deterministic prime stream until a
/// prime divides no coefficient denominator (the same rotation discipline as
/// the multi-modular lift, so the chosen prime is a pure function of the
/// polynomial), then evaluates once. The practically unreachable exhaustion
/// case falls back to a structural hash — still deterministic, still equal
/// for equal polynomials.
fn eval_hash(poly: &Poly, vars: &[(Var, u32)]) -> u64 {
    if poly.is_zero() {
        return 0;
    }
    let mut primes = PrimeIterator::new();
    for _ in 0..MAX_HASH_PRIME_ROTATIONS {
        let p = primes.next().expect("the 62-bit prime stream is unbounded");
        if let Some(h) = try_eval_hash(poly, vars, p) {
            return mix64(h ^ p);
        }
    }
    structural_hash(poly)
}

/// One ℤ/p evaluation at name-seeded points in `[1, p)`; `None` when `p`
/// divides a coefficient denominator (rotate to the next prime).
fn try_eval_hash(poly: &Poly, vars: &[(Var, u32)], p: u64) -> Option<u64> {
    let field = Fp64::new(p);
    let points: Vec<u64> = vars
        .iter()
        .map(|(v, _)| field.to_montgomery(1 + mix64(fnv1a(v.name().as_bytes())) % (p - 1)))
        .collect();
    let mut acc = field.zero();
    for (m, c) in poly.iter() {
        let mut term = coefficient_mod(&field, c)?;
        for (v, e) in m.iter() {
            let i = vars
                .binary_search_by_key(&v.index(), |(w, _)| w.index())
                .expect("support covers every variable of every term");
            term = field.mul(term, field.pow(points[i], e as u64));
        }
        acc = field.add(acc, term);
    }
    Some(field.from_montgomery(acc))
}

/// Montgomery-form residue of a rational mod p; `None` when p divides the
/// denominator.
fn coefficient_mod(field: &Fp64, c: &Rational) -> Option<u64> {
    let p = field.modulus();
    let den = c.denom().mod_u64(p);
    if den == 0 {
        return None;
    }
    Some(field.div(
        field.to_montgomery(c.numer().mod_u64(p)),
        field.to_montgomery(den),
    ))
}

/// Deterministic fallback when every probe prime divides some denominator
/// (needs ≥16 distinct 62-bit prime factors across the denominators — out of
/// reach for any input this system produces, but the contract must hold).
fn structural_hash(poly: &Poly) -> u64 {
    let m = u64::MAX;
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
    for (mono, c) in poly.iter() {
        for (v, e) in mono.iter() {
            h = mix64(h ^ fnv1a(v.name().as_bytes()) ^ ((e as u64) << 32));
        }
        h = mix64(h ^ c.numer().mod_u64(m) ^ c.denom().mod_u64(m).rotate_left(17));
        h ^= (c.is_negative() as u64) << 63;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Poly {
        Poly::parse(s).expect("test polynomial parses")
    }

    fn fp(s: &str) -> PolyFingerprint {
        PolyFingerprint::of(&p(s))
    }

    #[test]
    fn equal_polynomials_fingerprint_identically() {
        // Same polynomial through different construction orders.
        let a = fp("x^2 + 2*x*y + y^2");
        let b = PolyFingerprint::of(&p("y^2 + 2*y*x + x^2"));
        assert_eq!(a, b);
        assert!(a.may_equal(&b));
    }

    #[test]
    fn signature_components_are_what_they_say() {
        let f = fp("3*x^2*y - y^3 + 1/2");
        assert_eq!(f.total_degree(), 3);
        assert_eq!(f.term_count(), 3);
        let x = Var::new("x").index();
        let y = Var::new("y").index();
        let mut expect = [(x, 2u32), (y, 3u32)];
        expect.sort_by_key(|&(i, _)| i);
        assert_eq!(
            f.support(),
            expect
                .iter()
                .map(|&(i, _)| i)
                .collect::<Vec<_>>()
                .as_slice()
        );
        assert_eq!(
            f.max_degrees(),
            expect
                .iter()
                .map(|&(_, d)| d)
                .collect::<Vec<_>>()
                .as_slice()
        );
    }

    #[test]
    fn distinct_polynomials_are_distinguished_by_the_hash() {
        // Same support, same degree signature, different coefficients: only
        // the evaluation hash can tell them apart without exact arithmetic.
        let a = fp("x^2 + y");
        let b = fp("x^2 - y");
        assert_eq!(a.support(), b.support());
        assert_eq!(a.total_degree(), b.total_degree());
        assert!(!a.may_equal(&b), "hash must separate +y from -y");
    }

    #[test]
    fn fractional_coefficients_hash_deterministically() {
        let a = fp("1/3*x^2 + 5/7*y");
        let b = fp("1/3*x^2 + 5/7*y");
        assert_eq!(a.eval_hash(), b.eval_hash());
        assert!(a.may_equal(&b));
    }

    #[test]
    fn disjoint_supports_never_intersect_and_shared_counts_are_exact() {
        let t = fp("x*y + z");
        let disjoint = fp("u*w");
        let overlap = fp("y^2 + w");
        assert!(!t.intersects(&disjoint));
        assert!(t.intersects(&overlap));
        assert_eq!(t.shared_support_count(&overlap), 1);
        assert_eq!(t.shared_support_count(&disjoint), 0);
        assert_eq!(t.shared_support_count(&t), 3);
    }

    #[test]
    fn constants_have_empty_support() {
        let c = fp("7");
        assert_eq!(c.support().len(), 0);
        assert_eq!(c.mask(), 0);
        assert!(!c.intersects(&fp("x")));
        let z = PolyFingerprint::of(&Poly::zero());
        assert_eq!(z.term_count(), 0);
        assert_eq!(z.eval_hash(), 0);
    }

    #[test]
    fn mask_collisions_are_resolved_by_exact_support() {
        // Two variables whose interner indices collide mod 64 would share a
        // mask bit; the exact support comparison still separates them. We
        // can't force a collision without 64 interned vars, so simulate the
        // property: intersects() on equal masks with disjoint supports.
        let a = PolyFingerprint {
            mask: 0b1,
            support: vec![0].into(),
            max_degrees: vec![1].into(),
            total_degree: 1,
            term_count: 1,
            eval_hash: 1,
        };
        let b = PolyFingerprint {
            mask: 0b1,
            support: vec![64].into(),
            max_degrees: vec![1].into(),
            total_degree: 1,
            term_count: 1,
            eval_hash: 2,
        };
        assert!(
            !a.intersects(&b),
            "colliding masks must not fake an overlap"
        );
        assert!(!a.may_equal(&b));
    }
}
