//! Modular (ℤ/p) Gröbner fast path.
//!
//! Buchberger over ℚ spends most of its time in rational arithmetic whose
//! numerators and denominators grow with every cancellation. Reducing the
//! ideal's generators modulo a 62-bit prime and running the same algorithm
//! over [`Fp64`] — on the flat strided engine the multi-modular lift's
//! images use (`flat`), which is the field-generic
//! [`crate::coeff`] engine step for step — keeps every coefficient in one
//! machine word, typically an order of magnitude faster
//! (the `modular_prefilter` bench pins the ratio on the mapper's hard
//! side-relation ideal).
//!
//! # What a mod-p run can and cannot tell us
//!
//! Reduction mod p is a ring homomorphism ℤ(p)\[x\] → 𝔽p\[x\] on p-integral
//! rationals, so an **exact-zero certificate transfers in one direction**:
//! if `f = Σ hᵢ·gᵢ` over ℚ and no denominator in `f`, the `gᵢ` *or the
//! cofactors `hᵢ`* is divisible by p, then `f̄` reduces to zero modulo the
//! mod-p basis. Contrapositively, a **nonzero** mod-p normal form (under a
//! *complete* mod-p basis) certifies non-membership — the cheap direction
//! the mapper's prefilter exploits to discard candidates early.
//!
//! Two failure modes make a prime *unlucky* for an ideal, and only the first
//! is visible at localization time:
//!
//! * **p divides a denominator** of some generator coefficient (or the
//!   leading numerator, collapsing the leading term): detected by
//!   [`FpBasis::with_prime`], which reports [`UnluckyPrime`] so
//!   [`FpBasis::compute`] can rotate to the next prime of the deterministic
//!   [`PrimeIterator`] sequence.
//! * **p divides a cofactor denominator** arising *inside* the ℚ division —
//!   undetectable without the exact computation. This is why the cache wires
//!   the probe as a **hint**: every mod-p verdict is confirmed by the exact
//!   ℚ run before it can affect a mapping solution (see
//!   `SharedGroebnerCache::probe_membership` and DESIGN.md §6). Promoting
//!   mod-p answers to trusted results needs the multi-modular CRT lift
//!   tracked in the roadmap.
//!
//! Targets are localized more leniently than generators
//! ([`FpBasis::normal_form`] returns `None` only when a target denominator
//! vanishes): a vanishing target *leading* coefficient is a legitimate
//! homomorphic image, not an unlucky prime.

use symmap_numeric::{Fp64, PrimeIterator, Rational};

use crate::coeff::{normal_form_in, CPoly, CPrepared, CoeffField};
use crate::groebner::GroebnerOptions;
use crate::monomial::Monomial;
use crate::ordering::MonomialOrder;
use crate::poly::Poly;

/// ℤ/p as a coefficient field for the generic engine. Elements are `u64`
/// residues in Montgomery form; the context carries the Montgomery constants,
/// so every operation is a handful of word multiplies.
impl CoeffField for Fp64 {
    type Elem = u64;

    fn one(&self) -> u64 {
        Fp64::one(self)
    }
    fn is_zero(&self, a: &u64) -> bool {
        *a == 0
    }
    fn neg(&self, a: &u64) -> u64 {
        Fp64::neg(self, *a)
    }
    fn add(&self, a: &u64, b: &u64) -> u64 {
        Fp64::add(self, *a, *b)
    }
    fn mul(&self, a: &u64, b: &u64) -> u64 {
        Fp64::mul(self, *a, *b)
    }
    fn inv(&self, a: &u64) -> u64 {
        Fp64::inv(self, *a)
    }
    fn div(&self, a: &u64, b: &u64) -> u64 {
        Fp64::div(self, *a, *b)
    }
}

/// Why a prime was rejected for an ideal at localization time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnluckyPrime {
    /// The prime divides the denominator of some generator coefficient, so
    /// the generator has no image in 𝔽p\[x\].
    Denominator,
    /// The prime divides the numerator of a generator's leading coefficient,
    /// so the image's leading structure differs from the exact ideal's.
    LeadingCoefficient,
}

/// How many primes [`FpBasis::compute`] tries before giving up. Each
/// rotation only rules out finitely many divisors, so in practice the first
/// prime almost always succeeds; the bound exists to keep adversarial
/// inputs from walking the iterator forever.
pub const MAX_PRIME_ROTATIONS: usize = 16;

/// Reduces one rational coefficient mod p, returning its Montgomery-form
/// residue; `None` when p divides the denominator.
fn localize_coefficient(field: &Fp64, c: &Rational) -> Option<u64> {
    let p = field.modulus();
    let den = c.denom().mod_u64(p);
    if den == 0 {
        return None;
    }
    let num = c.numer().mod_u64(p);
    Some(field.div(field.to_montgomery(num), field.to_montgomery(den)))
}

/// Localizes a **generator**: strict about unlucky primes. Errors when p
/// divides a denominator or kills the leading coefficient under `order`.
/// Shared with [`crate::multimodular`], whose per-prime images must reject
/// unlucky primes by exactly the same criterion as the prefilter.
pub(crate) fn localize_generator(
    field: &Fp64,
    g: &Poly,
    order: &MonomialOrder,
) -> Result<CPoly<Fp64>, UnluckyPrime> {
    let (lm, _) = g
        .leading_term(order)
        .expect("zero generators are filtered before localization");
    let mut terms = Vec::with_capacity(g.num_terms());
    for (m, c) in g.sorted_terms() {
        match localize_coefficient(field, c) {
            None => return Err(UnluckyPrime::Denominator),
            Some(0) => {
                if *m == lm {
                    return Err(UnluckyPrime::LeadingCoefficient);
                }
            }
            Some(k) => terms.push((m.clone(), k)),
        }
    }
    Ok(CPoly::from_sorted_terms(terms))
}

/// Localizes a **target**: lenient. Coefficients whose numerator vanishes
/// mod p simply drop out (a valid homomorphic image); only a vanishing
/// denominator makes the image undefined (`None`).
fn localize_target(field: &Fp64, f: &Poly) -> Option<CPoly<Fp64>> {
    let mut terms = Vec::with_capacity(f.num_terms());
    for (m, c) in f.sorted_terms() {
        match localize_coefficient(field, c)? {
            0 => {}
            k => terms.push((m.clone(), k)),
        }
    }
    Some(CPoly::from_sorted_terms(terms))
}

/// A reduced Gröbner basis of an ideal's image in 𝔽p\[x\], prepared for
/// repeated normal-form queries — the modular half of the cache's
/// membership prefilter.
#[derive(Debug, Clone)]
pub struct FpBasis {
    field: Fp64,
    order: MonomialOrder,
    prepared: Vec<CPrepared<Fp64>>,
    /// Whether the mod-p Buchberger run finished within its iteration bound.
    /// Only a complete basis makes a nonzero normal form a non-membership
    /// certificate.
    pub complete: bool,
    /// S-polynomial reductions the mod-p run performed.
    pub reductions: usize,
    /// How many unlucky primes [`FpBasis::compute`] rotated past before this
    /// basis's prime was accepted.
    pub rotations: usize,
}

impl FpBasis {
    /// Computes the mod-p reduced basis for one specific prime, failing fast
    /// with [`UnluckyPrime`] when the generators have no clean image.
    pub fn with_prime(
        prime: u64,
        generators: &[Poly],
        order: &MonomialOrder,
        options: &GroebnerOptions,
    ) -> Result<FpBasis, UnluckyPrime> {
        let field = Fp64::new(prime);
        let mut lgens = Vec::with_capacity(generators.len());
        for g in generators.iter().filter(|g| !g.is_zero()) {
            lgens.push(localize_generator(&field, g, order)?);
        }
        let core = crate::flat::buchberger_fp(&field, &lgens, order, options);
        let prepared = core
            .polys
            .into_iter()
            .map(|p| CPrepared::new(p, order).expect("reduced basis elements are nonzero"))
            .collect();
        Ok(FpBasis {
            field,
            order: order.clone(),
            prepared,
            complete: core.complete,
            reductions: core.reductions,
            rotations: 0,
        })
    }

    /// Computes a mod-p basis under the first prime of the deterministic
    /// [`PrimeIterator`] sequence that is not unlucky for these generators,
    /// recording how many primes were rotated past. `None` when
    /// [`MAX_PRIME_ROTATIONS`] consecutive primes were all unlucky.
    pub fn compute(
        generators: &[Poly],
        order: &MonomialOrder,
        options: &GroebnerOptions,
    ) -> Option<FpBasis> {
        for (rotations, prime) in PrimeIterator::new().take(MAX_PRIME_ROTATIONS).enumerate() {
            if let Ok(mut basis) = Self::with_prime(prime, generators, order, options) {
                basis.rotations = rotations;
                return Some(basis);
            }
        }
        None
    }

    /// The prime this basis was computed under.
    pub fn prime(&self) -> u64 {
        self.field.modulus()
    }

    /// The basis elements' leading monomials, in basis order (descending).
    /// For a lucky prime these coincide with the exact ℚ basis's leading
    /// monomials — the differential tests pin this down.
    pub fn leading_monomials(&self) -> Vec<Monomial> {
        self.prepared.iter().map(|d| d.lm.clone()).collect()
    }

    /// Number of basis elements.
    pub fn len(&self) -> usize {
        self.prepared.len()
    }

    /// Whether the basis is empty (zero ideal).
    pub fn is_empty(&self) -> bool {
        self.prepared.is_empty()
    }

    /// Normal form of `f`'s image mod p; `None` when p divides one of `f`'s
    /// denominators (the image is undefined — not an unlucky prime for the
    /// *ideal*, just an unanswerable query).
    pub fn normal_form(&self, f: &Poly) -> Option<CPoly<Fp64>> {
        let lf = localize_target(&self.field, f)?;
        Some(normal_form_in(
            &self.field,
            lf,
            &self.prepared,
            &self.order,
            None,
        ))
    }

    /// Whether `f`'s image reduces to zero modulo this basis. `Some(false)`
    /// from a [`FpBasis::complete`] basis certifies `f` is not in the exact
    /// ideal *provided the prime is lucky for the membership witness* — see
    /// the module docs for why callers must treat it as a hint.
    pub fn reduces_to_zero(&self, f: &Poly) -> Option<bool> {
        self.normal_form(f).map(|r| r.is_zero())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use symmap_numeric::fp64::PRIME_SEED;

    fn p(s: &str) -> Poly {
        Poly::parse(s).unwrap()
    }

    fn first_primes(n: usize) -> Vec<u64> {
        PrimeIterator::new().take(n).collect()
    }

    #[test]
    fn fp_basis_matches_exact_leading_monomials_on_the_circle_system() {
        let gens = [p("x^2 + y^2 + z^2 - 1"), p("x*y - z"), p("x - y + z^2")];
        let order = MonomialOrder::grevlex(&["x", "y", "z"]);
        let options = GroebnerOptions::default();
        let exact = crate::groebner::buchberger(&gens, &order, &options);
        let exact_lms: Vec<Monomial> = exact
            .polys()
            .iter()
            .map(|g| g.leading_monomial(&order).unwrap())
            .collect();
        let fp = FpBasis::compute(&gens, &order, &options).unwrap();
        assert!(fp.complete);
        assert_eq!(fp.rotations, 0);
        assert_eq!(fp.prime(), PRIME_SEED - 56);
        assert_eq!(fp.leading_monomials(), exact_lms);
        // Membership transfers: each exact basis element reduces to zero.
        for g in exact.polys() {
            assert_eq!(fp.reduces_to_zero(g), Some(true));
        }
        // And x (clearly not in the ideal) does not.
        assert_eq!(fp.reduces_to_zero(&p("x")), Some(false));
    }

    #[test]
    fn denominator_unlucky_prime_rotates_deterministically() {
        let primes = first_primes(2);
        // 1/p as a coefficient: the seed prime divides the denominator.
        let unlucky = Poly::parse("x^2 - y").unwrap().add(&Poly::from_terms([(
            Monomial::one(),
            Rational::new(1, primes[0] as i64),
        )]));
        let order = MonomialOrder::lex(&["x", "y"]);
        let options = GroebnerOptions::default();
        assert_eq!(
            FpBasis::with_prime(primes[0], std::slice::from_ref(&unlucky), &order, &options)
                .unwrap_err(),
            UnluckyPrime::Denominator
        );
        let fp = FpBasis::compute(&[unlucky], &order, &options).unwrap();
        assert_eq!(fp.rotations, 1);
        assert_eq!(fp.prime(), primes[1]);
    }

    #[test]
    fn leading_coefficient_unlucky_prime_rotates_deterministically() {
        let primes = first_primes(2);
        // p * x^2 - y: the seed prime kills the leading coefficient.
        let unlucky = Poly::from_terms([
            (
                Monomial::from_pairs(&[(crate::var::Var::new("x"), 2)]),
                Rational::from(primes[0] as i64),
            ),
            (
                Monomial::from_pairs(&[(crate::var::Var::new("y"), 1)]),
                Rational::from(-1),
            ),
        ]);
        let order = MonomialOrder::lex(&["x", "y"]);
        let options = GroebnerOptions::default();
        assert_eq!(
            FpBasis::with_prime(primes[0], std::slice::from_ref(&unlucky), &order, &options)
                .unwrap_err(),
            UnluckyPrime::LeadingCoefficient
        );
        let fp = FpBasis::compute(&[unlucky], &order, &options).unwrap();
        assert_eq!(fp.rotations, 1);
        assert_eq!(fp.prime(), primes[1]);
    }

    #[test]
    fn target_leading_vanish_is_not_unlucky() {
        let primes = first_primes(1);
        let gens = [p("x^2 - y")];
        let order = MonomialOrder::lex(&["x", "y"]);
        let fp =
            FpBasis::with_prime(primes[0], &gens, &order, &GroebnerOptions::default()).unwrap();
        // p*x vanishes entirely mod p — a legal image that reduces to zero.
        let target = Poly::from_terms([(
            Monomial::from_pairs(&[(crate::var::Var::new("x"), 1)]),
            Rational::from(primes[0] as i64),
        )]);
        assert_eq!(fp.reduces_to_zero(&target), Some(true));
        // A denominator of p makes the query unanswerable, not unlucky.
        let bad = Poly::from_terms([(Monomial::one(), Rational::new(1, primes[0] as i64))]);
        assert_eq!(fp.reduces_to_zero(&bad), None);
    }
}
