//! ℤ/p localization for the multi-modular lift.
//!
//! [`crate::multimodular`] computes a Gröbner basis of the ideal's image
//! modulo each of a deterministic sequence of 62-bit primes and lifts the
//! images back to ℚ. This module holds the pieces those images share:
//! [`Fp64`] as a [`CoeffField`], and the strict localization of one
//! generator into 𝔽p\[x\].
//!
//! # Unlucky primes
//!
//! Reduction mod p is a ring homomorphism ℤ(p)\[x\] → 𝔽p\[x\] on p-integral
//! rationals. Two failure modes make a prime *unlucky* for an ideal, and
//! only the first is visible at localization time:
//!
//! * **p divides a denominator** of some generator coefficient (or the
//!   leading numerator, collapsing the leading term): detected by
//!   `localize_generator`, which reports [`UnluckyPrime`] so the lift
//!   rotates to the next prime of the [`PrimeIterator`] sequence.
//! * **p divides a cofactor denominator** arising *inside* the ℚ division:
//!   undetectable without the exact computation. The lift outvotes such an
//!   image by its basis shape and checks every reconstruction over ℚ
//!   before using it (see [`crate::multimodular`]).
//!
//! [`PrimeIterator`]: symmap_numeric::PrimeIterator

use symmap_numeric::{Fp64, Rational};

use crate::coeff::{CPoly, CoeffField};
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

/// How many unlucky primes the lift rotates past beyond its image budget.
/// Each rotation only rules out finitely many divisors, so in practice the
/// first prime almost always succeeds; the bound exists to keep adversarial
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monomial::Monomial;
    use crate::var::Var;
    use symmap_numeric::PrimeIterator;

    fn first_primes(n: usize) -> Vec<u64> {
        PrimeIterator::new().take(n).collect()
    }

    /// The first prime of the sequence for which `g` localizes, with the
    /// rejections of the primes before it.
    fn first_lucky(g: &Poly, order: &MonomialOrder) -> (u64, Vec<UnluckyPrime>) {
        let mut rejected = Vec::new();
        for prime in PrimeIterator::new().take(MAX_PRIME_ROTATIONS) {
            match localize_generator(&Fp64::new(prime), g, order) {
                Ok(_) => return (prime, rejected),
                Err(why) => rejected.push(why),
            }
        }
        panic!("every prime was unlucky")
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
        assert_eq!(
            first_lucky(&unlucky, &order),
            (primes[1], vec![UnluckyPrime::Denominator])
        );
    }

    #[test]
    fn leading_coefficient_unlucky_prime_rotates_deterministically() {
        let primes = first_primes(2);
        // p * x^2 - y: the seed prime kills the leading coefficient.
        let unlucky = Poly::from_terms([
            (
                Monomial::from_pairs(&[(Var::new("x"), 2)]),
                Rational::from(primes[0] as i64),
            ),
            (
                Monomial::from_pairs(&[(Var::new("y"), 1)]),
                Rational::from(-1),
            ),
        ]);
        let order = MonomialOrder::lex(&["x", "y"]);
        assert_eq!(
            first_lucky(&unlucky, &order),
            (primes[1], vec![UnluckyPrime::LeadingCoefficient])
        );
        // A vanishing trailing coefficient is a legal image, not unlucky.
        let trailing = Poly::from_terms([
            (
                Monomial::from_pairs(&[(Var::new("x"), 2)]),
                Rational::from(1),
            ),
            (
                Monomial::from_pairs(&[(Var::new("y"), 1)]),
                Rational::from(primes[0] as i64),
            ),
        ]);
        let image = localize_generator(&Fp64::new(primes[0]), &trailing, &order).unwrap();
        assert_eq!(image.num_terms(), 1);
    }
}
