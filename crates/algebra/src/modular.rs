//! ℤ/p localization for the multi-modular lift.
//!
//! [`crate::multimodular`] computes a Gröbner basis of the ideal's image
//! modulo each of a deterministic sequence of 62-bit primes and lifts the
//! images back to ℚ, running each image on the flat ℤ/p engine of the
//! private `flat` module. This module holds the strict localization of one
//! generator into 𝔽p\[x\]: a term vector of Montgomery-form residues, the
//! shape the flat engine takes.
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

use crate::monomial::Monomial;
use crate::ordering::MonomialOrder;
use crate::poly::Poly;

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
/// The image keeps `g`'s canonical (descending storage) term order, with
/// the terms whose coefficient vanishes mod p dropped and the others as
/// Montgomery-form residues.
pub(crate) fn localize_generator(
    field: &Fp64,
    g: &Poly,
    order: &MonomialOrder,
) -> Result<Vec<(Monomial, u64)>, UnluckyPrime> {
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
    Ok(terms)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(image.len(), 1);
    }
}
