//! Chinese remaindering and rational reconstruction.
//!
//! The multi-modular Gröbner path computes coefficient images mod a sequence
//! of 62-bit primes, combines them into a residue mod the product with
//! [`crt_pair`]/[`crt_combine`], and lifts back to ℚ with
//! [`rational_reconstruct`]. Everything here is exact limb arithmetic over
//! [`BigInt`] plus `u128` words — no floats, no probabilistic shortcuts —
//! and the functions are pure, so the lifted coefficients are a
//! deterministic function of the residues and the prime sequence.

use crate::bigint::BigInt;

/// `a⁻¹ mod m` for coprime `a`, `m` with `m ≥ 2`, by the extended Euclidean
/// algorithm: remainders in `u64` (word divisions), cofactors in `i128`
/// (safe: their magnitudes are bounded by `m`).
///
/// # Panics
///
/// Panics when `gcd(a, m) ≠ 1` — callers pass distinct primes, so a
/// violation means the prime sequence is broken, not a data condition.
fn inv_mod_u64(a: u64, m: u64) -> u64 {
    assert!(m >= 2, "modulus must be at least 2");
    let (mut old_r, mut r) = (a % m, m);
    let (mut old_s, mut s) = (1_i128, 0_i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q as i128 * s);
    }
    assert!(old_r == 1, "inv_mod_u64 requires coprime inputs");
    old_s.rem_euclid(m as i128) as u64
}

/// Combines a residue `r1 mod m1` with a residue `r2 mod m2` into the unique
/// residue mod `m1·m2`, returning `(combined, m1·m2)`.
///
/// Preconditions: `0 ≤ r1 < m1`, `r2 < m2`, and `gcd(m1, m2) = 1`. The
/// incremental shape (arbitrary-precision accumulator plus one machine-word
/// prime) matches how the multi-modular engine grows its modulus one prime
/// at a time.
pub fn crt_pair(r1: &BigInt, m1: &BigInt, r2: u64, m2: u64) -> (BigInt, BigInt) {
    debug_assert!(!r1.is_negative() && r1 < m1, "r1 must be reduced mod m1");
    debug_assert!(r2 < m2, "r2 must be reduced mod m2");
    // combined = r1 + m1·t with t ≡ (r2 − r1)·m1⁻¹ (mod m2); all the
    // word-sized arithmetic stays inside u128 because m2 < 2⁶⁴.
    let r1_mod = r1.mod_u64(m2);
    let delta = if r2 >= r1_mod {
        r2 - r1_mod
    } else {
        r2 + (m2 - r1_mod)
    };
    let inv = inv_mod_u64(m1.mod_u64(m2), m2);
    let t = ((delta as u128 * inv as u128) % m2 as u128) as u64;
    let mut combined = m1 * &BigInt::from(t);
    combined += r1;
    let mut modulus = m1.clone();
    modulus *= &BigInt::from(m2);
    (combined, modulus)
}

/// Folds a slice of `(residue, prime)` pairs into `(combined, modulus)` with
/// `modulus = ∏ primes`. The primes must be pairwise distinct (coprime).
/// Returns `(0, 1)` for an empty slice.
pub fn crt_combine(residues: &[(u64, u64)]) -> (BigInt, BigInt) {
    let mut acc = BigInt::zero();
    let mut modulus = BigInt::one();
    for &(r, p) in residues {
        (acc, modulus) = crt_pair(&acc, &modulus, r, p);
    }
    (acc, modulus)
}

/// Rational reconstruction: finds the unique fraction `n/d` with
/// `n ≡ a·d (mod m)`, `gcd(n, d) = 1`, `d > 0` and `2n² < m`, `2d² < m`
/// (the standard `|n|, d < √(m/2)` bound), if one exists.
///
/// Uses the half-extended Euclidean algorithm on `(m, a)`: the remainder
/// sequence is walked until `2·r² < m`, at which point `(r, t)` is the
/// candidate `(n, d)`. The invariant `rᵢ ≡ tᵢ·a (mod m)` makes the congruence
/// hold by construction; the bound checks and the coprimality check make the
/// answer unique, so a successful reconstruction is *the* fraction every
/// sufficiently large modulus agrees on. The walk takes Lehmer steps (one
/// multiprecision update per ~30 quotients) while a step's last remainder
/// stays above the bound — remainders decrease, so none inside the step
/// could have stopped the walk — and single quotients after that.
///
/// # Panics
///
/// Panics when `m < 2`.
pub fn rational_reconstruct(a: &BigInt, m: &BigInt) -> Option<(BigInt, BigInt)> {
    assert!(*m >= BigInt::from(2_i64), "modulus must be at least 2");
    // Reduce to the least non-negative residue.
    let (_, mut a) = a.div_rem(m);
    if a.is_negative() {
        a += m;
    }
    if a.is_zero() {
        return Some((BigInt::zero(), BigInt::one()));
    }
    let (mut r0, mut r1) = (m.clone(), a);
    let (mut t0, mut t1) = (BigInt::zero(), BigInt::one());
    let mut batched = true;
    while twice_square_reaches(&r1, m) {
        if batched {
            if let Some((cofactors, n0, n1)) = BigInt::lehmer_step(&r0, &r1) {
                if twice_square_reaches(&n1, m) {
                    // The t sequence obeys the same recurrence as r.
                    let [a, b, c, d] = cofactors.map(BigInt::from);
                    let mut next_t0 = &a * &t0;
                    next_t0 += &(&b * &t1);
                    t0 *= &c;
                    t0 += &(&d * &t1);
                    (t0, t1) = (next_t0, t0);
                    (r0, r1) = (n0, n1);
                    continue;
                }
                // The step would pass the stopping remainder.
                batched = false;
            }
        }
        let (q, rem) = r0.div_rem(&r1);
        r0 = std::mem::replace(&mut r1, rem);
        t0 -= &(&q * &t1);
        std::mem::swap(&mut t0, &mut t1);
    }
    let (mut n, mut d) = (r1, t1);
    if d.is_zero() {
        return None;
    }
    if d.is_negative() {
        n = -n;
        d = -d;
    }
    if twice_square_reaches(&d, m) {
        return None;
    }
    if !n.gcd(&d).is_one() {
        return None;
    }
    Some((n, d))
}

/// `2·x² ≥ m` for `m ≥ 2`, decided from bit lengths alone except within
/// one bit of the boundary: `2x²` lies in `[2^(2b−1), 2^(2b+1))` for a
/// `b`-bit `x ≠ 0`, and `m` in `[2^(B−1), 2^B)` for a `B`-bit `m`.
fn twice_square_reaches(x: &BigInt, m: &BigInt) -> bool {
    let (b, big_b) = (x.bits(), m.bits());
    if 2 * b > big_b {
        return true;
    }
    if 2 * b + 2 <= big_b {
        return false;
    }
    &BigInt::from(2_i64) * &(x * x) >= *m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp64::PrimeIterator;
    use proptest::prelude::*;

    /// A fixed pool of odd primes straddling the u32 and u64 boundaries, so
    /// the proptests exercise both single-limb and multi-limb `BigInt`
    /// moduli (the promotion boundary, in the PR 3 small-rational style).
    fn prime_pool() -> Vec<u64> {
        let mut pool = vec![3, 101, 1_000_003, 4_294_967_311, 2_147_483_659];
        pool.extend(PrimeIterator::new().take(3));
        pool
    }

    /// Extended Euclid on truncated division: `(g, x)` with
    /// `g = gcd(a, b) ≥ 0` and `x·a ≡ g (mod b)` — an inverse computed
    /// independently of the code under test.
    fn extended_gcd(a: &BigInt, b: &BigInt) -> (BigInt, BigInt) {
        let (mut old_r, mut r) = (a.clone(), b.clone());
        let (mut old_s, mut s) = (BigInt::one(), BigInt::zero());
        while !r.is_zero() {
            let (q, rem) = old_r.div_rem(&r);
            old_r = std::mem::replace(&mut r, rem);
            let next_s = &old_s - &(&q * &s);
            old_s = std::mem::replace(&mut s, next_s);
        }
        if old_r.is_negative() {
            (-old_r, -old_s)
        } else {
            (old_r, old_s)
        }
    }

    /// `num·den⁻¹ mod m` computed independently through the extended gcd —
    /// the oracle side of the reconstruction round trip.
    fn residue_of_fraction(num: i64, den: i64, m: &BigInt) -> BigInt {
        let (g, inv) = extended_gcd(&BigInt::from(den), m);
        assert!(
            g.is_one(),
            "test fraction must have denominator coprime to m"
        );
        let (_, mut r) = (&BigInt::from(num) * &inv).div_rem(m);
        if r.is_negative() {
            r += m;
        }
        r
    }

    #[test]
    fn crt_pair_small_known_values() {
        // x ≡ 2 (mod 3), x ≡ 3 (mod 5) → x = 8 (mod 15).
        let (r, m) = crt_pair(&BigInt::from(2_i64), &BigInt::from(3_i64), 3, 5);
        assert_eq!(r.to_i64().unwrap(), 8);
        assert_eq!(m.to_i64().unwrap(), 15);
        // Folding from the empty accumulator reproduces the residues.
        let (r, m) = crt_combine(&[(2, 3), (3, 5), (2, 7)]);
        assert_eq!(m.to_i64().unwrap(), 105);
        assert_eq!(r.mod_u64(3), 2);
        assert_eq!(r.mod_u64(5), 3);
        assert_eq!(r.mod_u64(7), 2);
    }

    #[test]
    fn twice_square_bound_matches_the_product() {
        for m in [2_i64, 3, 7, 8, 9, 101, 128, 1 << 20, (1 << 40) + 1] {
            let big_m = BigInt::from(m);
            for x in 0_i64..2000 {
                let x = BigInt::from(x) * BigInt::from(m.isqrt() / 40 + 1);
                let exact = &BigInt::from(2_i64) * &(&x * &x) >= big_m;
                assert_eq!(twice_square_reaches(&x, &big_m), exact, "x = {x}, m = {m}");
            }
        }
    }

    #[test]
    fn crt_combine_empty_is_zero_mod_one() {
        let (r, m) = crt_combine(&[]);
        assert!(r.is_zero());
        assert!(m.is_one());
    }

    #[test]
    fn reconstruct_zero_and_integers() {
        let p = PrimeIterator::new().next().unwrap();
        let m = BigInt::from(p);
        assert_eq!(
            rational_reconstruct(&BigInt::zero(), &m),
            Some((BigInt::zero(), BigInt::one()))
        );
        // Small integers are their own reconstruction.
        for v in [1_i64, -1, 42, -1000] {
            let a = residue_of_fraction(v, 1, &m);
            assert_eq!(
                rational_reconstruct(&a, &m),
                Some((BigInt::from(v), BigInt::one()))
            );
        }
    }

    #[test]
    fn reconstruct_requires_room_in_the_modulus() {
        // m = 101: the bound √(m/2) ≈ 7.1, so 1/10 has no representative
        // fraction inside the box and reconstruction must refuse rather
        // than return a wrong small fraction.
        let m = BigInt::from(101_i64);
        let a = residue_of_fraction(1, 10, &m);
        assert_eq!(rational_reconstruct(&a, &m), None);
        // The same fraction reconstructs once the modulus has room.
        let m = BigInt::from(1_000_003_i64);
        let a = residue_of_fraction(1, 10, &m);
        assert_eq!(
            rational_reconstruct(&a, &m),
            Some((BigInt::one(), BigInt::from(10_i64)))
        );
    }

    /// The remainder walk one quotient at a time: the oracle for the
    /// Lehmer-stepped walk in [`rational_reconstruct`].
    fn reconstruct_single_steps(a: &BigInt, m: &BigInt) -> Option<(BigInt, BigInt)> {
        let (_, a) = a.div_rem(m);
        if a.is_zero() {
            return Some((BigInt::zero(), BigInt::one()));
        }
        let two = BigInt::from(2_i64);
        let (mut r0, mut r1) = (m.clone(), a);
        let (mut t0, mut t1) = (BigInt::zero(), BigInt::one());
        while &two * &(&r1 * &r1) >= *m {
            let (q, rem) = r0.div_rem(&r1);
            r0 = std::mem::replace(&mut r1, rem);
            let next_t = &t0 - &(&q * &t1);
            t0 = std::mem::replace(&mut t1, next_t);
        }
        let (n, d) = if t1.is_negative() {
            (-r1, -t1)
        } else {
            (r1, t1)
        };
        if d.is_zero() || &two * &(&d * &d) >= *m || !n.gcd(&d).is_one() {
            return None;
        }
        Some((n, d))
    }

    proptest! {
        /// Lehmer-stepped reconstruction agrees with the single-step walk
        /// on moduli of 3–6 production primes: on random residues (mostly
        /// failures) and on residues of random fractions that fit the box.
        #[test]
        fn prop_lehmer_reconstruct_matches_single_steps(
            k in 3usize..7,
            limbs in proptest::collection::vec(any::<u32>(), 1..13),
            num in proptest::collection::vec(any::<u32>(), 1..5),
            den in proptest::collection::vec(any::<u32>(), 1..5),
            negative in any::<bool>(),
        ) {
            let primes: Vec<u64> = PrimeIterator::new().take(k).collect();
            let m = primes.iter().fold(BigInt::one(), |acc, &p| &acc * &BigInt::from(p));
            let value = |ls: &[u32]| ls.iter().rev().fold(BigInt::zero(), |acc, &l| {
                &(&acc * &BigInt::from(1_i64 << 32)) + &BigInt::from(l as i64)
            });
            let (_, a) = value(&limbs).div_rem(&m);
            prop_assert_eq!(rational_reconstruct(&a, &m), reconstruct_single_steps(&a, &m));
            // n·d⁻¹ mod m for a fraction inside the √(m/2) box.
            let (n, d) = (value(&num), value(&den));
            let n = if negative { -n } else { n };
            if !d.is_zero() && n.gcd(&d).is_one() && !twice_square_reaches(&n, &m)
                && !twice_square_reaches(&d, &m)
            {
                let (g, inv) = extended_gcd(&d, &m);
                if g.is_one() {
                    let (_, mut r) = (&n * &inv).div_rem(&m);
                    if r.is_negative() {
                        r += &m;
                    }
                    prop_assert_eq!(rational_reconstruct(&r, &m), Some((n.clone(), d.clone())));
                    prop_assert_eq!(reconstruct_single_steps(&r, &m), Some((n, d)));
                }
            }
        }

        /// CRT over two distinct pool primes agrees with direct u128
        /// remaindering of a random value, across the single-limb/multi-limb
        /// promotion boundary.
        #[test]
        fn prop_crt_pair_matches_u128_oracle(i in 0usize..8, j in 0usize..8, hi in any::<u64>(), lo in any::<u64>()) {
            let pool = prime_pool();
            prop_assume!(i != j);
            let (p1, p2) = (pool[i], pool[j]);
            let m = p1 as u128 * p2 as u128;
            let x = (((hi as u128) << 64) | lo as u128) % m;
            let (r, modulus) = crt_combine(&[((x % p1 as u128) as u64, p1), ((x % p2 as u128) as u64, p2)]);
            prop_assert_eq!(modulus.to_string(), m.to_string());
            prop_assert_eq!(r.to_string(), x.to_string());
        }

        /// Round trip: a random reduced fraction, pushed into a residue mod a
        /// product of two 62-bit primes, reconstructs to exactly itself.
        #[test]
        fn prop_reconstruct_round_trips(num in -1_000_000_i64..1_000_000, den in 1_i64..1_000_000) {
            let g = num.unsigned_abs().max(1).gcd_reduce(den.unsigned_abs());
            let (num, den) = (num / g as i64, den / g as i64);
            let primes: Vec<u64> = PrimeIterator::new().take(2).collect();
            let m = &BigInt::from(primes[0]) * &BigInt::from(primes[1]);
            let a = residue_of_fraction(num, den, &m);
            prop_assert_eq!(
                rational_reconstruct(&a, &m),
                Some((BigInt::from(num), BigInt::from(den)))
            );
        }

        /// Soundness over an exhaustive-ish residue sweep: whatever
        /// reconstruction returns satisfies the congruence, the bounds and
        /// coprimality — it never fabricates an unsound fraction.
        #[test]
        fn prop_reconstruct_is_sound(a in 0_i64..10_007) {
            let m = BigInt::from(10_007_i64);
            if let Some((n, d)) = rational_reconstruct(&BigInt::from(a), &m) {
                // n ≡ a·d (mod m)
                let (_, rem) = (&(&BigInt::from(a) * &d) - &n).div_rem(&m);
                prop_assert!(rem.is_zero());
                prop_assert!(d.is_positive());
                prop_assert!(n.gcd(&d).is_one());
                let two = BigInt::from(2_i64);
                prop_assert!(&two * &(&n * &n) < m);
                prop_assert!(&two * &(&d * &d) < m);
            }
        }
    }

    /// Plain u64 gcd helper for the round-trip test (std has no stable
    /// `u64::gcd`).
    trait GcdReduce {
        fn gcd_reduce(self, other: u64) -> u64;
    }
    impl GcdReduce for u64 {
        fn gcd_reduce(self, other: u64) -> u64 {
            let (mut a, mut b) = (self, other);
            while b != 0 {
                let r = a % b;
                a = b;
                b = r;
            }
            a.max(1)
        }
    }
}
