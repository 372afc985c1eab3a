//! ℤ/p arithmetic for 62-bit primes, in Montgomery form.
//!
//! The Gröbner engine's dominant remaining cost on hard side-relation ideals
//! is *coefficient growth over ℚ*: exact rational arithmetic blows up on
//! coefficient size, not term count. Production computer-algebra systems
//! avoid this by running the same algorithms over a finite field ℤ/p, where
//! every coefficient is one machine word and every nonzero element is
//! invertible. This module provides that substrate:
//!
//! * [`Fp64`] — a field context for a fixed odd prime `p < 2⁶²`, holding the
//!   precomputed Montgomery constants. Elements are plain `u64` values *in
//!   Montgomery form* (`a·R mod p` with `R = 2⁶⁴`); all arithmetic goes
//!   through the context, mirroring the field-context idiom of symbolica's
//!   `finite_field.rs`.
//! * [`PrimeIterator`] — a deterministic stream of 62-bit primes starting
//!   from the fixed seed candidate [`PRIME_SEED`]. Determinism matters: the
//!   multi-modular lift rotates to the next prime when one turns out
//!   *unlucky* for an ideal (it divides a leading coefficient or a
//!   denominator), and the chosen prime must be a pure function of the ideal
//!   so that cached bases are scheduling-independent.
//! * [`is_prime`] — deterministic Miller–Rabin, valid for all `u64`.
//!
//! The `p < 2⁶²` bound is what makes the arithmetic branch-light: sums of
//! two elements fit in `u64` without overflow, and the Montgomery reduction
//! accumulator fits in `u128` with room to spare.
//!
//! ## Example
//!
//! ```
//! use symmap_numeric::fp64::{Fp64, PrimeIterator};
//!
//! let p = PrimeIterator::new().next().unwrap();
//! let field = Fp64::new(p);
//! let a = field.to_montgomery(7);
//! let b = field.inv(a);
//! assert_eq!(field.mul(a, b), field.one());
//! ```

use std::sync::OnceLock;

/// First candidate tried by [`PrimeIterator`]: the largest odd number below
/// 2⁶². The iterator walks downward, so the first prime it yields is the
/// largest prime below 2⁶² (4611686018427387847 = 2⁶² − 57).
pub const PRIME_SEED: u64 = (1 << 62) - 1;

/// Floor of the prime band: [`PrimeIterator`] only yields primes in
/// (2⁶¹, 2⁶²), so every prime is a genuine 62-bit value and products of two
/// residues stay comfortably inside `u128`.
const PRIME_FLOOR: u64 = 1 << 61;

/// A finite field ℤ/p for an odd prime `p < 2⁶²`, with Montgomery-form
/// element representation.
///
/// Elements are `u64` values holding `a·R mod p` (`R = 2⁶⁴`). Use
/// [`Fp64::to_montgomery`]/[`Fp64::from_montgomery`] at the boundary and the
/// context methods ([`Fp64::add`], [`Fp64::mul`], [`Fp64::inv`], …) inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fp64 {
    /// The modulus.
    p: u64,
    /// `−p⁻¹ mod 2⁶⁴`, the Montgomery reduction constant.
    p_inv_neg: u64,
    /// `R² mod p = 2¹²⁸ mod p`, used to enter Montgomery form.
    r2: u64,
    /// `R mod p`, the Montgomery form of 1.
    one: u64,
}

impl Fp64 {
    /// Creates the field context for `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is even, below 3, or at least 2⁶². (Primality is the
    /// caller's contract — use [`is_prime`] or [`PrimeIterator`]; a composite
    /// odd modulus yields a ring in which [`Fp64::inv`] is unreliable.)
    pub fn new(p: u64) -> Self {
        assert!(
            p >= 3 && p % 2 == 1 && p < (1 << 62),
            "Fp64 requires an odd modulus in [3, 2^62)"
        );
        // Newton–Hensel inversion of p modulo 2⁶⁴: for odd p, `inv = p` is
        // already correct mod 2³ (p·p ≡ 1 mod 8), and each iteration doubles
        // the number of correct low bits: 3 → 6 → 12 → 24 → 48 → 96 ≥ 64.
        let mut inv = p;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(p.wrapping_mul(inv)));
        }
        debug_assert_eq!(p.wrapping_mul(inv), 1);
        let one = ((1u128 << 64) % p as u128) as u64;
        let r2 = ((one as u128 * one as u128) % p as u128) as u64;
        Fp64 {
            p,
            p_inv_neg: inv.wrapping_neg(),
            r2,
            one,
        }
    }

    /// The modulus `p`.
    #[inline]
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// The additive identity (zero is `0` in Montgomery form too).
    #[inline]
    pub fn zero(&self) -> u64 {
        0
    }

    /// The multiplicative identity in Montgomery form (`R mod p`).
    #[inline]
    pub fn one(&self) -> u64 {
        self.one
    }

    /// Montgomery reduction: maps `t < p·2⁶⁴` to `t·R⁻¹ mod p`.
    #[inline]
    fn redc(&self, t: u128) -> u64 {
        let m = (t as u64).wrapping_mul(self.p_inv_neg);
        // t + m·p ≡ 0 mod 2⁶⁴ by construction of m, and the sum is below
        // p² + p·2⁶⁴ < 2¹²⁴ + 2¹²⁶, so the u128 accumulator cannot overflow
        // and the shifted result is below 2p: one conditional subtraction.
        let t = ((t + m as u128 * self.p as u128) >> 64) as u64;
        if t >= self.p {
            t - self.p
        } else {
            t
        }
    }

    /// Enters Montgomery form: `n mod p` ↦ `n·R mod p`.
    #[inline]
    pub fn to_montgomery(&self, n: u64) -> u64 {
        self.redc((n % self.p) as u128 * self.r2 as u128)
    }

    /// Leaves Montgomery form: `a·R mod p` ↦ `a mod p`.
    #[inline]
    pub fn from_montgomery(&self, a: u64) -> u64 {
        self.redc(a as u128)
    }

    /// Embeds a signed integer (e.g. a rational numerator) into the field,
    /// in Montgomery form.
    #[inline]
    pub fn from_i64(&self, n: i64) -> u64 {
        let mag = self.to_montgomery(n.unsigned_abs());
        if n < 0 {
            self.neg(mag)
        } else {
            mag
        }
    }

    /// Field addition. Safe in `u64` because `p < 2⁶²`.
    #[inline]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        let s = a + b;
        if s >= self.p {
            s - self.p
        } else {
            s
        }
    }

    /// Field subtraction.
    #[inline]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        if a >= b {
            a - b
        } else {
            a + self.p - b
        }
    }

    /// Additive inverse.
    #[inline]
    pub fn neg(&self, a: u64) -> u64 {
        if a == 0 {
            0
        } else {
            self.p - a
        }
    }

    /// Field multiplication of two Montgomery-form elements.
    #[inline]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        self.redc(a as u128 * b as u128)
    }

    /// Exponentiation by squaring; `e` is a plain (non-Montgomery) exponent.
    pub fn pow(&self, mut base: u64, mut e: u64) -> u64 {
        let mut acc = self.one;
        while e > 0 {
            if e & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            e >>= 1;
        }
        acc
    }

    /// Multiplicative inverse by Fermat's little theorem (`a^(p−2)`).
    ///
    /// `a` must be nonzero; `inv(0)` returns 0 (and debug-asserts), which
    /// callers must never rely on.
    #[inline]
    pub fn inv(&self, a: u64) -> u64 {
        debug_assert!(a != 0, "inverse of zero in ℤ/{}", self.p);
        // The identity is its own inverse; skipping the 62-step Fermat
        // ladder here matters because Gröbner bases are kept monic, so the
        // division hot loop's `c / lc(d)` is `c / 1` almost every step.
        if a == self.one {
            return a;
        }
        self.pow(a, self.p - 2)
    }

    /// Field division `a / b` (`b` nonzero).
    #[inline]
    pub fn div(&self, a: u64, b: u64) -> u64 {
        if b == self.one {
            return a;
        }
        self.mul(a, self.inv(b))
    }
}

/// `a·b mod m` without overflow, for any `u64` operands.
fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    ((a as u128 * b as u128) % m as u128) as u64
}

/// `a^e mod m` by squaring, for any `u64` operands.
fn pow_mod(mut a: u64, mut e: u64, m: u64) -> u64 {
    let mut acc = 1 % m;
    a %= m;
    while e > 0 {
        if e & 1 == 1 {
            acc = mul_mod(acc, a, m);
        }
        a = mul_mod(a, a, m);
        e >>= 1;
    }
    acc
}

/// The witness set {2, 3, …, 37} makes Miller–Rabin *deterministic* for all
/// `n < 2⁶⁴` (Sorenson & Webster 2015), so [`is_prime`] is exact, not
/// probabilistic.
const MILLER_RABIN_WITNESSES: [u64; 12] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37];

/// Deterministic primality test, exact for every `u64`.
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &sp in &MILLER_RABIN_WITNESSES {
        if n == sp {
            return true;
        }
        if n.is_multiple_of(sp) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for &a in &MILLER_RABIN_WITNESSES {
        let mut x = pow_mod(a, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// How many leading primes of the stream [`PrimeIterator`] serves from
/// [`prime_table`]. The prime-rotation budgets of the fingerprint hash and
/// the multi-modular lift are 16 primes each, so nearly every stream ends
/// inside the table.
const PRIME_TABLE_LEN: usize = 32;

/// Walks `candidate` downward by 2 to the next prime in the band, leaving it
/// on the candidate after that prime; `None` once the band is exhausted.
fn walk_to_prime(candidate: &mut u64) -> Option<u64> {
    while *candidate > PRIME_FLOOR {
        let c = *candidate;
        *candidate -= 2;
        if is_prime(c) {
            return Some(c);
        }
    }
    None
}

/// The first [`PRIME_TABLE_LEN`] primes of the walk from [`PRIME_SEED`],
/// found once per process. Every polynomial fingerprint starts a fresh
/// [`PrimeIterator`]; without the table each one would re-run Miller–Rabin
/// on the ≈ 28 candidates above the first prime, most of the fingerprint's
/// cost.
fn prime_table() -> &'static [u64; PRIME_TABLE_LEN] {
    static TABLE: OnceLock<[u64; PRIME_TABLE_LEN]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut candidate = PRIME_SEED;
        std::array::from_fn(|_| {
            walk_to_prime(&mut candidate).expect("the band holds ~5·10¹⁶ primes")
        })
    })
}

/// A deterministic stream of 62-bit primes, largest first.
///
/// Starts at [`PRIME_SEED`] and walks downward by 2, yielding every prime in
/// the open band (2⁶¹, 2⁶²). The sequence is a fixed constant of the crate —
/// the first three primes are `2⁶² − 57`, `2⁶² − 87`, `2⁶² − 117` — so any
/// consumer that "rotates to the next prime" does so identically on every
/// run and every thread. The leading primes come from a table computed once
/// per process; past it the iterator walks on from the table's last prime.
#[derive(Debug, Clone)]
pub struct PrimeIterator {
    /// Primes yielded from the table so far.
    served: usize,
    /// Next candidate of the walk once the table is used up.
    candidate: u64,
}

impl PrimeIterator {
    /// A stream positioned at the seed candidate.
    pub fn new() -> Self {
        PrimeIterator {
            served: 0,
            candidate: prime_table()[PRIME_TABLE_LEN - 1] - 2,
        }
    }
}

impl Default for PrimeIterator {
    fn default() -> Self {
        Self::new()
    }
}

impl Iterator for PrimeIterator {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if let Some(&p) = prime_table().get(self.served) {
            self.served += 1;
            return Some(p);
        }
        // ~5·10¹⁶ primes live in the band; exhaustion is unreachable in
        // practice but the contract stays honest.
        walk_to_prime(&mut self.candidate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Naive reference arithmetic in plain (non-Montgomery) residues.
    fn naive_mul(a: u64, b: u64, p: u64) -> u64 {
        mul_mod(a, b, p)
    }

    #[test]
    fn small_primes_are_recognised() {
        let primes = [2u64, 3, 5, 7, 11, 13, 97, 7919];
        let composites = [0u64, 1, 4, 9, 91, 561, 6601, 62745]; // incl. Carmichael numbers
        for p in primes {
            assert!(is_prime(p), "{p} is prime");
        }
        for c in composites {
            assert!(!is_prime(c), "{c} is composite");
        }
    }

    #[test]
    fn prime_iterator_is_deterministic_and_62_bit() {
        let first: Vec<u64> = PrimeIterator::new().take(3).collect();
        assert_eq!(first, vec![(1 << 62) - 57, (1 << 62) - 87, (1 << 62) - 117]);
        for p in &first {
            assert!(is_prime(*p));
            assert!(*p > (1 << 61) && *p < (1 << 62));
        }
        // A second iterator yields the identical stream.
        assert_eq!(PrimeIterator::new().take(3).collect::<Vec<_>>(), first);
    }

    /// Reference for the table: the plain walk from the seed.
    fn walked_primes(n: usize) -> Vec<u64> {
        let mut out = Vec::with_capacity(n);
        let mut c = PRIME_SEED;
        while out.len() < n {
            if is_prime(c) {
                out.push(c);
            }
            c -= 2;
        }
        out
    }

    #[test]
    fn prime_table_matches_the_walk_from_the_seed() {
        let len = PRIME_TABLE_LEN + 8;
        let walked = walked_primes(len);
        assert_eq!(&prime_table()[..], &walked[..PRIME_TABLE_LEN]);
        assert_eq!(PrimeIterator::new().take(len).collect::<Vec<_>>(), walked);
    }

    #[test]
    fn cloned_iterator_continues_identically() {
        let walked = walked_primes(PRIME_TABLE_LEN + 8);
        // Clone mid-table, on the table's last prime, and past the table.
        for at in [
            1,
            PRIME_TABLE_LEN / 2,
            PRIME_TABLE_LEN - 1,
            PRIME_TABLE_LEN + 2,
        ] {
            let mut it = PrimeIterator::new();
            for p in &walked[..at] {
                assert_eq!(it.next(), Some(*p));
            }
            let fork = it.clone();
            let rest = walked.len() - at;
            assert_eq!(it.take(rest).collect::<Vec<_>>(), walked[at..]);
            assert_eq!(fork.take(rest).collect::<Vec<_>>(), walked[at..]);
        }
    }

    #[test]
    fn montgomery_roundtrip_and_identities() {
        let p = PrimeIterator::new().next().unwrap();
        let f = Fp64::new(p);
        for n in [0u64, 1, 2, 1234567, p - 1] {
            assert_eq!(f.from_montgomery(f.to_montgomery(n)), n);
        }
        assert_eq!(f.to_montgomery(1), f.one());
        assert_eq!(f.to_montgomery(0), f.zero());
        assert_eq!(f.from_i64(-1), f.neg(f.one()));
        assert_eq!(f.from_i64(i64::MIN), f.neg(f.to_montgomery(1 << 63)));
    }

    #[test]
    fn edge_elements_behave() {
        let p = PrimeIterator::new().next().unwrap();
        let f = Fp64::new(p);
        let one = f.one();
        let minus_one = f.to_montgomery(p - 1);
        // (p−1)² ≡ 1, (p−1) + 1 ≡ 0, 0·x ≡ 0, inverses of 1 and p−1.
        assert_eq!(f.mul(minus_one, minus_one), one);
        assert_eq!(f.add(minus_one, one), f.zero());
        assert_eq!(f.mul(f.zero(), minus_one), f.zero());
        assert_eq!(f.inv(one), one);
        assert_eq!(f.inv(minus_one), minus_one);
        assert_eq!(f.neg(f.zero()), f.zero());
        assert_eq!(f.pow(minus_one, p - 1), one); // Fermat
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_is_rejected() {
        Fp64::new(1 << 40);
    }

    /// A random odd 62-bit prime derived deterministically from a seed
    /// offset, by walking the fixed prime stream.
    fn prime_from_offset(offset: usize) -> u64 {
        PrimeIterator::new().nth(offset % 7).unwrap()
    }

    proptest! {
        /// Montgomery multiplication and inversion agree with naive u128
        /// modular arithmetic across random odd 62-bit primes — the same
        /// differential style as the small-rational promotion fuzz.
        #[test]
        fn prop_montgomery_matches_naive_u128(
            offset in 0usize..7,
            a in 0u64..u64::MAX,
            b in 0u64..u64::MAX,
        ) {
            let p = prime_from_offset(offset);
            let f = Fp64::new(p);
            let (ar, br) = (a % p, b % p);
            let (am, bm) = (f.to_montgomery(ar), f.to_montgomery(br));
            // Multiplication.
            prop_assert_eq!(f.from_montgomery(f.mul(am, bm)), naive_mul(ar, br, p));
            // Addition and subtraction.
            prop_assert_eq!(f.from_montgomery(f.add(am, bm)), ((ar as u128 + br as u128) % p as u128) as u64);
            prop_assert_eq!(
                f.from_montgomery(f.sub(am, bm)),
                ((ar as u128 + p as u128 - br as u128) % p as u128) as u64
            );
            // Inversion: a·a⁻¹ ≡ 1 for nonzero a.
            if ar != 0 {
                prop_assert_eq!(f.mul(am, f.inv(am)), f.one());
                prop_assert_eq!(f.from_montgomery(f.div(bm, am)), naive_mul(br, f.from_montgomery(f.inv(am)), p));
            }
        }

        /// Exponentiation matches the naive square-and-multiply reference.
        #[test]
        fn prop_pow_matches_naive(offset in 0usize..7, a in 0u64..u64::MAX, e in 0u64..4096) {
            let p = prime_from_offset(offset);
            let f = Fp64::new(p);
            let ar = a % p;
            prop_assert_eq!(f.from_montgomery(f.pow(f.to_montgomery(ar), e)), pow_mod(ar, e, p));
        }
    }
}
