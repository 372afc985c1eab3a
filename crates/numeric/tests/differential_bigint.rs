//! Differential proof of the 64-bit-limb `BigInt`.
//!
//! `BigInt` moved from base-2³² limbs in a `Vec<u32>` to base-2⁶⁴ limbs
//! stored inline up to four limbs. Every observable behaviour must stay
//! identical: values, decimal text, `Debug`, `to_f64` bit for bit, the
//! `to_i64`/`to_u64` results and errors, ordering, and the `Hash` byte
//! stream (cache ids hash `Rational` coefficients, whose big form holds two
//! `BigInt`s). This test keeps the base-2³² implementation verbatim as the
//! oracle ([`reference`]) and checks every public operation against it on
//! operands of 0–16 64-bit limbs, including the values 2^(64k) − 1, 2^(64k)
//! and 2^(64k) + 1 on both sides of the inline/heap boundary and gcd
//! operands with a planted common factor.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use symmap_numeric::{BigInt, Rational};

/// The base-2³² implementation `BigInt` had before the 64-bit limbs,
/// verbatim (the oracle).
#[allow(dead_code)]
mod reference {
    use std::cmp::Ordering;
    use std::fmt;
    use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
    use std::str::FromStr;

    use symmap_numeric::NumericError;

    /// Sign of a [`BigInt`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Sign {
        /// Strictly negative.
        Minus,
        /// Zero.
        Zero,
        /// Strictly positive.
        Plus,
    }

    /// An arbitrary-precision signed integer.
    ///
    /// The representation is sign-magnitude: `limbs` stores the magnitude in
    /// little-endian base-2³² with no trailing zero limbs; `sign` is
    /// `Sign::Zero` iff `limbs` is empty.
    #[derive(Clone, PartialEq, Eq, Hash)]
    pub struct BigInt {
        sign: Sign,
        limbs: Vec<u32>,
    }

    const BASE: u64 = 1 << 32;

    /// `gcd` over `u64` (binary, Stein); `gcd(0, x) == x`.
    pub(crate) fn gcd_u64(mut a: u64, mut b: u64) -> u64 {
        if a == 0 || b == 0 {
            return a | b;
        }
        let shift = (a | b).trailing_zeros();
        a >>= a.trailing_zeros();
        loop {
            b >>= b.trailing_zeros();
            if a > b {
                std::mem::swap(&mut a, &mut b);
            }
            b -= a;
            if b == 0 {
                return a << shift;
            }
        }
    }

    impl BigInt {
        /// The additive identity.
        pub fn zero() -> Self {
            BigInt {
                sign: Sign::Zero,
                limbs: Vec::new(),
            }
        }

        /// The multiplicative identity.
        pub fn one() -> Self {
            BigInt::from(1_i64)
        }

        /// Returns `true` if `self` is zero.
        pub fn is_zero(&self) -> bool {
            self.sign == Sign::Zero
        }

        /// Returns `true` if `self` is exactly one.
        pub fn is_one(&self) -> bool {
            self.sign == Sign::Plus && self.limbs.len() == 1 && self.limbs[0] == 1
        }

        /// Returns `true` if `self` is strictly negative.
        pub fn is_negative(&self) -> bool {
            self.sign == Sign::Minus
        }

        /// Returns `true` if `self` is strictly positive.
        pub fn is_positive(&self) -> bool {
            self.sign == Sign::Plus
        }

        /// Absolute value.
        pub fn abs(&self) -> Self {
            let mut r = self.clone();
            if r.sign == Sign::Minus {
                r.sign = Sign::Plus;
            }
            r
        }

        /// Sign as `-1`, `0` or `1`.
        pub fn signum(&self) -> i32 {
            match self.sign {
                Sign::Minus => -1,
                Sign::Zero => 0,
                Sign::Plus => 1,
            }
        }

        /// Number of bits in the magnitude (0 for zero).
        pub fn bits(&self) -> usize {
            Self::mag_bits(&self.limbs)
        }

        /// Converts to `i64` if the value fits.
        ///
        /// # Errors
        ///
        /// Returns [`NumericError::Overflow`] when the magnitude exceeds `i64`.
        pub fn to_i64(&self) -> Result<i64, NumericError> {
            if self.is_zero() {
                return Ok(0);
            }
            if self.limbs.len() > 2 {
                return Err(NumericError::Overflow(self.to_string()));
            }
            let mut mag: u128 = 0;
            for (i, &l) in self.limbs.iter().enumerate() {
                mag |= (l as u128) << (32 * i);
            }
            match self.sign {
                Sign::Plus if mag <= i64::MAX as u128 => Ok(mag as i64),
                Sign::Minus if mag <= i64::MAX as u128 + 1 => {
                    Ok((mag as i128).wrapping_neg() as i64)
                }
                _ => Err(NumericError::Overflow(self.to_string())),
            }
        }

        /// Converts to `u64` if the value is non-negative and fits.
        ///
        /// # Errors
        ///
        /// Returns [`NumericError::Overflow`] for negative values or magnitudes
        /// exceeding `u64`.
        pub fn to_u64(&self) -> Result<u64, NumericError> {
            if self.is_negative() || self.limbs.len() > 2 {
                return Err(NumericError::Overflow(self.to_string()));
            }
            let mut mag: u64 = 0;
            for (i, &l) in self.limbs.iter().enumerate() {
                mag |= (l as u64) << (32 * i);
            }
            Ok(mag)
        }

        /// Lossy conversion to `f64`.
        pub fn to_f64(&self) -> f64 {
            let mut v = 0.0_f64;
            for &l in self.limbs.iter().rev() {
                v = v * BASE as f64 + l as f64;
            }
            if self.sign == Sign::Minus {
                -v
            } else {
                v
            }
        }

        fn from_limbs(sign: Sign, mut limbs: Vec<u32>) -> Self {
            while limbs.last() == Some(&0) {
                limbs.pop();
            }
            if limbs.is_empty() {
                BigInt::zero()
            } else {
                BigInt { sign, limbs }
            }
        }

        fn cmp_mag(a: &[u32], b: &[u32]) -> Ordering {
            if a.len() != b.len() {
                return a.len().cmp(&b.len());
            }
            for i in (0..a.len()).rev() {
                match a[i].cmp(&b[i]) {
                    Ordering::Equal => {}
                    o => return o,
                }
            }
            Ordering::Equal
        }

        fn add_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
            let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
            let mut out = Vec::with_capacity(long.len() + 1);
            let mut carry = 0_u64;
            for (i, &limb) in long.iter().enumerate() {
                let s = limb as u64 + *short.get(i).unwrap_or(&0) as u64 + carry;
                out.push((s % BASE) as u32);
                carry = s / BASE;
            }
            if carry > 0 {
                out.push(carry as u32);
            }
            out
        }

        /// Subtracts magnitudes, requires `a >= b`.
        fn sub_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
            debug_assert!(Self::cmp_mag(a, b) != Ordering::Less);
            let mut out = Vec::with_capacity(a.len());
            let mut borrow = 0_i64;
            for (i, &limb) in a.iter().enumerate() {
                let mut d = limb as i64 - *b.get(i).unwrap_or(&0) as i64 - borrow;
                if d < 0 {
                    d += BASE as i64;
                    borrow = 1;
                } else {
                    borrow = 0;
                }
                out.push(d as u32);
            }
            while out.last() == Some(&0) {
                out.pop();
            }
            out
        }

        fn mul_mag(a: &[u32], b: &[u32]) -> Vec<u32> {
            if a.is_empty() || b.is_empty() {
                return Vec::new();
            }
            let mut out = vec![0_u32; a.len() + b.len()];
            for (i, &ai) in a.iter().enumerate() {
                if ai == 0 {
                    continue;
                }
                let mut carry = 0_u64;
                for (j, &bj) in b.iter().enumerate() {
                    let cur = out[i + j] as u64 + ai as u64 * bj as u64 + carry;
                    out[i + j] = (cur % BASE) as u32;
                    carry = cur / BASE;
                }
                let mut k = i + b.len();
                while carry > 0 {
                    let cur = out[k] as u64 + carry;
                    out[k] = (cur % BASE) as u32;
                    carry = cur / BASE;
                    k += 1;
                }
            }
            while out.last() == Some(&0) {
                out.pop();
            }
            out
        }

        /// Divides magnitude by a single u32, returning (quotient, remainder).
        fn divrem_mag_small(a: &[u32], d: u32) -> (Vec<u32>, u32) {
            let mut q = vec![0_u32; a.len()];
            let mut rem = 0_u64;
            for i in (0..a.len()).rev() {
                let cur = rem * BASE + a[i] as u64;
                q[i] = (cur / d as u64) as u32;
                rem = cur % d as u64;
            }
            while q.last() == Some(&0) {
                q.pop();
            }
            (q, rem as u32)
        }

        /// Schoolbook long division of magnitudes: returns (quotient, remainder).
        fn divrem_mag(a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<u32>) {
            assert!(!b.is_empty(), "division by zero magnitude");
            if Self::cmp_mag(a, b) == Ordering::Less {
                return (Vec::new(), a.to_vec());
            }
            if b.len() == 1 {
                let (q, r) = Self::divrem_mag_small(a, b[0]);
                return (q, if r == 0 { Vec::new() } else { vec![r] });
            }
            // Knuth algorithm D with normalization.
            let shift = b.last().unwrap().leading_zeros();
            let bn = Self::shl_bits(b, shift);
            let mut an = Self::shl_bits(a, shift);
            an.push(0);
            let n = bn.len();
            let m = an.len() - n;
            let mut q = vec![0_u32; m];
            let btop = bn[n - 1] as u64;
            let bsec = if n >= 2 { bn[n - 2] as u64 } else { 0 };
            for j in (0..m).rev() {
                let num = (an[j + n] as u64) * BASE + an[j + n - 1] as u64;
                let mut qhat = num / btop;
                let mut rhat = num % btop;
                while qhat >= BASE
                    || qhat * bsec > rhat * BASE + if j + n >= 2 { an[j + n - 2] as u64 } else { 0 }
                {
                    qhat -= 1;
                    rhat += btop;
                    if rhat >= BASE {
                        break;
                    }
                }
                // Multiply and subtract.
                let mut borrow = 0_i64;
                let mut carry = 0_u64;
                for i in 0..n {
                    let p = qhat * bn[i] as u64 + carry;
                    carry = p / BASE;
                    let sub = an[j + i] as i64 - (p % BASE) as i64 - borrow;
                    if sub < 0 {
                        an[j + i] = (sub + BASE as i64) as u32;
                        borrow = 1;
                    } else {
                        an[j + i] = sub as u32;
                        borrow = 0;
                    }
                }
                let sub = an[j + n] as i64 - carry as i64 - borrow;
                if sub < 0 {
                    // qhat was one too large: add back.
                    an[j + n] = (sub + BASE as i64) as u32;
                    qhat -= 1;
                    let mut c = 0_u64;
                    for i in 0..n {
                        let s = an[j + i] as u64 + bn[i] as u64 + c;
                        an[j + i] = (s % BASE) as u32;
                        c = s / BASE;
                    }
                    an[j + n] = an[j + n].wrapping_add(c as u32);
                } else {
                    an[j + n] = sub as u32;
                }
                q[j] = qhat as u32;
            }
            while q.last() == Some(&0) {
                q.pop();
            }
            let mut rem = an[..n].to_vec();
            while rem.last() == Some(&0) {
                rem.pop();
            }
            let rem = Self::shr_bits(&rem, shift);
            (q, rem)
        }

        fn shl_bits(a: &[u32], bits: u32) -> Vec<u32> {
            if bits == 0 {
                return a.to_vec();
            }
            let mut out = Vec::with_capacity(a.len() + 1);
            let mut carry = 0_u32;
            for &l in a {
                out.push((l << bits) | carry);
                carry = l >> (32 - bits);
            }
            if carry > 0 {
                out.push(carry);
            }
            out
        }

        fn shr_bits(a: &[u32], bits: u32) -> Vec<u32> {
            if bits == 0 {
                return a.to_vec();
            }
            let mut out = vec![0_u32; a.len()];
            for i in 0..a.len() {
                out[i] = a[i] >> bits;
                if i + 1 < a.len() {
                    out[i] |= a[i + 1] << (32 - bits);
                }
            }
            while out.last() == Some(&0) {
                out.pop();
            }
            out
        }

        /// Euclidean-style division returning `(quotient, remainder)` with the
        /// remainder carrying the sign of the dividend (truncated division, like
        /// Rust's `/` and `%` on primitive integers).
        ///
        /// # Panics
        ///
        /// Panics if `other` is zero.
        pub fn div_rem(&self, other: &BigInt) -> (BigInt, BigInt) {
            assert!(!other.is_zero(), "division by zero");
            if self.is_zero() {
                return (BigInt::zero(), BigInt::zero());
            }
            let (qm, rm) = Self::divrem_mag(&self.limbs, &other.limbs);
            let qsign = if qm.is_empty() {
                Sign::Zero
            } else if self.sign == other.sign {
                Sign::Plus
            } else {
                Sign::Minus
            };
            let rsign = if rm.is_empty() { Sign::Zero } else { self.sign };
            (BigInt::from_limbs(qsign, qm), BigInt::from_limbs(rsign, rm))
        }

        /// Greatest common divisor (always non-negative).
        ///
        /// Lehmer's algorithm (Knuth, TAOCP vol. 2, §4.5.2, Algorithm L): the
        /// Euclidean quotient sequence is run on the leading 62 bits of the
        /// operands, accumulating a 2×2 cofactor matrix, and the matrix is then
        /// applied to the full operands in one in-place pass — one
        /// multiprecision step instead of a run of schoolbook divisions. A
        /// single `div_rem` handles the case where the leading bits cannot
        /// certify even one quotient. Once the smaller operand fits a `u64` the
        /// rest is word arithmetic.
        pub fn gcd(&self, other: &BigInt) -> BigInt {
            let (mut u, mut v) = match Self::cmp_mag(&self.limbs, &other.limbs) {
                Ordering::Less => (other.limbs.clone(), self.limbs.clone()),
                _ => (self.limbs.clone(), other.limbs.clone()),
            };
            // Invariant: u >= v, both magnitudes without trailing zero limbs.
            while v.len() > 2 {
                let [a, b, c, d] = Self::lehmer_cosequence(&u, &v);
                if b == 0 {
                    let (_, r) = Self::divrem_mag(&u, &v);
                    u = std::mem::replace(&mut v, r);
                } else {
                    Self::lehmer_apply(&mut u, &mut v, [a, b, c, d]);
                }
            }
            let small = Self::mag_u64(&v);
            if small == 0 {
                return BigInt::from_limbs(Sign::Plus, u);
            }
            BigInt::from(gcd_u64(small, Self::rem_mag_u64(&u, small)))
        }

        /// One Lehmer step on `(u, v)` with `u > v > 0`, for callers that track
        /// the Euclidean cosequence themselves: the certified cofactors
        /// `[A, B, C, D]` with the consecutive remainders `(A·u + B·v,
        /// C·u + D·v)`. `None` when `v` fits two limbs or the leading bits
        /// certify no quotient — then take a plain `div_rem` step.
        pub(crate) fn lehmer_step(u: &BigInt, v: &BigInt) -> Option<([i128; 4], BigInt, BigInt)> {
            debug_assert!(u > v && v.is_positive());
            if v.limbs.len() <= 2 {
                return None;
            }
            let cofactors = Self::lehmer_cosequence(&u.limbs, &v.limbs);
            if cofactors[1] == 0 {
                return None;
            }
            let (mut nu, mut nv) = (u.limbs.clone(), v.limbs.clone());
            Self::lehmer_apply(&mut nu, &mut nv, cofactors);
            Some((
                cofactors,
                BigInt::from_limbs(Sign::Plus, nu),
                BigInt::from_limbs(Sign::Plus, nv),
            ))
        }

        /// Knuth's Algorithm L, steps L2–L3: runs the quotient sequence of
        /// `(û, v̂)` — `u` and `v` shifted right so that `û` keeps 62 bits —
        /// and returns the cofactors `[A, B, C, D]` of every step whose
        /// quotient is certified exact for the full operands, i.e. identical
        /// for both bracketing ratios `(û + A)/(v̂ + C)` and `(û + B)/(v̂ + D)`.
        /// `B == 0` means no step was certified.
        fn lehmer_cosequence(u: &[u32], v: &[u32]) -> [i128; 4] {
            let shift = Self::mag_bits(u).saturating_sub(62);
            let mut uh = Self::mag_shr_u64(u, shift) as i128;
            let mut vh = Self::mag_shr_u64(v, shift) as i128;
            let (mut a, mut b, mut c, mut d) = (1_i128, 0_i128, 0_i128, 1_i128);
            // The brackets lie in [0, 2⁶³] (Knuth), so the quotients are u64
            // divisions. Stopping early is always safe — every step taken so far
            // was certified — so a bracket outside u64 or a zero divisor simply
            // ends the run.
            while let (Ok(num_a), Ok(den_c), Ok(num_b), Ok(den_d)) = (
                u64::try_from(uh + a),
                u64::try_from(vh + c),
                u64::try_from(uh + b),
                u64::try_from(vh + d),
            ) {
                if den_c == 0 || den_d == 0 || num_a / den_c != num_b / den_d {
                    break;
                }
                let q = (num_a / den_c) as i128;
                (a, c) = (c, a - q * c);
                (b, d) = (d, b - q * d);
                (uh, vh) = (vh, uh - q * vh);
            }
            [a, b, c, d]
        }

        /// Knuth's Algorithm L, step L4: replaces `(u, v)` by
        /// `(A·u + B·v, C·u + D·v)` in one pass over the limbs, without
        /// allocating. The cofactors come from a certified cosequence, so both
        /// results are non-negative consecutive remainders with `u > v`.
        fn lehmer_apply(u: &mut Vec<u32>, v: &mut Vec<u32>, [a, b, c, d]: [i128; 4]) {
            v.resize(u.len(), 0);
            let (mut carry_u, mut carry_v) = (0_i128, 0_i128);
            for (ui, vi) in u.iter_mut().zip(v.iter_mut()) {
                let (x, y) = (*ui as i128, *vi as i128);
                // Cofactors stay below 2⁶⁴ in magnitude and limbs below 2³², so
                // every sum stays far inside i128; the arithmetic shift floors
                // the signed carry.
                let nu = a * x + b * y + carry_u;
                let nv = c * x + d * y + carry_v;
                *ui = nu as u32;
                *vi = nv as u32;
                carry_u = nu >> 32;
                carry_v = nv >> 32;
            }
            debug_assert!(carry_u == 0 && carry_v == 0, "cosequence left a carry");
            for limbs in [u, v] {
                while limbs.last() == Some(&0) {
                    limbs.pop();
                }
            }
        }

        /// Number of significant bits of a trimmed magnitude.
        fn mag_bits(a: &[u32]) -> usize {
            a.last()
                .map_or(0, |&top| a.len() * 32 - top.leading_zeros() as usize)
        }

        /// The magnitude shifted right by `shift` bits, truncated to 64 bits.
        fn mag_shr_u64(a: &[u32], shift: usize) -> u64 {
            let (limb, bit) = (shift / 32, shift % 32);
            let window = a
                .iter()
                .skip(limb)
                .take(3)
                .rev()
                .fold(0_u128, |acc, &l| (acc << 32) | l as u128);
            (window >> bit) as u64
        }

        /// A magnitude of at most two limbs as a `u64`.
        fn mag_u64(a: &[u32]) -> u64 {
            debug_assert!(a.len() <= 2);
            a.iter().rev().fold(0, |acc, &l| (acc << 32) | l as u64)
        }

        /// Remainder of a magnitude modulo a nonzero `u64` (Horner over the
        /// limbs, high limb first; the accumulator stays below m·2³², so a
        /// one-limb modulus never leaves u64).
        fn rem_mag_u64(a: &[u32], m: u64) -> u64 {
            if m <= u32::MAX as u64 {
                return a
                    .iter()
                    .rev()
                    .fold(0, |acc, &l| ((acc << 32) | l as u64) % m);
            }
            let m = m as u128;
            a.iter()
                .rev()
                .fold(0_u128, |acc, &l| ((acc << 32) | l as u128) % m) as u64
        }

        /// Least common multiple (always non-negative); zero if either input is zero.
        pub fn lcm(&self, other: &BigInt) -> BigInt {
            if self.is_zero() || other.is_zero() {
                return BigInt::zero();
            }
            let g = self.gcd(other);
            let (q, _) = self.abs().div_rem(&g);
            &q * &other.abs()
        }

        /// Raises `self` to the power `exp`.
        pub fn pow(&self, exp: u32) -> BigInt {
            let mut base = self.clone();
            let mut result = BigInt::one();
            let mut e = exp;
            while e > 0 {
                if e & 1 == 1 {
                    result = &result * &base;
                }
                base = &base * &base;
                e >>= 1;
            }
            result
        }

        /// Least non-negative residue of `self` modulo `m`: the value in
        /// `0..m` congruent to `self`. Used to localize rational coefficients
        /// into ℤ/p without materialising a quotient.
        ///
        /// # Panics
        ///
        /// Panics when `m == 0`.
        pub fn mod_u64(&self, m: u64) -> u64 {
            assert!(m > 0, "modulus must be positive");
            let r = Self::rem_mag_u64(&self.limbs, m);
            if self.is_negative() && r != 0 {
                m - r
            } else {
                r
            }
        }
    }

    impl Default for BigInt {
        fn default() -> Self {
            BigInt::zero()
        }
    }

    impl From<i64> for BigInt {
        fn from(v: i64) -> Self {
            if v == 0 {
                return BigInt::zero();
            }
            let sign = if v < 0 { Sign::Minus } else { Sign::Plus };
            let mag = (v as i128).unsigned_abs();
            let mut limbs = vec![(mag & 0xFFFF_FFFF) as u32];
            if mag >> 32 != 0 {
                limbs.push((mag >> 32) as u32);
            }
            BigInt::from_limbs(sign, limbs)
        }
    }

    impl From<i32> for BigInt {
        fn from(v: i32) -> Self {
            BigInt::from(v as i64)
        }
    }

    impl From<u64> for BigInt {
        fn from(v: u64) -> Self {
            if v == 0 {
                return BigInt::zero();
            }
            let mut limbs = vec![(v & 0xFFFF_FFFF) as u32];
            if v >> 32 != 0 {
                limbs.push((v >> 32) as u32);
            }
            BigInt::from_limbs(Sign::Plus, limbs)
        }
    }

    impl From<u128> for BigInt {
        fn from(v: u128) -> Self {
            let mut limbs = Vec::with_capacity(4);
            let mut rest = v;
            while rest != 0 {
                limbs.push((rest & 0xFFFF_FFFF) as u32);
                rest >>= 32;
            }
            BigInt::from_limbs(Sign::Plus, limbs)
        }
    }

    impl From<i128> for BigInt {
        fn from(v: i128) -> Self {
            let mag = BigInt::from(v.unsigned_abs());
            if v < 0 {
                -mag
            } else {
                mag
            }
        }
    }

    impl FromStr for BigInt {
        type Err = NumericError;

        fn from_str(s: &str) -> Result<Self, Self::Err> {
            let s = s.trim();
            let (neg, digits) = match s.strip_prefix('-') {
                Some(rest) => (true, rest),
                None => (false, s.strip_prefix('+').unwrap_or(s)),
            };
            if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
                return Err(NumericError::Parse(s.to_string()));
            }
            let mut v = BigInt::zero();
            let ten = BigInt::from(10_i64);
            for b in digits.bytes() {
                v = &v * &ten + BigInt::from((b - b'0') as i64);
            }
            if neg {
                v = -v;
            }
            Ok(v)
        }
    }

    impl fmt::Display for BigInt {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            if self.is_zero() {
                return write!(f, "0");
            }
            let mut digits = Vec::new();
            let mut mag = self.limbs.clone();
            while !mag.is_empty() {
                let (q, r) = BigInt::divrem_mag_small(&mag, 1_000_000_000);
                digits.push(r);
                mag = q;
            }
            let mut s = String::new();
            if self.sign == Sign::Minus {
                s.push('-');
            }
            s.push_str(&digits.last().unwrap().to_string());
            for d in digits.iter().rev().skip(1) {
                s.push_str(&format!("{d:09}"));
            }
            write!(f, "{s}")
        }
    }

    impl fmt::Debug for BigInt {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "BigInt({self})")
        }
    }

    impl PartialOrd for BigInt {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for BigInt {
        fn cmp(&self, other: &Self) -> Ordering {
            use Sign::*;
            match (self.sign, other.sign) {
                (Minus, Minus) => Self::cmp_mag(&other.limbs, &self.limbs),
                (Minus, _) => Ordering::Less,
                (Zero, Minus) => Ordering::Greater,
                (Zero, Zero) => Ordering::Equal,
                (Zero, Plus) => Ordering::Less,
                (Plus, Plus) => Self::cmp_mag(&self.limbs, &other.limbs),
                (Plus, _) => Ordering::Greater,
            }
        }
    }

    impl Neg for Sign {
        type Output = Sign;
        fn neg(self) -> Sign {
            match self {
                Sign::Minus => Sign::Plus,
                Sign::Zero => Sign::Zero,
                Sign::Plus => Sign::Minus,
            }
        }
    }

    impl Neg for BigInt {
        type Output = BigInt;
        fn neg(mut self) -> BigInt {
            self.sign = -self.sign;
            self
        }
    }

    impl Neg for &BigInt {
        type Output = BigInt;
        fn neg(self) -> BigInt {
            -self.clone()
        }
    }

    impl BigInt {
        /// `self + rhs` where `rhs` carries `rhs_sign` instead of its own sign,
        /// so subtraction needs no negated copy of its operand.
        fn add_with_sign(&self, rhs: &BigInt, rhs_sign: Sign) -> BigInt {
            use Sign::*;
            match (self.sign, rhs_sign) {
                (Zero, _) => BigInt {
                    sign: rhs_sign,
                    limbs: rhs.limbs.clone(),
                },
                (_, Zero) => self.clone(),
                (a, b) if a == b => BigInt::from_limbs(a, BigInt::add_mag(&self.limbs, &rhs.limbs)),
                _ => match BigInt::cmp_mag(&self.limbs, &rhs.limbs) {
                    Ordering::Equal => BigInt::zero(),
                    Ordering::Greater => {
                        BigInt::from_limbs(self.sign, BigInt::sub_mag(&self.limbs, &rhs.limbs))
                    }
                    Ordering::Less => {
                        BigInt::from_limbs(rhs_sign, BigInt::sub_mag(&rhs.limbs, &self.limbs))
                    }
                },
            }
        }
    }

    impl Add for &BigInt {
        type Output = BigInt;
        fn add(self, rhs: &BigInt) -> BigInt {
            self.add_with_sign(rhs, rhs.sign)
        }
    }

    impl Add for BigInt {
        type Output = BigInt;
        fn add(self, rhs: BigInt) -> BigInt {
            &self + &rhs
        }
    }

    impl Add<BigInt> for &BigInt {
        type Output = BigInt;
        fn add(self, rhs: BigInt) -> BigInt {
            self + &rhs
        }
    }

    impl Add<&BigInt> for BigInt {
        type Output = BigInt;
        fn add(self, rhs: &BigInt) -> BigInt {
            &self + rhs
        }
    }

    impl AddAssign<&BigInt> for BigInt {
        fn add_assign(&mut self, rhs: &BigInt) {
            *self = &*self + rhs;
        }
    }

    impl Sub for &BigInt {
        type Output = BigInt;
        fn sub(self, rhs: &BigInt) -> BigInt {
            self.add_with_sign(rhs, -rhs.sign)
        }
    }

    impl Sub for BigInt {
        type Output = BigInt;
        fn sub(self, rhs: BigInt) -> BigInt {
            &self - &rhs
        }
    }

    impl SubAssign<&BigInt> for BigInt {
        fn sub_assign(&mut self, rhs: &BigInt) {
            *self = &*self - rhs;
        }
    }

    impl Mul for &BigInt {
        type Output = BigInt;
        fn mul(self, rhs: &BigInt) -> BigInt {
            if self.is_zero() || rhs.is_zero() {
                return BigInt::zero();
            }
            let sign = if self.sign == rhs.sign {
                Sign::Plus
            } else {
                Sign::Minus
            };
            BigInt::from_limbs(sign, BigInt::mul_mag(&self.limbs, &rhs.limbs))
        }
    }

    impl Mul for BigInt {
        type Output = BigInt;
        fn mul(self, rhs: BigInt) -> BigInt {
            &self * &rhs
        }
    }

    impl MulAssign<&BigInt> for BigInt {
        fn mul_assign(&mut self, rhs: &BigInt) {
            *self = &*self * rhs;
        }
    }

    impl Div for &BigInt {
        type Output = BigInt;
        fn div(self, rhs: &BigInt) -> BigInt {
            self.div_rem(rhs).0
        }
    }

    impl Div for BigInt {
        type Output = BigInt;
        fn div(self, rhs: BigInt) -> BigInt {
            &self / &rhs
        }
    }

    impl Rem for &BigInt {
        type Output = BigInt;
        fn rem(self, rhs: &BigInt) -> BigInt {
            self.div_rem(rhs).1
        }
    }

    impl Rem for BigInt {
        type Output = BigInt;
        fn rem(self, rhs: BigInt) -> BigInt {
            &self % &rhs
        }
    }
}

use reference::BigInt as RefBigInt;

/// The mirror of `Rational`'s layout over the oracle integers: the derived
/// `Hash` of this shape is the byte stream `Rational` must keep feeding.
#[derive(Hash)]
enum RefRepr {
    Small { num: i64, den: u64 },
    Big(Box<(RefBigInt, RefBigInt)>),
}

#[derive(Hash)]
struct RefRational {
    repr: RefRepr,
}

/// The same value under both implementations, each built by its own
/// arithmetic from little-endian 64-bit limbs.
#[derive(Clone)]
struct Pair {
    new: BigInt,
    old: RefBigInt,
}

impl Pair {
    fn from_limbs(negative: bool, limbs: &[u64]) -> Pair {
        let (new_base, old_base) = (BigInt::from(1_u128 << 64), RefBigInt::from(1_u128 << 64));
        let mut pair = Pair {
            new: BigInt::zero(),
            old: RefBigInt::zero(),
        };
        for &l in limbs.iter().rev() {
            pair.new = &(&pair.new * &new_base) + &BigInt::from(l);
            pair.old = &(&pair.old * &old_base) + &RefBigInt::from(l);
        }
        if negative {
            pair.new = -pair.new;
            pair.old = -pair.old;
        }
        pair.assert_same("from_limbs");
        pair
    }

    /// An operand shape: random limbs with the top one shifted right by
    /// `shape / 8` bits (so every bit length occurs, which `to_f64`'s
    /// rounding needs), or 2^(64k) − 1, 2^(64k) or 2^(64k) + 1 with `k`
    /// the limb count.
    fn shaped(shape: u8, negative: bool, limbs: &[u64]) -> Pair {
        let k = limbs.len();
        match shape % 8 {
            0..=4 => {
                let mut l = limbs.to_vec();
                if let Some(top) = l.last_mut() {
                    *top >>= shape / 8;
                }
                Pair::from_limbs(negative, &l)
            }
            5 => Pair::from_limbs(negative, &vec![u64::MAX; k]),
            6 => {
                let mut l = vec![0; k];
                l.push(1);
                Pair::from_limbs(negative, &l)
            }
            7 => {
                let mut l = vec![0; k];
                l.push(1);
                if let Some(first) = l.first_mut() {
                    *first += 1;
                }
                Pair::from_limbs(negative, &l)
            }
            _ => unreachable!("shape % 8 < 8"),
        }
    }

    fn assert_same(&self, what: &str) {
        assert_eq!(self.new.to_string(), self.old.to_string(), "{what}");
    }
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// `Ok` values and `Err` messages, as text.
fn result_text<T: std::fmt::Display, E: std::fmt::Display>(r: Result<T, E>) -> String {
    match r {
        Ok(v) => format!("ok {v}"),
        Err(e) => format!("err {e}"),
    }
}

/// Every unary observation of one value.
fn check_unary(p: &Pair) {
    let (n, o) = (&p.new, &p.old);
    assert_eq!(n.to_string(), o.to_string());
    assert_eq!(format!("{n:?}"), format!("{o:?}"));
    assert_eq!(n.to_f64().to_bits(), o.to_f64().to_bits(), "to_f64({o})");
    assert_eq!(result_text(n.to_i64()), result_text(o.to_i64()));
    assert_eq!(result_text(n.to_u64()), result_text(o.to_u64()));
    assert_eq!(hash_of(n), hash_of(o), "hash({o})");
    assert_eq!(n.bits(), o.bits());
    assert_eq!(n.signum(), o.signum());
    assert_eq!(
        (n.is_zero(), n.is_one(), n.is_negative(), n.is_positive()),
        (o.is_zero(), o.is_one(), o.is_negative(), o.is_positive())
    );
    assert_eq!(n.abs().to_string(), o.abs().to_string());
    assert_eq!((-n).to_string(), (-o).to_string());
    for m in [
        1,
        2,
        3,
        10,
        1_000_000_007,
        u32::MAX as u64,
        1 << 32,
        u64::MAX,
    ] {
        assert_eq!(n.mod_u64(m), o.mod_u64(m), "{o} mod {m}");
    }
    for e in 0..4 {
        assert_eq!(n.pow(e).to_string(), o.pow(e).to_string(), "{o}^{e}");
    }
    let text = o.to_string();
    for t in [text.clone(), format!("  {text} "), format!("+{text}")] {
        let parsed: Result<BigInt, _> = t.parse();
        let expected: Result<RefBigInt, _> = t.parse();
        assert_eq!(result_text(parsed), result_text(expected), "parse {t:?}");
    }
}

/// Every binary operation on one pair of values.
fn check_binary(a: &Pair, b: &Pair) {
    let (an, ao, bn, bo) = (&a.new, &a.old, &b.new, &b.old);
    let what = format!("({ao}, {bo})");
    assert_eq!((an + bn).to_string(), (ao + bo).to_string(), "add {what}");
    assert_eq!((an - bn).to_string(), (ao - bo).to_string(), "sub {what}");
    assert_eq!((an * bn).to_string(), (ao * bo).to_string(), "mul {what}");
    assert_eq!(an.cmp(bn), ao.cmp(bo), "cmp {what}");
    assert_eq!(an == bn, ao == bo, "eq {what}");
    assert_eq!(an.gcd(bn).to_string(), ao.gcd(bo).to_string(), "gcd {what}");
    assert_eq!(an.lcm(bn).to_string(), ao.lcm(bo).to_string(), "lcm {what}");
    let (mut s, mut d, mut m) = (an.clone(), an.clone(), an.clone());
    s += bn;
    d -= bn;
    m *= bn;
    assert_eq!(s.to_string(), (ao + bo).to_string(), "+= {what}");
    assert_eq!(d.to_string(), (ao - bo).to_string(), "-= {what}");
    assert_eq!(m.to_string(), (ao * bo).to_string(), "*= {what}");
    assert_eq!(
        (an.clone() + bn.clone()).to_string(),
        (ao.clone() + bo.clone()).to_string()
    );
    assert_eq!(
        (an.clone() - bn.clone()).to_string(),
        (ao.clone() - bo.clone()).to_string()
    );
    if !bo.is_zero() {
        let (qn, rn) = an.div_rem(bn);
        let (qo, ro) = ao.div_rem(bo);
        assert_eq!(
            (qn.to_string(), rn.to_string()),
            (qo.to_string(), ro.to_string()),
            "div_rem {what}"
        );
        assert_eq!((an / bn).to_string(), qo.to_string());
        assert_eq!((an % bn).to_string(), ro.to_string());
        check_rational_hash(a, b);
    }
}

/// `Rational`'s hash of `a / b` against the mirror layout over the oracle.
fn check_rational_hash(a: &Pair, b: &Pair) {
    let r = Rational::from_bigints(a.new.clone(), b.new.clone());
    let (mut num, mut den) = (a.old.clone(), b.old.clone());
    if den.is_negative() {
        (num, den) = (-num, -den);
    }
    let g = num.gcd(&den);
    if !num.is_zero() {
        (num, den) = (&num / &g, &den / &g);
    } else {
        den = RefBigInt::one();
    }
    let repr = match (num.to_i64(), den.to_u64()) {
        (Ok(num), Ok(den)) => RefRepr::Small { num, den },
        _ => RefRepr::Big(Box::new((num, den))),
    };
    assert_eq!(
        r.small_parts().is_some(),
        matches!(repr, RefRepr::Small { .. })
    );
    assert_eq!(hash_of(&r), hash_of(&RefRational { repr }), "hash of {r}");
}

#[test]
fn boundary_values_match_the_oracle() {
    let mut values = vec![Pair::from_limbs(false, &[])];
    for k in 0..=16 {
        for shape in [5, 6, 7] {
            for negative in [false, true] {
                values.push(Pair::shaped(shape, negative, &vec![0; k]));
            }
        }
    }
    for v in [i64::MIN, i64::MIN + 1, -1, 1, i64::MAX] {
        let (new, old) = (BigInt::from(v), RefBigInt::from(v));
        values.push(Pair { new, old });
    }
    for v in [i128::MIN, i128::MAX, 1 << 64, -(1 << 64)] {
        let (new, old) = (BigInt::from(v), RefBigInt::from(v));
        values.push(Pair { new, old });
    }
    values.push(Pair {
        new: BigInt::from(u128::MAX),
        old: RefBigInt::from(u128::MAX),
    });
    // A value whose `to_f64` differs between accumulating 32-bit halves
    // (the contract) and whole 64-bit limbs.
    values.push(Pair::from_limbs(false, &[0xf9ca_38d9_8761_21ba, 0x3d_2205]));
    for v in &values {
        v.assert_same("boundary value");
        check_unary(v);
    }
    for a in &values {
        for b in values.iter().step_by(3) {
            check_binary(a, b);
        }
    }
}

#[test]
fn small_integer_conversions_match_the_oracle() {
    for v in [0_i64, 1, -1, 42, i64::MAX, i64::MIN, 1 << 32, -(1 << 40)] {
        assert_eq!(BigInt::from(v).to_string(), RefBigInt::from(v).to_string());
        let v32 = v as i32;
        assert_eq!(
            BigInt::from(v32).to_string(),
            RefBigInt::from(v32).to_string()
        );
    }
    for bad in ["", "-", "+", "12a3", "--3", " - 3", "1_000"] {
        assert_eq!(
            result_text(bad.parse::<BigInt>()),
            result_text(bad.parse::<RefBigInt>()),
            "parse {bad:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every operation on random and boundary-shaped operands of 0–16
    /// limbs, every sign.
    #[test]
    fn prop_operations_match_the_oracle(
        a in proptest::collection::vec(any::<u64>(), 0..17),
        b in proptest::collection::vec(any::<u64>(), 0..17),
        shapes in (any::<u8>(), any::<u8>()),
        signs in (any::<bool>(), any::<bool>()),
    ) {
        let a = Pair::shaped(shapes.0, signs.0, &a);
        let b = Pair::shaped(shapes.1, signs.1, &b);
        check_unary(&a);
        check_unary(&b);
        check_binary(&a, &b);
        check_binary(&b, &a);
    }

    /// gcd and exact division with a planted common factor of 0–3 limbs.
    #[test]
    fn prop_gcd_with_planted_factor_matches_the_oracle(
        a in proptest::collection::vec(any::<u64>(), 0..17),
        b in proptest::collection::vec(any::<u64>(), 0..17),
        factor in proptest::collection::vec(any::<u64>(), 0..4),
        signs in (any::<bool>(), any::<bool>()),
    ) {
        let f = Pair::from_limbs(false, &factor);
        let (a, b) = (Pair::from_limbs(signs.0, &a), Pair::from_limbs(signs.1, &b));
        let fa = Pair { new: &a.new * &f.new, old: &a.old * &f.old };
        let fb = Pair { new: &b.new * &f.new, old: &b.old * &f.old };
        fa.assert_same("a·f");
        fb.assert_same("b·f");
        check_binary(&fa, &fb);
        if !f.old.is_zero() {
            check_binary(&fa, &f);
        }
    }

    /// Mixed widths: a long operand against a word-sized one.
    #[test]
    fn prop_word_operands_match_the_oracle(
        a in proptest::collection::vec(any::<u64>(), 0..17),
        w in any::<u64>(),
        signs in (any::<bool>(), any::<bool>()),
    ) {
        let a = Pair::from_limbs(signs.0, &a);
        let w = Pair::from_limbs(signs.1, &[w]);
        check_binary(&a, &w);
        check_binary(&w, &a);
    }
}
