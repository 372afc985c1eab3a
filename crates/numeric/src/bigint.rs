//! Arbitrary-precision signed integers.
//!
//! Polynomial coefficients blow up quickly under Gröbner-basis reduction, so
//! fixed-width integers are not an option. [`BigInt`] is a compact
//! sign-magnitude implementation over base-2³² limbs with the operations the
//! algebra engine needs: ring arithmetic, Euclidean division, gcd, comparison,
//! decimal formatting/parsing and small-integer interop.
//!
//! ```
//! use symmap_numeric::bigint::BigInt;
//!
//! let a = BigInt::from(1_000_000_007_i64);
//! let b = &a * &a;
//! assert_eq!(b.to_string(), "1000000014000000049");
//! ```

// lint:allow-file(D3): to_f64/approximate conversions are the declared
// float *exit* boundary (reporting only); all arithmetic is exact limbs.
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Rem, Sub, SubAssign};
use std::str::FromStr;

use crate::error::NumericError;

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
            Sign::Minus if mag <= i64::MAX as u128 + 1 => Ok((mag as i128).wrapping_neg() as i64),
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Schoolbook Euclid over `div_rem`: the oracle for Lehmer's gcd.
    fn euclid_gcd(a: &BigInt, b: &BigInt) -> BigInt {
        let (mut a, mut b) = (a.abs(), b.abs());
        while !b.is_zero() {
            let (_, r) = a.div_rem(&b);
            a = std::mem::replace(&mut b, r);
        }
        a
    }

    /// A signed value from raw little-endian limbs (zero when empty).
    fn from_raw(negative: bool, limbs: Vec<u32>) -> BigInt {
        let v = BigInt::from_limbs(Sign::Plus, limbs);
        if negative {
            -v
        } else {
            v
        }
    }

    fn assert_gcd_matches_oracle(a: &BigInt, b: &BigInt) {
        let g = a.gcd(b);
        assert_eq!(g, euclid_gcd(a, b), "gcd({a}, {b})");
        assert_eq!(b.gcd(a), g, "gcd is symmetric");
        assert!(!g.is_negative());
    }

    #[test]
    fn lehmer_gcd_edge_cases() {
        let big = from_raw(false, vec![7, 0, 0, 0x8000_0000, 3]);
        let min = BigInt::from(i64::MIN);
        let cases = [
            (BigInt::zero(), BigInt::zero()),
            (big.clone(), BigInt::zero()),
            (BigInt::zero(), -&big),
            (-&big, big.clone()),
            (big.clone(), big.clone()),
            (-&big, -&big),
            (&big * &min, min.clone()),
            (min.clone(), min.clone()),
            (min.clone(), BigInt::from(i64::MAX)),
            (&big * &BigInt::from(u64::MAX), BigInt::from(u64::MAX)),
            (big.clone(), BigInt::from(u64::MAX - 58)),
            (big.clone(), BigInt::one()),
            (&big * &big, -&big),
        ];
        for (a, b) in &cases {
            assert_gcd_matches_oracle(a, b);
        }
        assert_eq!(BigInt::zero().gcd(&BigInt::zero()), BigInt::zero());
        assert_eq!(min.gcd(&BigInt::zero()).to_string(), "9223372036854775808");
    }

    /// Consecutive Fibonacci numbers are Euclid's worst case (every
    /// quotient is 1), so the cosequence certifies the most steps per run;
    /// a huge first quotient is the opposite extreme (no step certifies).
    #[test]
    fn lehmer_gcd_extreme_quotients() {
        let (mut f0, mut f1) = (BigInt::zero(), BigInt::one());
        for _ in 0..1500 {
            f1 = &f0 + &f1;
            f0 = &f1 - &f0;
        }
        assert!(f1.bits() > 1000);
        assert_gcd_matches_oracle(&f1, &f0);
        let factor = BigInt::from(2_i64).pow(90) + BigInt::from(12345_i64);
        assert_gcd_matches_oracle(&(&f1 * &factor), &(&f0 * &factor));
        let shifted = &f1 * &BigInt::from(2_i64).pow(700);
        assert_gcd_matches_oracle(&(&shifted + &f0), &f1);
    }

    proptest! {
        /// Lehmer's gcd against the Euclid oracle on 1–40-limb operands
        /// with a planted common factor of up to 3 limbs, every sign.
        #[test]
        fn prop_lehmer_gcd_matches_euclid(
            a in proptest::collection::vec(any::<u32>(), 1..41),
            b in proptest::collection::vec(any::<u32>(), 1..41),
            factor in proptest::collection::vec(any::<u32>(), 0..4),
            signs in (any::<bool>(), any::<bool>()),
        ) {
            let f = from_raw(false, factor);
            let f = if f.is_zero() { BigInt::one() } else { f };
            let a = &from_raw(signs.0, a) * &f;
            let b = &from_raw(signs.1, b) * &f;
            assert_gcd_matches_oracle(&a, &b);
            prop_assert!(a.is_zero() || b.is_zero() || (&a.gcd(&b) % &f).is_zero());
        }

        /// Mixed sizes: a long operand against one of at most two limbs
        /// takes the word-sized finish directly.
        #[test]
        fn prop_lehmer_gcd_word_operand(
            a in proptest::collection::vec(any::<u32>(), 1..41),
            small in any::<u64>(),
            negative in any::<bool>(),
        ) {
            let a = from_raw(negative, a);
            let s = BigInt::from(small);
            assert_gcd_matches_oracle(&a, &s);
            assert_gcd_matches_oracle(&(&a * &s), &s);
        }
    }

    #[test]
    fn zero_and_one() {
        assert!(BigInt::zero().is_zero());
        assert!(BigInt::one().is_one());
        assert_eq!(BigInt::zero().to_string(), "0");
        assert_eq!(BigInt::one().to_string(), "1");
    }

    #[test]
    fn from_i64_round_trip() {
        for v in [
            0_i64,
            1,
            -1,
            42,
            -42,
            i64::MAX,
            i64::MIN + 1,
            1 << 32,
            -(1 << 40),
        ] {
            assert_eq!(BigInt::from(v).to_i64().unwrap(), v);
            assert_eq!(BigInt::from(v).to_string(), v.to_string());
        }
    }

    #[test]
    fn parse_round_trip() {
        let s = "123456789012345678901234567890123456789";
        let v: BigInt = s.parse().unwrap();
        assert_eq!(v.to_string(), s);
        let neg: BigInt = format!("-{s}").parse().unwrap();
        assert_eq!(neg.to_string(), format!("-{s}"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("12a3".parse::<BigInt>().is_err());
        assert!("".parse::<BigInt>().is_err());
        assert!("--3".parse::<BigInt>().is_err());
    }

    #[test]
    fn addition_and_subtraction() {
        let a: BigInt = "99999999999999999999999999".parse().unwrap();
        let b = BigInt::one();
        assert_eq!((&a + &b).to_string(), "100000000000000000000000000");
        assert_eq!((&a - &a).to_string(), "0");
        assert_eq!((&b - &a).to_string(), "-99999999999999999999999998");
    }

    #[test]
    fn multiplication_known_value() {
        let a: BigInt = "123456789123456789".parse().unwrap();
        let b: BigInt = "987654321987654321".parse().unwrap();
        assert_eq!(
            (&a * &b).to_string(),
            "121932631356500531347203169112635269"
        );
    }

    #[test]
    fn division_small_divisor() {
        let a: BigInt = "1000000000000000000000".parse().unwrap();
        let b = BigInt::from(7_i64);
        let (q, r) = a.div_rem(&b);
        assert_eq!((&q * &b + &r), a);
        assert!(r < b);
    }

    #[test]
    fn division_multi_limb_divisor() {
        let a: BigInt = "123456789012345678901234567890123456789".parse().unwrap();
        let b: BigInt = "9876543210987654321".parse().unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(&q * &b + &r, a);
        assert!(r.abs() < b.abs());
    }

    #[test]
    fn division_signs_match_truncation() {
        for (x, y) in [(7_i64, 3_i64), (-7, 3), (7, -3), (-7, -3)] {
            let (q, r) = BigInt::from(x).div_rem(&BigInt::from(y));
            assert_eq!(q.to_i64().unwrap(), x / y);
            assert_eq!(r.to_i64().unwrap(), x % y);
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = BigInt::one().div_rem(&BigInt::zero());
    }

    #[test]
    fn gcd_u64_matches_euclid() {
        for (a, b) in [
            (0, 0),
            (0, 9),
            (9, 0),
            (48, 36),
            (1 << 63, 1 << 40),
            (u64::MAX, 3),
        ] {
            let oracle = euclid_gcd(&BigInt::from(a), &BigInt::from(b));
            assert_eq!(BigInt::from(gcd_u64(a, b)), oracle);
        }
    }

    #[test]
    fn gcd_and_lcm() {
        let a = BigInt::from(48_i64);
        let b = BigInt::from(36_i64);
        assert_eq!(a.gcd(&b).to_i64().unwrap(), 12);
        assert_eq!(a.lcm(&b).to_i64().unwrap(), 144);
        assert_eq!(BigInt::zero().gcd(&b).to_i64().unwrap(), 36);
        assert_eq!(a.gcd(&BigInt::from(-36_i64)).to_i64().unwrap(), 12);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let three = BigInt::from(3_i64);
        assert_eq!(three.pow(0).to_i64().unwrap(), 1);
        assert_eq!(three.pow(5).to_i64().unwrap(), 243);
        assert_eq!(
            BigInt::from(2_i64).pow(100).to_string(),
            "1267650600228229401496703205376"
        );
    }

    #[test]
    fn ordering() {
        let vals: Vec<BigInt> = [-10_i64, -1, 0, 1, 10]
            .iter()
            .map(|&v| BigInt::from(v))
            .collect();
        for i in 0..vals.len() {
            for j in 0..vals.len() {
                assert_eq!(vals[i].cmp(&vals[j]), i.cmp(&j));
            }
        }
    }

    #[test]
    fn bits_counts_magnitude_bits() {
        assert_eq!(BigInt::zero().bits(), 0);
        assert_eq!(BigInt::one().bits(), 1);
        assert_eq!(BigInt::from(255_i64).bits(), 8);
        assert_eq!(BigInt::from(256_i64).bits(), 9);
        assert_eq!(BigInt::from(2_i64).pow(100).bits(), 101);
    }

    #[test]
    fn to_f64_is_close() {
        let v: BigInt = "1000000000000000000000".parse().unwrap();
        let f = v.to_f64();
        assert!((f - 1e21).abs() / 1e21 < 1e-12);
        assert_eq!(BigInt::from(-5_i64).to_f64(), -5.0);
    }

    #[test]
    fn to_u64_bounds() {
        assert_eq!(BigInt::zero().to_u64().unwrap(), 0);
        assert_eq!(BigInt::from(u64::MAX).to_u64().unwrap(), u64::MAX);
        assert!(BigInt::from(-1_i64).to_u64().is_err());
        assert!((&BigInt::from(u64::MAX) + &BigInt::one()).to_u64().is_err());
    }

    #[test]
    fn from_i128_u128_round_trip() {
        assert_eq!(BigInt::from(0_u128), BigInt::zero());
        assert_eq!(BigInt::from(0_i128), BigInt::zero());
        let v = u128::MAX;
        assert_eq!(BigInt::from(v).to_string(), v.to_string());
        let w = i128::MIN;
        assert_eq!(BigInt::from(w).to_string(), w.to_string());
        assert_eq!(
            BigInt::from(1_i128 << 64).to_string(),
            (1_u128 << 64).to_string()
        );
    }

    proptest! {
        #[test]
        fn prop_add_commutes(a in any::<i64>(), b in any::<i64>()) {
            let (ba, bb) = (BigInt::from(a), BigInt::from(b));
            prop_assert_eq!(&ba + &bb, &bb + &ba);
        }

        #[test]
        fn prop_add_matches_i128(a in any::<i64>(), b in any::<i64>()) {
            let sum = a as i128 + b as i128;
            let big = &BigInt::from(a) + &BigInt::from(b);
            prop_assert_eq!(big.to_string(), sum.to_string());
        }

        #[test]
        fn prop_mul_matches_i128(a in -(1_i64<<40)..(1_i64<<40), b in -(1_i64<<40)..(1_i64<<40)) {
            let prod = a as i128 * b as i128;
            let big = &BigInt::from(a) * &BigInt::from(b);
            prop_assert_eq!(big.to_string(), prod.to_string());
        }

        #[test]
        fn prop_divrem_reconstructs(a in any::<i64>(), b in any::<i64>()) {
            prop_assume!(b != 0);
            let (ba, bb) = (BigInt::from(a), BigInt::from(b));
            let (q, r) = ba.div_rem(&bb);
            prop_assert_eq!(&q * &bb + &r, ba);
            prop_assert!(r.abs() < bb.abs());
        }

        #[test]
        fn prop_parse_display_round_trip(a in any::<i64>(), b in any::<i64>()) {
            let big = &BigInt::from(a) * &BigInt::from(b);
            let back: BigInt = big.to_string().parse().unwrap();
            prop_assert_eq!(back, big);
        }

        #[test]
        fn prop_gcd_divides_both(a in any::<i32>(), b in any::<i32>()) {
            let (ba, bb) = (BigInt::from(a as i64), BigInt::from(b as i64));
            let g = ba.gcd(&bb);
            if !g.is_zero() {
                prop_assert!((&ba % &g).is_zero());
                prop_assert!((&bb % &g).is_zero());
            } else {
                prop_assert!(ba.is_zero() && bb.is_zero());
            }
        }
    }
}
