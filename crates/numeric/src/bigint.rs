//! Arbitrary-precision signed integers.
//!
//! Polynomial coefficients blow up quickly under Gröbner-basis reduction, so
//! fixed-width integers are not an option. [`BigInt`] is a sign-magnitude
//! implementation over base-2⁶⁴ limbs with the operations the algebra engine
//! needs: ring arithmetic, Euclidean division, gcd, comparison, decimal
//! formatting/parsing and small-integer interop.
//!
//! Magnitudes of up to four limbs (256 bits) are stored inline and only
//! larger ones go to the heap. The multi-modular lift's moduli (three 62-bit
//! primes) and the coefficients of its fraction-free verification fit
//! inline, so its CRT, rational reconstruction and verification arithmetic
//! allocates nothing.
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
use std::hash::{Hash, Hasher};
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

/// How many limbs a magnitude keeps inline before it moves to the heap.
const INLINE: usize = 4;

/// Stack scratch, in limbs, for intermediates of inline operands: a full
/// product, a sum with its carry limb, or a normalized dividend with its
/// extra limb.
const SCRATCH: usize = 2 * INLINE + 1;

/// A little-endian base-2⁶⁴ magnitude: inline up to [`INLINE`] limbs, on
/// the heap beyond. [`Limbs::trim`] moves a heap magnitude that shrank
/// back inline.
#[derive(Clone)]
enum Limbs {
    Inline { len: usize, buf: [u64; INLINE] },
    Heap(Vec<u64>),
}

impl Limbs {
    const EMPTY: Limbs = Limbs::Inline {
        len: 0,
        buf: [0; INLINE],
    };

    /// `n` zero limbs.
    #[inline]
    fn zeroed(n: usize) -> Limbs {
        if n <= INLINE {
            Limbs::Inline {
                len: n,
                buf: [0; INLINE],
            }
        } else {
            Limbs::Heap(vec![0; n])
        }
    }

    #[inline]
    fn from_slice(s: &[u64]) -> Limbs {
        if s.len() > INLINE {
            return Limbs::Heap(s.to_vec());
        }
        let mut buf = [0; INLINE];
        buf[..s.len()].copy_from_slice(s);
        Limbs::Inline { len: s.len(), buf }
    }

    /// `s` without its high zero limbs.
    #[inline]
    fn from_trimmed(s: &[u64]) -> Limbs {
        Limbs::from_slice(&s[..significant_len(s)])
    }

    #[inline]
    fn as_slice(&self) -> &[u64] {
        match self {
            Limbs::Inline { len, buf } => &buf[..*len],
            Limbs::Heap(v) => v,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [u64] {
        match self {
            Limbs::Inline { len, buf } => &mut buf[..*len],
            Limbs::Heap(v) => v,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            Limbs::Inline { len, .. } => *len,
            Limbs::Heap(v) => v.len(),
        }
    }

    /// Grows to `n ≥ len` limbs, zero-filling the new ones.
    #[inline]
    fn grow(&mut self, n: usize) {
        match self {
            Limbs::Inline { len, buf } if n <= INLINE => {
                buf[*len..n].fill(0);
                *len = n;
            }
            Limbs::Inline { len, buf } => {
                let mut v = Vec::with_capacity(n);
                v.extend_from_slice(&buf[..*len]);
                v.resize(n, 0);
                *self = Limbs::Heap(v);
            }
            Limbs::Heap(v) => v.resize(n, 0),
        }
    }

    /// Appends one limb.
    #[inline]
    fn push(&mut self, limb: u64) {
        let n = self.len();
        self.grow(n + 1);
        self.as_mut_slice()[n] = limb;
    }

    /// Drops the high zero limbs, moving a heap magnitude that now fits
    /// back inline.
    #[inline]
    fn trim(&mut self) {
        let n = significant_len(self.as_slice());
        match self {
            Limbs::Inline { len, .. } => *len = n,
            Limbs::Heap(v) if n <= INLINE => *self = Limbs::from_slice(&v[..n]),
            Limbs::Heap(v) => v.truncate(n),
        }
    }
}

/// The length of `s` without its high zero limbs.
#[inline]
fn significant_len(s: &[u64]) -> usize {
    s.iter().rposition(|&l| l != 0).map_or(0, |i| i + 1)
}

/// An arbitrary-precision signed integer.
///
/// The representation is sign-magnitude: `mag` stores the magnitude in
/// little-endian base-2⁶⁴ with no high zero limbs; `sign` is `Sign::Zero`
/// iff `mag` is empty.
#[derive(Clone)]
pub struct BigInt {
    sign: Sign,
    mag: Limbs,
}

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

/// Compares two trimmed magnitudes.
fn cmp_mag(a: &[u64], b: &[u64]) -> Ordering {
    a.len()
        .cmp(&b.len())
        .then_with(|| a.iter().rev().cmp(b.iter().rev()))
}

/// `a += b` over `a.len() ≥ b.len()` limbs; returns the carry out.
fn add_assign_mag(a: &mut [u64], b: &[u64]) -> bool {
    let mut carry = false;
    let (low, high) = a.split_at_mut(b.len());
    for (x, &y) in low.iter_mut().zip(b) {
        let (s, c1) = x.overflowing_add(y);
        let (s, c2) = s.overflowing_add(carry as u64);
        *x = s;
        carry = c1 | c2;
    }
    for x in high {
        if !carry {
            break;
        }
        (*x, carry) = x.overflowing_add(1);
    }
    carry
}

/// `a -= b` for magnitudes `a ≥ b` (`a.len() ≥ b.len()`).
fn sub_assign_mag(a: &mut [u64], b: &[u64]) {
    let mut borrow = false;
    let (low, high) = a.split_at_mut(b.len());
    for (x, &y) in low.iter_mut().zip(b) {
        let (d, b1) = x.overflowing_sub(y);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        *x = d;
        borrow = b1 | b2;
    }
    for x in high {
        if !borrow {
            break;
        }
        (*x, borrow) = x.overflowing_sub(1);
    }
    debug_assert!(!borrow, "sub_assign_mag needs a >= b");
}

/// `a = b − a` for magnitudes `b ≥ a`, with `a` zero-extended to
/// `b.len()` limbs.
fn rsub_assign_mag(a: &mut [u64], b: &[u64]) {
    debug_assert_eq!(a.len(), b.len());
    let mut borrow = false;
    for (x, &y) in a.iter_mut().zip(b) {
        let (d, b1) = y.overflowing_sub(*x);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        *x = d;
        borrow = b1 | b2;
    }
    debug_assert!(!borrow, "rsub_assign_mag needs b >= a");
}

/// `out = a · b` for a zeroed `out` of `a.len() + b.len()` limbs. Each
/// partial product plus two limbs stays below 2¹²⁸.
fn mul_into(out: &mut [u64], a: &[u64], b: &[u64]) {
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0_u64;
        for (o, &bj) in out[i..].iter_mut().zip(b) {
            let t = ai as u128 * bj as u128 + *o as u128 + carry as u128;
            *o = t as u64;
            carry = (t >> 64) as u64;
        }
        out[i + b.len()] = carry;
    }
}

/// `a = a · m + c` in place; returns the carry-out limb.
fn mul_add_small(a: &mut [u64], m: u64, c: u64) -> u64 {
    let mut carry = c;
    for x in a.iter_mut() {
        let t = *x as u128 * m as u128 + carry as u128;
        *x = t as u64;
        carry = (t >> 64) as u64;
    }
    carry
}

/// `a /= d` in place for a nonzero `d`; returns the remainder.
fn div_small_assign(a: &mut [u64], d: u64) -> u64 {
    let mut rem = 0_u64;
    for x in a.iter_mut().rev() {
        let cur = ((rem as u128) << 64) | *x as u128;
        let q = cur / d as u128;
        *x = q as u64;
        rem = (cur - q * d as u128) as u64;
    }
    rem
}

/// Remainder of a magnitude modulo a nonzero `u64` (Horner over the limbs,
/// high limb first). A modulus below 2³² takes the limbs in 32-bit halves,
/// so the accumulator never leaves u64.
fn rem_mag_u64(a: &[u64], m: u64) -> u64 {
    if m <= u32::MAX as u64 {
        return a.iter().rev().fold(0, |acc, &l| {
            let acc = ((acc << 32) | (l >> 32)) % m;
            ((acc << 32) | (l & 0xFFFF_FFFF)) % m
        });
    }
    let m = m as u128;
    a.iter()
        .rev()
        .fold(0_u128, |acc, &l| ((acc << 64) | l as u128) % m) as u64
}

/// `out = a << bits` for `bits < 64`; `out` has room for every limb of
/// `a` plus the carry limb when `out.len() > a.len()`.
fn shl_into(out: &mut [u64], a: &[u64], bits: u32) {
    if bits == 0 {
        out[..a.len()].copy_from_slice(a);
        return;
    }
    let mut carry = 0_u64;
    for (o, &l) in out.iter_mut().zip(a) {
        *o = (l << bits) | carry;
        carry = l >> (64 - bits);
    }
    if let Some(top) = out.get_mut(a.len()) {
        *top = carry;
    }
}

/// `a >>= bits` in place for `bits < 64`.
fn shr_assign(a: &mut [u64], bits: u32) {
    if bits == 0 {
        return;
    }
    for i in 0..a.len() {
        let hi = a.get(i + 1).map_or(0, |&h| h << (64 - bits));
        a[i] = (a[i] >> bits) | hi;
    }
}

/// Knuth's Algorithm D: `(a / b, a % b)` for trimmed magnitudes with
/// `b.len() ≥ 2` and `a ≥ b`. The normalized operands live on the stack
/// when the dividend is inline.
fn divrem_knuth(a: &[u64], b: &[u64]) -> (Limbs, Limbs) {
    let n = b.len();
    let shift = b[n - 1].leading_zeros();
    let (mut stack_a, mut stack_b) = ([0_u64; SCRATCH], [0_u64; SCRATCH]);
    let (mut heap_a, mut heap_b);
    let (anm, bn) = if a.len() < SCRATCH {
        (&mut stack_a[..a.len() + 1], &mut stack_b[..n])
    } else {
        heap_a = vec![0; a.len() + 1];
        heap_b = vec![0; n];
        (&mut heap_a[..], &mut heap_b[..])
    };
    shl_into(bn, b, shift);
    shl_into(anm, a, shift);
    let bn = &*bn;
    let m = anm.len() - n;
    let mut q = Limbs::zeroed(m);
    let qs = q.as_mut_slice();
    let base = 1_u128 << 64;
    let (btop, bsec) = (bn[n - 1] as u128, bn[n - 2] as u128);
    for j in (0..m).rev() {
        let num = ((anm[j + n] as u128) << 64) | anm[j + n - 1] as u128;
        let mut qhat = num / btop;
        let mut rhat = num - qhat * btop;
        while qhat >= base || qhat * bsec > (rhat << 64) | anm[j + n - 2] as u128 {
            qhat -= 1;
            rhat += btop;
            if rhat >= base {
                break;
            }
        }
        // Multiply and subtract; qhat < 2⁶⁴ here.
        let (mut borrow, mut carry) = (false, 0_u64);
        for (x, &bi) in anm[j..j + n].iter_mut().zip(bn) {
            let p = qhat * bi as u128 + carry as u128;
            carry = (p >> 64) as u64;
            let (d, b1) = x.overflowing_sub(p as u64);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            *x = d;
            borrow = b1 | b2;
        }
        let (d, b1) = anm[j + n].overflowing_sub(carry);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        anm[j + n] = d;
        if b1 | b2 {
            // qhat was one too large: add back.
            qhat -= 1;
            let c = add_assign_mag(&mut anm[j..j + n], bn);
            anm[j + n] = anm[j + n].wrapping_add(c as u64);
        }
        qs[j] = qhat as u64;
    }
    q.trim();
    shr_assign(&mut anm[..n], shift);
    (q, Limbs::from_trimmed(&anm[..n]))
}

/// `(a / b, a % b)` for trimmed magnitudes with `b` nonzero.
fn divrem_mag(a: &[u64], b: &[u64]) -> (Limbs, Limbs) {
    assert!(!b.is_empty(), "division by zero magnitude");
    if cmp_mag(a, b) == Ordering::Less {
        return (Limbs::EMPTY, Limbs::from_slice(a));
    }
    if let [d] = *b {
        let mut q = Limbs::from_slice(a);
        let r = div_small_assign(q.as_mut_slice(), d);
        q.trim();
        let mut rem = Limbs::EMPTY;
        if r != 0 {
            rem.push(r);
        }
        return (q, rem);
    }
    divrem_knuth(a, b)
}

/// Number of significant bits of a trimmed magnitude.
fn mag_bits(a: &[u64]) -> usize {
    a.last()
        .map_or(0, |&top| a.len() * 64 - top.leading_zeros() as usize)
}

/// The magnitude shifted right by `shift` bits, truncated to 64 bits.
fn mag_shr_u64(a: &[u64], shift: usize) -> u64 {
    let (limb, bit) = (shift / 64, shift % 64);
    let lo = a.get(limb).map_or(0, |&l| l as u128);
    let hi = a.get(limb + 1).map_or(0, |&l| l as u128);
    (((hi << 64) | lo) >> bit) as u64
}

/// Cofactor magnitudes the cosequence may reach: the bound that keeps
/// [`lehmer_apply`]'s sums inside `i128`.
const COFACTOR_LIMIT: i128 = 1 << 62;

/// Knuth's Algorithm L, steps L2–L3: runs the quotient sequence of
/// `(û, v̂)` — `u` and `v` shifted right so that `û` keeps 62 bits — and
/// returns the cofactors `[A, B, C, D]` of every step whose quotient is
/// certified exact for the full operands, i.e. identical for both
/// bracketing ratios `(û + A)/(v̂ + C)` and `(û + B)/(v̂ + D)`. `B == 0`
/// means no step was certified.
fn lehmer_cosequence(u: &[u64], v: &[u64]) -> [i64; 4] {
    let shift = mag_bits(u).saturating_sub(62);
    let mut uh = mag_shr_u64(u, shift) as i64;
    let mut vh = mag_shr_u64(v, shift) as i64;
    let (mut a, mut b, mut c, mut d) = (1_i64, 0_i64, 0_i64, 1_i64);
    // û < 2⁶², the remainders stay below û and the cofactors below the
    // limit checked at every step, so the brackets are i64 sums in
    // (−2⁶², 2⁶³) and the products are formed in i128. Stopping early is
    // always safe — every step taken so far was certified — so a negative
    // bracket or remainder, a zero divisor or a cofactor at the limit
    // simply ends the run. (Cofactors are bounded by û < 2⁶² (Knuth), so
    // the limit never binds; the check makes the bound local.)
    loop {
        let (num_a, den_c, num_b, den_d) = (uh + a, vh + c, uh + b, vh + d);
        if num_a < 0 || num_b < 0 || den_c <= 0 || den_d <= 0 {
            break;
        }
        // q = ⌊num_a / den_c⌋ must equal ⌊num_b / den_d⌋, i.e.
        // q·den_d ≤ num_b < q·den_d + den_d: one division and a multiply.
        let q = num_a / den_c;
        let low = q as i128 * den_d as i128;
        if low > num_b as i128 || num_b as i128 - low >= den_d as i128 {
            break;
        }
        let nc = a as i128 - q as i128 * c as i128;
        let nd = b as i128 - q as i128 * d as i128;
        let next = uh as i128 - q as i128 * vh as i128;
        if nc.abs() >= COFACTOR_LIMIT || nd.abs() >= COFACTOR_LIMIT || next < 0 {
            break;
        }
        (a, c) = (c, nc as i64);
        (b, d) = (d, nd as i64);
        (uh, vh) = (vh, next as i64);
    }
    [a, b, c, d]
}

/// Knuth's Algorithm L, step L4: replaces `(u, v)` by
/// `(A·u + B·v, C·u + D·v)` in one pass over the limbs, without
/// allocating. The cofactors come from a certified cosequence, so both
/// results are non-negative consecutive remainders with `u > v`.
fn lehmer_apply(u: &mut Limbs, v: &mut Limbs, cofactors: [i64; 4]) {
    let [a, b, c, d] = cofactors.map(i128::from);
    v.grow(u.len());
    let (mut carry_u, mut carry_v) = (0_i128, 0_i128);
    for (ui, vi) in u.as_mut_slice().iter_mut().zip(v.as_mut_slice()) {
        let (x, y) = (*ui as i128, *vi as i128);
        // Cofactors are below 2⁶² and limbs below 2⁶⁴, so each sum of two
        // products is below 2¹²⁷ − 2⁶⁵ in magnitude and a carry of at most
        // 2⁶³ keeps it inside i128; the arithmetic shift floors the signed
        // carry, which therefore stays at most 2⁶³ in magnitude.
        let nu = a * x + b * y + carry_u;
        let nv = c * x + d * y + carry_v;
        *ui = nu as u64;
        *vi = nv as u64;
        carry_u = nu >> 64;
        carry_v = nv >> 64;
    }
    debug_assert!(carry_u == 0 && carry_v == 0, "cosequence left a carry");
    u.trim();
    v.trim();
}

impl BigInt {
    /// The additive identity.
    pub fn zero() -> Self {
        BigInt {
            sign: Sign::Zero,
            mag: Limbs::EMPTY,
        }
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        BigInt::from(1_u64)
    }

    /// Returns `true` if `self` is zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Returns `true` if `self` is exactly one.
    pub fn is_one(&self) -> bool {
        self.sign == Sign::Plus && self.mag.as_slice() == [1]
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
        mag_bits(self.mag.as_slice())
    }

    /// Converts to `i64` if the value fits.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Overflow`] when the magnitude exceeds `i64`.
    pub fn to_i64(&self) -> Result<i64, NumericError> {
        let mag = match self.mag.as_slice() {
            [] => return Ok(0),
            [m] => *m as u128,
            _ => return Err(NumericError::Overflow(self.to_string())),
        };
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
        match self.mag.as_slice() {
            _ if self.is_negative() => Err(NumericError::Overflow(self.to_string())),
            [] => Ok(0),
            [m] => Ok(*m),
            _ => Err(NumericError::Overflow(self.to_string())),
        }
    }

    /// Lossy conversion to `f64`: Horner over the 32-bit halves of the
    /// limbs, high half first, rounding after every step.
    pub fn to_f64(&self) -> f64 {
        let half = (1_u64 << 32) as f64;
        let mut v = 0.0_f64;
        for &l in self.mag.as_slice().iter().rev() {
            v = v * half + (l >> 32) as f64;
            v = v * half + (l & 0xFFFF_FFFF) as f64;
        }
        if self.sign == Sign::Minus {
            -v
        } else {
            v
        }
    }

    /// The value `sign · mag`, trimming `mag` first.
    fn from_mag(sign: Sign, mut mag: Limbs) -> Self {
        mag.trim();
        if mag.len() == 0 {
            BigInt::zero()
        } else {
            BigInt { sign, mag }
        }
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
        let (qm, rm) = divrem_mag(self.mag.as_slice(), other.mag.as_slice());
        let qsign = if self.sign == other.sign {
            Sign::Plus
        } else {
            Sign::Minus
        };
        (BigInt::from_mag(qsign, qm), BigInt::from_mag(self.sign, rm))
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
        let (a, b) = (self.mag.as_slice(), other.mag.as_slice());
        let (a, b) = match cmp_mag(a, b) {
            Ordering::Less => (b, a),
            _ => (a, b),
        };
        // Invariant: u >= v, both trimmed.
        let small = match *b {
            [] => return BigInt::from_mag(Sign::Plus, Limbs::from_slice(a)),
            [s] => s,
            _ => {
                let (mut u, mut v) = (Limbs::from_slice(a), Limbs::from_slice(b));
                while v.len() > 1 {
                    let cofactors = lehmer_cosequence(u.as_slice(), v.as_slice());
                    if cofactors[1] == 0 {
                        let (_, r) = divrem_mag(u.as_slice(), v.as_slice());
                        u = std::mem::replace(&mut v, r);
                    } else {
                        lehmer_apply(&mut u, &mut v, cofactors);
                    }
                }
                match *v.as_slice() {
                    [] => return BigInt::from_mag(Sign::Plus, u),
                    [s] => return BigInt::from(gcd_u64(s, rem_mag_u64(u.as_slice(), s))),
                    _ => unreachable!("the loop leaves at most one limb"),
                }
            }
        };
        BigInt::from(gcd_u64(small, rem_mag_u64(a, small)))
    }

    /// One Lehmer step on `(u, v)` with `u > v > 0`, for callers that track
    /// the Euclidean cosequence themselves: the certified cofactors
    /// `[A, B, C, D]` with the consecutive remainders `(A·u + B·v,
    /// C·u + D·v)`. `None` when `v` fits a `u64` or the leading bits
    /// certify no quotient — then take a plain `div_rem` step.
    pub(crate) fn lehmer_step(u: &BigInt, v: &BigInt) -> Option<([i64; 4], BigInt, BigInt)> {
        debug_assert!(u > v && v.is_positive());
        if v.mag.len() <= 1 {
            return None;
        }
        let cofactors = lehmer_cosequence(u.mag.as_slice(), v.mag.as_slice());
        if cofactors[1] == 0 {
            return None;
        }
        let (mut nu, mut nv) = (u.mag.clone(), v.mag.clone());
        lehmer_apply(&mut nu, &mut nv, cofactors);
        Some((
            cofactors,
            BigInt::from_mag(Sign::Plus, nu),
            BigInt::from_mag(Sign::Plus, nv),
        ))
    }

    /// Least common multiple (always non-negative); zero if either input is zero.
    pub fn lcm(&self, other: &BigInt) -> BigInt {
        if self.is_zero() || other.is_zero() {
            return BigInt::zero();
        }
        let g = self.gcd(other);
        let (mut q, _) = self.abs().div_rem(&g);
        q *= &other.abs();
        q
    }

    /// Raises `self` to the power `exp`.
    pub fn pow(&self, exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut result = BigInt::one();
        let mut e = exp;
        while e > 0 {
            if e & 1 == 1 {
                result *= &base;
            }
            e >>= 1;
            if e > 0 {
                base = &base * &base;
            }
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
        let r = rem_mag_u64(self.mag.as_slice(), m);
        if self.is_negative() && r != 0 {
            m - r
        } else {
            r
        }
    }

    /// `self += rhs` where `rhs` carries `rhs_sign` instead of its own
    /// sign, so subtraction needs no negated copy of its operand. Works in
    /// place: an inline result allocates nothing.
    fn add_signed_assign(&mut self, rhs: &BigInt, rhs_sign: Sign) {
        use Sign::*;
        match (self.sign, rhs_sign) {
            (_, Zero) => {}
            (Zero, _) => {
                self.mag.clone_from(&rhs.mag);
                self.sign = rhs_sign;
            }
            (a, b) if a == b => {
                let r = rhs.mag.as_slice();
                if self.mag.len() < r.len() {
                    self.mag.grow(r.len());
                }
                if add_assign_mag(self.mag.as_mut_slice(), r) {
                    self.mag.push(1);
                }
            }
            _ => match cmp_mag(self.mag.as_slice(), rhs.mag.as_slice()) {
                Ordering::Equal => *self = BigInt::zero(),
                Ordering::Greater => {
                    sub_assign_mag(self.mag.as_mut_slice(), rhs.mag.as_slice());
                    self.mag.trim();
                }
                Ordering::Less => {
                    let r = rhs.mag.as_slice();
                    self.mag.grow(r.len());
                    rsub_assign_mag(self.mag.as_mut_slice(), r);
                    self.mag.trim();
                    self.sign = rhs_sign;
                }
            },
        }
    }

    /// `self + rhs` with `rhs` carrying `rhs_sign`. A same-sign sum of
    /// operands up to eight limbs is formed on the stack, like a product,
    /// and copied out once; otherwise a copy of `self` with room for the
    /// longer operand and a carry limb is summed in place, so a heap result
    /// allocates once.
    fn signed_sum(&self, rhs: &BigInt, rhs_sign: Sign) -> BigInt {
        let (a, b) = (self.mag.as_slice(), rhs.mag.as_slice());
        let room = a.len().max(b.len()) + 1;
        if self.sign == rhs_sign && self.sign != Sign::Zero && room <= SCRATCH {
            let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
            let mut buf = [0_u64; SCRATCH];
            buf[..long.len()].copy_from_slice(long);
            buf[long.len()] = add_assign_mag(&mut buf[..long.len()], short) as u64;
            return BigInt {
                sign: self.sign,
                mag: Limbs::from_trimmed(&buf[..room]),
            };
        }
        let mag = if room <= INLINE + 1 {
            Limbs::from_slice(a)
        } else {
            let mut v = Vec::with_capacity(room);
            v.extend_from_slice(a);
            Limbs::Heap(v)
        };
        let mut sum = BigInt {
            sign: self.sign,
            mag,
        };
        sum.add_signed_assign(rhs, rhs_sign);
        sum
    }

    /// The sign of a product of `self` and `rhs`, both nonzero.
    fn product_sign(&self, rhs: &BigInt) -> Sign {
        if self.sign == rhs.sign {
            Sign::Plus
        } else {
            Sign::Minus
        }
    }
}

impl Default for BigInt {
    fn default() -> Self {
        BigInt::zero()
    }
}

impl PartialEq for BigInt {
    fn eq(&self, other: &Self) -> bool {
        self.sign == other.sign && self.mag.as_slice() == other.mag.as_slice()
    }
}

impl Eq for BigInt {}

impl Hash for BigInt {
    /// Feeds the byte stream of the former `(Sign, Vec<u32>)` layout — the
    /// sign, then the magnitude as trimmed little-endian 32-bit limbs with
    /// their length prefix — so hashes (and the cache ids built from them)
    /// do not depend on the limb width.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.sign.hash(state);
        let mag = self.mag.as_slice();
        let n = mag
            .last()
            .map_or(0, |&top| 2 * mag.len() - (top >> 32 == 0) as usize);
        let halves = mag.iter().flat_map(|&l| [l as u32, (l >> 32) as u32]);
        if n <= 2 * INLINE {
            let mut buf = [0_u32; 2 * INLINE];
            for (b, h) in buf.iter_mut().zip(halves) {
                *b = h;
            }
            buf[..n].hash(state);
        } else {
            halves.take(n).collect::<Vec<u32>>().hash(state);
        }
    }
}

impl From<u64> for BigInt {
    fn from(v: u64) -> Self {
        if v == 0 {
            return BigInt::zero();
        }
        let mut mag = Limbs::EMPTY;
        mag.push(v);
        BigInt {
            sign: Sign::Plus,
            mag,
        }
    }
}

impl From<i64> for BigInt {
    fn from(v: i64) -> Self {
        let mag = BigInt::from(v.unsigned_abs());
        if v < 0 {
            -mag
        } else {
            mag
        }
    }
}

impl From<i32> for BigInt {
    fn from(v: i32) -> Self {
        BigInt::from(v as i64)
    }
}

impl From<u128> for BigInt {
    fn from(v: u128) -> Self {
        let mut mag = Limbs::zeroed(2);
        mag.as_mut_slice()
            .copy_from_slice(&[v as u64, (v >> 64) as u64]);
        BigInt::from_mag(Sign::Plus, mag)
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

/// The largest power of ten below 2⁶⁴: decimal text is written 19 digits
/// at a time.
const DECIMAL_CHUNK: u64 = 10_000_000_000_000_000_000;

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
        let mut mag = Limbs::EMPTY;
        for b in digits.bytes() {
            let carry = mul_add_small(mag.as_mut_slice(), 10, (b - b'0') as u64);
            if carry != 0 {
                mag.push(carry);
            }
        }
        let v = BigInt::from_mag(Sign::Plus, mag);
        Ok(if neg { -v } else { v })
    }
}

impl fmt::Display for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        let mut chunks = Vec::new();
        let mut mag = self.mag.clone();
        while mag.len() > 0 {
            chunks.push(div_small_assign(mag.as_mut_slice(), DECIMAL_CHUNK));
            mag.trim();
        }
        if self.sign == Sign::Minus {
            f.write_str("-")?;
        }
        let (top, rest) = chunks
            .split_last()
            .expect("a nonzero value has a leading chunk");
        write!(f, "{top}")?;
        for c in rest.iter().rev() {
            write!(f, "{c:019}")?;
        }
        Ok(())
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
        let (a, b) = (self.mag.as_slice(), other.mag.as_slice());
        match (self.sign, other.sign) {
            (Minus, Minus) => cmp_mag(b, a),
            (Minus, _) => Ordering::Less,
            (Zero, Minus) => Ordering::Greater,
            (Zero, Zero) => Ordering::Equal,
            (Zero, Plus) => Ordering::Less,
            (Plus, Plus) => cmp_mag(a, b),
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

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        self.signed_sum(rhs, rhs.sign)
    }
}

impl Add for BigInt {
    type Output = BigInt;
    fn add(mut self, rhs: BigInt) -> BigInt {
        self += &rhs;
        self
    }
}

impl Add<BigInt> for &BigInt {
    type Output = BigInt;
    fn add(self, mut rhs: BigInt) -> BigInt {
        rhs += self;
        rhs
    }
}

impl Add<&BigInt> for BigInt {
    type Output = BigInt;
    fn add(mut self, rhs: &BigInt) -> BigInt {
        self += rhs;
        self
    }
}

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        self.add_signed_assign(rhs, rhs.sign);
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self.signed_sum(rhs, -rhs.sign)
    }
}

impl Sub for BigInt {
    type Output = BigInt;
    fn sub(mut self, rhs: BigInt) -> BigInt {
        self -= &rhs;
        self
    }
}

impl SubAssign<&BigInt> for BigInt {
    fn sub_assign(&mut self, rhs: &BigInt) {
        self.add_signed_assign(rhs, -rhs.sign);
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        if self.is_zero() || rhs.is_zero() {
            return BigInt::zero();
        }
        let (a, b) = (self.mag.as_slice(), rhs.mag.as_slice());
        // A one-limb factor scales the other operand in place.
        if b.len() == 1 {
            let mut r = self.clone();
            r *= rhs;
            return r;
        }
        if a.len() == 1 {
            let mut r = rhs.clone();
            r *= self;
            return r;
        }
        let sign = self.product_sign(rhs);
        let n = a.len() + b.len();
        if n > SCRATCH {
            let mut out = Limbs::zeroed(n);
            mul_into(out.as_mut_slice(), a, b);
            return BigInt::from_mag(sign, out);
        }
        // The product of two inline operands may still fit inline once
        // trimmed, so it is formed on the stack first.
        let mut buf = [0_u64; SCRATCH];
        mul_into(&mut buf[..n], a, b);
        BigInt {
            sign,
            mag: Limbs::from_trimmed(&buf[..n]),
        }
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
        match *rhs.mag.as_slice() {
            [] => *self = BigInt::zero(),
            [m] if !self.is_zero() => {
                self.sign = self.product_sign(rhs);
                let carry = mul_add_small(self.mag.as_mut_slice(), m, 0);
                if carry != 0 {
                    self.mag.push(carry);
                }
            }
            _ => *self = &*self * rhs,
        }
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

    /// A signed value from raw little-endian 32-bit limbs (zero when
    /// empty).
    fn from_raw(negative: bool, limbs: Vec<u32>) -> BigInt {
        let mut mag = Limbs::zeroed(limbs.len().div_ceil(2));
        for (i, l) in limbs.into_iter().enumerate() {
            mag.as_mut_slice()[i / 2] |= (l as u64) << (32 * (i % 2));
        }
        let v = BigInt::from_mag(Sign::Plus, mag);
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
