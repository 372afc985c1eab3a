//! Exact rational numbers with an inline small-value fast path.
//!
//! Polynomial coefficients in the symbolic algebra engine are exact rationals:
//! Gröbner-basis reduction repeatedly divides by leading coefficients, so the
//! coefficient field must be closed under division.
//!
//! Typical Gröbner coefficients are tiny (a handful of digits), yet the
//! original representation heap-allocated two [`BigInt`]s for every value and
//! for every intermediate of every `+ - * /`. [`Rational`] therefore stores
//! small values inline — an `i64` numerator and `u64` denominator — and
//! performs arithmetic in `i128`/`u128` with checked overflow, promoting to
//! the [`BigInt`] pair form only when a result genuinely does not fit.
//! Results that shrink back below the limit are demoted again, so the
//! representation of a value is canonical: equal rationals always have equal
//! representations (required for the derived `Eq`/`Hash`).
//!
//! ```
//! use symmap_numeric::rational::Rational;
//!
//! let half = Rational::new(1, 2);
//! let third = Rational::new(1, 3);
//! assert_eq!((half - third).to_string(), "1/6");
//! ```

// lint:allow-file(D3): to_f64/approximate_f64 are the declared
// float conversion boundary; Rational arithmetic itself is exact.
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

use crate::bigint::{gcd_u64, BigInt};
use crate::error::NumericError;

/// Internal storage of a [`Rational`].
///
/// Invariants shared by both variants: the denominator is strictly positive,
/// `gcd(|numerator|, denominator) == 1`, and zero is `0/1`. Additionally a
/// `Big` value never fits the `Small` form (numerator outside `i64` or
/// denominator outside `u64`) — every constructor demotes — so the derived
/// `PartialEq`/`Hash` are consistent across variants.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Inline fast path: `num / den` with `den > 0`.
    Small { num: i64, den: u64 },
    /// Arbitrary-precision fallback `(num, den)` with `den > 0`, boxed so the
    /// rare big coefficient does not widen every term of every polynomial.
    Big(Box<(BigInt, BigInt)>),
}

/// An exact rational number `numerator / denominator`.
///
/// Invariants: the denominator is always strictly positive and
/// `gcd(|numerator|, denominator) == 1`; zero is represented as `0/1`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Rational {
    repr: Repr,
}

/// `gcd` over `u128` magnitudes (Euclid); `gcd(0, x) == x`.
fn gcd_u128(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a
}

impl Rational {
    /// Builds a `Small` value directly. Caller guarantees `den > 0` and that
    /// the fraction is fully reduced.
    fn small(num: i64, den: u64) -> Self {
        debug_assert!(den > 0);
        debug_assert!(num != 0 || den == 1);
        Rational {
            repr: Repr::Small { num, den },
        }
    }

    /// Builds from an *already reduced* sign/magnitude pair with `den > 0`,
    /// choosing the smallest representation that fits. Working in unsigned
    /// magnitudes keeps every boundary value representable — a reduced
    /// magnitude of exactly `2^127` (reachable when an `i128` cross-product
    /// sum lands on `i128::MIN`) has no `i128` negation.
    fn from_sign_mag_reduced(negative: bool, mag: u128, den: u128) -> Self {
        debug_assert!(den > 0);
        if mag == 0 {
            return Rational::small(0, 1);
        }
        let num_fits = if negative {
            mag <= i64::MAX as u128 + 1
        } else {
            mag <= i64::MAX as u128
        };
        if num_fits {
            if let Ok(d) = u64::try_from(den) {
                // mag <= 2^63 here, so the negation fits i128 and the cast
                // down to i64 is exact for both signs.
                let n = if negative {
                    (-(mag as i128)) as i64
                } else {
                    mag as i64
                };
                return Rational::small(n, d);
            }
        }
        let num = if negative {
            -BigInt::from(mag)
        } else {
            BigInt::from(mag)
        };
        Rational {
            repr: Repr::Big(Box::new((num, BigInt::from(den)))),
        }
    }

    /// Builds from an *already reduced* `num / den` with `den > 0`.
    fn from_i128_reduced(num: i128, den: u128) -> Self {
        Rational::from_sign_mag_reduced(num < 0, num.unsigned_abs(), den)
    }

    /// Builds from `num / den` with `den > 0`, reducing to lowest terms.
    fn from_i128(num: i128, den: u128) -> Self {
        debug_assert!(den > 0);
        if num == 0 {
            return Rational::small(0, 1);
        }
        let g = gcd_u128(num.unsigned_abs(), den);
        Rational::from_sign_mag_reduced(num < 0, num.unsigned_abs() / g, den / g)
    }

    /// Creates `num / den` from small integers, reducing to lowest terms.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Self {
        assert!(den != 0, "rational with zero denominator");
        let n = if den < 0 { -(num as i128) } else { num as i128 };
        Rational::from_i128(n, den.unsigned_abs() as u128)
    }

    /// Creates `num / den` from big integers, reducing to lowest terms (and
    /// demoting to the inline form when the reduced value fits).
    ///
    /// # Panics
    ///
    /// Panics if `den` is zero.
    pub fn from_bigints(num: BigInt, den: BigInt) -> Self {
        assert!(!den.is_zero(), "rational with zero denominator");
        if num.is_zero() {
            return Rational::small(0, 1);
        }
        let (num, den) = if den.is_negative() {
            (-num, -den)
        } else {
            (num, den)
        };
        let g = num.gcd(&den);
        if g.is_one() {
            Rational::from_big_reduced(num, den)
        } else {
            Rational::from_big_reduced(&num / &g, &den / &g)
        }
    }

    /// Builds from an *already reduced* `num / den` with `den > 0`,
    /// demoting to the inline form when the value fits it.
    fn from_big_reduced(num: BigInt, den: BigInt) -> Self {
        debug_assert!(den.is_positive());
        if num.is_zero() {
            return Rational::small(0, 1);
        }
        // The bit test keeps the overflow errors (which format the value)
        // off the hot path.
        if num.bits() <= 64 && den.bits() <= 64 {
            if let (Ok(n), Ok(d)) = (num.to_i64(), den.to_u64()) {
                return Rational::small(n, d);
            }
        }
        Rational {
            repr: Repr::Big(Box::new((num, den))),
        }
    }

    /// The value as a `(numerator, denominator)` pair of big integers,
    /// borrowed when the value is already in the big form.
    fn big_pair(&self) -> (Cow<'_, BigInt>, Cow<'_, BigInt>) {
        match &self.repr {
            Repr::Small { num, den } => (
                Cow::Owned(BigInt::from(*num)),
                Cow::Owned(BigInt::from(*den)),
            ),
            Repr::Big(b) => (Cow::Borrowed(&b.0), Cow::Borrowed(&b.1)),
        }
    }

    /// The additive identity `0/1`.
    pub fn zero() -> Self {
        Rational::small(0, 1)
    }

    /// The multiplicative identity `1/1`.
    pub fn one() -> Self {
        Rational::small(1, 1)
    }

    /// An integer rational `n/1`.
    pub fn integer(n: i64) -> Self {
        Rational::small(n, 1)
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Small { num: 0, .. })
    }

    /// Returns `true` if the value is exactly one.
    pub fn is_one(&self) -> bool {
        matches!(self.repr, Repr::Small { num: 1, den: 1 })
    }

    /// Returns `true` if the value is a (possibly negative) integer.
    pub fn is_integer(&self) -> bool {
        match &self.repr {
            Repr::Small { den, .. } => *den == 1,
            Repr::Big(b) => b.1.is_one(),
        }
    }

    /// Returns `true` if the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        match &self.repr {
            Repr::Small { num, .. } => *num < 0,
            Repr::Big(b) => b.0.is_negative(),
        }
    }

    /// Returns `true` if the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        match &self.repr {
            Repr::Small { num, .. } => *num > 0,
            Repr::Big(b) => b.0.is_positive(),
        }
    }

    /// The numerator (sign-carrying part) as a big integer.
    pub fn numer(&self) -> BigInt {
        match &self.repr {
            Repr::Small { num, .. } => BigInt::from(*num),
            Repr::Big(b) => b.0.clone(),
        }
    }

    /// The denominator (always strictly positive) as a big integer.
    pub fn denom(&self) -> BigInt {
        match &self.repr {
            Repr::Small { den, .. } => BigInt::from(*den),
            Repr::Big(b) => b.1.clone(),
        }
    }

    /// The numerator and denominator as machine words when the value is
    /// stored inline, without allocating; `None` for a big value.
    pub fn small_parts(&self) -> Option<(i64, u64)> {
        match self.repr {
            Repr::Small { num, den } => Some((num, den)),
            Repr::Big(_) => None,
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Self {
        match &self.repr {
            Repr::Small { num, den } => {
                // |i64::MIN| does not fit i64, so go through i128.
                Rational::from_i128_reduced((*num as i128).abs(), *den as u128)
            }
            Repr::Big(b) => Rational {
                repr: Repr::Big(Box::new((b.0.abs(), b.1.clone()))),
            },
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DivisionByZero`] if the value is zero.
    pub fn recip(&self) -> Result<Self, NumericError> {
        if self.is_zero() {
            return Err(NumericError::DivisionByZero);
        }
        match &self.repr {
            Repr::Small { num, den } => {
                let mag = *den as i128;
                let n = if *num < 0 { -mag } else { mag };
                Ok(Rational::from_i128_reduced(n, num.unsigned_abs() as u128))
            }
            // Swapping a reduced pair keeps it reduced; only the sign moves.
            Repr::Big(b) if b.0.is_negative() => Ok(Rational::from_big_reduced(-&b.1, -&b.0)),
            Repr::Big(b) => Ok(Rational::from_big_reduced(b.1.clone(), b.0.clone())),
        }
    }

    /// Raises to an integer power (negative exponents invert).
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::DivisionByZero`] when raising zero to a
    /// negative power.
    pub fn pow(&self, exp: i32) -> Result<Self, NumericError> {
        if exp < 0 {
            // unsigned_abs, not -exp: negating i32::MIN overflows.
            return Ok(self.recip()?.pow_unsigned(exp.unsigned_abs()));
        }
        Ok(self.pow_unsigned(exp as u32))
    }

    fn pow_unsigned(&self, exp: u32) -> Self {
        if let Repr::Small { num, den } = &self.repr {
            // A reduced fraction stays reduced under powers.
            if let (Some(n), Some(d)) = (num.checked_pow(exp), den.checked_pow(exp)) {
                return Rational::small(n, d);
            }
        }
        // A reduced fraction stays reduced under powers.
        let (num, den) = self.big_pair();
        Rational::from_big_reduced(num.pow(exp), den.pow(exp))
    }

    /// Lossy conversion to `f64`.
    pub fn to_f64(&self) -> f64 {
        match &self.repr {
            Repr::Small { num, den } => *num as f64 / *den as f64,
            Repr::Big(b) => {
                // Scale to keep both parts within f64 range for large operands.
                let nb = b.0.bits() as i64;
                let db = b.1.bits() as i64;
                if nb < 900 && db < 900 {
                    b.0.to_f64() / b.1.to_f64()
                } else {
                    let shift = (nb.max(db) - 512).max(0) as u32;
                    let two = BigInt::from(2_i64);
                    let scale = two.pow(shift);
                    let (n, _) = b.0.div_rem(&scale);
                    let (d, _) = b.1.div_rem(&scale);
                    if d.is_zero() {
                        if b.0.is_negative() {
                            f64::NEG_INFINITY
                        } else {
                            f64::INFINITY
                        }
                    } else {
                        n.to_f64() / d.to_f64()
                    }
                }
            }
        }
    }

    /// Approximates an `f64` by a rational with denominator at most
    /// `max_den`, using a continued-fraction (Stern–Brocot) expansion. This is
    /// how truncated-series coefficients are imported into the exact algebra
    /// engine without dragging in 50-digit dyadic denominators.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::Domain`] for NaN or infinite inputs.
    pub fn approximate_f64(v: f64, max_den: u64) -> Result<Self, NumericError> {
        if !v.is_finite() {
            return Err(NumericError::Domain(format!("{v} is not finite")));
        }
        let max_den = max_den.max(1);
        let neg = v < 0.0;
        let mut x = v.abs();
        // Continued fraction convergents p/q.
        let (mut p0, mut q0, mut p1, mut q1) = (0_u128, 1_u128, 1_u128, 0_u128);
        for _ in 0..64 {
            let a = x.floor();
            if a >= u64::MAX as f64 {
                break;
            }
            let a_u = a as u128;
            let p2 = a_u.saturating_mul(p1).saturating_add(p0);
            let q2 = a_u.saturating_mul(q1).saturating_add(q0);
            if q2 > max_den as u128 {
                break;
            }
            p0 = p1;
            q0 = q1;
            p1 = p2;
            q1 = q2;
            let frac = x - a;
            if frac < 1e-15 {
                break;
            }
            x = 1.0 / frac;
        }
        if q1 == 0 {
            return Ok(Rational::zero());
        }
        let mut r = Rational::from_bigints(BigInt::from(p1 as u64), BigInt::from(q1 as u64));
        if neg {
            r = -r;
        }
        Ok(r)
    }

    /// Rounds toward negative infinity to the nearest integer.
    pub fn floor(&self) -> BigInt {
        match &self.repr {
            Repr::Small { num, den } => {
                let q = (*num as i128).div_euclid(*den as i128);
                // |q| <= |num| <= 2^63, so the quotient always fits i128->BigInt.
                BigInt::from(q)
            }
            Repr::Big(b) => {
                let (q, r) = b.0.div_rem(&b.1);
                if r.is_negative() {
                    q - BigInt::one()
                } else {
                    q
                }
            }
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::zero()
    }
}

impl From<i64> for Rational {
    fn from(v: i64) -> Self {
        Rational::integer(v)
    }
}

impl From<BigInt> for Rational {
    fn from(v: BigInt) -> Self {
        Rational::from_big_reduced(v, BigInt::one())
    }
}

impl FromStr for Rational {
    type Err = NumericError;

    /// Parses `"3"`, `"-3/4"` or a decimal literal such as `"2.5"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if let Some((n, d)) = s.split_once('/') {
            let num: BigInt = n.trim().parse()?;
            let den: BigInt = d.trim().parse()?;
            if den.is_zero() {
                return Err(NumericError::DivisionByZero);
            }
            return Ok(Rational::from_bigints(num, den));
        }
        if let Some((int_part, frac_part)) = s.split_once('.') {
            if frac_part.is_empty() || !frac_part.bytes().all(|b| b.is_ascii_digit()) {
                return Err(NumericError::Parse(s.to_string()));
            }
            let negative = int_part.trim_start().starts_with('-');
            let int: BigInt = if int_part.is_empty() || int_part == "-" {
                BigInt::zero()
            } else {
                int_part.parse()?
            };
            let frac: BigInt = frac_part.parse()?;
            let scale = BigInt::from(10_i64).pow(frac_part.len() as u32);
            let mag = &int.abs() * &scale + frac;
            let num = if negative { -mag } else { mag };
            return Ok(Rational::from_bigints(num, scale));
        }
        let num: BigInt = s.parse()?;
        Ok(Rational::from(num))
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.repr {
            Repr::Small { num, den } => {
                if *den == 1 {
                    write!(f, "{num}")
                } else {
                    write!(f, "{num}/{den}")
                }
            }
            Repr::Big(b) => {
                if b.1.is_one() {
                    write!(f, "{}", b.0)
                } else {
                    write!(f, "{}/{}", b.0, b.1)
                }
            }
        }
    }
}

impl fmt::Debug for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rational({self})")
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &other.repr)
        {
            // Each cross product fits i128: |i64| * u64 < 2^127.
            return (*a as i128 * *d as i128).cmp(&(*c as i128 * *b as i128));
        }
        let (an, ad) = self.big_pair();
        let (bn, bd) = other.big_pair();
        (&*an * &*bd).cmp(&(&*bn * &*ad))
    }
}

impl Neg for Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        match self.repr {
            Repr::Small { num, den } => Rational::from_i128_reduced(-(num as i128), den as u128),
            Repr::Big(b) => {
                let (num, den) = *b;
                Rational::from_big_reduced(-num, den)
            }
        }
    }
}

impl Neg for &Rational {
    type Output = Rational;
    fn neg(self) -> Rational {
        -self.clone()
    }
}

/// `x / g` for a divisor `g` of `x`, borrowing `x` when `g` is one.
fn div_exact<'a>(x: &'a BigInt, g: &BigInt) -> Cow<'a, BigInt> {
    if g.is_one() {
        Cow::Borrowed(x)
    } else {
        Cow::Owned(x / g)
    }
}

/// Shared slow path for `+`/`-` (Henrici): with `g = gcd(b, d)` of the
/// denominators, `a/b ± c/d = t / (b/g · d)` where `t = a·(d/g) ± c·(b/g)`,
/// and `t` can only share factors with `g` — so coprime denominators need
/// no further gcd, and otherwise one `gcd(t, g)` reduces the result.
fn add_big(lhs: &Rational, rhs: &Rational, subtract: bool) -> Rational {
    let (a, b) = lhs.big_pair();
    let (c, d) = rhs.big_pair();
    let g = b.gcd(&d);
    let (b1, d1) = (div_exact(&b, &g), div_exact(&d, &g));
    let (ad, cb) = (&*a * &*d1, &*c * &*b1);
    let t = if subtract { ad - cb } else { ad + cb };
    if !g.is_one() && !t.is_zero() {
        let g2 = t.gcd(&g);
        if !g2.is_one() {
            return Rational::from_big_reduced(&t / &g2, &*b1 * &(&*d / &g2));
        }
    }
    Rational::from_big_reduced(t, &*b1 * &*d)
}

impl Add for &Rational {
    type Output = Rational;
    fn add(self, rhs: &Rational) -> Rational {
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &rhs.repr)
        {
            let lhs = *a as i128 * *d as i128;
            let rhs_term = *c as i128 * *b as i128;
            if let Some(n) = lhs.checked_add(rhs_term) {
                return Rational::from_i128(n, *b as u128 * *d as u128);
            }
        }
        add_big(self, rhs, false)
    }
}

impl Add for Rational {
    type Output = Rational;
    fn add(self, rhs: Rational) -> Rational {
        &self + &rhs
    }
}

impl AddAssign<&Rational> for Rational {
    fn add_assign(&mut self, rhs: &Rational) {
        *self = &*self + rhs;
    }
}

impl Sub for &Rational {
    type Output = Rational;
    fn sub(self, rhs: &Rational) -> Rational {
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &rhs.repr)
        {
            let lhs = *a as i128 * *d as i128;
            let rhs_term = *c as i128 * *b as i128;
            if let Some(n) = lhs.checked_sub(rhs_term) {
                return Rational::from_i128(n, *b as u128 * *d as u128);
            }
        }
        add_big(self, rhs, true)
    }
}

impl Sub for Rational {
    type Output = Rational;
    fn sub(self, rhs: Rational) -> Rational {
        &self - &rhs
    }
}

impl SubAssign<&Rational> for Rational {
    fn sub_assign(&mut self, rhs: &Rational) {
        *self = &*self - rhs;
    }
}

impl Mul for &Rational {
    type Output = Rational;
    fn mul(self, rhs: &Rational) -> Rational {
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &rhs.repr)
        {
            if *a == 0 || *c == 0 {
                return Rational::zero();
            }
            // Cross-reduce first so the products stay small and the result
            // is already in lowest terms (a⊥b and c⊥d are given).
            let g1 = gcd_u64(a.unsigned_abs(), *d);
            let g2 = gcd_u64(c.unsigned_abs(), *b);
            let n = (*a as i128 / g1 as i128) * (*c as i128 / g2 as i128);
            let den = (*b / g2) as u128 * (*d / g1) as u128;
            return Rational::from_i128_reduced(n, den);
        }
        if self.is_zero() || rhs.is_zero() {
            return Rational::zero();
        }
        // Cross-reduce exactly like the inline path: the gcds involve the
        // operands, not their (twice as long) products.
        let (a, b) = self.big_pair();
        let (c, d) = rhs.big_pair();
        let (g1, g2) = (a.gcd(&d), c.gcd(&b));
        Rational::from_big_reduced(
            &*div_exact(&a, &g1) * &*div_exact(&c, &g2),
            &*div_exact(&b, &g2) * &*div_exact(&d, &g1),
        )
    }
}

impl Mul for Rational {
    type Output = Rational;
    fn mul(self, rhs: Rational) -> Rational {
        &self * &rhs
    }
}

impl MulAssign<&Rational> for Rational {
    fn mul_assign(&mut self, rhs: &Rational) {
        *self = &*self * rhs;
    }
}

impl Div for &Rational {
    type Output = Rational;
    fn div(self, rhs: &Rational) -> Rational {
        assert!(!rhs.is_zero(), "division by zero");
        if let (Repr::Small { num: a, den: b }, Repr::Small { num: c, den: d }) =
            (&self.repr, &rhs.repr)
        {
            if *a == 0 {
                return Rational::zero();
            }
            // (a/b) / (c/d) = (a*d) / (b*|c|) with the sign of a*c.
            let g1 = gcd_u64(a.unsigned_abs(), c.unsigned_abs());
            let g2 = gcd_u64(*b, *d);
            let mag = (a.unsigned_abs() / g1) as u128 * (*d / g2) as u128;
            let den = (*b / g2) as u128 * (c.unsigned_abs() / g1) as u128;
            return Rational::from_sign_mag_reduced((*a < 0) != (*c < 0), mag, den);
        }
        if self.is_zero() {
            return Rational::zero();
        }
        // (a/b) / (c/d) = (a·d) / (b·c), cross-reduced like `mul`, with the
        // sign moved off the denominator.
        let (a, b) = self.big_pair();
        let (c, d) = rhs.big_pair();
        let (g1, g2) = (a.gcd(&c), b.gcd(&d));
        let num = &*div_exact(&a, &g1) * &*div_exact(&d, &g2);
        let den = &*div_exact(&b, &g2) * &*div_exact(&c, &g1);
        if den.is_negative() {
            Rational::from_big_reduced(-num, -den)
        } else {
            Rational::from_big_reduced(num, den)
        }
    }
}

impl Div for Rational {
    type Output = Rational;
    fn div(self, rhs: Rational) -> Rational {
        &self / &rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Rational {
        /// Whether the value is stored in the inline `i64`/`u64` form: the
        /// probe of the promotion/demotion boundary tests.
        fn is_small_repr(&self) -> bool {
            matches!(self.repr, Repr::Small { .. })
        }
    }

    #[test]
    fn construction_reduces() {
        assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
        assert_eq!(Rational::new(-2, -4), Rational::new(1, 2));
        assert_eq!(Rational::new(2, -4).to_string(), "-1/2");
        assert_eq!(Rational::new(0, 5), Rational::zero());
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = Rational::new(1, 0);
    }

    #[test]
    fn arithmetic_identities() {
        let a = Rational::new(3, 7);
        assert_eq!(&a + &Rational::zero(), a);
        assert_eq!(&a * &Rational::one(), a);
        assert_eq!(&a - &a, Rational::zero());
        assert_eq!(&a / &a, Rational::one());
    }

    #[test]
    fn add_sub_mul_div_known_values() {
        assert_eq!(
            Rational::new(1, 2) + Rational::new(1, 3),
            Rational::new(5, 6)
        );
        assert_eq!(
            Rational::new(1, 2) - Rational::new(1, 3),
            Rational::new(1, 6)
        );
        assert_eq!(
            Rational::new(2, 3) * Rational::new(3, 4),
            Rational::new(1, 2)
        );
        assert_eq!(
            Rational::new(2, 3) / Rational::new(4, 3),
            Rational::new(1, 2)
        );
    }

    #[test]
    fn pow_and_recip() {
        assert_eq!(Rational::new(2, 3).pow(3).unwrap(), Rational::new(8, 27));
        assert_eq!(Rational::new(2, 3).pow(-2).unwrap(), Rational::new(9, 4));
        assert_eq!(Rational::new(2, 3).pow(0).unwrap(), Rational::one());
        assert!(Rational::zero().recip().is_err());
        assert!(Rational::zero().pow(-1).is_err());
        // i32::MIN has no i32 negation; the exponent must not be negated in
        // place. (±1 keep the checked_pow fast path instant at any exponent.)
        assert_eq!(Rational::one().pow(i32::MIN).unwrap(), Rational::one());
        assert_eq!(
            Rational::integer(-1).pow(i32::MIN).unwrap(),
            Rational::one()
        );
        assert!(Rational::zero().pow(i32::MIN).is_err());
    }

    #[test]
    fn parsing() {
        assert_eq!("3/4".parse::<Rational>().unwrap(), Rational::new(3, 4));
        assert_eq!("-3/4".parse::<Rational>().unwrap(), Rational::new(-3, 4));
        assert_eq!("5".parse::<Rational>().unwrap(), Rational::integer(5));
        assert_eq!("2.5".parse::<Rational>().unwrap(), Rational::new(5, 2));
        assert_eq!("-0.125".parse::<Rational>().unwrap(), Rational::new(-1, 8));
        assert!("1/0".parse::<Rational>().is_err());
        assert!("a/b".parse::<Rational>().is_err());
    }

    #[test]
    fn display() {
        assert_eq!(Rational::new(3, 4).to_string(), "3/4");
        assert_eq!(Rational::integer(-7).to_string(), "-7");
    }

    #[test]
    fn ordering() {
        assert!(Rational::new(1, 3) < Rational::new(1, 2));
        assert!(Rational::new(-1, 2) < Rational::new(-1, 3));
        assert!(Rational::new(7, 7) == Rational::one());
    }

    #[test]
    fn approximate_f64_bounds_denominator() {
        let pi = std::f64::consts::PI;
        let approx = Rational::approximate_f64(pi, 1000).unwrap();
        assert!(approx.denom() <= BigInt::from(1000_i64));
        assert!((approx.to_f64() - pi).abs() < 1e-5);
        // The classic 355/113 convergent appears with a denominator cap of 10^4.
        let a2 = Rational::approximate_f64(pi, 10_000).unwrap();
        assert_eq!(a2, Rational::new(355, 113));
        let neg = Rational::approximate_f64(-0.5, 100).unwrap();
        assert_eq!(neg, Rational::new(-1, 2));
    }

    #[test]
    fn floor() {
        assert_eq!(Rational::new(7, 2).floor().to_i64().unwrap(), 3);
        assert_eq!(Rational::new(-7, 2).floor().to_i64().unwrap(), -4);
        assert_eq!(Rational::integer(5).floor().to_i64().unwrap(), 5);
    }

    // ---- promotion / demotion boundaries of the inline fast path ----

    #[test]
    fn i64_min_stays_inline_and_negation_promotes() {
        let min = Rational::integer(i64::MIN);
        assert!(min.is_small_repr());
        // |i64::MIN| = 2^63 does not fit the inline numerator.
        let promoted = -min.clone();
        assert!(!promoted.is_small_repr());
        assert_eq!(promoted.to_string(), "9223372036854775808");
        assert_eq!(min.abs(), promoted);
        // Negating back demotes to the inline form and round-trips exactly.
        let back = -promoted;
        assert!(back.is_small_repr());
        assert_eq!(back, min);
    }

    #[test]
    fn overflowing_arithmetic_promotes_and_demotes() {
        let big = Rational::integer(i64::MAX);
        let sum = &big + &big;
        assert!(!sum.is_small_repr());
        assert_eq!(sum.to_string(), "18446744073709551614");
        // Dividing back demotes.
        let half = &sum / &Rational::integer(2);
        assert!(half.is_small_repr());
        assert_eq!(half, big);
        // Denominator overflow: 1/2^63 * 1/4 needs a 2^65 denominator.
        let tiny = &Rational::new(1, i64::MIN)
            .abs()
            .recip()
            .unwrap()
            .recip()
            .unwrap();
        let quarter = Rational::new(1, 4);
        let product = tiny * &quarter;
        assert!(!product.is_small_repr());
        assert_eq!(product.to_string(), "1/36893488147419103232");
        let restored = &product * &Rational::integer(1 << 20);
        assert!(restored.is_small_repr());
        assert_eq!(restored, Rational::new(1, 1 << 45));
    }

    #[test]
    fn gcd_at_the_overflow_edge() {
        // i64::MIN / i64::MIN reduces to 1 without overflowing |i64::MIN|.
        assert_eq!(Rational::new(i64::MIN, i64::MIN), Rational::one());
        // i64::MIN / -2 must negate 2^62, which fits.
        let r = Rational::new(i64::MIN, -2);
        assert!(r.is_small_repr());
        assert_eq!(r, Rational::integer(1 << 62));
        // A denominator of i64::MIN magnitude: sign fix pushes 2^63 into u64.
        let d = Rational::new(3, i64::MIN);
        assert!(d.is_small_repr());
        assert_eq!(d.to_string(), "-3/9223372036854775808");
        // recip of i64::MIN: the magnitude 2^63 moves into the u64
        // denominator and the numerator becomes -1, still inline.
        let rec = Rational::integer(i64::MIN).recip().unwrap();
        assert!(rec.is_small_repr());
        assert_eq!(rec, Rational::new(1, i64::MIN));
        assert_eq!(rec.to_string(), "-1/9223372036854775808");
    }

    #[test]
    fn i128_min_cross_product_sum_does_not_overflow() {
        // Regression: the small-path sum of these two values is exactly
        // -2^127 (i128::MIN) with an odd denominator, so reduction leaves a
        // magnitude of 2^127 — which has no i128 negation. The
        // sign/magnitude builder must promote instead of panicking.
        let a = Rational::integer(i64::MIN);
        let b = Rational::from_bigints(BigInt::from(i64::MIN), BigInt::from(u64::MAX));
        let sum = &a + &b;
        assert!(!sum.is_small_repr());
        // Check the exact value against the pure-BigInt formula.
        let expected = Rational::from_bigints(
            &(&BigInt::from(i64::MIN) * &BigInt::from(u64::MAX)) + &BigInt::from(i64::MIN),
            BigInt::from(u64::MAX),
        );
        assert_eq!(sum, expected);
        // The symmetric subtraction path hits the same boundary.
        let diff = &a - &(-b);
        assert_eq!(diff, expected);
    }

    #[test]
    fn equality_and_hash_are_representation_independent() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        // The same value reached through promotion+demotion and built directly
        // must be identical (the canonical-representation invariant).
        let via_big = &(&Rational::integer(i64::MAX) + &Rational::one()) - &Rational::one();
        let direct = Rational::integer(i64::MAX);
        assert!(via_big.is_small_repr());
        assert_eq!(via_big, direct);
        let hash = |r: &Rational| {
            let mut h = DefaultHasher::new();
            r.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&via_big), hash(&direct));
    }

    #[test]
    fn big_value_arithmetic_matches_bigint_formulas() {
        let a = Rational::from_bigints(
            "123456789012345678901234567890".parse().unwrap(),
            "9876543210987654321".parse().unwrap(),
        );
        assert!(!a.is_small_repr());
        let b = Rational::new(1, 3);
        assert_eq!((&a - &a), Rational::zero());
        assert_eq!(&(&a * &b) * &Rational::integer(3), a);
        assert_eq!(&(&a + &b) - &b, a);
        assert_eq!(&a / &a, Rational::one());
        assert!(a > b);
    }

    /// The naive big-path formulas, the oracle for Henrici's: cross-multiply,
    /// then reduce the products with one full gcd.
    fn naive(op: char, x: &Rational, y: &Rational) -> Rational {
        let (a, b, c, d) = (x.numer(), x.denom(), y.numer(), y.denom());
        match op {
            '+' => Rational::from_bigints(&(&a * &d) + &(&c * &b), &b * &d),
            '-' => Rational::from_bigints(&(&a * &d) - &(&c * &b), &b * &d),
            '*' => Rational::from_bigints(&a * &c, &b * &d),
            '/' => Rational::from_bigints(&a * &d, &b * &c),
            _ => unreachable!("unknown operator {op}"),
        }
    }

    fn hash_of(r: &Rational) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        r.hash(&mut h);
        h.finish()
    }

    /// Same value, same representation (inline vs big), same hash.
    fn assert_canonical_eq(got: &Rational, want: &Rational, what: &str) {
        assert_eq!(got, want, "{what}");
        assert_eq!(got.is_small_repr(), want.is_small_repr(), "{what}: repr");
        assert_eq!(hash_of(got), hash_of(want), "{what}: hash");
    }

    /// Checks `+ − × ÷` and `recip` on `(x, y)` against [`naive`].
    fn assert_ops_match_naive(x: &Rational, y: &Rational) {
        for op in ['+', '-', '*', '/'] {
            if op == '/' && y.is_zero() {
                continue;
            }
            let got = match op {
                '+' => x + y,
                '-' => x - y,
                '*' => x * y,
                _ => x / y,
            };
            assert_canonical_eq(&got, &naive(op, x, y), &format!("{x} {op} {y}"));
        }
        for r in [x, y] {
            if !r.is_zero() {
                let want = Rational::from_bigints(r.denom(), r.numer());
                assert_canonical_eq(&r.recip().unwrap(), &want, &format!("recip {r}"));
            }
        }
    }

    /// A big integer from up to three random limbs, optionally negated —
    /// straddling the `i64`/`u64` limits of the inline form.
    fn limbs_value(negative: bool, limbs: &[u32]) -> BigInt {
        let base = BigInt::from(1_i64 << 32);
        let v = limbs.iter().rev().fold(BigInt::zero(), |acc, &l| {
            &(&acc * &base) + &BigInt::from(l as i64)
        });
        if negative {
            -v
        } else {
            v
        }
    }

    #[test]
    fn henrici_edge_cases() {
        let two64 = BigInt::from(u64::MAX) + BigInt::one();
        let big = Rational::from_bigints(BigInt::from(7_i64), two64.clone());
        let cases = [
            (big.clone(), big.clone()),
            (big.clone(), -big.clone()),
            (big.clone(), Rational::zero()),
            (Rational::integer(i64::MIN), big.clone()),
            (Rational::integer(i64::MIN).abs(), Rational::integer(2)),
            (Rational::from(two64.clone()), Rational::new(1, i64::MIN)),
            (
                Rational::from_bigints(two64.clone(), BigInt::from(3_i64)),
                big,
            ),
        ];
        for (x, y) in &cases {
            assert_ops_match_naive(x, y);
            assert_ops_match_naive(y, x);
        }
        // A big value whose reciprocal fits inline must demote.
        let r = Rational::from_bigints(-BigInt::from(u64::MAX), BigInt::from(2_i64));
        let inv = r.recip().unwrap();
        assert!(!r.is_small_repr() && inv.is_small_repr());
        assert_eq!(inv.to_string(), "-2/18446744073709551615");
    }

    proptest! {
        /// The Henrici big path against the naive cross-multiply oracle,
        /// across the inline/big boundary. The shared factor plants a
        /// common denominator part (so `gcd(b, d) != 1`), and the derived
        /// right operands `z − x` and `z / x` land results back in the
        /// inline form, exercising demotion.
        #[test]
        fn prop_henrici_matches_naive(
            x in (any::<bool>(), proptest::collection::vec(any::<u32>(), 0..4),
                  proptest::collection::vec(any::<u32>(), 1..4)),
            y in (any::<bool>(), proptest::collection::vec(any::<u32>(), 0..4),
                  proptest::collection::vec(any::<u32>(), 1..4)),
            shared in proptest::collection::vec(any::<u32>(), 0..3),
            z in (any::<i64>(), 1_i64..1000),
        ) {
            let f = limbs_value(false, &shared);
            let f = if f.is_zero() { BigInt::one() } else { f };
            let make = |(neg, num, den): &(bool, Vec<u32>, Vec<u32>)| {
                let den = limbs_value(false, den);
                let den = if den.is_zero() { BigInt::one() } else { den };
                Rational::from_bigints(limbs_value(*neg, num), &den * &f)
            };
            let (x, y) = (make(&x), make(&y));
            let z = Rational::new(z.0, z.1);
            assert_ops_match_naive(&x, &y);
            assert_ops_match_naive(&x, &naive('-', &z, &x));
            if !x.is_zero() {
                assert_ops_match_naive(&x, &naive('/', &z, &x));
            }
            assert_ops_match_naive(&z, &x);
        }

        #[test]
        fn prop_field_axioms(an in -1000_i64..1000, ad in 1_i64..50,
                             bn in -1000_i64..1000, bd in 1_i64..50,
                             cn in -1000_i64..1000, cd in 1_i64..50) {
            let a = Rational::new(an, ad);
            let b = Rational::new(bn, bd);
            let c = Rational::new(cn, cd);
            prop_assert_eq!(&a + &b, &b + &a);
            prop_assert_eq!(&a * &b, &b * &a);
            prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
            prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
        }

        #[test]
        fn prop_to_f64_matches_float_division(n in -10_000_i64..10_000, d in 1_i64..10_000) {
            let r = Rational::new(n, d);
            let expected = n as f64 / d as f64;
            prop_assert!((r.to_f64() - expected).abs() <= 1e-12 * expected.abs().max(1.0));
        }

        /// Differential test of the inline fast path against the pure
        /// [`BigInt`]-pair formulas, driven across the `i64` boundary so both
        /// the checked fast path and the promotion fallback are exercised.
        #[test]
        fn prop_fast_path_matches_bigint_reference(
            an in any::<i64>(), ad in any::<i64>(),
            bn in any::<i64>(), bd in any::<i64>(),
        ) {
            prop_assume!(ad != 0 && bd != 0);
            let a = Rational::new(an, ad);
            let b = Rational::new(bn, bd);
            let ref_pair = |r: &Rational| (r.numer(), r.denom());
            let via_big = |num: BigInt, den: BigInt| Rational::from_bigints(num, den);
            let (p, q) = ref_pair(&a);
            let (r, s) = ref_pair(&b);
            prop_assert_eq!(&a + &b, via_big(&(&p * &s) + &(&r * &q), &q * &s));
            prop_assert_eq!(&a - &b, via_big(&(&p * &s) - &(&r * &q), &q * &s));
            prop_assert_eq!(&a * &b, via_big(&p * &r, &q * &s));
            if !b.is_zero() {
                prop_assert_eq!(&a / &b, via_big(&p * &s, &q * &r));
            }
            prop_assert_eq!(a.cmp(&b), (&p * &s).cmp(&(&r * &q)));
        }
    }
}
