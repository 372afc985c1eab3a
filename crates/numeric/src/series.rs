//! Truncated Taylor series.
//!
//! Target-code identification (§3.2 of the paper) turns *nonlinear* functions
//! (`exp`, `log`, trigonometric calls, `pow(x, 4/3)` in the MP3 dequantizer)
//! into polynomials by substituting a truncated Taylor expansion.
//! The mapper then treats the approximation like any other polynomial while the
//! accuracy bookkeeping carries the truncation error bound.
//!
//! ```
//! use symmap_numeric::series::{taylor, Function};
//!
//! // 6-term Maclaurin series of exp(x); coefficient of x^3 is 1/6.
//! let coeffs = taylor(Function::Exp, 6);
//! assert!((coeffs[3] - 1.0 / 6.0).abs() < 1e-12);
//! ```

// lint:allow-file(D3): series coefficients are exact Rational; the f64
// helpers exist to validate truncation error against reference values.
use crate::rational::Rational;

/// Elementary functions for which the identification step can synthesize a
/// polynomial approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Function {
    /// `exp(x)` expanded around 0.
    Exp,
    /// `ln(1 + x)` expanded around 0.
    Ln1p,
    /// `sin(x)` expanded around 0.
    Sin,
    /// `cos(x)` expanded around 0.
    Cos,
    /// `atan(x)` expanded around 0.
    Atan,
    /// `1/(1 + x)` expanded around 0.
    Recip1p,
    /// `sqrt(1 + x)` expanded around 0.
    Sqrt1p,
    /// `(1 + x)^(4/3)`, the MP3 requantization exponent, expanded around 0.
    Pow43,
}

impl Function {
    /// Human-readable name used in reports and library catalogs.
    pub fn name(&self) -> &'static str {
        match self {
            Function::Exp => "exp",
            Function::Ln1p => "ln1p",
            Function::Sin => "sin",
            Function::Cos => "cos",
            Function::Atan => "atan",
            Function::Recip1p => "recip1p",
            Function::Sqrt1p => "sqrt1p",
            Function::Pow43 => "pow43",
        }
    }

    /// Evaluates the exact function (used as the accuracy reference).
    pub fn eval(&self, x: f64) -> f64 {
        match self {
            Function::Exp => x.exp(),
            Function::Ln1p => x.ln_1p(),
            Function::Sin => x.sin(),
            Function::Cos => x.cos(),
            Function::Atan => x.atan(),
            Function::Recip1p => 1.0 / (1.0 + x),
            Function::Sqrt1p => (1.0 + x).sqrt(),
            Function::Pow43 => (1.0 + x).powf(4.0 / 3.0),
        }
    }
}

/// Returns the first `terms` Maclaurin coefficients `c0..c_{terms-1}` of the
/// given function, so that `f(x) ≈ Σ c_k x^k`.
pub fn taylor(f: Function, terms: usize) -> Vec<f64> {
    let mut c = vec![0.0_f64; terms];
    match f {
        Function::Exp => {
            let mut fact = 1.0;
            for (k, ck) in c.iter_mut().enumerate() {
                if k > 0 {
                    fact *= k as f64;
                }
                *ck = 1.0 / fact;
            }
        }
        Function::Ln1p => {
            for (k, ck) in c.iter_mut().enumerate().skip(1) {
                *ck = if k % 2 == 1 { 1.0 } else { -1.0 } / k as f64;
            }
        }
        Function::Sin => {
            let mut fact = 1.0;
            for (k, ck) in c.iter_mut().enumerate().take(terms) {
                if k > 0 {
                    fact *= k as f64;
                }
                if k % 2 == 1 {
                    *ck = if (k / 2) % 2 == 0 { 1.0 } else { -1.0 } / fact;
                }
            }
        }
        Function::Cos => {
            let mut fact = 1.0;
            for (k, ck) in c.iter_mut().enumerate().take(terms) {
                if k > 0 {
                    fact *= k as f64;
                }
                if k % 2 == 0 {
                    *ck = if (k / 2) % 2 == 0 { 1.0 } else { -1.0 } / fact;
                }
            }
        }
        Function::Atan => {
            for k in (1..terms).step_by(2) {
                c[k] = if (k / 2) % 2 == 0 { 1.0 } else { -1.0 } / k as f64;
            }
        }
        Function::Recip1p => {
            for (k, ck) in c.iter_mut().enumerate() {
                *ck = if k % 2 == 0 { 1.0 } else { -1.0 };
            }
        }
        Function::Sqrt1p => {
            // Binomial series with alpha = 1/2.
            binomial_series(&mut c, 0.5);
        }
        Function::Pow43 => {
            binomial_series(&mut c, 4.0 / 3.0);
        }
    }
    c
}

fn binomial_series(c: &mut [f64], alpha: f64) {
    let mut coeff = 1.0;
    for (k, ck) in c.iter_mut().enumerate() {
        if k > 0 {
            coeff *= (alpha - (k as f64 - 1.0)) / k as f64;
        }
        *ck = coeff;
    }
}

/// Returns the Taylor coefficients as exact rationals (continued-fraction
/// approximation with denominators bounded by `max_den`), ready to be used as
/// polynomial coefficients in the algebra engine.
pub fn taylor_rational(f: Function, terms: usize, max_den: u64) -> Vec<Rational> {
    taylor(f, terms)
        .into_iter()
        .map(|c| Rational::approximate_f64(c, max_den).unwrap_or_else(|_| Rational::zero()))
        .collect()
}

/// Evaluates a dense univariate polynomial `Σ c_k x^k` by Horner's rule.
pub fn eval_poly(coeffs: &[f64], x: f64) -> f64 {
    coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
}

/// Maximum absolute error of a polynomial approximation against the exact
/// function, sampled at `samples` evenly spaced points of `[a, b]`.
pub fn max_error(f: Function, coeffs: &[f64], a: f64, b: f64, samples: usize) -> f64 {
    let samples = samples.max(2);
    (0..samples)
        .map(|i| {
            let x = a + (b - a) * i as f64 / (samples - 1) as f64;
            (f.eval(x) - eval_poly(coeffs, x)).abs()
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exp_taylor_known_coefficients() {
        let c = taylor(Function::Exp, 6);
        assert_eq!(c[0], 1.0);
        assert_eq!(c[1], 1.0);
        assert!((c[2] - 0.5).abs() < 1e-15);
        assert!((c[5] - 1.0 / 120.0).abs() < 1e-15);
    }

    #[test]
    fn ln1p_alternating_harmonic() {
        let c = taylor(Function::Ln1p, 5);
        assert_eq!(c[0], 0.0);
        assert_eq!(c[1], 1.0);
        assert_eq!(c[2], -0.5);
        assert!((c[3] - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(c[4], -0.25);
    }

    #[test]
    fn sin_cos_parity() {
        let s = taylor(Function::Sin, 8);
        let c = taylor(Function::Cos, 8);
        for k in (0..8).step_by(2) {
            assert_eq!(s[k], 0.0);
        }
        for k in (1..8).step_by(2) {
            assert_eq!(c[k], 0.0);
        }
        assert!((s[1] - 1.0).abs() < 1e-15);
        assert!((s[3] + 1.0 / 6.0).abs() < 1e-15);
        assert!((c[2] + 0.5).abs() < 1e-15);
    }

    #[test]
    fn taylor_approximates_near_zero() {
        for f in [
            Function::Exp,
            Function::Ln1p,
            Function::Sin,
            Function::Cos,
            Function::Atan,
            Function::Recip1p,
            Function::Sqrt1p,
            Function::Pow43,
        ] {
            let c = taylor(f, 12);
            let err = max_error(f, &c, -0.3, 0.3, 101);
            assert!(err < 1e-6, "{:?} error {err}", f);
        }
    }

    #[test]
    fn rational_coefficients_are_close() {
        let exact = taylor(Function::Exp, 8);
        let rats = taylor_rational(Function::Exp, 8, 1_000_000);
        for (e, r) in exact.iter().zip(&rats) {
            assert!((e - r.to_f64()).abs() < 1e-6);
        }
    }

    #[test]
    fn pow43_matches_dequantizer_exponent() {
        // The MP3 dequantizer computes |x|^(4/3); near x = 1 the series in
        // (1 + t) must track the exact power function.
        let c = taylor(Function::Pow43, 14);
        for t in [-0.2, -0.1, 0.0, 0.1, 0.2] {
            let exact = (1.0 + t_f(t)).powf(4.0 / 3.0);
            assert!((eval_poly(&c, t_f(t)) - exact).abs() < 1e-8);
        }
        fn t_f(t: f64) -> f64 {
            t
        }
    }

    #[test]
    fn eval_poly_horner() {
        // 1 + 2x + 3x^2 at x = 2 is 17.
        assert_eq!(eval_poly(&[1.0, 2.0, 3.0], 2.0), 17.0);
        assert_eq!(eval_poly(&[], 3.0), 0.0);
    }

    proptest! {
        #[test]
        fn prop_taylor_error_shrinks_with_terms(x in -0.25_f64..0.25) {
            let short = taylor(Function::Exp, 3);
            let long = taylor(Function::Exp, 10);
            let es = (eval_poly(&short, x) - x.exp()).abs();
            let el = (eval_poly(&long, x) - x.exp()).abs();
            prop_assert!(el <= es + 1e-12);
        }
    }
}
