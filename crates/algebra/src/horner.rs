//! Horner (nested) forms of multivariate polynomials.
//!
//! The Horner form is a nested normal form with a minimal number of
//! multiplications and additions for sequential evaluation. The paper uses it
//! both as a cost baseline (how cheaply could this polynomial be computed with
//! plain MULs/ADDs?) and as one of the expression-tree manipulations that
//! guide side-relation selection. Here it serves the cost baseline and the
//! reports; the mapper's candidate order uses factorization only, since a
//! Horner form expands back to its input exactly (`DESIGN.md` §10).

use std::fmt;

use symmap_numeric::Rational;

use crate::poly::Poly;
use crate::var::Var;

/// A node of a Horner (nested) form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HornerForm {
    /// A constant leaf.
    Constant(Rational),
    /// A variable leaf.
    Variable(Var),
    /// `base + var * inner` — the nested step of Horner's rule. `base` may be
    /// absent (zero) and `power` records how many times `var` multiplies the
    /// inner form (for runs of missing coefficients).
    Nest {
        /// The variable factored out at this level.
        var: Var,
        /// The exponent applied to `var`.
        power: u32,
        /// The coefficient of `var^power` (already in Horner form).
        inner: Box<HornerForm>,
        /// The remaining terms not containing `var` at this level.
        base: Box<HornerForm>,
    },
}

impl HornerForm {
    /// Number of multiplications needed to evaluate this form (counting
    /// `var^power` as `power` multiplications).
    pub fn mul_count(&self) -> u32 {
        match self {
            HornerForm::Constant(_) | HornerForm::Variable(_) => 0,
            HornerForm::Nest {
                power, inner, base, ..
            } => {
                // var^power costs power-1 multiplications; multiplying by the
                // inner coefficient costs one more unless that coefficient is
                // ±1 (a sign flip is an add/sub, not a multiplication).
                let inner_is_unit = matches!(&**inner, HornerForm::Constant(c) if c.abs().is_one());
                let own = if inner_is_unit {
                    power.saturating_sub(1)
                } else {
                    *power
                };
                own + inner.mul_count() + base.mul_count()
            }
        }
    }

    /// Number of additions needed to evaluate this form.
    pub fn add_count(&self) -> u32 {
        match self {
            HornerForm::Constant(_) | HornerForm::Variable(_) => 0,
            HornerForm::Nest { inner, base, .. } => {
                let base_is_zero = matches!(&**base, HornerForm::Constant(c) if c.is_zero());
                (if base_is_zero { 0 } else { 1 }) + inner.add_count() + base.add_count()
            }
        }
    }

    /// Expands the nested form back into a flat polynomial (inverse of
    /// [`horner_form`]); used to check that the transformation is lossless.
    pub fn expand(&self) -> Poly {
        match self {
            HornerForm::Constant(c) => Poly::constant(c.clone()),
            HornerForm::Variable(v) => Poly::var(*v),
            HornerForm::Nest {
                var,
                power,
                inner,
                base,
            } => {
                let v = Poly::var(*var).pow(*power).expect("bounded exponent");
                v.mul(&inner.expand()).add(&base.expand())
            }
        }
    }
}

impl fmt::Display for HornerForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HornerForm::Constant(c) => {
                if c.is_negative() {
                    write!(f, "({c})")
                } else {
                    write!(f, "{c}")
                }
            }
            HornerForm::Variable(v) => write!(f, "{v}"),
            HornerForm::Nest {
                var,
                power,
                inner,
                base,
            } => {
                let var_str = if *power == 1 {
                    format!("{var}")
                } else {
                    format!("{var}^{power}")
                };
                let inner_is_one = matches!(&**inner, HornerForm::Constant(c) if c.is_one());
                let base_is_zero = matches!(&**base, HornerForm::Constant(c) if c.is_zero());
                let prod = if inner_is_one {
                    var_str
                } else {
                    format!("{}*{var_str}", parenthesize(inner))
                };
                if base_is_zero {
                    write!(f, "{prod}")
                } else {
                    write!(f, "{} + {prod}", parenthesize_base(base))
                }
            }
        }
    }
}

fn parenthesize(h: &HornerForm) -> String {
    match h {
        HornerForm::Constant(_) | HornerForm::Variable(_) => h.to_string(),
        HornerForm::Nest { .. } => format!("({h})"),
    }
}

fn parenthesize_base(h: &HornerForm) -> String {
    h.to_string()
}

/// Converts a polynomial to Horner form with respect to an explicit variable
/// order (factored out in that order), mirroring Maple's
/// `convert(S, 'horner', [x, y])`.
pub fn horner_form(poly: &Poly, var_order: &[Var]) -> HornerForm {
    // Pick the first listed variable that actually occurs.
    let var = var_order.iter().copied().find(|&v| poly.degree_in(v) > 0);
    let Some(v) = var else {
        // No listed variable occurs: fall back to any remaining variable, or a
        // leaf for constants / single variables.
        let vars = poly.vars();
        if let Some(other) = vars.iter().next() {
            if !var_order.contains(&other) {
                return horner_form(poly, &[other]);
            }
        }
        return leaf(poly);
    };
    let rest: Vec<Var> = var_order.iter().copied().filter(|&x| x != v).collect();

    let coeffs = poly.coefficients_in(v);
    // Process from the highest power down, nesting as we go and skipping runs
    // of zero coefficients by raising the power.
    let mut acc: Option<(HornerForm, u32)> = None; // (form, pending power of v)
    for k in (0..coeffs.len()).rev() {
        let c = &coeffs[k];
        match (&mut acc, c.is_zero()) {
            (None, true) => {}
            (None, false) => {
                acc = Some((horner_form(c, &rest), k as u32));
            }
            (Some((form, pending)), is_zero) => {
                if k == 0 && is_zero && *pending > 0 {
                    // Final wrap with no constant term.
                    let power = *pending;
                    let inner = std::mem::replace(form, HornerForm::Constant(Rational::zero()));
                    acc = Some((
                        HornerForm::Nest {
                            var: v,
                            power,
                            inner: Box::new(inner),
                            base: Box::new(HornerForm::Constant(Rational::zero())),
                        },
                        0,
                    ));
                } else if !is_zero {
                    let power = *pending - k as u32;
                    let inner = std::mem::replace(form, HornerForm::Constant(Rational::zero()));
                    acc = Some((
                        HornerForm::Nest {
                            var: v,
                            power,
                            inner: Box::new(inner),
                            base: Box::new(horner_form(c, &rest)),
                        },
                        k as u32,
                    ));
                }
            }
        }
    }
    match acc {
        None => HornerForm::Constant(Rational::zero()),
        Some((form, 0)) => form,
        Some((form, pending)) => HornerForm::Nest {
            var: v,
            power: pending,
            inner: Box::new(form),
            base: Box::new(HornerForm::Constant(Rational::zero())),
        },
    }
}

/// Horner form using the polynomial's own variables in default (interner)
/// order.
pub fn horner_form_auto(poly: &Poly) -> HornerForm {
    let vars: Vec<Var> = poly.vars().iter().collect();
    horner_form(poly, &vars)
}

fn leaf(poly: &Poly) -> HornerForm {
    if let Some(c) = poly.as_constant() {
        return HornerForm::Constant(c);
    }
    if let Some(v) = poly.as_single_variable() {
        return HornerForm::Variable(v);
    }
    // Shouldn't happen: non-constant polynomial with no variables.
    HornerForm::Constant(Rational::zero())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monomial::Monomial;
    use proptest::prelude::*;

    fn p(s: &str) -> Poly {
        Poly::parse(s).unwrap()
    }

    fn vars(names: &[&str]) -> Vec<Var> {
        names.iter().map(|n| Var::new(n)).collect()
    }

    /// Multiplications the expanded form needs: each term's power product
    /// plus one for a coefficient other than ±1. Horner must never need more.
    fn naive_mul_count(q: &Poly) -> u32 {
        q.iter()
            .map(|(m, c)| {
                let scaled = !m.is_one() && !c.is_one() && !(-c.clone()).is_one();
                m.total_degree().saturating_sub(1) + u32::from(scaled)
            })
            .sum()
    }

    #[test]
    fn univariate_horner_structure() {
        // 3x^3 + 2x + 1 -> 1 + x*(2 + x^2*3): 2 + power muls... expand must match.
        let q = p("3*x^3 + 2*x + 1");
        let h = horner_form(&q, &vars(&["x"]));
        assert_eq!(h.expand(), q);
        // Horner never needs more multiplications than the naive expansion.
        assert!(h.mul_count() <= naive_mul_count(&q));
    }

    #[test]
    fn paper_example_from_section_3_3() {
        // S := y^2*x + y*x^2 + 4*x*y + x^2 + 2*x
        // convert(S, 'horner', [x, y]) = (2 + (4 + y)*y + (y + 1)*x)*x
        let q = p("y^2*x + y*x^2 + 4*x*y + x^2 + 2*x");
        let h = horner_form(&q, &vars(&["x", "y"]));
        assert_eq!(h.expand(), q, "horner form must be lossless");
        // The Maple output uses 4 multiplications ((4+y)*y, (y+1)*x, outer *x)
        // — allow equality with that count.
        assert!(
            h.mul_count() <= 4,
            "mul count {} too high: {h}",
            h.mul_count()
        );
        assert!(h.add_count() <= 4);
        let naive = naive_mul_count(&q);
        assert!(
            h.mul_count() < naive,
            "horner {} should beat naive {naive}",
            h.mul_count()
        );
    }

    #[test]
    fn constant_and_single_variable_leaves() {
        assert_eq!(
            horner_form(&p("5"), &vars(&["x"])),
            HornerForm::Constant(Rational::integer(5))
        );
        assert_eq!(
            horner_form(&Poly::zero(), &vars(&["x"])),
            HornerForm::Constant(Rational::zero())
        );
        assert_eq!(horner_form(&p("x"), &vars(&["x"])).expand(), p("x"));
    }

    #[test]
    fn sparse_polynomial_uses_power_jumps() {
        // x^6 + 1: Horner should not introduce five nested x multiplications
        // of zero coefficients; the power jump keeps the structure shallow.
        let q = p("x^6 + 1");
        let h = horner_form(&q, &vars(&["x"]));
        assert_eq!(h.expand(), q);
        assert!(h.mul_count() <= 6);
    }

    #[test]
    fn variable_order_changes_shape_but_not_value() {
        let q = p("x^2*y + x*y^2 + x*y + x + y");
        let hx = horner_form(&q, &vars(&["x", "y"]));
        let hy = horner_form(&q, &vars(&["y", "x"]));
        assert_eq!(hx.expand(), q);
        assert_eq!(hy.expand(), q);
    }

    #[test]
    fn unlisted_variables_still_handled() {
        let q = p("a*b + b^2");
        let h = horner_form(&q, &vars(&["zz_unrelated"]));
        assert_eq!(h.expand(), q);
    }

    #[test]
    fn display_is_readable() {
        let q = p("x^2 + 2*x + 1");
        let h = horner_form(&q, &vars(&["x"]));
        let s = h.to_string();
        assert!(s.contains('x'), "display {s}");
        assert_eq!(
            Poly::parse(&s).unwrap(),
            q,
            "display must parse back to the same polynomial"
        );
    }

    #[test]
    fn display_round_trips_multivariate() {
        for src in [
            "y^2*x + y*x^2 + 4*x*y + x^2 + 2*x",
            "x^6 + 1",
            "x*y*z + x*y + x",
            "-x^2 + 3",
        ] {
            let q = p(src);
            let h = horner_form_auto(&q);
            assert_eq!(
                Poly::parse(&h.to_string()).unwrap(),
                q,
                "round trip for {src}: {h}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_horner_expand_is_identity(
            a in -6_i64..6, b in -6_i64..6, c in -6_i64..6, d in -6_i64..6,
            e1 in 0_u32..4, e2 in 0_u32..4,
        ) {
            let src = format!("{a}*x^{e1}*y + {b}*x*y^{e2} + {c}*x + {d}");
            let q = Poly::parse(&src).unwrap();
            let h = horner_form(&q, &[Var::new("x"), Var::new("y")]);
            prop_assert_eq!(h.expand(), q);
        }

        /// `horner_form_auto` is lossless on random multivariate input:
        /// 1–5 variables, up to 8 terms of total degree ≤ 4, rational
        /// coefficients.
        #[test]
        fn prop_horner_auto_expand_is_identity(
            nvars in 1_usize..6,
            terms in proptest::collection::vec(
                (-9_i64..10, 1_i64..6, proptest::collection::vec(0_u32..5, 5..6)),
                1..9,
            ),
        ) {
            let vars: Vec<Var> = ["ha", "hb", "hc", "hd", "he"][..nvars]
                .iter()
                .map(|n| Var::new(n))
                .collect();
            let mut q = Poly::zero();
            for (num, den, exps) in &terms {
                // Cap the running total so the term's degree stays ≤ 4.
                let mut left = 4;
                let pairs: Vec<(Var, u32)> = vars
                    .iter()
                    .zip(exps)
                    .map(|(&v, &e)| {
                        let e = e.min(left);
                        left -= e;
                        (v, e)
                    })
                    .collect();
                let term = Poly::from_term(Monomial::from_pairs(&pairs), Rational::new(*num, *den));
                q = q.add(&term);
            }
            prop_assert_eq!(horner_form_auto(&q).expand(), q);
        }

        #[test]
        fn prop_horner_never_worse_than_naive(
            a in 1_i64..6, b in -6_i64..6, c in -6_i64..6,
            e in 2_u32..6,
        ) {
            let q = Poly::parse(&format!("{a}*x^{e} + {b}*x^2 + {c}*x + 1")).unwrap();
            let h = horner_form(&q, &[Var::new("x")]);
            prop_assert!(h.mul_count() <= naive_mul_count(&q));
        }
    }
}
