//! Polynomial factorization heuristics.
//!
//! `factor` and `expand` are the first pair of manipulations the paper lists.
//! The mapping algorithm does not need a complete factorization over ℚ — it
//! needs the *structural* factorizations a designer would exploit when
//! matching code to library elements: common monomial factors, content,
//! difference of squares, perfect-square trinomials, univariate rational
//! roots and square-free splitting. Those are implemented here; anything
//! beyond stays unfactored (which is always sound, merely less helpful as a
//! search guideline).

use symmap_numeric::Rational;

use crate::monomial::Monomial;
use crate::ordering::MonomialOrder;
use crate::poly::Poly;
use crate::var::Var;

/// A factorization `constant * Π factor_i ^ multiplicity_i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Factorization {
    /// Leading rational constant.
    pub constant: Rational,
    /// The non-constant factors with multiplicities.
    pub factors: Vec<(Poly, u32)>,
}

impl Factorization {
    /// Multiplies the factorization back out; must equal the original input.
    pub fn expand(&self) -> Poly {
        let mut acc = Poly::constant(self.constant.clone());
        for (f, m) in &self.factors {
            for _ in 0..*m {
                acc = acc.mul(f);
            }
        }
        acc
    }
}

impl std::fmt::Display for Factorization {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        if !self.constant.is_one() || self.factors.is_empty() {
            write!(f, "{}", self.constant)?;
            first = false;
        }
        for (p, m) in &self.factors {
            if !first {
                write!(f, "*")?;
            }
            first = false;
            if *m == 1 {
                write!(f, "({p})")?;
            } else {
                write!(f, "({p})^{m}")?;
            }
        }
        Ok(())
    }
}

/// Factors a polynomial using the heuristics described in the module
/// documentation. The product of the returned factors always equals the
/// input; when nothing is found the input is returned as a single factor.
pub fn factor(poly: &Poly) -> Factorization {
    if poly.is_zero() {
        return Factorization {
            constant: Rational::zero(),
            factors: Vec::new(),
        };
    }
    if let Some(c) = poly.as_constant() {
        return Factorization {
            constant: c,
            factors: Vec::new(),
        };
    }

    // 1. Pull out the content (rational constant).
    let content = poly.content();
    let sign = if leading_is_negative(poly) {
        -Rational::one()
    } else {
        Rational::one()
    };
    let constant = &content * &sign;
    let mut rest = poly.scale(&constant.recip().expect("nonzero content"));

    let mut factors: Vec<(Poly, u32)> = Vec::new();

    // 2. Common monomial factor, e.g. x^2*(x^15 + x^14 + 1).
    let common = common_monomial(&rest);
    if !common.is_one() {
        for (v, e) in common.iter() {
            factors.push((Poly::var(v), e));
        }
        rest = divide_by_monomial(&rest, &common);
    }

    // 3. Recursive structural factoring of what remains.
    let extra = factor_primitive(&rest, &mut factors);
    let constant = &constant * &extra;

    // Merge repeated factors.
    let mut merged: Vec<(Poly, u32)> = Vec::new();
    for (f, m) in factors {
        if let Some(entry) = merged.iter_mut().find(|(g, _)| *g == f) {
            entry.1 += m;
        } else {
            merged.push((f, m));
        }
    }
    Factorization {
        constant,
        factors: merged,
    }
}

/// Whether [`factor`] of `poly` returns only `poly`'s primitive part (the
/// input over its content, with a positive GrLex leading coefficient) as a
/// single factor, decided without building it. `var_count` is the number of
/// variables of `poly`.
///
/// Traced through [`factor`]: a common monomial of 1 splits nothing off,
/// and `factor_primitive` then finds no structure in a polynomial with at
/// least 4 terms (a difference of squares has 2, a perfect square 3) and at
/// least 2 variables (only univariate polynomials are split by roots), so
/// it pushes the primitive part whole.
pub fn only_primitive_factor(poly: &Poly, var_count: usize) -> bool {
    poly.num_terms() >= 4 && var_count >= 2 && common_monomial(poly).is_one()
}

/// Whether `poly` is normalized the way [`factor`] normalizes its factors:
/// content 1 and a positive leading coefficient under GrLex. The content is
/// the gcd of the numerators over the lcm of the denominators, so it can
/// only be 1 when every coefficient is an integer; a fractional coefficient
/// answers before any gcd runs.
pub fn is_primitive(poly: &Poly) -> bool {
    poly.iter().all(|(_, c)| c.is_integer())
        && poly.content().is_one()
        && !leading_is_negative(poly)
}

fn leading_is_negative(poly: &Poly) -> bool {
    let order = MonomialOrder::GrLex(poly.vars());
    poly.leading_term(&order)
        .map(|(_, c)| c.is_negative())
        .unwrap_or(false)
}

/// The largest monomial dividing every term.
fn common_monomial(poly: &Poly) -> Monomial {
    let mut iter = poly.iter();
    let Some((first, _)) = iter.next() else {
        return Monomial::one();
    };
    iter.fold(first.clone(), |acc, (m, _)| acc.gcd(m))
}

fn divide_by_monomial(poly: &Poly, m: &Monomial) -> Poly {
    Poly::from_terms(poly.iter().map(|(mm, c)| {
        (
            mm.div(m).expect("common monomial divides every term"),
            c.clone(),
        )
    }))
}

/// Factors a content-free polynomial into `out`, returning any leftover
/// rational constant (e.g. the leading coefficient of a fully split
/// quadratic) that the caller must fold into the overall constant.
fn factor_primitive(poly: &Poly, out: &mut Vec<(Poly, u32)>) -> Rational {
    if poly.is_constant() {
        return poly.as_constant().unwrap_or_else(Rational::one);
    }

    // Difference of squares: a^2 - b^2 where a, b are single terms.
    if let Some((a, b)) = as_difference_of_squares(poly) {
        let c1 = factor_primitive(&a.add(&b), out);
        let c2 = factor_primitive(&a.sub(&b), out);
        return &c1 * &c2;
    }

    // Perfect square trinomial: a^2 + 2ab + b^2.
    if let Some((a, b)) = as_perfect_square(poly) {
        out.push((a.add(&b), 2));
        return Rational::one();
    }

    // Univariate: strip rational roots and try a quadratic split.
    let vars = poly.vars();
    if vars.len() == 1 {
        let v = vars.iter().next().expect("one variable");
        return factor_univariate(poly, v, out);
    }

    out.push((poly.clone(), 1));
    Rational::one()
}

/// Detects `s^2 - t^2` for single-term `s`, `t`.
fn as_difference_of_squares(poly: &Poly) -> Option<(Poly, Poly)> {
    if poly.num_terms() != 2 {
        return None;
    }
    let terms: Vec<(Monomial, Rational)> =
        poly.iter().map(|(m, c)| (m.clone(), c.clone())).collect();
    let (pos, neg) = if terms[0].1.is_positive() && terms[1].1.is_negative() {
        (&terms[0], &terms[1])
    } else if terms[1].1.is_positive() && terms[0].1.is_negative() {
        (&terms[1], &terms[0])
    } else {
        return None;
    };
    let a = term_sqrt(&pos.0, &pos.1)?;
    let b = term_sqrt(&neg.0, &neg.1.abs())?;
    Some((a, b))
}

/// Square root of a single term `c*m`, if both parts are perfect squares.
fn term_sqrt(m: &Monomial, c: &Rational) -> Option<Poly> {
    if m.iter().any(|(_, e)| e % 2 != 0) {
        return None;
    }
    let root_c = rational_sqrt(c)?;
    let root_m = Monomial::from_pairs(&m.iter().map(|(v, e)| (v, e / 2)).collect::<Vec<_>>());
    Some(Poly::from_term(root_m, root_c))
}

fn rational_sqrt(c: &Rational) -> Option<Rational> {
    if c.is_negative() {
        return None;
    }
    let num = bigint_sqrt(&c.numer())?;
    let den = bigint_sqrt(&c.denom())?;
    Some(Rational::from_bigints(num, den))
}

fn bigint_sqrt(v: &symmap_numeric::BigInt) -> Option<symmap_numeric::BigInt> {
    use symmap_numeric::BigInt;
    if v.is_negative() {
        return None;
    }
    if v.is_zero() {
        return Some(BigInt::zero());
    }
    // Newton's method on integers, starting from 2^(bits/2 + 1).
    let two = BigInt::from(2_i64);
    let mut x = BigInt::from(2_i64).pow((v.bits() / 2 + 1) as u32);
    loop {
        let next = &(&x + &(v / &x)) / &two;
        if next >= x {
            break;
        }
        x = next;
    }
    if &(&x * &x) == v {
        Some(x)
    } else {
        None
    }
}

/// Detects `a^2 + 2ab + b^2` (or with `-2ab`, giving `(a-b)^2`).
fn as_perfect_square(poly: &Poly) -> Option<(Poly, Poly)> {
    if poly.num_terms() != 3 {
        return None;
    }
    let terms: Vec<(Monomial, Rational)> =
        poly.iter().map(|(m, c)| (m.clone(), c.clone())).collect();
    // Try each choice of the two "square" terms.
    for i in 0..3 {
        for j in 0..3 {
            if i == j {
                continue;
            }
            let k = 3 - i - j;
            let (Some(a), Some(b)) = (
                term_sqrt(&terms[i].0, &terms[i].1),
                term_sqrt(&terms[j].0, &terms[j].1),
            ) else {
                continue;
            };
            let cross = a.mul(&b).scale(&Rational::integer(2));
            let middle = Poly::from_term(terms[k].0.clone(), terms[k].1.clone());
            if cross == middle {
                return Some((a, b));
            }
            if cross.neg() == middle {
                return Some((a, b.neg()));
            }
        }
    }
    None
}

/// Factors a univariate polynomial by extracting rational roots
/// (rational-root theorem) and splitting quadratics with rational
/// discriminant square roots.
fn factor_univariate(poly: &Poly, v: Var, out: &mut Vec<(Poly, u32)>) -> Rational {
    let mut rest = poly.clone();
    loop {
        let deg = rest.degree_in(v);
        if deg <= 1 {
            break;
        }
        if deg == 2 {
            if let Some((r1, r2, lead)) = quadratic_roots(&rest, v) {
                out.push((Poly::var(v).sub(&Poly::constant(r1)), 1));
                out.push((Poly::var(v).sub(&Poly::constant(r2)), 1));
                rest = Poly::constant(lead);
            }
            break;
        }
        match find_rational_root(&rest, v) {
            Some(root) => {
                let linear = Poly::var(v).sub(&Poly::constant(root));
                let order = MonomialOrder::Lex(rest.vars());
                let div = crate::division::divide(&rest, std::slice::from_ref(&linear), &order);
                debug_assert!(div.remainder.is_zero());
                out.push((linear, 1));
                rest = div.quotients[0].clone();
            }
            None => break,
        }
    }
    match rest.as_constant() {
        Some(c) => c,
        None => {
            out.push((rest, 1));
            Rational::one()
        }
    }
}

fn dense_coeffs(poly: &Poly, v: Var) -> Vec<Rational> {
    poly.coefficients_in(v)
        .into_iter()
        .map(|c| c.as_constant().unwrap_or_else(Rational::zero))
        .collect()
}

fn quadratic_roots(poly: &Poly, v: Var) -> Option<(Rational, Rational, Rational)> {
    let c = dense_coeffs(poly, v);
    if c.len() != 3 {
        return None;
    }
    let (c0, c1, c2) = (&c[0], &c[1], &c[2]);
    let disc = &(c1 * c1) - &(&(&Rational::integer(4) * c2) * c0);
    let sqrt_disc = rational_sqrt(&disc)?;
    let two_a = &Rational::integer(2) * c2;
    let r1 = &(&-c1.clone() + &sqrt_disc) / &two_a;
    let r2 = &(&-c1.clone() - &sqrt_disc) / &two_a;
    Some((r1, r2, c2.clone()))
}

/// Rational-root theorem search over divisors of the constant and leading
/// coefficients (bounded to keep the search cheap).
fn find_rational_root(poly: &Poly, v: Var) -> Option<Rational> {
    let coeffs = dense_coeffs(poly, v);
    let c0 = coeffs.first()?.clone();
    let cn = coeffs.last()?.clone();
    if c0.is_zero() {
        return Some(Rational::zero());
    }
    // Work with integer-scaled coefficients.
    let p_divs = small_divisors(&c0);
    let q_divs = small_divisors(&cn);
    for p in &p_divs {
        for q in &q_divs {
            for sign in [1_i64, -1] {
                let candidate = &(p * &Rational::integer(sign)) / q;
                let mut asn = std::collections::BTreeMap::new();
                asn.insert(v, candidate.clone());
                if poly.eval(&asn).is_zero() {
                    return Some(candidate);
                }
            }
        }
    }
    None
}

fn small_divisors(c: &Rational) -> Vec<Rational> {
    // Use the numerator magnitude if it fits in i64; otherwise just 1.
    let mut out = vec![Rational::one()];
    if let Ok(n) = c.numer().to_i64() {
        let n = n.unsigned_abs().min(10_000);
        let mut d = 1_u64;
        while d * d <= n {
            if n % d == 0 {
                out.push(Rational::integer(d as i64));
                out.push(Rational::integer((n / d) as i64));
            }
            d += 1;
        }
    }
    out.sort();
    out.dedup();
    out.retain(|r| !r.is_zero());
    out
}

/// Expands a factorization (or any polynomial product expression) — provided
/// for symmetry with Maple's `expand`; polynomials are already stored
/// expanded, so this simply multiplies a factor list back out.
pub fn expand(factors: &Factorization) -> Poly {
    factors.expand()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Factorization {
        /// Non-constant factors counted with multiplicity.
        fn factor_count(&self) -> u32 {
            self.factors.iter().map(|(_, m)| *m).sum()
        }
    }

    fn p(s: &str) -> Poly {
        Poly::parse(s).unwrap()
    }

    #[test]
    fn paper_example_common_monomial() {
        // factor(x^16 + x^17 + x^2) = x^2 * (x^14 + x^15 + 1)
        let f = factor(&p("x^16 + x^17 + x^2"));
        assert_eq!(f.expand(), p("x^16 + x^17 + x^2"));
        assert!(f.factors.iter().any(|(q, m)| *q == p("x") && *m == 2));
        assert!(f.factors.iter().any(|(q, _)| *q == p("x^15 + x^14 + 1")));
    }

    #[test]
    fn difference_of_squares() {
        let f = factor(&p("x^2 - y^2"));
        assert_eq!(f.expand(), p("x^2 - y^2"));
        assert_eq!(f.factor_count(), 2);
        assert!(f.factors.iter().any(|(q, _)| *q == p("x + y")));
        assert!(f.factors.iter().any(|(q, _)| *q == p("x - y")));
    }

    #[test]
    fn perfect_square_trinomial() {
        let f = factor(&p("x^2 + 2*x*y + y^2"));
        assert_eq!(f.factors.len(), 1);
        assert_eq!(f.factors[0].1, 2);
        assert_eq!(f.expand(), p("x^2 + 2*x*y + y^2"));
        let g = factor(&p("x^2 - 2*x*y + y^2"));
        assert_eq!(g.factors[0].1, 2);
        assert_eq!(g.expand(), p("x^2 - 2*x*y + y^2"));
    }

    #[test]
    fn univariate_rational_roots() {
        // x^3 - 6x^2 + 11x - 6 = (x-1)(x-2)(x-3)
        let f = factor(&p("x^3 - 6*x^2 + 11*x - 6"));
        assert_eq!(f.expand(), p("x^3 - 6*x^2 + 11*x - 6"));
        assert_eq!(f.factor_count(), 3);
    }

    #[test]
    fn quadratic_with_rational_roots() {
        // 2x^2 + x - 1 = 2(x - 1/2)(x + 1)
        let f = factor(&p("2*x^2 + x - 1"));
        assert_eq!(f.expand(), p("2*x^2 + x - 1"));
        assert_eq!(f.factor_count(), 2);
        assert_eq!(f.constant, Rational::integer(2));
    }

    #[test]
    fn irreducible_quadratic_left_alone() {
        let f = factor(&p("x^2 + 1"));
        assert_eq!(f.factors, vec![(p("x^2 + 1"), 1)]);
        assert_eq!(f.expand(), p("x^2 + 1"));
    }

    #[test]
    fn content_and_sign_extraction() {
        let f = factor(&p("-4*x^2 + 4*y^2"));
        assert_eq!(f.expand(), p("-4*x^2 + 4*y^2"));
        assert_eq!(f.constant, Rational::integer(-4));
        assert_eq!(f.factor_count(), 2);
    }

    #[test]
    fn constants_and_zero() {
        assert_eq!(factor(&Poly::zero()).constant, Rational::zero());
        let f = factor(&p("7"));
        assert_eq!(f.constant, Rational::integer(7));
        assert!(f.factors.is_empty());
        assert_eq!(f.expand(), p("7"));
    }

    #[test]
    fn display_shows_structure() {
        let f = factor(&p("x^2 - y^2"));
        let s = f.to_string();
        assert!(s.contains('(') && s.contains(')'), "{s}");
    }

    #[test]
    fn imdct_subexpression_factoring() {
        // A windowed-IMDCT-style subexpression: c*y0 + c*y1 = c*(y0 + y1);
        // the common "monomial" here is the variable c.
        let f = factor(&p("c*y0 + c*y1"));
        assert_eq!(f.expand(), p("c*y0 + c*y1"));
        assert!(f.factors.iter().any(|(q, _)| *q == p("c")));
        assert!(f.factors.iter().any(|(q, _)| *q == p("y0 + y1")));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_factor_expand_round_trips(
            a in -5_i64..5, b in -5_i64..5, c in -5_i64..5,
            e1 in 0_u32..4, e2 in 0_u32..3,
        ) {
            let q = Poly::parse(&format!("{a}*x^{e1}*y^{e2} + {b}*x*y + {c}*x")).unwrap();
            let f = factor(&q);
            prop_assert_eq!(f.expand(), q);
        }

        #[test]
        fn prop_products_of_linears_fully_factor(r1 in -6_i64..6, r2 in -6_i64..6) {
            let q = Poly::parse(&format!("(x - {r1})*(x - {r2})")).unwrap()
                .add(&Poly::zero());
            let f = factor(&q);
            prop_assert_eq!(f.expand(), q);
            prop_assert_eq!(f.factor_count(), 2);
        }
    }
}
