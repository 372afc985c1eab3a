//! Symbolic expression trees.
//!
//! The mapping algorithm of Table 2 operates on an *expression tree*
//! (`exp_tree`) in addition to flat polynomials: tree-height reduction,
//! factoring, Horner transformation and substitution each yield a different
//! tree for the same function, and each tree suggests a different initial set
//! of side relations. [`Expr`] is that tree form; it also carries
//! non-polynomial leaves (calls to `exp`, `log`, …) so the identification step
//! can decide where to substitute a series approximation.

// lint:allow-file(D3): eval_f64 is the explicit float *boundary* — a
// diagnostic evaluator for spot-checking expressions numerically. The
// mapping pipeline itself never consumes its results.
use std::collections::BTreeMap;
use std::fmt;

use symmap_numeric::series::{taylor_rational, Function};
use symmap_numeric::Rational;

use crate::error::AlgebraError;
use crate::poly::Poly;
use crate::var::Var;

/// A symbolic expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A rational constant.
    Constant(Rational),
    /// A variable reference.
    Variable(Var),
    /// Sum of subexpressions.
    Add(Vec<Expr>),
    /// Product of subexpressions.
    Mul(Vec<Expr>),
    /// A subexpression raised to a fixed non-negative power.
    Pow(Box<Expr>, u32),
    /// A call to an elementary function (non-polynomial leaf).
    Call(Function, Box<Expr>),
}

impl Expr {
    /// A constant expression.
    pub fn constant(c: i64) -> Expr {
        Expr::Constant(Rational::integer(c))
    }

    /// A named-variable expression.
    pub fn var(name: &str) -> Expr {
        Expr::Variable(Var::new(name))
    }

    /// Sum of two expressions (flattening nested sums).
    // Consuming n-ary constructors, not std ops (which would force clones).
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Expr) -> Expr {
        match (self, other) {
            (Expr::Add(mut a), Expr::Add(b)) => {
                a.extend(b);
                Expr::Add(a)
            }
            (Expr::Add(mut a), b) => {
                a.push(b);
                Expr::Add(a)
            }
            (a, Expr::Add(mut b)) => {
                b.insert(0, a);
                Expr::Add(b)
            }
            (a, b) => Expr::Add(vec![a, b]),
        }
    }

    /// Product of two expressions (flattening nested products).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Expr) -> Expr {
        match (self, other) {
            (Expr::Mul(mut a), Expr::Mul(b)) => {
                a.extend(b);
                Expr::Mul(a)
            }
            (Expr::Mul(mut a), b) => {
                a.push(b);
                Expr::Mul(a)
            }
            (a, Expr::Mul(mut b)) => {
                b.insert(0, a);
                Expr::Mul(b)
            }
            (a, b) => Expr::Mul(vec![a, b]),
        }
    }

    /// Height of the tree (a leaf has height 1). Tree-height reduction tries
    /// to minimize this, which shortens the critical path of the generated
    /// code and, in the mapping algorithm, produces alternative groupings of
    /// operands.
    pub fn height(&self) -> usize {
        match self {
            Expr::Constant(_) | Expr::Variable(_) => 1,
            Expr::Add(xs) | Expr::Mul(xs) => 1 + xs.iter().map(Expr::height).max().unwrap_or(0),
            Expr::Pow(b, _) => 1 + b.height(),
            Expr::Call(_, a) => 1 + a.height(),
        }
    }

    /// Number of operation nodes (adds, muls, pows, calls).
    pub fn op_count(&self) -> usize {
        match self {
            Expr::Constant(_) | Expr::Variable(_) => 0,
            Expr::Add(xs) | Expr::Mul(xs) => {
                xs.len().saturating_sub(1) + xs.iter().map(Expr::op_count).sum::<usize>()
            }
            Expr::Pow(b, _) => 1 + b.op_count(),
            Expr::Call(_, a) => 1 + a.op_count(),
        }
    }

    /// Returns `true` when the expression contains no [`Expr::Call`] node,
    /// i.e. it is already a polynomial.
    pub fn is_polynomial(&self) -> bool {
        match self {
            Expr::Constant(_) | Expr::Variable(_) => true,
            Expr::Add(xs) | Expr::Mul(xs) => xs.iter().all(Expr::is_polynomial),
            Expr::Pow(b, _) => b.is_polynomial(),
            Expr::Call(_, _) => false,
        }
    }

    /// Converts the expression into a flat polynomial.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::NotPolynomial`] if the tree contains a function
    /// call (use [`Expr::approximate_calls`] first),
    /// [`AlgebraError::ExponentTooLarge`] for oversized exponents and
    /// [`AlgebraError::DegreeOverflow`] when a product's exponents or total
    /// degree overflow `u32`.
    pub fn to_poly(&self) -> Result<Poly, AlgebraError> {
        match self {
            Expr::Constant(c) => Ok(Poly::constant(c.clone())),
            Expr::Variable(v) => Ok(Poly::var(*v)),
            Expr::Add(xs) => {
                let mut acc = Poly::zero();
                for x in xs {
                    acc = acc.add(&x.to_poly()?);
                }
                Ok(acc)
            }
            Expr::Mul(xs) => {
                let mut acc = Poly::one();
                for x in xs {
                    acc = acc.try_mul(&x.to_poly()?)?;
                }
                Ok(acc)
            }
            Expr::Pow(b, e) => b.to_poly()?.pow(*e),
            Expr::Call(f, _) => Err(AlgebraError::NotPolynomial(format!(
                "call to `{}`",
                f.name()
            ))),
        }
    }

    /// Replaces every [`Expr::Call`] node by a truncated Taylor polynomial in
    /// its argument with `terms` terms (coefficients approximated by rationals
    /// with denominators at most `max_den`). This is the §3.2 treatment of
    /// nonlinear functions.
    pub fn approximate_calls(&self, terms: usize, max_den: u64) -> Expr {
        match self {
            Expr::Constant(_) | Expr::Variable(_) => self.clone(),
            Expr::Add(xs) => Expr::Add(
                xs.iter()
                    .map(|x| x.approximate_calls(terms, max_den))
                    .collect(),
            ),
            Expr::Mul(xs) => Expr::Mul(
                xs.iter()
                    .map(|x| x.approximate_calls(terms, max_den))
                    .collect(),
            ),
            Expr::Pow(b, e) => Expr::Pow(Box::new(b.approximate_calls(terms, max_den)), *e),
            Expr::Call(f, arg) => {
                let arg = arg.approximate_calls(terms, max_den);
                let coeffs = taylor_rational(*f, terms, max_den);
                // Σ c_k * arg^k as an expression tree.
                let mut sum: Vec<Expr> = Vec::new();
                for (k, c) in coeffs.iter().enumerate() {
                    if c.is_zero() {
                        continue;
                    }
                    let term = if k == 0 {
                        Expr::Constant(c.clone())
                    } else {
                        Expr::Constant(c.clone()).mul(Expr::Pow(Box::new(arg.clone()), k as u32))
                    };
                    sum.push(term);
                }
                if sum.is_empty() {
                    Expr::Constant(Rational::zero())
                } else if sum.len() == 1 {
                    sum.pop().expect("one element")
                } else {
                    Expr::Add(sum)
                }
            }
        }
    }

    /// Evaluates the expression in floating point.
    pub fn eval_f64(&self, assignment: &BTreeMap<Var, f64>) -> f64 {
        match self {
            Expr::Constant(c) => c.to_f64(),
            Expr::Variable(v) => assignment.get(v).copied().unwrap_or(0.0),
            Expr::Add(xs) => xs.iter().map(|x| x.eval_f64(assignment)).sum(),
            Expr::Mul(xs) => xs.iter().map(|x| x.eval_f64(assignment)).product(),
            Expr::Pow(b, e) => b.eval_f64(assignment).powi(*e as i32),
            Expr::Call(f, a) => f.eval(a.eval_f64(assignment)),
        }
    }

    /// Rebalances sums and products into near-balanced binary trees
    /// (tree-height reduction). The flat n-ary structure is preserved
    /// semantically; only the nesting that [`Expr::height`] measures changes.
    pub fn reduce_tree_height(&self) -> Expr {
        match self {
            Expr::Constant(_) | Expr::Variable(_) => self.clone(),
            Expr::Add(xs) => balance(xs, true),
            Expr::Mul(xs) => balance(xs, false),
            Expr::Pow(b, e) => Expr::Pow(Box::new(b.reduce_tree_height()), *e),
            Expr::Call(f, a) => Expr::Call(*f, Box::new(a.reduce_tree_height())),
        }
    }

    /// Collects all variables referenced by the expression.
    pub fn vars(&self) -> crate::var::VarSet {
        let mut out = crate::var::VarSet::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut crate::var::VarSet) {
        match self {
            Expr::Constant(_) => {}
            Expr::Variable(v) => {
                out.push(*v);
            }
            Expr::Add(xs) | Expr::Mul(xs) => {
                for x in xs {
                    x.collect_vars(out);
                }
            }
            Expr::Pow(b, _) => b.collect_vars(out),
            Expr::Call(_, a) => a.collect_vars(out),
        }
    }
}

fn balance(xs: &[Expr], is_add: bool) -> Expr {
    // Flatten nested sums-of-sums / products-of-products into one operand
    // list, reduce each operand, then rebuild as a balanced binary tree.
    let mut operands: Vec<Expr> = Vec::new();
    flatten(xs, is_add, &mut operands);
    let reduced: Vec<Expr> = operands.iter().map(Expr::reduce_tree_height).collect();
    build_balanced(&reduced, is_add)
}

fn flatten(xs: &[Expr], is_add: bool, out: &mut Vec<Expr>) {
    for x in xs {
        match (x, is_add) {
            (Expr::Add(inner), true) | (Expr::Mul(inner), false) => flatten(inner, is_add, out),
            _ => out.push(x.clone()),
        }
    }
}

fn build_balanced(xs: &[Expr], is_add: bool) -> Expr {
    match xs.len() {
        0 => {
            if is_add {
                Expr::Constant(Rational::zero())
            } else {
                Expr::Constant(Rational::one())
            }
        }
        1 => xs[0].clone(),
        _ => {
            let mid = xs.len() / 2;
            let left = build_balanced(&xs[..mid], is_add);
            let right = build_balanced(&xs[mid..], is_add);
            if is_add {
                Expr::Add(vec![left, right])
            } else {
                Expr::Mul(vec![left, right])
            }
        }
    }
}

impl From<Poly> for Expr {
    /// Converts a flat polynomial into a sum-of-products expression tree.
    fn from(p: Poly) -> Expr {
        if p.is_zero() {
            return Expr::Constant(Rational::zero());
        }
        let mut terms: Vec<Expr> = Vec::new();
        for (m, c) in p.iter() {
            let mut factors: Vec<Expr> = Vec::new();
            if !c.is_one() || m.is_one() {
                factors.push(Expr::Constant(c.clone()));
            }
            for (v, e) in m.iter() {
                if e == 1 {
                    factors.push(Expr::Variable(v));
                } else {
                    factors.push(Expr::Pow(Box::new(Expr::Variable(v)), e));
                }
            }
            terms.push(if factors.len() == 1 {
                factors.pop().expect("one factor")
            } else {
                Expr::Mul(factors)
            });
        }
        if terms.len() == 1 {
            terms.pop().expect("one term")
        } else {
            Expr::Add(terms)
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Constant(c) => {
                if c.is_negative() {
                    write!(f, "({c})")
                } else {
                    write!(f, "{c}")
                }
            }
            Expr::Variable(v) => write!(f, "{v}"),
            Expr::Add(xs) => {
                write!(f, "(")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, ")")
            }
            Expr::Mul(xs) => {
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "*")?;
                    }
                    write!(f, "{x}")?;
                }
                Ok(())
            }
            Expr::Pow(b, e) => write!(f, "{b}^{e}"),
            Expr::Call(func, a) => write!(f, "{}({a})", func.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Poly {
        Poly::parse(s).unwrap()
    }

    #[test]
    fn build_and_convert_to_poly() {
        let e = Expr::var("x").mul(Expr::var("x")).add(Expr::constant(1));
        assert_eq!(e.to_poly().unwrap(), p("x^2 + 1"));
        assert!(e.is_polynomial());
    }

    #[test]
    fn overflowing_product_is_an_error_not_a_panic() {
        // `e` is x^(2^30): three factors still fit u32, the fourth does not.
        let e = (0..5).fold(Expr::var("x"), |b, _| Expr::Pow(Box::new(b), 64));
        let product = |n: usize| Expr::Mul(vec![e.clone(); n]).to_poly();
        assert_eq!(product(3).unwrap().total_degree(), 3 << 30);
        assert_eq!(product(4), Err(AlgebraError::DegreeOverflow));
    }

    #[test]
    fn poly_round_trip_through_expr() {
        for s in ["x^2 + 2*x*y + y^2", "3*x - 1/2", "x*y*z", "0", "7"] {
            let q = p(s);
            let e: Expr = q.clone().into();
            assert_eq!(e.to_poly().unwrap(), q, "round trip for {s}");
        }
    }

    #[test]
    fn calls_are_not_polynomials() {
        let e = Expr::Call(Function::Exp, Box::new(Expr::var("x")));
        assert!(!e.is_polynomial());
        assert!(matches!(e.to_poly(), Err(AlgebraError::NotPolynomial(_))));
    }

    #[test]
    fn approximate_calls_yields_polynomial() {
        let e = Expr::Call(Function::Exp, Box::new(Expr::var("x")));
        let approx = e.approximate_calls(6, 1_000_000);
        assert!(approx.is_polynomial());
        let poly = approx.to_poly().unwrap();
        // The approximation evaluated at 0.1 should be close to exp(0.1).
        let mut asn = BTreeMap::new();
        asn.insert(Var::new("x"), 0.1);
        assert!((poly.eval_f64(&asn) - (0.1_f64).exp()).abs() < 1e-6);
    }

    #[test]
    fn nested_call_approximation() {
        // log(1 + (exp(x) - 1)) ≈ x near zero once both calls are expanded.
        let inner = Expr::Call(Function::Exp, Box::new(Expr::var("x"))).add(Expr::constant(-1));
        let e = Expr::Call(Function::Ln1p, Box::new(inner));
        let approx = e.approximate_calls(8, 10_000_000);
        assert!(approx.is_polynomial());
        let mut asn = BTreeMap::new();
        asn.insert(Var::new("x"), 0.05);
        assert!((approx.eval_f64(&asn) - 0.05).abs() < 1e-5);
    }

    #[test]
    fn height_and_tree_reduction() {
        // A long left-leaning chain a + (b + (c + (d + e))) built by repeated add.
        let mut e = Expr::var("a0");
        for i in 1..9 {
            e = e.add(Expr::var(&format!("a{i}")));
        }
        // Flattened n-ary add has height 2; force a skewed tree to exercise
        // the reduction.
        let skewed = Expr::Add(vec![
            Expr::var("a0"),
            Expr::Add(vec![
                Expr::var("a1"),
                Expr::Add(vec![
                    Expr::var("a2"),
                    Expr::Add(vec![Expr::var("a3"), Expr::var("a4")]),
                ]),
            ]),
        ]);
        let reduced = skewed.reduce_tree_height();
        assert!(reduced.height() < skewed.height());
        // Semantics preserved.
        let mut asn = BTreeMap::new();
        for i in 0..5 {
            asn.insert(Var::new(&format!("a{i}")), (i + 1) as f64);
        }
        assert_eq!(reduced.eval_f64(&asn), skewed.eval_f64(&asn));
    }

    #[test]
    fn op_count() {
        let e = Expr::var("x").mul(Expr::var("y")).add(Expr::constant(3));
        assert_eq!(e.op_count(), 2);
        assert_eq!(Expr::var("x").op_count(), 0);
    }

    #[test]
    fn eval_with_missing_variable_is_zero() {
        let e = Expr::var("missing").add(Expr::constant(2));
        assert_eq!(e.eval_f64(&BTreeMap::new()), 2.0);
    }

    #[test]
    fn display_parses_back_when_polynomial() {
        let q = p("x^2 + 2*x*y + 1");
        let e: Expr = q.clone().into();
        let shown = e.to_string();
        assert_eq!(Poly::parse(&shown).unwrap(), q, "display {shown}");
    }

    #[test]
    fn vars_collects_all() {
        let e = Expr::Call(Function::Sin, Box::new(Expr::var("theta"))).mul(Expr::var("amp"));
        let vars = e.vars();
        assert!(vars.contains(Var::new("theta")));
        assert!(vars.contains(Var::new("amp")));
        assert_eq!(vars.len(), 2);
    }
}
