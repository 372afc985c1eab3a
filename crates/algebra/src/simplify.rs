//! Simplification modulo a set of side relations.
//!
//! This is the engine room of the library-mapping algorithm (§3.3 of the
//! paper): a library element with polynomial representation `P(x, y, …)` and
//! output symbol `p` contributes the *side relation* `p = P(x, y, …)`. The
//! target polynomial is then rewritten modulo the ideal generated by
//! `p − P(x, y, …)` under a variable order that prefers eliminating the
//! original program variables, so the result is expressed in terms of the
//! library outputs wherever possible — exactly Maple's
//! `simplify(S, {p = x^2 - 2*y}, [x, y, p])`.
//!
//! Every simplification runs in **ring-local coordinates**: the basis build
//! constructs a [`crate::ring::Ring`] spanning the side-relation ideal once
//! (inside [`crate::groebner::buchberger`] / the cache), and the reduction
//! of the target works on the localized basis directly
//! ([`crate::groebner::GroebnerBasis::reduce`]), so the cost scales with the
//! ideal's 2–7 variables rather than the process-wide interner width. With
//! [`simplify_modulo_cached`], a repeated request is answered from the
//! shared basis cache.

use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::hash::Hash;

use crate::error::AlgebraError;
use crate::groebner::{buchberger, GroebnerOptions, SharedGroebnerCache};
use crate::ordering::MonomialOrder;
use crate::poly::Poly;
use crate::var::{Var, VarSet};

/// An ordered set of side relations `symbol = polynomial`.
///
/// ```
/// use symmap_algebra::poly::Poly;
/// use symmap_algebra::simplify::SideRelations;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sr = SideRelations::new();
/// sr.push("s", Poly::parse("x + y")?)?;
/// sr.push("t", Poly::parse("x*y")?)?;
/// assert_eq!(sr.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SideRelations {
    relations: Vec<(Var, Poly)>,
}

impl SideRelations {
    /// Creates an empty set of side relations.
    pub fn new() -> Self {
        SideRelations {
            relations: Vec::new(),
        }
    }

    /// Adds the relation `symbol = body`.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::InvalidSideRelation`] if the symbol is already
    /// defined or occurs in its own body. A symbol that occurs in a
    /// previously added body is accepted.
    pub fn push(&mut self, symbol: &str, body: Poly) -> Result<(), AlgebraError> {
        let var = Var::new(symbol);
        if self.relations.iter().any(|(v, _)| *v == var) {
            return Err(AlgebraError::InvalidSideRelation(format!(
                "symbol `{symbol}` is defined twice"
            )));
        }
        if body.vars().contains(var) {
            return Err(self_reference(var));
        }
        self.relations.push((var, body));
        Ok(())
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Returns `true` when no relations have been added.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Iterates over `(symbol, body)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Var, &Poly)> + '_ {
        self.relations.iter().map(|(v, p)| (*v, p))
    }

    /// The introduced symbols, in insertion order.
    pub fn symbols(&self) -> VarSet {
        self.relations.iter().map(|(v, _)| *v).collect()
    }

    /// The union of all variables appearing in relation bodies.
    pub fn body_vars(&self) -> VarSet {
        let mut s = VarSet::new();
        for (_, p) in &self.relations {
            for v in p.vars().iter() {
                s.push(v);
            }
        }
        s
    }

    /// The ideal generators `body − symbol` for every relation.
    pub fn generators(&self) -> Vec<Poly> {
        self.relations
            .iter()
            .map(|(v, p)| p.sub(&Poly::var(*v)))
            .collect()
    }

    /// Substitutes the relation bodies back for their symbols in `f`,
    /// recovering a polynomial purely in the original program variables.
    /// Used to verify that a mapping solution is functionally equivalent to
    /// the target.
    pub fn expand_back(&self, f: &Poly) -> Poly {
        let mut assignment: BTreeMap<Var, Poly> = BTreeMap::new();
        for (v, p) in &self.relations {
            assignment.insert(*v, p.clone());
        }
        crate::subst::substitute_all(f, &assignment).expect("bounded exponents")
    }
}

fn self_reference(symbol: Var) -> AlgebraError {
    AlgebraError::InvalidSideRelation(format!(
        "symbol `{}` occurs in its own definition",
        symbol.name()
    ))
}

/// One side relation `symbol = body` in the form a search over element
/// subsets consumes: the interned symbol, the ideal generator
/// `body − symbol`, the body's variables and whether the symbol occurs in its
/// own body. It is a pure function of `(symbol, body)`, so a library element
/// computes it once and every subset that contains the element borrows it.
///
/// ```
/// use symmap_algebra::poly::Poly;
/// use symmap_algebra::simplify::SideRelation;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let r = SideRelation::new("s", &Poly::parse("x + y")?);
/// assert_eq!(r.generator(), &Poly::parse("x + y - s")?);
/// assert!(r.check().is_ok());
/// assert!(SideRelation::new("t", &Poly::parse("t + x")?).check().is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SideRelation {
    symbol: Var,
    generator: Poly,
    body_vars: VarSet,
    self_referential: bool,
}

impl SideRelation {
    /// Interns `symbol` and derives the relation's generator and variables.
    pub fn new(symbol: &str, body: &Poly) -> Self {
        let symbol = Var::new(symbol);
        let body_vars = body.vars();
        SideRelation {
            symbol,
            generator: body.sub(&Poly::var(symbol)),
            self_referential: body_vars.contains(symbol),
            body_vars,
        }
    }

    /// The introduced symbol.
    pub fn symbol(&self) -> Var {
        self.symbol
    }

    /// The ideal generator `body − symbol`.
    pub fn generator(&self) -> &Poly {
        &self.generator
    }

    /// The body's variables, in [`Poly::vars`] order.
    pub fn body_vars(&self) -> &VarSet {
        &self.body_vars
    }

    /// The check [`SideRelations::push`] makes on one relation.
    ///
    /// # Errors
    ///
    /// Returns [`AlgebraError::InvalidSideRelation`] if the symbol occurs in
    /// its own body.
    pub fn check(&self) -> Result<(), AlgebraError> {
        if self.self_referential {
            Err(self_reference(self.symbol))
        } else {
            Ok(())
        }
    }
}

/// The result of a simplification, carrying bookkeeping used by the mapper.
#[derive(Debug, Clone)]
pub struct Simplification {
    /// The simplified polynomial (normal form).
    pub result: Poly,
    /// Whether the Gröbner-basis computation completed (if not, the result is
    /// still a valid rewrite but may not be canonical).
    pub complete: bool,
    /// Number of S-polynomial reductions spent building the basis.
    pub reductions: usize,
}

/// Simplifies `target` modulo the side relations, with explicit variable
/// precedence (most significant first), mirroring Maple's
/// `simplify(S, sr, [vars...])`.
///
/// Variables of the target and relations that are not listed are appended
/// after the listed ones (lowest precedence), in [`default_order`]. The
/// introduced symbols should normally appear *last* so the reduction
/// rewrites program variables into library outputs.
///
/// # Errors
///
/// Currently infallible for valid [`SideRelations`]; the `Result` return type
/// leaves room for resource-limit errors and keeps call sites uniform.
pub fn simplify_modulo(
    target: &Poly,
    relations: &SideRelations,
    var_order: &[&str],
) -> Result<Poly, AlgebraError> {
    Ok(simplify_modulo_detailed(target, relations, var_order, &GroebnerOptions::default())?.result)
}

/// Like [`simplify_modulo`], but returns the full [`Simplification`] record and
/// accepts explicit [`GroebnerOptions`].
///
/// # Errors
///
/// Currently infallible for valid [`SideRelations`]; see [`simplify_modulo`].
pub fn simplify_modulo_detailed(
    target: &Poly,
    relations: &SideRelations,
    var_order: &[&str],
    options: &GroebnerOptions,
) -> Result<Simplification, AlgebraError> {
    let order = listed_order(target, relations, var_order);
    simplify_impl(target, relations, order, options, None)
}

/// Like [`simplify_modulo_detailed`], but looks the Gröbner basis up in (and
/// stores it into) `cache`, so repeated simplifications against the same
/// side-relation set and variable order compute the basis once.
///
/// # Errors
///
/// Currently infallible for valid [`SideRelations`]; see [`simplify_modulo`].
pub fn simplify_modulo_cached(
    target: &Poly,
    relations: &SideRelations,
    var_order: &[&str],
    options: &GroebnerOptions,
    cache: &SharedGroebnerCache,
) -> Result<Simplification, AlgebraError> {
    let order = listed_order(target, relations, var_order);
    simplify_impl(target, relations, order, options, Some(cache))
}

/// Like [`simplify_modulo_cached`], but takes the complete lex precedence as
/// a [`VarSet`] instead of names, so no name is resolved and no order is
/// completed per call.
///
/// `order` is used as given. Build it with [`default_order`] so it lists every
/// variable of the target and the relations; a variable it leaves out ranks
/// after all listed ones, by interner index (see [`MonomialOrder`]).
///
/// # Errors
///
/// Currently infallible for valid [`SideRelations`]; see [`simplify_modulo`].
pub fn simplify_modulo_ordered(
    target: &Poly,
    relations: &SideRelations,
    order: VarSet,
    options: &GroebnerOptions,
    cache: &SharedGroebnerCache,
) -> Result<Simplification, AlgebraError> {
    simplify_impl(target, relations, order, options, Some(cache))
}

/// Like [`simplify_modulo_ordered`], but takes the ideal generators
/// `body − symbol` directly, borrowed ([`SideRelation::generator`]). This is
/// the entry point the mapper's branch-and-bound search uses: each node
/// borrows the generators of its chosen elements instead of building a
/// [`SideRelations`], and the cache clones them only when it stores a new
/// basis. `generators` and `order` must be what [`SideRelations::generators`]
/// and [`default_order`] give for the same relations; the result is then
/// the same.
pub fn simplify_generators<G: Borrow<Poly> + Hash>(
    target: &Poly,
    generators: &[G],
    order: VarSet,
    options: &GroebnerOptions,
    cache: &SharedGroebnerCache,
) -> Simplification {
    if generators.is_empty() {
        return Simplification {
            result: target.clone(),
            complete: true,
            reductions: 0,
        };
    }
    let gb = cache.basis(generators, &MonomialOrder::Lex(order), options);
    Simplification {
        result: gb.reduce(target),
        complete: gb.complete,
        reductions: gb.reductions,
    }
}

/// The complete precedence for a name-listed order: the listed names first,
/// then every remaining variable in [`default_order`].
fn listed_order(target: &Poly, relations: &SideRelations, var_order: &[&str]) -> VarSet {
    VarSet::from_names(var_order).union(&default_order(&target.vars(), relations))
}

fn simplify_impl(
    target: &Poly,
    relations: &SideRelations,
    vars: VarSet,
    options: &GroebnerOptions,
    cache: Option<&SharedGroebnerCache>,
) -> Result<Simplification, AlgebraError> {
    let generators = relations.generators();
    Ok(match cache {
        Some(cache) => simplify_generators(target, &generators, vars, options, cache),
        None if generators.is_empty() => Simplification {
            result: target.clone(),
            complete: true,
            reductions: 0,
        },
        None => {
            let gb = buchberger(&generators, &MonomialOrder::Lex(vars), options);
            Simplification {
                result: gb.reduce(target),
                complete: gb.complete,
                reductions: gb.reductions,
            }
        }
    })
}

/// Default variable order for a simplification, given the target's
/// variables: the target's own variables first (eliminated preferentially),
/// then the remaining variables of the relation bodies, then the relation
/// symbols. This is the one definition of the order policy; every
/// `simplify_modulo*` entry point completes its order with it.
pub fn default_order(target_vars: &VarSet, relations: &SideRelations) -> VarSet {
    target_vars
        .union(&relations.body_vars())
        .union(&relations.symbols())
}

/// [`default_order`] as variable names, for the `&[&str]` entry points.
pub fn default_var_order(target: &Poly, relations: &SideRelations) -> Vec<String> {
    default_order(&target.vars(), relations)
        .iter()
        .map(|v| v.name().to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Poly {
        Poly::parse(s).unwrap()
    }

    #[test]
    fn paper_example_from_section_3_3() {
        // > S := x + x^3*y^2 - 2*x*y^3
        // > simplify(S, {p = x^2 - 2*y}, [x, y, p])  ==>  x + y^2*x*p
        let mut sr = SideRelations::new();
        sr.push("p", p("x^2 - 2*y")).unwrap();
        let out = simplify_modulo(&p("x + x^3*y^2 - 2*x*y^3"), &sr, &["x", "y", "p"]).unwrap();
        assert_eq!(out, p("x + y^2*x*p"));
    }

    #[test]
    fn perfect_square_collapses_to_symbol_squared() {
        // x^2 + 2xy + y^2 with s = x + y should become s^2.
        let mut sr = SideRelations::new();
        sr.push("s", p("x + y")).unwrap();
        let out = simplify_modulo(&p("x^2 + 2*x*y + y^2"), &sr, &["x", "y", "s"]).unwrap();
        assert_eq!(out, p("s^2"));
    }

    #[test]
    fn two_relations_compose() {
        // x^2 - y^2 with s = x + y and d = x - y becomes s*d.
        let mut sr = SideRelations::new();
        sr.push("s", p("x + y")).unwrap();
        sr.push("d", p("x - y")).unwrap();
        let out = simplify_modulo(&p("x^2 - y^2"), &sr, &["x", "y", "s", "d"]).unwrap();
        assert_eq!(out, p("s*d"));
    }

    #[test]
    fn unrelated_target_is_unchanged() {
        let mut sr = SideRelations::new();
        sr.push("s", p("a + b")).unwrap();
        let target = p("x^3 + 1");
        let out = simplify_modulo(&target, &sr, &["a", "b", "x", "s"]).unwrap();
        assert_eq!(out, target);
    }

    #[test]
    fn empty_relations_is_identity() {
        let sr = SideRelations::new();
        let t = p("x^5 - x");
        assert_eq!(simplify_modulo(&t, &sr, &["x"]).unwrap(), t);
    }

    #[test]
    fn expand_back_recovers_original_semantics() {
        let mut sr = SideRelations::new();
        sr.push("s", p("x + y")).unwrap();
        sr.push("q", p("x*y")).unwrap();
        let target = p("x^2 + 2*x*y + y^2 + x*y");
        let mapped = simplify_modulo(&target, &sr, &["x", "y", "s", "q"]).unwrap();
        // Whatever the rewrite, substituting definitions back must recover the
        // original polynomial.
        assert_eq!(sr.expand_back(&mapped), target);
    }

    #[test]
    fn rejects_duplicate_and_self_referential_symbols() {
        let mut sr = SideRelations::new();
        sr.push("s", p("x + y")).unwrap();
        assert!(sr.push("s", p("x - y")).is_err());
        assert!(sr.push("t", p("t + x")).is_err());
    }

    #[test]
    fn symbol_in_an_earlier_body_is_accepted() {
        // `push` checks only duplicates and self-reference; a symbol may
        // occur in a body pushed before it.
        let mut sr = SideRelations::new();
        sr.push("s", p("x + y")).unwrap();
        sr.push("x", p("y^2")).unwrap();
        assert_eq!(sr.len(), 2);
    }

    #[test]
    fn imdct_style_mapping() {
        // A miniature IMDCT line: x0 = c00*y0 + c01*y1, and the library
        // element "mac" computes m = a*b + c. With side relation
        // m = c00*y0 + c01*y1 the target maps exactly to m.
        let mut sr = SideRelations::new();
        sr.push("m", p("c00*y0 + c01*y1")).unwrap();
        let out =
            simplify_modulo(&p("c00*y0 + c01*y1"), &sr, &["y0", "y1", "c00", "c01", "m"]).unwrap();
        assert_eq!(out, p("m"));
    }

    #[test]
    fn partial_match_leaves_residual() {
        // Target x^2 + 2xy + y^2 + z maps to s^2 + z: the residual z stays in
        // program variables, which is how the mapper detects leftover work.
        let mut sr = SideRelations::new();
        sr.push("s", p("x + y")).unwrap();
        let out = simplify_modulo(&p("x^2 + 2*x*y + y^2 + z"), &sr, &["x", "y", "z", "s"]).unwrap();
        assert_eq!(out, p("s^2 + z"));
    }

    #[test]
    fn default_var_order_puts_symbols_last() {
        let mut sr = SideRelations::new();
        sr.push("p_out", p("u*v")).unwrap();
        let order = default_var_order(&p("u^2*v + w"), &sr);
        let pos_u = order.iter().position(|n| n == "u").unwrap();
        let pos_sym = order.iter().position(|n| n == "p_out").unwrap();
        assert!(pos_u < pos_sym);
    }

    #[test]
    fn default_order_is_target_then_bodies_then_symbols() {
        let mut sr = SideRelations::new();
        sr.push("p_out", p("u*v + z")).unwrap();
        sr.push("q_out", p("z*w + r")).unwrap();
        let target = p("u^2*v + w");
        let order = default_order(&target.vars(), &sr);
        let names: Vec<&str> = order.iter().map(|v| v.name()).collect();
        assert_eq!(names, ["u", "v", "w", "z", "r", "p_out", "q_out"]);
        assert_eq!(default_var_order(&target, &sr), names);
    }

    #[test]
    fn ordered_entry_point_matches_the_named_one() {
        let opts = GroebnerOptions::default();
        let mut sr = SideRelations::new();
        sr.push("s", p("x + y")).unwrap();
        sr.push("q", p("x*z")).unwrap();
        for target in ["x^2 + 2*x*y + y^2 + z", "x*z*y + x", "w + x*y"] {
            let t = p(target);
            let names = default_var_order(&t, &sr);
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let named = simplify_modulo_cached(&t, &sr, &refs, &opts, &SharedGroebnerCache::new());
            let ordered = simplify_modulo_ordered(
                &t,
                &sr,
                default_order(&t.vars(), &sr),
                &opts,
                &SharedGroebnerCache::new(),
            );
            assert_eq!(named.unwrap().result, ordered.unwrap().result, "{target}");
        }
    }

    #[test]
    fn cached_simplification_matches_uncached_and_reuses_the_basis() {
        let cache = SharedGroebnerCache::new();
        let mut sr = SideRelations::new();
        sr.push("s", p("x + y")).unwrap();
        let opts = GroebnerOptions::default();
        let vars = ["x", "y", "s"];
        for target in ["x^2 + 2*x*y + y^2", "x^2 + 2*x*y + y^2 + x + y", "x*y"] {
            let cached = simplify_modulo_cached(&p(target), &sr, &vars, &opts, &cache).unwrap();
            let plain = simplify_modulo(&p(target), &sr, &vars).unwrap();
            assert_eq!(cached.result, plain, "target {target}");
        }
        // Three targets, one side-relation set: one miss, two hits.
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
        // Empty relations never touch the cache.
        let none = SideRelations::new();
        let out = simplify_modulo_cached(&p("x^3"), &none, &["x"], &opts, &cache).unwrap();
        assert_eq!(out.result, p("x^3"));
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }

    #[test]
    fn detailed_reports_reduction_work() {
        let mut sr = SideRelations::new();
        sr.push("s", p("x + y")).unwrap();
        sr.push("q", p("x^2 - y")).unwrap();
        let d = simplify_modulo_detailed(
            &p("x^3 + x*y + y^2"),
            &sr,
            &["x", "y", "s", "q"],
            &GroebnerOptions::default(),
        )
        .unwrap();
        assert!(d.complete);
        assert_eq!(sr.expand_back(&d.result), p("x^3 + x*y + y^2"));
    }
}
