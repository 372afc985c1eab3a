//! # symmap-algebra
//!
//! A from-scratch symbolic computer algebra engine providing exactly the
//! manipulations the DAC 2002 library-mapping methodology obtains from Maple V:
//!
//! * multivariate polynomial arithmetic over exact rationals ([`poly`]) —
//!   flat sorted term vectors over packed dense-exponent monomials
//!   ([`monomial`]) with merge-based add/sub/cancellation and heap-merge
//!   multiplication (see `DESIGN.md` §4 for the representation),
//! * monomial orderings including elimination orders ([`ordering`]),
//!   compared by allocation-free slice loops,
//! * ring-local monomial coordinates ([`ring`]) — every Gröbner/normal-form
//!   computation runs over dense per-ideal variable indices, so its cost
//!   scales with the ideal's variable count, never with how many symbols the
//!   process-wide interner holds,
//! * multi-divisor polynomial division / normal forms ([`division`]),
//! * a generic coefficient layer ([`coeff`]) — one Buchberger engine and one
//!   division loop parameterized over the coefficient field, instantiated by
//!   ℚ and by ℤ/p,
//! * Buchberger's algorithm for Gröbner bases ([`groebner`]),
//! * ℤ/p localization ([`modular`]) — [`Fp64`](symmap_numeric::Fp64) as a
//!   coefficient field and the unlucky-prime checks of the multi-modular
//!   lift,
//! * invariant polynomial fingerprints ([`fingerprint`]) — support masks,
//!   degree signatures and ℤ/p evaluation hashes giving conservative O(1)
//!   "cannot be equal / disjoint support" answers before any exact
//!   arithmetic runs,
//! * a multi-modular engine ([`multimodular`]) — reduced bases computed
//!   mod a deterministic prime sequence, CRT-combined, rationally
//!   reconstructed and *verified* over ℚ, making the mod-p run the primary
//!   compute path with an exact fallback,
//! * **simplification modulo a set of side relations** ([`simplify`]) — the
//!   core primitive of the library-mapping algorithm,
//! * factorization, expansion and Horner (nested) forms ([`factor`], [`horner`]),
//! * multivariate substitution and variable elimination ([`subst`], [`eliminate`]),
//! * symbolic expression trees with tree-height reduction ([`expr`]).
//!
//! ## Example: the paper's `simplify` example
//!
//! ```
//! use symmap_algebra::poly::Poly;
//! use symmap_algebra::simplify::{simplify_modulo, SideRelations};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let s = Poly::parse("x + x^3*y^2 - 2*x*y^3")?;
//! let mut sr = SideRelations::new();
//! sr.push("p", Poly::parse("x^2 - 2*y")?)?;
//! let reduced = simplify_modulo(&s, &sr, &["x", "y", "p"])?;
//! assert_eq!(reduced, Poly::parse("x + y^2*x*p")?);
//! # Ok(())
//! # }
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod coeff;
pub mod division;
pub mod eliminate;
pub mod error;
pub mod expr;
pub mod factor;
pub mod fingerprint;
mod flat;
pub mod groebner;
pub mod horner;
pub mod modular;
pub mod monomial;
pub mod multimodular;
pub mod ordering;
pub mod parse;
pub mod poly;
pub mod ring;
pub mod simplify;
pub mod subst;
pub mod var;

pub use error::AlgebraError;
pub use monomial::Monomial;
pub use ordering::MonomialOrder;
pub use poly::Poly;
pub use ring::Ring;
pub use var::{Var, VarSet};
