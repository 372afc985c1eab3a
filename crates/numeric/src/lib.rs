//! # symmap-numeric
//!
//! Arithmetic substrate for the symmap library-mapping suite.
//!
//! The DAC 2002 methodology manipulates *exact* multivariate polynomials
//! (Gröbner bases are numerically meaningless over floating point) and
//! approximates nonlinear functions with *truncated series*. This crate
//! provides the arithmetic for both:
//!
//! * [`bigint::BigInt`] — arbitrary-precision signed integers,
//! * [`rational::Rational`] — exact rationals with an inline `i64`/`u64`
//!   fast path, promoting to [`bigint::BigInt`] pairs only on checked
//!   overflow (typical Gröbner coefficients never allocate),
//! * [`fp64::Fp64`] — ℤ/p arithmetic for 62-bit primes in Montgomery form,
//!   plus a deterministic [`fp64::PrimeIterator`]; the substrate of the
//!   modular Gröbner engine,
//! * [`crt`] — Chinese remaindering and rational reconstruction, the lift
//!   from per-prime coefficient images back to exact ℚ,
//! * [`series`] — Taylor expansions used in target-code
//!   identification (§3.2 of the paper).
//!
//! ## Example
//!
//! ```
//! use symmap_numeric::rational::Rational;
//!
//! let a = Rational::new(1, 3);
//! let b = Rational::new(1, 6);
//! assert_eq!(a + b, Rational::new(1, 2));
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub mod bigint;
pub mod crt;
pub mod error;
pub mod fp64;
pub mod rational;
pub mod series;

pub use bigint::BigInt;
pub use crt::{crt_combine, crt_pair, rational_reconstruct};
pub use error::NumericError;
pub use fp64::{Fp64, PrimeIterator};
pub use rational::Rational;
