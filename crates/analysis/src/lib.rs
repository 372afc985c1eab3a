//! Correctness tooling for the symmap workspace.
//!
//! The repo's load-bearing guarantee is the determinism policy (DESIGN.md):
//! mapping output is byte-identical at any worker count, cache shape, or
//! trace setting. That guarantee is enforced by two complementary
//! subsystems in this crate, neither of which depends on anything outside
//! the standard library (consistent with the vendored-offline build):
//!
//! * [`lint`] — `symmap-lint`, a workspace-aware source lint that mechanizes
//!   the repo-specific determinism rules (no unordered hash iteration, no
//!   timing or environment reads on algorithmic paths, no floats in the
//!   exact algebra, `// SAFETY:` on every `unsafe` block) with a
//!   mandatory-reason `lint:allow` escape hatch and stale-allow detection.
//! * [`model`] — `symmap-modelcheck`, a bounded interleaving model checker
//!   (a miniature loom on stable Rust): the two concurrency kernels — the
//!   shared Gröbner cache's compute-outside-lock/adopt-winner
//!   protocol and the batch pool's own-front/steal-back deque — are
//!   abstracted into small cloneable state machines and *every* interleaving
//!   of 2–3 model threads is enumerated up to a step bound, asserting the
//!   adoption race stays linearizable and the deque neither loses nor
//!   duplicates jobs. Deliberately mutated models (a torn adoption, a racy
//!   two-step steal) prove the checker actually detects the bug classes it
//!   exists for.
//!
//! See DESIGN.md §7 for the rule table, the scanner's soundness limits, and
//! the model-vs-implementation fidelity argument.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod lint;
pub mod model;
