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
//!   (a miniature loom on stable Rust): the one multi-step concurrency
//!   kernel — the shared Gröbner cache's compute-outside-lock/adopt-winner
//!   protocol, whose single table sits behind one lock — is abstracted into
//!   a small cloneable state machine and *every* interleaving of 2–3 model
//!   threads is enumerated up to a step bound, asserting the adoption race
//!   stays linearizable. A deliberately mutated model (a torn adoption)
//!   proves the checker actually detects the bug class it exists for. The
//!   batch pool needs no model: a worker claims a job with one `fetch_add`
//!   on a shared cursor, which has no multi-step critical section to
//!   interleave.
//!
//! See DESIGN.md §7 for the rule table, the scanner's soundness limits, and
//! the model-vs-implementation fidelity argument.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod lint;
pub mod model;
