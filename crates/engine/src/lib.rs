//! # symmap-engine
//!
//! The mapping subsystem as a *batch service*: the `Decompose`
//! branch-and-bound mapper of the DAC 2002 paper's Table 2 ([`decompose`]),
//! its cost model ([`cost`]) and solution type ([`mapping`]), plus the two
//! pieces that let it saturate the hardware:
//!
//! * [`pool`] — a deterministic work-stealing thread pool over
//!   `std::thread` + `parking_lot`: jobs are dealt round-robin to per-worker
//!   deques, idle workers steal from the back of their neighbours' queues,
//!   and results are collected **by job index**, so the output of a batch is
//!   byte-identical at any worker count.
//! * [`batch`] — the [`MappingEngine`]: a queue of [`MapJob`]s (target
//!   polynomial + library + mapper configuration) executed over the pool
//!   while every worker shares one lock-striped, capacity-bounded
//!   [`SharedGroebnerCache`], with an [`EngineStats`] report (jobs, steals,
//!   cache counters, wall time) per batch.
//!
//! Mapping jobs are pure functions of their inputs — the only thing worker
//! scheduling can change is cache *timing* (which lookup computes and which
//! one hits), never cached *values* — so `workers = 1` reproduces the
//! historic sequential mapper exactly and `workers = N` reproduces it
//! byte-for-byte faster. See `DESIGN.md` §5 for the determinism argument.
//!
//! ```
//! use std::sync::Arc;
//! use symmap_algebra::poly::Poly;
//! use symmap_engine::{EngineConfig, MapJob, MapperConfig, MappingEngine};
//! use symmap_libchar::{Library, LibraryElement};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut library = Library::new("demo");
//! library.push(
//!     LibraryElement::builder("sum", "s")
//!         .polynomial(Poly::parse("x + y")?)
//!         .cycles(4)
//!         .build()?,
//! );
//! let library = Arc::new(library);
//! let engine = MappingEngine::new(EngineConfig {
//!     workers: 2,
//!     ..EngineConfig::default()
//! });
//! let jobs: Vec<MapJob> = ["x^2 + 2*x*y + y^2", "x + y"]
//!     .iter()
//!     .enumerate()
//!     .map(|(i, s)| {
//!         MapJob::new(
//!             format!("job-{i}"),
//!             Poly::parse(s).unwrap(),
//!             Arc::clone(&library),
//!             MapperConfig::default(),
//!         )
//!     })
//!     .collect();
//! let batch = engine.run(&jobs);
//! assert_eq!(batch.outcomes.len(), 2);
//! assert!(batch.outcomes.iter().all(|o| o.is_ok()));
//! # Ok(())
//! # }
//! ```
//!
//! [`SharedGroebnerCache`]: symmap_algebra::groebner::SharedGroebnerCache

#![deny(rustdoc::broken_intra_doc_links)]

pub mod batch;
pub mod cost;
pub mod decompose;
pub mod error;
pub mod mapping;
pub mod pool;

pub use batch::{BatchResult, EngineConfig, EngineStats, MapJob, MappingEngine};
pub use decompose::{Mapper, MapperConfig};
pub use error::CoreError;
pub use mapping::MappingSolution;
