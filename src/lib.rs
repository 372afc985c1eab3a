//! # symmap — Complex Library Mapping for Embedded Software Using Symbolic Algebra
//!
//! This is the umbrella crate of a from-scratch Rust reproduction of
//! Peymandoust, Simunic and De Micheli, *"Complex Library Mapping for Embedded
//! Software Using Symbolic Algebra"*, DAC 2002.
//!
//! The methodology has three steps, all automated here:
//!
//! 1. **Library characterization** ([`libchar`]) — each library element is
//!    labelled with its numeric signature, polynomial representation, cycle
//!    cost, energy cost and accuracy, measured on a simulated Badge4 /
//!    StrongARM SA-1110 platform ([`platform`]).
//! 2. **Target code identification** ([`core::identify`], [`ir`]) — critical
//!    procedures are found by profiling and formulated as multivariate
//!    polynomials using compiler transformations and series approximations.
//! 3. **Library mapping** ([`engine`]) — a branch-and-bound search
//!    decomposes the target polynomials into library elements using
//!    *simplification modulo side relations* on top of Gröbner bases
//!    ([`algebra`]); the [`engine::MappingEngine`] batch service fans
//!    independent mapping jobs out over a deterministic shared-cursor
//!    worker pool sharing one Gröbner cache.
//!
//! The evaluation workload of the paper, an MP3 audio decoder, is reproduced in
//! [`mp3`], together with the Linux-math / in-house fixed-point / IPP-like
//! libraries used in the paper's tables.
//!
//! ## Quickstart
//!
//! ```
//! use symmap::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A target polynomial: x^2 + 2*x*y + y^2 + x + y
//! let target = Poly::parse("x^2 + 2*x*y + y^2 + x + y")?;
//!
//! // A tiny library with one complex element: s = x + y  (cost 3 cycles)
//! let mut library = Library::new("tiny");
//! library.push(
//!     LibraryElement::builder("sum", "s")
//!         .polynomial(Poly::parse("x + y")?)
//!         .cycles(3)
//!         .energy_nj(5.0)
//!         .build()?,
//! );
//!
//! // Map the target onto the library.
//! let mapper = Mapper::new(&library, MapperConfig::default());
//! let solution = mapper.map_polynomial(&target)?;
//! assert!(solution.uses_element("sum"));
//! # Ok(())
//! # }
//! ```

#![deny(rustdoc::broken_intra_doc_links)]

pub use symmap_algebra as algebra;
pub use symmap_core as core;
pub use symmap_engine as engine;
pub use symmap_ir as ir;
pub use symmap_libchar as libchar;
pub use symmap_mp3 as mp3;
pub use symmap_numeric as numeric;
pub use symmap_platform as platform;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use symmap_algebra::{poly::Poly, simplify::SideRelations, var::VarSet};
    pub use symmap_core::pipeline::OptimizationPipeline;
    pub use symmap_engine::{
        EngineConfig, MapJob, Mapper, MapperConfig, MappingEngine, MappingSolution,
    };
    pub use symmap_libchar::{
        element::{LibraryElement, NumericFormat},
        library::Library,
    };
    pub use symmap_mp3::decoder::{Decoder, KernelSet};
    pub use symmap_platform::machine::Badge4;
}
