//! # symmap-bench
//!
//! The benchmark harness that regenerates every table and figure of the
//! DAC 2002 evaluation on the simulated Badge4.
//!
//! Two entry points:
//!
//! * `cargo run -p symmap-bench --bin tables --release` prints the
//!   reproductions of Table 1, Equation 1, the §3.3 Maple examples, Tables
//!   3–6, Figure 1 and the DVFS headroom analysis (pass a table name to print
//!   only one).
//! * `cargo bench` runs the Criterion benchmarks, one per table/figure plus
//!   the four ablations listed in `DESIGN.md`.
//!
//! The helpers here are shared between the benches and the `tables` binary.

#![deny(rustdoc::broken_intra_doc_links)]

pub mod budgets;
pub mod oracle;
pub mod quickbench;

use std::sync::Arc;

use symmap_core::pipeline::{table6_libraries, CodeVersion, OptimizationPipeline};
use symmap_engine::{EngineConfig, MapJob, MapperConfig, MappingEngine};
use symmap_libchar::catalog;
use symmap_libchar::Library;
use symmap_mp3::decoder::KernelSet;
use symmap_mp3::{imdct, synthesis};
use symmap_platform::machine::Badge4;

/// Number of frames in the measured stream for the quick (bench) runs.
pub const QUICK_STREAM_FRAMES: usize = 4;
/// Number of frames used by the `tables` binary (the paper's stream is about
/// 194 frames: 503.92 s of original decode at 2.59 s per frame).
pub const FULL_STREAM_FRAMES: usize = 194;

/// Builds the pipeline for a named Table 6 configuration.
pub fn pipeline_for(name: &str, badge: &Badge4, frames: usize) -> Option<OptimizationPipeline> {
    table6_libraries(badge)
        .into_iter()
        .find(|(n, _)| n == name)
        .map(|(_, lib)| OptimizationPipeline::new(badge.clone(), lib).with_stream_frames(frames))
}

/// Measures every code version of Table 6 (six mapper-produced versions plus
/// the hand-optimized IPP MP3 reference point).
///
/// The sweep runs through one shared batch engine: every version's mapping
/// batch uses the engine's worker pool, and one shared Gröbner cache answers
/// side-relation lookups across *all* versions (each version's library is a
/// superset of "Original"'s reference elements, so the overlap is large).
/// The versions themselves are measured in order on the calling thread —
/// deliberately *not* a second pool layer: nesting a version-level pool
/// around the engine's per-batch pool would oversubscribe the cores
/// (`workers²` threads) and, worse, run each batch's pre-interning step on a
/// racing outer worker, re-opening exactly the interner side channel the
/// engine closes (DESIGN.md §5). One level of parallelism, deterministic by
/// construction.
pub fn table6_versions(badge: &Badge4, frames: usize) -> Vec<CodeVersion> {
    let engine = MappingEngine::new(EngineConfig::default());
    let mut versions = Vec::new();
    for (name, library) in table6_libraries(badge) {
        let pipeline = OptimizationPipeline::new(badge.clone(), library)
            .with_stream_frames(frames)
            .with_engine(engine.clone());
        if name == "Original" {
            versions.push(pipeline.measure("Original", KernelSet::reference()));
        } else {
            versions.push(pipeline.run(&name));
        }
    }
    let pipeline = OptimizationPipeline::new(badge.clone(), catalog::full_catalog(badge))
        .with_stream_frames(frames);
    versions.push(pipeline.measure("IPP MP3 (hand optimized)", KernelSet::ipp_complete()));
    versions
}

/// The 11-kernel MP3 mapping batch: one [`MapJob`] per mapped decoder kernel
/// line. The six identified stage kernels (dequantize, stereo, antialias,
/// IMDCT line 0, hybrid, synthesis line 0 — exactly what
/// `OptimizationPipeline::map_decoder` maps) plus further IMDCT lines 1–3
/// and synthesis subbands 1–2, each a distinct 16/18-term linear form. This
/// is the workload of the `engine_batch` bench and of the cross-worker
/// determinism test.
pub fn mp3_kernel_jobs(library: &Arc<Library>, config: &MapperConfig) -> Vec<MapJob> {
    let job = |label: String, poly| MapJob::new(label, poly, Arc::clone(library), config.clone());
    let mut jobs = vec![
        job(
            "III_dequantize_sample".into(),
            catalog::dequantizer_polynomial(),
        ),
        job("III_stereo".into(), catalog::stereo_polynomial()),
        job("III_antialias".into(), catalog::antialias_polynomial()),
        job("inv_mdctL".into(), imdct::imdct_polynomial(0, 36)),
        job("III_hybrid".into(), catalog::hybrid_polynomial()),
        job(
            "SubBandSynthesis".into(),
            synthesis::synthesis_polynomial(0),
        ),
    ];
    for line in 1..=3 {
        jobs.push(job(
            format!("inv_mdctL[{line}]"),
            imdct::imdct_polynomial(line, 36),
        ));
    }
    for subband in 1..=2 {
        jobs.push(job(
            format!("SubBandSynthesis[{subband}]"),
            synthesis::synthesis_polynomial(subband),
        ));
    }
    debug_assert_eq!(jobs.len(), 11);
    jobs
}

/// The 11-kernel batch of [`mp3_kernel_jobs`] against each Table 6 library,
/// in Table 6 order, then against the full catalog: 77 jobs labelled
/// `library/kernel`, every one with `config`. The pinned-outputs and memo
/// tests run it as one engine batch.
pub fn table6_kernel_batch(badge: &Badge4, config: &MapperConfig) -> Vec<MapJob> {
    let mut libraries = table6_libraries(badge);
    libraries.push(("full".to_string(), catalog::full_catalog(badge)));
    let mut jobs = Vec::new();
    for (name, library) in libraries {
        let library = Arc::new(library);
        for job in mp3_kernel_jobs(&library, config) {
            jobs.push(MapJob::new(
                format!("{name}/{}", job.label),
                job.target,
                Arc::clone(&library),
                config.clone(),
            ));
        }
    }
    jobs
}

/// Measures a single named version (used by the per-table benches).
pub fn measure_version(name: &str, badge: &Badge4, frames: usize) -> CodeVersion {
    let pipeline = pipeline_for(name, badge, frames).unwrap_or_else(|| {
        OptimizationPipeline::new(badge.clone(), catalog::full_catalog(badge))
            .with_stream_frames(frames)
    });
    if name == "Original" {
        pipeline.measure("Original", KernelSet::reference())
    } else {
        pipeline.run(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_lookup_knows_the_table6_names() {
        let badge = Badge4::new();
        assert!(pipeline_for("Original", &badge, 1).is_some());
        assert!(pipeline_for("IH Library", &badge, 1).is_some());
        assert!(pipeline_for("No Such Version", &badge, 1).is_none());
    }

    #[test]
    fn quick_table6_has_seven_rows_in_order() {
        let badge = Badge4::new();
        let versions = table6_versions(&badge, 1);
        assert_eq!(versions.len(), 7);
        assert_eq!(versions[0].name, "Original");
        assert!(versions.last().unwrap().name.contains("IPP MP3"));
        // Monotone improvement from Original through the best automatic mapping.
        let original = &versions[0];
        let best_auto = &versions[5];
        assert!(best_auto.perf_factor_vs(original) > 50.0);
    }
}
