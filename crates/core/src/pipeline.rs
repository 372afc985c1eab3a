//! The end-to-end optimization pipeline for the MP3 decoder workload.
//!
//! This is the driver that reproduces the paper's experiment: profile the
//! original decoder, identify the critical procedures, map each one onto the
//! allowed libraries with the symbolic mapper, translate the chosen elements
//! into a kernel selection, and measure the resulting decoder's performance,
//! energy and compliance on the simulated Badge4.

use std::sync::Arc;

use symmap_engine::{EngineStats, MapJob, MappingEngine};
use symmap_libchar::Library;
use symmap_mp3::compliance::{self, ComplianceReport};
use symmap_mp3::decoder::{Decoder, KernelSet, KernelVariant};
use symmap_mp3::frame::FrameGenerator;
use symmap_mp3::types::frame_duration_s;
use symmap_platform::machine::Badge4;
use symmap_platform::profiler::{Profile, Profiler};

use crate::decompose::MapperConfig;
use crate::identify::{self, DecoderStage, TargetFunction};
use crate::mapping::MappingSolution;

/// A measured decoder configuration — one row of Table 6.
#[derive(Debug, Clone)]
pub struct CodeVersion {
    /// Human-readable name ("Original", "IH Library", …).
    pub name: String,
    /// The kernel selection that produced it.
    pub kernels: KernelSet,
    /// Per-frame profile (Tables 3–5 format).
    pub frame_profile: Profile,
    /// Whole-stream decode time in seconds.
    pub stream_seconds: f64,
    /// Whole-stream energy in joules.
    pub stream_energy_j: f64,
    /// Compliance of the PCM output against the reference decoder.
    pub compliance: ComplianceReport,
    /// One summary line per mapped critical function.
    pub mapping_summary: Vec<String>,
}

impl CodeVersion {
    /// Performance improvement factor relative to a baseline version.
    pub fn perf_factor_vs(&self, baseline: &CodeVersion) -> f64 {
        baseline.stream_seconds / self.stream_seconds
    }

    /// Energy improvement factor relative to a baseline version.
    pub fn energy_factor_vs(&self, baseline: &CodeVersion) -> f64 {
        baseline.stream_energy_j / self.stream_energy_j
    }

    /// Ratio of available decode time to used decode time (>1 means faster
    /// than real time, the precondition for voltage/frequency scaling).
    pub fn real_time_headroom(&self, frames: usize) -> f64 {
        frames as f64 * frame_duration_s() / self.stream_seconds
    }
}

/// The three-step methodology driver.
///
/// Owns one [`MappingEngine`] whose shared Gröbner cache is reused by every
/// `map_decoder`/`run` call (and by every clone of the pipeline): the
/// side-relation bases priced while mapping one decoder version answer the
/// lookups of later ones. Mapping batches run on the engine's worker pool —
/// `workers = 1` (the default) is the historic sequential path, and any
/// other worker count produces byte-identical solutions.
#[derive(Debug, Clone)]
pub struct OptimizationPipeline {
    badge: Badge4,
    library: Arc<Library>,
    stream_frames: usize,
    seed: u64,
    mapper_config: MapperConfig,
    engine: MappingEngine,
}

impl OptimizationPipeline {
    /// Creates a pipeline that maps against `library` and measures on `badge`.
    pub fn new(badge: Badge4, library: Library) -> Self {
        let mapper_config = MapperConfig::default();
        let engine = MappingEngine::new(mapper_config.engine.clone());
        OptimizationPipeline {
            badge,
            library: Arc::new(library),
            stream_frames: 32,
            seed: 7,
            mapper_config,
            engine,
        }
    }

    /// Sets the number of frames in the measured stream (the paper's stream is
    /// roughly 194 frames: 503.92 s of original decode at 2.59 s per frame).
    pub fn with_stream_frames(mut self, frames: usize) -> Self {
        self.stream_frames = frames.max(1);
        self
    }

    /// Overrides the mapper configuration (used by the ablation benches).
    /// The batch engine is rebuilt from the configuration's
    /// [`EngineConfig`](symmap_engine::EngineConfig), with a fresh cache.
    pub fn with_mapper_config(mut self, config: MapperConfig) -> Self {
        self.engine = MappingEngine::new(config.engine.clone());
        self.mapper_config = config;
        self
    }

    /// Routes this pipeline's mapping batches through an existing engine,
    /// sharing its worker configuration and basis cache (used by the bench
    /// harness to pool bases across the Table 6 library sweep).
    pub fn with_engine(mut self, engine: MappingEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The number of frames in the measured stream.
    pub fn stream_frames(&self) -> usize {
        self.stream_frames
    }

    /// The platform model.
    pub fn badge(&self) -> &Badge4 {
        &self.badge
    }

    /// The batch engine carrying this pipeline's worker pool and shared
    /// Gröbner cache.
    pub fn engine(&self) -> &MappingEngine {
        &self.engine
    }

    /// Step 2: profile the original (reference) decoder on one frame and
    /// identify every mappable procedure (the paper maps everything that can
    /// be written as a polynomial, however small).
    pub fn identify_decoder_targets(&self) -> Vec<TargetFunction> {
        let frame = FrameGenerator::new(self.seed).frame();
        let profiler = Profiler::new();
        Decoder::new(KernelSet::reference()).decode_frame(&frame, &profiler);
        let profile = profiler.profile(&self.badge);
        identify::identify_targets(&profile, 99.99)
    }

    /// Step 2 + 3: profile the original code, identify the critical
    /// procedures, and map each one onto the allowed library. Returns the
    /// resulting kernel selection together with the individual mapping
    /// solutions.
    pub fn map_decoder(&self) -> (KernelSet, Vec<(String, MappingSolution)>) {
        let (kernels, solutions, _) = self.map_decoder_with_stats();
        (kernels, solutions)
    }

    /// Like [`map_decoder`](OptimizationPipeline::map_decoder), but also
    /// returns the engine's batch statistics (jobs, steals, cache
    /// counters, wall time) for reporting.
    pub fn map_decoder_with_stats(
        &self,
    ) -> (KernelSet, Vec<(String, MappingSolution)>, EngineStats) {
        let targets = self.identify_decoder_targets();

        // One MapJob per identified kernel; the engine preserves job order,
        // so the solution list is identical to the historic sequential loop.
        let jobs: Vec<MapJob> = targets
            .into_iter()
            .map(|t| {
                MapJob::new(
                    t.name,
                    t.polynomial,
                    Arc::clone(&self.library),
                    self.mapper_config.clone(),
                )
            })
            .collect();
        let batch = self.engine.run(&jobs);

        let mut kernels = KernelSet::reference();
        let mut solutions = Vec::new();
        for (job, outcome) in jobs.into_iter().zip(batch.outcomes) {
            let Ok(solution) = outcome else {
                continue;
            };
            if let Some(stage) = identify::stage_of(&job.label) {
                if let Some(variant) = variant_of_solution(&solution) {
                    apply_variant(&mut kernels, stage, variant);
                }
            }
            solutions.push((job.label, solution));
        }
        (kernels, solutions, batch.stats)
    }

    /// Runs the full methodology and measures the mapped decoder.
    pub fn run(&self, name: &str) -> CodeVersion {
        let (kernels, solutions) = self.map_decoder();
        let mut version = self.measure(name, kernels);
        version.mapping_summary = solutions
            .iter()
            .map(|(f, s)| format!("{f}: {}", s.summary(&self.library)))
            .collect();
        version
    }

    /// Measures an explicitly chosen kernel selection (used for the
    /// "Original" baseline and the hand-optimized "IPP MP3" reference point).
    pub fn measure(&self, name: &str, kernels: KernelSet) -> CodeVersion {
        // Per-frame profile.
        let frame = FrameGenerator::new(self.seed).frame();
        let frame_profiler = Profiler::new();
        Decoder::new(kernels).decode_frame(&frame, &frame_profiler);
        let frame_profile = frame_profiler.profile(&self.badge);

        // Whole-stream measurement and compliance.
        let frames = FrameGenerator::new(self.seed).stream(self.stream_frames);
        let stream_profiler = Profiler::new();
        let pcm = Decoder::new(kernels).decode_stream(&frames, &stream_profiler);
        let stream_profile = stream_profiler.profile(&self.badge);

        let reference_pcm =
            Decoder::new(KernelSet::reference()).decode_stream(&frames, &Profiler::new());
        let compliance = compliance::compare(&reference_pcm, &pcm);

        CodeVersion {
            name: name.to_string(),
            kernels,
            frame_profile,
            stream_seconds: stream_profile.total_seconds(),
            stream_energy_j: stream_profile.total_energy_j(),
            compliance,
            mapping_summary: Vec::new(),
        }
    }
}

/// Determines the kernel variant implied by a mapping solution: the variant of
/// the (cheapest, hence chosen) element that covers the target.
fn variant_of_solution(solution: &MappingSolution) -> Option<KernelVariant> {
    let (name, _) = solution.used_elements.first()?;
    if name.starts_with("ipp_") {
        Some(KernelVariant::Ipp)
    } else if name.starts_with("fixed_") {
        Some(KernelVariant::Fixed)
    } else if name.starts_with("float_") || name.starts_with("libm_") {
        Some(KernelVariant::Reference)
    } else {
        None
    }
}

fn apply_variant(kernels: &mut KernelSet, stage: DecoderStage, variant: KernelVariant) {
    match stage {
        DecoderStage::Dequantize => kernels.dequantize = variant,
        DecoderStage::Stereo => kernels.stereo = variant,
        DecoderStage::Antialias => kernels.antialias = variant,
        DecoderStage::Imdct => kernels.imdct = variant,
        DecoderStage::Hybrid => kernels.hybrid = variant,
        DecoderStage::Synthesis => kernels.synthesis = variant,
    }
}

/// The library subsets corresponding to the code versions of Table 6 (the
/// hand-optimized "IPP MP3" row is not a mapping product and is measured with
/// [`KernelSet::ipp_complete`] instead).
pub fn table6_libraries(badge: &Badge4) -> Vec<(String, Library)> {
    use symmap_libchar::catalog::{self, names};
    let reference = catalog::reference_library(badge);
    let lm = catalog::linux_math_library(badge);
    let ih = catalog::in_house_library(badge);
    let ipp = catalog::ipp_library(badge);

    let only = |lib: &Library, keep: &[&str]| {
        let mut out = Library::new("subset");
        for e in lib.iter() {
            if keep.contains(&e.name()) {
                out.push(e.clone());
            }
        }
        out
    };

    vec![
        ("Original".to_string(), reference.clone()),
        (
            "IPP SubBand".to_string(),
            Library::union(
                "ref+ipp-subband",
                &[&reference, &only(&ipp, &[names::IPP_SUBBAND])],
            ),
        ),
        (
            "IPP SubBand & IMDCT".to_string(),
            Library::union(
                "ref+ipp-subband-imdct",
                &[
                    &reference,
                    &only(&ipp, &[names::IPP_SUBBAND, names::IPP_IMDCT]),
                ],
            ),
        ),
        (
            "IH Library".to_string(),
            Library::union("ref+lm+ih", &[&reference, &lm, &ih]),
        ),
        (
            "IH + IPP SubBand".to_string(),
            Library::union(
                "ref+lm+ih+ipp-subband",
                &[&reference, &lm, &ih, &only(&ipp, &[names::IPP_SUBBAND])],
            ),
        ),
        (
            "IH + IPP SubBand & IMDCT".to_string(),
            Library::union("ref+lm+ih+ipp", &[&reference, &lm, &ih, &ipp]),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use symmap_libchar::catalog;

    fn small_pipeline(library: Library) -> OptimizationPipeline {
        OptimizationPipeline::new(Badge4::new(), library).with_stream_frames(2)
    }

    #[test]
    fn full_catalog_maps_to_ipp_kernels() {
        let badge = Badge4::new();
        let pipeline = small_pipeline(catalog::full_catalog(&badge));
        let (kernels, solutions) = pipeline.map_decoder();
        assert_eq!(kernels.synthesis, KernelVariant::Ipp);
        assert_eq!(kernels.imdct, KernelVariant::Ipp);
        assert_eq!(kernels.dequantize, KernelVariant::Ipp);
        assert!(!solutions.is_empty());
        for (_, s) in &solutions {
            assert!(s.verify(), "mapping must be functionally equivalent");
        }
    }

    #[test]
    fn ih_only_catalog_maps_to_fixed_kernels() {
        let badge = Badge4::new();
        let lib = Library::union(
            "ref+lm+ih",
            &[
                &catalog::reference_library(&badge),
                &catalog::linux_math_library(&badge),
                &catalog::in_house_library(&badge),
            ],
        );
        let (kernels, _) = small_pipeline(lib).map_decoder();
        assert_eq!(kernels.synthesis, KernelVariant::Fixed);
        assert_eq!(kernels.imdct, KernelVariant::Fixed);
        assert_eq!(kernels.dequantize, KernelVariant::Fixed);
    }

    #[test]
    fn reference_only_catalog_changes_nothing() {
        let badge = Badge4::new();
        let (kernels, _) = small_pipeline(catalog::reference_library(&badge)).map_decoder();
        assert_eq!(kernels, KernelSet::reference());
    }

    #[test]
    fn run_produces_compliant_and_faster_decoder() {
        let badge = Badge4::new();
        let pipeline = small_pipeline(catalog::full_catalog(&badge));
        let original = pipeline.measure("Original", KernelSet::reference());
        let optimized = pipeline.run("IH + IPP SubBand & IMDCT");
        assert!(optimized.compliance.is_sufficient());
        let factor = optimized.perf_factor_vs(&original);
        assert!(factor > 50.0, "perf factor {factor}");
        assert!(optimized.energy_factor_vs(&original) > 50.0);
        assert!(!optimized.mapping_summary.is_empty());
        assert!(
            optimized.real_time_headroom(pipeline.stream_frames())
                > original.real_time_headroom(pipeline.stream_frames())
        );
    }

    #[test]
    fn pipeline_reuses_groebner_bases_across_runs() {
        let badge = Badge4::new();
        let pipeline = small_pipeline(catalog::full_catalog(&badge));
        pipeline.map_decoder();
        let cache = pipeline.engine().cache();
        let (hits_first, misses_first) = (cache.hits(), cache.misses());
        assert!(misses_first > 0, "first run must populate the cache");
        // The second mapping pass prices the same side-relation sets and is
        // answered from the shared cache without a single new basis.
        pipeline.map_decoder();
        let (hits_second, misses_second) = (cache.hits(), cache.misses());
        assert!(hits_second > hits_first);
        assert_eq!(
            misses_second, misses_first,
            "identical decoder mapping recomputed a basis"
        );
    }

    #[test]
    fn map_decoder_is_byte_identical_across_worker_counts() {
        let badge = Badge4::new();
        let reference = {
            let config = MapperConfig {
                engine: symmap_engine::EngineConfig {
                    workers: 1,
                    ..Default::default()
                },
                ..MapperConfig::default()
            };
            let pipeline = small_pipeline(catalog::full_catalog(&badge)).with_mapper_config(config);
            pipeline.map_decoder()
        };
        // The 4-worker run also records a trace, which must not leak into
        // the solutions.
        for (workers, trace) in [(2, false), (4, true)] {
            let config = MapperConfig {
                engine: symmap_engine::EngineConfig {
                    workers,
                    trace,
                    ..Default::default()
                },
                ..MapperConfig::default()
            };
            let pipeline = small_pipeline(catalog::full_catalog(&badge)).with_mapper_config(config);
            let parallel = pipeline.map_decoder();
            assert_eq!(
                parallel.0, reference.0,
                "kernel set diverged at {workers} workers"
            );
            assert_eq!(
                format!("{:?}", parallel.1),
                format!("{:?}", reference.1),
                "solutions diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn map_decoder_with_stats_reports_the_batch() {
        let badge = Badge4::new();
        let pipeline = small_pipeline(catalog::full_catalog(&badge));
        let (_, solutions, stats) = pipeline.map_decoder_with_stats();
        assert!(stats.jobs >= solutions.len());
        assert!(stats.jobs > 0);
        assert!(stats.workers >= 1);
        assert!(stats.cache_misses() > 0, "first batch must compute bases");
        // Stats are per batch: a repeat run reports hits only.
        let (_, _, stats_again) = pipeline.map_decoder_with_stats();
        assert_eq!(stats_again.cache_misses(), 0);
        assert!(stats_again.cache_hits() > 0);
    }

    #[test]
    fn table6_library_list_has_six_mapped_versions() {
        let badge = Badge4::new();
        let libs = table6_libraries(&badge);
        assert_eq!(libs.len(), 6);
        assert_eq!(libs[0].0, "Original");
        assert!(libs[5].1.len() > libs[1].1.len());
    }
}
