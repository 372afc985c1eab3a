// lint:allow-file(D2): every workload round is timed with the wall clock; this
// benchmark package is the repository's end-to-end timing harness.

//! The three workloads: their inputs, one round of each, and the checks
//! of a round's outputs against the goldens.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use symmap_algebra::groebner::{buchberger, GroebnerBasis};
use symmap_algebra::poly::Poly;
use symmap_bench::{table6_versions, FULL_STREAM_FRAMES};
use symmap_core::pipeline::{table6_libraries, CodeVersion, OptimizationPipeline};
use symmap_engine::{BatchResult, EngineConfig, MapJob, MappingEngine};
use symmap_libchar::{catalog, Library};
use symmap_mp3::decoder::KernelSet;
use symmap_platform::machine::Badge4;

use crate::golden::{render_sweep, Goldens, Tally};
use crate::inputs::{self, Ideal, KernelDraw};
use crate::trace::Tracer;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Table 6 sweep: every code version mapped, decoded and checked.
    Table6Sweep,
    /// Seven mapping batches per round on a fresh engine.
    MappingBatch,
    /// Cold Gröbner bases through the lift gate.
    GroebnerGrowth,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Table6Sweep,
        Workload::MappingBatch,
        Workload::GroebnerGrowth,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table6Sweep => "table6-sweep",
            Workload::MappingBatch => "mapping-batch",
            Workload::GroebnerGrowth => "groebner-growth",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's times are normalized by the calibration
    /// probe. The probe follows the machine's speed over the few hundred
    /// milliseconds of a mapping or Gröbner group, but not over an
    /// 8-second sweep, whose raw wall clock is steadier than its
    /// normalized one (see the README).
    pub fn calibrated(self) -> bool {
        self != Workload::Table6Sweep
    }

    /// Fewest timed rounds in a run.
    pub fn min_rounds(self) -> usize {
        match self {
            Workload::Table6Sweep => 1,
            _ => 10,
        }
    }

    /// Runs one round, untraced, and checks its outputs after the clock
    /// stops. Returns the round's wall clock, its tally and the wall clock
    /// of each mapping batch (empty for the other workloads).
    pub fn round(self, inputs: &Inputs) -> (Duration, Tally, Vec<Duration>) {
        let mut off = Tracer::disabled();
        match self {
            Workload::Table6Sweep => {
                let start = Instant::now();
                let versions = table6_versions(&inputs.badge, FULL_STREAM_FRAMES);
                let report = render_sweep(&versions, FULL_STREAM_FRAMES, &inputs.badge);
                let wall = start.elapsed();
                let tally = inputs.goldens.check_sweep(&versions, &report);
                (wall, tally, Vec::new())
            }
            Workload::MappingBatch => {
                let run = mapping_round(inputs, &mut off);
                let tally = check_mapping(inputs, &run);
                (run.wall, tally, run.batch_walls)
            }
            Workload::GroebnerGrowth => {
                let run = groebner_round(inputs, &mut off);
                (run.wall, check_groebner(inputs, &run), Vec::new())
            }
        }
    }
}

/// Everything built before timing starts. Every workload builds all of it,
/// so `setup_s` means the same on each, and the traced run needs it all.
pub struct Inputs {
    /// The platform model.
    pub badge: Badge4,
    /// The six Table 6 libraries and the full catalog, in that order.
    pub libraries: Vec<(String, Arc<Library>)>,
    /// The seed's kernel draw.
    pub draw: KernelDraw,
    /// The 11 kernels of every mapping batch.
    pub kernels: Vec<(String, Poly)>,
    /// Their labels, in batch order.
    pub labels: Vec<String>,
    /// One batch of jobs per library.
    pub batches: Vec<Vec<MapJob>>,
    /// The Gröbner-growth ideals, in the seed's run order.
    pub ideals: Vec<Ideal>,
    /// The goldens.
    pub goldens: Goldens,
}

impl Inputs {
    /// Builds every input for `seed`.
    pub fn build(seed: u64) -> Inputs {
        let badge = Badge4::new();
        let libraries = inputs::libraries(&badge);
        let draw = inputs::draw_kernels(seed);
        let kernels = inputs::batch_kernels(&draw);
        let labels = kernels.iter().map(|(l, _)| l.clone()).collect();
        let batches = inputs::batches(&libraries, &kernels, &inputs::mapper_config());
        Inputs {
            badge,
            libraries,
            draw,
            kernels,
            labels,
            batches,
            ideals: inputs::ideals(seed),
            goldens: Goldens::load(),
        }
    }

    /// The full catalog (the last library).
    pub fn full_catalog(&self) -> &Arc<Library> {
        &self.libraries.last().expect("libraries are never empty").1
    }
}

/// The Table 6 sweep of `symmap_bench::table6_versions`, step by step, with
/// a span around each call into the pipeline: the same calls in the same
/// order, so the output is identical.
pub fn traced_sweep(badge: &Badge4, t: &mut Tracer) -> Vec<CodeVersion> {
    let engine = MappingEngine::new(EngineConfig::default());
    let libs = t
        .span("libchar.table6_libraries", |_| table6_libraries(badge))
        .0;
    let mut versions = Vec::new();
    for (name, library) in libs {
        let summary_library = library.clone();
        let pipeline = OptimizationPipeline::new(badge.clone(), library)
            .with_stream_frames(FULL_STREAM_FRAMES)
            .with_engine(engine.clone());
        if name == "Original" {
            let v = t.span("core.pipeline.measure", |_| {
                pipeline.measure("Original", KernelSet::reference())
            });
            versions.push(v.0);
        } else {
            let (kernels, solutions) = t
                .span("core.pipeline.map_decoder", |_| pipeline.map_decoder())
                .0;
            let mut v = t
                .span("core.pipeline.measure", |_| {
                    pipeline.measure(&name, kernels)
                })
                .0;
            v.mapping_summary = solutions
                .iter()
                .map(|(f, s)| format!("{f}: {}", s.summary(&summary_library)))
                .collect();
            versions.push(v);
        }
    }
    let full = t
        .span("libchar.full_catalog", |_| catalog::full_catalog(badge))
        .0;
    let pipeline =
        OptimizationPipeline::new(badge.clone(), full).with_stream_frames(FULL_STREAM_FRAMES);
    let ipp = t.span("core.pipeline.measure", |_| {
        pipeline.measure("IPP MP3 (hand optimized)", KernelSet::ipp_complete())
    });
    versions.push(ipp.0);
    versions
}

/// One mapping round's results.
pub struct MappingRound {
    /// Wall clock of the round.
    pub wall: Duration,
    /// Wall clock of each batch, in library order.
    pub batch_walls: Vec<Duration>,
    /// Each batch's outcomes and engine statistics.
    pub results: Vec<BatchResult>,
}

/// One round: a fresh engine, then one batch per library in Table 6 order
/// and the full catalog last. The first batch computes the bases; the
/// later ones are served mostly from the engine's cache.
pub fn mapping_round(inputs: &Inputs, t: &mut Tracer) -> MappingRound {
    let start = Instant::now();
    let engine = MappingEngine::new(inputs::engine_config());
    let mut batch_walls = Vec::with_capacity(inputs.batches.len());
    let mut results = Vec::with_capacity(inputs.batches.len());
    for jobs in &inputs.batches {
        let (result, wall) = t.span("engine.batch.run", |_| engine.run(black_box(jobs)));
        batch_walls.push(wall);
        results.push(result);
    }
    MappingRound {
        wall: start.elapsed(),
        batch_walls,
        results,
    }
}

/// Checks every job of a round.
pub fn check_mapping(inputs: &Inputs, round: &MappingRound) -> Tally {
    let mut tally = Tally::default();
    for ((library, _), result) in inputs.libraries.iter().zip(&round.results) {
        tally.add(
            inputs
                .goldens
                .check_batch(library, &inputs.labels, &result.outcomes),
        );
    }
    tally
}

/// One Gröbner round's results, in the seed's ideal order.
pub struct GroebnerRound {
    /// Wall clock of the round.
    pub wall: Duration,
    /// The bases.
    pub bases: Vec<GroebnerBasis>,
}

/// One round: a cold `buchberger` with default options (lift gate on) for
/// every ideal of the set.
pub fn groebner_round(inputs: &Inputs, t: &mut Tracer) -> GroebnerRound {
    let options = inputs::groebner_options();
    let start = Instant::now();
    let mut bases = Vec::with_capacity(inputs.ideals.len());
    for ideal in &inputs.ideals {
        let basis = t.span("algebra.groebner.buchberger", |_| {
            buchberger(black_box(&ideal.generators), &ideal.order, &options)
        });
        bases.push(basis.0);
    }
    GroebnerRound {
        wall: start.elapsed(),
        bases,
    }
}

/// Checks every basis of a round.
pub fn check_groebner(inputs: &Inputs, round: &GroebnerRound) -> Tally {
    let mut tally = Tally::default();
    for (ideal, basis) in inputs.ideals.iter().zip(&round.bases) {
        tally.add(inputs.goldens.check_basis(ideal, basis));
    }
    tally
}
