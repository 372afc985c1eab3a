//! The traced run's per-layer attribution.
//!
//! Every traced run measures every layer, whatever its workload: the MP3
//! and pipeline layers on the Table 6 sweep (seed 7, the pipeline's own),
//! the engine layers on one mapping round of the run's seed, and the
//! Gröbner layers on the run's ideal set. Each call into a layer is timed
//! from this file, inside a span of the benchmark's own trace.

use std::hint::black_box;
use std::time::Duration;

use symmap_algebra::factor::factor;
use symmap_algebra::fingerprint::PolyFingerprint;
use symmap_algebra::groebner::{buchberger, GroebnerOptions, SharedGroebnerCache};
use symmap_algebra::horner::horner_form_auto;
use symmap_algebra::multimodular::multimodular_basis;
use symmap_algebra::simplify::{default_var_order, simplify_modulo_cached};
use symmap_bench::FULL_STREAM_FRAMES;
use symmap_core::pipeline::OptimizationPipeline;
use symmap_engine::Mapper;
use symmap_mp3::compliance;
use symmap_mp3::decoder::{Decoder, KernelSet};
use symmap_mp3::frame::FrameGenerator;
use symmap_platform::profiler::Profiler;

use crate::golden::{render_sweep, Tally};
use crate::inputs::{self, kernel_slot, IDEAL_NAMES};
use crate::replay::{replay_stream, STAGES};
use crate::stats::{median, ms, us};
use crate::trace::Tracer;
use crate::workloads::{check_mapping, mapping_round, traced_sweep, Inputs};
use crate::Metrics;

/// Metric keys of the Table 6 code versions, in Table 6 order.
pub const VERSION_KEYS: [&str; 7] = [
    "original",
    "ipp_subband",
    "ipp_subband_imdct",
    "ih",
    "ih_ipp_subband",
    "ih_ipp_subband_imdct",
    "ipp_mp3",
];

/// The frame seed `OptimizationPipeline` hard-codes.
const PIPELINE_SEED: u64 = 7;

/// MP3, platform and pipeline layers, on the Table 6 sweep. Returns the
/// traced sweep's wall clock in milliseconds.
pub fn sweep_layers(inputs: &Inputs, t: &mut Tracer, m: &mut Metrics, tally: &mut Tally) -> f64 {
    let badge = &inputs.badge;
    let (versions, sweep_wall) = t.span("bench.sweep", |t| traced_sweep(badge, t));
    let report = render_sweep(&versions, FULL_STREAM_FRAMES, badge);
    tally.add(inputs.goldens.check_sweep(&versions, &report));
    m.push("bench.sweep_s", sweep_wall.as_secs_f64(), "s");
    let measure = t.total("core.pipeline.measure");
    m.push("core.pipeline.measure_s", measure.as_secs_f64(), "s");
    m.push(
        "core.pipeline.map_decoder_ms",
        ms(t.total("core.pipeline.map_decoder")),
        "ms",
    );

    let (frames, frames_wall) = t.span("mp3.frame.stream", |_| {
        FrameGenerator::new(PIPELINE_SEED).stream(FULL_STREAM_FRAMES)
    });
    m.push("mp3.frame.stream_ms", ms(frames_wall), "ms");

    let pipeline = OptimizationPipeline::new(badge.clone(), (*inputs.libraries[0].1).clone());
    let (targets, identify_wall) = t.span("core.identify.targets", |_| {
        pipeline.identify_decoder_targets()
    });
    m.push("core.identify.targets_ms", ms(identify_wall), "ms");
    m.push("core.identify.targets", targets.len() as f64, "count");

    // One whole-stream decode per code version.
    let mut decode_total = Duration::ZERO;
    let mut pcms = Vec::new();
    let mut original_profiler = None;
    for (key, v) in VERSION_KEYS.iter().zip(&versions) {
        let profiler = Profiler::new();
        let (pcm, wall) = t.span("mp3.decoder.decode_stream", |_| {
            Decoder::new(v.kernels).decode_stream(&frames, &profiler)
        });
        decode_total += wall;
        m.push(
            &format!("mp3.decoder.stream_s.{key}"),
            wall.as_secs_f64(),
            "s",
        );
        if original_profiler.is_none() {
            original_profiler = Some(profiler);
        }
        pcms.push(pcm);
    }
    m.push(
        "core.pipeline.measure_over_decode",
        measure.as_secs_f64() / decode_total.as_secs_f64(),
        "ratio",
    );
    let profiler = original_profiler.expect("the sweep has versions");
    let (_, profile_wall) = t.span("platform.profiler.profile", |_| {
        black_box(profiler.profile(badge))
    });
    m.push("platform.profiler.profile_us", us(profile_wall), "us");
    let (report, compare_wall) = t.span("mp3.compliance.compare", |_| {
        compliance::compare(&pcms[0], &pcms[5])
    });
    m.push("mp3.compliance.compare_ms", ms(compare_wall), "ms");
    tally.add(Tally::from_ok(report.is_sufficient()));

    // Stage replay of the reference kernels and the best mapped version.
    for (key, kernels, pcm) in [
        ("original", KernelSet::reference(), &pcms[0]),
        ("ih_ipp_subband_imdct", versions[5].kernels, &pcms[5]),
    ] {
        let ((replayed, stage_times), _) =
            t.span("mp3.stage.replay", |_| replay_stream(kernels, &frames));
        let identical = replayed.len() == pcm.len()
            && replayed
                .iter()
                .zip(pcm)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        tally.add(Tally::from_ok(identical));
        for (stage, time) in STAGES.iter().zip(stage_times) {
            m.push(&format!("mp3.stage.{stage}.{key}_ms"), ms(time), "ms");
        }
    }
    ms(sweep_wall)
}

/// Engine, library and algebra layers, on one mapping round of the run's
/// seed.
pub fn mapping_layers(inputs: &Inputs, t: &mut Tracer, m: &mut Metrics, tally: &mut Tally) {
    let round = t
        .span("bench.mapping_round", |t| mapping_round(inputs, t))
        .0;
    tally.add(check_mapping(inputs, &round));
    m.push("engine.batch.cold_ms", ms(round.batch_walls[0]), "ms");
    let warm: Vec<f64> = round.batch_walls[1..].iter().map(|d| ms(*d)).collect();
    m.push("engine.batch.warm_ms", median(&warm), "ms");

    let sum = |f: &dyn Fn(&symmap_engine::EngineStats) -> usize| -> f64 {
        round.results.iter().map(|r| f(&r.stats)).sum::<usize>() as f64
    };
    let hits = sum(&|s| s.cache_hits());
    let misses = sum(&|s| s.cache_misses());
    m.push("engine.cache.hits", hits, "count");
    m.push("engine.cache.misses", misses, "count");
    m.push(
        "engine.cache.alpha_hits",
        sum(&|s| s.cache_alpha_hits()),
        "count",
    );
    m.push(
        "engine.cache.alpha_misses",
        sum(&|s| s.cache_alpha_misses()),
        "count",
    );
    m.push(
        "engine.cache.hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
    );
    m.push("engine.lift.success", sum(&|s| s.lift_success), "count");
    m.push("engine.lift.bypass", sum(&|s| s.lift_bypass), "count");
    m.push("engine.lift.retry", sum(&|s| s.lift_retry), "count");
    m.push("engine.lift.fallback", sum(&|s| s.lift_fallback), "count");
    m.push(
        "engine.lift.crt_primes",
        sum(&|s| s.crt_primes_used),
        "count",
    );
    let reductions: u64 = round
        .results
        .iter()
        .filter_map(|r| r.stats.metrics.histograms.get("groebner.reductions"))
        .map(|h| h.sum)
        .sum();
    m.push("engine.groebner.reductions", reductions as f64, "count");
    m.push("engine.index.kept", sum(&|s| s.index_kept), "count");
    m.push("engine.index.rejected", sum(&|s| s.index_rejected), "count");
    let nodes: usize = round
        .results
        .iter()
        .flat_map(|r| r.solutions())
        .map(|s| s.nodes_explored)
        .sum();
    m.push("engine.mapper.nodes", nodes as f64, "count");

    let mut verify_total = Duration::ZERO;
    let mut verify_max = Duration::ZERO;
    for solution in round.results.iter().flat_map(|r| r.solutions()) {
        let (_, wall) = t.span("engine.mapping.verify", |_| black_box(solution.verify()));
        verify_total += wall;
        verify_max = verify_max.max(wall);
    }
    m.push("engine.mapping.verify_us", us(verify_total), "us");
    m.push("engine.mapping.verify_max_us", us(verify_max), "us");

    // Cold single-job mappings against the full catalog.
    let catalog = inputs.full_catalog();
    for (i, (_, target)) in inputs.kernels.iter().enumerate() {
        let mapper = Mapper::new(catalog, inputs::mapper_config());
        let (outcome, wall) = t.span("engine.mapper.map_polynomial", |_| {
            mapper.map_polynomial(target)
        });
        tally.add(Tally::from_ok(outcome.is_ok()));
        m.push(
            &format!("engine.mapper.map_ms.{}", kernel_slot(i)),
            ms(wall),
            "ms",
        );
    }

    // The guidance blocks and the candidate scan, on every target.
    let (mut fp_t, mut factor_t, mut horner_t, mut scan_t) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    for (_, target) in &inputs.kernels {
        let (fp, wall) = t.span("algebra.fingerprint.of", |_| PolyFingerprint::of(target));
        fp_t += wall;
        factor_t += t.span("algebra.factor", |_| black_box(factor(target))).1;
        horner_t += t
            .span("algebra.horner", |_| black_box(horner_form_auto(target)))
            .1;
        scan_t += t
            .span("libchar.library.candidates", |_| {
                black_box(catalog.candidates(&fp).elements.len())
            })
            .1;
    }
    m.push("algebra.fingerprint.of_us", us(fp_t), "us");
    m.push("algebra.factor_us", us(factor_t), "us");
    m.push("algebra.horner_us", us(horner_t), "us");
    m.push("libchar.library.candidates_us", us(scan_t), "us");

    // Each full-catalog target modulo its chosen elements' side relations:
    // a cold cache computes the basis, the warm repeat is normal form only.
    let options = inputs::groebner_options();
    let cache = SharedGroebnerCache::with_config(inputs::engine_config().cache_config());
    let (mut cold, mut warm) = (Duration::ZERO, Duration::ZERO);
    let last = round.results.last().expect("a round has batches");
    for s in last.solutions().filter(|s| !s.relations.is_empty()) {
        let order = default_var_order(&s.target, &s.relations);
        let order: Vec<&str> = order.iter().map(String::as_str).collect();
        let run = |t: &mut Tracer| {
            t.span("algebra.simplify.simplify_modulo_cached", |_| {
                black_box(simplify_modulo_cached(
                    &s.target,
                    &s.relations,
                    &order,
                    &options,
                    &cache,
                ))
            })
            .1
        };
        cold += run(t);
        warm += run(t);
    }
    m.push("algebra.simplify.cold_us", us(cold), "us");
    m.push("algebra.simplify.warm_us", us(warm), "us");
}

/// Gröbner layers, per ideal: the default (lift-gated) basis against the
/// exact engine.
pub fn groebner_layers(inputs: &Inputs, t: &mut Tracer, m: &mut Metrics, tally: &mut Tally) {
    let lifted = inputs::groebner_options();
    let exact = GroebnerOptions {
        multimodular: false,
        ..lifted.clone()
    };
    for name in IDEAL_NAMES {
        let ideal = inputs
            .ideals
            .iter()
            .find(|i| i.name == name)
            .expect("every named ideal is in the set");
        let (basis, basis_wall) = t.span("algebra.groebner.buchberger", |_| {
            buchberger(&ideal.generators, &ideal.order, &lifted)
        });
        let (exact_basis, exact_wall) = t.span("algebra.groebner.exact", |_| {
            buchberger(&ideal.generators, &ideal.order, &exact)
        });
        tally.add(inputs.goldens.check_basis(ideal, &basis));
        tally.add(inputs.goldens.check_basis(ideal, &exact_basis));
        m.push(
            &format!("algebra.groebner.basis_ms.{name}"),
            ms(basis_wall),
            "ms",
        );
        m.push(
            &format!("algebra.groebner.exact_ms.{name}"),
            ms(exact_wall),
            "ms",
        );
        m.push(
            &format!("algebra.groebner.lift_over_exact.{name}"),
            basis_wall.as_secs_f64() / exact_wall.as_secs_f64(),
            "ratio",
        );
        m.push(
            &format!("algebra.groebner.reductions.{name}"),
            basis.reductions as f64,
            "count",
        );
    }
    let katsura = inputs
        .ideals
        .iter()
        .find(|i| i.name == "katsura3_lex_1_3")
        .expect("katsura-3 lex is in the set");
    let outcome = t
        .span("algebra.multimodular.basis", |_| {
            multimodular_basis(&katsura.generators, &katsura.order, &lifted)
        })
        .0;
    m.push(
        "algebra.multimodular.primes_used.katsura3_lex",
        outcome.primes_used as f64,
        "count",
    );
}
