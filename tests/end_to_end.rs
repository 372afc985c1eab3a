//! End-to-end integration test: the full three-step methodology on the MP3
//! decoder workload, spanning every crate of the workspace.

use symmap::core::pipeline::{table6_libraries, OptimizationPipeline};
use symmap::core::report;
use symmap::libchar::catalog;
use symmap::mp3::decoder::{KernelSet, KernelVariant};
use symmap::platform::machine::Badge4;

#[test]
fn methodology_reproduces_the_paper_shape() {
    let badge = Badge4::new();
    let frames = 2;

    // Version list of Table 6 (without the hand-optimized last row).
    let mut versions = Vec::new();
    for (name, library) in table6_libraries(&badge) {
        let pipeline = OptimizationPipeline::new(badge.clone(), library).with_stream_frames(frames);
        let version = if name == "Original" {
            pipeline.measure("Original", KernelSet::reference())
        } else {
            pipeline.run(&name)
        };
        versions.push(version);
    }
    assert_eq!(versions.len(), 6);

    let original = &versions[0];
    let ih = &versions[3];
    let best = &versions[5];

    // Shape of Table 6: each successive library set is at least as fast, the
    // IH mapping buys roughly two orders of magnitude, the full mapping adds a
    // further integer factor, and every mapped version stays compliant.
    for pair in versions.windows(2) {
        assert!(
            pair[1].stream_seconds <= pair[0].stream_seconds * 1.05,
            "{} should not be slower than {}",
            pair[1].name,
            pair[0].name
        );
    }
    assert!(
        ih.perf_factor_vs(original) > 30.0,
        "IH factor {}",
        ih.perf_factor_vs(original)
    );
    assert!(best.perf_factor_vs(original) > 1.5 * ih.perf_factor_vs(original));
    assert!(best.energy_factor_vs(original) > 30.0);
    for v in &versions[1..] {
        assert!(v.compliance.is_sufficient(), "{} fails compliance", v.name);
    }

    // Shape of Table 3: the original profile is dominated by dequantization,
    // subband synthesis and the IMDCT, in that order.
    let pct = |name: &str| {
        original
            .frame_profile
            .entry(name)
            .map(|e| e.percent)
            .unwrap_or(0.0)
    };
    assert!(pct("III_dequantize_sample") > pct("SubBandSynthesis"));
    assert!(pct("SubBandSynthesis") > pct("inv_mdctL"));
    assert!(
        pct("III_dequantize_sample") + pct("SubBandSynthesis") + pct("inv_mdctL") > 85.0,
        "the three dominant functions should cover most of the frame"
    );

    // Shape of Table 5: with the full catalog the mapper selects the IPP
    // subband synthesis and IMDCT primitives, and the IPP subband routine is
    // still the largest single entry of the optimized profile.
    assert_eq!(best.kernels.synthesis, KernelVariant::Ipp);
    assert_eq!(best.kernels.imdct, KernelVariant::Ipp);
    assert!(best
        .frame_profile
        .entry("ippsSynthPQMF_MP3_32s16s")
        .is_some());

    // The optimized decoder beats real time, enabling DVFS energy savings.
    assert!(best.real_time_headroom(frames) > 1.0);
    let dvfs = report::render_dvfs(best, frames, &badge);
    assert!(dvfs.contains("faster than real time"));
}

#[test]
fn mapping_solutions_are_verified_rewrites() {
    let badge = Badge4::new();
    let pipeline = OptimizationPipeline::new(badge.clone(), catalog::full_catalog(&badge))
        .with_stream_frames(1);
    let (kernels, solutions) = pipeline.map_decoder();
    assert!(!solutions.is_empty());
    for (function, solution) in &solutions {
        assert!(
            solution.verify(),
            "mapping of {function} is not an equivalent rewrite"
        );
        assert!(
            solution.accuracy <= 1e-3,
            "mapping of {function} exceeds the accuracy budget"
        );
    }
    // Every arithmetic stage moved off the reference kernels.
    assert_ne!(kernels.dequantize, KernelVariant::Reference);
    assert_ne!(kernels.synthesis, KernelVariant::Reference);
    assert_ne!(kernels.imdct, KernelVariant::Reference);
}
