//! The decoder pipeline with pluggable kernels.
//!
//! [`Decoder`] wires the stages together in the order of the ISO reference
//! implementation and records every stage's operation counts under the same
//! function names that appear in the paper's profiling tables
//! (`III_dequantize_sample`, `SubBandSynthesis`, `inv_mdctL`, …, and the IPP
//! entry points `ippsSynthPQMF_MP3_32s16s` / `IppsMDCTInv_MP3_32s` when the
//! corresponding IPP kernels are selected).
//!
//! Which implementation runs for each stage is decided by a [`KernelSet`] —
//! in the full methodology that choice is *produced by the mapper* in
//! `symmap-core`, not written by hand.

use symmap_platform::cost::{InstructionClass, OpCounts};
use symmap_platform::profiler::Profiler;

use crate::antialias::{self, AntialiasVariant};
use crate::dequant;

use crate::huffman::{self, HuffmanTable};
use crate::hybrid::{HybridFilter, HybridVariant};
use crate::imdct;
use crate::stereo::{self, StereoVariant};
use crate::synthesis::{PolyphaseSynthesis, SynthesisVariant};
use crate::types::{Frame, Granule, LINES_PER_SUBBAND, SAMPLES_PER_GRANULE, SUBBANDS};

/// Implementation choice for one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// Double-precision reference code (software float on the Badge4).
    Reference,
    /// In-house fixed-point library ("IH").
    Fixed,
    /// Intel IPP-style hand-optimized library.
    Ipp,
}

impl KernelVariant {
    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            KernelVariant::Reference => "float",
            KernelVariant::Fixed => "fixed",
            KernelVariant::Ipp => "ipp",
        }
    }
}

/// The kernel selection for every stage of the decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelSet {
    /// Requantization stage.
    pub dequantize: KernelVariant,
    /// Stereo processing stage.
    pub stereo: KernelVariant,
    /// Antialias butterflies.
    pub antialias: KernelVariant,
    /// IMDCT stage.
    pub imdct: KernelVariant,
    /// Hybrid overlap-add stage.
    pub hybrid: KernelVariant,
    /// Polyphase subband synthesis stage.
    pub synthesis: KernelVariant,
    /// Whether the remaining control-heavy stages (Huffman, reorder, scale
    /// factors) are hand-tuned as in Intel's complete MP3 decoder.
    pub hand_optimized_control: bool,
}

impl KernelSet {
    /// The original decoder: everything in double precision (Table 3 / Table 6
    /// row "Original").
    pub fn reference() -> Self {
        KernelSet {
            dequantize: KernelVariant::Reference,
            stereo: KernelVariant::Reference,
            antialias: KernelVariant::Reference,
            imdct: KernelVariant::Reference,
            hybrid: KernelVariant::Reference,
            synthesis: KernelVariant::Reference,
            hand_optimized_control: false,
        }
    }

    /// Mapping into the Linux-math + in-house fixed-point libraries only
    /// (Table 4 / Table 6 row "IH Library").
    pub fn in_house() -> Self {
        KernelSet {
            dequantize: KernelVariant::Fixed,
            stereo: KernelVariant::Fixed,
            antialias: KernelVariant::Fixed,
            imdct: KernelVariant::Fixed,
            hybrid: KernelVariant::Fixed,
            synthesis: KernelVariant::Fixed,
            hand_optimized_control: false,
        }
    }

    /// IH libraries plus the two IPP primitives the mapper finds (Table 5 /
    /// Table 6 row "IH + IPP SubBand & IMDCT").
    pub fn in_house_with_ipp() -> Self {
        KernelSet {
            synthesis: KernelVariant::Ipp,
            imdct: KernelVariant::Ipp,
            ..KernelSet::in_house()
        }
    }

    /// Intel's fully hand-optimized MP3 decoder (Table 6 last row).
    pub fn ipp_complete() -> Self {
        KernelSet {
            dequantize: KernelVariant::Ipp,
            stereo: KernelVariant::Fixed,
            antialias: KernelVariant::Fixed,
            imdct: KernelVariant::Ipp,
            hybrid: KernelVariant::Fixed,
            synthesis: KernelVariant::Ipp,
            hand_optimized_control: true,
        }
    }

    /// The profile name used for the synthesis stage.
    pub fn synthesis_function_name(&self) -> &'static str {
        match self.synthesis {
            KernelVariant::Ipp => "ippsSynthPQMF_MP3_32s16s",
            _ => "SubBandSynthesis",
        }
    }

    /// The profile name used for the IMDCT stage.
    pub fn imdct_function_name(&self) -> &'static str {
        match self.imdct {
            KernelVariant::Ipp => "IppsMDCTInv_MP3_32s",
            _ => "inv_mdctL",
        }
    }
}

/// The MP3-style decoder.
#[derive(Debug)]
pub struct Decoder {
    kernels: KernelSet,
    huffman_table: HuffmanTable,
    pow43: Vec<f64>,
    synthesis: PolyphaseSynthesis,
    hybrid: HybridFilter,
}

impl Decoder {
    /// Creates a decoder with the given kernel selection.
    pub fn new(kernels: KernelSet) -> Self {
        let synth_variant = match kernels.synthesis {
            KernelVariant::Reference => SynthesisVariant::Reference,
            KernelVariant::Fixed => SynthesisVariant::Fixed,
            KernelVariant::Ipp => SynthesisVariant::Ipp,
        };
        let hybrid_variant = match kernels.hybrid {
            KernelVariant::Reference => HybridVariant::Reference,
            _ => HybridVariant::Fixed,
        };
        Decoder {
            kernels,
            huffman_table: HuffmanTable::standard(),
            pow43: dequant::pow43_table(),
            synthesis: PolyphaseSynthesis::new(synth_variant),
            hybrid: HybridFilter::new(hybrid_variant),
        }
    }

    /// The active kernel selection.
    pub fn kernels(&self) -> KernelSet {
        self.kernels
    }

    /// Decodes one frame to PCM, recording per-function costs in `profiler`.
    pub fn decode_frame(&mut self, frame: &Frame, profiler: &Profiler) -> Vec<f64> {
        let mut pcm = Vec::with_capacity(SAMPLES_PER_GRANULE * frame.granules.len());
        for granule in &frame.granules {
            pcm.extend(self.decode_granule(granule, profiler));
        }
        pcm
    }

    /// Decodes a whole stream of frames.
    pub fn decode_stream(&mut self, frames: &[Frame], profiler: &Profiler) -> Vec<f64> {
        let mut pcm = Vec::new();
        for frame in frames {
            pcm.extend(self.decode_frame(frame, profiler));
        }
        pcm
    }

    fn control_scale(&self) -> u64 {
        if self.kernels.hand_optimized_control {
            3
        } else {
            1
        }
    }

    fn decode_granule(&mut self, granule: &Granule, profiler: &Profiler) -> Vec<f64> {
        // 1. Huffman decoding (re-encode the synthetic granule, then decode,
        //    so the decode loop does real bit-level work).
        let encoded = huffman::encode(&granule.quantized, &self.huffman_table);
        let mut ops = OpCounts::new();
        let quantized =
            huffman::decode(&encoded, SAMPLES_PER_GRANULE, &self.huffman_table, &mut ops)
                .expect("self-generated stream is always decodable");
        profiler.record("III_hufman_decode", &ops.divided(self.control_scale()));

        // 2. Scale-factor decoding (small, control dominated).
        let mut ops = OpCounts::new();
        ops.add(InstructionClass::IntAlu, 4 * SUBBANDS as u64);
        ops.add(InstructionClass::Load, 2 * SUBBANDS as u64);
        ops.add(InstructionClass::Store, SUBBANDS as u64);
        profiler.record("III_get_scale_factors", &ops.divided(self.control_scale()));

        // 3. Requantization.
        let granule_for_dequant = Granule {
            quantized,
            ..granule.clone()
        };
        let mut ops = OpCounts::new();
        let mut spectrum = match self.kernels.dequantize {
            KernelVariant::Reference => {
                dequant::dequantize_reference(&granule_for_dequant, &mut ops)
            }
            KernelVariant::Fixed => {
                dequant::dequantize_fixed(&granule_for_dequant, &self.pow43, &mut ops)
            }
            KernelVariant::Ipp => {
                dequant::dequantize_ipp(&granule_for_dequant, &self.pow43, &mut ops)
            }
        };
        profiler.record("III_dequantize_sample", &ops);

        // 4. Reorder (long blocks: an index-remapping copy).
        let mut ops = OpCounts::new();
        ops.add(InstructionClass::Load, SAMPLES_PER_GRANULE as u64);
        ops.add(InstructionClass::Store, SAMPLES_PER_GRANULE as u64);
        ops.add(InstructionClass::IntAlu, SAMPLES_PER_GRANULE as u64 / 2);
        profiler.record("III_reorder", &ops.divided(self.control_scale()));

        // 5. Stereo processing.
        let stereo_variant = match self.kernels.stereo {
            KernelVariant::Reference => StereoVariant::Reference,
            _ => StereoVariant::Fixed,
        };
        let mut ops = OpCounts::new();
        let mut left = stereo::process(&mut spectrum, granule.mid_side, stereo_variant, &mut ops);
        profiler.record("III_stereo", &ops.divided(self.control_scale()));

        // 6. Antialias butterflies.
        let aa_variant = match self.kernels.antialias {
            KernelVariant::Reference => AntialiasVariant::Reference,
            _ => AntialiasVariant::Fixed,
        };
        let mut ops = OpCounts::new();
        antialias::process(&mut left, aa_variant, &mut ops);
        profiler.record("III_antialias", &ops);

        // 7. IMDCT per subband.
        let imdct_kernel = match self.kernels.imdct {
            KernelVariant::Reference => {
                imdct::imdct_reference as fn(&[f64], &mut OpCounts) -> Vec<f64>
            }
            KernelVariant::Fixed => imdct::imdct_fixed,
            KernelVariant::Ipp => imdct::imdct_ipp,
        };
        let mut ops = OpCounts::new();
        let blocks = imdct::imdct_granule(&left, imdct_kernel, &mut ops);
        profiler.record(self.kernels.imdct_function_name(), &ops);

        // 8. Hybrid overlap-add.
        let mut ops = OpCounts::new();
        let slots = self.hybrid.process(&blocks, &mut ops);
        profiler.record("III_hybrid", &ops);

        // 9. Polyphase synthesis, 18 time slots of 32 samples.
        let mut ops = OpCounts::new();
        let mut granule_pcm = Vec::with_capacity(SAMPLES_PER_GRANULE);
        for slot in &slots {
            granule_pcm.extend(self.synthesis.process(slot, &mut ops));
        }
        profiler.record(self.kernels.synthesis_function_name(), &ops);
        debug_assert_eq!(granule_pcm.len(), LINES_PER_SUBBAND * SUBBANDS);
        granule_pcm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compliance;
    use crate::frame::FrameGenerator;
    use symmap_platform::machine::Badge4;

    fn one_frame() -> Frame {
        FrameGenerator::new(9).frame()
    }

    #[test]
    fn decodes_to_1152_samples_per_frame() {
        let frame = one_frame();
        let profiler = Profiler::new();
        let pcm = Decoder::new(KernelSet::reference()).decode_frame(&frame, &profiler);
        assert_eq!(pcm.len(), SAMPLES_PER_GRANULE * 2);
        assert!(pcm.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn profile_contains_the_paper_function_names() {
        let frame = one_frame();
        let profiler = Profiler::new();
        Decoder::new(KernelSet::reference()).decode_frame(&frame, &profiler);
        let profile = profiler.profile(&Badge4::new());
        for name in [
            "III_dequantize_sample",
            "SubBandSynthesis",
            "inv_mdctL",
            "III_hybrid",
            "III_antialias",
            "III_stereo",
            "III_hufman_decode",
            "III_reorder",
            "III_get_scale_factors",
        ] {
            assert!(profile.entry(name).is_some(), "missing profile row {name}");
        }
    }

    #[test]
    fn reference_profile_shape_matches_table_3() {
        let frame = one_frame();
        let profiler = Profiler::new();
        Decoder::new(KernelSet::reference()).decode_frame(&frame, &profiler);
        let profile = profiler.profile(&Badge4::new());
        let pct = |name: &str| profile.entry(name).map(|e| e.percent).unwrap_or(0.0);
        // Dominant three functions, in the paper's order.
        assert!(pct("III_dequantize_sample") > 30.0);
        assert!(pct("SubBandSynthesis") > 20.0);
        assert!(pct("inv_mdctL") > 8.0);
        assert!(pct("III_dequantize_sample") > pct("SubBandSynthesis"));
        assert!(pct("SubBandSynthesis") > pct("inv_mdctL"));
        // Everything else is small.
        assert!(pct("III_stereo") < 5.0);
        assert!(pct("III_hufman_decode") < 5.0);
    }

    #[test]
    fn ipp_kernels_change_profile_names() {
        let frame = one_frame();
        let profiler = Profiler::new();
        Decoder::new(KernelSet::in_house_with_ipp()).decode_frame(&frame, &profiler);
        let profile = profiler.profile(&Badge4::new());
        assert!(profile.entry("ippsSynthPQMF_MP3_32s16s").is_some());
        assert!(profile.entry("IppsMDCTInv_MP3_32s").is_some());
        assert!(profile.entry("SubBandSynthesis").is_none());
        assert!(profile.entry("inv_mdctL").is_none());
    }

    #[test]
    fn optimized_versions_are_progressively_faster() {
        let frame = one_frame();
        let badge = Badge4::new();
        let time_of = |kernels: KernelSet| {
            let profiler = Profiler::new();
            Decoder::new(kernels).decode_frame(&frame, &profiler);
            profiler.profile(&badge).total_seconds()
        };
        let original = time_of(KernelSet::reference());
        let ih = time_of(KernelSet::in_house());
        let ih_ipp = time_of(KernelSet::in_house_with_ipp());
        let ipp_full = time_of(KernelSet::ipp_complete());
        assert!(original > 50.0 * ih, "original {original} vs IH {ih}");
        assert!(ih > 2.0 * ih_ipp, "IH {ih} vs IH+IPP {ih_ipp}");
        assert!(ih_ipp > ipp_full, "IH+IPP {ih_ipp} vs IPP MP3 {ipp_full}");
    }

    #[test]
    fn optimized_decoders_remain_compliant() {
        let mut gen = FrameGenerator::new(21);
        let frames = gen.stream(3);
        let profiler = Profiler::new();
        let reference = Decoder::new(KernelSet::reference()).decode_stream(&frames, &profiler);
        for kernels in [
            KernelSet::in_house(),
            KernelSet::in_house_with_ipp(),
            KernelSet::ipp_complete(),
        ] {
            let candidate = Decoder::new(kernels).decode_stream(&frames, &profiler);
            let report = compliance::compare(&reference, &candidate);
            assert!(
                report.is_sufficient(),
                "{kernels:?} fails compliance with rms {}",
                report.rms_error
            );
        }
    }

    #[test]
    fn kernel_set_builders() {
        let ks = KernelSet {
            synthesis: KernelVariant::Ipp,
            ..KernelSet::reference()
        };
        assert_eq!(ks.synthesis, KernelVariant::Ipp);
        assert_eq!(ks.dequantize, KernelVariant::Reference);
        assert_eq!(ks.synthesis_function_name(), "ippsSynthPQMF_MP3_32s16s");
        assert_eq!(KernelSet::reference().imdct_function_name(), "inv_mdctL");
        assert_eq!(KernelVariant::Fixed.label(), "fixed");
    }
}
