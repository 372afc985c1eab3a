// lint:allow-file(D2): the stage replay times each decode stage with the wall
// clock; this benchmark package is the repository's end-to-end timing harness.

//! Replays a stream through the decoder's public stage functions in
//! `Decoder` order, timing each stage. The PCM is bit-identical to
//! `Decoder::decode_stream` (a self-test pins this for every Table 6
//! kernel set); only the profiler bookkeeping is left out.

use std::time::{Duration, Instant};

use symmap_mp3::antialias::{self, AntialiasVariant};
use symmap_mp3::decoder::{KernelSet, KernelVariant};
use symmap_mp3::huffman::{self, HuffmanTable};
use symmap_mp3::hybrid::{HybridFilter, HybridVariant};
use symmap_mp3::stereo::{self, StereoVariant};
use symmap_mp3::synthesis::{PolyphaseSynthesis, SynthesisVariant};
use symmap_mp3::types::{Frame, Granule, SAMPLES_PER_GRANULE};
use symmap_mp3::{dequant, imdct};
use symmap_platform::cost::OpCounts;

/// Stage names, in decode order (the metric keys).
pub const STAGES: [&str; 7] = [
    "huffman",
    "dequant",
    "stereo",
    "antialias",
    "imdct",
    "hybrid",
    "synthesis",
];

type ImdctKernel = fn(&[f64], &mut OpCounts) -> Vec<f64>;

/// Decodes `frames` with `kernels`, returning the PCM and the time spent in
/// each stage of [`STAGES`].
pub fn replay_stream(kernels: KernelSet, frames: &[Frame]) -> (Vec<f64>, [Duration; 7]) {
    let table = HuffmanTable::standard();
    let pow43 = dequant::pow43_table();
    let mut synthesis = PolyphaseSynthesis::new(match kernels.synthesis {
        KernelVariant::Reference => SynthesisVariant::Reference,
        KernelVariant::Fixed => SynthesisVariant::Fixed,
        KernelVariant::Ipp => SynthesisVariant::Ipp,
    });
    let mut hybrid = HybridFilter::new(match kernels.hybrid {
        KernelVariant::Reference => HybridVariant::Reference,
        _ => HybridVariant::Fixed,
    });
    let stereo_variant = match kernels.stereo {
        KernelVariant::Reference => StereoVariant::Reference,
        _ => StereoVariant::Fixed,
    };
    let antialias_variant = match kernels.antialias {
        KernelVariant::Reference => AntialiasVariant::Reference,
        _ => AntialiasVariant::Fixed,
    };
    let imdct_kernel: ImdctKernel = match kernels.imdct {
        KernelVariant::Reference => imdct::imdct_reference,
        KernelVariant::Fixed => imdct::imdct_fixed,
        KernelVariant::Ipp => imdct::imdct_ipp,
    };

    let mut times = [Duration::ZERO; 7];
    let mut pcm = Vec::new();
    for granule in frames.iter().flat_map(|f| &f.granules) {
        let t = Instant::now();
        let encoded = huffman::encode(&granule.quantized, &table);
        let mut ops = OpCounts::new();
        let quantized = huffman::decode(&encoded, SAMPLES_PER_GRANULE, &table, &mut ops)
            .expect("self-generated stream is always decodable");
        times[0] += t.elapsed();

        let t = Instant::now();
        let requantized = Granule {
            quantized,
            ..granule.clone()
        };
        let mut ops = OpCounts::new();
        let mut spectrum = match kernels.dequantize {
            KernelVariant::Reference => dequant::dequantize_reference(&requantized, &mut ops),
            KernelVariant::Fixed => dequant::dequantize_fixed(&requantized, &pow43, &mut ops),
            KernelVariant::Ipp => dequant::dequantize_ipp(&requantized, &pow43, &mut ops),
        };
        times[1] += t.elapsed();

        let t = Instant::now();
        let mut ops = OpCounts::new();
        let mut left = stereo::process(&mut spectrum, granule.mid_side, stereo_variant, &mut ops);
        times[2] += t.elapsed();

        let t = Instant::now();
        let mut ops = OpCounts::new();
        antialias::process(&mut left, antialias_variant, &mut ops);
        times[3] += t.elapsed();

        let t = Instant::now();
        let mut ops = OpCounts::new();
        let blocks = imdct::imdct_granule(&left, imdct_kernel, &mut ops);
        times[4] += t.elapsed();

        let t = Instant::now();
        let mut ops = OpCounts::new();
        let slots = hybrid.process(&blocks, &mut ops);
        times[5] += t.elapsed();

        let t = Instant::now();
        let mut ops = OpCounts::new();
        for slot in &slots {
            pcm.extend(synthesis.process(slot, &mut ops));
        }
        times[6] += t.elapsed();
    }
    (pcm, times)
}

#[cfg(test)]
mod tests {
    use super::*;
    use symmap_bench::table6_versions;
    use symmap_mp3::decoder::Decoder;
    use symmap_mp3::frame::FrameGenerator;
    use symmap_platform::machine::Badge4;
    use symmap_platform::profiler::Profiler;

    #[test]
    fn replay_pcm_is_bit_identical_to_decode_stream_for_every_table6_kernel_set() {
        let versions = table6_versions(&Badge4::new(), 1);
        assert_eq!(versions.len(), 7);
        let frames = FrameGenerator::new(7).stream(3);
        for v in &versions {
            let expected = Decoder::new(v.kernels).decode_stream(&frames, &Profiler::new());
            let (pcm, times) = replay_stream(v.kernels, &frames);
            assert_eq!(pcm.len(), expected.len(), "{}", v.name);
            assert!(
                pcm.iter()
                    .zip(&expected)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "replay PCM differs from decode_stream for {}",
                v.name
            );
            assert!(times.iter().any(|t| !t.is_zero()));
        }
    }
}
