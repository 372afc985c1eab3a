//! Synthetic frame generation.
//!
//! The paper streams real MP3 files from a server over WLAN; the reproduction
//! substitutes a deterministic pseudo-random granule generator with a
//! realistic spectral envelope (most energy in the low subbands, sparse highs)
//! so that every arithmetic kernel sees full-range data. Frames are
//! Huffman-encoded into a byte stream and decoded back by the pipeline, so the
//! `III_hufman_decode` stage does real work.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::huffman::HuffmanTable;
use crate::types::{
    Frame, Granule, GRANULES_PER_FRAME, LINES_PER_SUBBAND, SAMPLES_PER_GRANULE, SUBBANDS,
};

/// Deterministic generator of synthetic frames.
#[derive(Debug)]
pub struct FrameGenerator {
    rng: StdRng,
    table: HuffmanTable,
    next_index: u32,
}

impl FrameGenerator {
    /// Creates a generator with a fixed seed (same seed ⇒ same stream).
    pub fn new(seed: u64) -> Self {
        FrameGenerator {
            rng: StdRng::seed_from_u64(seed),
            table: HuffmanTable::standard(),
            next_index: 0,
        }
    }

    /// Generates the next frame.
    pub fn frame(&mut self) -> Frame {
        let index = self.next_index;
        self.next_index += 1;
        let granules = (0..GRANULES_PER_FRAME).map(|_| self.granule()).collect();
        Frame { granules, index }
    }

    /// Generates a whole stream of `frames` frames.
    pub fn stream(&mut self, frames: usize) -> Vec<Frame> {
        (0..frames).map(|_| self.frame()).collect()
    }

    /// Generates one granule with a decaying spectral envelope.
    fn granule(&mut self) -> Granule {
        let mut quantized = vec![0_i32; SAMPLES_PER_GRANULE];
        for sb in 0..SUBBANDS {
            // Low subbands carry large values, high subbands are mostly zero.
            let amplitude = (400.0 * (-(sb as f64) / 6.0).exp()).max(1.0) as i32;
            let density = if sb < 8 {
                0.9
            } else if sb < 20 {
                0.5
            } else {
                0.1
            };
            for line in 0..LINES_PER_SUBBAND {
                if self.rng.gen::<f64>() < density {
                    let mag = self.rng.gen_range(0..=amplitude);
                    let sign = if self.rng.gen::<bool>() { 1 } else { -1 };
                    quantized[sb * LINES_PER_SUBBAND + line] = sign * mag;
                }
            }
        }
        let scalefactors = (0..SUBBANDS)
            .map(|sb| self.rng.gen_range(0..4) + (sb as i32 / 8))
            .collect();
        Granule {
            quantized,
            global_gain: self.rng.gen_range(-8..=8),
            scalefactors,
            mid_side: self.rng.gen_bool(0.5),
        }
    }

    /// The Huffman table shared by generator and decoder.
    pub fn table(&self) -> &HuffmanTable {
        &self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::huffman;
    use symmap_platform::cost::OpCounts;

    #[test]
    fn frames_are_deterministic_per_seed() {
        let a = FrameGenerator::new(42).frame();
        let b = FrameGenerator::new(42).frame();
        let c = FrameGenerator::new(43).frame();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn frame_indices_increment() {
        let mut gen = FrameGenerator::new(1);
        let s = gen.stream(3);
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].index, 0);
        assert_eq!(s[2].index, 2);
    }

    #[test]
    fn spectral_envelope_decays() {
        let mut gen = FrameGenerator::new(7);
        let frame = gen.frame();
        let g = &frame.granules[0];
        let low_energy: i64 = g.quantized[..144].iter().map(|&v| (v as i64).abs()).sum();
        let high_energy: i64 = g.quantized[432..].iter().map(|&v| (v as i64).abs()).sum();
        assert!(
            low_energy > 10 * high_energy.max(1),
            "low {low_energy} high {high_energy}"
        );
        assert!(g.quantized.iter().filter(|&&v| v != 0).count() > 100);
    }

    #[test]
    fn encoded_granule_decodes_back() {
        let mut gen = FrameGenerator::new(11);
        let frame = gen.frame();
        let g = &frame.granules[1];
        let bytes = huffman::encode(&g.quantized, gen.table());
        let mut ops = OpCounts::new();
        let decoded = huffman::decode(&bytes, SAMPLES_PER_GRANULE, gen.table(), &mut ops).unwrap();
        assert_eq!(decoded, g.quantized);
    }

    #[test]
    fn scalefactors_and_gain_in_range() {
        let mut gen = FrameGenerator::new(5);
        for _ in 0..4 {
            let f = gen.frame();
            for g in &f.granules {
                assert_eq!(g.scalefactors.len(), SUBBANDS);
                assert!(g.global_gain >= -8 && g.global_gain <= 8);
                assert!(g.scalefactors.iter().all(|&s| (0..8).contains(&s)));
            }
        }
    }
}
