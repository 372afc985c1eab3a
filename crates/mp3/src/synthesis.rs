//! Polyphase subband synthesis filterbank
//! (`SubBandSynthesis` / `ippsSynthPQMF_MP3_32s16s`).
//!
//! For each of the 18 time slots of a granule, 32 subband samples are
//! matrixed through a 64×32 cosine matrix into a shift register of 1024
//! values, which is then windowed with the 512-tap `D` window to produce 32
//! PCM samples. This is the second dominant function of the original profile
//! (36.6% in Table 3) and the function where the IPP routine buys the largest
//! single win (Table 5).
//!
//! Variants:
//!
//! * [`SynthesisVariant::Reference`] — naive 64×32 matrixing in double
//!   precision (ISO style),
//! * [`SynthesisVariant::Fixed`] — in-house fixed point using a fast 32-point
//!   DCT for the matrixing,
//! * [`SynthesisVariant::Ipp`] — IPP-style fixed point: fast DCT, SRAM-resident
//!   tables, unrolled windowing.

use symmap_algebra::poly::Poly;
use symmap_algebra::var::Var;
use symmap_numeric::Rational;
use symmap_platform::cost::{InstructionClass, OpCounts};
use symmap_platform::memory::MemoryRegion;

use crate::types::SUBBANDS;

/// Size of the matrixing output per time slot.
pub const MATRIX_OUT: usize = 64;
/// Length of the synthesis shift register.
pub const FIFO_LEN: usize = 1024;
/// Length of the synthesis window.
pub const WINDOW_LEN: usize = 512;

/// Which implementation of the synthesis filterbank to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SynthesisVariant {
    /// Naive double-precision matrixing (ISO reference style).
    Reference,
    /// In-house fixed point with a fast DCT-32.
    Fixed,
    /// IPP-style hand-optimized fixed point.
    Ipp,
}

/// The synthesis matrixing coefficient `N[i][k] = cos((16 + i)(2k + 1)π/64)`.
pub fn matrix_coefficient(i: usize, k: usize) -> f64 {
    ((16 + i) as f64 * (2 * k + 1) as f64 * std::f64::consts::PI / 64.0).cos()
}

/// The 512-tap synthesis window (a smooth approximation of the standard's `D`
/// window: a windowed sinc normalized to unity gain).
pub fn synthesis_window() -> Vec<f64> {
    (0..WINDOW_LEN)
        .map(|i| {
            let t = (i as f64 - 256.0) / 64.0;
            let sinc = if t.abs() < 1e-12 {
                1.0
            } else {
                (std::f64::consts::PI * t).sin() / (std::f64::consts::PI * t)
            };
            let hann = 0.5
                * (1.0
                    + (std::f64::consts::PI * i as f64 / WINDOW_LEN as f64 * 2.0
                        - std::f64::consts::PI)
                        .cos());
            sinc * hann / SUBBANDS as f64
        })
        .collect()
}

/// Stateful polyphase synthesis filter (the 1024-entry FIFO persists across
/// time slots, as in the standard).
#[derive(Debug, Clone)]
pub struct PolyphaseSynthesis {
    variant: SynthesisVariant,
    fifo: Vec<f64>,
    window: Vec<f64>,
}

impl PolyphaseSynthesis {
    /// Creates a filter with an empty FIFO.
    pub fn new(variant: SynthesisVariant) -> Self {
        PolyphaseSynthesis {
            variant,
            fifo: vec![0.0; FIFO_LEN],
            window: synthesis_window(),
        }
    }

    /// The configured variant.
    pub fn variant(&self) -> SynthesisVariant {
        self.variant
    }

    /// Processes one time slot of 32 subband samples into 32 PCM samples,
    /// charging the variant's operation counts to `ops`.
    ///
    /// # Panics
    ///
    /// Panics if `bands.len() != 32`.
    pub fn process(&mut self, bands: &[f64], ops: &mut OpCounts) -> Vec<f64> {
        assert_eq!(
            bands.len(),
            SUBBANDS,
            "synthesis expects 32 subband samples"
        );
        let quantize = self.variant != SynthesisVariant::Reference;

        // 1. Matrixing: 64 outputs from 32 inputs.
        let mut v = vec![0.0_f64; MATRIX_OUT];
        for (i, vi) in v.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (k, &s) in bands.iter().enumerate() {
                let c = matrix_coefficient(i, k);
                let (cq, sq) = if quantize { (q31(c), q31(s)) } else { (c, s) };
                acc += cq * sq;
            }
            *vi = if quantize { q31(acc) } else { acc };
        }
        self.charge_matrixing(ops);

        // 2. Shift the FIFO by 64 and insert the new block.
        self.fifo.rotate_right(MATRIX_OUT);
        self.fifo[..MATRIX_OUT].copy_from_slice(&v);
        ops.add(InstructionClass::Load, MATRIX_OUT as u64);
        ops.add(InstructionClass::Store, MATRIX_OUT as u64);

        // 3. Windowing: 32 PCM samples, 16 taps each.
        let mut pcm = vec![0.0_f64; SUBBANDS];
        for (j, p) in pcm.iter_mut().enumerate() {
            let mut acc = 0.0;
            for tap in 0..16 {
                let fifo_index = (tap * 64 + ((tap % 2) * 32) + j) % FIFO_LEN;
                let w = self.window[(tap * 32 + j) % WINDOW_LEN];
                let (wq, fq) = if quantize {
                    (q31(w), q31(self.fifo[fifo_index]))
                } else {
                    (w, self.fifo[fifo_index])
                };
                acc += wq * fq;
            }
            *p = if quantize { q31(acc) } else { acc };
        }
        self.charge_windowing(ops);
        pcm
    }

    fn charge_matrixing(&self, ops: &mut OpCounts) {
        match self.variant {
            SynthesisVariant::Reference => {
                let macs = (MATRIX_OUT * SUBBANDS) as u64;
                ops.add(InstructionClass::FloatMulSoft, macs);
                ops.add(InstructionClass::FloatAddSoft, macs);
                ops.add(InstructionClass::Load, 2 * macs);
                ops.add_memory(MemoryRegion::Sdram, macs);
            }
            SynthesisVariant::Fixed => {
                // Fast DCT-32: ~80 multiplies and ~209 additions, then the
                // 64-point unfolding.
                ops.add(InstructionClass::IntMul, 80);
                ops.add(InstructionClass::IntAlu, 209 + MATRIX_OUT as u64);
                ops.add(InstructionClass::Load, 160);
                ops.add_memory(MemoryRegion::Sdram, 96);
            }
            SynthesisVariant::Ipp => {
                ops.add(InstructionClass::IntMac, 80);
                ops.add(InstructionClass::IntAlu, 120);
                ops.add(InstructionClass::Load, 100);
                ops.add_memory(MemoryRegion::Sram, 80);
            }
        }
    }

    fn charge_windowing(&self, ops: &mut OpCounts) {
        let macs = (SUBBANDS * 16) as u64;
        match self.variant {
            SynthesisVariant::Reference => {
                ops.add(InstructionClass::FloatMulSoft, macs);
                ops.add(InstructionClass::FloatAddSoft, macs);
                ops.add(InstructionClass::Load, 2 * macs);
                ops.add(InstructionClass::Store, SUBBANDS as u64);
                ops.add_memory(MemoryRegion::Sdram, macs);
            }
            SynthesisVariant::Fixed => {
                ops.add(InstructionClass::IntMac, macs);
                ops.add(InstructionClass::Load, macs);
                ops.add(InstructionClass::Store, SUBBANDS as u64);
                ops.add_memory(MemoryRegion::Sdram, macs / 2);
            }
            SynthesisVariant::Ipp => {
                ops.add(InstructionClass::IntMac, macs);
                ops.add(InstructionClass::Load, macs / 2);
                ops.add(InstructionClass::Store, SUBBANDS as u64);
                ops.add_memory(MemoryRegion::Sram, macs / 2);
            }
        }
    }
}

/// Rounds to the mantissa precision the 32-bit fixed-point kernels carry.
fn q31(v: f64) -> f64 {
    v as f32 as f64
}

/// Polynomial representation of matrixing output `i`: a linear form in the 32
/// subband inputs `s0..s31` (used for library characterization).
pub fn synthesis_polynomial(i: usize) -> Poly {
    let mut poly = Poly::zero();
    for k in 0..SUBBANDS {
        let c = Rational::approximate_f64(matrix_coefficient(i, k), 1 << 20).expect("finite");
        poly = poly.add(&Poly::from_term(
            symmap_algebra::monomial::Monomial::var(Var::new(&format!("s{k}")), 1),
            c,
        ));
    }
    poly
}

#[cfg(test)]
mod tests {
    use super::*;
    use symmap_algebra::horner::horner_form_auto;

    fn bands(scale: f64) -> Vec<f64> {
        (0..SUBBANDS)
            .map(|k| scale * ((k as f64) * 0.3).cos())
            .collect()
    }

    #[test]
    fn produces_32_pcm_samples_per_slot() {
        let mut f = PolyphaseSynthesis::new(SynthesisVariant::Reference);
        let mut ops = OpCounts::new();
        let pcm = f.process(&bands(0.5), &mut ops);
        assert_eq!(pcm.len(), SUBBANDS);
        assert!(ops.total() > 0);
    }

    #[test]
    fn variants_agree_within_quantization() {
        let mut reference = PolyphaseSynthesis::new(SynthesisVariant::Reference);
        let mut fixed = PolyphaseSynthesis::new(SynthesisVariant::Fixed);
        let mut ipp = PolyphaseSynthesis::new(SynthesisVariant::Ipp);
        let mut ops = OpCounts::new();
        for t in 0..8 {
            let b = bands(0.3 + 0.05 * t as f64);
            let r = reference.process(&b, &mut ops);
            let f = fixed.process(&b, &mut ops);
            let i = ipp.process(&b, &mut ops);
            for j in 0..SUBBANDS {
                assert!(
                    (r[j] - f[j]).abs() < 1e-5,
                    "fixed diverges at slot {t} sample {j}"
                );
                assert!(
                    (r[j] - i[j]).abs() < 1e-5,
                    "ipp diverges at slot {t} sample {j}"
                );
            }
        }
    }

    #[test]
    fn cost_ordering_matches_table_1() {
        let badge = symmap_platform::machine::Badge4::new();
        let cost = |variant| {
            let mut f = PolyphaseSynthesis::new(variant);
            let mut ops = OpCounts::new();
            for _ in 0..18 {
                f.process(&bands(0.4), &mut ops);
            }
            badge.cost_of(&ops).cycles
        };
        let c_ref = cost(SynthesisVariant::Reference);
        let c_fixed = cost(SynthesisVariant::Fixed);
        let c_ipp = cost(SynthesisVariant::Ipp);
        assert!(c_ref > 20 * c_fixed, "reference {c_ref} vs fixed {c_fixed}");
        assert!(c_fixed > c_ipp, "fixed {c_fixed} vs ipp {c_ipp}");
    }

    #[test]
    fn silence_in_silence_out() {
        let mut f = PolyphaseSynthesis::new(SynthesisVariant::Fixed);
        let mut ops = OpCounts::new();
        let pcm = f.process(&vec![0.0; SUBBANDS], &mut ops);
        assert!(pcm.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn fifo_state_carries_across_slots() {
        // The same input in slot 2 produces different output than in slot 1
        // because the FIFO still holds the previous block.
        let mut f = PolyphaseSynthesis::new(SynthesisVariant::Reference);
        let mut ops = OpCounts::new();
        let first = f.process(&bands(0.5), &mut ops);
        let second = f.process(&bands(0.5), &mut ops);
        assert_ne!(first, second);
    }

    #[test]
    #[should_panic(expected = "32 subband samples")]
    fn wrong_band_count_panics() {
        let mut f = PolyphaseSynthesis::new(SynthesisVariant::Reference);
        f.process(&[0.0; 8], &mut OpCounts::new());
    }

    #[test]
    fn polynomial_is_linear_in_subbands() {
        let p = synthesis_polynomial(7);
        assert_eq!(p.total_degree(), 1);
        assert_eq!(p.num_terms(), SUBBANDS);
        // Coefficient of s0 approximates the matrix coefficient.
        use std::collections::BTreeMap;
        let mut asn = BTreeMap::new();
        asn.insert(Var::new("s0"), 1.0);
        assert!(
            (p.eval_f64(&asn) - {
                let mut s = 0.0;
                for k in 0..SUBBANDS {
                    if k == 0 {
                        s += matrix_coefficient(7, 0);
                    }
                }
                s
            })
            .abs()
                < 1e-4
        );
    }

    #[test]
    fn window_is_bounded_and_normalized() {
        let w = synthesis_window();
        assert_eq!(w.len(), WINDOW_LEN);
        assert!(w.iter().all(|&v| v.abs() <= 1.0));
        assert!(w.iter().any(|&v| v.abs() > 1e-3));
    }

    #[test]
    fn horner_form_of_every_row_is_lossless() {
        // The mapper ranks candidates against the target itself, relying on
        // a Horner form never expanding to anything else.
        for i in 0..2 * SUBBANDS {
            let row = synthesis_polynomial(i);
            assert_eq!(horner_form_auto(&row).expand(), row, "row {i}");
        }
    }
}
