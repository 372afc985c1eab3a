//! The characterized libraries of the paper's evaluation.
//!
//! Four catalogs are provided:
//!
//! * [`reference_library`] — the floating-point kernels of the standards-body
//!   code (the "float" rows of Table 1); these are what the original program
//!   already contains,
//! * [`linux_math_library`] — the Linux math library ("LM"): `exp`, `log`,
//!   `pow` as double-precision software-float routines,
//! * [`in_house_library`] — the in-house fixed-point routines ("IH"),
//! * [`ipp_library`] — the Intel IPP-style hand-optimized routines ("IPP"),
//!
//! plus [`log_library`] — the four `log` implementations of the paper's
//! motivating example (§1).
//!
//! Element costs are *measured* by running the corresponding workload kernels
//! against the Badge4 model (per frame for the complex elements, per call for
//! the scalar ones), exactly as §3.1 prescribes; polynomial representations
//! come from the kernel modules (Equation 1 for the IMDCT, the matrixing form
//! for subband synthesis, truncated series for the transcendentals).

use symmap_algebra::poly::Poly;
use symmap_mp3::types::{GRANULES_PER_FRAME, LINES_PER_SUBBAND, SUBBANDS};
use symmap_mp3::{dequant, frame::FrameGenerator, imdct, synthesis};
use symmap_numeric::series::{taylor_rational, Function};
use symmap_platform::cost::OpCounts;
use symmap_platform::machine::Badge4;

use crate::characterize::Characterizer;
use crate::element::{LibraryElement, LibrarySource, NumericFormat};
use crate::library::Library;

/// Canonical element names, used by the optimization pipeline to translate a
/// mapping solution into a kernel selection.
pub mod names {
    /// Floating-point subband synthesis (standards-body code).
    pub const FLOAT_SUBBAND: &str = "float_subband_synthesis";
    /// In-house fixed-point subband synthesis.
    pub const FIXED_SUBBAND: &str = "fixed_subband_synthesis";
    /// IPP subband synthesis (`ippsSynthPQMF_MP3_32s16s`).
    pub const IPP_SUBBAND: &str = "ipp_subband_synthesis";
    /// Floating-point IMDCT (standards-body code).
    pub const FLOAT_IMDCT: &str = "float_imdct";
    /// In-house fixed-point IMDCT.
    pub const FIXED_IMDCT: &str = "fixed_imdct";
    /// IPP IMDCT (`IppsMDCTInv_MP3_32s`).
    pub const IPP_IMDCT: &str = "ipp_imdct";
    /// Reference dequantizer built on math-library `pow`.
    pub const FLOAT_DEQUANT: &str = "float_dequantize_sample";
    /// In-house fixed-point dequantizer (table driven).
    pub const FIXED_DEQUANT: &str = "fixed_dequantize_sample";
    /// IPP-style dequantizer.
    pub const IPP_DEQUANT: &str = "ipp_dequantize_sample";
    /// Floating-point mid/side stereo butterfly.
    pub const FLOAT_STEREO: &str = "float_stereo_butterfly";
    /// Fixed-point mid/side stereo butterfly.
    pub const FIXED_STEREO: &str = "fixed_stereo_butterfly";
    /// Floating-point antialias butterfly.
    pub const FLOAT_ANTIALIAS: &str = "float_antialias_butterfly";
    /// Fixed-point antialias butterfly.
    pub const FIXED_ANTIALIAS: &str = "fixed_antialias_butterfly";
    /// Floating-point hybrid overlap-add.
    pub const FLOAT_HYBRID: &str = "float_hybrid_overlap";
    /// Fixed-point hybrid overlap-add.
    pub const FIXED_HYBRID: &str = "fixed_hybrid_overlap";
}

fn series_poly(f: Function, terms: usize, var: &str) -> Poly {
    let coeffs = taylor_rational(f, terms, 1 << 20);
    let mut p = Poly::zero();
    for (k, c) in coeffs.into_iter().enumerate() {
        if c.is_zero() {
            continue;
        }
        p = p.add(&Poly::from_term(
            symmap_algebra::monomial::Monomial::var(symmap_algebra::var::Var::new(var), k as u32),
            c,
        ));
    }
    p
}

/// Polynomial representation used for every dequantizer variant: the
/// truncated binomial series of `(1 + q)^(4/3)` — the nonlinear requantization
/// exponent handled by series expansion in target-code identification.
pub fn dequantizer_polynomial() -> Poly {
    series_poly(Function::Pow43, 5, "q")
}

/// Polynomial representation of the stereo butterfly `l = (m + s)/√2`.
pub fn stereo_polynomial() -> Poly {
    let inv_sqrt2 =
        symmap_numeric::Rational::approximate_f64(std::f64::consts::FRAC_1_SQRT_2, 1 << 20)
            .expect("finite");
    Poly::parse("m + s").expect("valid").scale(&inv_sqrt2)
}

/// Polynomial representation of the antialias butterfly `a*cs - b*ca`.
pub fn antialias_polynomial() -> Poly {
    Poly::parse("a*cs - b*ca").expect("valid")
}

/// Polynomial representation of the hybrid overlap-add `ts + ov` (current
/// IMDCT output sample plus the previous granule's overlap value).
pub fn hybrid_polynomial() -> Poly {
    Poly::parse("ts + ov").expect("valid")
}

/// Per-frame operation counts of one subband-synthesis variant.
fn subband_frame_ops(variant: synthesis::SynthesisVariant) -> OpCounts {
    let mut filter = synthesis::PolyphaseSynthesis::new(variant);
    let bands: Vec<f64> = (0..SUBBANDS)
        .map(|k| 0.3 * ((k as f64) * 0.2).cos())
        .collect();
    let mut ops = OpCounts::new();
    for _ in 0..LINES_PER_SUBBAND * GRANULES_PER_FRAME {
        filter.process(&bands, &mut ops);
    }
    ops
}

/// Per-frame operation counts of one IMDCT variant.
fn imdct_frame_ops(kernel: fn(&[f64], &mut OpCounts) -> Vec<f64>) -> OpCounts {
    let input: Vec<f64> = (0..LINES_PER_SUBBAND)
        .map(|k| ((k as f64) * 0.5).sin())
        .collect();
    let mut ops = OpCounts::new();
    for _ in 0..SUBBANDS * GRANULES_PER_FRAME {
        kernel(&input, &mut ops);
    }
    ops
}

/// Per-frame operation counts of one dequantizer variant.
fn dequant_frame_ops(variant: &str) -> OpCounts {
    let granule = FrameGenerator::new(1).frame().granules[0].clone();
    let table = dequant::pow43_table();
    let mut ops = OpCounts::new();
    for _ in 0..GRANULES_PER_FRAME {
        match variant {
            "float" => {
                dequant::dequantize_reference(&granule, &mut ops);
            }
            "fixed" => {
                dequant::dequantize_fixed(&granule, &table, &mut ops);
            }
            _ => {
                dequant::dequantize_ipp(&granule, &table, &mut ops);
            }
        }
    }
    ops
}

/// How many times the polynomial representation of an element is evaluated
/// while decoding one frame — used to convert between per-invocation element
/// costs (what the mapper compares) and per-frame execution times (what the
/// paper's Table 1 and Tables 3–5 report).
pub fn invocations_per_frame(element_name: &str) -> u64 {
    use symmap_mp3::types::{GRANULES_PER_FRAME, SAMPLES_PER_GRANULE};
    let per_granule = if element_name.ends_with("subband_synthesis") {
        // One matrixing output: 64 outputs per slot, 18 slots.
        (super::catalog::MATRIX_OUTPUTS * LINES_PER_SUBBAND) as u64
    } else if element_name.ends_with("imdct") {
        // One IMDCT output sample: 36 outputs per subband block, 32 blocks.
        (36 * SUBBANDS) as u64
    } else if element_name.contains("dequantize")
        || element_name.contains("stereo")
        || element_name.contains("hybrid")
    {
        SAMPLES_PER_GRANULE as u64
    } else if element_name.contains("antialias") {
        (8 * (SUBBANDS - 1)) as u64
    } else {
        1
    };
    per_granule * GRANULES_PER_FRAME as u64
}

/// Matrixing outputs per synthesis time slot (re-exported for
/// [`invocations_per_frame`]).
pub const MATRIX_OUTPUTS: usize = 64;

#[allow(clippy::too_many_arguments)] // one argument per Table 1 column
fn characterized(
    characterizer: &Characterizer,
    name: &str,
    symbol: &str,
    poly: Poly,
    ops: OpCounts,
    accuracy: f64,
    format: NumericFormat,
    source: LibrarySource,
) -> LibraryElement {
    let mut e = LibraryElement::builder(name, symbol)
        .polynomial(poly)
        .accuracy(accuracy)
        .format(format)
        .source(source)
        .build()
        .expect("polynomial provided");
    // Per-frame kernel measurements are attributed to a single invocation of
    // the element's polynomial, so the mapper compares like with like.
    let per_invocation = ops.divided(invocations_per_frame(name));
    characterizer.characterize(&mut e, |out| out.merge(&per_invocation));
    e
}

/// The floating-point kernels already present in the standards-body code.
pub fn reference_library(badge: &Badge4) -> Library {
    let c = Characterizer::new(badge.clone());
    let mut lib = Library::new("reference-float");
    lib.push(characterized(
        &c,
        names::FLOAT_SUBBAND,
        "sbs",
        synthesis::synthesis_polynomial(0),
        subband_frame_ops(synthesis::SynthesisVariant::Reference),
        1e-15,
        NumericFormat::Double,
        LibrarySource::LinuxMath,
    ));
    lib.push(characterized(
        &c,
        names::FLOAT_IMDCT,
        "md",
        imdct::imdct_polynomial(0, 36),
        imdct_frame_ops(imdct::imdct_reference),
        1e-15,
        NumericFormat::Double,
        LibrarySource::LinuxMath,
    ));
    lib.push(characterized(
        &c,
        names::FLOAT_DEQUANT,
        "dq",
        dequantizer_polynomial(),
        dequant_frame_ops("float"),
        1e-15,
        NumericFormat::Double,
        LibrarySource::LinuxMath,
    ));
    let small = |name: &str, symbol: &str, poly: Poly, float_ops: u64| {
        let mut ops = OpCounts::new();
        ops.add(
            symmap_platform::cost::InstructionClass::FloatMulSoft,
            float_ops,
        );
        ops.add(
            symmap_platform::cost::InstructionClass::FloatAddSoft,
            float_ops,
        );
        characterized(
            &c,
            name,
            symbol,
            poly,
            ops,
            1e-15,
            NumericFormat::Double,
            LibrarySource::LinuxMath,
        )
    };
    lib.push(small(names::FLOAT_STEREO, "st", stereo_polynomial(), 2));
    lib.push(small(
        names::FLOAT_ANTIALIAS,
        "aa",
        antialias_polynomial(),
        2,
    ));
    lib.push(small(names::FLOAT_HYBRID, "hy", hybrid_polynomial(), 1));
    lib
}

/// The Linux math library ("LM"): double-precision transcendentals.
pub fn linux_math_library(badge: &Badge4) -> Library {
    let c = Characterizer::new(badge.clone());
    let mut lib = Library::new("linux-math");
    let libm = |name: &str, symbol: &str, f: Function| {
        let mut ops = OpCounts::new();
        ops.add(symmap_platform::cost::InstructionClass::LibmCall, 1);
        characterized(
            &c,
            name,
            symbol,
            series_poly(f, 6, "x"),
            ops,
            1e-15,
            NumericFormat::Double,
            LibrarySource::LinuxMath,
        )
    };
    lib.push(libm("libm_exp", "e_x", Function::Exp));
    lib.push(libm("libm_log1p", "ln_x", Function::Ln1p));
    lib.push(libm("libm_sqrt1p", "sq_x", Function::Sqrt1p));
    lib.push(libm("libm_pow43", "pw_x", Function::Pow43));
    lib
}

/// The in-house fixed-point library ("IH").
pub fn in_house_library(badge: &Badge4) -> Library {
    let c = Characterizer::new(badge.clone());
    let mut lib = Library::new("in-house-fixed");
    lib.push(characterized(
        &c,
        names::FIXED_SUBBAND,
        "sbs",
        synthesis::synthesis_polynomial(0),
        subband_frame_ops(synthesis::SynthesisVariant::Fixed),
        2e-7,
        NumericFormat::Fixed(1, 30),
        LibrarySource::InHouse,
    ));
    lib.push(characterized(
        &c,
        names::FIXED_IMDCT,
        "md",
        imdct::imdct_polynomial(0, 36),
        imdct_frame_ops(imdct::imdct_fixed),
        2e-7,
        NumericFormat::Fixed(8, 23),
        LibrarySource::InHouse,
    ));
    lib.push(characterized(
        &c,
        names::FIXED_DEQUANT,
        "dq",
        dequantizer_polynomial(),
        dequant_frame_ops("fixed"),
        1e-6,
        NumericFormat::Fixed(16, 15),
        LibrarySource::InHouse,
    ));
    let small = |name: &str, symbol: &str, poly: Poly, int_ops: u64| {
        let mut ops = OpCounts::new();
        ops.add(symmap_platform::cost::InstructionClass::IntMac, int_ops);
        characterized(
            &c,
            name,
            symbol,
            poly,
            ops,
            1e-6,
            NumericFormat::Fixed(16, 15),
            LibrarySource::InHouse,
        )
    };
    lib.push(small(names::FIXED_STEREO, "st", stereo_polynomial(), 2));
    lib.push(small(
        names::FIXED_ANTIALIAS,
        "aa",
        antialias_polynomial(),
        2,
    ));
    lib.push(small(names::FIXED_HYBRID, "hy", hybrid_polynomial(), 1));
    // Scalar fixed-point replacements for the LM transcendentals.
    lib.push(small(
        "fixed_exp",
        "e_x",
        series_poly(Function::Exp, 6, "x"),
        12,
    ));
    lib.push(small(
        "fixed_log1p",
        "ln_x",
        series_poly(Function::Ln1p, 6, "x"),
        12,
    ));
    lib.push(small(
        "fixed_pow43_table",
        "pw_x",
        series_poly(Function::Pow43, 5, "x"),
        4,
    ));
    lib
}

/// The Intel IPP-style library ("IPP").
pub fn ipp_library(badge: &Badge4) -> Library {
    let c = Characterizer::new(badge.clone());
    let mut lib = Library::new("intel-ipp");
    lib.push(characterized(
        &c,
        names::IPP_SUBBAND,
        "sbs",
        synthesis::synthesis_polynomial(0),
        subband_frame_ops(synthesis::SynthesisVariant::Ipp),
        3e-7,
        NumericFormat::Fixed(1, 30),
        LibrarySource::Ipp,
    ));
    lib.push(characterized(
        &c,
        names::IPP_IMDCT,
        "md",
        imdct::imdct_polynomial(0, 36),
        imdct_frame_ops(imdct::imdct_ipp),
        3e-7,
        NumericFormat::Fixed(1, 30),
        LibrarySource::Ipp,
    ));
    lib.push(characterized(
        &c,
        names::IPP_DEQUANT,
        "dq",
        dequantizer_polynomial(),
        dequant_frame_ops("ipp"),
        1e-6,
        NumericFormat::Fixed(16, 15),
        LibrarySource::Ipp,
    ));
    lib
}

/// The four `log` implementations of the paper's §1 motivating example.
pub fn log_library(badge: &Badge4) -> Library {
    let c = Characterizer::new(badge.clone());
    let poly = series_poly(Function::Ln1p, 6, "x");
    let mut lib = Library::new("log-example");
    let entry = |name: &str,
                 cycles_class: (symmap_platform::cost::InstructionClass, u64),
                 accuracy,
                 format,
                 source| {
        let mut ops = OpCounts::new();
        ops.add(cycles_class.0, cycles_class.1);
        characterized(&c, name, "lg", poly.clone(), ops, accuracy, format, source)
    };
    use symmap_platform::cost::InstructionClass::*;
    lib.push(entry(
        "log_double",
        (LibmCall, 1),
        1e-15,
        NumericFormat::Double,
        LibrarySource::LinuxMath,
    ));
    lib.push(entry(
        "log_float",
        (FloatMulSoft, 22),
        1e-7,
        NumericFormat::Single,
        LibrarySource::LinuxMath,
    ));
    lib.push(entry(
        "log_fixed_bitmanip",
        (IntAlu, 28),
        3e-3,
        NumericFormat::Fixed(16, 15),
        LibrarySource::InHouse,
    ));
    lib.push(entry(
        "log_fixed_poly",
        (IntMac, 14),
        2e-5,
        NumericFormat::Fixed(16, 15),
        LibrarySource::InHouse,
    ));
    lib
}

/// The union of the reference, LM, IH and IPP libraries — everything the
/// mapper may draw from in the paper's final configuration.
pub fn full_catalog(badge: &Badge4) -> Library {
    Library::union(
        "full-catalog",
        &[
            &reference_library(badge),
            &linux_math_library(badge),
            &in_house_library(badge),
            &ipp_library(badge),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_ordering_float_fixed_ipp() {
        let badge = Badge4::new();
        let float = reference_library(&badge);
        let fixed = in_house_library(&badge);
        let ipp = ipp_library(&badge);
        // SubBand Synthesis: float ≫ fixed > ipp (Table 1 ratios 1 / 92 / 479).
        let f = float.element(names::FLOAT_SUBBAND).unwrap().cycles();
        let x = fixed.element(names::FIXED_SUBBAND).unwrap().cycles();
        let i = ipp.element(names::IPP_SUBBAND).unwrap().cycles();
        assert!(f > 20 * x, "float {f} vs fixed {x}");
        assert!(x > i, "fixed {x} vs ipp {i}");
        // IMDCT: same ordering, with IPP relatively even faster (1 / 27 / 1898).
        let f = float.element(names::FLOAT_IMDCT).unwrap().cycles();
        let x = fixed.element(names::FIXED_IMDCT).unwrap().cycles();
        let i = ipp.element(names::IPP_IMDCT).unwrap().cycles();
        assert!(f > 10 * x);
        assert!(x > 2 * i);
    }

    #[test]
    fn log_library_has_four_implementations_with_tradeoffs() {
        let badge = Badge4::new();
        let lib = log_library(&badge);
        assert_eq!(lib.len(), 4);
        let double = lib.element("log_double").unwrap();
        let bitmanip = lib.element("log_fixed_bitmanip").unwrap();
        let fixed_poly = lib.element("log_fixed_poly").unwrap();
        // Fastest implementation is the least accurate and vice versa.
        assert!(double.cycles() > 50 * bitmanip.cycles());
        assert!(double.accuracy() < bitmanip.accuracy());
        assert!(fixed_poly.accuracy() < bitmanip.accuracy());
        assert!(fixed_poly.cycles() > bitmanip.cycles());
    }

    #[test]
    fn catalogs_have_expected_sizes_and_sources() {
        let badge = Badge4::new();
        assert_eq!(linux_math_library(&badge).len(), 4);
        assert_eq!(ipp_library(&badge).len(), 3);
        assert!(in_house_library(&badge).len() >= 9);
        let full = full_catalog(&badge);
        assert!(full.len() >= 19);
        for source in [
            LibrarySource::Ipp,
            LibrarySource::LinuxMath,
            LibrarySource::InHouse,
        ] {
            assert!(full.iter().any(|e| e.source() == source), "{source:?}");
        }
    }

    #[test]
    fn polynomials_are_nontrivial() {
        assert_eq!(
            dequantizer_polynomial().degree_in(symmap_algebra::var::Var::new("q")),
            4
        );
        assert_eq!(stereo_polynomial().num_terms(), 2);
        assert_eq!(antialias_polynomial().num_terms(), 2);
        let badge = Badge4::new();
        let ih = in_house_library(&badge);
        assert_eq!(
            ih.element(names::FIXED_IMDCT)
                .unwrap()
                .polynomial()
                .num_terms(),
            18
        );
        assert_eq!(
            ih.element(names::FIXED_SUBBAND)
                .unwrap()
                .polynomial()
                .num_terms(),
            32
        );
    }
}
