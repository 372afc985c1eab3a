//! Renderers for the paper's tables and figures, plus the batch engine's
//! run report.

use symmap_libchar::catalog::{self, names};
use symmap_mp3::imdct;
use symmap_platform::machine::Badge4;

use crate::pipeline::CodeVersion;

/// Table 1 — sample complex library elements: execution time and ratio for
/// the float / fixed / IPP versions of SubBandSynthesis and IMDCT.
pub fn render_table1(badge: &Badge4) -> String {
    let full = catalog::full_catalog(badge);
    let rows = [
        ("float SubBandSyn", names::FLOAT_SUBBAND),
        ("fixed SubBandSyn", names::FIXED_SUBBAND),
        ("IPP SubBandSyn", names::IPP_SUBBAND),
        ("float IMDCT", names::FLOAT_IMDCT),
        ("fixed IMDCT", names::FIXED_IMDCT),
        ("IPP IMDCT", names::IPP_IMDCT),
    ];
    let seconds = |name: &str| {
        full.element(name)
            .map(|e| {
                badge
                    .operating_point()
                    .seconds_for(e.cycles() * catalog::invocations_per_frame(name))
            })
            .unwrap_or(0.0)
    };
    let float_subband = seconds(names::FLOAT_SUBBAND);
    let float_imdct = seconds(names::FLOAT_IMDCT);
    let mut out = String::from("Table 1. Sample Complex Library Elements\n");
    out.push_str(&format!(
        "{:<22} {:>16} {:>22}\n",
        "Library Element", "Execution time", "Execution time ratio"
    ));
    for (label, name) in rows {
        let s = seconds(name);
        let baseline = if label.contains("SubBand") {
            float_subband
        } else {
            float_imdct
        };
        let ratio = if s > 0.0 { baseline / s } else { 0.0 };
        out.push_str(&format!("{:<22} {:>16.6} {:>22.0}\n", label, s, ratio));
    }
    out
}

/// Equation 1 — the polynomial representation of the IMDCT (first output of
/// the 36-point transform, truncated for readability).
pub fn render_eq1() -> String {
    let poly = imdct::imdct_polynomial(0, 36);
    let shown: Vec<String> = poly
        .iter()
        .take(4)
        .map(|(m, c)| format!("({:.4})*{}", c.to_f64(), m))
        .collect();
    format!(
        "Equation 1 (IMDCT as a first-order polynomial, n = 36):\n  x0 = {} + ... ({} linear terms in y0..y17)\n",
        shown.join(" + "),
        poly.num_terms()
    )
}

/// Figure 1 — the Badge4 architecture inventory.
pub fn render_figure1(badge: &Badge4) -> String {
    format!(
        "Figure 1. SmartBadge/Badge4 architecture\n{}",
        badge.describe()
    )
}

/// The §3.3 Maple examples: factor/expand, Horner and simplify, reproduced by
/// the in-crate algebra engine.
pub fn render_maple_examples() -> String {
    use symmap_algebra::factor::factor;
    use symmap_algebra::horner::horner_form;
    use symmap_algebra::poly::Poly;
    use symmap_algebra::simplify::{simplify_modulo, SideRelations};
    use symmap_algebra::var::Var;

    let mut out = String::from("Section 3.3 symbolic manipulation examples\n");
    let p = Poly::parse("x^2*(x^14 + x^15 + 1)").expect("valid");
    out.push_str(&format!("  expand(x^2*(x^14+x^15+1)) = {p}\n"));
    out.push_str(&format!("  factor(...)               = {}\n", factor(&p)));

    let s = Poly::parse("y^2*x + y*x^2 + 4*x*y + x^2 + 2*x").expect("valid");
    let h = horner_form(&s, &[Var::new("x"), Var::new("y")]);
    out.push_str(&format!("  convert(S, 'horner', [x,y]) = {h}\n"));

    let target = Poly::parse("x + x^3*y^2 - 2*x*y^3").expect("valid");
    let mut sr = SideRelations::new();
    sr.push("p", Poly::parse("x^2 - 2*y").expect("valid"))
        .expect("fresh symbol");
    let simplified = simplify_modulo(&target, &sr, &["x", "y", "p"]).expect("simplify");
    out.push_str(&format!(
        "  simplify(S, {{p = x^2 - 2*y}}, [x,y,p]) = {simplified}\n"
    ));
    out
}

/// Tables 3–5 — a per-frame profile in the paper's format.
pub fn render_profile(title: &str, version: &CodeVersion) -> String {
    version.frame_profile.render(title)
}

/// Table 6 — performance and energy for every measured code version, with
/// improvement factors relative to the first (original) version.
pub fn render_table6(versions: &[CodeVersion]) -> String {
    let mut out = String::from("Table 6. Performance and Energy for MP3 library mapping\n");
    out.push_str(&format!(
        "{:<28} {:>10} {:>8} {:>12} {:>8}\n",
        "Code version", "Perf (s)", "Factor", "Energy (J)", "Factor"
    ));
    let Some(baseline) = versions.first() else {
        return out;
    };
    for v in versions {
        out.push_str(&format!(
            "{:<28} {:>10.2} {:>8.1} {:>12.2} {:>8.1}\n",
            v.name,
            v.stream_seconds,
            v.perf_factor_vs(baseline),
            v.stream_energy_j,
            v.energy_factor_vs(baseline)
        ));
    }
    out
}

/// The DVFS headroom argument of §4/§5: how much faster than real time the
/// decoder runs and how much additional energy scaling recovers.
pub fn render_dvfs(version: &CodeVersion, frames: usize, badge: &Badge4) -> String {
    let headroom = version.real_time_headroom(frames);
    let cycles_per_frame = version.frame_profile.total_cycles();
    let deadline = symmap_mp3::types::frame_duration_s();
    let saving = badge
        .dvfs()
        .energy_saving_factor(cycles_per_frame, deadline);
    format!(
        "DVFS headroom for `{}`: {:.2}x faster than real time; \
         running at the slowest deadline-meeting operating point saves a further {:.2}x energy\n",
        version.name, headroom, saving
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use symmap_libchar::catalog::full_catalog;
    use symmap_mp3::decoder::KernelSet;

    use crate::pipeline::OptimizationPipeline;

    fn quick_version(name: &str, kernels: KernelSet) -> CodeVersion {
        let badge = Badge4::new();
        OptimizationPipeline::new(badge.clone(), full_catalog(&badge))
            .with_stream_frames(1)
            .measure(name, kernels)
    }

    #[test]
    fn table1_contains_all_six_rows_and_ordering() {
        let t = render_table1(&Badge4::new());
        for label in [
            "float SubBandSyn",
            "fixed SubBandSyn",
            "IPP SubBandSyn",
            "float IMDCT",
            "fixed IMDCT",
            "IPP IMDCT",
        ] {
            assert!(t.contains(label), "missing {label} in\n{t}");
        }
        assert!(t.contains("Execution time ratio"));
    }

    #[test]
    fn eq1_and_figure1_render() {
        assert!(render_eq1().contains("x0 ="));
        let fig = render_figure1(&Badge4::new());
        assert!(fig.contains("SA-1110"));
    }

    #[test]
    fn maple_examples_match_paper() {
        let s = render_maple_examples();
        assert!(s.contains("x^17"));
        assert!(s.contains("horner"));
        // The simplify example's answer from the paper.
        assert!(s.contains("x*y^2*p") || s.contains("y^2*x*p"), "{s}");
    }

    #[test]
    fn profile_and_table6_render() {
        let original = quick_version("Original", KernelSet::reference());
        let optimized = quick_version("IH + IPP SubBand & IMDCT", KernelSet::in_house_with_ipp());
        let t3 = render_profile("Table 3. Original MP3 Profile", &original);
        assert!(t3.contains("III_dequantize_sample"));
        let t6 = render_table6(&[original.clone(), optimized]);
        assert!(t6.contains("Original"));
        assert!(t6.contains("IH + IPP"));
        assert!(render_table6(&[]).contains("Table 6"));
        let dvfs = render_dvfs(&original, 1, &Badge4::new());
        assert!(dvfs.contains("real time"));
    }
}
