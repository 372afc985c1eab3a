//! Goldens: the program's outputs captured at the commit that introduced
//! the benchmark, and the checks that count a run's failures against them.
//!
//! The goldens are compiled into the binary. `--capture-goldens` rewrites
//! the files under `golden/` from the current program; do that only when a
//! change is meant to alter the program's output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use symmap_algebra::groebner::GroebnerBasis;
use symmap_core::pipeline::CodeVersion;
use symmap_core::report;
use symmap_engine::{CoreError, MappingSolution};
use symmap_platform::machine::Badge4;

use crate::inputs::Ideal;
use crate::stats::digest;

/// File names under `golden/`.
pub const SWEEP_REPORT: &str = "sweep_report.txt";
/// Per-version digests of the sweep.
pub const SWEEP_VERSIONS: &str = "sweep_versions.tsv";
/// Per-library, per-kernel mapping digests.
pub const MAPPING: &str = "mapping.tsv";
/// Exact reduced bases of the Gröbner-growth ideals.
pub const GROEBNER: &str = "groebner.tsv";

/// The goldens compiled into this binary.
pub struct Goldens {
    /// The rendered sweep report.
    pub sweep_report: &'static str,
    /// Version name → digest of its row.
    pub sweep_versions: BTreeMap<String, String>,
    /// `(library, kernel label)` → outcome digest.
    pub mapping: BTreeMap<(String, String), String>,
    /// Ideal name → canonical exact basis.
    pub groebner: BTreeMap<String, String>,
}

fn table(text: &str, columns: usize) -> Vec<Vec<String>> {
    text.lines()
        .filter(|l| !l.is_empty())
        .map(|l| {
            let fields: Vec<String> = l.splitn(columns, '\t').map(str::to_string).collect();
            assert_eq!(fields.len(), columns, "malformed golden line: {l}");
            fields
        })
        .collect()
}

impl Goldens {
    /// Parses the compiled-in golden files.
    pub fn load() -> Self {
        Goldens::parse(
            include_str!("../golden/sweep_report.txt"),
            include_str!("../golden/sweep_versions.tsv"),
            include_str!("../golden/mapping.tsv"),
            include_str!("../golden/groebner.tsv"),
        )
    }

    fn parse(
        sweep_report: &'static str,
        sweep_versions: &str,
        mapping: &str,
        groebner: &str,
    ) -> Self {
        Goldens {
            sweep_report,
            sweep_versions: table(sweep_versions, 2)
                .into_iter()
                .map(|mut f| (f.remove(0), f.remove(0)))
                .collect(),
            mapping: table(mapping, 3)
                .into_iter()
                .map(|mut f| ((f.remove(0), f.remove(0)), f.remove(0)))
                .collect(),
            groebner: table(groebner, 2)
                .into_iter()
                .map(|mut f| (f.remove(0), f.remove(0)))
                .collect(),
        }
    }
}

/// Tables 3–6, the mapped lines and the DVFS analysis, rendered exactly as
/// the `tables` binary prints them.
pub fn render_sweep(versions: &[CodeVersion], frames: usize, badge: &Badge4) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}",
        report::render_profile("Table 3. Original MP3 Profile", &versions[0])
    );
    let _ = writeln!(
        out,
        "{}",
        report::render_profile("Table 4. MP3 Profile after LM & IH mapping", &versions[3])
    );
    let _ = writeln!(
        out,
        "{}",
        report::render_profile(
            "Table 5. MP3 Profile after LM & IH & IPP mapping",
            &versions[5]
        )
    );
    for line in &versions[5].mapping_summary {
        let _ = writeln!(out, "  mapped: {line}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", report::render_table6(versions));
    let _ = writeln!(out, "{}", report::render_dvfs(&versions[5], frames, badge));
    out
}

/// Digest of one version's row: kernels, stream time and energy (exact),
/// compliance level, mapping lines and per-frame profile.
pub fn version_digest(v: &CodeVersion) -> String {
    digest(&format!(
        "{:?}|{:e}|{:e}|{:?}|{}|{}",
        v.kernels,
        v.stream_seconds,
        v.stream_energy_j,
        v.compliance.level,
        v.mapping_summary.join(" ; "),
        v.frame_profile.render(&v.name),
    ))
}

/// Digest of one mapping outcome. The search effort (`nodes_explored`) is
/// left out: a faster search that finds the same mapping is correct.
pub fn outcome_digest(outcome: &Result<MappingSolution, CoreError>) -> String {
    match outcome {
        Ok(s) => digest(&format!(
            "{}|{:?}|{:?}|{:e}|{}",
            s.rewritten, s.used_elements, s.cost, s.accuracy, s.basis_complete
        )),
        Err(e) => format!("err-{}", digest(&format!("{e:?}"))),
    }
}

/// Attempted and failed operation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose output differed from the golden.
    pub failed: u64,
}

impl Tally {
    /// One operation, failed unless `ok`.
    pub fn from_ok(ok: bool) -> Tally {
        let mut tally = Tally::default();
        tally.record(ok);
        tally
    }

    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// `failed / attempted`.
    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

impl Goldens {
    /// Checks one sweep: each code version is one operation, failing when
    /// its row differs from the golden or its compliance is insufficient. A
    /// report text that differs fails every version.
    pub fn check_sweep(&self, versions: &[CodeVersion], report_text: &str) -> Tally {
        let report_ok = report_text == self.sweep_report;
        let mut tally = Tally::default();
        for v in versions {
            let row_ok = self.sweep_versions.get(&v.name) == Some(&version_digest(v));
            tally.record(report_ok && row_ok && v.compliance.is_sufficient());
        }
        if versions.len() != self.sweep_versions.len() {
            tally.record(false);
        }
        tally
    }

    /// Checks one mapping batch: each job is one operation, failing when
    /// its outcome digest differs from the golden or the solution does not
    /// verify.
    pub fn check_batch(
        &self,
        library: &str,
        labels: &[String],
        outcomes: &[Result<MappingSolution, CoreError>],
    ) -> Tally {
        let mut tally = Tally::default();
        for (label, outcome) in labels.iter().zip(outcomes) {
            let golden = self.mapping.get(&(library.to_string(), label.clone()));
            let same = golden == Some(&outcome_digest(outcome));
            let verified = outcome.as_ref().map_or(true, MappingSolution::verify);
            tally.record(same && verified);
        }
        if labels.len() != outcomes.len() {
            tally.record(false);
        }
        tally
    }

    /// Checks one basis: fails when it is incomplete or differs from the
    /// golden exact basis.
    pub fn check_basis(&self, ideal: &Ideal, basis: &GroebnerBasis) -> Tally {
        let mut tally = Tally::default();
        let text = ideal.canonical_text(basis.polys());
        tally.record(basis.complete && self.groebner.get(ideal.name) == Some(&text));
        tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use symmap_algebra::groebner::buchberger;

    #[test]
    fn a_planted_output_difference_is_counted_as_a_failure() {
        let goldens = Goldens::load();
        let ideals = inputs::ideals(5);
        let ideal = ideals
            .iter()
            .find(|i| i.name == "twisted_cubic")
            .expect("the budgets ideals are in the set");
        let options = inputs::groebner_options();
        let basis = buchberger(&ideal.generators, &ideal.order, &options);
        assert_eq!(goldens.check_basis(ideal, &basis).failed, 0);

        // Plant a difference: check the basis against another ideal's golden.
        let mut planted = Goldens::load();
        let other = planted.groebner["circle_system"].clone();
        planted.groebner.insert("twisted_cubic".into(), other);
        let tally = planted.check_basis(ideal, &basis);
        assert_eq!(tally.attempted, 1);
        assert_eq!(tally.failed, 1);
        assert!(tally.fail_rate() > 0.0);
    }

    #[test]
    fn a_planted_mapping_difference_is_counted_as_a_failure() {
        let goldens = Goldens::load();
        let badge = Badge4::new();
        let libs = inputs::libraries(&badge);
        let kernels = inputs::batch_kernels(&inputs::draw_kernels(3));
        let labels: Vec<String> = kernels.iter().map(|(l, _)| l.clone()).collect();
        let jobs = inputs::batches(&libs[..1], &kernels, &inputs::mapper_config());
        let engine = symmap_engine::MappingEngine::new(inputs::engine_config());
        let mut outcomes = engine.run(&jobs[0]).outcomes;
        let clean = goldens.check_batch(&libs[0].0, &labels, &outcomes);
        assert_eq!(
            clean,
            Tally {
                attempted: 11,
                failed: 0
            }
        );

        // Swap two outcomes: both jobs now disagree with their goldens.
        outcomes.swap(0, 1);
        let tally = goldens.check_batch(&libs[0].0, &labels, &outcomes);
        assert_eq!(
            tally,
            Tally {
                attempted: 11,
                failed: 2
            }
        );
    }
}
