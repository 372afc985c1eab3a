//! Per-function profiling.
//!
//! Target-code identification (§3.2) starts by profiling the application to
//! find the performance- and energy-critical procedures; the paper's Tables
//! 3–5 are exactly such profiles. [`Profiler`] accumulates execution cost per
//! function name and renders the same table format (execution time per frame
//! and percentage of the total).

use std::collections::BTreeMap;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::cost::OpCounts;
use crate::machine::{Badge4, ExecutionCost};

/// One row of a profile: a function and its accumulated cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileEntry {
    /// The function name (as it would appear in the decoder source).
    pub function: String,
    /// Accumulated execution time in seconds.
    pub seconds: f64,
    /// Accumulated energy in joules.
    pub energy_j: f64,
    /// Accumulated cycles.
    pub cycles: u64,
    /// Share of the total profile time, in percent.
    pub percent: f64,
}

/// A complete profile, sorted by descending execution time.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Profile {
    entries: Vec<ProfileEntry>,
}

impl Profile {
    /// The rows, sorted by descending time.
    pub fn entries(&self) -> &[ProfileEntry] {
        &self.entries
    }

    /// Total time across all rows, in seconds.
    pub fn total_seconds(&self) -> f64 {
        self.entries.iter().map(|e| e.seconds).sum()
    }

    /// Total energy across all rows, in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.entries.iter().map(|e| e.energy_j).sum()
    }

    /// Total cycles across all rows.
    pub fn total_cycles(&self) -> u64 {
        self.entries.iter().map(|e| e.cycles).sum()
    }

    /// Looks up a row by function name.
    pub fn entry(&self, function: &str) -> Option<&ProfileEntry> {
        self.entries.iter().find(|e| e.function == function)
    }

    /// The functions whose cumulative share of execution time reaches
    /// `threshold_percent` — the "critical procedures" selected for mapping.
    pub fn critical_functions(&self, threshold_percent: f64) -> Vec<String> {
        let mut out = Vec::new();
        let mut acc = 0.0;
        for e in &self.entries {
            if acc >= threshold_percent {
                break;
            }
            out.push(e.function.clone());
            acc += e.percent;
        }
        out
    }

    /// Renders the profile in the format of the paper's Tables 3–5.
    pub fn render(&self, title: &str) -> String {
        let mut s = String::new();
        s.push_str(&format!("{title}\n"));
        s.push_str(&format!(
            "{:<32} {:>14} {:>8}\n",
            "Function name", "Exec time (s)", "%"
        ));
        for e in &self.entries {
            s.push_str(&format!(
                "{:<32} {:>14.6} {:>8.2}\n",
                e.function, e.seconds, e.percent
            ));
        }
        s.push_str(&format!(
            "{:<32} {:>14.6} {:>8.2}\n",
            "Total for one frame",
            self.total_seconds(),
            100.0
        ));
        s
    }
}

/// Accumulates per-function operation counts and converts them to a
/// [`Profile`] against a [`Badge4`] model.
///
/// The profiler is internally synchronized so parallel workload runs can share
/// it.
#[derive(Debug, Default)]
pub struct Profiler {
    per_function: Mutex<BTreeMap<String, OpCounts>>,
}

impl Profiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// Records operations attributed to `function`.
    pub fn record(&self, function: &str, ops: &OpCounts) {
        let mut map = self.per_function.lock();
        // Look up before inserting so only a function's first record
        // allocates its name.
        match map.get_mut(function) {
            Some(row) => row.merge(ops),
            None => {
                let mut row = OpCounts::default();
                row.merge(ops);
                map.insert(function.to_string(), row);
            }
        }
    }

    /// Builds the profile by costing every function's operations on `badge`.
    pub fn profile(&self, badge: &Badge4) -> Profile {
        let map = self.per_function.lock();
        let costs: Vec<(String, ExecutionCost)> = map
            .iter()
            .map(|(f, ops)| (f.clone(), badge.cost_of(ops)))
            .collect();
        let total: f64 = costs.iter().map(|(_, c)| c.seconds).sum();
        let mut entries: Vec<ProfileEntry> = costs
            .into_iter()
            .map(|(function, c)| ProfileEntry {
                function,
                seconds: c.seconds,
                energy_j: c.energy_j,
                cycles: c.cycles,
                percent: if total > 0.0 {
                    100.0 * c.seconds / total
                } else {
                    0.0
                },
            })
            .collect();
        entries.sort_by(|a, b| b.seconds.partial_cmp(&a.seconds).expect("finite times"));
        Profile { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::InstructionClass;

    fn ops(class: InstructionClass, n: u64) -> OpCounts {
        let mut o = OpCounts::new();
        o.add(class, n);
        o
    }

    #[test]
    fn profile_sorts_by_time_and_computes_percentages() {
        let profiler = Profiler::new();
        profiler.record("cheap", &ops(InstructionClass::IntAlu, 100));
        profiler.record("expensive", &ops(InstructionClass::FloatMulSoft, 10_000));
        profiler.record("middle", &ops(InstructionClass::IntMul, 50_000));
        let profile = profiler.profile(&Badge4::new());
        let names: Vec<&str> = profile
            .entries()
            .iter()
            .map(|e| e.function.as_str())
            .collect();
        assert_eq!(names[0], "expensive");
        assert_eq!(*names.last().unwrap(), "cheap");
        let pct_sum: f64 = profile.entries().iter().map(|e| e.percent).sum();
        assert!((pct_sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_records_accumulate() {
        let profiler = Profiler::new();
        profiler.record("f", &ops(InstructionClass::IntAlu, 10));
        profiler.record("f", &ops(InstructionClass::IntAlu, 15));
        let profile = profiler.profile(&Badge4::new());
        assert_eq!(profile.entries().len(), 1);
        assert_eq!(profile.entry("f").unwrap().cycles, 25);
        assert!(profile.entry("missing").is_none());
    }

    #[test]
    fn critical_functions_cover_threshold() {
        let profiler = Profiler::new();
        profiler.record("a", &ops(InstructionClass::FloatMulSoft, 90_000));
        profiler.record("b", &ops(InstructionClass::FloatMulSoft, 9_000));
        profiler.record("c", &ops(InstructionClass::FloatMulSoft, 1_000));
        let profile = profiler.profile(&Badge4::new());
        let crit = profile.critical_functions(85.0);
        assert_eq!(crit, vec!["a".to_string()]);
        let crit95 = profile.critical_functions(95.0);
        assert_eq!(crit95.len(), 2);
    }

    #[test]
    fn render_contains_every_function_and_total() {
        let profiler = Profiler::new();
        profiler.record(
            "III_dequantize_sample",
            &ops(InstructionClass::LibmCall, 500),
        );
        profiler.record(
            "SubBandSynthesis",
            &ops(InstructionClass::FloatMulSoft, 2_000),
        );
        let profile = profiler.profile(&Badge4::new());
        let rendered = profile.render("Original MP3 Profile");
        assert!(rendered.contains("III_dequantize_sample"));
        assert!(rendered.contains("SubBandSynthesis"));
        assert!(rendered.contains("Total for one frame"));
    }

    #[test]
    fn empty_profile_is_well_behaved() {
        let profile = Profiler::new().profile(&Badge4::new());
        assert!(profile.entries().is_empty());
        assert_eq!(profile.total_seconds(), 0.0);
        assert!(profile.critical_functions(90.0).is_empty());
    }
}
