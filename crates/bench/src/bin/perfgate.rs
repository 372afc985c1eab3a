//! `perfgate` — the CI perf-regression gate over `BENCH.json`.
//!
//! For every benchmark in the accumulated trajectory, compares the **latest**
//! entry against a **reference**: the median of the last
//! [`REFERENCE_WINDOW`] prior entries recorded on matching hardware. It
//! fails (exit code 1) when the latest wall clock regressed by more than the
//! threshold (default 1.5×, override with the first CLI argument or
//! `SYMMAP_PERFGATE_THRESHOLD`).
//!
//! Rules that keep the gate honest rather than noisy:
//!
//! * The reference is recent history, not the best entry ever recorded. On
//!   a shared machine the fastest entry tends to come from a quiet spell:
//!   one code, rebuilt and rerun later, read 1.99–2.33 ms against the
//!   1.59 ms it had recorded, so a best-ever reference fails changes that
//!   are no slower than their parent. The median of the last three ignores
//!   one outlier in either direction.
//! * Only entries whose `hw_threads` matches the latest entry's are
//!   comparable — wall clocks from different machines are never judged
//!   against each other. (This is why schema 2 made `hw_threads` a
//!   structured field; in CI, runner entries appended by the quick benches
//!   are gated against committed entries from the same class of machine and
//!   silently skipped otherwise.)
//! * Legacy entries without `hw_threads` are never used for comparison.
//! * A benchmark with no comparable prior entry passes with a note — the
//!   first recording of a new bench (or a new machine) establishes the
//!   baseline that future runs are gated on.
//!
//! Run after the `SYMMAP_QUICK=1` benches have appended the current run's
//! entries:
//!
//! ```text
//! cargo run -p symmap-bench --release --bin perfgate
//! ```

use std::collections::BTreeMap;
use std::process::ExitCode;

use symmap_bench::quickbench::{self, QuickEntry};

/// Maximum allowed `latest / reference` wall-clock ratio.
const DEFAULT_THRESHOLD: f64 = 1.5;

/// How many of the latest prior same-hardware entries the reference is the
/// median of.
const REFERENCE_WINDOW: usize = 3;

fn threshold() -> f64 {
    std::env::args()
        .nth(1)
        .or_else(|| std::env::var("SYMMAP_PERFGATE_THRESHOLD").ok())
        .and_then(|v| v.trim().parse().ok())
        .filter(|t: &f64| t.is_finite() && *t > 0.0)
        .unwrap_or(DEFAULT_THRESHOLD)
}

/// One gated comparison: the latest entry of a bench vs its reference.
struct Verdict {
    bench: String,
    latest_ns: u128,
    /// The reference wall clock and the PRs of the entries it is the
    /// median of.
    prior: Option<(u128, Vec<u32>)>,
    ratio: Option<f64>,
    regressed: bool,
}

/// Benches excluded from gating: the `wide_interner` pre-ring entries
/// measure the deliberately pathological global-coordinate oracle (kept only
/// to document the blowup the ring layer removed) with a coarse sample count
/// — recording them is the point, gating them would fail CI over a
/// non-shipping path.
fn exempt(bench: &str) -> bool {
    bench.ends_with("/pre-ring")
}

/// Gates every bench in `entries` (file order = chronological order).
fn gate(entries: &[QuickEntry], threshold: f64) -> Vec<Verdict> {
    let mut by_bench: BTreeMap<&str, Vec<&QuickEntry>> = BTreeMap::new();
    for e in entries {
        if !exempt(&e.bench) {
            by_bench.entry(&e.bench).or_default().push(e);
        }
    }
    by_bench
        .into_iter()
        .map(|(bench, history)| {
            let latest = *history.last().expect("group is nonempty");
            let comparable =
                |e: &&&QuickEntry| e.hw_threads.is_some() && e.hw_threads == latest.hw_threads;
            let window: Vec<&QuickEntry> = history[..history.len() - 1]
                .iter()
                .rev()
                .filter(comparable)
                .take(REFERENCE_WINDOW)
                .copied()
                .collect();
            let prior = median_ns(&window)
                .map(|ns| (ns, window.iter().rev().filter_map(|e| e.pr).collect()));
            let ratio = prior
                .as_ref()
                .map(|(ns, _)| latest.wall_ns as f64 / (*ns).max(1) as f64);
            Verdict {
                bench: bench.to_string(),
                latest_ns: latest.wall_ns,
                prior,
                ratio,
                regressed: ratio.is_some_and(|r| r > threshold),
            }
        })
        .collect()
}

/// Median wall clock of `entries` (the mean of the middle two for an even
/// count); `None` when there are none.
fn median_ns(entries: &[&QuickEntry]) -> Option<u128> {
    let mut walls: Vec<u128> = entries.iter().map(|e| e.wall_ns).collect();
    walls.sort_unstable();
    let n = walls.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(walls[n / 2]),
        _ => Some((walls[n / 2 - 1] + walls[n / 2]) / 2),
    }
}

fn main() -> ExitCode {
    let threshold = threshold();
    let entries = quickbench::read_entries();
    if entries.is_empty() {
        println!(
            "perfgate: no entries in {} — nothing to gate",
            quickbench::bench_json_path().display()
        );
        return ExitCode::SUCCESS;
    }
    let verdicts = gate(&entries, threshold);

    println!(
        "perfgate: {} benches, threshold {threshold:.2}x ({})",
        verdicts.len(),
        quickbench::bench_json_path().display()
    );
    println!(
        "{:<48} {:>12} {:>12} {:>7}  verdict",
        "bench", "latest ns", "reference", "ratio"
    );
    let mut failures = 0usize;
    for v in &verdicts {
        match (&v.prior, v.ratio) {
            (Some((prior_ns, prs)), Some(ratio)) => {
                let verdict = if v.regressed { "REGRESSED" } else { "ok" };
                let pr = if prs.is_empty() {
                    String::new()
                } else {
                    let prs: Vec<String> = prs.iter().map(u32::to_string).collect();
                    format!(" (median of pr {})", prs.join(", "))
                };
                println!(
                    "{:<48} {:>12} {:>12} {:>6.2}x  {verdict}{pr}",
                    v.bench, v.latest_ns, prior_ns, ratio
                );
                if v.regressed {
                    failures += 1;
                }
            }
            _ => println!(
                "{:<48} {:>12} {:>12} {:>7}  no comparable prior (baseline established)",
                v.bench, v.latest_ns, "-", "-"
            ),
        }
    }
    let gated = verdicts.iter().filter(|v| v.prior.is_some()).count();
    if failures > 0 {
        eprintln!(
            "perfgate: {failures} bench(es) regressed beyond {threshold:.2}x \
             against the median of their last {REFERENCE_WINDOW} same-hardware priors"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "perfgate: {gated} bench(es) gated, {} established a baseline, \
         no regression beyond {threshold:.2}x",
        verdicts.len() - gated
    );
    if gated == 0 {
        // Be loud about vacuous runs: on a machine class with no committed
        // same-hw_threads history (e.g. a CI runner gating against a
        // trajectory recorded elsewhere) every bench passes by definition.
        // The gate's teeth live on machines matching the committed
        // trajectory's hardware class — where the entries are recorded.
        println!(
            "perfgate: WARNING — no bench had a comparable prior; this run \
             only established baselines and gated nothing"
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(bench: &str, wall_ns: u128, hw: Option<u32>) -> QuickEntry {
        QuickEntry {
            bench: bench.into(),
            wall_ns,
            reductions: None,
            pr: Some(5),
            hw_threads: hw,
            note: String::new(),
        }
    }

    #[test]
    fn regression_beyond_threshold_fails_and_within_passes() {
        let entries = vec![
            e("a", 1000, Some(1)),
            e("a", 1400, Some(1)), // 1.4x vs best prior 1000: ok
            e("b", 1000, Some(1)),
            e("b", 1600, Some(1)), // 1.6x: regressed
        ];
        let verdicts = gate(&entries, 1.5);
        assert_eq!(verdicts.len(), 2);
        assert!(!verdicts[0].regressed);
        assert!(verdicts[1].regressed);
    }

    #[test]
    fn reference_is_the_median_of_the_last_three_priors() {
        // Priors [500, 1000, 2000, 1100]: the window is the last three,
        // [1000, 2000, 1100], whose median is 1100 — not the fastest (500)
        // and not the most recent alone.
        let entries = vec![
            e("a", 500, Some(1)),
            e("a", 1000, Some(1)),
            e("a", 2000, Some(1)),
            e("a", 1100, Some(1)),
            e("a", 1540, Some(1)),
        ];
        let verdicts = gate(&entries, 1.5);
        assert_eq!(verdicts[0].prior.as_ref().unwrap().0, 1100);
        assert!(!verdicts[0].regressed, "1.4x vs the median passes 1.5x");
        let strict = gate(&entries, 1.3);
        assert!(strict[0].regressed, "1.4x vs the median breaches 1.3x");
        // Entries from other hardware do not enter the window, and two
        // priors give the mean of both.
        let entries = vec![
            e("b", 1000, Some(1)),
            e("b", 10, Some(4)),
            e("b", 2000, Some(1)),
            e("b", 1600, Some(1)),
        ];
        assert_eq!(gate(&entries, 1.5)[0].prior.as_ref().unwrap().0, 1500);
    }

    #[test]
    fn one_old_outlier_no_longer_fails_an_unchanged_bench() {
        // One entry recorded in a quiet spell, then the bench's usual
        // reading three times; an unchanged rerun must pass, although it
        // reads 1.6x the outlier.
        let entries = vec![
            e("a", 1000, Some(1)),
            e("a", 1600, Some(1)),
            e("a", 1550, Some(1)),
            e("a", 1650, Some(1)),
            e("a", 1600, Some(1)),
        ];
        let verdicts = gate(&entries, 1.5);
        assert_eq!(verdicts[0].prior.as_ref().unwrap().0, 1600);
        assert!(!verdicts[0].regressed);
        // While the outlier is still inside the window, the median ignores
        // it too.
        let verdicts = gate(&entries[..3], 1.5);
        assert_eq!(verdicts[0].prior.as_ref().unwrap().0, 1300);
        assert!(!verdicts[0].regressed);
    }

    #[test]
    fn pre_ring_oracle_entries_are_exempt_from_gating() {
        let entries = vec![
            e("wide_interner/twisted-cubic/pre-ring", 1000, Some(1)),
            e("wide_interner/twisted-cubic/pre-ring", 9000, Some(1)), // 9x: ignored
            e("wide_interner/twisted-cubic/ring-local", 1000, Some(1)),
        ];
        let verdicts = gate(&entries, 1.5);
        assert_eq!(verdicts.len(), 1, "pre-ring entries must not be gated");
        assert_eq!(verdicts[0].bench, "wide_interner/twisted-cubic/ring-local");
    }

    #[test]
    fn hardware_mismatch_is_not_compared() {
        let entries = vec![
            e("a", 100, Some(4)),  // fast 4-thread machine
            e("a", 1000, Some(1)), // latest, slow 1-thread machine
        ];
        let verdicts = gate(&entries, 1.5);
        assert!(verdicts[0].prior.is_none(), "cross-hardware comparison");
        assert!(!verdicts[0].regressed);
        // Legacy entries without hw_threads are never used either.
        let legacy = vec![e("a", 100, None), e("a", 1000, None)];
        let verdicts = gate(&legacy, 1.5);
        assert!(verdicts[0].prior.is_none());
    }
}
