//! Model-checker regressions: the faithful kernel must pass exhaustively
//! within the step bound, and the deliberately seeded bug (torn adoption)
//! must be re-detected — the checker's reason to exist is that this mutant
//! cannot slip through.

use symmap_analysis::model::{cache::AdoptionModel, check, replay, Config};

#[test]
fn faithful_kernels_pass_exhaustively() {
    for (name, report) in [
        (
            "adoption/2",
            check(&AdoptionModel::new(2), Config::default()),
        ),
        (
            "adoption/3",
            check(&AdoptionModel::new(3), Config::default()),
        ),
    ] {
        assert!(
            report.passed(),
            "{name}: violation={:?} truncated={}",
            report.violation,
            report.truncated_schedules
        );
        assert!(report.executions > 1, "{name}: explored nothing");
    }
}

#[test]
fn adoption_three_threads_explores_the_full_miss_overlap() {
    // With 3 threads and 3 atomic steps each, the all-miss interleavings
    // alone number 9!/(3!)^3 = 1680; hit-paths shorten some schedules, so
    // the total complete executions must be at least that order.
    let report = check(&AdoptionModel::new(3), Config::default());
    assert!(report.passed());
    assert!(
        report.executions >= 1000,
        "suspiciously small exploration: {} executions",
        report.executions
    );
}

#[test]
fn seeded_torn_adoption_is_redetected() {
    for threads in [2, 3] {
        let model = AdoptionModel::torn_adoption(threads);
        let violation = check(&model, Config::default())
            .violation
            .unwrap_or_else(|| panic!("torn adoption with {threads} threads not caught"));
        // The witness schedule replays to the same violation — the report
        // is a reproducible counterexample, not a heisenbug.
        let replayed = replay(&model, &violation.schedule).expect("witness must replay");
        assert_eq!(replayed.message, violation.message);
        assert_eq!(replayed.schedule, violation.schedule);
    }
}

#[test]
fn exploration_is_deterministic() {
    // Same model, same config → byte-identical report, including which
    // violation is found first. The checker obeys the determinism policy it
    // guards.
    let a = check(&AdoptionModel::new(3), Config::default());
    let b = check(&AdoptionModel::new(3), Config::default());
    assert_eq!(a.executions, b.executions);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.violation, b.violation);
}

#[test]
fn step_bound_truncation_is_reported_not_silent() {
    let report = check(&AdoptionModel::new(2), Config { max_steps: 3 });
    assert!(report.truncated_schedules > 0);
    assert!(
        !report.passed(),
        "a truncated run must not claim exhaustiveness"
    );
}
