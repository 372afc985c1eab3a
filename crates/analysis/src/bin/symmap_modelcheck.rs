//! `symmap-modelcheck` — exhaustive bounded interleaving check of the
//! cache adoption protocol, plus a self-test that the seeded-bug mutant is
//! detected.
//!
//! ```text
//! symmap-modelcheck [--skip-mutants]
//! ```
//!
//! Exit codes: `0` every faithful model passes exhaustively *and* every
//! mutant is caught; `1` otherwise.

use std::process::ExitCode;

use symmap_analysis::model::{cache::AdoptionModel, check, Config, Model};

/// Runs a faithful model that must pass. Returns `false` on failure.
fn expect_pass<M: Model>(name: &str, model: &M) -> bool {
    let report = check(model, Config::default());
    match (&report.violation, report.truncated_schedules) {
        (None, 0) => {
            println!(
                "PASS  {name}: {} interleavings, {} steps, all invariants hold",
                report.executions, report.steps
            );
            true
        }
        (None, truncated) => {
            println!("FAIL  {name}: {truncated} schedules hit the step bound — run not exhaustive");
            false
        }
        (Some(violation), _) => {
            println!("FAIL  {name}: {violation}");
            false
        }
    }
}

/// Runs a deliberately broken model that the checker must catch. Returns
/// `false` when the bug slips through.
fn expect_caught<M: Model>(name: &str, model: &M) -> bool {
    let report = check(model, Config::default());
    match report.violation {
        Some(violation) => {
            println!(
                "PASS  {name}: seeded bug caught after {} interleavings — {}",
                report.executions + 1,
                violation
            );
            true
        }
        None => {
            println!(
                "FAIL  {name}: seeded bug NOT detected in {} interleavings",
                report.executions
            );
            false
        }
    }
}

fn main() -> ExitCode {
    let skip_mutants = std::env::args().any(|a| a == "--skip-mutants");
    let mut ok = true;

    println!("== cache adoption protocol (groebner.rs) ==");
    ok &= expect_pass("adoption 2 threads", &AdoptionModel::new(2));
    ok &= expect_pass("adoption 3 threads", &AdoptionModel::new(3));

    if !skip_mutants {
        println!("== seeded-bug mutants (the checker must catch these) ==");
        ok &= expect_caught("torn adoption 2 threads", &AdoptionModel::torn_adoption(2));
        ok &= expect_caught("torn adoption 3 threads", &AdoptionModel::torn_adoption(3));
    }

    if ok {
        println!("symmap-modelcheck: all kernels verified, all mutants detected");
        ExitCode::SUCCESS
    } else {
        println!("symmap-modelcheck: FAILURES above");
        ExitCode::from(1)
    }
}
