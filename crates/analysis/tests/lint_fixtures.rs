//! Lint self-tests over the known-bad fixture tree
//! (`crates/analysis/fixtures/`, a miniature workspace layout so the
//! path-scoped rules — D3's exact-path confinement, the bench exemption —
//! apply to fixtures exactly as they do to the real tree), plus the
//! lint-cleanliness gate for the real workspace itself.

use std::path::{Path, PathBuf};

use symmap_analysis::lint::{self, Diagnostic, Rule};

fn fixture(rel: &str) -> Vec<Diagnostic> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let source =
        std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("fixture {rel}: {e}"));
    lint::lint_source(rel, &source)
}

fn rules(diags: &[Diagnostic]) -> Vec<Rule> {
    diags.iter().map(|d| d.rule).collect()
}

#[test]
fn d1_fixture_flags_each_iteration_site_once() {
    let diags = fixture("crates/algebra/src/unordered_iter.rs");
    assert_eq!(rules(&diags), vec![Rule::D1; 4], "{diags:?}");
    // One per construct: `.iter()`, the `for` loop, `.keys()` through the
    // type alias, `.drain()` on a let binding — and nothing on the `.get`.
    let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains(".iter()")));
    assert!(messages.iter().any(|m| m.contains("for … in")));
    assert!(messages.iter().any(|m| m.contains(".keys()")));
    assert!(messages.iter().any(|m| m.contains(".drain()")));
}

#[test]
fn d1_fixture_catches_hash_ordered_candidate_scans_in_a_sharded_index() {
    // The failure mode the fingerprint index (crates/libchar/src/library.rs)
    // designs around: shards keyed by support in a HashMap, scanned in hash
    // order. D1 must flag every iteration over the hash maps and stay quiet
    // on the point lookups the real index restricts itself to.
    let diags = fixture("crates/libchar/src/sharded_index.rs");
    assert_eq!(rules(&diags), vec![Rule::D1; 3], "{diags:?}");
    let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains(".values()")));
    assert!(messages.iter().any(|m| m.contains("for … in")));
    assert!(messages.iter().any(|m| m.contains(".keys()")));
}

#[test]
fn d2_fixture_flags_clock_and_thread_identity() {
    let diags = fixture("crates/engine/src/timing_leak.rs");
    assert_eq!(rules(&diags), vec![Rule::D2; 4], "{diags:?}");
}

#[test]
fn d3_fixture_flags_floats_only_under_exact_paths() {
    let diags = fixture("crates/algebra/src/float_leak.rs");
    assert_eq!(rules(&diags), vec![Rule::D3; 4], "{diags:?}");
    // The same source outside the exact paths is not D3's business.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let source = std::fs::read_to_string(root.join("crates/algebra/src/float_leak.rs")).unwrap();
    assert!(lint::lint_source("crates/engine/src/float_leak.rs", &source).is_empty());
}

#[test]
fn d4_fixture_flags_only_the_undocumented_block() {
    let diags = fixture("crates/engine/src/missing_safety.rs");
    assert_eq!(rules(&diags), vec![Rule::D4], "{diags:?}");
    assert_eq!(diags[0].line, 5);
}

#[test]
fn d5_fixture_flags_env_reads() {
    let diags = fixture("crates/engine/src/env_leak.rs");
    assert_eq!(rules(&diags), vec![Rule::D5; 2], "{diags:?}");
}

#[test]
fn d6_fixture_flags_direct_recorder_use() {
    let diags = fixture("crates/algebra/src/direct_recorder.rs");
    assert_eq!(rules(&diags), vec![Rule::D6; 5], "{diags:?}");
    // One per raw entry point; the reasoned allow at the bottom suppresses
    // its site silently.
    let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    for pat in [
        "TraceCollector",
        "install_job_scope",
        "install_compute_scope",
        "record_raw",
        "sched_raw",
    ] {
        assert!(
            messages.iter().any(|m| m.contains(pat)),
            "no D6 diagnostic mentions {pat}: {messages:?}"
        );
    }
}

#[test]
fn d6_exempts_the_trace_crate_and_engine_entry_points() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let source =
        std::fs::read_to_string(root.join("crates/algebra/src/direct_recorder.rs")).unwrap();
    for exempt in ["crates/trace/src/recorder.rs", "crates/engine/src/batch.rs"] {
        // (On an exempt path the fixture's reasoned D6 allow correctly goes
        // stale — A2 — so assert the absence of D6 findings, not emptiness.)
        assert!(
            lint::lint_source(exempt, &source)
                .iter()
                .all(|d| d.rule != Rule::D6),
            "{exempt} must be exempt from D6"
        );
    }
    // Everywhere else in the engine is NOT exempt, the pool included.
    for covered in [
        "crates/engine/src/decompose.rs",
        "crates/engine/src/pool.rs",
    ] {
        assert!(
            lint::lint_source(covered, &source)
                .iter()
                .any(|d| d.rule == Rule::D6),
            "{covered} must not be exempt from D6"
        );
    }
}

#[test]
fn allow_meta_rules_fire_on_the_stale_allow_fixture() {
    let diags = fixture("crates/engine/src/stale_allow.rs");
    let mut got = rules(&diags);
    got.sort();
    // A reasoned allow suppresses its D2 silently; the reasonless one still
    // suppresses but earns A1; the pointless one earns A2; the typo A3.
    assert_eq!(got, vec![Rule::A1, Rule::A2, Rule::A3], "{diags:?}");
}

#[test]
fn bench_paths_are_exempt_from_timing_and_env_rules() {
    let diags = fixture("crates/bench/src/allowed_paths.rs");
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn every_fixture_violation_exits_nonzero_through_the_cli_contract() {
    // The CLI maps any nonempty diagnostic list to exit 1; equivalently,
    // each bad fixture must produce at least one diagnostic and the clean
    // one none. (Exercising the real binary would need a subprocess; the
    // mapping from diagnostics to the exit code is a two-line `if`.)
    for (rel, expect_dirty) in [
        ("crates/algebra/src/unordered_iter.rs", true),
        ("crates/algebra/src/float_leak.rs", true),
        ("crates/engine/src/timing_leak.rs", true),
        ("crates/engine/src/missing_safety.rs", true),
        ("crates/engine/src/env_leak.rs", true),
        ("crates/engine/src/stale_allow.rs", true),
        ("crates/algebra/src/direct_recorder.rs", true),
        ("crates/bench/src/allowed_paths.rs", false),
    ] {
        assert_eq!(
            !fixture(rel).is_empty(),
            expect_dirty,
            "fixture {rel} dirtiness mismatch"
        );
    }
}

#[test]
fn the_workspace_itself_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root above crates/analysis")
        .to_path_buf();
    assert!(
        root.join("Cargo.toml").exists(),
        "expected workspace root at {}",
        root.display()
    );
    let report = lint::lint_tree(&root).expect("workspace scan");
    assert!(
        report.is_clean(),
        "workspace must stay determinism-lint clean (this is the CI gate):\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Sanity: the scan actually visited the tree, not an empty directory.
    assert!(report.files_scanned > 50, "{} files", report.files_scanned);
}

#[test]
fn json_output_is_parseable_shape() {
    let diags = fixture("crates/engine/src/env_leak.rs");
    let json = lint::to_json_array(&diags);
    assert!(json.starts_with('[') && json.ends_with(']'));
    assert_eq!(json.matches("\"rule\":\"D5\"").count(), 2);
}
