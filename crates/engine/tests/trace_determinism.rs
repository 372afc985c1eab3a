//! The trace-determinism suite: the non-perturbation and byte-identity
//! contracts of the observability layer (DESIGN.md §8).
//!
//! Three claims are pinned here:
//!
//! 1. **Byte-identity across scheduling.** The deterministic transcript
//!    (job streams by index + compute streams by key, sched excluded) is
//!    byte-identical at workers ∈ {1, 2, 4, 8}, with the multi-modular lift
//!    off and on.
//! 2. **Non-perturbation.** Enabling tracing never changes any
//!    `MappingSolution` — pinned on a fixed batch at every worker count and
//!    by a property test over random batches.
//! 3. **Exporter validity.** A traced batch renders to chrome://tracing
//!    trace-event JSON that parses and balances (the schema check Perfetto
//!    relies on), and the batch metrics snapshot renders to parseable JSON.
//! 4. **Collapse by key.** Requests equal up to a variable renaming record
//!    one compute stream, keyed by their ring-local form.

use std::sync::Arc;

use proptest::prelude::*;
use symmap_algebra::groebner::GroebnerOptions;
use symmap_algebra::monomial::Monomial;
use symmap_algebra::poly::Poly;
use symmap_algebra::var::Var;
use symmap_engine::{BatchResult, EngineConfig, MapJob, MapperConfig, MappingEngine};
use symmap_libchar::{Library, LibraryElement};
use symmap_numeric::Rational;
use symmap_trace::{parse_json, to_chrome_json, validate_chrome_trace};

/// `text` with every identifier in it prefixed by `prefix`.
fn prefixed(text: &str, prefix: &str) -> String {
    let mut out = String::new();
    let mut in_word = false;
    for c in text.chars() {
        if c.is_ascii_alphabetic() && !in_word {
            out.push_str(prefix);
        }
        in_word = c.is_ascii_alphanumeric() || c == '_';
        out.push(c);
    }
    out
}

/// The suite's library, every name in it prefixed by `prefix`.
fn library(prefix: &str) -> Arc<Library> {
    let mut lib = Library::new("trace");
    for (name, symbol, poly, cycles) in [
        ("sum", "s", "x + y", 3_u64),
        ("diff", "d", "x - y", 3),
        ("prod", "q", "x*y", 5),
        ("sq_x", "sx", "x^2", 4),
        ("sq_z", "sz", "z^2", 4),
        // Fractional coefficient: keeps the multimodular lift gate open on
        // subsets that pair it with another `x` element (the gate reads the
        // ideal generators — all-integer side relations, or relations with
        // pairwise coprime leading monomials, would route every compute to
        // plain exact Buchberger and the lift would record no spans).
        ("third_sq", "ts", "1/3*x^2", 4),
    ] {
        lib.push(
            LibraryElement::builder(&prefixed(name, prefix), &prefixed(symbol, prefix))
                .polynomial(Poly::parse(&prefixed(poly, prefix)).unwrap())
                .cycles(cycles)
                .energy_nj(cycles as f64)
                .accuracy(1e-9)
                .build()
                .unwrap(),
        );
    }
    Arc::new(lib)
}

fn batch_jobs(library: &Arc<Library>, prefix: &str, multimodular: bool) -> Vec<MapJob> {
    // Job 4 ("u^3 + u") has no candidate elements and fails: the suite
    // covers the error path's trace too, not just successes.
    [
        "x^2 + 2*x*y + y^2",
        "x^2 - y^2 + z^2",
        "x*y + x^2 - 3",
        "x^3 - x*y + 4*z^2",
        "u^3 + u",
        "x^4 - y^4 + x^2*y^2",
    ]
    .iter()
    .enumerate()
    .map(|(i, t)| {
        MapJob::new(
            format!("trace-{i}"),
            Poly::parse(&prefixed(t, prefix)).unwrap(),
            Arc::clone(library),
            MapperConfig {
                groebner: GroebnerOptions {
                    multimodular,
                    ..GroebnerOptions::default()
                },
                ..MapperConfig::default()
            },
        )
    })
    .collect()
}

fn engine(workers: usize, trace: bool) -> MappingEngine {
    MappingEngine::new(EngineConfig {
        workers,
        trace,
        ..EngineConfig::default()
    })
}

/// Claim 1 + claim 2 on the fixed batch: transcripts byte-identical across
/// worker counts (per multimodular setting), outcomes byte-identical to the
/// untraced run everywhere.
#[test]
fn transcripts_are_byte_identical_across_workers_and_lift_modes() {
    let library = library("");
    for multimodular in [false, true] {
        let jobs = batch_jobs(&library, "", multimodular);
        let untraced = engine(1, false).run(&jobs);
        assert!(untraced.trace.is_none(), "untraced run must carry no trace");
        let mut transcripts = Vec::new();
        for workers in [1, 2, 4, 8] {
            let result = engine(workers, true).run(&jobs);
            assert_eq!(
                format!("{:?}", result.outcomes),
                format!("{:?}", untraced.outcomes),
                "tracing perturbed outcomes at {workers} workers \
                 (multimodular={multimodular})"
            );
            let trace = result.trace.expect("tracing was enabled");
            assert_eq!(trace.jobs.len(), jobs.len());
            assert!(
                trace.deterministic_event_count() > 0,
                "a traced batch must record deterministic events"
            );
            transcripts.push((workers, trace.deterministic_transcript()));
        }
        let (_, reference) = &transcripts[0];
        for (workers, transcript) in &transcripts[1..] {
            assert_eq!(
                transcript, reference,
                "deterministic transcript diverged at {workers} workers \
                 (multimodular={multimodular})"
            );
        }
        // The lift instrumentation actually engaged when requested: its
        // per-prime image spans are in the compute channel.
        if multimodular {
            assert!(
                reference.contains("mm.image"),
                "multimodular batch recorded no lift spans:\n{reference}"
            );
        } else {
            assert!(!reference.contains("mm.image"));
        }
    }
}

/// Claim 3: a traced parallel batch exports valid chrome://tracing JSON
/// (parse + B/E balance per track) and a parseable metrics JSON snapshot,
/// and the sched channel saw the pool's job lifecycle.
#[test]
fn chrome_export_and_metrics_snapshot_are_valid_json() {
    let library = library("");
    let jobs = batch_jobs(&library, "", true);
    let result = engine(4, true).run(&jobs);
    let trace = result.trace.expect("tracing was enabled");

    assert!(
        trace.sched.iter().any(|e| e.name == "pool.start"),
        "the pool's job lifecycle must reach the sched channel"
    );
    assert_eq!(
        trace
            .sched
            .iter()
            .filter(|e| e.name == "pool.finish")
            .count(),
        jobs.len(),
        "every job finishes exactly once"
    );

    let chrome = to_chrome_json(&trace);
    let events = validate_chrome_trace(&chrome)
        .unwrap_or_else(|e| panic!("chrome trace failed schema validation: {e}\n{chrome}"));
    assert!(events > 0, "chrome trace must carry events");

    let metrics = result.stats.metrics.to_json();
    let doc = parse_json(&metrics)
        .unwrap_or_else(|e| panic!("metrics snapshot is not valid JSON: {e}\n{metrics}"));
    assert!(
        doc["counters"].as_object().is_some(),
        "metrics snapshot must expose a counters object"
    );
}

/// Claim 4: one traced batch maps the same targets against a library and a
/// renamed copy of it. Every renamed request is a cache miss of its own,
/// yet the compute channel holds exactly the streams of the first library
/// alone — one per ring-local form — and the transcript is byte-identical
/// at every worker count.
#[test]
fn renamed_libraries_share_one_compute_stream_per_ring_local_form() {
    // Local indices follow interner order: intern both name sets here, in
    // the same relative order, before anything else touches them.
    for prefix in ["tda_", "tdb_"] {
        for name in ["x", "y", "z", "u", "s", "d", "q", "sx", "sz", "ts"] {
            Var::new(&prefixed(name, prefix));
        }
    }
    let transcript = |r: BatchResult| r.trace.expect("traced").deterministic_transcript();
    // The compute channel: the transcript from its first compute stream on.
    let computes = |t: &str| t[t.find("\ncompute ").expect("a basis was computed")..].to_string();
    let jobs_a = batch_jobs(&library("tda_"), "tda_", true);
    let alone = engine(1, true).run(&jobs_a);
    let mut jobs = jobs_a.clone();
    jobs.extend(batch_jobs(&library("tdb_"), "tdb_", true));
    let mut transcripts = Vec::new();
    for workers in [1, 2, 4, 8] {
        let result = engine(workers, true).run(&jobs);
        if workers == 1 {
            assert_eq!(result.stats.cache_misses(), 2 * alone.stats.cache_misses());
        }
        transcripts.push(transcript(result));
    }
    assert!(transcripts.iter().all(|t| *t == transcripts[0]));
    assert_eq!(computes(&transcripts[0]), computes(&transcript(alone)));
}

/// Builds a target polynomial from raw term tuples (exponents for x, y, z
/// plus a small integer coefficient).
fn target_from_terms(terms: &[(u32, u32, u32, i64)]) -> Poly {
    Poly::from_terms(terms.iter().map(|&(ex, ey, ez, c)| {
        (
            Monomial::from_pairs(&[
                (Var::new("x"), ex),
                (Var::new("y"), ey),
                (Var::new("z"), ez),
            ]),
            Rational::integer(c),
        )
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Claim 2 at property strength: over random small batches, the traced
    /// engine's outcomes are byte-identical to the untraced engine's, and
    /// the transcript is reproducible run-to-run.
    #[test]
    fn tracing_never_changes_a_mapping_solution(
        raw_targets in proptest::collection::vec(
            proptest::collection::vec((0u32..4, 0u32..4, 0u32..3, -4i64..5), 1..5),
            1..8,
        ),
        workers in 1usize..5,
    ) {
        let library = library("");
        let jobs: Vec<MapJob> = raw_targets
            .iter()
            .enumerate()
            .map(|(i, terms)| {
                MapJob::new(
                    format!("prop-{i}"),
                    target_from_terms(terms),
                    Arc::clone(&library),
                    MapperConfig::default(),
                )
            })
            .collect();

        let untraced = engine(workers, false).run(&jobs);
        let traced = engine(workers, true).run(&jobs);
        prop_assert_eq!(
            format!("{:?}", traced.outcomes),
            format!("{:?}", untraced.outcomes),
            "tracing perturbed outcomes at {} workers", workers
        );

        // Same batch, second traced run: the deterministic transcript is a
        // pure function of the batch, so it reproduces byte-for-byte.
        let again = engine(workers, true).run(&jobs);
        prop_assert_eq!(
            again.trace.expect("tracing was enabled").deterministic_transcript(),
            traced.trace.expect("tracing was enabled").deterministic_transcript()
        );
    }
}
