//! Property test of the batch engine: for random small job batches over a
//! fixed library, parallel execution is byte-identical to sequential
//! execution, and both match running each job through a standalone `Mapper`
//! one at a time (the historic path).

use std::sync::Arc;

use proptest::prelude::*;
use symmap_algebra::fingerprint::PolyFingerprint;
use symmap_algebra::groebner::GroebnerOptions;
use symmap_algebra::monomial::Monomial;
use symmap_algebra::poly::Poly;
use symmap_algebra::var::Var;
use symmap_engine::{EngineConfig, MapJob, Mapper, MapperConfig, MappingEngine};
use symmap_libchar::{Library, LibraryElement};
use symmap_numeric::Rational;

fn library() -> Arc<Library> {
    let mut lib = Library::new("prop");
    for (name, symbol, poly, cycles) in [
        ("sum", "s", "x + y", 3_u64),
        ("diff", "d", "x - y", 3),
        ("prod", "q", "x*y", 5),
        ("sq_x", "sx", "x^2", 4),
        ("sq_z", "sz", "z^2", 4),
    ] {
        lib.push(
            LibraryElement::builder(name, symbol)
                .polynomial(Poly::parse(poly).unwrap())
                .cycles(cycles)
                .energy_nj(cycles as f64)
                .accuracy(1e-9)
                .build()
                .unwrap(),
        );
    }
    Arc::new(lib)
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

fn engine(workers: usize) -> MappingEngine {
    MappingEngine::new(EngineConfig {
        workers,
        ..EngineConfig::default()
    })
}

/// The multi-modular lift is invisible to mapping output: the same batch,
/// run with `GroebnerOptions::multimodular` off and on and at worker counts
/// 1 and 4, renders byte-identically — and with the flag on, the lift
/// actually engages on the fractional-coefficient targets (its counters
/// move) while the profitability gate bypasses it on the small all-integer
/// ones, rather than either path being silently skipped.
#[test]
fn multimodular_mapping_is_byte_identical_at_any_worker_count() {
    // The profitability gate reads the ideal generators — the library side
    // relations, not the target — so engaging the lift needs a library
    // element with a fractional coefficient (`1/3` here, as in the scaled
    // fixed-point kernels that motivate the lift).
    let library = {
        let mut lib = (*library()).clone();
        lib.push(
            LibraryElement::builder("third_sq", "ts")
                .polynomial(Poly::parse("1/3*x^2").unwrap())
                .cycles(4)
                .energy_nj(4.0)
                .accuracy(1e-9)
                .build()
                .unwrap(),
        );
        Arc::new(lib)
    };
    let targets = [
        "x^2 + 2*x*y + 1/3*y^2",
        "x^2 - y^2 + z^2",
        "x*y + 5/2*x^2 - 3",
        "x^3 - x*y + 4*z^2",
    ];
    let jobs = |multimodular: bool| -> Vec<MapJob> {
        targets
            .iter()
            .enumerate()
            .map(|(i, t)| {
                MapJob::new(
                    format!("mm-{i}"),
                    Poly::parse(t).unwrap(),
                    Arc::clone(&library),
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
    };
    let mut renders = Vec::new();
    for multimodular in [false, true] {
        for workers in [1, 4] {
            let result = engine(workers).run(&jobs(multimodular));
            if multimodular {
                let engaged = result.stats.lift_success + result.stats.lift_fallback;
                assert!(engaged >= 1, "the lift never engaged at {workers} workers");
                assert!(
                    result.stats.lift_bypass >= 1,
                    "the profitability gate never bypassed at {workers} workers"
                );
            }
            renders.push(format!("{:?}", result.outcomes));
        }
    }
    assert!(
        renders.iter().all(|r| r == &renders[0]),
        "mapping output depends on the multimodular flag or worker count"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_batches_map_identically_at_any_worker_count(
        raw_targets in proptest::collection::vec(
            proptest::collection::vec((0u32..4, 0u32..4, 0u32..3, -4i64..5), 1..5),
            1..8,
        ),
    ) {
        let library = library();
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

        let sequential = engine(1).run(&jobs);
        let parallel = engine(3).run(&jobs);
        prop_assert_eq!(
            format!("{:?}", parallel.outcomes),
            format!("{:?}", sequential.outcomes)
        );

        // Both must equal the historic path: a standalone Mapper per job
        // (fresh cache, same configuration), run on the calling thread.
        for (job, outcome) in jobs.iter().zip(&sequential.outcomes) {
            let standalone = Mapper::new(&job.library, job.config.clone())
                .map_polynomial(&job.target);
            prop_assert_eq!(
                format!("{:?}", outcome),
                format!("{:?}", &standalone),
                "job {} diverged from the standalone mapper", job.label
            );
        }

        // Solutions that exist are valid rewrites.
        for solution in sequential.solutions() {
            prop_assert!(solution.verify());
        }
    }

    /// Soundness of the fingerprint-index prune: for every random target the
    /// index keeps exactly the elements the full-library support scan keeps,
    /// in the same order. The mapper is deterministic given its candidate
    /// list, so no target can lose a feasible solution to the prune.
    #[test]
    fn pruning_never_loses_a_feasible_solution(
        raw_targets in proptest::collection::vec(
            proptest::collection::vec((0u32..4, 0u32..4, 0u32..3, -4i64..5), 1..5),
            1..8,
        ),
    ) {
        let library = library();
        for (i, terms) in raw_targets.iter().enumerate() {
            let target = target_from_terms(terms);
            let tvars = target.vars();
            let scan: Vec<&str> = library
                .iter()
                .filter(|e| e.polynomial().vars().iter().any(|v| tvars.contains(v)))
                .map(|e| e.name())
                .collect();
            let indexed: Vec<&str> = library
                .candidates(&PolyFingerprint::of(&target))
                .elements
                .into_iter()
                .map(|e| e.name())
                .collect();
            prop_assert_eq!(indexed, scan, "target {} has different candidates", i);
        }
    }
}
