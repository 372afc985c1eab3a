//! Pins the mapper's outputs on the MP3 kernel batch.
//!
//! The 11 MP3 kernels are mapped against each Table 6 library and the full
//! catalog through one `MappingEngine`. Two renderings are compared with a
//! fixture: `{:?}` of every outcome (including `nodes_explored`, which the
//! end-to-end goldens omit) and the deterministic trace transcript (job
//! streams plus compute streams; see `trace_determinism.rs`). A change that
//! only speeds the mapper up must leave both byte-identical.
//!
//! Keep this the only test in its binary: `{:?}` of a `SideRelations` prints
//! interner indices, which depend on the order the process interned names.

use symmap::algebra::groebner::GroebnerOptions;
use symmap::engine::{EngineConfig, MapperConfig, MappingEngine};
use symmap::platform::machine::Badge4;
use symmap_bench::table6_kernel_batch;

const FIXTURE: &str = include_str!("fixtures/mapping_outputs.txt");

/// The configuration is spelled out rather than taken from the defaults, so
/// the `SYMMAP_TEST_*` switches cannot change what is pinned.
fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 1,
        trace: true,
        ..EngineConfig::default()
    }
}

fn mapper_config() -> MapperConfig {
    MapperConfig {
        groebner: GroebnerOptions {
            multimodular: true,
            ..GroebnerOptions::default()
        },
        engine: engine_config(),
        ..MapperConfig::default()
    }
}

fn render() -> String {
    let result = MappingEngine::new(engine_config())
        .run(&table6_kernel_batch(&Badge4::new(), &mapper_config()));
    let mut out = String::new();
    for outcome in &result.outcomes {
        out.push_str(&format!("{outcome:?}\n"));
    }
    out.push_str("--- transcript\n");
    let trace = result.trace.expect("tracing was enabled");
    out.push_str(&trace.deterministic_transcript());
    out
}

/// To re-capture after a change that is meant to move mapping results, write
/// `render()` to the fixture file and review the diff.
#[test]
fn mp3_kernel_mappings_match_the_fixture() {
    let got = render();
    if got != FIXTURE {
        let first = got
            .lines()
            .zip(FIXTURE.lines())
            .position(|(g, f)| g != f)
            .unwrap_or_else(|| got.lines().count().min(FIXTURE.lines().count()));
        panic!(
            "mapping outputs diverged from tests/fixtures/mapping_outputs.txt at line {}:\n  got:      {}\n  expected: {}",
            first + 1,
            got.lines().nth(first).unwrap_or("<end>"),
            FIXTURE.lines().nth(first).unwrap_or("<end>"),
        );
    }
}
