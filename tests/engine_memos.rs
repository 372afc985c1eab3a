//! The engine's memo layers on the MP3 kernel batch of `mapping_outputs.rs`
//! (11 kernels × the 6 Table 6 libraries + the full catalog, one engine, one
//! worker).
//!
//! Candidate guidance must be derived once per distinct target and each
//! normal form once per (basis, target) pair, and neither memo may move
//! anything the search can see: nodes explored and the basis cache's
//! counters must keep the values they had before the memos existed.

use std::collections::BTreeSet;

use symmap::algebra::groebner::GroebnerOptions;
use symmap::engine::{EngineConfig, MapperConfig, MappingEngine};
use symmap::platform::machine::Badge4;
use symmap_bench::table6_kernel_batch;

/// Values of this batch measured on the engine before either memo existed.
const NODES: usize = 227;
const CACHE_HITS: usize = 144;
const CACHE_MISSES: usize = 6;

/// Spelled out, like `mapping_outputs.rs`, so a change of default cannot
/// change what is counted. Tracing is on for the job transcript.
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

#[test]
fn memo_layers_derive_each_value_once_and_leave_the_search_unchanged() {
    let jobs = table6_kernel_batch(&Badge4::new(), &mapper_config());
    let result = MappingEngine::new(engine_config()).run(&jobs);
    let stats = &result.stats;
    let counter = |name: &str| stats.metrics.counter(name) as usize;

    let targets: BTreeSet<String> = jobs.iter().map(|j| j.target.to_string()).collect();
    assert_eq!(targets.len(), 11);
    assert_eq!(counter("guidance.misses"), 11);
    assert_eq!(counter("guidance.hits"), jobs.len() - 11);

    // Every priced subset requests one basis and reduces its job's target
    // modulo it, so the `cache.request` keys of a job's stream, paired with
    // the job's target, are the batch's (basis, target) pairs.
    let transcript = result
        .trace
        .as_ref()
        .expect("tracing was enabled")
        .deterministic_transcript();
    let mut job: Option<usize> = None;
    let mut requests = 0;
    let mut pairs = BTreeSet::new();
    for line in transcript.lines() {
        if let Some(header) = line.strip_prefix("job ") {
            let index = header.split_whitespace().next().expect("job index");
            job = Some(index.parse().expect("numeric job index"));
        } else if line.starts_with("compute ") {
            job = None;
        } else if let (Some(j), true) = (job, line.contains(" cache.request ")) {
            let key = line
                .split_whitespace()
                .find_map(|w| w.strip_prefix("key="))
                .expect("cache.request carries its key");
            requests += 1;
            pairs.insert((key.to_string(), jobs[j].target.to_string()));
        }
    }
    assert_eq!(requests, CACHE_HITS + CACHE_MISSES);
    assert_eq!(counter("nf.misses"), pairs.len());
    assert_eq!(counter("nf.hits"), requests - pairs.len());
    assert!(counter("nf.hits") > counter("nf.misses"));

    let nodes: usize = result.solutions().map(|s| s.nodes_explored).sum();
    assert_eq!(result.solutions().count(), jobs.len());
    assert_eq!(nodes, NODES);
    assert_eq!(
        (stats.cache_hits(), stats.cache_misses()),
        (CACHE_HITS, CACHE_MISSES)
    );
    // One core computation per miss, and the end-to-end benchmark's two
    // former per-layer readings keep their values.
    assert_eq!(
        stats.metrics.histograms["groebner.reductions"].count as usize,
        CACHE_MISSES
    );
    assert_eq!(
        (stats.cache_alpha_hits(), stats.cache_alpha_misses()),
        (0, CACHE_MISSES)
    );
}
