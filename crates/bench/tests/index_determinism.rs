//! The fingerprint index is a pure pruning layer: for every kernel target it
//! keeps exactly the elements a full-library support scan keeps, in the same
//! order — on the paper's 11-kernel MP3 batch and on the synthetic
//! thousand-element-regime library the index was built for. The mapper is
//! deterministic given its candidate list, so this pins its output. The
//! batch must also render byte-identically on 1 or 4 workers, and the prune
//! counters must actually move (the fast path is exercised, not silently
//! skipped).

use std::sync::Arc;

use symmap_algebra::fingerprint::PolyFingerprint;
use symmap_bench::mp3_kernel_jobs;
use symmap_engine::{EngineConfig, MapperConfig, MappingEngine};
use symmap_libchar::catalog;
use symmap_libchar::synthetic::synthetic_large_library;
use symmap_libchar::{Library, LibraryElement};
use symmap_platform::machine::Badge4;

/// Asserts the index's candidate list equals the full support scan for
/// every MP3 kernel target, then runs the batch on 1 and 4 workers and
/// asserts both renders are byte-identical. Returns the prune stats
/// `(rejected, kept, shards_skipped)` of the batch for the caller's
/// visibility assertions.
fn assert_index_matches_scan(library: &Arc<Library>) -> (usize, usize, usize) {
    let jobs = mp3_kernel_jobs(library, &MapperConfig::default());
    for job in &jobs {
        let tvars = job.target.vars();
        let scan: Vec<*const LibraryElement> = library
            .iter()
            .filter(|e| e.polynomial().vars().iter().any(|v| tvars.contains(v)))
            .map(|e| e as *const _)
            .collect();
        let indexed: Vec<*const LibraryElement> = library
            .candidates(&PolyFingerprint::of(&job.target))
            .elements
            .into_iter()
            .map(|e| e as *const _)
            .collect();
        assert_eq!(
            indexed, scan,
            "index changed the candidates of {}",
            job.label
        );
    }
    let mut renders = Vec::new();
    let mut prune = (0, 0, 0);
    for workers in [1, 4] {
        let result = MappingEngine::new(EngineConfig {
            workers,
            ..EngineConfig::default()
        })
        .run(&jobs);
        prune = (
            result.stats.index_rejected,
            result.stats.index_kept,
            result.stats.index_shards_skipped,
        );
        renders.push(format!("{:?}", result.outcomes));
    }
    assert_eq!(
        renders[0], renders[1],
        "mapping output depends on the worker count"
    );
    prune
}

#[test]
fn mp3_batch_candidates_match_the_full_scan() {
    let badge = Badge4::new();
    let library = Arc::new(catalog::full_catalog(&badge));
    let (rejected, kept, _) = assert_index_matches_scan(&library);
    assert!(kept > 0, "the index kept no candidates on the MP3 batch");
    // The MP3 catalog is support-diverse enough that the scan prunes
    // something for at least one kernel.
    assert!(rejected > 0, "the index pruned nothing on the MP3 batch");
}

#[test]
fn synthetic_large_library_candidates_match_the_full_scan() {
    let badge = Badge4::new();
    // 8 α-renamed catalog copies ≈ 230 elements: the thousand-element shape
    // at a test-friendly size. The MP3 kernels only touch the base group, so
    // every copy's shards are skippable.
    let library: Arc<Library> = Arc::new(synthetic_large_library(&badge, 8));
    let (rejected, kept, shards_skipped) = assert_index_matches_scan(&library);
    assert!(
        kept > 0,
        "the index kept no candidates on the synthetic batch"
    );
    assert!(
        rejected > kept,
        "a 9×-redundant library should prune more than it keeps \
         (rejected {rejected}, kept {kept})"
    );
    assert!(
        shards_skipped > 0,
        "disjoint-support groups should be skipped at shard granularity"
    );
}
