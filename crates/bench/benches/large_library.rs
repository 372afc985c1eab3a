//! The thousand-element-library bench: the fingerprint index against the
//! legacy full-library candidate scan on synthetic α-renamed catalogs of
//! ≈256 and ≈1024 elements (`symmap_libchar::synthetic`).
//!
//! The paper maps an 11-kernel decoder against a few dozen library elements,
//! where a linear scan is free. This bench is the scaling story beyond the
//! paper: when the library aggregates many subsystems' catalogs, the
//! per-element scan pays `Poly::vars()` (a sort plus a set build) for every
//! element on every mapping call, while the index answers the same question
//! with one mask test per support-homogeneous shard. Both return the same
//! candidates in the same order — asserted here before anything is timed —
//! and the mapper is deterministic given its candidate list.
//!
//! Quick mode (`SYMMAP_QUICK=1`) additionally enforces the regression floor
//! (index ≥ 5× faster than the legacy scan at ≈1024 elements), appends the
//! measured walls to `BENCH.json`, and writes the prune-rate metrics JSON
//! that CI uploads as an artifact (`target/trace/prune_metrics.json`).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use symmap_algebra::fingerprint::PolyFingerprint;
use symmap_algebra::poly::Poly;
use symmap_bench::mp3_kernel_jobs;
use symmap_engine::MapperConfig;
use symmap_libchar::synthetic::synthetic_large_library;
use symmap_libchar::{Library, LibraryElement};
use symmap_platform::machine::Badge4;

/// The two library scales: ≈256 and ≈1024 elements (the 22-element MP3
/// catalog replicated onto 11 and 46 disjoint variable pools).
const SCALES: [(&str, usize); 2] = [("256", 11), ("1024", 46)];

/// The legacy candidate scan, verbatim from the mapper's former full-scan
/// path: support-intersection via `Poly::vars()` over every element, per
/// call.
fn legacy_scan<'a>(library: &'a Library, target: &Poly) -> Vec<&'a LibraryElement> {
    let tvars = target.vars();
    library
        .iter()
        .filter(|e| e.polynomial().vars().iter().any(|v| tvars.contains(v)))
        .collect()
}

/// The 11 MP3 kernel targets mapped against `library`.
fn kernel_targets(library: &Arc<Library>) -> Vec<Poly> {
    mp3_kernel_jobs(library, &MapperConfig::default())
        .into_iter()
        .map(|j| j.target)
        .collect()
}

/// Asserts the index keeps exactly the legacy scan's candidates, in scan
/// order, for every target. Returns the prune stats `(rejected, kept,
/// shards_skipped)` summed over the targets — what one mapping batch
/// records — for the prune-metrics artifact.
fn assert_identical_candidates(library: &Library, targets: &[Poly]) -> (usize, usize, usize) {
    let mut prune = (0, 0, 0);
    for t in targets {
        let scan = library.candidates(&PolyFingerprint::of(t));
        let legacy = legacy_scan(library, t);
        assert!(
            scan.elements.len() == legacy.len()
                && scan
                    .elements
                    .iter()
                    .zip(&legacy)
                    .all(|(a, b)| std::ptr::eq(*a, *b)),
            "fingerprint index changed the candidate list"
        );
        prune.0 += scan.stats.rejected;
        prune.1 += scan.stats.kept;
        prune.2 += scan.stats.shards_skipped;
    }
    assert!(prune.1 > 0, "the index kept no candidates");
    assert!(
        prune.0 > prune.1,
        "a redundant synthetic library should prune more than it keeps"
    );
    prune
}

/// Writes the prune-rate metrics JSON CI uploads as an artifact. The path
/// is anchored at the workspace root (bench processes run with the package
/// directory as CWD, so a relative path would land under `crates/bench/`).
fn write_prune_metrics(rows: &[(String, usize, usize, usize, usize)]) {
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root")
        .to_path_buf();
    let dir = root.join("target/trace");
    let dir = dir.as_path();
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("large_library: cannot create {}: {e}", dir.display());
        return;
    }
    let mut json = String::from("{\n  \"schema\": 1,\n  \"libraries\": [\n");
    for (i, (label, elements, rejected, kept, shards_skipped)) in rows.iter().enumerate() {
        let rate = *rejected as f64 / (rejected + kept).max(1) as f64;
        json.push_str(&format!(
            "    {{\"library\": \"{label}\", \"elements\": {elements}, \
             \"rejected\": {rejected}, \"kept\": {kept}, \
             \"shards_skipped\": {shards_skipped}, \"prune_rate\": {rate:.4}}}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = dir.join("prune_metrics.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote prune metrics to {}", path.display()),
        Err(e) => eprintln!("large_library: cannot write {}: {e}", path.display()),
    }
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var("SYMMAP_QUICK").is_ok();
    let badge = Badge4::new();

    if quick {
        use symmap_bench::quickbench;
        let mut entries = Vec::new();
        let mut prune_rows = Vec::new();
        for (label, groups) in SCALES {
            let library = Arc::new(synthetic_large_library(&badge, groups));
            let targets = kernel_targets(&library);
            let (rejected, kept, shards_skipped) = assert_identical_candidates(&library, &targets);
            prune_rows.push((
                label.to_string(),
                library.len(),
                rejected,
                kept,
                shards_skipped,
            ));

            let fps: Vec<PolyFingerprint> = targets.iter().map(PolyFingerprint::of).collect();
            // Warm steady state: the candidate scan runs once per mapping
            // call, so one iteration sweeps all 11 kernels.
            let index_ns = quickbench::measure_ns(20, 9, || {
                for fp in &fps {
                    criterion::black_box(library.candidates(fp));
                }
            });
            // The legacy scan runs hundreds of ms per sweep at the large
            // scale — sample it thinly (the gap to the index is orders of
            // magnitude, so sampling noise cannot flip the verdict).
            let legacy_ns = quickbench::measure_ns(1, 3, || {
                for t in &targets {
                    criterion::black_box(legacy_scan(&library, t));
                }
            });
            let ratio = legacy_ns as f64 / index_ns as f64;
            println!(
                "large_library — {} elements ({} shards): index {index_ns} ns, \
                 legacy {legacy_ns} ns, speedup {ratio:.1}x",
                library.len(),
                library.shards().len(),
            );
            println!(
                "  prune: {rejected} rejected / {kept} kept, {shards_skipped} shards skipped whole"
            );
            if label == "1024" {
                assert!(
                    ratio >= 5.0,
                    "index only {ratio:.1}x faster than the legacy scan at \
                     ≈1024 elements (floor is 5x)"
                );
            }
            entries.push(quickbench::entry(
                format!("large_library/scan-{label}-index"),
                index_ns,
                None,
            ));
            entries.push(quickbench::entry(
                format!("large_library/scan-{label}-legacy"),
                legacy_ns,
                None,
            ));
        }
        quickbench::append_entries(&entries);
        write_prune_metrics(&prune_rows);
        println!(
            "recorded {} entries to {}\n",
            entries.len(),
            quickbench::bench_json_path().display()
        );
        return;
    }

    for (label, groups) in SCALES {
        let library = Arc::new(synthetic_large_library(&badge, groups));
        let targets = kernel_targets(&library);
        assert_identical_candidates(&library, &targets);
        let fps: Vec<PolyFingerprint> = targets.iter().map(PolyFingerprint::of).collect();
        c.bench_function(&format!("large_library/scan-{label}-index"), |b| {
            b.iter(|| {
                for fp in &fps {
                    criterion::black_box(library.candidates(fp));
                }
            })
        });
        c.bench_function(&format!("large_library/scan-{label}-legacy"), |b| {
            b.iter(|| {
                for t in &targets {
                    criterion::black_box(legacy_scan(&library, t));
                }
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench
}
criterion_main!(benches);
