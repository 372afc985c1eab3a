//! Machine-readable perf records for the quick-mode bench runs.
//!
//! `SYMMAP_QUICK=1` bench runs are deterministic regression guards, but until
//! now their wall-clock numbers scrolled past and vanished. This module
//! appends one JSON entry per benchmark to `BENCH.json` at the workspace root
//! so the perf trajectory accumulates across PRs: every entry records the
//! benchmark name, the measured wall clock, the exact S-polynomial reduction
//! count where one exists (reduction counts are representation-independent,
//! so they anchor wall-clock entries from different machines), and a
//! free-text note (`SYMMAP_BENCH_NOTE`) identifying the run.
//!
//! The file is self-describing and append-only (schema 2 adds structured
//! `pr` and `hw_threads` fields — the PR that recorded the entry and the
//! hardware thread count of the recording machine — which used to be stuffed
//! unparseably into the free-text note):
//!
//! ```json
//! {
//!   "schema": 2,
//!   "entries": [
//!     {"bench": "groebner_engine/mapper-side-relations", "wall_ns": 1234, "reductions": 7, "pr": 3, "hw_threads": 1, "note": "baseline"}
//!   ]
//! }
//! ```
//!
//! The merger and the `perfgate` regression gate only have to re-read a file
//! this module itself wrote, so the parser is deliberately line-oriented
//! rather than a general JSON reader.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// One benchmark measurement destined for `BENCH.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuickEntry {
    /// Benchmark identifier, e.g. `poly_arith/mul`.
    pub bench: String,
    /// Median wall clock of one iteration, in nanoseconds.
    pub wall_ns: u128,
    /// Exact S-polynomial reduction count, when the workload has one.
    pub reductions: Option<u64>,
    /// The PR this entry was recorded under (schema 2): `SYMMAP_BENCH_PR`
    /// of the recording run, absent when it was unset and in never-migrated
    /// legacy lines.
    pub pr: Option<u32>,
    /// Hardware threads of the recording machine (schema 2). `perfgate`
    /// only compares entries whose `hw_threads` match, so numbers from
    /// different machines are never judged against each other.
    pub hw_threads: Option<u32>,
    /// Free-text provenance (from `SYMMAP_BENCH_NOTE`), e.g. `"ci quick"`.
    pub note: String,
}

impl QuickEntry {
    fn to_json_line(&self) -> String {
        let mut s = String::new();
        write!(
            s,
            "    {{\"bench\": \"{}\", \"wall_ns\": {}",
            escape(&self.bench),
            self.wall_ns
        )
        .expect("writing to String cannot fail");
        if let Some(r) = self.reductions {
            write!(s, ", \"reductions\": {r}").expect("writing to String cannot fail");
        }
        if let Some(pr) = self.pr {
            write!(s, ", \"pr\": {pr}").expect("writing to String cannot fail");
        }
        if let Some(hw) = self.hw_threads {
            write!(s, ", \"hw_threads\": {hw}").expect("writing to String cannot fail");
        }
        write!(s, ", \"note\": \"{}\"}}", escape(&self.note)).expect("write to String");
        s
    }
}

/// Builds an entry for the current run: `pr` from `SYMMAP_BENCH_PR` (no
/// `pr` field when it is unset), `hw_threads` from the running machine, `note`
/// from `SYMMAP_BENCH_NOTE`.
pub fn entry(bench: impl Into<String>, wall_ns: u128, reductions: Option<u64>) -> QuickEntry {
    QuickEntry {
        bench: bench.into(),
        wall_ns,
        reductions,
        pr: pr_for_run(),
        hw_threads: Some(hw_threads()),
        note: run_note(),
    }
}

/// The PR number stamped on this run's entries: `SYMMAP_BENCH_PR`, or none
/// when it is unset or not a number.
pub fn pr_for_run() -> Option<u32> {
    std::env::var("SYMMAP_BENCH_PR")
        .ok()
        .and_then(|v| v.trim().parse().ok())
}

/// Hardware thread count of this machine (1 when undetectable).
pub fn hw_threads() -> u32 {
    std::thread::available_parallelism()
        .map(|p| p.get() as u32)
        .unwrap_or(1)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            // All control characters must be escaped for valid JSON, not
            // just newline — notes come from an env var.
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// The provenance note for this run, from `SYMMAP_BENCH_NOTE` (empty when
/// unset).
pub fn run_note() -> String {
    std::env::var("SYMMAP_BENCH_NOTE").unwrap_or_default()
}

/// Path of `BENCH.json` at the workspace root.
pub fn bench_json_path() -> PathBuf {
    // crates/bench -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives two levels below the workspace root")
        .join("BENCH.json")
}

/// Appends entries to `BENCH.json`, preserving every previously recorded
/// entry (the file is the accumulating perf trajectory).
pub fn append_entries(new_entries: &[QuickEntry]) {
    let path = bench_json_path();
    let mut lines: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(&path) {
        for line in existing.lines() {
            let t = line.trim_start();
            if t.starts_with("{\"bench\"") {
                lines.push(t.trim_end_matches(',').to_string());
            }
        }
    }
    for e in new_entries {
        lines.push(e.to_json_line().trim_start().to_string());
    }
    let mut out = String::from("{\n  \"schema\": 2,\n  \"entries\": [\n");
    for (i, l) in lines.iter().enumerate() {
        let sep = if i + 1 == lines.len() { "" } else { "," };
        writeln!(out, "    {l}{sep}").expect("writing to String cannot fail");
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out).expect("BENCH.json must be writable");
}

/// Extracts a `"key": "string"` field from one machine-written entry line
/// (unescaping the two escapes [`escape`] emits for `"` and `\`; `\uXXXX`
/// control escapes are left verbatim — nothing downstream compares notes).
fn string_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let start = line.find(&tag)? + tag.len();
    let rest = &line[start..];
    let mut out = String::new();
    let mut chars = rest.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => return Some(out),
            '\\' => {
                let escaped = chars.next()?;
                if escaped == 'u' {
                    // `\uXXXX` control escapes stay verbatim (escape() only
                    // ever *writes* them; nothing unescapes them), so keep
                    // the backslash rather than swallowing it.
                    out.push('\\');
                }
                out.push(escaped);
            }
            c => out.push(c),
        }
    }
    None
}

/// Extracts a `"key": 123` integer field from one entry line.
fn int_field(line: &str, key: &str) -> Option<u128> {
    let tag = format!("\"{key}\": ");
    let start = line.find(&tag)? + tag.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Parses one `BENCH.json` entry line back into a [`QuickEntry`]. Legacy
/// (schema 1) lines parse with `pr`/`hw_threads` as `None`.
pub fn parse_entry_line(line: &str) -> Option<QuickEntry> {
    Some(QuickEntry {
        bench: string_field(line, "bench")?,
        wall_ns: int_field(line, "wall_ns")?,
        reductions: int_field(line, "reductions").map(|r| r as u64),
        pr: int_field(line, "pr").map(|p| p as u32),
        hw_threads: int_field(line, "hw_threads").map(|h| h as u32),
        note: string_field(line, "note").unwrap_or_default(),
    })
}

/// Reads every recorded entry from `BENCH.json`, in file (chronological)
/// order. Missing file → empty trajectory.
pub fn read_entries() -> Vec<QuickEntry> {
    let Ok(existing) = std::fs::read_to_string(bench_json_path()) else {
        return Vec::new();
    };
    existing
        .lines()
        .filter_map(|line| {
            let t = line.trim_start();
            if t.starts_with("{\"bench\"") {
                parse_entry_line(t)
            } else {
                None
            }
        })
        .collect()
}

/// Median per-iteration wall clock of `f`, in nanoseconds.
///
/// Runs `samples` timed batches of `iters` calls each after a small warm-up
/// and reports the median batch divided by `iters` — robust against one-off
/// scheduler noise without needing a statistics dependency.
pub fn measure_ns<F: FnMut()>(iters: u32, samples: usize, mut f: F) -> u128 {
    warm_up(iters, &mut f);
    let batches = (0..samples.max(1))
        .map(|_| batch_ns(iters, &mut f))
        .collect();
    median_per_iter(batches, iters)
}

/// [`measure_ns`] for two workloads timed against each other: `samples`
/// rounds, each timing one batch of `a` and then one of `b`, so both
/// medians sample the same stretch of machine load. Returns the two
/// per-iteration medians, `a`'s first.
pub fn measure_alternating_ns<A: FnMut(), B: FnMut()>(
    (iters_a, mut a): (u32, A),
    (iters_b, mut b): (u32, B),
    samples: usize,
) -> (u128, u128) {
    warm_up(iters_a, &mut a);
    warm_up(iters_b, &mut b);
    let (batches_a, batches_b) = (0..samples.max(1))
        .map(|_| (batch_ns(iters_a, &mut a), batch_ns(iters_b, &mut b)))
        .unzip();
    (
        median_per_iter(batches_a, iters_a),
        median_per_iter(batches_b, iters_b),
    )
}

fn warm_up(iters: u32, f: &mut impl FnMut()) {
    for _ in 0..iters.min(3) {
        f();
    }
}

/// Wall clock of one batch of `iters` calls, in nanoseconds.
fn batch_ns(iters: u32, f: &mut impl FnMut()) -> u128 {
    let start = Instant::now();
    for _ in 0..iters.max(1) {
        f();
    }
    start.elapsed().as_nanos()
}

fn median_per_iter(mut batches: Vec<u128>, iters: u32) -> u128 {
    batches.sort_unstable();
    batches[batches.len() / 2] / iters.max(1) as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let e = QuickEntry {
            bench: "poly_arith/mul".into(),
            wall_ns: 42,
            reductions: Some(7),
            pr: Some(5),
            hw_threads: Some(4),
            note: "unit \"test\"".into(),
        };
        let line = e.to_json_line();
        assert!(line.contains("\"bench\": \"poly_arith/mul\""));
        assert!(line.contains("\"wall_ns\": 42"));
        assert!(line.contains("\"reductions\": 7"));
        assert!(line.contains("\"pr\": 5"));
        assert!(line.contains("\"hw_threads\": 4"));
        assert!(line.contains("unit \\\"test\\\""));
        let no_red = QuickEntry {
            reductions: None,
            pr: None,
            hw_threads: None,
            ..e.clone()
        };
        let bare = no_red.to_json_line();
        assert!(!bare.contains("reductions"));
        assert!(!bare.contains("\"pr\""));
        assert!(!bare.contains("hw_threads"));
        // Control characters are escaped so the file stays valid JSON.
        assert_eq!(escape("a\tb\r\nc"), "a\\u0009b\\u000d\\u000ac");
        // Writer → parser round trip, structured fields included.
        assert_eq!(parse_entry_line(&line), Some(e));
        assert_eq!(parse_entry_line(&bare), Some(no_red));
    }

    #[test]
    fn entry_builder_stamps_run_metadata() {
        let e = entry("wide_interner/test", 99, Some(5));
        assert_eq!(e.bench, "wide_interner/test");
        assert_eq!(e.wall_ns, 99);
        assert_eq!(e.reductions, Some(5));
        assert!(e.hw_threads.is_some());
        // The PR comes from SYMMAP_BENCH_PR alone: no stale default.
        match std::env::var("SYMMAP_BENCH_PR") {
            Ok(v) => assert_eq!(e.pr, v.trim().parse().ok()),
            Err(_) => assert_eq!(e.pr, None),
        }
    }

    #[test]
    fn legacy_schema1_lines_parse_without_structured_fields() {
        let legacy = r#"{"bench": "groebner_engine/twisted-cubic", "wall_ns": 34495, "reductions": 5, "note": "PR3 pre-refactor baseline"}"#;
        let e = parse_entry_line(legacy).unwrap();
        assert_eq!(e.bench, "groebner_engine/twisted-cubic");
        assert_eq!(e.wall_ns, 34495);
        assert_eq!(e.reductions, Some(5));
        assert_eq!((e.pr, e.hw_threads), (None, None));
        assert_eq!(e.note, "PR3 pre-refactor baseline");
    }

    #[test]
    fn measure_returns_positive_for_nontrivial_work() {
        let ns = measure_ns(4, 3, || {
            let v: Vec<u64> = (0..512).collect();
            assert_eq!(criterion::black_box(v).len(), 512);
        });
        assert!(ns > 0);
    }

    #[test]
    fn bench_json_path_is_at_workspace_root() {
        let p = bench_json_path();
        assert!(p.ends_with("BENCH.json"));
        assert!(p.parent().unwrap().join("Cargo.toml").exists());
    }
}
