//! Model of the shared Gröbner cache's compute-outside-lock / adopt-winner
//! shard protocol. Its sites in `crates/algebra/src/groebner.rs`:
//!
//! * the basis layers: `SharedGroebnerCache::basis`, `local_basis` and
//!   `fp_basis_for`;
//! * the guidance layer: `SharedGroebnerCache::guidance`;
//! * the per-basis normal-form memo: `GroebnerBasis::reduce`, through
//!   `NfMemo::get` (step 1) and `FifoMemo::publish` (step 3).
//!
//! The two memo layers have one lock each instead of shards; with one
//! racing key that is the case modelled here.
//!
//! The real protocol, per thread, for one cache key:
//!
//! 1. lock the shard; on hit, record the cached `Arc` and return (hit++);
//!    on miss, miss++ and unlock;
//! 2. compute the basis **outside** the lock (this is the expensive part —
//!    holding the shard lock across a Gröbner run would serialize the
//!    pool);
//! 3. re-lock; if some other thread inserted the key while we computed,
//!    **adopt** the winner's `Arc` and drop our own result; otherwise
//!    insert ours (insert++).
//!
//! The model keeps exactly that step structure — each critical section is
//! one atomic step (see the fidelity note in [`crate::model`]) — with all
//! threads racing on one key of one shard, the worst case. What must hold:
//!
//! * **linearizable adoption**: exactly one thread's result is ever
//!   published, everyone ends up holding that same result;
//! * **no torn entry**: the shard never holds two entries for the key
//!   (`len ≤ 1` in every reachable state);
//! * **counter consistency**: `hits + misses == threads`, `inserts == 1`,
//!   and at least one miss (the key starts absent).
//!
//! The [`AdoptionModel::torn_adoption`] mutant deletes the re-check in
//! step 3 — every computing thread blindly inserts. The checker must
//! catch it (duplicate entry / over-count), proving the harness detects
//! the bug class this protocol exists to prevent.

use super::Model;

/// Per-thread program counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pc {
    /// About to take the shard lock and probe the key.
    Lookup,
    /// Missed; computing the basis outside the lock.
    Compute,
    /// Computed; about to re-lock and adopt-or-insert.
    Publish,
    /// Finished, holding a result.
    Done,
}

/// The shard protocol with `n` threads racing on one absent key.
#[derive(Debug, Clone)]
pub struct AdoptionModel {
    pc: Vec<Pc>,
    /// The shard's single slot for the contended key: `Some(tid)` records
    /// which thread's computed value is published.
    entry: Option<usize>,
    /// The shard's entry count for the key — tracked separately from
    /// `entry` precisely so a torn double-insert is *observable* as
    /// `len == 2` rather than silently collapsing.
    len: usize,
    inserts: usize,
    hits: usize,
    misses: usize,
    /// Which thread's value each thread ended up holding.
    results: Vec<Option<usize>>,
    /// Mutant switch: skip the existence re-check on publish.
    torn_adoption: bool,
}

impl AdoptionModel {
    /// The faithful protocol with `threads` racing threads.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 2, "a race needs at least two threads");
        AdoptionModel {
            pc: vec![Pc::Lookup; threads],
            entry: None,
            len: 0,
            inserts: 0,
            hits: 0,
            misses: 0,
            results: vec![None; threads],
            torn_adoption: false,
        }
    }

    /// The seeded-bug mutant: publish inserts unconditionally, without
    /// re-checking whether a winner already exists.
    pub fn torn_adoption(threads: usize) -> Self {
        AdoptionModel {
            torn_adoption: true,
            ..Self::new(threads)
        }
    }
}

impl Model for AdoptionModel {
    fn thread_count(&self) -> usize {
        self.pc.len()
    }

    fn enabled(&self, tid: usize) -> bool {
        self.pc[tid] != Pc::Done
    }

    fn step(&mut self, tid: usize) {
        match self.pc[tid] {
            // Critical section 1: probe under the shard lock.
            Pc::Lookup => match self.entry {
                Some(winner) => {
                    self.hits += 1;
                    self.results[tid] = Some(winner);
                    self.pc[tid] = Pc::Done;
                }
                None => {
                    self.misses += 1;
                    self.pc[tid] = Pc::Compute;
                }
            },
            // The Gröbner run itself: no shared state touched.
            Pc::Compute => self.pc[tid] = Pc::Publish,
            // Critical section 2: adopt the winner or insert our result.
            Pc::Publish => {
                match self.entry {
                    Some(winner) if !self.torn_adoption => {
                        // Someone beat us while we computed: adopt theirs,
                        // drop ours.
                        self.results[tid] = Some(winner);
                    }
                    _ => {
                        self.entry = Some(tid);
                        self.len += 1;
                        self.inserts += 1;
                        self.results[tid] = Some(tid);
                    }
                }
                self.pc[tid] = Pc::Done;
            }
            Pc::Done => unreachable!("stepped a terminated thread"),
        }
    }

    fn check_state(&self) -> Option<String> {
        if self.len > 1 {
            return Some(format!(
                "torn entry: shard holds {} entries for one key",
                self.len
            ));
        }
        if (self.len == 1) != self.entry.is_some() {
            return Some(format!(
                "shard accounting torn: len = {} but entry = {:?}",
                self.len, self.entry
            ));
        }
        None
    }

    fn check_final(&self) -> Option<String> {
        let n = self.thread_count();
        if self.inserts != 1 {
            return Some(format!(
                "adoption not linearizable: {} inserts for one key (want exactly 1)",
                self.inserts
            ));
        }
        if self.len != 1 {
            return Some(format!("final shard len {} (want 1)", self.len));
        }
        if self.hits + self.misses != n {
            return Some(format!(
                "counter drift: hits {} + misses {} != threads {}",
                self.hits, self.misses, n
            ));
        }
        if self.misses == 0 {
            return Some("no thread missed, yet the key started absent".to_string());
        }
        let winner = self.entry.expect("len == 1 implies a published entry");
        for (tid, result) in self.results.iter().enumerate() {
            if *result != Some(winner) {
                return Some(format!(
                    "thread {tid} holds {result:?} but the published winner is {winner} \
                     — results diverge"
                ));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{check, replay, Config};

    #[test]
    fn faithful_protocol_is_linearizable_two_threads() {
        let report = check(&AdoptionModel::new(2), Config::default());
        assert!(report.passed(), "{:?}", report.violation);
        // 2 threads × ≤3 steps each, hits shorten a path: > 1 execution,
        // bounded by C(6,3) = 20.
        assert!(report.executions > 1 && report.executions <= 20);
    }

    #[test]
    fn faithful_protocol_is_linearizable_three_threads() {
        let report = check(&AdoptionModel::new(3), Config::default());
        assert!(report.passed(), "{:?}", report.violation);
        // All-miss schedules alone contribute 9!/(3!)^3 = 1680 orderings'
        // worth of structure; hit paths prune some. Sanity-bound it.
        assert!(report.executions > 100, "got {}", report.executions);
    }

    #[test]
    fn torn_adoption_mutant_is_caught() {
        let report = check(&AdoptionModel::torn_adoption(2), Config::default());
        let violation = report.violation.expect("the torn adoption must be found");
        assert!(
            violation.message.contains("torn entry") || violation.message.contains("inserts"),
            "unexpected message: {}",
            violation.message
        );
        // The witness replays deterministically.
        let replayed =
            replay(&AdoptionModel::torn_adoption(2), &violation.schedule).expect("reproduces");
        assert_eq!(replayed.message, violation.message);
    }

    #[test]
    fn mutant_witness_is_the_compute_overlap() {
        // The classic interleaving: both threads miss, both compute, both
        // publish — the mutant double-inserts. The faithful model survives
        // the same schedule.
        let schedule = [0, 1, 0, 1, 0, 1];
        assert!(replay(&AdoptionModel::torn_adoption(2), &schedule).is_some());
        assert!(replay(&AdoptionModel::new(2), &schedule).is_none());
    }
}
