//! Model of the batch pool's own-front / steal-back deque
//! (`crates/engine/src/pool.rs`, `run_batch_observed` / `worker_loop`).
//!
//! The real pool deals jobs round-robin into per-worker deques up front (no
//! jobs are produced later). Each worker then loops: pop the **front** of
//! its own deque and run the job; when its own deque is empty, scan the
//! other workers in ring order and steal from the **back** of the first
//! non-empty victim; when every queue it can see is empty, terminate. Each
//! pop — own or steal — is one mutex-guarded operation, so the model makes
//! each a single atomic step (fidelity note in [`crate::model`]).
//!
//! Running the job is folded into the pop that claimed it rather than
//! modeled as its own step: execution touches only the claiming worker's
//! private state (`executed` is written by exactly one thread per job and
//! only *read* by the invariant checks), so giving it a separate step
//! would multiply interleavings ~20× without making any additional
//! behavior observable — a standard partial-order reduction.
//!
//! What must hold, in every interleaving:
//!
//! * **no duplicated job**: `executed[j] ≤ 1` in every reachable state;
//! * **no lost job**: at termination every job has run exactly once and
//!   every queue is empty.
//!
//! The [`DequeModel::racy_steal`] mutant splits the steal into a *peek* of
//! the victim's back (stashing the job id) and a later *blind pop* that
//! discards whatever is at the back by then and runs the stashed id — the
//! classic TOCTOU a lock-free thief commits when it validates the wrong
//! thing. Racing against the owner (or a second thief) this both
//! duplicates the stashed job and loses the blindly-popped one; the
//! checker must catch it.

use std::collections::VecDeque;

use super::Model;

/// Per-worker program counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pc {
    /// About to pop the front of its own deque (or start scanning).
    PopOwn,
    /// Own deque empty; about to probe victim `(me + k) % n`.
    Scan { k: usize },
    /// Mutant only: peeked `job` at the back of `victim`, pop still pending.
    StealPeeked { victim: usize, job: usize },
    /// Saw every queue empty; terminated.
    Done,
}

/// The pool's deque discipline with jobs dealt round-robin, as
/// `run_batch_observed` deals them.
#[derive(Debug, Clone)]
pub struct DequeModel {
    pc: Vec<Pc>,
    queues: Vec<VecDeque<usize>>,
    /// Times each job has run.
    executed: Vec<u32>,
    /// Mutant switch: steal via peek-then-blind-pop instead of one atomic
    /// pop.
    racy_steal: bool,
}

impl DequeModel {
    /// The faithful discipline: `jobs` jobs dealt round-robin over
    /// `workers` deques.
    pub fn new(workers: usize, jobs: usize) -> Self {
        assert!(workers >= 2, "a race needs at least two workers");
        let mut queues = vec![VecDeque::new(); workers];
        for job in 0..jobs {
            queues[job % workers].push_back(job);
        }
        DequeModel {
            pc: vec![Pc::PopOwn; workers],
            queues,
            executed: vec![0; jobs],
            racy_steal: false,
        }
    }

    /// The seeded-bug mutant with the two-step steal.
    pub fn racy_steal(workers: usize, jobs: usize) -> Self {
        DequeModel {
            racy_steal: true,
            ..Self::new(workers, jobs)
        }
    }

    /// Number of jobs in the model.
    pub fn job_count(&self) -> usize {
        self.executed.len()
    }
}

impl Model for DequeModel {
    fn thread_count(&self) -> usize {
        self.pc.len()
    }

    fn enabled(&self, tid: usize) -> bool {
        self.pc[tid] != Pc::Done
    }

    fn step(&mut self, tid: usize) {
        let n = self.thread_count();
        match self.pc[tid] {
            // One locked operation: pop own front (and run the claimed job).
            Pc::PopOwn => match self.queues[tid].pop_front() {
                Some(job) => self.executed[job] += 1,
                None => self.pc[tid] = Pc::Scan { k: 1 },
            },
            // One locked operation per victim probe.
            Pc::Scan { k } => {
                if k >= n {
                    // Scanned the whole ring and found nothing: done.
                    self.pc[tid] = Pc::Done;
                    return;
                }
                let victim = (tid + k) % n;
                if self.racy_steal {
                    // Mutant: *peek* the back now, pop later — the
                    // validate-then-act window the faithful code does not
                    // have.
                    match self.queues[victim].back().copied() {
                        Some(job) => self.pc[tid] = Pc::StealPeeked { victim, job },
                        None => self.pc[tid] = Pc::Scan { k: k + 1 },
                    }
                } else {
                    // Faithful: the steal is one atomic pop (and the
                    // stolen job runs). Stealers then return to their own
                    // loop; the next own pop finds it empty and rescans.
                    match self.queues[victim].pop_back() {
                        Some(job) => {
                            self.executed[job] += 1;
                            self.pc[tid] = Pc::PopOwn;
                        }
                        None => self.pc[tid] = Pc::Scan { k: k + 1 },
                    }
                }
            }
            // Mutant only: blindly pop whatever is at the back *now*,
            // discard it, and run the job peeked earlier.
            Pc::StealPeeked { victim, job } => {
                let _whatever_is_there_now = self.queues[victim].pop_back();
                self.executed[job] += 1;
                self.pc[tid] = Pc::PopOwn;
            }
            Pc::Done => unreachable!("stepped a terminated worker"),
        }
    }

    fn check_state(&self) -> Option<String> {
        for (job, &count) in self.executed.iter().enumerate() {
            if count > 1 {
                return Some(format!("job {job} executed {count} times (duplicated)"));
            }
        }
        None
    }

    fn check_final(&self) -> Option<String> {
        for (job, &count) in self.executed.iter().enumerate() {
            if count != 1 {
                return Some(format!(
                    "job {job} executed {count} times at termination (lost or duplicated)"
                ));
            }
        }
        for (worker, queue) in self.queues.iter().enumerate() {
            if !queue.is_empty() {
                return Some(format!(
                    "worker {worker}'s queue still holds {} jobs after every worker terminated",
                    queue.len()
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
    fn faithful_deque_neither_loses_nor_duplicates_two_workers() {
        let report = check(&DequeModel::new(2, 4), Config::default());
        assert!(report.passed(), "{:?}", report.violation);
        assert!(report.executions > 1);
    }

    #[test]
    fn faithful_deque_neither_loses_nor_duplicates_three_workers() {
        let report = check(&DequeModel::new(3, 3), Config::default());
        assert!(report.passed(), "{:?}", report.violation);
    }

    #[test]
    fn racy_steal_mutant_is_caught() {
        let report = check(&DequeModel::racy_steal(2, 3), Config::default());
        let violation = report.violation.expect("the racy steal must be found");
        assert!(
            violation.message.contains("duplicated") || violation.message.contains("lost"),
            "unexpected message: {}",
            violation.message
        );
        let replayed =
            replay(&DequeModel::racy_steal(2, 3), &violation.schedule).expect("reproduces");
        assert_eq!(replayed.message, violation.message);
    }

    #[test]
    fn faithful_model_survives_the_mutant_witness() {
        let violation = check(&DequeModel::racy_steal(2, 3), Config::default())
            .violation
            .expect("mutant violation");
        // Replaying the mutant's witness against the faithful model must
        // not reproduce the bug. The faithful model has no StealPeeked
        // state, so the schedule may stop fitting partway — walk it only
        // while it fits.
        let mut state = DequeModel::new(2, 3);
        for &tid in &violation.schedule {
            if !state.enabled(tid) {
                break;
            }
            state.step(tid);
            assert!(
                state.check_state().is_none(),
                "faithful model violated by the mutant's witness"
            );
        }
    }
}
