//! A bounded interleaving model checker: a miniature loom on stable Rust.
//!
//! A [`Model`] is a small, cloneable state machine standing in for one of
//! the repo's concurrency kernels. Each model thread sits at some program
//! counter; [`Model::step`] advances one thread by one *atomic* step. The
//! explorer ([`check`]) owns the scheduler: at every decision point it
//! clones the state and recursively tries **every** enabled thread, so all
//! interleavings up to [`Config::max_steps`] are enumerated — the
//! nondeterminism the OS scheduler only samples, exhaustively.
//!
//! Two invariant hooks run the assertions: [`Model::check_state`] after
//! every step (safety that must hold in all reachable states) and
//! [`Model::check_final`] once no thread is enabled (end-to-end accounting).
//! A violation carries the exact schedule that produced it; [`replay`] runs
//! that schedule deterministically for debugging.
//!
//! # Fidelity
//!
//! The models collapse each mutex critical section of the real code into a
//! single atomic step. That is sound for data-race-free lock-based code:
//! two critical sections on the same mutex never interleave, so the only
//! observable schedules are orderings *of whole sections* — exactly what
//! the models enumerate. What the models deliberately do **not** cover is
//! relaxed-memory reordering inside `unsafe` atomics (the interner's
//! `AtomicPtr` publication in `var.rs` is argued by `// SAFETY:` comment,
//! not model-checked). See DESIGN.md §7 for the full argument.

pub mod cache;

/// A concurrency kernel abstracted into an exhaustively explorable state
/// machine.
pub trait Model: Clone {
    /// Number of model threads.
    fn thread_count(&self) -> usize;

    /// Can thread `tid` take a step in the current state? Threads at their
    /// terminal program counter return `false`.
    fn enabled(&self, tid: usize) -> bool;

    /// Advances thread `tid` by one atomic step. Only called when
    /// [`Model::enabled`] returns `true` for `tid`.
    fn step(&mut self, tid: usize);

    /// Safety invariant checked after every step, in every reachable state.
    /// Returns a description of the violation, or `None` when the state is
    /// fine.
    fn check_state(&self) -> Option<String>;

    /// Liveness/accounting invariant checked once every thread has
    /// terminated.
    fn check_final(&self) -> Option<String>;
}

/// Exploration bounds and bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Hard cap on schedule length. A schedule that exhausts the cap while
    /// threads are still enabled is counted in
    /// [`Report::truncated_schedules`] rather than reaching the final
    /// check — if that counter is nonzero the run was not exhaustive and
    /// the bound must be raised.
    pub max_steps: usize,
}

impl Default for Config {
    fn default() -> Self {
        // Generous relative to the models here: the largest shipped
        // configuration needs well under 40 steps per schedule.
        Config { max_steps: 64 }
    }
}

/// A failed invariant plus the exact interleaving that exposed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Thread ids in execution order.
    pub schedule: Vec<usize>,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}\n  schedule: {:?}", self.message, self.schedule)
    }
}

/// What an exhaustive run explored.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of complete executions (all threads terminated) enumerated.
    pub executions: u64,
    /// Total steps taken across all executions.
    pub steps: u64,
    /// Schedules cut off by [`Config::max_steps`] before termination.
    /// Nonzero means the run was **not** exhaustive.
    pub truncated_schedules: u64,
    /// The first violation found, if any (exploration stops at the first).
    pub violation: Option<Violation>,
}

impl Report {
    /// `true` when every interleaving terminated within bounds and every
    /// invariant held.
    pub fn passed(&self) -> bool {
        self.violation.is_none() && self.truncated_schedules == 0
    }
}

/// Exhaustively explores every interleaving of `model`'s threads, depth
/// first, stopping at the first violation. Threads are tried in ascending
/// id order at every decision point, so exploration order — and therefore
/// which violation is reported first — is deterministic.
pub fn check<M: Model>(model: &M, config: Config) -> Report {
    let mut report = Report {
        executions: 0,
        steps: 0,
        truncated_schedules: 0,
        violation: None,
    };
    let mut schedule = Vec::with_capacity(config.max_steps);
    explore(model, config, &mut schedule, &mut report);
    report
}

fn explore<M: Model>(state: &M, config: Config, schedule: &mut Vec<usize>, report: &mut Report) {
    if report.violation.is_some() {
        return;
    }
    let enabled: Vec<usize> = (0..state.thread_count())
        .filter(|&tid| state.enabled(tid))
        .collect();
    if enabled.is_empty() {
        report.executions += 1;
        if let Some(message) = state.check_final() {
            report.violation = Some(Violation {
                schedule: schedule.clone(),
                message: format!("final-state violation: {message}"),
            });
        }
        return;
    }
    if schedule.len() >= config.max_steps {
        report.truncated_schedules += 1;
        return;
    }
    for tid in enabled {
        let mut next = state.clone();
        next.step(tid);
        report.steps += 1;
        schedule.push(tid);
        if let Some(message) = next.check_state() {
            report.violation = Some(Violation {
                schedule: schedule.clone(),
                message: format!("state violation after thread {tid}: {message}"),
            });
            schedule.pop();
            return;
        }
        explore(&next, config, schedule, report);
        schedule.pop();
        if report.violation.is_some() {
            return;
        }
    }
}

/// Re-runs one exact schedule against a fresh copy of `model`, returning
/// the violation it reproduces (if any). Panics if the schedule asks a
/// disabled thread to step — that means the schedule does not belong to
/// this model.
pub fn replay<M: Model>(model: &M, schedule: &[usize]) -> Option<Violation> {
    let mut state = model.clone();
    for (i, &tid) in schedule.iter().enumerate() {
        assert!(
            state.enabled(tid),
            "replay step {i}: thread {tid} is not enabled — schedule does not fit this model"
        );
        state.step(tid);
        if let Some(message) = state.check_state() {
            return Some(Violation {
                schedule: schedule[..=i].to_vec(),
                message: format!("state violation after thread {tid}: {message}"),
            });
        }
    }
    if (0..state.thread_count()).all(|tid| !state.enabled(tid)) {
        if let Some(message) = state.check_final() {
            return Some(Violation {
                schedule: schedule.to_vec(),
                message: format!("final-state violation: {message}"),
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads each increment a "non-atomic" counter via read/write
    /// steps — the textbook lost-update race the explorer must find.
    #[derive(Clone)]
    struct LostUpdate {
        counter: u32,
        /// Per-thread pc: 0 = about to read, 1 = about to write, 2 = done.
        pc: Vec<u8>,
        read: Vec<u32>,
    }

    impl LostUpdate {
        fn new(threads: usize) -> Self {
            LostUpdate {
                counter: 0,
                pc: vec![0; threads],
                read: vec![0; threads],
            }
        }
    }

    impl Model for LostUpdate {
        fn thread_count(&self) -> usize {
            self.pc.len()
        }
        fn enabled(&self, tid: usize) -> bool {
            self.pc[tid] < 2
        }
        fn step(&mut self, tid: usize) {
            match self.pc[tid] {
                0 => self.read[tid] = self.counter,
                1 => self.counter = self.read[tid] + 1,
                _ => unreachable!(),
            }
            self.pc[tid] += 1;
        }
        fn check_state(&self) -> Option<String> {
            None
        }
        fn check_final(&self) -> Option<String> {
            let n = self.thread_count() as u32;
            (self.counter != n)
                .then(|| format!("expected counter {n}, got {} (lost update)", self.counter))
        }
    }

    #[test]
    fn explorer_finds_the_lost_update() {
        let report = check(&LostUpdate::new(2), Config::default());
        let violation = report.violation.expect("the race must be found");
        assert!(violation.message.contains("lost update"));
        // First witness in DFS order: t0 reads, t1 reads, both write the
        // same stale value — counter ends at 1.
        assert_eq!(violation.schedule, vec![0, 1, 0, 1]);
    }

    #[test]
    fn explorer_counts_all_interleavings() {
        // 2 threads × 2 steps: C(4,2) = 6 complete executions, but the
        // violating subtree is pruned at the first finding; checking the
        // count on a non-violating model instead.
        #[derive(Clone)]
        struct Steps(Vec<u8>);
        impl Model for Steps {
            fn thread_count(&self) -> usize {
                self.0.len()
            }
            fn enabled(&self, tid: usize) -> bool {
                self.0[tid] < 2
            }
            fn step(&mut self, tid: usize) {
                self.0[tid] += 1;
            }
            fn check_state(&self) -> Option<String> {
                None
            }
            fn check_final(&self) -> Option<String> {
                None
            }
        }
        let report = check(&Steps(vec![0, 0]), Config::default());
        assert!(report.passed());
        assert_eq!(report.executions, 6);
    }

    #[test]
    fn replay_reproduces_the_reported_violation() {
        let model = LostUpdate::new(2);
        let violation = check(&model, Config::default()).violation.unwrap();
        let replayed = replay(&model, &violation.schedule).expect("must reproduce");
        assert_eq!(replayed.message, violation.message);
    }

    #[test]
    fn step_bound_reports_truncation() {
        let report = check(&LostUpdate::new(2), Config { max_steps: 2 });
        assert!(report.truncated_schedules > 0);
        assert!(!report.passed());
    }
}
