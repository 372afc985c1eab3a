//! A deterministic work-stealing thread pool for pure batch jobs.
//!
//! The pool runs `job_count` independent jobs — each a pure function of its
//! index — on `workers` threads and returns the results **indexed by job**,
//! so the output vector is byte-identical no matter how the scheduler
//! interleaves the workers. Determinism comes from three choices:
//!
//! 1. **Static round-robin deal.** Job `i` starts on worker `i % workers`'s
//!    deque; no runtime state influences the initial placement.
//! 2. **Own-front, steal-back.** A worker drains its own deque from the
//!    front (so `workers = 1` degenerates to exact sequential index order on
//!    the calling thread, with no threads spawned and no locks taken), and an
//!    idle worker steals from the *back* of the first non-empty victim in a
//!    fixed scan order — the classic Chase–Lev discipline, here with a mutex
//!    per deque (the vendored `parking_lot`) because batch jobs are orders of
//!    magnitude longer than a lock handshake.
//! 3. **Collection by index.** Workers accumulate `(index, result)` pairs
//!    privately and the pool reassembles the result vector by index, so
//!    completion order never leaks into the output.
//!
//! Which worker runs which job *does* vary run to run at `workers > 1` — only
//! the steal count observes that — but since jobs are pure, the result vector
//! cannot.
//!
//! All jobs exist before the first worker starts and no job enqueues another,
//! so a worker can safely exit once every deque is empty: in-flight jobs on
//! other workers need no help.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::Mutex;

/// What a batch run did: worker count actually used and number of steals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads used (clamped to the job count; 1 means the batch ran
    /// inline on the calling thread).
    pub workers: usize,
    /// Jobs executed by a worker other than the one they were dealt to.
    /// Scheduling-dependent at `workers > 1`; always 0 at `workers = 1`.
    pub steals: usize,
}

/// Scheduling-side observer for a batch run. The pool reports job lifecycle
/// and steal events through this hook; the engine adapts it onto the trace
/// sched channel. Everything reported here is scheduling-dependent by
/// definition — which worker ran which job, what was stolen — so consumers
/// must never let it influence results (the trace layer quarantines it in
/// the non-deterministic channel).
///
/// All methods default to no-ops so an observer can pick the events it
/// cares about. Callbacks run on the worker threads; implementations must
/// be cheap and `Sync`.
pub trait SchedObserver: Sync {
    /// Worker `worker` starts job `index` (`stolen` = it came off another
    /// worker's deque).
    fn job_start(&self, worker: usize, index: usize, stolen: bool) {
        let _ = (worker, index, stolen);
    }
    /// Worker `worker` finished job `index`.
    fn job_finish(&self, worker: usize, index: usize) {
        let _ = (worker, index);
    }
}

/// Runs `job_count` pure jobs on `workers` threads, returning the results in
/// job-index order together with the run's [`PoolStats`]. An optional
/// [`SchedObserver`] receives job lifecycle and steal events as they happen
/// on the worker threads.
///
/// `workers` is clamped to `1..=job_count` (an empty batch runs nothing). At
/// `workers = 1` the jobs run in index order on the calling thread — the
/// exact sequential path, with no thread or lock overhead.
///
/// # Panics
///
/// Propagates a panic from any job (the batch's workers are joined first, so
/// no detached thread outlives the call).
pub fn run_batch_observed<T, F>(
    job_count: usize,
    workers: usize,
    job: F,
    observer: Option<&dyn SchedObserver>,
) -> (Vec<T>, PoolStats)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(job_count.max(1));
    if workers == 1 {
        let results = (0..job_count)
            .map(|i| {
                if let Some(obs) = observer {
                    obs.job_start(0, i, false);
                }
                let out = job(i);
                if let Some(obs) = observer {
                    obs.job_finish(0, i);
                }
                out
            })
            .collect();
        return (
            results,
            PoolStats {
                workers: 1,
                steals: 0,
            },
        );
    }

    // Deal jobs round-robin: worker w owns indices w, w + workers, …
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..job_count).step_by(workers).collect()))
        .collect();
    let steals = AtomicUsize::new(0);

    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queues = &queues;
                let job = &job;
                let steals = &steals;
                scope.spawn(move || worker_loop(w, queues, job, steals, observer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<T>> = (0..job_count).map(|_| None).collect();
    for chunk in per_worker {
        for (index, value) in chunk {
            debug_assert!(slots[index].is_none(), "job {index} ran twice");
            slots[index] = Some(value);
        }
    }
    let results = slots
        .into_iter()
        .map(|s| s.expect("every job produces exactly one result"))
        .collect();
    (
        results,
        PoolStats {
            workers,
            steals: steals.into_inner(),
        },
    )
}

fn worker_loop<T, F>(
    me: usize,
    queues: &[Mutex<VecDeque<usize>>],
    job: &F,
    steals: &AtomicUsize,
    observer: Option<&dyn SchedObserver>,
) -> Vec<(usize, T)>
where
    F: Fn(usize) -> T + Sync,
{
    let mut out = Vec::new();
    let run = |index: usize, stolen: bool, out: &mut Vec<(usize, T)>| {
        if let Some(obs) = observer {
            obs.job_start(me, index, stolen);
        }
        out.push((index, job(index)));
        if let Some(obs) = observer {
            obs.job_finish(me, index);
        }
    };
    loop {
        // Own deque first, front to back (preserves the dealt order).
        let own = queues[me].lock().pop_front();
        if let Some(index) = own {
            run(index, false, &mut out);
            continue;
        }
        // Idle: steal from the back of the first non-empty victim, scanning
        // neighbours in a fixed order starting after this worker.
        let mut stolen = None;
        for offset in 1..queues.len() {
            let victim = (me + offset) % queues.len();
            if let Some(index) = queues[victim].lock().pop_back() {
                stolen = Some(index);
                break;
            }
        }
        match stolen {
            Some(index) => {
                steals.fetch_add(1, Ordering::Relaxed);
                run(index, true, &mut out);
            }
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn run_batch<T: Send>(
        job_count: usize,
        workers: usize,
        job: impl Fn(usize) -> T + Sync,
    ) -> (Vec<T>, PoolStats) {
        run_batch_observed(job_count, workers, job, None)
    }

    #[test]
    fn results_are_in_job_index_order_at_any_worker_count() {
        for workers in [1, 2, 3, 4, 8, 17] {
            let (results, stats) = run_batch(13, workers, |i| i * i);
            assert_eq!(results, (0..13).map(|i| i * i).collect::<Vec<_>>());
            assert!(stats.workers <= 13);
            assert_eq!(stats.workers, workers.min(13));
        }
    }

    #[test]
    fn empty_batch_and_single_job() {
        let (results, stats) = run_batch(0, 4, |i| i);
        assert!(results.is_empty());
        assert_eq!((stats.workers, stats.steals), (1, 0));
        let (results, _) = run_batch(1, 4, |i| i + 41);
        assert_eq!(results, vec![41]);
    }

    #[test]
    fn sequential_path_runs_on_the_calling_thread_in_order() {
        // lint:allow(D2): test-only probe that the workers==1 path stays on
        // the calling thread; thread identity is asserted, not consumed.
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let (_, stats) = run_batch(5, 1, |i| {
            // lint:allow(D2): same test-only thread-identity assertion.
            assert_eq!(std::thread::current().id(), caller);
            order.lock().push(i);
        });
        assert_eq!(*order.lock(), vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.steals, 0);
    }

    #[test]
    fn every_job_runs_exactly_once_under_contention() {
        let counters: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let (results, _) = run_batch(64, 4, |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(results.len(), 64);
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(
                c.load(Ordering::Relaxed),
                1,
                "job {i} ran a wrong number of times"
            );
        }
    }

    #[test]
    fn imbalanced_batch_steals_work() {
        // Worker 0 owns the one slow job (index 0); the cheap jobs dealt to it
        // (4, 8, …) get stolen by the idle workers, so the steal counter must
        // move. (Scheduling-dependent in *which* jobs are stolen, never in the
        // results.)
        let (results, stats) = run_batch(32, 4, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            i
        });
        assert_eq!(results, (0..32).collect::<Vec<_>>());
        assert!(
            stats.steals > 0,
            "idle workers never stole from the blocked worker's deque"
        );
    }
}
