//! A deterministic thread pool for pure batch jobs: one shared job cursor.
//!
//! [`run_indexed`] runs `job_count` independent jobs — each a pure function
//! of its index — on `workers` threads and returns the results **indexed by
//! job**, so the output vector is byte-identical no matter how the scheduler
//! interleaves the workers:
//!
//! 1. **One shared cursor.** Every worker claims the next unclaimed index
//!    with one `fetch_add` on a shared counter, so each index goes to
//!    exactly one worker, and a worker stuck on a long job never holds
//!    cheap jobs back: the others keep claiming. At `workers = 1` the jobs
//!    run in index order on the calling thread, with no thread spawned and
//!    no atomic touched.
//! 2. **Collection by index.** Workers accumulate `(index, result)` pairs
//!    privately and the pool reassembles the result vector by index, so
//!    completion order never leaks into the output.
//!
//! Which worker runs which job *does* vary run to run at `workers > 1` —
//! only the worker id passed to the job observes that — but since jobs are
//! pure, the result vector cannot.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `job_count` pure jobs on `workers` threads, returning the results in
/// job-index order. `job(worker, index)` receives the id of the worker
/// running it (`0..workers`; always 0 on the inline path) so callers can
/// report scheduling; the result must not depend on it.
///
/// `workers` is clamped to `1..=max(job_count, 1)`. At `workers = 1` the
/// jobs run in index order on the calling thread — the exact sequential
/// path, with no thread or atomic overhead.
///
/// # Panics
///
/// Propagates a panic from any job (the batch's workers are joined first, so
/// no detached thread outlives the call).
pub fn run_indexed<T, F>(job_count: usize, workers: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let workers = workers.clamp(1, job_count.max(1));
    if workers == 1 {
        return (0..job_count).map(|i| job(0, i)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (cursor, job) = (&cursor, &job);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        // Relaxed suffices: the counter only hands out
                        // distinct indices; results travel through the join.
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= job_count {
                            return out;
                        }
                        out.push((index, job(w, index)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<T>> = (0..job_count).map(|_| None).collect();
    for (index, value) in per_worker.into_iter().flatten() {
        debug_assert!(slots[index].is_none(), "job {index} ran twice");
        slots[index] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every job produces exactly one result"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;

    #[test]
    fn results_are_in_job_index_order_at_any_worker_count() {
        for workers in [1, 2, 3, 4, 8, 17] {
            let seen = Mutex::new(Vec::new());
            let results = run_indexed(13, workers, |w, i| {
                seen.lock().push(w);
                i * i
            });
            assert_eq!(results, (0..13).map(|i| i * i).collect::<Vec<_>>());
            // Worker ids stay below the clamped count.
            assert!(seen.lock().iter().all(|&w| w < workers.min(13)));
        }
    }

    #[test]
    fn empty_batch_and_single_job() {
        let results: Vec<usize> = run_indexed(0, 4, |_, i| i);
        assert!(results.is_empty());
        assert_eq!(run_indexed(1, 4, |w, i| (w, i + 41)), vec![(0, 41)]);
    }

    #[test]
    fn sequential_path_runs_on_the_calling_thread_in_order() {
        // lint:allow(D2): test-only probe that the workers==1 path stays on
        // the calling thread; thread identity is asserted, not consumed.
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        run_indexed(5, 1, |w, i| {
            // lint:allow(D2): same test-only thread-identity assertion.
            assert_eq!(std::thread::current().id(), caller);
            order.lock().push((w, i));
        });
        assert_eq!(*order.lock(), (0..5).map(|i| (0, i)).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_runs_exactly_once_under_contention() {
        let counters: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        let results = run_indexed(64, 4, |_, i| {
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
    fn a_slow_job_does_not_hold_back_the_others() {
        // Job 0 sleeps; the cursor hands every later index to whichever
        // worker is free, so the worker that claimed job 0 claims nothing
        // else before the idle workers have drained the cheap jobs.
        let ran_by: Vec<Mutex<Option<usize>>> = (0..32).map(|_| Mutex::new(None)).collect();
        let results = run_indexed(32, 4, |w, i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            *ran_by[i].lock() = Some(w);
            i
        });
        assert_eq!(results, (0..32).collect::<Vec<_>>());
        let workers: Vec<usize> = ran_by.iter().map(|w| w.lock().unwrap()).collect();
        let slow = workers[0];
        assert!(
            workers[1..].iter().all(|&w| w != slow),
            "the worker blocked on job 0 also ran {:?}",
            (1..32).filter(|&i| workers[i] == slow).collect::<Vec<_>>()
        );
    }
}
