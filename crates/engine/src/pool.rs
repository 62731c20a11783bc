//! A work-stealing batch executor on `std::thread::scope`.
//!
//! Jobs are indices `0..n`; each worker owns a deque seeded round-robin,
//! pops from its own back (LIFO, cache-friendly) and steals from other
//! workers' fronts (FIFO, coarsest-first) when empty. Results are
//! collected **in submission order** regardless of which worker ran what,
//! so callers see serial semantics.
//!
//! The executor is deliberately free of `unsafe`: per-worker deques are
//! `Mutex<VecDeque>` (jobs here are milliseconds-long optimizations, so
//! lock traffic is noise), and each worker accumulates `(index, result)`
//! pairs locally before a final ordered merge.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// Locks tolerating poisoning: the queues hold plain job indices and the
/// panic slot holds plain data, so a panic between `lock()` and drop can
/// never leave either in a torn state — `into_inner` is sound, and it
/// keeps sibling workers alive (and the original panic visible) when one
/// job panics.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A fixed-width worker pool.
#[derive(Debug, Clone)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A pool sized to the machine's available parallelism.
    #[must_use]
    pub fn auto() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The within-job fan-out budget for a batch of `n_jobs`: pool workers
    /// divided evenly among the jobs that can run concurrently, never less
    /// than 1. A pure function of `(threads, n_jobs)` — independent of
    /// scheduling — so the budget itself can never introduce run-to-run
    /// variation. Small batches on a wide pool get leftover workers for
    /// within-state parallelism (`qaoa::eval::with_within_state_threads`);
    /// saturated batches get 1 (all parallelism stays across jobs).
    #[must_use]
    pub fn inner_threads(&self, n_jobs: usize) -> usize {
        self.threads / n_jobs.clamp(1, self.threads)
    }

    /// [`Pool::run_ordered`] with each job run under the batch's within-state
    /// fan-out budget (`qaoa::eval::with_within_state_threads`). The budget
    /// is the same for every job in the batch (see [`Pool::inner_threads`]).
    pub fn run_ordered_fanout<T, F>(&self, n_jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let inner = self.inner_threads(n_jobs);
        self.run_ordered(n_jobs, |i| {
            qaoa::eval::with_within_state_threads(inner, || job(i))
        })
    }

    /// Runs `job(0..n_jobs)` across the pool, returning results in
    /// submission order. `job` must be a pure function of the index for the
    /// output to be schedule-independent — the engine guarantees this by
    /// deriving all per-job randomness from stable keys (see
    /// [`crate::seed`]).
    ///
    /// # Panics
    ///
    /// A panicking job does not take its siblings down: the panic is caught
    /// on the worker, the remaining workers finish their queues, and the
    /// payload of the lowest-indexed panicked job is then re-raised on the
    /// caller via `resume_unwind` — so the *original* panic surfaces, never
    /// a downstream poisoned-lock panic.
    pub fn run_ordered<T, F>(&self, n_jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.threads.min(n_jobs).max(1);
        if workers == 1 {
            return (0..n_jobs).map(job).collect();
        }

        // Round-robin initial distribution.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w..n_jobs).step_by(workers).collect::<VecDeque<usize>>()))
            .collect();
        // The lowest-indexed job panic seen so far, to re-raise at the end.
        let first_panic: Mutex<Option<(usize, Box<dyn Any + Send>)>> = Mutex::new(None);

        let mut collected: Vec<Vec<(usize, T)>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let queues = &queues;
                let job = &job;
                let first_panic = &first_panic;
                handles.push(scope.spawn(move || {
                    let mut local: Vec<(usize, T)> = Vec::new();
                    loop {
                        // Own queue first (LIFO back). The guard must drop
                        // before the steal scan below: holding the own lock
                        // while acquiring another worker's would let two
                        // drained workers deadlock on each other's queues.
                        let own = lock_unpoisoned(&queues[w]).pop_back();
                        // Steal (FIFO front) scanning from the next worker
                        // onward, taking one lock at a time.
                        let next = own.or_else(|| {
                            (1..workers).find_map(|offset| {
                                lock_unpoisoned(&queues[(w + offset) % workers]).pop_front()
                            })
                        });
                        match next {
                            Some(index) => {
                                match catch_unwind(AssertUnwindSafe(|| job(index))) {
                                    Ok(value) => local.push((index, value)),
                                    Err(payload) => {
                                        let mut slot = lock_unpoisoned(first_panic);
                                        if slot.as_ref().is_none_or(|(i, _)| index < *i) {
                                            *slot = Some((index, payload));
                                        }
                                        // This worker's batch is lost either
                                        // way; stop taking work.
                                        break;
                                    }
                                }
                            }
                            None => break,
                        }
                    }
                    local
                }));
            }
            for handle in handles {
                // Workers never unwind themselves: job panics are caught
                // above, so a join failure is a harness bug.
                // lint:allow(no-panic-lib) worker closures catch_unwind every job; a failed join has no recoverable meaning
                collected.push(handle.join().expect("pool worker must not panic"));
            }
        });

        if let Some((_, payload)) = lock_unpoisoned(&first_panic).take() {
            resume_unwind(payload);
        }

        // Ordered merge.
        let mut slots: Vec<Option<T>> = (0..n_jobs).map(|_| None).collect();
        for (index, value) in collected.into_iter().flatten() {
            debug_assert!(slots[index].is_none(), "job {index} ran twice");
            slots[index] = Some(value);
        }
        slots
            .into_iter()
            .enumerate()
            // lint:allow(no-panic-lib) the dispatch loop hands out each index exactly once; an empty slot is a harness bug, not input
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("job {i} never ran")))
            .collect()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Self::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_in_submission_order() {
        let pool = Pool::new(4);
        let out = pool.run_ordered(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let pool = Pool::new(3);
        let counter = AtomicUsize::new(0);
        let out = pool.run_ordered(57, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 57);
        assert_eq!(out.len(), 57);
    }

    #[test]
    fn single_thread_and_empty_batches() {
        assert_eq!(Pool::new(1).run_ordered(5, |i| i), vec![0, 1, 2, 3, 4]);
        assert!(Pool::new(4).run_ordered(0, |i| i).is_empty());
        assert_eq!(Pool::new(0).threads(), 1);
    }

    #[test]
    fn uneven_jobs_are_stolen() {
        // One pathologically slow job; the other workers should drain the
        // rest. Functional check only: results stay ordered and complete.
        let pool = Pool::new(4);
        let out = pool.run_ordered(32, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i + 1
        });
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_jobs() {
        let pool = Pool::new(16);
        assert_eq!(pool.run_ordered(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn inner_threads_splits_idle_workers() {
        let pool = Pool::new(8);
        // Saturated or oversubscribed batches keep all parallelism across jobs.
        assert_eq!(pool.inner_threads(8), 1);
        assert_eq!(pool.inner_threads(100), 1);
        // Narrow batches hand leftover workers to each job.
        assert_eq!(pool.inner_threads(2), 4);
        assert_eq!(pool.inner_threads(3), 2);
        assert_eq!(pool.inner_threads(1), 8);
        // Degenerate inputs stay sane.
        assert_eq!(pool.inner_threads(0), 8);
        assert_eq!(Pool::new(1).inner_threads(4), 1);
    }

    #[test]
    fn fanout_passes_one_budget_to_every_job() {
        let pool = Pool::new(4);
        let budgets = pool.run_ordered_fanout(2, |i| (i, qaoa::eval::within_state_threads()));
        assert_eq!(budgets, vec![(0, 2), (1, 2)]);
    }

    #[test]
    fn job_panic_propagates_the_original_payload() {
        // Regression test: a panicking job used to poison its queue mutex,
        // killing sibling workers on `expect("queue lock")` — the caller
        // saw the *mask* panic instead of the original one.
        let pool = Pool::new(4);
        let ran = AtomicUsize::new(0);
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_ordered(32, |i| {
                ran.fetch_add(1, Ordering::Relaxed);
                if i == 5 {
                    panic!("job five exploded");
                }
                i
            })
        }));
        let payload = unwound.expect_err("the job panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .expect("original payload type survives");
        assert!(
            message.contains("job five exploded"),
            "caller must see the job's panic, not a poisoned-lock panic: {message}"
        );
        // Sibling workers survived the poison and kept draining: far more
        // than the panicking worker's share ran.
        assert!(ran.load(Ordering::Relaxed) > 8);
    }

    #[test]
    fn lowest_indexed_panic_wins_when_every_job_panics() {
        // With every job panicking, each worker records its first pop; the
        // propagated payload must be the lowest *ran* index — and with
        // 2 workers over 2 jobs, job 0 always runs, so the winner is
        // deterministic.
        let pool = Pool::new(2);
        let unwound = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_ordered(2, |i| -> usize { panic!("boom {i}") })
        }));
        let payload = unwound.expect_err("must propagate");
        let message = payload.downcast_ref::<String>().expect("String payload");
        assert_eq!(message, "boom 0");
    }

    #[test]
    fn pool_is_reusable_after_a_panicked_batch() {
        let pool = Pool::new(3);
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run_ordered(9, |i| {
                if i == 0 {
                    panic!("first batch dies");
                }
                i
            })
        }));
        // The next batch on the same pool runs clean.
        assert_eq!(pool.run_ordered(4, |i| i * 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn drain_stress_does_not_deadlock() {
        // Regression test: workers used to hold their own (empty) queue's
        // lock while trying to steal, so two simultaneously-draining
        // workers could deadlock. Thousands of tiny rounds make the
        // drain/steal collision window likely.
        let pool = Pool::new(2);
        for round in 0..5_000 {
            let out = pool.run_ordered(4, |i| i + round);
            assert_eq!(out.len(), 4);
        }
    }
}
