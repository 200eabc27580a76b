//! A bounded worker pool for replication fan-out.
//!
//! Every multi-seed runner in the workspace distributes its
//! replications with [`pool_run`]: a fixed number of scoped worker
//! threads pull job indices from a shared queue and write each result
//! into that job's dedicated slot, so the returned vector is
//! positionally ordered and byte-identical to a sequential run
//! regardless of which worker ran which index — parallelism is a pure
//! scheduling detail, never a source of nondeterminism.

/// Observer of job completions, for live progress heartbeats on long
/// experiments. Called from worker threads (hence `Sync`); the callback
/// must not assume any completion order.
pub trait ProgressObserver: Sync {
    /// Job number `completed` (1-based, monotone) of `total` just
    /// finished.
    fn replication_done(&self, completed: usize, total: usize);
}

/// Runs `job(i)` for every `i < jobs` on a bounded worker pool and
/// returns the results positionally — byte-identical to a sequential
/// run regardless of which worker ran which index.
///
/// # Panics
///
/// Panics if `jobs` or `workers` is zero, or if a job panics.
pub fn pool_run<T: Send>(
    jobs: usize,
    workers: usize,
    progress: Option<&dyn ProgressObserver>,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    pool_run_with(jobs, workers, progress, || (), |(), i| job(i))
}

/// As [`pool_run`], with a per-worker scratch state: every worker thread
/// builds one `S` with `init` when it starts and hands it to each job it
/// runs. Replication runners use this to recycle a simulation scratch
/// arena (event-queue buckets, call table, link index) across the seeds
/// a worker processes, instead of reallocating per replication.
///
/// The scratch must never leak information between jobs that changes
/// results: `job(&mut s, i)` is required to return the same value as it
/// would with a fresh `S` (the kernel's scratch guarantees this by
/// resetting everything it reuses), keeping results byte-identical to a
/// sequential run for every worker count.
///
/// # Panics
///
/// Panics if `jobs` or `workers` is zero, or if a job panics.
pub fn pool_run_with<S, T: Send>(
    jobs: usize,
    workers: usize,
    progress: Option<&dyn ProgressObserver>,
    init: impl Fn() -> S + Sync,
    job: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T> {
    assert!(jobs > 0, "need at least one job");
    assert!(workers > 0, "need at least one worker");
    let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    let workers = workers.min(jobs);
    let done = std::sync::atomic::AtomicUsize::new(0);
    {
        let (tx, rx) = std::sync::mpsc::channel::<(usize, &mut Option<T>)>();
        for entry in slots.iter_mut().enumerate() {
            tx.send(entry)
                .expect("queue is open while jobs are enqueued");
        }
        drop(tx);
        let rx = std::sync::Mutex::new(rx);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut scratch = init();
                    loop {
                        // Hold the lock only to dequeue; the job runs outside.
                        let next = rx.lock().expect("no panic while dequeueing").recv();
                        let Ok((i, slot)) = next else { break };
                        *slot = Some(job(&mut scratch, i));
                        if let Some(p) = progress {
                            let completed =
                                done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
                            p.replication_done(completed, jobs);
                        }
                    }
                });
            }
        });
    }
    slots.into_iter().map(|s| s.expect("job ran")).collect()
}

/// As [`pool_run_with`], for observed replications: every job also
/// gets a fresh recorder from `recorder`, and the results and the
/// recorders come back as two positional vectors — the recorders ready
/// for a seed-order merge. With a zero-sized no-op recorder this costs
/// nothing over [`pool_run_with`], so a simulator's plain and recorded
/// entry points share one fan-out.
///
/// # Panics
///
/// As [`pool_run_with`].
pub fn pool_record<S, R: Send, T: Send>(
    jobs: usize,
    workers: usize,
    progress: Option<&dyn ProgressObserver>,
    init: impl Fn() -> S + Sync,
    recorder: impl Fn() -> R + Sync,
    job: impl Fn(&mut S, usize, &mut R) -> T + Sync,
) -> (Vec<T>, Vec<R>) {
    pool_run_with(jobs, workers, progress, init, |scratch, i| {
        let mut r = recorder();
        let t = job(scratch, i, &mut r);
        (t, r)
    })
    .into_iter()
    .unzip()
}

/// The machine's available parallelism (1 if it cannot be queried) —
/// the default worker count for replication fan-out.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_positional() {
        let out = pool_run(100, 8, None, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn one_worker_matches_many() {
        let one = pool_run(37, 1, None, |i| (i as u64).wrapping_mul(0x9E37));
        let many = pool_run(37, 16, None, |i| (i as u64).wrapping_mul(0x9E37));
        assert_eq!(one, many);
    }

    #[test]
    fn progress_reaches_total() {
        struct Counter(std::sync::atomic::AtomicUsize);
        impl ProgressObserver for Counter {
            fn replication_done(&self, completed: usize, total: usize) {
                assert!(completed <= total);
                self.0
                    .fetch_max(completed, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let counter = Counter(std::sync::atomic::AtomicUsize::new(0));
        pool_run(10, 4, Some(&counter), |i| i);
        assert_eq!(counter.0.load(std::sync::atomic::Ordering::Relaxed), 10);
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn zero_jobs_panics() {
        pool_run(0, 1, None, |i| i);
    }

    #[test]
    fn scratch_is_per_worker_and_results_stay_positional() {
        // Each worker's scratch counts the jobs it ran; results must be
        // positional regardless, and the scratch instances must jointly
        // cover all jobs exactly once.
        let ran = std::sync::atomic::AtomicUsize::new(0);
        let out = pool_run_with(
            50,
            4,
            None,
            || 0usize,
            |count, i| {
                *count += 1;
                ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                i * 3
            },
        );
        assert_eq!(out, (0..50).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(ran.load(std::sync::atomic::Ordering::Relaxed), 50);
    }
}
