//! The deterministic parallel cycle engine's machinery.
//!
//! [`WorkerPool`] is a persistent pool of worker threads with a
//! rendezvous-style [`WorkerPool::exchange`]: the coordinator hands each
//! worker at most one job, blocks until every job's result is back, and
//! only then proceeds — a barrier per simulation cycle, with **no
//! per-cycle thread spawning**. Jobs *own* the per-pipeline state they
//! operate on (moved in and moved back out), so there is no shared
//! mutable state, no locking, and no interior mutability anywhere in the
//! per-cycle hot path; determinism is purely a matter of the coordinator
//! merging the returned results in pipeline order (see `DESIGN.md` §10).
//!
//! The pool is deliberately generic over the job and result types so the
//! MP5 switch (`mp5-core`) and the recirculation baseline
//! (`mp5-baselines`) can both drive it.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::thread::JoinHandle;

/// A persistent pool of `n` worker threads executing a fixed job
/// function, fed by one rendezvous per simulation cycle.
///
/// Worker `i` owns a pair of bounded channels: the coordinator pushes a
/// job down one and blocks on the other for the result. Workers park in
/// `recv()` between cycles, so an idle pool costs nothing but memory.
/// Dropping the pool closes the job channels, which terminates and joins
/// every worker.
pub struct WorkerPool<J: Send + 'static, R: Send + 'static> {
    txs: Vec<SyncSender<J>>,
    rxs: Vec<Receiver<R>>,
    handles: Vec<JoinHandle<()>>,
}

impl<J: Send + 'static, R: Send + 'static> WorkerPool<J, R> {
    /// Spawns `workers` (≥ 1) persistent threads, each running `f` on
    /// every job it receives until the pool is dropped.
    pub fn new<F>(workers: usize, f: F) -> Self
    where
        F: Fn(J) -> R + Send + Clone + 'static,
    {
        assert!(workers >= 1, "a worker pool needs at least one worker");
        let mut txs = Vec::with_capacity(workers);
        let mut rxs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (jtx, jrx) = sync_channel::<J>(1);
            let (rtx, rrx) = sync_channel::<R>(1);
            let f = f.clone();
            let handle = std::thread::Builder::new()
                .name(format!("mp5-worker-{i}"))
                .spawn(move || {
                    // `recv` fails when the coordinator drops its sender:
                    // that is the shutdown signal.
                    while let Ok(job) = jrx.recv() {
                        if rtx.send(f(job)).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawning an engine worker thread");
            txs.push(jtx);
            rxs.push(rrx);
            handles.push(handle);
        }
        WorkerPool { txs, rxs, handles }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.txs.len()
    }

    /// Runs one barrier round: sends `jobs[i]` to worker `i`, blocks
    /// until every worker answered, and returns the results **in worker
    /// order** (`jobs.len()` may be smaller than the pool on the last
    /// uneven cycle; it must never be larger).
    pub fn exchange(&mut self, jobs: Vec<J>) -> Vec<R> {
        assert!(
            jobs.len() <= self.txs.len(),
            "more jobs ({}) than workers ({})",
            jobs.len(),
            self.txs.len()
        );
        let n = jobs.len();
        for (i, job) in jobs.into_iter().enumerate() {
            self.txs[i].send(job).expect("engine worker thread alive");
        }
        (0..n)
            .map(|i| self.rxs[i].recv().expect("engine worker returns"))
            .collect()
    }
}

impl<J: Send + 'static, R: Send + 'static> Drop for WorkerPool<J, R> {
    fn drop(&mut self) {
        // Closing the job channels wakes every parked worker with a
        // RecvError; then join so no thread outlives the switch.
        self.txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl<J: Send + 'static, R: Send + 'static> std::fmt::Debug for WorkerPool<J, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers())
            .finish()
    }
}

/// Contiguous shard boundaries for distributing `n` ordered items over
/// `workers` workers: worker `w` gets `n / workers` items plus one of
/// the `n % workers` leftovers, front-loaded, so concatenating the
/// ranges in worker order restores `0..n` exactly. The engines shard
/// *ranges* of per-pipeline state (not packet lists) with this, which
/// is what keeps worker order equal to pipeline order and the merge
/// deterministic.
pub fn shard_ranges(n: usize, workers: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    debug_assert!(workers >= 1, "sharding over zero workers");
    let base = n / workers;
    let rem = n % workers;
    let mut start = 0usize;
    (0..workers).map(move |w| {
        let len = base + usize::from(w < rem);
        let range = start..start + len;
        start += len;
        range
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_round_trips_jobs_in_worker_order() {
        let mut pool: WorkerPool<u64, u64> = WorkerPool::new(3, |x| x * 2);
        for _ in 0..100 {
            assert_eq!(pool.exchange(vec![1, 2, 3]), vec![2, 4, 6]);
        }
        // Uneven final round: fewer jobs than workers.
        assert_eq!(pool.exchange(vec![10]), vec![20]);
    }

    #[test]
    fn pool_drop_joins_workers() {
        let pool: WorkerPool<(), ()> = WorkerPool::new(4, |()| ());
        drop(pool); // must not hang or leak
    }

    #[test]
    fn shard_ranges_partition_in_order() {
        for n in 0..20 {
            for workers in 1..6 {
                let ranges: Vec<_> = shard_ranges(n, workers).collect();
                assert_eq!(ranges.len(), workers);
                let flat: Vec<usize> = ranges.iter().cloned().flatten().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} workers={workers}");
                // Front-loaded remainder: sizes never differ by more
                // than one and never increase.
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
                assert!(sizes[0] - sizes[workers - 1] <= 1);
            }
        }
    }
}
