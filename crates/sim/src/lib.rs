//! Experiment harness: runs the paper's evaluation (§4) end to end.
//!
//! * [`metrics`] — condition-C1 violation counting and intra-flow
//!   reordering analysis.
//! * [`synth`] — the synthetic stateful programs and traces behind the
//!   §4.3 sensitivity experiments.
//! * [`experiments`] — the §4 evaluation as one grid of runs; every
//!   paper table and figure is a named slice of it, printed by the
//!   `mp5exp` binary and recorded in EXPERIMENTS.md.
//! * [`table`] — plain-text table rendering and JSON archiving.
//! * [`chaos`] — randomized seed-deterministic fault campaigns
//!   (auditor-gated, ledger-checked) shared by the
//!   `mp5chaos` binary and the chaos test suite.
//!
//! Runners fan independent simulator runs out over OS threads (each run
//! is single-threaded and deterministic; only scheduling of whole runs
//! is parallel, so results are bit-stable regardless of thread count).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod metrics;
pub mod synth;
pub mod table;

pub use metrics::{c1_violation_fraction, c1_violation_sets, reordered_flow_fraction};
pub use synth::{synthetic_program, synthetic_trace, SynthConfig};

/// Runs `jobs` closures on a thread pool and returns results in job
/// order. Each job must be independent and deterministic.
pub fn parallel_map<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n.max(1));
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let jobs: Vec<std::sync::Mutex<Option<F>>> = jobs
        .into_iter()
        .map(|j| std::sync::Mutex::new(Some(j)))
        .collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results_mx: Vec<std::sync::Mutex<&mut Option<T>>> =
        results.iter_mut().map(std::sync::Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let job = jobs[i]
                    .lock()
                    .expect("no poison")
                    .take()
                    .expect("job taken once");
                let out = job();
                **results_mx[i].lock().expect("no poison") = Some(out);
            });
        }
    });
    drop(results_mx);
    results
        .into_iter()
        .map(|r| r.expect("all jobs ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let jobs: Vec<_> = (0..32).map(|i| move || i * 10).collect();
        let out = parallel_map(jobs);
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let empty: Vec<Box<dyn FnOnce() -> i32 + Send>> = vec![];
        assert!(parallel_map(empty).is_empty());
        assert_eq!(parallel_map(vec![|| 7]), vec![7]);
    }
}
