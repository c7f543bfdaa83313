//! The run protocol, the same for every workload:
//!
//! 1. a fixed integer spin (host-noise calibration);
//! 2. set-up, at least three times over (`setup_s`);
//! 3. one untimed warm-up rep of the full input;
//! 4. timed reps on a fresh instance each — at least three, and until
//!    `--seconds` have been measured. Each rep is timed in pieces
//!    (`drive::Laps`) and `pkts_per_s` is the run pieced together from
//!    every piece's best time (`stats::pieced`); the result file keeps
//!    the size, range, deciles and quartiles of all the pieced runs;
//! 5. peak resident memory is read, then the correctness gates run;
//! 6. the spin again; a drift above 5 % flags the run `noisy`.
//!
//! The traced run alternates untraced and traced reps instead, at
//! least two of each (their throughput ratio is the tracing overhead),
//! runs the unit-cost probes, and reports the per-layer metrics.

use std::path::PathBuf;
use std::time::Instant;

use serde_json::{Map, Value};

use crate::error::BenchError;
use crate::metrics::{MetricDef, Metrics, END_TO_END, PER_LAYER};
use crate::probes::calibration_spin_s;
use crate::span::Tracer;
use crate::stats::{pieced, Summary};
use crate::workloads::{gate, Params, Rep, Workload};

/// How one run is configured (beyond what the workload is built from).
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub params: Params,
    /// Host seconds of timed reps to measure.
    pub seconds: f64,
    pub trace: bool,
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct RunOutput {
    pub workload: &'static str,
    pub opts: RunOpts,
    /// Operations attempted / failed over all timed reps.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Untraced timed reps.
    pub reps: usize,
    pub calib_drift: f64,
    pub noisy: bool,
    pub wall_s: f64,
    /// Chrome-trace events of the traced run.
    pub trace_events: Vec<Value>,
    /// Per span name: calls, total and self milliseconds.
    pub self_times: Vec<(&'static str, u64, f64, f64)>,
}

/// Set-up is repeated at least this often …
const MIN_SETUPS: usize = 3;
/// … and, while it is cheap, until this much time has gone into it, so
/// that a millisecond set-up is sampled often enough to find a quiet
/// moment.
const SETUP_BUDGET_S: f64 = 1.0;
const MAX_SETUPS: usize = 10_000;

const MIN_REPS: usize = 3;
/// Untraced (and so traced) reps a traced run makes at least.
const MIN_TRACED_PAIRS: usize = 2;
const MAX_REPS: usize = 10_000;
/// Spans per workload written to the Chrome-trace file (the file is
/// committed; the metrics use every span).
const MAX_EXPORTED_SPANS: usize = 250;
/// Calibration drift above which a run is flagged `noisy`.
const NOISY_DRIFT: f64 = 0.05;

/// Runs `W` under the protocol above.
pub fn run<W: Workload>(name: &'static str, opts: &RunOpts) -> Result<RunOutput, BenchError> {
    let wall = Instant::now();
    let quick = opts.params.quick;
    let calib_before = if quick { 0.0 } else { calibration_spin_s() };
    let mut tr = Tracer::new(opts.trace);
    let mut off = Tracer::new(false);

    // Set-up, repeated; the last instance is the one measured. Each is
    // dropped before the next is built so peak memory holds one input.
    let mut setup_times = Vec::new();
    let mut wl: Option<W> = None;
    let once = opts.trace || quick;
    while setup_times.is_empty()
        || (!once
            && setup_times.len() < MAX_SETUPS
            && (setup_times.len() < MIN_SETUPS || setup_times.iter().sum::<f64>() < SETUP_BUDGET_S))
    {
        drop(wl.take());
        let span = tr.begin("bench.setup");
        let t = Instant::now();
        let built = W::setup(name, &opts.params, &mut tr)?;
        setup_times.push(t.elapsed().as_secs_f64());
        tr.end(span);
        wl = Some(built);
    }
    let mut wl = wl.expect("at least one set-up ran");
    wl.prepare(&mut tr)?;

    // Timed reps. In the traced run untraced and traced reps alternate,
    // so both see the same host conditions. Only the first rep's detail
    // is kept (for the gates); of the others, the piece times — after
    // their simulated results, output digest and number of timed pieces
    // have been checked against the first's: every rep does the same.
    let first = wl.rep(&mut off)?;
    let same_as_first = |r: &Rep<W::Detail>| -> Result<(), BenchError> {
        gate(
            name,
            "sim-identical-across-reps",
            r.sim == first.sim,
            || format!("{:?} vs {:?}", r.sim, first.sim),
        )?;
        gate(
            name,
            "outputs-identical-across-reps",
            r.fingerprint == first.fingerprint,
            || {
                format!(
                    "digest {:016x} vs {:016x}",
                    r.fingerprint, first.fingerprint
                )
            },
        )?;
        gate(
            name,
            "pieces-identical-across-reps",
            r.pieces.len() == first.pieces.len(),
            || format!("{} timed pieces vs {}", r.pieces.len(), first.pieces.len()),
        )
    };
    let mut plain = vec![first.pieces.clone()];
    let mut traced = Vec::new();
    let mut last_traced = None;
    let mut measured = first.secs();
    let (mut attempted, mut completed) = (first.attempted, first.completed);
    let min_reps = if opts.trace || quick {
        MIN_TRACED_PAIRS
    } else {
        MIN_REPS
    };
    loop {
        if opts.trace {
            let span = tr.begin("bench.traced_rep");
            let rep = wl.rep(&mut tr)?;
            tr.end(span);
            same_as_first(&rep)?;
            measured += rep.secs();
            traced.push(rep.pieces.clone());
            last_traced = Some(rep);
        }
        if (measured >= opts.seconds && plain.len() >= min_reps) || plain.len() >= MAX_REPS {
            break;
        }
        let rep = wl.rep(&mut off)?;
        same_as_first(&rep)?;
        measured += rep.secs();
        attempted += rep.attempted;
        completed += rep.completed;
        plain.push(rep.pieces);
    }
    // Packets per second of the reps re-pieced rank by rank; the best
    // of them is `pkts_per_s`.
    let pieced_pps = |reps: &[Vec<f64>]| -> Vec<f64> {
        pieced(reps)
            .into_iter()
            .map(|secs| first.completed as f64 / secs)
            .collect()
    };
    let plain_pps = pieced_pps(&plain);

    // Memory before the gates: they build reference runs that are not
    // part of the workload.
    let rss_kb = wl.peak_rss_kb()?;
    wl.gates(&first)?;

    let calib_drift = if quick {
        0.0
    } else {
        let calib_after = calibration_spin_s();
        (calib_after - calib_before).abs() / calib_before.min(calib_after)
    };

    let mut metrics = Metrics::default();
    let mut trace_events = Vec::new();
    let mut self_times = Vec::new();
    if opts.trace {
        let last = last_traced.as_ref().expect("traced reps ran");
        wl.layer_metrics(&mut tr, traced.len() as u64, last, &mut metrics)?;
        set_sim(&mut metrics, &last.sim, PER_LAYER);
        // Best pieced run against best pieced run, like `pkts_per_s`.
        let best = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
        metrics.set(
            "bench.trace_overhead_ratio",
            best(&plain_pps) / best(&pieced_pps(&traced)).max(1e-9),
        );
        metrics.set("bench.calib_drift", calib_drift);
        metrics.set("bench.timer_ns", crate::probes::timer_ns());
        metrics.fill_absent(PER_LAYER);
        let pid = crate::workloads::NAMES
            .iter()
            .position(|n| *n == name)
            .unwrap_or(0) as u64
            + 1;
        trace_events = tr.chrome_events(name, pid, MAX_EXPORTED_SPANS);
        self_times = tr
            .self_times()
            .into_iter()
            .map(|(n, (calls, total, own))| (n, calls, total as f64 / 1e6, own as f64 / 1e6))
            .collect();
    } else {
        metrics.set_summary("pkts_per_s", Summary::of(&plain_pps).expect("reps ran"));
        metrics.set_summary("setup_s", Summary::of(&setup_times).expect("set-ups ran"));
        metrics.set("peak_rss_mb", rss_kb as f64 / 1024.0);
        set_sim(&mut metrics, &first.sim, END_TO_END);
        debug_assert!(END_TO_END.iter().all(|d| metrics.get(d.name).is_some()));
    }

    Ok(RunOutput {
        workload: name,
        opts: opts.clone(),
        attempted,
        failed: attempted - completed,
        metrics,
        reps: plain.len(),
        calib_drift,
        noisy: calib_drift > NOISY_DRIFT,
        wall_s: wall.elapsed().as_secs_f64(),
        trace_events,
        self_times,
    })
}

/// Files the simulated results of a rep that `defs` (this pass's
/// catalogue) names.
fn set_sim(metrics: &mut Metrics, sim: &[(&'static str, f64)], defs: &[MetricDef]) {
    for &(name, v) in sim {
        if defs.iter().any(|d| d.name == name) {
            metrics.set(name, v);
        }
    }
}

impl RunOutput {
    /// The contract's result line: exactly `correct`, `attempted`,
    /// `failed` and `metrics` (name → value, unit).
    pub fn result_line(&self) -> String {
        let mut metrics = Map::new();
        let defs = if self.opts.trace {
            PER_LAYER
        } else {
            END_TO_END
        };
        for d in defs {
            let mut m = Map::new();
            let v = self.metrics.get(d.name).unwrap_or(0.0);
            m.insert("value".into(), Value::F64(v));
            m.insert("unit".into(), Value::String(d.unit.into()));
            metrics.insert(d.name.into(), Value::Object(m));
        }
        let mut line = Map::new();
        // A failed gate ends the run with an error and no result line,
        // so a line that is printed is always a correct run's.
        line.insert("correct".into(), Value::Bool(true));
        line.insert("attempted".into(), Value::U64(self.attempted));
        line.insert("failed".into(), Value::U64(self.failed));
        line.insert("metrics".into(), Value::Object(metrics));
        serde_json::to_string(&Value::Object(line)).expect("plain JSON")
    }

    /// The detailed record `BENCH_*.json` keeps per (workload, pass).
    pub fn detail_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("workload".into(), Value::String(self.workload.into()));
        m.insert("trace".into(), Value::Bool(self.opts.trace));
        m.insert("seed".into(), Value::U64(self.opts.params.seed));
        m.insert("quick".into(), Value::Bool(self.opts.params.quick));
        m.insert("seconds".into(), Value::F64(self.opts.seconds));
        m.insert("reps".into(), Value::U64(self.reps as u64));
        m.insert("attempted".into(), Value::U64(self.attempted));
        m.insert("failed".into(), Value::U64(self.failed));
        m.insert(
            "failed_share".into(),
            Value::F64(self.failed as f64 / self.attempted.max(1) as f64),
        );
        m.insert("calib_drift".into(), Value::F64(self.calib_drift));
        m.insert("noisy".into(), Value::Bool(self.noisy));
        m.insert("wall_s".into(), Value::F64(self.wall_s));
        let mut metrics = Map::new();
        for (name, s) in &self.metrics.0 {
            let mut j = match s.to_json() {
                Value::Object(o) => o,
                _ => unreachable!("summary serialises to an object"),
            };
            if let Some(d) = crate::metrics::lookup(name) {
                j.insert("unit".into(), Value::String(d.unit.into()));
            }
            metrics.insert((*name).into(), Value::Object(j));
        }
        m.insert("metrics".into(), Value::Object(metrics));
        if !self.self_times.is_empty() {
            let mut st = Map::new();
            for (name, calls, total_ms, self_ms) in &self.self_times {
                let mut e = Map::new();
                e.insert("calls".into(), Value::U64(*calls));
                e.insert("total_ms".into(), Value::F64(*total_ms));
                e.insert("self_ms".into(), Value::F64(*self_ms));
                st.insert((*name).into(), Value::Object(e));
            }
            m.insert("spans".into(), Value::Object(st));
        }
        Value::Object(m)
    }

    /// Every metric by name with unit and sample count, one per line.
    pub fn print_human(&self) {
        let pass = if self.opts.trace {
            "traced"
        } else {
            "untraced"
        };
        println!(
            "== {} ({pass}, seed {}, {} reps, {:.1} s wall{}) ==",
            self.workload,
            self.opts.params.seed,
            self.reps,
            self.wall_s,
            if self.noisy { ", NOISY" } else { "" }
        );
        let defs = if self.opts.trace {
            PER_LAYER
        } else {
            END_TO_END
        };
        for d in defs {
            if let Some(s) = self.metrics.0.get(d.name) {
                let v = d.value(s);
                if s.n > 1 {
                    println!(
                        "  {:<34} {v:>16.4} {:<6} n={} min {:.4} q1 {:.4} median {:.4} q3 {:.4} max {:.4}",
                        d.name, d.unit, s.n, s.min, s.q1, s.median, s.q3, s.max
                    );
                } else if d.moves.is_empty() {
                    println!("  {:<34} {v:>16.4} {:<6} n=1", d.name, d.unit);
                } else {
                    println!(
                        "  {:<34} {v:>16.4} {:<6} n=1  moves {}",
                        d.name, d.unit, d.moves
                    );
                }
            }
        }
        println!(
            "  failed {} of {} attempted ({:.4})",
            self.failed,
            self.attempted,
            self.failed as f64 / self.attempted.max(1) as f64
        );
    }
}

// ---------------------------------------------------------------------
// Host facts: memory, paths.
// ---------------------------------------------------------------------

/// The `VmHWM` line of a `/proc/<pid>/status` file, in KiB.
fn vm_hwm_kb(path: &str) -> Result<u64, BenchError> {
    let field = "VmHWM:";
    let path = std::path::Path::new(path);
    let text = std::fs::read_to_string(path).map_err(|e| BenchError::io(path, e))?;
    text.lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
        .ok_or_else(|| BenchError::Format {
            path: path.display().to_string(),
            detail: format!("no {field} line"),
        })
}

/// This process's peak resident set (`VmHWM`), in KiB.
pub fn self_peak_rss_kb() -> Result<u64, BenchError> {
    vm_hwm_kb("/proc/self/status")
}

/// Peak resident set (`VmHWM`) of process `pid`, in KiB; `None` once it
/// has exited (a zombie has no memory map).
pub fn peak_rss_kb_of(pid: u32) -> Option<u64> {
    vm_hwm_kb(&format!("/proc/{pid}/status")).ok()
}

/// The directory the running executable is in (`<target>/release`, or
/// `<target>/debug/deps` under `cargo test`).
fn exe_dir() -> Result<PathBuf, BenchError> {
    let exe = std::env::current_exe().map_err(|e| BenchError::Child {
        what: "current_exe".into(),
        detail: e.to_string(),
    })?;
    Ok(exe.parent().map(PathBuf::from).unwrap_or_default())
}

/// A per-process scratch directory next to the executable — inside the
/// build directory, so inside the checkout and ignored by git.
pub fn scratch_dir() -> Result<PathBuf, BenchError> {
    let dir = exe_dir()?.join(format!("mp5-benchmark-tmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| BenchError::io(&dir, e))?;
    Ok(dir)
}

/// Removes this process's scratch directory, if it made one.
pub fn remove_scratch_dir() {
    if let Ok(dir) = exe_dir() {
        let _ =
            std::fs::remove_dir_all(dir.join(format!("mp5-benchmark-tmp-{}", std::process::id())));
    }
}

/// The cargo target directory this executable was built into: the
/// parent of the `release` / `debug` directory it sits under.
pub fn target_dir() -> Result<PathBuf, BenchError> {
    let dir = exe_dir()?;
    Ok(dir
        .ancestors()
        .find(|a| {
            a.file_name()
                .is_some_and(|n| n == "release" || n == "debug")
        })
        .and_then(|profile| profile.parent())
        .unwrap_or(&dir)
        .to_path_buf())
}

/// The `mp5serve` binary: `release/mp5serve` of the target directory
/// this executable was built into (`run.sh` builds both there).
pub fn mp5serve_path() -> Result<PathBuf, BenchError> {
    let bin = target_dir()?.join("release").join("mp5serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(BenchError::Child {
            what: bin.display().to_string(),
            detail: "mp5serve is not built; run benchmark/run.sh, which builds it \
                     (cargo build --release --offline -p mp5-serve --bin mp5serve)"
                .into(),
        })
    }
}
