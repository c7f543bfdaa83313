//! The seven workloads. Each builds its input from the seed alone, runs
//! one rep on a fresh instance of the system, states what it attempted
//! and completed, and can check that the program's output was right.

pub mod audit;
pub mod ckpt;
pub mod fabric;
pub mod stdin;
pub mod switch;

use mp5_apps::AppSpec;
use mp5_compiler::CompiledProgram;
use mp5_traffic::FlowTraceBuilder;
use mp5_types::Packet;

use crate::error::BenchError;
use crate::metrics::Metrics;
use crate::span::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 7] = [
    "dc-flowlet",
    "minpkt-uniform",
    "minpkt-hot1",
    "fabric-dc",
    "serve-ckpt",
    "traced-audit",
    "serve-stdin",
];

/// What a workload is built from. The seed feeds the traffic
/// generators only; the program under test sees generated inputs.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// 1/100 of the full input size — for the package's own tests.
    pub quick: bool,
}

impl Params {
    /// `full` scaled for `--quick`, never below `floor`.
    pub fn scaled(&self, full: usize, floor: usize) -> usize {
        if self.quick {
            (full / 100).max(floor)
        } else {
            full
        }
    }
}

/// The outcome of one rep.
#[derive(Debug, Clone)]
pub struct Rep<D> {
    /// Host seconds of the timed region, piece by piece (`drive::Laps`):
    /// the same pieces, doing the same work, on every rep.
    pub pieces: Vec<f64>,
    /// Operations offered: one per packet injected or fed.
    pub attempted: u64,
    /// Operations that completed (delivered, for the fabric). The rest
    /// failed, whatever the drop cause.
    pub completed: u64,
    /// Simulated results: must be identical on every rep.
    pub sim: Vec<(&'static str, f64)>,
    /// Digest of the rep's outputs: must be identical on every rep.
    pub fingerprint: u64,
    /// Workload-specific detail for the gates and the layer metrics.
    pub detail: D,
}

impl<D> Rep<D> {
    /// Host seconds of the whole timed region.
    pub fn secs(&self) -> f64 {
        self.pieces.iter().sum()
    }
}

pub trait Workload: Sized {
    type Detail;

    /// Compile, generate traffic, construct — everything `setup_s`
    /// covers. Coarse calls are spanned when the tracer is on.
    fn setup(name: &'static str, p: &Params, tr: &mut Tracer) -> Result<Self, BenchError>;

    /// Untimed work once before the timed reps, after the last timed
    /// set-up: by default the warm-up, one rep of the full input. (A
    /// tenth of the input does not warm the allocator: the first
    /// full-size rep after it ran up to 1.7x slower than the rest.)
    fn prepare(&mut self, _tr: &mut Tracer) -> Result<(), BenchError> {
        self.rep(&mut Tracer::new(false)).map(drop)
    }

    /// One rep on a fresh instance; the input is cloned outside the
    /// timed region.
    fn rep(&self, tr: &mut Tracer) -> Result<Rep<Self::Detail>, BenchError>;

    /// Peak resident set of the process that did the work, in KiB: this
    /// one, unless the workload is a child process.
    fn peak_rss_kb(&self) -> Result<u64, BenchError> {
        crate::harness::self_peak_rss_kb()
    }

    /// Correctness gates beyond "identical across reps". Untimed.
    fn gates(&self, rep: &Rep<Self::Detail>) -> Result<(), BenchError>;

    /// Per-layer metrics of the traced pass, from the tracer's spans
    /// and histograms (accumulated over `traced_reps` reps) and the
    /// last traced rep.
    fn layer_metrics(
        &self,
        tr: &mut Tracer,
        traced_reps: u64,
        rep: &Rep<Self::Detail>,
        m: &mut Metrics,
    ) -> Result<(), BenchError>;
}

pub(crate) fn layer_err<E: std::fmt::Display>(
    workload: &'static str,
    call: &'static str,
) -> impl FnOnce(E) -> BenchError {
    move |e| BenchError::Layer {
        workload,
        call,
        detail: e.to_string(),
    }
}

pub(crate) fn gate(
    workload: &'static str,
    gate: &'static str,
    ok: bool,
    detail: impl FnOnce() -> String,
) -> Result<(), BenchError> {
    if ok {
        Ok(())
    } else {
        Err(BenchError::Gate {
            workload,
            gate,
            detail: detail(),
        })
    }
}

/// The §4.4 trace for a bundled app: web-search flows, bimodal 200 B /
/// 1400 B packets, line rate, the app's own header filler. Apps that
/// read an arrival timestamp get the real one.
pub(crate) fn app_trace(
    app: &AppSpec,
    prog: &CompiledProgram,
    packets: usize,
    seed: u64,
) -> Vec<Packet> {
    let fill = app.fill;
    let (mut trace, _flows) = FlowTraceBuilder::new(packets, seed)
        .build(prog.num_fields(), |rng, key, fields| {
            fill(prog, key, rng, fields)
        });
    if let Some(id) = prog.field("arr_ts") {
        for p in &mut trace {
            p.fields[id.index()] = p.arrival as i64;
        }
    }
    trace
}

/// FNV-1a over a sequence of words — the rep fingerprint.
pub(crate) fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, mp5_traffic::streams::fnv1a_fold)
}

pub(crate) fn regs_fingerprint(regs: &[Vec<mp5_types::Value>]) -> u64 {
    fnv_words(regs.iter().flatten().map(|v| *v as u64))
}

/// Traffic generation, the core's call-by-call timings and its exact
/// counts, for every workload that streams one switch in this process:
/// spans and per-call histograms (over `traced_reps` reps of
/// `packets` packets) → per-packet costs.
pub(crate) fn streamed_switch_metrics(
    tr: &Tracer,
    traced_reps: u64,
    packets: usize,
    report: &mp5_core::RunReport,
    m: &mut Metrics,
) {
    m.set(
        "traffic.gen_ns_per_pkt",
        tr.span_total_ns("traffic.gen") as f64 / packets.max(1) as f64,
    );
    for (name, v) in crate::drive::core_counts(report) {
        m.set(name, v);
    }
    let pkts = (report.completed * traced_reps).max(1) as f64;
    let reps = traced_reps.max(1) as f64;
    m.set(
        "core.new_ms",
        tr.span_total_ns("core.new") as f64 / 1e6 / reps,
    );
    m.set(
        "core.finish_ms",
        tr.span_total_ns("core.finish") as f64 / 1e6 / reps,
    );
    for (metric, hist) in [
        ("core.offer_ns_per_pkt", "core.offer"),
        ("core.tick_ns_per_pkt", "core.tick"),
        ("core.drain_ns_per_pkt", "core.drain"),
    ] {
        m.set(metric, tr.hist_sum_ns(hist) as f64 / pkts);
    }
    if let Some(h) = tr.hist("core.tick") {
        m.set("core.tick_p50_ns", h.percentile(50.0).unwrap_or(0) as f64);
        // Catalogued as p99; a run too short to support p99 reports
        // the highest percentile it does support.
        let tail = crate::stats::highest_supported_percentile(h.samples as usize).unwrap_or(50.0);
        m.set(
            "core.tick_p99_ns",
            h.percentile(tail.min(99.0)).unwrap_or(0) as f64,
        );
    }
}
