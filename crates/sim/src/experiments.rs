//! The paper's evaluation (§4) as one experiment grid.
//!
//! A [`Point`] is one simulator run: a [`Workload`] on a [`Design`] at
//! `k` pipelines, with an optional FIFO capacity and remap period, fed
//! one input stream (its seed). [`measure`] runs it and returns every
//! quantity a figure reads. Each paper table or figure is a named
//! [`Slice`] of the grid: the points of its rows, the columns it prints
//! and archives, its footer lines and the claims it checks. The
//! `mp5exp` binary prints the slices; EXPERIMENTS.md records the
//! comparison with the paper.
//!
//! Scale is an explicit [`Scale`] argument; nothing here reads the
//! environment.

use std::collections::HashMap;

use serde_json::{Map, Value as Json};

use mp5_apps::AppSpec;
use mp5_asic::{AsicModel, PAPER_TABLE1};
use mp5_banzai::BanzaiSwitch;
use mp5_compiler::{compile_with_options, CompileOptions, FlowOrderSpec, Target};
use mp5_core::{Mp5Switch, Partition, PartitionedSwitch, SwitchConfig};
use mp5_traffic::{AccessPattern, FlowTraceBuilder, TraceBuilder};
use mp5_types::{Packet, PacketId};

use crate::metrics::{c1_violation_fraction, reordered_flow_fraction};
use crate::parallel_map;
use crate::synth::{synthetic_compiled, synthetic_trace, SynthConfig};
use crate::table::{pct, render, to_json, tp};

/// How large each run is and how many input streams a point averages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Packets per run.
    pub packets: usize,
    /// Independent input streams per data point (the paper uses 10).
    pub seeds: usize,
}

/// What a point runs.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// The §4.3 synthetic program and line-rate trace (the point sets
    /// its packet count and seed).
    Synth(SynthConfig),
    /// A bundled application under the §4.4 traffic of [`app_trace`].
    App(AppSpec),
    /// The NAT-like program of the flow-order ablation (half its
    /// packets are stateless), with or without §3.4 flow-order
    /// enforcement. Its packets carry their flow in field 0.
    Nat {
        /// Compile with the dummy final-stage flow-order state.
        enforced: bool,
    },
}

/// The switch a point runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// MP5 (§3).
    Mp5,
    /// Ideal MP5: zero-cost steering and sharding.
    Ideal,
    /// MP5 without D4's preemptive access-order enforcement.
    NoD4,
    /// Static state sharding, hashed with the stream seed `^ 0xABCD`.
    Static,
    /// One active pipeline.
    Naive,
    /// Today's hardware: recirculation to the pipeline owning a state.
    Recirc,
    /// Two independent MP5 chiplets (§3.5.3), each owning half the
    /// pipelines (`k` even, at least 2) and ports 0–31 or 32–63.
    Chiplets,
}

/// One run of the grid. FIFO capacity and remap period apply to the
/// designs of one switch (not chiplets); recirculation has neither
/// FIFOs nor remaps.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Program and traffic.
    pub workload: Workload,
    /// Switch design.
    pub design: Design,
    /// Pipelines `k`.
    pub pipelines: usize,
    /// Per-lane FIFO capacity; `None` keeps the design's default.
    pub fifo_capacity: Option<usize>,
    /// Cycles between remap runs; `None` keeps the design's default.
    pub remap_period: Option<u64>,
    /// Packets in the input stream.
    pub packets: usize,
    /// Input stream seed.
    pub seed: u64,
}

impl Point {
    /// A point with the design's default FIFO capacity and remap period.
    pub fn new(w: Workload, design: Design, pipelines: usize, packets: usize, seed: u64) -> Self {
        Point {
            workload: w,
            design,
            pipelines,
            fifo_capacity: None,
            remap_period: None,
            packets,
            seed,
        }
    }

    fn switch_config(&self) -> SwitchConfig {
        let k = self.pipelines;
        let mut sw = match self.design {
            Design::Ideal => SwitchConfig::ideal(k),
            Design::NoD4 => SwitchConfig::no_d4(k),
            Design::Static => SwitchConfig::static_shard(k, self.seed ^ 0xABCD),
            Design::Naive => SwitchConfig::naive(k),
            Design::Recirc => SwitchConfig::recirc(k),
            _ => SwitchConfig::mp5(k),
        };
        if let Some(cap) = self.fifo_capacity {
            sw.fifo_capacity = Some(cap);
        }
        if let Some(period) = self.remap_period {
            sw.remap_period = period;
        }
        sw
    }
}

/// Everything a figure reads from one run.
#[derive(Debug, Clone, Copy)]
pub struct Measure {
    /// Normalized throughput (§4.3.1); offered-weighted over chiplets.
    pub throughput: f64,
    /// Fraction of offered packets delivered.
    pub delivered: f64,
    /// Deepest stage FIFO observed.
    pub max_queue: usize,
    /// State migrations by the sharding runtime.
    pub remap_moves: u64,
    /// Crossbar steers per packet, or on the recirculating switch,
    /// recirculations (`RunReport::steered`).
    pub steers_per_packet: f64,
    /// Fraction of state-accessing packets that violate C1 against the
    /// Banzai reference (NaN for chiplets, whose states are split).
    pub c1_violations: f64,
    /// Functional equivalence with the Banzai reference; for chiplets,
    /// every delivered packet's outputs match the whole-switch run.
    pub equivalent: bool,
    /// Fraction of multi-packet flows reordered (0 without flows).
    pub reordered: f64,
}

const NAT: &str = "
    struct Packet {
        int src_ip; int dst_ip; int src_port; int dst_port; int proto;
        int is_syn;
        int nat_port;
    };
    int bindings[8] = {0};
    void func(struct Packet p) {
        int idx = hash3(hash2(p.src_ip, p.dst_ip),
                        hash2(p.src_port, p.dst_port), p.proto) % 8;
        if (p.is_syn == 1) {
            bindings[idx] = p.src_port + 10000;
            p.nat_port = bindings[idx];
        } else {
            p.nat_port = 0;
        }
    }";

type Flows = HashMap<PacketId, mp5_types::Value>;

impl Workload {
    /// The compiled program, its input trace, and each packet's flow.
    fn build(
        self,
        packets: usize,
        seed: u64,
    ) -> (mp5_compiler::CompiledProgram, Vec<Packet>, Flows) {
        match self {
            Workload::Synth(cfg) => {
                let cfg = SynthConfig {
                    packets,
                    seed,
                    ..cfg
                };
                let prog = synthetic_compiled(cfg.stateful_stages, cfg.reg_size)
                    .expect("synthetic program compiles");
                let trace = synthetic_trace(&prog, &cfg);
                (prog, trace, Flows::new())
            }
            Workload::App(app) => {
                let (prog, trace) = app_trace(&app, packets, seed);
                (prog, trace, Flows::new())
            }
            Workload::Nat { enforced } => {
                let opts = CompileOptions {
                    enforce_flow_order: enforced.then(FlowOrderSpec::default),
                    ..Default::default()
                };
                let prog = compile_with_options(NAT, &Target::default(), &opts)
                    .expect("NAT program compiles");
                let trace =
                    TraceBuilder::new(packets, seed).build(prog.num_fields(), |rng, _, f| {
                        let flow = rand::Rng::gen_range(rng, 0..32i64);
                        f[..5].copy_from_slice(&[flow, 99, 1000 + flow, 80, 6]);
                        f[5] = i64::from(rand::Rng::gen_bool(rng, 0.5));
                    });
                let flows = trace.iter().map(|p| (p.id, p.fields[0])).collect();
                (prog, trace, flows)
            }
        }
    }
}

/// Runs one point against the single-pipeline Banzai reference.
pub fn measure(p: &Point) -> Measure {
    let (prog, trace, flows) = p.workload.build(p.packets, p.seed);
    let reference = BanzaiSwitch::new(prog.clone()).run(trace.clone());
    let arrival: Vec<PacketId> = trace.iter().map(|q| q.id).collect();
    let reports = match p.design {
        Design::Chiplets => {
            let half = |i: u16| Partition {
                name: format!("chiplet{i}"),
                program: prog.clone(),
                pipelines: p.pipelines / 2,
                ports: 32 * i..32 * (i + 1),
            };
            let chip = PartitionedSwitch::new(p.pipelines, vec![half(0), half(1)]);
            chip.run(trace).into_iter().map(|r| r.report).collect()
        }
        _ => vec![Mp5Switch::new(prog, p.switch_config()).run(trace)],
    };
    let completion: Vec<PacketId> = reports
        .iter()
        .flat_map(|r| r.completions.iter().map(|&(id, _)| id))
        .collect();
    let reordered = reordered_flow_fraction(&flows, &arrival, &completion);
    if let [r] = reports.as_slice() {
        return Measure {
            throughput: r.normalized_throughput(),
            delivered: r.delivered_fraction(),
            max_queue: r.max_queue_depth,
            remap_moves: r.remap_moves,
            steers_per_packet: r.steered as f64 / r.offered.max(1) as f64,
            c1_violations: c1_violation_fraction(&reference.access_log, &r.result.access_log),
            equivalent: r.result.equivalent_to(&reference),
            reordered,
        };
    }
    let offered = reports.iter().map(|r| r.offered).sum::<u64>().max(1) as f64;
    let weighted = |f: fn(&mp5_core::RunReport) -> f64| {
        reports.iter().map(|r| f(r) * r.offered as f64).sum::<f64>() / offered
    };
    Measure {
        throughput: weighted(|r| r.normalized_throughput()),
        delivered: weighted(|r| r.delivered_fraction()),
        max_queue: reports.iter().map(|r| r.max_queue_depth).max().unwrap_or(0),
        remap_moves: reports.iter().map(|r| r.remap_moves).sum(),
        steers_per_packet: reports.iter().map(|r| r.steered).sum::<u64>() as f64 / offered,
        c1_violations: f64::NAN,
        equivalent: reports.iter().all(|r| {
            (r.result.outputs.iter()).all(|(id, out)| reference.outputs.get(id) == Some(out))
        }),
        reordered,
    }
}

/// Builds the realistic §4.4 trace for an application: Web-search
/// flows, bimodal packet sizes, line-rate input.
pub fn app_trace(
    app: &AppSpec,
    packets: usize,
    seed: u64,
) -> (mp5_compiler::CompiledProgram, Vec<Packet>) {
    let prog = app.compile().expect("bundled app compiles");
    let nf = prog.num_fields();
    let fill = app.fill;
    let (mut trace, _flows) = FlowTraceBuilder::new(packets, seed).build(nf, |rng, key, fields| {
        fill(&prog, key, rng, fields);
    });
    // Apps that consume an arrival timestamp get the real one.
    if let Some(id) = prog.field("arr_ts") {
        for p in &mut trace {
            p.fields[id.index()] = p.arrival as i64;
        }
    }
    (prog, trace)
}

// ---------------------------------------------------------------------
// Slices: the paper's tables and figures
// ---------------------------------------------------------------------

/// One table row: its label values, and the points it measures grouped
/// into series of one point per input stream.
struct Row {
    label: Map,
    series: Vec<Vec<Point>>,
    measured: Vec<Vec<Measure>>,
}

/// Where a column's value comes from.
#[derive(Clone, Copy)]
enum Source {
    /// A row label.
    Label(&'static str),
    /// The mean of a quantity over one series, summed in stream order.
    Mean(usize, fn(&Measure) -> f64),
    /// Any function of the row.
    Of(fn(&Row) -> Json),
}

use Source::{Label, Mean, Of};

/// How a column prints its value.
type Show = fn(&Json) -> String;

/// A column: JSON key (empty: printed only), header, value and the
/// value's printed form.
type Column = (&'static str, &'static str, Source, Show);

impl Row {
    fn new(label: &[(&str, Json)], series: Vec<Vec<Point>>) -> Self {
        let mut map = Map::new();
        for (key, value) in label {
            map.insert(key.to_string(), value.clone());
        }
        Row {
            label: map,
            series,
            measured: Vec::new(),
        }
    }

    /// Series `i`'s measurements, in stream order.
    fn series(&self, i: usize) -> &[Measure] {
        &self.measured[i]
    }

    /// Mean of `q` over series `i`, summed in stream order.
    fn mean(&self, i: usize, q: fn(&Measure) -> f64) -> f64 {
        let s = self.series(i);
        s.iter().map(q).sum::<f64>() / s.len() as f64
    }

    fn value(&self, source: &Source) -> Json {
        match *source {
            Label(key) => self.label.get(key).cloned().unwrap_or(Json::Null),
            Mean(i, q) => Json::F64(self.mean(i, q)),
            Of(f) => f(self),
        }
    }
}

/// Footer lines, or a claim, over a slice's archived rows.
type OverRows<T> = fn(&[Json]) -> T;

/// A paper table or figure as a slice of the grid.
pub struct Slice {
    /// Name given to `mp5exp` and of the archive file.
    pub name: &'static str,
    title: &'static str,
    paper: &'static str,
    min_streams: usize,
    rows: fn(Scale) -> Vec<Row>,
    columns: Vec<Column>,
    footer: OverRows<Vec<String>>,
    claim: Option<(&'static str, OverRows<bool>)>,
}

/// A slice's measured rows: archived JSON objects and printed cells.
pub struct Table {
    /// One JSON object per row, keys in column order.
    pub rows: Vec<Json>,
    cells: Vec<Vec<String>>,
}

impl Table {
    /// The archive: the rows as pretty-printed JSON.
    pub fn json(&self) -> String {
        to_json(&self.rows).expect("JSON values serialize")
    }
}

impl Slice {
    fn new(
        name: &'static str,
        title: &'static str,
        paper: &'static str,
        rows: fn(Scale) -> Vec<Row>,
        columns: Vec<Column>,
    ) -> Self {
        Slice {
            name,
            title,
            paper,
            min_streams: 1,
            rows,
            columns,
            footer: |_| Vec::new(),
            claim: None,
        }
    }

    fn at_least(mut self, min_streams: usize) -> Self {
        self.min_streams = min_streams;
        self
    }

    fn footer(mut self, footer: OverRows<Vec<String>>) -> Self {
        self.footer = footer;
        self
    }

    fn check(mut self, claim: &'static str, holds: OverRows<bool>) -> Self {
        self.claim = Some((claim, holds));
        self
    }

    /// Input streams per point at `scale`.
    fn streams(&self, scale: Scale) -> usize {
        scale.seeds.max(self.min_streams)
    }

    /// Whether the slice archives its rows (Table 1 does not).
    pub fn archives(&self) -> bool {
        self.columns.iter().any(|c| !c.0.is_empty())
    }

    /// Measures every point of the slice, in parallel.
    pub fn run(&self, scale: Scale) -> Table {
        let seeds = self.streams(scale);
        let mut rows = (self.rows)(Scale { seeds, ..scale });
        let points = rows.iter().flat_map(|r| r.series.iter().flatten());
        let jobs: Vec<_> = points.map(|&p| move || measure(&p)).collect();
        let mut measured = parallel_map(jobs).into_iter();
        for row in &mut rows {
            let lens: Vec<usize> = row.series.iter().map(Vec::len).collect();
            let take = |&n: &usize| measured.by_ref().take(n).collect();
            row.measured = lens.iter().map(take).collect();
        }
        let (mut json, mut cells) = (Vec::new(), Vec::new());
        for row in &rows {
            let mut object = Map::new();
            let mut printed = Vec::new();
            for (key, _, source, show) in &self.columns {
                let value = row.value(source);
                printed.push(show(&value));
                if !key.is_empty() {
                    object.insert(key.to_string(), value);
                }
            }
            json.push(Json::Object(object));
            cells.push(printed);
        }
        Table { rows: json, cells }
    }

    /// The banner: title, paper reference and scale.
    pub fn banner(&self, scale: Scale) -> String {
        format!(
            "== {} ==\nreproduces: {}\nscale: {} packets/run, {} streams/point \
             (env MP5_EXP_PACKETS / MP5_EXP_SEEDS)\n\n",
            self.title,
            self.paper,
            scale.packets,
            self.streams(scale)
        )
    }

    /// The table and footer lines, after the archive's path if any.
    pub fn body(&self, table: &Table, archived: Option<&std::path::Path>) -> String {
        let mut out = archived
            .map(|p| format!("(rows archived to {})\n", p.display()))
            .unwrap_or_default();
        let headers: Vec<&str> = self.columns.iter().map(|c| c.1).collect();
        out += &render(&headers, &table.cells);
        for line in std::iter::once(String::new()).chain((self.footer)(&table.rows)) {
            out += &line;
            out.push('\n');
        }
        out
    }

    /// `Err` names the claim the rows broke.
    pub fn verify(&self, table: &Table) -> Result<(), &'static str> {
        match self.claim {
            Some((claim, holds)) if !holds(&table.rows) => Err(claim),
            _ => Ok(()),
        }
    }
}

fn float(v: &Json) -> f64 {
    v.as_f64().unwrap_or(f64::NAN)
}

fn min_max(rows: &[Json], f: impl Fn(&Json) -> f64) -> (f64, f64) {
    let (lo, hi) = (f64::INFINITY, f64::NEG_INFINITY);
    (rows.iter().map(f)).fold((lo, hi), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

fn as_text(v: &Json) -> String {
    v.as_str().map_or_else(|| v.to_string(), str::to_string)
}

fn as_int(v: &Json) -> String {
    (float(v) as usize).to_string()
}

fn as_tp(v: &Json) -> String {
    tp(float(v))
}

fn as_pct(v: &Json) -> String {
    pct(float(v))
}

fn pick(v: &Json, yes: &str, no: &str) -> String {
    (if v == &true { yes } else { no }).to_string()
}

fn text(s: &str) -> Json {
    Json::String(s.to_string())
}

fn tput(m: &Measure) -> f64 {
    m.throughput
}

fn synth(pattern: AccessPattern) -> Workload {
    let cfg = SynthConfig::default();
    Workload::Synth(SynthConfig { pattern, ..cfg })
}

fn skewed() -> Workload {
    synth(AccessPattern::paper_skewed())
}

/// One series: `point(seed)` for each stream seed counted from `base`.
fn per_seed(scale: Scale, base: u64, point: impl Fn(u64) -> Point) -> Vec<Point> {
    (base..base + scale.seeds as u64).map(point).collect()
}

/// Figure 7: MP5 and ideal, uniform and skewed, at each swept `x`.
/// `set` applies `x` to the default synthetic configuration, whose
/// `pipelines` the points run at.
fn fig7(scale: Scale, xs: &[usize], set: fn(&mut SynthConfig, usize)) -> Vec<Row> {
    let (uniform, skewed) = (AccessPattern::Uniform, AccessPattern::paper_skewed());
    let series = [
        (Design::Mp5, uniform),
        (Design::Ideal, uniform),
        (Design::Mp5, skewed),
        (Design::Ideal, skewed),
    ];
    let row = |&x: &usize| {
        let mut cfg = SynthConfig::default();
        set(&mut cfg, x);
        let points = series.map(|(design, pattern)| {
            let w = Workload::Synth(SynthConfig { pattern, ..cfg });
            per_seed(scale, 1000, |s| {
                Point::new(w, design, cfg.pipelines, scale.packets, s)
            })
        });
        Row::new(&[("x", Json::F64(x as f64))], points.into())
    };
    xs.iter().map(row).collect()
}

fn fig7_columns(x: &'static str, show_x: Show) -> Vec<Column> {
    vec![
        ("x", x, Label("x"), show_x),
        ("mp5_uniform", "MP5/uniform", Mean(0, tput), as_tp),
        ("ideal_uniform", "ideal/uniform", Mean(1, tput), as_tp),
        ("mp5_skewed", "MP5/skewed", Mean(2, tput), as_tp),
        ("ideal_skewed", "ideal/skewed", Mean(3, tput), as_tp),
    ]
}

fn fig7_reduction(rows: &[Json], from_to: &str, paper: &str) -> Vec<String> {
    let uniform = |r: &Json| float(&r["mp5_uniform"]);
    let cut = (1.0 - uniform(&rows[rows.len() - 1]) / uniform(&rows[0])) * 100.0;
    vec![format!(
        "uniform reduction {from_to}: {cut:.1}% (paper: {paper})"
    )]
}

/// §4.3.2 microbenchmarks: one row per stream at 4 pipelines, one
/// single-point series per `(workload, design)`.
fn per_stream(scale: Scale, base: u64, series: &[(Workload, Design)]) -> Vec<Row> {
    let row = |seed| {
        let point = |&(w, d): &(Workload, Design)| vec![Point::new(w, d, 4, scale.packets, seed)];
        let series = series.iter().map(point).collect();
        Row::new(&[("seed", Json::U64(seed))], series)
    };
    (base..base + scale.seeds as u64).map(row).collect()
}

/// A fixed-seed ablation: one row per swept value, one single-point
/// series per point `points` gives for it.
fn ablation(key: &str, values: &[u64], points: impl Fn(u64) -> Vec<Point>) -> Vec<Row> {
    let series = |v| points(v).into_iter().map(|p| vec![p]).collect();
    let row = |&v: &u64| Row::new(&[(key, Json::U64(v))], series(v));
    values.iter().map(row).collect()
}

fn speedup(r: &Row, fast: usize, slow: usize) -> Json {
    Json::F64(r.mean(fast, tput) / r.mean(slow, tput).max(1e-9))
}

fn recirc_loss(r: &Row) -> Json {
    Json::F64((1.0 - r.mean(1, tput) / r.mean(0, tput)) * 100.0)
}

fn max_queue(r: &Row) -> Json {
    let deepest = r.series(0).iter().map(|m| m.max_queue as u64).max();
    Json::U64(deepest.unwrap_or(0))
}

fn all_equivalent(r: &Row) -> Json {
    Json::Bool(r.series(0).iter().all(|m| m.equivalent))
}

fn table1_rows(_: Scale) -> Vec<Row> {
    let m = AsicModel::default();
    let cells = [2usize, 4, 8].map(|k| [4, 8, 12, 16].map(|s| (k, s)));
    let row = |&(k, s): &(usize, usize)| {
        let ours = m.area_mm2(k, s);
        let cell = PAPER_TABLE1.iter().find(|c| (c.0, c.1) == (k, s));
        let paper = cell.expect("cell present").2;
        let label = [
            ("k", Json::U64(k as u64)),
            ("s", Json::U64(s as u64)),
            ("model", Json::F64(ours)),
            ("paper", Json::F64(paper)),
            ("delta", Json::F64((ours - paper) / paper * 100.0)),
            ("clock", Json::F64(m.clock_ghz(k))),
            ("target", Json::Bool(m.meets_1ghz(k))),
        ];
        Row::new(&label, Vec::new())
    };
    cells.iter().flatten().map(row).collect()
}

fn table1_footer(_: &[Json]) -> Vec<String> {
    let m = AsicModel::default();
    let kb = m.sram_overhead_kb(10, 1000);
    let (lo, hi) = m.area_overhead_percent(4, 16);
    let (lo8, hi8) = m.area_overhead_percent(8, 16);
    let max_k = m.max_pipelines_at_1ghz();
    vec![
        "SRAM overhead for dynamic sharding (30 bits/register index):".into(),
        format!("  10 stateful stages x 1000 entries: {kb:.1} KB per pipeline (paper: ~35 KB)"),
        format!(
            "  4 pipelines x 16 stages on a 300-700 mm^2 die: {lo:.2}%-{hi:.2}% (paper: 0.5-1%)"
        ),
        format!("  8 pipelines x 16 stages: {lo8:.2}%-{hi8:.2}% (paper: 2-4%)"),
        format!("  crossbar scaling limit: 1 GHz holds up to k={max_k} (paper §3.5.3)"),
    ]
}

/// Every slice, in the order `mp5exp all` prints them. Laid out by hand
/// as one table: a slice per block, a column per line.
#[rustfmt::skip]
pub fn slices() -> Vec<Slice> {
    use Design::*;
    let c1: fn(&Measure) -> f64 = |m| m.c1_violations;
    let delivered: fn(&Measure) -> f64 = |m| m.delivered;
    let reordered: fn(&Measure) -> f64 = |m| m.reordered;
    let seed: Column = ("seed", "stream", Label("seed"), as_text);
    let mm2: Show = |v| format!("{:.2}", float(v));
    let ratio: Show = |v| format!("{:.2}x", float(v));
    vec![
        Slice::new("table1", "Table 1: chip area and clock speed", "paper §4.2, Table 1",
            table1_rows,
            vec![
                ("", "k", Label("k"), as_text),
                ("", "s", Label("s"), as_text),
                ("", "model mm^2", Label("model"), mm2),
                ("", "paper mm^2", Label("paper"), mm2),
                ("", "delta", Label("delta"), |v| format!("{:+.1}%", float(v))),
                ("", "clock", Label("clock"), |v| format!("{:.2} GHz", float(v))),
                ("", "target", Label("target"), |v| pick(v, ">= 1 GHz ok", "below!")),
            ])
            .footer(table1_footer),
        Slice::new("micro_d2", "D2: dynamically sharded shared memory",
            "paper 4.3.2 (dynamic/static throughput ratio: 1.1-3.3x skewed, 1-1.5x uniform)",
            |s| {
                let u = synth(AccessPattern::Uniform);
                per_stream(s, 2000, &[(u, Mp5), (u, Static), (skewed(), Mp5), (skewed(), Static)])
            },
            vec![
                seed,
                ("ratio_uniform", "dynamic/static (uniform)", Of(|r| speedup(r, 0, 1)), ratio),
                ("ratio_skewed", "dynamic/static (skewed)", Of(|r| speedup(r, 2, 3)), ratio),
            ])
            .at_least(5)
            .footer(|rows| {
                let (ulo, uhi) = min_max(rows, |r| float(&r["ratio_uniform"]));
                let (slo, shi) = min_max(rows, |r| float(&r["ratio_skewed"]));
                vec![format!("uniform ratio range: {ulo:.2}-{uhi:.2}x (paper: 1-1.5x)"),
                     format!("skewed  ratio range: {slo:.2}-{shi:.2}x (paper: 1.1-3.3x)")]
            }),
        Slice::new("micro_d3", "D3: inter-pipeline packet steering vs re-circulation",
            "paper 4.3.2 (recirc loses 31-77% vs MP5; worse than naive when recircs/pkt > k)",
            |s| per_stream(s, 4000, &[(skewed(), Mp5), (skewed(), Recirc), (skewed(), Naive)]),
            vec![
                seed,
                ("mp5", "MP5", Mean(0, tput), as_tp),
                ("recirc", "recirc", Mean(1, tput), as_tp),
                ("naive", "naive", Mean(2, tput), as_tp),
                ("recircs_per_packet", "recircs/pkt", Mean(1, |m| m.steers_per_packet), mm2),
                ("", "recirc loss vs MP5", Of(recirc_loss), |v| format!("{:.1}%", float(v))),
            ])
            .at_least(5)
            .footer(|rows| {
                let loss = |r: &Json| (1.0 - float(&r["recirc"]) / float(&r["mp5"])) * 100.0;
                let (lo, hi) = min_max(rows, loss);
                vec![format!(
                    "recirculation throughput loss range: {lo:.1}%-{hi:.1}% (paper: 31-77%)")]
            }),
        Slice::new("micro_d4", "D4: preemptive state access order enforcement",
            "paper 4.3.2 (MP5: 0 violations; no-D4: 14-26%; recirculation: 18-31%)",
            |s| per_stream(s, 3000, &[(skewed(), Mp5), (skewed(), NoD4), (skewed(), Recirc)]),
            vec![
                seed,
                ("mp5", "MP5 (D4)", Mean(0, c1), as_pct),
                ("no_d4", "without D4", Mean(1, c1), as_pct),
                ("recirc", "recirculation", Mean(2, c1), as_pct),
            ])
            .at_least(5)
            .check("MP5 must be exactly zero", |rows| rows.iter().all(|r| r["mp5"] == 0.0))
            .footer(|rows| {
                let (nlo, nhi) = min_max(rows, |r| float(&r["no_d4"]) * 100.0);
                let (rlo, rhi) = min_max(rows, |r| float(&r["recirc"]) * 100.0);
                vec![format!("no-D4 violation range: {nlo:.1}%-{nhi:.1}% (paper: 14-26%)"),
                     format!("recirc violation range: {rlo:.1}%-{rhi:.1}% (paper: 18-31%)")]
            }),
        Slice::new("fig7a", "Figure 7a: throughput vs pipelines (1..16)",
            "paper 4.3.3 (~25% reduction from 1 to 16 pipelines; MP5 close to ideal)",
            |s| fig7(s, &[1, 2, 4, 8, 16], |c, k| c.pipelines = k),
            fig7_columns("pipelines", as_int))
            .footer(|rows| fig7_reduction(rows, "1 -> 16 pipelines", "~25%")),
        Slice::new("fig7b", "Figure 7b: throughput vs stateful stages (0..10)",
            "paper 4.3.3 (~20% reduction from 0 to 10 stateful stages)",
            |s| fig7(s, &[0, 2, 4, 6, 8, 10], |c, m| c.stateful_stages = m),
            fig7_columns("stateful stages", as_int))
            .footer(|rows| fig7_reduction(rows, "0 -> 10 stateful stages", "~20%")),
        Slice::new("fig7c", "Figure 7c: throughput vs register size (1..4096)",
            "paper 4.3.3 (throughput increases steadily with register size)",
            |s| fig7(s, &[1, 4, 16, 64, 256, 512, 1024, 4096], |c, r| c.reg_size = r as u32),
            fig7_columns("register size", as_int)),
        Slice::new("fig7d", "Figure 7d: throughput vs packet size (64..1500 B)",
            "paper 4.3.3 (line rate with packets as small as 128 B)",
            |s| fig7(s, &[64, 128, 256, 512, 1024, 1500], |c, b| c.packet_size = b as u32),
            fig7_columns("packet size", |v| format!("{} B", as_int(v))))
            .footer(|rows| rows.iter().filter(|r| r["x"] == 128.0).take(1).map(|r| format!(
                "line rate at 128 B: uniform {} / skewed {} (paper: line rate from 128 B)",
                as_tp(&r["mp5_uniform"]), as_tp(&r["mp5_skewed"]))).collect()),
        Slice::new("fig8", "Figure 8: real applications",
            "paper 4.4 (line rate for all apps at every pipeline count; max queue 11/8/7/7)",
            |s| {
                let at = |app: AppSpec, k: usize| {
                    let point = |seed| Point::new(Workload::App(app), Mp5, k, s.packets, seed);
                    let (pipelines, fpga) = (Json::U64(k as u64), Json::Bool(k <= 4));
                    let label = [("app", text(app.name)), ("pipelines", pipelines), ("fpga", fpga)];
                    Row::new(&label, vec![per_seed(s, 5000, point)])
                };
                let apps = mp5_apps::PAPER_APPS.into_iter();
                apps.flat_map(|app| [1, 2, 4, 8, 16].map(|k| at(app, k))).collect()
            },
            vec![
                ("app", "app", Label("app"), as_text),
                ("pipelines", "pipelines", Label("pipelines"), as_text),
                ("throughput", "throughput", Mean(0, tput), as_tp),
                ("max_queue_depth", "max queue", Of(max_queue), as_text),
                ("fpga_range", "range", Label("fpga"), |v| pick(v, "sim+fpga", "sim")),
                ("equivalent", "equivalent", Of(all_equivalent), as_text),
            ])
            .footer(|rows| mp5_apps::PAPER_APPS.iter().map(|app| {
                let of_app = rows.iter().filter(|r| r["app"] == app.name);
                let max_q = of_app.map(|r| float(&r["max_queue_depth"]) as usize).max();
                format!("{:<10} worst-case queue depth: {}", app.name, max_q.unwrap_or(0))
            }).collect()),
        Slice::new("ablation_fifo", "Ablation: FIFO capacity",
            "paper 4.2 footnote on FIFO sizing (8 entries/lane avoids tail drops)",
            |s| ablation("capacity", &[1, 2, 4, 8, 16, 32], |cap| {
                let at = |w| Point { fifo_capacity: Some(cap as usize),
                                     ..Point::new(w, Mp5, 4, s.packets, 42) };
                vec![at(Workload::App(mp5_apps::FLOWLET)), at(synth(AccessPattern::Uniform))]
            }),
            vec![
                ("capacity", "FIFO capacity", Label("capacity"), as_text),
                ("delivered_app", "delivered (flowlet, 4.4 traffic)", Mean(0, delivered), as_pct),
                ("delivered_synth", "delivered (worst-case 64B)", Mean(1, delivered), as_pct),
            ])
            .footer(|rows| rows.iter().filter(|r| r["capacity"] == 8u64).take(1).map(|r| format!(
                "at the paper's capacity of 8: flowlet delivers {} \
                 (drop-free is the paper's claim)",
                as_pct(&r["delivered_app"]))).collect()),
        Slice::new("ablation_remap", "Ablation: remap period",
            "paper 3.4 (heuristic every ~100 cycles) / 4.3.1 (t = 100)",
            |s| ablation("period", &[25, 50, 100, 200, 400, 800, 100_000_000], |period| {
                vec![Point { remap_period: Some(period),
                             ..Point::new(skewed(), Mp5, 4, s.packets, 9) }]
            }),
            vec![
                ("period", "remap period (cycles)", Label("period"), |v| match v.as_u64() {
                    Some(p) if p > 1_000_000 => "never".into(),
                    _ => as_text(v),
                }),
                ("throughput", "throughput (skewed)", Mean(0, tput), as_tp),
                ("moves", "migrations", Of(|r| Json::U64(r.series(0)[0].remap_moves)), as_text),
            ]),
        Slice::new("ablation_flow_order", "Ablation: flow-order enforcement",
            "paper 3.4 'Handling starvation and packet re-ordering'",
            |s| ablation("pipelines", &[2, 4, 8], |k| {
                let at = |enforced| {
                    Point::new(Workload::Nat { enforced }, Mp5, k as usize, s.packets, 77)
                };
                vec![at(false), at(true)]
            }),
            vec![
                ("pipelines", "pipelines", Label("pipelines"), as_text),
                ("plain_throughput", "plain tput", Mean(0, tput), as_tp),
                ("plain_reordered", "plain reordered flows", Mean(0, reordered), as_pct),
                ("ordered_throughput", "enforced tput", Mean(1, tput), as_tp),
                ("ordered_reordered", "enforced reordered", Mean(1, reordered), as_pct),
            ])
            .check("flow-order enforcement must leave no flow reordered",
                   |rows| rows.iter().all(|r| r["ordered_reordered"] == 0.0)),
        Slice::new("ext_chiplet", "Extension: multi-chiplet MP5",
            "paper 3.5.3 (inter-chiplet processing left as future work)",
            |s| {
                let at = |app: AppSpec, (mode, design): (&str, Design)| {
                    let point = Point::new(Workload::App(app), design, 8, s.packets, 31);
                    Row::new(&[("app", text(app.name)), ("mode", text(mode))], vec![vec![point]])
                };
                let modes = [("monolithic-8", Mp5), ("chiplet-2x4", Chiplets)];
                let apps = [mp5_apps::SEQUENCER, mp5_apps::FLOWLET, mp5_apps::DDOS_COUNTER];
                apps.into_iter().flat_map(|app| modes.map(|m| at(app, m))).collect()
            },
            vec![
                ("app", "app", Label("app"), as_text),
                ("mode", "mode", Label("mode"), as_text),
                ("throughput", "throughput", Mean(0, tput), as_tp),
                ("globally_equivalent", "globally equivalent", Of(all_equivalent), as_text),
            ])
            .footer(|_| vec!["Monolithic MP5 keeps functional equivalence; independent chiplets\n\
                              cannot once state is shared across the port split - the gap the\n\
                              paper's future work would need to close.".into()]),
    ]
}
