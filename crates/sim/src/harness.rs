//! The model-based harness: Banzai's serial, entry-order execution is
//! the one oracle for the switch (DESIGN.md §6).
//!
//! Each generated case draws a program (the statement-template grammar,
//! a fixed program, a bundled app, or a 100-stage chain), traffic, `k`,
//! a design, a FIFO bound, a remap period, a fault plan, a checkpoint
//! cycle and a hot-swap point. It runs Banzai, an untraced switch, a
//! traced switch, and a switch that is checkpointed through the
//! snapshot codec, restored and hot-swapped on the way, then checks
//! conservation, the fault and swap ledgers, the event counts, that
//! every run reports the same, and the Banzai relation of DESIGN.md §11.
//! A tally over all cases proves the cases reach every regime.
//!
//! `tests/model.rs` sweeps every input; the other root suites pin one
//! input (the program, the design or the fault plan) with [`Pins`] and
//! check that their slice reaches its regimes. `mp5chaos` runs the
//! bundled apps under chaos plans on the `mp5` design.
//!
//! [`fabric_sweep`] does the same for leaf–spine fabrics of these
//! switches: it reruns and traces each generated run and audits every
//! switch's stream. `tests/fabric_equivalence.rs` and
//! `mp5chaos --fabric` slice it.
//!
//! A failed check panics; [`cases`] prints the failing case's number
//! and input first.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::panic::AssertUnwindSafe;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use mp5_apps::{AppSpec, ALL_APPS};
use mp5_banzai::{BanzaiSwitch, RunResult};
use mp5_compiler::{compile, CompiledProgram, Target};
use mp5_core::{Mp5Switch, RunReport, ShardingMode, SprayMode, SwapReport, SwitchConfig};
use mp5_faults::{FaultPlan, NoFaults, PlannedFaults};
use mp5_serve::{FaultState, Server, Snapshot};
use mp5_topo::{Fabric, FabricConfig, FabricRun, RouteMode, SpineKill, Topology, TopologyConfig};
use mp5_trace::{audit, stream_hash, Check, Event, EventKind, MemSink, NopSink, TraceSink};
use mp5_traffic::{DcWorkload, TraceBuilder};
use mp5_types::Packet;

use crate::experiments::app_trace;

/// One statement template of the generated-program grammar; `S` is the
/// register's size.
#[derive(Debug, Clone, Copy)]
pub enum GenStmt {
    /// `(reg, field, delta)`: `r[p.hF % S] = r[p.hF % S] + delta;`
    Bump(usize, usize, i64),
    /// `(reg, field)`: `p.out = r[p.hF % S];`
    ReadOut(usize, usize),
    /// `(reg, field, t)`: `if (p.hF > t) { r[p.hF % S] = p.hF; }`
    PredUpdate(usize, usize, i64),
    /// `(a, b, field)`: `p.out = (p.hF % 2 == 0) ? rA[p.hF % SA] : rB[p.hF % SB];`
    TernaryRead(usize, usize, usize),
    /// `(src, dst, f, g)`: `int v = rS[p.hF % S]; rD[p.hG % SD] = rD[p.hG % SD] + v;`
    Chain(usize, usize, usize, usize),
    /// `(gate, reg, field)`: `if (rG[0] > 0) { r[p.hF % S] = r[p.hF % S] + 1; }`,
    /// a stateful predicate, so speculative phantoms.
    StatefulPred(usize, usize, usize),
}
pub use GenStmt::*;

/// The header fields `h0`..`h3` every grammar program declares.
pub const NFIELDS: usize = 4;

/// A program of the grammar: its register sizes and statements.
pub fn source(reg_sizes: &[u32], stmts: &[GenStmt]) -> String {
    let mut s = String::from("struct Packet { int h0; int h1; int h2; int h3; int out; };\n");
    for (i, size) in reg_sizes.iter().enumerate() {
        s += &format!("int r{i}[{size}] = {{{}}};\n", i + 1);
    }
    s += "void func(struct Packet p) {\n";
    let sz = |r: usize| reg_sizes[r];
    for (v, st) in stmts.iter().enumerate() {
        s += &match *st {
            Bump(r, f, d) => format!("r{r}[p.h{f} % {0}] = r{r}[p.h{f} % {0}] + {d};\n", sz(r)),
            ReadOut(r, f) => format!("p.out = r{r}[p.h{f} % {}];\n", sz(r)),
            PredUpdate(r, f, t) => {
                format!(
                    "if (p.h{f} > {t}) {{ r{r}[p.h{f} % {}] = p.h{f}; }}\n",
                    sz(r)
                )
            }
            TernaryRead(a, b, f) => format!(
                "p.out = (p.h{f} % 2 == 0) ? r{a}[p.h{f} % {}] : r{b}[p.h{f} % {}];\n",
                sz(a),
                sz(b)
            ),
            Chain(a, b, f, g) => format!(
                "int v{v} = r{a}[p.h{f} % {}];\nr{b}[p.h{g} % {1}] = r{b}[p.h{g} % {1}] + v{v};\n",
                sz(a),
                sz(b)
            ),
            StatefulPred(gate, r, f) => format!(
                "if (r{gate}[0] > 0) {{ r{r}[p.h{f} % {0}] = r{r}[p.h{f} % {0}] + 1; }}\n",
                sz(r)
            ),
        };
    }
    s + "}\n"
}

/// A random program of the grammar; combinations of templates may be
/// legally uncompilable (a cross-register atom), so the caller compiles.
fn generate_source(rng: &mut SmallRng) -> String {
    let nregs = rng.gen_range(1..=3);
    let reg_sizes: Vec<u32> = (0..nregs).map(|_| rng.gen_range(1..32)).collect();
    let n = rng.gen_range(1..4);
    let mut draw = |m: usize| rng.gen_range(0..m);
    let stmts: Vec<_> = (0..n)
        .map(|_| match draw(6) {
            0 => Bump(draw(nregs), draw(NFIELDS), 1 + draw(4) as i64),
            1 => ReadOut(draw(nregs), draw(NFIELDS)),
            2 => PredUpdate(draw(nregs), draw(NFIELDS), draw(32) as i64),
            3 => TernaryRead(draw(nregs), draw(nregs), draw(NFIELDS)),
            4 => Chain(draw(nregs), draw(nregs), draw(NFIELDS), draw(NFIELDS)),
            _ => StatefulPred(draw(nregs), draw(nregs), draw(NFIELDS)),
        })
        .collect();
    source(&reg_sizes, &stmts)
}

/// Fixed programs, one per regime the grammar reaches rarely.
pub const FIXED: [&str; 7] = [
    // One hot state: maximal queueing at one stage.
    "struct Packet { int h; int o; };
     int c = 0;
     void func(struct Packet p) { c = c + 1; p.o = c; }",
    // A shardable table: dynamic sharding, remaps, phantom traffic.
    "struct Packet { int h; int o; };
     int t[32] = {0};
     void func(struct Packet p) { t[p.h % 32] = t[p.h % 32] + 1; p.o = t[p.h % 32]; }",
    // Two stateful stages, one shardable: cross-stage phantom flights.
    "struct Packet { int h; int o; };
     int a[4] = {0};
     int b[64] = {0};
     void func(struct Packet p) {
         if (p.h % 3 == 0) { a[p.h % 4] = a[p.h % 4] + 1; }
         b[p.h % 64] = b[p.h % 64] + 1;
         p.o = b[p.h % 64];
     }",
    // Figure 3: half the packets serialize on a hot state, the rest
    // overtake them at the second stage unless D4 holds them back.
    "struct Packet { int a; int b; int o; };
     int r1[2] = {0};
     int r2[64] = {0};
     void func(struct Packet p) {
         if (p.a % 2 == 0) { r1[0] = r1[0] + 1; }
         r2[p.b % 64] = r2[p.b % 64] + 1;
         p.o = r2[p.b % 64];
     }",
    // A toggling stateful predicate: false branches waste cycles.
    "struct Packet { int h; int o; };
     int gate = 0;
     int r[32] = {0};
     void func(struct Packet p) {
         gate = 1 - gate;
         if (gate == 1) { r[p.h % 32] = r[p.h % 32] + 1; }
         p.o = gate;
     }",
    // An index read from state: the array is pinned.
    "struct Packet { int h; int o; };
     int ptr = 0;
     int r[16] = {0};
     void func(struct Packet p) {
         ptr = (ptr + 1) % 16;
         r[ptr % 16] = r[ptr % 16] + p.h;
         p.o = ptr;
     }",
    // No state at all.
    "struct Packet { int a; int b; };
     void func(struct Packet p) { p.b = p.a * 2 + 1; }",
];

/// A 70-link dependency chain feeding one `r[16]` update, one operation
/// per stage: 100 stages, wider than the 64-stage occupancy masks.
fn wide_chain() -> String {
    let mut src = String::from(
        "struct Packet { int h; int o; };
         int r[16] = {0};
         void func(struct Packet p) {
             int t0 = p.h;\n",
    );
    for i in 1..=70 {
        src += &format!("int t{i} = t{} * 3 + 1;\n", i - 1);
    }
    src + "r[p.h % 16] = r[p.h % 16] + t70; p.o = r[p.h % 16]; }"
}

fn target(wide: bool) -> Target {
    match wide {
        false => Target::default(),
        true => Target {
            max_stages: 100,
            max_chain_depth: 1,
            max_ops_per_stage: 256,
            ..Default::default()
        },
    }
}

/// A random design: any sharding, spray, phantom, queue layout and
/// starvation setting.
fn random_config(rng: &mut SmallRng, k: usize) -> SwitchConfig {
    use ShardingMode::*;
    SwitchConfig {
        sharding: [Dynamic, Static, Pinned, IdealPeriodic][rng.gen_range(0..4)],
        phantoms: rng.gen_bool(0.5),
        per_index_fifos: rng.gen_bool(0.5),
        spray: match rng.gen_bool(0.5) {
            true => SprayMode::SinglePipeline(0),
            false => SprayMode::RoundRobin,
        },
        starvation_threshold: [None, Some(4), Some(64)][rng.gen_range(0..3)],
        ecn_threshold: Some(4),
        seed: 7,
        ..SwitchConfig::mp5(k)
    }
}

/// The switch of `design` at `k` pipelines; `seed` salts static
/// sharding.
fn design_config(design: Design, k: usize, seed: u64, rng: &mut SmallRng) -> SwitchConfig {
    match design {
        Design::Mp5 => SwitchConfig::mp5(k),
        Design::Ideal => SwitchConfig::ideal(k),
        Design::NoD4 => SwitchConfig::no_d4(k),
        Design::Static => SwitchConfig::static_shard(k, seed),
        Design::Naive => SwitchConfig::naive(k),
        Design::Recirc => SwitchConfig::recirc(k),
        Design::Random => random_config(rng, k),
    }
}

/// Where a case's program comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// A bundled app through `app_trace`.
    App,
    /// The 100-stage chain.
    Wide,
    /// One of [`FIXED`].
    Fixed,
    /// The statement-template grammar.
    Grammar,
}

/// A case's switch design: a preset or a random configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// [`SwitchConfig::mp5`].
    Mp5,
    /// [`SwitchConfig::ideal`].
    Ideal,
    /// [`SwitchConfig::no_d4`], the ablation that breaks C1.
    NoD4,
    /// [`SwitchConfig::static_shard`].
    Static,
    /// [`SwitchConfig::naive`].
    Naive,
    /// [`SwitchConfig::recirc`], today's recirculating switch. Only a
    /// pin reaches it, so the unpinned draws are unchanged.
    Recirc,
    /// Any sharding, spray, phantom, queue layout and starvation setting.
    Random,
}

/// A case's fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// No faults.
    Clean,
    /// [`FaultPlan::chaos`] over half the trace's length.
    Chaos,
    /// A kill, a stall, phantom drops, grant delays and a remap abort
    /// in one plan; `Chaos` on one pipeline.
    Mixed,
}

/// The inputs a sweep holds fixed; every `None` is drawn. Pinning one
/// input leaves the draws of the others as they were.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pins {
    /// Where the program comes from.
    pub program: Option<Program>,
    /// The switch design.
    pub design: Option<Design>,
    /// The fault plan.
    pub plan: Option<Plan>,
}

/// One generated input: everything but the checkpoint and swap cycles,
/// which are drawn against the uninterrupted run's length.
pub struct Case {
    /// The program's source.
    pub src: String,
    /// Whether the program is the 100-stage chain.
    pub wide: bool,
    /// The bundled app's name, for which the relation is claimed under
    /// phantom loss too (DESIGN.md §11).
    pub app: Option<&'static str>,
    /// The compiled program.
    pub prog: CompiledProgram,
    /// The offered packets.
    pub trace: Vec<Packet>,
    /// The switch.
    pub cfg: SwitchConfig,
    /// The fault plan, if any.
    pub plan: Option<FaultPlan>,
}

/// What a failing case prints: its design, its plan as JSON (the input
/// of `mp5run --faults`) and its program.
impl std::fmt::Debug for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
        let plan = self.plan_json().unwrap_or_else(|| "none".into());
        write!(f, "{:?}\nplan {plan}\n{}", self.cfg, self.src)
    }
}

impl Case {
    /// Draws a case from `rng`, holding `pins`.
    pub fn generate(rng: &mut SmallRng, pins: Pins) -> Case {
        let k = [1, 2, 3, 4, 8][rng.gen_range(0..5)];
        let (n, seed) = (rng.gen_range(100..400), rng.gen_range(0..1000));
        let keys = [2, 8, 64, 1000][rng.gen_range(0..4)];
        let which = rng.gen_range(0..40);
        let program = pins.program.unwrap_or(match which {
            0..=3 => Program::App,
            4 => Program::Wide,
            5..=19 => Program::Fixed,
            _ => Program::Grammar,
        });
        let (src, wide, app, prog, trace) = if program == Program::App {
            let app = &ALL_APPS[rng.gen_range(0..ALL_APPS.len())];
            let (prog, trace) = app_trace(app, n, seed);
            (app.source.to_string(), false, Some(app.name), prog, trace)
        } else {
            let (src, wide) = match program {
                Program::Wide => (wide_chain(), true),
                Program::Fixed => (FIXED[rng.gen_range(0..FIXED.len())].to_string(), false),
                _ => loop {
                    let src = generate_source(rng);
                    if compile(&src, &Target::default()).is_ok() {
                        break (src, false);
                    }
                },
            };
            let prog = compile(&src, &target(wide)).expect("the drawn program compiles");
            let filled = prog.declared_fields.min(NFIELDS);
            let n = if wide { n.min(150) } else { n };
            let trace = TraceBuilder::new(n, seed).build(prog.num_fields(), |r, _, f| {
                f[..filled]
                    .iter_mut()
                    .for_each(|v| *v = r.gen_range(0..keys))
            });
            (src, wide, None, prog, trace)
        };
        use Design::*;
        let design = [Mp5, Mp5, Mp5, Ideal, NoD4, Static, Naive, Random][rng.gen_range(0..8)];
        let mut cfg = design_config(pins.design.unwrap_or(design), k, seed, rng);
        // Per-index queues are unbounded by design.
        if !cfg.per_index_fifos {
            cfg.fifo_capacity = [None, None, None, Some(1), Some(2), Some(8)][rng.gen_range(0..6)];
        }
        cfg.remap_period = [17, 50, 100][rng.gen_range(0..3)];
        let stages = prog.num_stages();
        let chaos = FaultPlan::chaos(seed, k, stages, trace.len() as u64 / 2);
        let plan = [Plan::Clean, Plan::Clean, Plan::Chaos, Plan::Mixed][rng.gen_range(0..4)];
        let plan = match pins.plan.unwrap_or(plan) {
            Plan::Clean => None,
            Plan::Chaos => Some(chaos),
            Plan::Mixed if k >= 2 => Some(
                FaultPlan::new(17)
                    .pipeline_fail(30, (k - 1) as u16)
                    .stage_stall(10, 0, 1.min(stages as u16 - 1), 40)
                    .phantom_drop(5, 150, 120)
                    .grant_delay(20, 2, 80)
                    .remap_abort(15, 1),
            ),
            _ => Some(chaos),
        };
        Case {
            src,
            wide,
            app,
            prog,
            trace,
            cfg,
            plan,
        }
    }

    fn plan_json(&self) -> Option<String> {
        self.plan.as_ref().map(FaultPlan::to_json)
    }

    /// A fresh switch whose injector is built from the plan's JSON, as
    /// `mp5run --faults` builds it.
    pub fn switch<S: TraceSink, F: FaultState>(&self, sink: S) -> Mp5Switch<S, F> {
        let faults = F::fresh(self.plan_json().as_deref()).expect("the plan parses");
        Mp5Switch::with_faults(self.prog.clone(), self.cfg.clone(), sink, faults)
    }
}

/// Regimes every run of the harness must reach, counted over all cases.
pub const REGIMES: [&str; 16] = [
    "equivalent to Banzai",
    "no-D4 diverged from Banzai",
    "remap moves",
    "steers",
    "wasted cycles",
    "phantom-full drops",
    "no-phantom drops",
    "recovered phantoms",
    "indexes evacuated off a dead pipeline",
    "delayed grants",
    "aborted remaps",
    "phantom emits",
    "data matches",
    "hot swaps",
    "mid-run restores",
    "checkpoints past stage 64",
];

/// Regimes (and bundled apps) by the count of cases that reached them.
pub type Tally = BTreeMap<&'static str, u64>;

/// The run that is checkpointed at `ckpt` and hot-swapped at `swap`:
/// its report, its stitched event stream and its swap ledger.
type Resumed = (RunReport, Vec<Event>, Option<SwapReport>);

/// Through `Server`: the fault plan as JSON, the checkpoint through
/// `Snapshot::encode`/`decode`, the swap to a recompiled copy of the
/// source. A checkpoint at `ckpt / 2` is taken and run on from, as
/// `mp5serve --checkpoint-every` does.
fn served<F: FaultState>(c: &Case, ckpt: u64, swap: Option<u64>) -> Resumed {
    let mut srv = Server::<MemSink, F>::new(&c.src, c.cfg.clone(), MemSink::new(), c.plan_json())
        .expect("the server boots");
    srv.offer_all(c.trace.clone());
    let (mut before, mut swapped) = (Vec::new(), None);
    let round_trip = |srv: &mut Server<MemSink, F>| {
        let snap = srv.checkpoint();
        let decoded = Snapshot::decode(&snap.encode()).expect("codec round-trips");
        assert!(decoded == snap, "the codec changed checkpoint {}", snap.seq);
        decoded
    };
    while !srv.is_idle() {
        if Some(srv.cycle()) == swap {
            swapped = Some(srv.hot_swap(&c.src).expect("an identical program swaps"));
        }
        if srv.cycle() == ckpt / 2 {
            round_trip(&mut srv);
        }
        if srv.cycle() == ckpt {
            let snap = round_trip(&mut srv);
            before = srv.abandon().into_events();
            srv = Server::restore(snap, MemSink::new(), None, None).expect("the snapshot restores");
        }
        srv.tick();
        srv.drain_egress();
    }
    let (report, sink) = srv.finish();
    before.extend(sink.into_events());
    (report, before, swapped)
}

/// `Server` compiles for the default target, so the wide chain goes
/// through `extract_state` → JSON → `try_restore_with` instead.
fn direct<F: FaultState>(c: &Case, ckpt: u64, swap: Option<u64>, tally: &mut Tally) -> Resumed {
    let mut sw = c.switch::<_, F>(MemSink::new());
    let mut trace = c.trace.clone();
    trace.sort_by_key(Packet::entry_order_key);
    trace.into_iter().for_each(|p| sw.offer(p));
    let (mut before, mut swapped) = (Vec::new(), None);
    while !sw.is_idle() {
        if Some(sw.cycle()) == swap {
            let recompiled = compile(&c.src, &target(c.wide)).unwrap();
            swapped = Some(sw.hot_swap(recompiled).expect("an identical program swaps"));
        }
        if sw.cycle() == ckpt {
            let state = sw.extract_state(1);
            let past_64 = state
                .lanes
                .iter()
                .any(|row| row.iter().skip(64).any(Option::is_some));
            *tally.entry("checkpoints past stage 64").or_default() += past_64 as u64;
            let json = serde_json::to_string(&state).expect("the state serializes");
            let injector = sw.faults().snap();
            before = sw.abandon().into_events();
            let (k, stages) = (c.cfg.pipelines, c.prog.num_stages());
            let faults = F::restore_from(c.plan_json().as_deref(), injector, k, stages).unwrap();
            let state = serde_json::from_str(&json).expect("the state parses");
            let (prog, cfg) = (c.prog.clone(), c.cfg.clone());
            sw = Mp5Switch::try_restore_with(prog, cfg, state, MemSink::new(), faults)
                .expect("the state restores");
        }
        sw.tick();
        sw.drain_egress();
    }
    let (report, sink) = sw.finish_stream();
    before.extend(sink.into_events());
    (report, before, swapped)
}

/// Runs one case four ways and checks everything the harness checks.
fn check<F: FaultState>(c: &Case, rng: &mut SmallRng, tally: &mut Tally) {
    let banzai = BanzaiSwitch::new(c.prog.clone()).run(c.trace.clone());
    check_tac(c, &banzai);
    let untraced = c.switch::<_, F>(NopSink).run(c.trace.clone());
    let (r, sink) = c.switch::<_, F>(MemSink::new()).run_traced(c.trace.clone());
    let events = sink.into_events();
    assert_eq!(
        r, untraced,
        "the traced report differs from the untraced one"
    );

    // Conservation, outputs and completions.
    let d = &r.drops;
    assert_eq!(r.offered, c.trace.len() as u64);
    assert_eq!(
        r.completed + d.total_data(),
        r.offered,
        "not conserved: {d:?}"
    );
    assert_eq!(r.result.outputs.len() as u64, r.completed);
    assert_eq!(r.completions.len() as u64, r.completed);
    let mut ids: Vec<_> = r.completions.iter().map(|&(p, _)| p).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len() as u64, r.completed, "a packet completed twice");
    assert!(
        r.completions.windows(2).all(|w| w[0].1 <= w[1].1),
        "exit cycles go back"
    );
    let fifo_drops = d.phantom_fifo_full + d.data_no_phantom + d.data_fifo_full + d.starvation;
    assert_eq!(
        r.stage_drop_total(),
        fifo_drops,
        "unattributed: {:?}",
        r.stage_drops
    );

    // The fault ledger.
    assert!(
        r.fault.accounted(),
        "the fault ledger is open: {:?}",
        r.fault
    );
    let planned = c.plan.as_ref().map_or(0, FaultPlan::len);
    assert!(
        r.fault.injected as usize <= planned,
        "more faults fired than planned"
    );
    if let Some(plan) = &c.plan {
        assert_eq!(&FaultPlan::from_json(&plan.to_json()).unwrap(), plan);
        let (k, stages) = (c.cfg.pipelines, c.prog.num_stages());
        if let Err(e) = plan.validate(k, stages) {
            panic!("the drawn plan is invalid: {e}");
        }
    }
    if !r.fault.dead_pipelines.is_empty() {
        assert!(
            r.fault.degraded_cycles > 0,
            "a dead pipeline degraded nothing"
        );
    }

    // The event counts.
    let count = |f: fn(&EventKind) -> bool| events.iter().filter(|e| f(&e.kind)).count() as u64;
    assert_eq!(count(|k| matches!(k, EventKind::Ingress { .. })), r.offered);
    assert_eq!(
        count(|k| matches!(k, EventKind::Egress { .. })),
        r.completed
    );
    assert_eq!(
        count(|k| matches!(k, EventKind::Execute { queued: true, .. })),
        count(|k| matches!(k, EventKind::PopData { .. })),
        "a queued execution without its pop"
    );

    // Unbounded FIFOs without starvation shedding never drop.
    if c.cfg.fifo_capacity.is_none() && d.starvation == 0 {
        assert_eq!(r.completed, r.offered, "an unbounded switch dropped");
    }
    assert!((0.0..=1.0).contains(&r.normalized_throughput()));

    // The Banzai relation (DESIGN.md §11). The generated plans hold no
    // silent phantom drop. Outside the apps, a run that lost a phantom
    // to a fault and broke the relation is the recovery finding:
    // counted, not failed.
    let complete = r.completed == r.offered;
    let equivalent = complete && r.result.equivalent_to(&banzai);
    // A recirculating switch gives up C1 and nothing else; with one
    // pipeline it never recirculates and is Banzai.
    let recirc = c.cfg.spray == SprayMode::PortBlocks;
    let audits_clean = |events: &[Event]| {
        let a = audit(events);
        a.total_violations() == if recirc { a.count(Check::C1) } else { 0 }
    };
    let clean = audits_clean(&events);
    if recirc {
        assert!(clean, "the auditor found more than C1");
        if c.cfg.pipelines == 1 {
            assert_eq!(r.steered, 0, "one pipeline recirculated");
            assert!(equivalent, "one recirculating pipeline is not Banzai");
            *tally.entry("recirculation at k = 1").or_default() += 1;
        }
    }
    let (mut in_relation, mut lost_broke_c1) = (false, false);
    if c.cfg.phantoms {
        let order: HashMap<_, _> = c
            .trace
            .iter()
            .map(|p| (p.id, p.entry_order_key()))
            .collect();
        let in_order = r.result.access_log.values().all(|log| {
            // A packet that touches one state twice is logged twice.
            let mut keys: Vec<_> = log.iter().map(|id| order[id]).collect();
            keys.dedup();
            keys.windows(2).all(|w| w[0] < w[1])
        });
        let holds = in_order && (equivalent || !complete);
        lost_broke_c1 = c.app.is_none() && r.fault.phantoms_dropped > 0 && !holds;
        if !lost_broke_c1 {
            assert!(in_order, "(b): an access out of entry order");
            assert!(equivalent || !complete, "(a): not equivalent to Banzai");
            assert!(clean, "the auditor found a violation");
            in_relation = equivalent;
        }
    }

    // The interrupted run: checkpointed one before, at or one after a
    // remap boundary, or anywhere; hot-swapped or not.
    let period = c.cfg.remap_period;
    let ckpt = match rng.gen_range(0..4) {
        0 => rng.gen_range(1..r.cycles.max(2)),
        near => (period * rng.gen_range(1..=(r.cycles / period).max(1)) + near - 2).max(1),
    };
    let swap = rng.gen_bool(0.5).then(|| rng.gen_range(0..r.cycles.max(1)));
    let (resumed, stitched, swapped) = match c.wide {
        false => served::<F>(c, ckpt, swap),
        true => direct::<F>(c, ckpt, swap, tally),
    };
    assert_eq!(
        resumed, r,
        "the restored run diverged (checkpoint {ckpt}, swap {swap:?})"
    );
    assert_eq!(
        stream_hash(&stitched),
        stream_hash(&events),
        "the stitched stream diverged"
    );
    if clean {
        // The checkpoint, restore and swap markers included.
        assert!(
            audits_clean(&stitched),
            "the auditor found a violation once stitched"
        );
    }
    if let Some(s) = swapped {
        assert!(s.closed(), "the swap ledger is open: {s:?}");
    }

    for (regime, n) in [
        ("equivalent to Banzai", in_relation as u64),
        (
            "no-D4 diverged from Banzai",
            (!c.cfg.phantoms && complete && !equivalent) as u64,
        ),
        ("lost phantoms broke C1", lost_broke_c1 as u64),
        ("remap moves", r.remap_moves),
        ("steers", r.steered),
        ("wasted cycles", r.wasted_cycles),
        ("phantom-full drops", d.phantom_fifo_full),
        ("no-phantom drops", d.data_no_phantom),
        ("recovered phantoms", r.fault.phantoms_recovered),
        (
            "indexes evacuated off a dead pipeline",
            r.fault.evacuated_indexes,
        ),
        ("delayed grants", r.fault.delayed_grants),
        ("aborted remaps", r.fault.aborted_remaps),
        (
            "phantom emits",
            count(|k| matches!(k, EventKind::PhantomEmit { .. })),
        ),
        (
            "data matches",
            count(|k| matches!(k, EventKind::DataMatch { .. })),
        ),
        ("hot swaps", swapped.is_some() as u64),
        ("mid-run restores", (ckpt < r.cycles) as u64),
        ("cases", 1),
        ("packets checked against the TAC semantics", r.offered),
        ("data drops", d.total_data()),
        ("faults injected", r.fault.injected),
    ] {
        *tally.entry(regime).or_default() += n;
    }
    if let Some(app) = c.app {
        *tally.entry(app).or_default() += 1;
    }
}

/// Banzai runs the compiled program; the TAC interpreter runs the
/// source. They agree on every register and every declared field.
fn check_tac(c: &Case, banzai: &RunResult) {
    let tac = mp5_lang::frontend(&c.src).expect("the frontend accepts what compiled");
    let (declared, mut regs) = (tac.declared_fields, tac.initial_regs());
    let mut trace = c.trace.clone();
    trace.sort_by_key(Packet::entry_order_key);
    for p in &trace {
        let mut fields = vec![0; tac.field_names.len()];
        fields[..declared].copy_from_slice(&p.fields[..declared]);
        tac.execute(&mut fields, &mut regs);
        assert_eq!(
            banzai.outputs[&p.id],
            fields[..declared],
            "packet {:?}",
            p.id
        );
    }
    assert_eq!(
        banzai.final_regs, regs,
        "registers differ from the TAC semantics"
    );
}

/// The one way the root suites draw random inputs: case `i` of `range`
/// draws its input from a `SmallRng` seeded by `i`, and `check` goes on
/// drawing from the same generator. A failing case prints its number
/// and input before the panic goes on.
pub fn cases<I: std::fmt::Debug>(
    range: Range<u64>,
    mut draw: impl FnMut(&mut SmallRng) -> I,
    mut check: impl FnMut(&I, &mut SmallRng),
) {
    for case in range {
        let rng = &mut SmallRng::seed_from_u64(case);
        let input = draw(rng);
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| check(&input, rng)));
        if let Err(e) = run {
            eprintln!("case {case}: {input:?}");
            std::panic::resume_unwind(e);
        }
    }
}

/// Runs [`cases`] `range` under `pins` and returns the tally of what
/// they reached.
pub fn sweep(range: Range<u64>, pins: Pins) -> Tally {
    let mut tally = Tally::new();
    let draw = |rng: &mut SmallRng| Case::generate(rng, pins);
    cases(range, draw, |c, rng| match c.plan {
        Some(_) => check::<PlannedFaults>(c, rng, &mut tally),
        None => check::<NoFaults>(c, rng, &mut tally),
    });
    eprintln!("{tally:#?}");
    tally
}

/// Fails unless some case reached each of `regimes`.
pub fn assert_reached(tally: &Tally, regimes: &[&str]) {
    for regime in regimes {
        assert!(tally.get(regime) > Some(&0), "no case reached {regime}");
    }
}

// ---------------------------------------------------------------------
// The fabric sweep
// ---------------------------------------------------------------------

/// The inputs a fabric sweep holds fixed; every `None` is drawn.
#[derive(Debug, Clone, Copy, Default)]
pub struct FabricPins {
    /// ECMP or flowlet routing.
    pub routing: Option<RouteMode>,
    /// Whether a spine fail-stops mid-run.
    pub kill: Option<bool>,
}

/// One generated leaf–spine run: 2 or 4 leaves, 2 spines, 2 hosts a
/// leaf, and switches of 4 pipelines.
pub struct FabricCase {
    /// The bundled app every switch runs.
    pub app: &'static AppSpec,
    /// The app, compiled.
    pub prog: CompiledProgram,
    /// The leaf–spine topology.
    pub topo: Topology,
    /// The switches, routing, seed and spine kill.
    pub cfg: FabricConfig,
    /// The flows offered.
    pub workload: DcWorkload,
}

/// What a failing fabric case prints: its app, config and workload.
impl std::fmt::Debug for FabricCase {
    fn fmt(&self, f: &mut std::fmt::Formatter) -> std::fmt::Result {
        write!(f, "{}\n{:?}\n{:?}", self.app.name, self.cfg, self.workload)
    }
}

impl FabricCase {
    /// Draws a fabric case from `rng`, holding `pins`.
    pub fn generate(rng: &mut SmallRng, pins: FabricPins) -> FabricCase {
        let app = &ALL_APPS[rng.gen_range(0..ALL_APPS.len())];
        let prog = app.compile().expect("the app compiles");
        let leaves = [2, 4][rng.gen_range(0..2)];
        let topo = TopologyConfig::leaf_spine(leaves, 2, 2)
            .validate()
            .expect("a valid topology");
        let (flows, seed) = (rng.gen_range(100..400), rng.gen_range(0..1000));
        let load = [0.3, 0.7, 1.0][rng.gen_range(0..3)];
        let workload = DcWorkload::new(topo.num_hosts(), flows, seed)
            .load(load)
            .max_pkts_per_flow(4);
        use Design::*;
        let design = [Mp5, Mp5, Ideal, NoD4, Static, Naive][rng.gen_range(0..6)];
        let mut cfg = FabricConfig::new(design_config(design, 4, seed, rng));
        // Per-index queues are unbounded by design.
        if !cfg.switch.per_index_fifos {
            cfg.switch.fifo_capacity = [None, Some(1), Some(8)][rng.gen_range(0..3)];
        }
        let flowlet = RouteMode::Flowlet {
            gap: [2_000, 20_000][rng.gen_range(0..2)],
        };
        cfg.routing = pins
            .routing
            .unwrap_or([RouteMode::Ecmp, flowlet][rng.gen_range(0..2)]);
        cfg.seed = seed;
        let kill = SpineKill {
            spine: (leaves + rng.gen_range(0..2)) as u32,
            at_tick: rng.gen_range(20..300),
        };
        cfg.kill_spine = pins.kill.unwrap_or(rng.gen_bool(0.5)).then_some(kill);
        FabricCase {
            app,
            prog,
            topo,
            cfg,
            workload,
        }
    }

    /// Runs the case with switch `i` recording into `mk_sink(i)`.
    pub fn run<S: TraceSink>(&self, mk_sink: impl FnMut(u32) -> S) -> FabricRun<S> {
        let (topo, cfg, prog) = (self.topo.clone(), self.cfg.clone(), self.prog.clone());
        let fabric =
            Fabric::with_hooks(topo, cfg, prog, mk_sink, |_| NoFaults).expect("a valid fabric");
        let fill = self.app.fill;
        fabric.run(self.workload.stream(), |key, rng, fields| {
            fill(&self.prog, key, rng, fields)
        })
    }
}

/// Regimes every unpinned fabric sweep must reach.
pub const FABRIC_REGIMES: [&str; 8] = [
    "spine kills",
    "stranded packets",
    "packets sent to a dead spine",
    "link drops",
    "switch drops",
    "steers",
    "flowlet fabrics",
    "switch streams audited clean",
];

/// Runs one fabric case three ways: untraced, untraced again, and
/// traced through [`Fabric::with_hooks`].
fn check_fabric(c: &FabricCase, tally: &mut Tally) {
    let run = c.run(|_| NopSink);
    let r = &run.report;
    assert!(r.conservation_closed(), "not conserved");
    assert_eq!(r.flows_started, c.workload.flows);
    // Even with a spine down the fabric delivers most of its traffic.
    assert!(2 * r.delivered > r.injected, "the fabric collapsed");
    assert_eq!(c.run(|_| NopSink).report, *r, "the rerun diverged");
    let traced = c.run(|_| MemSink::new());
    assert_eq!(traced.report, *r, "the traced report differs");
    assert_eq!(traced.switch_reports, run.switch_reports);
    let killed = c.cfg.kill_spine.map(|k| k.spine as usize);
    let dead = r.switches.iter().filter(|s| s.dead).map(|s| s.id as usize);
    assert!(dead.eq(killed), "the wrong switches died");
    // Whether the kill strands a packet, and whether the survivor ends
    // ahead, depend on when it comes: a kill before the first packet
    // reaches the spine, or in a lull, strands nothing, and one near the
    // end leaves the spines even. So they are counted, not failed.
    let (mut stranding, mut outforwarded) = (0, 0);
    if let Some(dead) = killed {
        // Spines are the last two switches: the other one survives.
        let alive = 2 * c.topo.num_switches() - 3 - dead;
        stranding = (r.lost_in_dead + r.dropped_to_dead > 0) as u64;
        outforwarded = (r.switches[alive].completed > r.switches[dead].completed) as u64;
    }

    // Relation (b) per switch: every stream a C1 design writes audits
    // clean, with one exception. A killed spine's stream stops mid-run:
    // the auditor reports the packets stranded in it as never leaving
    // and their phantoms as unresolved, and nothing else.
    let mut clean = 0;
    if c.cfg.switch.phantoms {
        for (s, sink) in traced.sinks.iter().enumerate() {
            let a = audit(&sink.events);
            let mut excused = 0;
            if Some(s) == killed {
                // A stranded packet still waiting to be admitted left
                // no event, so not every one is reported.
                assert!(a.count(Check::Conservation) <= r.lost_in_dead);
                excused += a.count(Check::Conservation) + a.count(Check::Pairing);
            }
            assert_eq!(
                a.total_violations(),
                excused,
                "switch {s}: {:?}",
                a.findings
            );
            clean += a.is_clean() as u64;
        }
    }

    for (regime, n) in [
        ("2-leaf fabrics", (c.topo.num_switches() == 4) as u64),
        ("4-leaf fabrics", (c.topo.num_switches() == 6) as u64),
        ("flowlet fabrics", (c.cfg.routing != RouteMode::Ecmp) as u64),
        ("spine kills", killed.is_some() as u64),
        ("kills that stranded packets", stranding),
        ("kills the surviving spine outforwarded", outforwarded),
        ("stranded packets", r.lost_in_dead),
        ("packets sent to a dead spine", r.dropped_to_dead),
        ("link drops", r.dropped_links),
        ("switch drops", r.dropped_switch),
        ("steers", r.switches.iter().map(|s| s.steered).sum()),
        ("switch streams audited clean", clean),
    ] {
        *tally.entry(regime).or_default() += n;
    }
}

/// Runs fabric [`cases`] `range` under `pins` and returns the tally
/// of what they reached.
pub fn fabric_sweep(range: Range<u64>, pins: FabricPins) -> Tally {
    let mut tally = Tally::new();
    let draw = |rng: &mut SmallRng| FabricCase::generate(rng, pins);
    cases(range, draw, |c, _| check_fabric(c, &mut tally));
    eprintln!("{tally:#?}");
    tally
}
