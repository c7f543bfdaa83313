//! Digests of whole runs, written by the parent commit of PR 25
//! (`1a8155c`) before any of its changes, the way PR 15/16 pinned their
//! codecs (`tests/codec_golden.rs`): the remap bookkeeping, the work
//! phase's per-pipeline state, the fabric tick and the flowlet table
//! were rewritten for speed, and every simulated result must come out
//! bit for bit as it did before.
//!
//! What each run exercises: `flowlet`, `heavy_hitter` and `conga` on an
//! 8-pipeline switch with skewed keys remap 76, 113 and 114 times (the
//! D2 heuristic's selection and counter reset), and the 4×2 fabric runs
//! cross links, spine picks and — under flowlet routing — the flowlet
//! table's eviction.
//!
//! `bounded_and_faulted_runs_keep_their_digests` reaches the FIFO
//! outcomes no unbounded, fault-free `mp5` run produces (full lanes,
//! orphaned data, cancels, stale pops, direct data pushes, recovery).
//! Its digests were written by `9fa4c56`, before the FIFO's events
//! moved from `mp5-fabric` into the switch's queue door.
//!
//! `compiled_programs_keep_their_digests` pins compiled programs the
//! same way: its digests were written by `a065ff9`, before the stage
//! layout (schedule, transform, tail merge, flow-order stage) moved
//! into one compiler step that the analyzer reads. Six flow-order rows
//! got smaller budgets, and their digests there, when the tail merge
//! began to leave room for the flow-order stage.

use mp5::compiler::{compile, compile_with_options, CompileOptions, FlowOrderSpec, Target};
use std::collections::BTreeMap;

use mp5::compiler::CompiledProgram;
use mp5::core::{Mp5Switch, SwitchConfig};
use mp5::faults::{FaultPlan, NoFaults};
use mp5::sim::experiments::app_trace;
use mp5::topo::{Fabric, FabricConfig, RouteMode, TopologyConfig};
use mp5::trace::{stream_hash, EventKind, MemSink};
use mp5::traffic::streams::fnv1a_fold;
use mp5::traffic::{AccessPattern, DcPattern, DcWorkload, TraceBuilder};
use mp5::types::Packet;

/// `mp5run programs/APP.mp5 --packets 30000 --pipelines 8 --pattern
/// skewed --keys 64 --trace FILE`, in process: `(stream_hash, remap
/// events)` of the traced run.
fn switch_digest(app: &str) -> (u64, usize) {
    let path = format!(
        "{}/crates/apps/programs/{app}.mp5",
        env!("CARGO_MANIFEST_DIR")
    );
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let prog = compile(&source, &Target::default()).expect("bundled program compiles");
    let declared = prog.declared_fields;
    let pattern = AccessPattern::paper_skewed();
    let trace = TraceBuilder::new(30_000, 1).build(prog.num_fields(), move |rng, _, f| {
        for v in f.iter_mut().take(declared) {
            *v = pattern.draw(64, rng) as i64;
        }
    });
    let (report, sink) =
        Mp5Switch::with_sink(prog, SwitchConfig::mp5(8), MemSink::new()).run_traced(trace);
    let events = sink.into_events();
    let remaps = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::RemapMove { .. }))
        .count();
    assert_eq!(report.remap_moves, remaps as u64);
    (stream_hash(&events), remaps)
}

#[test]
fn skewed_switch_runs_keep_their_digests() {
    for (app, hash, remaps) in [
        ("flowlet", 0x2783_e7c0_1cc1_810a, 76),
        ("heavy_hitter", 0xe642_4ee2_f571_54ff, 113),
        ("conga", 0xea69_80cb_e36f_b973, 114),
    ] {
        assert_eq!(switch_digest(app), (hash, remaps), "{app}");
    }
}

/// A traced run under `cfg` and `plan`: its `stream_hash` and how many
/// events of each kind it holds, as `tag=count` in tag order.
fn class_digest(
    prog: CompiledProgram,
    trace: Vec<Packet>,
    cfg: SwitchConfig,
    plan: &FaultPlan,
) -> (u64, String) {
    let (_, sink) =
        Mp5Switch::with_faults(prog, cfg, MemSink::new(), plan.injector()).run_traced(trace);
    let events = sink.into_events();
    let mut counts = BTreeMap::new();
    for e in &events {
        *counts.entry(e.kind.tag()).or_insert(0) += 1;
    }
    let counts: Vec<String> = counts.iter().map(|(t, n)| format!("{t}={n}")).collect();
    (stream_hash(&events), counts.join(" "))
}

/// 1 500 packets, `h` and `a`/`b` drawn from `0..64`.
fn small_trace(source: &str) -> (CompiledProgram, Vec<Packet>) {
    use rand::Rng;
    let prog = compile(source, &Target::default()).expect("program compiles");
    let trace = TraceBuilder::new(1_500, 3).build(prog.num_fields(), |rng, _, f| {
        f[0] = rng.gen_range(0..64);
        f[1] = rng.gen_range(0..64);
    });
    (prog, trace)
}

/// Runs that reach every FIFO and crossbar outcome:
/// - `heavy_hitter` on two-entry lanes under a chaos plan: full lanes
///   (`ph_drop`), orphaned data, free cancels in the FIFO and on the
///   channel, lost and recovered phantoms, an evacuated pipeline;
/// - the no-D4 ablation on two-entry lanes over one hot counter: direct
///   data pushes and their drops;
/// - one array at two indexes per packet: the second phantom is a
///   sibling cancelled when the packet executes (`ph_cancel`, not free)
///   and reclaimed at a cycle's cost (`pop_stale`).
///
/// A speculative phantom (a stateful predicate) reaches neither of the
/// last two: its data packet takes the phantom's slot whatever the
/// predicate says, and only the switch's wasted-cycle counter sees a
/// false branch.
#[test]
fn bounded_and_faulted_runs_keep_their_digests() {
    let (prog, trace) = app_trace(mp5::apps::by_name("heavy_hitter").expect("app"), 1_500, 3);
    let plan = FaultPlan::chaos(4, 4, prog.num_stages(), 700);
    let cfg = SwitchConfig {
        fifo_capacity: Some(2),
        ..SwitchConfig::mp5(4)
    };
    let chaos = class_digest(prog, trace, cfg, &plan);

    let (prog, trace) = small_trace(
        "struct Packet { int h; int o; };
         int c = 0;
         void func(struct Packet p) { c = c + 1; p.o = c; }",
    );
    let cfg = SwitchConfig {
        fifo_capacity: Some(2),
        ..SwitchConfig::no_d4(4)
    };
    let no_d4 = class_digest(prog, trace, cfg, &FaultPlan::new(0));

    let (prog, trace) = small_trace(
        "struct Packet { int a; int b; int out; };
         int tbl[32];
         void func(struct Packet p) {
             tbl[p.a % 32] = p.b;
             p.out = tbl[p.b % 32];
         }",
    );
    let siblings = class_digest(prog, trace, SwitchConfig::mp5(4), &FaultPlan::new(0));

    let want = [
        (
            "chaos",
            chaos,
            0x14bd_2567_ff1d_1c30,
            "access=4461 data_match=4439 data_orphan=23 drop=23 egress=1477 evacuated=1 \
             exec=13415 fault=7 ingress=1500 ph_cancel=2 ph_chan_cancel=14 ph_drop=23 \
             ph_emit=4500 ph_enq=4441 ph_lost=22 ph_recovered=22 pop_blocked=721 \
             pop_data=4461 remap=395 steer=2953",
        ),
        (
            "no_d4",
            no_d4,
            0x5b26_9031_936f_9210,
            "access=382 data_enq=382 data_enq_drop=1118 drop=1118 egress=382 exec=2264 \
             ingress=1500 pop_data=382 steer=1125",
        ),
        (
            "siblings",
            siblings,
            0x37dd_7728_2201_056a,
            "access=2948 data_match=1500 egress=1500 exec=6000 ingress=1500 ph_cancel=1448 \
             ph_emit=2948 ph_enq=2948 pop_data=1500 pop_stale=1448 steer=1125",
        ),
    ];
    for (run, got, hash, counts) in want {
        assert_eq!(got, (hash, counts.to_string()), "{run}");
    }
}

/// A traced 4×2 leaf–spine run of `heavy_hitter`: every switch's
/// `stream_hash` in switch-id order, then the fabric's delivery digest.
fn fabric_digests(routing: RouteMode) -> (Vec<u64>, u64) {
    let app = mp5::apps::by_name("heavy_hitter").expect("app exists");
    let prog = app.compile().expect("app compiles");
    let topo = TopologyConfig::leaf_spine(4, 2, 2)
        .validate()
        .expect("valid topology");
    let hosts = topo.num_hosts();
    let mut cfg = FabricConfig::new(SwitchConfig::mp5(4).with_hardware_fifos());
    cfg.routing = routing;
    cfg.seed = 5;
    let workload = DcWorkload::new(hosts, 600, 5)
        .load(0.5)
        .max_pkts_per_flow(8)
        .pattern(DcPattern::Uniform);
    let fabric = Fabric::with_hooks(topo, cfg, prog.clone(), |_| MemSink::new(), |_| NoFaults)
        .expect("valid fabric");
    let fill = app.fill;
    let run = fabric.run(workload.stream(), |key, rng, fields| {
        fill(&prog, key, rng, fields)
    });
    assert!(run.report.conservation_closed());
    let per_switch = run.sinks.iter().map(|s| stream_hash(&s.events)).collect();
    (per_switch, run.report.delivery_digest)
}

#[test]
fn fabric_runs_keep_their_digests() {
    let ecmp = [
        0x3d36_c387_c1af_d9f3,
        0xe20e_902f_1cad_77d6,
        0x2c9a_03e0_e945_2e66,
        0xb74c_a22d_eb19_ede6,
        0x7b1d_25df_a822_5ea4,
        0xfc28_8a7e_452a_a47a,
    ];
    let flowlet = [
        0x51b5_5d7f_ccad_fc26,
        0x58cb_7d81_75df_5374,
        0xa8fc_b0a1_1d56_4714,
        0x823e_c459_dd28_30df,
        0x9359_5d81_c3a0_28b8,
        0x3912_3ad7_30a5_4965,
    ];
    for (routing, switches, delivery) in [
        (RouteMode::Ecmp, ecmp, 0x221e_1338_3189_ff95),
        (
            RouteMode::Flowlet { gap: 20_000 },
            flowlet,
            0x0a05_eb1e_9b8c_a9e6,
        ),
    ] {
        let (got, digest) = fabric_digests(routing);
        assert_eq!(
            (got.as_slice(), digest),
            (&switches[..], delivery),
            "{routing:?}"
        );
    }
}

/// Thousands of one- and two-packet flows under flowlet routing: the
/// flowlet table sweeps its expired entries five times over this run,
/// and the report (JSON bytes, folded) must be the one the parent wrote
/// with a table that never forgot anything.
#[test]
fn many_short_flowlets_keep_their_report() {
    let app = mp5::apps::by_name("flowlet").expect("app exists");
    let prog = app.compile().expect("app compiles");
    let topo = TopologyConfig::leaf_spine(4, 2, 2)
        .validate()
        .expect("valid topology");
    let hosts = topo.num_hosts();
    let mut cfg = FabricConfig::new(SwitchConfig::mp5(4).with_hardware_fifos());
    cfg.routing = RouteMode::Flowlet { gap: 2_000 };
    cfg.seed = 9;
    let workload = DcWorkload::new(hosts, 6_000, 9)
        .load(0.4)
        .max_pkts_per_flow(2);
    let fabric = Fabric::new(topo, cfg, prog.clone()).expect("valid fabric");
    let fill = app.fill;
    let report = fabric
        .run(workload.stream(), |key, rng, fields| {
            fill(&prog, key, rng, fields)
        })
        .report;
    assert_eq!(report.flows_started, 6_000);
    let folded = report
        .to_json()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| fnv1a_fold(h, b as u64));
    assert_eq!(
        (folded, report.delivery_digest),
        (0x0d57_3efd_d4a7_1cfd, 0x7553_8ca5_f958_b2ac)
    );
}

/// `tests/codec_golden.rs`'s `fabric_report_json`: the codec test there
/// re-prints the golden file; this one re-runs the fabric that wrote it
/// and asserts the fresh report is the same bytes.
#[test]
fn a_fresh_fabric_run_reproduces_the_golden_report() {
    let app = mp5::apps::by_name("heavy_hitter").expect("app exists");
    let prog = app.compile().expect("app compiles");
    let topo = TopologyConfig::leaf_spine(2, 2, 2)
        .validate()
        .expect("valid topology");
    let hosts = topo.num_hosts();
    let mut cfg = FabricConfig::new(SwitchConfig::mp5(4).with_hardware_fifos());
    cfg.seed = 3;
    let workload = DcWorkload::new(hosts, 300, 3)
        .load(0.7)
        .max_pkts_per_flow(4)
        .pattern(DcPattern::Uniform);
    let fabric = Fabric::new(topo, cfg, prog.clone()).expect("valid fabric");
    let fill = app.fill;
    let fresh = fabric
        .run(workload.stream(), |key, rng, fields| {
            fill(&prog, key, rng, fields)
        })
        .report
        .to_json();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/fabric_report.json"
    );
    let golden = std::fs::read_to_string(path).expect("golden report");
    assert!(fresh == golden, "a fresh run no longer writes {path}");
}

/// FNV-1a over the `Debug` form of one compile's result (`None` when it
/// is rejected), with the stage budget it was compiled for.
fn compile_digest(source: &str, max_stages: usize, flow_order: bool) -> Option<u64> {
    let opts = CompileOptions {
        enforce_flow_order: flow_order.then(FlowOrderSpec::default),
        analyzer: None,
    };
    let target = Target {
        max_stages,
        ..Target::default()
    };
    let prog = compile_with_options(source, &target, &opts).ok()?;
    Some(
        format!("{prog:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            }),
    )
}

/// Every bundled app, plain and with flow-order enforcement, at the
/// default 16-stage target and at the smallest stage budget it still
/// compiles under (where the tail-merge fallback does the most), plus
/// every analysis fixture that compiles at the default target: each
/// `CompiledProgram` must come out exactly as it did.
#[test]
fn compiled_programs_keep_their_digests() {
    let default = Target::default().max_stages;
    // (app, plain (default, (min stages, at min)), flow-order likewise)
    #[allow(clippy::type_complexity)]
    let apps: [(&str, [Option<(u64, usize, u64)>; 2]); 10] = [
        (
            "flowlet",
            [
                Some((0x1aac_5d94_1fac_ac84, 3, 0x627f_be42_0cbc_0ad7)),
                Some((0x17b0_d7b9_4b59_aa7f, 4, 0x0fef_baf0_d05c_6868)),
            ],
        ),
        (
            "conga",
            [
                Some((0x068b_3357_d913_b36f, 3, 0xc2c7_1ffc_bd51_135f)),
                None,
            ],
        ),
        (
            "wfq",
            [
                Some((0xef56_93d3_51c5_a026, 3, 0xb46e_bde5_2bfb_3ae7)),
                Some((0x5656_e8fe_76d5_0216, 4, 0x97e1_977e_e805_dd29)),
            ],
        ),
        (
            "sequencer",
            [
                Some((0x9842_d6e5_b03a_cf75, 3, 0x1127_13cd_8cb5_4790)),
                None,
            ],
        ),
        (
            "heavy_hitter",
            [
                Some((0xb4d3_d541_2e59_e183, 4, 0x768e_db05_6134_6429)),
                Some((0xb314_7c6b_045a_2de9, 5, 0xc4ab_6121_b090_64c9)),
            ],
        ),
        (
            "ddos_counter",
            [
                Some((0xcf7f_1b2c_0244_d702, 3, 0xac6c_bf08_e434_a413)),
                None,
            ],
        ),
        (
            "rate_limiter",
            [
                Some((0x0841_de7a_3d04_73ba, 3, 0xee83_1d3e_9949_7353)),
                Some((0x37af_cd50_d415_e455, 4, 0x2044_c65b_0eb7_1585)),
            ],
        ),
        (
            "syn_flood",
            [
                Some((0xabd3_6908_d6ac_83ad, 3, 0xfc97_6371_1b2e_a20c)),
                None,
            ],
        ),
        (
            "bloom_firewall",
            [
                Some((0xcadf_8e42_bcbc_b6ff, 4, 0x2c93_06ba_0e5d_e5f9)),
                Some((0xffec_409a_50de_5319, 5, 0x6c7c_55be_c3d1_7a40)),
            ],
        ),
        (
            "sampled_netflow",
            [
                Some((0x5f70_c6e7_c363_18f0, 3, 0x6642_ec60_021f_9d08)),
                Some((0x1751_cc92_d89b_2b1e, 4, 0x3e44_b888_bdc9_59c9)),
            ],
        ),
    ];
    for (app, want) in apps {
        let source = mp5::apps::by_name(app).expect("app exists").source;
        for (flow_order, want) in [false, true].into_iter().zip(want) {
            let got = compile_digest(source, default, flow_order).map(|d| {
                let min = (1..=default)
                    .find(|&s| compile_digest(source, s, flow_order).is_some())
                    .expect("compiles at the default");
                (d, min, compile_digest(source, min, flow_order).unwrap())
            });
            assert_eq!(got, want, "{app} flow_order={flow_order}");
        }
    }
    let fixtures: [(&str, Option<u64>); 12] = [
        ("broken/co_resident.mp5", Some(0x1803_b3c8_16ad_5f04)),
        ("broken/lex_error.mp5", None),
        ("broken/multi_index.mp5", Some(0xe257_7583_312d_0618)),
        ("broken/semantic_errors.mp5", None),
        ("broken/sram_overflow.mp5", Some(0x7483_d017_d057_de70)),
        ("broken/stateful_index.mp5", Some(0x9ba5_130c_7174_a981)),
        ("broken/stateful_predicate.mp5", Some(0xc1e2_70ed_b10b_d44e)),
        ("broken/syntax_error.mp5", None),
        ("clean/counter.mp5", Some(0x51cf_15d3_7c6d_416d)),
        ("clean/two_tables.mp5", Some(0x7504_f9a0_4a18_713a)),
        (
            "targeted/pairs_unsupported.mp5",
            Some(0x8447_db21_fa17_6ab0),
        ),
        ("targeted/too_many_stages.mp5", Some(0x55f9_d9d4_9b9a_d32d)),
    ];
    for (file, want) in fixtures {
        let path = format!(
            "{}/crates/analysis/fixtures/{file}",
            env!("CARGO_MANIFEST_DIR")
        );
        let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(compile_digest(&source, default, false), want, "{file}");
    }
}
