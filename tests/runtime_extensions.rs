//! Tests for the §3.4 runtime-extension mechanisms: flow-order
//! enforcement via a dummy final-stage state, ECN-style backpressure
//! marking, and stateless-drop starvation handling.

use std::collections::HashMap;

use mp5::analysis::analyze_layout;
use mp5::banzai::BanzaiSwitch;
use mp5::compiler::{
    compile, compile_with_options, CompileError, CompileOptions, FlowOrderSpec, Target,
    FLOW_ORDER_REG,
};
use mp5::core::{Mp5Switch, SwitchConfig};
use mp5::lang::LangError;
use mp5::sim::reordered_flow_fraction;
use mp5::traffic::TraceBuilder;
use mp5::types::{PacketId, Value};

/// A NAT-like program: SYN packets touch per-flow connection state, the
/// rest of the flow is stateless — exactly the §3.4 scenario where
/// stateless-priority can reorder packets within a flow.
const NATISH: &str = "
    struct Packet {
        int src_ip; int dst_ip; int src_port; int dst_port; int proto;
        int is_syn;
        int nat_port;
    };
    int bindings[4] = {0};
    void func(struct Packet p) {
        int idx = hash3(hash2(p.src_ip, p.dst_ip),
                        hash2(p.src_port, p.dst_port), p.proto) % 4;
        if (p.is_syn == 1) {
            bindings[idx] = p.src_port + 10000;
            p.nat_port = bindings[idx];
        } else {
            p.nat_port = 0;
        }
    }";

fn nat_trace(
    prog: &mp5::compiler::CompiledProgram,
    n: usize,
    seed: u64,
) -> Vec<mp5::types::Packet> {
    // A handful of flows, each sending many packets; ~half are "SYN"
    // (stateful) to maximize the mixed stateful/stateless interleaving.
    TraceBuilder::new(n, seed).build(prog.num_fields(), |rng, _, f| {
        let flow = rand::Rng::gen_range(rng, 0..16i64);
        f[0] = flow; // src_ip
        f[1] = 99; // dst_ip
        f[2] = 1000 + flow; // src_port
        f[3] = 80; // dst_port
        f[4] = 6; // proto
        f[5] = i64::from(rand::Rng::gen_bool(rng, 0.5)); // is_syn
    })
}

fn flow_map(trace: &[mp5::types::Packet]) -> HashMap<PacketId, Value> {
    trace.iter().map(|p| (p.id, p.fields[0])).collect()
}

#[test]
fn flow_order_register_lands_in_final_stage() {
    let opts = CompileOptions {
        enforce_flow_order: Some(FlowOrderSpec::default()),
        ..Default::default()
    };
    let prog = compile_with_options(NATISH, &Target::default(), &opts).unwrap();
    prog.validate().unwrap();
    let fo = prog.reg(FLOW_ORDER_REG).expect("dummy register present");
    assert_eq!(
        prog.regs[fo.index()].stage.index(),
        prog.num_stages() - 1,
        "flow-order state must occupy the final stage"
    );
    assert!(
        prog.regs[fo.index()].shardable,
        "flow-hash index is stateless"
    );
    // Every packet now generates a phantom for the final stage.
    let mut fields = vec![0; prog.num_fields()];
    let accesses = prog.resolve(&mut fields);
    assert!(accesses.iter().any(|a| a.reg == fo));
}

#[test]
fn flow_order_enforcement_eliminates_reordering() {
    let plain = compile(NATISH, &Target::default()).unwrap();
    let ordered = compile_with_options(
        NATISH,
        &Target::default(),
        &CompileOptions {
            enforce_flow_order: Some(FlowOrderSpec::default()),
            ..Default::default()
        },
    )
    .unwrap();

    let mut saw_reordering = false;
    for seed in 0..6 {
        let trace = nat_trace(&plain, 6000, seed);
        let flows = flow_map(&trace);
        let arrival: Vec<PacketId> = trace.iter().map(|p| p.id).collect();

        // Plain program: stateless packets overtake queued SYNs.
        let rep = Mp5Switch::new(plain.clone(), SwitchConfig::mp5(4)).run(trace.clone());
        let completion: Vec<PacketId> = rep.completions.iter().map(|&(p, _)| p).collect();
        let frac_plain = reordered_flow_fraction(&flows, &arrival, &completion);
        saw_reordering |= frac_plain > 0.0;

        // With the dummy final-stage state every flow exits in order.
        let trace2 = nat_trace(&ordered, 6000, seed);
        let flows2 = flow_map(&trace2);
        let arrival2: Vec<PacketId> = trace2.iter().map(|p| p.id).collect();
        let rep2 = Mp5Switch::new(ordered.clone(), SwitchConfig::mp5(4)).run(trace2);
        let completion2: Vec<PacketId> = rep2.completions.iter().map(|&(p, _)| p).collect();
        let frac_ordered = reordered_flow_fraction(&flows2, &arrival2, &completion2);
        assert_eq!(
            frac_ordered, 0.0,
            "seed {seed}: flow-order enforcement must eliminate reordering"
        );
    }
    assert!(
        saw_reordering,
        "the plain NAT program should reorder at least one flow somewhere \
         (otherwise this test is vacuous)"
    );
}

#[test]
fn flow_order_preserves_functional_equivalence() {
    let ordered = compile_with_options(
        NATISH,
        &Target::default(),
        &CompileOptions {
            enforce_flow_order: Some(FlowOrderSpec::default()),
            ..Default::default()
        },
    )
    .unwrap();
    let trace = nat_trace(&ordered, 3000, 42);
    let reference = BanzaiSwitch::new(ordered.clone()).run(trace.clone());
    let rep = Mp5Switch::new(ordered, SwitchConfig::mp5(4)).run(trace);
    assert!(rep.result.equivalent_to(&reference));
}

#[test]
fn flow_order_requires_key_fields() {
    let err = compile_with_options(
        "struct Packet { int x; };
         void func(struct Packet p) { p.x = 1; }",
        &Target::default(),
        &CompileOptions {
            enforce_flow_order: Some(FlowOrderSpec::default()),
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(err.to_string().contains("src_ip"), "{err}");
}

#[test]
fn flow_order_rejects_a_program_declaring_its_register() {
    let source = NATISH.replace(
        "int bindings[4] = {0};",
        "int bindings[4] = {0};\n    int __flow_order[4] = {0};",
    );
    let source = source.replace("p.nat_port = 0;", "p.nat_port = __flow_order[p.proto % 4];");
    assert!(compile(&source, &Target::default()).is_ok());
    let err = compile_with_options(
        &source,
        &Target::default(),
        &CompileOptions {
            enforce_flow_order: Some(FlowOrderSpec::default()),
            ..Default::default()
        },
    )
    .unwrap_err();
    assert!(
        matches!(&err, CompileError::Lang(LangError::Semantic { message, .. })
            if message.contains(FLOW_ORDER_REG)),
        "{err:?}"
    );
}

/// With flow order, a budget too tight for the flow-order stage merges
/// one more tail stage, and the ops budget is checked after the
/// flow-order write leaves its stage: `heavy_hitter` compiles at 9
/// stages as at 8 and 10, and wherever it compiles it also compiles
/// when its widest stage is the ops budget (before the move, a merged
/// stage held that stage's ops and the write), and runs as Banzai.
#[test]
fn flow_order_compiles_at_every_budget_from_its_smallest() {
    let app = mp5::apps::by_name("heavy_hitter").expect("app exists");
    let opts = CompileOptions {
        enforce_flow_order: Some(FlowOrderSpec::default()),
        ..Default::default()
    };
    let compiled = |target| compile_with_options(app.source, &target, &opts);
    let mut fits = Vec::new();
    for max_stages in 1..=Target::default().max_stages {
        let target = Target {
            max_stages,
            ..Target::default()
        };
        let Ok(prog) = compiled(target.clone()) else {
            continue;
        };
        let widest = prog.stages.iter().map(|s| s.instrs.len()).max().unwrap();
        let tight = Target {
            max_ops_per_stage: widest,
            ..target
        };
        if let Err(e) = compiled(tight) {
            panic!("{max_stages} stages, {widest} ops: {e}");
        }
        let fo = prog.reg(FLOW_ORDER_REG).expect("dummy register present");
        assert_eq!(prog.regs[fo.index()].stage.index(), prog.num_stages() - 1);
        let trace = TraceBuilder::new(600, 5).build(prog.num_fields(), |rng, _, f| {
            f.iter_mut()
                .for_each(|v| *v = rand::Rng::gen_range(rng, 0..64))
        });
        let reference = BanzaiSwitch::new(prog.clone()).run(trace.clone());
        let rep = Mp5Switch::new(prog, SwitchConfig::mp5(4)).run(trace);
        assert!(rep.result.equivalent_to(&reference), "{max_stages} stages");
        fits.push(max_stages);
    }
    assert!(
        fits.windows(2).all(|w| w[0] + 1 == w[1]) && fits.contains(&9),
        "{fits:?}"
    );
}

/// Every bundled app with flow-order enforcement (keyed on the 5-tuple
/// fields it declares, or else its first field) and the analyzer hook,
/// at every stage budget from 1 to 23: a clean analysis means the
/// program compiles, and the attached report describes the program that
/// came out — its stage count and every array's shardability.
#[test]
fn analyzer_clean_means_compiles_with_flow_order() {
    let mut wrong = Vec::new();
    for app in mp5::apps::ALL_APPS.iter() {
        let plain = app.compile().expect("app compiles");
        let declared = &plain.field_names[..plain.declared_fields];
        let mut key_fields: Vec<String> = FlowOrderSpec::default()
            .key_fields
            .into_iter()
            .filter(|k| declared.contains(k))
            .collect();
        if key_fields.is_empty() {
            key_fields.push(declared[0].clone());
        }
        let opts = CompileOptions {
            enforce_flow_order: Some(FlowOrderSpec {
                key_fields,
                buckets: 1024,
            }),
            analyzer: Some(analyze_layout),
        };
        for max_stages in 1..=23 {
            let target = Target {
                max_stages,
                ..Target::default()
            };
            let case = format!("{} at {max_stages} stages", app.name);
            match compile_with_options(app.source, &target, &opts) {
                Err(CompileError::AnalysisRejected { .. }) => {}
                Err(e) => wrong.push(format!("{case}: analysis clean, then {e}")),
                Ok(prog) => {
                    let report = prog.analysis.as_ref().expect("report attached");
                    let stages = report.pressure.as_ref().map(|p| p.total_stages);
                    if stages != Some(prog.num_stages()) {
                        wrong.push(format!("{case}: report says {stages:?} stages"));
                    }
                    let classes: Vec<bool> =
                        report.regs.iter().map(|r| r.class.is_shardable()).collect();
                    let metas: Vec<bool> = prog.regs.iter().map(|m| m.shardable).collect();
                    if classes != metas {
                        wrong.push(format!("{case}: classes {classes:?}, program {metas:?}"));
                    }
                }
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "{} wrong:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

#[test]
fn ecn_marks_under_congestion_only() {
    // A global counter saturates one pipeline: queues build, packets
    // get marked.
    let prog = compile(
        "struct Packet { int seq; };
         int count = 0;
         void func(struct Packet p) { count = count + 1; p.seq = count; }",
        &Target::default(),
    )
    .unwrap();
    let congested = Mp5Switch::new(
        prog.clone(),
        SwitchConfig {
            ecn_threshold: Some(8),
            ..SwitchConfig::mp5(4)
        },
    )
    .run(TraceBuilder::new(4000, 1).build(prog.num_fields(), |_, _, _| {}));
    assert!(
        congested.ecn_marked > congested.offered / 2,
        "a saturating program should mark most packets, got {} of {}",
        congested.ecn_marked,
        congested.offered
    );

    // The same program under light load (big packets) marks nothing.
    let light = Mp5Switch::new(
        prog.clone(),
        SwitchConfig {
            ecn_threshold: Some(8),
            ..SwitchConfig::mp5(4)
        },
    )
    .run(
        TraceBuilder::new(2000, 2)
            .size(mp5::traffic::SizeDist::Fixed(1500))
            .build(prog.num_fields(), |_, _, _| {}),
    );
    assert_eq!(light.ecn_marked, 0, "no congestion, no marks");

    // Marking must not alter processing results.
    let unmarked = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(4))
        .run(TraceBuilder::new(4000, 1).build(prog.num_fields(), |_, _, _| {}));
    assert_eq!(congested.result.final_regs, unmarked.result.final_regs);
    assert_eq!(congested.result.outputs, unmarked.result.outputs);
}

#[test]
fn starvation_threshold_sheds_stateless_packets() {
    // Half the packets hammer one state (queueing on pipeline 0), the
    // other half are stateless and — with priority — starve the queue.
    let src = "struct Packet { int kind; int o; };
        int hot = 0;
        void func(struct Packet p) {
            if (p.kind == 1) { hot = hot + 1; }
            p.o = p.kind;
        }";
    let prog = compile(src, &Target::default()).unwrap();
    let mk_trace = |seed| {
        TraceBuilder::new(6000, seed).build(prog.num_fields(), |rng, _, f| {
            f[0] = i64::from(rand::Rng::gen_bool(rng, 0.5));
        })
    };
    let without = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(4)).run(mk_trace(3));
    assert_eq!(without.drops.starvation, 0);

    let with = Mp5Switch::new(
        prog.clone(),
        SwitchConfig {
            starvation_threshold: Some(16),
            ..SwitchConfig::mp5(4)
        },
    )
    .run(mk_trace(3));
    assert!(
        with.drops.starvation > 0,
        "aged stateful packets must trigger stateless drops"
    );
    // Everything offered is either completed or an accounted drop.
    assert_eq!(with.completed + with.drops.total_data(), with.offered);
}

#[test]
fn starvation_threshold_past_the_horizon_never_fires() {
    // The probe compares ages in byte-times, so the threshold is scaled
    // by the cycle length (256 at k = 4). `1 << 56` scaled that way used
    // to wrap to zero and shed packets a real threshold never would.
    let src = "struct Packet { int kind; int o; };
        int hot = 0;
        void func(struct Packet p) {
            if (p.kind == 1) { hot = hot + 1; }
            p.o = p.kind;
        }";
    let prog = compile(src, &Target::default()).unwrap();
    let trace = TraceBuilder::new(6000, 3).build(prog.num_fields(), |rng, _, f| {
        f[0] = i64::from(rand::Rng::gen_bool(rng, 0.5));
    });
    let run = |threshold| {
        Mp5Switch::new(
            prog.clone(),
            SwitchConfig {
                starvation_threshold: threshold,
                ..SwitchConfig::mp5(4)
            },
        )
        .run(trace.clone())
    };
    let none = run(None);
    for threshold in [1u64 << 56, u64::MAX] {
        let rep = run(Some(threshold));
        assert_eq!(rep.drops.starvation, 0, "threshold {threshold} fired");
        assert_eq!(
            rep.result, none.result,
            "threshold {threshold} changed the run"
        );
    }
    assert!(
        run(Some(16)).drops.starvation > 0,
        "a real threshold still sheds"
    );
}

#[test]
fn pairs_atom_program_is_equivalent_on_mp5() {
    // Two registers entangled by shared dataflow need a Banzai
    // "pairs"-class atom: both arrays co-reside in one stage, pinned to
    // one pipeline, with stage-level serialization.
    let src = "struct Packet { int h; int o; };
        int ema[8] = {0};
        int peak[8] = {0};
        void func(struct Packet p) {
            int i = p.h % 8;
            int avg = (ema[i] * 7 + p.h * 16) / 8;
            int top = max(peak[i], avg);
            ema[i] = avg + peak[i] / 128;
            peak[i] = top;
            p.o = top;
        }";
    let prog = compile(src, &Target::default()).unwrap();
    assert!(
        prog.regs.iter().all(|r| !r.shardable),
        "entangled registers must be pinned"
    );
    // Both registers share one stage.
    assert_eq!(prog.regs[0].stage, prog.regs[1].stage);
    let trace = TraceBuilder::new(3000, 21).build(prog.num_fields(), |rng, _, f| {
        f[0] = rand::Rng::gen_range(rng, 0..200);
    });
    let reference = BanzaiSwitch::new(prog.clone()).run(trace.clone());
    let report = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(4)).run(trace);
    assert!(report.result.equivalent_to(&reference));

    // A pairs-less target rejects the same program.
    let no_pairs = Target {
        allow_pairs: false,
        ..Target::default()
    };
    assert!(compile(src, &no_pairs).is_err());
}
