//! End-to-end checks of the paper's headline quantitative claims
//! (shape, not absolute numbers — see DESIGN.md §7).

use mp5::asic::{AsicModel, PAPER_TABLE1};
use mp5::banzai::BanzaiSwitch;
use mp5::core::{Mp5Switch, RunReport, SwitchConfig};
use mp5::sim::c1_violation_fraction;
use mp5::sim::experiments::app_trace;
use mp5::sim::synth::{synthetic_compiled, synthetic_trace, SynthConfig};
use mp5::traffic::{AccessPattern, SizeDist, TraceBuilder};
use mp5::types::Packet;

/// §4.4: all four real applications process packets at line rate on
/// MP5 at the paper's default 4 pipelines, with functional equivalence
/// and bounded queues.
#[test]
fn real_applications_hit_line_rate_with_equivalence() {
    for app in &mp5::apps::PAPER_APPS {
        let (prog, trace) = app_trace(app, 15_000, 1);
        let reference = BanzaiSwitch::new(prog.clone()).run(trace.clone());
        let report = Mp5Switch::new(prog, SwitchConfig::mp5(4)).run(trace);
        assert!(
            report.normalized_throughput() > 0.95,
            "{}: expected ~line rate, got {:.3}",
            app.name,
            report.normalized_throughput()
        );
        assert!(
            report.result.equivalent_to(&reference),
            "{}: functional equivalence must hold",
            app.name
        );
        assert!(
            report.max_queue_depth <= 64,
            "{}: queues should stay shallow (paper saw <= 11), got {}",
            app.name,
            report.max_queue_depth
        );
    }
}

/// §4.3.2 D4: MP5 has exactly zero C1 violations; no-D4 and the
/// recirculation switch both violate substantially on skewed traffic.
/// And D3: reaching remote state by recirculation costs throughput that
/// steering through the crossbars does not.
#[test]
fn d4_ablation_violation_ordering() {
    let cfg = SynthConfig {
        pattern: AccessPattern::paper_skewed(),
        packets: 12_000,
        seed: 77,
        ..Default::default()
    };
    let prog = synthetic_compiled(cfg.stateful_stages, cfg.reg_size).unwrap();
    let trace = synthetic_trace(&prog, &cfg);
    let reference = BanzaiSwitch::new(prog.clone()).run(trace.clone());

    let mp5 = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(4)).run(trace.clone());
    let nod4 = Mp5Switch::new(prog.clone(), SwitchConfig::no_d4(4)).run(trace.clone());
    let rec = Mp5Switch::new(prog, SwitchConfig::recirc(4)).run(trace);

    let v_mp5 = c1_violation_fraction(&reference.access_log, &mp5.result.access_log);
    let v_nod4 = c1_violation_fraction(&reference.access_log, &nod4.result.access_log);
    let v_rec = c1_violation_fraction(&reference.access_log, &rec.result.access_log);

    assert_eq!(v_mp5, 0.0, "MP5 must never violate C1");
    assert!(v_nod4 > 0.02, "no-D4 must violate measurably, got {v_nod4}");
    assert!(v_rec > 0.02, "recirc must violate measurably, got {v_rec}");
    let (t_rec, t_mp5) = (rec.normalized_throughput(), mp5.normalized_throughput());
    assert!(
        t_rec < t_mp5,
        "recirc {t_rec} must be slower than MP5 {t_mp5}"
    );
}

/// §3.5.2's fundamental limit: a global single-state program caps MP5
/// at one pipeline's rate, and more pipelines means a lower normalized
/// ceiling.
#[test]
fn fundamental_limit_single_state() {
    let prog = mp5::compiler::compile(
        "struct Packet { int seq; };
         int count = 0;
         void func(struct Packet p) { count = count + 1; p.seq = count; }",
        &mp5::compiler::Target::default(),
    )
    .unwrap();
    let mut last = f64::INFINITY;
    for k in [2usize, 4, 8] {
        let trace =
            mp5::traffic::TraceBuilder::new(6_000, 3).build(prog.num_fields(), |_, _, _| {});
        let rep = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(k)).run(trace);
        let t = rep.normalized_throughput();
        let ceiling = 1.0 / k as f64;
        assert!(
            (t - ceiling).abs() < 0.08,
            "k={k}: throughput {t:.3} should sit at the 1/k={ceiling:.3} limit"
        );
        assert!(t < last);
        last = t;
    }
}

/// §4.2: the analytic ASIC model reproduces every Table 1 cell within
/// 10 % and meets 1 GHz everywhere the paper reports.
#[test]
fn table1_reproduction() {
    let m = AsicModel::default();
    for &(k, s, paper) in PAPER_TABLE1 {
        let ours = m.area_mm2(k, s);
        assert!(
            ((ours - paper) / paper).abs() < 0.10,
            "k={k},s={s}: {ours:.3} vs paper {paper:.3}"
        );
        assert!(m.meets_1ghz(k));
    }
}

/// §4.3.3 sensitivity shapes on a reduced sweep: throughput decreases
/// in k, increases in register size and packet size; MP5 ≈ ideal.
#[test]
fn sensitivity_shapes() {
    let run = |cfg: SynthConfig, sw: SwitchConfig| {
        let prog = synthetic_compiled(cfg.stateful_stages, cfg.reg_size).unwrap();
        let trace = synthetic_trace(&prog, &cfg);
        Mp5Switch::new(prog, sw).run(trace).normalized_throughput()
    };
    let base = SynthConfig {
        packets: 8_000,
        seed: 5,
        ..Default::default()
    };

    // (a) more pipelines -> lower normalized throughput.
    let k2 = run(
        SynthConfig {
            pipelines: 2,
            ..base
        },
        SwitchConfig::mp5(2),
    );
    let k16 = run(
        SynthConfig {
            pipelines: 16,
            ..base
        },
        SwitchConfig::mp5(16),
    );
    assert!(k2 > k16, "k=2 {k2:.3} vs k=16 {k16:.3}");

    // (c) bigger register arrays -> higher throughput. Compare below
    // the saturation knee: once reg_size >= pipelines, every pipeline
    // owns a dedicated shard and throughput plateaus (runs at size 4
    // and 4096 differ only by noise), so the sensitivity is measured
    // from a genuinely contended size.
    let r2 = run(
        SynthConfig {
            reg_size: 2,
            ..base
        },
        SwitchConfig::mp5(4),
    );
    let r4096 = run(
        SynthConfig {
            reg_size: 4096,
            ..base
        },
        SwitchConfig::mp5(4),
    );
    assert!(r4096 > r2, "size 4096 {r4096:.3} vs size 2 {r2:.3}");

    // (d) bigger packets -> line rate by 128 B.
    let p128 = run(
        SynthConfig {
            packet_size: 128,
            ..base
        },
        SwitchConfig::mp5(4),
    );
    assert!(p128 > 0.9, "128 B should reach ~line rate, got {p128:.3}");

    // MP5 close to the ideal upper bound.
    let mp5 = run(base, SwitchConfig::mp5(4));
    let ideal = run(base, SwitchConfig::ideal(4));
    assert!(
        ideal >= mp5 - 0.05,
        "ideal {ideal:.3} should not trail MP5 {mp5:.3}"
    );
    assert!(
        mp5 >= ideal - 0.15,
        "MP5 {mp5:.3} should be close to ideal {ideal:.3} (§4.3.3)"
    );
}

/// §2.3.1 limitation: a stateless program runs at line rate with
/// functional equivalence on *every* design, including today's
/// switches.
#[test]
fn stateless_is_easy_for_everyone() {
    let prog = mp5::compiler::compile(
        "struct Packet { int a; int b; };
         void func(struct Packet p) { p.b = p.a * 7 + 3; }",
        &mp5::compiler::Target::default(),
    )
    .unwrap();
    let trace = mp5::traffic::TraceBuilder::new(10_000, 9).build(prog.num_fields(), |rng, _, f| {
        f[0] = rand::Rng::gen_range(rng, 0..1000);
    });
    let reference = BanzaiSwitch::new(prog.clone()).run(trace.clone());
    for report in [
        Mp5Switch::new(prog.clone(), SwitchConfig::mp5(4)).run(trace.clone()),
        Mp5Switch::new(prog.clone(), SwitchConfig::no_d4(4)).run(trace.clone()),
    ] {
        assert!(report.result.equivalent_to(&reference));
        assert!(report.normalized_throughput() > 0.95);
        assert_eq!(report.phantoms_generated, 0, "no state, no phantoms");
    }
    let rec = Mp5Switch::new(prog, SwitchConfig::recirc(4)).run(trace);
    assert_eq!(rec.steered, 0, "no state, no recirculation");
    assert!(rec.result.equivalent_to(&reference));
    assert!(rec.normalized_throughput() > 0.95);
}

/// A 64-entry table, one access per packet.
const SHARDED: &str = "struct Packet { int h; int out; };
    int tbl[64] = {0};
    void func(struct Packet p) {
        tbl[p.h % 64] = tbl[p.h % 64] + 1;
        p.out = tbl[p.h % 64];
    }";

fn sharded_run(cfg: SwitchConfig, trace: impl FnOnce(usize) -> Vec<Packet>) -> RunReport {
    let prog = mp5::compiler::compile(SHARDED, &mp5::compiler::Target::default()).unwrap();
    let trace = trace(prog.num_fields());
    Mp5Switch::new(prog, cfg).run(trace)
}

/// §3.1: the naive design (all state and all packets on one pipeline)
/// caps at `1/k` of line rate.
#[test]
fn naive_design_caps_at_one_over_k() {
    let t = sharded_run(SwitchConfig::naive(4), |nf| {
        TraceBuilder::new(2000, 6).build(nf, |r, _, f| f[0] = rand::Rng::gen_range(r, 0..1000))
    })
    .normalized_throughput();
    assert!(
        t < 0.30 && t > 0.15,
        "naive with k=4 should sit near 0.25, got {t}"
    );
}

/// §4.3.2 D2: on skewed traffic, dynamic sharding moves state and is at
/// least as fast as static sharding.
#[test]
fn dynamic_beats_static_on_skew() {
    let pat = AccessPattern::paper_skewed();
    let trace = |nf| TraceBuilder::new(6000, 8).build(nf, |r, _, f| f[0] = pat.draw(64, r) as i64);
    let dynamic = sharded_run(SwitchConfig::mp5(4), trace);
    let static_ = sharded_run(SwitchConfig::static_shard(4, 99), trace);
    let (d, s) = (
        dynamic.normalized_throughput(),
        static_.normalized_throughput(),
    );
    assert!(d >= s * 0.99, "dynamic {d} should be >= static {s}");
    assert!(dynamic.remap_moves > 0, "the heuristic must act on skew");
}

/// Figure 7d's effect: with 1400 B packets the inter-arrival budget is
/// ~22 slots, so even the serialized counter keeps up at k=4.
#[test]
fn larger_packets_reach_line_rate_on_counter() {
    let prog = mp5::compiler::compile(
        "struct Packet { int seq; };
         int count = 0;
         void func(struct Packet p) { count = count + 1; p.seq = count; }",
        &mp5::compiler::Target::default(),
    )
    .unwrap();
    let trace = TraceBuilder::new(1500, 13)
        .size(SizeDist::Fixed(1400))
        .build(prog.num_fields(), |_, _, _| {});
    let t = Mp5Switch::new(prog, SwitchConfig::mp5(4))
        .run(trace)
        .normalized_throughput();
    assert!(t > 0.95, "got {t}");
}
