//! The one cycle engine against its references: traced runs report
//! what untraced runs report, a program wider than the 64-stage
//! occupancy masks matches Banzai's single pipeline and restores
//! mid-run, fault ledgers close under mixed and chaos plans, a fault
//! plan replays through JSON, and the auditor sees a silent phantom
//! loss. Scale knob: `MP5_EQ_PACKETS` (default 300 packets per run).

use mp5::apps::ALL_APPS;
use mp5::banzai::BanzaiSwitch;
use mp5::compiler::{compile, Target};
use mp5::core::{Mp5Switch, RunReport, SwitchConfig};
use mp5::faults::{FaultPlan, NoFaults};
use mp5::sim::experiments::app_trace;
use mp5::trace::{audit, stream_hash, MemSink, NopSink};
use mp5::traffic::TraceBuilder;

fn packets_per_run() -> usize {
    std::env::var("MP5_EQ_PACKETS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

/// The report of one traced run.
fn traced(
    prog: &mp5::compiler::CompiledProgram,
    trace: &[mp5::types::Packet],
    cfg: SwitchConfig,
) -> RunReport {
    Mp5Switch::with_sink(prog.clone(), cfg, MemSink::new())
        .run_traced(trace.to_vec())
        .0
}

/// Attaching a sink does not change the execution path: a traced run
/// emits from the same mask-led work pass, and its report equals the
/// untraced run's report.
#[test]
fn traced_runs_ride_the_batch_path() {
    for app in &ALL_APPS[..4] {
        let (prog, trace) = app_trace(app, 300, 7);
        let traced_rep = traced(&prog, &trace, SwitchConfig::mp5(4));
        let untraced = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(4)).run(trace.clone());
        assert_eq!(
            traced_rep, untraced,
            "{}: traced and untraced reports diverged",
            app.name
        );
    }
}

/// A 70-link dependency chain feeding one `r[16]` update, one operation
/// per stage: a program of 100 stages, wider than the 64-stage
/// occupancy masks, and 300 packets for it.
fn wide_chain() -> (mp5::compiler::CompiledProgram, Vec<mp5::types::Packet>) {
    let mut src = String::from(
        "struct Packet { int h; int o; };
         int r[16] = {0};
         void func(struct Packet p) {
             int t0 = p.h;\n",
    );
    for i in 1..=70 {
        src += &format!("int t{i} = t{} * 3 + 1;\n", i - 1);
    }
    src += "r[p.h % 16] = r[p.h % 16] + t70;
            p.o = r[p.h % 16];
         }";
    let target = Target {
        max_stages: 100,
        max_chain_depth: 1,
        max_ops_per_stage: 256,
        ..Default::default()
    };
    let prog = compile(&src, &target).expect("the chain compiles");
    assert!(
        prog.num_stages() > 64,
        "the chain must be wider than the masks: {} stages",
        prog.num_stages()
    );
    let trace = TraceBuilder::new(300, 7).build(prog.num_fields(), |rng, _, f| {
        f[0] = rand::Rng::gen_range(rng, 0..1000);
    });
    (prog, trace)
}

/// The occupancy masks cover 64 stages; a wider program probes every
/// slot. The wide chain's run is equivalent to Banzai's single
/// pipeline, traced or not, with one report either way.
#[test]
fn programs_wider_than_64_stages_agree_on_every_path() {
    let (prog, trace) = wide_chain();
    let reference = BanzaiSwitch::new(prog.clone()).run(trace.clone());
    let rep = traced(&prog, &trace, SwitchConfig::mp5(4));
    assert!(
        rep.result.equivalent_to(&reference),
        "not equivalent to Banzai"
    );
    let untraced = Mp5Switch::new(prog, SwitchConfig::mp5(4)).run(trace);
    assert_eq!(rep, untraced, "traced and untraced reports diverged");
}

/// A checkpoint of the wide chain, taken while packets occupy stages
/// past the masks, restores into a fresh switch that finishes the run
/// exactly as the uninterrupted run does.
#[test]
fn a_wide_program_restores_mid_run() {
    let (prog, mut trace) = wide_chain();
    let cfg = SwitchConfig::mp5(4);
    let oracle = Mp5Switch::new(prog.clone(), cfg.clone()).run(trace.clone());
    trace.sort_by_key(|p| p.entry_order_key());
    let mut sw = Mp5Switch::new(prog.clone(), cfg.clone());
    for p in trace {
        sw.offer(p);
    }
    for _ in 0..90 {
        sw.tick();
        sw.drain_egress();
    }
    let state = sw.extract_state(1);
    assert!(
        state
            .lanes
            .iter()
            .any(|row| row[64..].iter().any(Option::is_some)),
        "the checkpoint must catch a flight past stage 64"
    );
    let mut sw = Mp5Switch::try_restore_with(prog, cfg, state, NopSink, NoFaults)
        .expect("the checkpoint restores");
    while !sw.is_idle() {
        sw.tick();
        sw.drain_egress();
    }
    let (report, _) = sw.finish_stream();
    assert_eq!(report, oracle, "the restored run diverged");
}

/// One traced run under a fault plan; report + event-stream hash.
fn traced_faulted(
    prog: &mp5::compiler::CompiledProgram,
    trace: &[mp5::types::Packet],
    cfg: SwitchConfig,
    plan: &FaultPlan,
) -> (RunReport, u64) {
    let (report, sink) = Mp5Switch::with_faults(prog.clone(), cfg, MemSink::new(), plan.injector())
        .run_traced(trace.to_vec());
    let hash = stream_hash(&sink.into_events());
    (report, hash)
}

/// Every injected fault is accounted (`injected == recovered +
/// degraded`) under a mixed plan (kill + stall + drops + delays +
/// remap abort) and two chaos plans, across pipeline counts; and the
/// sink still only observes: each traced faulted run reports what its
/// untraced twin reports.
#[test]
fn fault_ledgers_close_under_mixed_and_chaos_plans() {
    let packets = packets_per_run();
    for app in &ALL_APPS[..4] {
        for k in [2usize, 4] {
            let (prog, trace) = app_trace(app, packets, 3);
            let mixed = FaultPlan::new(17)
                .pipeline_fail(30, (k - 1) as u16)
                .stage_stall(10, 0, 1, 40)
                .phantom_drop(5, 150, 120)
                .grant_delay(20, 2, 80)
                .remap_abort(15, 1);
            let chaos41 = FaultPlan::chaos(41, k, prog.num_stages(), 250);
            let chaos99 = FaultPlan::chaos(99, k, prog.num_stages(), 250);
            for (name, plan) in [
                ("mixed", &mixed),
                ("chaos41", &chaos41),
                ("chaos99", &chaos99),
            ] {
                let (rep, _) = traced_faulted(&prog, &trace, SwitchConfig::mp5(k), plan);
                assert!(
                    rep.fault.accounted(),
                    "{} k={k} {name} plan: fault ledger must close",
                    app.name
                );
                let untraced = Mp5Switch::with_faults(
                    prog.clone(),
                    SwitchConfig::mp5(k),
                    NopSink,
                    plan.injector(),
                )
                .run(trace.clone());
                assert_eq!(
                    rep, untraced,
                    "{} k={k} {name} plan: traced and untraced reports diverged",
                    app.name
                );
            }
        }
    }
}

/// A fault plan serialized to JSON and parsed back drives a
/// bit-identical run — `mp5run --faults plan.json` replays exactly
/// what `mp5chaos` rolled.
#[test]
fn fault_plans_replay_identically_through_json() {
    let app = &ALL_APPS[1]; // conga
    let (prog, trace) = app_trace(app, 300, 7);
    let plan = FaultPlan::chaos(7, 4, prog.num_stages(), 200);
    let reparsed = FaultPlan::from_json(&plan.to_json()).expect("plan round-trips");
    let (a, ha) = traced_faulted(&prog, &trace, SwitchConfig::mp5(4), &plan);
    let (b, hb) = traced_faulted(&prog, &trace, SwitchConfig::mp5(4), &reparsed);
    assert_eq!(a, b, "JSON round-trip changed the run");
    assert_eq!(ha, hb, "JSON round-trip changed the event stream");
    assert!(a.fault.any(), "the replayed plan must actually fire");
}

/// Negative control: a *silent* phantom drop records no loss event and
/// performs no recovery, so the offline auditor MUST flag the stream.
/// This proves the chaos suite's "auditor-clean" gate has teeth — the
/// auditor really can see an unrecovered phantom loss.
#[test]
fn auditor_catches_unrecovered_phantom_loss() {
    let app = &ALL_APPS[0]; // flowlet
    let (prog, trace) = app_trace(app, 400, 9);
    // High silent drop rate over a long window: phantoms vanish with
    // no FaultPhantomLost marker and no recovery insert.
    let plan = FaultPlan::new(13).silent_phantom_drop(5, 700, 100_000);
    let (report, sink) =
        Mp5Switch::with_faults(prog, SwitchConfig::mp5(4), MemSink::new(), plan.injector())
            .run_traced(trace);
    assert!(
        report.fault.phantoms_dropped > 0,
        "the negative control must actually lose phantoms"
    );
    assert_eq!(
        report.fault.phantoms_recovered, 0,
        "silent losses must not be recovered"
    );
    let rep = audit(&sink.into_events());
    assert!(
        !rep.is_clean(),
        "auditor failed to flag {} silently lost phantom(s) — the chaos \
         gate would be blind",
        report.fault.phantoms_dropped
    );
}
