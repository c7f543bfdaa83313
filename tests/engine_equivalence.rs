//! Engine equivalence suite: the parallel cycle engine must be
//! **bit-identical** to the sequential one — same [`RunReport`] (final
//! registers, packet outputs, per-state access order, every counter)
//! and the same traced event stream (compared by `stream_hash`) — for
//! every bundled application, across seeds and pipeline counts.
//!
//! This is the contract `EngineMode` documents and `DESIGN.md` §10
//! argues: the parallel engine shards the work phase of each cycle and
//! merges buffered side effects in pipeline order, so no observable
//! difference may ever appear. The same bar applies to the work pass's
//! two exec paths (`ExecPath::Scalar`, probing every slot, vs the
//! mask-led `Batch` default, DESIGN.md §13). Scale knob:
//! `MP5_EQ_PACKETS` (default 300 packets per run).

use mp5::apps::ALL_APPS;
use mp5::banzai::BanzaiSwitch;
use mp5::compiler::{compile, Target};
use mp5::core::{EngineMode, ExecPath, Mp5Switch, RunReport, SwitchConfig};
use mp5::faults::FaultPlan;
use mp5::sim::experiments::app_trace;
use mp5::trace::{audit, stream_hash, MemSink, NopSink};
use mp5::traffic::TraceBuilder;

fn packets_per_run() -> usize {
    std::env::var("MP5_EQ_PACKETS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

/// One traced run; returns the report and the event-stream hash.
fn traced(
    prog: &mp5::compiler::CompiledProgram,
    trace: &[mp5::types::Packet],
    cfg: SwitchConfig,
) -> (RunReport, u64) {
    let (report, sink) =
        Mp5Switch::with_sink(prog.clone(), cfg, MemSink::new()).run_traced(trace.to_vec());
    let hash = stream_hash(&sink.into_events());
    (report, hash)
}

/// All ten bundled programs × seeds {1,2,3} × pipelines {1,2,4,8}:
/// identical reports and identical event streams.
#[test]
fn parallel_engine_is_bit_identical_on_every_program() {
    let packets = packets_per_run();
    for app in &ALL_APPS {
        for seed in [1u64, 2, 3] {
            let (prog, trace) = app_trace(app, packets, seed);
            for k in [1usize, 2, 4, 8] {
                let (seq_rep, seq_hash) = traced(&prog, &trace, SwitchConfig::mp5(k));
                let par_cfg = SwitchConfig::mp5(k).with_engine(EngineMode::Parallel(k));
                let (par_rep, par_hash) = traced(&prog, &trace, par_cfg);
                assert_eq!(
                    seq_rep, par_rep,
                    "{} seed={seed} k={k}: reports diverged",
                    app.name
                );
                assert_eq!(
                    seq_hash, par_hash,
                    "{} seed={seed} k={k}: event streams diverged",
                    app.name
                );
            }
        }
    }
}

/// Worker counts that do not divide the pipeline count evenly (and
/// exceed it) must not matter either: `Parallel(n)` for n in 1..=8 on a
/// 4-pipeline switch, many short runs.
#[test]
fn worker_count_never_changes_results() {
    let app = &ALL_APPS[0]; // flowlet
    let (prog, trace) = app_trace(app, 200, 5);
    let (seq_rep, seq_hash) = traced(&prog, &trace, SwitchConfig::mp5(4));
    for n in 1usize..=8 {
        for round in 0..3 {
            let cfg = SwitchConfig::mp5(4).with_engine(EngineMode::Parallel(n));
            let (par_rep, par_hash) = traced(&prog, &trace, cfg);
            assert_eq!(
                seq_rep, par_rep,
                "Parallel({n}) round {round}: reports diverged"
            );
            assert_eq!(
                seq_hash, par_hash,
                "Parallel({n}) round {round}: event streams diverged"
            );
        }
    }
}

/// The untraced parallel path (NopSink workers) must agree with the
/// untraced sequential path too — tracing must not be what makes the
/// engines agree.
#[test]
fn untraced_runs_agree_across_engines() {
    for app in &ALL_APPS[..4] {
        let (prog, trace) = app_trace(app, 400, 11);
        let seq = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(4)).run(trace.clone());
        let cfg = SwitchConfig::mp5(4).with_engine(EngineMode::parallel_auto());
        let par = Mp5Switch::new(prog.clone(), cfg).run(trace);
        assert_eq!(seq, par, "{}: untraced reports diverged", app.name);
    }
}

/// The mask-led work pass (the default, [`ExecPath::Batch`]) must be
/// bit-identical to the scalar reference interpreter: all ten bundled
/// programs × seeds × pipelines {1,2,4,8} through the sequential
/// engine.
#[test]
fn batch_work_phase_is_bit_identical_to_scalar() {
    let packets = packets_per_run();
    for app in &ALL_APPS {
        for seed in [1u64, 2] {
            let (prog, trace) = app_trace(app, packets, seed);
            for k in [1usize, 2, 4, 8] {
                let scalar_cfg = SwitchConfig::mp5(k).with_exec(ExecPath::Scalar);
                let scalar = Mp5Switch::new(prog.clone(), scalar_cfg).run(trace.clone());
                let batch = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(k)).run(trace.clone());
                assert_eq!(
                    scalar, batch,
                    "{} seed={seed} k={k}: scalar and batch work phases diverged",
                    app.name
                );
            }
        }
    }
}

/// Exec paths must also agree when the parallel engine shards the batch
/// ranges across pinned worker counts (including workers < pipelines),
/// and both must match the sequential batch run.
#[test]
fn batch_work_phase_matches_scalar_on_the_parallel_engine() {
    for app in &ALL_APPS[..4] {
        let (prog, trace) = app_trace(app, 300, 5);
        for k in [4usize, 8] {
            let seq = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(k)).run(trace.clone());
            for workers in [2usize, 4] {
                let par = SwitchConfig::mp5(k).with_engine(EngineMode::Parallel(workers));
                let scalar_rep =
                    Mp5Switch::new(prog.clone(), par.clone().with_exec(ExecPath::Scalar))
                        .run(trace.clone());
                let batch_rep = Mp5Switch::new(prog.clone(), par).run(trace.clone());
                assert_eq!(
                    scalar_rep, batch_rep,
                    "{} k={k} par:{workers}: exec paths diverged",
                    app.name
                );
                assert_eq!(
                    seq, batch_rep,
                    "{} k={k} par:{workers}: engines diverged on the batch path",
                    app.name
                );
            }
        }
    }
}

/// Fault injection runs on the shared phase machinery, so the batch
/// work phase must not disturb it: same fault plan, same report on
/// both exec paths (untraced; the traced × faulted cross-product is
/// covered by `traced_batch_stream_is_bit_identical_under_faults`).
#[test]
fn batch_work_phase_matches_scalar_under_faults() {
    for app in &ALL_APPS[..4] {
        let (prog, trace) = app_trace(app, 300, 3);
        for k in [2usize, 4] {
            let plan = FaultPlan::chaos(41, k, prog.num_stages(), 250);
            let run = |exec: ExecPath| {
                let cfg = SwitchConfig::mp5(k).with_exec(exec);
                Mp5Switch::with_faults(prog.clone(), cfg, NopSink, plan.injector())
                    .run(trace.clone())
            };
            let scalar = run(ExecPath::Scalar);
            let batch = run(ExecPath::Batch);
            assert_eq!(
                scalar, batch,
                "{} k={k}: exec paths diverged under faults",
                app.name
            );
            assert!(
                batch.fault.accounted(),
                "{} k={k}: fault ledger must close on the batch path",
                app.name
            );
        }
    }
}

/// Attaching a sink does not change the execution path: a traced run
/// emits from the same in-place work pass, and its report equals the
/// untraced batch run's report.
#[test]
fn traced_runs_ride_the_batch_path() {
    for app in &ALL_APPS[..4] {
        let (prog, trace) = app_trace(app, 300, 7);
        let (traced_rep, _) = traced(&prog, &trace, SwitchConfig::mp5(4));
        let batch_rep = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(4)).run(trace.clone());
        assert_eq!(
            traced_rep, batch_rep,
            "{}: traced and untraced batch reports diverged",
            app.name
        );
    }
}

/// The load-bearing contract of the traced batch path: for every
/// bundled program, on both engines, the batch path's *event stream* is
/// bit-identical (by `stream_hash`) to the traced scalar reference —
/// recorded traces, JSONL files, and auditor verdicts cannot depend on
/// which exec path produced them.
#[test]
fn traced_batch_stream_matches_traced_scalar() {
    let packets = packets_per_run();
    for app in &ALL_APPS {
        let (prog, trace) = app_trace(app, packets, 1);
        for k in [1usize, 4] {
            let scalar_cfg = SwitchConfig::mp5(k).with_exec(ExecPath::Scalar);
            let (scalar_rep, scalar_hash) = traced(&prog, &trace, scalar_cfg);
            for engine in [EngineMode::Sequential, EngineMode::Parallel(k)] {
                let cfg = SwitchConfig::mp5(k).with_engine(engine);
                let (batch_rep, batch_hash) = traced(&prog, &trace, cfg);
                assert_eq!(
                    scalar_rep, batch_rep,
                    "{} k={k} {engine:?}: traced batch report diverged from scalar",
                    app.name
                );
                assert_eq!(
                    scalar_hash, batch_hash,
                    "{} k={k} {engine:?}: traced batch event stream diverged from scalar",
                    app.name
                );
            }
        }
    }
}

/// The same stream-identity bar under fault plans: stalls, kills,
/// phantom drops and grant delays interleave with the work pass
/// without perturbing the canonical event order, on both engines.
#[test]
fn traced_batch_stream_is_bit_identical_under_faults() {
    for app in &ALL_APPS[..4] {
        let (prog, trace) = app_trace(app, 300, 3);
        for k in [2usize, 4] {
            let plan = FaultPlan::chaos(41, k, prog.num_stages(), 250);
            let scalar_cfg = SwitchConfig::mp5(k).with_exec(ExecPath::Scalar);
            let (scalar_rep, scalar_hash) = traced_faulted(&prog, &trace, scalar_cfg, &plan);
            for engine in [EngineMode::Sequential, EngineMode::Parallel(k)] {
                let cfg = SwitchConfig::mp5(k).with_engine(engine);
                let (batch_rep, batch_hash) = traced_faulted(&prog, &trace, cfg, &plan);
                assert_eq!(
                    scalar_rep, batch_rep,
                    "{} k={k} {engine:?}: faulted traced batch report diverged",
                    app.name
                );
                assert_eq!(
                    scalar_hash, batch_hash,
                    "{} k={k} {engine:?}: faulted traced batch stream diverged",
                    app.name
                );
            }
            assert!(
                scalar_rep.fault.accounted(),
                "{} k={k}: fault ledger must close",
                app.name
            );
        }
    }
}

/// The occupancy masks cover 64 stages; a wider program probes every
/// slot on both exec paths. A 70-link dependency chain feeding one
/// `r[16]` update, one operation per stage, fills 100 stages: batch and
/// scalar on both engines give one report and one event stream, and
/// that report is equivalent to Banzai's single pipeline.
#[test]
fn programs_wider_than_64_stages_agree_on_every_path() {
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
    let reference = BanzaiSwitch::new(prog.clone()).run(trace.clone());
    let mut first: Option<(RunReport, u64)> = None;
    for exec in [ExecPath::Batch, ExecPath::Scalar] {
        for engine in [EngineMode::Sequential, EngineMode::Parallel(2)] {
            let cfg = SwitchConfig::mp5(4).with_exec(exec).with_engine(engine);
            let (rep, hash) = traced(&prog, &trace, cfg);
            assert!(
                rep.result.equivalent_to(&reference),
                "{exec} {engine:?}: not equivalent to Banzai"
            );
            match &first {
                None => first = Some((rep, hash)),
                Some((rep0, hash0)) => {
                    assert_eq!(rep0, &rep, "{exec} {engine:?}: report diverged");
                    assert_eq!(*hash0, hash, "{exec} {engine:?}: event stream diverged");
                }
            }
        }
    }
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

/// Bit-identity must survive fault injection: the same fault plan on
/// the same trace produces the same report and the same event stream
/// on both engines — stalls are handed to workers as plain data and
/// every other hook runs on the coordinator, so no nondeterminism may
/// leak in. Covers a mixed plan (kill + stall + drops + delays) and a
/// pure chaos plan, across pipeline counts.
#[test]
fn engines_stay_bit_identical_under_faults() {
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
            let chaos = FaultPlan::chaos(99, k, prog.num_stages(), 250);
            for (name, plan) in [("mixed", &mixed), ("chaos", &chaos)] {
                let (seq_rep, seq_hash) = traced_faulted(&prog, &trace, SwitchConfig::mp5(k), plan);
                let par_cfg = SwitchConfig::mp5(k).with_engine(EngineMode::Parallel(k));
                let (par_rep, par_hash) = traced_faulted(&prog, &trace, par_cfg, plan);
                assert_eq!(
                    seq_rep, par_rep,
                    "{} k={k} {name} plan: reports diverged under faults",
                    app.name
                );
                assert_eq!(
                    seq_hash, par_hash,
                    "{} k={k} {name} plan: event streams diverged under faults",
                    app.name
                );
                assert!(
                    seq_rep.fault.accounted(),
                    "{} k={k} {name} plan: fault ledger must close",
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
