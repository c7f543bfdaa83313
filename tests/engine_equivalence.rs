//! The one cycle engine against its references, as slices of the
//! model-based harness (`mp5_sim::harness`): traced runs report
//! what untraced runs report, a program wider than the 64-stage
//! occupancy masks matches Banzai and restores mid-run, fault ledgers
//! close under mixed and chaos plans, and a fault plan replays through
//! JSON. The chaos slice itself is `tests/chaos.rs`.

use mp5::core::Mp5Switch;
use mp5::faults::PlannedFaults;
use mp5::sim::harness::*;
use mp5::trace::{stream_hash, MemSink};

/// Attaching a sink does not change the execution path: every case
/// asserts that its traced report equals its untraced one.
#[test]
fn traced_runs_ride_the_batch_path() {
    let pins = Pins {
        program: Some(Program::App),
        ..Pins::default()
    };
    assert_reached(
        &sweep(0..12, pins),
        &["equivalent to Banzai", "phantom emits"],
    );
}

const WIDE: Pins = Pins {
    program: Some(Program::Wide),
    design: None,
    plan: None,
};

/// The 100-stage chain probes every slot past the masks and is Banzai,
/// traced or not.
#[test]
fn programs_wider_than_64_stages_agree_on_every_path() {
    let pins = Pins {
        design: Some(Design::Mp5),
        plan: Some(Plan::Clean),
        ..WIDE
    };
    assert_reached(&sweep(0..4, pins), &["equivalent to Banzai"]);
}

/// A checkpoint of the wide chain taken while packets occupy stages
/// past the masks restores through `extract_state` → JSON →
/// `try_restore_with` and finishes as the uninterrupted run does.
#[test]
fn a_wide_program_restores_mid_run() {
    let tally = sweep(0..6, WIDE);
    assert_reached(&tally, &["mid-run restores", "checkpoints past stage 64"]);
}

/// Every injected fault is accounted, and the traced faulted run
/// reports what its untraced twin reports, under the mixed plan and
/// under chaos plans.
#[test]
fn fault_ledgers_close_under_mixed_and_chaos_plans() {
    for plan in [Plan::Mixed, Plan::Chaos] {
        let pins = Pins {
            program: Some(Program::App),
            design: Some(Design::Mp5),
            plan: Some(plan),
        };
        let tally = sweep(0..8, pins);
        assert_reached(&tally, &["faults injected", "recovered phantoms"]);
    }
}

/// Every case builds its injector from the plan's JSON; a run driven
/// by the plan itself is bit-identical, event stream included.
#[test]
fn fault_plans_replay_identically_through_json() {
    let pins = Pins {
        plan: Some(Plan::Chaos),
        ..Pins::default()
    };
    assert_reached(&sweep(0..8, pins), &["faults injected"]);
    cases(
        0..8,
        |rng| Case::generate(rng, pins),
        |c, _| {
            let plan = c.plan.as_ref().expect("the plan is pinned");
            let (direct, a) = Mp5Switch::with_faults(
                c.prog.clone(),
                c.cfg.clone(),
                MemSink::new(),
                plan.injector(),
            )
            .run_traced(c.trace.clone());
            let (replayed, b) = c
                .switch::<_, PlannedFaults>(MemSink::new())
                .run_traced(c.trace.clone());
            assert_eq!(direct, replayed, "JSON changed the run");
            assert_eq!(
                stream_hash(&a.into_events()),
                stream_hash(&b.into_events()),
                "JSON changed the event stream"
            );
        },
    );
}
