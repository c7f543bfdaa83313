//! The chaos slice of the model-based harness (`mp5_sim::harness`):
//! the bundled apps on `mp5` under seed-deterministic chaos plans, the
//! slice `mp5chaos` sweeps. Every case holds the harness's checks
//! (conservation, a closed fault ledger, a clean audit, the Banzai
//! relation, a restored run equal to the uninterrupted one); these
//! tests add that the slice reaches every app and a pipeline kill, that
//! a dead pipeline is recorded as degraded, and that a plan replays
//! bit-identically.

use mp5::apps::ALL_APPS;
use mp5::faults::PlannedFaults;
use mp5::sim::harness::*;
use mp5::trace::{audit, stream_hash, MemSink};

const CHAOS: Pins = Pins {
    program: Some(Program::App),
    design: Some(Design::Mp5),
    plan: Some(Plan::Chaos),
};

/// The slice `mp5chaos` sweeps reaches all ten apps, and plans that
/// kill a pipeline.
#[test]
fn every_app_survives_chaos() {
    let tally = sweep(0..30, CHAOS);
    let apps: Vec<_> = ALL_APPS.iter().map(|a| a.name).collect();
    assert_reached(&tally, &apps);
    let killed = "indexes evacuated off a dead pipeline";
    assert_reached(&tally, &["faults injected", "recovered phantoms", killed]);
}

/// Different chaos plans all close the fault ledger and audit clean,
/// and a killed pipeline shows up as degraded cycles in the ledger.
#[test]
fn seed_sweep_holds_contracts_and_records_degradation() {
    let mut kills = 0;
    cases(
        0..12,
        |rng| Case::generate(rng, CHAOS),
        |c, _| {
            let (r, sink) = c
                .switch::<_, PlannedFaults>(MemSink::new())
                .run_traced(c.trace.clone());
            let f = &r.fault;
            assert!(f.injected > 0, "the plan injected nothing");
            assert!(f.accounted(), "the fault ledger is open: {f:?}");
            assert!(
                audit(&sink.into_events()).is_clean(),
                "the auditor found a violation"
            );
            if !f.dead_pipelines.is_empty() {
                kills += 1;
                assert!(f.degraded_cycles > 0, "a dead pipeline degraded nothing");
            }
        },
    );
    assert!(kills > 0, "no plan killed a pipeline");
}

/// The same chaos case run twice yields the same report and the same
/// event stream.
#[test]
fn chaos_is_deterministic() {
    cases(
        0..6,
        |rng| Case::generate(rng, CHAOS),
        |c, _| {
            let run = || {
                let (r, sink) = c
                    .switch::<_, PlannedFaults>(MemSink::new())
                    .run_traced(c.trace.clone());
                (r, stream_hash(&sink.into_events()))
            };
            let (a, b) = (run(), run());
            assert_eq!(a.0, b.0, "the same plan must replay bit-identically");
            assert_eq!(a.1, b.1, "the same plan must replay the same stream");
        },
    );
}
