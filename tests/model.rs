//! The model-based harness over every input: the switch against
//! Banzai in every mode (faults, checkpoint/restore, hot swap, traced
//! runs), the generator's non-vacuity, the recorded defects of
//! DESIGN.md §8 and the auditor's negative controls. The harness itself
//! is `tests/harness/mod.rs`.

mod harness;

use rand::Rng;

use harness::*;
use mp5::apps::ALL_APPS;
use mp5::banzai::BanzaiSwitch;
use mp5::compiler::{compile, Target};
use mp5::core::{Mp5Switch, SwitchConfig};
use mp5::faults::FaultPlan;
use mp5::sim::experiments::app_trace;
use mp5::trace::{audit, Check, MemSink, NopSink};
use mp5::traffic::TraceBuilder;

/// Generated cases per run of the harness.
const CASES: u64 = 160;

#[test]
fn the_switch_is_banzai_in_every_mode() {
    assert_reached(&sweep(CASES, Pins::default()), &REGIMES);
}

/// The generator is not vacuous: every template compiles on its own
/// (only combinations may be rejected, e.g. cross-register atoms).
#[test]
fn every_statement_template_compiles() {
    for (reg_sizes, stmt) in [
        (&[8][..], Bump(0, 0, 2)),
        (&[8], ReadOut(0, 1)),
        (&[8], PredUpdate(0, 2, 9)),
        (&[8, 4], TernaryRead(0, 1, 3)),
        (&[8, 4], Chain(0, 1, 0, 1)),
        (&[8, 4], StatefulPred(0, 1, 0)),
        (&[8], StatefulPred(0, 0, 0)),
    ] {
        let src = source(reg_sizes, &[stmt]);
        assert!(
            compile(&src, &Target::default()).is_ok(),
            "template failed:\n{src}"
        );
    }
}

/// The four defects of DESIGN.md §8, each as the input that found it.
#[test]
fn recorded_defects_stay_fixed() {
    let equivalent = |reg_sizes: &[u32], stmts: &[GenStmt], seed| {
        let prog = compile(&source(reg_sizes, stmts), &Target::default()).unwrap();
        let trace = TraceBuilder::new(150, seed).build(prog.num_fields(), |r, _, f| {
            f[..NFIELDS]
                .iter_mut()
                .for_each(|v| *v = r.gen_range(0..64))
        });
        let banzai = BanzaiSwitch::new(prog.clone()).run(trace.clone());
        for cfg in [SwitchConfig::mp5(2), SwitchConfig::ideal(2)] {
            let r = Mp5Switch::new(prog.clone(), cfg.clone()).run(trace.clone());
            assert!(
                r.completed == 150 && r.result.equivalent_to(&banzai),
                "{cfg:?}"
            );
        }
    };
    // Two accesses of one register resolve to the same index.
    equivalent(&[1], &[Bump(0, 0, 1), Bump(0, 1, 1)], 0);
    // Sibling placeholders in per-index queues.
    equivalent(&[6, 4], &[TernaryRead(0, 1, 2), ReadOut(1, 0)], 66);
    // The sibling-head gate without phantoms.
    let prog = compile(FIXED[0], &Target::default()).unwrap();
    let cfg = SwitchConfig {
        phantoms: false,
        per_index_fifos: true,
        remap_period: 50,
        ecn_threshold: Some(4),
        seed: 7,
        ..SwitchConfig::mp5(1)
    };
    let trace =
        TraceBuilder::new(200, 0).build(prog.num_fields(), |r, _, f| f[0] = r.gen_range(0..1000));
    assert_eq!(Mp5Switch::new(prog, cfg).run(trace).completed, 200);
    // A multi-byte character next to an operator.
    let _ = mp5::lang::frontend("𞻰");
}

/// Negative control: a silent phantom drop records no loss and runs no
/// recovery, so the auditor must report the stream.
#[test]
fn the_auditor_sees_a_silent_phantom_loss() {
    let (prog, trace) = app_trace(&ALL_APPS[0], 400, 9);
    let plan = FaultPlan::new(13).silent_phantom_drop(5, 700, 100_000);
    let faults = plan.injector();
    let sw = Mp5Switch::with_faults(prog, SwitchConfig::mp5(4), MemSink::new(), faults);
    let (r, sink) = sw.run_traced(trace);
    assert!(r.fault.phantoms_dropped > 0 && r.fault.phantoms_recovered == 0);
    assert!(
        !audit(&sink.into_events()).is_clean(),
        "a silent loss went unseen"
    );
}

/// The recovery finding (DESIGN.md §11): a packet whose phantom was
/// lost re-enters its FIFO at its entry-order key, but a newer packet
/// for the same state may have been served there already. This input
/// breaks C1 today; once a fix makes this test fail, delete it and the
/// lost-phantom exception in `check`.
#[test]
fn a_lost_phantom_still_breaks_c1() {
    let prog = compile(FIXED[3], &Target::default()).unwrap();
    let trace = TraceBuilder::new(300, 55).build(prog.num_fields(), |r, _, f| {
        f[0] = r.gen_range(0..64);
        f[1] = r.gen_range(0..8);
    });
    let banzai = BanzaiSwitch::new(prog.clone()).run(trace.clone());
    let plan = FaultPlan::chaos(55, 2, prog.num_stages(), 150);
    let r = Mp5Switch::with_faults(prog, SwitchConfig::mp5(2), NopSink, plan.injector()).run(trace);
    assert_eq!(r.completed, r.offered);
    assert!(r.fault.phantoms_recovered > 0 && !r.result.equivalent_to(&banzai));
}

/// Per-index queues (`ideal`, or any design with `per_index_fifos`)
/// break C1 on bundled apps in clean runs: a later packet's access
/// overtakes an earlier one at the same index, so relation (a) fails
/// too. Shared lanes run the same trace in order. This input breaks
/// it today; once a fix makes this test fail, delete it and the
/// per-index exception in the harness's `check_fabric`.
#[test]
fn per_index_queues_still_break_c1() {
    let conga = mp5::apps::by_name("conga").unwrap();
    let (prog, trace) = app_trace(conga, 300, 0);
    let banzai = BanzaiSwitch::new(prog.clone()).run(trace.clone());
    let lanes = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(2)).run(trace.clone());
    assert!(lanes.result.equivalent_to(&banzai));
    let sw = Mp5Switch::with_sink(prog, SwitchConfig::ideal(2), MemSink::new());
    let (r, sink) = sw.run_traced(trace);
    assert_eq!(r.completed, r.offered);
    assert!(!r.result.equivalent_to(&banzai));
    assert!(audit(&sink.into_events()).count(Check::C1) > 0);
}
