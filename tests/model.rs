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
use mp5::trace::{audit, Check, Event, EventKind, MemSink, NopSink};
use mp5::traffic::TraceBuilder;
use mp5::types::PacketId;

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

/// Defect 6 of DESIGN.md §8: a packet's id is a label, not a key the
/// switch runs on. With every id set to one value, each of the ten
/// apps under `mp5` and `ideal` at `k` ∈ {2, 4, 8} runs exactly as it
/// does with the original ids: the same cycles, completions, drops,
/// steers, final registers and event stream, ids aside. Fault-free
/// with unbounded FIFOs, because a dropped or lost phantom is still
/// remembered by key. Before phantoms were matched by address, this
/// input deadlocked 16 of the 60 runs (`conga` at every `k`,
/// `sequencer` at 4 and 8, `bloom_firewall` at every `k`, each under
/// both designs).
#[test]
fn ids_are_labels() {
    fn masked(mut events: Vec<Event>) -> Vec<Event> {
        use EventKind::*;
        for ev in &mut events {
            match &mut ev.kind {
                Ingress { pkt, .. }
                | Egress { pkt }
                | Drop { pkt, .. }
                | Execute { pkt, .. }
                | Access { pkt, .. }
                | Recirculate { pkt, .. }
                | DataEnq { pkt }
                | DataEnqDropFull { pkt }
                | PopData { pkt } => *pkt = PacketId(0),
                PhantomEmit { key, .. }
                | PhantomChannelCancel { key }
                | PhantomEnq { key }
                | PhantomDropFull { key }
                | PhantomCancel { key, .. }
                | DataMatch { key }
                | DataOrphan { key }
                | PopBlocked { key }
                | PhantomRecovered { key }
                | FaultPhantomLost { key } => key.pkt = PacketId(0),
                _ => {}
            }
        }
        events
    }
    // The three apps that deadlocked need 400 packets of this seed to
    // do so at every `k`; the other seven run shorter.
    let deadlocked = ["conga", "sequencer", "bloom_firewall"];
    for app in ALL_APPS.iter() {
        let n = if deadlocked.contains(&app.name) {
            400
        } else {
            150
        };
        let (prog, trace) = app_trace(app, n, 37);
        let mut relabelled = trace.clone();
        relabelled.iter_mut().for_each(|p| p.id = PacketId(7));
        for k in [2, 4, 8] {
            for cfg in [SwitchConfig::mp5(k), SwitchConfig::ideal(k)] {
                let cfg = cfg.with_record_detail(false);
                let what = format!("{} at k={k} ({cfg:?})", app.name);
                let run = |trace: &Vec<_>| {
                    let sw = Mp5Switch::with_sink(prog.clone(), cfg.clone(), MemSink::new());
                    let (r, sink) = sw.try_run_traced(trace.clone()).expect(&what);
                    (r, masked(sink.into_events()))
                };
                let ((a, a_events), (b, b_events)) = (run(&trace), run(&relabelled));
                assert_eq!(a.completed, a.offered, "{what}");
                assert_eq!(
                    (a.cycles, a.completed, a.drops, a.steered),
                    (b.cycles, b.completed, b.drops, b.steered),
                    "{what}"
                );
                assert_eq!(a.result.final_regs, b.result.final_regs, "{what}");
                assert!(a_events == b_events, "{what}: the event streams differ");
            }
        }
    }
}

/// Defect 7 of DESIGN.md §8: packets that share an entry order key
/// `(arrival, port)` tie in every FIFO's `pop`, which breaks the tie by
/// lane, not by feed order, so `last[0]` ended on the wrong packet's
/// value in 19 of these 30 runs. No port delivers such packets, and
/// every door rejects the second, naming both packets, before anything
/// runs: `Server::offer` as a feed error naming its line,
/// `Mp5Switch::try_offer` and `try_run` as typed errors, in release
/// builds too. The same packets with unique keys (one port each) are
/// Banzai's.
#[test]
fn equal_entry_keys_are_a_feed_error() {
    use mp5::core::{EntryOrderError, RunError};
    use mp5::faults::NoFaults;
    use mp5::serve::{ServeError, Server};
    use mp5::types::{Packet, PortId};
    const SRC: &str = "struct Packet { int v; int out; };
int last[1] = {0};
void func(struct Packet p) {
    p.out = last[0];
    last[0] = p.v;
}
";
    let prog = compile(SRC, &Target::default()).unwrap();
    let v = prog.field("v").unwrap();
    for k in [2, 4, 8] {
        for n in 2..=11u16 {
            let packets = |port: fn(u16) -> u16| -> Vec<Packet> {
                (1..=n)
                    .map(|i| {
                        let mut p = Packet::new(
                            PacketId(i.into()),
                            PortId(port(i)),
                            0,
                            64,
                            prog.num_fields(),
                        );
                        p.set(v, i.into());
                        p
                    })
                    .collect()
            };
            let what = format!("k={k} n={n}");
            let boot = || {
                Server::<NopSink, NoFaults>::new(SRC, SwitchConfig::mp5(k), NopSink, None).unwrap()
            };
            let tied = packets(|_| 0);
            let mut srv = boot();
            srv.offer(1, tied[0].clone()).expect(&what);
            let err = srv.offer(2, tied[1].clone());
            assert!(
                matches!(err, Err(ServeError::Feed { line: 2, .. })),
                "{what}: {err:?}"
            );
            let tie = EntryOrderError {
                first: (tied[0].id, 0, tied[0].port),
                second: (tied[1].id, 0, tied[1].port),
            };
            let mut sw = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(k));
            sw.try_offer(tied[0].clone()).expect(&what);
            assert_eq!(sw.try_offer(tied[1].clone()), Err(tie), "{what}");
            assert_eq!(sw.live_report().offered, 1, "{what}: the second was taken");
            // Once the first has been admitted, the tie is still refused.
            let mut sw = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(k));
            sw.try_offer(tied[0].clone()).expect(&what);
            sw.tick();
            assert!(
                sw.last_arrival().is_none(),
                "{what}: the first was not admitted"
            );
            assert_eq!(sw.try_offer(tied[1].clone()), Err(tie), "{what}");
            assert_eq!(sw.live_report().offered, 1, "{what}: the second was taken");
            let run = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(k)).try_run(tied.clone());
            assert_eq!(run, Err(RunError::EntryOrder(tie)), "{what}");
            let mut srv = boot();
            let err = srv.try_offer_all(tied.clone());
            assert!(
                matches!(err, Err(ServeError::Feed { line: 2, .. })),
                "{what}: {err:?}"
            );

            let unique = packets(|i| i - 1);
            let banzai = BanzaiSwitch::new(prog.clone()).run(unique.clone());
            let mut srv = boot();
            for (line, p) in unique.into_iter().enumerate() {
                srv.offer(line + 1, p).expect(&what);
            }
            while !srv.is_idle() {
                srv.tick();
                srv.drain_egress();
            }
            let (report, _) = srv.finish();
            assert!(report.result.equivalent_to(&banzai), "{what}");
        }
    }
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
/// keep C1: each index's sub-queue has one lane per source pipeline and
/// serves the oldest head, as the bank does. With one shared lane a
/// sub-queue served in push order, and pipelines admit at their own
/// pace, so a later packet's phantom could be pushed, and served, first
/// (DESIGN.md §8, defect 5). The pinned `conga` input and the seeds
/// below broke C1 that way; every case must now match Banzai and audit
/// with no C1 finding.
#[test]
fn per_index_queues_keep_c1() {
    let check = |app: &str, k: usize, seed: u64| {
        let (prog, trace) = app_trace(mp5::apps::by_name(app).unwrap(), 300, seed);
        let banzai = BanzaiSwitch::new(prog.clone()).run(trace.clone());
        let sw = Mp5Switch::with_sink(prog, SwitchConfig::ideal(k), MemSink::new());
        let (r, sink) = sw.run_traced(trace);
        let case = format!("{app}, k = {k}, seed {seed}");
        assert_eq!(r.completed, r.offered, "{case}");
        assert!(r.result.equivalent_to(&banzai), "{case}");
        assert_eq!(audit(&sink.into_events()).count(Check::C1), 0, "{case}");
    };
    check("conga", 2, 0);
    for app in ALL_APPS.iter() {
        for k in [2, 4] {
            for seed in [2, 17] {
                check(app.name, k, seed);
            }
        }
    }
}
