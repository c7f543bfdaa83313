//! End-to-end checks of the tracing subsystem: traced runs are
//! bit-identical and deterministic, the offline auditor passes clean
//! MP5 runs of all four paper applications, and it independently
//! rediscovers the C1 violations of the no-D4 ablation with the same
//! per-packet attribution as `mp5-sim`'s online counter. The auditor's
//! JSON report and the rollup's CSV are pinned byte for byte over four
//! streams in `tests/golden/reports/`. Since the rollup stopped opening
//! a stage row for events at no stage (`NO_LOC`), those rows are gone
//! from the pins; nothing else in them changed.

use mp5::banzai::BanzaiSwitch;
use mp5::compiler::{compile, Target};
use mp5::core::{Mp5Switch, SwitchConfig};
use mp5::faults::FaultPlan;
use mp5::sim::c1_violation_sets;
use mp5::sim::experiments::app_trace;
use mp5::trace::{
    audit, read_jsonl, stream_hash, Auditor, Check, Event, EventKind, MemSink, Rollup, NO_LOC,
};
use mp5::traffic::TraceBuilder;
use mp5::types::{PacketId, PhantomKey, RegId};

/// The contended Figure-3 style program: half the packets serialize on
/// a hot state in the first stateful stage, the rest fly past and
/// (without D4) overtake them at the second.
const CONTENDED: &str = "struct Packet { int a; int b; int o; };
    int r1[2] = {0};
    int r2[64] = {0};
    void func(struct Packet p) {
        if (p.a == 0) { r1[0] = r1[0] + 1; }
        r2[p.b % 64] = r2[p.b % 64] + 1;
        p.o = r2[p.b % 64];
    }";

fn contended_run(cfg: SwitchConfig) -> (mp5::banzai::RunResult, mp5::core::RunReport, Vec<Event>) {
    let prog = compile(CONTENDED, &Target::default()).unwrap();
    let nf = prog.num_fields();
    let trace = TraceBuilder::new(4000, 5).build(nf, |r, _, f| {
        use rand::Rng;
        f[0] = r.gen_range(0..2);
        f[1] = r.gen_range(0..64);
    });
    let reference = BanzaiSwitch::new(prog.clone()).run(trace.clone());
    let (report, sink) = Mp5Switch::with_sink(prog, cfg, MemSink::new()).run_traced(trace);
    (reference, report, sink.into_events())
}

/// Tracing is an observer: the same seeded configuration run twice
/// produces byte-identical event streams (hash over the JSONL
/// encoding of every event), and a traced run matches an untraced one.
#[test]
fn traced_runs_are_deterministic() {
    let (_, rep_a, ev_a) = contended_run(SwitchConfig::mp5(4));
    let (_, rep_b, ev_b) = contended_run(SwitchConfig::mp5(4));
    assert_eq!(rep_a.completed, rep_b.completed);
    assert_eq!(rep_a.result.final_regs, rep_b.result.final_regs);
    assert_eq!(ev_a.len(), ev_b.len(), "event counts must match");
    assert_eq!(
        stream_hash(&ev_a),
        stream_hash(&ev_b),
        "same seed, same config => identical trace streams"
    );
    // And a different seed path (config) must not collide trivially.
    let (_, _, ev_c) = contended_run(SwitchConfig::no_d4(4));
    assert_ne!(stream_hash(&ev_a), stream_hash(&ev_c));
}

/// Positive control: traced MP5 runs of all four §4.4 applications
/// audit clean — every invariant the offline auditor re-verifies
/// (phantom pairing, stateless priority, C1 serial order, packet
/// conservation) holds on the real workloads.
#[test]
fn paper_apps_audit_clean_on_mp5() {
    for app in &mp5::apps::PAPER_APPS {
        let (prog, trace) = app_trace(app, 6_000, 11);
        let (report, sink) =
            Mp5Switch::with_sink(prog, SwitchConfig::mp5(4), MemSink::new()).run_traced(trace);
        let events = sink.into_events();
        assert!(
            !events.is_empty(),
            "{}: traced run must emit events",
            app.name
        );
        let rep = audit(&events);
        assert!(
            rep.is_clean(),
            "{}: clean MP5 run must audit clean, got:\n{rep}",
            app.name
        );
        assert_eq!(
            rep.packets, report.offered,
            "{}: auditor must see every admitted packet",
            app.name
        );
    }
}

/// The recirculating switch audits clean apart from C1: it gives up the
/// serial order, but its stream is internally consistent, and it
/// records one `Recirculate` per recirculation the report counts.
#[test]
fn recirc_trace_conserves_packets() {
    let prog = compile(CONTENDED, &Target::default()).unwrap();
    let nf = prog.num_fields();
    let trace = TraceBuilder::new(2000, 9).build(nf, |r, _, f| {
        use rand::Rng;
        f[0] = r.gen_range(0..2);
        f[1] = r.gen_range(0..64);
    });
    let (rep, sink) =
        Mp5Switch::with_sink(prog, SwitchConfig::recirc(4), MemSink::new()).run_traced(trace);
    let events = sink.into_events();
    let audit_rep = audit(&events);
    assert!(
        audit_rep.count(Check::C1) > 0
            && audit_rep.total_violations() == audit_rep.count(Check::C1),
        "recirc must break C1 and nothing else:\n{audit_rep}"
    );
    assert_eq!(audit_rep.packets, rep.offered);
    let recircs = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Recirculate { .. }))
        .count() as u64;
    assert!(recircs > 0);
    assert_eq!(recircs, rep.steered, "one event per recirculation");
}

/// Negative control: the no-D4 ablation's trace fails the audit with
/// C1 violations, and the auditor's per-packet blame matches the
/// online `c1_violation_sets` computation packet for packet.
#[test]
fn no_d4_audit_flags_c1_and_matches_online_counter() {
    let (reference, report, events) = contended_run(SwitchConfig::no_d4(4));
    let rep = audit(&events);
    assert!(
        rep.count(Check::C1) > 0,
        "no-D4 under contention must violate C1, got:\n{rep}"
    );
    assert!(!rep.is_clean());

    let (online_violators, online_accessors) =
        c1_violation_sets(&reference.access_log, &report.result.access_log);
    assert!(!online_violators.is_empty());
    let offline: std::collections::HashSet<PacketId> = rep.c1_violators.iter().copied().collect();
    assert_eq!(
        offline, online_violators,
        "offline auditor and online counter must blame the same packets"
    );
    assert_eq!(rep.c1_accessors as usize, online_accessors.len());
    let online_fraction = online_violators.len() as f64 / online_accessors.len() as f64;
    assert!((rep.c1_fraction() - online_fraction).abs() < 1e-12);
}

/// The clean MP5 run of the same contended program has zero C1
/// violations both online and offline.
#[test]
fn mp5_contended_is_c1_clean_online_and_offline() {
    let (reference, report, events) = contended_run(SwitchConfig::mp5(4));
    let rep = audit(&events);
    assert!(rep.is_clean(), "MP5 with D4 must audit clean:\n{rep}");
    let (online_violators, _) = c1_violation_sets(&reference.access_log, &report.result.access_log);
    assert!(online_violators.is_empty());
}

/// The auditor's JSON report, the packets it blames for C1 and the
/// rollup's CSV, as one text.
fn report_text(auditor: &Auditor, events: &[Event]) -> String {
    let rep = auditor.run(events);
    let blamed: Vec<String> = rep.c1_violators.iter().map(|p| p.0.to_string()).collect();
    format!(
        "{}\nc1_violators: [{}]\n{}",
        rep.to_json(),
        blamed.join(","),
        Rollup::from_events(events).to_csv()
    )
}

fn assert_pinned(name: &str, text: &str) {
    let path = format!(
        "{}/tests/golden/reports/{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).expect("golden report");
    assert!(text == golden, "{name}: the reports no longer match {path}");
}

/// The golden stream of every event kind, extreme values and a cycle
/// that goes backwards included.
#[test]
fn golden_stream_reports_are_pinned() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/events.jsonl");
    let file = std::fs::File::open(path).expect("golden stream");
    let events = read_jsonl(std::io::BufReader::new(file)).expect("golden stream reads");
    assert_pinned("events", &report_text(&Auditor::default(), &events));
}

/// The no-D4 ablation: C1 findings over many indexes and the packets
/// they blame.
#[test]
fn no_d4_reports_are_pinned() {
    let (_, _, events) = contended_run(SwitchConfig::no_d4(4));
    assert_pinned("no_d4", &report_text(&Auditor::default(), &events));
}

/// A chaos plan on hardware-sized FIFOs: phantoms lost to a fault and
/// recovered, data orphaned by a phantom dropped on a full FIFO, and a
/// killed pipeline evacuated.
#[test]
fn chaos_reports_are_pinned() {
    let (prog, trace) = app_trace(&mp5::apps::WFQ, 3000, 11);
    let plan = FaultPlan::chaos(4, 4, prog.num_stages(), 750);
    let cfg = SwitchConfig::mp5(4).with_hardware_fifos();
    let (_, sink) =
        Mp5Switch::with_faults(prog, cfg, MemSink::new(), plan.injector()).run_traced(trace);
    let events = sink.into_events();
    for kind in ["ph_lost", "ph_recovered", "data_orphan", "evacuated"] {
        assert!(
            events.iter().any(|e| e.kind.tag() == kind),
            "the chaos run has no {kind} event"
        );
    }
    assert_pinned("chaos", &report_text(&Auditor::default(), &events));
}

/// A stream built to break every check, each more often than the
/// auditor keeps findings, so that the cap and the `suppressed` count
/// show. C1 sees indexes first touched out of key order and a packet
/// that repeats within one index's sequence.
#[test]
fn crafted_reports_are_pinned() {
    let events = crafted_stream();
    assert_pinned("crafted", &report_text(&Auditor::new(4), &events));
}

fn crafted_stream() -> Vec<Event> {
    let mut evs = Vec::new();
    let mut at = |cycle, pipeline, stage, kind| {
        evs.push(Event {
            cycle,
            pipeline,
            stage,
            kind,
        })
    };
    let exec = |p: u64, queued| EventKind::Execute {
        pkt: PacketId(p),
        queued,
        bypassed: !queued && p.is_multiple_of(3),
    };
    let key = |p: u64, reg: u16, index: u32| PhantomKey {
        pkt: PacketId(p),
        reg: RegId(reg),
        index,
    };
    let access = |p: u64, reg: u16, index: u32, order: u64| EventKind::Access {
        pkt: PacketId(p),
        reg: RegId(reg),
        index,
        order: (order, order % 2),
    };
    for c in 0..8u64 {
        // Inv2: two or three packets in one stage-cycle, pops left
        // unexecuted in slots touched out of order, a queued execute
        // of the wrong packet or of none, a pass-through over a pop.
        let slot = (c % 3) as u16;
        at(c, 2, slot, exec(c, false));
        at(c, 2, slot, exec(c + 1, false));
        if c % 2 == 0 {
            at(c, 2, slot, exec(c + 2, false));
        }
        at(c, 3 - slot, 5, EventKind::PopData { pkt: PacketId(c) });
        at(
            c,
            0,
            7 - slot,
            EventKind::PopData {
                pkt: PacketId(c + 1),
            },
        );
        at(c, 1, 1, EventKind::PopData { pkt: PacketId(c) });
        at(
            c,
            1,
            1,
            EventKind::Execute {
                pkt: PacketId(c + 9),
                queued: true,
                bypassed: true,
            },
        );
        at(c, 1, 4, exec(c, true));
        at(c, 1, 6, EventKind::PopData { pkt: PacketId(c) });
        at(
            c,
            1,
            6,
            EventKind::PopData {
                pkt: PacketId(c + 4),
            },
        );
        at(c, 1, 6, exec(c, false));
        at(c, NO_LOC, NO_LOC, exec(c, false));
        at(c, NO_LOC, NO_LOC, exec(c + 1, false));
        // Pairing and Inv1: a phantom left on the channel, one emitted
        // twice, one enqueued, matched, cancelled and orphaned out of
        // turn; one lost to a fault and recovered.
        let k = key(c, (c % 2) as u16, c as u32);
        at(
            c,
            0,
            1,
            EventKind::PhantomEmit {
                key: k,
                dest_pipeline: 1,
                dest_stage: 3,
            },
        );
        let twice = key(100 + c, 1, 2);
        for _ in 0..2 {
            at(
                c,
                0,
                1,
                EventKind::PhantomEmit {
                    key: twice,
                    dest_pipeline: 1,
                    dest_stage: 3,
                },
            );
        }
        at(c, 1, 3, EventKind::PhantomEnq { key: twice });
        at(
            c,
            1,
            3,
            EventKind::PhantomEnq {
                key: key(200 + c, 0, 1),
            },
        );
        at(
            c,
            1,
            3,
            EventKind::DataMatch {
                key: key(300 + c, 0, 1),
            },
        );
        at(c, 1, 3, EventKind::DataOrphan { key: k });
        at(
            c,
            1,
            3,
            EventKind::PhantomCancel {
                key: key(400 + c, 2, 0),
                free: c % 2 == 0,
            },
        );
        let lost = key(500 + c, 2, 9);
        at(
            c,
            0,
            1,
            EventKind::PhantomEmit {
                key: lost,
                dest_pipeline: 2,
                dest_stage: 4,
            },
        );
        at(c, 2, 4, EventKind::FaultPhantomLost { key: lost });
        at(c, 2, 4, EventKind::PhantomRecovered { key: lost });
        at(c, 2, 4, EventKind::PopStale);
        at(c, 2, 4, EventKind::PopBlocked { key: lost });
        // Conservation: exits with no admission, a second admission,
        // an admission with no exit, a second exit.
        at(
            c,
            0,
            0,
            EventKind::Ingress {
                pkt: PacketId(600 + c),
                order: (c, 0),
            },
        );
        at(
            c,
            0,
            0,
            EventKind::Ingress {
                pkt: PacketId(700 + c),
                order: (c, 1),
            },
        );
        at(
            c,
            0,
            0,
            EventKind::Ingress {
                pkt: PacketId(700 + c),
                order: (c, 1),
            },
        );
        at(
            c,
            0,
            9,
            EventKind::Egress {
                pkt: PacketId(700 + c),
            },
        );
        at(
            c,
            0,
            9,
            EventKind::Egress {
                pkt: PacketId(800 + c),
            },
        );
        at(
            c,
            0,
            9,
            EventKind::Drop {
                pkt: PacketId(800 + c),
                cause: mp5::trace::DropCause::FifoFull,
            },
        );
        // Queue and crossbar activity for the rollup, and events at
        // locations that are not stages.
        at(
            c,
            1,
            3,
            EventKind::DataEnq {
                pkt: PacketId(900 + c),
            },
        );
        at(
            c,
            1,
            3,
            EventKind::DataEnqDropFull {
                pkt: PacketId(900 + c),
            },
        );
        at(c, 1, 3, EventKind::PhantomDropFull { key: k });
        at(c, 1, 3, EventKind::PhantomChannelCancel { key: k });
        at(
            c,
            slot,
            2,
            EventKind::Steer {
                from: slot,
                to: 3 - slot,
            },
        );
        at(
            c,
            slot,
            2,
            EventKind::Steer {
                from: slot,
                to: slot,
            },
        );
        at(
            c,
            slot,
            2,
            EventKind::Recirculate {
                pkt: PacketId(c),
                target: 3,
            },
        );
        at(
            c,
            NO_LOC,
            NO_LOC,
            EventKind::RemapMove {
                reg: RegId((c % 3) as u16),
                index: c as u32,
                from: 0,
                to: 1,
            },
        );
        at(
            c,
            3,
            NO_LOC,
            EventKind::PipelineEvacuated {
                pipeline: 3,
                indexes: c,
            },
        );
        at(
            c,
            NO_LOC,
            NO_LOC,
            EventKind::FaultInjected { code: 2, param: c },
        );
    }
    // C1: indexes first touched out of key order; per index, accesses
    // out of entry order, a packet that repeats around another, a
    // packet that repeats under two order keys.
    for (i, (reg, index)) in [(3u16, 7u32), (0, 9), (3, 1), (1, 0), (0, 2)]
        .into_iter()
        .enumerate()
    {
        let c = 20 + i as u64;
        for (p, order) in [(5u64, 5u64), (2, 2), (3, 3), (2, 2), (1, 1), (4, 4)] {
            at(c, 1, 2, access(p + i as u64, reg, index, order));
        }
        at(c, 1, 2, access(9, reg, index, 1));
        at(c, 1, 2, access(8, reg, index, 9));
        at(c, 1, 2, access(9, reg, index, 0));
    }
    at(30, 0, 0, access(1, 2, 2, 0));
    at(30, 0, 0, access(1, 2, 2, 0));
    // Stream: a cycle that goes backwards, and lifecycle markers.
    at(12, 0, 0, EventKind::SnapshotTaken { seq: 0 });
    at(31, NO_LOC, NO_LOC, EventKind::Restored { from_cycle: 12 });
    at(
        31,
        NO_LOC,
        NO_LOC,
        EventKind::ProgramSwapped { migrated: 4 },
    );
    at(31, 2, 2, EventKind::PopData { pkt: PacketId(1) });
    at(31, 0, 2, EventKind::PopData { pkt: PacketId(2) });
    evs
}
