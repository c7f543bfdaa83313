//! End-to-end checks of the tracing subsystem: traced runs are
//! bit-identical and deterministic, the offline auditor passes clean
//! MP5 runs of all four paper applications, and it independently
//! rediscovers the C1 violations of the no-D4 ablation with the same
//! per-packet attribution as `mp5-sim`'s online counter.

use mp5::banzai::BanzaiSwitch;
use mp5::compiler::{compile, Target};
use mp5::core::{Mp5Switch, SwitchConfig};
use mp5::sim::c1_violation_sets;
use mp5::sim::experiments::app_trace;
use mp5::trace::{audit, stream_hash, Check, Event, EventKind, MemSink};
use mp5::traffic::TraceBuilder;
use mp5::types::PacketId;

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
