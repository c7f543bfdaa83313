use super::*;
use mp5_banzai::BanzaiSwitch;
use mp5_compiler::{compile, Target};
use mp5_fabric::Entry;
use mp5_traffic::TraceBuilder;

const COUNTER: &str = "struct Packet { int seq; };
    int count = 0;
    void func(struct Packet p) { count = count + 1; p.seq = count; }";

const SHARDED: &str = "struct Packet { int h; int out; };
    int tbl[64] = {0};
    void func(struct Packet p) {
        tbl[p.h % 64] = tbl[p.h % 64] + 1;
        p.out = tbl[p.h % 64];
    }";

const STATELESS: &str = "struct Packet { int a; int b; };
    void func(struct Packet p) { p.b = p.a * 2 + 1; }";

fn run_both(
    src: &str,
    cfg: SwitchConfig,
    n: usize,
    seed: u64,
) -> (mp5_banzai::RunResult, RunReport) {
    let prog = compile(src, &Target::default()).unwrap();
    let nf = prog.num_fields();
    let trace = TraceBuilder::new(n, seed).build(nf, |r, _, f| {
        use rand::Rng;
        f[0] = r.gen_range(0..1_000);
    });
    let reference = BanzaiSwitch::new(prog.clone()).run(trace.clone());
    let report = Mp5Switch::new(prog, cfg).run(trace);
    (reference, report)
}

#[test]
fn try_run_reports_cycle_cap_violation() {
    let prog = compile(COUNTER, &Target::default()).unwrap();
    let nf = prog.num_fields();
    let trace = TraceBuilder::new(50, 7).build(nf, |_, _, _| {});
    let cfg = SwitchConfig {
        max_cycles: Some(1),
        ..SwitchConfig::mp5(4)
    };
    let err = Mp5Switch::new(prog, cfg)
        .try_run(trace)
        .expect_err("1-cycle cap cannot drain 50 packets");
    assert_eq!(err.cap, 1);
    assert!(
        err.ingress + err.in_lanes + err.queued + err.channel > 0,
        "violation snapshot locates the stuck work: {err}"
    );
    assert!(err.to_string().contains("exceeded 1 cycles"));
}

#[test]
fn stateless_program_runs_at_line_rate() {
    let (reference, report) = run_both(STATELESS, SwitchConfig::mp5(4), 2000, 1);
    assert_eq!(report.completed, 2000);
    assert!(report.result.equivalent_to(&reference));
    assert!(
        report.normalized_throughput() > 0.95,
        "stateless must hit line rate, got {}",
        report.normalized_throughput()
    );
    assert_eq!(report.phantoms_generated, 0);
}

#[test]
fn global_counter_is_functionally_equivalent() {
    let (reference, report) = run_both(COUNTER, SwitchConfig::mp5(4), 1000, 2);
    assert_eq!(report.completed, 1000);
    assert!(
        report.result.equivalent_to(&reference),
        "MP5 must match the single pipeline exactly"
    );
}

#[test]
fn global_counter_throughput_is_one_over_k() {
    for k in [2usize, 4, 8] {
        let (_, report) = run_both(COUNTER, SwitchConfig::mp5(k), 2000, 3);
        let t = report.normalized_throughput();
        let ideal = 1.0 / k as f64;
        assert!(
            (t - ideal).abs() / ideal < 0.25,
            "k={k}: got {t}, expected ~{ideal} (fundamental limit, §3.5.2)"
        );
    }
}

#[test]
fn sharded_table_is_equivalent_and_fast() {
    let (reference, report) = run_both(SHARDED, SwitchConfig::mp5(4), 4000, 4);
    assert!(report.result.equivalent_to(&reference));
    assert!(
        report.normalized_throughput() > 0.5,
        "64-entry table over 4 pipelines should parallelize, got {}",
        report.normalized_throughput()
    );
    assert!(report.steered > 0, "sharding must steer packets");
}

#[test]
fn no_d4_violates_c1_but_mp5_does_not() {
    // Two stateful stages, Figure-3 style: half the packets
    // serialize on a hot state in the first stateful stage, the
    // rest fly past and (without D4) overtake them at the second —
    // exactly the failure Table II illustrates.
    let src = "struct Packet { int a; int b; int o; };
        int r1[2] = {0};
        int r2[64] = {0};
        void func(struct Packet p) {
            if (p.a == 0) { r1[0] = r1[0] + 1; }
            r2[p.b % 64] = r2[p.b % 64] + 1;
            p.o = r2[p.b % 64];
        }";
    let prog = compile(src, &Target::default()).unwrap();
    let nf = prog.num_fields();
    let trace = TraceBuilder::new(4000, 5).build(nf, |r, _, f| {
        use rand::Rng;
        f[0] = r.gen_range(0..2);
        f[1] = r.gen_range(0..64);
    });
    let reference = BanzaiSwitch::new(prog.clone()).run(trace.clone());

    let mp5 = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(4)).run(trace.clone());
    assert_eq!(
        mp5.result.access_log, reference.access_log,
        "with D4, per-state access order must be the arrival order"
    );
    assert!(mp5.result.equivalent_to(&reference));

    let nod4 = Mp5Switch::new(prog, SwitchConfig::no_d4(4)).run(trace);
    assert_ne!(
        nod4.result.access_log, reference.access_log,
        "without D4 the access order must diverge under contention"
    );
    assert!(
        !nod4.result.state_equivalent_to(&reference),
        "the reordering must be functionally visible in packet outputs"
    );
}

#[test]
fn naive_design_caps_at_one_over_k() {
    let (reference, report) = run_both(SHARDED, SwitchConfig::naive(4), 2000, 6);
    assert!(
        report.result.equivalent_to(&reference),
        "naive is still correct"
    );
    let t = report.normalized_throughput();
    assert!(
        t < 0.30 && t > 0.15,
        "naive with k=4 should sit near 0.25, got {t}"
    );
}

#[test]
fn ideal_at_least_as_fast_as_mp5() {
    let (_, mp5) = run_both(SHARDED, SwitchConfig::mp5(4), 3000, 7);
    let (reference, ideal) = run_both(SHARDED, SwitchConfig::ideal(4), 3000, 7);
    assert!(ideal.result.equivalent_to(&reference));
    assert!(
        ideal.normalized_throughput() >= mp5.normalized_throughput() - 0.05,
        "ideal {} vs mp5 {}",
        ideal.normalized_throughput(),
        mp5.normalized_throughput()
    );
}

#[test]
fn dynamic_beats_static_on_skew() {
    let prog = compile(SHARDED, &Target::default()).unwrap();
    let nf = prog.num_fields();
    let pat = mp5_traffic::AccessPattern::paper_skewed();
    let trace = TraceBuilder::new(6000, 8).build(nf, |r, _, f| {
        f[0] = pat.draw(64, r) as i64;
    });
    let dynamic = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(4)).run(trace.clone());
    let static_ = Mp5Switch::new(prog, SwitchConfig::static_shard(4, 99)).run(trace);
    assert!(
        dynamic.normalized_throughput() >= static_.normalized_throughput() * 0.99,
        "dynamic {} should be >= static {}",
        dynamic.normalized_throughput(),
        static_.normalized_throughput()
    );
    assert!(dynamic.remap_moves > 0, "the heuristic must act on skew");
}

#[test]
fn bounded_fifos_drop_under_overload_and_cascade() {
    let (_, report) = run_both(COUNTER, SwitchConfig::mp5(4).with_hardware_fifos(), 3000, 9);
    // The global counter admits 1/k of line rate; bounded FIFOs must
    // shed the excess as phantom + data drops, never deadlock.
    assert!(report.drops.phantom_fifo_full > 0);
    assert!(report.drops.data_no_phantom > 0);
    assert_eq!(report.completed + report.drops.total_data(), report.offered);
}

#[test]
fn speculative_predicate_program_is_equivalent() {
    let src = "struct Packet { int h; int o; };
        int gate = 0;
        int r[32] = {0};
        void func(struct Packet p) {
            gate = 1 - gate;
            if (gate == 1) { r[p.h % 32] = r[p.h % 32] + 1; }
            p.o = gate;
        }";
    let (reference, report) = run_both(src, SwitchConfig::mp5(4), 1500, 10);
    assert!(report.result.equivalent_to(&reference));
    assert!(report.wasted_cycles > 0, "false branches must waste cycles");
}

#[test]
fn pinned_stateful_index_program_is_equivalent() {
    let src = "struct Packet { int h; int o; };
        int ptr = 0;
        int r[16] = {0};
        void func(struct Packet p) {
            ptr = (ptr + 1) % 16;
            r[ptr % 16] = r[ptr % 16] + p.h;
            p.o = ptr;
        }";
    let (reference, report) = run_both(src, SwitchConfig::mp5(4), 1000, 11);
    assert!(report.result.equivalent_to(&reference));
}

#[test]
fn traced_run_matches_untraced_and_records_events() {
    use mp5_trace::{EventKind, MemSink};
    let prog = compile(SHARDED, &Target::default()).unwrap();
    let nf = prog.num_fields();
    let trace = TraceBuilder::new(500, 21).build(nf, |r, _, f| {
        use rand::Rng;
        f[0] = r.gen_range(0..1_000);
    });
    let plain = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(4)).run(trace.clone());
    let (traced, sink) =
        Mp5Switch::with_sink(prog, SwitchConfig::mp5(4), MemSink::new()).run_traced(trace);
    // The sink only observes: the run is bit-identical.
    assert_eq!(plain.result.final_regs, traced.result.final_regs);
    assert_eq!(plain.cycles, traced.cycles);
    assert_eq!(plain.completions, traced.completions);
    let evs = sink.into_events();
    let count = |pred: fn(&EventKind) -> bool| evs.iter().filter(|e| pred(&e.kind)).count();
    assert_eq!(count(|k| matches!(k, EventKind::Ingress { .. })), 500);
    assert_eq!(count(|k| matches!(k, EventKind::Egress { .. })), 500);
    assert!(count(|k| matches!(k, EventKind::PhantomEmit { .. })) > 0);
    assert!(count(|k| matches!(k, EventKind::DataMatch { .. })) > 0);
    assert!(count(|k| matches!(k, EventKind::Steer { .. })) > 0);
    assert_eq!(
        count(|k| matches!(k, EventKind::Execute { queued: true, .. })),
        count(|k| matches!(k, EventKind::PopData { .. })),
        "every queued execution pairs with a FIFO pop"
    );
}

#[test]
fn deterministic_across_runs() {
    let (_, a) = run_both(SHARDED, SwitchConfig::mp5(4), 1000, 12);
    let (_, b) = run_both(SHARDED, SwitchConfig::mp5(4), 1000, 12);
    assert_eq!(a.result.final_regs, b.result.final_regs);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.completions, b.completions);
}

#[test]
fn larger_packets_reach_line_rate_on_counter() {
    // With 1400 B packets the inter-arrival budget is ~22 slots, so
    // even the serialized counter keeps up at k=4 (Figure 7d's
    // effect).
    let prog = compile(COUNTER, &Target::default()).unwrap();
    let nf = prog.num_fields();
    let trace = TraceBuilder::new(1500, 13)
        .size(mp5_traffic::SizeDist::Fixed(1400))
        .build(nf, |_, _, _| {});
    let report = Mp5Switch::new(prog, SwitchConfig::mp5(4)).run(trace);
    assert!(
        report.normalized_throughput() > 0.95,
        "got {}",
        report.normalized_throughput()
    );
}

#[test]
fn try_new_rejects_invalid_configs() {
    use crate::config::ConfigError;
    let prog = compile(COUNTER, &Target::default()).unwrap();
    // physical_pipelines below the logical count is a hard error
    // now (it used to be silently clamped upward).
    let shrunk = SwitchConfig {
        physical_pipelines: Some(2),
        ..SwitchConfig::mp5(4)
    };
    assert_eq!(
        Mp5Switch::try_new(prog.clone(), shrunk).err(),
        Some(ConfigError::PhysicalPipelinesBelowLogical {
            physical: 2,
            logical: 4
        })
    );
    let never_remaps = SwitchConfig {
        remap_period: 0,
        ..SwitchConfig::mp5(4)
    };
    assert_eq!(
        Mp5Switch::try_new(prog.clone(), never_remaps).err(),
        Some(ConfigError::ZeroRemapPeriod)
    );
    // A *larger* physical chip remains valid (logical partitions).
    let ok = SwitchConfig {
        physical_pipelines: Some(8),
        ..SwitchConfig::mp5(4)
    };
    assert!(Mp5Switch::try_new(prog, ok).is_ok());
}

#[test]
#[should_panic(expected = "invalid SwitchConfig")]
fn new_panics_on_invalid_config() {
    let prog = compile(COUNTER, &Target::default()).unwrap();
    let bad = SwitchConfig {
        physical_pipelines: Some(1),
        ..SwitchConfig::mp5(4)
    };
    let _ = Mp5Switch::new(prog, bad);
}

/// Runs a trace through the Banzai reference and a faulted MP5
/// switch, returning both results.
fn run_faulted(
    src: &str,
    cfg: SwitchConfig,
    n: usize,
    seed: u64,
    plan: &mp5_faults::FaultPlan,
) -> (mp5_banzai::RunResult, RunReport) {
    let prog = compile(src, &Target::default()).unwrap();
    let nf = prog.num_fields();
    let trace = TraceBuilder::new(n, seed).build(nf, |r, _, f| {
        use rand::Rng;
        f[0] = r.gen_range(0..1_000);
    });
    let reference = BanzaiSwitch::new(prog.clone()).run(trace.clone());
    let report = Mp5Switch::with_faults(prog, cfg, NopSink, plan.injector()).run(trace);
    (reference, report)
}

#[test]
fn pipeline_kill_degrades_gracefully() {
    let plan = mp5_faults::FaultPlan::new(1).pipeline_fail(40, 2);
    let (reference, report) = run_faulted(SHARDED, SwitchConfig::mp5(4), 3000, 11, &plan);
    // Every packet still completes, and functional equivalence to
    // the single-pipeline reference is preserved: losing a pipeline
    // degrades throughput, never correctness.
    assert_eq!(report.completed, report.offered);
    assert!(report.result.equivalent_to(&reference));
    assert!(report.fault.accounted(), "accounting: {:?}", report.fault);
    assert_eq!(report.fault.injected, 1);
    assert_eq!(report.fault.degraded, 1);
    assert_eq!(report.fault.dead_pipelines, vec![2]);
    assert!(report.fault.degraded_cycles > 0);
    assert!(
        report.fault.evacuated_indexes > 0,
        "active indexes must evacuate off the dead pipeline"
    );
}

#[test]
fn dead_pipeline_owns_no_indexes_after_run() {
    let prog = compile(SHARDED, &Target::default()).unwrap();
    let nf = prog.num_fields();
    let trace = TraceBuilder::new(2000, 13).build(nf, |r, _, f| {
        use rand::Rng;
        f[0] = r.gen_range(0..1_000);
    });
    let plan = mp5_faults::FaultPlan::new(2).pipeline_fail(30, 1);
    let mut sw =
        Mp5Switch::with_faults(prog.clone(), SwitchConfig::mp5(4), NopSink, plan.injector());
    sw.report.offered = trace.len() as u64;
    sw.arrivals = trace.into();
    while !sw.drained() {
        sw.step();
    }
    // The same sweep `finish` runs: with the switch drained, every
    // in-flight guard is released and the map must come out clean.
    sw.evacuate_dead(true);
    for (ri, meta) in prog.regs.iter().enumerate() {
        if meta.shardable {
            assert!(
                sw.index_map[ri].iter().all(|&p| p != 1),
                "index map still references dead pipeline 1: {:?}",
                sw.index_map[ri]
            );
        }
    }
    let (report, _) = sw.finish();
    assert_eq!(report.fault.dead_pipelines, vec![1]);
    assert!(report.fault.evacuated_indexes > 0);
}

#[test]
fn lost_phantoms_are_recovered_and_equivalent() {
    let plan = mp5_faults::FaultPlan::new(3).phantom_drop(10, 400, 120);
    let (reference, report) = run_faulted(SHARDED, SwitchConfig::mp5(4), 2500, 17, &plan);
    assert_eq!(report.completed, report.offered);
    assert!(
        report.result.equivalent_to(&reference),
        "recovered packets must keep C1: access order == entry order"
    );
    assert!(report.fault.phantoms_dropped > 0, "window must fire");
    assert!(report.fault.phantoms_recovered > 0);
    assert!(report.fault.phantoms_recovered <= report.fault.phantoms_dropped);
    assert!(report.fault.accounted());
}

#[test]
fn stalls_grant_delays_and_remap_aborts_recover() {
    let plan = mp5_faults::FaultPlan::new(4)
        .stage_stall(20, 0, 2, 40)
        .grant_delay(10, 3, 200)
        .fifo_overflow(60, 1, 2, 30)
        .remap_abort(5, 2);
    let cfg = SwitchConfig::mp5(4);
    let (reference, report) = run_faulted(SHARDED, cfg, 2500, 19, &plan);
    assert_eq!(report.completed, report.offered);
    assert!(report.result.equivalent_to(&reference));
    assert!(report.fault.accounted(), "accounting: {:?}", report.fault);
    assert_eq!(report.fault.injected, 4);
    assert_eq!(report.fault.recovered, 4);
    assert!(report.fault.delayed_grants > 0, "steering must be delayed");
    assert!(report.fault.aborted_remaps > 0, "remap rounds must abort");
}

#[test]
fn bounded_fifos_attribute_drops_to_stages() {
    let prog = compile(SHARDED, &Target::default()).unwrap();
    let nf = prog.num_fields();
    let trace = TraceBuilder::new(3000, 23).build(nf, |r, _, f| {
        use rand::Rng;
        f[0] = r.gen_range(0..8); // 8 hot indexes: deep queues
    });
    let cfg = SwitchConfig {
        fifo_capacity: Some(2),
        ..SwitchConfig::mp5(4)
    };
    let report = Mp5Switch::new(prog, cfg).run(trace);
    let d = report.drops;
    assert!(
        d.phantom_fifo_full + d.data_no_phantom + d.data_fifo_full > 0,
        "capacity 2 under 8 hot indexes must drop: {d:?}"
    );
    // Every FIFO-located drop is attributed to its (pipeline, stage).
    assert_eq!(
        report.stage_drop_total(),
        d.phantom_fifo_full + d.data_no_phantom + d.data_fifo_full + d.starvation,
        "stage attribution must cover every FIFO drop: {:?}",
        report.stage_drops
    );
    assert!(report.completed < report.offered);
    assert_eq!(
        report.completed + d.total_data(),
        report.offered,
        "every offered packet either completes or is counted dropped"
    );
}

/// Queues, lanes and incoming rows move flights around every cycle:
/// what they move must stay a pointer, not the packet.
#[test]
fn flights_are_handles() {
    assert_eq!(std::mem::size_of::<Flight>(), 8);
    assert_eq!(std::mem::size_of::<Option<Flight>>(), 8);
    assert!(std::mem::size_of::<Entry<Flight>>() <= 48);
}

/// Sorted-by-entry-order trace for the streaming API.
fn sharded_trace(n: usize, seed: u64) -> (CompiledProgram, Vec<Packet>) {
    let prog = compile(SHARDED, &Target::default()).unwrap();
    let nf = prog.num_fields();
    let mut trace = TraceBuilder::new(n, seed).build(nf, |r, _, f| {
        use rand::Rng;
        f[0] = r.gen_range(0..1_000);
    });
    trace.sort_by_key(|p| p.entry_order_key());
    (prog, trace)
}

#[test]
fn snapshot_restore_continues_bit_identically() {
    let (prog, trace) = sharded_trace(3000, 11);
    let cfg = SwitchConfig::mp5(4);
    let oracle = Mp5Switch::new(prog.clone(), cfg.clone()).run(trace.clone());
    assert!(oracle.remap_moves > 0, "the run must remap to test it");
    // Checkpoint cycles: mid-period, and one before, at and one
    // after a multiple of `remap_period` (100) — the restored
    // switch recomputes when its next remap is due, and must agree
    // with the run that was never interrupted.
    for at in [40, 99, 100, 101] {
        let mut sw = Mp5Switch::new(prog.clone(), cfg.clone());
        for p in trace.clone() {
            sw.offer(p);
        }
        for _ in 0..at {
            sw.tick();
            sw.drain_egress();
        }
        let state = sw.extract_state(1);
        drop(sw);
        // Round-trip a real mid-run state through JSON: proves every
        // live structure serializes (the mp5serve codec depends on
        // this).
        let json = serde_json::to_string(&state).expect("state serializes");
        let state: crate::SwitchState = serde_json::from_str(&json).expect("state parses");
        let mut sw =
            Mp5Switch::try_restore_with(prog.clone(), cfg.clone(), state, NopSink, NoFaults)
                .expect("restore");
        while !sw.is_idle() {
            sw.tick();
            sw.drain_egress();
        }
        let (report, _) = sw.finish_stream();
        assert_eq!(report, oracle, "restored run diverged at cycle {at}");
    }
}

#[test]
fn restore_rejects_mismatched_shapes() {
    let (prog, trace) = sharded_trace(500, 3);
    let mut sw = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(4));
    for p in trace {
        sw.offer(p);
    }
    for _ in 0..10 {
        sw.tick();
        sw.drain_egress();
    }
    let state = sw.extract_state(1);
    let restore =
        |cfg, state| Mp5Switch::try_restore_with(prog.clone(), cfg, state, NopSink, NoFaults);
    let err = restore(SwitchConfig::mp5(8), state.clone())
        .expect_err("4-pipeline snapshot must not restore into an 8-pipeline switch");
    assert!(matches!(err, crate::RestoreError::Incompatible(_)));
    // A round-robin cursor that names no pipeline would index out
    // of bounds at the next ingress.
    let mut stray = state.clone();
    stray.rr = 4;
    let err = restore(SwitchConfig::mp5(4), stray).expect_err("rr must be < pipelines");
    assert!(matches!(err, crate::RestoreError::Incompatible(_)));
    // A counter array of the wrong length would index out of bounds
    // at the next remap, through the bitmap rebuilt from it.
    let mut short = state.clone();
    short.access_ctr[0].pop();
    let err = restore(SwitchConfig::mp5(4), short).expect_err("counter length");
    assert!(matches!(err, crate::RestoreError::Incompatible(_)));
    // A configuration that `validate` rejects is rejected here too.
    let never_remaps = SwitchConfig {
        remap_period: 0,
        ..SwitchConfig::mp5(4)
    };
    let err = restore(never_remaps, state.clone()).expect_err("remap_period 0");
    assert!(matches!(
        err,
        crate::RestoreError::Config(ConfigError::ZeroRemapPeriod)
    ));
    assert!(restore(SwitchConfig::mp5(4), state).is_ok());
}

#[test]
fn hot_swap_identical_program_completes_with_closed_ledger() {
    let (prog, trace) = sharded_trace(3000, 13);
    let oracle = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(4)).run(trace.clone());
    let mut sw = Mp5Switch::new(prog, SwitchConfig::mp5(4));
    for p in trace {
        sw.offer(p);
    }
    for _ in 0..30 {
        sw.tick();
        sw.drain_egress();
    }
    // Swap in a freshly compiled copy of the same source, mid-
    // traffic, without draining.
    let recompiled = compile(SHARDED, &Target::default()).unwrap();
    let swap = sw.hot_swap(recompiled).expect("identical layout must swap");
    assert!(swap.closed(), "swap ledger must close: {swap:?}");
    assert_eq!(swap.migrated, 64, "SHARDED owns one 64-entry table");
    assert_eq!(swap.lost_phantoms, 0);
    while !sw.is_idle() {
        sw.tick();
        sw.drain_egress();
    }
    let (report, _) = sw.finish_stream();
    assert_eq!(
        report, oracle,
        "swap to an identical program must be invisible"
    );
}

#[test]
fn hot_swap_rejects_incompatible_layouts() {
    let (prog, trace) = sharded_trace(500, 5);
    let mut sw = Mp5Switch::new(prog, SwitchConfig::mp5(4));
    for p in trace {
        sw.offer(p);
    }
    for _ in 0..10 {
        sw.tick();
        sw.drain_egress();
    }
    // Different packet field layout.
    let other = compile(COUNTER, &Target::default()).unwrap();
    assert!(matches!(
        sw.hot_swap(other),
        Err(crate::SwapError::FieldLayout { .. })
    ));
    // Same fields, different register size.
    let wide = "struct Packet { int h; int out; };
        int tbl[128] = {0};
        void func(struct Packet p) {
            tbl[p.h % 128] = tbl[p.h % 128] + 1;
            p.out = tbl[p.h % 128];
        }";
    let wide = compile(wide, &Target::default()).unwrap();
    match sw.hot_swap(wide) {
        Err(crate::SwapError::RegisterLayout { .. }) | Err(crate::SwapError::StageCount { .. }) => {
        }
        other => panic!("expected a layout rejection, got {other:?}"),
    }
    // The rejected swaps left the switch fully operational.
    while !sw.is_idle() {
        sw.tick();
        sw.drain_egress();
    }
    let (report, _) = sw.finish_stream();
    assert_eq!(report.completed, 500);
}
