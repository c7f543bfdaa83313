use super::*;
use mp5_compiler::{compile, Target};
use mp5_fabric::Entry;
use mp5_traffic::TraceBuilder;
use slab::from_back;

const COUNTER: &str = "struct Packet { int seq; };
    int count = 0;
    void func(struct Packet p) { count = count + 1; p.seq = count; }";

const SHARDED: &str = "struct Packet { int h; int out; };
    int tbl[64] = {0};
    void func(struct Packet p) {
        tbl[p.h % 64] = tbl[p.h % 64] + 1;
        p.out = tbl[p.h % 64];
    }";

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

/// Queues, lanes and incoming rows move flights around every cycle:
/// what they move must stay a slab handle, not the packet.
#[test]
fn flights_are_handles() {
    assert_eq!(std::mem::size_of::<Handle>(), 4);
    assert!(std::mem::size_of::<Option<Handle>>() <= 8);
    assert!(std::mem::size_of::<Entry<Handle>>() <= 40);
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
    // A lane whose sequence numbers start past what a recorded phantom
    // address can hold.
    let mut far = state.clone();
    let crate::state::QueueSnap::Logical(fifo) = &mut far.queues[0][0] else {
        panic!("mp5 queues are logical FIFOs");
    };
    fifo.lanes[0].head_seq = slab::SEQ_ROOM + 1;
    let err = restore(SwitchConfig::mp5(4), far).expect_err("a lane past the packed range");
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

/// A switch 40 cycles into a run whose packets wait at a hot first
/// array while their phantoms for the second are queued.
fn queued_phantoms(cfg: SwitchConfig) -> (CompiledProgram, Mp5Switch) {
    let chain = "struct Packet { int h; int out; };
        int hot[2] = {0};
        int tbl[64] = {0};
        void func(struct Packet p) {
            hot[p.h % 2] = hot[p.h % 2] + 1;
            tbl[p.h % 64] = tbl[p.h % 64] + hot[p.h % 2];
            p.out = tbl[p.h % 64];
        }";
    let prog = compile(chain, &Target::default()).unwrap();
    let mut trace = TraceBuilder::new(600, 11).build(prog.num_fields(), |r, _, f| {
        use rand::Rng;
        f[0] = r.gen_range(0..1_000);
    });
    trace.sort_by_key(|p| p.entry_order_key());
    let mut sw = Mp5Switch::new(prog.clone(), cfg);
    for p in trace {
        sw.offer(p);
    }
    for _ in 0..40 {
        sw.tick();
        sw.drain_egress();
    }
    (prog, sw)
}

/// The phantom directory is derived, never written: a restore matches
/// each queued phantom to the packet that comes for it and rebuilds
/// that packet's row. So every address a switch holds for a queued
/// phantom before `extract_state` is the one the restored switch
/// holds, it still names that phantom, and both switches run on alike.
#[test]
fn restored_directory_matches_address_for_address() {
    /// Each packet's row, by entry order: the address of every tag whose
    /// phantom is queued there, else `UNSET`.
    fn rows<S: TraceSink, F: FaultInjector>(
        sw: &Mp5Switch<S, F>,
    ) -> Vec<(OrderKey, Vec<FifoAddr>)> {
        let mut rows: Vec<_> = sw
            .flights
            .iter()
            .map(|(h, fl)| {
                let tags = &fl.pkt.tags;
                let row = tags.iter().enumerate().map(|(i, t)| {
                    let addr = sw.flights.addr(h, from_back(tags.len(), i));
                    let queue = &sw.pipes[t.pipeline.index()].queues[t.stage.index()];
                    let live = queue.fifos().any(|f| f.phantom_at(addr, fl.key(t)));
                    if live {
                        addr
                    } else {
                        FifoAddr::UNSET
                    }
                });
                (fl.order, row.collect())
            })
            .collect();
        rows.sort_unstable_by_key(|(order, _)| *order);
        rows
    }
    for cfg in [SwitchConfig::mp5(4), SwitchConfig::ideal(4)] {
        let (prog, mut sw) = queued_phantoms(cfg.clone());
        let before = rows(&sw);
        let queued = before.iter().flat_map(|(_, r)| r);
        assert!(queued.filter(|a| **a != FifoAddr::UNSET).count() > 10);
        let state = sw.extract_state(1);
        let mut back =
            Mp5Switch::try_restore_with(prog.clone(), cfg, state, NopSink, NoFaults).unwrap();
        assert_eq!(rows(&back), before);
        for s in [&mut sw, &mut back] {
            while !s.is_idle() {
                s.tick();
                s.drain_egress();
            }
        }
        assert_eq!(back.finish_stream().0, sw.finish_stream().0);
    }
}

/// A restore gives each queued phantom to exactly one packet: a second
/// packet in flight with the same key, place and entry order makes the
/// owner ambiguous, and the snapshot is rejected.
#[test]
fn restore_rejects_a_phantom_two_packets_could_claim() {
    let (prog, mut sw) = queued_phantoms(SwitchConfig::mp5(4));
    let mut state = sw.extract_state(1);
    let queued: Vec<PhantomKey> = state
        .queues
        .iter()
        .flatten()
        .flat_map(|q| q.entries())
        .filter_map(|e| match e {
            Entry::Phantom { key, .. } => Some(*key),
            _ => None,
        })
        .collect();
    let twin = state
        .queues
        .iter()
        .flatten()
        .flat_map(|q| q.entries())
        .find_map(|e| match e {
            Entry::Data { item, .. }
                if item.pkt.tags.iter().any(|t| queued.contains(&item.key(t))) =>
            {
                Some(item.clone())
            }
            _ => None,
        })
        .expect("a queued packet owns a queued phantom");
    state.ingress_q.push(twin);
    let err = Mp5Switch::try_restore_with(prog, SwitchConfig::mp5(4), state, NopSink, NoFaults)
        .expect_err("an ambiguous owner is rejected");
    assert!(
        matches!(&err, crate::RestoreError::Incompatible(why) if why.contains("more than one packet")),
        "{err}"
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
