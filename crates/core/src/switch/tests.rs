use super::*;
use mp5_compiler::{compile, Target};
use mp5_fabric::Entry;
use mp5_traffic::TraceBuilder;
use mp5_types::AccessTag;

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
    let RunError::Liveness(err) = err else {
        panic!("not a liveness error: {err}");
    };
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

/// An arrival's tags are the switch's to fill in: a packet offered with
/// some is refused at both doors, and the switch serves the rest as if
/// it had never been offered.
#[test]
fn a_tagged_arrival_is_refused_at_both_doors() {
    let (prog, mut trace) = sharded_trace(20, 3);
    let tag = AccessTag {
        reg: RegId(0),
        index: 1,
        pipeline: PipelineId(0),
        stage: StageId(0),
        speculative: false,
    };
    let mut untagged = trace.clone();
    untagged.remove(11);
    trace[11].tags = vec![tag; 1000];
    let refused = TaggedArrival {
        id: trace[11].id,
        tags: 1000,
    };

    let whole = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(4)).try_run(trace.clone());
    let err = whole.expect_err("a tagged input does not run");
    assert_eq!(err, RunError::Tagged(refused));
    assert!(err.to_string().contains("1000 access tag(s)"), "{err}");

    let mut sw = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(4));
    for (i, p) in trace.into_iter().enumerate() {
        let expected = if i == 11 {
            Err(OfferError::Tagged(refused))
        } else {
            Ok(())
        };
        assert_eq!(sw.try_offer(p), expected);
    }
    while !sw.is_idle() {
        sw.tick();
    }
    let (streamed, _) = sw.finish_stream();
    let expected = Mp5Switch::new(prog, SwitchConfig::mp5(4)).run(untagged);
    assert_eq!(streamed, expected);
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
                let row = sw.flights.tags(h).map(|(back, t)| {
                    let addr = sw.flights.addr(h, back);
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

/// A per-index sub-queue has one lane per source pipeline. A snapshot
/// written when each had a single lane, which served in push order and
/// so broke C1, is rejected by the lane check rather than loaded into a
/// shape that would serve differently.
#[test]
fn restore_rejects_one_lane_per_index_queues() {
    use crate::state::QueueSnap;
    use mp5_fabric::LaneParts;
    let (prog, mut sw) = queued_phantoms(SwitchConfig::ideal(4));
    let state = sw.extract_state(1);
    let restore = |state| {
        Mp5Switch::try_restore_with(
            prog.clone(),
            SwitchConfig::ideal(4),
            state,
            NopSink,
            NoFaults,
        )
    };
    let mut one_lane = state.clone();
    let mut merged = 0;
    for q in one_lane.queues.iter_mut().flatten() {
        let QueueSnap::PerIndex { subs, .. } = q else {
            panic!("ideal queues are per-index");
        };
        for (_, f) in subs {
            assert_eq!(f.lanes.len(), 4);
            let mut entries: Vec<_> = f.lanes.drain(..).flat_map(|l| l.entries).collect();
            entries.sort_by_key(Entry::ts);
            merged += entries.len();
            f.lanes.push(LaneParts {
                head_seq: 0,
                max_occupancy: entries.len(),
                entries,
            });
        }
    }
    assert!(merged > 10, "the snapshot queues entries per index");
    let err = restore(one_lane).expect_err("one-lane sub-queues are an old shape");
    assert!(
        matches!(&err, crate::RestoreError::Incompatible(m) if m.contains("has 1 lanes, expected 4")),
        "{err:?}"
    );
    assert!(restore(state).is_ok());
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

/// The stage queue is the one place the fabric-level events are
/// written: every FIFO outcome emits its own event, at the caller's
/// `(cycle, pipeline, stage)`, and an outcome that changes nothing (an
/// empty pop, a cancel that finds no phantom) emits none.
#[test]
fn queue_outcomes_emit_their_events() {
    use crate::state::FlightState;
    use mp5_trace::MemSink;
    use mp5_types::{PacketId, PortId};
    use queue::Serve;

    let mut flights = Flights::new(1);
    let mut h = Vec::new();
    for id in 0..6 {
        h.push(flights.alloc(FlightState {
            pkt: Packet::new(PacketId(id), PortId(0), 0, 64, 0),
            order: OrderKey(id, 0),
            ingress: PipelineId(0),
        }));
    }
    let key = |p| PhantomKey {
        pkt: PacketId(p),
        reg: RegId(0),
        index: 0,
    };
    let lane = PipelineId(0);
    let mut sink = MemSink::new();
    let ctx = TraceCtx::new(7, 1, 2);
    let cfg = SwitchConfig {
        fifo_capacity: Some(1),
        ..SwitchConfig::mp5(1)
    };
    let mut q = StageQueue::new(&cfg);
    let mut tags = Vec::new();
    let mut expect = |sink: &mut MemSink, want: &[&'static str]| {
        tags.extend_from_slice(want);
        let got: Vec<_> = sink.events.iter().map(|e| e.kind.tag()).collect();
        assert_eq!(got, tags);
    };

    let a0 = q.push_phantom(key(0), OrderKey(0, 0), lane, &mut sink, ctx);
    let a0 = a0.expect("an empty lane takes a phantom");
    let full = q.push_phantom(key(1), OrderKey(1, 0), lane, &mut sink, ctx);
    assert!(full.is_none());
    expect(&mut sink, &["ph_enq", "ph_drop"]);

    assert!(matches!(q.serve(0, &flights, &mut sink, ctx), Serve::Idle));
    expect(&mut sink, &["pop_blocked"]);

    assert!(q.insert_data(a0, key(0), h[0], &mut sink, ctx).is_ok());
    let orphan = q.insert_data(FifoAddr::UNSET, key(1), h[1], &mut sink, ctx);
    assert_eq!(orphan, Err(h[1]));
    expect(&mut sink, &["data_match", "data_orphan"]);

    assert!(matches!(q.serve(0, &flights, &mut sink, ctx), Serve::Served(s) if s == h[0]));
    assert!(matches!(q.serve(0, &flights, &mut sink, ctx), Serve::Idle));
    expect(&mut sink, &["pop_data"]);

    // The phantom at `a0` was served: a cancel there finds nothing.
    assert!(!q.cancel(a0, key(0), true, &mut sink, ctx));
    expect(&mut sink, &[]);

    q.push_recovered(key(2), h[2], OrderKey(2, 0), &mut sink, ctx);
    assert!(matches!(q.serve(0, &flights, &mut sink, ctx), Serve::Served(s) if s == h[2]));
    expect(&mut sink, &["ph_recovered", "pop_data"]);

    let a3 = q.push_phantom(key(3), OrderKey(3, 0), lane, &mut sink, ctx);
    assert!(q.cancel(a3.expect("lane is free"), key(3), false, &mut sink, ctx));
    assert!(matches!(
        q.serve(0, &flights, &mut sink, ctx),
        Serve::Wasted
    ));
    expect(&mut sink, &["ph_enq", "ph_cancel", "pop_stale"]);
    assert!(matches!(
        sink.events[sink.events.len() - 2].kind,
        EventKind::PhantomCancel { free: false, .. }
    ));

    assert!(q
        .push_data(PacketId(4), h[4], OrderKey(4, 0), lane, &mut sink, ctx)
        .is_ok());
    let full = q.push_data(PacketId(5), h[5], OrderKey(5, 0), lane, &mut sink, ctx);
    assert_eq!(full, Err(h[5]));
    expect(&mut sink, &["data_enq", "data_enq_drop"]);

    assert!(sink
        .events
        .iter()
        .all(|e| (e.cycle, e.pipeline, e.stage) == (7, 1, 2)));
    let pkts: Vec<_> = sink
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::PopData { pkt }
            | EventKind::DataEnq { pkt }
            | EventKind::DataEnqDropFull { pkt } => Some(pkt.0),
            EventKind::PhantomEnq { key }
            | EventKind::PhantomDropFull { key }
            | EventKind::PopBlocked { key }
            | EventKind::DataMatch { key }
            | EventKind::DataOrphan { key }
            | EventKind::PhantomRecovered { key }
            | EventKind::PhantomCancel { key, .. } => Some(key.pkt.0),
            _ => None,
        })
        .collect();
    assert_eq!(pkts, [0, 1, 0, 0, 1, 0, 2, 2, 3, 3, 4, 5]);
}

/// A `steer` event is an off-diagonal crossbar route: one per packet
/// routed across pipelines, at the source pipeline and the stage it
/// enters, and none for a packet that stays in its pipeline.
#[test]
fn steer_is_emitted_only_off_the_diagonal() {
    use mp5_trace::MemSink;
    let (prog, trace) = sharded_trace(400, 5);
    let mut sw = Mp5Switch::with_sink(prog, SwitchConfig::mp5(4), MemSink::new());
    for p in trace {
        sw.offer(p);
    }
    while !sw.is_idle() {
        sw.tick();
        sw.drain_egress();
    }
    let k = sw.k;
    let mut steers = vec![0u64; sw.stages * k * k];
    for e in &sw.sink.events {
        if let EventKind::Steer { from, to } = e.kind {
            assert_ne!(from, to, "a steer on the diagonal");
            assert_eq!(e.pipeline, from);
            steers[(e.stage as usize * k + from as usize) * k + to as usize] += 1;
        }
    }
    let mut diagonal = 0;
    for (st, xb) in sw.crossbars.iter().enumerate() {
        for from in 0..k {
            for to in 0..k {
                let routed = xb.routed(PipelineId::from(from), PipelineId::from(to));
                if from == to {
                    diagonal += routed;
                } else {
                    assert_eq!(
                        steers[(st * k + from) * k + to],
                        routed,
                        "{st}: {from}->{to}"
                    );
                }
            }
        }
    }
    assert!(diagonal > 0 && steers.iter().sum::<u64>() > 0);
}

#[test]
fn port_blocks_are_contiguous() {
    use super::recirc::port_block;
    use mp5_types::PortId;
    let k4 = [0, 15, 16, 63].map(|p| port_block(PortId(p), 4));
    assert_eq!(k4, [0, 0, 1, 3]);
    assert_eq!(port_block(PortId(63), 1), 0);
}
