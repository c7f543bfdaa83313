//! The MP5 switch simulator (architecture §3.2 + runtime §3.4).

use std::collections::{HashSet, VecDeque};

use mp5_banzai::RunResult;
use mp5_compiler::program::{INDEX_ARRAY_LEVEL, REG_STAGE_SENTINEL};
use mp5_compiler::{BatchRegs, CompiledProgram, LaneAccess, LaneFields, ResolvedAccess};
use mp5_fabric::{Crossbar, Entry, LogicalFifo, OrderKey, PhantomChannel, PhantomKey, PopOutcome};
use mp5_faults::{FaultClass, FaultInjector, FaultKind, NoFaults, PhantomFate};
use mp5_trace::{DropCause, EventKind, NopSink, TraceCtx, TraceSink, NO_LOC};
use mp5_types::time::{cycle_len, Time};
use mp5_types::{AccessTag, FastSet, Packet, PacketId, PipelineId, RegId, StageId, Value};

use crate::config::{ConfigError, ShardingMode, SprayMode, SwitchConfig};
use crate::report::RunReport;
use crate::shard::{self, Touched};
use crate::state::{
    ChannelFlightSnap, ChannelSnap, Flight, FlightState, QueueSnap, ReportSnap, RestoreError,
    ResultSnap, SwapError, SwapReport, SwitchState, XbarSnap,
};

/// Converts a fabric phantom key into the trace schema's access key.
fn tkey(key: PhantomKey) -> mp5_trace::Key {
    mp5_trace::Key {
        pkt: key.pkt,
        reg: key.reg,
        index: key.index,
    }
}

/// Stable identity hash of a phantom key, fed to the fault injector's
/// phantom-drop decision. Pure function of the key, so a run and its
/// replay (or its restore) see identical fates.
fn fault_key_hash(key: &PhantomKey) -> u64 {
    key.pkt.0 ^ ((key.reg.0 as u64) << 48) ^ ((key.index as u64) << 32)
}

/// The simulator's liveness invariant broke: a run failed to drain all
/// in-flight work within its cycle cap. Carries a snapshot of where the
/// stuck work sits, for debugging deadlocked configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The cycle cap that was exceeded.
    pub cap: u64,
    /// Packets still waiting at ingress.
    pub ingress: usize,
    /// Packets occupying pipeline lanes.
    pub in_lanes: usize,
    /// Packets sitting in stage FIFOs.
    pub queued: usize,
    /// Phantoms still in flight on the dedicated channel.
    pub channel: usize,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation exceeded {} cycles: ingress={}, in-lanes={}, queued={}, channel={}",
            self.cap, self.ingress, self.in_lanes, self.queued, self.channel
        )
    }
}

impl std::error::Error for InvariantViolation {}

/// A phantom packet payload on the dedicated channel: 48 bits in
/// hardware — `(packet id, state, index, pipeline, stage)` (Figure 5).
#[derive(Debug, Clone)]
struct PhantomMsg {
    key: PhantomKey,
    ts: OrderKey,
    dest: PipelineId,
    lane: PipelineId,
}

/// Per-(pipeline, stage) input queue: the bank of `k` FIFOs, or one
/// FIFO per register index in the ideal configuration.
#[derive(Debug)]
enum StageQueue {
    Logical(LogicalFifo<Flight>),
    PerIndex {
        subs: std::collections::BTreeMap<u32, LogicalFifo<Flight>>,
        max_total: usize,
        /// Bound applied to each per-index sub-queue (`fifo_capacity`):
        /// the ideal configuration honors bounded-FIFO runs too.
        capacity: Option<usize>,
    },
}

/// What a stage's scheduler did with its FIFO this cycle.
enum Serve {
    Idle,
    Served(Flight),
    Wasted,
}

impl StageQueue {
    fn new(cfg: &SwitchConfig) -> Self {
        if cfg.per_index_fifos {
            StageQueue::PerIndex {
                subs: Default::default(),
                max_total: 0,
                capacity: cfg.fifo_capacity,
            }
        } else {
            StageQueue::Logical(LogicalFifo::new(cfg.pipelines, cfg.fifo_capacity))
        }
    }

    fn sub(
        subs: &mut std::collections::BTreeMap<u32, LogicalFifo<Flight>>,
        capacity: Option<usize>,
        index: u32,
    ) -> &mut LogicalFifo<Flight> {
        subs.entry(index)
            .or_insert_with(|| LogicalFifo::new(1, capacity))
    }

    fn push_phantom<S: TraceSink>(
        &mut self,
        key: PhantomKey,
        ts: OrderKey,
        lane: PipelineId,
        sink: &mut S,
        ctx: TraceCtx,
    ) -> bool {
        match self {
            StageQueue::Logical(f) => f.push_phantom_traced(key, ts, lane, sink, ctx).is_ok(),
            StageQueue::PerIndex {
                subs,
                max_total,
                capacity,
            } => {
                let ok = Self::sub(subs, *capacity, key.index)
                    .push_phantom_traced(key, ts, PipelineId(0), sink, ctx)
                    .is_ok();
                *max_total = (*max_total).max(subs.values().map(|f| f.len()).sum::<usize>());
                ok
            }
        }
    }

    fn push_data<S: TraceSink>(
        &mut self,
        fl: Flight,
        ts: OrderKey,
        lane: PipelineId,
        sink: &mut S,
        ctx: TraceCtx,
    ) -> Result<(), Flight> {
        let pkt = fl.pkt.id;
        match self {
            StageQueue::Logical(f) => f.push_data_traced(pkt, fl, ts, lane, sink, ctx).map(|_| ()),
            StageQueue::PerIndex {
                subs,
                max_total,
                capacity,
            } => {
                let r = Self::sub(subs, *capacity, INDEX_ARRAY_LEVEL)
                    .push_data_traced(pkt, fl, ts, PipelineId(0), sink, ctx)
                    .map(|_| ());
                *max_total = (*max_total).max(subs.values().map(|f| f.len()).sum::<usize>());
                r
            }
        }
    }

    /// Re-inserts a data packet whose phantom was lost to an injected
    /// fault directly into FIFO order at its original order key (the
    /// C1-preserving recovery path; see `LogicalFifo::push_recovered`).
    fn push_recovered<S: TraceSink>(
        &mut self,
        key: PhantomKey,
        fl: Flight,
        ts: OrderKey,
        sink: &mut S,
        ctx: TraceCtx,
    ) {
        match self {
            StageQueue::Logical(f) => f.push_recovered_traced(key, fl, ts, sink, ctx),
            StageQueue::PerIndex {
                subs,
                max_total,
                capacity,
            } => {
                Self::sub(subs, *capacity, key.index).push_recovered_traced(key, fl, ts, sink, ctx);
                *max_total = (*max_total).max(subs.values().map(|f| f.len()).sum::<usize>());
            }
        }
    }

    fn insert_data<S: TraceSink>(
        &mut self,
        key: PhantomKey,
        fl: Flight,
        sink: &mut S,
        ctx: TraceCtx,
    ) -> Result<(), Flight> {
        match self {
            StageQueue::Logical(f) => f.insert_data_traced(key, fl, sink, ctx).map(|_| ()),
            StageQueue::PerIndex { subs, capacity, .. } => Self::sub(subs, *capacity, key.index)
                .insert_data_traced(key, fl, sink, ctx)
                .map(|_| ()),
        }
    }

    fn cancel<S: TraceSink>(
        &mut self,
        key: PhantomKey,
        free: bool,
        sink: &mut S,
        ctx: TraceCtx,
    ) -> bool {
        match self {
            StageQueue::Logical(f) => f.cancel_traced(key, free, sink, ctx),
            StageQueue::PerIndex { subs, capacity, .. } => {
                Self::sub(subs, *capacity, key.index).cancel_traced(key, free, sink, ctx)
            }
        }
    }

    fn serve<S: TraceSink>(&mut self, st: usize, sink: &mut S, ctx: TraceCtx) -> Serve {
        match self {
            StageQueue::Logical(f) => match f.pop_traced(sink, ctx, |fl| fl.pkt.id) {
                PopOutcome::Data(fl) => Serve::Served(fl),
                PopOutcome::ConsumedStale => Serve::Wasted,
                PopOutcome::Empty | PopOutcome::BlockedOnPhantom(_) => Serve::Idle,
            },
            StageQueue::PerIndex { subs, .. } => {
                // No head-of-line blocking: serve the oldest *servable*
                // head across all per-index queues. A data head with
                // sibling placeholders in other sub-queues is eligible
                // only when every sibling is also at its queue's head —
                // otherwise an earlier-arrived packet for that sibling
                // index would be overtaken when this packet executes all
                // of its accesses at once.
                #[derive(Debug)]
                enum Head {
                    Phantom(PhantomKey),
                    Data(Vec<PhantomKey>),
                    Stale,
                }
                let mut heads: std::collections::BTreeMap<u32, (OrderKey, Head)> =
                    Default::default();
                for (&idx, f) in subs.iter_mut() {
                    let Some(entry) = f.peek_oldest() else {
                        continue;
                    };
                    let ts = entry.ts();
                    let head = match entry {
                        mp5_fabric::Entry::Phantom { key, .. } => Head::Phantom(*key),
                        mp5_fabric::Entry::Stale { free, .. } => {
                            debug_assert!(!free, "free stales are drained by peek");
                            Head::Stale
                        }
                        mp5_fabric::Entry::Data { item, .. } => Head::Data(
                            item.pkt
                                .tags
                                .iter()
                                .filter(|t| t.stage.index() == st)
                                .map(|t| item.key(t))
                                .collect(),
                        ),
                    };
                    heads.insert(idx, (ts, head));
                }
                let mut cands: Vec<(OrderKey, u32)> = heads
                    .iter()
                    .filter(|(_, (_, h))| !matches!(h, Head::Phantom(_)))
                    .map(|(&idx, (ts, _))| (*ts, idx))
                    .collect();
                cands.sort_unstable();
                for (_, idx) in cands {
                    if let (_, Head::Data(keys)) = &heads[&idx] {
                        // A sibling key gates service only while its
                        // phantom is still queued (in no-phantom modes,
                        // or after drops, there is nothing to wait for).
                        let eligible = keys.iter().all(|k| {
                            k.index == idx
                                || subs.get(&k.index).is_none_or(|sub| !sub.has_phantom(*k))
                                || matches!(
                                    heads.get(&k.index),
                                    Some((_, Head::Phantom(hk))) if hk == k
                                )
                        });
                        if !eligible {
                            continue;
                        }
                    }
                    // `idx` was collected from `heads`, which was built by
                    // iterating `subs`, and nothing has been removed since
                    // — absence would be a scheduler bug, so degrade to
                    // skipping the candidate rather than panicking.
                    let Some(sub) = subs.get_mut(&idx) else {
                        debug_assert!(false, "candidate index {idx} vanished from sub-queues");
                        continue;
                    };
                    let out = match sub.pop_traced(sink, ctx, |fl| fl.pkt.id) {
                        PopOutcome::Data(fl) => Serve::Served(fl),
                        PopOutcome::ConsumedStale => Serve::Wasted,
                        // The candidate filter above excluded phantom heads
                        // and `peek_oldest` drained free stales, so the pop
                        // can only observe the two servable outcomes; an
                        // `Empty`/`BlockedOnPhantom` here would mean the
                        // head changed mid-scan, which nothing in this
                        // single-threaded scheduler can do.
                        _ => unreachable!("candidate head is servable"),
                    };
                    // Drop drained sub-queues so the scheduler scan
                    // stays proportional to *occupied* indexes.
                    if sub.is_empty() {
                        subs.remove(&idx);
                    }
                    return out;
                }
                Serve::Idle
            }
        }
    }

    fn oldest_ts(&mut self) -> Option<OrderKey> {
        match self {
            StageQueue::Logical(f) => f.oldest_ts(),
            StageQueue::PerIndex { subs, .. } => {
                subs.values_mut().filter_map(|f| f.oldest_ts()).min()
            }
        }
    }

    fn len(&self) -> usize {
        match self {
            StageQueue::Logical(f) => f.len(),
            StageQueue::PerIndex { subs, .. } => subs.values().map(|f| f.len()).sum(),
        }
    }

    /// O(1) for the logical layout (the FIFO keeps an occupancy
    /// counter); the work pass probes this for every `(pipeline, stage)`
    /// slot before paying for a full `serve` scan.
    fn is_empty(&self) -> bool {
        match self {
            StageQueue::Logical(f) => f.is_empty(),
            StageQueue::PerIndex { subs, .. } => subs.values().all(|f| f.is_empty()),
        }
    }

    fn max_occupancy(&self) -> usize {
        match self {
            StageQueue::Logical(f) => f.max_occupancy(),
            StageQueue::PerIndex { max_total, .. } => *max_total,
        }
    }
}

// ---------------------------------------------------------------------
// The per-cycle work phase.
//
// Within a cycle, the admit/work phase of pipeline `pl` touches its own
// `Pipe` (incoming row, stage FIFOs, lanes, register copies) and writes
// the switch's shared state — the sharding counters, the phantom
// channel, the run report, the trace sink — through a `Work`, a borrow
// split from `Mp5Switch::pipes`. Pipelines run in ascending order and
// stages ascending within each, so every effect lands in the one order
// the report and the event stream are defined by (DESIGN.md §10, §13).
// ---------------------------------------------------------------------

/// One cycle's work phase: what every pipeline's pass reads (immutable
/// for the phase — the index map only changes in the remap phase) and
/// the shared switch state it writes straight into.
struct Work<'a, S> {
    prog: &'a CompiledProgram,
    index_map: &'a [Vec<u16>],
    phantoms: bool,
    starvation_threshold: Option<u64>,
    /// Byte-times per pipeline cycle (`64·timing_k`).
    clen: u64,
    cycle: u64,
    prologue: usize,
    /// `(pipeline, stage)` pairs suppressed by injected stalls this
    /// cycle (empty under `NoFaults`, so the gate below is a length
    /// check on the hot path).
    stalls: &'a [(u16, u16)],
    /// Whether per-packet artifacts (the access log) are recorded.
    /// Fabric-scale runs turn this off — see
    /// [`SwitchConfig::record_detail`].
    record_detail: bool,
    access_ctr: &'a mut [Vec<u64>],
    touched: &'a mut [Touched],
    inflight: &'a mut [Vec<u32>],
    channel: &'a mut PhantomChannel<PhantomMsg>,
    report: &'a mut RunReport,
    sink: &'a mut S,
}

impl<S> Work<'_, S> {
    /// Is `(pl, st)` under an injected stall this cycle? Stalls only
    /// suppress *queue service*: pass-through packets keep their slot
    /// (Invariant 2 is a hardware datapath property, not a scheduler
    /// choice), so a stall delays the serial order without breaking it.
    #[inline]
    fn stalled(&self, pl: usize, st: usize) -> bool {
        !self.stalls.is_empty() && self.stalls.contains(&(pl as u16, st as u16))
    }
}

/// One pipeline's work-phase state: everything phase 4 reads and
/// writes for that pipeline, and nothing any other pipeline does. The
/// switch holds one per pipeline (DESIGN.md §13).
#[derive(Debug, Default)]
struct Pipe {
    /// This cycle's incoming flights per stage, filled by the move phase
    /// and the ingress spray, emptied by the work phase (so it is all
    /// `None` between cycles).
    inc_row: Vec<Option<Flight>>,
    /// Stage input queues.
    queues: Vec<StageQueue>,
    /// Stage occupancy after the work phase.
    lanes: Vec<Option<Flight>>,
    /// This pipeline's replica of every register array; only the
    /// index-map-active copy of each index is meaningful (D2, Figure 3).
    regs: Vec<Vec<Value>>,
    /// Reusable address-resolution output for the pipeline head.
    resolved: Vec<ResolvedAccess>,
    /// Reusable kernel output for one body stage of one packet.
    kout: Vec<LaneAccess>,
    /// Stages holding a parked flight (stages < 64): the work pass sets
    /// a bit when it parks, the move phase drains exactly the set bits
    /// instead of scanning every lane slot.
    park: u64,
    /// Filled `inc_row` slots (stages < 64): the move phase and ingress
    /// set bits, the work pass takes the mask and tests bits instead of
    /// probing every slot.
    inc: u64,
    /// Stage FIFOs that *may* be non-empty (stages < 64; a conservative
    /// superset): every enqueue site sets a bit, the work pass visits
    /// only `inc | qmask` and clears a bit lazily when the queue turns
    /// out empty.
    qmask: u64,
}

impl Pipe {
    fn new(prog: &CompiledProgram, cfg: &SwitchConfig) -> Self {
        let stages = prog.num_stages();
        Pipe {
            inc_row: vec![None; stages],
            queues: (0..stages).map(|_| StageQueue::new(cfg)).collect(),
            lanes: vec![None; stages],
            regs: prog.initial_regs(),
            ..Pipe::default()
        }
    }
}

/// Register-file adapter for the kernel: a one-lane call runs against
/// this pipeline's replica, so the slot handle is ignored.
struct Replica<'a>(&'a mut [Vec<Value>]);

impl BatchRegs for Replica<'_> {
    #[inline]
    fn read(&mut self, _slot: u16, reg: RegId, idx: u32) -> Value {
        self.0[reg.index()][idx as usize]
    }

    #[inline]
    fn write(&mut self, _slot: u16, reg: RegId, idx: u32, val: Value) {
        self.0[reg.index()][idx as usize] = val;
    }
}

/// Field adapter for the kernel: lane 0 is the flight's own field
/// vector, read and written in place.
struct OneLane<'a>(&'a mut [Value]);

impl LaneFields for OneLane<'_> {
    #[inline]
    fn row(&self, _lane: u32) -> &[Value] {
        self.0
    }

    #[inline]
    fn row_mut(&mut self, _lane: u32) -> &mut [Value] {
        self.0
    }
}

/// The admit/work phase of one pipeline for one cycle, stages
/// ascending: each `(pipeline, stage)` slot makes its scheduler
/// decision — the incoming pass-through packet first (Invariant 2),
/// else one FIFO service — and runs the chosen packet's stage on the
/// spot, so side effects and trace events come out in the one order
/// the report and the stream are defined by (DESIGN.md §13).
///
/// For programs of at most 64 stages the pass visits only the slots in
/// `inc | qmask`, ascending bit order being stage order: any other slot
/// has no incoming packet and nothing queued, so its decision is a
/// no-op. Wider programs probe every slot.
fn work_pipeline<S: TraceSink>(w: &mut Work<'_, S>, pl: usize, pipe: &mut Pipe) {
    // Consumed on every width: bits exist only for stages < 64.
    let inc = std::mem::take(&mut pipe.inc);
    if pipe.inc_row.len() <= 64 {
        let mut work = inc | pipe.qmask;
        while work != 0 {
            let st = work.trailing_zeros() as usize;
            work &= work - 1;
            debug_assert_eq!(
                inc & (1 << st) != 0,
                pipe.inc_row[st].is_some(),
                "incoming mask out of sync at stage {st}"
            );
            work_slot(w, pl, st, pipe);
        }
        debug_assert!(
            pipe.inc_row.iter().all(|s| s.is_none()),
            "incoming flight missed by the work mask"
        );
        return;
    }
    for st in 0..pipe.inc_row.len() {
        work_slot(w, pl, st, pipe);
    }
}

/// One `(pipeline, stage)` slot: the scheduler's decision, then the
/// chosen packet's stage.
fn work_slot<S: TraceSink>(w: &mut Work<'_, S>, pl: usize, st: usize, pipe: &mut Pipe) {
    let tctx = TraceCtx::new(w.cycle, pl as u16, st as u16);
    let fl = if let Some(fl) = pipe.inc_row[st].take() {
        // Starvation handling (§3.4): drop an incoming packet that is
        // stateless-from-here-on in favor of a long-starved queued
        // stateful packet. A threshold past the byte-time horizon
        // saturates, so it never fires.
        if let Some(thr) = w.starvation_threshold {
            let starved = fl.pkt.tags.is_empty()
                && pipe.queues[st].oldest_ts().is_some_and(|ts| {
                    let now = w.cycle * w.clen;
                    now.saturating_sub(ts.0) > thr.saturating_mul(w.clen)
                });
            if starved {
                w.report.drops.starvation += 1;
                w.report.count_stage_drop(pl as u16, st as u16);
                if S::ENABLED {
                    tctx.emit(
                        w.sink,
                        EventKind::Drop {
                            pkt: fl.pkt.id,
                            cause: DropCause::Starvation,
                        },
                    );
                }
                if w.stalled(pl, st) {
                    w.report.fault.stall_cycles += 1;
                } else if let Some(queued) = serve_queue(w, pl, st, pipe) {
                    process_flight(w, pl, st, queued, pipe);
                }
                return;
            }
        }
        if S::ENABLED {
            // Invariant 2 in action: the incoming packet takes the
            // slot; `bypassed` flags the case where queued stateful
            // work was waiting.
            let bypassed = !pipe.queues[st].is_empty();
            tctx.emit(
                w.sink,
                EventKind::Execute {
                    pkt: fl.pkt.id,
                    queued: false,
                    bypassed,
                },
            );
        }
        fl
    } else if w.stalled(pl, st) {
        // Injected stall: the stage's scheduler is frozen this cycle.
        // Only count slots where work was actually waiting.
        if !pipe.queues[st].is_empty() {
            w.report.fault.stall_cycles += 1;
        } else if st < 64 {
            pipe.qmask &= !(1 << st);
        }
        return;
    } else if let Some(fl) = serve_queue(w, pl, st, pipe) {
        fl
    } else {
        return;
    };
    process_flight(w, pl, st, fl, pipe);
}

/// Serves one packet from the stage's FIFO, if the scheduler finds a
/// servable head.
fn serve_queue<S: TraceSink>(
    w: &mut Work<'_, S>,
    pl: usize,
    st: usize,
    pipe: &mut Pipe,
) -> Option<Flight> {
    // A truly empty queue's `serve` is a no-op (`pop` scans every lane
    // head twice just to report `Empty`), and most queues are empty
    // most cycles. A queue holding only free stales still counts as
    // occupied, so the drain inside `pop` is preserved. An empty queue
    // also retires its (conservative) occupancy bit here.
    if pipe.queues[st].is_empty() {
        if st < 64 {
            pipe.qmask &= !(1 << st);
        }
        return None;
    }
    let tctx = TraceCtx::new(w.cycle, pl as u16, st as u16);
    match pipe.queues[st].serve(st, w.sink, tctx) {
        Serve::Served(fl) => {
            if S::ENABLED {
                tctx.emit(
                    w.sink,
                    EventKind::Execute {
                        pkt: fl.pkt.id,
                        queued: true,
                        bypassed: false,
                    },
                );
            }
            Some(fl)
        }
        Serve::Wasted => {
            w.report.wasted_cycles += 1;
            None
        }
        Serve::Idle => None,
    }
}

/// Executes the stage's work on the packet its slot scheduled —
/// address resolution at the pipeline head, phantom generation at the
/// end of the prologue, the body stage program elsewhere — and parks it
/// in the stage's lane for the next move phase.
fn process_flight<S: TraceSink>(
    w: &mut Work<'_, S>,
    pl: usize,
    st: usize,
    mut fl: Flight,
    pipe: &mut Pipe,
) {
    let tctx = TraceCtx::new(w.cycle, pl as u16, st as u16);
    if st == 0 && w.prologue > 0 {
        resolve_flight(w, &mut fl, &mut pipe.resolved);
    }
    if w.prologue > 0 && st == w.prologue - 1 && w.phantoms {
        // Phantom generation stage: one phantom per resolved access, in
        // tag order, onto the dedicated channel.
        for tag in &fl.pkt.tags {
            if S::ENABLED {
                tctx.emit(
                    w.sink,
                    EventKind::PhantomEmit {
                        key: tkey(fl.key(tag)),
                        dest_pipeline: tag.pipeline.0,
                        dest_stage: tag.stage.0,
                    },
                );
            }
            w.channel.inject(
                PhantomMsg {
                    key: fl.key(tag),
                    ts: fl.order,
                    dest: tag.pipeline,
                    lane: fl.ingress,
                },
                StageId(st as u16),
                tag.stage,
            );
            w.report.phantoms_generated += 1;
        }
    }
    if st >= w.prologue {
        // The body stage: one lane of the instruction-major kernel over
        // the flight's own fields and this pipeline's register replica.
        let kout = &mut pipe.kout;
        kout.clear();
        w.prog.execute_stage_batch(
            st - w.prologue,
            &[0],
            &[0],
            &mut OneLane(&mut fl.pkt.fields),
            &mut Replica(&mut pipe.regs),
            kout,
        );
        // A read-modify-write reports its index once.
        kout.dedup();
        for a in kout.iter() {
            if S::ENABLED {
                tctx.emit(
                    w.sink,
                    EventKind::Access {
                        pkt: fl.pkt.id,
                        reg: a.reg,
                        index: a.index,
                        order: (fl.order.0, fl.order.1),
                    },
                );
            }
            if w.record_detail {
                w.report
                    .result
                    .access_log
                    .entry((a.reg, a.index))
                    .or_default()
                    .push(fl.pkt.id);
            }
        }
        // Retire this stage's tags. A retired *speculative* tag whose
        // predicate turned out false produced no access: the queue slot
        // it consumed is §3.3's one wasted cycle. Sibling placeholders
        // beyond the first (the slot the data packet occupied) are
        // released now that the accesses have executed; each still
        // costs one pop cycle when reclaimed (§3.3's speculative-false
        // penalty).
        let mut retired_speculative = false;
        let mut first = true;
        while fl.pkt.tags.first().is_some_and(|t| t.stage.index() == st) {
            let tag = fl.pkt.tags.remove(0);
            retired_speculative |= tag.speculative;
            if !first && w.phantoms {
                pipe.queues[st].cancel(fl.key(&tag), false, w.sink, tctx);
            }
            first = false;
            release_inflight(w.inflight, &tag);
        }
        if retired_speculative && kout.is_empty() {
            w.report.wasted_cycles += 1;
        }
    }
    pipe.lanes[st] = Some(fl);
    if st < 64 {
        pipe.park |= 1 << st;
    }
}

/// Releases the in-flight count (the remap guard) a tag holds once its
/// access has executed or its packet was dropped.
fn release_inflight(inflight: &mut [Vec<u32>], tag: &AccessTag) {
    if tag.reg != REG_STAGE_SENTINEL && tag.index != INDEX_ARRAY_LEVEL {
        let c = &mut inflight[tag.reg.index()][tag.index as usize];
        *c = c.saturating_sub(1);
    }
}

/// Runs preemptive address resolution (§3.3) on an arriving packet:
/// computes every index it will access, consults the index-to-pipeline
/// map, tags the packet, and bumps the runtime counters.
fn resolve_flight<S>(w: &mut Work<'_, S>, fl: &mut Flight, resolved: &mut Vec<ResolvedAccess>) {
    w.prog.resolve_into(&mut fl.pkt.fields, resolved);
    // A packet another switch of a fabric forwarded still owns its last
    // hop's (retired, empty) tag list: reuse it.
    let tags = &mut fl.pkt.tags;
    tags.clear();
    tags.reserve_exact(resolved.len());
    for r in resolved.iter() {
        let dest = if r.reg == REG_STAGE_SENTINEL
            || r.index == INDEX_ARRAY_LEVEL
            || !w.prog.regs[r.reg.index()].shardable
        {
            // Pinned arrays and stage-level serialization live on
            // pipeline 0 (§3.3's conservative fallbacks).
            PipelineId(0)
        } else {
            PipelineId(w.index_map[r.reg.index()][r.index as usize])
        };
        if r.reg != REG_STAGE_SENTINEL && r.index != INDEX_ARRAY_LEVEL {
            let (ri, i) = (r.reg.index(), r.index as usize);
            w.access_ctr[ri][i] += 1;
            w.touched[ri].set(i);
            w.inflight[ri][i] += 1;
        }
        tags.push(AccessTag {
            reg: r.reg,
            index: r.index,
            pipeline: dest,
            stage: r.stage,
            speculative: r.speculative,
        });
    }
    debug_assert!(tags.windows(2).all(|p| p[0].stage <= p[1].stage));
}

/// The MP5 multi-pipeline switch.
///
/// Generic over a [`TraceSink`] `S` (default [`NopSink`]): with the
/// default, every emission guard is `if false` after monomorphization
/// and the instrumentation compiles away entirely. Use
/// [`Mp5Switch::with_sink`] to record a run.
///
/// Also generic over a [`FaultInjector`] `F` (default [`NoFaults`]):
/// the same static-dispatch trick makes every fault hook an `if false`
/// under the default, so the fault machinery costs nothing unless a
/// plan is attached via [`Mp5Switch::with_faults`].
#[derive(Debug)]
pub struct Mp5Switch<S: TraceSink = NopSink, F: FaultInjector = NoFaults> {
    cfg: SwitchConfig,
    prog: CompiledProgram,
    k: usize,
    /// Pipelines of the physical chip (clock period = 64·timing_k).
    timing_k: usize,
    stages: usize,
    prologue: usize,
    /// Per-pipeline work-phase state: incoming row, FIFO bank, lanes,
    /// register replica, kernel scratch, occupancy masks.
    pipes: Vec<Pipe>,
    /// index-to-pipeline map, replicated in hardware, one logical copy
    /// here; the remap phase is its only writer.
    index_map: Vec<Vec<u16>>,
    /// Packet access counters per register index (dynamic sharding).
    access_ctr: Vec<Vec<u64>>,
    /// Per register, the indexes whose `access_ctr` moved since the last
    /// reset, so a remap reads and resets only those. Derived from
    /// `access_ctr` (rebuilt on restore, never serialized).
    touched: Vec<Touched>,
    /// In-flight packet counters per register index (remap guard).
    inflight: Vec<Vec<u32>>,
    channel: PhantomChannel<PhantomMsg>,
    /// Reusable buffer for the channel's per-cycle deliveries.
    channel_buf: Vec<(PhantomMsg, StageId)>,
    /// Reusable buffer for one packet's stage keys in
    /// [`Mp5Switch::enqueue_stateful`] (runs per stateful arrival).
    key_scratch: Vec<PhantomKey>,
    crossbars: Vec<Crossbar>,
    /// Phantoms cancelled while still on the channel.
    cancelled: FastSet<PhantomKey>,
    /// Arrived packets waiting for an ingress slot.
    ingress_q: VecDeque<Flight>,
    /// Future arrivals, ascending entry order.
    arrivals: VecDeque<Packet>,
    rr: usize,
    cycle: u64,
    /// The next cycle the sharding heuristic runs at: the smallest
    /// positive multiple of `remap_period` not yet stepped. Derived
    /// from `cycle` (so not checkpointed); it turns the per-cycle
    /// divisibility test into a compare.
    next_remap: u64,
    report: RunReport,
    sink: S,
    /// Deterministic fault schedule (inert [`NoFaults`] by default).
    faults: F,
    /// Per-pipeline liveness: `true` once an injected `PipelineFail`
    /// killed the pipeline. Dead pipelines stop receiving new work
    /// (ingress spray, sharded indexes) but keep draining what is
    /// already inside — C1 for in-flight packets is never broken.
    dead: Vec<bool>,
    /// Dead pipelines whose evacuation-complete event has been emitted.
    evac_done: Vec<bool>,
    /// Indexes evacuated off each pipeline via the D2 path so far.
    evac_counts: Vec<u64>,
    /// Phantoms lost to injected faults, awaiting their data packet
    /// (which re-enters FIFO order via the recovery path).
    lost: FastSet<PhantomKey>,
    /// Steered packets held back by injected crossbar grant delays:
    /// `(ready_cycle, dest pipeline, stage, flight)`, drained in
    /// insertion order once ready.
    pending_grants: VecDeque<(u64, PipelineId, usize, Flight)>,
    /// Packets that exited the final stage, `(packet, exit cycle)` in
    /// completion order. The streaming API's output side: a fabric
    /// calls [`Mp5Switch::drain_egress`] each tick to route them on;
    /// the whole-trace `run` path clears it every cycle so single-switch
    /// memory use is unchanged.
    egress_buf: Vec<(Packet, u64)>,
}

impl Mp5Switch<NopSink> {
    /// Builds an untraced switch running `prog` under `cfg`. Every
    /// pipeline is programmed identically (D1); each register array is
    /// allocated in full in every pipeline, with the index-to-pipeline
    /// map deciding the active copy (D2).
    ///
    /// Panics on a structurally invalid configuration; use
    /// [`Mp5Switch::try_new`] to handle that as a typed
    /// [`ConfigError`].
    pub fn new(prog: CompiledProgram, cfg: SwitchConfig) -> Self {
        Self::with_sink(prog, cfg, NopSink)
    }

    /// Like [`Mp5Switch::new`], but reports a structurally invalid
    /// configuration as a [`ConfigError`] instead of panicking.
    pub fn try_new(prog: CompiledProgram, cfg: SwitchConfig) -> Result<Self, ConfigError> {
        Self::try_with_sink(prog, cfg, NopSink)
    }
}

impl<S: TraceSink> Mp5Switch<S, NoFaults> {
    /// Builds a switch that records every observable action into
    /// `sink`. Semantically identical to [`Mp5Switch::new`]; the sink
    /// only observes. Panics on a structurally invalid configuration
    /// ([`Mp5Switch::try_with_sink`] is the non-panicking form).
    pub fn with_sink(prog: CompiledProgram, cfg: SwitchConfig, sink: S) -> Self {
        match Self::try_with_sink(prog, cfg, sink) {
            Ok(sw) => sw,
            Err(e) => panic!("invalid SwitchConfig: {e}"),
        }
    }

    /// The validating fault-free constructor.
    pub fn try_with_sink(
        prog: CompiledProgram,
        cfg: SwitchConfig,
        sink: S,
    ) -> Result<Self, ConfigError> {
        Mp5Switch::try_with_faults(prog, cfg, sink, NoFaults)
    }
}

impl<S: TraceSink, F: FaultInjector> Mp5Switch<S, F> {
    /// Builds a switch with a deterministic fault schedule attached
    /// (and a trace sink — pass [`NopSink`] for an untraced faulted
    /// run). Panics on a structurally invalid configuration;
    /// [`Mp5Switch::try_with_faults`] is the non-panicking form.
    pub fn with_faults(prog: CompiledProgram, cfg: SwitchConfig, sink: S, faults: F) -> Self {
        match Self::try_with_faults(prog, cfg, sink, faults) {
            Ok(sw) => sw,
            Err(e) => panic!("invalid SwitchConfig: {e}"),
        }
    }

    /// The validating constructor: rejects structurally invalid
    /// configurations (zero pipelines, `physical_pipelines` below the
    /// logical count, a zero remap period) with a typed [`ConfigError`]
    /// instead of silently "fixing" them.
    pub fn try_with_faults(
        prog: CompiledProgram,
        cfg: SwitchConfig,
        sink: S,
        faults: F,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let k = cfg.pipelines;
        let timing_k = cfg.physical_pipelines.unwrap_or(k);
        let stages = prog.num_stages();
        let prologue = prog.resolution.stages;
        let index_map: Vec<Vec<u16>> = prog
            .regs
            .iter()
            .enumerate()
            .map(|(ri, r)| init_map(ri, r, &cfg, k))
            .collect();
        let access_ctr: Vec<Vec<u64>> = prog
            .regs
            .iter()
            .map(|r| vec![0u64; r.size as usize])
            .collect();
        let touched = access_ctr.iter().map(|c| Touched::of(c)).collect();
        let inflight = prog
            .regs
            .iter()
            .map(|r| vec![0u32; r.size as usize])
            .collect();
        let pipes = (0..k).map(|_| Pipe::new(&prog, &cfg)).collect();
        let mut report = RunReport::new();
        report.set_cycle_len(cycle_len(timing_k));
        Ok(Mp5Switch {
            channel: PhantomChannel::new(stages),
            channel_buf: Vec::new(),
            key_scratch: Vec::new(),
            crossbars: (0..stages).map(|_| Crossbar::new(k)).collect(),
            next_remap: cfg.remap_period,
            cfg,
            prog,
            k,
            timing_k,
            stages,
            prologue,
            pipes,
            index_map,
            access_ctr,
            touched,
            inflight,
            cancelled: FastSet::default(),
            ingress_q: VecDeque::new(),
            arrivals: VecDeque::new(),
            rr: 0,
            cycle: 0,
            report,
            sink,
            faults,
            dead: vec![false; k],
            evac_done: vec![false; k],
            evac_counts: vec![0; k],
            lost: FastSet::default(),
            pending_grants: VecDeque::new(),
            egress_buf: Vec::new(),
        })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// The compiled program.
    pub fn program(&self) -> &CompiledProgram {
        &self.prog
    }

    /// Current index-to-pipeline map of a register.
    pub fn index_map(&self, reg: RegId) -> &[u16] {
        &self.index_map[reg.index()]
    }

    /// Runs a full trace to completion and returns the report.
    ///
    /// Panics if the simulation fails to drain within its cycle cap; use
    /// [`Mp5Switch::try_run`] to handle that as a structured
    /// [`InvariantViolation`] instead.
    pub fn run(self, packets: Vec<Packet>) -> RunReport {
        match self.try_run(packets) {
            Ok(report) => report,
            Err(v) => panic!("{v}"),
        }
    }

    /// Like [`Mp5Switch::run`], but also returns the trace sink with
    /// its recorded event stream.
    pub fn run_traced(self, packets: Vec<Packet>) -> (RunReport, S) {
        match self.try_run_traced(packets) {
            Ok(out) => out,
            Err(v) => panic!("{v}"),
        }
    }

    /// Runs a full trace to completion, reporting a structured
    /// [`InvariantViolation`] (instead of panicking) if the switch fails
    /// to drain within its cycle cap — the liveness invariant every
    /// well-formed configuration must uphold.
    pub fn try_run(self, packets: Vec<Packet>) -> Result<RunReport, InvariantViolation> {
        self.try_run_traced(packets).map(|(report, _)| report)
    }

    /// [`Mp5Switch::try_run`] returning the sink alongside the report,
    /// so callers can audit or export the recorded stream. This is the
    /// drain loop behind every `run` variant.
    pub fn try_run_traced(
        mut self,
        mut packets: Vec<Packet>,
    ) -> Result<(RunReport, S), InvariantViolation> {
        packets.sort_by_key(|p| p.entry_order_key());
        self.report.offered = packets.len() as u64;
        self.report.input_duration = packets
            .last()
            .map(|p| p.arrival + mp5_types::BYTES_PER_SLOT)
            .unwrap_or(0);
        self.arrivals = packets.into();
        let clen = cycle_len(self.timing_k);
        let input_cycles = self.report.input_duration / clen + 1;
        let cap = self.cfg.max_cycles.unwrap_or_else(|| {
            input_cycles * (self.k as u64 + 2) * 4 + (self.stages as u64) * 16 + 100_000
        });
        while !self.drained() {
            if self.cycle >= cap {
                return Err(InvariantViolation {
                    cap,
                    ingress: self.ingress_q.len(),
                    in_lanes: self
                        .pipes
                        .iter()
                        .flat_map(|p| &p.lanes)
                        .filter(|l| l.is_some())
                        .count(),
                    queued: self
                        .pipes
                        .iter()
                        .flat_map(|p| &p.queues)
                        .map(|q| q.len())
                        .sum(),
                    channel: self.channel.in_flight(),
                });
            }
            self.step();
            // Whole-trace runs have no egress consumer: drop completions
            // as they happen so the buffer never grows past one cycle.
            self.egress_buf.clear();
        }
        Ok(self.finish())
    }

    // -----------------------------------------------------------------
    // Streaming (incremental) API — the interface a multi-switch fabric
    // drives. Instead of handing the switch a whole trace, the caller
    // `offer`s packets as they become due, `tick`s the switch one cycle
    // at a time in the fabric's global loop, and `drain_egress`es the
    // packets that exited this tick to route them onward. The whole-
    // trace `run` variants are a thin wrapper over the same `step`
    // loop, so the two paths are behaviourally identical.
    // -----------------------------------------------------------------

    /// Offers one packet to the switch's ingress.
    ///
    /// Packets must be offered in ascending [`Packet::entry_order_key`]
    /// order (the fabric maintains a per-switch monotone arrival clock
    /// to guarantee this); a violation is a caller bug and trips a
    /// debug assertion.
    pub fn offer(&mut self, pkt: Packet) {
        debug_assert!(
            self.arrivals
                .back()
                .is_none_or(|b| b.entry_order_key() <= pkt.entry_order_key()),
            "streamed packets must arrive in entry order"
        );
        self.report.offered += 1;
        let end = pkt.arrival + mp5_types::BYTES_PER_SLOT;
        if end > self.report.input_duration {
            self.report.input_duration = end;
        }
        self.arrivals.push_back(pkt);
    }

    /// Advances the switch by one cycle. Completed packets accumulate
    /// in the egress buffer until [`Mp5Switch::drain_egress`].
    pub fn tick(&mut self) {
        self.step();
    }

    /// Takes the packets that exited since the last drain, as
    /// `(packet, exit cycle)` in completion order.
    pub fn drain_egress(&mut self) -> Vec<(Packet, u64)> {
        std::mem::take(&mut self.egress_buf)
    }

    /// Number of offered packets not yet admitted into a pipeline.
    pub fn pending_ingress(&self) -> usize {
        self.arrivals.len() + self.ingress_q.len()
    }

    /// True when nothing is buffered or in flight anywhere inside the
    /// switch — the streaming analogue of the drain condition the
    /// whole-trace loop runs until.
    pub fn is_idle(&self) -> bool {
        self.drained()
    }

    /// The current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Byte-times per cycle of this switch's clock (`64·k` of the
    /// physical chip).
    pub fn cycle_len(&self) -> Time {
        cycle_len(self.timing_k)
    }

    /// The byte-time the current cycle ends at, `(cycle + 1)·cycle_len`:
    /// the next [`Mp5Switch::tick`] admits every arrival due before it.
    pub fn horizon(&self) -> Time {
        (self.cycle + 1) * self.cycle_len()
    }

    /// The last offered packet not yet admitted (the tail of the
    /// arrival queue), if any.
    pub fn last_arrival(&self) -> Option<&Packet> {
        self.arrivals.back()
    }

    /// Read access to the in-progress report (offered/completed/drop
    /// counters are live; end-of-run aggregates are filled by
    /// [`Mp5Switch::finish_stream`]). A fabric uses this for resident
    /// accounting: `offered - completed - drops` packets are still
    /// inside the switch.
    pub fn live_report(&self) -> &RunReport {
        &self.report
    }

    /// Finalizes a streamed run: fills the report's end-of-run
    /// aggregates (final register state, queue statistics, cycle count)
    /// and returns it with the sink. The streaming counterpart of the
    /// tail of [`Mp5Switch::try_run_traced`].
    pub fn finish_stream(self) -> (RunReport, S) {
        self.finish()
    }

    fn drained(&self) -> bool {
        self.arrivals.is_empty()
            && self.ingress_q.is_empty()
            && self.channel.in_flight() == 0
            && self.pending_grants.is_empty()
            && self.pipes.iter().all(|p| {
                p.lanes.iter().all(|l| l.is_none()) && p.queues.iter().all(|q| q.is_empty())
            })
    }

    /// Simulates one pipeline cycle.
    fn step(&mut self) {
        // 0. Fault schedule: fire due faults, classify them for the
        // recovery accounting, advance degradation state (compiled out
        // under the default `NoFaults`).
        if F::ENABLED {
            self.begin_faults();
        }

        // 1. Background dynamic sharding.
        if self.cycle == self.next_remap {
            self.next_remap = self.cycle.saturating_add(self.cfg.remap_period);
            self.remap();
        }

        // 2. Phantom channel advances one hop; deliveries enter FIFOs.
        let mut deliveries = std::mem::take(&mut self.channel_buf);
        self.channel.advance_into(&mut deliveries);
        for (msg, stage) in deliveries.drain(..) {
            let ctx = TraceCtx::new(self.cycle, msg.dest.0, stage.0);
            if self.cancelled.remove(&msg.key) {
                if S::ENABLED {
                    ctx.emit(
                        &mut self.sink,
                        EventKind::PhantomChannelCancel { key: tkey(msg.key) },
                    );
                }
                continue;
            }
            if F::ENABLED && self.phantom_faulted(&msg, stage.0, ctx) {
                continue;
            }
            let pipe = &mut self.pipes[msg.dest.index()];
            let ok = pipe.queues[stage.index()].push_phantom(
                msg.key,
                msg.ts,
                msg.lane,
                &mut self.sink,
                ctx,
            );
            if ok && stage.index() < 64 {
                pipe.qmask |= 1 << stage.index();
            }
            if !ok {
                self.report.drops.phantom_fifo_full += 1;
                self.report.count_stage_drop(msg.dest.0, stage.0);
            }
        }
        self.channel_buf = deliveries;

        // 2b. Injected crossbar grant delays: release held steered
        // packets whose delay has elapsed, in the order they were held.
        if F::ENABLED && !self.pending_grants.is_empty() {
            let pending = std::mem::take(&mut self.pending_grants);
            for (ready, dest, st, fl) in pending {
                if ready <= self.cycle {
                    self.enqueue_stateful(dest, st, fl);
                } else {
                    self.pending_grants.push_back((ready, dest, st, fl));
                }
            }
        }

        // 3. Move phase: all stage occupants advance simultaneously,
        // into the incoming rows the work phase emptied last cycle.
        debug_assert!(self
            .pipes
            .iter()
            .all(|p| p.inc_row.iter().all(|s| s.is_none())));
        self.move_phase();
        // One statistics tick per crossbar per simulated cycle.
        self.crossbars.iter_mut().for_each(|x| x.end_cycle());

        // 3b. Ingress: spray eligible arrivals over pipelines.
        let now_end = self.horizon();
        while self.arrivals.front().is_some_and(|p| p.arrival < now_end) {
            let Some(pkt) = self.arrivals.pop_front() else {
                break; // unreachable: `front()` was just checked
            };
            let order = OrderKey(pkt.arrival, pkt.port.0 as u64);
            self.ingress_q.push_back(Box::new(FlightState {
                pkt,
                order,
                ingress: PipelineId(0), // assigned at admission
            }));
        }
        let admit_limit = match self.cfg.spray {
            SprayMode::RoundRobin => self.k,
            SprayMode::SinglePipeline(_) => 1,
        };
        for _ in 0..admit_limit {
            if self.ingress_q.is_empty() {
                break;
            }
            let pl = match self.cfg.spray {
                SprayMode::RoundRobin => {
                    let pl = self.rr;
                    self.rr = if pl + 1 == self.k { 0 } else { pl + 1 };
                    pl
                }
                SprayMode::SinglePipeline(p) => p,
            };
            if F::ENABLED && self.dead[pl] {
                // Dead pipelines take no new packets: the spray narrows
                // to the survivors (throughput degrades by ~k/(k-1) per
                // lost pipeline, the graceful-degradation bound).
                continue;
            }
            if self.pipes[pl].inc_row[0].is_some() {
                continue;
            }
            let Some(mut fl) = self.ingress_q.pop_front() else {
                break; // unreachable: emptiness was checked above
            };
            fl.ingress = PipelineId(pl as u16);
            if S::ENABLED {
                TraceCtx::new(self.cycle, pl as u16, 0).emit(
                    &mut self.sink,
                    EventKind::Ingress {
                        pkt: fl.pkt.id,
                        order: (fl.order.0, fl.order.1),
                    },
                );
            }
            let pipe = &mut self.pipes[pl];
            pipe.inc_row[0] = Some(fl);
            pipe.inc |= 1;
        }

        // 4. Admit/work phase: each (pipeline, stage) processes at most
        // one packet; incoming pass-through has priority (Invariant 2).
        self.work_phase();

        self.cycle += 1;
    }

    /// The move phase: every stage occupant advances, pipelines
    /// ascending, stages descending — the order the event stream and
    /// `RunReport` are defined by. For programs of ≤ 64 stages it drains
    /// the park mask (filled by last cycle's work pass) highest bit
    /// first, which visits exactly the occupied lane slots in that
    /// order; wider programs scan every slot.
    fn move_phase(&mut self) {
        for pl in 0..self.k {
            if self.stages <= 64 {
                let mut mask = std::mem::take(&mut self.pipes[pl].park);
                while mask != 0 {
                    let st = 63 - mask.leading_zeros() as usize;
                    mask ^= 1 << st;
                    let fl = self.pipes[pl].lanes[st]
                        .take()
                        .expect("park mask bit set on an empty lane slot");
                    self.advance(pl, st, fl);
                }
                debug_assert!(
                    self.pipes[pl].lanes.iter().all(|s| s.is_none()),
                    "parked flight missing from the park mask"
                );
            } else {
                for st in (0..self.stages).rev() {
                    if let Some(fl) = self.pipes[pl].lanes[st].take() {
                        self.advance(pl, st, fl);
                    }
                }
            }
        }
    }

    /// What the occupant of `(pl, st)` does this cycle: exit the final
    /// stage, cross the crossbar to the stage it is tagged for, or
    /// advance to the next stage of its own pipeline.
    fn advance(&mut self, pl: usize, st: usize, fl: Flight) {
        let next = st + 1;
        if next == self.stages {
            self.complete(pl, fl);
            return;
        }
        let dest = match fl.pkt.tags.first() {
            Some(t) if t.stage.index() == next => t.pipeline,
            _ => {
                let pipe = &mut self.pipes[pl];
                pipe.inc_row[next] = Some(fl);
                if next < 64 {
                    pipe.inc |= 1 << next;
                }
                return;
            }
        };
        self.crossbars[next].route_traced(
            PipelineId(pl as u16),
            dest,
            &mut self.sink,
            TraceCtx::new(self.cycle, pl as u16, next as u16),
        );
        if dest.index() != pl {
            self.report.steered += 1;
            if F::ENABLED {
                let delay = self.faults.grant_delay();
                if delay > 0 {
                    // Injected grant latency: the crossbar holds the
                    // steered packet; its phantom keeps its place in
                    // the serial order.
                    self.report.fault.delayed_grants += 1;
                    self.pending_grants
                        .push_back((self.cycle + delay, dest, next, fl));
                    return;
                }
            }
        }
        self.enqueue_stateful(dest, next, fl);
    }

    /// The work phase: every pipeline's pass, ascending, over a `Work`
    /// that borrows the shared state beside `pipes`, so each effect is
    /// written where it lands, in the order the stream is defined by.
    fn work_phase(&mut self) {
        let mut w = Work {
            prog: &self.prog,
            index_map: &self.index_map,
            phantoms: self.cfg.phantoms,
            starvation_threshold: self.cfg.starvation_threshold,
            clen: cycle_len(self.timing_k),
            cycle: self.cycle,
            prologue: self.prologue,
            stalls: self.faults.active_stalls(),
            record_detail: self.cfg.record_detail,
            access_ctr: &mut self.access_ctr,
            touched: &mut self.touched,
            inflight: &mut self.inflight,
            channel: &mut self.channel,
            report: &mut self.report,
            sink: &mut self.sink,
        };
        for (pl, pipe) in self.pipes.iter_mut().enumerate() {
            work_pipeline(&mut w, pl, pipe);
        }
    }

    /// A data packet arrives at the stateful stage it is tagged for:
    /// replace its phantom (or queue directly when phantoms are off).
    fn enqueue_stateful(&mut self, dest: PipelineId, st: usize, mut fl: Flight) {
        let pipe = &mut self.pipes[dest.index()];
        // Conservative: set before knowing whether the enqueue sticks —
        // a spurious bit costs one lazy clear at the next sweep.
        if st < 64 {
            pipe.qmask |= 1 << st;
        }
        let queue = &mut pipe.queues[st];
        // ECN-inspired backpressure (§3.4): mark the packet if the queue
        // it joins has built past the threshold.
        if let Some(thr) = self.cfg.ecn_threshold {
            if queue.len() > thr {
                fl.pkt.ecn = true;
            }
        }
        let ctx = TraceCtx::new(self.cycle, dest.0, st as u16);
        if !self.cfg.phantoms {
            // no-D4 ablation: queue in arrival-at-stage order.
            let ts = OrderKey(self.cycle, fl.ingress.0 as u64);
            let lane = fl.ingress;
            if let Err(fl) = queue.push_data(fl, ts, lane, &mut self.sink, ctx) {
                self.report.drops.data_fifo_full += 1;
                self.report.count_stage_drop(dest.0, st as u16);
                if S::ENABLED {
                    ctx.emit(
                        &mut self.sink,
                        EventKind::Drop {
                            pkt: fl.pkt.id,
                            cause: DropCause::FifoFull,
                        },
                    );
                }
                self.drop_remaining(fl, st);
            }
            return;
        }
        // All tags for this stage (possibly several: speculative
        // branches or overlapping exact plans), collected into a
        // reusable scratch — this runs once per stateful arrival.
        let mut keys = std::mem::take(&mut self.key_scratch);
        keys.clear();
        keys.extend(
            fl.pkt
                .tags
                .iter()
                .take_while(|t| t.stage.index() == st)
                .map(|t| fl.key(t)),
        );
        debug_assert!(!keys.is_empty());
        if F::ENABLED && !self.lost.is_empty() && self.lost.remove(&keys[0]) {
            // Injected-fault recovery: the phantom never reached this
            // FIFO, but the loss was recorded, so the data packet
            // re-enters the serial order directly at its original
            // entry-order key — exactly the slot its phantom would have
            // frozen, so C1 is preserved (older queued phantoms still
            // block it; see `LogicalFifo::push_recovered`).
            let ts = fl.order;
            for k in &keys[1..] {
                self.lost.remove(k); // siblings ride in with the data
            }
            self.report.fault.phantoms_recovered += 1;
            queue.push_recovered(keys[0], fl, ts, &mut self.sink, ctx);
            self.key_scratch = keys;
            return;
        }
        match queue.insert_data(keys[0], fl, &mut self.sink, ctx) {
            Ok(()) => {
                // Sibling phantoms (speculative branches / overlapping
                // plans) stay in place: they keep blocking their index
                // until this packet is actually served and performs the
                // accesses, and are reclaimed then (see `process`).
                // Cancelling them here would let a later packet overtake
                // the not-yet-executed access in per-index scheduling.
                if F::ENABLED && !self.lost.is_empty() {
                    for k in &keys[1..] {
                        self.lost.remove(k); // lost siblings need no recovery
                    }
                }
            }
            Err(fl) => {
                // Phantom was dropped upstream: the drop cascades.
                self.report.drops.data_no_phantom += 1;
                self.report.count_stage_drop(dest.0, st as u16);
                if S::ENABLED {
                    ctx.emit(
                        &mut self.sink,
                        EventKind::Drop {
                            pkt: fl.pkt.id,
                            cause: DropCause::NoPhantom,
                        },
                    );
                }
                for &k in &keys[1..] {
                    queue.cancel(k, true, &mut self.sink, ctx);
                }
                self.drop_remaining(fl, st);
            }
        }
        self.key_scratch = keys;
    }

    /// Cleans up after dropping a data packet at stage `st`: cancel all
    /// of its not-yet-consumed phantoms (in FIFOs or still on the
    /// channel) and release its in-flight counters. Takes the handle so
    /// the packet is freed here, not in the enqueue path.
    #[allow(clippy::boxed_local)]
    fn drop_remaining(&mut self, fl: Flight, st: usize) {
        for tag in &fl.pkt.tags {
            release_inflight(&mut self.inflight, tag);
            if tag.stage.index() <= st {
                continue; // this stage's keys were handled by the caller
            }
            let key = fl.key(tag);
            if F::ENABLED && !self.lost.is_empty() && self.lost.remove(&key) {
                // The phantom was already lost to a fault: there is
                // nothing left to cancel anywhere.
                continue;
            }
            let ctx = TraceCtx::new(self.cycle, tag.pipeline.0, tag.stage.0);
            if !self.pipes[tag.pipeline.index()].queues[tag.stage.index()].cancel(
                key,
                true,
                &mut self.sink,
                ctx,
            ) {
                // Still on the channel: discard at delivery.
                self.cancelled.insert(key);
            }
        }
    }

    /// Fires the fault schedule's due faults at the top of a cycle:
    /// classifies each for the recovery accounting (`injected ==
    /// recovered + degraded` by construction), emits `FaultInjected`
    /// trace events, marks killed pipelines dead, and advances the
    /// degradation machinery. Only called when `F::ENABLED`.
    fn begin_faults(&mut self) {
        for fired in self.faults.begin_cycle(self.cycle) {
            self.report.fault.injected += 1;
            match fired.kind.class() {
                FaultClass::Recovered => self.report.fault.recovered += 1,
                FaultClass::Degraded => self.report.fault.degraded += 1,
            }
            if S::ENABLED {
                TraceCtx::new(self.cycle, NO_LOC, NO_LOC).emit(
                    &mut self.sink,
                    EventKind::FaultInjected {
                        code: fired.kind.code(),
                        param: fired.kind.param(),
                    },
                );
            }
            if let FaultKind::PipelineFail { pipeline } = fired.kind {
                let p = pipeline as usize;
                if p < self.k && !self.dead[p] {
                    self.dead[p] = true;
                    self.report.fault.dead_pipelines.push(pipeline);
                }
            }
        }
        if self.dead.iter().any(|&d| d) {
            self.report.fault.degraded_cycles += 1;
            self.evacuate_dead(false);
        }
    }

    /// Applies injected phantom faults to a delivery coming off the
    /// channel. Returns `true` when the phantom was consumed by a fault
    /// (recoverable loss, silent loss, or forced FIFO overflow) and
    /// must not be enqueued.
    fn phantom_faulted(&mut self, msg: &PhantomMsg, stage: u16, ctx: TraceCtx) -> bool {
        match self.faults.phantom_fate(fault_key_hash(&msg.key)) {
            PhantomFate::Keep => {}
            PhantomFate::DropRecoverable => {
                // Recorded loss: the data packet re-enters FIFO order
                // via the recovery path when it arrives.
                self.lost.insert(msg.key);
                self.report.fault.phantoms_dropped += 1;
                if S::ENABLED {
                    ctx.emit(
                        &mut self.sink,
                        EventKind::FaultPhantomLost { key: tkey(msg.key) },
                    );
                }
                return true;
            }
            PhantomFate::DropSilent => {
                // Deliberately unrecorded loss: the auditor's negative
                // control. The data packet takes the orphan path and the
                // offline audit must flag the stream.
                self.report.fault.phantoms_dropped += 1;
                return true;
            }
        }
        if self.faults.fifo_overflow(msg.dest.0, stage) {
            // Forced overflow pressure: the FIFO behaves as if full,
            // but the loss is recorded and recovered like a dropped
            // phantom (the paper's overflow handling keeps C1 by
            // conservative re-serialization of the data packet).
            self.lost.insert(msg.key);
            self.report.fault.phantoms_dropped += 1;
            if S::ENABLED {
                ctx.emit(
                    &mut self.sink,
                    EventKind::FaultPhantomLost { key: tkey(msg.key) },
                );
            }
            return true;
        }
        false
    }

    /// Moves sharded indexes off dead pipelines onto the least-loaded
    /// survivor via the D2 remap path (same atomic state movement, same
    /// `RemapMove` evidence). Respects the in-flight guard unless
    /// `force` — the end-of-run sweep, when nothing is in flight by
    /// construction — and emits `PipelineEvacuated` once a dead
    /// pipeline no longer owns any index.
    fn evacuate_dead(&mut self, force: bool) {
        if !self.dead.iter().any(|&d| d) {
            return;
        }
        for ri in 0..self.prog.regs.len() {
            if !self.prog.regs[ri].shardable {
                continue;
            }
            // Survivor loads for this register, by mapped-index count.
            let mut loads = vec![0u64; self.k];
            for &pl in self.index_map[ri].iter() {
                if (pl as usize) < self.k {
                    loads[pl as usize] += 1;
                }
            }
            for idx in 0..self.index_map[ri].len() {
                let from = self.index_map[ri][idx] as usize;
                if from >= self.k || !self.dead[from] {
                    continue;
                }
                if !force && self.inflight[ri][idx] > 0 {
                    continue; // in-flight guard: move once quiesced
                }
                // Least-loaded alive pipeline; smallest id on ties.
                let Some(to) = (0..self.k)
                    .filter(|&p| !self.dead[p])
                    .min_by_key(|&p| (loads[p], p))
                else {
                    return; // every pipeline is dead: nowhere to go
                };
                loads[from] = loads[from].saturating_sub(1);
                loads[to] += 1;
                self.apply_move(ri, shard::Move { index: idx, to });
                self.evac_counts[from] += 1;
                self.report.fault.evacuated_indexes += 1;
            }
        }
        // Announce each dead pipeline once it owns nothing.
        for p in 0..self.k {
            if !self.dead[p] || self.evac_done[p] {
                continue;
            }
            let clean = (0..self.prog.regs.len())
                .filter(|&ri| self.prog.regs[ri].shardable)
                .all(|ri| self.index_map[ri].iter().all(|&pl| pl as usize != p));
            if clean {
                self.evac_done[p] = true;
                if S::ENABLED {
                    TraceCtx::new(self.cycle, p as u16, NO_LOC).emit(
                        &mut self.sink,
                        EventKind::PipelineEvacuated {
                            pipeline: p as u16,
                            indexes: self.evac_counts[p],
                        },
                    );
                }
            }
        }
    }

    /// A packet exits the final stage. Takes the handle, not the
    /// flight: the packet moves out of the box without copying the rest.
    #[allow(clippy::boxed_local)]
    fn complete(&mut self, pl: usize, fl: Flight) {
        if S::ENABLED {
            TraceCtx::new(self.cycle, pl as u16, (self.stages - 1) as u16)
                .emit(&mut self.sink, EventKind::Egress { pkt: fl.pkt.id });
        }
        debug_assert!(
            fl.pkt.tags.is_empty(),
            "packet exited with unvisited tags: {:?}",
            fl.pkt.tags
        );
        if self.cfg.record_detail {
            self.report.result.outputs.insert(
                fl.pkt.id,
                fl.pkt.fields[..self.prog.declared_fields].to_vec(),
            );
            self.report.completions.push((fl.pkt.id, self.cycle));
        }
        self.report.completed += 1;
        if fl.pkt.ecn {
            self.report.ecn_marked += 1;
        }
        self.egress_buf.push((fl.pkt, self.cycle));
    }

    /// Background dynamic sharding (Figure 6 / LPT), with the in-flight
    /// guard and atomic state movement.
    fn remap(&mut self) {
        if F::ENABLED && self.faults.take_remap_abort() {
            // Injected control-plane failure: this remap round never
            // happens. Harmless by design — sharding is a performance
            // optimization, not a correctness mechanism.
            self.report.fault.aborted_remaps += 1;
            return;
        }
        for ri in 0..self.prog.regs.len() {
            if !self.prog.regs[ri].shardable {
                continue;
            }
            match self.cfg.sharding {
                ShardingMode::Dynamic => {
                    // Figure 6 over the indexes this period touched,
                    // whose counters then reset (§3.4).
                    if let Some(mv) = self.touched[ri].remap(
                        &self.index_map[ri],
                        &mut self.access_ctr[ri],
                        &self.inflight[ri],
                        self.k,
                    ) {
                        // Never shard onto a dead pipeline.
                        if !(F::ENABLED && self.dead[mv.to]) {
                            self.apply_move(ri, mv);
                        }
                    }
                }
                ShardingMode::IdealPeriodic => {
                    // Ideal re-sharding: the Figure 6 balancer iterated
                    // to a fixed point over *cumulative* counters (no
                    // per-window reset). Per-window samples are noise at
                    // this granularity, and chasing them costs more
                    // throughput than it recovers; cumulative loads make
                    // the fixed point stable, so a balanced map is left
                    // untouched.
                    for mv in shard::remap_to_fixpoint(
                        &self.index_map[ri],
                        &self.access_ctr[ri],
                        &self.inflight[ri],
                        self.k,
                        64,
                    ) {
                        if F::ENABLED && self.dead[mv.to] {
                            continue; // never shard onto a dead pipeline
                        }
                        self.apply_move(ri, mv);
                    }
                }
                ShardingMode::Static | ShardingMode::Pinned => {}
            }
        }
    }

    fn apply_move(&mut self, reg: usize, mv: shard::Move) {
        let map = &mut self.index_map;
        let from = map[reg][mv.index] as usize;
        let value = self.pipes[from].regs[reg][mv.index];
        self.pipes[mv.to].regs[reg][mv.index] = value;
        map[reg][mv.index] = mv.to as u16;
        if S::ENABLED {
            TraceCtx::new(self.cycle, NO_LOC, NO_LOC).emit(
                &mut self.sink,
                EventKind::RemapMove {
                    reg: RegId(reg as u16),
                    index: mv.index as u32,
                    from: from as u16,
                    to: mv.to as u16,
                },
            );
        }
        self.report.remap_moves += 1;
    }

    /// Finalizes the report: aggregate the active register copies into
    /// the logical final state, collect queue statistics.
    fn finish(mut self) -> (RunReport, S) {
        if F::ENABLED {
            // End-of-run sweep: the switch has drained, so every
            // in-flight guard is released and any index still pinned to
            // a dead pipeline moves now. The post-run index map never
            // references a dead pipeline.
            self.evacuate_dead(true);
            self.report.fault.dead_pipelines.sort_unstable();
        }
        let mut final_regs = Vec::with_capacity(self.prog.regs.len());
        for (ri, meta) in self.prog.regs.iter().enumerate() {
            let mut arr = Vec::with_capacity(meta.size as usize);
            for idx in 0..meta.size as usize {
                let pl = if meta.shardable {
                    self.index_map[ri][idx] as usize
                } else {
                    0
                };
                arr.push(self.pipes[pl].regs[ri][idx]);
            }
            final_regs.push(arr);
        }
        self.report.result.final_regs = final_regs;
        self.report.result.processed = self.report.completed;
        self.report.cycles = self.cycle;
        self.report.max_queue_depth = self
            .pipes
            .iter()
            .flat_map(|p| &p.queues)
            .map(|q| q.max_occupancy())
            .max()
            .unwrap_or(0);
        (self.report, self.sink)
    }
}

// ------------------------------------------------------------------
// Checkpoint / restore / hot swap (the serialized form: crate::state)
// ------------------------------------------------------------------

impl StageQueue {
    /// The queue's FIFOs: the logical one, or each per-index sub-queue.
    fn fifos(&self) -> impl Iterator<Item = &LogicalFifo<Flight>> {
        let (one, subs) = match self {
            StageQueue::Logical(f) => (Some(f), None),
            StageQueue::PerIndex { subs, .. } => (None, Some(subs.values())),
        };
        one.into_iter().chain(subs.into_iter().flatten())
    }

    /// The queue's explicit state for a checkpoint.
    fn snapshot(&self) -> QueueSnap {
        match self {
            StageQueue::Logical(f) => QueueSnap::Logical(f.snapshot_parts()),
            StageQueue::PerIndex {
                subs,
                max_total,
                capacity,
            } => QueueSnap::PerIndex {
                subs: subs.iter().map(|(i, f)| (*i, f.snapshot_parts())).collect(),
                max_total: *max_total,
                capacity: *capacity,
            },
        }
    }

    /// Rebuilds a checkpointed queue in `cfg`'s layout. Each per-index
    /// sub-queue must hold only its own index's phantoms: a packet looks
    /// for its phantom in the sub-queue of that index and nowhere else.
    fn restore(q: QueueSnap, cfg: &SwitchConfig) -> Result<Self, RestoreError> {
        use RestoreError::Incompatible;
        let fifo = |parts: mp5_fabric::FifoParts<Flight>, lanes: usize| {
            if parts.lanes.len() != lanes {
                let got = parts.lanes.len();
                return Err(Incompatible(format!(
                    "a FIFO has {got} lanes, expected {lanes}"
                )));
            }
            LogicalFifo::from_parts(parts).map_err(Incompatible)
        };
        match (q, cfg.per_index_fifos) {
            (QueueSnap::Logical(f), false) => Ok(StageQueue::Logical(fifo(f, cfg.pipelines)?)),
            (
                QueueSnap::PerIndex {
                    subs,
                    max_total,
                    capacity,
                },
                true,
            ) => {
                let mut fifos = std::collections::BTreeMap::new();
                for (i, f) in subs {
                    let f = fifo(f, 1)?;
                    if f.iter_entries()
                        .any(|e| matches!(e, Entry::Phantom { key, .. } if key.index != i))
                    {
                        return Err(Incompatible(format!(
                            "sub-queue {i} holds another index's phantom"
                        )));
                    }
                    fifos.insert(i, f);
                }
                Ok(StageQueue::PerIndex {
                    subs: fifos,
                    max_total,
                    capacity,
                })
            }
            (QueueSnap::Logical(_), true) => Err(Incompatible(
                "logical-FIFO snapshot cannot restore into a per-index configuration".into(),
            )),
            (QueueSnap::PerIndex { .. }, false) => Err(Incompatible(
                "per-index snapshot cannot restore into a logical-FIFO configuration".into(),
            )),
        }
    }
}

/// The report with its three maps written as sorted vectors.
fn snap_report(r: &RunReport) -> ReportSnap {
    let mut outputs: Vec<(PacketId, Vec<Value>)> = r
        .result
        .outputs
        .iter()
        .map(|(k, v)| (*k, v.clone()))
        .collect();
    outputs.sort_unstable_by_key(|(k, _)| *k);
    let mut access_log: Vec<(RegId, u32, Vec<PacketId>)> = r
        .result
        .access_log
        .iter()
        .map(|(&(reg, idx), v)| (reg, idx, v.clone()))
        .collect();
    access_log.sort_unstable_by_key(|&(reg, idx, _)| (reg, idx));
    ReportSnap {
        result: ResultSnap {
            final_regs: r.result.final_regs.clone(),
            outputs,
            access_log,
            processed: r.result.processed,
        },
        offered: r.offered,
        completed: r.completed,
        drops: r.drops,
        cycles: r.cycles,
        input_duration: r.input_duration,
        completions: r.completions.clone(),
        max_queue_depth: r.max_queue_depth,
        steered: r.steered,
        phantoms_generated: r.phantoms_generated,
        wasted_cycles: r.wasted_cycles,
        remap_moves: r.remap_moves,
        ecn_marked: r.ecn_marked,
        cycle_len: r.cycle_len,
        stage_drops: r
            .stage_drops
            .iter()
            .map(|(&(p, s), &n)| (p, s, n))
            .collect(),
        fault: r.fault.clone(),
    }
}

/// The report back from its serialized form.
fn unsnap_report(s: ReportSnap) -> RunReport {
    let access_log = s.result.access_log.into_iter();
    RunReport {
        result: RunResult {
            final_regs: s.result.final_regs,
            outputs: s.result.outputs.into_iter().collect(),
            access_log: access_log.map(|(reg, idx, v)| ((reg, idx), v)).collect(),
            processed: s.result.processed,
        },
        offered: s.offered,
        completed: s.completed,
        drops: s.drops,
        cycles: s.cycles,
        input_duration: s.input_duration,
        completions: s.completions,
        max_queue_depth: s.max_queue_depth,
        steered: s.steered,
        phantoms_generated: s.phantoms_generated,
        wasted_cycles: s.wasted_cycles,
        remap_moves: s.remap_moves,
        ecn_marked: s.ecn_marked,
        cycle_len: s.cycle_len,
        stage_drops: s
            .stage_drops
            .into_iter()
            .map(|(p, q, n)| ((p, q), n))
            .collect(),
        fault: s.fault,
    }
}

impl<S: TraceSink, F: FaultInjector> Mp5Switch<S, F> {
    /// Captures the complete live state at the current cycle boundary.
    ///
    /// Must be called **between** `tick()` calls — every per-cycle
    /// scratch buffer is empty then, so [`SwitchState`] plus the
    /// program and configuration fully determine the rest of the run:
    /// a switch rebuilt via [`Mp5Switch::try_restore_with`] continues
    /// **bit-identically** (same `RunReport`, same traced
    /// `stream_hash`).
    ///
    /// Emits a `SnapshotTaken` lifecycle event (traced runs only);
    /// lifecycle events are excluded from `stream_hash` and ignored by
    /// the auditor, so checkpointing never perturbs the evidence chain.
    pub fn extract_state(&mut self, seq: u64) -> SwitchState {
        if S::ENABLED {
            TraceCtx::new(self.cycle, NO_LOC, NO_LOC)
                .emit(&mut self.sink, EventKind::SnapshotTaken { seq });
        }
        let sorted = |keys: &FastSet<PhantomKey>| {
            let mut keys: Vec<PhantomKey> = keys.iter().copied().collect();
            keys.sort_unstable();
            keys
        };
        SwitchState {
            cycle: self.cycle,
            rr: self.rr,
            regs: self.pipes.iter().map(|p| p.regs.clone()).collect(),
            index_map: self.index_map.clone(),
            access_ctr: self.access_ctr.clone(),
            inflight: self.inflight.clone(),
            queues: self
                .pipes
                .iter()
                .map(|p| p.queues.iter().map(StageQueue::snapshot).collect())
                .collect(),
            lanes: self.pipes.iter().map(|p| p.lanes.clone()).collect(),
            channel: ChannelSnap {
                stages: self.channel.stages(),
                max_in_flight: self.channel.max_in_flight(),
                delivered: self.channel.delivered(),
                flights: self
                    .channel
                    .flights()
                    .map(|(msg, at, dest_stage)| ChannelFlightSnap {
                        key: msg.key,
                        ts: msg.ts,
                        dest: msg.dest,
                        lane: msg.lane,
                        at,
                        dest_stage,
                    })
                    .collect(),
            },
            crossbars: self
                .crossbars
                .iter()
                .map(|x| {
                    let (routed, steer_cycles) = x.snapshot();
                    XbarSnap {
                        routed,
                        steer_cycles,
                    }
                })
                .collect(),
            cancelled: sorted(&self.cancelled),
            lost: sorted(&self.lost),
            ingress_q: self.ingress_q.iter().cloned().collect(),
            arrivals: self.arrivals.iter().cloned().collect(),
            pending_grants: self.pending_grants.iter().cloned().collect(),
            egress_buf: self.egress_buf.clone(),
            dead: self.dead.clone(),
            evac_done: self.evac_done.clone(),
            evac_counts: self.evac_counts.clone(),
            report: snap_report(&self.report),
        }
    }

    /// Builds a fresh switch and injects a checkpointed state into it:
    /// the crash-recovery constructor.
    ///
    /// `prog` and `cfg` must match the checkpointed run's (the snapshot
    /// carries opaque register values and stage-resolved tags, so the
    /// shapes must line up; mismatches are rejected as
    /// [`RestoreError::Incompatible`]).
    ///
    /// Emits a `Restored` lifecycle event (traced runs only).
    pub fn try_restore_with(
        prog: CompiledProgram,
        cfg: SwitchConfig,
        state: SwitchState,
        sink: S,
        faults: F,
    ) -> Result<Self, RestoreError> {
        let mut sw = Self::try_with_faults(prog, cfg, sink, faults)?;
        sw.inject_state(state)?;
        Ok(sw)
    }

    /// Replaces this freshly built switch's state with a checkpointed
    /// one. Validates every shape and [the content](Self::check_content)
    /// against the program/configuration the switch was built with
    /// before touching anything.
    fn inject_state(&mut self, state: SwitchState) -> Result<(), RestoreError> {
        let k = self.k;
        let incompat = |why: String| Err(RestoreError::Incompatible(why));
        if state.regs.len() != k {
            return incompat(format!(
                "snapshot has {} pipelines, switch has {k}",
                state.regs.len()
            ));
        }
        for (pl, regs) in state.regs.iter().enumerate() {
            if regs.len() != self.prog.regs.len() {
                return incompat(format!(
                    "pipeline {pl}: snapshot has {} registers, program declares {}",
                    regs.len(),
                    self.prog.regs.len()
                ));
            }
            for (ri, arr) in regs.iter().enumerate() {
                if arr.len() != self.prog.regs[ri].size as usize {
                    return incompat(format!(
                        "register {ri}: snapshot size {} != program size {}",
                        arr.len(),
                        self.prog.regs[ri].size
                    ));
                }
            }
        }
        if state.index_map.len() != self.prog.regs.len()
            || state
                .index_map
                .iter()
                .zip(&self.prog.regs)
                .any(|(m, r)| m.len() != r.size as usize)
        {
            return incompat("index map shape does not match the program's registers".into());
        }
        let sizes = || self.prog.regs.iter().map(|r| r.size as usize);
        if !state.access_ctr.iter().map(Vec::len).eq(sizes())
            || !state.inflight.iter().map(Vec::len).eq(sizes())
        {
            return incompat("counter shape does not match the program's registers".into());
        }
        if state.queues.len() != k || state.queues.iter().any(|row| row.len() != self.stages) {
            return incompat(format!(
                "queue bank is not {k}x{} (pipelines x stages)",
                self.stages
            ));
        }
        if state.lanes.len() != k || state.lanes.iter().any(|row| row.len() != self.stages) {
            return incompat(format!(
                "lane grid is not {k}x{} (pipelines x stages)",
                self.stages
            ));
        }
        if state.channel.stages != self.stages {
            return incompat(format!(
                "channel spans {} stages, program has {}",
                state.channel.stages, self.stages
            ));
        }
        if state.crossbars.len() != self.stages
            || state.crossbars.iter().any(|x| x.routed.len() != k * k)
        {
            return incompat("crossbar statistics are not stages x (k*k)".into());
        }
        for field in [
            state.dead.len(),
            state.evac_done.len(),
            state.evac_counts.len(),
        ] {
            if field != k {
                return incompat("per-pipeline vector length does not match".into());
            }
        }
        if state.rr >= k {
            return incompat(format!(
                "round-robin cursor {} is not a pipeline of a {k}-pipeline switch",
                state.rr
            ));
        }
        self.check_content(&state)
            .map_err(RestoreError::Incompatible)?;
        let mut queues = Vec::with_capacity(k);
        for row in state.queues {
            let row = row.into_iter().map(|q| StageQueue::restore(q, &self.cfg));
            queues.push(row.collect::<Result<Vec<_>, _>>()?);
        }
        let flights = state.channel.flights.into_iter().map(|f| {
            let msg = PhantomMsg {
                key: f.key,
                ts: f.ts,
                dest: f.dest,
                lane: f.lane,
            };
            (msg, f.at, f.dest_stage)
        });
        self.channel = PhantomChannel::from_parts(
            self.stages,
            flights.collect(),
            state.channel.max_in_flight,
            state.channel.delivered,
        )
        .map_err(RestoreError::Incompatible)?;
        for (((pipe, queues), regs), lanes) in self
            .pipes
            .iter_mut()
            .zip(queues)
            .zip(state.regs)
            .zip(state.lanes)
        {
            pipe.queues = queues;
            pipe.regs = regs;
            pipe.lanes = lanes;
        }
        self.index_map = state.index_map;
        self.touched = state.access_ctr.iter().map(|c| Touched::of(c)).collect();
        self.access_ctr = state.access_ctr;
        self.inflight = state.inflight;
        self.crossbars = state
            .crossbars
            .into_iter()
            .map(|x| Crossbar::from_parts(k, x.routed, x.steer_cycles))
            .collect();
        self.cancelled = state.cancelled.into_iter().collect();
        self.lost = state.lost.into_iter().collect();
        self.ingress_q = state.ingress_q.into();
        self.arrivals = state.arrivals.into();
        self.pending_grants = state.pending_grants.into();
        self.egress_buf = state.egress_buf;
        // The masks are derived occupancy views, not state: rebuild them
        // from the restored lanes and queues.
        for pipe in &mut self.pipes {
            let (mut park, mut qmask) = (0u64, 0u64);
            for st in 0..self.stages.min(64) {
                if pipe.lanes[st].is_some() {
                    park |= 1 << st;
                }
                if !pipe.queues[st].is_empty() {
                    qmask |= 1 << st;
                }
            }
            pipe.park = park;
            pipe.qmask = qmask;
            pipe.inc = 0;
        }
        self.dead = state.dead;
        self.evac_done = state.evac_done;
        self.evac_counts = state.evac_counts;
        self.rr = state.rr;
        self.cycle = state.cycle;
        self.next_remap = state
            .cycle
            .max(1)
            .checked_next_multiple_of(self.cfg.remap_period)
            .unwrap_or(u64::MAX);
        let from_cycle = state.cycle;
        self.report = unsnap_report(state.report);
        if S::ENABLED {
            TraceCtx::new(self.cycle, NO_LOC, NO_LOC)
                .emit(&mut self.sink, EventKind::Restored { from_cycle });
        }
        Ok(())
    }

    /// What a checkpoint must hold beyond its shape for this switch to
    /// run it: every pipeline, stage, register and index it names is in
    /// range, every packet carries the program's fields, every tag list
    /// is in stage order, and every phantom — queued, or on the channel
    /// and not cancelled — sits where a packet in flight will come for
    /// it, per that packet's tag. Under D4 a phantom no packet comes for
    /// blocks its FIFO forever.
    fn check_content(&self, s: &SwitchState) -> Result<(), String> {
        let (k, stages, nf) = (self.k, self.stages, self.prog.num_fields());
        if s.index_map.iter().flatten().any(|&p| p as usize >= k) {
            return Err(format!("the index map names a pipeline outside 0..{k}"));
        }
        if let Some(p) = s.arrivals.iter().find(|p| p.fields.len() != nf) {
            return Err(format!("arrival {} has {} fields", p.id, p.fields.len()));
        }
        for (_, dest, st, fl) in &s.pending_grants {
            let due = |t: &AccessTag| t.pipeline == *dest && t.stage.index() == *st;
            if !fl.pkt.tags.first().is_some_and(due) {
                return Err(format!(
                    "held packet {} is not due at {dest}/{st}",
                    fl.pkt.id
                ));
            }
        }
        // Every queue entry, with the (pipeline, stage) it waits at.
        let queued = || {
            s.queues.iter().enumerate().flat_map(|(pl, row)| {
                let row = row.iter().enumerate();
                row.flat_map(move |(st, q)| q.entries().map(move |e| (pl, st, e)))
            })
        };
        let data = queued().filter_map(|(.., e)| match e {
            Entry::Data { item, .. } => Some(item),
            _ => None,
        });
        let held = s.pending_grants.iter().map(|(.., fl)| fl);
        let flights = s.lanes.iter().flatten().flatten().chain(&s.ingress_q);
        // Keyed by the file's contents: the default hasher keeps crafted
        // collisions from making the check quadratic.
        let mut awaited = HashSet::new();
        for fl in flights.chain(held).chain(data) {
            let (id, n, ing) = (fl.pkt.id, fl.pkt.fields.len(), fl.ingress);
            let ordered = fl.pkt.tags.windows(2).all(|w| w[0].stage <= w[1].stage);
            if n != nf || ing.index() >= k || !ordered {
                return Err(format!(
                    "packet {id}: {n} fields, ingress {ing}, ordered {ordered}"
                ));
            }
            for t in &fl.pkt.tags {
                let reg = self.prog.regs.get(t.reg.index());
                let indexed = reg.is_some_and(|r| t.index == INDEX_ARRAY_LEVEL || t.index < r.size);
                let placed = t.pipeline.index() < k && t.stage.index() < stages;
                if !(placed && (t.reg == REG_STAGE_SENTINEL || indexed)) {
                    return Err(format!("packet {id} has an out-of-range tag {t:?}"));
                }
                awaited.insert((fl.key(t), t.pipeline.index(), t.stage.index()));
            }
        }
        for (pl, st, e) in queued() {
            if let Entry::Phantom { key, .. } = e {
                if !awaited.contains(&(*key, pl, st)) {
                    return Err(format!("no packet comes for phantom {key:?} at {pl}/{st}"));
                }
            }
        }
        let cancelled: HashSet<&PhantomKey> = s.cancelled.iter().collect();
        for f in &s.channel.flights {
            if f.dest.index() >= k || f.lane.index() >= k {
                return Err(format!(
                    "channel phantom {:?} is bound outside 0..{k}",
                    f.key
                ));
            }
            let at = (f.key, f.dest.index(), f.dest_stage as usize);
            if !awaited.contains(&at) && !cancelled.contains(&f.key) {
                return Err(format!("no packet comes for channel phantom {:?}", f.key));
            }
        }
        Ok(())
    }

    /// Swaps in a newly compiled program **without draining the
    /// switch**, at the current cycle boundary.
    ///
    /// The candidate must have an identical *state layout* — packet
    /// field names, stage count, prologue depth, and per-register
    /// `(name, size, home stage, shardable)` — because every queued
    /// phantom, in-flight tag, and index-map entry addresses state by
    /// those coordinates. Anything else (the instruction stream, the
    /// resolution plans, register initial values) may change freely;
    /// packets already past their prologue keep their old-program tags
    /// and complete under them, packets resolved after the swap use the
    /// new program. An incompatible candidate is rejected as a typed
    /// [`SwapError`] and the running switch is left untouched.
    ///
    /// Live register state migrates through the D2 ownership
    /// discipline: each index's active copy (per the index map) is read
    /// out of the old program's register file and written into the new
    /// one's, with the [`SwapReport`] ledger counting both sides —
    /// `migrated == evacuated` and `lost_phantoms == 0` on every
    /// accepted swap. The index map itself does not change, so no
    /// `RemapMove` evidence is emitted and `remap_moves` stays put —
    /// the swap is invisible to the bit-identity contract except for
    /// the `ProgramSwapped` lifecycle event (excluded from
    /// `stream_hash`).
    pub fn hot_swap(&mut self, new_prog: CompiledProgram) -> Result<SwapReport, SwapError> {
        let old = &self.prog;
        if new_prog.field_names != old.field_names {
            return Err(SwapError::FieldLayout {
                old: old.field_names.clone(),
                new: new_prog.field_names.clone(),
            });
        }
        if new_prog.num_stages() != self.stages {
            return Err(SwapError::StageCount {
                old: self.stages,
                new: new_prog.num_stages(),
            });
        }
        if new_prog.resolution.stages != self.prologue {
            return Err(SwapError::PrologueDepth {
                old: self.prologue,
                new: new_prog.resolution.stages,
            });
        }
        if new_prog.regs.len() != old.regs.len() {
            return Err(SwapError::RegisterCount {
                old: old.regs.len(),
                new: new_prog.regs.len(),
            });
        }
        for (i, (o, n)) in old.regs.iter().zip(&new_prog.regs).enumerate() {
            if o.name != n.name || o.size != n.size || o.stage != n.stage {
                return Err(SwapError::RegisterLayout {
                    index: i,
                    detail: format!(
                        "{}[{}]@stage{:?} -> {}[{}]@stage{:?}",
                        o.name, o.size, o.stage, n.name, n.size, n.stage
                    ),
                });
            }
            if o.shardable != n.shardable {
                return Err(SwapError::RegisterLayout {
                    index: i,
                    detail: format!("shardable {} -> {}", o.shardable, n.shardable),
                });
            }
        }
        // Ledger side A: every queued or in-flight phantom must still
        // address a valid register coordinate under the new program.
        // Layout validation guarantees this; the scan is the evidence.
        let valid = |key: &PhantomKey| {
            key.reg.index() < new_prog.regs.len()
                && (key.index == INDEX_ARRAY_LEVEL
                    || (key.index as usize) < new_prog.regs[key.reg.index()].size as usize)
        };
        let queued = self.pipes.iter().flat_map(|p| &p.queues);
        let queued = queued
            .flat_map(StageQueue::fifos)
            .flat_map(LogicalFifo::iter_entries)
            .filter_map(|e| match e {
                Entry::Phantom { key, .. } => Some(key),
                _ => None,
            });
        let lost_phantoms = queued
            .chain(self.channel.flights().map(|(msg, ..)| &msg.key))
            .filter(|key| !valid(key))
            .count() as u64;
        // Ledger sides B and C: read each index's active copy out of
        // the old register file (evacuated), write it into the new
        // one's (migrated). The index map is untouched, so ownership —
        // and with it C1 — is preserved without any RemapMove.
        let mut migrated = 0u64;
        let mut evacuated = 0u64;
        let mut fresh: Vec<Vec<Vec<Value>>> =
            (0..self.k).map(|_| new_prog.initial_regs()).collect();
        // Indexed loops, not iterators: the destination pipeline `pl`
        // is data-dependent through the index map, so the write lands
        // in a different outer slice than the one being scanned.
        #[allow(clippy::needless_range_loop)]
        for ri in 0..new_prog.regs.len() {
            for idx in 0..new_prog.regs[ri].size as usize {
                let pl = if new_prog.regs[ri].shardable {
                    self.index_map[ri][idx] as usize
                } else {
                    0
                };
                let value = self.pipes[pl].regs[ri][idx];
                evacuated += 1;
                fresh[pl][ri][idx] = value;
                migrated += 1;
            }
        }
        for (pipe, regs) in self.pipes.iter_mut().zip(fresh) {
            pipe.regs = regs;
        }
        self.prog = new_prog;
        if S::ENABLED {
            TraceCtx::new(self.cycle, NO_LOC, NO_LOC)
                .emit(&mut self.sink, EventKind::ProgramSwapped { migrated });
        }
        Ok(SwapReport {
            cycle: self.cycle,
            migrated,
            evacuated,
            lost_phantoms,
        })
    }

    /// Mutable access to the trace sink (e.g. to flush a file-backed
    /// sink after a checkpoint).
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// The fault injector attached to this switch.
    pub fn faults(&self) -> &F {
        &self.faults
    }

    /// Mutable access to the fault injector (e.g. to checkpoint its
    /// replay cursor alongside [`Mp5Switch::extract_state`]).
    pub fn faults_mut(&mut self) -> &mut F {
        &mut self.faults
    }

    /// Discards the switch mid-run and hands back the trace sink with
    /// everything recorded so far. The halt path of a serving process:
    /// checkpoint via [`Mp5Switch::extract_state`], then `abandon` to
    /// persist the partial event stream without running `finish`'s
    /// end-of-run aggregation (the run is not over — a restore will
    /// continue it).
    pub fn abandon(self) -> S {
        self.sink
    }
}

/// Initial index-to-pipeline map per the sharding mode.
fn init_map(
    reg_index: usize,
    meta: &mp5_compiler::program::RegMeta,
    cfg: &SwitchConfig,
    k: usize,
) -> Vec<u16> {
    let n = meta.size as usize;
    if !meta.shardable {
        return vec![0; n];
    }
    match cfg.sharding {
        ShardingMode::Pinned => vec![0; n],
        ShardingMode::Dynamic | ShardingMode::IdealPeriodic => {
            (0..n).map(|i| (i % k) as u16).collect()
        }
        ShardingMode::Static => {
            // "sharded randomly across pipelines at compile time and
            // never updated" — a seeded hash spreads the indexes.
            (0..n)
                .map(|i| {
                    (mp5_types::hash2(cfg.seed as i64 ^ (reg_index as i64) << 32, i as i64)
                        % k as i64) as u16
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp5_banzai::BanzaiSwitch;
    use mp5_compiler::{compile, Target};
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
            Err(crate::SwapError::RegisterLayout { .. })
            | Err(crate::SwapError::StageCount { .. }) => {}
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
}
