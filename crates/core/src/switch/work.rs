//! The per-cycle work phase: each `(pipeline, stage)` slot's scheduler
//! decision and the stage it runs.
//!
//! Within a cycle, the work phase of pipeline `pl` touches its own
//! `Pipe` (incoming row, stage FIFOs, lanes, register copies) and writes
//! the switch's shared state — the sharding counters, the phantom
//! channel, the run report, the trace sink — through a `Work`, a borrow
//! split from `Mp5Switch::pipes`. Pipelines run in ascending order and
//! stages ascending within each, so every effect lands in the one order
//! the report and the event stream are defined by (DESIGN.md §10, §13).

use mp5_compiler::program::{INDEX_ARRAY_LEVEL, REG_STAGE_SENTINEL};
use mp5_compiler::{BatchRegs, CompiledProgram, LaneAccess, LaneFields, ResolvedAccess};
use mp5_fabric::PhantomChannel;
use mp5_faults::FaultInjector;
use mp5_trace::{DropCause, EventKind, TraceCtx, TraceSink};
use mp5_types::time::cycle_len;
use mp5_types::{AccessTag, PipelineId, RegId, StageId, Value};

use super::queue::{Serve, StageQueue};
use super::slab::{from_back, Flights, Handle};
use super::{tkey, Mp5Switch, PhantomMsg};
use crate::config::SwitchConfig;
use crate::report::RunReport;
use crate::shard::Touched;

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
    flights: &'a mut Flights,
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
pub(super) struct Pipe {
    /// This cycle's incoming flights per stage, filled by the move phase
    /// and the ingress spray, emptied by the work phase (so it is all
    /// `None` between cycles).
    pub(super) inc_row: Vec<Option<Handle>>,
    /// Stage input queues.
    pub(super) queues: Vec<StageQueue>,
    /// Stage occupancy after the work phase.
    pub(super) lanes: Vec<Option<Handle>>,
    /// This pipeline's replica of every register array; only the
    /// index-map-active copy of each index is meaningful (D2, Figure 3).
    pub(super) regs: Vec<Vec<Value>>,
    /// Reusable address-resolution output for the pipeline head.
    pub(super) resolved: Vec<ResolvedAccess>,
    /// Reusable kernel output for one body stage of one packet.
    pub(super) kout: Vec<LaneAccess>,
    /// Stages holding a parked flight (stages < 64): the work pass sets
    /// a bit when it parks, the move phase drains exactly the set bits
    /// instead of scanning every lane slot.
    pub(super) park: u64,
    /// Filled `inc_row` slots (stages < 64): the move phase and ingress
    /// set bits, the work pass takes the mask and tests bits instead of
    /// probing every slot.
    pub(super) inc: u64,
    /// Stage FIFOs that *may* be non-empty (stages < 64; a conservative
    /// superset): every enqueue site sets a bit, the work pass visits
    /// only `inc | qmask` and clears a bit lazily when the queue turns
    /// out empty.
    pub(super) qmask: u64,
}

impl Pipe {
    pub(super) fn new(prog: &CompiledProgram, cfg: &SwitchConfig) -> Self {
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
    let h = if let Some(h) = pipe.inc_row[st].take() {
        // Starvation handling (§3.4): drop an incoming packet that is
        // stateless-from-here-on in favor of a long-starved queued
        // stateful packet. A threshold past the byte-time horizon
        // saturates, so it never fires.
        if let Some(thr) = w.starvation_threshold {
            let starved = w.flights[h].pkt.tags.is_empty()
                && pipe.queues[st].oldest_ts().is_some_and(|ts| {
                    let now = w.cycle * w.clen;
                    now.saturating_sub(ts.0) > thr.saturating_mul(w.clen)
                });
            if starved {
                // Stateless from here on: no phantom or counter to
                // release, only the slot.
                let fl = w.flights.free(h);
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
                    pkt: w.flights[h].pkt.id,
                    queued: false,
                    bypassed,
                },
            );
        }
        h
    } else if w.stalled(pl, st) {
        // Injected stall: the stage's scheduler is frozen this cycle.
        // Only count slots where work was actually waiting.
        if !pipe.queues[st].is_empty() {
            w.report.fault.stall_cycles += 1;
        } else if st < 64 {
            pipe.qmask &= !(1 << st);
        }
        return;
    } else if let Some(h) = serve_queue(w, pl, st, pipe) {
        h
    } else {
        return;
    };
    process_flight(w, pl, st, h, pipe);
}

/// Serves one packet from the stage's FIFO, if the scheduler finds a
/// servable head.
fn serve_queue<S: TraceSink>(
    w: &mut Work<'_, S>,
    pl: usize,
    st: usize,
    pipe: &mut Pipe,
) -> Option<Handle> {
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
    match pipe.queues[st].serve(st, w.flights, w.sink, tctx) {
        Serve::Served(h) => {
            if S::ENABLED {
                tctx.emit(
                    w.sink,
                    EventKind::Execute {
                        pkt: w.flights[h].pkt.id,
                        queued: true,
                        bypassed: false,
                    },
                );
            }
            Some(h)
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
    h: Handle,
    pipe: &mut Pipe,
) {
    let tctx = TraceCtx::new(w.cycle, pl as u16, st as u16);
    if st == 0 && w.prologue > 0 {
        resolve_flight(w, h, &mut pipe.resolved);
    }
    let fl = &mut w.flights[h];
    if w.prologue > 0 && st == w.prologue - 1 && w.phantoms {
        // Phantom generation stage: one phantom per resolved access, in
        // tag order, onto the dedicated channel, each naming its packet
        // and tag so delivery can record where it was queued.
        let n = fl.pkt.tags.len();
        for (i, tag) in fl.pkt.tags.iter().enumerate() {
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
                    flight: h,
                    back: from_back(n, i) as u16,
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
        let fl = &w.flights[h];
        let tags = &fl.pkt.tags;
        let here = tags.iter().take_while(|t| t.stage.index() == st).count();
        let mut retired_speculative = false;
        for (i, tag) in tags[..here].iter().enumerate() {
            retired_speculative |= tag.speculative;
            if i > 0 && w.phantoms {
                let addr = w.flights.addr(h, from_back(tags.len(), i));
                pipe.queues[st].cancel(addr, fl.key(tag), false, w.sink, tctx);
            }
            release_inflight(w.inflight, tag);
        }
        w.flights[h].pkt.tags.drain(..here);
        if retired_speculative && kout.is_empty() {
            w.report.wasted_cycles += 1;
        }
    }
    pipe.lanes[st] = Some(h);
    if st < 64 {
        pipe.park |= 1 << st;
    }
}

/// Releases the in-flight count (the remap guard) a tag holds once its
/// access has executed or its packet was dropped.
pub(super) fn release_inflight(inflight: &mut [Vec<u32>], tag: &AccessTag) {
    if tag.reg != REG_STAGE_SENTINEL && tag.index != INDEX_ARRAY_LEVEL {
        let c = &mut inflight[tag.reg.index()][tag.index as usize];
        *c = c.saturating_sub(1);
    }
}

/// Runs preemptive address resolution (§3.3) on an arriving packet:
/// computes every index it will access, consults the index-to-pipeline
/// map, tags the packet, and bumps the runtime counters.
fn resolve_flight<S>(w: &mut Work<'_, S>, h: Handle, resolved: &mut Vec<ResolvedAccess>) {
    let fl = &mut w.flights[h];
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

impl<S: TraceSink, F: FaultInjector> Mp5Switch<S, F> {
    /// The work phase: every pipeline's pass, ascending, over a `Work`
    /// that borrows the shared state beside `pipes`, so each effect is
    /// written where it lands, in the order the stream is defined by.
    pub(super) fn work_phase(&mut self) {
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
            flights: &mut self.flights,
            report: &mut self.report,
            sink: &mut self.sink,
        };
        for (pl, pipe) in self.pipes.iter_mut().enumerate() {
            work_pipeline(&mut w, pl, pipe);
        }
    }
}
