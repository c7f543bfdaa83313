//! The struct-of-arrays work phase (`ExecPath::Batch`, DESIGN.md §13).
//!
//! The scalar work phase interleaves *scheduling* (which packet does a
//! `(pipeline, stage)` slot run this cycle?) with *execution* (run it)
//! — one packet at a time, re-dispatching the stage program and
//! allocating access buffers per packet. This module splits the phase
//! into three passes over a [`PacketBatch`]:
//!
//! 1. **Sweep** — per pipeline, stages ascending, make exactly the
//!    scalar scheduler's decisions (incoming priority / Invariant 2,
//!    starvation drops, injected stalls, FIFO service) but *park* each
//!    chosen packet in the batch instead of executing it: the flight
//!    lands in a lane array (fields stay in place inside the packet —
//!    the kernel reads and writes them through [`FlightRows`], so
//!    admission and compaction copy nothing) and lane metadata records
//!    where it came from.
//! 2. **Execute** — stage-major over the batch: address resolution for
//!    the pipeline-head lanes, then one
//!    [`CompiledProgram::execute_stage_batch`] kernel call per body
//!    stage (instruction-major, allocation-free). Outcomes that the
//!    scalar path applied mid-loop are recorded as per-lane *verdict
//!    flags* and access ranges in parallel arrays.
//! 3. **Compact** — walk the lanes in sweep order (pipeline-major,
//!    stages ascending — the scalar effect order) and apply the
//!    verdicts: write fields back, retire tags, cancel sibling queue
//!    slots, and push counter/phantom/access side effects into each
//!    [`Pipe`]'s [`WorkFx`] buffer, which the caller applies in
//!    ascending pipeline order exactly as before.
//!
//! **Tracing** rides the same passes instead of falling back to the
//! scalar loop: the sweep appends its scheduler events (drops, pops,
//! execute) to a per-batch buffer via [`BufSink`], compaction renders
//! each lane's execution events (phantom emits, accesses, sibling
//! cancels) into a per-pipe scratch buffer, and a stable merge by stage
//! — scheduler stream first on ties — reconstructs the exact scalar
//! event order per pipeline (DESIGN.md §13). With `NopSink` every
//! buffer stays empty and the guards constant-fold as before.
//!
//! Equivalence with the scalar path is argued in DESIGN.md §13 and
//! pinned by `tests/engine_equivalence.rs` and `tests/batch_soa.rs`:
//! a stage's execution only touches its own packet's fields, its
//! pipeline's register replica, and its own `(pipeline, stage)` queue
//! — never an un-swept slot — so deferring execution behind a full
//! sweep, and running it stage-major, produces bit-identical reports.
//!
//! This module is a child of `switch` so it can share the private
//! work-phase types; the split keeps the batch representation in one
//! place without widening any crate-level visibility.

use super::*;

use mp5_compiler::{BatchRegs, LaneAccess, LaneFields};

/// Verdict flag: the lane retired a speculative tag without performing
/// an access — §3.3's one wasted cycle, counted during compaction.
const V_WASTED: u8 = 1 << 0;

/// Lane metadata: which `(pipe, stage)` slot this batch row executes
/// for (`slot` indexes the pipes `batch_work` runs over). Kept to four
/// bytes so the lane array stays cache-resident.
#[derive(Debug, Clone, Copy)]
struct Lane {
    st: u16,
    slot: u16,
}

/// One cycle's worth of packets in struct-of-arrays layout, plus every
/// reusable buffer the three passes need. All `Vec`s reach a
/// steady-state capacity after the first few cycles, so the batch work
/// phase allocates nothing per cycle (beyond what packets themselves
/// carry).
#[derive(Debug, Default)]
pub(super) struct PacketBatch {
    /// Lane metadata, parallel to `flights` / `verdicts` /
    /// `acc_ranges` and to the rows of `fields`.
    lanes: Vec<Lane>,
    /// Parked packets (`Option` so compaction can move them out).
    flights: Vec<Option<Flight>>,
    /// Per-lane verdict flags (`V_*`), set by execute, applied by
    /// compact.
    verdicts: Vec<u8>,
    /// Per-lane `[start, end)` ranges into `acc`.
    acc_ranges: Vec<(u32, u32)>,
    /// Lane ids grouped by physical stage (the execute pass is
    /// stage-major).
    stage_lanes: Vec<Vec<u32>>,
    /// Register-file slots parallel to `stage_lanes`.
    stage_slots: Vec<Vec<u16>>,
    /// Reusable resolution output buffer.
    resolved: Vec<mp5_compiler::ResolvedAccess>,
    /// Raw kernel output for one stage (instruction-major), regrouped
    /// per lane into `acc` after each kernel call (a one-lane stage's
    /// output is that lane's, in order, and skips the regroup).
    kernel_out: Vec<LaneAccess>,
    /// Deduped per-lane accesses, flat; indexed via `acc_ranges`.
    acc: Vec<(RegId, u32)>,
    /// Reusable regroup buckets, one per lane of the stage being
    /// executed: scattering `kernel_out` through these is a stable
    /// counting sort by lane (instruction order preserved within a
    /// lane), replacing an O(lanes × accesses) filter scan.
    regroup: Vec<Vec<(RegId, u32)>>,
    /// Lane id → position within the current stage's lane list.
    lane_local: Vec<u32>,
    /// Scheduler events from the sweep (traced runs only), across all
    /// pipes in sweep order; sliced per pipe via `sched_marks`.
    sched_ev: Vec<Event>,
    /// End index into `sched_ev` after each pipe's sweep.
    sched_marks: Vec<u32>,
    /// Reusable per-pipe execution-event scratch for compaction.
    exec_ev: Vec<Event>,
}

impl PacketBatch {
    fn reset(&mut self, stages: usize) {
        self.lanes.clear();
        self.flights.clear();
        self.verdicts.clear();
        self.acc_ranges.clear();
        self.stage_lanes.resize_with(stages, Vec::new);
        self.stage_slots.resize_with(stages, Vec::new);
        self.stage_lanes.truncate(stages);
        self.stage_slots.truncate(stages);
        for v in &mut self.stage_lanes {
            v.clear();
        }
        for v in &mut self.stage_slots {
            v.clear();
        }
        self.acc.clear();
    }

    /// Parks one scheduled packet in the batch. Fields stay inside the
    /// flight — the execute pass reads and writes them in place through
    /// [`FlightRows`], so admission copies nothing.
    fn admit(&mut self, st: usize, slot: u16, fl: Flight) {
        let lane = self.flights.len() as u32;
        self.lanes.push(Lane {
            st: st as u16,
            slot,
        });
        self.flights.push(Some(fl));
        self.verdicts.push(0);
        self.acc_ranges.push((0, 0));
        self.stage_lanes[st].push(lane);
        self.stage_slots[st].push(slot);
    }
}

/// Field-row adapter over the parked flights: the kernel executes
/// stages directly on each flight's own field vector, so the batch
/// never copies fields in at admission or back out at compaction.
struct FlightRows<'a>(&'a mut [Option<Flight>]);

impl LaneFields for FlightRows<'_> {
    #[inline]
    fn row(&self, lane: u32) -> &[Value] {
        &self.0[lane as usize]
            .as_ref()
            .expect("lane flight parked by sweep")
            .pkt
            .fields
    }

    #[inline]
    fn row_mut(&mut self, lane: u32) -> &mut [Value] {
        &mut self.0[lane as usize]
            .as_mut()
            .expect("lane flight parked by sweep")
            .pkt
            .fields
    }
}

/// Register-file adapter from batch slots to per-pipeline register
/// replicas (monomorphized into the kernel; see [`BatchRegs`]).
struct PipeRegs<'a>(&'a mut [Pipe]);

impl BatchRegs for PipeRegs<'_> {
    #[inline]
    fn read(&mut self, slot: u16, reg: RegId, idx: u32) -> Value {
        self.0[slot as usize].regs[reg.index()][idx as usize]
    }

    #[inline]
    fn write(&mut self, slot: u16, reg: RegId, idx: u32, val: Value) {
        self.0[slot as usize].regs[reg.index()][idx as usize] = val;
    }
}

/// Runs the full batch work phase for one cycle over `pipes`, the
/// contiguous ascending pipelines `base..base + pipes.len()`. On return
/// every pipe's `fx` holds its buffered side effects in the scalar
/// path's order; the caller applies them in ascending pipeline order.
pub(super) fn batch_work<S: TraceSink>(
    ctx: &WorkCtx<'_>,
    base: usize,
    pipes: &mut [Pipe],
    batch: &mut PacketBatch,
) {
    batch.reset(ctx.prog.num_stages());
    // The sweep's event buffer moves out of the batch so `admit` can
    // borrow the batch mutably while the sink borrows the buffer.
    let mut sched = std::mem::take(&mut batch.sched_ev);
    sched.clear();
    batch.sched_marks.clear();
    for (slot, pipe) in pipes.iter_mut().enumerate() {
        sweep_pipeline::<S>(ctx, base + slot, pipe, slot as u16, batch, &mut sched);
        batch.sched_marks.push(sched.len() as u32);
    }
    batch.sched_ev = sched;
    execute_batch(ctx, pipes, batch);
    compact_batch::<S>(ctx, base, pipes, batch);
}

/// Pass 1: the scalar scheduler's decisions for one pipeline, packing
/// instead of executing. Must mirror `work_pipeline` exactly —
/// including the short-circuit order of the starvation probe, whose
/// `oldest_ts` call drains freed stale queue heads as a side effect.
fn sweep_pipeline<S: TraceSink>(
    ctx: &WorkCtx<'_>,
    pl: usize,
    pipe: &mut Pipe,
    slot: u16,
    batch: &mut PacketBatch,
    sched: &mut Vec<Event>,
) {
    // For programs of ≤ 64 stages the incoming and queue-occupancy
    // masks say exactly which slots can do any work this cycle —
    // everything else is a no-op in the scalar scheduler too (no
    // incoming flight, nothing queued to serve, stalls only observable
    // on occupied slots) — so the sweep walks set bits ascending
    // (`trailing_zeros` order = stage order) instead of probing all
    // `stages` slots. Wider programs keep the full probe loop.
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
            sweep_slot::<S>(ctx, pl, pipe, slot, st, inc & (1 << st) != 0, batch, sched);
        }
        debug_assert!(
            pipe.inc_row.iter().all(|s| s.is_none()),
            "incoming flight missed by the work mask"
        );
    } else {
        for st in 0..pipe.inc_row.len() {
            let has_inc = pipe.inc_row[st].is_some();
            sweep_slot::<S>(ctx, pl, pipe, slot, st, has_inc, batch, sched);
        }
    }
}

/// One `(pipeline, stage)` slot of the sweep: the scalar scheduler's
/// decision for that slot, parking instead of executing.
#[allow(clippy::too_many_arguments)]
fn sweep_slot<S: TraceSink>(
    ctx: &WorkCtx<'_>,
    pl: usize,
    pipe: &mut Pipe,
    slot: u16,
    st: usize,
    has_inc: bool,
    batch: &mut PacketBatch,
    sched: &mut Vec<Event>,
) {
    if has_inc {
        let fl = pipe.inc_row[st]
            .take()
            .expect("incoming mask bit set on an empty slot");
        if let Some(thr) = ctx.starvation_threshold {
            let starved = fl.pkt.tags.is_empty()
                && pipe.queues[st].oldest_ts().is_some_and(|ts| {
                    let now = ctx.cycle * ctx.clen;
                    now.saturating_sub(ts.0) > thr * ctx.clen
                });
            if starved {
                pipe.fx.starvation_drops.push((pl as u16, st as u16));
                if S::ENABLED {
                    TraceCtx::new(ctx.cycle, pl as u16, st as u16).emit(
                        &mut BufSink(sched),
                        EventKind::Drop {
                            pkt: fl.pkt.id,
                            cause: DropCause::Starvation,
                        },
                    );
                }
                if ctx.stalled(pl, st) {
                    pipe.fx.stall_cycles += 1;
                } else {
                    serve_into::<S>(ctx, pl, pipe, slot, st, batch, sched);
                }
                return;
            }
        }
        if S::ENABLED {
            let bypassed = !pipe.queues[st].is_empty();
            TraceCtx::new(ctx.cycle, pl as u16, st as u16).emit(
                &mut BufSink(sched),
                EventKind::Execute {
                    pkt: fl.pkt.id,
                    queued: false,
                    bypassed,
                },
            );
        }
        batch.admit(st, slot, fl);
    } else if ctx.stalled(pl, st) {
        if !pipe.queues[st].is_empty() {
            pipe.fx.stall_cycles += 1;
        } else if st < 64 {
            pipe.qmask &= !(1 << st);
        }
    } else {
        serve_into::<S>(ctx, pl, pipe, slot, st, batch, sched);
    }
}

fn serve_into<S: TraceSink>(
    ctx: &WorkCtx<'_>,
    pl: usize,
    pipe: &mut Pipe,
    slot: u16,
    st: usize,
    batch: &mut PacketBatch,
    sched: &mut Vec<Event>,
) {
    // Data-oriented early-out: a truly empty queue's `serve` is a
    // no-op (`pop` scans every lane head twice just to report
    // `Empty`), and in steady state most `(pipeline, stage)` queues
    // are empty every cycle. A queue holding only free stales still
    // counts as occupied, so the drain inside `pop` is preserved. An
    // empty queue also retires its (conservative) occupancy bit here.
    if pipe.queues[st].is_empty() {
        if st < 64 {
            pipe.qmask &= !(1 << st);
        }
        return;
    }
    let tctx = TraceCtx::new(ctx.cycle, pl as u16, st as u16);
    let served = if S::ENABLED {
        pipe.queues[st].serve(st, &mut BufSink(sched), tctx)
    } else {
        pipe.queues[st].serve(st, &mut NopSink, tctx)
    };
    match served {
        Serve::Served(fl) => {
            if S::ENABLED {
                tctx.emit(
                    &mut BufSink(sched),
                    EventKind::Execute {
                        pkt: fl.pkt.id,
                        queued: true,
                        bypassed: false,
                    },
                );
            }
            batch.admit(st, slot, fl)
        }
        Serve::Wasted => pipe.fx.wasted_cycles += 1,
        Serve::Idle => {}
    }
}

/// Pass 2: stage-major execution over the packed lanes. Address
/// resolution runs per-lane (into a reusable buffer); body stages run
/// through the instruction-major SoA kernel; per-lane access lists and
/// verdict flags land in the batch's parallel arrays.
fn execute_batch(ctx: &WorkCtx<'_>, pipes: &mut [Pipe], batch: &mut PacketBatch) {
    // Address resolution at the pipeline head (§3.3), same per-packet
    // computation as `resolve_flight` with the counter bumps deferred
    // to compaction (tag order carries all the information).
    if ctx.prologue > 0 {
        for &l in &batch.stage_lanes[0] {
            let fl = batch.flights[l as usize]
                .as_mut()
                .expect("lane flight parked by sweep");
            ctx.prog
                .resolve_into(&mut fl.pkt.fields, &mut batch.resolved);
            // A packet another switch of a fabric forwarded still owns
            // its last hop's (retired, empty) tag list: reuse it.
            let tags = &mut fl.pkt.tags;
            tags.clear();
            tags.reserve_exact(batch.resolved.len());
            tags.extend(batch.resolved.iter().map(|r| {
                let dest = if r.reg == REG_STAGE_SENTINEL
                    || r.index == INDEX_ARRAY_LEVEL
                    || !ctx.prog.regs[r.reg.index()].shardable
                {
                    PipelineId(0)
                } else {
                    PipelineId(ctx.index_map[r.reg.index()][r.index as usize])
                };
                AccessTag {
                    reg: r.reg,
                    index: r.index,
                    pipeline: dest,
                    stage: r.stage,
                    speculative: r.speculative,
                }
            }));
            debug_assert!(tags.windows(2).all(|w| w[0].stage <= w[1].stage));
        }
    }
    for st in ctx.prologue..batch.stage_lanes.len() {
        let body = st - ctx.prologue;
        if batch.stage_lanes[st].is_empty() {
            continue;
        }
        batch.kernel_out.clear();
        ctx.prog.execute_stage_batch(
            body,
            &batch.stage_lanes[st],
            &batch.stage_slots[st],
            &mut FlightRows(&mut batch.flights),
            &mut PipeRegs(pipes),
            &mut batch.kernel_out,
        );
        // Regroup the instruction-major kernel output per lane,
        // deduping consecutive duplicates — reproducing
        // `execute_stage`'s per-packet access list — and render the
        // verdicts the scalar path applied inline. The scatter through
        // per-lane buckets is a stable counting sort: one pass over
        // `kernel_out` instead of one filter scan per lane. A stage with
        // one lane — most of them at light load — has nothing to sort.
        let n = batch.stage_lanes[st].len();
        if n > 1 {
            if batch.regroup.len() < n {
                batch.regroup.resize_with(n, Vec::new);
            }
            batch.lane_local.resize(batch.flights.len(), 0);
            for (i, &l) in batch.stage_lanes[st].iter().enumerate() {
                batch.lane_local[l as usize] = i as u32;
                batch.regroup[i].clear();
            }
            for a in &batch.kernel_out {
                let i = batch.lane_local[a.lane as usize] as usize;
                batch.regroup[i].push((a.reg, a.index));
            }
        }
        for i in 0..n {
            let l = batch.stage_lanes[st][i];
            let start = batch.acc.len();
            if n == 1 {
                push_deduped(
                    &mut batch.acc,
                    batch.kernel_out.iter().map(|a| (a.reg, a.index)),
                );
            } else {
                push_deduped(&mut batch.acc, batch.regroup[i].iter().copied());
            }
            let end = batch.acc.len();
            batch.acc_ranges[l as usize] = (start as u32, end as u32);
            let fl = batch.flights[l as usize]
                .as_ref()
                .expect("lane flight parked by sweep");
            let retired_speculative = fl
                .pkt
                .tags
                .iter()
                .take_while(|t| t.stage.index() == st)
                .any(|t| t.speculative);
            if retired_speculative && start == end {
                batch.verdicts[l as usize] |= V_WASTED;
            }
        }
    }
}

/// Appends one lane's accesses to `acc`, dropping each that repeats the
/// one before it (as `execute_stage` reports a read-modify-write once).
fn push_deduped(acc: &mut Vec<(RegId, u32)>, accesses: impl Iterator<Item = (RegId, u32)>) {
    let start = acc.len();
    for e in accesses {
        if acc.len() == start || acc[acc.len() - 1] != e {
            acc.push(e);
        }
    }
}

/// Pass 3: apply verdicts and retirements in sweep order — which is
/// pipeline-major with stages ascending, i.e. exactly the order the
/// scalar loop produced its per-pipeline effects in. On traced runs
/// each lane's execution events render into a per-pipe scratch buffer,
/// which is then merge-flushed with the pipe's scheduler events into
/// the pipe's event stream in canonical scalar order.
fn compact_batch<S: TraceSink>(
    ctx: &WorkCtx<'_>,
    base: usize,
    pipes: &mut [Pipe],
    batch: &mut PacketBatch,
) {
    let sched = std::mem::take(&mut batch.sched_ev);
    let mut exec = std::mem::take(&mut batch.exec_ev);
    // Lanes were admitted per pipe in slot order, so each pipe's lanes
    // form a contiguous run; `i` walks them across the pipe loop.
    let mut i = 0usize;
    for (v, pipe) in pipes.iter_mut().enumerate() {
        let pl = base + v;
        exec.clear();
        while i < batch.lanes.len() && batch.lanes[i].slot as usize == v {
            let st = batch.lanes[i].st as usize;
            let mut fl = batch.flights[i]
                .take()
                .expect("lane flight parked by sweep");
            if st == 0 && ctx.prologue > 0 {
                // The resolution counter bumps, in tag (= resolution) order.
                for tag in &fl.pkt.tags {
                    if tag.reg != REG_STAGE_SENTINEL && tag.index != INDEX_ARRAY_LEVEL {
                        pipe.fx.ctr_ops.push(CtrOp::Inc {
                            reg: tag.reg,
                            index: tag.index,
                        });
                    }
                }
            }
            if ctx.prologue > 0 && st == ctx.prologue - 1 && ctx.phantoms {
                // Phantom generation stage: one phantom per tag, in order.
                for tag in &fl.pkt.tags {
                    if S::ENABLED {
                        TraceCtx::new(ctx.cycle, pl as u16, st as u16).emit(
                            &mut BufSink(&mut exec),
                            EventKind::PhantomEmit {
                                key: tkey(fl.key(tag)),
                                dest_pipeline: tag.pipeline.0,
                                dest_stage: tag.stage.0,
                            },
                        );
                    }
                    pipe.fx.injects.push(PhantomInject {
                        msg: PhantomMsg {
                            key: fl.key(tag),
                            ts: fl.order,
                            dest: tag.pipeline,
                            lane: fl.ingress,
                        },
                        from: StageId(st as u16),
                        dest: tag.stage,
                    });
                    pipe.fx.phantoms_generated += 1;
                }
            }
            if st >= ctx.prologue {
                let (a0, a1) = batch.acc_ranges[i];
                if S::ENABLED || ctx.record_detail {
                    for &(reg, index) in &batch.acc[a0 as usize..a1 as usize] {
                        if S::ENABLED {
                            TraceCtx::new(ctx.cycle, pl as u16, st as u16).emit(
                                &mut BufSink(&mut exec),
                                EventKind::Access {
                                    pkt: fl.pkt.id,
                                    reg,
                                    index,
                                    order: (fl.order.0, fl.order.1),
                                },
                            );
                        }
                        if ctx.record_detail {
                            pipe.fx.accesses.push((reg, index, fl.pkt.id));
                        }
                    }
                }
                // Retire this stage's tags; see `process_flight` for the
                // sibling-cancel and wasted-cycle semantics.
                let mut first = true;
                while fl.pkt.tags.first().is_some_and(|t| t.stage.index() == st) {
                    let tag = fl.pkt.tags.remove(0);
                    if !first && ctx.phantoms {
                        let key = fl.key(&tag);
                        let tctx = TraceCtx::new(ctx.cycle, pl as u16, st as u16);
                        if S::ENABLED {
                            pipe.queues[st].cancel(key, false, &mut BufSink(&mut exec), tctx);
                        } else {
                            pipe.queues[st].cancel(key, false, &mut NopSink, tctx);
                        }
                    }
                    first = false;
                    if tag.reg != REG_STAGE_SENTINEL && tag.index != INDEX_ARRAY_LEVEL {
                        pipe.fx.ctr_ops.push(CtrOp::Dec {
                            reg: tag.reg,
                            index: tag.index,
                        });
                    }
                }
                if batch.verdicts[i] & V_WASTED != 0 {
                    pipe.fx.wasted_cycles += 1;
                }
            }
            pipe.lanes[st] = Some(fl);
            if st < 64 {
                pipe.park |= 1 << st;
            }
            i += 1;
        }
        if S::ENABLED {
            let s0 = if v == 0 {
                0
            } else {
                batch.sched_marks[v - 1] as usize
            };
            let s1 = batch.sched_marks[v] as usize;
            merge_flush(&sched[s0..s1], &exec, &mut pipe.events);
        }
    }
    batch.sched_ev = sched;
    batch.exec_ev = exec;
}

/// Interleaves one pipe's scheduler and execution event buffers back
/// into the canonical scalar order. Both buffers are stage-ascending
/// (the sweep visits stages in order; compaction walks lanes in sweep
/// order), and within one `(pipeline, stage)` slot the scalar loop
/// emits scheduler events (drops, pops, execute) before execution
/// events (phantom emits, accesses, sibling cancels) — so a stable
/// merge by stage with the scheduler stream winning ties reconstructs
/// the exact scalar stream.
fn merge_flush(sched: &[Event], exec: &[Event], out: &mut Vec<Event>) {
    out.reserve(sched.len() + exec.len());
    let (mut i, mut j) = (0, 0);
    while i < sched.len() && j < exec.len() {
        if sched[i].stage <= exec[j].stage {
            out.push(sched[i]);
            i += 1;
        } else {
            out.push(exec[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&sched[i..]);
    out.extend_from_slice(&exec[j..]);
}
