//! Checkpoint, restore and hot swap (the serialized form: crate::state).

use std::collections::{HashMap, HashSet};

use mp5_banzai::RunResult;
use mp5_compiler::program::{INDEX_ARRAY_LEVEL, REG_STAGE_SENTINEL};
use mp5_compiler::CompiledProgram;
use mp5_fabric::{Crossbar, Entry, FifoAddr, FifoCore, OrderKey, PhantomChannel, PhantomKey};
use mp5_faults::FaultInjector;
use mp5_trace::{EventKind, TraceCtx, TraceSink, NO_LOC};
use mp5_types::{AccessTag, FastSet, PacketId, RegId, Value};

use super::queue::StageQueue;
use super::slab::{from_back, Flights, Handle};
use super::{Mp5Switch, PhantomMsg};
use crate::config::SwitchConfig;
use crate::report::RunReport;
use crate::shard::Touched;
use crate::state::{
    ChannelFlightSnap, ChannelSnap, Flight, ReportSnap, RestoreError, ResultSnap, SwapError,
    SwapReport, SwitchState, XbarSnap,
};

/// The packet in flight a restored phantom belongs to — the one that
/// entered at the phantom's order key (`by_order`, `None` where two
/// did) and has a tag for its key at pipeline `pl`, stage `st` — and
/// that tag's place in the packet's row. A phantom no packet comes for
/// would block its FIFO forever under D4; one that two packets could
/// claim has no single owner.
fn owner(
    flights: &Flights,
    by_order: &HashMap<OrderKey, Option<Handle>>,
    (key, pl, st, ts): (PhantomKey, usize, usize, OrderKey),
) -> Result<(Handle, usize), String> {
    let orphan = || format!("no packet comes for phantom {key:?} at {pl}/{st}");
    let h = match by_order.get(&ts) {
        None => return Err(orphan()),
        Some(None) => {
            return Err(format!(
                "phantom {key:?} at {pl}/{st} matches more than one packet in flight"
            ))
        }
        Some(Some(h)) => *h,
    };
    let fl = &flights[h];
    let tags = &fl.pkt.tags;
    let here =
        |t: &AccessTag| fl.key(t) == key && t.pipeline.index() == pl && t.stage.index() == st;
    let i = tags.iter().position(here).ok_or_else(orphan)?;
    Ok((h, from_back(tags.len(), i)))
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
        let boxed = |h: &Handle| -> Flight { Box::new(self.flights[*h].clone()) };
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
                .map(|p| p.queues.iter().map(|q| q.snapshot(&self.flights)).collect())
                .collect(),
            lanes: self
                .pipes
                .iter()
                .map(|p| p.lanes.iter().map(|l| l.as_ref().map(boxed)).collect())
                .collect(),
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
            ingress_q: self.ingress_q.iter().map(boxed).collect(),
            arrivals: self.arrivals.iter().cloned().collect(),
            pending_grants: self
                .pending_grants
                .iter()
                .map(|(ready, dest, st, h)| (*ready, *dest, *st, boxed(h)))
                .collect(),
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
        let sizes = || self.prog.regs.iter().map(|r| r.size as usize);
        if !state.index_map.iter().map(Vec::len).eq(sizes()) {
            return incompat("index map shape does not match the program's registers".into());
        }
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
        if [
            state.dead.len(),
            state.evac_done.len(),
            state.evac_counts.len(),
        ] != [k; 3]
        {
            return incompat("per-pipeline vector length does not match".into());
        }
        if state.rr >= k {
            return incompat(format!(
                "round-robin cursor {} is not a pipeline of a {k}-pipeline switch",
                state.rr
            ));
        }
        self.check_content(&state)
            .map_err(RestoreError::Incompatible)?;
        // Every packet in flight moves into a fresh slab. Rows start
        // unset: the phantom directory is derived, so each queued
        // phantom's address goes into the row of the one packet that
        // comes for it.
        let mut flights = Flights::new(self.prog.resolution.plans.len());
        let mut queues = Vec::with_capacity(k);
        for row in state.queues {
            let row = row
                .into_iter()
                .map(|q| StageQueue::restore(q, &self.cfg, &mut flights));
            queues.push(row.collect::<Result<Vec<_>, _>>()?);
        }
        let mut alloc = |fl: Flight| flights.alloc(*fl);
        let lanes: Vec<Vec<Option<Handle>>> = state
            .lanes
            .into_iter()
            .map(|row| row.into_iter().map(|l| l.map(&mut alloc)).collect())
            .collect();
        let ingress_q = state.ingress_q.into_iter().map(&mut alloc).collect();
        let pending_grants = state
            .pending_grants
            .into_iter()
            .map(|(ready, dest, st, fl)| (ready, dest, st, alloc(fl)))
            .collect();
        // Keyed by the file's contents: the default hasher keeps crafted
        // collisions from making the restore quadratic.
        let mut by_order = HashMap::new();
        for (h, fl) in flights.iter() {
            let one = by_order.entry(fl.order).or_insert(Some(h));
            if *one != Some(h) {
                *one = None;
            }
        }
        let incompat = |why: String| RestoreError::Incompatible(why);
        for (pl, row) in queues.iter().enumerate() {
            for (st, q) in row.iter().enumerate() {
                for (addr, key, ts) in q.fifos().flat_map(FifoCore::phantoms) {
                    let (h, back) =
                        owner(&flights, &by_order, (key, pl, st, ts)).map_err(incompat)?;
                    if flights.addr(h, back) != FifoAddr::UNSET {
                        return Err(incompat(format!(
                            "phantom {key:?} at {pl}/{st} is queued twice"
                        )));
                    }
                    flights.set_addr(h, back, addr);
                }
            }
        }
        let cancelled: FastSet<PhantomKey> = state.cancelled.into_iter().collect();
        let mut on_channel = HashSet::new();
        let mut channel = Vec::with_capacity(state.channel.flights.len());
        for f in state.channel.flights {
            // A cancelled phantom is discarded at delivery, before
            // anything reads its handle.
            let (flight, back) = if cancelled.contains(&f.key) {
                (Handle::NONE, 0)
            } else {
                let at = (f.key, f.dest.index(), f.dest_stage as usize, f.ts);
                let (h, back) = owner(&flights, &by_order, at).map_err(incompat)?;
                if flights.addr(h, back) != FifoAddr::UNSET || !on_channel.insert((h, back)) {
                    return Err(incompat(format!(
                        "channel phantom {:?} stands for a tag another phantom holds",
                        f.key
                    )));
                }
                (h, back)
            };
            let msg = PhantomMsg {
                key: f.key,
                ts: f.ts,
                dest: f.dest,
                lane: f.lane,
                flight,
                back: back as u16,
            };
            channel.push((msg, f.at, f.dest_stage));
        }
        self.channel = PhantomChannel::from_parts(
            self.stages,
            channel,
            state.channel.max_in_flight,
            state.channel.delivered,
        )
        .map_err(RestoreError::Incompatible)?;
        for (((pipe, queues), regs), lanes) in
            self.pipes.iter_mut().zip(queues).zip(state.regs).zip(lanes)
        {
            pipe.queues = queues;
            pipe.regs = regs;
            pipe.lanes = lanes;
        }
        self.flights = flights;
        self.index_map = state.index_map;
        self.touched = state.access_ctr.iter().map(|c| Touched::of(c)).collect();
        self.access_ctr = state.access_ctr;
        self.inflight = state.inflight;
        self.crossbars = state
            .crossbars
            .into_iter()
            .map(|x| Crossbar::from_parts(k, x.routed, x.steer_cycles))
            .collect();
        self.cancelled = cancelled;
        self.lost = state.lost.into_iter().collect();
        self.ingress_q = ingress_q;
        self.arrivals = state.arrivals.into();
        self.pending_grants = pending_grants;
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
    /// is in stage order, and every channel phantom is bound inside the
    /// switch. That every phantom has the one packet that comes for it
    /// is checked as [`Self::inject_state`] matches them up.
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
        let queued = s.queues.iter().flatten().flat_map(|q| q.entries());
        let data = queued.filter_map(|e| match e {
            Entry::Data { item, .. } => Some(item),
            _ => None,
        });
        let held = s.pending_grants.iter().map(|(.., fl)| fl);
        let flights = s.lanes.iter().flatten().flatten().chain(&s.ingress_q);
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
            }
        }
        for f in &s.channel.flights {
            if f.dest.index() >= k || f.lane.index() >= k {
                return Err(format!(
                    "channel phantom {:?} is bound outside 0..{k}",
                    f.key
                ));
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
        // A stage-level phantom addresses its stage, not a register.
        let valid = |key: &PhantomKey| {
            let reg = new_prog.regs.get(key.reg.index());
            key.reg == REG_STAGE_SENTINEL
                || reg.is_some_and(|r| key.index == INDEX_ARRAY_LEVEL || key.index < r.size)
        };
        let queued = self.pipes.iter().flat_map(|p| &p.queues);
        let queued = queued
            .flat_map(StageQueue::fifos)
            .flat_map(FifoCore::phantoms)
            .map(|(_, key, _)| key);
        let lost_phantoms = queued
            .chain(self.channel.flights().map(|(msg, ..)| msg.key))
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
        // Packets resolved from here on may hold more tags; packets past
        // their prologue keep theirs.
        self.flights.widen(new_prog.resolution.plans.len());
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
}
