//! Where phantoms and packets go each cycle: channel deliveries into
//! stage FIFOs, the move phase (every stage occupant exits, passes
//! straight on, or steers through the crossbar into the FIFO of its
//! next stateful stage), and the ingress spray.

use mp5_fabric::OrderKey;
use mp5_faults::FaultInjector;
use mp5_trace::{DropCause, EventKind, TraceCtx, TraceSink};
use mp5_types::PipelineId;

use super::slab::{from_back, Handle};
use super::work::release_inflight;
use super::{tkey, Mp5Switch};
use crate::config::SprayMode;
use crate::state::FlightState;

impl<S: TraceSink, F: FaultInjector> Mp5Switch<S, F> {
    /// Phantom delivery: the channel advances one hop and each phantom
    /// it delivers joins its destination stage FIFO, unless the packet
    /// it stands for was dropped meanwhile or a fault takes it. The
    /// address it is queued at goes into its packet's row.
    #[inline]
    pub(super) fn deliver_phantoms(&mut self) {
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
            let queue = &mut pipe.queues[stage.index()];
            match queue.push_phantom(msg.key, msg.ts, msg.lane, &mut self.sink, ctx) {
                Some(addr) => {
                    if stage.index() < 64 {
                        pipe.qmask |= 1 << stage.index();
                    }
                    self.flights.set_addr(msg.flight, msg.back as usize, addr);
                }
                None => {
                    self.report.drops.phantom_fifo_full += 1;
                    self.report.count_stage_drop(msg.dest.0, stage.0);
                }
            }
        }
        self.channel_buf = deliveries;
    }

    /// Ingress: admit the arrivals due this cycle, then spray them over
    /// the pipelines' first stages, one per live pipeline whose slot is
    /// free.
    #[inline]
    pub(super) fn admit(&mut self) {
        let now_end = self.horizon();
        while self.arrivals.front().is_some_and(|p| p.arrival < now_end) {
            let Some(pkt) = self.arrivals.pop_front() else {
                break; // unreachable: `front()` was just checked
            };
            let order = OrderKey(pkt.arrival, pkt.port.0 as u64);
            let h = self.flights.alloc(FlightState {
                pkt,
                order,
                ingress: PipelineId(0), // assigned at admission
            });
            self.ingress_q.push_back(h);
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
            let Some(h) = self.ingress_q.pop_front() else {
                break; // unreachable: emptiness was checked above
            };
            let fl = &mut self.flights[h];
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
            pipe.inc_row[0] = Some(h);
            pipe.inc |= 1;
        }
    }

    /// The move phase: every stage occupant advances, pipelines
    /// ascending, stages descending — the order the event stream and
    /// `RunReport` are defined by. For programs of ≤ 64 stages it drains
    /// the park mask (filled by last cycle's work pass) highest bit
    /// first, which visits exactly the occupied lane slots in that
    /// order; wider programs scan every slot.
    pub(super) fn move_phase(&mut self) {
        for pl in 0..self.k {
            if self.stages <= 64 {
                let mut mask = std::mem::take(&mut self.pipes[pl].park);
                while mask != 0 {
                    let st = 63 - mask.leading_zeros() as usize;
                    mask ^= 1 << st;
                    let h = self.pipes[pl].lanes[st]
                        .take()
                        .expect("park mask bit set on an empty lane slot");
                    self.advance(pl, st, h);
                }
                debug_assert!(
                    self.pipes[pl].lanes.iter().all(|s| s.is_none()),
                    "parked flight missing from the park mask"
                );
            } else {
                for st in (0..self.stages).rev() {
                    if let Some(h) = self.pipes[pl].lanes[st].take() {
                        self.advance(pl, st, h);
                    }
                }
            }
        }
    }

    /// What the occupant of `(pl, st)` does this cycle: exit the final
    /// stage, cross the crossbar to the stage it is tagged for, or
    /// advance to the next stage of its own pipeline.
    pub(super) fn advance(&mut self, pl: usize, st: usize, h: Handle) {
        let next = st + 1;
        if next == self.stages {
            self.complete(pl, h);
            return;
        }
        let dest = match self.flights[h].pkt.tags.first() {
            Some(t) if t.stage.index() == next => t.pipeline,
            _ => {
                let pipe = &mut self.pipes[pl];
                pipe.inc_row[next] = Some(h);
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
                        .push_back((self.cycle + delay, dest, next, h));
                    return;
                }
            }
        }
        self.enqueue_stateful(dest, next, h);
    }

    /// A data packet arrives at the stateful stage it is tagged for:
    /// replace its phantom at the address recorded for it (or queue
    /// directly when phantoms are off).
    pub(super) fn enqueue_stateful(&mut self, dest: PipelineId, st: usize, h: Handle) {
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
                self.flights[h].pkt.ecn = true;
            }
        }
        let fl = &self.flights[h];
        let ctx = TraceCtx::new(self.cycle, dest.0, st as u16);
        if !self.cfg.phantoms {
            // no-D4 ablation: queue in arrival-at-stage order.
            let ts = OrderKey(self.cycle, fl.ingress.0 as u64);
            let (pkt, lane) = (fl.pkt.id, fl.ingress);
            if let Err(h) = queue.push_data(pkt, h, ts, lane, &mut self.sink, ctx) {
                self.report.drops.data_fifo_full += 1;
                self.report.count_stage_drop(dest.0, st as u16);
                if S::ENABLED {
                    ctx.emit(
                        &mut self.sink,
                        EventKind::Drop {
                            pkt,
                            cause: DropCause::FifoFull,
                        },
                    );
                }
                self.drop_remaining(h, st);
            }
            return;
        }
        // All tags for this stage (possibly several: speculative
        // branches or overlapping exact plans) with their phantoms'
        // addresses, collected into a reusable scratch — this runs once
        // per stateful arrival.
        let mut keys = std::mem::take(&mut self.key_scratch);
        keys.clear();
        let tags = &fl.pkt.tags;
        keys.extend(
            tags.iter()
                .take_while(|t| t.stage.index() == st)
                .enumerate()
                .map(|(i, t)| (fl.key(t), self.flights.addr(h, from_back(tags.len(), i)))),
        );
        let (ts, pkt) = (fl.order, fl.pkt.id);
        debug_assert!(!keys.is_empty());
        if F::ENABLED && !self.lost.is_empty() && self.lost.remove(&keys[0].0) {
            // Injected-fault recovery: the phantom never reached this
            // FIFO, but the loss was recorded, so the data packet
            // re-enters the serial order directly at its original
            // entry-order key — exactly the slot its phantom would have
            // frozen, so C1 is preserved (older queued phantoms still
            // block it; see `FifoCore::push_recovered`).
            for (k, _) in &keys[1..] {
                self.lost.remove(k); // siblings ride in with the data
            }
            self.report.fault.phantoms_recovered += 1;
            queue.push_recovered(keys[0].0, h, ts, &mut self.sink, ctx);
            self.key_scratch = keys;
            return;
        }
        let (key, addr) = keys[0];
        match queue.insert_data(addr, key, h, &mut self.sink, ctx) {
            Ok(()) => {
                // Sibling phantoms (speculative branches / overlapping
                // plans) stay in place: they keep blocking their index
                // until this packet is actually served and performs the
                // accesses, and are reclaimed then (see `process`).
                // Cancelling them here would let a later packet overtake
                // the not-yet-executed access in per-index scheduling.
                if F::ENABLED && !self.lost.is_empty() {
                    for (k, _) in &keys[1..] {
                        self.lost.remove(k); // lost siblings need no recovery
                    }
                }
            }
            Err(h) => {
                // Phantom was dropped upstream: the drop cascades.
                self.report.drops.data_no_phantom += 1;
                self.report.count_stage_drop(dest.0, st as u16);
                if S::ENABLED {
                    ctx.emit(
                        &mut self.sink,
                        EventKind::Drop {
                            pkt,
                            cause: DropCause::NoPhantom,
                        },
                    );
                }
                for &(k, a) in &keys[1..] {
                    queue.cancel(a, k, true, &mut self.sink, ctx);
                }
                self.drop_remaining(h, st);
            }
        }
        self.key_scratch = keys;
    }

    /// Cleans up after dropping a data packet at stage `st`: cancel all
    /// of its not-yet-consumed phantoms (in FIFOs or still on the
    /// channel), release its in-flight counters and free its slot.
    pub(super) fn drop_remaining(&mut self, h: Handle, st: usize) {
        let fl = self.flights.free(h);
        let n = fl.pkt.tags.len();
        for (i, tag) in fl.pkt.tags.iter().enumerate() {
            release_inflight(&mut self.inflight, tag);
            if tag.stage.index() <= st {
                continue; // this stage's keys were handled by the caller
            }
            let key = fl.key(tag);
            // Freeing the slot leaves its row until the slot is reused.
            let addr = self.flights.addr(h, from_back(n, i));
            if F::ENABLED && !self.lost.is_empty() && self.lost.remove(&key) {
                // The phantom was already lost to a fault: there is
                // nothing left to cancel anywhere.
                continue;
            }
            let ctx = TraceCtx::new(self.cycle, tag.pipeline.0, tag.stage.0);
            let queue = &mut self.pipes[tag.pipeline.index()].queues[tag.stage.index()];
            if !queue.cancel(addr, key, true, &mut self.sink, ctx) {
                // Still on the channel: discard at delivery.
                self.cancelled.insert(key);
            }
        }
    }

    /// A packet exits the final stage: it leaves its slot for egress.
    pub(super) fn complete(&mut self, pl: usize, h: Handle) {
        let fl = self.flights.free(h);
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
}
