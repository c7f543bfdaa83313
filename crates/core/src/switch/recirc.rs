//! Today's multi-pipelined switch (paper §2.3) as a configuration of
//! this one: [`SprayMode::PortBlocks`], built by `SwitchConfig::recirc`.
//!
//! Ports 0–63 map to the pipelines in contiguous blocks, and there is no
//! crossbar: "the only way a packet can access a state stored in another
//! pipeline is by being re-circulated to that pipeline". A packet whose
//! next stateful stage is owned elsewhere finishes its pass, loops back
//! for [`LOOP_CYCLES`] and waits at the owner's ingress, where looped-back
//! packets go ahead of fresh arrivals. Nothing queues inside such a
//! pipeline, so it runs in lockstep and contends only for the ingress
//! slot: a looped-back packet takes the slot, needs none of the stages
//! before the one it came back for, and rejoins the pipeline there when
//! the empty slot it left reaches that stage. Both waits are held in
//! `pending_grants`: at stage 0 while the packet loops back, at its stage
//! `s` while the empty slot travels to `s`.

use mp5_faults::FaultInjector;
use mp5_trace::{EventKind, TraceCtx, TraceSink};
use mp5_types::time::Time;
use mp5_types::{PipelineId, PortId};

use super::slab::Handle;
use super::Mp5Switch;
use crate::config::SprayMode;

/// Ports of the switch, mapped to the pipelines in contiguous blocks.
const PORTS: usize = 64;

/// Cycles a recirculating packet spends looping from the end of one
/// pass to the ingress of the next, on top of the rest of its pass.
const LOOP_CYCLES: u64 = 2;

/// The pipeline `port` is wired to under [`SprayMode::PortBlocks`]:
/// ports 0–15 to pipeline 0, 16–31 to pipeline 1, ... at `k` = 4.
pub(super) fn port_block(port: PortId, k: usize) -> usize {
    (port.0 as usize * k / PORTS).min(k - 1)
}

impl<S: TraceSink, F: FaultInjector> Mp5Switch<S, F> {
    /// Where a restored waiting packet queues: under the sprays in
    /// `ingress_q`; under [`SprayMode::PortBlocks`] one with tags loops
    /// back to its first tag's pipeline `p` (`port_q[2p]`), one without
    /// is fresh on a port of pipeline `p` (`port_q[2p + 1]`).
    pub(super) fn requeue(&mut self, h: Handle) {
        if !matches!(self.cfg.spray, SprayMode::PortBlocks) {
            return self.ingress_q.push_back(h);
        }
        let q = match self.flights.first_tag(h) {
            Some(t) => 2 * t.pipeline.index(),
            None => 2 * port_block(self.flights[h].pkt.port, self.k) + 1,
        };
        self.port_q[q].push_back(h);
    }

    /// The packet leaving `(pl, next - 1)` needs state at stage `next`
    /// that `dest` owns: it recirculates, held for the rest of its pass
    /// and the loop back to `dest`'s ingress.
    pub(super) fn recirculate(&mut self, pl: usize, next: usize, dest: PipelineId, h: Handle) {
        if S::ENABLED {
            TraceCtx::new(self.cycle, pl as u16, next as u16).emit(
                &mut self.sink,
                EventKind::Recirculate {
                    pkt: self.flights[h].pkt.id,
                    target: dest.0,
                },
            );
        }
        self.report.steered += 1;
        let ready = self.cycle + (self.stages - next) as u64 + LOOP_CYCLES;
        self.pending_grants.push_back((ready, dest, 0, h));
    }

    /// A held recirculating packet whose wait is over: back at `dest`'s
    /// ingress (stage 0), or at stage `st`, where the empty slot it left
    /// at ingress has arrived this cycle.
    pub(super) fn release_recirculated(&mut self, dest: PipelineId, st: usize, h: Handle) {
        if st == 0 {
            return self.port_q[2 * dest.index()].push_back(h);
        }
        debug_assert!(self.pipes[dest.index()].inc_row[st].is_none());
        self.pass(dest.index(), st, h);
    }

    /// Ingress under [`SprayMode::PortBlocks`]: the arrivals due before
    /// `now_end` queue at their ports' pipelines, then each pipeline's
    /// slot goes to the oldest packet looping back to it, else to the
    /// oldest fresh arrival on its ports. A looped-back packet leaves the
    /// slot empty and is held until the empty slot reaches its stage.
    /// A killed pipeline's ports stay wired to it. Kept out of line: the
    /// sprays' ingress, inlined into every cycle, never calls it.
    #[inline(never)]
    pub(super) fn admit_port_blocks(&mut self, now_end: Time) {
        while let Some(h) = self.arrive(now_end) {
            let pl = port_block(self.flights[h].pkt.port, self.k);
            self.port_q[2 * pl + 1].push_back(h);
        }
        for pl in 0..self.k {
            if let Some(h) = self.port_q[2 * pl].pop_front() {
                let tag = self
                    .flights
                    .first_tag(h)
                    .expect("a looped-back packet has a tag");
                let st = tag.stage.index();
                let ready = self.cycle + st as u64;
                self.pending_grants
                    .push_back((ready, PipelineId(pl as u16), st, h));
                continue;
            }
            if let Some(h) = self.port_q[2 * pl + 1].pop_front() {
                self.enter(pl, h);
            }
        }
    }
}
