//! Injected-fault handling: firing the schedule, phantom losses,
//! evacuation of dead pipelines and the release of held packets.

use mp5_fabric::PhantomKey;
use mp5_faults::{FaultClass, FaultInjector, FaultKind, PhantomFate};
use mp5_trace::{EventKind, TraceCtx, TraceSink, NO_LOC};

use super::{Mp5Switch, PhantomMsg};
use crate::config::SprayMode;
use crate::shard;

/// Stable identity hash of a phantom key, fed to the fault injector's
/// phantom-drop decision. Pure function of the key, so a run and its
/// replay (or its restore) see identical fates.
fn fault_key_hash(key: &PhantomKey) -> u64 {
    key.pkt.0 ^ ((key.reg.0 as u64) << 48) ^ ((key.index as u64) << 32)
}

impl<S: TraceSink, F: FaultInjector> Mp5Switch<S, F> {
    /// Fires the fault schedule's due faults at the top of a cycle:
    /// classifies each for the recovery accounting (`injected ==
    /// recovered + degraded` by construction), emits `FaultInjected`
    /// trace events, marks killed pipelines dead, and advances the
    /// degradation machinery. Only called when `F::ENABLED`.
    pub(super) fn begin_faults(&mut self) {
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
    pub(super) fn phantom_faulted(&mut self, msg: &PhantomMsg, stage: u16, ctx: TraceCtx) -> bool {
        let recorded = match self.faults.phantom_fate(fault_key_hash(&msg.key)) {
            // Recorded loss: the data packet re-enters FIFO order via
            // the recovery path when it arrives.
            PhantomFate::DropRecoverable => true,
            PhantomFate::DropSilent => {
                // Deliberately unrecorded loss: the auditor's negative
                // control. The data packet takes the orphan path and the
                // offline audit must flag the stream.
                self.report.fault.phantoms_dropped += 1;
                return true;
            }
            // Forced overflow pressure: the FIFO behaves as if full, but
            // the loss is recorded and recovered like a dropped phantom
            // (the paper's overflow handling keeps C1 by conservative
            // re-serialization of the data packet).
            PhantomFate::Keep => self.faults.fifo_overflow(msg.dest.0, stage),
        };
        if recorded {
            self.lost.insert(msg.key);
            self.report.fault.phantoms_dropped += 1;
            if S::ENABLED {
                ctx.emit(&mut self.sink, EventKind::FaultPhantomLost { key: msg.key });
            }
        }
        recorded
    }

    /// Moves sharded indexes off dead pipelines onto the least-loaded
    /// survivor via the D2 remap path (same atomic state movement, same
    /// `RemapMove` evidence). Respects the in-flight guard unless
    /// `force` — the end-of-run sweep, when nothing is in flight by
    /// construction — and emits `PipelineEvacuated` once a dead
    /// pipeline no longer owns any index.
    pub(super) fn evacuate_dead(&mut self, force: bool) {
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

    /// Releases the held packets whose wait is over, in the order they
    /// were held: a steered packet past its injected grant delay joins
    /// its stage FIFO, a recirculating one goes on as
    /// `Self::release_recirculated` says. Out of line: under the sprays
    /// only injected grant delays hold packets.
    #[inline(never)]
    pub(super) fn release_grants(&mut self) {
        for _ in 0..self.pending_grants.len() {
            let Some(held @ (ready, dest, st, h)) = self.pending_grants.pop_front() else {
                break; // unreachable: at most `len` pops
            };
            if ready > self.cycle {
                self.pending_grants.push_back(held);
            } else if matches!(self.cfg.spray, SprayMode::PortBlocks) {
                self.release_recirculated(dest, st, h);
            } else {
                self.enqueue_stateful(dest, st, h);
            }
        }
    }
}
