//! The state-of-the-art multi-pipelined switch with re-circulation
//! (paper §2.3).
//!
//! Characteristics modeled:
//!
//! * **Static port-to-pipeline mapping**: with `N` ports and `k`
//!   pipelines, ports are mapped in contiguous blocks, Tofino-style
//!   ("ports 1–16 are mapped to pipeline 1, ...").
//! * **No state sharing**: each register index's active copy lives in a
//!   statically chosen pipeline (seeded random shard, matching the
//!   static-sharding ablation); unshardable arrays live in pipeline 0.
//! * **Re-circulation**: "the only way a packet can access a state
//!   stored in another pipeline is by being re-circulated to that
//!   pipeline" — the packet traverses its current pipeline to the end,
//!   then loops back (paying `recirc_latency` extra cycles) into the
//!   *target* pipeline's ingress, where it competes with (and takes
//!   priority over) fresh arrivals.
//!
//! A packet executes its program stages strictly in order: a stage runs
//! only when the packet is in the pipeline that holds every state the
//! stage touches for this packet; otherwise execution is suspended until
//! a later pass. The fundamental re-circulation delay is what breaks
//! condition C1 (paper Example 2) and costs throughput (§4.3.2, D3).

use std::collections::VecDeque;

use mp5_compiler::program::{INDEX_ARRAY_LEVEL, REG_STAGE_SENTINEL};
use mp5_compiler::CompiledProgram;
use mp5_core::RunReport;
use mp5_fabric::OrderKey;
use mp5_faults::{FaultClass, FaultInjector, NoFaults};
use mp5_trace::{EventKind, NopSink, TraceCtx, TraceSink, NO_LOC};
use mp5_types::time::cycle_len;
use mp5_types::{hash2, Packet, PipelineId, StageId, Value};

/// Configuration of the re-circulation baseline.
#[derive(Debug, Clone)]
pub struct RecircConfig {
    /// Parallel pipelines `k`.
    pub pipelines: usize,
    /// Switch ports (for the static port map; default 64).
    pub ports: usize,
    /// Extra cycles a packet spends looping from egress back to
    /// ingress (on top of re-traversing the pipeline).
    pub recirc_latency: u64,
    /// Seed for the static state shard.
    pub seed: u64,
    /// Hard cycle cap override.
    pub max_cycles: Option<u64>,
}

impl RecircConfig {
    /// Default configuration for `k` pipelines.
    pub fn new(pipelines: usize) -> Self {
        RecircConfig {
            pipelines,
            ports: 64,
            recirc_latency: 2,
            seed: 0,
            max_cycles: None,
        }
    }
}

/// Report of a re-circulation run: the common [`RunReport`] plus
/// recirculation statistics.
#[derive(Debug, Clone)]
pub struct RecircReport {
    /// Common metrics and equivalence evidence.
    pub report: RunReport,
    /// Total re-circulations performed.
    pub total_recircs: u64,
    /// Highest number of passes any single packet needed.
    pub max_passes: u32,
}

impl RecircReport {
    /// Average re-circulations per packet.
    pub fn recircs_per_packet(&self) -> f64 {
        if self.report.offered == 0 {
            0.0
        } else {
            self.total_recircs as f64 / self.report.offered as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Flight {
    pkt: Packet,
    /// Entry-order key, reproduced on every traced state access so the
    /// offline auditor can reconstruct the reference serial order.
    order: OrderKey,
    /// Next body stage to execute (stages execute strictly in order).
    exec_ptr: usize,
    passes: u32,
}

/// Read-only inputs of one pipeline's work phase.
struct RecircCtx<'a> {
    prog: &'a CompiledProgram,
    prologue: usize,
    cycle: u64,
    /// `(pipeline, stage)` pairs frozen by injected stalls this cycle
    /// (empty under `NoFaults`). Physical stage ids, like the MP5
    /// switch's, so the same fault plan stalls the same hardware.
    stalls: &'a [(u16, u16)],
}

impl RecircCtx<'_> {
    /// Is `(pl, body_stage)` under an injected stall this cycle? A
    /// stalled stage skips execution; the packet keeps moving and picks
    /// the stage up on a later pass (this datapath's native recovery —
    /// recirculation — absorbs the stall).
    #[inline]
    fn stalled(&self, pl: usize, body_stage: usize) -> bool {
        !self.stalls.is_empty()
            && self
                .stalls
                .contains(&(pl as u16, (body_stage + self.prologue) as u16))
    }
}

/// A stage is executable in pipeline `pl` if every access the packet
/// makes at that stage lives in `pl`.
fn stage_executable(prologue: usize, pl: usize, body_stage: usize, fl: &Flight) -> bool {
    let phys = (body_stage + prologue) as u16;
    fl.pkt
        .tags
        .iter()
        .filter(|t| t.stage == StageId(phys))
        .all(|t| t.pipeline.index() == pl)
}

/// Work phase for one pipeline: execute eligible stages in program
/// order, recording state accesses and stall hits into `report`.
fn work_row<S: TraceSink>(
    ctx: &RecircCtx<'_>,
    pl: usize,
    inc_row: &mut [Option<Flight>],
    lanes: &mut [Option<Flight>],
    regs: &mut [Vec<Value>],
    sink: &mut S,
    report: &mut RunReport,
) {
    for (st, slot) in inc_row.iter_mut().enumerate() {
        if let Some(mut fl) = slot.take() {
            if fl.exec_ptr == st
                && stage_executable(ctx.prologue, pl, st, &fl)
                && ctx.stalled(pl, st)
            {
                // Injected stall: the stage skips this packet, which
                // recirculates for another pass — the baseline's native
                // recovery path.
                report.fault.stall_cycles += 1;
                lanes[st] = Some(fl);
                continue;
            }
            if fl.exec_ptr == st && stage_executable(ctx.prologue, pl, st, &fl) {
                if S::ENABLED {
                    // `queued: false`: this datapath has no stage FIFOs —
                    // every execution is a pass-through of the lane
                    // occupant.
                    TraceCtx::new(ctx.cycle, pl as u16, st as u16).emit(
                        sink,
                        EventKind::Execute {
                            pkt: fl.pkt.id,
                            queued: false,
                            bypassed: false,
                        },
                    );
                }
                let stage_accesses = ctx.prog.execute_stage(st, &mut fl.pkt.fields, regs);
                for a in &stage_accesses {
                    if S::ENABLED {
                        TraceCtx::new(ctx.cycle, pl as u16, st as u16).emit(
                            sink,
                            EventKind::Access {
                                pkt: fl.pkt.id,
                                reg: a.reg,
                                index: a.index,
                                order: (fl.order.0, fl.order.1),
                            },
                        );
                    }
                    report
                        .result
                        .access_log
                        .entry((a.reg, a.index))
                        .or_default()
                        .push(fl.pkt.id);
                }
                fl.exec_ptr += 1;
            }
            lanes[st] = Some(fl);
        }
    }
}

/// The re-circulation switch simulator.
///
/// Generic over a [`TraceSink`] like `mp5_core::Mp5Switch`: the default
/// [`NopSink`] compiles the instrumentation away; use
/// [`RecircSwitch::with_sink`] to record a run for the `mp5audit`
/// offline auditor (which checks C1 and conservation against the
/// recorded stream — and, for this baseline, *expects* C1 findings).
/// Also generic over a [`FaultInjector`] `F` (default [`NoFaults`]).
/// The baseline's fault support is deliberately minimal: only
/// `StageStall` touches the datapath (a stalled stage skips execution
/// and the packet recirculates — the design's native recovery); every
/// other fired fault is accounted in the report but has no effect here,
/// because the mechanisms they target (phantoms, crossbars, dynamic
/// sharding) do not exist in this datapath.
#[derive(Debug)]
pub struct RecircSwitch<S: TraceSink = NopSink, F: FaultInjector = NoFaults> {
    cfg: RecircConfig,
    prog: CompiledProgram,
    k: usize,
    body_stages: usize,
    prologue: usize,
    regs: Vec<Vec<Vec<Value>>>,
    shard: Vec<Vec<u16>>,
    lanes: Vec<Vec<Option<Flight>>>,
    /// Per-pipeline fresh-arrival queues (static port map).
    fresh: Vec<VecDeque<Flight>>,
    /// Per-pipeline re-circulation queues (priority over fresh).
    recirc_q: Vec<VecDeque<Flight>>,
    /// Packets looping back: `(ready_cycle, target pipeline, flight)`.
    looping: Vec<(u64, usize, Flight)>,
    arrivals: VecDeque<Packet>,
    cycle: u64,
    report: RunReport,
    total_recircs: u64,
    max_passes: u32,
    sink: S,
    /// Deterministic fault schedule (inert [`NoFaults`] by default).
    faults: F,
}

impl RecircSwitch<NopSink> {
    /// Builds the (untraced) baseline switch.
    pub fn new(prog: CompiledProgram, cfg: RecircConfig) -> Self {
        Self::with_sink(prog, cfg, NopSink)
    }
}

impl<S: TraceSink> RecircSwitch<S, NoFaults> {
    /// Builds a baseline switch that records every observable action
    /// into `sink`. The sink only observes; the run is identical to
    /// [`RecircSwitch::new`]'s.
    pub fn with_sink(prog: CompiledProgram, cfg: RecircConfig, sink: S) -> Self {
        RecircSwitch::with_faults(prog, cfg, sink, NoFaults)
    }
}

impl<S: TraceSink, F: FaultInjector> RecircSwitch<S, F> {
    /// Builds a baseline switch with a deterministic fault schedule
    /// attached (see the type-level docs for which faults this
    /// datapath honors).
    pub fn with_faults(prog: CompiledProgram, cfg: RecircConfig, sink: S, faults: F) -> Self {
        let k = cfg.pipelines;
        assert!(k >= 1);
        let body_stages = prog.stages.len();
        let prologue = prog.resolution.stages;
        let regs = (0..k).map(|_| prog.initial_regs()).collect();
        let shard = prog
            .regs
            .iter()
            .enumerate()
            .map(|(ri, r)| {
                if r.shardable {
                    (0..r.size as usize)
                        .map(|i| {
                            (hash2(cfg.seed as i64 ^ ((ri as i64) << 32), i as i64) % k as i64)
                                as u16
                        })
                        .collect()
                } else {
                    vec![0; r.size as usize]
                }
            })
            .collect();
        let mut report = RunReport::new();
        report.set_cycle_len(cycle_len(k));
        RecircSwitch {
            lanes: (0..k).map(|_| vec![None; body_stages]).collect(),
            fresh: (0..k).map(|_| VecDeque::new()).collect(),
            recirc_q: (0..k).map(|_| VecDeque::new()).collect(),
            looping: Vec::new(),
            arrivals: VecDeque::new(),
            cycle: 0,
            report,
            total_recircs: 0,
            max_passes: 0,
            cfg,
            prog,
            k,
            body_stages,
            prologue,
            regs,
            shard,
            sink,
            faults,
        }
    }

    /// Static port-to-pipeline map: contiguous blocks.
    fn port_pipeline(&self, port: u16) -> usize {
        ((port as usize) * self.k / self.cfg.ports).min(self.k - 1)
    }

    /// The pipeline holding the state for a resolved access.
    fn access_pipeline(&self, reg: mp5_types::RegId, index: u32) -> usize {
        if reg == REG_STAGE_SENTINEL
            || index == INDEX_ARRAY_LEVEL
            || !self.prog.regs[reg.index()].shardable
        {
            0
        } else {
            self.shard[reg.index()][index as usize] as usize
        }
    }

    /// Runs a trace to completion.
    pub fn run(self, packets: Vec<Packet>) -> RecircReport {
        self.run_traced(packets).0
    }

    /// Like [`RecircSwitch::run`], but also returns the trace sink with
    /// its recorded event stream.
    pub fn run_traced(mut self, mut packets: Vec<Packet>) -> (RecircReport, S) {
        packets.sort_by_key(|p| p.entry_order_key());
        self.report.offered = packets.len() as u64;
        self.report.input_duration = packets
            .last()
            .map(|p| p.arrival + mp5_types::BYTES_PER_SLOT)
            .unwrap_or(0);
        self.arrivals = packets.into();
        let clen = cycle_len(self.k);
        let input_cycles = self.report.input_duration / clen + 1;
        let cap = self.cfg.max_cycles.unwrap_or_else(|| {
            // Every packet may recirculate up to once per access tag;
            // budget generously.
            input_cycles * (self.k as u64 + 2) * 8 + 100_000
        });
        while !self.drained() {
            assert!(
                self.cycle < cap,
                "recirculation simulation exceeded {cap} cycles"
            );
            self.step();
        }
        self.finish()
    }

    fn drained(&self) -> bool {
        self.arrivals.is_empty()
            && self.looping.is_empty()
            && self.fresh.iter().all(|q| q.is_empty())
            && self.recirc_q.iter().all(|q| q.is_empty())
            && self.lanes.iter().flatten().all(|l| l.is_none())
    }

    fn step(&mut self) {
        // 0. Fault schedule: fire due faults and account them. Only
        // `StageStall` affects this datapath (see the type docs); the
        // rest are recorded as fired-but-inapplicable.
        if F::ENABLED {
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
            }
        }

        // 1. Move phase: advance all occupants; handle egress.
        let mut incoming: Vec<Vec<Option<Flight>>> =
            (0..self.k).map(|_| vec![None; self.body_stages]).collect();
        for (pl, inc_row) in incoming.iter_mut().enumerate() {
            for st in (0..self.body_stages).rev() {
                let Some(fl) = self.lanes[pl][st].take() else {
                    continue;
                };
                if st + 1 == self.body_stages {
                    self.egress(pl, fl);
                } else {
                    inc_row[st + 1] = Some(fl);
                }
            }
        }

        // 2. Loop-back deliveries.
        let mut still: Vec<(u64, usize, Flight)> = Vec::new();
        for (ready, target, fl) in self.looping.drain(..) {
            if ready <= self.cycle {
                self.recirc_q[target].push_back(fl);
            } else {
                still.push((ready, target, fl));
            }
        }
        self.looping = still;

        // 3. Fresh arrivals route to their port's pipeline.
        let now_end = (self.cycle + 1) * cycle_len(self.k);
        while self.arrivals.front().is_some_and(|p| p.arrival < now_end) {
            let Some(mut pkt) = self.arrivals.pop_front() else {
                break; // unreachable: `front()` was just checked
            };
            let order = OrderKey(pkt.arrival, pkt.port.0 as u64);
            // Resolve the itinerary once at first ingress.
            self.resolve(&mut pkt);
            let pl = self.port_pipeline(pkt.port.0);
            if S::ENABLED {
                TraceCtx::new(self.cycle, pl as u16, 0).emit(
                    &mut self.sink,
                    EventKind::Ingress {
                        pkt: pkt.id,
                        order: (order.0, order.1),
                    },
                );
            }
            self.fresh[pl].push_back(Flight {
                pkt,
                order,
                exec_ptr: 0,
                passes: 1,
            });
        }

        // 4. Ingress: one admission per pipeline per cycle; recirculated
        // packets have priority (they already consumed switch capacity).
        for (pl, inc_row) in incoming.iter_mut().enumerate() {
            if inc_row[0].is_some() {
                continue;
            }
            if let Some(fl) = self.recirc_q[pl].pop_front() {
                inc_row[0] = Some(fl);
            } else if let Some(fl) = self.fresh[pl].pop_front() {
                inc_row[0] = Some(fl);
            }
        }

        // 5. Work phase: execute eligible stages in program order,
        // pipelines ascending.
        let ctx = RecircCtx {
            prog: &self.prog,
            prologue: self.prologue,
            cycle: self.cycle,
            stalls: self.faults.active_stalls(),
        };
        for (pl, inc_row) in incoming.iter_mut().enumerate() {
            work_row(
                &ctx,
                pl,
                inc_row,
                &mut self.lanes[pl],
                &mut self.regs[pl],
                &mut self.sink,
                &mut self.report,
            );
        }

        self.cycle += 1;
    }

    /// Resolution happens once, at first ingress (the baseline has no
    /// phantom machinery — we reuse the compiled resolution program only
    /// to learn the packet's state itinerary).
    fn resolve(&mut self, pkt: &mut Packet) {
        let resolved = self.prog.resolve(&mut pkt.fields);
        pkt.tags = resolved
            .into_iter()
            .map(|r| mp5_types::AccessTag {
                reg: r.reg,
                index: r.index,
                pipeline: PipelineId(self.access_pipeline(r.reg, r.index) as u16),
                stage: r.stage,
                speculative: r.speculative,
            })
            .collect();
    }

    /// Pipeline egress: complete, or loop back towards the pipeline of
    /// the next pending stage's state.
    fn egress(&mut self, pl: usize, fl: Flight) {
        if fl.exec_ptr >= self.body_stages {
            if S::ENABLED {
                TraceCtx::new(self.cycle, pl as u16, (self.body_stages - 1) as u16)
                    .emit(&mut self.sink, EventKind::Egress { pkt: fl.pkt.id });
            }
            self.max_passes = self.max_passes.max(fl.passes);
            self.report.result.outputs.insert(
                fl.pkt.id,
                fl.pkt.fields[..self.prog.declared_fields].to_vec(),
            );
            self.report.completions.push((fl.pkt.id, self.cycle));
            self.report.completed += 1;
            return;
        }
        // Target: the pipeline of the first pending access at the next
        // unexecuted stage (stateless pending stages execute anywhere,
        // so scan forward for the first stateful constraint).
        let mut target = None;
        for b in fl.exec_ptr..self.body_stages {
            let phys = (b + self.prologue) as u16;
            if let Some(t) = fl.pkt.tags.iter().find(|t| t.stage == StageId(phys)) {
                target = Some(t.pipeline.index());
                break;
            }
        }
        // No stateful constraint remains: any pipeline can finish it.
        let target = target.unwrap_or(0);
        let mut fl = fl;
        fl.passes += 1;
        self.total_recircs += 1;
        if S::ENABLED {
            TraceCtx::new(self.cycle, pl as u16, (self.body_stages - 1) as u16).emit(
                &mut self.sink,
                EventKind::Recirculate {
                    pkt: fl.pkt.id,
                    target: target as u16,
                },
            );
        }
        self.looping
            .push((self.cycle + self.cfg.recirc_latency, target, fl));
    }

    fn finish(mut self) -> (RecircReport, S) {
        let mut final_regs = Vec::with_capacity(self.prog.regs.len());
        for (ri, meta) in self.prog.regs.iter().enumerate() {
            let mut arr = Vec::with_capacity(meta.size as usize);
            for idx in 0..meta.size as usize {
                let pl = self.access_pipeline(mp5_types::RegId::from(ri), idx as u32);
                arr.push(self.regs[pl][ri][idx]);
            }
            final_regs.push(arr);
        }
        self.report.result.final_regs = final_regs;
        self.report.result.processed = self.report.completed;
        self.report.cycles = self.cycle;
        (
            RecircReport {
                report: self.report,
                total_recircs: self.total_recircs,
                max_passes: self.max_passes,
            },
            self.sink,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp5_banzai::BanzaiSwitch;
    use mp5_compiler::{compile, Target};
    use mp5_core::{Mp5Switch, SwitchConfig};
    use mp5_traffic::TraceBuilder;

    const TWO_STATE: &str = "struct Packet { int a; int b; int o; };
        int r1[16] = {0};
        int r2[64] = {0};
        void func(struct Packet p) {
            r1[p.a % 16] = r1[p.a % 16] + 1;
            r2[p.b % 64] = r2[p.b % 64] + 1;
            p.o = r2[p.b % 64];
        }";

    fn trace(src: &str, n: usize, seed: u64) -> (CompiledProgram, Vec<Packet>) {
        let prog = compile(src, &Target::default()).unwrap();
        let nf = prog.num_fields();
        let t = TraceBuilder::new(n, seed).build(nf, |r, _, f| {
            use rand::Rng;
            f[0] = r.gen_range(0..1000);
            f[1] = r.gen_range(0..1000);
        });
        (prog, t)
    }

    #[test]
    fn recirc_processes_everything_eventually() {
        let (prog, t) = trace(TWO_STATE, 2000, 1);
        let rep = RecircSwitch::new(prog, RecircConfig::new(4)).run(t);
        assert_eq!(rep.report.completed, 2000);
        assert!(rep.total_recircs > 0, "remote state must force recircs");
        assert!(rep.max_passes >= 2);
    }

    #[test]
    fn recirc_absorbs_injected_stalls() {
        let (prog, t) = trace(TWO_STATE, 1500, 5);
        let reference = BanzaiSwitch::new(prog.clone()).run(t.clone());
        let plan = mp5_faults::FaultPlan::new(9).stage_stall(10, 0, 2, 60);
        let rep =
            RecircSwitch::with_faults(prog, RecircConfig::new(4), NopSink, plan.injector()).run(t);
        assert_eq!(rep.report.completed, 1500);
        // Recirculation does not preserve C1, so a stall may legally reorder
        // state accesses and change order-dependent packet *outputs*. The
        // order-independent increment counters must still be conserved.
        assert_eq!(
            rep.report.result.final_regs, reference.final_regs,
            "stalls delay passes but never lose state updates"
        );
        assert_eq!(rep.report.fault.injected, 1);
        assert!(rep.report.fault.accounted());
        assert!(
            rep.report.fault.stall_cycles > 0,
            "the stall window must suppress executions"
        );
    }

    #[test]
    fn recirc_violates_c1_under_contention() {
        let (prog, t) = trace(TWO_STATE, 3000, 2);
        let reference = BanzaiSwitch::new(prog.clone()).run(t.clone());
        let rep = RecircSwitch::new(prog, RecircConfig::new(4)).run(t);
        assert_ne!(
            rep.report.result.access_log, reference.access_log,
            "re-circulation delay must break the arrival-order access"
        );
    }

    #[test]
    fn recirc_throughput_below_mp5() {
        let (prog, t) = trace(TWO_STATE, 3000, 3);
        let mp5 = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(4)).run(t.clone());
        let rec = RecircSwitch::new(prog, RecircConfig::new(4)).run(t);
        assert!(
            rec.report.normalized_throughput() < mp5.normalized_throughput(),
            "recirc {} must be slower than MP5 {}",
            rec.report.normalized_throughput(),
            mp5.normalized_throughput()
        );
    }

    #[test]
    fn stateless_program_needs_no_recircs() {
        let (prog, t) = trace(
            "struct Packet { int a; int b; int o; };
             void func(struct Packet p) { p.o = p.a + p.b; }",
            8000,
            4,
        );
        let reference = BanzaiSwitch::new(prog.clone()).run(t.clone());
        let rep = RecircSwitch::new(prog, RecircConfig::new(4)).run(t);
        assert_eq!(rep.total_recircs, 0);
        assert!(rep.report.result.equivalent_to(&reference));
        assert!(
            rep.report.normalized_throughput() > 0.95,
            "got {}",
            rep.report.normalized_throughput()
        );
    }

    #[test]
    fn single_pipeline_recirc_is_equivalent() {
        // With k=1 everything is local: no recircs, serial order holds.
        let (prog, t) = trace(TWO_STATE, 1500, 5);
        let reference = BanzaiSwitch::new(prog.clone()).run(t.clone());
        let rep = RecircSwitch::new(prog, RecircConfig::new(1)).run(t);
        assert_eq!(rep.total_recircs, 0);
        assert!(rep.report.result.equivalent_to(&reference));
    }

    #[test]
    fn traced_recirc_records_loops_and_conserves_packets() {
        use mp5_trace::{EventKind, MemSink};
        let (prog, t) = trace(TWO_STATE, 1000, 7);
        let plain = RecircSwitch::new(prog.clone(), RecircConfig::new(4)).run(t.clone());
        let (rep, sink) =
            RecircSwitch::with_sink(prog, RecircConfig::new(4), MemSink::new()).run_traced(t);
        assert_eq!(plain.report.result.final_regs, rep.report.result.final_regs);
        assert_eq!(plain.report.cycles, rep.report.cycles);
        let evs = sink.into_events();
        let count =
            |pred: fn(&EventKind) -> bool| evs.iter().filter(|e| pred(&e.kind)).count() as u64;
        assert_eq!(
            count(|k| matches!(k, EventKind::Recirculate { .. })),
            rep.total_recircs
        );
        assert_eq!(
            count(|k| matches!(k, EventKind::Ingress { .. })),
            rep.report.offered
        );
        assert_eq!(
            count(|k| matches!(k, EventKind::Egress { .. })),
            rep.report.completed
        );
    }

    #[test]
    fn port_map_is_contiguous_blocks() {
        let (prog, _) = trace(TWO_STATE, 1, 6);
        let sw = RecircSwitch::new(prog, RecircConfig::new(4));
        assert_eq!(sw.port_pipeline(0), 0);
        assert_eq!(sw.port_pipeline(15), 0);
        assert_eq!(sw.port_pipeline(16), 1);
        assert_eq!(sw.port_pipeline(63), 3);
    }
}
