//! The MP5 switch simulator (architecture §3.2 + runtime §3.4).

use std::collections::VecDeque;

use mp5_compiler::CompiledProgram;
use mp5_fabric::{Crossbar, FifoAddr, OrderKey, PhantomChannel, PhantomKey};
use mp5_faults::{FaultInjector, NoFaults};
use mp5_trace::{EventKind, NopSink, TraceCtx, TraceSink, NO_LOC};
use mp5_types::time::{cycle_len, Time};
use mp5_types::{FastSet, Packet, PacketId, PipelineId, PortId, RegId, StageId};

use crate::config::{ConfigError, ShardingMode, SprayMode, SwitchConfig};
use crate::report::RunReport;
use crate::shard::{self, Touched};
use queue::StageQueue;
use slab::{Flights, Handle};
use work::Pipe;

mod queue;
mod recirc;
mod recovery;
mod slab;
mod snapshot;
mod steer;
#[cfg(test)]
mod tests;
mod work;

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

/// Two packets offered out of strictly ascending
/// [`Packet::entry_order_key`] order: `second` came after `first` with a
/// smaller key, or with the same one. A port delivers at most one packet
/// per byte-time, and the stage FIFOs order a packet's phantoms by that
/// key alone, so packets that tie on it would be served in an order C1
/// does not fix (DESIGN.md §8, defect 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryOrderError {
    /// The packet offered first: its id and entry-order key.
    pub first: (PacketId, Time, PortId),
    /// The packet offered after it.
    pub second: (PacketId, Time, PortId),
}

impl EntryOrderError {
    /// Whether the two packets share their key, rather than come in
    /// reverse order.
    fn is_tie(&self) -> bool {
        (self.first.1, self.first.2) == (self.second.1, self.second.2)
    }
}

impl std::fmt::Display for EntryOrderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ((id1, at1, port1), (id2, at2, port2)) = (self.first, self.second);
        if self.is_tie() {
            write!(
                f,
                "arrival {at2} port {port2} repeats the packet before it: a port delivers at \
                 most one packet per byte-time (packets {id1} and {id2})"
            )
        } else {
            write!(
                f,
                "arrival {at2} port {port2} is out of entry order: the packet before it \
                 arrives at {at1} on port {port1} (packets {id1} and {id2})"
            )
        }
    }
}

impl std::error::Error for EntryOrderError {}

/// The entry-order check every door into a switch makes: `next` may
/// follow `last` only with a strictly greater
/// [`Packet::entry_order_key`].
pub fn check_entry_order(last: Option<&Packet>, next: &Packet) -> Result<(), EntryOrderError> {
    check_after(last.map(entry_of), next)
}

/// A packet's id and entry-order key, as an [`EntryOrderError`] names it.
fn entry_of(p: &Packet) -> (PacketId, Time, PortId) {
    (p.id, p.arrival, p.port)
}

/// [`check_entry_order`] against a packet known by its id and key.
fn check_after(
    last: Option<(PacketId, Time, PortId)>,
    next: &Packet,
) -> Result<(), EntryOrderError> {
    match last {
        Some(first @ (_, at, port)) if (at, port) >= next.entry_order_key() => {
            Err(EntryOrderError {
                first,
                second: entry_of(next),
            })
        }
        _ => Ok(()),
    }
}

/// A packet offered with access tags. Tags are the switch's own: address
/// resolution fills them in for every arrival (paper §3.3), so an input
/// packet carries none, and one that did would widen the switch's
/// per-packet tag rows for the rest of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaggedArrival {
    /// The packet's id.
    pub id: PacketId,
    /// How many tags it carries.
    pub tags: usize,
}

impl TaggedArrival {
    /// `Err` for a packet that carries tags.
    fn check(p: &Packet) -> Result<(), TaggedArrival> {
        match p.tags.len() {
            0 => Ok(()),
            tags => Err(TaggedArrival { id: p.id, tags }),
        }
    }
}

impl std::fmt::Display for TaggedArrival {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "packet {} carries {} access tag(s): an arrival carries none, the switch \
             resolves its accesses",
            self.id, self.tags
        )
    }
}

impl std::error::Error for TaggedArrival {}

/// Why [`Mp5Switch::try_offer`] did not take a packet. Entry order is
/// checked first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferError {
    /// The packet does not follow the last packet offered.
    EntryOrder(EntryOrderError),
    /// The packet is due before the cycle the switch has reached, where
    /// it would enter later than its arrival says.
    Late {
        /// The packet's arrival.
        arrival: Time,
        /// The cycle the switch has reached.
        cycle: u64,
        /// The byte-time that cycle starts at.
        start: Time,
    },
    /// The packet carries access tags.
    Tagged(TaggedArrival),
}

impl std::fmt::Display for OfferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OfferError::EntryOrder(e) => e.fmt(f),
            OfferError::Late {
                arrival,
                cycle,
                start,
            } => write!(
                f,
                "arrival {arrival} is before cycle {cycle} (byte-time {start}), which the \
                 switch has reached"
            ),
            OfferError::Tagged(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for OfferError {}

impl From<EntryOrderError> for OfferError {
    fn from(e: EntryOrderError) -> Self {
        OfferError::EntryOrder(e)
    }
}

/// Why a whole-trace run ([`Mp5Switch::try_run`]) did not finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Two input packets share an entry-order key; nothing ran.
    EntryOrder(EntryOrderError),
    /// An input packet carries access tags; nothing ran.
    Tagged(TaggedArrival),
    /// The switch did not drain within its cycle cap.
    Liveness(InvariantViolation),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::EntryOrder(e) => write!(f, "input out of entry order: {e}"),
            RunError::Tagged(e) => write!(f, "input with tags: {e}"),
            RunError::Liveness(v) => v.fmt(f),
        }
    }
}

impl std::error::Error for RunError {}

impl From<EntryOrderError> for RunError {
    fn from(e: EntryOrderError) -> Self {
        RunError::EntryOrder(e)
    }
}

impl From<InvariantViolation> for RunError {
    fn from(v: InvariantViolation) -> Self {
        RunError::Liveness(v)
    }
}

/// A phantom packet payload on the dedicated channel: 48 bits in
/// hardware — `(packet id, state, index, pipeline, stage)` (Figure 5),
/// where the packet id is its buffer slot: here the packet's handle and
/// which of its tags the phantom stands for, so delivery records the
/// phantom's FIFO address in that packet's row.
#[derive(Debug, Clone)]
struct PhantomMsg {
    key: PhantomKey,
    ts: OrderKey,
    dest: PipelineId,
    lane: PipelineId,
    flight: Handle,
    /// The tag's place in its packet's slab row, counted from the end
    /// of the tag list (`Flights::tags`).
    back: u16,
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
    /// Reusable buffer for one packet's stage keys and their phantoms'
    /// addresses in [`Mp5Switch::enqueue_stateful`] (runs per stateful
    /// arrival).
    key_scratch: Vec<(PhantomKey, FifoAddr)>,
    crossbars: Vec<Crossbar>,
    /// Phantoms cancelled while still on the channel.
    cancelled: FastSet<PhantomKey>,
    /// Every packet between arrival and exit, and its phantoms'
    /// addresses; everything else holds handles into it.
    flights: Flights,
    /// Arrived packets waiting for an ingress slot.
    ingress_q: VecDeque<Handle>,
    /// Under `SprayMode::PortBlocks`, the packets waiting for pipeline
    /// `p`'s ingress slot instead: looping back to it at `2p`, fresh
    /// arrivals on its ports at `2p + 1` (`recirc`). A checkpoint writes
    /// them after `ingress_q`, as its `SwitchState::ingress_q`.
    port_q: Vec<VecDeque<Handle>>,
    /// Future arrivals, ascending entry order.
    arrivals: VecDeque<Packet>,
    /// The last packet offered, by id and entry-order key: what the next
    /// [`Mp5Switch::try_offer`] must follow, even once that packet has
    /// left `arrivals`. A restored switch starts from its last arrival;
    /// a packet that ties or precedes one admitted before the
    /// checkpoint is due before the restored cycle, so it is late.
    last_offered: Option<(PacketId, Time, PortId)>,
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
    /// Packets held back, `(ready_cycle, dest pipeline, stage, flight)`,
    /// drained in insertion order once ready: steered packets delayed by
    /// injected crossbar grant delays, and under
    /// `SprayMode::PortBlocks` recirculating ones (`recirc`).
    pending_grants: VecDeque<(u64, PipelineId, usize, Handle)>,
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
        Mp5Switch::with_faults(prog, cfg, sink, NoFaults)
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
        Self::try_with_faults(prog, cfg, sink, faults)
            .unwrap_or_else(|e| panic!("invalid SwitchConfig: {e}"))
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
        let sizes = prog.regs.iter().map(|r| r.size as usize);
        let access_ctr: Vec<Vec<u64>> = sizes.clone().map(|n| vec![0; n]).collect();
        let touched = access_ctr.iter().map(|c| Touched::of(c)).collect();
        let inflight = sizes.map(|n| vec![0; n]).collect();
        let pipes = (0..k).map(|_| Pipe::new(&prog, &cfg)).collect();
        let port_queues = match cfg.spray {
            SprayMode::PortBlocks => 2 * k,
            _ => 0,
        };
        let mut report = RunReport::new();
        report.set_cycle_len(cycle_len(timing_k));
        Ok(Mp5Switch {
            channel: PhantomChannel::new(stages),
            channel_buf: Vec::new(),
            key_scratch: Vec::new(),
            flights: Flights::new(prog.resolution.plans.len()),
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
            port_q: vec![VecDeque::new(); port_queues],
            arrivals: VecDeque::new(),
            last_offered: None,
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
    /// No two packets may share an [`Packet::entry_order_key`]
    /// ([`EntryOrderError`]).
    ///
    /// Panics on such a pair, or if the simulation fails to drain
    /// within its cycle cap; use [`Mp5Switch::try_run`] to handle either
    /// as a [`RunError`] instead.
    pub fn run(self, packets: Vec<Packet>) -> RunReport {
        self.try_run(packets).unwrap_or_else(|v| panic!("{v}"))
    }

    /// Like [`Mp5Switch::run`], but also returns the trace sink with
    /// its recorded event stream.
    pub fn run_traced(self, packets: Vec<Packet>) -> (RunReport, S) {
        self.try_run_traced(packets)
            .unwrap_or_else(|v| panic!("{v}"))
    }

    /// Runs a full trace to completion. Two packets that share an entry
    /// key are a [`RunError::EntryOrder`], and a packet with access tags
    /// a [`RunError::Tagged`], reported before any cycle runs; a switch
    /// that fails to drain within its cycle cap — the liveness invariant
    /// every well-formed configuration must uphold — is a
    /// [`RunError::Liveness`].
    pub fn try_run(self, packets: Vec<Packet>) -> Result<RunReport, RunError> {
        self.try_run_traced(packets).map(|(report, _)| report)
    }

    /// [`Mp5Switch::try_run`] returning the sink alongside the report,
    /// so callers can audit or export the recorded stream. This is the
    /// drain loop behind every `run` variant.
    pub fn try_run_traced(mut self, mut packets: Vec<Packet>) -> Result<(RunReport, S), RunError> {
        packets.sort_by_key(|p| p.entry_order_key());
        for pair in packets.windows(2) {
            check_entry_order(Some(&pair[0]), &pair[1])?;
        }
        for p in &packets {
            TaggedArrival::check(p).map_err(RunError::Tagged)?;
        }
        self.report.offered = packets.len() as u64;
        self.report.input_duration = packets
            .last()
            .map(|p| p.arrival + mp5_types::BYTES_PER_SLOT)
            .unwrap_or(0);
        self.arrivals = packets.into();
        while !self.drained() {
            self.check_liveness()?;
            self.step();
            // Whole-trace runs have no egress consumer: drop completions
            // as they happen so the buffer never grows past one cycle.
            self.egress_buf.clear();
        }
        debug_assert_eq!(self.flights.len(), 0, "a drained switch holds a packet");
        Ok(self.finish())
    }

    // Streaming API, the interface a multi-switch fabric drives: the
    // caller `offer`s packets as they become due, `tick`s one cycle at a
    // time and `drain_egress`es the packets that exited, to route them
    // on. The whole-trace `run` variants loop over the same `step`.

    /// Offers one packet to the switch's ingress, as
    /// [`Mp5Switch::try_offer`] does, and panics where that returns an
    /// error.
    pub fn offer(&mut self, pkt: Packet) {
        self.try_offer(pkt).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Offers one packet to the switch's ingress. Packets must come in
    /// strictly ascending [`Packet::entry_order_key`] order, and none
    /// before the cycle the switch has reached: one whose key does not
    /// follow the last packet offered, admitted or not, or that is due
    /// before `cycle · cycle_len`, is an [`OfferError`], and the switch
    /// does not take it. A restored switch checks both, so a packet
    /// that ties one admitted before the checkpoint is late. Nor does it
    /// take a packet that carries access tags ([`OfferError::Tagged`]):
    /// it resolves an arrival's accesses itself.
    pub fn try_offer(&mut self, pkt: Packet) -> Result<(), OfferError> {
        check_after(self.last_offered, &pkt)?;
        let start = self.cycle * self.cycle_len();
        if pkt.arrival < start {
            return Err(OfferError::Late {
                arrival: pkt.arrival,
                cycle: self.cycle,
                start,
            });
        }
        TaggedArrival::check(&pkt).map_err(OfferError::Tagged)?;
        self.last_offered = Some(entry_of(&pkt));
        self.report.offered += 1;
        let end = pkt.arrival + mp5_types::BYTES_PER_SLOT;
        if end > self.report.input_duration {
            self.report.input_duration = end;
        }
        self.arrivals.push_back(pkt);
        Ok(())
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

    /// Moves the packets that exited since the last drain onto the end
    /// of `out`, as [`Mp5Switch::drain_egress`] returns them. The switch
    /// keeps its buffer, so a caller that reuses `out` allocates nothing
    /// per drain.
    pub fn drain_egress_into(&mut self, out: &mut Vec<(Packet, u64)>) {
        out.append(&mut self.egress_buf);
    }

    /// The liveness bound every run is held to: `Err` once the switch
    /// has reached its cycle cap with work still inside. The cap is
    /// [`SwitchConfig::max_cycles`], or else a bound that grows with the
    /// input offered so far (four times `k + 2` cycles per input cycle,
    /// plus slack for the pipeline depth), which a well-formed
    /// configuration drains well within. The whole-trace `run` checks it
    /// before every cycle; a streaming caller checks it between ticks.
    pub fn check_liveness(&self) -> Result<(), InvariantViolation> {
        let cap = self.cfg.max_cycles.unwrap_or_else(|| {
            let input_cycles = self.report.input_duration / self.cycle_len() + 1;
            input_cycles * (self.k as u64 + 2) * 4 + (self.stages as u64) * 16 + 100_000
        });
        if self.cycle < cap || self.drained() {
            return Ok(());
        }
        let pipes = self.pipes.iter();
        Err(InvariantViolation {
            cap,
            ingress: self.ingress_q.len() + self.port_q.iter().map(VecDeque::len).sum::<usize>(),
            in_lanes: pipes.clone().flat_map(|p| &p.lanes).flatten().count(),
            queued: pipes.flat_map(|p| &p.queues).map(StageQueue::len).sum(),
            channel: self.channel.in_flight(),
        })
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
            && self.port_q.iter().all(VecDeque::is_empty)
            && self.channel.in_flight() == 0
            && self.pending_grants.is_empty()
            && self.pipes.iter().all(|p| {
                p.lanes.iter().all(|l| l.is_none()) && p.queues.iter().all(|q| q.is_empty())
            })
    }

    /// Simulates one pipeline cycle: the runtime's per-cycle loop
    /// (§3.2, §3.4), one phase per call, in the order the event stream
    /// and `RunReport` are defined by.
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
        self.deliver_phantoms();

        // 2b. Release held packets whose wait is over: steered ones past
        // an injected grant delay, recirculating ones.
        debug_assert!(self
            .pipes
            .iter()
            .all(|p| p.inc_row.iter().all(|s| s.is_none())));
        if !self.pending_grants.is_empty() {
            self.release_grants();
        }

        // 3. Move phase: all stage occupants advance simultaneously,
        // into the incoming rows the work phase emptied last cycle.
        self.move_phase();
        // One statistics tick per crossbar per simulated cycle.
        self.crossbars.iter_mut().for_each(|x| x.end_cycle());

        // 3b. Ingress: spray eligible arrivals over pipelines (or, under
        // port blocks, admit them on their ports' pipelines).
        self.admit();

        // 4. Admit/work phase: each (pipeline, stage) processes at most
        // one packet; incoming pass-through has priority (Invariant 2).
        self.work_phase();

        self.cycle += 1;
    }

    /// Background dynamic sharding (Figure 6, or its fixed point for the
    /// ideal baseline), with the in-flight guard and atomic state
    /// movement.
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
                    // The Figure 6 balancer iterated to a fixed point
                    // over *cumulative* counters: per-window samples are
                    // noise at this granularity, and cumulative loads
                    // leave a balanced map untouched.
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

impl<S: TraceSink, F: FaultInjector> Mp5Switch<S, F> {
    /// The fault injector attached to this switch.
    pub fn faults(&self) -> &F {
        &self.faults
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
