//! Checkpointable switch state.
//!
//! MP5's state is the D2 register shards with their index map, plus the
//! D4 phantom placeholders in the stage FIFOs; a checkpoint is that
//! plus everything else the next cycle can observe — FIFO occupancy
//! (data, phantom and stale entries, and the recovery queue), the
//! phantoms on the channel, packets in lanes and at ingress, crossbar
//! and scheduler cursors, fault degradation, and the
//! [`crate::RunReport`] so far — taken at a **cycle boundary**, between
//! two `tick()` calls, when every per-cycle scratch buffer is empty.
//!
//! [`SwitchState`] serializes the live types themselves: a queued
//! packet is the switch's own [`Flight`], a FIFO the fabric's
//! [`FifoParts`], a key the fabric's [`PhantomKey`]. A type of its own
//! appears only where the runtime representation is not plain data —
//! hash maps and `BTreeMap`s become sorted vectors (deterministic
//! bytes, JSON-friendly keys), the channel's flights a flat list, a
//! crossbar its counters. Derived views (the phantom directory, FIFO
//! occupancy indexes, the per-pipeline occupancy masks, the remap
//! bitmap, work-pass scratch) are not written; a restore
//! (`Mp5Switch::try_restore_with`) rebuilds them, after checking that
//! the state is one the program and configuration can run. The
//! contract, enforced by the model harness (`tests/model.rs`), is *bit-identical
//! continuation*: a switch restored from a checkpoint produces the same
//! `RunReport` and traced `stream_hash` as the uninterrupted run.

use mp5_fabric::{Entry, FifoParts, OrderKey, PhantomKey};
use mp5_types::{AccessTag, Packet, PacketId, PipelineId, RegId, Value};
use serde::{Deserialize, Serialize};

use crate::report::{DropCounts, FaultReport};

/// A packet in flight inside the switch: the packet, its switch-entry
/// order key, and the pipeline it was sprayed onto (the lane its
/// phantoms use).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightState {
    /// The packet (header fields, tags, metadata).
    pub pkt: Packet,
    /// Switch entry order `(arrival byte-time, ingress port)`.
    pub order: OrderKey,
    /// Pipeline assigned at admission.
    pub ingress: PipelineId,
}

/// A packet in flight as a checkpoint writes it. The running switch
/// keeps every packet in flight once, in a slab, and moves `u32`
/// handles to it (DESIGN.md §13); a `Flight` is built only when a
/// checkpoint is extracted, and unpacked into the slab on restore, so
/// the bytes are those of the boxed flights the switch once moved.
pub type Flight = Box<FlightState>;

impl FlightState {
    /// The phantom key for one of this packet's access tags.
    pub(crate) fn key(&self, tag: &AccessTag) -> PhantomKey {
        PhantomKey {
            pkt: self.pkt.id,
            reg: tag.reg,
            index: tag.index,
        }
    }
}

/// One per-(pipeline, stage) input queue.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueSnap {
    /// The paper's logical FIFO of `k` lanes.
    Logical(FifoParts<Flight>),
    /// The ideal-MP5 per-index queue bank (`per_index_fifos`), as
    /// `(register index, sub-queue)` pairs in ascending index order.
    PerIndex {
        /// Live sub-queues, ascending register index.
        subs: Vec<(u32, FifoParts<Flight>)>,
        /// Total-occupancy high-water mark.
        max_total: usize,
        /// Bound applied to each sub-queue.
        capacity: Option<usize>,
    },
}

impl QueueSnap {
    /// Every queued entry, FIFO by FIFO (the logical one, or each
    /// per-index sub-queue), lanes before the recovery queue.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &Entry<Flight>> {
        let (one, subs) = match self {
            QueueSnap::Logical(f) => (Some(f), None),
            QueueSnap::PerIndex { subs, .. } => (None, Some(subs.iter().map(|(_, f)| f))),
        };
        let fifos = one.into_iter().chain(subs.into_iter().flatten());
        fifos.flat_map(|f| f.lanes.iter().flat_map(|l| &l.entries).chain(&f.recovered))
    }
}

/// A phantom in flight on the dedicated channel: its message, flattened,
/// plus its channel position.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelFlightSnap {
    /// Directory key of the phantom.
    pub key: PhantomKey,
    /// Ordering timestamp it will freeze in the destination FIFO.
    pub ts: OrderKey,
    /// Destination pipeline.
    pub dest: PipelineId,
    /// Source lane recorded for FIFO placement.
    pub lane: PipelineId,
    /// Current hop position (stage the phantom has reached).
    pub at: u16,
    /// Destination stage.
    pub dest_stage: u16,
}

/// The phantom channel: geometry, statistics, and in-flight phantoms in
/// injection order (Invariant 1 delivery order depends on it).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelSnap {
    /// Stage count of the interconnect.
    pub stages: usize,
    /// In-flight high-water mark.
    pub max_in_flight: usize,
    /// Phantoms delivered so far.
    pub delivered: u64,
    /// In-flight phantoms, injection order.
    pub flights: Vec<ChannelFlightSnap>,
}

/// One inter-stage crossbar's statistics (`k×k` route matrix row-major,
/// plus the count of cycles with at least one off-diagonal grant).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct XbarSnap {
    /// Route counts, `k×k` row-major.
    pub routed: Vec<u64>,
    /// Cycles with at least one steer.
    pub steer_cycles: u64,
}

/// `mp5_banzai::RunResult` with the hash maps flattened to sorted
/// vectors.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResultSnap {
    /// Final contents of every register array.
    pub final_regs: Vec<Vec<Value>>,
    /// Final declared header fields of each completed packet, ascending
    /// packet id.
    pub outputs: Vec<(PacketId, Vec<Value>)>,
    /// Per-state packet access order, ascending `(register, index)`.
    pub access_log: Vec<(RegId, u32, Vec<PacketId>)>,
    /// Packets processed to completion.
    pub processed: u64,
}

/// [`crate::RunReport`] with its maps flattened to sorted vectors.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReportSnap {
    /// Functional-equivalence evidence.
    pub result: ResultSnap,
    /// Packets offered to the switch.
    pub offered: u64,
    /// Packets processed to completion.
    pub completed: u64,
    /// Drops by cause.
    pub drops: DropCounts,
    /// Total simulated cycles so far.
    pub cycles: u64,
    /// Duration of the input stream in byte-times.
    pub input_duration: u64,
    /// Completion sequence `(packet, cycle)` in exit order.
    pub completions: Vec<(PacketId, u64)>,
    /// Highest FIFO occupancy observed anywhere.
    pub max_queue_depth: usize,
    /// Packets steered across pipelines.
    pub steered: u64,
    /// Phantom packets generated.
    pub phantoms_generated: u64,
    /// Pop cycles wasted on speculative-false phantoms.
    pub wasted_cycles: u64,
    /// State migrations performed by the sharding runtime.
    pub remap_moves: u64,
    /// Packets that exited with the ECN mark set.
    pub ecn_marked: u64,
    /// Byte-times per pipeline cycle.
    pub cycle_len: u64,
    /// Per-`(pipeline, stage)` drop counts, ascending location.
    pub stage_drops: Vec<(u16, u16, u64)>,
    /// Fault-injection accounting.
    pub fault: FaultReport,
}

/// Complete live state of an [`crate::Mp5Switch`] at a cycle boundary.
///
/// Produced by `Mp5Switch::extract_state`, consumed by
/// `Mp5Switch::try_restore_with`. Everything the next `tick()` can
/// observe is here; derived views and work-pass scratch buffers (empty
/// at the boundary by construction) are not.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchState {
    /// Simulated cycle count.
    pub cycle: u64,
    /// Ingress round-robin cursor.
    pub rr: usize,
    /// Register state, `[pipeline][register][index]`.
    pub regs: Vec<Vec<Vec<Value>>>,
    /// Index-to-pipeline map, `[register][index]` (D2).
    pub index_map: Vec<Vec<u16>>,
    /// Packet access counters per register index.
    pub access_ctr: Vec<Vec<u64>>,
    /// In-flight packet counters per register index (remap guard).
    pub inflight: Vec<Vec<u32>>,
    /// Input queues, `[pipeline][stage]`.
    pub queues: Vec<Vec<QueueSnap>>,
    /// Stage occupancy, `[pipeline][stage]`.
    pub lanes: Vec<Vec<Option<Flight>>>,
    /// The phantom channel.
    pub channel: ChannelSnap,
    /// Per-stage crossbar statistics.
    pub crossbars: Vec<XbarSnap>,
    /// Phantoms cancelled while still on the channel, ascending key.
    pub cancelled: Vec<PhantomKey>,
    /// Phantoms lost to injected faults, awaiting their data packet,
    /// ascending key.
    pub lost: Vec<PhantomKey>,
    /// Arrived packets waiting for an ingress slot, queue order.
    pub ingress_q: Vec<Flight>,
    /// Future arrivals, ascending entry order.
    pub arrivals: Vec<Packet>,
    /// Steered packets held back by injected grant delays:
    /// `(ready cycle, dest pipeline, stage, flight)`, insertion order.
    pub pending_grants: Vec<(u64, PipelineId, usize, Flight)>,
    /// Completed packets not yet drained by the caller,
    /// `(packet, exit cycle)` in completion order.
    pub egress_buf: Vec<(Packet, u64)>,
    /// Per-pipeline liveness (`true` = killed by an injected fault).
    pub dead: Vec<bool>,
    /// Dead pipelines whose evacuation-complete event was emitted.
    pub evac_done: Vec<bool>,
    /// Indexes evacuated off each pipeline so far.
    pub evac_counts: Vec<u64>,
    /// The report accumulated so far.
    pub report: ReportSnap,
}

/// Why a [`SwitchState`] could not be injected into a fresh switch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The target configuration is structurally invalid.
    Config(crate::ConfigError),
    /// The state's shape does not match the target program/configuration
    /// (wrong pipeline count, register layout, stage count, …).
    Incompatible(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Config(e) => write!(f, "invalid configuration: {e}"),
            RestoreError::Incompatible(why) => {
                write!(f, "snapshot incompatible with target switch: {why}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

impl From<crate::ConfigError> for RestoreError {
    fn from(e: crate::ConfigError) -> Self {
        RestoreError::Config(e)
    }
}

/// Why a hot-swap was rejected (the new program's state layout is not
/// compatible with the running one's). Rejection leaves the running
/// switch untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwapError {
    /// The declared packet field layout differs.
    FieldLayout {
        /// Running program's field names.
        old: Vec<String>,
        /// Candidate program's field names.
        new: Vec<String>,
    },
    /// The stage counts differ (in-flight packets hold stage-resolved
    /// tags).
    StageCount {
        /// Running program's stage count.
        old: usize,
        /// Candidate program's stage count.
        new: usize,
    },
    /// The prologue (resolution) depths differ.
    PrologueDepth {
        /// Running program's prologue depth.
        old: usize,
        /// Candidate program's prologue depth.
        new: usize,
    },
    /// The register counts differ.
    RegisterCount {
        /// Running program's register count.
        old: usize,
        /// Candidate program's register count.
        new: usize,
    },
    /// Register `index` differs in name, size, home stage, or
    /// shardability — queued phantoms and the index map address it by
    /// exactly those coordinates.
    RegisterLayout {
        /// Index of the mismatched register.
        index: usize,
        /// Human-readable mismatch description.
        detail: String,
    },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::FieldLayout { old, new } => {
                write!(f, "packet field layout differs: {old:?} -> {new:?}")
            }
            SwapError::StageCount { old, new } => {
                write!(f, "stage count differs: {old} -> {new}")
            }
            SwapError::PrologueDepth { old, new } => {
                write!(f, "prologue depth differs: {old} -> {new}")
            }
            SwapError::RegisterCount { old, new } => {
                write!(f, "register count differs: {old} -> {new}")
            }
            SwapError::RegisterLayout { index, detail } => {
                write!(f, "register {index} layout differs: {detail}")
            }
        }
    }
}

impl std::error::Error for SwapError {}

/// The ledger of a completed hot-swap: evidence that no state and no
/// phantom was lost while the program changed under live traffic.
///
/// The invariants the model harness and the serve suites assert are
/// `migrated == evacuated` (every register index read out of the old
/// program's ownership was written into the new one's) and
/// `lost_phantoms == 0` (every queued or in-flight phantom still
/// addresses a valid register coordinate under the new program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwapReport {
    /// Cycle boundary at which the swap happened.
    pub cycle: u64,
    /// Register indexes written into the new program's state.
    pub migrated: u64,
    /// Register indexes read out of the old program's state.
    pub evacuated: u64,
    /// Queued/in-flight phantoms left addressing an invalid register
    /// coordinate (always 0 for an accepted swap).
    pub lost_phantoms: u64,
}

impl SwapReport {
    /// Does the ledger close? (`migrated == evacuated`, zero lost
    /// phantoms.)
    pub fn closed(&self) -> bool {
        self.migrated == self.evacuated && self.lost_phantoms == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_report_ledger_closes() {
        let ok = SwapReport {
            cycle: 10,
            migrated: 64,
            evacuated: 64,
            lost_phantoms: 0,
        };
        assert!(ok.closed());
        assert!(!SwapReport {
            lost_phantoms: 1,
            ..ok
        }
        .closed());
        assert!(!SwapReport { migrated: 63, ..ok }.closed());
    }

    #[test]
    fn errors_render_their_cause() {
        let e = SwapError::RegisterLayout {
            index: 2,
            detail: "size 64 -> 128".into(),
        };
        assert!(e.to_string().contains("register 2"));
        let r = RestoreError::Incompatible("pipeline count 4 != 8".into());
        assert!(r.to_string().contains("pipeline count"));
    }

    /// A state of live types, with a free stale entry, a bounded
    /// capacity and a per-index queue, survives JSON unchanged.
    #[test]
    fn state_round_trips_through_json() {
        use mp5_fabric::{FifoStats, LaneParts};
        let fifo = |entries| FifoParts::<Flight> {
            capacity: Some(8),
            lanes: vec![LaneParts {
                head_seq: 4,
                max_occupancy: 2,
                entries,
            }],
            recovered: vec![],
            max_recovered: 0,
            stats: FifoStats::default(),
        };
        let stale = Entry::Stale {
            ts: OrderKey(9, 0),
            free: true,
        };
        let flight = Box::new(FlightState {
            pkt: Packet::new(PacketId(3), mp5_types::PortId(1), 9, 64, 2),
            order: OrderKey(9, 1),
            ingress: PipelineId(0),
        });
        let per_index = QueueSnap::PerIndex {
            subs: vec![(
                5,
                fifo(vec![Entry::Data {
                    item: flight.clone(),
                    ts: OrderKey(9, 1),
                }]),
            )],
            max_total: 1,
            capacity: Some(8),
        };
        let snap = SwitchState {
            cycle: 7,
            rr: 1,
            regs: vec![vec![vec![1, 2]]],
            index_map: vec![vec![0, 0]],
            access_ctr: vec![vec![3, 0]],
            inflight: vec![vec![0, 1]],
            queues: vec![vec![QueueSnap::Logical(fifo(vec![stale])), per_index]],
            lanes: vec![vec![None, Some(flight.clone())]],
            channel: ChannelSnap {
                stages: 2,
                max_in_flight: 0,
                delivered: 0,
                flights: vec![],
            },
            crossbars: vec![XbarSnap {
                routed: vec![0],
                steer_cycles: 0,
            }],
            cancelled: vec![],
            lost: vec![],
            ingress_q: vec![flight],
            arrivals: vec![],
            pending_grants: vec![],
            egress_buf: vec![],
            dead: vec![false],
            evac_done: vec![false],
            evac_counts: vec![0],
            report: ReportSnap::default(),
        };
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: SwitchState = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, snap);
    }
}
