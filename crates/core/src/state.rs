//! Checkpointable switch state.
//!
//! [`SwitchState`] is a plain-data mirror of every live field of an
//! [`crate::Mp5Switch`] at a **cycle boundary** (between two `tick()`
//! calls): register files, FIFO occupancy (data *and* phantom lanes,
//! including the recovery queue), the remap table, crossbar and
//! scheduler cursors, the phantom channel's in-flight set, cycle
//! counters, and the full [`crate::RunReport`] accumulated so far.
//!
//! The mirror exists so checkpoints can be serialized without exposing
//! the switch's runtime representation: every hash-map becomes a
//! **sorted `Vec`** (deterministic bytes, JSON-friendly keys), every
//! fabric type becomes a struct of public plain fields, and derived
//! views (the phantom directory, occupancy indexes, work-pass scratch
//! buffers) are omitted entirely — `Mp5Switch::try_restore_with`
//! rebuilds them. The contract, enforced by the snapshot proptest
//! suite, is *bit-identical continuation*: a switch restored from a
//! checkpoint produces the same `RunReport` and traced `stream_hash`
//! as the uninterrupted run.

use mp5_types::{Packet, PacketId, RegId, Value};
use serde::{Deserialize, Serialize};

/// A packet in flight inside the switch (mirror of the runtime
/// `Flight`): the packet, its switch-entry order key, and the pipeline
/// it was sprayed onto.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightState {
    /// The packet (header fields, tags, metadata).
    pub pkt: Packet,
    /// Switch entry order `(arrival byte-time, ingress port)`.
    pub order: (u64, u64),
    /// Pipeline assigned at admission.
    pub ingress: u16,
}

/// A phantom directory key (mirror of `mp5_fabric::PhantomKey`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct KeySnap {
    /// The data packet this phantom stands in for.
    pub pkt: PacketId,
    /// The register array of the access.
    pub reg: RegId,
    /// The resolved register index of the access.
    pub index: u32,
}

/// One queued FIFO entry (mirror of `mp5_fabric::Entry<Flight>`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EntrySnap {
    /// A placeholder for a data packet that has not yet arrived.
    Phantom {
        /// Directory key.
        key: KeySnap,
        /// Ordering timestamp.
        ts: (u64, u64),
    },
    /// An actual data packet, ready for stateful processing.
    Data {
        /// The queued flight.
        item: FlightState,
        /// Ordering timestamp.
        ts: (u64, u64),
    },
    /// A cancelled placeholder (free entries reclaim without consuming
    /// service; non-free ones cost one pop cycle, per §3.3).
    Stale {
        /// Ordering timestamp.
        ts: (u64, u64),
        /// Whether the entry reclaims without consuming service.
        free: bool,
    },
}

/// FIFO statistics counters (mirror of `mp5_fabric::FifoStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsSnap {
    /// Phantoms dropped on full lanes.
    pub phantom_drops: u64,
    /// Data packets dropped because their phantom was missing.
    pub data_drops_no_phantom: u64,
    /// Data packets dropped on full lanes.
    pub data_drops_full: u64,
    /// Pop cycles consumed by stale entries.
    pub stale_cycles: u64,
    /// Pop cycles blocked behind a phantom head.
    pub blocked_cycles: u64,
    /// Lost-phantom data packets re-admitted via the recovery queue.
    pub recovered: u64,
}

/// One physical FIFO lane: its stable head sequence number, occupancy
/// high-water mark, and queued entries head-to-tail.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneSnap {
    /// Sequence number of the head element (keeps `FifoAddr`s stable
    /// across restore).
    pub head_seq: u64,
    /// Occupancy high-water mark.
    pub max_occupancy: usize,
    /// Entries, head to tail.
    pub entries: Vec<EntrySnap>,
}

/// A whole logical FIFO: `k` lanes plus the timestamp-sorted recovery
/// queue. The phantom directory and occupancy index are derived views
/// and are rebuilt on restore.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FifoSnap {
    /// Per-lane capacity (`None` = unbounded).
    pub capacity: Option<usize>,
    /// The lanes, in pipeline order.
    pub lanes: Vec<LaneSnap>,
    /// Recovery queue (data entries only), ascending timestamp.
    pub recovered: Vec<EntrySnap>,
    /// Recovery-queue high-water mark.
    pub max_recovered: usize,
    /// Statistics counters.
    pub stats: StatsSnap,
}

/// One per-(pipeline, stage) input queue.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueSnap {
    /// The paper's logical FIFO of `k` lanes.
    Logical(FifoSnap),
    /// The ideal-MP5 per-index queue bank (`per_index_fifos`), as
    /// `(register index, sub-queue)` pairs in ascending index order.
    PerIndex {
        /// Live sub-queues, ascending register index.
        subs: Vec<(u32, FifoSnap)>,
        /// Total-occupancy high-water mark.
        max_total: usize,
        /// Bound applied to each sub-queue.
        capacity: Option<usize>,
    },
}

/// A phantom in flight on the dedicated channel (mirror of the runtime
/// `PhantomMsg` plus its channel position).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelFlightSnap {
    /// Directory key of the phantom.
    pub key: KeySnap,
    /// Ordering timestamp it will freeze in the destination FIFO.
    pub ts: (u64, u64),
    /// Destination pipeline.
    pub dest: u16,
    /// Source lane recorded for FIFO placement.
    pub lane: u16,
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

/// Mirror of `mp5_banzai::RunResult` with the hash maps flattened to
/// sorted vectors.
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

/// Mirror of [`crate::DropCounts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DropsSnap {
    /// Phantoms dropped on full FIFOs.
    pub phantom_fifo_full: u64,
    /// Data packets dropped because their phantom was missing.
    pub data_no_phantom: u64,
    /// Data packets dropped on full FIFOs.
    pub data_fifo_full: u64,
    /// Stateless packets dropped in favor of starving stateful packets.
    pub starvation: u64,
}

/// Mirror of [`crate::FaultReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSnap {
    /// Faults fired by the plan.
    pub injected: u64,
    /// Transient faults fully absorbed.
    pub recovered: u64,
    /// Faults acknowledged as permanent degradation.
    pub degraded: u64,
    /// Cycles spent with at least one dead pipeline.
    pub degraded_cycles: u64,
    /// Indexes evacuated off dead pipelines.
    pub evacuated_indexes: u64,
    /// Phantoms lost to injected drops / forced overflow.
    pub phantoms_dropped: u64,
    /// Lost-phantom data packets recovered into FIFO order.
    pub phantoms_recovered: u64,
    /// Pipelines dead so far (ascending).
    pub dead_pipelines: Vec<u16>,
    /// Stage-cycles suppressed by injected stalls.
    pub stall_cycles: u64,
    /// Crossbar grants delayed by injected grant latency.
    pub delayed_grants: u64,
    /// Remap rounds aborted by injected control-plane failures.
    pub aborted_remaps: u64,
}

/// Mirror of [`crate::RunReport`] with `BTreeMap`/`FastMap` fields
/// flattened to sorted vectors.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReportSnap {
    /// Functional-equivalence evidence.
    pub result: ResultSnap,
    /// Packets offered to the switch.
    pub offered: u64,
    /// Packets processed to completion.
    pub completed: u64,
    /// Drops by cause.
    pub drops: DropsSnap,
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
    pub fault: FaultSnap,
}

/// Complete live state of an [`crate::Mp5Switch`] at a cycle boundary.
///
/// Produced by `Mp5Switch::extract_state`, consumed by
/// `Mp5Switch::try_restore_with`. Everything the next `tick()` can
/// observe is here; work-pass scratch buffers (which are empty at the
/// boundary by construction) are not.
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
    pub lanes: Vec<Vec<Option<FlightState>>>,
    /// The phantom channel.
    pub channel: ChannelSnap,
    /// Per-stage crossbar statistics.
    pub crossbars: Vec<XbarSnap>,
    /// Phantoms cancelled while still on the channel, ascending key.
    pub cancelled: Vec<KeySnap>,
    /// Phantoms lost to injected faults, awaiting their data packet,
    /// ascending key.
    pub lost: Vec<KeySnap>,
    /// Arrived packets waiting for an ingress slot, queue order.
    pub ingress_q: Vec<FlightState>,
    /// Future arrivals, ascending entry order.
    pub arrivals: Vec<Packet>,
    /// Steered packets held back by injected grant delays:
    /// `(ready cycle, dest pipeline, stage, flight)`, insertion order.
    pub pending_grants: Vec<(u64, u16, usize, FlightState)>,
    /// Completed packets not yet drained by the caller,
    /// `(packet, exit cycle)` in completion order.
    pub egress_buf: Vec<(Packet, u64)>,
    /// Per-pipeline parked-stage bitmask (derived; rebuilt on restore).
    pub park_mask: Vec<u64>,
    /// Per-pipeline incoming-row bitmask (zero at a boundary; kept for
    /// completeness).
    pub inc_mask: Vec<u64>,
    /// Per-pipeline maybe-non-empty-FIFO bitmask (conservative).
    pub queue_mask: Vec<u64>,
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
/// The invariants the chaos/serve suites assert are `migrated ==
/// evacuated` (every register index read out of the old program's
/// ownership was written into the new one's) and `lost_phantoms == 0`
/// (every queued or in-flight phantom still addresses a valid register
/// coordinate under the new program).
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

    #[test]
    fn state_round_trips_through_json() {
        let snap = SwitchState {
            cycle: 7,
            rr: 1,
            regs: vec![vec![vec![1, 2]]],
            index_map: vec![vec![0, 0]],
            access_ctr: vec![vec![3, 0]],
            inflight: vec![vec![0, 1]],
            queues: vec![vec![QueueSnap::Logical(FifoSnap {
                capacity: Some(8),
                lanes: vec![LaneSnap {
                    head_seq: 4,
                    max_occupancy: 2,
                    entries: vec![EntrySnap::Stale {
                        ts: (9, 0),
                        free: true,
                    }],
                }],
                recovered: vec![],
                max_recovered: 0,
                stats: StatsSnap::default(),
            })]],
            lanes: vec![vec![None]],
            channel: ChannelSnap {
                stages: 1,
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
            ingress_q: vec![],
            arrivals: vec![],
            pending_grants: vec![],
            egress_buf: vec![],
            park_mask: vec![0],
            inc_mask: vec![0],
            queue_mask: vec![0],
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
