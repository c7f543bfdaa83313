//! Run reports: everything a run of the switch produces.

use std::collections::BTreeMap;

use mp5_banzai::RunResult;
use mp5_types::{Cycle, PacketId, Time};
use serde::{Deserialize, Serialize};

/// Packet-drop counters by cause (§3.4 "Handling packet drops").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DropCounts {
    /// Phantoms dropped on full FIFOs.
    pub phantom_fifo_full: u64,
    /// Data packets dropped because their phantom was missing.
    pub data_no_phantom: u64,
    /// Data packets dropped on full FIFOs (no-phantom modes).
    pub data_fifo_full: u64,
    /// Stateless packets dropped in favor of starving stateful packets.
    pub starvation: u64,
}

impl DropCounts {
    /// Total dropped *data* packets.
    pub fn total_data(&self) -> u64 {
        self.data_no_phantom + self.data_fifo_full + self.starvation
    }
}

/// Recovery accounting for a run with injected faults (`mp5-faults`).
///
/// The accounting invariant the switch maintains — and the chaos suite
/// asserts — is `injected == recovered + degraded`: every fired fault
/// is either fully absorbed by the recovery machinery or acknowledged
/// as permanent degradation (a dead pipeline, or a deliberately silent
/// phantom loss used as an auditor negative control).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultReport {
    /// Faults fired by the plan.
    pub injected: u64,
    /// Transient faults fully absorbed (stalls, recoverable phantom
    /// losses, forced FIFO pressure, grant delays, remap aborts).
    pub recovered: u64,
    /// Faults acknowledged as permanent degradation.
    pub degraded: u64,
    /// Cycles spent running with at least one dead pipeline.
    pub degraded_cycles: u64,
    /// Register indexes evacuated off dead pipelines via the D2 path.
    pub evacuated_indexes: u64,
    /// Phantoms lost to injected drops / forced overflow (recorded).
    pub phantoms_dropped: u64,
    /// Lost-phantom data packets recovered into FIFO order.
    pub phantoms_recovered: u64,
    /// Pipelines dead at end of run (ascending).
    pub dead_pipelines: Vec<u16>,
    /// Stage-cycles suppressed by injected stalls.
    pub stall_cycles: u64,
    /// Crossbar grants delayed by injected grant latency.
    pub delayed_grants: u64,
    /// Remap rounds aborted by injected control-plane failures.
    pub aborted_remaps: u64,
}

impl FaultReport {
    /// Does the accounting close? (`injected == recovered + degraded`.)
    pub fn accounted(&self) -> bool {
        self.injected == self.recovered + self.degraded
    }

    /// Whether any fault fired during the run.
    pub fn any(&self) -> bool {
        self.injected > 0
    }
}

/// Result of running a packet trace through an MP5 switch.
///
/// `PartialEq` compares every field — the equality the restore, swap
/// and digest tests rely on to assert a run is bit-identical to its
/// oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Functional-equivalence evidence (final registers, packet outputs,
    /// per-state access order) in the same shape the Banzai reference
    /// produces, so the two can be compared directly.
    pub result: RunResult,
    /// Packets offered to the switch.
    pub offered: u64,
    /// Packets processed to completion.
    pub completed: u64,
    /// Drops by cause.
    pub drops: DropCounts,
    /// Total simulated cycles until the switch drained.
    pub cycles: Cycle,
    /// Duration of the input trace in byte-times (last arrival + one
    /// slot).
    pub input_duration: Time,
    /// Completion sequence: `(packet, completion cycle)` in exit order —
    /// input for the reordering analysis.
    pub completions: Vec<(PacketId, Cycle)>,
    /// Highest per-stage FIFO occupancy observed anywhere (the paper
    /// reports 11/8/7/7 for the four real applications).
    pub max_queue_depth: usize,
    /// Packets steered across pipelines (off-diagonal crossbar routes).
    pub steered: u64,
    /// Phantom packets generated.
    pub phantoms_generated: u64,
    /// Pop cycles wasted on speculative-false phantoms.
    pub wasted_cycles: u64,
    /// State migrations performed by the sharding runtime.
    pub remap_moves: u64,
    /// Packets that left the switch with the ECN congestion mark set.
    pub ecn_marked: u64,
    /// Byte-times per pipeline cycle of the switch that produced this
    /// report (`64·k`).
    pub cycle_len: u64,
    /// Per-`(pipeline, stage)` drop counts for bounded-FIFO runs:
    /// every drop in [`DropCounts`] that happened *at* a stage FIFO is
    /// also attributed to its location here (phantom overflow, cascaded
    /// no-phantom drops, direct data overflow, starvation yields).
    pub stage_drops: BTreeMap<(u16, u16), u64>,
    /// Fault-injection accounting (all-zero under the default
    /// `NoFaults` injector).
    pub fault: FaultReport,
}

impl RunReport {
    /// Packet processing throughput normalized to the input packet rate
    /// (the paper's §4.3.1 metric).
    ///
    /// Computed as the ratio of the input stream's duration to the time
    /// the switch actually took to process it (capped at 1.0): a switch
    /// that keeps up processes the trace in the trace's own duration;
    /// one that serializes on a hot state takes proportionally longer.
    /// Dropped packets (bounded-FIFO runs) additionally scale the result
    /// by the delivered fraction.
    pub fn normalized_throughput(&self) -> f64 {
        if self.offered == 0 {
            return 1.0;
        }
        let drain = (self.cycles as f64) * self.cycle_len as f64;
        let input = self.input_duration.max(1) as f64;
        let rate = (input / drain.max(input)).min(1.0);
        rate * self.delivered_fraction()
    }

    /// Fraction of offered packets that completed.
    pub fn delivered_fraction(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.completed as f64 / self.offered as f64
        }
    }

    /// Sets the byte-times-per-cycle used by the throughput metric
    /// (filled by the switch that produces the report).
    pub fn set_cycle_len(&mut self, len: u64) {
        self.cycle_len = len;
    }

    /// An empty report (all counters zero). Switch models fill it in.
    pub fn new() -> Self {
        RunReport {
            result: RunResult::default(),
            offered: 0,
            completed: 0,
            drops: DropCounts::default(),
            cycles: 0,
            input_duration: 0,
            completions: Vec::new(),
            max_queue_depth: 0,
            steered: 0,
            phantoms_generated: 0,
            wasted_cycles: 0,
            remap_moves: 0,
            ecn_marked: 0,
            cycle_len: 64,
            stage_drops: BTreeMap::new(),
            fault: FaultReport::default(),
        }
    }

    /// Attribute one drop to a stage location (bounded-FIFO accounting).
    pub fn count_stage_drop(&mut self, pipeline: u16, stage: u16) {
        *self.stage_drops.entry((pipeline, stage)).or_insert(0) += 1;
    }

    /// Total drops attributed to stage locations.
    pub fn stage_drop_total(&self) -> u64 {
        self.stage_drops.values().sum()
    }
}

impl Default for RunReport {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_of_keeping_up_is_one() {
        let mut r = RunReport::new();
        r.offered = 100;
        r.completed = 100;
        r.input_duration = 6400;
        r.set_cycle_len(64);
        r.cycles = 100; // drained exactly in the input duration
        assert!((r.normalized_throughput() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_halves_when_drain_takes_double() {
        let mut r = RunReport::new();
        r.offered = 100;
        r.completed = 100;
        r.input_duration = 6400;
        r.set_cycle_len(64);
        r.cycles = 200;
        assert!((r.normalized_throughput() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn fault_report_accounting_closes() {
        let mut f = FaultReport::default();
        assert!(f.accounted());
        assert!(!f.any());
        f.injected = 3;
        f.recovered = 2;
        assert!(!f.accounted());
        f.degraded = 1;
        assert!(f.accounted());
        assert!(f.any());
    }

    #[test]
    fn stage_drops_accumulate_per_location() {
        let mut r = RunReport::new();
        r.count_stage_drop(1, 2);
        r.count_stage_drop(1, 2);
        r.count_stage_drop(0, 3);
        assert_eq!(r.stage_drops.get(&(1, 2)), Some(&2));
        assert_eq!(r.stage_drops.get(&(0, 3)), Some(&1));
        assert_eq!(r.stage_drop_total(), 3);
    }

    #[test]
    fn drops_scale_throughput() {
        let mut r = RunReport::new();
        r.offered = 100;
        r.completed = 50;
        r.input_duration = 6400;
        r.set_cycle_len(64);
        r.cycles = 100;
        assert!((r.normalized_throughput() - 0.5).abs() < 1e-9);
        assert!((r.delivered_fraction() - 0.5).abs() < 1e-9);
    }
}
