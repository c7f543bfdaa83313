//! The inter-stage crossbar (design principle D3).
//!
//! MP5 places a `k×k` crossbar between consecutive pipeline stages so a
//! packet leaving stage `i` of any pipeline can enter stage `i+1` of any
//! pipeline. Output contention (several inputs targeting the same output
//! pipeline in one cycle) is absorbed by the destination stage's `k`
//! per-pipeline FIFOs — that is exactly why the paper provisions `k`
//! FIFOs per stage (§3.2) — so the crossbar itself never arbitrates or
//! drops. This model therefore routes unconditionally and records
//! per-cycle usage statistics; the analytic ASIC model in `mp5-asic`
//! charges its silicon cost.

use mp5_types::PipelineId;

/// A `k×k` crossbar between two consecutive stages.
#[derive(Debug, Clone)]
pub struct Crossbar {
    k: usize,
    /// Count of packets routed per (input, output) pair, flattened
    /// row-major. Diagonal entries are straight-through traffic.
    routed: Vec<u64>,
    /// Number of cycles in which at least one non-diagonal route was
    /// used (i.e. real steering happened).
    steer_cycles: u64,
    /// Inputs seen so far in the cycle being accumulated.
    cycle_had_steer: bool,
}

impl Crossbar {
    /// Creates a crossbar for `k` pipelines.
    pub fn new(k: usize) -> Self {
        assert!(k > 0);
        Crossbar {
            k,
            routed: vec![0; k * k],
            steer_cycles: 0,
            cycle_had_steer: false,
        }
    }

    /// Routes one packet from input pipeline `from` to output pipeline
    /// `to`, returning `to` (the crossbar is non-blocking).
    pub fn route(&mut self, from: PipelineId, to: PipelineId) -> PipelineId {
        debug_assert!(from.index() < self.k && to.index() < self.k);
        self.routed[from.index() * self.k + to.index()] += 1;
        if from != to {
            self.cycle_had_steer = true;
        }
        to
    }

    /// Marks the end of a simulation cycle for statistics purposes.
    pub fn end_cycle(&mut self) {
        if self.cycle_had_steer {
            self.steer_cycles += 1;
            self.cycle_had_steer = false;
        }
    }

    /// Total packets routed from `from` to `to`.
    pub fn routed(&self, from: PipelineId, to: PipelineId) -> u64 {
        self.routed[from.index() * self.k + to.index()]
    }

    /// Cycles in which at least one packet was steered.
    pub fn steer_cycles(&self) -> u64 {
        self.steer_cycles
    }

    /// Exports the routing statistics for a checkpoint: the flattened
    /// row-major `k×k` route counts and the steer-cycle total. Only
    /// valid at a cycle boundary (after [`Self::end_cycle`]), when the
    /// in-cycle `cycle_had_steer` accumulator is clear.
    pub fn snapshot(&self) -> (Vec<u64>, u64) {
        debug_assert!(
            !self.cycle_had_steer,
            "crossbar snapshot mid-cycle: call end_cycle() first"
        );
        (self.routed.clone(), self.steer_cycles)
    }

    /// Rebuilds a crossbar from checkpointed statistics.
    pub fn from_parts(k: usize, routed: Vec<u64>, steer_cycles: u64) -> Self {
        assert!(
            k > 0 && routed.len() == k * k,
            "crossbar matrix must be k×k"
        );
        Crossbar {
            k,
            routed,
            steer_cycles,
            cycle_had_steer: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_are_counted() {
        let mut xb = Crossbar::new(4);
        xb.route(PipelineId(0), PipelineId(2));
        xb.route(PipelineId(0), PipelineId(2));
        xb.route(PipelineId(1), PipelineId(1));
        assert_eq!(xb.routed(PipelineId(0), PipelineId(2)), 2);
        assert_eq!(xb.routed(PipelineId(1), PipelineId(1)), 1);
    }

    #[test]
    fn steer_cycles_counts_cycles_not_packets() {
        let mut xb = Crossbar::new(2);
        xb.route(PipelineId(0), PipelineId(1));
        xb.route(PipelineId(1), PipelineId(0));
        xb.end_cycle();
        xb.route(PipelineId(0), PipelineId(0));
        xb.end_cycle();
        assert_eq!(xb.steer_cycles(), 1);
    }
}
