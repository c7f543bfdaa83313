//! The logical FIFO's dense occupancy index against the lane scan it
//! replaces: random operation scripts, checked after every step.

use mp5_fabric::{LogicalFifo, OrderKey, PhantomKey};
use mp5_types::{PacketId, PipelineId, RegId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A generated operation against one [`LogicalFifo`]. Selector fields
/// (`lane`, `sel`) are reduced modulo the live population at apply
/// time, so every generated script is valid by construction.
#[derive(Debug, Clone, Copy)]
enum FifoOp {
    /// Push a phantom placeholder into `lane % k`.
    Phantom { lane: usize },
    /// Push a data entry directly (no-phantom operating modes).
    Data { lane: usize },
    /// Resolve an outstanding phantom: `insert_data` at selector `sel`.
    Insert { sel: usize },
    /// Cancel an outstanding phantom; `free` evacuates without
    /// consuming service, `!free` leaves a stale entry that costs a
    /// pop cycle (paper §3.3).
    Cancel { sel: usize, free: bool },
    /// Recover a data entry into the timestamp-sorted side queue
    /// (the `mp5-faults` path).
    Recover,
    /// Service once.
    Pop,
    /// Read-only service probes (`oldest_ts` + `peek_oldest`), which
    /// in indexed mode drain free-stale heads and may evacuate lanes.
    Probe,
}

fn fifo_op(rng: &mut SmallRng) -> FifoOp {
    let (lane, sel, free) = (rng.gen_range(0..8), rng.gen_range(0..64), rng.gen());
    let ops = [
        FifoOp::Phantom { lane },
        FifoOp::Data { lane },
        FifoOp::Insert { sel },
        FifoOp::Cancel { sel, free },
        FifoOp::Recover,
        FifoOp::Pop,
        FifoOp::Probe,
    ];
    ops[rng.gen_range(0..ops.len())]
}

/// The dense occupancy index (the packed occupied-lane list the
/// switch's heavy-queue service scan walks) always matches a
/// full lane scan, under random push / pop / free-cancel /
/// stale-cancel / insert / recover / probe sequences — in both the
/// indexed and the reference service modes, bounded and unbounded.
#[test]
fn occupancy_index_matches_lane_scan() {
    for case in 0..96 {
        let rng = &mut SmallRng::seed_from_u64(case);
        let ops: Vec<FifoOp> = (0..rng.gen_range(1..200)).map(|_| fifo_op(rng)).collect();
        let lanes = rng.gen_range(1usize..8);
        let capacity = [None, Some(1usize), Some(3)][rng.gen_range(0..3)];
        let reference: bool = rng.gen();
        let run = || run_script(&ops, lanes, capacity, reference);
        assert!(
            std::panic::catch_unwind(run).is_ok(),
            "case {case}: lanes {lanes} capacity {capacity:?} reference {reference} ops {ops:?}"
        );
    }
}

/// Applies `ops` to a fresh FIFO, checking the index after every step.
fn run_script(ops: &[FifoOp], lanes: usize, capacity: Option<usize>, reference: bool) {
    let mut fifo: LogicalFifo<u64> = LogicalFifo::new(lanes, capacity);
    fifo.set_reference_service(reference);
    let mut next_id = 0u64;
    let mut outstanding: Vec<PhantomKey> = Vec::new();
    for &op in ops {
        match op {
            FifoOp::Phantom { lane } => {
                let id = next_id;
                next_id += 1;
                let key = PhantomKey {
                    pkt: PacketId(id),
                    reg: RegId(0),
                    index: 0,
                };
                let ok = fifo
                    .push_phantom(key, OrderKey(id, 0), PipelineId((lane % lanes) as u16))
                    .is_ok();
                if ok {
                    outstanding.push(key); // dropped pushes own no phantom
                }
            }
            FifoOp::Data { lane } => {
                let id = next_id;
                next_id += 1;
                let _ = fifo.push_data(id, OrderKey(id, 0), PipelineId((lane % lanes) as u16));
            }
            FifoOp::Insert { sel } => {
                if !outstanding.is_empty() {
                    let key = outstanding.swap_remove(sel % outstanding.len());
                    let _ = fifo.insert_data(key, key.pkt.0);
                }
            }
            FifoOp::Cancel { sel, free } => {
                if !outstanding.is_empty() {
                    let key = outstanding.swap_remove(sel % outstanding.len());
                    fifo.cancel(key, free);
                }
            }
            FifoOp::Recover => {
                let id = next_id;
                next_id += 1;
                fifo.push_recovered(id, OrderKey(id, 0));
            }
            FifoOp::Pop => {
                let _ = fifo.pop();
            }
            FifoOp::Probe => {
                let _ = fifo.oldest_ts();
                let _ = fifo.peek_oldest();
            }
        }
        fifo.check_occupancy_index();
    }
    // Resolve the survivors (a phantom head blocks pop forever),
    // then drain to empty: the index must track every evacuation.
    for key in outstanding.drain(..) {
        fifo.cancel(key, true);
        fifo.check_occupancy_index();
    }
    while !fifo.is_empty() {
        fifo.pop();
        fifo.check_occupancy_index();
    }
}
