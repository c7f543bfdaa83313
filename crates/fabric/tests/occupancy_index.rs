//! The logical FIFO's dense occupancy index against the lane scan it
//! replaces: random operation scripts, checked after every step.

use proptest::prelude::*;

use mp5_fabric::{LogicalFifo, OrderKey, PhantomKey};
use mp5_types::{PacketId, PipelineId, RegId};

/// A generated operation against one [`LogicalFifo`]. Selector fields
/// (`lane`, `sel`) are reduced modulo the live population at apply
/// time, so every generated script is valid by construction.
#[derive(Debug, Clone)]
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

fn fifo_op_strategy() -> impl Strategy<Value = FifoOp> {
    prop_oneof![
        (0usize..8).prop_map(|lane| FifoOp::Phantom { lane }),
        (0usize..8).prop_map(|lane| FifoOp::Data { lane }),
        (0usize..64).prop_map(|sel| FifoOp::Insert { sel }),
        (0usize..64, any::<bool>()).prop_map(|(sel, free)| FifoOp::Cancel { sel, free }),
        Just(FifoOp::Recover),
        Just(FifoOp::Pop),
        Just(FifoOp::Probe),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The dense occupancy index (the packed occupied-lane list the
    /// switch's heavy-queue service scan walks) always matches a
    /// full lane scan, under random push / pop / free-cancel /
    /// stale-cancel / insert / recover / probe sequences — in both the
    /// indexed and the reference service modes, bounded and unbounded.
    #[test]
    fn occupancy_index_matches_lane_scan(
        ops in proptest::collection::vec(fifo_op_strategy(), 1..200),
        lanes in 1usize..8,
        capacity in prop_oneof![Just(None), Just(Some(1usize)), Just(Some(3))],
        reference in any::<bool>(),
    ) {
        let mut fifo: LogicalFifo<u64> = LogicalFifo::new(lanes, capacity);
        fifo.set_reference_service(reference);
        let mut next_id = 0u64;
        let mut outstanding: Vec<PhantomKey> = Vec::new();
        for op in ops {
            match op {
                FifoOp::Phantom { lane } => {
                    let id = next_id;
                    next_id += 1;
                    let key = PhantomKey { pkt: PacketId(id), reg: RegId(0), index: 0 };
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
}
