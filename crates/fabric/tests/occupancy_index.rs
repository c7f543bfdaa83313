//! The logical FIFO's fast service path (the dense occupancy index and
//! the head-key array) against the reference lane scan it replaces:
//! random operation scripts run on one FIFO of each kind side by side,
//! compared and checked after every step.

use mp5_fabric::{LogicalFifo, OrderKey, PhantomKey};
use mp5_types::{PacketId, PipelineId, RegId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A generated operation against one [`LogicalFifo`]. Selector fields
/// (`lane`, `sel`) are reduced modulo the live population at apply
/// time, so every generated script is valid by construction. Order
/// keys come from a small range, so equal keys land on different lanes
/// and the lower-lane tie rule is exercised.
#[derive(Debug, Clone, Copy)]
enum FifoOp {
    /// Push a phantom placeholder into `lane % k`.
    Phantom { lane: usize, ts: OrderKey },
    /// Push a data entry directly (no-phantom operating modes).
    Data { lane: usize, ts: OrderKey },
    /// Resolve an outstanding phantom: `insert_data` at selector `sel`.
    Insert { sel: usize },
    /// Cancel an outstanding phantom; `free` evacuates without
    /// consuming service, `!free` leaves a stale entry that costs a
    /// pop cycle (paper §3.3).
    Cancel { sel: usize, free: bool },
    /// Recover a data entry into the timestamp-sorted side queue
    /// (the `mp5-faults` path).
    Recover { ts: OrderKey },
    /// Service once.
    Pop,
    /// Read-only service probes (`oldest_ts` + `peek_oldest_at`), which
    /// drain free-stale heads and may evacuate lanes.
    Probe,
}

fn fifo_op(rng: &mut SmallRng) -> FifoOp {
    let (lane, sel, free) = (rng.gen_range(0..8), rng.gen_range(0..64), rng.gen());
    let ts = OrderKey(rng.gen_range(0..6), rng.gen_range(0..2));
    let ops = [
        FifoOp::Phantom { lane, ts },
        FifoOp::Data { lane, ts },
        FifoOp::Insert { sel },
        FifoOp::Cancel { sel, free },
        FifoOp::Recover { ts },
        FifoOp::Pop,
        FifoOp::Probe,
    ];
    ops[rng.gen_range(0..ops.len())]
}

/// The fast path serves exactly as the reference scan does, and its
/// derived views (the occupancy index, the head-key array and the
/// free-stale count) always match a full lane scan, under random
/// push / pop / free-cancel / stale-cancel / insert / recover / probe
/// sequences with colliding order keys, bounded and unbounded.
#[test]
fn fast_service_matches_the_reference_scan() {
    for case in 0..160 {
        let rng = &mut SmallRng::seed_from_u64(case);
        let ops: Vec<FifoOp> = (0..rng.gen_range(1..200)).map(|_| fifo_op(rng)).collect();
        let lanes = rng.gen_range(1usize..8);
        let capacity = [None, Some(1usize), Some(3)][rng.gen_range(0..3)];
        let run = || run_script(&ops, lanes, capacity);
        assert!(
            std::panic::catch_unwind(run).is_ok(),
            "case {case}: lanes {lanes} capacity {capacity:?} ops {ops:?}"
        );
    }
}

/// Both FIFOs, the fast one first.
type Pair = [LogicalFifo<u64>; 2];

/// Checks both FIFOs' derived views, then that they hold the same
/// entries and would serve the same way: `oldest_ts`, `peek_oldest_at`
/// and `pop` are compared on copies, so the check does not drain what
/// the script left queued.
fn check(fifos: &Pair) {
    for f in fifos {
        f.check_occupancy_index();
    }
    let [a, b] = fifos;
    assert_eq!(a.snapshot_parts(), b.snapshot_parts());
    let (mut a, mut b) = (a.clone(), b.clone());
    assert_eq!(a.oldest_ts(), b.oldest_ts());
    assert_eq!(a.peek_oldest_at(), b.peek_oldest_at());
    assert_eq!(format!("{:?}", a.pop()), format!("{:?}", b.pop()));
    a.check_occupancy_index();
    b.check_occupancy_index();
}

/// Applies `ops` to a fast and a reference FIFO, checking after every
/// step.
fn run_script(ops: &[FifoOp], lanes: usize, capacity: Option<usize>) {
    let mut fifos: Pair = [
        LogicalFifo::new(lanes, capacity),
        LogicalFifo::new(lanes, capacity),
    ];
    fifos[1].set_reference_service(true);
    let lane_of = |lane: usize| PipelineId((lane % lanes) as u16);
    let mut next_id = 0u64;
    let mut outstanding: Vec<PhantomKey> = Vec::new();
    for &op in ops {
        match op {
            FifoOp::Phantom { lane, ts } => {
                let key = PhantomKey {
                    pkt: PacketId(next_id),
                    reg: RegId(0),
                    index: 0,
                };
                next_id += 1;
                let ok = both(&mut fifos, |f| {
                    f.push_phantom(key, ts, lane_of(lane)).is_ok()
                });
                if ok {
                    outstanding.push(key); // dropped pushes own no phantom
                }
            }
            FifoOp::Data { lane, ts } => {
                let id = next_id;
                next_id += 1;
                let _ = both(&mut fifos, |f| f.push_data(id, ts, lane_of(lane)));
            }
            FifoOp::Insert { sel } => {
                if !outstanding.is_empty() {
                    let key = outstanding.swap_remove(sel % outstanding.len());
                    let _ = both(&mut fifos, |f| f.insert_data(key, key.pkt.0));
                }
            }
            FifoOp::Cancel { sel, free } => {
                if !outstanding.is_empty() {
                    let key = outstanding.swap_remove(sel % outstanding.len());
                    both(&mut fifos, |f| f.cancel(key, free));
                }
            }
            FifoOp::Recover { ts } => {
                let id = next_id;
                next_id += 1;
                both(&mut fifos, |f| f.push_recovered(id, ts));
            }
            FifoOp::Pop => {
                both(&mut fifos, |f| format!("{:?}", f.pop()));
            }
            FifoOp::Probe => {
                both(&mut fifos, |f| {
                    let ts = f.oldest_ts();
                    (ts, f.peek_oldest_at().map(|(a, e)| (a, e.clone())))
                });
            }
        }
        check(&fifos);
    }
    // Resolve the survivors (a phantom head blocks pop forever),
    // then drain to empty: the views must track every evacuation.
    for key in outstanding.drain(..) {
        both(&mut fifos, |f| f.cancel(key, true));
        check(&fifos);
    }
    while !fifos[0].is_empty() {
        both(&mut fifos, |f| format!("{:?}", f.pop()));
        check(&fifos);
    }
    assert!(fifos[1].is_empty());
}

/// Runs one operation on both FIFOs and asserts they answered alike.
fn both<R: PartialEq + std::fmt::Debug>(
    fifos: &mut Pair,
    mut op: impl FnMut(&mut LogicalFifo<u64>) -> R,
) -> R {
    let [a, b] = fifos;
    let r = op(a);
    assert_eq!(r, op(b));
    r
}
