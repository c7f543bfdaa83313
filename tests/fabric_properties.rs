//! Property-based tests of the hardware substrate invariants.
//!
//! * The logical FIFO's `pop()` must serve *data* entries in global
//!   timestamp order no matter how pushes, inserts, and cancels
//!   interleave across lanes (the ordering property D4 rests on).
//! * The phantom channel must deliver in injection order (Invariant 1).
//! * The frontend must never panic on arbitrary input (it may reject).

use mp5::fabric::{Entry, LogicalFifo, OrderKey, PhantomKey, PopOutcome};
use mp5::sim::harness::cases;
use mp5::types::{PacketId, PipelineId, RegId, StageId};
use rand::rngs::SmallRng;
use rand::Rng;

/// A generated FIFO operation script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push a phantom for packet `id` into lane `lane`.
    Phantom { id: u64, lane: usize },
    /// Push data directly (no-phantom mode) for packet `id`.
    Data { id: u64, lane: usize },
    /// Pop once.
    Pop,
}

fn key(id: u64) -> PhantomKey {
    PhantomKey {
        pkt: PacketId(id),
        reg: RegId(0),
        index: 0,
    }
}

fn op(rng: &mut SmallRng, lanes: usize) -> Op {
    let (id, lane) = (rng.gen_range(0..10_000), rng.gen_range(0..lanes));
    [Op::Phantom { id, lane }, Op::Data { id, lane }, Op::Pop][rng.gen_range(0..3)]
}

/// Data entries always pop in strictly increasing timestamp order,
/// and a phantom head blocks everything younger until replaced.
#[test]
fn logical_fifo_pops_in_global_order() {
    let draw = |rng: &mut SmallRng| -> Vec<Op> {
        (0..rng.gen_range(1..120)).map(|_| op(rng, 4)).collect()
    };
    cases(0..128, draw, |ops, _| pops_in_global_order(ops));
}

fn pops_in_global_order(ops: &[Op]) {
    let mut fifo: LogicalFifo<u64> = LogicalFifo::new(4, None);
    let mut ts = 0u64;
    let mut outstanding_phantoms: Vec<u64> = Vec::new();
    let mut popped: Vec<u64> = Vec::new();
    let mut used_ids = std::collections::HashSet::new();
    let mut push_ts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();

    for &op in ops {
        match op {
            Op::Phantom { id, lane } => {
                if !used_ids.insert(id) {
                    continue; // ids must be unique per FIFO
                }
                ts += 1;
                fifo.push_phantom(key(id), OrderKey(ts, 0), PipelineId(lane as u16))
                    .expect("unbounded");
                push_ts.insert(id, ts);
                outstanding_phantoms.push(id);
            }
            Op::Data { id, lane } => {
                if !used_ids.insert(id) {
                    continue;
                }
                ts += 1;
                fifo.push_data(id, OrderKey(ts, 0), PipelineId(lane as u16))
                    .expect("unbounded");
                push_ts.insert(id, ts);
            }
            Op::Pop => match fifo.pop() {
                PopOutcome::Data(v) => popped.push(v),
                PopOutcome::BlockedOnPhantom(k) => {
                    // The blocking phantom must be one we pushed and
                    // not yet resolved; resolve it now so progress
                    // resumes (simulating the data packet arriving).
                    assert!(outstanding_phantoms.contains(&k.pkt.0));
                    fifo.insert_data(k, k.pkt.0).expect("phantom live");
                    outstanding_phantoms.retain(|&p| p != k.pkt.0);
                }
                PopOutcome::Empty | PopOutcome::ConsumedStale => {}
            },
        }
    }
    // Drain: resolve remaining phantoms, then pop everything.
    for id in outstanding_phantoms {
        fifo.insert_data(key(id), id).expect("phantom live");
    }
    loop {
        match fifo.pop() {
            PopOutcome::Data(v) => popped.push(v),
            PopOutcome::Empty => break,
            PopOutcome::ConsumedStale => {}
            PopOutcome::BlockedOnPhantom(_) => panic!("all resolved"),
        }
    }
    // Every pushed entry came out exactly once...
    assert_eq!(popped.len(), used_ids.len());
    let mut seen = std::collections::HashSet::new();
    for id in &popped {
        assert!(seen.insert(*id), "duplicate pop of {id}");
    }
    // ...and pops left in strictly increasing push-timestamp order:
    // a pop always serves the minimum timestamp present, all later
    // pushes carry larger timestamps, and an unresolved phantom
    // blocks everything younger, so the sequence must be sorted.
    // (Data inserted for a phantom inherits the phantom's ts.)
    let ts_seq: Vec<u64> = popped.iter().map(|id| push_ts[id]).collect();
    assert!(
        ts_seq.windows(2).all(|w| w[0] < w[1]),
        "pop order violated global timestamp order: {ts_seq:?}"
    );
}

/// The phantom channel delivers in injection order regardless of
/// source/destination stage mixture (Invariant 1 generalized).
#[test]
fn phantom_channel_never_reorders_same_route() {
    let draw = |rng: &mut SmallRng| -> Vec<(u16, u16)> {
        (0..rng.gen_range(1..40))
            .map(|_| (rng.gen_range(0..4), rng.gen_range(5..8)))
            .collect()
    };
    cases(0..256, draw, |routes, _| channel_keeps_route_order(routes));
}

fn channel_keeps_route_order(routes: &[(u16, u16)]) {
    let mut ch: mp5::fabric::PhantomChannel<(usize, u16, u16)> =
        mp5::fabric::PhantomChannel::new(8);
    // Inject one phantom per cycle (like a resolution stage would),
    // advancing between injections.
    let mut delivered: Vec<(usize, u16, u16)> = Vec::new();
    for (i, &(from, dest)) in routes.iter().enumerate() {
        for (p, _) in ch.advance() {
            delivered.push(p);
        }
        ch.inject((i, from, dest), StageId(from), StageId(dest));
    }
    while ch.in_flight() > 0 {
        for (p, _) in ch.advance() {
            delivered.push(p);
        }
    }
    assert_eq!(delivered.len(), routes.len());
    // Per (from, dest) route, delivery preserves injection order.
    for f in 0..4u16 {
        for d in 5..8u16 {
            let seq: Vec<usize> = delivered
                .iter()
                .filter(|&&(_, pf, pd)| pf == f && pd == d)
                .map(|&(i, _, _)| i)
                .collect();
            assert!(
                seq.windows(2).all(|w| w[0] < w[1]),
                "route {f}->{d}: {seq:?}"
            );
        }
    }
}

/// A non-control character: printable ASCII 85 % of the time, else
/// any scalar value from U+00A0 up to the surrogates.
fn printable(rng: &mut SmallRng) -> char {
    let (ascii, other) = (rng.gen_range(0x20..0x7f), rng.gen_range(0xa0..0xd800));
    let c = if rng.gen_bool(0.85) { ascii } else { other };
    char::from_u32(c).expect("below the surrogates")
}

/// The frontend never panics: arbitrary byte soup either parses or
/// returns an error.
#[test]
fn frontend_never_panics_on_garbage() {
    let draw = |rng: &mut SmallRng| -> String {
        (0..rng.gen_range(0..=400))
            .map(|_| printable(rng))
            .collect()
    };
    cases(0..256, draw, |src, _| drop(mp5::lang::frontend(src)));
}

/// Structured near-miss programs (valid tokens, random arrangement)
/// also never panic.
#[test]
fn frontend_never_panics_on_token_soup() {
    const TOKENS: [&str; 26] = [
        "struct", "Packet", "int", "void", "func", "if", "else", "p", ".", "h", "r", "[", "]", "{",
        "}", "(", ")", ";", "=", "+", "?", ":", "%", "42", "hash2", ",",
    ];
    let draw = |rng: &mut SmallRng| -> String {
        let toks: Vec<&str> = (0..rng.gen_range(0..60))
            .map(|_| TOKENS[rng.gen_range(0..TOKENS.len())])
            .collect();
        toks.join(" ")
    };
    cases(0..256, draw, |src, _| drop(mp5::lang::frontend(src)));
}

/// Deterministic regression: an interleaving that once deadlocked the
/// directory (two phantoms under one key) must stay rejected by
/// construction — the switch dedups, and the raw FIFO overwrites are at
/// least memory-safe.
#[test]
fn duplicate_phantom_key_overwrites_directory_safely() {
    let mut fifo: LogicalFifo<u64> = LogicalFifo::new(2, None);
    fifo.push_phantom(key(1), OrderKey(1, 0), PipelineId(0))
        .unwrap();
    fifo.push_phantom(key(1), OrderKey(2, 0), PipelineId(1))
        .unwrap();
    // Only the newer phantom is addressable; the older one is orphaned.
    fifo.insert_data(key(1), 1).unwrap();
    match fifo.pop() {
        PopOutcome::BlockedOnPhantom(k) => assert_eq!(k, key(1)),
        other => panic!("expected orphaned phantom to block, got {other:?}"),
    }
    // Cancelling the orphan unblocks.
    assert!(fifo
        .iter_entries()
        .any(|e| matches!(e, Entry::Phantom { .. })));
}
