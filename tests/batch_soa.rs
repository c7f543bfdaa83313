//! Exec-path property suite: random traffic through random switch
//! configurations must produce **byte-identical** [`RunReport`]s on the
//! scalar reference (every slot probed, paper-literal FIFO scan) and
//! the mask-led batch path (occupancy masks, indexed FIFO service), for
//! one canonical program per shardability class `mp5-analysis` emits
//! (paper §3.3).
//!
//! The class coverage matters because queueing differs with how arrays
//! shard: a `Shardable` array spreads indexes across pipelines, while
//! the three pinned classes serialize at array granularity and stress
//! the consecutive-access dedup and wasted-speculation accounting
//! instead.

use proptest::prelude::*;

use mp5::analysis::{compile_with_analysis, ShardClass};
use mp5::compiler::Target;
use mp5::core::{EngineMode, ExecPath, Mp5Switch, ShardingMode, SwitchConfig};
use mp5::fabric::{LogicalFifo, OrderKey, PhantomKey};
use mp5::traffic::TraceBuilder;
use mp5::types::{PacketId, PipelineId, RegId};

struct ClassCase {
    class: ShardClass,
    /// The register whose classification the case claims to exercise.
    reg: &'static str,
    source: &'static str,
}

const CASES: [ClassCase; 4] = [
    ClassCase {
        class: ShardClass::Shardable,
        reg: "r",
        source: "struct Packet { int h; int o; };
                 int r[8] = {0};
                 void func(struct Packet p) {
                     r[p.h % 8] = r[p.h % 8] + 1;
                     p.o = r[p.h % 8];
                 }",
    },
    ClassCase {
        class: ShardClass::PinnedStatefulIndex,
        reg: "r",
        source: "struct Packet { int h; int o; };
                 int ptr = 0;
                 int r[8] = {0};
                 void func(struct Packet p) {
                     ptr = ptr + 1;
                     r[ptr % 8] = r[ptr % 8] + p.h;
                     p.o = r[ptr % 8];
                 }",
    },
    ClassCase {
        class: ShardClass::PinnedCoResident,
        reg: "a",
        source: "struct Packet { int h; int o; };
                 int a[4] = {0};
                 int b[4] = {0};
                 void func(struct Packet p) {
                     int t = a[p.h % 4] + b[p.h % 4];
                     a[p.h % 4] = t + 1;
                     b[p.h % 4] = t + 1;
                     p.o = t;
                 }",
    },
    ClassCase {
        class: ShardClass::PinnedStatefulPredicate,
        reg: "r",
        source: "struct Packet { int i; int j; };
                 int gate = 0;
                 int r[8] = {0};
                 void func(struct Packet p) {
                     gate = gate + 1;
                     if (gate % 3 > 0) { r[p.i % 8] = r[p.i % 8] + 1; }
                     if (gate % 3 > 1) { r[p.j % 8] = r[p.j % 8] + 2; }
                 }",
    },
];

/// The suite's premise: each case really is classified as claimed, so
/// the property below covers every class the analyzer can emit.
#[test]
fn cases_cover_every_shard_class() {
    for case in &CASES {
        let prog = compile_with_analysis(case.source, &Target::default())
            .unwrap_or_else(|e| panic!("{:?} case does not compile: {e:?}", case.class));
        let report = prog.analysis.as_ref().expect("analyzer attached a report");
        let reg = report
            .reg_by_name(case.reg)
            .unwrap_or_else(|| panic!("{:?} case has no register '{}'", case.class, case.reg));
        assert_eq!(
            reg.class, case.class,
            "'{}' in the {:?} case is misclassified",
            case.reg, case.class
        );
    }
}

fn config_strategy() -> impl Strategy<Value = SwitchConfig> {
    (
        prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        prop_oneof![Just(None), Just(Some(2usize)), Just(Some(8))],
        any::<bool>(),
        prop_oneof![
            Just(ShardingMode::Dynamic),
            Just(ShardingMode::Static),
            Just(ShardingMode::Pinned),
        ],
        prop_oneof![Just(EngineMode::Sequential), Just(EngineMode::Parallel(2))],
    )
        .prop_map(|(k, fifo, phantoms, sharding, engine)| SwitchConfig {
            fifo_capacity: fifo,
            phantoms,
            sharding,
            ..SwitchConfig::mp5(k).with_engine(engine)
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random traffic on the batch path is byte-identical to the
    /// scalar path, per shardability class.
    #[test]
    fn batch_path_matches_scalar_for_every_shard_class(
        case_idx in 0usize..CASES.len(),
        cfg in config_strategy(),
        n in 100usize..500,
        seed in 0u64..64,
    ) {
        let case = &CASES[case_idx];
        let prog = compile_with_analysis(case.source, &Target::default()).unwrap();
        let nf = prog.num_fields();
        let trace = TraceBuilder::new(n, seed).build(nf, |rng, _, f| {
            for v in f.iter_mut() {
                *v = rand::Rng::gen_range(rng, 0..1000);
            }
        });
        let run = |exec: ExecPath| {
            Mp5Switch::new(prog.clone(), cfg.clone().with_exec(exec)).run(trace.clone())
        };
        let scalar = run(ExecPath::Scalar);
        let batch = run(ExecPath::Batch);
        prop_assert_eq!(
            scalar,
            batch,
            "{:?} case: scalar and batch reports diverged",
            case.class
        );
    }
}

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
    /// batch path's heavy-queue service scan walks) always matches a
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
