//! Accounting invariants of the MP5 switch under randomized
//! configurations: every offered packet is either completed or an
//! accounted drop, never duplicated, never lost silently.

use proptest::prelude::*;

use mp5::compiler::{compile, Target};
use mp5::core::{Mp5Switch, ShardingMode, SprayMode, SwitchConfig};
use mp5::traffic::TraceBuilder;

const PROGRAMS: [&str; 3] = [
    // Hot single state: maximal queueing.
    "struct Packet { int h; int o; };
     int c = 0;
     void func(struct Packet p) { c = c + 1; p.o = c; }",
    // Shardable table.
    "struct Packet { int h; int o; };
     int t[32] = {0};
     void func(struct Packet p) { t[p.h % 32] = t[p.h % 32] + 1; p.o = t[p.h % 32]; }",
    // Mixed stateless/stateful with two stages.
    "struct Packet { int h; int o; };
     int a[4] = {0};
     int b[64] = {0};
     void func(struct Packet p) {
         if (p.h % 3 == 0) { a[p.h % 4] = a[p.h % 4] + 1; }
         b[p.h % 64] = b[p.h % 64] + 1;
         p.o = b[p.h % 64];
     }",
];

fn config_strategy() -> impl Strategy<Value = SwitchConfig> {
    (
        prop_oneof![Just(1usize), Just(2), Just(3), Just(4), Just(8)],
        prop_oneof![Just(None), Just(Some(2usize)), Just(Some(8))],
        any::<bool>(),
        any::<bool>(),
        prop_oneof![
            Just(ShardingMode::Dynamic),
            Just(ShardingMode::Static),
            Just(ShardingMode::Pinned),
            Just(ShardingMode::IdealPeriodic),
        ],
        any::<bool>(),
        prop_oneof![Just(None), Just(Some(4u64)), Just(Some(64))],
    )
        .prop_map(
            |(k, fifo, phantoms, per_index, sharding, single, starve)| SwitchConfig {
                pipelines: k,
                // Per-index queues are unbounded by design; bounded
                // capacity applies to the logical-FIFO layout only.
                fifo_capacity: if per_index { None } else { fifo },
                remap_period: 50,
                sharding,
                phantoms,
                per_index_fifos: per_index,
                spray: if single {
                    SprayMode::SinglePipeline(0)
                } else {
                    SprayMode::RoundRobin
                },
                starvation_threshold: starve,
                ecn_threshold: Some(4),
                seed: 7,
                max_cycles: None,
                physical_pipelines: None,
                record_detail: true,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn every_packet_is_accounted_for(
        prog_idx in 0usize..PROGRAMS.len(),
        cfg in config_strategy(),
        n in 200usize..1200,
        seed in 0u64..100,
    ) {
        let prog = compile(PROGRAMS[prog_idx], &Target::default()).unwrap();
        let nf = prog.num_fields();
        let trace = TraceBuilder::new(n, seed).build(nf, |rng, _, f| {
            f[0] = rand::Rng::gen_range(rng, 0..1000);
        });
        let unbounded = cfg.fifo_capacity.is_none();
        let report = Mp5Switch::new(prog, cfg).run(trace);

        // Conservation.
        prop_assert_eq!(
            report.completed + report.drops.total_data(),
            report.offered,
            "drops: {:?}", report.drops
        );
        // Output map and completion list agree; no duplicates.
        prop_assert_eq!(report.result.outputs.len() as u64, report.completed);
        prop_assert_eq!(report.completions.len() as u64, report.completed);
        let mut ids: Vec<_> = report.completions.iter().map(|&(p, _)| p).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, report.completed);
        // Unbounded FIFOs without starvation shedding never drop.
        if unbounded && report.drops.starvation == 0 {
            prop_assert_eq!(report.completed, report.offered);
        }
        // Completion cycles are monotone in exit order.
        prop_assert!(report
            .completions
            .windows(2)
            .all(|w| w[0].1 <= w[1].1));
        // Throughput is a sane fraction.
        let t = report.normalized_throughput();
        prop_assert!((0.0..=1.0).contains(&t), "throughput {t}");
    }
}
