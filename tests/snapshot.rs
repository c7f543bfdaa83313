//! Crash-safety property: checkpoint/restore is invisible.
//!
//! For random programs, traffic and checkpoint cycles, a run that is
//! checkpointed at cycle `C`, torn down,
//! serialized through the full snapshot codec, and restored into a
//! fresh switch must finish with the identical [`RunReport`] and the
//! identical event-stream hash as the run that was never interrupted.

use proptest::prelude::*;

use mp5::core::{Mp5Switch, SwitchConfig};
use mp5::serve::{Server, Snapshot};
use mp5::trace::{stream_hash, MemSink};
use mp5::traffic::TraceBuilder;
use mp5_faults::NoFaults;

const PROGRAMS: [&str; 3] = [
    // Hot single state: maximal queueing at one stage.
    "struct Packet { int h; int o; };
     int c = 0;
     void func(struct Packet p) { c = c + 1; p.o = c; }",
    // Shardable table: dynamic sharding, remaps, phantom traffic.
    "struct Packet { int h; int o; };
     int t[32] = {0};
     void func(struct Packet p) { t[p.h % 32] = t[p.h % 32] + 1; p.o = t[p.h % 32]; }",
    // Two stateful stages, one shardable: cross-stage phantom flights.
    "struct Packet { int h; int o; };
     int a[4] = {0};
     int b[64] = {0};
     void func(struct Packet p) {
         if (p.h % 3 == 0) { a[p.h % 4] = a[p.h % 4] + 1; }
         b[p.h % 64] = b[p.h % 64] + 1;
         p.o = b[p.h % 64];
     }",
];

fn packets(source: &str, n: usize, seed: u64, keys: u64) -> Vec<mp5::types::Packet> {
    let prog = mp5::compiler::compile(source, &mp5::compiler::Target::default()).unwrap();
    TraceBuilder::new(n, seed).build(prog.num_fields(), move |rng, _, f| {
        use rand::Rng;
        f[0] = rng.gen_range(0..keys as i64);
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, ..ProptestConfig::default()
    })]

    /// Checkpoint at a random cycle, round-trip the snapshot through
    /// the codec, restore, and compare against the uninterrupted
    /// oracle.
    #[test]
    fn restore_is_invisible(
        prog_idx in 0usize..PROGRAMS.len(),
        seed in 1u64..500,
        n in 150usize..450,
        keys in prop_oneof![Just(4u64), Just(32), Just(512)],
        ckpt_frac in 1u64..9,
    ) {
        let source = PROGRAMS[prog_idx];
        let cfg = SwitchConfig::mp5(4);

        // Uninterrupted oracle.
        let prog = mp5::compiler::compile(source, &mp5::compiler::Target::default()).unwrap();
        let (oracle, oracle_sink) = Mp5Switch::with_sink(prog, cfg.clone(), MemSink::new())
            .run_traced(packets(source, n, seed, keys));
        let oracle_hash = stream_hash(&oracle_sink.into_events());

        // Same run, checkpointed at a random in-flight cycle...
        let ckpt_cycle = (oracle.cycles * ckpt_frac / 10).max(1);
        let mut srv: Server<MemSink, NoFaults> =
            Server::new(source, cfg, MemSink::new(), None).unwrap();
        srv.offer_all(packets(source, n, seed, keys));
        while srv.cycle() < ckpt_cycle && !srv.is_idle() {
            srv.tick();
            srv.drain_egress();
        }
        let snap = srv.checkpoint();
        let events_before = srv.abandon().into_events();

        // ...codec round-trip, then restored.
        let snap = Snapshot::decode(&snap.encode()).expect("codec round-trips");
        let mut srv: Server<MemSink, NoFaults> =
            Server::restore(snap, MemSink::new(), None, None).unwrap();
        while !srv.is_idle() {
            srv.tick();
            srv.drain_egress();
        }
        let (report, sink) = srv.finish();

        prop_assert_eq!(&report, &oracle, "restored run diverged from the oracle");
        let mut stitched = events_before;
        stitched.extend(sink.into_events());
        prop_assert_eq!(
            stream_hash(&stitched),
            oracle_hash,
            "restored event stream diverged from the oracle"
        );
    }
}
