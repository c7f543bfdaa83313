//! Fabric-level determinism, conservation and per-switch auditing: a
//! leaf–spine run is a pure function of `(topology, config, workload)`,
//! every injected packet is delivered or accounted to exactly one drop
//! cause, and every surviving switch of a C1 design writes a stream the
//! auditor passes. Each test is a slice of the harness's fabric sweep
//! (`tests/harness/mod.rs`), which checks all of that on every case.

mod harness;

use rand::rngs::SmallRng;

use harness::*;
use mp5::topo::{Fabric, FabricError, RouteMode, SpineKill};
use mp5::trace::NopSink;

const HEALTHY: FabricPins = FabricPins {
    routing: None,
    kill: Some(false),
};

#[test]
fn conservation_closes_on_every_seed_and_shape() {
    let tally = fabric_sweep(6, HEALTHY);
    assert_reached(&tally, &["2-leaf fabrics", "4-leaf fabrics"]);
}

/// The unpinned sweep: every case is rerun and traced, and the sweep
/// reaches every fabric regime.
#[test]
fn repeated_runs_are_bit_identical() {
    assert_reached(&fabric_sweep(12, FabricPins::default()), &FABRIC_REGIMES);
}

#[test]
fn seeds_actually_change_the_run() {
    let draw = |rng: &mut SmallRng| {
        let c = FabricCase::generate(&mut rng.clone(), HEALTHY);
        let mut reseeded = FabricCase::generate(rng, HEALTHY);
        reseeded.cfg.seed += 1;
        reseeded.workload.seed += 1;
        (c, reseeded)
    };
    cases(3, draw, |(c, reseeded), _| {
        let (a, b) = (c.run(|_| NopSink).report, reseeded.run(|_| NopSink).report);
        assert_ne!(
            a.delivery_digest, b.delivery_digest,
            "different seeds must produce different traffic"
        );
    });
}

#[test]
fn spine_kill_degrades_but_stays_conserved_and_deterministic() {
    let pins = FabricPins {
        routing: None,
        kill: Some(true),
    };
    let tally = fabric_sweep(6, pins);
    assert_reached(
        &tally,
        &[
            "spine kills",
            "stranded packets",
            "packets sent to a dead spine",
        ],
    );
}

/// Every leaf and every id past the last switch is refused as a kill
/// target, as a typed error at construction rather than a panic
/// mid-run.
#[test]
fn invalid_kill_targets_are_rejected_at_construction() {
    cases(
        4,
        |rng| FabricCase::generate(rng, HEALTHY),
        |c, _| {
            let switches = c.topo.num_switches();
            let leaves = (switches - 2) as u32;
            for bad in (0..leaves).chain([switches as u32, 9]) {
                let mut cfg = c.cfg.clone();
                cfg.kill_spine = Some(SpineKill {
                    spine: bad,
                    at_tick: 100,
                });
                let err = Fabric::new(c.topo.clone(), cfg, c.prog.clone()).err();
                assert!(
                    matches!(err, Some(FabricError::KillTargetNotASpine { switch, switches: n })
                    if switch == bad && n == switches),
                    "kill target {bad}: {err:?}"
                );
            }
        },
    );
}

#[test]
fn flowlet_routing_is_deterministic_too() {
    let pins = FabricPins {
        routing: Some(RouteMode::Flowlet { gap: 20_000 }),
        kill: None,
    };
    assert_reached(&fabric_sweep(4, pins), &["flowlet fabrics"]);
}
