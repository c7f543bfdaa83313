//! Fabric-level determinism and conservation: a multi-switch leaf–spine
//! run is a pure function of `(topology, config, workload)` — repeated
//! runs produce bit-identical [`FabricReport`]s — and every injected
//! packet is delivered or accounted to exactly one drop cause.

use mp5::core::SwitchConfig;
use mp5::topo::{Fabric, FabricConfig, FabricReport, RouteMode, SpineKill, TopologyConfig};
use mp5::traffic::{DcPattern, DcWorkload};

fn run_fabric(leaves: usize, spines: usize, seed: u64, kill: Option<SpineKill>) -> FabricReport {
    let app = mp5::apps::by_name("heavy_hitter").expect("app exists");
    let prog = app.compile().expect("app compiles");
    let topo = TopologyConfig::leaf_spine(leaves, spines, 2)
        .validate()
        .expect("valid topology");
    let hosts = topo.num_hosts();
    let mut cfg = FabricConfig::new(SwitchConfig::mp5(4).with_hardware_fifos());
    cfg.seed = seed;
    cfg.kill_spine = kill;
    let workload = DcWorkload::new(hosts, 800, seed)
        .load(0.7)
        .max_pkts_per_flow(4)
        .pattern(DcPattern::Uniform);
    let fabric = Fabric::new(topo, cfg, prog.clone()).expect("valid fabric");
    let fill = app.fill;
    fabric
        .run(workload.stream(), |key, rng, fields| {
            fill(&prog, key, rng, fields)
        })
        .report
}

#[test]
fn conservation_closes_on_every_seed_and_shape() {
    for &(leaves, spines) in &[(2usize, 2usize), (4, 2)] {
        for seed in [1u64, 2, 3] {
            let r = run_fabric(leaves, spines, seed, None);
            assert!(
                r.conservation_closed(),
                "{leaves}x{spines} seed {seed}: injected {} != delivered {} + drops",
                r.injected,
                r.delivered
            );
            assert!(r.injected > 0 && r.delivered > 0);
            assert_eq!(r.flows_started, 800);
        }
    }
}

#[test]
fn repeated_runs_are_bit_identical() {
    for &(leaves, spines) in &[(2usize, 2usize), (4, 2)] {
        for seed in [1u64, 2, 3] {
            let a = run_fabric(leaves, spines, seed, None);
            let b = run_fabric(leaves, spines, seed, None);
            assert_eq!(a, b, "{leaves}x{spines} seed {seed}: rerun diverged");
        }
    }
}

#[test]
fn seeds_actually_change_the_run() {
    let a = run_fabric(2, 2, 1, None);
    let b = run_fabric(2, 2, 2, None);
    assert_ne!(
        a.delivery_digest, b.delivery_digest,
        "different seeds must produce different traffic"
    );
}

#[test]
fn spine_kill_degrades_but_stays_conserved_and_deterministic() {
    let kill = Some(SpineKill {
        spine: 4, // 4 leaves → spines are ids 4 and 5
        at_tick: 200,
    });
    let healthy = run_fabric(4, 2, 1, None);
    let a = run_fabric(4, 2, 1, kill);
    let b = run_fabric(4, 2, 1, kill);
    assert_eq!(a, b, "kill run must be deterministic");
    assert!(a.conservation_closed(), "kill run ledger must close");
    assert!(a.switches[4].dead && !a.switches[5].dead);
    // Traffic still flows over the surviving spine...
    assert!(a.delivered > healthy.delivered / 2, "fabric collapsed");
    // ...and the loss is visible in the dead-path accounting.
    assert!(
        a.lost_in_dead + a.dropped_to_dead + a.dropped_no_route > 0 || a.delivered == a.injected,
        "a mid-run kill with traffic in flight should strand packets"
    );
}

#[test]
fn invalid_kill_targets_are_rejected_at_construction() {
    use mp5::topo::FabricError;
    let app = mp5::apps::by_name("heavy_hitter").expect("app exists");
    let prog = app.compile().expect("app compiles");
    let topo = TopologyConfig::leaf_spine(2, 2, 2)
        .validate()
        .expect("valid topology");
    // Switch 0 is a leaf; switch 9 does not exist. Both must fail
    // cleanly instead of panicking mid-run.
    for bad in [0u32, 9] {
        let mut cfg = FabricConfig::new(SwitchConfig::mp5(4).with_hardware_fifos());
        cfg.kill_spine = Some(SpineKill {
            spine: bad,
            at_tick: 100,
        });
        match Fabric::new(topo.clone(), cfg, prog.clone()) {
            Ok(_) => panic!("kill target {bad} must be rejected"),
            Err(err) => assert!(matches!(
                err,
                FabricError::KillTargetNotASpine { switch, switches: 4 } if switch == bad
            )),
        }
    }
}

#[test]
fn flowlet_routing_is_deterministic_too() {
    let app = mp5::apps::by_name("flowlet").expect("app exists");
    let prog = app.compile().expect("app compiles");
    let topo = TopologyConfig::leaf_spine(2, 2, 2)
        .validate()
        .expect("valid topology");
    let hosts = topo.num_hosts();
    let mk = || {
        let mut cfg = FabricConfig::new(SwitchConfig::mp5(4).with_hardware_fifos());
        cfg.routing = RouteMode::Flowlet { gap: 20_000 };
        cfg.seed = 7;
        cfg
    };
    let workload = DcWorkload::new(hosts, 500, 7).max_pkts_per_flow(6);
    let fill = app.fill;
    let mut reports = Vec::new();
    for _ in 0..2 {
        let fabric = Fabric::new(topo.clone(), mk(), prog.clone()).expect("valid fabric");
        reports.push(
            fabric
                .run(workload.stream(), |key, rng, fields| {
                    fill(&prog, key, rng, fields)
                })
                .report,
        );
    }
    assert_eq!(reports[0], reports[1]);
    assert!(reports[0].conservation_closed());
}
