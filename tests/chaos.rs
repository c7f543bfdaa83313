//! Chaos suite: randomized seed-deterministic fault campaigns across
//! every bundled application, gated on the chaos contracts (see
//! `mp5::sim::chaos`):
//!
//! 1. no panics, packets conserved, fault ledger closed
//!    (`injected == recovered + degraded`);
//! 2. the offline invariant auditor reports **zero** findings on the
//!    traced run — Invariant 1/2, phantom pairing, C1 and packet
//!    conservation all hold under injected faults;
//! 3. a run that completes every packet is equivalent to Banzai.
//!
//! Scale knob: `MP5_CHAOS_PACKETS` (default 300 packets per case).

use mp5::sim::chaos::{self, ChaosOpts};

fn packets_per_case() -> usize {
    std::env::var("MP5_CHAOS_PACKETS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

fn opts() -> ChaosOpts {
    ChaosOpts {
        pipelines: 4,
        packets: packets_per_case(),
        horizon: 200,
    }
}

/// Every bundled program survives a chaos plan (auditor-clean, ledger
/// closed).
#[test]
fn every_app_survives_chaos() {
    let outcomes = chaos::run_campaign(&mp5::apps::ALL_APPS, &[11], &opts());
    let mut fired = 0u64;
    for out in &outcomes {
        assert!(
            out.passed(),
            "{} seed {} failed chaos: {:?}",
            out.app,
            out.seed,
            out.failures
        );
        fired += out.report.fault.injected;
    }
    assert!(fired > 0, "the campaign must actually inject faults");
}

/// Multiple seeds on the two most stateful paper apps: different plans
/// (pipeline kills included with probability 1/2) all hold the
/// contracts, and a killed pipeline shows up in the recovery ledger.
#[test]
fn seed_sweep_holds_contracts_and_records_degradation() {
    let apps = [mp5::apps::PAPER_APPS[0], mp5::apps::PAPER_APPS[1]];
    let seeds = [1u64, 2, 3, 4];
    let outcomes = chaos::run_campaign(&apps, &seeds, &opts());
    let mut any_kill = false;
    for out in &outcomes {
        assert!(
            out.passed(),
            "{} seed {} failed chaos: {:?}",
            out.app,
            out.seed,
            out.failures
        );
        let f = &out.report.fault;
        if !f.dead_pipelines.is_empty() {
            any_kill = true;
            assert!(
                f.degraded_cycles > 0,
                "{} seed {}: a dead pipeline must register degraded cycles",
                out.app,
                out.seed
            );
        }
    }
    assert!(
        any_kill,
        "across 8 chaos plans at least one should kill a pipeline \
         (seed-deterministic: this cannot flake)"
    );
}

/// Chaos campaigns are reproducible: the same seed yields the same
/// report, cycle count, and ledger, twice.
#[test]
fn chaos_is_deterministic() {
    let app = mp5::apps::PAPER_APPS[2];
    let a = chaos::run_case(&app, 5, &opts());
    let b = chaos::run_case(&app, 5, &opts());
    assert!(a.passed(), "first run failed: {:?}", a.failures);
    assert_eq!(a.report, b.report, "same seed must replay bit-identically");
    assert_eq!(a.plan_len, b.plan_len);
}
