//! Chaos harness: randomized, seed-deterministic fault campaigns.
//!
//! Each *case* rolls a [`FaultPlan::chaos`] schedule for one bundled
//! application and executes it on the MP5 switch with tracing on, then
//! checks the chaos contracts:
//!
//! 1. **No panics / clean finish** — the run drains, packets are
//!    conserved, and every injected fault is accounted
//!    (`injected == recovered + degraded`).
//! 2. **Auditor-clean** — the recorded event stream passes the offline
//!    invariant auditor (`mp5audit`) with zero findings: phantom
//!    pairing, Invariant 1/2, C1 and packet conservation all hold
//!    *under faults*.
//! 3. **Banzai** — a run that completes every packet is functionally
//!    equivalent to the single pipeline, C1 included.
//!
//! The harness is pure library code so the `mp5chaos` binary and the
//! `tests/chaos.rs` suite share one implementation.

use mp5_banzai::BanzaiSwitch;
use mp5_core::{Mp5Switch, RunReport, SwitchConfig};
use mp5_faults::FaultPlan;
use mp5_trace::{audit, stream_hash, MemSink};

/// Knobs for one chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosOpts {
    /// Pipelines `k`.
    pub pipelines: usize,
    /// Packets per run.
    pub packets: usize,
    /// Rough cycle horizon the fault schedule is rolled over.
    pub horizon: u64,
}

impl Default for ChaosOpts {
    fn default() -> Self {
        ChaosOpts {
            pipelines: 4,
            packets: 600,
            horizon: 400,
        }
    }
}

/// The outcome of one chaos case (app × seed).
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Application name.
    pub app: String,
    /// Chaos seed (drives both the traffic trace and the fault plan).
    pub seed: u64,
    /// Faults in the rolled plan.
    pub plan_len: usize,
    /// The run's report.
    pub report: RunReport,
    /// Auditor findings on the event stream.
    pub audit_findings: usize,
    /// Problems found; empty means the case passed.
    pub failures: Vec<String>,
}

impl ChaosOutcome {
    /// Did every chaos contract hold?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// One summary line for tables and logs.
    pub fn summary(&self) -> String {
        let f = &self.report.fault;
        format!(
            "{:<10} seed {:>3}: {} faults, injected {} = recovered {} + degraded {}, \
             {} degraded cycle(s), {} phantom(s) recovered, audit findings {} -> {}",
            self.app,
            self.seed,
            self.plan_len,
            f.injected,
            f.recovered,
            f.degraded,
            f.degraded_cycles,
            f.phantoms_recovered,
            self.audit_findings,
            if self.passed() { "ok" } else { "FAIL" }
        )
    }
}

/// Rolls the chaos fault plan for one case. Exposed so callers can
/// print or persist the exact schedule that a failing seed produced.
pub fn chaos_plan(prog: &mp5_compiler::CompiledProgram, seed: u64, opts: &ChaosOpts) -> FaultPlan {
    FaultPlan::chaos(seed, opts.pipelines, prog.num_stages(), opts.horizon)
}

/// Runs one chaos case: app × seed, auditor-gated.
pub fn run_case(app: &mp5_apps::AppSpec, seed: u64, opts: &ChaosOpts) -> ChaosOutcome {
    let (prog, trace) = crate::experiments::app_trace(app, opts.packets, seed);
    let plan = chaos_plan(&prog, seed, opts);
    let mut failures = Vec::new();
    if let Err(e) = plan.validate(opts.pipelines, prog.num_stages()) {
        failures.push(format!("chaos plan invalid: {e}"));
    }

    let banzai = BanzaiSwitch::new(prog.clone()).run(trace.clone());
    let cfg = SwitchConfig::mp5(opts.pipelines);
    let (rep, sink) =
        Mp5Switch::with_faults(prog, cfg, MemSink::new(), plan.injector()).run_traced(trace);

    if rep.completed + rep.drops.total_data() != rep.offered {
        failures.push(format!(
            "packets not conserved: completed {} + data drops {} != offered {}",
            rep.completed,
            rep.drops.total_data(),
            rep.offered
        ));
    }
    if !rep.fault.accounted() {
        failures.push(format!(
            "fault ledger broken: injected {} != recovered {} + degraded {}",
            rep.fault.injected, rep.fault.recovered, rep.fault.degraded
        ));
    }
    // Faults scheduled past the drain cycle legitimately never fire, so
    // `injected <= plan.len()` rather than equality.
    if rep.fault.injected as usize > plan.len() {
        failures.push(format!(
            "more faults fired ({}) than the plan holds ({})",
            rep.fault.injected,
            plan.len()
        ));
    }

    // Relation (a) of DESIGN.md §11, lost phantoms included: on the
    // bundled apps it held in every probe, so a failure is a finding.
    if rep.completed == rep.offered && !rep.result.equivalent_to(&banzai) {
        failures.push("every packet completed, yet the run is not equivalent to Banzai".into());
    }

    let audit_rep = audit(&sink.into_events());
    if !audit_rep.is_clean() {
        let mut shown = String::new();
        for f in audit_rep.findings.iter().take(3) {
            shown.push_str(&format!(" [{f}]"));
        }
        failures.push(format!(
            "auditor found {} violation(s) under faults:{shown}",
            audit_rep.findings.len()
        ));
    }

    ChaosOutcome {
        app: app.name.to_string(),
        seed,
        plan_len: plan.len(),
        report: rep,
        audit_findings: audit_rep.findings.len(),
        failures,
    }
}

/// Runs a whole campaign: every app × every seed. Cases run on the
/// process thread pool (each case is single-threaded and
/// deterministic). Returns outcomes in `(app, seed)` order.
pub fn run_campaign(
    apps: &[mp5_apps::AppSpec],
    seeds: &[u64],
    opts: &ChaosOpts,
) -> Vec<ChaosOutcome> {
    let mut jobs: Vec<Box<dyn FnOnce() -> ChaosOutcome + Send>> = Vec::new();
    for app in apps {
        let app = *app;
        for &seed in seeds {
            let opts = opts.clone();
            jobs.push(Box::new(move || run_case(&app, seed, &opts)));
        }
    }
    crate::parallel_map(jobs)
}

/// The outcome of one fabric chaos case: a leaf–spine fabric loses a
/// spine mid-run and must degrade gracefully instead of collapsing.
#[derive(Debug, Clone)]
pub struct FabricChaosOutcome {
    /// Chaos seed (drives workload, ECMP salt, and kill timing).
    pub seed: u64,
    /// The fabric report of the kill run.
    pub report: mp5_topo::FabricReport,
    /// Problems found; empty means the case passed.
    pub failures: Vec<String>,
}

impl FabricChaosOutcome {
    /// Did every fabric chaos contract hold?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// One summary line for tables and logs.
    pub fn summary(&self) -> String {
        let r = &self.report;
        format!(
            "fabric     seed {:>3}: spine killed, delivered {}/{} ({:.1}%), \
             stranded {} (dead {} + to-dead {} + no-route {}), ledger {} -> {}",
            self.seed,
            r.delivered,
            r.injected,
            100.0 * r.delivered_fraction(),
            r.lost_in_dead + r.dropped_to_dead + r.dropped_no_route,
            r.lost_in_dead,
            r.dropped_to_dead,
            r.dropped_no_route,
            if r.conservation_closed() {
                "closed"
            } else {
                "OPEN"
            },
            if self.passed() { "ok" } else { "FAIL" }
        )
    }
}

/// Runs one fabric chaos case: a 4-leaf/2-spine fabric under a uniform
/// datacenter workload loses one spine mid-run (which spine and when
/// derive from the seed). Contracts: the conservation ledger closes,
/// delivery degrades to the surviving paths instead of collapsing (the
/// surviving spine keeps forwarding and most packets still arrive).
pub fn run_fabric_case(seed: u64, opts: &ChaosOpts) -> FabricChaosOutcome {
    use mp5_topo::{Fabric, FabricConfig, SpineKill, TopologyConfig};

    let app = mp5_apps::by_name("heavy_hitter").expect("bundled app");
    let prog = app.compile().expect("bundled app compiles");
    let fill = app.fill;
    let leaves = 4usize;
    let kill = SpineKill {
        spine: leaves as u32 + (seed % 2) as u32,
        at_tick: 150 + seed % 200,
    };
    let mut failures = Vec::new();

    let topo = TopologyConfig::leaf_spine(leaves, 2, 2)
        .validate()
        .expect("valid topology");
    let hosts = topo.num_hosts();
    let mut cfg = FabricConfig::new(SwitchConfig::mp5(opts.pipelines).with_hardware_fifos());
    cfg.seed = seed;
    cfg.kill_spine = Some(kill);
    let workload = mp5_traffic::DcWorkload::new(hosts, 600, seed)
        .load(0.7)
        .max_pkts_per_flow(4);
    let r = Fabric::new(topo, cfg, prog.clone())
        .expect("valid fabric config")
        .run(workload.stream(), |key, rng, fields| {
            fill(&prog, key, rng, fields)
        })
        .report;
    if !r.conservation_closed() {
        failures.push(format!(
            "conservation ledger open: injected {} != delivered {} + accounted drops",
            r.injected, r.delivered
        ));
    }
    let dead = kill.spine as usize;
    let alive = leaves + (dead - leaves + 1) % 2;
    if !r.switches[dead].dead {
        failures.push(format!("spine {dead} was not marked dead"));
    }
    if r.switches[alive].dead {
        failures.push(format!("surviving spine {alive} wrongly marked dead"));
    }
    // Graceful degradation: the survivor keeps forwarding, and the
    // fabric still delivers the bulk of the traffic over it.
    if r.switches[alive].completed <= r.switches[dead].completed {
        failures.push(format!(
            "surviving spine forwarded {} packets, dead one {} — traffic did not shift",
            r.switches[alive].completed, r.switches[dead].completed
        ));
    }
    if r.delivered_fraction() < 0.5 {
        failures.push(format!(
            "fabric collapsed: only {:.1}% delivered after a single-spine loss",
            100.0 * r.delivered_fraction()
        ));
    }
    if r.lost_in_dead + r.dropped_to_dead == 0 {
        failures.push("mid-run kill stranded no packets — kill likely never fired".into());
    }

    FabricChaosOutcome {
        seed,
        report: r,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_case_passes_on_flowlet() {
        let opts = ChaosOpts {
            packets: 300,
            horizon: 200,
            ..ChaosOpts::default()
        };
        let out = run_case(&mp5_apps::PAPER_APPS[0], 7, &opts);
        assert!(out.passed(), "chaos case failed: {:?}", out.failures);
        assert!(out.plan_len >= 3, "chaos plans roll at least 3 faults");
        assert!(out.report.fault.any(), "at least one fault must fire");
    }

    #[test]
    fn fabric_chaos_case_survives_a_spine_kill() {
        let out = run_fabric_case(11, &ChaosOpts::default());
        assert!(out.passed(), "fabric chaos failed: {:?}", out.failures);
        assert!(out.report.conservation_closed());
    }

    #[test]
    fn chaos_plans_are_seed_deterministic() {
        let prog = mp5_apps::PAPER_APPS[0].compile().expect("compiles");
        let opts = ChaosOpts::default();
        let a = chaos_plan(&prog, 42, &opts);
        let b = chaos_plan(&prog, 42, &opts);
        assert_eq!(a.to_json(), b.to_json());
        let c = chaos_plan(&prog, 43, &opts);
        assert_ne!(a.to_json(), c.to_json());
    }
}

// ---------------------------------------------------------------------
// Kill–restore chaos: crash-safety of the snapshot/restore path
// ---------------------------------------------------------------------

/// The outcome of one kill–restore case: a chaos-faulted run is
/// checkpointed every N cycles through the full snapshot codec, killed
/// at the second checkpoint, restored, and must finish bit-identically
/// to the run that was never interrupted.
#[derive(Debug, Clone)]
pub struct KillRestoreOutcome {
    /// Application name.
    pub app: String,
    /// Chaos seed (drives traffic and the fault plan).
    pub seed: u64,
    /// Checkpoint cadence used (cycles).
    pub every: u64,
    /// Cycle the process was "killed" at (== the last checkpoint).
    pub kill_cycle: u64,
    /// Checkpoints taken (each round-tripped through the codec).
    pub checkpoints: u64,
    /// Auditor findings on the stitched (pre-kill + post-restore)
    /// event stream.
    pub audit_findings: usize,
    /// Problems found; empty means the case passed.
    pub failures: Vec<String>,
}

impl KillRestoreOutcome {
    /// Did every kill–restore contract hold?
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// One summary line for tables and logs.
    pub fn summary(&self) -> String {
        format!(
            "{:<10} seed {:>3}: {} checkpoint(s) every {} cycles, killed @ {}, \
             audit findings {} -> {}",
            self.app,
            self.seed,
            self.checkpoints,
            self.every,
            self.kill_cycle,
            self.audit_findings,
            if self.passed() { "ok" } else { "FAIL" }
        )
    }
}

/// Runs one kill–restore case: app × seed under the same chaos fault
/// plan as [`run_case`]. Contracts:
///
/// 1. Every checkpoint survives the snapshot codec losslessly.
/// 2. The restored run (from the last pre-kill checkpoint, fault
///    injector cursor included) finishes with the identical
///    [`RunReport`] and identical event-stream hash as the
///    uninterrupted oracle.
/// 3. The stitched event stream (pre-kill + post-restore) passes the
///    offline auditor with zero findings, and the fault ledger closes.
pub fn run_kill_restore_case(
    app: &mp5_apps::AppSpec,
    seed: u64,
    opts: &ChaosOpts,
) -> KillRestoreOutcome {
    use mp5_serve::{Server, Snapshot};

    let (prog, trace) = crate::experiments::app_trace(app, opts.packets, seed);
    let plan = chaos_plan(&prog, seed, opts);
    let plan_json = plan.to_json();
    let cfg = SwitchConfig::mp5(opts.pipelines);
    let mut failures = Vec::new();

    // The uninterrupted oracle (traced, same fault plan).
    let (oracle_rep, oracle_sink) =
        Mp5Switch::with_faults(prog, cfg.clone(), MemSink::new(), plan.injector())
            .run_traced(trace.clone());
    let oracle_hash = stream_hash(&oracle_sink.into_events());

    // Checkpoint every ~1/5 of the run; die right after the second one
    // (the crash model for a periodic-checkpoint service: the snapshot
    // on disk is current as of the kill).
    let every = (oracle_rep.cycles / 5).max(1);
    let kill_cycle = 2 * every;

    let mut srv: Server<MemSink, mp5_faults::PlannedFaults> =
        Server::new(app.source, cfg, MemSink::new(), Some(plan_json))
            .expect("bundled app boots a server");
    srv.offer_all(trace);
    let mut checkpoints = 0u64;
    let mut last: Option<Snapshot> = None;
    while srv.cycle() < kill_cycle {
        srv.tick();
        srv.drain_egress();
        if srv.cycle().is_multiple_of(every) {
            let snap = srv.checkpoint();
            match Snapshot::decode(&snap.encode()) {
                Ok(decoded) if decoded == snap => last = Some(decoded),
                Ok(_) => {
                    failures.push(format!("checkpoint @ {} not lossless", srv.cycle()));
                    last = Some(snap);
                }
                Err(e) => {
                    failures.push(format!(
                        "checkpoint @ {} failed to decode: {e}",
                        srv.cycle()
                    ));
                    last = Some(snap);
                }
            }
            checkpoints += 1;
        }
    }
    let events_before = srv.abandon().into_events();
    let snap = last.expect("kill cycle is a checkpoint cycle");

    let mut audit_findings = 0usize;
    match Server::<MemSink, mp5_faults::PlannedFaults>::restore(snap, MemSink::new(), None, None) {
        Err(e) => failures.push(format!("restore failed: {e}")),
        Ok(mut srv) => {
            while !srv.is_idle() {
                srv.tick();
                srv.drain_egress();
            }
            let (rep, sink) = srv.finish();
            if rep != oracle_rep {
                failures.push("restore diverged from the uninterrupted run".into());
            }
            if !rep.fault.accounted() {
                failures.push(format!(
                    "restore: fault ledger open (injected {} != recovered {} + degraded {})",
                    rep.fault.injected, rep.fault.recovered, rep.fault.degraded
                ));
            }
            let mut stitched = events_before;
            stitched.extend(sink.into_events());
            if stream_hash(&stitched) != oracle_hash {
                failures.push("restored event stream diverged".into());
            }
            let audit_rep = audit(&stitched);
            audit_findings = audit_rep.findings.len();
            if !audit_rep.is_clean() {
                let mut shown = String::new();
                for f in audit_rep.findings.iter().take(3) {
                    shown.push_str(&format!(" [{f}]"));
                }
                failures.push(format!(
                    "auditor found {} violation(s) on the stitched stream:{shown}",
                    audit_rep.findings.len()
                ));
            }
        }
    }

    KillRestoreOutcome {
        app: app.name.to_string(),
        seed,
        every,
        kill_cycle,
        checkpoints,
        audit_findings,
        failures,
    }
}

/// Runs a kill–restore campaign: every app × every seed, on the
/// process thread pool. Returns outcomes in `(app, seed)` order.
pub fn run_kill_restore_campaign(
    apps: &[mp5_apps::AppSpec],
    seeds: &[u64],
    opts: &ChaosOpts,
) -> Vec<KillRestoreOutcome> {
    let mut jobs: Vec<Box<dyn FnOnce() -> KillRestoreOutcome + Send>> = Vec::new();
    for app in apps {
        let app = *app;
        for &seed in seeds {
            let opts = opts.clone();
            jobs.push(Box::new(move || run_kill_restore_case(&app, seed, &opts)));
        }
    }
    crate::parallel_map(jobs)
}
