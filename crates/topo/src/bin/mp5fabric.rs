//! `mp5fabric` — deterministic leaf–spine fabric runs of composed MP5
//! switches.
//!
//! ```sh
//! cargo run --release -p mp5-topo --bin mp5fabric -- \
//!     [--app NAME] [--leaves N] [--spines N] [--hosts-per-leaf N] \
//!     [--flows N] [--seed N] [--load F] [--pkts-per-flow N] \
//!     [--pipelines K] \
//!     [--routing ecmp|flowlet|flowlet:GAP] \
//!     [--incast FANIN[:PERIOD]] [--outcast FANOUT] \
//!     [--kill-spine IDX[@TICK]] [--link-cap N] [--link-latency N] \
//!     [--trace-dir DIR] [--audit] [--json FILE] [--quiet]
//! ```
//!
//! Builds the requested topology, streams a seeded datacenter workload
//! (web-search flow sizes; optionally incast or outcast) through it,
//! and prints the [`FabricReport`]: delivery and drop ledger, flow
//! completion times, per-link utilization, and per-switch rows. The
//! run is bit-deterministic: same flags, same report.
//!
//! `--trace-dir` writes each switch's event stream as
//! `DIR/sw<ID>.jsonl` for `mp5audit`; `--audit` runs the invariant
//! auditor in-process instead. Both force per-switch `MemSink`s, so
//! use them at smoke scale, not on million-flow runs.
//!
//! Exit status: 0 on a clean conserved run, 1 if the conservation
//! ledger fails to close or an audit finds violations, 2 on a bad flag
//! or a fabric no run can use (e.g. `--link-cap 0`).

use mp5_core::SwitchConfig;
use mp5_topo::{Fabric, FabricConfig, FabricReport, RouteMode, SpineKill, TopologyConfig};
use mp5_trace::{audit, write_jsonl, MemSink, NopSink, TraceSink};
use mp5_traffic::{DcPattern, DcWorkload};

struct Cli {
    app: String,
    leaves: usize,
    spines: usize,
    hosts_per_leaf: usize,
    flows: u64,
    seed: u64,
    load: f64,
    pkts_per_flow: u32,
    pipelines: usize,
    routing: RouteMode,
    pattern: DcPattern,
    kill_spine: Option<(u32, u64)>,
    link_cap: usize,
    link_latency: u64,
    trace_dir: Option<String>,
    audit: bool,
    json: Option<String>,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: mp5fabric [--app NAME] [--leaves N] [--spines N] [--hosts-per-leaf N] \
         [--flows N] [--seed N] [--load F] [--pkts-per-flow N] [--pipelines K] \
         [--routing ecmp|flowlet|flowlet:GAP] \
         [--incast FANIN[:PERIOD]] [--outcast FANOUT] [--kill-spine IDX[@TICK]] \
         [--link-cap N] [--link-latency N] [--trace-dir DIR] [--audit] \
         [--json FILE] [--quiet]"
    );
    std::process::exit(2)
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        app: "heavy_hitter".into(),
        leaves: 2,
        spines: 2,
        hosts_per_leaf: 4,
        flows: 10_000,
        seed: 1,
        load: 0.8,
        pkts_per_flow: 64,
        pipelines: 4,
        routing: RouteMode::Ecmp,
        pattern: DcPattern::Uniform,
        kill_spine: None,
        link_cap: 64,
        link_latency: 512,
        trace_dir: None,
        audit: false,
        json: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match a.as_str() {
            "--app" => cli.app = val("--app"),
            "--leaves" => cli.leaves = val("--leaves").parse().unwrap_or_else(|_| usage()),
            "--spines" => cli.spines = val("--spines").parse().unwrap_or_else(|_| usage()),
            "--hosts-per-leaf" => {
                cli.hosts_per_leaf = val("--hosts-per-leaf").parse().unwrap_or_else(|_| usage())
            }
            "--flows" => cli.flows = val("--flows").parse().unwrap_or_else(|_| usage()),
            "--seed" => cli.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--load" => cli.load = val("--load").parse().unwrap_or_else(|_| usage()),
            "--pkts-per-flow" => {
                cli.pkts_per_flow = val("--pkts-per-flow").parse().unwrap_or_else(|_| usage())
            }
            "--pipelines" => cli.pipelines = val("--pipelines").parse().unwrap_or_else(|_| usage()),
            "--routing" => {
                cli.routing = val("--routing").parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                })
            }
            "--incast" => {
                let v = val("--incast");
                let (fanin, period) = match v.split_once(':') {
                    Some((f, p)) => (
                        f.parse().unwrap_or_else(|_| usage()),
                        p.parse().unwrap_or_else(|_| usage()),
                    ),
                    None => (v.parse().unwrap_or_else(|_| usage()), 8),
                };
                cli.pattern = DcPattern::Incast { fanin, period };
            }
            "--outcast" => {
                cli.pattern = DcPattern::Outcast {
                    fanout: val("--outcast").parse().unwrap_or_else(|_| usage()),
                }
            }
            "--kill-spine" => {
                let v = val("--kill-spine");
                let (idx, tick) = match v.split_once('@') {
                    Some((i, t)) => (
                        i.parse().unwrap_or_else(|_| usage()),
                        t.parse().unwrap_or_else(|_| usage()),
                    ),
                    None => (v.parse().unwrap_or_else(|_| usage()), 1_000),
                };
                cli.kill_spine = Some((idx, tick));
            }
            "--link-cap" => cli.link_cap = val("--link-cap").parse().unwrap_or_else(|_| usage()),
            "--link-latency" => {
                cli.link_latency = val("--link-latency").parse().unwrap_or_else(|_| usage())
            }
            "--trace-dir" => cli.trace_dir = Some(val("--trace-dir")),
            "--audit" => cli.audit = true,
            "--json" => cli.json = Some(val("--json")),
            "--quiet" => cli.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument '{other}'");
                usage()
            }
        }
    }
    // Values the workload generator cannot run with: usage errors that
    // name the flag, not a panic inside the run.
    if !(cli.load > 0.0 && cli.load <= 1.0) {
        eprintln!("--load must be in (0, 1], got {}", cli.load);
        usage()
    }
    if cli.pkts_per_flow == 0 {
        eprintln!("--pkts-per-flow must be at least 1");
        usage()
    }
    if cli.leaves.saturating_mul(cli.hosts_per_leaf) < 2 {
        eprintln!("--leaves x --hosts-per-leaf must give at least two hosts");
        usage()
    }
    cli
}

fn fabric_config(cli: &Cli) -> FabricConfig {
    let mut cfg = FabricConfig::new(SwitchConfig::mp5(cli.pipelines).with_hardware_fifos());
    cfg.link_capacity = cli.link_cap;
    cfg.link_latency = cli.link_latency;
    cfg.routing = cli.routing;
    cfg.seed = cli.seed;
    cfg.kill_spine = cli.kill_spine.map(|(idx, at_tick)| SpineKill {
        spine: (cli.leaves as u32).saturating_add(idx),
        at_tick,
    });
    cfg
}

fn run_once<S: TraceSink>(cli: &Cli, mk_sink: impl FnMut(u32) -> S) -> (FabricReport, Vec<S>) {
    let app = mp5_apps::by_name(&cli.app).unwrap_or_else(|| {
        let names: Vec<&str> = mp5_apps::ALL_APPS.iter().map(|a| a.name).collect();
        eprintln!(
            "unknown app '{}' (try one of: {})",
            cli.app,
            names.join(", ")
        );
        std::process::exit(2)
    });
    let prog = app.compile().unwrap_or_else(|e| {
        eprintln!("app '{}' failed to compile: {e}", cli.app);
        std::process::exit(2)
    });
    let topo = TopologyConfig::leaf_spine(cli.leaves, cli.spines, cli.hosts_per_leaf)
        .validate()
        .unwrap_or_else(|e| {
            eprintln!("invalid topology: {e}");
            std::process::exit(2)
        });
    let hosts = topo.num_hosts();
    let workload = DcWorkload::new(hosts, cli.flows, cli.seed)
        .load(cli.load)
        .max_pkts_per_flow(cli.pkts_per_flow)
        .pattern(cli.pattern);
    let fabric = Fabric::with_hooks(topo, fabric_config(cli), prog.clone(), mk_sink, |_| {
        mp5_faults::NoFaults
    })
    .unwrap_or_else(|e| {
        eprintln!("invalid fabric: {e}");
        std::process::exit(2)
    });
    let fill = app.fill;
    let run = fabric.run(workload.stream(), |key, rng, fields| {
        fill(&prog, key, rng, fields)
    });
    (run.report, run.sinks)
}

fn print_report(r: &FabricReport, cli: &Cli) {
    println!(
        "== mp5fabric ==  {}x{} leaf-spine, {} hosts/leaf, app {}, {} flows, seed {}",
        cli.leaves, cli.spines, cli.hosts_per_leaf, cli.app, cli.flows, cli.seed
    );
    println!(
        "ticks {}  horizon {}  injected {}  delivered {} ({:.2}%)",
        r.ticks,
        r.horizon,
        r.injected,
        r.delivered,
        100.0 * r.delivered_fraction()
    );
    println!(
        "drops: links {}  switch {}  no-route {}  to-dead {}  lost-in-dead {}",
        r.dropped_links, r.dropped_switch, r.dropped_no_route, r.dropped_to_dead, r.lost_in_dead
    );
    println!(
        "flows: started {}  completed {}  fct p50 {}  p99 {}  max {}  mean {:.0}",
        r.flows_started, r.fct.completed_flows, r.fct.p50, r.fct.p99, r.fct.max, r.fct.mean
    );
    let mut worst: Vec<&mp5_topo::LinkSummary> = r.links.iter().collect();
    worst.sort_by(|a, b| b.utilization.total_cmp(&a.utilization));
    for l in worst.iter().take(6) {
        println!(
            "link {:>3}  {:>7} -> {:<7}  util {:>5.1}%  delivered {:>8}  dropped {:>6}  maxq {}",
            l.id,
            l.from,
            l.to,
            100.0 * l.utilization,
            l.stats.delivered,
            l.stats.dropped,
            l.stats.max_queue
        );
    }
    for s in &r.switches {
        println!(
            "sw {:>3} {:?}{}  offered {:>9}  completed {:>9}  dropped {:>6}  steered {:>8}  ecn {:>6}",
            s.id,
            s.role,
            if s.dead { " DEAD" } else { "" },
            s.offered,
            s.completed,
            s.dropped,
            s.steered,
            s.ecn_marked
        );
    }
    println!(
        "conservation: {}  delivery digest {:#018x}",
        if r.conservation_closed() {
            "closed"
        } else {
            "VIOLATED"
        },
        r.delivery_digest
    );
}

fn main() {
    let cli = parse_cli();
    let mut failed = false;

    let traced = cli.trace_dir.is_some() || cli.audit;
    let (report, sinks) = if traced {
        run_once(&cli, |_| MemSink::new())
    } else {
        let (r, _) = run_once(&cli, |_| NopSink);
        (r, Vec::new())
    };

    if !cli.quiet {
        print_report(&report, &cli);
    }
    if !report.conservation_closed() {
        eprintln!("FAIL: conservation ledger did not close");
        failed = true;
    }

    if let Some(dir) = &cli.trace_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("cannot create {dir}: {e}");
            std::process::exit(2)
        });
        for (i, sink) in sinks.iter().enumerate() {
            let path = format!("{dir}/sw{i}.jsonl");
            let file = std::fs::File::create(&path).map(std::io::BufWriter::new);
            if let Err(e) = file.and_then(|f| write_jsonl(&sink.events, f)) {
                eprintln!("cannot write trace to {path}: {e}");
                std::process::exit(2)
            }
        }
        if !cli.quiet {
            println!("traces: {} per-switch files under {dir}/", sinks.len());
        }
    }
    if cli.audit {
        for (i, sink) in sinks.iter().enumerate() {
            let rep = audit(&sink.events);
            if !rep.is_clean() {
                eprintln!(
                    "FAIL: audit of sw{i} found {} violation(s):",
                    rep.findings.len()
                );
                for f in rep.findings.iter().take(10) {
                    eprintln!("  {f:?}");
                }
                failed = true;
            }
        }
        if !failed && !cli.quiet {
            println!("audit: {} switches clean", sinks.len());
        }
    }

    if let Some(path) = &cli.json {
        std::fs::write(path, report.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2)
        });
        if !cli.quiet {
            println!("report: {path}");
        }
    }

    std::process::exit(if failed { 1 } else { 0 });
}
