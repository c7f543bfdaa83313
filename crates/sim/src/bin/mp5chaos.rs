//! `mp5chaos` — randomized (but fully seed-deterministic) fault
//! campaigns against the MP5 switch.
//!
//! ```sh
//! cargo run --release -p mp5-sim --bin mp5chaos -- \
//!     [--seeds N] [--start-seed N] [--apps all|name,name,...] \
//!     [--pipelines K] [--packets N] [--horizon CYCLES] \
//!     [--dump-plans DIR]
//! ```
//!
//! For every `app × seed` case the harness rolls a chaos
//! [`FaultPlan`](mp5_faults::FaultPlan) (stalls, recoverable phantom
//! drops, forced FIFO overflow, crossbar grant delays, remap aborts,
//! and at most one pipeline kill), runs it traced, and checks the
//! chaos contracts: clean finish with a closed fault ledger, zero
//! findings from the offline invariant auditor, and relation (a)
//! against Banzai (DESIGN.md §11).
//!
//! Every failing case prints its seed; re-running with
//! `--seeds 1 --start-seed <seed> --apps <app> --dump-plans .`
//! reproduces it exactly and writes the offending plan as JSON for
//! `mp5run --faults`.

use mp5_core::SwitchConfig;
use mp5_sim::chaos::{self, ChaosOpts};

struct Cli {
    seeds: u64,
    start_seed: u64,
    apps: String,
    opts: ChaosOpts,
    dump_plans: Option<String>,
    fabric: bool,
    kill_restore: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: mp5chaos [--seeds N] [--start-seed N] [--apps all|name,...] \
         [--pipelines K] [--packets N] [--horizon CYCLES] [--dump-plans DIR] \
         [--fabric] [--kill-restore]"
    );
    std::process::exit(2)
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        seeds: 3,
        start_seed: 1,
        apps: "all".into(),
        opts: ChaosOpts::default(),
        dump_plans: None,
        fabric: false,
        kill_restore: false,
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
            "--seeds" => cli.seeds = val("--seeds").parse().unwrap_or_else(|_| usage()),
            "--start-seed" => {
                cli.start_seed = val("--start-seed").parse().unwrap_or_else(|_| usage())
            }
            "--apps" => cli.apps = val("--apps"),
            "--pipelines" => {
                cli.opts.pipelines = val("--pipelines").parse().unwrap_or_else(|_| usage())
            }
            "--packets" => cli.opts.packets = val("--packets").parse().unwrap_or_else(|_| usage()),
            "--horizon" => cli.opts.horizon = val("--horizon").parse().unwrap_or_else(|_| usage()),
            "--dump-plans" => cli.dump_plans = Some(val("--dump-plans")),
            "--fabric" => cli.fabric = true,
            "--kill-restore" => cli.kill_restore = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument '{other}'");
                usage()
            }
        }
    }
    if let Err(e) = SwitchConfig::mp5(cli.opts.pipelines).validate() {
        eprintln!("--pipelines: {e}");
        usage()
    }
    cli
}

fn selected_apps(spec: &str) -> Vec<mp5_apps::AppSpec> {
    if spec == "all" {
        return mp5_apps::ALL_APPS.to_vec();
    }
    spec.split(',')
        .map(|name| {
            *mp5_apps::by_name(name.trim()).unwrap_or_else(|| {
                eprintln!("unknown app '{name}' (try one of: all, {})", app_names());
                std::process::exit(2)
            })
        })
        .collect()
}

fn app_names() -> String {
    mp5_apps::ALL_APPS
        .iter()
        .map(|a| a.name)
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() {
    let cli = parse_cli();
    let apps = selected_apps(&cli.apps);
    let seeds: Vec<u64> = (0..cli.seeds).map(|i| cli.start_seed + i).collect();
    println!(
        "== mp5chaos ==  {} app(s) x {} seed(s), k={}, {} packets, horizon {} cycles",
        apps.len(),
        seeds.len(),
        cli.opts.pipelines,
        cli.opts.packets,
        cli.opts.horizon,
    );

    let outcomes = chaos::run_campaign(&apps, &seeds, &cli.opts);
    let mut failed = 0usize;
    for out in &outcomes {
        println!("{}", out.summary());
        if !out.passed() {
            failed += 1;
            for f in &out.failures {
                eprintln!("    FAIL [{} seed {}]: {f}", out.app, out.seed);
            }
            if let Some(dir) = &cli.dump_plans {
                match mp5_apps::by_name(&out.app).map(|a| a.compile()) {
                    Some(Ok(prog)) => {
                        let plan = chaos::chaos_plan(&prog, out.seed, &cli.opts);
                        let path = format!("{dir}/chaos-{}-{}.json", out.app, out.seed);
                        match std::fs::write(&path, plan.to_json()) {
                            Ok(()) => {
                                eprintln!("    plan -> {path} (replay: mp5run --faults {path})")
                            }
                            Err(e) => eprintln!("    cannot write plan to {path}: {e}"),
                        }
                    }
                    Some(Err(e)) => {
                        eprintln!("    cannot dump plan: '{}' fails to compile: {e}", out.app)
                    }
                    None => eprintln!("    cannot dump plan: '{}' is not a bundled app", out.app),
                }
            }
        }
    }

    let mut total = outcomes.len();
    if cli.kill_restore {
        println!(
            "\n-- kill-restore chaos: checkpoint / kill / restore under faults, {} case(s) --",
            apps.len() * seeds.len()
        );
        for out in chaos::run_kill_restore_campaign(&apps, &seeds, &cli.opts) {
            println!("{}", out.summary());
            if !out.passed() {
                failed += 1;
                for f in &out.failures {
                    eprintln!("    FAIL [{} seed {}]: {f}", out.app, out.seed);
                }
            }
            total += 1;
        }
    }
    if cli.fabric {
        println!(
            "\n-- fabric chaos: 4x2 leaf-spine, spine fail-stop mid-run, {} seed(s) --",
            seeds.len()
        );
        for &seed in &seeds {
            let out = chaos::run_fabric_case(seed, &cli.opts);
            println!("{}", out.summary());
            if !out.passed() {
                failed += 1;
                for f in &out.failures {
                    eprintln!("    FAIL [fabric seed {seed}]: {f}");
                }
            }
            total += 1;
        }
    }

    if failed == 0 {
        println!(
            "\nchaos PASSED: {total}/{total} case(s) clean (no panics, ledger closed, \
             auditor zero findings, Banzai-equivalent)"
        );
    } else {
        eprintln!("\nchaos FAILED: {failed}/{total} case(s) violated the chaos contracts");
        std::process::exit(1);
    }
}
