//! `mp5chaos` — the model harness (`mp5_sim::harness`, DESIGN.md §6)
//! over a window of its cases, under chaos fault plans.
//!
//! ```sh
//! cargo run --release -p mp5-sim --bin mp5chaos -- \
//!     [--cases N] [--start-case S] [--fabric]
//! ```
//!
//! Cases `S..S+N` (default `0..50`) each draw a bundled app, its
//! traffic, `k`, a FIFO bound and a `FaultPlan::chaos` schedule, and run
//! on the `mp5` design with every check of the harness: Banzai's
//! relation, conservation, the fault ledger, a traced and an untraced
//! run, and a run checkpointed through the snapshot codec, restored and
//! hot-swapped on the way. With `--fabric` the cases are leaf–spine
//! fabrics that lose a spine mid-run.
//!
//! A failing case prints its number and its input (a switch case's plan
//! as JSON, for `mp5run --faults`); `--start-case <number> --cases 1`
//! replays it exactly.

use mp5_sim::harness::{fabric_sweep, sweep, Design, FabricPins, Pins, Plan, Program};

struct Cli {
    cases: u64,
    start: u64,
    fabric: bool,
}

fn usage() -> ! {
    eprintln!("usage: mp5chaos [--cases N] [--start-case S] [--fabric]");
    std::process::exit(2)
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        cases: 50,
        start: 0,
        fabric: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> u64 {
            let v = it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            });
            v.parse().unwrap_or_else(|_| {
                eprintln!("{name} takes a whole number, not '{v}'");
                usage()
            })
        };
        match a.as_str() {
            "--cases" => cli.cases = num("--cases"),
            "--start-case" => cli.start = num("--start-case"),
            "--fabric" => cli.fabric = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument '{other}'");
                usage()
            }
        }
    }
    if cli.cases == 0 {
        eprintln!("--cases must be at least 1");
        usage()
    }
    if cli.start.checked_add(cli.cases).is_none() {
        eprintln!("--start-case + --cases overflows a u64");
        usage()
    }
    cli
}

fn main() {
    let cli = parse_cli();
    let range = cli.start..cli.start + cli.cases;
    let what = match cli.fabric {
        false => "bundled apps on mp5 under chaos plans",
        true => "leaf-spine fabrics losing a spine mid-run",
    };
    println!("== mp5chaos ==  cases {range:?}: {what}");
    let run = std::panic::catch_unwind(|| match cli.fabric {
        false => {
            let pins = Pins {
                program: Some(Program::App),
                design: Some(Design::Mp5),
                plan: Some(Plan::Chaos),
            };
            sweep(range, pins)
        }
        true => {
            let pins = FabricPins {
                routing: None,
                kill: Some(true),
            };
            fabric_sweep(range, pins)
        }
    });
    match run {
        Ok(_) => println!("chaos PASSED: {} case(s) clean", cli.cases),
        Err(_) => {
            let fabric = if cli.fabric { " --fabric" } else { "" };
            eprintln!(
                "chaos FAILED: the case above replays with \
                 `mp5chaos{fabric} --start-case <case> --cases 1`"
            );
            std::process::exit(1)
        }
    }
}
