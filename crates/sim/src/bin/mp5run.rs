//! `mp5run` — run a Domino-like program file on the MP5 simulator from
//! the command line and check functional equivalence against the
//! single-pipeline reference.
//!
//! ```sh
//! cargo run --release -p mp5-sim --bin mp5run -- program.dsl \
//!     [--pipelines 4] [--packets 20000] [--pattern uniform|skewed] \
//!     [--design mp5|ideal|no-d4|static|naive|recirc] [--seed 1] [--keys 1024] \
//!     [--packet-size 64] \
//!     [--trace out.jsonl] [--audit] [--rollup out.csv] [--chrome out.json]
//! ```
//!
//! The program's declared packet fields are filled with keys drawn from
//! the chosen access pattern (every field gets an independent draw),
//! which drives the register indexes for typical hash-indexed programs.
//!
//! Observability flags (any of them switches the run into traced mode):
//!
//! * `--trace <path>` — record the full event stream as JSONL, ready
//!   for the `mp5audit` offline auditor.
//! * `--audit` — run the invariant auditor in-process on the recorded
//!   stream and exit non-zero if it reports violations.
//! * `--rollup <path>` — write per-stage / per-register metrics
//!   rollups (occupancy histograms, steer matrix, phantom waits) as CSV.
//! * `--chrome <path>` — export a Chrome-trace / Perfetto JSON timeline
//!   with one track per `(pipeline, stage)`.
//!
//! Fault injection (see `mp5-faults` and DESIGN.md §11):
//!
//! * `--faults <plan.json>` — replay a deterministic fault plan
//!   (e.g. the plan a failing `mp5chaos` case prints) against the run.
//! * `--chaos-seed <n>` — roll a seed-deterministic chaos plan for
//!   this program/pipeline-count instead of loading one from disk.
//!
//! Either flag prints the recovery ledger after the run; combine with
//! `--audit` to re-verify the runtime invariants under the faults.

use mp5_banzai::BanzaiSwitch;
use mp5_compiler::{compile, Target};
use mp5_core::{Mp5Switch, SwitchConfig};
use mp5_faults::FaultPlan;
use mp5_sim::c1_violation_fraction;
use mp5_trace::{audit, write_jsonl, MemSink, NopSink, Rollup};
use mp5_traffic::{AccessPattern, SizeDist, TraceBuilder};

struct Args {
    program: String,
    pipelines: usize,
    packets: usize,
    pattern: AccessPattern,
    design: String,
    seed: u64,
    keys: u64,
    packet_size: u32,
    trace_out: Option<String>,
    audit: bool,
    rollup_out: Option<String>,
    chrome_out: Option<String>,
    faults: Option<String>,
    chaos_seed: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: mp5run <program.dsl> [--pipelines N] [--packets N] \
         [--pattern uniform|skewed] [--design mp5|ideal|no-d4|static|naive|recirc] \
         [--seed N] [--keys N] \
         [--packet-size BYTES] \
         [--trace FILE] [--audit] [--rollup FILE] [--chrome FILE] \
         [--faults PLAN.json] [--chaos-seed N]"
    );
    std::process::exit(2)
}

/// `v`, the value given to `flag`, as the whole number it takes, or a
/// usage error naming both.
fn num<T: std::str::FromStr>(flag: &str, v: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("{flag} takes a whole number, not '{v}'");
        usage()
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        program: String::new(),
        pipelines: 4,
        packets: 20_000,
        pattern: AccessPattern::Uniform,
        design: "mp5".into(),
        seed: 1,
        keys: 1024,
        packet_size: 64,
        trace_out: None,
        audit: false,
        rollup_out: None,
        chrome_out: None,
        faults: None,
        chaos_seed: None,
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
            "--pipelines" => args.pipelines = num("--pipelines", &val("--pipelines")),
            "--packets" => args.packets = num("--packets", &val("--packets")),
            "--seed" => args.seed = num("--seed", &val("--seed")),
            "--keys" => args.keys = num("--keys", &val("--keys")),
            "--packet-size" => args.packet_size = num("--packet-size", &val("--packet-size")),
            "--pattern" => {
                args.pattern = match val("--pattern").as_str() {
                    "uniform" => AccessPattern::Uniform,
                    "skewed" => AccessPattern::paper_skewed(),
                    other => {
                        eprintln!("unknown pattern '{other}'");
                        usage()
                    }
                }
            }
            "--design" => args.design = val("--design"),
            "--trace" => args.trace_out = Some(val("--trace")),
            "--audit" => args.audit = true,
            "--rollup" => args.rollup_out = Some(val("--rollup")),
            "--chrome" => args.chrome_out = Some(val("--chrome")),
            "--faults" => args.faults = Some(val("--faults")),
            "--chaos-seed" => args.chaos_seed = Some(num("--chaos-seed", &val("--chaos-seed"))),
            "--help" | "-h" => usage(),
            other if args.program.is_empty() && !other.starts_with('-') => {
                args.program = other.to_string()
            }
            other => {
                eprintln!("unknown argument '{other}'");
                usage()
            }
        }
    }
    if args.program.is_empty() {
        usage()
    }
    // Every design runs on at least one pipeline.
    if let Err(e) = SwitchConfig::mp5(args.pipelines).validate() {
        eprintln!("--pipelines: {e}");
        usage()
    }
    if args.keys == 0 {
        eprintln!("--keys: the key space needs at least one key");
        usage()
    }
    args
}

fn main() {
    let args = parse_args();
    let source = std::fs::read_to_string(&args.program).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", args.program);
        std::process::exit(1)
    });
    let prog = compile(&source, &Target::default()).unwrap_or_else(|e| {
        eprintln!("compile error: {e}");
        std::process::exit(1)
    });
    println!(
        "compiled '{}': {} stages ({} prologue + {} body), {} register array(s), {} shardable",
        args.program,
        prog.num_stages(),
        prog.resolution.stages,
        prog.stages.len(),
        prog.regs.len(),
        prog.regs.iter().filter(|r| r.shardable).count(),
    );

    let declared = prog.declared_fields;
    let pattern = args.pattern;
    let keys = args.keys;
    let trace = TraceBuilder::new(args.packets, args.seed)
        .size(SizeDist::Fixed(args.packet_size))
        .build(prog.num_fields(), move |rng, _, f| {
            for v in f.iter_mut().take(declared) {
                *v = pattern.draw(keys, rng) as i64;
            }
        });

    let reference = BanzaiSwitch::new(prog.clone()).run(trace.clone());
    let k = args.pipelines;

    // Fault plan: replayed from disk or rolled from a chaos seed.
    let plan: Option<FaultPlan> = match (&args.faults, args.chaos_seed) {
        (Some(_), Some(_)) => {
            eprintln!("--faults and --chaos-seed are mutually exclusive");
            usage()
        }
        (Some(path), None) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read fault plan {path}: {e}");
                std::process::exit(1)
            });
            Some(FaultPlan::from_json(&text).unwrap_or_else(|e| {
                eprintln!("fault plan {path}: {e}");
                std::process::exit(1)
            }))
        }
        (None, Some(seed)) => {
            let horizon = (args.packets / k).max(64) as u64;
            Some(FaultPlan::chaos(seed, k, prog.num_stages(), horizon))
        }
        (None, None) => None,
    };
    if let Some(p) = &plan {
        if let Err(e) = p.validate(k, prog.num_stages()) {
            eprintln!("fault plan invalid for k={k}: {e}");
            std::process::exit(1);
        }
        println!("fault plan: {} fault(s) scheduled", p.len());
    }

    // Any observability flag switches the run into traced mode (the
    // sink only observes; the run itself is bit-identical).
    let tracing = args.trace_out.is_some()
        || args.audit
        || args.rollup_out.is_some()
        || args.chrome_out.is_some();
    let cfg = match args.design.as_str() {
        "mp5" => SwitchConfig::mp5(k),
        "ideal" => SwitchConfig::ideal(k),
        "no-d4" => SwitchConfig::no_d4(k),
        "static" => SwitchConfig::static_shard(k, args.seed),
        "naive" => SwitchConfig::naive(k),
        "recirc" => SwitchConfig::recirc(k),
        other => {
            eprintln!("unknown design '{other}'");
            usage()
        }
    };
    let (report, events) = match (tracing, &plan) {
        (true, Some(p)) => {
            let (report, sink) =
                Mp5Switch::with_faults(prog, cfg, MemSink::new(), p.injector()).run_traced(trace);
            (report, sink.into_events())
        }
        (true, None) => {
            let (report, sink) = Mp5Switch::with_sink(prog, cfg, MemSink::new()).run_traced(trace);
            (report, sink.into_events())
        }
        (false, Some(p)) => (
            Mp5Switch::with_faults(prog, cfg, NopSink, p.injector()).run(trace),
            Vec::new(),
        ),
        (false, None) => (Mp5Switch::new(prog, cfg).run(trace), Vec::new()),
    };

    let c1 = c1_violation_fraction(&reference.access_log, &report.result.access_log);
    println!(
        "design {:<7} k={k}: throughput {:.3} of line rate, completed {}/{}, \
         steered {}, remap moves {}, max queue {}",
        args.design,
        report.normalized_throughput(),
        report.completed,
        report.offered,
        report.steered,
        report.remap_moves,
        report.max_queue_depth,
    );
    println!(
        "functional equivalence: {}   C1 violations: {:.2}%",
        report.result.equivalent_to(&reference),
        c1 * 100.0
    );
    if plan.is_some() {
        let f = &report.fault;
        println!(
            "fault ledger: injected {} = recovered {} + degraded {} ({}), \
             degraded cycles {}, evacuated indexes {}, phantoms recovered {}/{}, \
             stall cycles {}, delayed grants {}, aborted remaps {}, dead pipelines {:?}",
            f.injected,
            f.recovered,
            f.degraded,
            if f.accounted() { "closed" } else { "OPEN" },
            f.degraded_cycles,
            f.evacuated_indexes,
            f.phantoms_recovered,
            f.phantoms_dropped,
            f.stall_cycles,
            f.delayed_grants,
            f.aborted_remaps,
            f.dead_pipelines,
        );
    }

    if let Some(path) = &args.trace_out {
        let file = std::fs::File::create(path).map(std::io::BufWriter::new);
        if let Err(e) = file.and_then(|f| write_jsonl(&events, f)) {
            eprintln!("cannot write trace to {path}: {e}");
            std::process::exit(1);
        }
        println!("trace: {} events -> {path}", events.len());
    }
    if let Some(path) = &args.rollup_out {
        write_or_die(path, &Rollup::from_events(&events).to_csv(), "rollup");
        println!("rollup: -> {path}");
    }
    if let Some(path) = &args.chrome_out {
        write_or_die(path, &mp5_trace::chrome::export(&events), "chrome trace");
        println!("chrome trace: -> {path}");
    }
    if args.audit {
        let rep = audit(&events);
        print!("{rep}");
        if !rep.is_clean() {
            std::process::exit(1);
        }
    }
}

fn write_or_die(path: &str, contents: &str, what: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {what} to {path}: {e}");
        std::process::exit(1);
    }
}
