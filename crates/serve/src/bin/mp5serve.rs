//! `mp5serve` — run an MP5 switch as a long-lived, crash-safe service.
//!
//! ```sh
//! # Serve a bundled app, checkpointing every 10k cycles.
//! cargo run --release -p mp5-serve --bin mp5serve -- \
//!     --app heavy_hitter --packets 20000 --checkpoint-every 10000 --snapshot last.snap
//!
//! # Crash-test: halt mid-run with a final checkpoint...
//! mp5serve --app conga --halt-at 500 --snapshot last.snap --trace part1.jsonl
//! # ...then resume exactly where it stopped (bit-identical continuation).
//! mp5serve --restore last.snap --trace part2.jsonl
//!
//! # Zero-downtime program update at cycle 300.
//! mp5serve prog.dsl --swap-at 300 --swap-program prog_v2.dsl
//! ```
//!
//! Packet ingest is either generated (bundled-app flow traffic or
//! uniform key traffic for a `.dsl` program) or newline-JSON packets on
//! stdin (`--stdin`). Either way the session pulls the feed only as far
//! as the switch's clock needs it, so a stdin feed is served while it
//! streams in and memory holds a window of it, not all of it. A
//! checkpoint first ingests the rest of the feed, so the snapshot holds
//! every future arrival. Feed lines must be in strictly ascending entry
//! order (arrival, then port; a port delivers at most one packet per
//! byte-time, so no two lines share both) and carry the program's field
//! count; a line that does not, or does not parse, stops the run with
//! `packet feed line N: ...` and exit 1.
//!
//! A session pays per packet only for what it serves. A new switch runs
//! with `record_detail` off: it keeps no per-packet history (output
//! fields, completion records, access log), because nothing it prints,
//! traces or audits reads one, so a checkpoint holds live state and the
//! unread feed, not the length of the run. A restore keeps the
//! snapshot's own configuration. Functional-equivalence checks against
//! the single-pipeline reference run through the library (`mp5run`,
//! `mp5chaos`, the test suites), with detail on.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

use mp5_core::{RunReport, SwitchConfig};
use mp5_faults::{NoFaults, PlannedFaults};
use mp5_serve::{
    compile_source, io_err, packet_feed, FaultState, FeedItem, ServeError, Server, Snapshot,
};
use mp5_trace::{audit, write_jsonl, MemSink, NopSink, TraceSink};
use mp5_types::Packet;

struct Args {
    app: Option<String>,
    program: Option<String>,
    pipelines: usize,
    packets: usize,
    seed: u64,
    keys: u64,
    stdin: bool,
    faults: Option<String>,
    checkpoint_every: Option<u64>,
    snapshot: Option<String>,
    halt_at: Option<u64>,
    restore: Option<String>,
    swap_at: Option<u64>,
    swap_program: Option<String>,
    trace_out: Option<String>,
    audit: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: mp5serve (--app NAME | PROGRAM.dsl | --restore SNAP) [options]\n\
         \n\
         workload:\n\
           --app NAME            bundled application (mp5-apps)\n\
           PROGRAM.dsl           DSL source file (uniform key traffic)\n\
           --packets N           packets to generate (default 4000)\n\
           --seed N              traffic seed (default 1)\n\
           --keys N              key space for .dsl traffic (default 64)\n\
           --stdin               stream newline-JSON packets from stdin instead,\n\
                                 in entry order (arrival, then port)\n\
         switch:\n\
           --pipelines K         pipelines (default 4)\n\
           --faults PATH         fault plan JSON\n\
         checkpointing:\n\
           --checkpoint-every N  checkpoint every N cycles (needs --snapshot)\n\
           --snapshot PATH       snapshot file (written atomically)\n\
           --halt-at CYCLE       stop at CYCLE, write a final snapshot, exit 0\n\
           --restore PATH        resume from a snapshot\n\
         hot-swap:\n\
           --swap-at CYCLE       hot-swap the program at CYCLE\n\
           --swap-program PATH   DSL source to swap in\n\
         observability:\n\
           --trace PATH          write the event stream as JSONL\n\
           --audit               run the offline auditor; exit 1 on findings"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        app: None,
        program: None,
        pipelines: 4,
        packets: 4_000,
        seed: 1,
        keys: 64,
        stdin: false,
        faults: None,
        checkpoint_every: None,
        snapshot: None,
        halt_at: None,
        restore: None,
        swap_at: None,
        swap_program: None,
        trace_out: None,
        audit: false,
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
            "--app" => args.app = Some(val("--app")),
            "--pipelines" => {
                args.pipelines = val("--pipelines").parse().unwrap_or_else(|_| usage())
            }
            "--packets" => args.packets = val("--packets").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = val("--seed").parse().unwrap_or_else(|_| usage()),
            "--keys" => args.keys = val("--keys").parse().unwrap_or_else(|_| usage()),
            "--stdin" => args.stdin = true,
            "--faults" => args.faults = Some(val("--faults")),
            "--checkpoint-every" => {
                args.checkpoint_every = Some(
                    val("--checkpoint-every")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--snapshot" => args.snapshot = Some(val("--snapshot")),
            "--halt-at" => {
                args.halt_at = Some(val("--halt-at").parse().unwrap_or_else(|_| usage()))
            }
            "--restore" => args.restore = Some(val("--restore")),
            "--swap-at" => {
                args.swap_at = Some(val("--swap-at").parse().unwrap_or_else(|_| usage()))
            }
            "--swap-program" => args.swap_program = Some(val("--swap-program")),
            "--trace" => args.trace_out = Some(val("--trace")),
            "--audit" => args.audit = true,
            "--help" | "-h" => usage(),
            other if args.program.is_none() && !other.starts_with('-') => {
                args.program = Some(other.to_string())
            }
            other => {
                eprintln!("unknown argument '{other}'");
                usage()
            }
        }
    }
    let sources =
        args.app.is_some() as u8 + args.program.is_some() as u8 + args.restore.is_some() as u8;
    if sources != 1 {
        eprintln!("exactly one of --app, PROGRAM.dsl, or --restore is required");
        usage()
    }
    if let Err(e) = SwitchConfig::mp5(args.pipelines).validate() {
        eprintln!("--pipelines: {e}");
        usage()
    }
    if args.keys == 0 {
        eprintln!("--keys: the key space needs at least one key");
        usage()
    }
    if args.checkpoint_every.is_some() && args.snapshot.is_none() {
        eprintln!("--checkpoint-every requires --snapshot PATH");
        usage()
    }
    if args.halt_at.is_some() && args.snapshot.is_none() {
        eprintln!("--halt-at requires --snapshot PATH (the final checkpoint)");
        usage()
    }
    if args.swap_at.is_some() != args.swap_program.is_some() {
        eprintln!("--swap-at and --swap-program go together");
        usage()
    }
    args
}

/// What one serve session produced.
struct Outcome<S> {
    /// `None` when the session halted mid-run (`--halt-at`).
    report: Option<RunReport>,
    sink: S,
    checkpoints: u64,
    egressed: u64,
}

fn read_file(path: &str) -> Result<String, ServeError> {
    std::fs::read_to_string(path).map_err(|e| io_err(Path::new(path), e))
}

/// Builds the generated workload for a fresh (non-restore) session.
fn generate_packets(args: &Args, source: &str) -> Result<Vec<Packet>, ServeError> {
    let prog = compile_source(source)?;
    let nf = prog.num_fields();
    if let Some(name) = &args.app {
        let app = mp5_apps::by_name(name).ok_or_else(|| {
            ServeError::Format(format!(
                "unknown app '{name}' (available: {})",
                mp5_apps::ALL_APPS
                    .iter()
                    .map(|a| a.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        })?;
        let fill = app.fill;
        let (mut trace, _flows) = mp5_traffic::FlowTraceBuilder::new(args.packets, args.seed)
            .build(nf, |rng, key, fields| fill(&prog, key, rng, fields));
        if let Some(id) = prog.field("arr_ts") {
            for p in &mut trace {
                p.fields[id.index()] = p.arrival as i64;
            }
        }
        Ok(trace)
    } else {
        let keys = args.keys;
        Ok(
            mp5_traffic::TraceBuilder::new(args.packets, args.seed).build(nf, move |rng, _, f| {
                use rand::Rng;
                f[0] = rng.gen_range(0..keys as i64);
            }),
        )
    }
}

/// The session's packet feed: stdin lines, the generated trace in entry
/// order, or nothing on `--restore` (the snapshot carries its own
/// pending arrivals).
fn feed(args: &Args, source: &str) -> Result<Box<dyn Iterator<Item = FeedItem>>, ServeError> {
    if args.stdin {
        // Reads fall between cycles, and each evicts some of the
        // switch's working set: a 64 KB buffer (stdin's own is 8 KB)
        // makes eight times fewer of them, ≈ 1.5 % of a 5 k-line run.
        let stdin = BufReader::with_capacity(1 << 16, std::io::stdin().lock());
        Ok(Box::new(packet_feed(stdin)))
    } else if args.restore.is_some() {
        Ok(Box::new(std::iter::empty()))
    } else {
        let mut trace = generate_packets(args, source)?;
        trace.sort_by_key(|p| p.entry_order_key());
        Ok(Box::new(
            trace.into_iter().enumerate().map(|(i, p)| Ok((i + 1, p))),
        ))
    }
}

/// One serve session, generic over sink (tracing on/off) and fault
/// injection. All control flow — ingest, checkpoint cadence, halt,
/// hot-swap, drain — lives here; `main` only picks the types.
fn session<S: TraceSink, F: FaultState>(
    args: &Args,
    snap: Option<Snapshot>,
    sink: S,
) -> Result<Outcome<S>, ServeError> {
    let mut server: Server<S, F> = match snap {
        Some(snap) => {
            let from = snap.cycle();
            let server = Server::restore(snap, sink, None, None)?;
            println!(
                "restored @ cycle {from}: {} in flight, resuming",
                server.live_report().offered - server.live_report().completed
            );
            server
        }
        None => {
            let source = match (&args.app, &args.program) {
                (Some(name), _) => mp5_apps::by_name(name)
                    .ok_or_else(|| ServeError::Format(format!("unknown app '{name}'")))?
                    .source
                    .to_string(),
                (None, Some(path)) => read_file(path)?,
                (None, None) => unreachable!("parse_args enforces a workload source"),
            };
            let cfg = SwitchConfig::mp5(args.pipelines).with_record_detail(false);
            let plan_json = args.faults.as_deref().map(read_file).transpose()?;
            let server = Server::new(&source, cfg, sink, plan_json)?;
            println!(
                "serving '{}' on k={} pipelines",
                args.app
                    .as_deref()
                    .or(args.program.as_deref())
                    .unwrap_or("?"),
                args.pipelines
            );
            server
        }
    };

    let mut feed = feed(args, server.source())?;
    let offered_before = server.live_report().offered;
    let report_ingest = |server: &Server<S, F>| {
        let n = server.live_report().offered - offered_before;
        if n > 0 {
            println!("ingest: {n} packet(s) offered");
        }
    };

    let swap_source = args.swap_program.as_deref().map(read_file).transpose()?;
    let mut swapped = false;
    let mut checkpoints = 0u64;
    let mut egressed = 0u64;
    let mut egress = Vec::new();

    loop {
        server.ingest_due(&mut *feed)?;
        let cycle = server.cycle();
        if let Some(halt) = args.halt_at {
            if cycle >= halt {
                let path = args
                    .snapshot
                    .as_deref()
                    .expect("parse_args enforces --snapshot");
                server.ingest_rest(&mut *feed)?;
                report_ingest(&server);
                let ckpt = server.checkpoint();
                ckpt.write_atomic(Path::new(path))?;
                println!(
                    "halted @ cycle {cycle}: snapshot seq {} -> {path}",
                    ckpt.seq
                );
                return Ok(Outcome {
                    report: None,
                    sink: server.abandon(),
                    checkpoints: checkpoints + 1,
                    egressed,
                });
            }
        }
        if let (Some(at), Some(src)) = (args.swap_at, &swap_source) {
            if !swapped && cycle >= at {
                let rep = server.hot_swap(src)?;
                println!(
                    "hot-swap @ cycle {}: migrated {} = evacuated {}, lost phantoms {} -> ledger {}",
                    rep.cycle,
                    rep.migrated,
                    rep.evacuated,
                    rep.lost_phantoms,
                    if rep.closed() { "closed" } else { "OPEN" }
                );
                swapped = true;
            }
        }
        if let (Some(every), Some(path)) = (args.checkpoint_every, args.snapshot.as_deref()) {
            if cycle > 0 && cycle.is_multiple_of(every) {
                server.ingest_rest(&mut *feed)?;
                let ckpt = server.checkpoint();
                ckpt.write_atomic(Path::new(path))?;
                checkpoints += 1;
                println!("checkpoint seq {} @ cycle {cycle} -> {path}", ckpt.seq);
            }
        }
        if server.is_idle() {
            break;
        }
        server.check_liveness()?;
        server.tick();
        server.drain_egress_into(&mut egress);
        egressed += egress.len() as u64;
        egress.clear();
    }

    report_ingest(&server);
    let (report, sink) = server.finish();
    Ok(Outcome {
        report: Some(report),
        sink,
        checkpoints,
        egressed,
    })
}

/// Runs the session with the right sink/fault types, then handles the
/// observability outputs. Returns the process exit code.
fn drive(args: &Args) -> Result<i32, ServeError> {
    let snap = args
        .restore
        .as_deref()
        .map(|p| Snapshot::read(Path::new(p)))
        .transpose()?;
    let faulted = match &snap {
        Some(s) => s.fault_plan.is_some(),
        None => args.faults.is_some(),
    };
    let tracing = args.trace_out.is_some() || args.audit;

    let (report, events, checkpoints, egressed) = match (tracing, faulted) {
        (true, true) => {
            let o = session::<MemSink, PlannedFaults>(args, snap, MemSink::new())?;
            (o.report, o.sink.into_events(), o.checkpoints, o.egressed)
        }
        (true, false) => {
            let o = session::<MemSink, NoFaults>(args, snap, MemSink::new())?;
            (o.report, o.sink.into_events(), o.checkpoints, o.egressed)
        }
        (false, true) => {
            let o = session::<NopSink, PlannedFaults>(args, snap, NopSink)?;
            (o.report, Vec::new(), o.checkpoints, o.egressed)
        }
        (false, false) => {
            let o = session::<NopSink, NoFaults>(args, snap, NopSink)?;
            (o.report, Vec::new(), o.checkpoints, o.egressed)
        }
    };

    match &report {
        Some(rep) => println!(
            "done: throughput {:.3} of line rate, completed {}/{}, egressed {}, \
             {} checkpoint(s), {} cycle(s)",
            rep.normalized_throughput(),
            rep.completed,
            rep.offered,
            egressed,
            checkpoints,
            rep.cycles,
        ),
        None => println!("session halted ({egressed} packet(s) egressed before the halt)"),
    }

    if let Some(path) = &args.trace_out {
        let err = |e| io_err(Path::new(path), e);
        write_jsonl(&events, BufWriter::new(File::create(path).map_err(err)?)).map_err(err)?;
        println!("trace: {} events -> {path}", events.len());
    }
    if args.audit {
        let rep = audit(&events);
        print!("{rep}");
        if !rep.is_clean() {
            return Ok(1);
        }
    }
    Ok(0)
}

fn main() {
    let args = parse_args();
    match drive(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("mp5serve: {e}");
            std::process::exit(1);
        }
    }
}
