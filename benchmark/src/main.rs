//! `mp5-benchmark` — the repository's benchmark (see `README.md` and
//! `BENCHMARK.json`). Start it through `benchmark/run.sh`, which builds
//! it and `mp5serve` first.
//!
//! ```text
//! run.sh --workload NAME --seed N --seconds S --trace 0|1   one run (the contract's form)
//! run.sh [--workload NAME]... [--seed N] [--quick]          the suite: untraced, then traced
//! run.sh --compare A.json B.json                            two result files, row by row
//! ```
//!
//! The benchmark drives the system from one thread of one process and
//! times calls into public functions from outside. It names only the
//! default configuration: `SwitchConfig::mp5(k)`, `.with_record_detail`,
//! `.with_hardware_fifos()`.

mod compare;
mod drive;
mod error;
mod harness;
mod metrics;
mod probes;
mod span;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::{Map, Value};

use error::BenchError;
use harness::{RunOpts, RunOutput};
use workloads::{Params, NAMES};

const PR: u32 = 11;
/// How often the suite takes a run again that the noise guard flagged.
const NOISY_RETRIES: u32 = 3;

#[derive(Debug, Default)]
struct Cli {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    results_dir: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

const USAGE: &str = "usage: run.sh [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1] \
[--quick] [--out FILE] [--trace-out FILE] [--results-dir DIR] | --compare A.json B.json";

fn parse_cli(args: impl Iterator<Item = String>) -> Result<Cli, BenchError> {
    let mut cli = Cli {
        seed: 1,
        ..Cli::default()
    };
    let mut it = args;
    let usage = |m: String| BenchError::Usage(format!("{m}\n{USAGE}"));
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .ok_or_else(|| usage(format!("{flag} needs a value")))
        };
        match a.as_str() {
            "--workload" => {
                let w = val("--workload")?;
                let known = NAMES.iter().find(|n| **n == w).ok_or_else(|| {
                    usage(format!(
                        "unknown workload '{w}' (one of: {})",
                        NAMES.join(", ")
                    ))
                })?;
                cli.workloads.push(known);
            }
            "--seed" => {
                let v = val("--seed")?;
                cli.seed = v
                    .parse()
                    .map_err(|_| usage(format!("--seed: '{v}' is not a whole number")))?;
            }
            "--seconds" => {
                let v = val("--seconds")?;
                let s: f64 = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| usage(format!("--seconds: '{v}' is not a positive number")))?;
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = Some(match val("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(usage(format!("--trace: '{v}' is not 0 or 1"))),
                });
            }
            "--quick" => cli.quick = true,
            "--out" => cli.out = Some(val("--out")?.into()),
            "--trace-out" => cli.trace_out = Some(val("--trace-out")?.into()),
            "--results-dir" => cli.results_dir = Some(val("--results-dir")?.into()),
            "--compare" => {
                let a = val("--compare")?;
                let b = val("--compare")?;
                cli.compare = Some((a.into(), b.into()));
            }
            "--help" | "-h" => return Err(BenchError::Usage(USAGE.into())),
            other => return Err(usage(format!("unknown argument '{other}'"))),
        }
    }
    Ok(cli)
}

/// Measured seconds per run when `--seconds` is not given: what
/// `BENCHMARK.json` states, or a token amount under `--quick`.
fn default_seconds(quick: bool) -> f64 {
    if quick {
        0.05
    } else {
        10.0
    }
}

fn run_one(name: &'static str, opts: &RunOpts) -> Result<RunOutput, BenchError> {
    use workloads::{audit::TracedAudit, ckpt::ServeCkpt, fabric::FabricDc, stdin::ServeStdin};
    match name {
        "dc-flowlet" | "minpkt-uniform" | "minpkt-hot1" => {
            harness::run::<workloads::switch::SwitchWl>(name, opts)
        }
        "fabric-dc" => harness::run::<FabricDc>(name, opts),
        "serve-ckpt" => harness::run::<ServeCkpt>(name, opts),
        "traced-audit" => harness::run::<TracedAudit>(name, opts),
        "serve-stdin" => harness::run::<ServeStdin>(name, opts),
        other => unreachable!("{other} passed parse_cli"),
    }
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the numbers were taken.
fn provenance(seed: u64) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut m = Map::new();
    m.insert(
        "nproc".into(),
        Value::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
    );
    m.insert("cpu_model".into(), Value::String(cpu));
    m.insert(
        "rustc".into(),
        Value::String(first_line_of("rustc", &["--version"])),
    );
    m.insert(
        "git_commit".into(),
        Value::String(first_line_of("git", &["rev-parse", "HEAD"])),
    );
    m.insert("seed".into(), Value::U64(seed));
    m.insert("load_threads".into(), Value::U64(1));
    Value::Object(m)
}

fn results_doc(seed: u64, runs: Vec<Value>) -> Value {
    let mut doc = Map::new();
    doc.insert("schema".into(), Value::U64(1));
    doc.insert("pr".into(), Value::U64(PR as u64));
    doc.insert("provenance".into(), provenance(seed));
    doc.insert("runs".into(), Value::Array(runs));
    Value::Object(doc)
}

fn write_json(path: &Path, doc: &Value, pretty: bool) -> Result<(), BenchError> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| BenchError::io(dir, e))?;
    }
    let text = if pretty {
        serde_json::to_string_pretty(doc)
    } else {
        serde_json::to_string(doc)
    }
    .expect("plain JSON");
    std::fs::write(path, text + "\n").map_err(|e| BenchError::io(path, e))
}

/// One run in this process: the contract's form. Prints every metric,
/// then the result line last.
fn single(cli: &Cli, name: &'static str, trace: bool) -> Result<(), BenchError> {
    let opts = RunOpts {
        params: Params {
            seed: cli.seed,
            quick: cli.quick,
        },
        seconds: cli.seconds.unwrap_or(default_seconds(cli.quick)),
        trace,
    };
    let out = run_one(name, &opts)?;
    if let Some(path) = &cli.out {
        write_json(path, &results_doc(cli.seed, vec![out.detail_json()]), true)?;
    }
    if let (true, Some(path)) = (trace, &cli.trace_out) {
        write_json(
            path,
            &span::chrome_document(out.trace_events.clone()),
            false,
        )?;
    }
    out.print_human();
    println!("{}", out.result_line());
    Ok(())
}

/// The suite: each selected workload in its own child process (so its
/// peak memory is its own), untraced first, then the traced pass.
fn suite(cli: &Cli) -> Result<(), BenchError> {
    let selected: Vec<&'static str> = if cli.workloads.is_empty() {
        NAMES.to_vec()
    } else {
        cli.workloads.clone()
    };
    let exe = std::env::current_exe().map_err(|e| BenchError::Child {
        what: "current_exe".into(),
        detail: e.to_string(),
    })?;
    let tmp = harness::scratch_dir()?;
    let mut runs = Vec::new();
    let mut events = Vec::new();
    for trace in [false, true] {
        for name in &selected {
            let out = tmp.join(format!("{name}.{}.json", trace as u8));
            let trace_out = tmp.join(format!("{name}.trace.json"));
            // A run the noise guard flags is taken again, up to
            // `NOISY_RETRIES` times; the last attempt is kept, flag and all.
            let mut attempt = 0;
            let doc = loop {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", name, "--seed", &cli.seed.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&out)
                    .arg("--trace-out")
                    .arg(&trace_out);
                if let Some(s) = cli.seconds {
                    cmd.args(["--seconds", &s.to_string()]);
                }
                if cli.quick {
                    cmd.arg("--quick");
                }
                let status = cmd.status().map_err(|e| BenchError::Child {
                    what: exe.display().to_string(),
                    detail: e.to_string(),
                })?;
                if !status.success() {
                    return Err(BenchError::Child {
                        what: format!("{name} (trace {})", trace as u8),
                        detail: format!("exited with {status}"),
                    });
                }
                let doc = compare::load(&out)?;
                let noisy = doc.get_path("runs").as_array().is_some_and(|r| {
                    r.iter()
                        .any(|run| run.get_path("noisy").as_bool() == Some(true))
                });
                if !noisy || attempt == NOISY_RETRIES {
                    break doc;
                }
                attempt += 1;
                println!(
                    "{name}: the host was noisy; taking the run again ({attempt}/{NOISY_RETRIES})"
                );
            };
            if let Some(r) = doc.get_path("runs").as_array() {
                runs.extend(r.iter().cloned());
            }
            if trace {
                if let Some(e) = compare::load(&trace_out)?
                    .get_path("traceEvents")
                    .as_array()
                {
                    events.extend(e.iter().cloned());
                }
            }
        }
    }
    let dir = cli
        .results_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("benchmark/results"));
    // A `--quick` suite is a smoke test: it writes results only where
    // it is told to.
    let out = cli
        .out
        .clone()
        .or_else(|| (!cli.quick).then(|| dir.join(format!("BENCH_{PR}.json"))));
    let trace_out = cli
        .trace_out
        .clone()
        .or_else(|| (!cli.quick).then(|| dir.join(format!("TRACE_{PR}.json"))));
    if let Some(path) = out {
        write_json(&path, &results_doc(cli.seed, runs), true)?;
        println!("results: {}", path.display());
    }
    if let Some(path) = trace_out {
        write_json(&path, &span::chrome_document(events), false)?;
        println!("trace:   {}", path.display());
    }
    Ok(())
}

fn dispatch(cli: &Cli) -> Result<(), BenchError> {
    if let Some((a, b)) = &cli.compare {
        let rows = compare::compare(a, b)?;
        let (worse, _) = compare::print(&rows, a, b);
        return if worse == 0 {
            Ok(())
        } else {
            Err(BenchError::Gate {
                workload: "compare",
                gate: "no-row-worse",
                detail: format!("{worse} row(s) worse than the bound allows"),
            })
        };
    }
    match (cli.trace, cli.workloads.as_slice()) {
        (Some(trace), [name]) => single(cli, name, trace),
        (Some(_), _) => Err(BenchError::Usage(format!(
            "--trace runs one workload: give exactly one --workload\n{USAGE}"
        ))),
        (None, _) => suite(cli),
    }
}

fn main() {
    let result = parse_cli(std::env::args().skip(1)).and_then(|cli| dispatch(&cli));
    harness::remove_scratch_dir();
    if let Err(e) = result {
        eprintln!("mp5-benchmark: {e}");
        std::process::exit(e.exit_code());
    }
}

#[cfg(test)]
mod tests;
