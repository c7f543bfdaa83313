//! `mp5audit` — offline invariant auditor for recorded MP5 traces.
//!
//! Reads a JSONL event stream (from `mp5run --trace <path>` or any
//! [`mp5_trace::JsonlSink`]), replays it through the independent
//! checker, and reports on the paper's correctness claims:
//! Invariant 1 (phantom precedes data), Invariant 2 (pass-through
//! priority), condition C1 (serial access order), packet conservation
//! and phantom/data pairing.
//!
//! ```text
//! usage: mp5audit [options] <trace.jsonl | ->
//!
//!   -                     read the trace from stdin
//!   --json                emit the report as JSON instead of text
//!   --quiet               print nothing; exit code only
//!   --max-findings <n>    findings retained per check (default 20)
//!   --rollup <out.csv>    also write per-stage/per-register rollups
//!   --chrome <out.json>   also write a Chrome-trace/Perfetto export
//! ```
//!
//! Exit status: 0 when every check passes, 1 when any violation is
//! found, 2 on usage or I/O errors.

use std::io::BufReader;
use std::process::ExitCode;

use mp5_trace::rollup::Rollup;
use mp5_trace::{chrome, read_jsonl, Auditor, Event};

struct Args {
    input: String,
    json: bool,
    quiet: bool,
    max_findings: usize,
    rollup: Option<String>,
    chrome: Option<String>,
}

const USAGE: &str = "usage: mp5audit [--json] [--quiet] [--max-findings <n>] \
                     [--rollup <out.csv>] [--chrome <out.json>] <trace.jsonl | ->";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        input: String::new(),
        json: false,
        quiet: false,
        max_findings: 20,
        rollup: None,
        chrome: None,
    };
    let mut it = std::env::args().skip(1);
    let mut input: Option<String> = None;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--quiet" => args.quiet = true,
            "--max-findings" => {
                let v = it.next().ok_or("--max-findings needs a value")?;
                args.max_findings = v
                    .parse()
                    .map_err(|_| format!("bad --max-findings value '{v}'"))?;
            }
            "--rollup" => args.rollup = Some(it.next().ok_or("--rollup needs a path")?),
            "--chrome" => args.chrome = Some(it.next().ok_or("--chrome needs a path")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if input.is_none() => input = Some(other.to_string()),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    args.input = input.ok_or(USAGE)?;
    Ok(args)
}

fn load(input: &str) -> Result<Vec<Event>, String> {
    if input == "-" {
        read_jsonl(std::io::stdin().lock()).map_err(|e| format!("stdin: {e}"))
    } else {
        let f = std::fs::File::open(input).map_err(|e| format!("{input}: {e}"))?;
        read_jsonl(BufReader::new(f)).map_err(|e| format!("{input}: {e}"))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let events = match load(&args.input) {
        Ok(evs) => evs,
        Err(msg) => {
            eprintln!("mp5audit: {msg}");
            return ExitCode::from(2);
        }
    };
    let report = Auditor::new(args.max_findings).run(&events);
    if let Some(path) = &args.rollup {
        if let Err(e) = std::fs::write(path, Rollup::from_events(&events).to_csv()) {
            eprintln!("mp5audit: writing {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &args.chrome {
        if let Err(e) = std::fs::write(path, chrome::export(&events)) {
            eprintln!("mp5audit: writing {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if !args.quiet {
        if args.json {
            println!("{}", report.to_json());
        } else {
            print!("{report}");
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
