//! `mp5lint` — lint MP5 (Domino-like) programs.
//!
//! Runs the full frontend plus the `mp5-analysis` static analyzer over
//! one or more `.mp5` sources (files or directories) and reports every
//! finding with rustc-style rendering or as JSON.
//!
//! ```text
//! mp5lint [OPTIONS] <PATH>...
//!
//! OPTIONS:
//!   --format=text|json    output format (default: text)
//!   --max-stages=N        override Target::max_stages
//!   --no-pairs            target without pairs-class atoms
//!   --deny-warnings       exit non-zero on warnings too
//!   -q, --quiet           suppress per-file OK lines
//! ```
//!
//! ## Expected-diagnostic annotations
//!
//! A source line may carry `//~ MP5xxx` to declare that a diagnostic
//! with that code is *expected* on that line (or carries no span).
//! Expected diagnostics do not fail the lint; an annotation that never
//! fires is itself an error. This is how the deliberately-warning apps
//! in the corpus and the `fixtures/broken` golden files stay checkable.
//!
//! Exit codes: `0` clean (all findings expected), `1` findings, `2`
//! usage or I/O error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mp5_analysis::analyze_source;
use mp5_analysis::json::{write_diagnostics, write_report};
use mp5_compiler::Target;
use mp5_lang::diag::render_all;
use mp5_lang::{Code, Diagnostic, Severity};
use serde::json::Writer;

struct Options {
    json: bool,
    quiet: bool,
    deny_warnings: bool,
    target: Target,
    paths: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: mp5lint [--format=text|json] [--max-stages=N] [--no-pairs] \
     [--deny-warnings] [-q|--quiet] <path>..."
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        quiet: false,
        deny_warnings: false,
        target: Target::default(),
        paths: Vec::new(),
    };
    for a in args {
        if let Some(fmt) = a.strip_prefix("--format=") {
            match fmt {
                "json" => opts.json = true,
                "text" => opts.json = false,
                other => return Err(format!("unknown format '{other}'")),
            }
        } else if let Some(n) = a.strip_prefix("--max-stages=") {
            opts.target.max_stages = n
                .parse()
                .map_err(|_| format!("invalid --max-stages value '{n}'"))?;
        } else if a == "--no-pairs" {
            opts.target.allow_pairs = false;
        } else if a == "--deny-warnings" {
            opts.deny_warnings = true;
        } else if a == "-q" || a == "--quiet" {
            opts.quiet = true;
        } else if a.starts_with('-') {
            return Err(format!("unknown option '{a}'"));
        } else {
            opts.paths.push(PathBuf::from(a));
        }
    }
    if opts.paths.is_empty() {
        return Err("no input paths".into());
    }
    Ok(opts)
}

/// Collects `.mp5` files from the given paths (directories are walked
/// one level deep plus nested directories, sorted for determinism).
fn collect_files(paths: &[PathBuf]) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    for p in paths {
        collect_into(p, &mut files)?;
    }
    files.sort();
    files.dedup();
    if files.is_empty() {
        return Err("no .mp5 files found".into());
    }
    Ok(files)
}

fn collect_into(path: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let meta = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?;
    if meta.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", path.display()))?;
            let p = entry.path();
            if p.is_dir() {
                collect_into(&p, out)?;
            } else if p.extension().is_some_and(|e| e == "mp5") {
                out.push(p);
            }
        }
    } else {
        out.push(path.to_path_buf());
    }
    Ok(())
}

/// An `//~ MP5xxx` expectation parsed from the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expectation {
    line: u32,
    code: Code,
}

fn parse_expectations(source: &str) -> Vec<Expectation> {
    let mut out = Vec::new();
    for (i, line) in source.lines().enumerate() {
        let mut rest = line;
        while let Some(pos) = rest.find("//~") {
            let tail = &rest[pos + 3..];
            let token = tail.split_whitespace().next().unwrap_or("");
            if let Some(code) = Code::parse(token) {
                out.push(Expectation {
                    line: (i + 1) as u32,
                    code,
                });
            }
            rest = tail;
        }
    }
    out
}

/// Splits diagnostics into (unexpected, unmatched-annotation errors),
/// consuming expectations that match a produced diagnostic. A
/// diagnostic matches an annotation when the codes agree and the
/// diagnostic either has no span (line 0) or sits on the annotated
/// line.
fn apply_expectations(
    diags: Vec<Diagnostic>,
    mut expected: Vec<Expectation>,
) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    let mut unexpected = Vec::new();
    for d in diags {
        let matched = expected
            .iter()
            .position(|e| e.code == d.code && (d.span.line == 0 || d.span.line == e.line));
        match matched {
            Some(i) => {
                expected.remove(i);
            }
            None => unexpected.push(d),
        }
    }
    let unmatched = expected
        .into_iter()
        .map(|e| {
            Diagnostic::error(
                Code::INTERNAL,
                mp5_lang::Span {
                    line: e.line,
                    col: 1,
                },
                format!("expected diagnostic {} did not fire", e.code),
            )
        })
        .collect();
    (unexpected, unmatched)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mp5lint: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let files = match collect_files(&opts.paths) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("mp5lint: {e}");
            return ExitCode::from(2);
        }
    };

    let mut any_findings = false;
    let mut json = Vec::new();
    let mut w = Writer::compact(&mut json);
    w.begin_array();
    for file in &files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("mp5lint: {}: {e}", file.display());
                return ExitCode::from(2);
            }
        };
        let analysis = analyze_source(&source, &opts.target);
        let expected = parse_expectations(&source);
        let (unexpected, unmatched) = apply_expectations(analysis.diagnostics.clone(), expected);
        let mut shown: Vec<Diagnostic> = unexpected;
        shown.extend(unmatched);
        let threshold = if opts.deny_warnings {
            Severity::Warning
        } else {
            Severity::Error
        };
        let failing = shown.iter().any(|d| d.severity >= threshold);
        any_findings |= failing;

        let name = file.display().to_string();
        if opts.json {
            w.element();
            w.begin_object();
            w.field("file", &name);
            w.field("clean", &!failing);
            w.key("diagnostics");
            write_diagnostics(&mut w, &shown);
            w.key("report");
            match &analysis.report {
                Some(r) => write_report(&mut w, r),
                None => w.null(),
            }
            w.end_object();
        } else if !shown.is_empty() {
            print!("{}", render_all(&shown, &source, &name));
        } else if !opts.quiet {
            let summary = match &analysis.report {
                Some(r) => format!(
                    "{} register(s), {} shardable, {} stage(s)",
                    r.regs.len(),
                    r.shardable_count(),
                    r.pressure
                        .as_ref()
                        .map(|p| p.total_stages)
                        .unwrap_or_default(),
                ),
                None => "no report".to_string(),
            };
            println!("{name}: OK ({summary})");
        }
    }

    if opts.json {
        w.end_array();
        println!(
            "{}",
            String::from_utf8(json).expect("the writer emits UTF-8")
        );
    }
    if any_findings {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
