//! The benchmark's one error type. Every failure — bad flag, missing
//! binary, failed correctness gate, unreadable result file — reaches
//! `main` as a `BenchError`, is printed as one typed line, and turns
//! into a non-zero exit without a result line.

use std::fmt;

#[derive(Debug)]
pub enum BenchError {
    /// Bad command line.
    Usage(String),
    /// A layer refused the benchmark's own input during set-up or a
    /// rep (compile error, invalid topology, snapshot codec error …).
    Layer {
        workload: &'static str,
        call: &'static str,
        detail: String,
    },
    /// A correctness gate fired: the program's output is wrong.
    Gate {
        workload: &'static str,
        gate: &'static str,
        detail: String,
    },
    /// Filesystem operation failed.
    Io { path: String, err: std::io::Error },
    /// A child process (cargo, mp5serve, a per-workload run) failed.
    Child { what: String, detail: String },
    /// A result file is not what `--compare` expects.
    Format { path: String, detail: String },
}

impl BenchError {
    pub fn io(path: &std::path::Path, err: std::io::Error) -> Self {
        BenchError::Io {
            path: path.display().to_string(),
            err,
        }
    }

    /// Exit code: 2 for usage, 1 for everything else.
    pub fn exit_code(&self) -> i32 {
        match self {
            BenchError::Usage(_) => 2,
            _ => 1,
        }
    }
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Usage(m) => write!(f, "usage error: {m}"),
            BenchError::Layer {
                workload,
                call,
                detail,
            } => write!(f, "layer error [{workload}] {call}: {detail}"),
            BenchError::Gate {
                workload,
                gate,
                detail,
            } => write!(f, "correctness gate failed [{workload}] {gate}: {detail}"),
            BenchError::Io { path, err } => write!(f, "io error: {path}: {err}"),
            BenchError::Child { what, detail } => write!(f, "child failed: {what}: {detail}"),
            BenchError::Format { path, detail } => write!(f, "bad result file {path}: {detail}"),
        }
    }
}

impl std::error::Error for BenchError {}
