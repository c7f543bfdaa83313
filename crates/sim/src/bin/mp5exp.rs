//! `mp5exp` — print the paper's tables and figures, each a slice of the
//! `mp5_sim::experiments` grid.
//!
//! ```sh
//! cargo run --release -p mp5-sim --bin mp5exp -- fig7a micro_d4
//! cargo run --release -p mp5-sim --bin mp5exp -- all
//! ```
//!
//! Scale comes from the environment, read once here:
//!
//! * `MP5_EXP_PACKETS` — packets per run (default 20 000),
//! * `MP5_EXP_SEEDS` — input streams per data point (default 5; the
//!   paper uses 10). D2–D4 run at least five.
//!
//! Both must be positive integers. If `MP5_EXP_JSON` names a directory,
//! each slice's rows are archived there as `<slice>.json`.
//!
//! Exit status: 0 when every slice ran and held its claims, 1 when a
//! claim failed or an archive could not be written (stderr names the
//! slice), 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use mp5_sim::experiments::{slices, Scale};

/// Reads a scale variable: unset means `default`, anything but a
/// positive integer is a usage error naming the variable.
fn scale_var(name: &str, default: usize) -> Result<usize, String> {
    let Some(raw) = std::env::var_os(name) else {
        return Ok(default);
    };
    let value = raw.to_str().and_then(|s| s.parse().ok()).filter(|&n| n > 0);
    value.ok_or_else(|| format!("{name} must be a positive integer, got {raw:?}"))
}

fn main() -> ExitCode {
    let all = slices();
    let names: Vec<&str> = all.iter().map(|s| s.name).collect();
    let usage = |msg: String| {
        eprintln!("mp5exp: {msg}");
        eprintln!("usage: mp5exp <slice>...|all");
        eprintln!("slices: {}", names.join(" "));
        ExitCode::from(2)
    };
    let scale = match (
        scale_var("MP5_EXP_PACKETS", 20_000),
        scale_var("MP5_EXP_SEEDS", 5),
    ) {
        (Ok(packets), Ok(seeds)) => Scale { packets, seeds },
        (Err(e), _) | (_, Err(e)) => return usage(e),
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        return usage("name at least one slice, or all".into());
    }
    if let Some(bad) = args
        .iter()
        .find(|a| *a != "all" && !names.contains(&a.as_str()))
    {
        return usage(format!("unknown slice '{bad}'"));
    }
    let archive = std::env::var_os("MP5_EXP_JSON").map(PathBuf::from);
    let chosen = args
        .iter()
        .flat_map(|a| all.iter().filter(move |s| a == "all" || a == s.name));

    let mut failed = false;
    for slice in chosen {
        print!("{}", slice.banner(scale));
        let table = slice.run(scale);
        let mut archived = None;
        if let Some(dir) = archive.as_ref().filter(|_| slice.archives()) {
            let path = dir.join(format!("{}.json", slice.name));
            match std::fs::write(&path, table.json()) {
                Ok(()) => archived = Some(path),
                Err(e) => {
                    eprintln!(
                        "mp5exp: {}: cannot write {}: {e}",
                        slice.name,
                        path.display()
                    );
                    failed = true;
                }
            }
        }
        print!("{}", slice.body(&table, archived.as_deref()));
        if let Err(claim) = slice.verify(&table) {
            eprintln!("mp5exp: {}: {claim}", slice.name);
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
