//! Shared helpers for the benchmark harness.
//!
//! Every table and figure in the paper's evaluation (§4) has a
//! `cargo bench --bench <name>` target in `benches/`:
//!
//! | target | reproduces |
//! |---|---|
//! | `table1` | Table 1 (chip area & clock) + §4.2 SRAM overhead |
//! | `micro_d2` | §4.3.2 dynamic vs static sharding |
//! | `micro_d3` | §4.3.2 steering vs recirculation throughput |
//! | `micro_d4` | §4.3.2 C1 violation fractions |
//! | `fig7a`–`fig7d` | Figure 7 sensitivity panels |
//! | `fig8` | Figure 8 real applications |
//! | `ablation_*`, `ext_chiplet` | ablations and the chiplet extension (EXPERIMENTS.md) |
//!
//! Scale knobs: `MP5_EXP_PACKETS` (default 20 000) and `MP5_EXP_SEEDS`
//! (default 5; paper used 10 streams). `run_experiments.sh` runs all
//! thirteen; simulator speed is measured by `benchmark/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Prints the standard experiment banner with the active scale knobs.
pub fn banner(what: &str, paper_ref: &str) {
    println!("== {what} ==");
    println!("reproduces: {paper_ref}");
    println!(
        "scale: {} packets/run, {} streams/point (env MP5_EXP_PACKETS / MP5_EXP_SEEDS)\n",
        mp5_sim::experiments::packets_per_run(),
        mp5_sim::experiments::seeds_per_point()
    );
}

/// If `MP5_EXP_JSON` names a directory, archive the experiment's rows
/// there as `<name>.json` (pretty-printed) for post-processing.
pub fn maybe_dump_json<T: serde::Serialize>(name: &str, rows: &[T]) {
    if let Ok(dir) = std::env::var("MP5_EXP_JSON") {
        let path = std::path::Path::new(&dir).join(format!("{name}.json"));
        let json = match mp5_sim::table::to_json(rows) {
            Ok(json) => json,
            Err(e) => {
                eprintln!("warning: could not serialize {name} rows: {e}");
                return;
            }
        };
        match std::fs::write(&path, json) {
            Ok(()) => println!("(rows archived to {})", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}

/// Min/max over a slice.
pub fn min_max(vals: impl IntoIterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in vals {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    #[test]
    fn min_max_works() {
        assert_eq!(super::min_max([2.0, 1.0, 3.0]), (1.0, 3.0));
    }
}
