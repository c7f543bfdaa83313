//! `--compare A.json B.json`: one row per (workload, pass, metric) with
//! both medians, the ratio B/A (base: A), the bound and a verdict.
//!
//! * `ok` — within the bound, and both runs' samples support their
//!   value to within the bound (`MetricDef::spread`), so "no
//!   regression" is a finding.
//! * `worse` — B is worse than A by more than the bound; for an exact
//!   metric (simulated result, count), any difference at all.
//! * `unresolved` — within the bound, but the spread is wider than the
//!   bound: the runs cannot tell. Not the same as unchanged. Also any
//!   bounded host-time row of a run the noise guard flagged `noisy`,
//!   on either side: take that run again.
//! * `-` — a per-layer host timing without a bound: the ratio is the
//!   information.

use std::path::Path;

use serde_json::Value;

use crate::error::BenchError;
use crate::metrics::{lookup, Better, MetricDef};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
    Unbounded,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Unbounded => "-",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// it is better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == a { 0.0 } else { f64::INFINITY };
    }
    match def.better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

/// `noisy`: the noise guard flagged either run. Simulated results and
/// memory are what they are on any host; host times from a noisy run
/// decide nothing.
pub fn verdict(def: &MetricDef, a: &Summary, b: &Summary, noisy: bool) -> Verdict {
    if def.exact() {
        return if a.median == b.median {
            Verdict::Ok
        } else {
            Verdict::Worse
        };
    }
    let Some(bound) = def.bound else {
        return Verdict::Unbounded;
    };
    if noisy && def.host_time() {
        Verdict::Unresolved
    } else if worsening(def, def.value(a), def.value(b)) > bound {
        Verdict::Worse
    } else if def.spread(a).max(def.spread(b)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

pub struct Row {
    pub workload: String,
    pub traced: bool,
    pub metric: String,
    pub a: Summary,
    pub b: Summary,
    pub def: &'static MetricDef,
    /// The noise guard flagged run A or run B.
    pub noisy: bool,
    pub verdict: Verdict,
}

/// Reads and parses a JSON file.
pub fn load(path: &Path) -> Result<Value, BenchError> {
    let text = std::fs::read_to_string(path).map_err(|e| BenchError::io(path, e))?;
    serde_json::from_str(&text).map_err(|e| BenchError::Format {
        path: path.display().to_string(),
        detail: e.to_string(),
    })
}

fn runs<'a>(doc: &'a Value, path: &Path) -> Result<&'a Vec<Value>, BenchError> {
    doc.get_path("runs")
        .as_array()
        .ok_or_else(|| BenchError::Format {
            path: path.display().to_string(),
            detail: "no `runs` array".into(),
        })
}

/// Compares two result files. Every (workload, pass, metric) of A must
/// be in B.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<Vec<Row>, BenchError> {
    let (a_doc, b_doc) = (load(a_path)?, load(b_path)?);
    let (a_runs, b_runs) = (runs(&a_doc, a_path)?, runs(&b_doc, b_path)?);
    let missing = |what: String| BenchError::Format {
        path: b_path.display().to_string(),
        detail: format!("{what} is in {} but not here", a_path.display()),
    };
    let mut rows = Vec::new();
    for ra in a_runs {
        let workload = ra.get_path("workload").as_str().unwrap_or("?");
        let traced = ra.get_path("trace").as_bool().unwrap_or(false);
        let rb = b_runs
            .iter()
            .find(|r| {
                r.get_path("workload").as_str() == Some(workload)
                    && r.get_path("trace").as_bool() == Some(traced)
            })
            .ok_or_else(|| missing(format!("run {workload} (trace {traced})")))?;
        let noisy = [ra, rb]
            .iter()
            .any(|r| r.get_path("noisy").as_bool() == Some(true));
        let Some(ma) = ra.get_path("metrics").as_object() else {
            continue;
        };
        for (name, va) in ma.iter() {
            let Some(def) = lookup(name) else { continue };
            let vb = rb.get_path("metrics").get_path(name);
            let (Some(sa), Some(sb)) = (Summary::from_json(va), Summary::from_json(vb)) else {
                return Err(missing(format!("metric {workload}/{name}")));
            };
            rows.push(Row {
                workload: workload.to_string(),
                traced,
                metric: name.clone(),
                noisy,
                verdict: verdict(def, &sa, &sb, noisy),
                a: sa,
                b: sb,
                def,
            });
        }
    }
    Ok(rows)
}

/// Prints the table; returns the number of `worse` and `unresolved`
/// rows.
pub fn print(rows: &[Row], a_path: &Path, b_path: &Path) -> (usize, usize) {
    println!("A = {}\nB = {}", a_path.display(), b_path.display());
    println!(
        "{:<15} {:<8} {:<34} {:>15} {:>15} {:>10} {:>7}  verdict",
        "workload", "pass", "metric", "A", "B", "B/A", "bound"
    );
    let (mut worse, mut unresolved) = (0, 0);
    for r in rows {
        let (va, vb) = (r.def.value(&r.a), r.def.value(&r.b));
        let ratio = if va == 0.0 {
            if vb == 0.0 {
                "1.000".to_string()
            } else {
                "inf".to_string()
            }
        } else {
            format!("{:.3}", vb / va)
        };
        let bound = match (r.def.exact(), r.def.bound) {
            (true, _) => "exact".to_string(),
            (false, Some(b)) => format!("{:.0}%", b * 100.0),
            (false, None) => "-".to_string(),
        };
        let mut note = String::new();
        if r.verdict == Verdict::Unresolved && r.noisy {
            note = "  (noisy run)".to_string();
        } else if r.verdict == Verdict::Unresolved {
            note = format!(
                "  (spread A {:.1}% B {:.1}%)",
                r.def.spread(&r.a) * 100.0,
                r.def.spread(&r.b) * 100.0
            );
        }
        println!(
            "{:<15} {:<8} {:<34} {:>15.4} {:>15.4} {:>10} {:>7}  {}{note}",
            r.workload,
            if r.traced { "traced" } else { "untraced" },
            r.metric,
            va,
            vb,
            format!("{ratio}×A"),
            bound,
            r.verdict.as_str()
        );
        match r.verdict {
            Verdict::Worse => worse += 1,
            Verdict::Unresolved => unresolved += 1,
            _ => {}
        }
    }
    println!(
        "{} rows: {worse} worse, {unresolved} unresolved",
        rows.len()
    );
    (worse, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sample whose best-rep and median values are both `value` and
    /// whose spread by either measure is `spread`.
    fn s(value: f64, spread: f64) -> Summary {
        Summary {
            n: 4,
            min: value,
            lo3: value,
            p10: value,
            q1: value * (1.0 - spread / 2.0),
            median: value,
            q3: value * (1.0 + spread / 2.0),
            p90: value,
            hi3: value,
            max: value,
        }
    }

    /// The same for a best-of metric: its spread is the gap between the
    /// best sample and the third best.
    fn best(value: f64, spread: f64, better: Better) -> Summary {
        let mut sum = s(value, 0.0);
        match better {
            Better::Higher => sum.hi3 = value * (1.0 - spread),
            Better::Lower => sum.lo3 = value * (1.0 + spread),
        }
        sum
    }

    #[test]
    fn verdicts_cover_ok_worse_unresolved_and_exact() {
        let pps = lookup("pkts_per_s").unwrap(); // higher is better, 25 %
        let p = |v, sp| best(v, sp, Better::Higher);
        let v = |a: &Summary, b: &Summary| verdict(pps, a, b, false);
        assert_eq!(v(&p(100.0, 0.02), &p(97.0, 0.02)), Verdict::Ok);
        assert_eq!(v(&p(100.0, 0.02), &p(150.0, 0.02)), Verdict::Ok);
        assert_eq!(v(&p(100.0, 0.02), &p(70.0, 0.02)), Verdict::Worse);
        // Within the bound but the reps spread wider than it: unresolved.
        assert_eq!(v(&p(100.0, 0.30), &p(97.0, 0.02)), Verdict::Unresolved);
        // A clear regression stays `worse` however wide the reps …
        assert_eq!(v(&p(100.0, 0.30), &p(50.0, 0.30)), Verdict::Worse);
        // … but a run the noise guard flagged decides nothing.
        assert_eq!(
            verdict(pps, &p(100.0, 0.02), &p(50.0, 0.02), true),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(pps, &p(100.0, 0.02), &p(100.0, 0.02), true),
            Verdict::Unresolved
        );

        let setup = lookup("setup_s").unwrap(); // lower is better
        let q = |v, sp| best(v, sp, Better::Lower);
        assert_eq!(
            verdict(setup, &q(1.0, 0.01), &q(1.5, 0.01), false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(setup, &q(1.0, 0.01), &q(0.5, 0.01), false),
            Verdict::Ok
        );

        // Simulated: exact, and exact on a noisy host too.
        let cycles = lookup("core.sim_latency_p99_cycles").unwrap();
        for noisy in [false, true] {
            assert_eq!(
                verdict(cycles, &s(1000.0, 0.0), &s(1000.0, 0.0), noisy),
                Verdict::Ok
            );
            assert_eq!(
                verdict(cycles, &s(1000.0, 0.0), &s(999.0, 0.0), noisy),
                Verdict::Worse
            );
        }

        // The two per-layer metrics the issue bounds at 10 %.
        let ckpt = lookup("serve.ckpt_p50_us").unwrap();
        assert_eq!(
            verdict(ckpt, &q(600.0, 0.02), &q(650.0, 0.02), false),
            Verdict::Ok
        );
        assert_eq!(
            verdict(ckpt, &q(600.0, 0.02), &q(700.0, 0.02), false),
            Verdict::Worse
        );
        assert_eq!(
            verdict(ckpt, &q(600.0, 0.20), &q(610.0, 0.02), false),
            Verdict::Unresolved
        );

        // Memory is not a time: a noisy host does not unsettle it.
        let rss = lookup("peak_rss_mb").unwrap();
        assert_eq!(
            verdict(rss, &s(100.0, 0.0), &s(101.0, 0.0), true),
            Verdict::Ok
        );

        let layer = lookup("core.tick_p50_ns").unwrap(); // no bound
        assert_eq!(
            verdict(layer, &s(100.0, 0.0), &s(300.0, 0.0), false),
            Verdict::Unbounded
        );
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let pps = lookup("pkts_per_s").unwrap();
        let rss = lookup("peak_rss_mb").unwrap();
        assert!((worsening(pps, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(rss, 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert_eq!(worsening(rss, 0.0, 0.0), 0.0);
    }
}
