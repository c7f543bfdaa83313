//! Package-level tests: a `--quick` smoke of all seven workloads in both
//! passes, the command line, and `--compare` over result files. The
//! gates' negative tests live with the workloads they guard.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Once;

use super::*;
use metrics::{END_TO_END, PER_LAYER};

/// `serve-stdin` needs the `mp5serve` binary. `run.sh` builds it; under
/// a bare `cargo test` build it once, into this test's own target
/// directory.
pub(crate) fn ensure_mp5serve() {
    static BUILD: Once = Once::new();
    BUILD.call_once(|| {
        if harness::mp5serve_path().is_ok() {
            return;
        }
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../Cargo.toml");
        let status = Command::new("cargo")
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                root,
            ])
            .args(["-p", "mp5-serve", "--bin", "mp5serve"])
            .env("CARGO_TARGET_DIR", harness::target_dir().unwrap())
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building mp5serve failed");
    });
}

fn quick(trace: bool) -> RunOpts {
    RunOpts {
        params: Params {
            seed: 7,
            quick: true,
        },
        seconds: 0.05,
        trace,
    }
}

fn smoke(name: &'static str) {
    ensure_mp5serve();
    let plain = run_one(name, &quick(false)).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(plain.attempted > 0, "{name}");
    assert_eq!(plain.failed, 0, "{name}: no operation may fail");
    for d in END_TO_END {
        let v = plain
            .metrics
            .get(d.name)
            .unwrap_or_else(|| panic!("{name}: {} absent", d.name));
        assert!(v > 0.0 && v.is_finite(), "{name}: {} = {v}", d.name);
    }
    // The result line carries exactly the contract's keys.
    let line: Value = serde_json::from_str(&plain.result_line()).unwrap();
    let keys: Vec<&String> = line.as_object().unwrap().keys().collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line["metrics"].as_object().unwrap().len(), END_TO_END.len());

    let traced = run_one(name, &quick(true)).unwrap_or_else(|e| panic!("{name} traced: {e}"));
    let line: Value = serde_json::from_str(&traced.result_line()).unwrap();
    assert_eq!(line["metrics"].as_object().unwrap().len(), PER_LAYER.len());
    for d in PER_LAYER {
        let v = traced
            .metrics
            .get(d.name)
            .unwrap_or_else(|| panic!("{name}: {} absent", d.name));
        assert!(v >= 0.0 && v.is_finite(), "{name}: {} = {v}", d.name);
    }
    // Spans were recorded from the benchmark's own code, with parents.
    assert!(traced.trace_events.len() > 3, "{name}");
    assert!(traced
        .trace_events
        .iter()
        .any(|e| e["args"]["parent"].as_u64().is_some()));
    assert!(traced.metrics.get("bench.trace_overhead_ratio").unwrap() > 0.0);
}

#[test]
fn smoke_dc_flowlet() {
    smoke("dc-flowlet");
}

#[test]
fn smoke_minpkt_uniform() {
    smoke("minpkt-uniform");
}

#[test]
fn smoke_minpkt_hot1() {
    smoke("minpkt-hot1");
}

#[test]
fn smoke_fabric_dc() {
    smoke("fabric-dc");
}

#[test]
fn smoke_serve_ckpt() {
    smoke("serve-ckpt");
}

#[test]
fn smoke_traced_audit() {
    smoke("traced-audit");
}

#[test]
fn smoke_serve_stdin() {
    smoke("serve-stdin");
}

#[test]
fn switch_workloads_report_shares_that_sum_to_one() {
    let out = run_one("minpkt-uniform", &quick(true)).unwrap();
    let sum: f64 = PER_LAYER
        .iter()
        .filter(|d| d.name.starts_with("est."))
        .map(|d| out.metrics.get(d.name).unwrap())
        .sum();
    assert!((sum - 1.0).abs() < 1e-9, "est.* shares sum to {sum}");
}

#[test]
fn different_seeds_give_different_inputs() {
    let mut a = quick(false);
    let mut b = quick(false);
    a.params.seed = 1;
    b.params.seed = 2;
    let ca = run_one("minpkt-uniform", &a)
        .unwrap()
        .metrics
        .get("sim_norm_throughput");
    let cb = run_one("minpkt-uniform", &b)
        .unwrap()
        .metrics
        .get("sim_norm_throughput");
    assert_ne!(ca, cb);
}

fn cli(args: &[&str]) -> Result<Cli, BenchError> {
    parse_cli(args.iter().map(|s| s.to_string()))
}

#[test]
fn command_line_errors_are_typed_not_panics() {
    for bad in [
        &["--workload", "nope"][..],
        &["--seed", "x"],
        &["--seconds", "-1"],
        &["--seconds", "nan"],
        &["--trace", "2"],
        &["--workload"],
        &["--frobnicate"],
        &["--compare", "only-one.json"],
    ] {
        let err = cli(bad).expect_err("must be rejected");
        assert!(matches!(err, BenchError::Usage(_)), "{bad:?}: {err}");
        assert_eq!(err.exit_code(), 2);
    }
    let ok = cli(&[
        "--workload",
        "fabric-dc",
        "--seed",
        "9",
        "--seconds",
        "3",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!(ok.workloads, ["fabric-dc"]);
    assert_eq!((ok.seed, ok.seconds, ok.trace), (9, Some(3.0), Some(true)));
    // `--trace` is the one-run form and needs exactly one workload.
    let two = cli(&["--trace", "0"]).unwrap();
    assert!(matches!(dispatch(&two), Err(BenchError::Usage(_))));
}

fn scratch(name: &str) -> PathBuf {
    let dir = harness::target_dir()
        .unwrap()
        .join(format!("mp5-benchmark-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn compare_reads_result_files_and_flags_the_worse_row() {
    let base = run_one("minpkt-hot1", &quick(false)).unwrap();
    let a = scratch("a.json");
    let b = scratch("b.json");
    write_json(&a, &results_doc(7, vec![base.detail_json()]), true).unwrap();

    // The same file against itself: every row ok (or unresolved where
    // two quick reps spread wider than the bound), none worse.
    let rows = compare::compare(&a, &a).unwrap();
    assert_eq!(rows.len(), END_TO_END.len());
    assert!(rows.iter().all(|r| r.verdict != compare::Verdict::Worse));

    // Halve the throughput and move one exact metric by one.
    let text = std::fs::read_to_string(&a).unwrap();
    let mut doc: Value = serde_json::from_str(&text).unwrap();
    let mut worse = base.metrics.clone();
    let mut pps = worse.0["pkts_per_s"].clone();
    for v in [
        &mut pps.min,
        &mut pps.q1,
        &mut pps.median,
        &mut pps.q3,
        &mut pps.max,
    ] {
        *v /= 2.0;
    }
    worse.set_summary("pkts_per_s", pps);
    worse.set(
        "sim_norm_throughput",
        base.metrics.get("sim_norm_throughput").unwrap() - 0.001,
    );
    let mut out = base;
    out.metrics = worse;
    if let Value::Object(m) = &mut doc {
        m.insert("runs".into(), Value::Array(vec![out.detail_json()]));
    }
    write_json(&b, &doc, true).unwrap();
    let rows = compare::compare(&a, &b).unwrap();
    let verdict = |name: &str| rows.iter().find(|r| r.metric == name).unwrap().verdict;
    assert_eq!(verdict("pkts_per_s"), compare::Verdict::Worse);
    assert_eq!(verdict("sim_norm_throughput"), compare::Verdict::Worse);
    assert_eq!(verdict("sim_delivered_frac"), compare::Verdict::Ok);

    // A file that lacks what A has is a typed error, not a panic.
    let empty = scratch("empty.json");
    std::fs::write(&empty, "{\"runs\": []}").unwrap();
    assert!(matches!(
        compare::compare(&a, &empty),
        Err(BenchError::Format { .. })
    ));
    std::fs::write(&empty, "not json").unwrap();
    assert!(matches!(
        compare::compare(&a, &empty),
        Err(BenchError::Format { .. })
    ));
}
