//! `mp5run`, `mp5chaos` and `mp5exp` at the process boundary: a flag or
//! scale value no switch can run with is a usage error (exit 2) that
//! names the flag, never a panic or a silently wrong run.

use std::process::Command;

fn program() -> String {
    format!(
        "{}/../apps/programs/flowlet.mp5",
        env!("CARGO_MANIFEST_DIR")
    )
}

fn assert_usage_error(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("the binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
}

#[test]
fn zero_pipelines_is_a_usage_error() {
    let prog = program();
    for design in ["mp5", "recirc"] {
        assert_usage_error(
            env!("CARGO_BIN_EXE_mp5run"),
            &[&prog, "--pipelines", "0", "--design", design],
            "--pipelines",
        );
    }
}

#[test]
fn mp5chaos_takes_a_positive_case_count_and_its_three_flags_only() {
    let chaos = env!("CARGO_BIN_EXE_mp5chaos");
    assert_usage_error(chaos, &["--cases", "0"], "--cases");
    assert_usage_error(chaos, &["--cases", "x"], "--cases");
    assert_usage_error(chaos, &["--start-case", "-1"], "--start-case");
    assert_usage_error(chaos, &["--pipelines", "4"], "--pipelines");
}

#[test]
fn an_empty_key_space_is_a_usage_error() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_mp5run"),
        &[&program(), "--keys", "0"],
        "--keys",
    );
}

fn assert_mp5exp_usage_error(args: &[&str], env: (&str, &str), names: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_mp5exp"))
        .args(args)
        .env_remove("MP5_EXP_JSON")
        .env(env.0, env.1)
        .output()
        .expect("the binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?} {env:?}: {stderr}");
    assert!(
        stderr.contains(names),
        "{args:?} {env:?} must name {names}: {stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing runs: {args:?} {env:?}");
}

#[test]
fn experiment_scale_must_be_a_positive_integer() {
    for var in ["MP5_EXP_PACKETS", "MP5_EXP_SEEDS"] {
        for bad in ["0", "abc", "2e4", ""] {
            assert_mp5exp_usage_error(&["table1"], (var, bad), var);
        }
    }
}

#[test]
fn an_unknown_slice_is_a_usage_error_that_lists_the_slices() {
    let ok = ("MP5_EXP_SEEDS", "1");
    assert_mp5exp_usage_error(&["fig9"], ok, "micro_d4 fig7a");
    assert_mp5exp_usage_error(&["table1", "--bench"], ok, "ext_chiplet");
    assert_mp5exp_usage_error(&[], ok, "table1");
}
