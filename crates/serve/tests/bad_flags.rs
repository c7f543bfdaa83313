//! `mp5serve` at the process boundary: a flag value no switch can run
//! with is a usage error (exit 2) that names the flag, never a panic.

use std::process::Command;

fn assert_usage_error(args: &[&str], flag: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_mp5serve"))
        .args(args)
        .output()
        .expect("mp5serve starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    // The usage text lists every flag: the error must come before it.
    let error = stderr.split("usage:").next().unwrap_or_default();
    assert!(error.contains(flag), "{args:?} must name {flag}: {stderr}");
}

#[test]
fn zero_pipelines_is_a_usage_error() {
    assert_usage_error(&["--app", "flowlet", "--pipelines", "0"], "--pipelines");
}

#[test]
fn an_empty_key_space_is_a_usage_error() {
    let program = format!(
        "{}/../apps/programs/flowlet.mp5",
        env!("CARGO_MANIFEST_DIR")
    );
    assert_usage_error(&[&program, "--keys", "0"], "--keys");
}

#[test]
fn a_value_that_is_not_a_number_is_named() {
    assert_usage_error(
        &["--app", "flowlet", "--packets", "abc"],
        "--packets takes a whole number, not 'abc'",
    );
}
