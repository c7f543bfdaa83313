//! `mp5fabric` at the process boundary: a flag no fabric run can use is
//! a usage error (exit 2) that says what is wrong, never a panic
//! (exit 101) or a run that silently delivers nothing (exit 0).

use std::process::Command;

fn assert_usage_error(args: &[&str], names: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_mp5fabric"))
        .args(["--flows", "20", "--quiet"])
        .args(args)
        .output()
        .expect("the binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    // The usage text lists every flag: the error must come before it.
    let error = stderr.split("usage:").next().unwrap_or_default();
    assert!(
        error.contains(names),
        "{args:?} must name {names}: {stderr}"
    );
}

#[test]
fn a_load_outside_zero_to_one_is_a_usage_error() {
    for bad in ["0", "1.5", "nan", "-0.5"] {
        assert_usage_error(&["--load", bad], "--load");
    }
}

#[test]
fn zero_packets_per_flow_is_a_usage_error() {
    assert_usage_error(&["--pkts-per-flow", "0"], "--pkts-per-flow");
}

#[test]
fn fewer_than_two_hosts_is_a_usage_error() {
    assert_usage_error(
        &["--leaves", "1", "--hosts-per-leaf", "1"],
        "--hosts-per-leaf",
    );
}

#[test]
fn a_zero_link_capacity_is_rejected() {
    assert_usage_error(&["--link-cap", "0"], "link capacity is 0");
}

#[test]
fn killing_a_switch_that_is_not_a_spine_is_rejected() {
    assert_usage_error(&["--kill-spine", "9"], "not a spine");
}

#[test]
fn a_value_that_is_not_a_number_is_named() {
    assert_usage_error(&["--flows", "x"], "--flows takes a whole number, not 'x'");
    assert_usage_error(&["--load", "x"], "--load takes a number, not 'x'");
}

#[test]
fn an_unknown_flag_is_a_usage_error() {
    assert_usage_error(&["--bogus"], "--bogus");
}
