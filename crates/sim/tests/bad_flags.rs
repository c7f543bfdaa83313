//! `mp5run` and `mp5chaos` at the process boundary: a flag value no
//! switch can run with is a usage error (exit 2) that names the flag,
//! never a panic.

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
    assert_usage_error(
        env!("CARGO_BIN_EXE_mp5chaos"),
        &["--pipelines", "0", "--seeds", "1", "--apps", "flowlet"],
        "--pipelines",
    );
}

#[test]
fn an_empty_key_space_is_a_usage_error() {
    assert_usage_error(
        env!("CARGO_BIN_EXE_mp5run"),
        &[&program(), "--keys", "0"],
        "--keys",
    );
}
