//! Golden-file tests: every stable `MP5xxx` diagnostic code fires on
//! its fixture with the expected severity and span, rustc-style
//! rendering stays stable, and the `mp5lint` binary agrees (including
//! `--format=json` against a golden written before the emitter moved
//! onto `serde::json`).

use std::path::{Path, PathBuf};
use std::process::Command;

use mp5_analysis::analyze_source;
use mp5_compiler::Target;
use mp5_lang::{Code, Severity};
use serde::json::{Parser, Value};
use serde::Deserialize as _;

fn fixture_dir(sub: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(sub)
}

fn apps_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../apps/programs")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// (fixture, expected `(code, severity, line)` findings, in order).
/// Line 0 means the diagnostic carries no span.
#[allow(clippy::type_complexity)]
fn broken_expectations() -> Vec<(&'static str, Vec<(Code, Severity, u32)>)> {
    use Severity::{Error, Warning};
    vec![
        (
            "semantic_errors.mp5",
            vec![
                (Code::DUPLICATE_FIELD, Error, 0),
                (Code::DUPLICATE_REGISTER, Error, 9),
                (Code::UNKNOWN_FIELD, Error, 12),
                (Code::UNKNOWN_REGISTER, Error, 13),
                (Code::ARRAY_WITHOUT_INDEX, Error, 14),
                (Code::UNDECLARED_IDENTIFIER, Error, 15),
            ],
        ),
        ("syntax_error.mp5", vec![(Code::PARSE_ERROR, Error, 5)]),
        ("lex_error.mp5", vec![(Code::LEX_ERROR, Error, 5)]),
        (
            "stateful_index.mp5",
            vec![
                (Code::PINNED_STATEFUL_INDEX, Warning, 10),
                (Code::ARRAY_LEVEL_SERIALIZATION, Warning, 10),
            ],
        ),
        (
            "multi_index.mp5",
            vec![(Code::PINNED_MULTI_INDEX, Warning, 9)],
        ),
        (
            "stateful_predicate.mp5",
            vec![
                (Code::PINNED_STATEFUL_PREDICATE, Warning, 10),
                (Code::ARRAY_LEVEL_SERIALIZATION, Warning, 10),
            ],
        ),
        (
            "co_resident.mp5",
            vec![
                (Code::PINNED_CO_RESIDENT, Warning, 10),
                (Code::PINNED_CO_RESIDENT, Warning, 10),
                (Code::ARRAY_LEVEL_SERIALIZATION, Warning, 10),
            ],
        ),
        ("sram_overflow.mp5", vec![(Code::SRAM_OVERFLOW, Error, 0)]),
    ]
}

#[test]
fn every_broken_fixture_fires_its_codes_with_expected_spans() {
    for (file, expected) in broken_expectations() {
        let path = fixture_dir("broken").join(file);
        let analysis = analyze_source(&read(&path), &Target::default());
        let got: Vec<(Code, Severity, u32)> = analysis
            .diagnostics
            .iter()
            .map(|d| (d.code, d.severity, d.span.line))
            .collect();
        assert_eq!(got, expected, "{file}: diagnostic mismatch");
    }
}

#[test]
fn clean_fixtures_have_no_findings() {
    for file in ["counter.mp5", "two_tables.mp5"] {
        let path = fixture_dir("clean").join(file);
        let analysis = analyze_source(&read(&path), &Target::default());
        assert!(
            analysis.diagnostics.is_empty(),
            "{file}: {:?}",
            analysis.diagnostics
        );
        let report = analysis.report.expect("clean program yields a report");
        assert_eq!(report.shardable_count(), report.regs.len());
        assert!(report.pressure.as_ref().unwrap().fits);
    }
}

#[test]
fn targeted_fixtures_fire_under_constrained_targets() {
    let no_pairs = Target {
        allow_pairs: false,
        ..Target::default()
    };
    let a = analyze_source(
        &read(&fixture_dir("targeted").join("pairs_unsupported.mp5")),
        &no_pairs,
    );
    assert!(a
        .diagnostics
        .iter()
        .any(|d| d.code == Code::PAIRS_UNSUPPORTED && d.severity == Severity::Error));

    let squeezed = Target {
        max_stages: 2,
        ..Target::default()
    };
    let a = analyze_source(
        &read(&fixture_dir("targeted").join("too_many_stages.mp5")),
        &squeezed,
    );
    assert!(a
        .diagnostics
        .iter()
        .any(|d| d.code == Code::TOO_MANY_STAGES && d.severity == Severity::Error));
}

#[test]
fn too_many_ops_fires_under_tiny_ops_budget() {
    let src = read(&fixture_dir("clean").join("two_tables.mp5"));
    let tiny_ops = Target {
        max_ops_per_stage: 1,
        ..Target::default()
    };
    let a = analyze_source(&src, &tiny_ops);
    assert!(a
        .diagnostics
        .iter()
        .any(|d| d.code == Code::TOO_MANY_OPS && d.severity == Severity::Error));
}

#[test]
fn rendering_of_stateful_index_fixture_is_stable() {
    let path = fixture_dir("broken").join("stateful_index.mp5");
    let source = read(&path);
    let analysis = analyze_source(&source, &Target::default());
    let rendered = mp5_lang::diag::render_all(&analysis.diagnostics, &source, "stateful_index.mp5");
    assert!(
        rendered.contains("warning[MP5201]: register 'ring' is indexed by stateful data"),
        "{rendered}"
    );
    assert!(
        rendered.contains("--> stateful_index.mp5:10:5"),
        "{rendered}"
    );
    assert!(
        rendered.contains("10 |     ring[cursor] = p.h;"),
        "{rendered}"
    );
    // Caret sits under column 5.
    assert!(rendered.contains("   |     ^"), "{rendered}");
    assert!(rendered.contains("warning[MP5301]"), "{rendered}");
    assert!(
        rendered.contains("stateful_index.mp5: 2 warning(s)"),
        "{rendered}"
    );
}

// ---------------------------------------------------------------------
// mp5lint binary
// ---------------------------------------------------------------------

/// Runs `mp5lint` from the workspace root.
fn lint(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mp5lint"))
        .current_dir(Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."))
        .args(args)
        .output()
        .expect("mp5lint runs")
}

#[test]
fn lint_accepts_annotated_fixtures_and_clean_corpus() {
    let broken = fixture_dir("broken");
    let clean = fixture_dir("clean");
    let out = lint(&["-q", broken.to_str().unwrap(), clean.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "annotated fixtures must lint clean:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn lint_accepts_the_apps_corpus() {
    let out = lint(&["-q", apps_dir().to_str().unwrap()]);
    assert!(
        out.status.success(),
        "bundled apps must lint clean:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn lint_flags_cover_targeted_fixtures() {
    let dir = fixture_dir("targeted");
    let pairs = dir.join("pairs_unsupported.mp5");
    let stages = dir.join("too_many_stages.mp5");
    // With the right flags the annotations match and the lint passes.
    assert!(lint(&["-q", "--no-pairs", pairs.to_str().unwrap()])
        .status
        .success());
    assert!(lint(&["-q", "--max-stages=2", stages.to_str().unwrap()])
        .status
        .success());
    // Under the default target the annotations do not fire, which is
    // itself an MP5999 finding.
    let out = lint(&[pairs.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("MP5999"), "{text}");
    assert!(
        text.contains("expected diagnostic MP5404 did not fire"),
        "{text}"
    );
}

#[test]
fn lint_fails_on_unannotated_findings_and_deny_warnings_promotes() {
    let dir = std::env::temp_dir().join("mp5lint-golden-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("warn_only.mp5");
    std::fs::write(
        &file,
        "struct Packet { int h; };\n\
         int cursor = 0;\n\
         int ring[8];\n\
         void func(struct Packet p) { cursor = (cursor + 1) % 8; ring[cursor] = p.h; }\n",
    )
    .unwrap();
    // Warnings alone do not fail the default lint...
    let out = lint(&[file.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "warnings are not errors by default"
    );
    // ...but --deny-warnings promotes them.
    let out = lint(&["--deny-warnings", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("MP5201"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn lint_usage_errors_exit_2() {
    assert_eq!(lint(&[]).status.code(), Some(2));
    assert_eq!(lint(&["--format=yaml", "x.mp5"]).status.code(), Some(2));
    assert_eq!(lint(&["/nonexistent/path.mp5"]).status.code(), Some(2));
}

/// `tests/golden/lint.json` is the stdout of the last `mp5lint` that
/// had its own JSON emitter, run from the workspace root over the
/// whole corpus. That emitter and `Writer::str` spell two characters
/// differently, U+0008 and U+000C (`\u0008`/`\u000c` then, `\b`/`\f`
/// now); the corpus contains neither — it needs no escape at all.
#[test]
fn lint_json_output_round_trips() {
    let golden = include_str!("golden/lint.json");
    assert!(!golden.contains('\\'));
    let out = lint(&[
        "--format=json",
        "crates/apps/programs",
        "crates/analysis/fixtures/broken",
        "crates/analysis/fixtures/clean",
        "crates/analysis/fixtures/targeted",
    ]);
    assert_eq!(out.status.code(), Some(1), "targeted/ has findings");
    let text = String::from_utf8(out.stdout).unwrap();
    assert_eq!(text, golden);

    let parse = |text: &str| {
        let mut p = Parser::new(text);
        let doc = Value::deserialize(&mut p)?;
        p.end().map(|()| doc)
    };
    let doc = parse(&text).expect("mp5lint emits valid JSON");
    // Reader and writer are one codec: parse → emit gives the bytes back.
    assert_eq!(format!("{doc}\n"), text);
    for cut in (0..text.len() - 1).step_by(13) {
        assert!(
            parse(&text[..cut]).is_err(),
            "accepted a prefix of {cut} bytes"
        );
    }
    assert!(parse(&format!("{text}]")).is_err());

    let files = doc.as_array().expect("top level must be an array");
    let fixtures: Vec<&Value> = files
        .iter()
        .filter(|f| {
            let name = f["file"].as_str().expect("file field");
            name.contains("fixtures/broken") || name.contains("fixtures/clean")
        })
        .collect();
    assert_eq!(fixtures.len(), 10, "8 broken + 2 clean fixtures");
    for f in fixtures {
        let name = f["file"].as_str().unwrap();
        assert_eq!(f["clean"], true, "{name}");
        // Every fixture's expected findings were consumed by its
        // annotations, so the JSON shows none unexpected.
        let diags = f["diagnostics"].as_array().expect("diagnostics array");
        assert!(diags.is_empty(), "{name}: {diags:?}");
        if name.contains("clean") {
            let report = &f["report"];
            assert!(
                report["regs"].as_array().is_some_and(|r| !r.is_empty()),
                "{name}: populated report"
            );
            assert_eq!(report["pressure"]["fits"], true, "{name}: pressure fits");
        }
    }
}

/// DSL source is an external input, so it fails typed: every prefix of
/// every corpus program, and the program with one bit flipped at each
/// byte, goes through the analyzer and the compiler without a panic.
#[test]
fn truncated_or_flipped_sources_never_panic() {
    let target = Target::default();
    let mut variants = 0;
    for dir in [
        apps_dir(),
        fixture_dir("broken"),
        fixture_dir("clean"),
        fixture_dir("targeted"),
    ] {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        for path in files {
            let bytes = std::fs::read(&path).unwrap();
            for i in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << (i % 7);
                for variant in [&bytes[..i], &flipped[..]] {
                    let source = String::from_utf8_lossy(variant);
                    let run = std::panic::catch_unwind(|| {
                        analyze_source(&source, &target);
                        mp5_compiler::compile(&source, &target).ok()
                    });
                    assert!(run.is_ok(), "{} at byte {i}", path.display());
                    variants += 1;
                }
            }
        }
    }
    assert!(variants > 18_000, "only {variants} variants");
}
