//! `mp5audit` at the process boundary: a clean trace exits 0 from a
//! file and from stdin, a trace that breaks an invariant exits 1, and
//! a line that is not an event exits 2 with an error that names the
//! line as an editor would count it.

use std::io::Write;
use std::process::{Command, Output, Stdio};

use mp5_trace::{Event, EventKind};
use mp5_types::{PacketId, PhantomKey, RegId};

/// Three packets, each through one stateful access: the smallest
/// stream that exercises every check of the auditor and passes them.
fn clean_trace() -> Vec<String> {
    let mut lines = Vec::new();
    for p in 0..3u64 {
        let pkt = PacketId(p);
        let key = PhantomKey {
            pkt,
            reg: RegId(0),
            index: 4,
        };
        let order = (p * 64, 0);
        let c = p * 4;
        let access = EventKind::Access {
            pkt,
            reg: key.reg,
            index: key.index,
            order,
        };
        let exec = |queued| EventKind::Execute {
            pkt,
            queued,
            bypassed: false,
        };
        let emit = EventKind::PhantomEmit {
            key,
            dest_pipeline: 0,
            dest_stage: 2,
        };
        for (cycle, stage, kind) in [
            (c, 0, EventKind::Ingress { pkt, order }),
            (c, 0, exec(false)),
            (c, 0, emit),
            (c + 1, 2, EventKind::PhantomEnq { key }),
            (c + 2, 2, EventKind::DataMatch { key }),
            (c + 3, 2, EventKind::PopData { pkt }),
            (c + 3, 2, exec(true)),
            (c + 3, 2, access),
            (c + 3, 3, EventKind::Egress { pkt }),
        ] {
            let ev = Event {
                cycle,
                pipeline: 0,
                stage,
                kind,
            };
            lines.push(ev.to_jsonl());
        }
    }
    lines
}

fn audit(args: &[&str], stdin: Option<&str>) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mp5audit"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mp5audit starts");
    // The child stops reading at the first bad line; these traces fit
    // a pipe buffer, so the one write completes whether it does or not.
    let mut pipe = child.stdin.take().expect("piped stdin");
    if let Some(text) = stdin {
        pipe.write_all(text.as_bytes()).expect("trace written");
    }
    drop(pipe);
    child.wait_with_output().expect("mp5audit exits")
}

/// Runs the auditor over `text` twice, as a file and as stdin, and
/// requires the same exit code from both; returns the two stderrs.
fn audit_both_ways(name: &str, text: &str, code: i32) -> [String; 2] {
    let path = std::env::temp_dir().join(format!("mp5audit_cli_{}_{name}", std::process::id()));
    std::fs::write(&path, text).expect("trace file written");
    let from_file = audit(&[path.to_str().expect("utf-8 temp path")], None);
    std::fs::remove_file(&path).expect("trace file removed");
    let from_stdin = audit(&["-"], Some(text));
    [from_file, from_stdin].map(|out| {
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(code), "{name}: {stdout}{stderr}");
        stderr
    })
}

#[test]
fn a_clean_trace_exits_zero_from_a_file_and_from_stdin() {
    let text = clean_trace().join("\n") + "\n";
    audit_both_ways("clean", &text, 0);
    // Blank and CRLF-terminated lines are still a clean trace.
    let spaced = format!("\r\n{}\r\n\n", clean_trace().join("\r\n\n"));
    audit_both_ways("spaced", &spaced, 0);
}

#[test]
fn a_missing_egress_exits_one() {
    let mut lines = clean_trace();
    let egress = lines
        .iter()
        .position(|l| l.contains("\"egress\""))
        .expect("the trace has an egress");
    lines.remove(egress);
    let [stderr, _] = audit_both_ways("lossy", &(lines.join("\n") + "\n"), 1);
    assert!(
        stderr.is_empty(),
        "a finding is a report, not an error: {stderr}"
    );
    let out = audit(&["-"], Some(&lines.join("\n")));
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("conservation"), "{report}");
}

#[test]
fn a_bad_line_exits_two_naming_the_line() {
    let lines = clean_trace();
    let truncated = &lines[5][..lines[5].len() / 2];
    let too_wide = lines[2].replace("\"dp\":0", "\"dp\":65536");
    assert_ne!(too_wide, lines[2]);
    // (trace, the 1-based line the error must name, what it must say)
    let cases = [
        // Cut mid-object on line 7, after blank lines 2 and 5.
        (
            format!(
                "{}\n\n{}\n{}\n\n{}\n{truncated}\n{}\n",
                lines[0], lines[1], lines[2], lines[3], lines[4]
            ),
            7,
            "trace parse error",
        ),
        // Not JSON at all, on the last line and without a newline.
        (format!("{}\r\n\r\nhello", lines[0]), 3, "trace parse error"),
        // A pipeline that does not fit its field, on line 3.
        (
            format!("{}\n{}\n{too_wide}\n", lines[0], lines[1]),
            3,
            "field 'dp' out of range",
        ),
    ];
    for (i, (text, lineno, what)) in cases.iter().enumerate() {
        for stderr in audit_both_ways(&format!("bad{i}"), text, 2) {
            assert!(
                stderr.contains(&format!("line {lineno}: ")) && stderr.contains(what),
                "case {i}: line {lineno} / {what:?} not in: {stderr}"
            );
        }
    }
}
