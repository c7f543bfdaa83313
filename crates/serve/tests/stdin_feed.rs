//! `mp5serve --stdin` at the process boundary: a good feed is served
//! exactly as an in-process whole-feed run serves it, a bad line stops
//! the process with exit 1 and an error that names the line as an
//! editor would count it — blank lines included — and the feed is
//! streamed, not held.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use mp5_core::SwitchConfig;
use mp5_faults::NoFaults;
use mp5_serve::{packet_feed, parse_packet_line, ServeError, Server};
use mp5_trace::{MemSink, NopSink};
use mp5_types::{AccessTag, Packet, PipelineId, RegId, StageId};

const APP: &str = "heavy_hitter";

fn feed_packets(n: usize) -> Vec<Packet> {
    let app = mp5_apps::by_name(APP).expect("app exists");
    let prog = app.compile().expect("app compiles");
    mp5_traffic::TraceBuilder::new(n, 3).build(prog.num_fields(), |rng, _, f| {
        use rand::Rng;
        f[0] = rng.gen_range(0..50);
    })
}

fn lines_of(packets: &[Packet]) -> Vec<String> {
    packets
        .iter()
        .map(|p| serde_json::to_string(p).expect("packets serialize"))
        .collect()
}

fn feed_lines(n: usize) -> Vec<String> {
    lines_of(&feed_packets(n))
}

/// The app's own flow traffic, as `mp5serve --app` generates it: the
/// switch keeps up, so what it holds is its window, not a backlog.
#[cfg(target_os = "linux")]
fn flow_feed_lines(n: usize) -> Vec<String> {
    let app = mp5_apps::by_name(APP).expect("app exists");
    let prog = app.compile().expect("app compiles");
    let fill = app.fill;
    let (mut packets, _flows) = mp5_traffic::FlowTraceBuilder::new(n, 13)
        .build(prog.num_fields(), |rng, key, f| fill(&prog, key, rng, f));
    if let Some(id) = prog.field("arr_ts") {
        for p in &mut packets {
            p.fields[id.index()] = p.arrival as i64;
        }
    }
    lines_of(&packets)
}

/// A scratch path unique to this test process.
fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mp5serve-stdin-{}-{name}", std::process::id()))
}

/// Runs `mp5serve ARGS` with `feed` piped to its stdin.
fn serve_with(args: &[&str], feed: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mp5serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mp5serve starts");
    // The child streams its feed and prints only a few lines, so writing
    // the whole feed before reading its output cannot deadlock. It stops
    // reading at a rejected line, so a closed pipe is not a failure.
    let _ = child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(feed.as_bytes());
    child.wait_with_output().expect("mp5serve exits")
}

fn serve(feed: &str) -> Output {
    serve_with(&["--app", APP, "--stdin"], feed)
}

/// The configuration `mp5serve --app APP` builds a new switch with: no
/// per-packet history.
fn serving_config() -> SwitchConfig {
    SwitchConfig::mp5(4).with_record_detail(false)
}

/// The summary line `mp5serve` prints for a finished run.
fn done_line(report: &mp5_core::RunReport, egressed: u64) -> String {
    format!(
        "done: throughput {:.3} of line rate, completed {}/{}, egressed {egressed}, \
         0 checkpoint(s), {} cycle(s)",
        report.normalized_throughput(),
        report.completed,
        report.offered,
        report.cycles,
    )
}

fn assert_success(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

#[test]
fn a_feed_with_blank_lines_is_served_whole() {
    let lines = feed_lines(40);
    let feed = format!(
        "\n{}\n\n\n{}\n",
        lines[..25].join("\n"),
        lines[25..].join("\n\n")
    );
    let stdout = assert_success(&serve(&feed));
    assert!(stdout.contains("ingest: 40 packet(s) offered"), "{stdout}");
    assert!(stdout.contains("completed 40/40"), "{stdout}");
}

/// Streaming ingest serves the same bytes as offering the whole feed
/// up front: packets that share an arrival are ordered by port, and
/// blank lines are skipped.
#[test]
fn a_streamed_feed_traces_like_whole_feed_ingest() {
    let mut packets = feed_packets(120);
    for i in (1..packets.len()).step_by(5) {
        // A same-arrival neighbour on a higher port.
        let (arrival, port) = packets[i - 1].entry_order_key();
        packets[i].arrival = arrival;
        packets[i].port.0 = port.0 + 1;
    }
    assert!(packets.is_sorted_by(|a, b| a.entry_order_key() < b.entry_order_key()));
    let feed = format!("\n{}\n", lines_of(&packets).join("\n\n"));

    let trace = temp("streamed.jsonl");
    let trace_arg = trace.to_str().expect("utf-8 temp path");
    let out = serve_with(&["--app", APP, "--stdin", "--trace", trace_arg], &feed);
    let stdout = assert_success(&out);
    let written = std::fs::read_to_string(&trace).expect("trace written");
    std::fs::remove_file(&trace).ok();

    let source = mp5_apps::by_name(APP).expect("app exists").source;
    let mut srv: Server<MemSink, NoFaults> =
        Server::new(source, serving_config(), MemSink::new(), None).expect("app serves");
    srv.offer_all(packets);
    let mut egressed = 0;
    while !srv.is_idle() {
        srv.tick();
        egressed += srv.drain_egress().len() as u64;
    }
    let (report, sink) = srv.finish();
    let expected: String = sink
        .into_events()
        .iter()
        .map(|ev| ev.to_jsonl() + "\n")
        .collect();
    assert!(written == expected, "the streamed trace differs");
    let done = stdout
        .lines()
        .find(|l| l.starts_with("done:"))
        .expect("a done line");
    assert_eq!(done, done_line(&report, egressed));
}

/// A checkpoint ingests the rest of the feed first, so a halted
/// streaming run writes the snapshot of a whole-feed run.
#[test]
fn a_halt_snapshots_like_whole_feed_ingest() {
    const HALT: u64 = 25;
    let packets = feed_packets(200);
    let snap = temp("halt.snap");
    let snap_arg = snap.to_str().expect("utf-8 temp path");
    let halt = HALT.to_string();
    let out = serve_with(
        &[
            "--app",
            APP,
            "--stdin",
            "--halt-at",
            &halt,
            "--snapshot",
            snap_arg,
        ],
        &lines_of(&packets).join("\n"),
    );
    assert_success(&out);
    let written = std::fs::read_to_string(&snap).expect("snapshot written");
    std::fs::remove_file(&snap).ok();

    let source = mp5_apps::by_name(APP).expect("app exists").source;
    let mut srv: Server<NopSink, NoFaults> =
        Server::new(source, serving_config(), NopSink, None).expect("app serves");
    let last_arrival = packets.last().expect("a feed").arrival;
    srv.offer_all(packets);
    for _ in 0..HALT {
        srv.tick();
        srv.drain_egress();
    }
    assert!(
        last_arrival >= srv.horizon(),
        "the halt must come before the feed's end to test the rest's ingest"
    );
    assert!(written == srv.checkpoint().encode(), "the snapshots differ");
}

/// Runs `mp5serve --app APP --stdin --halt-at HALT` on `packets` and
/// returns the snapshot it writes.
fn halt_snapshot(packets: &[Packet], halt: u64, name: &str) -> (PathBuf, String) {
    let snap = temp(name);
    let snap_arg = snap.to_str().expect("utf-8 temp path");
    let halt = halt.to_string();
    let args = [
        "--app",
        APP,
        "--stdin",
        "--halt-at",
        &halt,
        "--snapshot",
        snap_arg,
    ];
    assert_success(&serve_with(&args, &lines_of(packets).join("\n")));
    let written = std::fs::read_to_string(&snap).expect("snapshot written");
    (snap, written)
}

/// A serving switch keeps no per-packet history: its snapshot says so,
/// and the three detail arrays are empty after packets have left.
#[test]
fn a_halt_snapshot_holds_no_per_packet_history() {
    let (snap, written) = halt_snapshot(&feed_packets(200), 40, "nodetail.snap");
    std::fs::remove_file(&snap).ok();
    assert!(!written.contains("\"completed\":0,"), "no packet left yet");
    for field in [
        "\"record_detail\":false",
        "\"outputs\":[]",
        "\"completions\":[]",
        "\"access_log\":[]",
    ] {
        assert!(written.contains(field), "{field} not in the snapshot");
    }
}

/// A restored switch checks its feed's first line against the arrivals
/// its snapshot still holds: one that repeats the last of them is
/// rejected naming both packets, and the switch serves nothing.
#[test]
fn a_restored_feed_repeating_a_held_arrival_is_rejected() {
    let packets = feed_packets(200);
    let (snap, _) = halt_snapshot(&packets, 5, "tie.snap");
    let snap_arg = snap.to_str().expect("utf-8 temp path");
    let last = packets.last().expect("a feed");
    let mut again = last.clone();
    again.id.0 = 999;
    let out = serve_with(
        &["--restore", snap_arg, "--stdin"],
        &lines_of(&[again]).join(""),
    );
    std::fs::remove_file(&snap).ok();
    assert_rejected(&out, 1, "repeats the packet before it");
    assert_rejected(&out, 1, &format!("(packets {} and 999)", last.id));
}

fn assert_rejected(out: &Output, lineno: usize, why: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let named = format!("packet feed line {lineno}: ");
    assert!(
        stderr.contains(&named),
        "line {lineno} not named in: {stderr}"
    );
    assert!(stderr.contains(why), "'{why}' not in: {stderr}");
}

#[test]
fn a_bad_line_exits_non_zero_naming_the_line() {
    let lines = feed_lines(6);
    let truncated = &lines[3][..lines[3].len() / 2];
    // (feed, the 1-based line the error must name)
    let cases = [
        // A truncated packet on line 5, after a blank line 3.
        (
            format!(
                "{}\n{}\n\n{}\n{truncated}\n{}\n",
                lines[0], lines[1], lines[2], lines[4]
            ),
            5,
        ),
        // Valid JSON that is not a packet on line 4, after blank lines 1 and 3.
        (format!("\n{}\n\n{{\"id\":1}}\n{}\n", lines[0], lines[1]), 4),
        // Not JSON at all, on the last line and without a newline.
        (format!("{}\n\n\nhello", lines[0]), 4),
    ];
    for (feed, lineno) in cases {
        assert_rejected(&serve(&feed), lineno, "");
    }
}

#[test]
fn a_line_without_the_programs_field_count_is_rejected() {
    // The golden feed was written for a 12-field program.
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/feed.jsonl");
    let feed = std::fs::read_to_string(golden).expect("the golden feed");
    assert_rejected(&serve(&feed), 1, "12 fields");

    let lines = feed_lines(3);
    let short =
        r#"{"id":9,"port":0,"arrival":200,"size":64,"fields":[1,2,3],"tags":[],"ecn":false}"#;
    let feed = format!("{}\n{}\n{short}\n", lines[0], lines[1]);
    assert_rejected(&serve(&feed), 3, "3 fields");
}

/// What `parse_packet_line` answers, as the general JSON reader does:
/// the packet, or the reader's error text on the line given.
fn general(line: &str, lineno: usize) -> Result<Packet, (usize, String)> {
    serde_json::from_str(line).map_err(|e| (lineno, e.to_string()))
}

/// `parse_packet_line`'s answer in [`general`]'s form.
fn answer(r: Result<Packet, ServeError>) -> Result<Packet, (usize, String)> {
    r.map_err(|e| match e {
        ServeError::Feed { line, why } => (line, why),
        other => panic!("not a feed error: {other}"),
    })
}

/// No proper prefix of a feed line is a packet, and no one-bit change to
/// a line goes unnoticed; neither makes the reader panic. Each error
/// names the line it was given. No flip aliases: every key is required,
/// and a flipped value byte spells another value or none. For every
/// prefix, flip and substituted byte, the answer is the general JSON
/// reader's, packet or error text: a line the walk takes reads alike,
/// and every other line is the general reader's.
#[test]
fn a_truncated_or_flipped_feed_line_is_an_error_or_another_packet() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/feed.jsonl");
    let feed = std::fs::read_to_string(golden).expect("the golden feed");
    // The golden lines, then lines of this app's wider packets.
    let lines = feed.lines().map(str::to_string).chain(feed_lines(4));
    for (i, line) in lines.enumerate() {
        let lineno = i + 1;
        let packet = parse_packet_line(&line, lineno).expect("a feed line parses");
        assert_eq!(Ok(&packet), general(&line, lineno).as_ref(), "{line}");
        let names_line =
            |r: &Result<Packet, (usize, String)>| matches!(r, Err((at, _)) if *at == lineno);
        for cut in 0..line.len() {
            let prefix = &line[..cut];
            let r = answer(parse_packet_line(prefix, lineno));
            assert!(names_line(&r), "line {lineno}: {prefix}");
            assert_eq!(r, general(prefix, lineno), "{prefix}");
        }
        let mut bytes = line.as_bytes().to_vec();
        for (at, mask) in (0..bytes.len()).flat_map(|at| [(at, 0x01), (at, 0x04), (at, 0x10)]) {
            bytes[at] ^= mask;
            // Every reader takes `&str`: a flip that leaves no valid
            // UTF-8 never reaches the parser.
            if let Ok(damaged) = std::str::from_utf8(&bytes) {
                let r = answer(parse_packet_line(damaged, lineno));
                let noticed = r.as_ref().is_ok_and(|p| *p != packet) || names_line(&r);
                assert!(noticed, "line {lineno}: flip {mask:#x} at byte {at}");
                assert_eq!(r, general(damaged, lineno), "{damaged}");
            }
            bytes[at] ^= mask;
        }
        for at in 0..bytes.len() {
            for b in *b"09-.e\" \\x" {
                let mut changed = bytes.clone();
                changed[at] = b;
                let text = std::str::from_utf8(&changed).expect("ASCII");
                let r = answer(parse_packet_line(text, lineno));
                assert_eq!(r, general(text, lineno), "{text}");
            }
        }
    }
}

/// Lines at the edges of the serializer's layout read as the general
/// JSON reader reads them: integers the walk leaves to it (19 and 20
/// digits, a leading zero, a fraction, an exponent) and ones it takes
/// (18 digits, `-0`), the range of `port` and `size`, 64 and 65 fields,
/// `ecn` set, tags, another key order and whitespace.
#[test]
fn edge_lines_read_as_the_general_reader_reads_them() {
    let line = |id: &str, port: &str, arrival: &str, size: &str, fields: &str| {
        format!(
            r#"{{"id":{id},"port":{port},"arrival":{arrival},"size":{size},"fields":[{fields}],"tags":[],"ecn":false}}"#
        )
    };
    let (min, max) = (i64::MIN.to_string(), i64::MAX.to_string());
    let ints = [
        "0",
        "-0",
        "7",
        "-7",
        "123456789012345678",
        "-123456789012345678",
        "999999999999999999",
        "1234567890123456789",
        "-1234567890123456789",
        "9999999999999999999",
        "-9999999999999999999",
        "12345678901234567890",
        &min,
        &max,
        "01",
        "-01",
        "00",
        "1.0",
        "1e3",
        "1E3",
        "-",
        "+1",
        "",
    ];
    let mut lines = Vec::new();
    for v in ints {
        lines.push(line(v, "2", "64", "64", "5"));
        lines.push(line("1", v, "64", "64", "5"));
        lines.push(line("1", "2", v, "64", "5"));
        lines.push(line("1", "2", "64", v, "5"));
        lines.push(line("1", "2", "64", "64", v));
        lines.push(line("1", "2", "64", "64", &format!("5,{v},6")));
    }
    for (port, size) in [
        ("65535", "4294967295"),
        ("65536", "64"),
        ("2", "4294967296"),
    ] {
        lines.push(line("1", port, "64", size, "5,6"));
    }
    let plain = line("1", "2", "64", "64", "5,-6");
    lines.push(line("1", "2", "64", "64", ""));
    lines.push(line("1", "2", "64", "64", "5,"));
    lines.push(line("1", "2", "64", "64", ",5"));
    lines.push(line("1", "2", "64", "64", "5,,6"));
    for n in [64, 65] {
        lines.push(line("1", "2", "64", "64", &vec!["-3"; n].join(",")));
    }
    lines.push(plain.replace(r#""ecn":false"#, r#""ecn":true"#));
    lines.push(plain.replace(r#""ecn":false"#, r#""ecn":null"#));
    lines.push(plain.replace(r#""id":1,"port":2"#, r#""port":2,"id":1"#));
    lines.push(plain.replace(",", ", "));
    lines.push(plain.replace(":", " : "));
    lines.push(plain.replace(r#""id""#, r#""\u0069d""#));
    lines.push(plain.replace(r#""size":64,"#, ""));
    lines.push(plain.replace(r#""size":64,"#, r#""size":64,"size":65,"#));
    lines.push(plain.replace(r#""tags":[]"#, r#""tags":[ ]"#));
    lines.push(format!("{plain} "));
    lines.push(format!("{plain}}}"));
    lines.push(format!("{plain}\n"));
    let mut tagged = general(&plain, 1).expect("a packet");
    tagged.tags.push(AccessTag {
        reg: RegId(0),
        index: 3,
        pipeline: PipelineId(1),
        stage: StageId(2),
        speculative: false,
    });
    lines.push(serde_json::to_string(&tagged).expect("packets serialize"));
    for line in &lines {
        assert_eq!(
            answer(parse_packet_line(line, 3)),
            general(line, 3),
            "{line}"
        );
    }
    // Some of them are packets, read alike.
    let read = |line: &str| parse_packet_line(line, 3).expect("a packet");
    assert_eq!(
        read(&line("1", "65535", "64", "4294967295", "0")).port.0,
        65535
    );
    assert_eq!(
        read(&line("1", "2", "64", "64", "-0,999999999999999999")).fields,
        [0, 999_999_999_999_999_999]
    );
    assert_eq!(read(&line("1", "2", "64", "64", &min)).fields, [i64::MIN]);
    assert!(read(&plain.replace("false", "true")).ecn);
    assert_eq!(read(&lines[lines.len() - 1]).tags.len(), 1);
}

/// The feed reader `packet_feed` replaced, kept as its reference: each
/// line read into a `String` by `BufRead::read_line`, trimmed, and
/// parsed by the general JSON reader.
fn read_line_feed<R: BufRead>(mut reader: R) -> Vec<Result<(usize, Packet), (usize, String)>> {
    let (mut text, mut line, mut items) = (String::new(), 0, Vec::new());
    loop {
        text.clear();
        line += 1;
        match reader.read_line(&mut text) {
            Ok(0) => return items,
            Ok(_) if text.trim().is_empty() => {}
            Ok(_) => items.push(general(text.trim(), line).map(|p| (line, p))),
            Err(e) => items.push(Err((line, e.to_string()))),
        }
    }
}

/// `packet_feed` cuts lines where they sit in the reader's buffer, and
/// carries one that runs past its end: at every buffer size it yields
/// what `read_line` would, line numbers and error texts included, over
/// LF and CRLF endings, a missing last newline, blank lines (one of
/// them a non-ASCII space `str::trim` strips), padded packet lines, and
/// bytes that are not UTF-8.
#[test]
fn packet_feed_answers_alike_at_every_buffer_edge() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/feed.jsonl");
    let feed = std::fs::read_to_string(golden).expect("the golden feed");
    let lines: Vec<&str> = feed.lines().collect();
    let lf = lines.join("\n").into_bytes();
    let mut variants = vec![
        [lf.as_slice(), b"\n"].concat(),
        lf.clone(),
        lines.join("\r\n").into_bytes(),
        (lines.join("\r\n") + "\r\n").into_bytes(),
    ];
    // Blank, whitespace-only and padded lines among the packets.
    let mut padded = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let pad = [
            "",
            "\n",
            "  \t\n",
            "\u{2003}\n",
            "\r\n",
            "\u{3000} \u{85}\n",
        ][i % 6];
        padded.extend_from_slice(pad.as_bytes());
        let line = match i % 4 {
            1 => format!("\u{2003} {line}\t"),
            3 => format!("{line}\r"),
            _ => line.to_string(),
        };
        padded.extend_from_slice(line.as_bytes());
        padded.push(b'\n');
    }
    variants.push(padded);
    // Line 4 holds a byte that is no UTF-8, line 9 a char cut short.
    for (at, bad) in [(3, &b"\xff"[..]), (8, &b"\xe2\x80"[..])] {
        let mut bytes = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            if i == at {
                bytes.extend_from_slice(&line.as_bytes()[..20]);
                bytes.extend_from_slice(bad);
                bytes.extend_from_slice(&line.as_bytes()[20..]);
            } else {
                bytes.extend_from_slice(line.as_bytes());
            }
            bytes.push(b'\n');
        }
        variants.push(bytes.clone());
        // The same bytes at the very end of the input, with no newline.
        bytes.extend_from_slice(bad);
        variants.push(bytes);
    }
    for bytes in &variants {
        let expected = read_line_feed(bytes.as_slice());
        assert!(expected.len() >= lines.len(), "every packet is read");
        for capacity in [1, 7, 64, 8192] {
            let got: Vec<_> = packet_feed(BufReader::with_capacity(capacity, bytes.as_slice()))
                .map(|item| item.map_err(|e| answer(Err(e)).unwrap_err()))
                .collect();
            assert_eq!(
                got,
                expected,
                "capacity {capacity}: {}",
                String::from_utf8_lossy(bytes)
            );
        }
    }
    let bad = read_line_feed(variants[5].as_slice());
    assert_eq!(
        bad[3],
        Err((4, "stream did not contain valid UTF-8".to_string()))
    );
}

#[test]
fn a_line_out_of_entry_order_is_rejected() {
    let lines = feed_lines(4);
    let feed = format!("{}\n{}\n\n{}\n", lines[0], lines[2], lines[1]);
    assert_rejected(&serve(&feed), 4, "out of entry order");
}

/// Access tags are the switch's to fill in: a line that carries some
/// stops the run naming its line, before the switch widens its tag rows
/// for it.
#[test]
fn a_line_with_tags_is_rejected() {
    let mut packets = feed_packets(6);
    let tag = AccessTag {
        reg: RegId(0),
        index: 1,
        pipeline: PipelineId(0),
        stage: StageId(0),
        speculative: false,
    };
    packets[2].tags = vec![tag; 3];
    let lines = lines_of(&packets);
    let feed = format!("{}\n\n{}\n", lines[..2].join("\n"), lines[2..].join("\n"));
    assert_rejected(&serve(&feed), 4, "carries 3 access tag(s)");
}

/// A port delivers at most one packet per byte-time, so a line that
/// repeats the arrival and port of the line before it is no real input;
/// served, it would tie in every FIFO's order (DESIGN.md §8, defect 7).
#[test]
fn a_line_repeating_the_one_before_is_rejected() {
    let mut packets = feed_packets(4);
    packets[2].arrival = packets[1].arrival;
    packets[2].port = packets[1].port;
    let lines = lines_of(&packets);
    let feed = format!("{}\n\n{}\n{}\n{}\n", lines[0], lines[1], lines[2], lines[3]);
    assert_rejected(&serve(&feed), 4, "repeats the packet before it");
}

#[test]
fn a_line_due_before_a_restored_switchs_cycle_is_rejected() {
    let lines = feed_lines(40);
    let snap = temp("restore.snap");
    let snap_arg = snap.to_str().expect("utf-8 temp path");
    // Every arrival is admitted by cycle 10; halt with packets in flight.
    let out = serve_with(
        &[
            "--app",
            APP,
            "--stdin",
            "--halt-at",
            "12",
            "--snapshot",
            snap_arg,
        ],
        &lines.join("\n"),
    );
    assert_success(&out);
    let out = serve_with(&["--restore", snap_arg, "--stdin"], &lines[..3].join("\n"));
    std::fs::remove_file(&snap).ok();
    assert_rejected(&out, 1, "before cycle 12");
}

/// A switch that cannot drain within its cycle cap is an error the
/// serving loop gets back between ticks, carrying where the work is
/// stuck, instead of a loop that ticks on.
#[test]
fn a_server_past_its_cycle_cap_is_an_error() {
    let app = mp5_apps::by_name(APP).expect("app exists");
    let cfg = SwitchConfig {
        max_cycles: Some(5),
        ..SwitchConfig::mp5(4)
    };
    let mut server =
        Server::<NopSink, NoFaults>::new(app.source, cfg, NopSink, None).expect("server boots");
    server.offer_all(feed_packets(40));
    let mut ticks = 0;
    let err = loop {
        if let Err(e) = server.check_liveness() {
            break e;
        }
        assert!(!server.is_idle(), "40 packets cannot drain in 5 cycles");
        server.tick();
        ticks += 1;
    };
    assert_eq!(ticks, 5);
    let ServeError::Liveness(v) = &err else {
        panic!("expected a liveness error, got {err}");
    };
    assert_eq!(v.cap, 5);
    assert!(v.ingress + v.in_lanes + v.queued + v.channel > 0, "{v}");
    let text = err.to_string();
    assert!(
        text.starts_with("switch stuck: simulation exceeded 5 cycles"),
        "{text}"
    );
}

/// The child's peak resident set (`VmHWM`), polled until it exits.
#[cfg(target_os = "linux")]
fn peak_rss_kb(feed: &Path) -> u64 {
    let stdin = std::fs::File::open(feed).expect("feed file");
    let mut child = Command::new(env!("CARGO_BIN_EXE_mp5serve"))
        .args(["--app", APP, "--pipelines", "8", "--stdin"])
        .stdin(stdin)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("mp5serve starts");
    let status = format!("/proc/{}/status", child.id());
    let mut peak = 0;
    while child.try_wait().expect("child state").is_none() {
        let hwm = std::fs::read_to_string(&status).ok().and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        });
        peak = peak.max(hwm.unwrap_or(0));
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
    assert!(child.wait().expect("exit status").success());
    peak
}

/// Memory does not grow with the feed: ten times the lines costs less
/// than 1 MB more (a few kB on a Linux x86-64 host). The serving switch
/// keeps no per-packet history, so it holds its window of the feed and
/// the packets in flight. Holding the parsed feed, as whole-feed ingest
/// did, cost four times the extra feed bytes; the per-packet history
/// alone cost about as much as them (4.7 → 11.4 MB of `VmHWM` from 4 k
/// to 40 k lines of this app's feed).
#[cfg(target_os = "linux")]
#[test]
fn ingest_memory_does_not_grow_with_the_feed() {
    let lines = flow_feed_lines(40_000);
    let mut bytes = [0u64; 2];
    let mut peak = [0u64; 2];
    for (i, n) in [4_000, 40_000].into_iter().enumerate() {
        let path = temp(&format!("feed-{n}.jsonl"));
        let text = lines[..n].join("\n") + "\n";
        std::fs::write(&path, &text).expect("feed file");
        bytes[i] = text.len() as u64;
        peak[i] = peak_rss_kb(&path);
        std::fs::remove_file(&path).ok();
    }
    let growth_kb = peak[1].saturating_sub(peak[0]);
    let extra_kb = (bytes[1] - bytes[0]) / 1024;
    assert!(
        growth_kb < 1024,
        "VmHWM {} -> {} kB over {extra_kb} kB more feed",
        peak[0],
        peak[1]
    );
}
