//! `mp5serve --stdin` at the process boundary: a good feed is served
//! exactly as an in-process whole-feed run serves it, a bad line stops
//! the process with exit 1 and an error that names the line as an
//! editor would count it — blank lines included — and the feed is
//! streamed, not held.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use mp5_core::SwitchConfig;
use mp5_faults::NoFaults;
use mp5_serve::{parse_packet_line, ServeError, Server};
use mp5_trace::{MemSink, NopSink};
use mp5_types::Packet;

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
/// up front: packets with equal entry keys keep file order, and blank
/// lines are skipped.
#[test]
fn a_streamed_feed_traces_like_whole_feed_ingest() {
    let mut packets = feed_packets(120);
    for i in (1..packets.len()).step_by(5) {
        // An exact tie with the line before, and a same-arrival
        // neighbour on a higher port.
        let (arrival, port) = packets[i - 1].entry_order_key();
        packets[i].arrival = arrival;
        packets[i].port = port;
        if i + 1 < packets.len() {
            packets[i + 1].arrival = arrival;
            packets[i + 1].port.0 = port.0 + 1;
        }
    }
    assert!(packets.is_sorted_by_key(|p| p.entry_order_key()));
    let feed = format!("\n{}\n", lines_of(&packets).join("\n\n"));

    let trace = temp("streamed.jsonl");
    let trace_arg = trace.to_str().expect("utf-8 temp path");
    let out = serve_with(&["--app", APP, "--stdin", "--trace", trace_arg], &feed);
    let stdout = assert_success(&out);
    let written = std::fs::read_to_string(&trace).expect("trace written");
    std::fs::remove_file(&trace).ok();

    let source = mp5_apps::by_name(APP).expect("app exists").source;
    let mut srv: Server<MemSink, NoFaults> =
        Server::new(source, SwitchConfig::mp5(4), MemSink::new(), None).expect("app serves");
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
        Server::new(source, SwitchConfig::mp5(4), NopSink, None).expect("app serves");
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

/// No proper prefix of a golden feed line is a packet, and no one-bit
/// change to a line goes unnoticed; neither makes the reader panic.
/// Each error names the line it was given. No flip aliases: every key
/// is required, and a flipped value byte spells another value or none.
#[test]
fn a_truncated_or_flipped_feed_line_is_an_error_or_another_packet() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/feed.jsonl");
    let feed = std::fs::read_to_string(golden).expect("the golden feed");
    for (i, line) in feed.lines().enumerate() {
        let lineno = i + 1;
        let packet = parse_packet_line(line, lineno).expect("a golden line parses");
        let names_line = |r: Result<Packet, ServeError>| match r {
            Err(ServeError::Feed { line, .. }) => line == lineno,
            _ => false,
        };
        for cut in 0..line.len() {
            let prefix = &line[..cut];
            let r = parse_packet_line(prefix, lineno);
            assert!(names_line(r), "line {lineno}: {prefix}");
        }
        let mut bytes = line.as_bytes().to_vec();
        for (at, mask) in (0..bytes.len()).flat_map(|at| [(at, 0x01), (at, 0x04), (at, 0x10)]) {
            bytes[at] ^= mask;
            // Every reader takes `&str`: a flip that leaves no valid
            // UTF-8 never reaches the parser.
            if let Ok(damaged) = std::str::from_utf8(&bytes) {
                let r = parse_packet_line(damaged, lineno);
                let noticed = r.as_ref().is_ok_and(|p| *p != packet) || names_line(r);
                assert!(noticed, "line {lineno}: flip {mask:#x} at byte {at}");
            }
            bytes[at] ^= mask;
        }
    }
}

#[test]
fn a_line_out_of_entry_order_is_rejected() {
    let lines = feed_lines(4);
    let feed = format!("{}\n{}\n\n{}\n", lines[0], lines[2], lines[1]);
    assert_rejected(&serve(&feed), 4, "out of entry order");
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

/// Memory grows with the switch's own per-packet record, not with the
/// feed: ten times the lines costs less than twice their extra bytes.
/// Holding the parsed feed, as whole-feed ingest did, costs four times.
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
        growth_kb < 2 * extra_kb,
        "VmHWM {} -> {} kB over {extra_kb} kB more feed",
        peak[0],
        peak[1]
    );
}
