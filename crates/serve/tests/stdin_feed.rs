//! `mp5serve --stdin` at the process boundary: a good feed is served,
//! a bad line stops the process with a non-zero exit and an error that
//! names the line as an editor would count it — blank lines included.

use std::io::Write;
use std::process::{Command, Output, Stdio};

use mp5_types::Packet;

fn feed_lines(n: usize) -> Vec<String> {
    let app = mp5_apps::by_name("heavy_hitter").expect("app exists");
    let prog = app.compile().expect("app compiles");
    let packets: Vec<Packet> =
        mp5_traffic::TraceBuilder::new(n, 3).build(prog.num_fields(), |rng, _, f| {
            use rand::Rng;
            f[0] = rng.gen_range(0..50);
        });
    packets
        .iter()
        .map(|p| serde_json::to_string(p).expect("packets serialize"))
        .collect()
}

fn serve(feed: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mp5serve"))
        .args(["--app", "heavy_hitter", "--stdin"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("mp5serve starts");
    // The child reads all of stdin before it prints, so writing the
    // whole feed and closing the pipe cannot deadlock.
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(feed.as_bytes())
        .expect("feed written");
    child.wait_with_output().expect("mp5serve exits")
}

#[test]
fn a_feed_with_blank_lines_is_served_whole() {
    let lines = feed_lines(40);
    let feed = format!(
        "\n{}\n\n\n{}\n",
        lines[..25].join("\n"),
        lines[25..].join("\n\n")
    );
    let out = serve(&feed);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("ingest: 40 packet(s) offered"), "{stdout}");
    assert!(stdout.contains("completed 40/40"), "{stdout}");
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
        let out = serve(&feed);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.contains(&format!("packet feed line {lineno}: ")),
            "line {lineno} not named in: {stderr}"
        );
    }
}
