//! `serve-stdin`: the one process-level workload. The benchmark writes a
//! newline-JSON packet feed during set-up and times
//! `mp5serve --app heavy_hitter --pipelines 8 --stdin < feed` from
//! spawn to exit, one child at a time. It is the only binary-level
//! ingest→egress path and is dominated by `parse_packet_line`, which no
//! in-process workload calls.
//!
//! The child prints one summary line and no per-packet egress, so the
//! simulated latency percentiles come from an in-process *twin*: the
//! same feed through `Server` with the same configuration. The twin is
//! also the correctness gate — its cycles, completions and throughput
//! must equal what the child printed.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

use mp5_compiler::CompiledProgram;
use mp5_core::{RunReport, SwitchConfig};
use mp5_faults::NoFaults;
use mp5_serve::Server;
use mp5_trace::NopSink;
use mp5_types::Packet;

use super::{
    app_trace, fnv_words, gate, layer_err, streamed_switch_metrics, Params, Rep, Workload,
};
use crate::drive::{sim_metrics, stream, Egress, Laps};
use crate::error::BenchError;
use crate::harness;
use crate::metrics::Metrics;
use crate::probes::{self, packet_line, ProbeInput};
use crate::span::Tracer;

const PIPELINES: usize = 8;
const APP: &str = "heavy_hitter";

/// The in-process twin's report and its simulated results.
type Twin = (RunReport, Vec<(&'static str, f64)>);

pub struct ServeStdin {
    name: &'static str,
    prog: CompiledProgram,
    packets: Vec<Packet>,
    bin: PathBuf,
    feed: PathBuf,
    feed_bytes: u64,
    /// Report and simulated results of the in-process twin; filled by
    /// `prepare`, outside `setup_s`.
    twin: Option<Twin>,
    /// Peak resident set of one child over the full feed; filled by
    /// `prepare`.
    child_rss_kb: u64,
}

/// What `mp5serve` printed on its `done:` line.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildSummary {
    pub throughput: f64,
    pub completed: u64,
    pub offered: u64,
    pub egressed: u64,
    pub cycles: u64,
}

/// Parses `done: throughput 0.997 of line rate, completed 100/100,
/// egressed 100, 0 checkpoint(s), 431 cycle(s)`.
pub(crate) fn parse_done_line(stdout: &str) -> Option<ChildSummary> {
    let line = stdout.lines().rev().find(|l| l.starts_with("done:"))?;
    let after = |key: &str| -> Option<&str> {
        let rest = &line[line.find(key)? + key.len()..];
        Some(rest.trim_start())
    };
    let num = |s: &str| -> Option<u64> {
        let end = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
        s[..end].parse().ok()
    };
    let throughput = after("throughput")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    let done = after("completed")?;
    let (completed, offered) = done.split_once('/')?;
    let cycles_at = line.rfind(" cycle(s)")?;
    let cycles = line[..cycles_at].rsplit(' ').next()?.parse().ok()?;
    Some(ChildSummary {
        throughput,
        completed: completed.parse().ok()?,
        offered: num(offered)?,
        egressed: num(after("egressed")?)?,
        cycles,
    })
}

fn write_feed(path: &PathBuf, packets: &[Packet]) -> Result<u64, BenchError> {
    let file = File::create(path).map_err(|e| BenchError::io(path, e))?;
    let mut w = BufWriter::new(file);
    let mut bytes = 0u64;
    for p in packets {
        let line = packet_line(p);
        w.write_all(line.as_bytes())
            .and_then(|_| w.write_all(b"\n"))
            .map_err(|e| BenchError::io(path, e))?;
        bytes += line.len() as u64 + 1;
    }
    w.flush().map_err(|e| BenchError::io(path, e))?;
    Ok(bytes)
}

fn run_twin(
    name: &'static str,
    packets: &[Packet],
    tr: &mut Tracer,
) -> Result<(RunReport, Egress), BenchError> {
    let mut server: Server<NopSink, NoFaults> = tr
        .span("core.new", |_| {
            Server::new(
                mp5_apps::HEAVY_HITTER.source,
                SwitchConfig::mp5(PIPELINES),
                NopSink,
                None,
            )
        })
        .map_err(layer_err(name, "Server::new"))?;
    let egress = stream(
        &mut server,
        packets.to_vec(),
        PIPELINES,
        tr,
        &mut Laps::start(),
        |_, _, _| Ok(()),
    )?;
    let (report, _) = tr.span("core.finish", |_| server.finish());
    Ok((report, egress))
}

impl ServeStdin {
    fn twin(&self) -> Result<&Twin, BenchError> {
        self.twin.as_ref().ok_or(BenchError::Layer {
            workload: self.name,
            call: "prepare",
            detail: "the in-process twin has not run".into(),
        })
    }

    fn command(&self, feed: &PathBuf) -> Result<Command, BenchError> {
        let stdin = File::open(feed).map_err(|e| BenchError::io(feed, e))?;
        let mut cmd = Command::new(&self.bin);
        cmd.args([
            "--app",
            APP,
            "--pipelines",
            &PIPELINES.to_string(),
            "--stdin",
        ])
        .stdin(Stdio::from(stdin));
        Ok(cmd)
    }

    fn child_err(&self, e: std::io::Error) -> BenchError {
        BenchError::Child {
            what: self.bin.display().to_string(),
            detail: e.to_string(),
        }
    }

    /// One untimed child over the full feed, its `VmHWM` polled until
    /// it exits. (`getrusage(RUSAGE_CHILDREN)` will not do: a spawned
    /// child's `ru_maxrss` starts from its parent's peak.)
    fn measure_child_rss(&self) -> Result<u64, BenchError> {
        let mut child = self
            .command(&self.feed)?
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| self.child_err(e))?;
        let mut peak = 0;
        while child.try_wait().map_err(|e| self.child_err(e))?.is_none() {
            peak = peak.max(harness::peak_rss_kb_of(child.id()).unwrap_or(0));
            std::thread::sleep(std::time::Duration::from_micros(500));
        }
        gate(self.name, "child-rss-read", peak > 0, || {
            "the child exited before its VmHWM could be read".into()
        })?;
        Ok(peak)
    }

    /// Spawns one `mp5serve` over `feed`, waits for it, and returns its
    /// summary with the spawn→exit time.
    fn spawn(&self, feed: &PathBuf, tr: &mut Tracer) -> Result<(ChildSummary, f64), BenchError> {
        let mut cmd = self.command(feed)?;
        let span = tr.begin("serve.child");
        let t0 = Instant::now();
        let out = cmd
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .output()
            .map_err(|e| self.child_err(e))?;
        let secs = t0.elapsed().as_secs_f64();
        tr.end(span);
        gate(self.name, "child-exit-0", out.status.success(), || {
            format!(
                "mp5serve exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            )
        })?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let summary = parse_done_line(&stdout).ok_or_else(|| BenchError::Gate {
            workload: self.name,
            gate: "child-summary-line",
            detail: format!("no parsable `done:` line in: {}", stdout.trim()),
        })?;
        Ok((summary, secs))
    }
}

impl ServeStdin {
    /// Program, packets and width the unit-cost probes replay.
    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            prog: &self.prog,
            source: mp5_apps::HEAVY_HITTER.source,
            packets: &self.packets,
            pipelines: PIPELINES,
        }
    }
}

impl Workload for ServeStdin {
    type Detail = ChildSummary;

    fn setup(name: &'static str, p: &Params, tr: &mut Tracer) -> Result<Self, BenchError> {
        let bin = harness::mp5serve_path()?;
        let app = mp5_apps::HEAVY_HITTER;
        let prog = tr
            .span("compiler.compile", |_| app.compile())
            .map_err(layer_err(name, "compile"))?;
        let n = p.scaled(5_000, 1_000);
        let packets = tr.span("traffic.gen", |_| app_trace(&app, &prog, n, p.seed));
        let dir = harness::scratch_dir()?;
        let feed = dir.join("feed.jsonl");
        let feed_bytes = tr.span("traffic.write_feed", |_| write_feed(&feed, &packets))?;
        Ok(ServeStdin {
            name,
            prog,
            packets,
            bin,
            feed,
            feed_bytes,
            twin: None,
            child_rss_kb: 0,
        })
    }

    /// The twin, and in place of a warm-up rep (every rep is a fresh
    /// process; only the feed's pages can be warm) the child whose
    /// memory is measured.
    fn prepare(&mut self, tr: &mut Tracer) -> Result<(), BenchError> {
        let (report, mut egress) =
            tr.span("serve.twin", |tr| run_twin(self.name, &self.packets, tr))?;
        let sim = sim_metrics(&report, &mut egress);
        self.twin = Some((report, sim));
        self.child_rss_kb = self.measure_child_rss()?;
        Ok(())
    }

    fn peak_rss_kb(&self) -> Result<u64, BenchError> {
        Ok(self.child_rss_kb)
    }

    fn rep(&self, tr: &mut Tracer) -> Result<Rep<ChildSummary>, BenchError> {
        let rep_span = tr.begin("bench.rep");
        let (child, secs) = self.spawn(&self.feed, tr)?;
        tr.end(rep_span);
        let mut sim = self.twin()?.1.clone();
        for (name, v) in &mut sim {
            // What the child itself reported wins over the twin.
            match *name {
                "sim_norm_throughput" => *v = child.throughput,
                "sim_delivered_frac" => *v = child.completed as f64 / child.offered.max(1) as f64,
                _ => {}
            }
        }
        Ok(Rep {
            // A child process is opaque: the rep is one piece.
            pieces: vec![secs],
            attempted: child.offered,
            completed: child.completed,
            sim,
            fingerprint: fnv_words([child.completed, child.offered, child.egressed, child.cycles]),
            detail: child,
        })
    }

    fn gates(&self, rep: &Rep<ChildSummary>) -> Result<(), BenchError> {
        let child = &rep.detail;
        let n = self.packets.len() as u64;
        gate(
            self.name,
            "completed-n-of-n",
            child.completed == n && child.offered == n && child.egressed == n,
            || format!("fed {n} lines; child reports {child:?}"),
        )?;
        let twin = &self.twin()?.0;
        gate(
            self.name,
            "child-equals-in-process-twin",
            child.cycles == twin.cycles
                && child.completed == twin.completed
                && (child.throughput - twin.normalized_throughput()).abs() < 5e-4,
            || {
                format!(
                    "child {child:?}; twin cycles {} completed {} throughput {:.4}",
                    twin.cycles,
                    twin.completed,
                    twin.normalized_throughput()
                )
            },
        )?;
        super::switch::switch_gates(
            self.name,
            &self.prog,
            &SwitchConfig::mp5(PIPELINES).with_record_detail(false),
            &self.packets,
            twin,
        )
    }

    fn layer_metrics(
        &self,
        tr: &mut Tracer,
        traced_reps: u64,
        _rep: &Rep<ChildSummary>,
        m: &mut Metrics,
    ) -> Result<(), BenchError> {
        let n = self.packets.len().max(1) as f64;
        // The switch's own share of the child's time, from the twin
        // that ran once during the traced set-up.
        let twin = &self.twin()?.0;
        streamed_switch_metrics(tr, 1, self.packets.len(), twin, m);
        // Process start-up: the same binary fed an empty stdin.
        let empty = self.feed.with_file_name("feed-empty.jsonl");
        File::create(&empty).map_err(|e| BenchError::io(&empty, e))?;
        let mut starts = Vec::new();
        for _ in 0..5 {
            let span = tr.begin("serve.proc_start");
            let t = Instant::now();
            let mut cmd = self.command(&empty)?;
            let status = cmd
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .status()
                .map_err(|e| self.child_err(e))?;
            starts.push(t.elapsed().as_secs_f64() * 1e3);
            tr.end(span);
            std::hint::black_box(status);
        }
        m.set(
            "serve.proc_start_ms",
            crate::stats::median(&starts).unwrap_or(0.0),
        );
        probes::switch_probes(&self.probe_input(), twin.max_queue_depth, tr, m);
        probes::ingest_probe(&self.probe_input(), tr, m);
        // Ingest estimate: parse cost × lines, as a share of the child.
        let child_ns = tr.span_total_ns("serve.child") as f64 / traced_reps.max(1) as f64;
        let parse_ns = m.get("serve.parse_ns_per_pkt").unwrap_or(0.0) * n;
        m.set("serve.ingest_share_est", parse_ns / child_ns.max(1.0));
        m.set("traffic.jsonl_bytes_per_pkt", self.feed_bytes as f64 / n);
        let cfg = SwitchConfig::mp5(PIPELINES);
        super::switch::finish_core_estimates(twin, &self.prog, &cfg, tr, 1, m);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn done_line_parses() {
        let out = "serving 'heavy_hitter' on k=8 pipelines\ningest: 100 packet(s) offered\n\
                   done: throughput 0.997 of line rate, completed 100/100, egressed 100, \
                   0 checkpoint(s), 431 cycle(s)\n";
        assert_eq!(
            parse_done_line(out),
            Some(ChildSummary {
                throughput: 0.997,
                completed: 100,
                offered: 100,
                egressed: 100,
                cycles: 431
            })
        );
        assert_eq!(parse_done_line("mp5serve: packet feed line 3: EOF"), None);
    }

    #[test]
    fn gate_fires_on_a_dropped_packet_line() {
        crate::tests::ensure_mp5serve();
        let p = Params {
            seed: 3,
            quick: true,
        };
        let off = &mut Tracer::new(false);
        let mut wl = ServeStdin::setup("serve-stdin", &p, off).unwrap();
        wl.prepare(off).unwrap();
        let rep = wl.rep(off).unwrap();
        wl.gates(&rep).expect("an honest run passes");

        // Lose the feed's first line on the way to the child.
        let text = std::fs::read_to_string(&wl.feed).unwrap();
        let (_, rest) = text.split_once('\n').unwrap();
        std::fs::write(&wl.feed, rest).unwrap();
        let rep = wl.rep(off).unwrap();
        assert_eq!(rep.detail.offered as usize, wl.packets.len() - 1);
        assert!(matches!(
            wl.gates(&rep),
            Err(BenchError::Gate {
                gate: "completed-n-of-n",
                ..
            })
        ));

        // A line that is not a packet: the child exits non-zero.
        std::fs::write(&wl.feed, "{\"id\": 1}\n").unwrap();
        assert!(matches!(
            wl.rep(off),
            Err(BenchError::Gate {
                gate: "child-exit-0",
                ..
            })
        ));
    }
}
