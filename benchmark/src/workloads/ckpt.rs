//! `serve-ckpt`: a `Server` running `heavy_hitter` on `mp5(4)` that
//! checkpoints every 500 cycles — `checkpoint()`, `encode()`, and for
//! one in sixteen `write_atomic()` into a scratch directory — and
//! afterwards decodes and restores thirty of the retained snapshots. It exists for the
//! `MP5SNAP` codec and state extraction, which no other workload runs.

use std::path::PathBuf;
use std::time::Instant;

use mp5_compiler::CompiledProgram;
use mp5_core::{RunReport, SwitchConfig};
use mp5_faults::NoFaults;
use mp5_serve::{Server, Snapshot};
use mp5_trace::NopSink;
use mp5_types::Packet;

use super::{
    app_trace, gate, layer_err, regs_fingerprint, streamed_switch_metrics, Params, Rep, Workload,
};
use crate::drive::{sim_metrics, stream, Laps};
use crate::error::BenchError;
use crate::metrics::Metrics;
use crate::probes::{self, ProbeInput};
use crate::span::Tracer;
use crate::stats::{highest_supported_percentile, quantile_sorted, Summary};

const PIPELINES: usize = 4;
const CHECKPOINT_EVERY: u64 = 500;
/// Snapshots decoded and restored per rep, spread evenly over the run:
/// enough that restore weighs about as much as checkpointing and the
/// switch run together, not so many that the rep is only a decoder test.
const RESTORES: usize = 30;
/// One checkpoint in this many is also written to disk. The fsync'd
/// write costs three times the checkpoint itself and is taken out of
/// the rep's time; writing every one would double the run's wall time
/// for a number (`serve.write_us_p50`) that the hundred or so writes
/// of a traced run give as well.
const WRITE_EVERY: usize = 16;

type Srv = Server<NopSink, NoFaults>;

pub struct ServeCkpt {
    name: &'static str,
    prog: CompiledProgram,
    cfg: SwitchConfig,
    packets: Vec<Packet>,
    /// Scratch directory for `write_atomic`, inside the checkout.
    dir: PathBuf,
}

pub struct CkptDetail {
    pub report: RunReport,
    /// Every encoded checkpoint of the rep, in order, with the number
    /// of packets that had been offered when it was taken (the rest of
    /// the input is what a resumed run must still be fed).
    pub snapshots: Vec<(String, usize)>,
}

fn source() -> &'static str {
    mp5_apps::HEAVY_HITTER.source
}

impl ServeCkpt {
    fn new_server(&self) -> Result<Srv, BenchError> {
        Server::new(source(), self.cfg.clone(), NopSink, None)
            .map_err(layer_err(self.name, "Server::new"))
    }

    fn restore(&self, text: &str, tr: &mut Tracer) -> Result<Srv, BenchError> {
        let snap = tr
            .span("serve.decode", |_| Snapshot::decode(text))
            .map_err(layer_err(self.name, "Snapshot::decode"))?;
        tr.span("serve.restore", |_| {
            Server::restore(snap, NopSink, None, None)
        })
        .map_err(layer_err(self.name, "Server::restore"))
    }
}

/// `count` indexes spread evenly over `0..len`.
fn evenly(len: usize, count: usize) -> Vec<usize> {
    let count = count.min(len);
    (0..count).map(|i| i * len / count).collect()
}

impl ServeCkpt {
    /// Program, packets and width the unit-cost probes replay.
    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            prog: &self.prog,
            source: source(),
            packets: &self.packets,
            pipelines: PIPELINES,
        }
    }
}

impl Workload for ServeCkpt {
    type Detail = CkptDetail;

    fn setup(name: &'static str, p: &Params, tr: &mut Tracer) -> Result<Self, BenchError> {
        let app = mp5_apps::HEAVY_HITTER;
        let prog = tr
            .span("compiler.compile", |_| app.compile())
            .map_err(layer_err(name, "compile"))?;
        let n = p.scaled(30_000, 1_000);
        let packets = tr.span("traffic.gen", |_| app_trace(&app, &prog, n, p.seed));
        let dir = crate::harness::scratch_dir()?;
        Ok(ServeCkpt {
            name,
            prog,
            // Detail off: with it on, every snapshot carries the outputs
            // of every packet completed so far and grows with the run.
            cfg: SwitchConfig::mp5(PIPELINES).with_record_detail(false),
            packets,
            dir,
        })
    }

    fn rep(&self, tr: &mut Tracer) -> Result<Rep<CkptDetail>, BenchError> {
        let input = self.packets.clone();
        let mut server = tr.span("core.new", |_| self.new_server())?;
        let path = self.dir.join("last.snap");
        let mut snapshots: Vec<(String, usize)> = Vec::new();
        let name = self.name;

        let rep_span = tr.begin("bench.rep");
        let mut laps = Laps::start();
        let mut egress = stream(
            &mut server,
            input,
            PIPELINES,
            tr,
            &mut laps,
            |srv, tr, laps| {
                let cycle = srv.cycle();
                if cycle == 0 || !cycle.is_multiple_of(CHECKPOINT_EVERY) {
                    return Ok(());
                }
                let ckpt = tr.begin("serve.ckpt");
                let snap = tr.span("serve.extract", |_| srv.checkpoint());
                let text = tr.span("serve.encode", |_| snap.encode());
                tr.end(ckpt);
                if snapshots.len().is_multiple_of(WRITE_EVERY) {
                    // The fsync'd write is disk noise, not the program: it
                    // is timed on its own (`serve.write_us_p50`) and taken
                    // out of the rep.
                    let t = Instant::now();
                    tr.span("serve.write", |_| snap.write_atomic(&path))
                        .map_err(layer_err(name, "Snapshot::write_atomic"))?;
                    laps.exclude(t.elapsed());
                }
                snapshots.push((text, srv.live_report().offered as usize));
                Ok(())
            },
        )?;
        let (report, _) = tr.span("core.finish", |_| server.finish());
        for i in evenly(snapshots.len(), RESTORES) {
            laps.lap();
            let restored = tr.span("serve.decode_restore", |tr| {
                self.restore(&snapshots[i].0, tr)
            })?;
            std::hint::black_box(restored.cycle());
        }
        let pieces = laps.finish();
        tr.end(rep_span);

        Ok(Rep {
            pieces,
            attempted: report.offered,
            completed: report.completed,
            sim: sim_metrics(&report, &mut egress),
            fingerprint: regs_fingerprint(&report.result.final_regs),
            detail: CkptDetail { report, snapshots },
        })
    }

    fn gates(&self, rep: &Rep<CkptDetail>) -> Result<(), BenchError> {
        let d = &rep.detail;
        super::switch::switch_gates(self.name, &self.prog, &self.cfg, &self.packets, &d.report)?;
        gate(
            self.name,
            "checkpoints-taken",
            !d.snapshots.is_empty(),
            || "the run took no checkpoint".into(),
        )?;
        // A snapshot from the middle of the run, restored and run to
        // completion, must end exactly where the uninterrupted run did.
        let (mid, offered) = &d.snapshots[d.snapshots.len() / 2];
        check_restore(self.name, mid, &self.packets[*offered..], &d.report)
    }

    fn layer_metrics(
        &self,
        tr: &mut Tracer,
        traced_reps: u64,
        rep: &Rep<CkptDetail>,
        m: &mut Metrics,
    ) -> Result<(), BenchError> {
        let report = &rep.detail.report;
        streamed_switch_metrics(tr, traced_reps, self.packets.len(), report, m);
        let p50_us = |tr: &Tracer, span: &str| percentile_us(&tr.span_durations_ns(span), 50.0);
        m.set("serve.extract_us_p50", p50_us(tr, "serve.extract"));
        m.set("serve.encode_us_p50", p50_us(tr, "serve.encode"));
        m.set("serve.write_us_p50", p50_us(tr, "serve.write"));
        m.set("serve.decode_us_p50", p50_us(tr, "serve.decode"));
        m.set("serve.restore_us_p50", p50_us(tr, "serve.restore"));
        // The two bounded metrics: the median of each traced rep as one
        // sample, so that the metric is the quietest rep's median and
        // `--compare` sees how far the reps behind it agree.
        let reps = traced_reps.max(1) as usize;
        let per_rep_p50 = |durations: &[u64], scale: f64| {
            let per_rep = (durations.len() / reps).max(1);
            let p50s: Vec<f64> = durations
                .chunks(per_rep)
                .map(|rep| percentile_us(rep, 50.0) / scale)
                .collect();
            Summary::of(&p50s).unwrap_or(Summary::exact(0.0))
        };
        let ckpt = tr.span_durations_ns("serve.ckpt");
        m.set_summary("serve.ckpt_p50_us", per_rep_p50(&ckpt, 1.0));
        // Catalogued as p99; a sample too small for p99 reports the
        // highest percentile it supports.
        let tail = highest_supported_percentile(ckpt.len())
            .unwrap_or(50.0)
            .min(99.0);
        m.set("serve.ckpt_p99_us", percentile_us(&ckpt, tail));
        m.set_summary(
            "serve.restore_p50_ms",
            per_rep_p50(&tr.span_durations_ns("serve.decode_restore"), 1e3),
        );
        let bytes: usize = rep.detail.snapshots.iter().map(|(s, _)| s.len()).sum();
        m.set(
            "serve.snapshot_bytes",
            bytes as f64 / rep.detail.snapshots.len().max(1) as f64,
        );
        let rep_ns = tr.span_total_ns("bench.rep") - tr.span_total_ns("serve.write");
        m.set(
            "serve.ckpt_time_share",
            tr.span_total_ns("serve.ckpt") as f64 / rep_ns.max(1) as f64,
        );
        probes::switch_probes(&self.probe_input(), report.max_queue_depth, tr, m);
        super::switch::finish_core_estimates(report, &self.prog, &self.cfg, tr, traced_reps, m);
        Ok(())
    }
}

fn percentile_us(durations_ns: &[u64], p: f64) -> f64 {
    if durations_ns.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = durations_ns.iter().map(|&d| d as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, p / 100.0)
}

/// The restore gate: `text` must survive `encode(decode(x)) == x`, and
/// the server restored from it and fed the `rest` of the input must
/// finish with exactly `uninterrupted`.
pub(crate) fn check_restore(
    name: &'static str,
    text: &str,
    rest: &[Packet],
    uninterrupted: &RunReport,
) -> Result<(), BenchError> {
    let snap = Snapshot::decode(text).map_err(|e| BenchError::Gate {
        workload: name,
        gate: "snapshot-decodes",
        detail: e.to_string(),
    })?;
    gate(
        name,
        "encode-decode-roundtrip",
        snap.encode() == text,
        || "encode(decode(x)) != x".into(),
    )?;
    let mut server: Srv =
        Server::restore(snap, NopSink, None, None).map_err(layer_err(name, "Server::restore"))?;
    stream(
        &mut server,
        rest.to_vec(),
        PIPELINES,
        &mut Tracer::new(false),
        &mut Laps::start(),
        |_, _, _| Ok(()),
    )?;
    let (resumed, _) = server.finish();
    gate(
        name,
        "restored-run-equals-uninterrupted",
        &resumed == uninterrupted,
        || {
            format!(
            "resumed run ended at cycle {} with {} completed; uninterrupted: cycle {}, {} completed",
            resumed.cycles, resumed.completed, uninterrupted.cycles, uninterrupted.completed
        )
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evenly_spreads_and_clamps() {
        assert_eq!(evenly(100, 4), vec![0, 25, 50, 75]);
        assert_eq!(evenly(3, 30), vec![0, 1, 2]);
        assert!(evenly(0, 30).is_empty());
    }

    #[test]
    fn restore_gate_fires_on_a_flipped_byte_and_on_a_lost_packet() {
        let p = Params {
            seed: 3,
            quick: true,
        };
        let off = &mut Tracer::new(false);
        let wl = ServeCkpt::setup("serve-ckpt", &p, off).unwrap();
        let rep = wl.rep(off).unwrap();
        wl.gates(&rep).expect("an honest run passes");
        let (text, offered) = &rep.detail.snapshots[rep.detail.snapshots.len() / 2];
        let rest = &wl.packets[*offered..];

        // One flipped bit in the middle of the state section: the
        // checksum catches it before anything is parsed.
        let mut bytes = text.clone().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(matches!(
            check_restore("serve-ckpt", &flipped, rest, &rep.detail.report),
            Err(BenchError::Gate {
                gate: "snapshot-decodes",
                ..
            })
        ));

        // An intact snapshot resumed without one of the remaining
        // packets does not end where the uninterrupted run did.
        assert!(rest.len() > 1);
        assert!(matches!(
            check_restore("serve-ckpt", text, &rest[1..], &rep.detail.report),
            Err(BenchError::Gate {
                gate: "restored-run-equals-uninterrupted",
                ..
            })
        ));
    }
}
