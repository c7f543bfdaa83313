//! `traced-audit`: `conga` on `mp5(4)` recording every event into a
//! `MemSink`, then the whole observability chain over that stream —
//! `Event::to_jsonl`, `read_jsonl`, `audit`, `stream_hash`,
//! `Rollup::from_events`. It exists for the `mp5-trace` layer: emission
//! cost, the JSONL codec and the offline auditor.

use std::time::Instant;

use mp5_compiler::CompiledProgram;
use mp5_core::{Mp5Switch, RunReport, SwitchConfig};
use mp5_trace::{audit, read_jsonl, stream_hash, Event, MemSink, Rollup};
use mp5_types::Packet;

use super::{app_trace, gate, layer_err, streamed_switch_metrics, Params, Rep, Workload};
use crate::drive::{sim_metrics, stream, Laps};
use crate::error::BenchError;
use crate::metrics::Metrics;
use crate::probes::{self, ProbeInput};
use crate::span::Tracer;

const PIPELINES: usize = 4;

pub struct TracedAudit {
    name: &'static str,
    prog: CompiledProgram,
    cfg: SwitchConfig,
    packets: Vec<Packet>,
}

pub struct AuditDetail {
    pub report: RunReport,
    pub events: u64,
    pub jsonl_bytes: u64,
    pub rollup: Rollup,
}

/// Events per timed piece of the encode and decode phases.
const EVENTS_PER_PIECE: usize = 4096;

/// Serialises a stream the way `JsonlSink` and `mp5serve --trace` do:
/// one `to_jsonl` line per event. Every `EVENTS_PER_PIECE` events are
/// one timed piece; the second result is where each piece's text ends,
/// so that decoding can be timed in the same pieces.
pub(crate) fn encode_jsonl(events: &[Event], laps: &mut Laps) -> (String, Vec<usize>) {
    let mut out = String::with_capacity(events.len() * 80);
    let mut ends = Vec::with_capacity(events.len() / EVENTS_PER_PIECE + 1);
    for piece in events.chunks(EVENTS_PER_PIECE) {
        for ev in piece {
            out.push_str(&ev.to_jsonl());
            out.push('\n');
        }
        ends.push(out.len());
        laps.lap();
    }
    (out, ends)
}

/// The offline half of the chain, over an encoded stream: read it
/// back (piece by piece, `ends` being where each piece of `jsonl`
/// ends), audit it, hash it, roll it up. Its three gates fire here:
/// the text must parse, the auditor must find nothing, and the stream
/// must hash to what it hashed to before it was encoded.
pub(crate) fn observe(
    name: &'static str,
    jsonl: &str,
    ends: &[usize],
    hash_before: u64,
    tr: &mut Tracer,
    laps: &mut Laps,
) -> Result<(u64, Rollup), BenchError> {
    let back = tr
        .span("trace.decode", |_| {
            let mut back = Vec::new();
            let mut start = 0;
            for &end in ends {
                back.extend(read_jsonl(&jsonl.as_bytes()[start..end])?);
                start = end;
                laps.lap();
            }
            Ok(back)
        })
        .map_err(|e: mp5_trace::ReadError| BenchError::Gate {
            workload: name,
            gate: "jsonl-reads-back",
            detail: e.to_string(),
        })?;
    let audited = tr.span("trace.audit", |_| audit(&back));
    gate(name, "audit-clean", audited.is_clean(), || {
        format!("{} invariant violation(s)", audited.total_violations())
    })?;
    laps.lap();
    let hash_after = tr.span("trace.hash", |_| stream_hash(&back));
    gate(
        name,
        "stream-hash-survives-jsonl",
        hash_after == hash_before,
        || format!("stream_hash {hash_before:016x} before, {hash_after:016x} after the round trip"),
    )?;
    laps.lap();
    let rollup = tr.span("trace.rollup", |_| Rollup::from_events(&back));
    Ok((hash_after, rollup))
}

impl TracedAudit {
    /// Program, packets and width the unit-cost probes replay.
    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            prog: &self.prog,
            source: mp5_apps::CONGA.source,
            packets: &self.packets,
            pipelines: PIPELINES,
        }
    }
}

impl Workload for TracedAudit {
    type Detail = AuditDetail;

    fn setup(name: &'static str, p: &Params, tr: &mut Tracer) -> Result<Self, BenchError> {
        let app = mp5_apps::CONGA;
        let prog = tr
            .span("compiler.compile", |_| app.compile())
            .map_err(layer_err(name, "compile"))?;
        let n = p.scaled(12_000, 500);
        let packets = tr.span("traffic.gen", |_| app_trace(&app, &prog, n, p.seed));
        Ok(TracedAudit {
            name,
            prog,
            cfg: SwitchConfig::mp5(PIPELINES),
            packets,
        })
    }

    fn rep(&self, tr: &mut Tracer) -> Result<Rep<AuditDetail>, BenchError> {
        let input = self.packets.clone();
        let mut sw = tr
            .span("core.new", |_| {
                Mp5Switch::try_with_sink(self.prog.clone(), self.cfg.clone(), MemSink::new())
            })
            .map_err(layer_err(self.name, "Mp5Switch::try_with_sink"))?;

        let rep_span = tr.begin("bench.rep");
        let mut laps = Laps::start();
        let run_span = tr.begin("trace.run");
        let mut egress = stream(&mut sw, input, PIPELINES, tr, &mut laps, |_, _, _| Ok(()))?;
        let (report, sink) = tr.span("core.finish", |_| sw.finish_stream());
        tr.end(run_span);
        let events = sink.into_events();
        laps.lap();
        let hash_before = tr.span("trace.hash", |_| stream_hash(&events));
        laps.lap();
        let (jsonl, ends) = tr.span("trace.encode", |_| encode_jsonl(&events, &mut laps));
        let (hash_after, rollup) = observe(self.name, &jsonl, &ends, hash_before, tr, &mut laps)?;
        let pieces = laps.finish();
        tr.end(rep_span);

        Ok(Rep {
            pieces,
            attempted: report.offered,
            completed: report.completed,
            sim: sim_metrics(&report, &mut egress),
            fingerprint: hash_after,
            detail: AuditDetail {
                report,
                events: events.len() as u64,
                jsonl_bytes: jsonl.len() as u64,
                rollup,
            },
        })
    }

    fn gates(&self, rep: &Rep<AuditDetail>) -> Result<(), BenchError> {
        super::switch::switch_gates(
            self.name,
            &self.prog,
            &self.cfg.clone().with_record_detail(false),
            &self.packets,
            &rep.detail.report,
        )
    }

    fn layer_metrics(
        &self,
        tr: &mut Tracer,
        traced_reps: u64,
        rep: &Rep<AuditDetail>,
        m: &mut Metrics,
    ) -> Result<(), BenchError> {
        let d = &rep.detail;
        let report = &d.report;
        streamed_switch_metrics(tr, traced_reps, self.packets.len(), report, m);
        let events = (d.events * traced_reps).max(1) as f64;
        m.set(
            "trace.events_per_pkt",
            d.events as f64 / report.completed.max(1) as f64,
        );
        m.set(
            "trace.bytes_per_event",
            d.jsonl_bytes as f64 / d.events.max(1) as f64,
        );
        for (metric, span, calls) in [
            ("trace.encode_ns_per_event", "trace.encode", 1.0),
            ("trace.decode_ns_per_event", "trace.decode", 1.0),
            ("trace.audit_ns_per_event", "trace.audit", 1.0),
            // The stream is hashed twice per rep.
            ("trace.hash_ns_per_event", "trace.hash", 2.0),
            ("trace.rollup_ns_per_event", "trace.rollup", 1.0),
        ] {
            m.set(metric, tr.span_total_ns(span) as f64 / calls / events);
        }
        // The same packets through the same switch with the default
        // `NopSink`: what recording every event costs the run.
        // Both runs go through the same driver with its call timers on,
        // so the ratio compares sinks and nothing else.
        let traced_run_ns = tr.span_total_ns("trace.run") as f64 / traced_reps.max(1) as f64;
        let mut plain = Mp5Switch::try_new(self.prog.clone(), self.cfg.clone())
            .map_err(layer_err(self.name, "Mp5Switch::try_new"))?;
        let input = self.packets.clone();
        let span = tr.begin("trace.untraced_run");
        let t = Instant::now();
        stream(
            &mut plain,
            input,
            PIPELINES,
            &mut Tracer::new(true),
            &mut Laps::start(),
            |_, _, _| Ok(()),
        )?;
        std::hint::black_box(plain.finish_stream().0.completed);
        let plain_ns = t.elapsed().as_nanos() as f64;
        tr.end(span);
        m.set(
            "trace.memsink_overhead_ratio",
            traced_run_ns / plain_ns.max(1.0),
        );
        let (p50, p99) = probes::queue_wait_from_rollup(&d.rollup);
        probes::switch_probes(&self.probe_input(), report.max_queue_depth, tr, m);
        // This workload has the whole stream; prefer it to the probe's
        // prefix for the queue waits.
        m.set("fabric.queue_wait_p50_cycles", p50);
        m.set("fabric.queue_wait_p99_cycles", p99);
        super::switch::finish_core_estimates(report, &self.prog, &self.cfg, tr, traced_reps, m);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_gates_fire_on_truncated_jsonl() {
        let p = Params {
            seed: 3,
            quick: true,
        };
        let off = &mut Tracer::new(false);
        let wl = TracedAudit::setup("traced-audit", &p, off).unwrap();
        let (_, sink) = Mp5Switch::with_sink(wl.prog.clone(), wl.cfg.clone(), MemSink::new())
            .run_traced(wl.packets.clone());
        let events = sink.into_events();
        let laps = &mut Laps::start();
        let (jsonl, ends) = encode_jsonl(&events, laps);
        let hash = stream_hash(&events);
        observe("traced-audit", &jsonl, &ends, hash, off, laps).expect("the whole stream passes");

        // Cut in the middle of the last line: it no longer parses.
        let torn = &jsonl[..jsonl.len() - 10];
        assert!(matches!(
            observe("traced-audit", torn, &[torn.len()], hash, off, laps),
            Err(BenchError::Gate {
                gate: "jsonl-reads-back",
                ..
            })
        ));
        // Cut at a line boundary: every line parses, but events are
        // missing — the auditor or the stream hash notices.
        let lines: Vec<&str> = jsonl.lines().collect();
        let short = lines[..lines.len() - 200].join("\n");
        assert!(matches!(
            observe("traced-audit", &short, &[short.len()], hash, off, laps),
            Err(BenchError::Gate {
                gate: "audit-clean" | "stream-hash-survives-jsonl",
                ..
            })
        ));
    }
}
