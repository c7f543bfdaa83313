//! The three single-switch workloads: `dc-flowlet` (§4.4 light load),
//! `minpkt-uniform` and `minpkt-hot1` (§4.3 saturated 64 B packets,
//! many shallow queues vs one deep one). All run `SwitchConfig::mp5(8)`
//! on the default execution path, streamed through `drive::stream`.

use mp5_banzai::BanzaiSwitch;
use mp5_compiler::CompiledProgram;
use mp5_core::{Mp5Switch, RunReport, SwitchConfig};
use mp5_sim::synth::{synthetic_compiled, synthetic_program, synthetic_trace, SynthConfig};
use mp5_traffic::AccessPattern;
use mp5_types::Packet;

use super::{
    app_trace, gate, layer_err, regs_fingerprint, streamed_switch_metrics, Params, Rep, Workload,
};
use crate::drive::{sim_metrics, stream, Laps};
use crate::error::BenchError;
use crate::metrics::Metrics;
use crate::probes::{self, ProbeInput};
use crate::span::Tracer;

const PIPELINES: usize = 8;
/// Packets of the detail-on equivalence prefix.
const PREFIX: usize = 20_000;

pub struct SwitchWl {
    name: &'static str,
    source: String,
    prog: CompiledProgram,
    cfg: SwitchConfig,
    packets: Vec<Packet>,
}

impl SwitchWl {
    /// Program, packets and width the unit-cost probes replay.
    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            prog: &self.prog,
            source: &self.source,
            packets: &self.packets,
            pipelines: PIPELINES,
        }
    }
}

impl Workload for SwitchWl {
    type Detail = RunReport;

    fn setup(name: &'static str, p: &Params, tr: &mut Tracer) -> Result<Self, BenchError> {
        let (source, prog, packets) = match name {
            "dc-flowlet" => {
                let app = mp5_apps::FLOWLET;
                let prog = tr
                    .span("compiler.compile", |_| app.compile())
                    .map_err(layer_err(name, "compile"))?;
                let n = p.scaled(100_000, 2_000);
                let packets = tr.span("traffic.gen", |_| app_trace(&app, &prog, n, p.seed));
                (app.source.to_string(), prog, packets)
            }
            "minpkt-uniform" | "minpkt-hot1" => {
                let (reg_size, full) = if name == "minpkt-uniform" {
                    (512, 60_000)
                } else {
                    (1, 30_000)
                };
                let prog = tr
                    .span("compiler.compile", |_| synthetic_compiled(4, reg_size))
                    .map_err(layer_err(name, "compile"))?;
                let synth = SynthConfig {
                    pipelines: PIPELINES,
                    stateful_stages: 4,
                    reg_size,
                    packet_size: 64,
                    packets: p.scaled(full, 2_000),
                    pattern: AccessPattern::Uniform,
                    seed: p.seed,
                };
                let packets = tr.span("traffic.gen", |_| synthetic_trace(&prog, &synth));
                (synthetic_program(4, reg_size), prog, packets)
            }
            other => unreachable!("{other} is not a single-switch workload"),
        };
        let cfg = SwitchConfig::mp5(PIPELINES).with_record_detail(false);
        cfg.validate()
            .map_err(layer_err(name, "SwitchConfig::validate"))?;
        Ok(SwitchWl {
            name,
            source,
            prog,
            cfg,
            packets,
        })
    }

    fn rep(&self, tr: &mut Tracer) -> Result<Rep<RunReport>, BenchError> {
        let input = self.packets.clone();
        let mut sw = tr
            .span("core.new", |_| {
                Mp5Switch::try_new(self.prog.clone(), self.cfg.clone())
            })
            .map_err(layer_err(self.name, "Mp5Switch::try_new"))?;
        let rep_span = tr.begin("bench.rep");
        let mut laps = Laps::start();
        let mut egress = stream(&mut sw, input, PIPELINES, tr, &mut laps, |_, _, _| Ok(()))?;
        let (report, _) = tr.span("core.finish", |_| sw.finish_stream());
        let pieces = laps.finish();
        tr.end(rep_span);
        gate(
            self.name,
            "egress-count",
            egress.drained == report.completed,
            || {
                format!(
                    "drained {} != completed {}",
                    egress.drained, report.completed
                )
            },
        )?;
        Ok(Rep {
            pieces,
            attempted: report.offered,
            completed: report.completed,
            sim: sim_metrics(&report, &mut egress),
            fingerprint: regs_fingerprint(&report.result.final_regs),
            detail: report,
        })
    }

    fn gates(&self, rep: &Rep<RunReport>) -> Result<(), BenchError> {
        switch_gates(self.name, &self.prog, &self.cfg, &self.packets, &rep.detail)
    }

    fn layer_metrics(
        &self,
        tr: &mut Tracer,
        traced_reps: u64,
        rep: &Rep<RunReport>,
        m: &mut Metrics,
    ) -> Result<(), BenchError> {
        let report = &rep.detail;
        streamed_switch_metrics(tr, traced_reps, self.packets.len(), report, m);
        probes::switch_probes(&self.probe_input(), report.max_queue_depth, tr, m);
        finish_core_estimates(report, &self.prog, &self.cfg, tr, traced_reps, m);
        Ok(())
    }
}

/// `core.overhead_vs_banzai` and the `est.*` shares, once the probes
/// and the core timings are in `m`.
pub(crate) fn finish_core_estimates(
    report: &RunReport,
    prog: &CompiledProgram,
    cfg: &SwitchConfig,
    tr: &Tracer,
    traced_reps: u64,
    m: &mut Metrics,
) {
    let banzai = m.get("banzai.ns_per_pkt").unwrap_or(0.0);
    if banzai > 0.0 {
        m.set(
            "core.overhead_vs_banzai",
            m.get("core.tick_ns_per_pkt").unwrap_or(0.0) / banzai,
        );
    }
    let tick_busy = tr.hist_sum_ns("core.tick") as f64 / traced_reps.max(1) as f64;
    probes::estimate_shares(report, prog, cfg.remap_period, tick_busy, m);
}

/// Gates shared by every workload that runs one `Mp5Switch`:
///
/// * every offered packet completed;
/// * the final register arrays equal the single-pipeline reference's
///   over the same trace;
/// * a prefix run with `record_detail` on is `equivalent_to` the
///   reference (registers, per-packet outputs, per-state access order
///   — functional equivalence plus C1), and the streamed run of that
///   prefix produces the very report the whole-trace `try_run` does.
pub(crate) fn switch_gates(
    name: &'static str,
    prog: &CompiledProgram,
    cfg: &SwitchConfig,
    packets: &[Packet],
    report: &RunReport,
) -> Result<(), BenchError> {
    gate(
        name,
        "completed-equals-offered",
        report.completed == report.offered,
        || {
            format!(
                "completed {} of {} offered",
                report.completed, report.offered
            )
        },
    )?;
    gate(name, "no-drops", report.drops.total_data() == 0, || {
        format!("{} data packets dropped", report.drops.total_data())
    })?;

    let mut reference = BanzaiSwitch::new(prog.clone());
    for p in packets {
        reference.process(&mut p.clone());
    }
    gate(
        name,
        "final-registers-equal-banzai",
        reference.regs() == report.result.final_regs.as_slice(),
        || "final register arrays differ from the single-pipeline reference".into(),
    )?;

    let prefix = &packets[..packets.len().min(PREFIX)];
    let detailed = cfg.clone().with_record_detail(true);
    let expect = BanzaiSwitch::new(prog.clone()).run(prefix.to_vec());
    let whole = Mp5Switch::try_new(prog.clone(), detailed.clone())
        .map_err(layer_err(name, "Mp5Switch::try_new"))?
        .try_run(prefix.to_vec())
        .map_err(layer_err(name, "Mp5Switch::try_run"))?;
    gate(
        name,
        "prefix-equivalent-to-banzai",
        whole.result.equivalent_to(&expect),
        || {
            format!(
                "{}-packet detailed prefix is not equivalent_to the reference",
                prefix.len()
            )
        },
    )?;
    let mut sw = Mp5Switch::try_new(prog.clone(), detailed)
        .map_err(layer_err(name, "Mp5Switch::try_new"))?;
    stream(
        &mut sw,
        prefix.to_vec(),
        cfg.pipelines,
        &mut Tracer::new(false),
        &mut Laps::start(),
        |_, _, _| Ok(()),
    )?;
    let (streamed, _) = sw.finish_stream();
    gate(name, "streamed-equals-try-run", streamed == whole, || {
        "streamed prefix report differs from the whole-trace try_run report".into()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_fire_on_a_wrong_register_and_on_a_lost_packet() {
        let p = Params {
            seed: 3,
            quick: true,
        };
        let off = &mut Tracer::new(false);
        let wl = SwitchWl::setup("minpkt-uniform", &p, off).unwrap();
        let mut rep = wl.rep(off).unwrap();
        wl.gates(&rep).expect("an honest run passes");

        rep.detail.result.final_regs[0][0] += 1;
        assert!(matches!(
            wl.gates(&rep),
            Err(BenchError::Gate {
                gate: "final-registers-equal-banzai",
                ..
            })
        ));
        rep.detail.result.final_regs[0][0] -= 1;
        rep.detail.completed -= 1;
        assert!(matches!(
            wl.gates(&rep),
            Err(BenchError::Gate {
                gate: "completed-equals-offered",
                ..
            })
        ));
    }
}
