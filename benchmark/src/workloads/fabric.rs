//! `fabric-dc`: a 4-leaf / 2-spine fabric of six `mp5(4)` switches with
//! hardware-sized FIFOs running `heavy_hitter`, fed web-search flows
//! between 8 hosts under per-flow ECMP. It exercises `mp5-topo` —
//! links, routing, the global cycle loop — over lightly loaded
//! switches, so a core-only gain should move it less than `dc-flowlet`
//! and a topo gain should move nothing else.

use std::time::Instant;

use mp5_compiler::CompiledProgram;
use mp5_core::SwitchConfig;
use mp5_topo::{Fabric, FabricConfig, FabricRun, Topology, TopologyConfig};
use mp5_trace::NopSink;
use mp5_traffic::{stream_rng, DcWorkload};
use mp5_types::{Packet, PacketId, PortId};

use super::{gate, layer_err, Params, Rep, Workload};
use crate::drive::Laps;
use crate::error::BenchError;
use crate::metrics::Metrics;
use crate::probes::{self, ProbeInput};
use crate::span::Tracer;

const PIPELINES: usize = 4;
const HOSTS: usize = 8;
/// Offered load per host NIC. At 0.2 no link queue overflowed on any
/// of the seeds tried (1-20), so no operation fails; at 0.3 a seed in
/// three loses a few dozen packets of 230 k to two elephants meeting
/// on one link. A drop is an operation that failed, not a wrong
/// output: it is counted, and only an open ledger fails the run.
const LOAD: f64 = 0.2;
/// Injected packets per timed piece of a rep.
const PACKETS_PER_PIECE: u64 = 64;

pub struct FabricDc {
    name: &'static str,
    prog: CompiledProgram,
    topo: Topology,
    cfg: FabricConfig,
    workload: DcWorkload,
    /// Duration of the input in byte-times (last arrival + one slot).
    input_bt: u64,
    /// The first injected packets as single-switch packets, for the
    /// unit-cost probes.
    probe_packets: Vec<Packet>,
}

impl FabricDc {
    fn run(&self, tr: &mut Tracer) -> Result<(FabricRun<NopSink>, Vec<f64>), BenchError> {
        let fabric = tr
            .span("topo.new", |_| {
                Fabric::new(self.topo.clone(), self.cfg.clone(), self.prog.clone())
            })
            .map_err(layer_err(self.name, "Fabric::new"))?;
        let fill = mp5_apps::HEAVY_HITTER.fill;
        let rep_span = tr.begin("bench.rep");
        let mut laps = Laps::start();
        // The workload stream is generated inline, inside the timed
        // region: that is how the fabric consumes it. `Fabric::run` is
        // one call; the packets it pulls from the stream as simulated
        // time advances mark its pieces.
        let mut pulled = 0u64;
        let stream = self.workload.stream().inspect(|_| {
            pulled += 1;
            if pulled.is_multiple_of(PACKETS_PER_PIECE) {
                laps.lap();
            }
        });
        let run = tr.span("topo.run", |_| {
            fabric.run(stream, |key, rng, fields| {
                fill(&self.prog, key, rng, fields)
            })
        });
        let pieces = laps.finish();
        tr.end(rep_span);
        Ok((run, pieces))
    }
}

impl FabricDc {
    /// Program, packets and width the unit-cost probes replay.
    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            prog: &self.prog,
            source: mp5_apps::HEAVY_HITTER.source,
            packets: &self.probe_packets,
            pipelines: PIPELINES,
        }
    }
}

impl Workload for FabricDc {
    type Detail = FabricRun<NopSink>;

    fn setup(name: &'static str, p: &Params, tr: &mut Tracer) -> Result<Self, BenchError> {
        let app = mp5_apps::HEAVY_HITTER;
        let prog = tr
            .span("compiler.compile", |_| app.compile())
            .map_err(layer_err(name, "compile"))?;
        let topo = tr
            .span("topo.validate", |_| {
                TopologyConfig::leaf_spine(4, 2, 2).validate()
            })
            .map_err(layer_err(name, "TopologyConfig::validate"))?;
        let cfg = FabricConfig::new(SwitchConfig::mp5(PIPELINES).with_hardware_fifos());
        let flows = p.scaled(750, 40) as u64;
        let workload = DcWorkload::new(HOSTS, flows, p.seed).load(LOAD);
        // Probe packets: the head of the stream, filled like the fabric
        // fills them (own RNG stream; the values only shape the probes).
        let fill = app.fill;
        let mut rng = stream_rng(p.seed, u64::MAX - 0xBE7C);
        let probe_packets = tr.span("traffic.gen", |_| {
            workload
                .stream()
                .take(20_000)
                .enumerate()
                .map(|(i, d)| {
                    let mut pkt = Packet::new(
                        PacketId(i as u64),
                        PortId((d.src_host % 64) as u16),
                        d.arrival,
                        d.size,
                        prog.num_fields(),
                    );
                    fill(&prog, &d.key, &mut rng, &mut pkt.fields);
                    pkt
                })
                .collect()
        });
        let input_bt =
            workload.stream().last().map_or(0, |p| p.arrival) + mp5_types::BYTES_PER_SLOT;
        Ok(FabricDc {
            name,
            prog,
            topo,
            cfg,
            workload,
            input_bt,
            probe_packets,
        })
    }

    fn rep(&self, tr: &mut Tracer) -> Result<Rep<Self::Detail>, BenchError> {
        let (run, pieces) = self.run(tr)?;
        let r = &run.report;
        let tick_len = (mp5_types::BYTES_PER_SLOT * PIPELINES as u64) as f64;
        // `RunReport::normalized_throughput` at fabric level: duration
        // of the input over the time the fabric took to deliver it,
        // scaled by the delivered fraction.
        let input = self.input_bt;
        let drain = r.ticks as f64 * tick_len;
        let norm = (input as f64 / drain.max(input as f64)) * r.delivered_fraction();
        Ok(Rep {
            pieces,
            attempted: r.injected,
            completed: r.delivered,
            sim: vec![
                ("sim_norm_throughput", norm),
                ("sim_delivered_frac", r.delivered_fraction()),
            ],
            fingerprint: r.delivery_digest,
            detail: run,
        })
    }

    fn gates(&self, rep: &Rep<Self::Detail>) -> Result<(), BenchError> {
        let r = &rep.detail.report;
        gate(
            self.name,
            "conservation-closed",
            r.conservation_closed(),
            || {
                format!(
                    "injected {} != delivered {} + drops",
                    r.injected, r.delivered
                )
            },
        )?;
        // Every packet not delivered is in the ledger under a cause the
        // fabric can have without a fault plan: a full link queue or a
        // full switch FIFO.
        let dropped = r.dropped_links + r.dropped_switch;
        gate(
            self.name,
            "only-congestion-drops",
            r.injected - r.delivered == dropped,
            || {
                format!(
                    "delivered {} of {}, but links and switches dropped {dropped}",
                    r.delivered, r.injected
                )
            },
        )
    }

    fn layer_metrics(
        &self,
        tr: &mut Tracer,
        traced_reps: u64,
        rep: &Rep<Self::Detail>,
        m: &mut Metrics,
    ) -> Result<(), BenchError> {
        let run = &rep.detail;
        let r = &run.report;
        let reps = traced_reps.max(1) as f64;
        // `DcStream` drained alone: the generator's share of `topo.run`.
        let t = Instant::now();
        let generated = tr.span("traffic.dc_stream", |_| self.workload.stream().count());
        m.set(
            "traffic.gen_ns_per_pkt",
            t.elapsed().as_nanos() as f64 / generated.max(1) as f64,
        );
        let run_ns = tr.span_total_ns("topo.run") as f64 / reps;
        let hops: u64 = r.switches.iter().map(|s| s.offered).sum();
        m.set(
            "topo.new_ms",
            tr.span_total_ns("topo.new") as f64 / 1e6 / reps,
        );
        m.set("topo.run_ns_per_tick", run_ns / r.ticks.max(1) as f64);
        m.set("topo.run_ns_per_hop", run_ns / hops.max(1) as f64);
        m.set("topo.ticks", r.ticks as f64);
        m.set("topo.hops_per_pkt", hops as f64 / r.injected.max(1) as f64);
        m.set(
            "topo.link_drop_share",
            r.dropped_links as f64 / r.injected.max(1) as f64,
        );
        m.set(
            "topo.max_link_util",
            r.links.iter().map(|l| l.utilization).fold(0.0, f64::max),
        );
        m.set("topo.sim_fct_p50_bt", r.fct.p50 as f64);
        m.set("topo.sim_fct_p99_bt", r.fct.p99 as f64);
        // Exact counts of the six switches together; their call-by-call
        // timings are inside `Fabric::run` and not visible from here.
        let sum = |f: fn(&mp5_core::RunReport) -> u64| -> f64 {
            run.switch_reports.iter().map(f).sum::<u64>() as f64
        };
        let done = sum(|s| s.completed).max(1.0);
        let cycles = sum(|s| s.cycles);
        m.set("core.cycles", cycles);
        m.set("core.pkts_per_cycle", done / cycles.max(1.0));
        m.set("core.steers_per_pkt", sum(|s| s.steered) / done);
        m.set(
            "core.phantoms_per_pkt",
            sum(|s| s.phantoms_generated) / done,
        );
        m.set("core.remap_moves", sum(|s| s.remap_moves));
        m.set("core.wasted_cycles", sum(|s| s.wasted_cycles));
        m.set("core.drops", sum(|s| s.drops.total_data()));
        let depth = run
            .switch_reports
            .iter()
            .map(|s| s.max_queue_depth)
            .max()
            .unwrap_or(0);
        m.set("core.max_queue_depth", depth as f64);
        probes::switch_probes(&self.probe_input(), depth, tr, m);
        if let Some(first) = self.probe_packets.first() {
            probes::topo_probes(first, tr, m);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_fire_on_an_open_ledger_and_on_an_unexplained_loss() {
        let p = Params {
            seed: 3,
            quick: true,
        };
        let off = &mut Tracer::new(false);
        let wl = FabricDc::setup("fabric-dc", &p, off).unwrap();
        let mut rep = wl.rep(off).unwrap();
        wl.gates(&rep).expect("an honest run passes");

        rep.detail.report.delivered -= 1;
        assert!(matches!(
            wl.gates(&rep),
            Err(BenchError::Gate {
                gate: "conservation-closed",
                ..
            })
        ));
        // The same loss booked to a cause this run cannot have: the
        // ledger closes, but the fabric lost a packet it should not.
        rep.detail.report.dropped_no_route += 1;
        assert!(matches!(
            wl.gates(&rep),
            Err(BenchError::Gate {
                gate: "only-congestion-drops",
                ..
            })
        ));
        // Booked to a full link queue, it is a failed operation and
        // passes the gates.
        rep.detail.report.dropped_no_route -= 1;
        rep.detail.report.dropped_links += 1;
        wl.gates(&rep)
            .expect("a congestion drop is counted, not gated");
    }
}
