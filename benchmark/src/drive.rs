//! The streaming driver: one closed-loop client feeding a switch (or a
//! `Server` wrapping one) through its public streaming calls.
//!
//! In *simulated* time the arrival schedule is open-loop: packets carry
//! fixed line-rate arrival times and are offered regardless of backlog.
//! In *host* time the driver is a single thread that offers, ticks and
//! drains as fast as the program lets it. Packets are offered one
//! 64-cycle window ahead of the clock, so the switch never starves and
//! its arrival queue stays short.

use std::time::{Duration, Instant};

use mp5_core::{Mp5Switch, RunReport};
use mp5_faults::NoFaults;
use mp5_serve::Server;
use mp5_trace::{NopSink, TraceSink};
use mp5_types::{Packet, BYTES_PER_SLOT};

use crate::error::BenchError;
use crate::span::Tracer;

/// Cycles of arrivals offered ahead of the switch clock.
const INGEST_WINDOW: u64 = 64;
/// Ingest windows per `core.windows` span in a traced run (one span
/// per window would be ~10⁴ spans per rep; per-call costs go to the
/// histograms instead).
const WINDOWS_PER_SPAN: u64 = 64;

/// The pieces a rep is timed in. A rep does the same work piece by
/// piece every time (the simulation is deterministic), so the harness
/// can take each piece's best time over all reps (`stats::pieced`): a
/// piece of a millisecond finds a quiet moment on a busy host far more
/// often than a whole rep of a fifth of a second does.
pub struct Laps {
    last: Instant,
    secs: Vec<f64>,
}

impl Laps {
    pub fn start() -> Self {
        Laps {
            last: Instant::now(),
            secs: Vec::new(),
        }
    }

    /// Ends the current piece and starts the next.
    pub fn lap(&mut self) {
        let now = Instant::now();
        self.secs.push((now - self.last).as_secs_f64());
        self.last = now;
    }

    /// Takes `d`, just spent on something that is not the program's
    /// work, out of the current piece.
    pub fn exclude(&mut self, d: Duration) {
        self.last += d;
    }

    /// Ends the last piece; seconds per piece, in order.
    pub fn finish(mut self) -> Vec<f64> {
        self.lap();
        self.secs
    }
}

/// The streaming surface shared by `Mp5Switch` and `Server`.
pub trait Dut {
    /// Offers `batch` (entry-ordered), leaving it empty.
    fn offer(&mut self, batch: &mut Vec<Packet>);
    fn tick(&mut self);
    fn drain(&mut self) -> Vec<(Packet, u64)>;
    fn idle(&self) -> bool;
    fn cycle(&self) -> u64;
}

impl<S: TraceSink> Dut for Mp5Switch<S> {
    fn offer(&mut self, batch: &mut Vec<Packet>) {
        for p in batch.drain(..) {
            Mp5Switch::offer(self, p);
        }
    }
    fn tick(&mut self) {
        Mp5Switch::tick(self)
    }
    fn drain(&mut self) -> Vec<(Packet, u64)> {
        self.drain_egress()
    }
    fn idle(&self) -> bool {
        self.is_idle()
    }
    fn cycle(&self) -> u64 {
        Mp5Switch::cycle(self)
    }
}

impl Dut for Server<NopSink, NoFaults> {
    fn offer(&mut self, batch: &mut Vec<Packet>) {
        self.offer_all(std::mem::take(batch));
    }
    fn tick(&mut self) {
        Server::tick(self)
    }
    fn drain(&mut self) -> Vec<(Packet, u64)> {
        self.drain_egress()
    }
    fn idle(&self) -> bool {
        self.is_idle()
    }
    fn cycle(&self) -> u64 {
        Server::cycle(self)
    }
}

/// What the driver saw at egress.
#[derive(Debug, Default)]
pub struct Egress {
    /// Packets drained.
    pub drained: u64,
    /// Per packet: exit cycle − arrival cycle (simulated).
    pub latency_cycles: Vec<u32>,
}

/// Streams `packets` through `dut` until it is idle. `pipelines` fixes
/// the cycle length (`64·k` byte-times). `at_boundary` runs between
/// cycles, before each tick — the only place a checkpoint is
/// meaningful. Every ingest window is one piece of `laps`. With the
/// tracer on, every call into the device is timed into the
/// `core.offer` / `core.tick` / `core.drain` histograms.
pub fn stream<D: Dut>(
    dut: &mut D,
    packets: Vec<Packet>,
    pipelines: usize,
    tr: &mut Tracer,
    laps: &mut Laps,
    mut at_boundary: impl FnMut(&mut D, &mut Tracer, &mut Laps) -> Result<(), BenchError>,
) -> Result<Egress, BenchError> {
    let clen = BYTES_PER_SLOT * pipelines as u64;
    let mut out = Egress {
        drained: 0,
        latency_cycles: Vec::with_capacity(packets.len()),
    };
    // The liveness bound `Mp5Switch::try_run` applies to a whole trace.
    let input_cycles = packets.last().map_or(0, |p| p.arrival / clen) + 1;
    let cap = dut.cycle() + input_cycles * (pipelines as u64 + 2) * 4 + 200_000;
    let mut input = packets.into_iter().peekable();
    let mut batch: Vec<Packet> = Vec::new();
    let traced = tr.is_on();
    let mut window = 0u64;
    let mut group = None;
    loop {
        if traced && window.is_multiple_of(WINDOWS_PER_SPAN) {
            if let Some(g) = group.take() {
                tr.end(g);
            }
            group = Some(tr.begin("core.windows"));
        }
        window += 1;
        let horizon = (dut.cycle() + INGEST_WINDOW) * clen;
        while let Some(p) = input.next_if(|p| p.arrival < horizon) {
            batch.push(p);
        }
        if !batch.is_empty() {
            if traced {
                let t = Instant::now();
                dut.offer(&mut batch);
                tr.record("core.offer", t.elapsed().as_nanos() as u64);
            } else {
                dut.offer(&mut batch);
            }
        }
        let mut done = false;
        for _ in 0..INGEST_WINDOW {
            at_boundary(dut, tr, laps)?;
            let egress = if traced {
                let t0 = Instant::now();
                dut.tick();
                let t1 = Instant::now();
                let e = dut.drain();
                let t2 = Instant::now();
                tr.record("core.tick", (t1 - t0).as_nanos() as u64);
                tr.record("core.drain", (t2 - t1).as_nanos() as u64);
                e
            } else {
                dut.tick();
                dut.drain()
            };
            out.drained += egress.len() as u64;
            for (p, exit) in egress {
                out.latency_cycles
                    .push(exit.saturating_sub(p.arrival / clen) as u32);
            }
            if input.peek().is_none() && dut.idle() {
                done = true;
                break;
            }
            if dut.cycle() >= cap {
                return Err(BenchError::Gate {
                    workload: "stream",
                    gate: "drains-within-cycle-cap",
                    detail: format!("not idle after {cap} cycles"),
                });
            }
        }
        laps.lap();
        if done {
            break;
        }
    }
    if let Some(g) = group {
        tr.end(g);
    }
    Ok(out)
}

/// The exact, simulated results every single-switch workload reports:
/// the two end-to-end ones in the untraced run, the per-packet latency
/// percentiles (exit cycle - arrival cycle) in the traced one.
pub fn sim_metrics(report: &RunReport, egress: &mut Egress) -> Vec<(&'static str, f64)> {
    let p50 = crate::stats::percentile_u32(&mut egress.latency_cycles, 50.0).unwrap_or(0);
    let p99 = crate::stats::percentile_u32(&mut egress.latency_cycles, 99.0).unwrap_or(0);
    vec![
        ("sim_norm_throughput", report.normalized_throughput()),
        ("sim_delivered_frac", report.delivered_fraction()),
        ("core.sim_latency_p50_cycles", p50 as f64),
        ("core.sim_latency_p99_cycles", p99 as f64),
    ]
}

/// Exact per-layer counts of one switch run (traced pass).
pub fn core_counts(report: &RunReport) -> Vec<(&'static str, f64)> {
    let done = report.completed.max(1) as f64;
    vec![
        ("core.cycles", report.cycles as f64),
        (
            "core.pkts_per_cycle",
            report.completed as f64 / report.cycles.max(1) as f64,
        ),
        ("core.steers_per_pkt", report.steered as f64 / done),
        (
            "core.phantoms_per_pkt",
            report.phantoms_generated as f64 / done,
        ),
        ("core.remap_moves", report.remap_moves as f64),
        ("core.max_queue_depth", report.max_queue_depth as f64),
        ("core.wasted_cycles", report.wasted_cycles as f64),
        ("core.drops", report.drops.total_data() as f64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp5_core::SwitchConfig;

    #[test]
    fn streamed_run_equals_whole_trace_run() {
        let prog = mp5_sim::synth::synthetic_compiled(2, 16).unwrap();
        let cfg = mp5_sim::SynthConfig {
            pipelines: 4,
            stateful_stages: 2,
            reg_size: 16,
            packets: 3_000,
            ..Default::default()
        };
        let trace = mp5_sim::synthetic_trace(&prog, &cfg);
        let whole = Mp5Switch::new(prog.clone(), SwitchConfig::mp5(4))
            .try_run(trace.clone())
            .unwrap();
        let mut sw = Mp5Switch::new(prog, SwitchConfig::mp5(4));
        let mut tr = Tracer::new(true);
        let mut laps = Laps::start();
        let mut eg = stream(&mut sw, trace, 4, &mut tr, &mut laps, |_, _, _| Ok(())).unwrap();
        let (streamed, _) = sw.finish_stream();
        // One piece per 64-cycle ingest window, and the rest.
        assert_eq!(
            laps.finish().len() as u64,
            streamed.cycles.div_ceil(INGEST_WINDOW) + 1
        );
        assert_eq!(streamed, whole);
        assert_eq!(eg.drained, 3_000);
        assert_eq!(eg.latency_cycles.len(), 3_000);
        assert_eq!(tr.hist("core.tick").unwrap().samples, streamed.cycles);
        let sim = sim_metrics(&streamed, &mut eg);
        assert!(sim.iter().all(|(_, v)| *v > 0.0));
    }
}
