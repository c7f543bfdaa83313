//! Unit-cost probes: each times one public operation of one layer in a
//! tight loop, on inputs shaped by the workload (its program, its
//! packets, its pipeline count, its deepest queue). They run only in
//! the traced pass. Multiplied by the exact event counts of the run
//! they give the outside-in `est.*_share` split of `core.tick` time.

use std::hint::black_box;
use std::time::Instant;

use mp5_banzai::BanzaiSwitch;
use mp5_compiler::{BatchRegs, CompiledProgram, FieldMatrix, LaneAccess};
use mp5_core::{shard, Mp5Switch, RunReport, SwitchConfig};
use mp5_fabric::{Crossbar, LogicalFifo, OrderKey, PhantomChannel, PhantomKey, PopOutcome};
use mp5_topo::{Link, RouteMode, Router};
use mp5_trace::{MemSink, Rollup};
use mp5_types::{Packet, PacketId, PipelineId, RegId, StageId, Value};

use crate::metrics::Metrics;
use crate::span::Tracer;

/// What a workload lends the probes.
pub struct ProbeInput<'a> {
    pub prog: &'a CompiledProgram,
    pub source: &'a str,
    pub packets: &'a [Packet],
    pub pipelines: usize,
}

impl ProbeInput<'_> {
    /// The packets a per-packet probe replays: a prefix of the
    /// workload's.
    fn prefix(&self) -> &[Packet] {
        &self.packets[..self.packets.len().min(PROBE_PACKETS)]
    }
}

/// Most packets a per-packet probe replays.
const PROBE_PACKETS: usize = 20_000;
/// Iterations of the fixed-shape micro loops.
const MICRO_ITERS: u64 = 400_000;

fn ns_per(iters: u64, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// Cost of one `Instant::now()` pair — the floor under every per-call
/// timing in the traced pass.
pub fn timer_ns() -> f64 {
    ns_per(MICRO_ITERS, || {
        let mut acc = 0u128;
        for _ in 0..MICRO_ITERS {
            let t = Instant::now();
            acc += t.elapsed().as_nanos();
        }
        black_box(acc);
    })
}

/// A fixed integer spin of roughly 200 ms: run before and after a
/// workload, its two durations differ only by what the host was doing.
/// Four independent chains keep the core's issue ports busy, so a
/// neighbour on the sibling hardware thread or a stolen time slice
/// shows; a single dependent chain hides both.
pub fn calibration_spin_s() -> f64 {
    let t = Instant::now();
    let mut x = [0x9E37_79B9_7F4A_7C15u64, 2, 3, 4];
    for i in 0..110_000_000u64 {
        for lane in &mut x {
            *lane = (*lane ^ i)
                .wrapping_mul(0x0000_0100_0000_01B3)
                .rotate_left(13);
        }
    }
    black_box(x);
    t.elapsed().as_secs_f64()
}

/// Phantoms queued ahead of their data in the probe below: in the
/// switch a data packet follows its phantom by a few stages, so only
/// the newest few entries of a queue are still phantoms.
const PHANTOM_LEAD: u64 = 8;

/// `push_phantom` + `insert_data` + `pop` on a `lanes`-lane logical
/// FIFO held at `depth` entries, as the switch uses it: the phantom
/// joins the tail, the data packet fills the phantom queued
/// `PHANTOM_LEAD` pushes earlier, the head (data, `depth` entries
/// older) is popped. The payload is packet-sized, so a deep queue
/// spans more memory than the caches hold. Nanoseconds per operation.
pub fn fifo_ns_per_op(lanes: usize, depth: usize) -> f64 {
    type Payload = [u64; 12];
    let mut f: LogicalFifo<Payload> = LogicalFifo::new(lanes, None);
    let key = |i: u64| PhantomKey {
        pkt: PacketId(i),
        reg: RegId(0),
        index: (i % 64) as u32,
    };
    let step = |f: &mut LogicalFifo<Payload>, i: u64| {
        let lane = PipelineId((i % lanes as u64) as u16);
        f.push_phantom(key(i), OrderKey(i, 0), lane)
            .expect("unbounded FIFO accepts");
        if let Some(j) = i.checked_sub(PHANTOM_LEAD) {
            f.insert_data(key(j), [j; 12]).expect("phantom is queued");
        }
    };
    let depth = depth as u64 + PHANTOM_LEAD;
    let mut next = 0u64;
    while next < depth {
        step(&mut f, next);
        next += 1;
    }
    let iters = MICRO_ITERS / 2;
    let per_iter = ns_per(iters, || {
        for _ in 0..iters {
            step(&mut f, next);
            next += 1;
            match f.pop() {
                PopOutcome::Data(v) => {
                    black_box(v);
                }
                _ => unreachable!("the head is older than every phantom"),
            }
        }
    });
    per_iter / 3.0
}

pub fn xbar_ns_per_route(k: usize) -> f64 {
    let mut x = Crossbar::new(k);
    let k16 = k as u16;
    ns_per(MICRO_ITERS, || {
        for i in 0..MICRO_ITERS {
            let from = PipelineId((i % k as u64) as u16);
            let to = PipelineId(((i / 3) % k as u64) as u16 % k16);
            black_box(x.route(from, to));
            if i % k as u64 == 0 {
                x.end_cycle();
            }
        }
    })
}

/// One phantom through a `stages`-deep channel (inject + its share of
/// the per-cycle `advance_into`), with a steady population in flight.
pub fn channel_ns_per_phantom(stages: usize) -> f64 {
    let mut ch: PhantomChannel<u64> = PhantomChannel::new(stages);
    let mut arrived = Vec::new();
    let dest = StageId((stages as u16).max(2) - 1);
    ns_per(MICRO_ITERS, || {
        for i in 0..MICRO_ITERS {
            ch.inject(i, StageId(0), dest);
            ch.advance_into(&mut arrived);
            black_box(arrived.len());
        }
    })
}

pub fn link_ns_per_op(template: &Packet) -> f64 {
    let mut link = Link::new(64, 512);
    let iters = MICRO_ITERS / 4;
    let pkts: Vec<Packet> = (0..iters).map(|_| template.clone()).collect();
    let per_iter = ns_per(iters, || {
        for (i, p) in pkts.into_iter().enumerate() {
            let now = i as u64 * 2_000;
            black_box(link.push(now, p));
            black_box(link.pop_ready(now + 1_000_000));
        }
    });
    per_iter / 2.0
}

pub fn route_ns_per_pick() -> f64 {
    let mut r = Router::new(RouteMode::Ecmp, 7);
    let spines = [4u32, 5];
    ns_per(MICRO_ITERS, || {
        for i in 0..MICRO_ITERS {
            black_box(r.pick_spine((i % 4) as u32, i * 7919, i, &spines));
        }
    })
}

/// Per-pipeline register files for the kernel probe (slot = pipeline).
struct ProbeRegs(Vec<Vec<Vec<Value>>>);

impl BatchRegs for ProbeRegs {
    fn read(&mut self, slot: u16, reg: RegId, idx: u32) -> Value {
        self.0[slot as usize][reg.index()][idx as usize]
    }
    fn write(&mut self, slot: u16, reg: RegId, idx: u32, val: Value) {
        self.0[slot as usize][reg.index()][idx as usize] = val;
    }
}

/// `execute_stage_batch` over a `FieldMatrix` of the workload's packets
/// at width `k`, every body stage in turn: nanoseconds per lane for
/// one full pass of the program.
pub fn kernel_ns_per_lane(p: &ProbeInput) -> f64 {
    let k = p.pipelines.max(1);
    let pkts = p.prefix();
    if pkts.is_empty() || p.prog.num_fields() == 0 {
        return 0.0;
    }
    let nf = p.prog.num_fields();
    let mut regs = ProbeRegs(vec![p.prog.initial_regs(); k]);
    let lanes: Vec<u32> = (0..k as u32).collect();
    let slots: Vec<u16> = (0..k as u16).collect();
    let mut matrix = FieldMatrix::new(nf);
    let mut out: Vec<LaneAccess> = Vec::new();
    let mut row = vec![0; nf];
    let mut lanes_run = 0u64;
    let t = Instant::now();
    for chunk in pkts.chunks_exact(k) {
        matrix.reset(nf);
        for pkt in chunk {
            row.clear();
            row.extend_from_slice(&pkt.fields);
            row.resize(nf, 0);
            black_box(p.prog.resolve(&mut row));
            matrix.push_row(&row);
        }
        for stage in 0..p.prog.stages.len() {
            out.clear();
            p.prog
                .execute_stage_batch(stage, &lanes, &slots, &mut matrix, &mut regs, &mut out);
        }
        black_box(out.len());
        lanes_run += k as u64;
    }
    t.elapsed().as_nanos() as f64 / lanes_run.max(1) as f64
}

/// The single-pipeline reference executing the program once per packet.
pub fn banzai_ns_per_pkt(p: &ProbeInput) -> f64 {
    let mut pkts: Vec<Packet> = p.prefix().to_vec();
    let mut sw = BanzaiSwitch::new(p.prog.clone());
    let n = pkts.len() as u64;
    ns_per(n, || {
        for pkt in &mut pkts {
            black_box(sw.process(pkt));
        }
    })
}

/// `shard::remap_heuristic` on the access counters the workload's
/// packets produce on its first sharded register array: microseconds
/// per call. 0 when the program has no sharded array.
pub fn remap_us_per_call(p: &ProbeInput) -> f64 {
    let Some((ri, meta)) = p.prog.regs.iter().enumerate().find(|(_, r)| r.shardable) else {
        return 0.0;
    };
    let k = p.pipelines;
    let size = meta.size as usize;
    let mut counters = vec![0u64; size];
    let mut sw = BanzaiSwitch::new(p.prog.clone());
    for pkt in p.prefix() {
        for (reg, idx) in sw.process(&mut pkt.clone()) {
            if reg.index() == ri {
                counters[idx as usize] += 1;
            }
        }
    }
    let map: Vec<u16> = (0..size).map(|i| (i % k.max(1)) as u16).collect();
    let inflight = vec![0u32; size];
    let iters = 2_000u64;
    ns_per(iters, || {
        for _ in 0..iters {
            black_box(shard::remap_heuristic(
                black_box(&map),
                &counters,
                &inflight,
                k,
            ));
        }
    }) / 1e3
}

/// `mp5_serve::parse_packet_line` over the workload's packets as the
/// `mp5serve --stdin` feed would carry them. Returns (ns per packet,
/// JSONL bytes per packet).
pub fn parse_ns_per_pkt(p: &ProbeInput) -> (f64, f64) {
    let lines: Vec<String> = p.prefix().iter().map(packet_line).collect();
    if lines.is_empty() {
        return (0.0, 0.0);
    }
    let bytes: usize = lines.iter().map(|l| l.len() + 1).sum();
    let ns = ns_per(lines.len() as u64, || {
        for (i, l) in lines.iter().enumerate() {
            black_box(mp5_serve::parse_packet_line(l, i + 1).expect("own serialisation parses"));
        }
    });
    (ns, bytes as f64 / lines.len() as f64)
}

/// One line of the `mp5serve --stdin` feed.
pub fn packet_line(p: &Packet) -> String {
    serde_json::to_string(p).expect("Packet is plain serialisable data")
}

/// Phantom enqueue → data match waits, in cycles, from the event
/// stream of a `MemSink` run over the probe prefix: (p50, p99) as
/// log₂-bucket upper edges (the resolution `Rollup` keeps).
pub fn queue_wait_cycles(p: &ProbeInput) -> (f64, f64) {
    let pkts = p.prefix().to_vec();
    let cfg = SwitchConfig::mp5(p.pipelines);
    let Ok((_, sink)) =
        Mp5Switch::with_sink(p.prog.clone(), cfg, MemSink::new()).try_run_traced(pkts)
    else {
        return (0.0, 0.0);
    };
    queue_wait_from_rollup(&Rollup::from_events(&sink.into_events()))
}

pub fn queue_wait_from_rollup(rollup: &Rollup) -> (f64, f64) {
    let mut buckets: std::collections::BTreeMap<u64, u64> = Default::default();
    for reg in rollup.regs.values() {
        for (upper, n) in reg.phantom_waits.buckets() {
            *buckets.entry(upper).or_default() += n;
        }
    }
    let total: u64 = buckets.values().sum();
    let at = |p: f64| {
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (&upper, &n) in &buckets {
            seen += n;
            if seen >= rank {
                return upper as f64;
            }
        }
        0.0
    };
    if total == 0 {
        (0.0, 0.0)
    } else {
        (at(50.0), at(99.0))
    }
}

/// The probes of the layers inside one switch, shaped by the workload
/// (its program, packets, width and deepest queue). Every workload
/// runs a switch, so every traced run calls this.
pub fn switch_probes(p: &ProbeInput, max_queue_depth: usize, tr: &mut Tracer, m: &mut Metrics) {
    let k = p.pipelines.max(1);
    tr.span("bench.probes", |tr| {
        tr.span("fabric.fifo_probe", |_| {
            m.set("fabric.fifo_shallow_ns_per_op", fifo_ns_per_op(k, 8));
            m.set(
                "fabric.fifo_deep_ns_per_op",
                fifo_ns_per_op(k, max_queue_depth.max(8)),
            );
        });
        tr.span("fabric.xbar_probe", |_| {
            m.set("fabric.xbar_ns_per_route", xbar_ns_per_route(k));
        });
        tr.span("fabric.channel_probe", |_| {
            m.set(
                "fabric.channel_ns_per_phantom",
                channel_ns_per_phantom(p.prog.num_stages()),
            );
        });
        tr.span("fabric.queue_wait_probe", |_| {
            let (p50, p99) = queue_wait_cycles(p);
            m.set("fabric.queue_wait_p50_cycles", p50);
            m.set("fabric.queue_wait_p99_cycles", p99);
        });
        tr.span("compiler.kernel_probe", |_| {
            m.set("compiler.kernel_ns_per_lane", kernel_ns_per_lane(p));
        });
        tr.span("banzai.process_probe", |_| {
            m.set("banzai.ns_per_pkt", banzai_ns_per_pkt(p));
        });
        tr.span("core.remap_probe", |_| {
            m.set("core.remap_us_per_call", remap_us_per_call(p));
        });
        let t = Instant::now();
        let tac = tr.span("lang.frontend", |_| mp5_lang::frontend(p.source));
        m.set("lang.frontend_ms", t.elapsed().as_secs_f64() * 1e3);
        if let Ok(tac) = tac {
            let t = Instant::now();
            let ok = tr.span("compiler.compile_tac", |_| {
                mp5_compiler::compile_tac(tac, &Default::default()).is_ok()
            });
            black_box(ok);
            m.set("compiler.compile_ms", t.elapsed().as_secs_f64() * 1e3);
        }
    });
}

/// Links and routing: on `fabric-dc`'s path only.
pub fn topo_probes(template: &Packet, tr: &mut Tracer, m: &mut Metrics) {
    tr.span("topo.link_probe", |_| {
        m.set("topo.link_ns_per_op", link_ns_per_op(template));
        m.set("topo.route_ns_per_pick", route_ns_per_pick());
    });
}

/// The line parser: on `serve-stdin`'s path only.
pub fn ingest_probe(p: &ProbeInput, tr: &mut Tracer, m: &mut Metrics) {
    tr.span("serve.parse_probe", |_| {
        let (ns, bytes) = parse_ns_per_pkt(p);
        m.set("serve.parse_ns_per_pkt", ns);
        m.set("traffic.jsonl_bytes_per_pkt", bytes);
    });
}

/// Outside-in split of `core.tick` busy time: unit costs from the
/// probes × exact event counts from the run's report. Shares sum to 1;
/// when the estimates exceed the measured time they are scaled down
/// and `other` is 0.
pub fn estimate_shares(
    report: &RunReport,
    prog: &CompiledProgram,
    remap_period: u64,
    tick_busy_ns: f64,
    m: &mut Metrics,
) {
    if tick_busy_ns <= 0.0 {
        return;
    }
    let get = |m: &Metrics, name: &str| m.get(name).unwrap_or(0.0);
    let done = report.completed as f64;
    let phantoms = report.phantoms_generated as f64;
    let sharded = prog.regs.iter().filter(|r| r.shardable).count() as f64;
    // Every packet runs every body stage once; every phantom is pushed,
    // matched and popped once; only off-diagonal moves touch the
    // crossbar; the heuristic runs once per period per sharded array.
    let kernel = get(m, "compiler.kernel_ns_per_lane") * done;
    let fifo = get(m, "fabric.fifo_deep_ns_per_op") * 3.0 * phantoms;
    let xbar = get(m, "fabric.xbar_ns_per_route") * report.steered as f64;
    let channel = get(m, "fabric.channel_ns_per_phantom") * phantoms;
    let remap = get(m, "core.remap_us_per_call")
        * 1e3
        * (report.cycles / remap_period.max(1)) as f64
        * sharded;
    let known = kernel + fifo + xbar + channel + remap;
    let whole = tick_busy_ns.max(known);
    m.set("est.kernel_share", kernel / whole);
    m.set("est.fifo_share", fifo / whole);
    m.set("est.xbar_share", xbar / whole);
    m.set("est.channel_share", channel / whole);
    m.set("est.remap_share", remap / whole);
    m.set("est.other_share", (whole - known) / whole);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one_even_when_estimates_overshoot() {
        let prog = mp5_sim::synth::synthetic_compiled(2, 16).unwrap();
        let mut report = RunReport::new();
        report.completed = 1_000;
        report.phantoms_generated = 2_000;
        report.steered = 500;
        report.cycles = 1_000;
        for busy in [1e9, 10.0] {
            let mut m = Metrics::default();
            m.set("compiler.kernel_ns_per_lane", 50.0);
            m.set("fabric.fifo_deep_ns_per_op", 20.0);
            m.set("fabric.xbar_ns_per_route", 2.0);
            m.set("fabric.channel_ns_per_phantom", 10.0);
            m.set("core.remap_us_per_call", 1.0);
            estimate_shares(&report, &prog, 100, busy, &mut m);
            let sum: f64 =
                m.0.iter()
                    .filter(|(k, _)| k.starts_with("est."))
                    .map(|(_, s)| s.median)
                    .sum();
            assert!((sum - 1.0).abs() < 1e-9, "busy {busy}: {sum}");
        }
    }

    #[test]
    fn fifo_probe_costs_more_than_nothing_at_any_depth() {
        assert!(fifo_ns_per_op(4, 8) > 0.0);
        assert!(fifo_ns_per_op(4, 5_000) > 0.0);
    }
}
