//! The fabric engine: composed MP5 switches under one global clock.
//!
//! A [`Fabric`] instantiates one [`Mp5Switch`] per topology node, wires
//! every edge as a bounded [`Link`], and advances the whole system in
//! lockstep: each global *tick* is one switch cycle (`64·k` byte-times,
//! identical for every switch since they share a pipeline count).
//! Within a tick the phases run in a fixed order — fabric faults,
//! inject, deliver-to-hosts, collect link arrivals per switch, step
//! every switch, route every egress — and every per-phase iteration is
//! in ascending id order, so a fabric run is a pure function of
//! `(topology, config, program, workload)`: repeated runs produce
//! bit-identical [`FabricReport`]s.
//!
//! Scale: the workload arrives as a lazy [`DcPacket`] iterator (see
//! [`mp5_traffic::dc`]), per-switch reports run with `record_detail`
//! off, and per-packet bookkeeping lives only while a packet is in
//! flight — millions of flows stream through in bounded memory.
//!
//! Failure: [`FabricConfig::kill_spine`] fail-stops one spine mid-run.
//! Packets resident in the dead switch are written off against the
//! conservation ledger ([`FabricReport::conservation_closed`]), links
//! into it black-hole (counted), and routing excludes it — delivery
//! degrades to the surviving paths instead of collapsing.

use mp5_compiler::program::CompiledProgram;
use mp5_core::{ConfigError, Mp5Switch, RunReport, SwitchConfig};
use mp5_faults::{FaultInjector, NoFaults};
use mp5_trace::{NopSink, TraceSink};
use mp5_traffic::dc::DcPacket;
use mp5_traffic::streams::{stream_rng, stream_seed};
use mp5_types::time::cycle_len;
use mp5_types::{FastMap, FlowKey, Packet, PacketId, PortId, Value};
use rand::rngs::SmallRng;
use serde::Serialize;

use crate::link::{Link, LinkStats};
use crate::route::{RouteMode, Router};
use crate::topology::{NodeRole, Topology};

/// Errors building a [`Fabric`].
#[derive(Debug, Clone, PartialEq)]
pub enum FabricError {
    /// The per-switch configuration was rejected by `mp5-core`.
    Config(ConfigError),
    /// [`FabricConfig::kill_spine`] names a switch id that does not
    /// exist in the topology or is not a spine.
    KillTargetNotASpine {
        /// The offending global switch id.
        switch: u32,
        /// Number of switches in the topology.
        switches: usize,
    },
    /// [`FabricConfig::link_capacity`] is zero: every link would drop
    /// every packet it is handed.
    ZeroLinkCapacity,
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid switch config: {e}"),
            Self::KillTargetNotASpine { switch, switches } => write!(
                f,
                "kill_spine targets switch {switch}, which is not a spine \
                 (topology has {switches} switches, spines come last)"
            ),
            Self::ZeroLinkCapacity => {
                write!(f, "link capacity is 0: every link would drop every packet")
            }
        }
    }
}

impl std::error::Error for FabricError {}

impl From<ConfigError> for FabricError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

/// Fabric-level failure injection: fail-stop one spine at a tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpineKill {
    /// Global switch id of the spine to kill (must be a spine).
    pub spine: u32,
    /// Global tick at which it goes dark.
    pub at_tick: u64,
}

/// Configuration of a [`Fabric`] run.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Per-switch configuration template (pipelines, FIFOs, sharding…).
    /// Every switch in the fabric is built from this; `record_detail`
    /// is forced off so fabric-scale runs stay O(registers) per switch.
    pub switch: SwitchConfig,
    /// Transmit-queue bound of every link, in packets.
    pub link_capacity: usize,
    /// Propagation latency of every link, in byte-times.
    pub link_latency: u64,
    /// Spine load-balancing policy.
    pub routing: RouteMode,
    /// Fabric seed: salts the ECMP hash and the field-fill RNG.
    pub seed: u64,
    /// Optional fail-stop of one spine mid-run.
    pub kill_spine: Option<SpineKill>,
    /// Ticks without any global progress before the run is declared
    /// live-locked (a fabric bug) and panics with diagnostics.
    pub stall_limit: u64,
}

impl FabricConfig {
    /// Defaults: the given switch template, 64-packet link queues,
    /// 512 byte-times of link latency, per-flow ECMP, seed 0.
    pub fn new(switch: SwitchConfig) -> Self {
        FabricConfig {
            switch,
            link_capacity: 64,
            link_latency: 512,
            routing: RouteMode::Ecmp,
            seed: 0,
            kill_spine: None,
            stall_limit: 200_000,
        }
    }
}

/// Where a link terminates.
#[derive(Debug, Clone, Copy)]
enum LinkDst {
    /// Far end is switch `sw`, local ingress port `port`.
    Switch { sw: u32, port: u16 },
    /// Far end is a host NIC (delivery point).
    Host,
}

/// Per-packet state kept only while the packet is in flight.
#[derive(Debug, Clone, Copy)]
struct PktMeta {
    flow_id: u64,
    dst_host: u32,
}

/// Per-flow completion state, kept from first injection to completion.
#[derive(Debug, Clone, Copy)]
struct FlowState {
    started_at: u64,
    delivered: u32,
    /// Total packets in the flow, learned from the `last` packet.
    total: Option<u32>,
}

/// Flow-completion-time statistics over completed flows, in byte-times.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FctStats {
    /// Flows that delivered every packet.
    pub completed_flows: u64,
    /// Median FCT.
    pub p50: u64,
    /// 99th-percentile FCT.
    pub p99: u64,
    /// Maximum FCT.
    pub max: u64,
    /// Mean FCT.
    pub mean: f64,
}

impl FctStats {
    fn from_samples(mut samples: Vec<u64>) -> Self {
        if samples.is_empty() {
            return FctStats::default();
        }
        samples.sort_unstable();
        let n = samples.len();
        let sum: u64 = samples.iter().sum();
        FctStats {
            completed_flows: n as u64,
            p50: samples[n / 2],
            p99: samples[(n * 99) / 100],
            max: samples[n - 1],
            mean: sum as f64 / n as f64,
        }
    }
}

/// One link's row in the [`FabricReport`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LinkSummary {
    /// Link id (the fixed advance order).
    pub id: u32,
    /// Human-readable source (`hostN` or `swN`).
    pub from: String,
    /// Human-readable destination.
    pub to: String,
    /// Counters.
    pub stats: LinkStats,
    /// Fraction of the run the wire spent transmitting.
    pub utilization: f64,
}

/// One switch's row in the [`FabricReport`] — the serializable digest
/// of its [`RunReport`] (the full reports ride along in [`FabricRun`]).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SwitchSummary {
    /// Global switch id.
    pub id: u32,
    /// Tier.
    pub role: NodeRole,
    /// True if the fabric fail-stopped this switch.
    pub dead: bool,
    /// Packets offered to its ingress.
    pub offered: u64,
    /// Packets it processed to completion.
    pub completed: u64,
    /// Data packets it dropped internally.
    pub dropped: u64,
    /// Cycles it ran.
    pub cycles: u64,
    /// Packets steered across pipelines.
    pub steered: u64,
    /// Phantoms generated.
    pub phantoms: u64,
    /// Peak stage-FIFO occupancy.
    pub max_queue_depth: usize,
    /// Dynamic-sharding migrations.
    pub remap_moves: u64,
    /// Packets ECN-marked inside this switch.
    pub ecn_marked: u64,
}

impl SwitchSummary {
    fn new(id: u32, role: NodeRole, dead: bool, r: &RunReport) -> Self {
        SwitchSummary {
            id,
            role,
            dead,
            offered: r.offered,
            completed: r.completed,
            dropped: r.drops.total_data(),
            cycles: r.cycles,
            steered: r.steered,
            phantoms: r.phantoms_generated,
            max_queue_depth: r.max_queue_depth,
            remap_moves: r.remap_moves,
            ecn_marked: r.ecn_marked,
        }
    }
}

/// Everything a fabric run produces. `PartialEq` compares every field —
/// the equality the fabric equivalence suite uses to assert that
/// repeated runs are bit-identical.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FabricReport {
    /// Global ticks simulated.
    pub ticks: u64,
    /// Byte-times simulated (`ticks · 64·k`).
    pub horizon: u64,
    /// Packets injected by the workload.
    pub injected: u64,
    /// Packets delivered to their destination host.
    pub delivered: u64,
    /// Packets dropped on full link queues (hosts and switch ports).
    pub dropped_links: u64,
    /// Data packets dropped inside switches.
    pub dropped_switch: u64,
    /// Packets dropped because no live path existed to their leaf.
    pub dropped_no_route: u64,
    /// Packets black-holed on links into a failed switch.
    pub dropped_to_dead: u64,
    /// Packets resident in a switch when the fabric fail-stopped it.
    pub lost_in_dead: u64,
    /// Flows that injected at least one packet.
    pub flows_started: u64,
    /// Flow-completion-time statistics over fully delivered flows.
    pub fct: FctStats,
    /// Per-link rows, in link-id order.
    pub links: Vec<LinkSummary>,
    /// Per-switch rows, in switch-id order.
    pub switches: Vec<SwitchSummary>,
    /// FNV-1a fold of every delivery `(packet id, time, host)` in
    /// order — a compact bit-identity fingerprint of the run.
    pub delivery_digest: u64,
}

impl FabricReport {
    /// The conservation ledger: every injected packet is delivered or
    /// accounted to exactly one drop cause.
    pub fn conservation_closed(&self) -> bool {
        self.injected
            == self.delivered
                + self.dropped_links
                + self.dropped_switch
                + self.dropped_no_route
                + self.dropped_to_dead
                + self.lost_in_dead
    }

    /// Fraction of injected packets delivered.
    pub fn delivered_fraction(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.injected as f64
        }
    }

    /// Serializes the report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("FabricReport serializes")
    }
}

/// A finished fabric run: the fabric-level report plus each switch's
/// full [`RunReport`] and [`TraceSink`], in switch-id order.
pub struct FabricRun<S> {
    /// The fabric-level report.
    pub report: FabricReport,
    /// Per-switch run reports (index = switch id).
    pub switch_reports: Vec<RunReport>,
    /// Per-switch trace sinks (index = switch id).
    pub sinks: Vec<S>,
}

/// Running fabric-level counters; folded into the final report.
struct Ledger {
    injected: u64,
    delivered: u64,
    dropped_no_route: u64,
    dropped_to_dead: u64,
    lost_in_dead: u64,
    flows_started: u64,
    digest: u64,
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            injected: 0,
            delivered: 0,
            dropped_no_route: 0,
            dropped_to_dead: 0,
            lost_in_dead: 0,
            flows_started: 0,
            digest: FNV_OFFSET,
        }
    }
}

/// The composed multi-switch fabric. Generic over the same zero-cost
/// [`TraceSink`] / [`FaultInjector`] hooks as a single [`Mp5Switch`];
/// each switch gets its own sink and injector from the factories passed
/// to [`Fabric::with_hooks`], so `mp5audit` consumes a per-switch event
/// stream unchanged and chaos plans target individual switches.
pub struct Fabric<S: TraceSink = NopSink, F: FaultInjector = NoFaults> {
    topo: Topology,
    cfg: FabricConfig,
    clen: u64,
    switches: Vec<Mp5Switch<S, F>>,
    links: Vec<Link>,
    link_label: Vec<(String, String)>,
    /// Host → its uplink / downlink link ids.
    host_up: Vec<u32>,
    host_down: Vec<u32>,
    /// Per switch: incoming link id for each local ingress port.
    in_links: Vec<Vec<u32>>,
    /// Per switch: neighbor position → outgoing link id.
    out_links: Vec<Vec<u32>>,
    router: Router,
    dead: Vec<bool>,
    /// Reusable buffer for a leaf's live candidate spines (one fill per
    /// leaf-to-spine hop).
    spines: Vec<u32>,
}

impl Fabric<NopSink, NoFaults> {
    /// An untraced, fault-free fabric.
    pub fn new(
        topo: Topology,
        cfg: FabricConfig,
        prog: CompiledProgram,
    ) -> Result<Self, FabricError> {
        Self::with_hooks(topo, cfg, prog, |_| NopSink, |_| NoFaults)
    }
}

impl<S: TraceSink, F: FaultInjector> Fabric<S, F> {
    /// A fabric whose switch `i` records into `mk_sink(i)` and runs
    /// under the fault injector `mk_faults(i)`.
    pub fn with_hooks(
        topo: Topology,
        cfg: FabricConfig,
        prog: CompiledProgram,
        mut mk_sink: impl FnMut(u32) -> S,
        mut mk_faults: impl FnMut(u32) -> F,
    ) -> Result<Self, FabricError> {
        let n = topo.num_switches();
        if cfg.link_capacity == 0 {
            return Err(FabricError::ZeroLinkCapacity);
        }
        if let Some(kill) = cfg.kill_spine {
            let id = kill.spine;
            if id as usize >= n || topo.role(id) != NodeRole::Spine {
                return Err(FabricError::KillTargetNotASpine {
                    switch: id,
                    switches: n,
                });
            }
        }
        let swcfg = cfg.switch.clone().with_record_detail(false);
        let mut switches = Vec::with_capacity(n);
        for s in 0..n as u32 {
            switches.push(Mp5Switch::try_with_faults(
                prog.clone(),
                swcfg.clone(),
                mk_sink(s),
                mk_faults(s),
            )?);
        }

        // Link construction, in the fixed global order: per host an
        // uplink and a downlink, then per switch (ascending), per
        // neighbor (ascending) the switch→neighbor link.
        let hosts = topo.num_hosts();
        let mut links = Vec::new();
        let mut link_dst = Vec::new();
        let mut link_label = Vec::new();
        let mut host_up = Vec::with_capacity(hosts);
        let mut host_down = Vec::with_capacity(hosts);
        for h in 0..hosts as u32 {
            let leaf = topo.leaf_of_host(h);
            host_up.push(links.len() as u32);
            links.push(Link::new(cfg.link_capacity, cfg.link_latency));
            link_dst.push(LinkDst::Switch {
                sw: leaf,
                port: topo.host_port(h),
            });
            link_label.push((format!("host{h}"), format!("sw{leaf}")));
            host_down.push(links.len() as u32);
            links.push(Link::new(cfg.link_capacity, cfg.link_latency));
            link_dst.push(LinkDst::Host);
            link_label.push((format!("sw{leaf}"), format!("host{h}")));
        }
        let mut out_links: Vec<Vec<u32>> = vec![Vec::new(); n];
        for s in 0..n as u32 {
            for &nb in &topo.neighbors[s as usize] {
                out_links[s as usize].push(links.len() as u32);
                links.push(Link::new(cfg.link_capacity, cfg.link_latency));
                link_dst.push(LinkDst::Switch {
                    sw: nb,
                    port: topo.neighbor_port(nb, s),
                });
                link_label.push((format!("sw{s}"), format!("sw{nb}")));
            }
        }
        // Invert: incoming link per (switch, ingress port).
        let mut in_links: Vec<Vec<u32>> = (0..n)
            .map(|s| vec![u32::MAX; topo.ports(s as u32)])
            .collect();
        for (id, dst) in link_dst.iter().enumerate() {
            if let LinkDst::Switch { sw, port } = *dst {
                in_links[sw as usize][port as usize] = id as u32;
            }
        }
        debug_assert!(in_links.iter().flatten().all(|&l| l != u32::MAX));

        let clen = cycle_len(swcfg.physical_pipelines.unwrap_or(swcfg.pipelines));
        let salt = stream_seed(cfg.seed, 0x5a17);
        Ok(Fabric {
            dead: vec![false; n],
            router: Router::new(cfg.routing, salt),
            spines: Vec::new(),
            topo,
            cfg,
            clen,
            switches,
            links,
            link_label,
            host_up,
            host_down,
            in_links,
            out_links,
        })
    }

    /// The validated topology this fabric was built from.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Byte-times per global tick (`64·k`).
    pub fn tick_len(&self) -> u64 {
        self.clen
    }

    /// Drives `workload` through the fabric to completion. `fill`
    /// populates each injected packet's header fields from its flow key
    /// (same contract as `mp5_apps::AppSpec::fill`).
    pub fn run<W, G>(mut self, workload: W, mut fill: G) -> FabricRun<S>
    where
        W: IntoIterator<Item = DcPacket>,
        G: FnMut(&FlowKey, &mut SmallRng, &mut [Value]),
    {
        let clen = self.clen;
        let nfields = self.switches[0].program().num_fields();
        // Field-fill stream: far away from the per-host workload
        // streams (0..hosts) even when fabric and workload share seeds.
        let mut fill_rng = stream_rng(self.cfg.seed, u64::MAX - 0xF111);
        let mut stream = workload.into_iter();
        let mut pending: Option<DcPacket> = None;
        let mut exhausted = false;

        // In-flight and per-flow tables: looked up by id, never iterated,
        // so the hasher is unobservable.
        let mut meta_map: FastMap<u64, PktMeta> = FastMap::default();
        let mut flow_state: FastMap<u64, FlowState> = FastMap::default();
        let mut fcts: Vec<u64> = Vec::new();
        let mut ledger = Ledger::new();
        let mut next_id = 0u64;
        let mut tick = 0u64;
        let mut last_progress = (0u64, u64::MAX);
        let mut inbox: Vec<(u64, u16, Packet)> = Vec::new();

        loop {
            let t_end = (tick + 1) * clen;

            // Phase 0: fabric-level faults (fail-stop a spine).
            if let Some(kill) = self.cfg.kill_spine {
                if kill.at_tick == tick && !self.dead[kill.spine as usize] {
                    self.dead[kill.spine as usize] = true;
                    let r = self.switches[kill.spine as usize].live_report();
                    ledger.lost_in_dead += r.offered - r.completed - r.drops.total_data();
                }
            }

            // Phase 1: inject this tick's workload arrivals at the
            // source hosts' NICs.
            while !exhausted {
                let p = match pending.take().or_else(|| stream.next()) {
                    Some(p) => p,
                    None => {
                        exhausted = true;
                        break;
                    }
                };
                if p.arrival >= t_end {
                    pending = Some(p);
                    break;
                }
                ledger.injected += 1;
                let fs = flow_state.entry(p.flow_id).or_insert_with(|| {
                    ledger.flows_started += 1;
                    FlowState {
                        started_at: p.arrival,
                        delivered: 0,
                        total: None,
                    }
                });
                if p.last {
                    fs.total = Some(p.seq + 1);
                }
                let mut pkt = Packet::new(PacketId(next_id), PortId(0), p.arrival, p.size, nfields);
                next_id += 1;
                fill(&p.key, &mut fill_rng, &mut pkt.fields);
                let id = pkt.id.0;
                let up = self.host_up[p.src_host as usize] as usize;
                if self.links[up].push(p.arrival, pkt) {
                    meta_map.insert(
                        id,
                        PktMeta {
                            flow_id: p.flow_id,
                            dst_host: p.dst_host,
                        },
                    );
                }
                // On NIC-queue overflow the link counted the drop and
                // the packet never becomes in-flight state.
            }

            // Phase 2: deliveries to hosts (ascending host id).
            for h in 0..self.host_down.len() {
                let down = self.host_down[h] as usize;
                while let Some((at, pkt)) = self.links[down].pop_ready(t_end) {
                    let meta = meta_map
                        .remove(&pkt.id.0)
                        .expect("delivered packet has in-flight metadata");
                    ledger.delivered += 1;
                    ledger.digest = fold(ledger.digest, pkt.id.0);
                    ledger.digest = fold(ledger.digest, at);
                    ledger.digest = fold(ledger.digest, meta.dst_host as u64);
                    if let Some(fs) = flow_state.get_mut(&meta.flow_id) {
                        fs.delivered += 1;
                        if fs.total == Some(fs.delivered) {
                            fcts.push(at.saturating_sub(fs.started_at));
                            flow_state.remove(&meta.flow_id);
                        }
                    }
                }
            }

            // Phase 3: per switch (ascending id), collect link arrivals
            // and offer them in `(arrival, port)` order.
            for s in 0..self.switches.len() {
                if self.dead[s] {
                    // Black hole: arrivals into a dead switch are lost.
                    for port in 0..self.in_links[s].len() {
                        let l = self.in_links[s][port] as usize;
                        while let Some((_, pkt)) = self.links[l].pop_ready(t_end) {
                            ledger.dropped_to_dead += 1;
                            meta_map.remove(&pkt.id.0);
                        }
                    }
                    continue;
                }
                inbox.clear();
                for port in 0..self.in_links[s].len() {
                    let l = self.in_links[s][port] as usize;
                    while let Some((at, pkt)) = self.links[l].pop_ready(t_end) {
                        inbox.push((at, port as u16, pkt));
                    }
                }
                inbox.sort_by_key(|&(at, port, _)| (at, port));
                for (at, port, mut pkt) in inbox.drain(..) {
                    pkt.arrival = at;
                    pkt.port = PortId(port);
                    // Links deliver in order and a port takes one packet
                    // per byte-time, so a switch's arrivals ascend, and
                    // each is due inside the tick about to run.
                    if let Err(e) = self.switches[s].try_offer(pkt) {
                        panic!("fabric switch {s}: {e}");
                    }
                }
            }

            // Phase 4: step every live switch one cycle.
            for s in 0..self.switches.len() {
                if !self.dead[s] {
                    self.switches[s].tick();
                }
            }

            // Phase 5: route egress onto next-hop links (ascending id;
            // completion order within a switch).
            for s in 0..self.switches.len() as u32 {
                if self.dead[s as usize] {
                    continue;
                }
                for (pkt, _cycle) in self.switches[s as usize].drain_egress() {
                    let id = pkt.id.0;
                    let meta = *meta_map
                        .get(&id)
                        .expect("egress packet has in-flight metadata");
                    self.route_one(s, pkt, meta, t_end, &mut ledger, &mut meta_map);
                }
            }

            tick += 1;

            // Global progress: any counter movement anywhere. A live
            // switch grinding through its backlog always moves one of
            // these within a bounded number of ticks.
            let progress = ledger.injected
                + ledger.delivered
                + ledger.dropped_to_dead
                + ledger.dropped_no_route
                + self
                    .links
                    .iter()
                    .map(|l| l.stats.delivered + l.stats.dropped)
                    .sum::<u64>()
                + self
                    .switches
                    .iter()
                    .map(|sw| {
                        let r = sw.live_report();
                        r.completed + r.drops.total_data()
                    })
                    .sum::<u64>();
            if progress != last_progress.1 {
                last_progress = (tick, progress);
            } else if tick - last_progress.0 > self.cfg.stall_limit {
                panic!(
                    "fabric live-locked: no progress for {} ticks (tick {tick}, \
                     {} packets in flight, {} link residents)",
                    self.cfg.stall_limit,
                    meta_map.len(),
                    self.links.iter().map(Link::len).sum::<usize>()
                );
            }

            let done = exhausted
                && pending.is_none()
                && self.links.iter().all(Link::is_empty)
                && self
                    .switches
                    .iter()
                    .enumerate()
                    .all(|(s, sw)| self.dead[s] || sw.is_idle());
            if done {
                break;
            }
        }

        self.finish(tick, ledger, fcts, meta_map)
    }

    /// Routes one egress packet of switch `s` (see phase 5): forced
    /// down-path at spines, host port or ECMP/flowlet spine pick at
    /// leaves. Pushes onto the chosen link at byte-time `now`; drops
    /// (and closes the ledger) when no live route exists or the link
    /// queue is full.
    fn route_one(
        &mut self,
        s: u32,
        mut pkt: Packet,
        meta: PktMeta,
        now: u64,
        ledger: &mut Ledger,
        meta_map: &mut FastMap<u64, PktMeta>,
    ) {
        let dst_leaf = self.topo.leaf_of_host(meta.dst_host);
        let link = match self.topo.role(s) {
            NodeRole::Leaf if dst_leaf == s => self.host_down[meta.dst_host as usize],
            NodeRole::Leaf => {
                self.spines.clear();
                self.spines.extend(
                    self.topo
                        .common_spines(s, dst_leaf)
                        .filter(|&sp| !self.dead[sp as usize]),
                );
                if self.spines.is_empty() {
                    ledger.dropped_no_route += 1;
                    meta_map.remove(&pkt.id.0);
                    return;
                }
                let spine = self.router.pick_spine(s, meta.flow_id, now, &self.spines);
                let pos = self.topo.neighbors[s as usize]
                    .iter()
                    .position(|&x| x == spine)
                    .expect("candidate spine is a neighbor");
                self.out_links[s as usize][pos]
            }
            NodeRole::Spine => {
                if self.dead[dst_leaf as usize] {
                    ledger.dropped_no_route += 1;
                    meta_map.remove(&pkt.id.0);
                    return;
                }
                let pos = self.topo.neighbors[s as usize]
                    .iter()
                    .position(|&x| x == dst_leaf)
                    .expect("spine egress goes to an adjacent leaf");
                self.out_links[s as usize][pos]
            }
        };
        let id = pkt.id.0;
        // The next hop re-times the packet on arrival; reset so stale
        // ingress timing cannot leak through.
        pkt.arrival = now;
        if !self.links[link as usize].push(now, pkt) {
            // The link counted the queue-overflow drop; forget the
            // packet so the fabric ledger closes.
            meta_map.remove(&id);
        }
    }

    /// Finalizes every switch and assembles the report.
    fn finish(
        self,
        ticks: u64,
        ledger: Ledger,
        fcts: Vec<u64>,
        meta_map: FastMap<u64, PktMeta>,
    ) -> FabricRun<S> {
        let Fabric {
            topo,
            clen,
            switches,
            links,
            link_label,
            dead,
            ..
        } = self;
        let horizon = ticks * clen;
        let mut switch_reports = Vec::with_capacity(switches.len());
        let mut sinks = Vec::with_capacity(switches.len());
        let mut switch_rows = Vec::with_capacity(switches.len());
        for (i, sw) in switches.into_iter().enumerate() {
            let (rep, sink) = sw.finish_stream();
            switch_rows.push(SwitchSummary::new(
                i as u32,
                topo.role(i as u32),
                dead[i],
                &rep,
            ));
            switch_reports.push(rep);
            sinks.push(sink);
        }
        let dropped_switch: u64 = switch_reports.iter().map(|r| r.drops.total_data()).sum();
        let dropped_links: u64 = links.iter().map(|l| l.stats.dropped).sum();
        let link_rows = links
            .iter()
            .enumerate()
            .map(|(id, l)| LinkSummary {
                id: id as u32,
                from: link_label[id].0.clone(),
                to: link_label[id].1.clone(),
                stats: l.stats.clone(),
                utilization: l.stats.utilization(horizon),
            })
            .collect();
        let report = FabricReport {
            ticks,
            horizon,
            injected: ledger.injected,
            delivered: ledger.delivered,
            dropped_links,
            dropped_switch,
            dropped_no_route: ledger.dropped_no_route,
            dropped_to_dead: ledger.dropped_to_dead,
            lost_in_dead: ledger.lost_in_dead,
            flows_started: ledger.flows_started,
            fct: FctStats::from_samples(fcts),
            links: link_rows,
            switches: switch_rows,
            delivery_digest: ledger.digest,
        };
        // Cross-check: the in-flight table must hold exactly the
        // packets written off inside switches (dropped there or lost in
        // a fail-stop) — everything else was removed on its way out.
        debug_assert_eq!(
            meta_map.len() as u64,
            dropped_switch + ledger.lost_in_dead,
            "in-flight metadata does not match the drop ledger"
        );
        FabricRun {
            report,
            switch_reports,
            sinks,
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}
