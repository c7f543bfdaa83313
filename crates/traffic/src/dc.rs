//! Streaming datacenter workload for fabric simulation.
//!
//! [`FlowTraceBuilder`](crate::FlowTraceBuilder) materializes a whole
//! trace up front, which caps experiments at a few million packets.
//! Fabric runs (`mp5-topo`) drive *millions of flows* through several
//! switches, so this module generates packets lazily: [`DcWorkload`]
//! describes the workload, [`DcStream`] is an iterator that yields
//! [`DcPacket`]s in global arrival order without ever holding more than
//! one pending packet per host in memory.
//!
//! Structure follows the paper's §4.4 methodology: flow sizes from the
//! Web-search CDF ([`web_search_flow_bytes`]), bimodal packet sizes,
//! Poisson-like flow interleaving across hosts. Determinism comes from
//! per-host child streams ([`stream_rng`]): host `h`'s flow sequence is
//! a function of `(seed, h)` alone, so the merged stream is bit-stable
//! regardless of how the consumer paces it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mp5_types::{FlowKey, Time};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::flows::web_search_flow_bytes;
use crate::streams::stream_rng;
use crate::SizeDist;

/// Traffic matrix shape for a [`DcWorkload`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DcPattern {
    /// Every flow picks a uniformly random destination host (≠ source).
    Uniform,
    /// Periodic incast epochs: in each epoch one victim host receives
    /// flows from `fanin` simultaneous senders; all other flows stay
    /// uniform. This is the many-to-one pattern that stresses egress
    /// queues and, in MP5 terms, concentrates state on one leaf.
    Incast {
        /// Number of hosts converging on the victim per epoch.
        fanin: usize,
        /// Every `period`-th flow of a participating host joins the
        /// incast (smaller = more frequent incasts).
        period: usize,
    },
    /// Outcast (one-to-many): each epoch one source sprays flows to
    /// `fanout` distinct destinations in a row.
    Outcast {
        /// Number of consecutive spray destinations.
        fanout: usize,
    },
}

/// Description of a streaming datacenter workload.
#[derive(Debug, Clone)]
pub struct DcWorkload {
    /// Number of end hosts generating traffic.
    pub hosts: usize,
    /// Total number of flows across all hosts.
    pub flows: u64,
    /// Master seed; all structure derives from it.
    pub seed: u64,
    /// Offered load per host NIC as a fraction of line rate.
    pub load: f64,
    /// Packet size distribution within a flow.
    pub size: SizeDist,
    /// Cap on packets per flow (heavy-tailed flows are truncated so a
    /// single elephant cannot dominate a bounded experiment). Flow
    /// *sizes* still follow the CDF; only the emitted packet count is
    /// clamped.
    pub max_pkts_per_flow: u32,
    /// Traffic matrix shape.
    pub pattern: DcPattern,
}

impl DcWorkload {
    /// A §4.4-flavoured workload: Web-search flow sizes, bimodal
    /// 200 B / 1400 B packets, uniform traffic matrix, 0.8 load.
    pub fn new(hosts: usize, flows: u64, seed: u64) -> Self {
        DcWorkload {
            hosts,
            flows,
            seed,
            load: 0.8,
            size: SizeDist::datacenter_bimodal(),
            max_pkts_per_flow: 64,
            pattern: DcPattern::Uniform,
        }
    }

    /// Sets the offered load (fraction of host line rate).
    pub fn load(mut self, load: f64) -> Self {
        assert!(load > 0.0 && load <= 1.0, "load must be in (0, 1]");
        self.load = load;
        self
    }

    /// Sets the traffic matrix shape.
    pub fn pattern(mut self, pattern: DcPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Sets the per-flow packet cap.
    pub fn max_pkts_per_flow(mut self, cap: u32) -> Self {
        assert!(cap > 0);
        self.max_pkts_per_flow = cap;
        self
    }

    /// Opens the packet stream. The stream yields packets in global
    /// arrival order (ties broken by host id), is `O(hosts)` in memory,
    /// and is a pure function of this description.
    pub fn stream(&self) -> DcStream {
        DcStream::new(self.clone())
    }
}

/// One packet emitted by a [`DcStream`].
#[derive(Debug, Clone, PartialEq)]
pub struct DcPacket {
    /// Globally unique flow id: `(src_host << 24) | per-host counter`.
    pub flow_id: u64,
    /// The flow's 5-tuple (src/dst ip encode the host ids).
    pub key: FlowKey,
    /// Sending host.
    pub src_host: u32,
    /// Receiving host.
    pub dst_host: u32,
    /// Packet index within the flow (0-based).
    pub seq: u32,
    /// True on the flow's final packet.
    pub last: bool,
    /// Arrival time at the source NIC, in byte-times.
    pub arrival: Time,
    /// Wire size in bytes.
    pub size: u32,
}

/// Per-host generator state: its RNG stream plus the flow it is
/// currently transmitting.
struct HostGen {
    rng: SmallRng,
    /// Flows this host has started so far.
    started: u64,
    /// Flows this host is allowed to start in total.
    budget: u64,
    /// Current flow, if mid-transmission:
    /// (flow counter, key, dst, next seq, packets total).
    cur: Option<(u64, FlowKey, u32, u32, u32)>,
    /// Time the host NIC frees up, in fractional byte-times.
    free_at: f64,
}

/// Lazy, globally arrival-ordered packet stream. See [`DcWorkload`].
pub struct DcStream {
    w: DcWorkload,
    hosts: Vec<HostGen>,
    /// Min-heap of (next arrival, host id) for hosts with work left.
    heap: BinaryHeap<Reverse<(Time, u32)>>,
    yielded: u64,
}

/// Host id → the 10.x.y.z-style address used in flow keys.
fn host_ip(host: u32) -> u32 {
    0x0A00_0000 | host
}

impl DcStream {
    fn new(w: DcWorkload) -> Self {
        assert!(w.hosts >= 2, "need at least two hosts for src != dst");
        let base = w.flows / w.hosts as u64;
        let rem = (w.flows % w.hosts as u64) as usize;
        // Stagger NIC start times so hosts do not fire in lockstep.
        let stagger = w.size.mean() / w.load / w.hosts as f64;
        let mut hosts = Vec::with_capacity(w.hosts);
        let mut heap = BinaryHeap::with_capacity(w.hosts);
        for h in 0..w.hosts {
            let budget = base + u64::from(h < rem);
            let free_at = h as f64 * stagger;
            hosts.push(HostGen {
                rng: stream_rng(w.seed, h as u64),
                started: 0,
                budget,
                cur: None,
                free_at,
            });
            if budget > 0 {
                heap.push(Reverse((free_at.ceil() as Time, h as u32)));
            }
        }
        DcStream {
            w,
            hosts,
            heap,
            yielded: 0,
        }
    }

    /// Picks the destination for host `h`'s flow number `n` according
    /// to the traffic pattern. Consumes RNG draws from the host stream
    /// only (so the draw count per flow is pattern-dependent but the
    /// per-host stream stays self-contained).
    fn pick_dst(w: &DcWorkload, rng: &mut SmallRng, h: u32, n: u64) -> u32 {
        let hosts = w.hosts as u32;
        let uniform = |rng: &mut SmallRng| {
            let d = rng.gen_range(0..hosts - 1);
            if d >= h {
                d + 1
            } else {
                d
            }
        };
        match w.pattern {
            DcPattern::Uniform => uniform(rng),
            DcPattern::Incast { fanin, period } => {
                // Epoch e = n / period. Deterministically choose the
                // victim and whether this host participates; no RNG so
                // every participant agrees on the victim.
                let e = n / period.max(1) as u64;
                let victim = (e % hosts as u64) as u32;
                let joins = n.is_multiple_of(period.max(1) as u64)
                    && ((h as u64 + e) % hosts as u64) < fanin as u64
                    && victim != h;
                if joins {
                    victim
                } else {
                    uniform(rng)
                }
            }
            DcPattern::Outcast { fanout } => {
                // Epoch of `fanout` consecutive flows sprays a run of
                // distinct destinations starting from a rotating base.
                let e = n / fanout.max(1) as u64;
                let i = n % fanout.max(1) as u64;
                let base = ((h as u64).wrapping_mul(0x9e37_79b9) + e) % hosts as u64;
                let d = ((base + i) % hosts as u64) as u32;
                if d == h {
                    uniform(rng)
                } else {
                    d
                }
            }
        }
    }

    /// Starts host `h`'s next flow, if it has budget left.
    fn start_flow(&mut self, h: u32) {
        let w = self.w.clone();
        let hg = &mut self.hosts[h as usize];
        if hg.started >= hg.budget {
            return;
        }
        let n = hg.started;
        hg.started += 1;
        let dst = Self::pick_dst(&w, &mut hg.rng, h, n);
        let key = FlowKey {
            src_ip: host_ip(h),
            dst_ip: host_ip(dst),
            src_port: hg.rng.gen_range(1024..60_000),
            dst_port: [80u16, 443, 8080, 5201][hg.rng.gen_range(0..4)],
            proto: 6,
        };
        let bytes = web_search_flow_bytes(&mut hg.rng);
        let pkts = bytes.div_ceil(1400).clamp(1, w.max_pkts_per_flow as u64) as u32;
        // Inter-flow gap: think-time drawn so the host offers ~`load`
        // of its line rate over many flows.
        let gap = hg.rng.gen::<f64>() * 2.0 * w.size.mean() / w.load;
        hg.free_at += gap;
        hg.cur = Some((n, key, dst, 0, pkts));
    }
}

impl Iterator for DcStream {
    type Item = DcPacket;

    fn next(&mut self) -> Option<DcPacket> {
        let (h, n, key, dst, seq, pkts) = loop {
            let Reverse((t, h)) = self.heap.pop()?;
            if self.hosts[h as usize].cur.is_none() {
                self.start_flow(h);
            }
            let hg = &mut self.hosts[h as usize];
            let Some(cur) = hg.cur else { continue };
            // Starting a flow added think-time, so the host may no
            // longer be due at its heap key; re-queue at the real time
            // to keep the merged stream globally arrival-ordered.
            let due = hg.free_at.ceil() as Time;
            if due > t {
                self.heap.push(Reverse((due, h)));
                continue;
            }
            hg.cur = None;
            let (n, key, dst, seq, pkts) = cur;
            break (h, n, key, dst, seq, pkts);
        };
        let w_size = self.w.size;
        let w_load = self.w.load;
        let hg = &mut self.hosts[h as usize];
        let size = {
            let s = w_size.sample(&mut hg.rng);
            s.max(64)
        };
        let arrival = hg.free_at.ceil() as Time;
        hg.free_at += size as f64 / w_load;
        let last = seq + 1 >= pkts;
        if !last {
            hg.cur = Some((n, key, dst, seq + 1, pkts));
        }
        let more = hg.cur.is_some() || hg.started < hg.budget;
        if more {
            let next_at = hg.free_at.ceil() as Time;
            self.heap.push(Reverse((next_at, h)));
        }
        self.yielded += 1;
        Some(DcPacket {
            flow_id: (u64::from(h) << 24) | n,
            key,
            src_host: h,
            dst_host: dst,
            seq,
            last,
            arrival,
            size,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn collect(w: &DcWorkload) -> Vec<DcPacket> {
        w.stream().collect()
    }

    #[test]
    fn stream_is_deterministic_and_arrival_ordered() {
        let w = DcWorkload::new(8, 500, 42);
        let a = collect(&w);
        let b = collect(&w);
        assert_eq!(a, b, "same description must replay bit-identically");
        assert!(!a.is_empty());
        // Global arrival order with (arrival, host) tie-break.
        assert!(a
            .windows(2)
            .all(|p| (p[0].arrival, p[0].src_host) <= (p[1].arrival, p[1].src_host)));
    }

    #[test]
    fn every_flow_completes_exactly_once() {
        let w = DcWorkload::new(6, 200, 7);
        let pkts = collect(&w);
        let mut seen: HashMap<u64, (u32, bool)> = HashMap::new();
        for p in &pkts {
            let e = seen.entry(p.flow_id).or_insert((0, false));
            assert_eq!(p.seq, e.0, "per-flow seq must be gapless");
            assert!(!e.1, "no packets after `last`");
            e.0 += 1;
            e.1 = p.last;
        }
        assert_eq!(seen.len() as u64, w.flows, "all flows must appear");
        for (fid, (count, done)) in &seen {
            assert!(*done, "flow {fid} never finished");
            assert!(*count <= w.max_pkts_per_flow, "cap violated on {fid}");
        }
    }

    #[test]
    fn flow_budget_splits_across_hosts() {
        // 10 flows, 4 hosts -> budgets 3,3,2,2.
        let w = DcWorkload::new(4, 10, 1);
        let pkts = collect(&w);
        let mut per_host: HashMap<u32, std::collections::HashSet<u64>> = HashMap::new();
        for p in &pkts {
            per_host.entry(p.src_host).or_default().insert(p.flow_id);
            assert_ne!(p.src_host, p.dst_host);
            assert_eq!(p.key.src_ip, 0x0A00_0000 | p.src_host);
            assert_eq!(p.key.dst_ip, 0x0A00_0000 | p.dst_host);
        }
        assert_eq!(per_host[&0].len(), 3);
        assert_eq!(per_host[&1].len(), 3);
        assert_eq!(per_host[&2].len(), 2);
        assert_eq!(per_host[&3].len(), 2);
    }

    #[test]
    fn incast_converges_many_senders_per_epoch() {
        // Victims rotate per epoch (so aggregate per-destination counts
        // stay flat); the incast signature is that *within* an epoch,
        // close to `fanin` senders converge on the epoch's victim.
        let (hosts, fanin, period) = (16u64, 12usize, 2u64);
        let w = DcWorkload::new(hosts as usize, 2_000, 9).pattern(DcPattern::Incast {
            fanin,
            period: period as usize,
        });
        let pkts = collect(&w);
        for e in 0..8u64 {
            let victim = (e % hosts) as u32;
            let senders: std::collections::HashSet<u32> = pkts
                .iter()
                .filter(|p| {
                    let n = p.flow_id & 0xFF_FFFF;
                    p.seq == 0 && n == e * period && p.dst_host == victim
                })
                .map(|p| p.src_host)
                .collect();
            assert!(
                senders.len() >= fanin - 1,
                "epoch {e}: expected ~{fanin} senders on victim {victim}, got {}",
                senders.len()
            );
        }
        // Uniform control: the same query finds almost no convergence.
        let u = collect(&DcWorkload::new(hosts as usize, 2_000, 9));
        for e in 0..8u64 {
            let victim = (e % hosts) as u32;
            let senders = u
                .iter()
                .filter(|p| {
                    let n = p.flow_id & 0xFF_FFFF;
                    p.seq == 0 && n == e * period && p.dst_host == victim
                })
                .count();
            assert!(senders < fanin - 1, "uniform epoch {e}: {senders} senders");
        }
    }

    #[test]
    fn outcast_sprays_distinct_destinations() {
        let w = DcWorkload::new(12, 600, 3).pattern(DcPattern::Outcast { fanout: 6 });
        let pkts = collect(&w);
        // Per source host, consecutive flows should hit many distinct
        // destinations.
        let mut per_src: HashMap<u32, Vec<(u64, u32)>> = HashMap::new();
        for p in &pkts {
            if p.seq == 0 {
                per_src
                    .entry(p.src_host)
                    .or_default()
                    .push((p.flow_id, p.dst_host));
            }
        }
        for (src, mut flows) in per_src {
            flows.sort_unstable();
            let dsts: std::collections::HashSet<u32> =
                flows.iter().take(6).map(|&(_, d)| d).collect();
            assert!(
                dsts.len() >= 5,
                "host {src}: first spray epoch should cover distinct dsts, got {dsts:?}"
            );
        }
    }

    #[test]
    fn stream_memory_is_bounded_by_hosts() {
        // 100k flows stream through without materializing: just count.
        let w = DcWorkload::new(32, 100_000, 5).max_pkts_per_flow(4);
        let mut pkts = 0u64;
        let mut flows_done = 0u64;
        for p in w.stream() {
            pkts += 1;
            flows_done += u64::from(p.last);
        }
        assert_eq!(flows_done, 100_000);
        assert!(pkts >= 100_000);
    }
}
