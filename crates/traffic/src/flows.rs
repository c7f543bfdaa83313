//! Flow-structured traffic with realistic size distributions (§4.4).
//!
//! The paper drives the real-application experiments with "Web search
//! workload for flow size and traffic distribution" (DCTCP / pFabric)
//! and bimodal packet sizes. We encode the commonly used piecewise
//! approximation of the Web-search flow-size CDF; what matters for MP5
//! is the *shape* — a heavy tail in which a few flows carry most bytes —
//! which governs the state-access skew.

use std::cmp::Reverse;

use mp5_types::{FlowKey, Packet, PacketId, PortId, Time, Value};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::streams::stream_rng;
use crate::{port_clock, SizeDist};

/// Piecewise-linear CDF of flow sizes in KB for the Web-search workload
/// (approximation of the DCTCP measurement): `(cumulative probability,
/// flow size in KB)`.
pub const WEB_SEARCH_CDF: &[(f64, f64)] = &[
    (0.0, 1.0),
    (0.15, 6.0),
    (0.30, 10.0),
    (0.50, 19.0),
    (0.60, 29.0),
    (0.70, 100.0),
    (0.80, 333.0),
    (0.90, 1_000.0),
    (0.95, 3_333.0),
    (0.99, 10_000.0),
    (1.0, 30_000.0),
];

/// Samples a flow size in bytes from [`WEB_SEARCH_CDF`] by inverse
/// transform over the piecewise-linear CDF.
pub fn web_search_flow_bytes(rng: &mut SmallRng) -> u64 {
    let u: f64 = rng.gen();
    let mut prev = WEB_SEARCH_CDF[0];
    for &pt in &WEB_SEARCH_CDF[1..] {
        if u <= pt.0 {
            let (p0, s0) = prev;
            let (p1, s1) = pt;
            let t = if p1 > p0 { (u - p0) / (p1 - p0) } else { 0.0 };
            // Interpolate in log-space (the tail spans 4 decades).
            let kb = (s0.ln() + t * (s1.ln() - s0.ln())).exp();
            return (kb * 1024.0) as u64;
        }
        prev = pt;
    }
    (WEB_SEARCH_CDF.last().unwrap().1 * 1024.0) as u64
}

/// One generated flow.
#[derive(Debug, Clone)]
pub struct Flow {
    /// The flow's 5-tuple.
    pub key: FlowKey,
    /// Total bytes.
    pub bytes: u64,
    /// Ingress port carrying this flow.
    pub port: PortId,
}

/// Builds flow-structured traces: heavy-tailed flows, bimodal packet
/// sizes, each flow pinned to one ingress port (ports interleave flows
/// in the merged arrival stream).
#[derive(Debug, Clone)]
pub struct FlowTraceBuilder {
    /// Switch ports (default 64).
    pub ports: usize,
    /// RNG seed.
    pub seed: u64,
    /// Packet size distribution (default: datacenter bimodal).
    pub size: SizeDist,
    /// Approximate number of packets to generate.
    pub count: usize,
    /// Offered load as a fraction of line rate.
    pub load: f64,
}

impl FlowTraceBuilder {
    /// Default §4.4 configuration.
    pub fn new(count: usize, seed: u64) -> Self {
        FlowTraceBuilder {
            ports: 64,
            seed,
            size: SizeDist::datacenter_bimodal(),
            count,
            load: 1.0,
        }
    }

    /// Sets offered load.
    pub fn load(mut self, load: f64) -> Self {
        assert!(load > 0.0 && load <= 1.0);
        self.load = load;
        self
    }

    /// Generates the trace. `fill(rng, flow_key, fields)` populates each
    /// packet's header fields; most programs write the 5-tuple fields
    /// plus program-specific ones.
    ///
    /// Returns the packets (entry-ordered) and the flow table.
    ///
    /// Flow structure (keys and flow sizes), packet sizes, and the
    /// `fill` callback each consume an independent child stream of
    /// `seed` (see [`crate::streams`]), so the generated *flow table*
    /// is a function of the seed alone: swapping the packet-size
    /// distribution or the field filler reproduces the exact same
    /// flows.
    pub fn build<F>(&self, nfields: usize, mut fill: F) -> (Vec<Packet>, Vec<Flow>)
    where
        F: FnMut(&mut SmallRng, &FlowKey, &mut [Value]),
    {
        // Child streams: 0 = flow structure, 1 = packet sizes,
        // 2 = caller's field filler.
        let mut flow_rng = stream_rng(self.seed, 0);
        let mut size_rng = stream_rng(self.seed, 1);
        let mut fill_rng = stream_rng(self.seed, 2);
        let mut flows: Vec<Flow> = Vec::new();
        let mut packets: Vec<Packet> = Vec::with_capacity(self.count);
        // Per-port state: time the port frees, and the flow it is
        // currently sending (flows on one port are sent one after
        // another, so concurrently active flows interleave across
        // ports).
        // Stagger port start times (see TraceBuilder) for smooth
        // line-rate aggregation.
        let mut port_free = port_clock(self.ports, self.size.mean() / self.load);
        let mut port_flow: Vec<Option<(usize, u64)>> = vec![None; self.ports]; // (flow idx, bytes left)
        let mut next_id = 0u64;

        while packets.len() < self.count {
            let mut next = port_free.peek_mut().expect("ports > 0");
            let Reverse((free, port)) = *next;
            let free = f64::from_bits(free);
            // Start a new flow on this port if needed.
            let (flow_idx, bytes_left) = match port_flow[port] {
                Some((fi, left)) if left > 0 => (fi, left),
                _ => {
                    let key = FlowKey {
                        src_ip: flow_rng.gen(),
                        dst_ip: flow_rng.gen(),
                        src_port: flow_rng.gen_range(1024..60_000),
                        dst_port: [80u16, 443, 8080, 5201][flow_rng.gen_range(0..4)],
                        proto: 6,
                    };
                    let bytes = web_search_flow_bytes(&mut flow_rng);
                    flows.push(Flow {
                        key,
                        bytes,
                        port: PortId(port as u16),
                    });
                    (flows.len() - 1, bytes)
                }
            };
            let size = self
                .size
                .sample(&mut size_rng)
                .min(bytes_left.max(64) as u32);
            let arrival = free.ceil() as Time;
            let busy = (size as f64) * (self.ports as f64) / self.load;
            *next = Reverse(((free + busy).to_bits(), port));
            drop(next);
            port_flow[port] = Some((flow_idx, bytes_left.saturating_sub(size as u64)));

            let key = flows[flow_idx].key;
            let mut pkt = Packet::new(
                PacketId(next_id),
                PortId(port as u16),
                arrival,
                size,
                nfields,
            );
            next_id += 1;
            fill(&mut fill_rng, &key, &mut pkt.fields);
            packets.push(pkt);
        }
        packets.sort_by_key(|p| p.entry_order_key());
        (packets, flows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn flow_sizes_are_heavy_tailed() {
        let mut rng = SmallRng::seed_from_u64(11);
        let sizes: Vec<u64> = (0..20_000)
            .map(|_| web_search_flow_bytes(&mut rng))
            .collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let p99 = sorted[sorted.len() * 99 / 100];
        assert!(median < 64 * 1024, "median {median} should be tens of KB");
        assert!(
            p99 > 100 * median,
            "tail must dominate: p99 {p99} vs median {median}"
        );
        // Top 10% of flows should carry the majority of bytes.
        let total: u64 = sorted.iter().sum();
        let top10: u64 = sorted[sorted.len() * 9 / 10..].iter().sum();
        assert!(top10 as f64 / total as f64 > 0.6);
    }

    #[test]
    fn trace_interleaves_flows_across_ports() {
        let (pkts, flows) = FlowTraceBuilder::new(5000, 3).build(5, |_, k, f| {
            let v = k.field_values();
            f[..5].copy_from_slice(&v);
        });
        assert_eq!(pkts.len(), 5000);
        assert!(
            flows.len() > 10,
            "should see multiple flows: {}",
            flows.len()
        );
        // Entry-ordered and deterministic.
        assert!(pkts
            .windows(2)
            .all(|w| w[0].entry_order_key() <= w[1].entry_order_key()));
        let (pkts2, _) = FlowTraceBuilder::new(5000, 3).build(5, |_, k, f| {
            let v = k.field_values();
            f[..5].copy_from_slice(&v);
        });
        assert_eq!(pkts, pkts2);
    }

    #[test]
    fn flow_table_depends_only_on_the_seed() {
        // The determinism contract: flow structure is a function of the
        // seed alone. Swapping the packet-size distribution must
        // reproduce the same flows (packet counts differ, so compare
        // the common creation-order prefix).
        let (_, bimodal) = FlowTraceBuilder::new(3_000, 9).build(5, |_, k, f| {
            f[..5].copy_from_slice(&k.field_values());
        });
        let mut small = FlowTraceBuilder::new(3_000, 9);
        small.size = SizeDist::Fixed(64);
        let (_, fixed) = small.build(5, |_, _, _| {});
        let common = bimodal.len().min(fixed.len());
        assert!(common > 10, "want a meaningful prefix, got {common}");
        for (a, b) in bimodal[..common].iter().zip(&fixed[..common]) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.bytes, b.bytes);
        }
    }

    #[test]
    fn golden_digest_pins_the_generator() {
        // Golden hash: any change to the flow generator's draw order,
        // arrival process, or packet layout shows up here. Computed
        // with the vendored rand (bit-exact xoshiro256++ / rand 0.8.5
        // streams).
        let (pkts, flows) = FlowTraceBuilder::new(500, 7).build(5, |_, k, f| {
            f[..5].copy_from_slice(&k.field_values());
        });
        let digest = crate::streams::stream_digest(&pkts);
        let flow_digest = flows.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, fl| {
            let h = crate::streams::fnv1a_fold(h, fl.key.src_ip as u64);
            let h = crate::streams::fnv1a_fold(h, fl.key.dst_ip as u64);
            crate::streams::fnv1a_fold(h, fl.bytes)
        });
        assert_eq!(
            (digest, flow_digest),
            (0x4bf8_bbc9_5322_3fcd, 0x5daf_d90f_72aa_823d),
            "digest {digest:#018x}, flow digest {flow_digest:#018x}"
        );
    }

    #[test]
    fn packets_within_flow_share_fields() {
        let (pkts, _flows) = FlowTraceBuilder::new(2000, 5).build(5, |_, k, f| {
            let v = k.field_values();
            f[..5].copy_from_slice(&v);
        });
        // Group by 5-tuple fields: each group must have consistent port.
        use std::collections::HashMap;
        let mut by_key: HashMap<Vec<Value>, std::collections::HashSet<u16>> = HashMap::new();
        for p in &pkts {
            by_key
                .entry(p.fields[..5].to_vec())
                .or_default()
                .insert(p.port.0);
        }
        for (_, ports) in by_key {
            assert_eq!(ports.len(), 1, "a flow must stay on one port");
        }
    }
}
