//! Workload and trace generation.
//!
//! Produces the input packet streams for every experiment in the paper:
//!
//! * [`TraceBuilder`] — line-rate arrivals on an `N`-port switch with
//!   configurable packet-size distribution and offered load, plus a
//!   caller-supplied field filler ("in the same spirit of stressing our
//!   system to the fullest, we ensure that the input packets always
//!   arrive at line rate", §4.3.1).
//! * [`AccessPattern`] — the uniform and skewed (95 % of packets touch
//!   30 % of states) state-access patterns of §4.3.1.
//! * [`FlowTraceBuilder`] — flow-structured traffic with the Web-search
//!   heavy-tailed flow-size distribution and bimodal 200 B/1400 B packet
//!   sizes used for the real-application experiments (§4.4).
//!
//! All generators are seeded and deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dc;
pub mod flows;
pub mod pattern;
pub mod streams;

pub use dc::{DcPacket, DcPattern, DcStream, DcWorkload};
pub use flows::{FlowTraceBuilder, WEB_SEARCH_CDF};
pub use pattern::AccessPattern;
pub use streams::{stream_digest, stream_rng, stream_seed};

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mp5_types::{Packet, PacketId, PortId, Time, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// When each port is next free to begin a packet, as a min-heap of
/// `(time.to_bits(), port)`: times are finite and ≥ 0, so bit order is
/// value order, and the head is the port that frees earliest — the
/// lowest port id on ties, the paper's entry-order rule. The builders
/// rewrite the head through `peek_mut` once per packet.
pub(crate) type PortClock = BinaryHeap<Reverse<(u64, usize)>>;

/// Ports staggered by `stagger` byte-times each, so the merged stream
/// is smooth line rate rather than phase-locked bursts of one packet
/// per port. `#[inline]`: its callers are generic over the field
/// filler, so they are compiled in the calling crate, and this goes
/// with them.
#[inline]
pub(crate) fn port_clock(ports: usize, stagger: f64) -> PortClock {
    (0..ports)
        .map(|p| Reverse(((p as f64 * stagger).to_bits(), p)))
        .collect()
}

/// Packet size distribution on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizeDist {
    /// Every packet has this many bytes (64 = worst case, §4.3.1).
    Fixed(u32),
    /// Bimodal datacenter mix (§4.4 uses 200 B / 1400 B).
    Bimodal {
        /// Small-mode size in bytes.
        small: u32,
        /// Large-mode size in bytes.
        large: u32,
        /// Probability of the small mode.
        p_small: f64,
    },
}

impl SizeDist {
    /// The paper's §4.4 bimodal distribution, "clustered around 200 B
    /// and 1400 B, as commonly observed in datacenters".
    pub fn datacenter_bimodal() -> Self {
        SizeDist::Bimodal {
            small: 200,
            large: 1400,
            p_small: 0.55,
        }
    }

    /// Mean packet size in bytes.
    pub fn mean(&self) -> f64 {
        match *self {
            SizeDist::Fixed(s) => s as f64,
            SizeDist::Bimodal {
                small,
                large,
                p_small,
            } => small as f64 * p_small + large as f64 * (1.0 - p_small),
        }
    }

    /// Draws one packet size.
    pub fn sample(&self, rng: &mut SmallRng) -> u32 {
        match *self {
            SizeDist::Fixed(s) => s,
            SizeDist::Bimodal {
                small,
                large,
                p_small,
            } => {
                if rng.gen_bool(p_small) {
                    small
                } else {
                    large
                }
            }
        }
    }
}

/// Builds a line-rate packet trace on an `N`-port switch.
///
/// Arrival model: each port transmits back-to-back at its own rate `B`
/// (= aggregate / `ports`), so a packet of `s` bytes occupies its port
/// for `s · ports` byte-times. `load < 1.0` stretches per-port gaps
/// proportionally. The merged stream therefore offers
/// `load × N·B` bytes per byte-time to the switch.
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    /// Number of switch ports (paper default: 64).
    pub ports: usize,
    /// RNG seed (every trace is deterministic).
    pub seed: u64,
    /// Packet size distribution.
    pub size: SizeDist,
    /// Number of packets to generate.
    pub count: usize,
    /// Offered load as a fraction of line rate (default 1.0).
    pub load: f64,
}

impl TraceBuilder {
    /// A default 64-port, line-rate, 64 B-packet trace (the paper's
    /// stress configuration).
    pub fn new(count: usize, seed: u64) -> Self {
        TraceBuilder {
            ports: 64,
            seed,
            size: SizeDist::Fixed(64),
            count,
            load: 1.0,
        }
    }

    /// Sets the packet size distribution.
    pub fn size(mut self, size: SizeDist) -> Self {
        self.size = size;
        self
    }

    /// Sets the offered load fraction.
    pub fn load(mut self, load: f64) -> Self {
        assert!(load > 0.0 && load <= 1.0, "load must be in (0, 1]");
        self.load = load;
        self
    }

    /// Sets the port count.
    pub fn ports(mut self, ports: usize) -> Self {
        assert!(ports > 0);
        self.ports = ports;
        self
    }

    /// Generates the trace. `fill(rng, packet_index, fields)` populates
    /// each packet's declared header fields; `nfields` sizes the field
    /// vector (use the compiled program's `num_fields()`).
    ///
    /// Returned packets are sorted by entry order.
    pub fn build<F>(&self, nfields: usize, mut fill: F) -> Vec<Packet>
    where
        F: FnMut(&mut SmallRng, u64, &mut [Value]),
    {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        // Ports are staggered by one mean packet time each.
        let mut port_free = port_clock(self.ports, self.size.mean() / self.load);
        let mut packets = Vec::with_capacity(self.count);
        for i in 0..self.count as u64 {
            // The next arrival comes from the port that frees earliest.
            let mut next = port_free.peek_mut().expect("ports > 0");
            let Reverse((free, port)) = *next;
            let free = f64::from_bits(free);
            let size = self.size.sample(&mut rng);
            let arrival = free.ceil() as Time;
            // Port occupancy: size bytes at rate aggregate/ports.
            let busy = (size as f64) * (self.ports as f64) / self.load;
            *next = Reverse(((free + busy).to_bits(), port));
            drop(next);
            let mut pkt = Packet::new(PacketId(i), PortId(port as u16), arrival, size, nfields);
            fill(&mut rng, i, &mut pkt.fields);
            packets.push(pkt);
        }
        packets.sort_by_key(|p| p.entry_order_key());
        packets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_size_line_rate_has_uniform_spacing() {
        let trace = TraceBuilder::new(1000, 7).build(1, |_, _, _| {});
        // At line rate with 64 B packets, aggregate inter-arrival is
        // 64 byte-times: packet i arrives at ~64*i/ports per port, and
        // the merged stream delivers ~1 packet per 64 byte-times.
        let t_last = trace.last().unwrap().arrival;
        let span = t_last.max(1) as f64;
        let rate = trace.len() as f64 / span; // packets per byte-time
        let ideal = 1.0 / 64.0;
        assert!(
            (rate - ideal).abs() / ideal < 0.15,
            "rate {rate} vs ideal {ideal}"
        );
    }

    #[test]
    fn load_scales_arrival_rate() {
        let full = TraceBuilder::new(2000, 1).build(1, |_, _, _| {});
        let half = TraceBuilder::new(2000, 1).load(0.5).build(1, |_, _, _| {});
        let full_span = full.last().unwrap().arrival;
        let half_span = half.last().unwrap().arrival;
        assert!(
            (half_span as f64 / full_span as f64 - 2.0).abs() < 0.2,
            "half load should take ~2x longer: {half_span} vs {full_span}"
        );
    }

    #[test]
    fn trace_is_deterministic() {
        let a = TraceBuilder::new(500, 42).build(2, |r, _, f| f[0] = r.gen_range(0..100));
        let b = TraceBuilder::new(500, 42).build(2, |r, _, f| f[0] = r.gen_range(0..100));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = TraceBuilder::new(100, 1).build(2, |r, _, f| f[0] = r.gen_range(0..1000));
        let b = TraceBuilder::new(100, 2).build(2, |r, _, f| f[0] = r.gen_range(0..1000));
        assert_ne!(a, b);
    }

    #[test]
    fn packets_sorted_and_unique_ids() {
        let trace = TraceBuilder::new(300, 3)
            .size(SizeDist::datacenter_bimodal())
            .build(1, |_, _, _| {});
        assert!(trace
            .windows(2)
            .all(|w| w[0].entry_order_key() <= w[1].entry_order_key()));
        let mut ids: Vec<u64> = trace.iter().map(|p| p.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 300);
    }

    #[test]
    fn bimodal_sizes_only_two_modes() {
        let trace = TraceBuilder::new(500, 9)
            .size(SizeDist::datacenter_bimodal())
            .build(1, |_, _, _| {});
        assert!(trace.iter().all(|p| p.size == 200 || p.size == 1400));
        let small = trace.iter().filter(|p| p.size == 200).count();
        assert!(small > 150 && small < 400, "mix should be roughly 55/45");
    }

    #[test]
    fn ports_spread_arrivals() {
        let trace = TraceBuilder::new(640, 5).build(1, |_, _, _| {});
        let used: std::collections::HashSet<u16> = trace.iter().map(|p| p.port.0).collect();
        assert_eq!(used.len(), 64, "all 64 ports should carry traffic");
    }
}
