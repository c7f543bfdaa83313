//! Point-to-point links: bounded FIFO queues with serialization delay
//! and propagation latency.
//!
//! Every edge of the fabric — host→leaf, leaf→host, and each direction
//! of a switch-to-switch cable — is one [`Link`]. A link transmits one
//! byte per byte-time (the same line rate as a switch port), so a
//! packet of `size` bytes occupies the wire for `size` byte-times and
//! arrives `latency` byte-times after its last bit left. Packets that
//! find the bounded transmit queue full are dropped at the sender — the
//! fabric's only loss point outside the switches themselves, and the
//! one that fires under incast.

use std::collections::VecDeque;

use mp5_types::Packet;
use serde::Serialize;

/// Per-link counters reported in the
/// [`FabricReport`](crate::fabric::FabricReport).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LinkStats {
    /// Packets fully delivered to the far end.
    pub delivered: u64,
    /// Packets dropped on a full transmit queue.
    pub dropped: u64,
    /// Highest transmit-queue occupancy observed.
    pub max_queue: usize,
    /// Bytes serialized onto the wire.
    pub busy_bytes: u64,
}

impl LinkStats {
    /// Fraction of `horizon` byte-times the wire spent transmitting.
    pub fn utilization(&self, horizon: u64) -> f64 {
        if horizon == 0 {
            0.0
        } else {
            (self.busy_bytes as f64 / horizon as f64).min(1.0)
        }
    }
}

/// One directed link. See the module docs for the timing model.
#[derive(Debug)]
pub struct Link {
    /// Propagation delay in byte-times.
    latency: u64,
    /// Transmit-queue bound in packets (the switch-port buffer).
    capacity: usize,
    /// Byte-time at which the wire frees up.
    busy_until: u64,
    /// In-flight packets: `(arrival at far end, packet)`, ascending.
    q: VecDeque<(u64, Packet)>,
    /// Arrival time of `q`'s head, `u64::MAX` when `q` is empty: the
    /// fabric probes every link every tick, and while nothing is due
    /// the probe is this one compare, without touching the queue.
    head: u64,
    /// Counters.
    pub stats: LinkStats,
}

impl Link {
    /// A link with the given transmit-queue `capacity` (packets) and
    /// propagation `latency` (byte-times).
    pub fn new(capacity: usize, latency: u64) -> Self {
        Link {
            latency,
            capacity,
            busy_until: 0,
            q: VecDeque::new(),
            head: u64::MAX,
            stats: LinkStats::default(),
        }
    }

    /// Offers `pkt` to the link at byte-time `now`. Returns `false`
    /// (and counts a drop) when the transmit queue is full.
    pub fn push(&mut self, now: u64, pkt: Packet) -> bool {
        if self.q.len() >= self.capacity {
            self.stats.dropped += 1;
            return false;
        }
        let start = self.busy_until.max(now);
        let ready = start + pkt.size as u64 + self.latency;
        self.busy_until = start + pkt.size as u64;
        self.stats.busy_bytes += pkt.size as u64;
        if self.q.is_empty() {
            self.head = ready;
        }
        self.q.push_back((ready, pkt));
        if self.q.len() > self.stats.max_queue {
            self.stats.max_queue = self.q.len();
        }
        true
    }

    /// Pops the next packet whose far-end arrival is strictly before
    /// `before`, as `(arrival, packet)`. Arrivals pop in FIFO order
    /// (serialization makes them monotone).
    pub fn pop_ready(&mut self, before: u64) -> Option<(u64, Packet)> {
        if self.head >= before {
            return None;
        }
        self.stats.delivered += 1;
        let out = self.q.pop_front();
        self.head = self.q.front().map_or(u64::MAX, |&(ready, _)| ready);
        out
    }

    /// Drops everything still queued (link into a failed switch),
    /// returning how many packets were discarded.
    pub fn drop_all(&mut self) -> u64 {
        let n = self.q.len() as u64;
        self.stats.dropped += n;
        self.q.clear();
        self.head = u64::MAX;
        n
    }

    /// Packets still in flight or queued.
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp5_types::{PacketId, PortId};

    fn pkt(id: u64, size: u32) -> Packet {
        Packet::new(PacketId(id), PortId(0), 0, size, 0)
    }

    #[test]
    fn serialization_and_latency_shape_arrivals() {
        let mut l = Link::new(8, 100);
        assert!(l.push(0, pkt(0, 64)));
        assert!(l.push(0, pkt(1, 64)));
        // First: starts at 0, last bit at 64, arrives 164. Second:
        // starts when the wire frees (64), arrives 228.
        assert!(l.pop_ready(164).is_none());
        let (a0, p0) = l.pop_ready(165).unwrap();
        assert_eq!((a0, p0.id.0), (164, 0));
        let (a1, p1) = l.pop_ready(1_000).unwrap();
        assert_eq!((a1, p1.id.0), (228, 1));
        assert!(l.is_empty());
        assert_eq!(l.stats.delivered, 2);
        assert_eq!(l.stats.busy_bytes, 128);
    }

    #[test]
    fn bounded_queue_drops_at_the_sender() {
        let mut l = Link::new(2, 0);
        assert!(l.push(0, pkt(0, 1_000)));
        assert!(l.push(0, pkt(1, 1_000)));
        assert!(!l.push(0, pkt(2, 1_000)));
        assert_eq!(l.stats.dropped, 1);
        assert_eq!(l.stats.max_queue, 2);
    }

    #[test]
    fn idle_wire_restarts_at_now() {
        let mut l = Link::new(8, 10);
        assert!(l.push(0, pkt(0, 64)));
        let _ = l.pop_ready(u64::MAX);
        // Wire idle since 64; a push at 500 starts at 500, not 64.
        assert!(l.push(500, pkt(1, 64)));
        let (a, _) = l.pop_ready(u64::MAX).unwrap();
        assert_eq!(a, 574);
    }

    #[test]
    fn drop_all_accounts_every_resident() {
        let mut l = Link::new(8, 0);
        for i in 0..5 {
            assert!(l.push(0, pkt(i, 64)));
        }
        assert_eq!(l.drop_all(), 5);
        assert!(l.is_empty());
        assert_eq!(l.stats.dropped, 5);
    }

    /// The cached head is the queue front's arrival, or `u64::MAX` on an
    /// empty queue, after every operation that changes the front.
    #[test]
    fn cached_head_follows_push_pop_and_drop_all() {
        let front = |l: &Link| l.q.front().map_or(u64::MAX, |&(at, _)| at);
        let mut l = Link::new(8, 100);
        assert_eq!(l.head, u64::MAX);
        assert!(l.push(0, pkt(0, 64)));
        assert!(l.push(0, pkt(1, 64)));
        assert_eq!(
            (l.head, front(&l)),
            (164, 164),
            "a push onto an empty queue"
        );
        assert!(l.pop_ready(164).is_none());
        assert_eq!(l.pop_ready(165).map(|(at, p)| (at, p.id.0)), Some((164, 0)));
        assert_eq!((l.head, front(&l)), (228, 228), "a pop exposes the next");
        assert!(l.push(1_000, pkt(2, 64)));
        assert_eq!(l.head, 228, "a push behind the head leaves it");
        assert_eq!(l.pop_ready(u64::MAX).map(|(at, _)| at), Some(228));
        assert_eq!(l.pop_ready(u64::MAX).map(|(at, _)| at), Some(1_164));
        assert_eq!(l.head, u64::MAX, "the last pop empties it");
        assert!(l.pop_ready(u64::MAX).is_none());
        assert!(l.push(2_000, pkt(3, 64)));
        assert_eq!(l.head, 2_164);
        assert_eq!(l.drop_all(), 1);
        assert_eq!(l.head, u64::MAX, "drop_all empties it");
        assert!(l.pop_ready(u64::MAX).is_none());
        assert!(l.push(0, pkt(4, 64)));
        assert_eq!(
            l.pop_ready(u64::MAX).map(|(at, p)| (at, p.id.0)),
            Some((2_228, 4))
        );
        assert_eq!(l.stats.delivered, 4);
    }

    /// A link into a dead switch is drained each tick like a live one
    /// and its packets discarded: each drain takes exactly the packets
    /// due before the tick's end, in order, and leaves the rest queued.
    #[test]
    fn black_hole_drain_takes_exactly_the_due_packets() {
        let mut l = Link::new(16, 10);
        for i in 0..6 {
            assert!(l.push(0, pkt(i, 100)));
        }
        // Arrivals at 110, 210, ..., 610.
        let drain = |l: &mut Link, before: u64| {
            let mut ids = Vec::new();
            while let Some((_, p)) = l.pop_ready(before) {
                ids.push(p.id.0);
            }
            ids
        };
        assert_eq!(drain(&mut l, 110), Vec::<u64>::new());
        assert_eq!(drain(&mut l, 311), vec![0, 1, 2]);
        assert_eq!(l.head, 410);
        assert_eq!(drain(&mut l, 400), Vec::<u64>::new());
        assert_eq!(drain(&mut l, u64::MAX), vec![3, 4, 5]);
        assert!(l.is_empty());
        assert_eq!(l.head, u64::MAX);
        assert_eq!((l.stats.delivered, l.stats.dropped), (6, 0));
    }
}
