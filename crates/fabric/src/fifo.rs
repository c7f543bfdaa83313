//! The per-stage logical FIFO (paper §3.2).
//!
//! Each MP5 stage has `k` physical FIFOs (one per pipeline) at its input,
//! which "logically operate as a single FIFO" supporting three
//! operations:
//!
//! 1. `push(pkt, fifo_id)` — append a data or phantom packet to the tail
//!    of FIFO `fifo_id`, timestamping it; drop if full. Phantom locations
//!    are recorded in a directory indexed by the packet's id.
//! 2. `insert(pkt, addr, fifo_id)` — replace a queued phantom with its
//!    data packet at the address found in the directory; drop the data
//!    packet if the directory has no entry (its phantom was dropped).
//! 3. `pop()` — among the `k` FIFO heads, pick the entry with the
//!    smallest timestamp. A data head is dequeued and processed; a
//!    phantom head *blocks* every later packet until its data packet
//!    arrives — this is how D4 freezes the serial processing order.
//!
//! In hardware the packet's id is its buffer slot, so the directory is
//! an array beside the packet buffer. Here it lives with the caller the
//! same way: [`FifoCore`] hands out each phantom's [`FifoAddr`] at
//! `push` and matches `insert` by that address alone (the switch keeps
//! the addresses beside each in-flight packet's slot), while
//! [`LogicalFifo`] is the keyed form, a directory from [`PhantomKey`]
//! to address in front of the core.
//!
//! Two extensions beyond the paper's literal text, both needed to run the
//! paper's own scenarios:
//!
//! * **Stale entries.** When a predicate cannot be resolved preemptively,
//!   MP5 emits *speculative* phantoms for both branches and later ignores
//!   the false branch "resulting in a nominal performance penalty of one
//!   wasted clock cycle" (§3.3). We model this by converting the phantom
//!   to a [`Entry::Stale`] with `free = false`: when it reaches the head
//!   it consumes one pop cycle and vanishes. Separately, when a data
//!   packet is *dropped* upstream, its remaining phantoms are cancelled
//!   with `free = true` (removed without consuming service) so a lost
//!   packet cannot deadlock a queue forever.
//! * **Timestamps are caller-supplied [`OrderKey`]s** rather than wall
//!   clocks, so the same structure serves MP5 (keys = original arrival
//!   order, enforcing C1) and the no-D4 ablation (keys = queue entry
//!   time, which is what permits C1 violations).

use std::collections::VecDeque;

use mp5_trace::{EventKind, TraceCtx, TraceSink};
use mp5_types::{FastMap, PacketId, PipelineId, RegId};
use serde::{Deserialize, Serialize};

use crate::ring::RingBuffer;

/// Converts a fabric [`PhantomKey`] into the trace event schema's key.
fn tk(key: PhantomKey) -> mp5_trace::Key {
    mp5_trace::Key {
        pkt: key.pkt,
        reg: key.reg,
        index: key.index,
    }
}

/// Identifies the phantom (and hence queue placeholder) for one state
/// access by one packet.
///
/// The paper's directory is "indexed by packet's id"; we additionally key
/// by `(reg, index)` because a packet whose predicate could not be
/// resolved preemptively may own *two* speculative phantoms in the same
/// stage, one per branch (§3.3). Ordered field by field, the order a
/// checkpoint lists its key sets in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PhantomKey {
    /// The data packet this phantom stands in for.
    pub pkt: PacketId,
    /// The register array of the access.
    pub reg: RegId,
    /// The resolved register index of the access.
    pub index: u32,
}

/// The total order enforced by `pop()`.
///
/// For MP5 this is the packet's switch entry order `(arrival byte-time,
/// ingress port)` — unique per packet because a port delivers at most one
/// packet per byte-time. For the no-D4 ablation it is `(queue entry
/// cycle, source lane)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OrderKey(pub u64, pub u64);

/// Stable address of a queued entry: `(lane, sequence number)`. A
/// phantom's address is what `insert` and `cancel` go back to; the
/// caller keeps it (the switch, beside the packet's buffer slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoAddr {
    /// Which of the `k` physical FIFOs.
    pub lane: PipelineId,
    /// Sequence number within that lane's ring buffer.
    pub seq: u64,
}

impl FifoAddr {
    /// An address no FIFO issues (its lane does not exist): what a
    /// caller records for a phantom that was never queued. Inserting or
    /// cancelling at it fails like at any address that does not hold
    /// the phantom asked for.
    pub const UNSET: FifoAddr = FifoAddr {
        lane: PipelineId(u16::MAX),
        seq: u64::MAX,
    };
}

/// One queued element.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Entry<T> {
    /// A placeholder for a data packet that has not yet arrived.
    Phantom {
        /// Directory key.
        key: PhantomKey,
        /// Ordering timestamp.
        ts: OrderKey,
    },
    /// An actual data packet, ready for stateful processing.
    Data {
        /// The queued payload.
        item: T,
        /// Ordering timestamp (inherited from the phantom when inserted).
        ts: OrderKey,
    },
    /// A cancelled placeholder. `free` entries are reclaimed without
    /// consuming service; non-free entries (speculative false branches)
    /// cost one pop cycle, per §3.3.
    Stale {
        /// Ordering timestamp.
        ts: OrderKey,
        /// Whether reclamation is free (true) or costs a cycle (false).
        free: bool,
    },
}

impl<T> Entry<T> {
    /// The ordering timestamp of this entry.
    pub fn ts(&self) -> OrderKey {
        match self {
            Entry::Phantom { ts, .. } | Entry::Data { ts, .. } | Entry::Stale { ts, .. } => *ts,
        }
    }

    /// The same entry with its payload (if any) passed through `f`.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Entry<U> {
        match self {
            Entry::Phantom { key, ts } => Entry::Phantom { key, ts },
            Entry::Data { item, ts } => Entry::Data { item: f(item), ts },
            Entry::Stale { ts, free } => Entry::Stale { ts, free },
        }
    }

    /// The entry with its payload borrowed.
    pub fn as_ref(&self) -> Entry<&T> {
        match self {
            Entry::Phantom { key, ts } => Entry::Phantom { key: *key, ts: *ts },
            Entry::Data { item, ts } => Entry::Data { item, ts: *ts },
            Entry::Stale { ts, free } => Entry::Stale {
                ts: *ts,
                free: *free,
            },
        }
    }
}

/// Error returned by `push` when the target lane is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PushError;

/// Result of a [`FifoCore::pop`] attempt.
#[derive(Debug)]
pub enum PopOutcome<T> {
    /// All lanes empty: nothing to do this cycle.
    Empty,
    /// A data packet was dequeued for processing.
    Data(T),
    /// The globally-oldest entry is a phantom: every later packet is
    /// blocked until the corresponding data packet arrives.
    BlockedOnPhantom(PhantomKey),
    /// A speculative-false phantom was reclaimed, wasting this cycle
    /// (paper §3.3's "one wasted clock cycle").
    ConsumedStale,
}

/// Sentinel in [`FifoCore::lane_pos`]: the lane holds no entries and
/// is absent from the packed occupied-lane list.
const NOT_OCCUPIED: u32 = u32::MAX;

/// Checkpointed contents of one lane of a [`FifoCore`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneParts<T> {
    /// Sequence number of the lane's head element (restores the stable
    /// addresses every outstanding [`FifoAddr`] uses).
    pub head_seq: u64,
    /// Statistics high-water mark of the lane's ring.
    pub max_occupancy: usize,
    /// Queued entries, head to tail.
    pub entries: Vec<Entry<T>>,
}

/// Checkpointed contents of a whole [`FifoCore`]. Only explicit state
/// is captured: the packed occupancy index (and a [`LogicalFifo`]'s
/// directory) are derived views, and the service-scan mode is not
/// state; [`FifoCore::from_parts`] rebuilds the views and services
/// through the index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FifoParts<T> {
    /// Per-lane ring capacity (`None` = unbounded).
    pub capacity: Option<usize>,
    /// The `k` lanes, in pipeline order.
    pub lanes: Vec<LaneParts<T>>,
    /// The timestamp-sorted recovery queue (data entries only).
    pub recovered: Vec<Entry<T>>,
    /// High-water mark of the recovery queue.
    pub max_recovered: usize,
    /// Statistics counters.
    pub stats: FifoStats,
}

impl<T> FifoParts<T> {
    /// The same parts with every queued payload passed through `f`, in
    /// queue order (lanes first, then the recovery queue).
    pub fn map<U>(self, mut f: impl FnMut(T) -> U) -> FifoParts<U> {
        let mut entries = |v: Vec<Entry<T>>| v.into_iter().map(|e| e.map(&mut f)).collect();
        FifoParts {
            capacity: self.capacity,
            lanes: self
                .lanes
                .into_iter()
                .map(|l| LaneParts {
                    head_seq: l.head_seq,
                    max_occupancy: l.max_occupancy,
                    entries: entries(l.entries),
                })
                .collect(),
            recovered: entries(self.recovered),
            max_recovered: self.max_recovered,
            stats: self.stats,
        }
    }
}

/// Statistics counters for one logical FIFO.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FifoStats {
    /// Phantoms dropped because a lane was full at push time.
    pub phantom_drops: u64,
    /// Data packets dropped because their phantom was missing (an
    /// insert at an address that does not hold the packet's phantom).
    pub data_drops_no_phantom: u64,
    /// Data packets dropped because a lane was full at push time
    /// (no-phantom operating modes only).
    pub data_drops_full: u64,
    /// Pop cycles wasted on speculative-false phantoms.
    pub stale_cycles: u64,
    /// Pop cycles spent blocked behind a phantom.
    pub blocked_cycles: u64,
    /// Data packets recovered into order after their phantom was lost
    /// to an injected fault (`mp5-faults`).
    pub recovered: u64,
}

/// The bank of `k` per-pipeline ring buffers operating as one FIFO,
/// addressed: `push_phantom` returns the placeholder's [`FifoAddr`], and
/// `insert_data` and `cancel` name that address and the key it must
/// hold. The caller keeps the addresses (the switch keeps them beside
/// each packet's buffer slot, the paper's directory indexed by packet),
/// so the FIFO holds no directory of its own. An addressed operation
/// checks, in every build, that the slot still holds that key's
/// phantom; at any other address it fails and leaves the queue as it
/// was. [`LogicalFifo`] puts a keyed directory in front of it.
///
/// Besides the `k` lanes, the FIFO carries a small *recovery queue*
/// (`recovered`): a timestamp-sorted side list of **data** entries
/// whose phantoms were lost to an injected fault. `pop()` treats the
/// recovery head as one more candidate in the global minimum-timestamp
/// comparison, so a recovered packet re-enters the serial order at
/// exactly the position its phantom would have held — preserving C1
/// unless a newer entry was served before it arrived (DESIGN.md §11).
/// Phantoms only ever sit inside lanes, so the side list can never
/// invalidate a `FifoAddr`.
#[derive(Debug, Clone)]
pub struct FifoCore<T> {
    lanes: Vec<RingBuffer<Entry<T>>>,
    recovered: VecDeque<Entry<T>>,
    max_recovered: usize,
    stats: FifoStats,
    /// Total queued entries across lanes and the recovery queue,
    /// maintained on every push/pop/drain so `len()`/`is_empty()` are
    /// O(1). Per-cycle schedulers probe emptiness for every
    /// `(pipeline, stage)` queue, so this counter is load-bearing for
    /// the simulation rate, not a convenience.
    total: usize,
    /// Dense occupancy index: the lanes holding at least one entry, as
    /// a packed list (arbitrary order). Service scans (`pop`,
    /// `oldest_ts`, `peek_oldest`) walk only this list instead of all
    /// `k` lane heads, so heavy-queue workloads with few active lanes
    /// stop paying the linear scan (and the free-stale drain fuses into
    /// the same pass). Maintained incrementally on every empty ↔
    /// non-empty lane transition; debug builds assert it against a full
    /// lane scan in `len()`.
    occupied: Vec<u32>,
    /// Per-lane position in `occupied`, or [`NOT_OCCUPIED`].
    lane_pos: Vec<u32>,
    /// When `false`, service scans walk every lane head (the paper's
    /// literal `pop()` and this FIFO's behavior before the occupancy
    /// index existed). Tests run this mode as the obviously-correct
    /// oracle the index is checked against; the switch always services
    /// through the index (still maintained and debug-asserted either
    /// way).
    indexed: bool,
}

impl<T> FifoCore<T> {
    /// Creates a logical FIFO with `k` lanes of the given per-lane
    /// capacity (`None` = unbounded, the paper's adaptive mode).
    pub fn new(lanes: usize, capacity: Option<usize>) -> Self {
        assert!(lanes > 0, "a logical FIFO needs at least one lane");
        FifoCore {
            lanes: (0..lanes).map(|_| RingBuffer::new(capacity)).collect(),
            recovered: VecDeque::new(),
            max_recovered: 0,
            stats: FifoStats::default(),
            total: 0,
            occupied: Vec::with_capacity(lanes),
            lane_pos: vec![NOT_OCCUPIED; lanes],
            indexed: true,
        }
    }

    /// Switches service scans to the pre-index reference behavior
    /// (walk every lane head, `reference = true`) or back to the
    /// occupancy-index fast path (`false`, the default). Semantics are
    /// identical — both pick the same minimum-timestamp head — only the
    /// scan cost differs. The occupancy index keeps being maintained in
    /// reference mode, so debug builds continuously cross-check it
    /// against the very scan the fast path replaces.
    pub fn set_reference_service(&mut self, reference: bool) {
        self.indexed = !reference;
    }

    /// Number of lanes (`k`).
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Total queued entries across lanes (plus the recovery queue).
    pub fn len(&self) -> usize {
        debug_assert_eq!(
            self.total,
            self.lanes.iter().map(|l| l.len()).sum::<usize>() + self.recovered.len(),
            "occupancy counter out of sync"
        );
        #[cfg(debug_assertions)]
        self.check_occupancy_index();
        self.total
    }

    /// Verifies the dense occupancy index against a full lane scan:
    /// every non-empty lane appears exactly once at its recorded
    /// position, every empty lane is absent. Debug builds run this from
    /// `len()` on every emptiness probe; the property suite calls it
    /// directly after each random operation.
    #[doc(hidden)]
    pub fn check_occupancy_index(&self) {
        assert_eq!(self.lane_pos.len(), self.lanes.len());
        let mut indexed = 0usize;
        for (l, lane) in self.lanes.iter().enumerate() {
            let pos = self.lane_pos[l];
            if lane.is_empty() {
                assert_eq!(pos, NOT_OCCUPIED, "empty lane {l} still indexed");
            } else {
                indexed += 1;
                assert!(
                    pos != NOT_OCCUPIED
                        && (pos as usize) < self.occupied.len()
                        && self.occupied[pos as usize] as usize == l,
                    "occupied lane {l} missing or misplaced in the index"
                );
            }
        }
        assert_eq!(
            self.occupied.len(),
            indexed,
            "occupancy index holds stale lanes"
        );
    }

    /// Adds `lane` to the occupancy index if it is not already present.
    #[inline]
    fn mark_occupied(&mut self, lane: usize) {
        if self.lane_pos[lane] == NOT_OCCUPIED {
            self.lane_pos[lane] = self.occupied.len() as u32;
            self.occupied.push(lane as u32);
        }
    }

    /// Removes `occupied[pos]` from the index (its lane went empty).
    #[inline]
    fn unmark_at(&mut self, pos: usize) {
        let lane = self.occupied.swap_remove(pos);
        self.lane_pos[lane as usize] = NOT_OCCUPIED;
        if let Some(&moved) = self.occupied.get(pos) {
            self.lane_pos[moved as usize] = pos as u32;
        }
    }

    /// Drops `lane` from the index if its last entry was just popped.
    #[inline]
    fn lane_emptied(&mut self, lane: usize) {
        if self.lanes[lane].front().is_none() {
            let pos = self.lane_pos[lane];
            debug_assert_ne!(pos, NOT_OCCUPIED, "emptied lane was never indexed");
            self.unmark_at(pos as usize);
        }
    }

    /// True if every lane (and the recovery queue) is empty. O(1).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of total occupancy, approximated as the sum of
    /// per-lane high-water marks (exact when lanes fill together).
    pub fn max_occupancy(&self) -> usize {
        self.lanes.iter().map(|l| l.max_occupancy()).sum::<usize>() + self.max_recovered
    }

    /// Statistics counters.
    pub fn stats(&self) -> FifoStats {
        self.stats
    }

    /// `push(pkt, fifo_id)`: appends a phantom placeholder to lane
    /// `lane` and returns its address, which the caller keeps for
    /// `insert`. On a full lane the phantom is dropped (recorded in
    /// [`FifoStats::phantom_drops`]); the caller has no address for it,
    /// so the eventual data packet is dropped at `insert` time, exactly
    /// the drop cascade described in §3.4.
    pub fn push_phantom(
        &mut self,
        key: PhantomKey,
        ts: OrderKey,
        lane: PipelineId,
    ) -> Result<FifoAddr, PushError> {
        let l = &mut self.lanes[lane.index()];
        match l.push_back(Entry::Phantom { key, ts }) {
            Ok(seq) => {
                self.total += 1;
                self.mark_occupied(lane.index());
                Ok(FifoAddr { lane, seq })
            }
            Err(_) => {
                self.stats.phantom_drops += 1;
                Err(PushError)
            }
        }
    }

    /// `push(pkt, fifo_id)` for data packets. Used by operating modes
    /// without phantoms (the no-D4 ablation and the recirculation
    /// baseline), where data packets queue directly in arrival-at-stage
    /// order.
    pub fn push_data(&mut self, item: T, ts: OrderKey, lane: PipelineId) -> Result<FifoAddr, T> {
        let l = &mut self.lanes[lane.index()];
        match l.push_back(Entry::Data { item, ts }) {
            Ok(seq) => {
                self.total += 1;
                self.mark_occupied(lane.index());
                Ok(FifoAddr { lane, seq })
            }
            Err(Entry::Data { item, .. }) => {
                self.stats.data_drops_full += 1;
                Err(item)
            }
            Err(_) => unreachable!("pushed entry kind cannot change"),
        }
    }

    /// The slot at `addr`, if it holds `key`'s phantom.
    fn phantom_slot(&mut self, addr: FifoAddr, key: PhantomKey) -> Option<&mut Entry<T>> {
        let slot = self.lanes.get_mut(addr.lane.index())?.get_mut(addr.seq)?;
        matches!(slot, Entry::Phantom { key: k, .. } if *k == key).then_some(slot)
    }

    /// Whether the slot at `addr` holds `key`'s phantom.
    pub fn phantom_at(&self, addr: FifoAddr, key: PhantomKey) -> bool {
        let slot = self
            .lanes
            .get(addr.lane.index())
            .and_then(|l| l.get(addr.seq));
        matches!(slot, Some(Entry::Phantom { key: k, .. }) if *k == key)
    }

    /// `insert(pkt, addr, fifo_id)`: replaces `key`'s phantom at `addr`
    /// with the data packet, which inherits the phantom's timestamp
    /// (and hence its place in the global order). Returns `Err(item)`,
    /// and leaves the queue as it was, if the slot does not hold that
    /// phantom — it was dropped, so the data packet must be dropped too.
    pub fn insert_data(&mut self, addr: FifoAddr, key: PhantomKey, item: T) -> Result<(), T> {
        let Some(slot) = self.phantom_slot(addr, key) else {
            self.stats.data_drops_no_phantom += 1;
            return Err(item);
        };
        let ts = slot.ts();
        *slot = Entry::Data { item, ts };
        Ok(())
    }

    /// Recovers a data packet whose phantom was lost to an injected
    /// fault: the entry joins the timestamp-sorted recovery queue and
    /// competes in `pop()`'s global minimum-timestamp comparison as if
    /// its phantom had been delivered: the same serial position among
    /// the entries still queued. The recovery queue is unbounded by
    /// design: recovery must never itself drop a packet.
    pub fn push_recovered(&mut self, item: T, ts: OrderKey) {
        let pos = self.recovered.partition_point(|e| e.ts() <= ts);
        self.recovered.insert(pos, Entry::Data { item, ts });
        self.total += 1;
        self.max_recovered = self.max_recovered.max(self.recovered.len());
        self.stats.recovered += 1;
    }

    /// Timestamp of the recovery-queue head, if any.
    fn recovered_head_ts(&self) -> Option<OrderKey> {
        self.recovered.front().map(|e| e.ts())
    }

    /// True if the recovery queue head is globally oldest (it wins the
    /// pop this cycle). A tie means the lane head is a sibling phantom
    /// of the recovered packet itself, whose phantom for this key was
    /// lost while another of its keys here was not; the packet wins,
    /// and its execution cancels that sibling.
    fn recovered_wins(&self, lane: Option<usize>) -> bool {
        match (self.recovered_head_ts(), lane) {
            (Some(_), None) => true,
            (Some(rts), Some(l)) => {
                let lts = self.lanes[l].front().map(|e| e.ts());
                lts.is_none_or(|lts| rts <= lts)
            }
            (None, _) => false,
        }
    }

    /// Cancels `key`'s phantom at `addr`, if the slot holds it; returns
    /// whether it did. `free` cancellations (upstream packet drop) are
    /// reclaimed without consuming service; non-free ones (speculative
    /// false branch, §3.3) cost one pop cycle when they reach the head.
    pub fn cancel(&mut self, addr: FifoAddr, key: PhantomKey, free: bool) -> bool {
        let Some(slot) = self.phantom_slot(addr, key) else {
            return false;
        };
        let ts = slot.ts();
        *slot = Entry::Stale { ts, free };
        true
    }

    /// Fused service scan: reclaims any `free` stale entries sitting at
    /// the heads of occupied lanes, drops lanes that drained empty from
    /// the index, and returns the lane whose head has the globally
    /// smallest timestamp. Walks only the packed occupied-lane list, so
    /// the cost is proportional to the number of *non-empty* lanes
    /// rather than `k` — the win on heavy-queue configs where traffic
    /// concentrates on few lanes. The minimum is taken over the explicit
    /// `(ts, lane)` key so the result is independent of the packed
    /// list's arbitrary order (ties are impossible anyway: order keys
    /// are unique per packet and one packet's entries share a lane).
    fn service_head(&mut self) -> Option<usize> {
        let mut best: Option<(OrderKey, usize)> = None;
        let mut i = 0;
        while i < self.occupied.len() {
            let lane = self.occupied[i] as usize;
            while matches!(
                self.lanes[lane].front(),
                Some(Entry::Stale { free: true, .. })
            ) {
                self.lanes[lane].pop_front();
                self.total -= 1;
            }
            match self.lanes[lane].front() {
                None => {
                    // Drained empty: swap-remove without advancing, so
                    // the lane swapped into slot `i` is visited next.
                    self.unmark_at(i);
                }
                Some(e) => {
                    let key = (e.ts(), lane);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                    i += 1;
                }
            }
        }
        best.map(|(_, lane)| lane)
    }

    /// Reference service scan: the pre-index two-pass implementation,
    /// kept verbatim as the tests' oracle — reclaim `free`
    /// stale entries at every lane head (`drain_free_stale`), then pick
    /// the minimum-timestamp head over **all** `k` lanes, the way the
    /// paper's `pop()` reads. Keeps the index in sync for lanes it
    /// drains empty, so either scan can follow the other.
    fn service_scan(&mut self) -> Option<usize> {
        for lane in 0..self.lanes.len() {
            let mut drained = false;
            while matches!(
                self.lanes[lane].front(),
                Some(Entry::Stale { free: true, .. })
            ) {
                self.lanes[lane].pop_front();
                self.total -= 1;
                drained = true;
            }
            if drained && self.lanes[lane].front().is_none() {
                let pos = self.lane_pos[lane];
                debug_assert_ne!(pos, NOT_OCCUPIED, "drained lane was never indexed");
                self.unmark_at(pos as usize);
            }
        }
        let mut best: Option<(OrderKey, usize)> = None;
        for (lane, buf) in self.lanes.iter().enumerate() {
            if let Some(e) = buf.front() {
                let key = (e.ts(), lane);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, lane)| lane)
    }

    /// The mode-appropriate service scan (see
    /// [`Self::set_reference_service`]).
    #[inline]
    fn service(&mut self) -> Option<usize> {
        if self.indexed {
            self.service_head()
        } else {
            self.service_scan()
        }
    }

    /// `pop()`: examines the `k` lane heads and picks the entry with the
    /// smallest timestamp.
    ///
    /// * Data head → dequeued and returned for processing.
    /// * Phantom head → nothing is dequeued; the whole logical FIFO is
    ///   blocked this cycle ([`PopOutcome::BlockedOnPhantom`]).
    /// * Non-free stale head → reclaimed, consuming the cycle.
    pub fn pop(&mut self) -> PopOutcome<T> {
        let lane = self.service();
        if self.recovered_wins(lane) {
            return match self.recovered.pop_front() {
                Some(Entry::Data { item, .. }) => {
                    self.total -= 1;
                    PopOutcome::Data(item)
                }
                _ => unreachable!("recovery queue holds only data entries"),
            };
        }
        let Some(lane) = lane else {
            return PopOutcome::Empty;
        };
        match self.lanes[lane].front().expect("lane non-empty") {
            Entry::Data { .. } => match self.lanes[lane].pop_front() {
                Some(Entry::Data { item, .. }) => {
                    self.total -= 1;
                    self.lane_emptied(lane);
                    PopOutcome::Data(item)
                }
                _ => unreachable!("head was data"),
            },
            Entry::Phantom { key, .. } => {
                let key = *key;
                self.stats.blocked_cycles += 1;
                PopOutcome::BlockedOnPhantom(key)
            }
            Entry::Stale { free: false, .. } => {
                self.lanes[lane].pop_front();
                self.total -= 1;
                self.stats.stale_cycles += 1;
                self.lane_emptied(lane);
                PopOutcome::ConsumedStale
            }
            Entry::Stale { free: true, .. } => {
                unreachable!("free stale entries were drained")
            }
        }
    }

    /// Timestamp of the globally-oldest *data* or *phantom* entry, if
    /// any — used by schedulers to decide starvation.
    pub fn oldest_ts(&mut self) -> Option<OrderKey> {
        let lane_ts = self
            .service()
            .map(|l| self.lanes[l].front().expect("non-empty").ts());
        match (lane_ts, self.recovered_head_ts()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Peeks the globally-oldest entry (after reclaiming free stales)
    /// without consuming anything. Used by per-index schedulers (the
    /// ideal-MP5 baseline) to compare heads across many queues.
    pub fn peek_oldest(&mut self) -> Option<&Entry<T>> {
        self.peek_oldest_at().map(|(_, e)| e)
    }

    /// [`Self::peek_oldest`] with the entry's address: `None` for the
    /// recovery-queue head, which no address names.
    pub fn peek_oldest_at(&mut self) -> Option<(Option<FifoAddr>, &Entry<T>)> {
        let lane = self.service();
        if self.recovered_wins(lane) {
            return self.recovered.front().map(|e| (None, e));
        }
        let l = &self.lanes[lane?];
        let addr = FifoAddr {
            lane: PipelineId::from(lane?),
            seq: l.head_seq(),
        };
        l.front().map(|e| (Some(addr), e))
    }

    /// Iterates over all queued entries (diagnostics / end-of-run
    /// accounting).
    pub fn iter_entries(&self) -> impl Iterator<Item = &Entry<T>> {
        self.lanes
            .iter()
            .flat_map(|l| l.iter())
            .chain(self.recovered.iter())
    }

    /// Every queued phantom with its address, lane by lane, head to
    /// tail: what a caller rebuilds its addresses from after
    /// [`Self::from_parts`].
    pub fn phantoms(&self) -> impl Iterator<Item = (FifoAddr, PhantomKey, OrderKey)> + '_ {
        self.lanes.iter().enumerate().flat_map(|(l, lane)| {
            let head = lane.head_seq();
            lane.iter().enumerate().filter_map(move |(i, e)| match e {
                Entry::Phantom { key, ts } => Some((
                    FifoAddr {
                        lane: PipelineId::from(l),
                        seq: head + i as u64,
                    },
                    *key,
                    *ts,
                )),
                _ => None,
            })
        })
    }

    /// Exports the FIFO's explicit state for a checkpoint. The occupancy
    /// index is derived from the lane contents, so it is not exported;
    /// [`Self::from_parts`] rebuilds it.
    pub fn snapshot_parts(&self) -> FifoParts<T>
    where
        T: Clone,
    {
        self.snapshot_parts_with(T::clone)
    }

    /// [`Self::snapshot_parts`], each queued payload written as
    /// `item(payload)`.
    pub fn snapshot_parts_with<U>(&self, mut item: impl FnMut(&T) -> U) -> FifoParts<U> {
        let mut entries =
            |l: &mut dyn Iterator<Item = &Entry<T>>| l.map(|e| e.as_ref().map(&mut item)).collect();
        FifoParts {
            capacity: self.lanes[0].capacity(),
            lanes: self
                .lanes
                .iter()
                .map(|l| LaneParts {
                    head_seq: l.head_seq(),
                    max_occupancy: l.max_occupancy(),
                    entries: entries(&mut l.iter()),
                })
                .collect(),
            recovered: entries(&mut self.recovered.iter()),
            max_recovered: self.max_recovered,
            stats: self.stats,
        }
    }

    /// Rebuilds a FIFO from checkpointed parts, every entry at its
    /// stable `(lane, seq)` address, and reconstructs the packed
    /// occupancy index. Parts no FIFO can hold — no lanes, a lane over
    /// capacity, a non-data entry in the recovery queue — are an `Err`
    /// naming the fault.
    pub fn from_parts(parts: FifoParts<T>) -> Result<Self, String> {
        if parts.lanes.is_empty() {
            return Err("a logical FIFO needs lanes".into());
        }
        if parts
            .recovered
            .iter()
            .any(|e| !matches!(e, Entry::Data { .. }))
        {
            return Err("the recovery queue holds a non-data entry".into());
        }
        let k = parts.lanes.len();
        let mut total = parts.recovered.len();
        let mut occupied = Vec::with_capacity(k);
        let mut lane_pos = vec![NOT_OCCUPIED; k];
        let mut lanes = Vec::with_capacity(k);
        for (l, lp) in parts.lanes.into_iter().enumerate() {
            total += lp.entries.len();
            if !lp.entries.is_empty() {
                lane_pos[l] = occupied.len() as u32;
                occupied.push(l as u32);
            }
            lanes.push(RingBuffer::from_parts(
                lp.entries,
                lp.head_seq,
                parts.capacity,
                lp.max_occupancy,
            )?);
        }
        let max_recovered = parts.max_recovered.max(parts.recovered.len());
        Ok(FifoCore {
            lanes,
            recovered: parts.recovered.into(),
            max_recovered,
            stats: parts.stats,
            total,
            occupied,
            lane_pos,
            indexed: true,
        })
    }

    // ------------------------------------------------------------------
    // Traced variants: identical semantics, but each outcome is emitted
    // into the sink. With `NopSink` the emission guard constant-folds,
    // so these compile to exactly the untraced operations.
    // ------------------------------------------------------------------

    /// Traced [`FifoCore::push_phantom`]: emits `ph_enq` on success,
    /// `ph_drop` when the lane is full.
    pub fn push_phantom_traced<S: TraceSink>(
        &mut self,
        key: PhantomKey,
        ts: OrderKey,
        lane: PipelineId,
        sink: &mut S,
        ctx: TraceCtx,
    ) -> Result<FifoAddr, PushError> {
        let r = self.push_phantom(key, ts, lane);
        if S::ENABLED {
            match r {
                Ok(_) => ctx.emit(sink, EventKind::PhantomEnq { key: tk(key) }),
                Err(_) => ctx.emit(sink, EventKind::PhantomDropFull { key: tk(key) }),
            }
        }
        r
    }

    /// Traced [`FifoCore::push_data`]: emits `data_enq` on success,
    /// `data_enq_drop` when the lane is full. The caller supplies the
    /// packet id because `T` is opaque to the fabric.
    pub fn push_data_traced<S: TraceSink>(
        &mut self,
        pkt: PacketId,
        item: T,
        ts: OrderKey,
        lane: PipelineId,
        sink: &mut S,
        ctx: TraceCtx,
    ) -> Result<FifoAddr, T> {
        let r = self.push_data(item, ts, lane);
        if S::ENABLED {
            match &r {
                Ok(_) => ctx.emit(sink, EventKind::DataEnq { pkt }),
                Err(_) => ctx.emit(sink, EventKind::DataEnqDropFull { pkt }),
            }
        }
        r
    }

    /// Traced [`FifoCore::insert_data`]: emits `data_match` when the
    /// phantom is replaced, `data_orphan` when the slot does not hold
    /// it (the §3.4 drop cascade).
    pub fn insert_data_traced<S: TraceSink>(
        &mut self,
        addr: FifoAddr,
        key: PhantomKey,
        item: T,
        sink: &mut S,
        ctx: TraceCtx,
    ) -> Result<(), T> {
        let r = self.insert_data(addr, key, item);
        if S::ENABLED {
            match &r {
                Ok(_) => ctx.emit(sink, EventKind::DataMatch { key: tk(key) }),
                Err(_) => ctx.emit(sink, EventKind::DataOrphan { key: tk(key) }),
            }
        }
        r
    }

    /// Traced [`FifoCore::push_recovered`]: emits `ph_recovered`
    /// (the C1-preserving fault-recovery path).
    pub fn push_recovered_traced<S: TraceSink>(
        &mut self,
        key: PhantomKey,
        item: T,
        ts: OrderKey,
        sink: &mut S,
        ctx: TraceCtx,
    ) {
        self.push_recovered(item, ts);
        if S::ENABLED {
            ctx.emit(sink, EventKind::PhantomRecovered { key: tk(key) });
        }
    }

    /// Traced [`FifoCore::cancel`]: emits `ph_cancel` only when a
    /// live phantom was actually cancelled.
    pub fn cancel_traced<S: TraceSink>(
        &mut self,
        addr: FifoAddr,
        key: PhantomKey,
        free: bool,
        sink: &mut S,
        ctx: TraceCtx,
    ) -> bool {
        let found = self.cancel(addr, key, free);
        if S::ENABLED && found {
            ctx.emit(sink, EventKind::PhantomCancel { key: tk(key), free });
        }
        found
    }

    /// Traced [`FifoCore::pop`]: emits `pop_data` / `pop_stale` /
    /// `pop_blocked` per outcome (nothing for an empty queue). The
    /// caller supplies a packet-id projection because `T` is opaque.
    pub fn pop_traced<S: TraceSink>(
        &mut self,
        sink: &mut S,
        ctx: TraceCtx,
        pkt_of: impl FnOnce(&T) -> PacketId,
    ) -> PopOutcome<T> {
        let out = self.pop();
        if S::ENABLED {
            match &out {
                PopOutcome::Data(item) => ctx.emit(sink, EventKind::PopData { pkt: pkt_of(item) }),
                PopOutcome::ConsumedStale => ctx.emit(sink, EventKind::PopStale),
                PopOutcome::BlockedOnPhantom(key) => {
                    ctx.emit(sink, EventKind::PopBlocked { key: tk(*key) })
                }
                PopOutcome::Empty => {}
            }
        }
        out
    }
}

/// The paper's keyed interface over a [`FifoCore`]: a directory from
/// [`PhantomKey`] to the phantom's address, so `insert_data`, `cancel`
/// and `has_phantom` name a key. It serves the FIFO's keyed tests and
/// the benchmark's FIFO probe; the switch keeps addresses itself and
/// drives the core. Every other operation is the core's, through
/// `Deref`: none of them adds or consumes a phantom.
#[derive(Debug, Clone)]
pub struct LogicalFifo<T> {
    core: FifoCore<T>,
    /// Keyed by caller ids, and only ever point-queried, so neither
    /// the hasher nor the iteration order is observable.
    directory: FastMap<PhantomKey, FifoAddr>,
}

impl<T> std::ops::Deref for LogicalFifo<T> {
    type Target = FifoCore<T>;
    fn deref(&self) -> &FifoCore<T> {
        &self.core
    }
}

impl<T> std::ops::DerefMut for LogicalFifo<T> {
    fn deref_mut(&mut self) -> &mut FifoCore<T> {
        &mut self.core
    }
}

impl<T> LogicalFifo<T> {
    /// A keyed FIFO of `lanes` lanes; see [`FifoCore::new`].
    pub fn new(lanes: usize, capacity: Option<usize>) -> Self {
        LogicalFifo {
            core: FifoCore::new(lanes, capacity),
            directory: FastMap::default(),
        }
    }

    /// [`FifoCore::push_phantom`], recording the address under `key`.
    pub fn push_phantom(
        &mut self,
        key: PhantomKey,
        ts: OrderKey,
        lane: PipelineId,
    ) -> Result<FifoAddr, PushError> {
        let addr = self.core.push_phantom(key, ts, lane)?;
        self.directory.insert(key, addr);
        Ok(addr)
    }

    /// [`FifoCore::insert_data`] at the address recorded for `key`;
    /// `Err(item)` if there is none (the phantom was dropped).
    pub fn insert_data(&mut self, key: PhantomKey, item: T) -> Result<FifoAddr, T> {
        let addr = self.directory.remove(&key).unwrap_or(FifoAddr::UNSET);
        self.core.insert_data(addr, key, item).map(|()| addr)
    }

    /// Whether a live phantom exists for `key`.
    pub fn has_phantom(&self, key: PhantomKey) -> bool {
        self.directory.contains_key(&key)
    }

    /// [`FifoCore::cancel`] at the address recorded for `key`.
    pub fn cancel(&mut self, key: PhantomKey, free: bool) -> bool {
        self.directory
            .remove(&key)
            .is_some_and(|addr| self.core.cancel(addr, key, free))
    }

    /// [`FifoCore::from_parts`], rebuilding the directory from the
    /// queued phantoms. A phantom key queued twice is an `Err`.
    pub fn from_parts(parts: FifoParts<T>) -> Result<Self, String> {
        let core = FifoCore::from_parts(parts)?;
        let mut directory = FastMap::default();
        for (addr, key, _) in core.phantoms() {
            if directory.insert(key, addr).is_some() {
                return Err(format!("phantom key {key:?} is queued twice"));
            }
        }
        Ok(LogicalFifo { core, directory })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(p: u64) -> PhantomKey {
        PhantomKey {
            pkt: PacketId(p),
            reg: RegId(0),
            index: 0,
        }
    }

    #[test]
    fn pop_on_empty() {
        let mut f: LogicalFifo<u32> = LogicalFifo::new(2, Some(4));
        assert!(matches!(f.pop(), PopOutcome::Empty));
    }

    #[test]
    fn phantom_blocks_later_data() {
        let mut f: LogicalFifo<&str> = LogicalFifo::new(2, Some(4));
        // Phantom for packet 0 (older) into lane 0; data for packet 1
        // (younger) into lane 1.
        f.push_phantom(key(0), OrderKey(0, 0), PipelineId(0))
            .unwrap();
        f.push_data("pkt1", OrderKey(1, 0), PipelineId(1)).unwrap();
        // pkt1 must be blocked behind pkt0's phantom.
        assert!(matches!(f.pop(), PopOutcome::BlockedOnPhantom(k) if k == key(0)));
        // Once pkt0's data arrives it is served first, in arrival order.
        f.insert_data(key(0), "pkt0").unwrap();
        assert!(matches!(f.pop(), PopOutcome::Data("pkt0")));
        assert!(matches!(f.pop(), PopOutcome::Data("pkt1")));
        assert!(matches!(f.pop(), PopOutcome::Empty));
        assert_eq!(f.stats().blocked_cycles, 1);
    }

    #[test]
    fn younger_phantom_does_not_block_older_data() {
        let mut f: LogicalFifo<&str> = LogicalFifo::new(2, Some(4));
        f.push_data("old", OrderKey(0, 0), PipelineId(0)).unwrap();
        f.push_phantom(key(9), OrderKey(5, 0), PipelineId(1))
            .unwrap();
        assert!(matches!(f.pop(), PopOutcome::Data("old")));
    }

    #[test]
    fn insert_inherits_phantom_timestamp() {
        let mut f: LogicalFifo<&str> = LogicalFifo::new(2, Some(8));
        f.push_phantom(key(0), OrderKey(0, 0), PipelineId(0))
            .unwrap();
        f.push_data("mid", OrderKey(1, 0), PipelineId(1)).unwrap();
        // Data for packet 0 arrives late but replaces its phantom, so it
        // is still served before "mid".
        f.insert_data(key(0), "pkt0").unwrap();
        assert!(matches!(f.pop(), PopOutcome::Data("pkt0")));
        assert!(matches!(f.pop(), PopOutcome::Data("mid")));
    }

    #[test]
    fn insert_without_phantom_drops() {
        let mut f: LogicalFifo<&str> = LogicalFifo::new(1, Some(2));
        assert_eq!(f.insert_data(key(3), "orphan"), Err("orphan"));
        assert_eq!(f.stats().data_drops_no_phantom, 1);
    }

    #[test]
    fn full_lane_drops_phantom_then_cascades() {
        let mut f: LogicalFifo<&str> = LogicalFifo::new(1, Some(1));
        f.push_phantom(key(0), OrderKey(0, 0), PipelineId(0))
            .unwrap();
        assert!(f
            .push_phantom(key(1), OrderKey(1, 0), PipelineId(0))
            .is_err());
        assert_eq!(f.stats().phantom_drops, 1);
        // The data packet for the dropped phantom is dropped too.
        assert!(f.insert_data(key(1), "late").is_err());
        assert_eq!(f.stats().data_drops_no_phantom, 1);
    }

    #[test]
    fn speculative_false_costs_one_cycle() {
        let mut f: LogicalFifo<&str> = LogicalFifo::new(1, Some(4));
        f.push_phantom(key(0), OrderKey(0, 0), PipelineId(0))
            .unwrap();
        f.push_data("next", OrderKey(1, 0), PipelineId(0)).unwrap();
        assert!(f.cancel(key(0), false));
        // First pop wastes a cycle reclaiming the speculative phantom...
        assert!(matches!(f.pop(), PopOutcome::ConsumedStale));
        // ...then the next packet is served.
        assert!(matches!(f.pop(), PopOutcome::Data("next")));
        assert_eq!(f.stats().stale_cycles, 1);
    }

    #[test]
    fn free_cancel_costs_nothing() {
        let mut f: LogicalFifo<&str> = LogicalFifo::new(1, Some(4));
        f.push_phantom(key(0), OrderKey(0, 0), PipelineId(0))
            .unwrap();
        f.push_data("next", OrderKey(1, 0), PipelineId(0)).unwrap();
        assert!(f.cancel(key(0), true));
        assert!(matches!(f.pop(), PopOutcome::Data("next")));
    }

    #[test]
    fn cancel_unknown_key_is_noop() {
        let mut f: LogicalFifo<&str> = LogicalFifo::new(1, Some(4));
        assert!(!f.cancel(key(42), true));
    }

    #[test]
    fn pop_respects_global_order_across_lanes() {
        let mut f: LogicalFifo<u64> = LogicalFifo::new(4, Some(8));
        // Interleave pushes across lanes with shuffled timestamps.
        let order = [(3u64, 2usize), (0, 0), (2, 1), (1, 3), (5, 0), (4, 2)];
        for &(ts, lane) in &order {
            f.push_data(ts, OrderKey(ts, 0), PipelineId::from(lane))
                .unwrap();
        }
        let mut out = Vec::new();
        while let PopOutcome::Data(v) = f.pop() {
            out.push(v);
        }
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn traced_ops_emit_matching_events() {
        use mp5_trace::{EventKind as EK, MemSink, TraceCtx};
        let mut sink = MemSink::new();
        let ctx = TraceCtx::new(7, 1, 2);
        let mut f: FifoCore<&str> = FifoCore::new(1, Some(1));
        let a0 = f
            .push_phantom_traced(key(0), OrderKey(0, 0), PipelineId(0), &mut sink, ctx)
            .unwrap();
        // Full lane: second phantom drops.
        assert!(f
            .push_phantom_traced(key(1), OrderKey(1, 0), PipelineId(0), &mut sink, ctx)
            .is_err());
        // Blocked pop, then match, then served pop.
        let _ = f.pop_traced(&mut sink, ctx, |_| PacketId(99));
        f.insert_data_traced(a0, key(0), "d0", &mut sink, ctx)
            .unwrap();
        assert!(f
            .insert_data_traced(FifoAddr::UNSET, key(1), "d1", &mut sink, ctx)
            .is_err());
        let _ = f.pop_traced(&mut sink, ctx, |_| PacketId(0));
        // Cancel at an address that holds nothing emits nothing.
        assert!(!f.cancel_traced(a0, key(0), true, &mut sink, ctx));
        let tags: Vec<&str> = sink.events.iter().map(|e| e.kind.tag()).collect();
        assert_eq!(
            tags,
            vec![
                "ph_enq",
                "ph_drop",
                "pop_blocked",
                "data_match",
                "data_orphan",
                "pop_data"
            ]
        );
        assert!(sink
            .events
            .iter()
            .all(|e| e.cycle == 7 && e.pipeline == 1 && e.stage == 2));
        assert!(matches!(
            sink.events[5].kind,
            EK::PopData { pkt } if pkt == PacketId(0)
        ));
    }

    #[test]
    fn recovered_entry_rejoins_serial_order() {
        let mut f: LogicalFifo<&str> = LogicalFifo::new(2, Some(8));
        f.push_data("a", OrderKey(0, 0), PipelineId(0)).unwrap();
        f.push_data("c", OrderKey(2, 0), PipelineId(1)).unwrap();
        // "b"'s phantom was lost to a fault; it recovers with its
        // original order key and must be served between "a" and "c".
        f.push_recovered("b", OrderKey(1, 0));
        assert_eq!(f.len(), 3);
        assert!(!f.is_empty());
        assert!(matches!(f.pop(), PopOutcome::Data("a")));
        assert!(matches!(f.pop(), PopOutcome::Data("b")));
        assert!(matches!(f.pop(), PopOutcome::Data("c")));
        assert!(matches!(f.pop(), PopOutcome::Empty));
        assert_eq!(f.stats().recovered, 1);
    }

    #[test]
    fn older_phantom_still_blocks_recovered_entry() {
        let mut f: LogicalFifo<&str> = LogicalFifo::new(1, Some(8));
        f.push_phantom(key(0), OrderKey(0, 0), PipelineId(0))
            .unwrap();
        f.push_recovered("young", OrderKey(1, 0));
        // D4's order freeze applies to recovered entries too.
        assert!(matches!(f.pop(), PopOutcome::BlockedOnPhantom(k) if k == key(0)));
        f.insert_data(key(0), "old").unwrap();
        assert!(matches!(f.pop(), PopOutcome::Data("old")));
        assert!(matches!(f.pop(), PopOutcome::Data("young")));
    }

    #[test]
    fn recovered_head_wins_when_oldest() {
        let mut f: LogicalFifo<&str> = LogicalFifo::new(1, Some(8));
        f.push_data("lane", OrderKey(5, 0), PipelineId(0)).unwrap();
        f.push_recovered("rec2", OrderKey(2, 0));
        f.push_recovered("rec1", OrderKey(1, 0)); // sorted insert
        assert_eq!(f.oldest_ts(), Some(OrderKey(1, 0)));
        assert!(matches!(
            f.peek_oldest(),
            Some(Entry::Data { item: "rec1", .. })
        ));
        assert!(matches!(f.pop(), PopOutcome::Data("rec1")));
        assert!(matches!(f.pop(), PopOutcome::Data("rec2")));
        assert!(matches!(f.pop(), PopOutcome::Data("lane")));
    }

    #[test]
    fn traced_recovery_emits_ph_recovered() {
        use mp5_trace::{MemSink, TraceCtx};
        let mut sink = MemSink::new();
        let ctx = TraceCtx::new(3, 0, 1);
        let mut f: FifoCore<&str> = FifoCore::new(1, Some(4));
        f.push_recovered_traced(key(7), "d", OrderKey(4, 0), &mut sink, ctx);
        assert_eq!(sink.events.len(), 1);
        assert_eq!(sink.events[0].kind.tag(), "ph_recovered");
        let _ = f.pop_traced(&mut sink, ctx, |_| PacketId(7));
        assert_eq!(sink.events[1].kind.tag(), "pop_data");
    }

    #[test]
    fn snapshot_round_trip_preserves_service_order_and_directory() {
        let mut f: LogicalFifo<&str> = LogicalFifo::new(3, Some(8));
        f.push_phantom(key(0), OrderKey(0, 0), PipelineId(0))
            .unwrap();
        f.push_data("b", OrderKey(1, 0), PipelineId(1)).unwrap();
        f.push_data("d", OrderKey(3, 0), PipelineId(2)).unwrap();
        f.push_recovered("c", OrderKey(2, 0));
        f.cancel(key(0), false);
        f.push_phantom(key(9), OrderKey(4, 0), PipelineId(1))
            .unwrap();
        // Advance lane 1's head so sequence numbers diverge from zero.
        assert!(matches!(f.pop(), PopOutcome::ConsumedStale));
        assert!(matches!(f.pop(), PopOutcome::Data("b")));

        let mut g = LogicalFifo::from_parts(f.snapshot_parts()).unwrap();
        g.check_occupancy_index();
        assert_eq!(g.len(), f.len());
        assert_eq!(g.stats().stale_cycles, 1);
        assert!(g.has_phantom(key(9)));
        // The restored directory addresses must be live: insert works.
        g.insert_data(key(9), "e").unwrap();
        assert!(matches!(g.pop(), PopOutcome::Data("c")));
        assert!(matches!(g.pop(), PopOutcome::Data("d")));
        assert!(matches!(g.pop(), PopOutcome::Data("e")));
        assert!(matches!(g.pop(), PopOutcome::Empty));
    }

    /// The directory is a derived view — `from_parts` rebuilds it from
    /// the lanes — and it is only ever asked about one key at a time,
    /// never iterated, which is what makes its hasher unobservable. So
    /// a restored FIFO must hand out the very addresses the original
    /// does and serve in the same order.
    #[test]
    fn restored_directory_matches_address_for_address() {
        let key = |p: u64| PhantomKey {
            pkt: PacketId(p * 7919),
            reg: RegId((p % 3) as u16),
            index: (p % 5) as u32,
        };
        let mut f: LogicalFifo<u64> = LogicalFifo::new(4, None);
        for p in 0..200 {
            f.push_phantom(key(p), OrderKey(p, 0), PipelineId::from((p % 4) as usize))
                .unwrap();
        }
        // Move every lane's head off sequence number zero.
        for p in 0..20 {
            f.insert_data(key(p), p).unwrap();
            assert!(matches!(f.pop(), PopOutcome::Data(q) if q == p));
        }
        for p in (20..200).step_by(9) {
            assert!(f.cancel(key(p), p % 2 == 0));
        }
        let mut g = LogicalFifo::from_parts(f.snapshot_parts()).unwrap();
        for p in (20..200).rev() {
            assert_eq!(f.has_phantom(key(p)), g.has_phantom(key(p)));
            assert_eq!(f.insert_data(key(p), p), g.insert_data(key(p), p));
        }
        loop {
            match (f.pop(), g.pop()) {
                (PopOutcome::Empty, PopOutcome::Empty) => break,
                (PopOutcome::Data(a), PopOutcome::Data(b)) => assert_eq!(a, b),
                (PopOutcome::ConsumedStale, PopOutcome::ConsumedStale) => {}
                (a, b) => panic!("service diverged: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(f.stats().data_drops_no_phantom, 20);
        assert_eq!(g.stats().data_drops_no_phantom, 20);
    }

    #[test]
    fn two_speculative_phantoms_same_packet_same_stage() {
        // A packet with an unresolvable predicate owns one phantom per
        // branch; both must be addressable independently.
        let mut f: LogicalFifo<&str> = LogicalFifo::new(1, Some(4));
        let k_then = PhantomKey {
            pkt: PacketId(0),
            reg: RegId(0),
            index: 1,
        };
        let k_else = PhantomKey {
            pkt: PacketId(0),
            reg: RegId(0),
            index: 2,
        };
        f.push_phantom(k_then, OrderKey(0, 0), PipelineId(0))
            .unwrap();
        f.push_phantom(k_else, OrderKey(0, 1), PipelineId(0))
            .unwrap();
        assert!(f.has_phantom(k_then) && f.has_phantom(k_else));
        // Predicate resolves to the then-branch: else phantom cancelled.
        f.cancel(k_else, false);
        f.insert_data(k_then, "data").unwrap();
        assert!(matches!(f.pop(), PopOutcome::Data("data")));
        assert!(matches!(f.pop(), PopOutcome::ConsumedStale));
    }

    /// Insert and cancel go by address, and an address is checked
    /// before it is used: one that holds another key's phantom, a stale
    /// entry, a data entry, or a sequence number already popped or
    /// never issued fails and leaves every lane as it was. A failed
    /// insert counts its drop, as an insert with no phantom always has.
    #[test]
    fn a_bad_address_changes_nothing() {
        let mut f: FifoCore<&str> = FifoCore::new(2, None);
        let popped = f.push_data("gone", OrderKey(0, 0), PipelineId(0)).unwrap();
        assert!(matches!(f.pop(), PopOutcome::Data("gone")));
        let mine = f
            .push_phantom(key(1), OrderKey(1, 0), PipelineId(0))
            .unwrap();
        let other = f
            .push_phantom(key(2), OrderKey(2, 0), PipelineId(1))
            .unwrap();
        let stale = f
            .push_phantom(key(1), OrderKey(3, 0), PipelineId(1))
            .unwrap();
        assert!(f.cancel(stale, key(1), false));
        let data = f.push_data("d", OrderKey(4, 0), PipelineId(0)).unwrap();
        let unissued = FifoAddr {
            lane: PipelineId(0),
            seq: data.seq + 1,
        };
        let lanes = |f: &FifoCore<&'static str>| f.snapshot_parts().lanes;
        let before = lanes(&f);
        for (what, addr) in [
            ("another key's phantom", other),
            ("a stale entry", stale),
            ("a data entry", data),
            ("a popped sequence number", popped),
            ("a sequence number never issued", unissued),
            ("the unset address", FifoAddr::UNSET),
        ] {
            assert!(!f.phantom_at(addr, key(1)), "{what}");
            assert_eq!(f.insert_data(addr, key(1), "x"), Err("x"), "{what}");
            assert!(!f.cancel(addr, key(1), true), "{what}");
            assert!(!f.cancel(addr, key(1), false), "{what}");
            assert_eq!(lanes(&f), before, "{what}");
        }
        assert_eq!(f.stats().data_drops_no_phantom, 6);
        // The right address still works.
        assert!(f.phantom_at(mine, key(1)));
        f.insert_data(mine, key(1), "mine").unwrap();
        assert!(matches!(f.pop(), PopOutcome::Data("mine")));
    }

    /// Two phantoms of one key (two packets that share an id) are two
    /// addresses: each data packet fills its own.
    #[test]
    fn one_key_twice_is_two_addresses() {
        let mut f: FifoCore<&str> = FifoCore::new(1, None);
        let first = f
            .push_phantom(key(7), OrderKey(0, 0), PipelineId(0))
            .unwrap();
        let second = f
            .push_phantom(key(7), OrderKey(1, 0), PipelineId(0))
            .unwrap();
        f.insert_data(second, key(7), "second").unwrap();
        assert!(matches!(f.pop(), PopOutcome::BlockedOnPhantom(k) if k == key(7)));
        f.insert_data(first, key(7), "first").unwrap();
        assert!(matches!(f.pop(), PopOutcome::Data("first")));
        assert!(matches!(f.pop(), PopOutcome::Data("second")));
    }
}
