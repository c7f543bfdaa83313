//! Per-(pipeline, stage) input queues: the bank of `k` FIFOs, or one
//! FIFO per register index in the ideal configuration, and their
//! checkpointed form.

use mp5_compiler::program::INDEX_ARRAY_LEVEL;
use mp5_fabric::{Entry, FifoAddr, FifoCore, FifoParts, OrderKey, PhantomKey, PopOutcome};
use mp5_trace::{TraceCtx, TraceSink};
use mp5_types::{PacketId, PipelineId};

use super::slab::{from_back, Flights, Handle, SEQ_ROOM};
use crate::config::SwitchConfig;
use crate::state::{Flight, QueueSnap, RestoreError};

/// Per-(pipeline, stage) input queue: the bank of `k` FIFOs, or one
/// FIFO per register index in the ideal configuration. Phantoms are
/// inserted and cancelled at the address their push returned, which
/// the caller keeps in [`Flights`]; an index's sub-queue is found by
/// the key's index.
#[derive(Debug)]
pub(super) enum StageQueue {
    Logical(FifoCore<Handle>),
    PerIndex {
        subs: std::collections::BTreeMap<u32, FifoCore<Handle>>,
        max_total: usize,
        /// Bound applied to each per-index sub-queue (`fifo_capacity`):
        /// the ideal configuration honors bounded-FIFO runs too.
        capacity: Option<usize>,
    },
}

/// What a stage's scheduler did with its FIFO this cycle.
pub(super) enum Serve {
    Idle,
    Served(Handle),
    Wasted,
}

impl StageQueue {
    pub(super) fn new(cfg: &SwitchConfig) -> Self {
        if cfg.per_index_fifos {
            StageQueue::PerIndex {
                subs: Default::default(),
                max_total: 0,
                capacity: cfg.fifo_capacity,
            }
        } else {
            StageQueue::Logical(FifoCore::new(cfg.pipelines, cfg.fifo_capacity))
        }
    }

    /// The FIFO an entry for register `index` goes to, and the lane it
    /// takes there: the bank itself and `lane`, or that index's own
    /// sub-queue (opened on first use) and its one lane.
    #[inline]
    fn fifo(&mut self, index: u32, lane: PipelineId) -> (&mut FifoCore<Handle>, PipelineId) {
        match self {
            StageQueue::Logical(f) => (f, lane),
            StageQueue::PerIndex { subs, capacity, .. } => {
                (Self::sub(subs, *capacity, index), PipelineId(0))
            }
        }
    }

    fn sub(
        subs: &mut std::collections::BTreeMap<u32, FifoCore<Handle>>,
        capacity: Option<usize>,
        index: u32,
    ) -> &mut FifoCore<Handle> {
        subs.entry(index)
            .or_insert_with(|| FifoCore::new(1, capacity))
    }

    /// Records a new peak total depth after an enqueue (per-index
    /// layout; the bank keeps its own).
    #[inline]
    fn note_depth(&mut self) {
        if let StageQueue::PerIndex {
            subs, max_total, ..
        } = self
        {
            *max_total = (*max_total).max(subs.values().map(|f| f.len()).sum::<usize>());
        }
    }

    /// Queues a phantom; its address, or `None` if the lane was full.
    #[inline]
    pub(super) fn push_phantom<S: TraceSink>(
        &mut self,
        key: PhantomKey,
        ts: OrderKey,
        lane: PipelineId,
        sink: &mut S,
        ctx: TraceCtx,
    ) -> Option<FifoAddr> {
        let (f, lane) = self.fifo(key.index, lane);
        let addr = f.push_phantom_traced(key, ts, lane, sink, ctx).ok();
        self.note_depth();
        addr
    }

    #[inline]
    pub(super) fn push_data<S: TraceSink>(
        &mut self,
        pkt: PacketId,
        h: Handle,
        ts: OrderKey,
        lane: PipelineId,
        sink: &mut S,
        ctx: TraceCtx,
    ) -> Result<(), Handle> {
        let (f, lane) = self.fifo(INDEX_ARRAY_LEVEL, lane);
        let r = f.push_data_traced(pkt, h, ts, lane, sink, ctx);
        self.note_depth();
        r.map(|_| ())
    }

    /// Re-inserts a data packet whose phantom was lost to an injected
    /// fault directly into FIFO order at its original order key (the
    /// C1-preserving recovery path; see `FifoCore::push_recovered`).
    pub(super) fn push_recovered<S: TraceSink>(
        &mut self,
        key: PhantomKey,
        h: Handle,
        ts: OrderKey,
        sink: &mut S,
        ctx: TraceCtx,
    ) {
        let (f, _) = self.fifo(key.index, PipelineId(0));
        f.push_recovered_traced(key, h, ts, sink, ctx);
        self.note_depth();
    }

    /// Replaces `key`'s phantom at `addr` with the packet.
    #[inline]
    pub(super) fn insert_data<S: TraceSink>(
        &mut self,
        addr: FifoAddr,
        key: PhantomKey,
        h: Handle,
        sink: &mut S,
        ctx: TraceCtx,
    ) -> Result<(), Handle> {
        let (f, _) = self.fifo(key.index, PipelineId(0));
        f.insert_data_traced(addr, key, h, sink, ctx)
    }

    /// Cancels `key`'s phantom at `addr`, if it is there.
    #[inline]
    pub(super) fn cancel<S: TraceSink>(
        &mut self,
        addr: FifoAddr,
        key: PhantomKey,
        free: bool,
        sink: &mut S,
        ctx: TraceCtx,
    ) -> bool {
        self.fifo(key.index, PipelineId(0))
            .0
            .cancel_traced(addr, key, free, sink, ctx)
    }

    #[inline]
    pub(super) fn serve<S: TraceSink>(
        &mut self,
        st: usize,
        flights: &Flights,
        sink: &mut S,
        ctx: TraceCtx,
    ) -> Serve {
        let pkt_of = |h: &Handle| flights[*h].pkt.id;
        match self {
            StageQueue::Logical(f) => match f.pop_traced(sink, ctx, pkt_of) {
                PopOutcome::Data(fl) => Serve::Served(fl),
                PopOutcome::ConsumedStale => Serve::Wasted,
                PopOutcome::Empty | PopOutcome::BlockedOnPhantom(_) => Serve::Idle,
            },
            StageQueue::PerIndex { subs, .. } => {
                // No head-of-line blocking: serve the oldest *servable*
                // head across all per-index queues. A data head with
                // sibling placeholders in other sub-queues is eligible
                // only when every sibling is also at its queue's head —
                // otherwise an earlier-arrived packet for that sibling
                // index would be overtaken when this packet executes all
                // of its accesses at once. Siblings are found by the
                // address recorded for them, not by key, so two packets
                // that share an id cannot stand in for each other.
                enum Head {
                    Phantom(Option<FifoAddr>),
                    Data(Handle),
                    Stale,
                }
                let mut heads: std::collections::BTreeMap<u32, (OrderKey, Head)> =
                    Default::default();
                for (&idx, f) in subs.iter_mut() {
                    let Some((addr, entry)) = f.peek_oldest_at() else {
                        continue;
                    };
                    let ts = entry.ts();
                    let head = match entry {
                        Entry::Phantom { .. } => Head::Phantom(addr),
                        Entry::Stale { free, .. } => {
                            debug_assert!(!free, "free stales are drained by peek");
                            Head::Stale
                        }
                        Entry::Data { item, .. } => Head::Data(*item),
                    };
                    heads.insert(idx, (ts, head));
                }
                let mut cands: Vec<(OrderKey, u32)> = heads
                    .iter()
                    .filter(|(_, (_, h))| !matches!(h, Head::Phantom(_)))
                    .map(|(&idx, (ts, _))| (*ts, idx))
                    .collect();
                cands.sort_unstable();
                for (_, idx) in cands {
                    if let (_, Head::Data(h)) = heads[&idx] {
                        // A sibling gates service only while its phantom
                        // is still queued (in no-phantom modes, or after
                        // drops, there is nothing to wait for).
                        let fl = &flights[h];
                        let tags = &fl.pkt.tags;
                        let eligible = tags.iter().enumerate().all(|(i, t)| {
                            if t.stage.index() != st || t.index == idx {
                                return true;
                            }
                            let addr = flights.addr(h, from_back(tags.len(), i));
                            let queued = subs
                                .get(&t.index)
                                .is_some_and(|sub| sub.phantom_at(addr, fl.key(t)));
                            !queued
                                || matches!(
                                    heads.get(&t.index),
                                    Some((_, Head::Phantom(Some(a)))) if *a == addr
                                )
                        });
                        if !eligible {
                            continue;
                        }
                    }
                    // `idx` was collected from `heads`, which was built by
                    // iterating `subs`, and nothing has been removed since
                    // — absence would be a scheduler bug, so degrade to
                    // skipping the candidate rather than panicking.
                    let Some(sub) = subs.get_mut(&idx) else {
                        debug_assert!(false, "candidate index {idx} vanished from sub-queues");
                        continue;
                    };
                    let out = match sub.pop_traced(sink, ctx, pkt_of) {
                        PopOutcome::Data(fl) => Serve::Served(fl),
                        PopOutcome::ConsumedStale => Serve::Wasted,
                        // The candidate filter above excluded phantom heads
                        // and `peek_oldest` drained free stales, so the pop
                        // can only observe the two servable outcomes; an
                        // `Empty`/`BlockedOnPhantom` here would mean the
                        // head changed mid-scan, which nothing in this
                        // single-threaded scheduler can do.
                        _ => unreachable!("candidate head is servable"),
                    };
                    // Drop drained sub-queues so the scheduler scan
                    // stays proportional to *occupied* indexes.
                    if sub.is_empty() {
                        subs.remove(&idx);
                    }
                    return out;
                }
                Serve::Idle
            }
        }
    }

    pub(super) fn oldest_ts(&mut self) -> Option<OrderKey> {
        match self {
            StageQueue::Logical(f) => f.oldest_ts(),
            StageQueue::PerIndex { subs, .. } => {
                subs.values_mut().filter_map(|f| f.oldest_ts()).min()
            }
        }
    }

    pub(super) fn len(&self) -> usize {
        match self {
            StageQueue::Logical(f) => f.len(),
            StageQueue::PerIndex { subs, .. } => subs.values().map(|f| f.len()).sum(),
        }
    }

    /// O(1) for the logical layout (the FIFO keeps an occupancy
    /// counter); the work pass probes this for every `(pipeline, stage)`
    /// slot before paying for a full `serve` scan.
    pub(super) fn is_empty(&self) -> bool {
        match self {
            StageQueue::Logical(f) => f.is_empty(),
            StageQueue::PerIndex { subs, .. } => subs.values().all(|f| f.is_empty()),
        }
    }

    pub(super) fn max_occupancy(&self) -> usize {
        match self {
            StageQueue::Logical(f) => f.max_occupancy(),
            StageQueue::PerIndex { max_total, .. } => *max_total,
        }
    }
}

impl StageQueue {
    /// The queue's FIFOs: the logical one, or each per-index sub-queue.
    pub(super) fn fifos(&self) -> impl Iterator<Item = &FifoCore<Handle>> {
        let (one, subs) = match self {
            StageQueue::Logical(f) => (Some(f), None),
            StageQueue::PerIndex { subs, .. } => (None, Some(subs.values())),
        };
        one.into_iter().chain(subs.into_iter().flatten())
    }

    /// The queue's explicit state for a checkpoint, each queued handle
    /// written as the packet it names.
    pub(super) fn snapshot(&self, flights: &Flights) -> QueueSnap {
        let parts = |f: &FifoCore<Handle>| f.snapshot_parts_with(|h| Box::new(flights[*h].clone()));
        match self {
            StageQueue::Logical(f) => QueueSnap::Logical(parts(f)),
            StageQueue::PerIndex {
                subs,
                max_total,
                capacity,
            } => QueueSnap::PerIndex {
                subs: subs.iter().map(|(i, f)| (*i, parts(f))).collect(),
                max_total: *max_total,
                capacity: *capacity,
            },
        }
    }

    /// Rebuilds a checkpointed queue in `cfg`'s layout, storing each
    /// queued packet in `flights`. Each per-index sub-queue must hold
    /// only its own index's phantoms: a packet looks for its phantom in
    /// the sub-queue of that index and nowhere else. The phantoms'
    /// addresses are the caller's to record.
    pub(super) fn restore(
        q: QueueSnap,
        cfg: &SwitchConfig,
        flights: &mut Flights,
    ) -> Result<Self, RestoreError> {
        use RestoreError::Incompatible;
        let mut fifo = |parts: FifoParts<Flight>, lanes: usize| {
            if parts.lanes.len() != lanes {
                let got = parts.lanes.len();
                return Err(Incompatible(format!(
                    "a FIFO has {got} lanes, expected {lanes}"
                )));
            }
            // Recorded phantom addresses pack the sequence number into
            // 48 bits (`slab::SEQ_ROOM`).
            if parts.lanes.iter().any(|l| l.head_seq > SEQ_ROOM) {
                return Err(Incompatible(format!(
                    "a lane's sequence numbers start past {SEQ_ROOM}"
                )));
            }
            FifoCore::from_parts(parts.map(|fl| flights.alloc(*fl))).map_err(Incompatible)
        };
        match (q, cfg.per_index_fifos) {
            (QueueSnap::Logical(f), false) => Ok(StageQueue::Logical(fifo(f, cfg.pipelines)?)),
            (
                QueueSnap::PerIndex {
                    subs,
                    max_total,
                    capacity,
                },
                true,
            ) => {
                let mut fifos = std::collections::BTreeMap::new();
                for (i, f) in subs {
                    let f = fifo(f, 1)?;
                    if f.phantoms().any(|(_, key, _)| key.index != i) {
                        return Err(Incompatible(format!(
                            "sub-queue {i} holds another index's phantom"
                        )));
                    }
                    fifos.insert(i, f);
                }
                Ok(StageQueue::PerIndex {
                    subs: fifos,
                    max_total,
                    capacity,
                })
            }
            (QueueSnap::Logical(_), true) => Err(Incompatible(
                "logical-FIFO snapshot cannot restore into a per-index configuration".into(),
            )),
            (QueueSnap::PerIndex { .. }, false) => Err(Incompatible(
                "per-index snapshot cannot restore into a logical-FIFO configuration".into(),
            )),
        }
    }
}
