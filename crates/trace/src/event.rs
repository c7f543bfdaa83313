//! The switch-wide event schema and its JSONL codec.
//!
//! Every observable action inside an MP5 switch (in any of its designs) is
//! an [`Event`]: a `(cycle, pipeline, stage)` location plus an
//! [`EventKind`]. Events are emitted in simulation order, so a recorded
//! stream is a total order consistent with the switch's own execution —
//! which is exactly what the offline auditor ([`mod@crate::audit`]) needs to
//! re-verify the paper's invariants without trusting the simulator.
//!
//! The codec is a flat-JSON line format (one event per line, fixed
//! field order). Lines are written on the stack from constant key runs,
//! read back by one walk over their bytes, and anything off that layout
//! is read by the vendored `serde::json` `Parser`. Traces must
//! round-trip bit-for-bit in every build of the workspace;
//! `tests/golden/events.jsonl` pins the bytes.

use std::borrow::Cow;
use std::hash::Hasher;

use mp5_types::jsonl::Cursor;
use mp5_types::{PacketId, PhantomKey, RegId};
use serde::json::Parser;

/// Location sentinel for switch-global events (e.g. remap moves) that
/// have no meaningful pipeline or stage.
pub const NO_LOC: u16 = u16::MAX;

/// Why a data packet was dropped (mirrors
/// `mp5_core::DropCounts`'s causes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// A stage FIFO lane was full (no-phantom operating modes).
    FifoFull,
    /// The packet's phantom was dropped upstream, cascading the drop.
    NoPhantom,
    /// A stateless packet yielded its slot to a starving stateful one
    /// (§3.4 starvation handling).
    Starvation,
}

impl DropCause {
    fn as_str(self) -> &'static str {
        match self {
            DropCause::FifoFull => "fifo_full",
            DropCause::NoPhantom => "no_phantom",
            DropCause::Starvation => "starvation",
        }
    }

    fn from_name(name: &[u8]) -> Option<Self> {
        [Self::FifoFull, Self::NoPhantom, Self::Starvation]
            .into_iter()
            .find(|cause| cause.as_str().as_bytes() == name)
    }
}

/// What happened. Variants split into two layers:
///
/// * **switch-level** events emitted by `mp5-core`
///   (ingress, execution, state accesses, phantom generation, remap,
///   egress, drops), and
/// * **fabric-level** events: the outcomes of the `mp5-fabric` FIFO's
///   push / insert / pop / cancel and of crossbar steers. `mp5-fabric`
///   itself emits nothing; the switch's stage queue (`mp5-core`'s
///   `StageQueue`, its only door to the FIFOs) writes each one from the
///   value the FIFO operation returned.
///
/// The auditor cross-checks the two layers against each other. A
/// fabric-level event is derived from the FIFO's own answer, never from
/// the switch's counters, so agreement is evidence, not tautology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    // ---------------- switch level ----------------
    /// A packet was admitted into a pipeline's first stage. `order` is
    /// its switch entry-order key `(arrival byte-time, port)` — the
    /// serial order C1 is defined against.
    Ingress {
        /// The admitted packet.
        pkt: PacketId,
        /// Entry-order key.
        order: (u64, u64),
    },
    /// A packet exited the final stage.
    Egress {
        /// The completed packet.
        pkt: PacketId,
    },
    /// A data packet was dropped.
    Drop {
        /// The dropped packet.
        pkt: PacketId,
        /// Why.
        cause: DropCause,
    },
    /// A stage executed a packet this cycle. `queued` distinguishes a
    /// FIFO-served stateful packet from an incoming pass-through;
    /// `bypassed` marks the Invariant-2 stateless-priority case: an
    /// incoming packet took the slot while stateful work was queued.
    Execute {
        /// The executed packet.
        pkt: PacketId,
        /// Served from the stage FIFO (true) or passing through (false).
        queued: bool,
        /// Pass-through executed while the stage FIFO was non-empty.
        bypassed: bool,
    },
    /// A stateful register access was performed.
    Access {
        /// The accessing packet.
        pkt: PacketId,
        /// Register array.
        reg: RegId,
        /// Register index.
        index: u32,
        /// The packet's entry-order key (reproduced here so the auditor
        /// can reconstruct the reference serial order per index).
        order: (u64, u64),
    },
    /// A phantom was generated onto the dedicated channel at the end of
    /// the prologue (D4).
    PhantomEmit {
        /// The access the phantom stands in for.
        key: PhantomKey,
        /// Destination pipeline.
        dest_pipeline: u16,
        /// Destination stage.
        dest_stage: u16,
    },
    /// A phantom was discarded at channel delivery because its data
    /// packet had been dropped while the phantom was still in flight.
    PhantomChannelCancel {
        /// The cancelled access.
        key: PhantomKey,
    },
    /// The dynamic sharding runtime migrated one register index.
    RemapMove {
        /// Register array.
        reg: RegId,
        /// Migrated index.
        index: u32,
        /// Previous owning pipeline.
        from: u16,
        /// New owning pipeline.
        to: u16,
    },
    /// A packet whose next stateful stage another pipeline owns
    /// recirculates to that pipeline's ingress (a switch without
    /// crossbars, `SwitchConfig::recirc`). Located at the pipeline it
    /// leaves and the stage it needs.
    Recirculate {
        /// The looping packet.
        pkt: PacketId,
        /// Target pipeline.
        target: u16,
    },
    // ---------------- fabric level ----------------
    /// `push(pkt, fifo_id)`: a phantom placeholder entered a stage FIFO.
    PhantomEnq {
        /// The phantom's access key.
        key: PhantomKey,
    },
    /// A phantom was dropped because its FIFO lane was full.
    PhantomDropFull {
        /// The dropped phantom's key.
        key: PhantomKey,
    },
    /// A queued phantom was cancelled. `free` cancellations (upstream
    /// drop) are reclaimed without service; non-free ones (speculative
    /// false branch) cost one pop cycle.
    PhantomCancel {
        /// The cancelled phantom's key.
        key: PhantomKey,
        /// Whether reclamation is free.
        free: bool,
    },
    /// `insert(pkt, addr, fifo_id)`: a data packet replaced its queued
    /// phantom, inheriting its place in the serial order.
    DataMatch {
        /// The matched access key.
        key: PhantomKey,
    },
    /// A data packet arrived for a phantom that no longer exists: the
    /// drop cascade of §3.4.
    DataOrphan {
        /// The orphaned access key.
        key: PhantomKey,
    },
    /// A data packet was pushed directly (no-phantom operating modes).
    DataEnq {
        /// The queued packet.
        pkt: PacketId,
    },
    /// A direct data push was dropped on a full lane.
    DataEnqDropFull {
        /// The dropped packet.
        pkt: PacketId,
    },
    /// `pop()` dequeued a data packet for stateful processing.
    PopData {
        /// The served packet.
        pkt: PacketId,
    },
    /// `pop()` reclaimed a speculative-false phantom, wasting the cycle.
    PopStale,
    /// `pop()` found a phantom at the logical head: the stage stalled
    /// this cycle waiting for the placeholder's data packet (D4's
    /// order freeze).
    PopBlocked {
        /// The blocking phantom's key.
        key: PhantomKey,
    },
    /// The inter-stage crossbar steered a packet across pipelines
    /// (off-diagonal route, D3).
    Steer {
        /// Source pipeline.
        from: u16,
        /// Destination pipeline.
        to: u16,
    },
    // ---------------- fault level ----------------
    /// A planned fault fired (`mp5-faults`). `code`/`param` are the
    /// stable encoding from `FaultKind::code`/`FaultKind::param`.
    FaultInjected {
        /// Fault-kind code (1 = pipeline fail, 2 = stage stall, ...).
        code: u16,
        /// Kind-specific parameter word.
        param: u64,
    },
    /// A phantom was lost to an injected fault (drop or forced FIFO
    /// overflow) and the loss was *recorded* for later recovery.
    FaultPhantomLost {
        /// The lost phantom's access key.
        key: PhantomKey,
    },
    /// A data packet whose phantom was lost to a fault was recovered
    /// into FIFO order at its destination stage (C1-preserving path).
    PhantomRecovered {
        /// The recovered access key.
        key: PhantomKey,
    },
    /// A failed pipeline finished evacuating its sharded state to
    /// survivors via the D2 remap path.
    PipelineEvacuated {
        /// The dead pipeline.
        pipeline: u16,
        /// How many register indexes were moved off it.
        indexes: u64,
    },
    // ---------------- lifecycle level ----------------
    /// A consistent checkpoint of the whole switch was taken at this
    /// cycle boundary (`mp5serve`). Lifecycle events are operator
    /// markers: they are excluded from [`stream_hash`] so a
    /// checkpointed run hashes identically to an uninterrupted one.
    SnapshotTaken {
        /// Checkpoint ordinal within the run (0, 1, 2, ...).
        seq: u64,
    },
    /// Execution resumed from a checkpoint taken at cycle `from_cycle`.
    Restored {
        /// Cycle the restored snapshot was taken at.
        from_cycle: u64,
    },
    /// A newly compiled program was hot-swapped in at this cycle
    /// boundary, migrating live state through the D2 evacuation path.
    ProgramSwapped {
        /// Register indexes migrated into the new program's state.
        migrated: u64,
    },
}

impl EventKind {
    /// The codec tag for this kind.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::Ingress { .. } => "ingress",
            EventKind::Egress { .. } => "egress",
            EventKind::Drop { .. } => "drop",
            EventKind::Execute { .. } => "exec",
            EventKind::Access { .. } => "access",
            EventKind::PhantomEmit { .. } => "ph_emit",
            EventKind::PhantomChannelCancel { .. } => "ph_chan_cancel",
            EventKind::RemapMove { .. } => "remap",
            EventKind::Recirculate { .. } => "recirc",
            EventKind::PhantomEnq { .. } => "ph_enq",
            EventKind::PhantomDropFull { .. } => "ph_drop",
            EventKind::PhantomCancel { .. } => "ph_cancel",
            EventKind::DataMatch { .. } => "data_match",
            EventKind::DataOrphan { .. } => "data_orphan",
            EventKind::DataEnq { .. } => "data_enq",
            EventKind::DataEnqDropFull { .. } => "data_enq_drop",
            EventKind::PopData { .. } => "pop_data",
            EventKind::PopStale => "pop_stale",
            EventKind::PopBlocked { .. } => "pop_blocked",
            EventKind::Steer { .. } => "steer",
            EventKind::FaultInjected { .. } => "fault",
            EventKind::FaultPhantomLost { .. } => "ph_lost",
            EventKind::PhantomRecovered { .. } => "ph_recovered",
            EventKind::PipelineEvacuated { .. } => "evacuated",
            EventKind::SnapshotTaken { .. } => "snapshot",
            EventKind::Restored { .. } => "restored",
            EventKind::ProgramSwapped { .. } => "swap",
        }
    }

    /// True for operator lifecycle markers (checkpoint / restore /
    /// hot-swap). These describe what an *operator* did to the switch,
    /// not what the switch did to packets, so [`stream_hash`] skips
    /// them: a run that was checkpointed, restored, or swapped to an
    /// identical program hashes the same as an uninterrupted run.
    pub fn is_lifecycle(&self) -> bool {
        matches!(
            self,
            EventKind::SnapshotTaken { .. }
                | EventKind::Restored { .. }
                | EventKind::ProgramSwapped { .. }
        )
    }

    /// The discriminant the derived `Hash` writes first: the variant's
    /// place in declaration order.
    fn variant(&self) -> isize {
        match self {
            EventKind::Ingress { .. } => 0,
            EventKind::Egress { .. } => 1,
            EventKind::Drop { .. } => 2,
            EventKind::Execute { .. } => 3,
            EventKind::Access { .. } => 4,
            EventKind::PhantomEmit { .. } => 5,
            EventKind::PhantomChannelCancel { .. } => 6,
            EventKind::RemapMove { .. } => 7,
            EventKind::Recirculate { .. } => 8,
            EventKind::PhantomEnq { .. } => 9,
            EventKind::PhantomDropFull { .. } => 10,
            EventKind::PhantomCancel { .. } => 11,
            EventKind::DataMatch { .. } => 12,
            EventKind::DataOrphan { .. } => 13,
            EventKind::DataEnq { .. } => 14,
            EventKind::DataEnqDropFull { .. } => 15,
            EventKind::PopData { .. } => 16,
            EventKind::PopStale => 17,
            EventKind::PopBlocked { .. } => 18,
            EventKind::Steer { .. } => 19,
            EventKind::FaultInjected { .. } => 20,
            EventKind::FaultPhantomLost { .. } => 21,
            EventKind::PhantomRecovered { .. } => 22,
            EventKind::PipelineEvacuated { .. } => 23,
            EventKind::SnapshotTaken { .. } => 24,
            EventKind::Restored { .. } => 25,
            EventKind::ProgramSwapped { .. } => 26,
        }
    }
}

/// One traced event: a location plus what happened there. The derived
/// `Hash` is what [`stream_hash`] digests, written in one piece by
/// `Event::hash_input`; the unit tests hold the two to the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event {
    /// Simulation cycle of the emitting switch.
    pub cycle: u64,
    /// Pipeline, or [`NO_LOC`] for switch-global events.
    pub pipeline: u16,
    /// Stage, or [`NO_LOC`] for switch-global events.
    pub stage: u16,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// Appends the event to `out` as one flat JSON object (no trailing
    /// newline). Field order is fixed, so equal events serialize to
    /// byte-identical lines and different events to different lines.
    pub fn write_jsonl(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.line().as_bytes());
    }

    /// [`Event::write_jsonl`] into a fresh `String`.
    pub fn to_jsonl(&self) -> String {
        // The line is ASCII: the check passes, and the lossy copy
        // after it is never made.
        String::from_utf8(self.line().as_bytes().to_vec())
            .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
    }

    /// The event's line, built on the stack: constant key runs and
    /// digit-pair integers, one copy each.
    fn line(&self) -> Stack<LINE_CAP> {
        let mut l = Stack::new();
        l.num(b"{\"c\":", self.cycle);
        l.num(P, self.pipeline.into());
        l.num(S, self.stage.into());
        l.put(b",\"k\":\"");
        l.put(self.kind.tag().as_bytes());
        l.put(b"\"");
        match self.kind {
            EventKind::Ingress { pkt, order } => {
                l.num(PKT, pkt.0);
                l.num(O1, order.0);
                l.num(O2, order.1);
            }
            EventKind::Access {
                pkt,
                reg,
                index,
                order,
            } => {
                l.key(PhantomKey { pkt, reg, index });
                l.num(O1, order.0);
                l.num(O2, order.1);
            }
            EventKind::Egress { pkt }
            | EventKind::DataEnq { pkt }
            | EventKind::DataEnqDropFull { pkt }
            | EventKind::PopData { pkt } => l.num(PKT, pkt.0),
            EventKind::Drop { pkt, cause } => {
                l.num(PKT, pkt.0);
                l.put(CAUSE);
                l.put(cause.as_str().as_bytes());
                l.put(b"\"");
            }
            EventKind::Execute {
                pkt,
                queued,
                bypassed,
            } => {
                l.num(PKT, pkt.0);
                l.flag(QUEUED, queued);
                l.flag(BYPASSED, bypassed);
            }
            EventKind::PhantomEmit {
                key,
                dest_pipeline,
                dest_stage,
            } => {
                l.key(key);
                l.num(DP, dest_pipeline.into());
                l.num(DS, dest_stage.into());
            }
            EventKind::PhantomChannelCancel { key }
            | EventKind::PhantomEnq { key }
            | EventKind::PhantomDropFull { key }
            | EventKind::DataMatch { key }
            | EventKind::DataOrphan { key }
            | EventKind::PopBlocked { key }
            | EventKind::FaultPhantomLost { key }
            | EventKind::PhantomRecovered { key } => l.key(key),
            EventKind::PhantomCancel { key, free } => {
                l.key(key);
                l.flag(FREE, free);
            }
            EventKind::RemapMove {
                reg,
                index,
                from,
                to,
            } => {
                l.num(REG, reg.0.into());
                l.num(IDX, index.into());
                l.num(FROM, from.into());
                l.num(TO, to.into());
            }
            EventKind::Recirculate { pkt, target } => {
                l.num(PKT, pkt.0);
                l.num(TO, target.into());
            }
            EventKind::Steer { from, to } => {
                l.num(FROM, from.into());
                l.num(TO, to.into());
            }
            EventKind::FaultInjected { code, param } => {
                l.num(CODE, code.into());
                l.num(PARAM, param);
            }
            EventKind::PipelineEvacuated { pipeline, indexes } => {
                l.num(PL, pipeline.into());
                l.num(N, indexes);
            }
            EventKind::SnapshotTaken { seq } => l.num(SEQ, seq),
            EventKind::Restored { from_cycle } => l.num(FROM, from_cycle),
            EventKind::ProgramSwapped { migrated } => l.num(N, migrated),
            EventKind::PopStale => {}
        }
        l.put(b"}");
        l
    }

    /// Parses one line produced by [`Event::write_jsonl`]. Keys may come
    /// in any order and unknown keys are skipped; a key that appears
    /// twice, or a number too large for its field, is an error.
    ///
    /// A line laid out as the encoder writes it is read by one walk over
    /// its bytes; any other line, and so every error, is read key by key.
    pub fn parse_jsonl(line: &str) -> Result<Event, ParseError> {
        let mut c = Cursor::new(line.as_bytes());
        match walk(&mut c) {
            Some(ev) if c.at_end() => Ok(ev),
            _ => Fields::read(line)?.event(),
        }
    }

    /// What the derived `Hash` feeds a hasher for this event, in one
    /// piece: `cycle`, `pipeline`, `stage`, the kind's discriminant as an
    /// `isize`, then the kind's fields in declaration order, all in
    /// native byte order. SipHash digests a byte stream, so one `write`
    /// of these bytes gives the digest of the derive's eight to ten.
    fn hash_input(&self) -> Stack<HASH_CAP> {
        let mut h = Stack::new();
        h.put(&self.cycle.to_ne_bytes());
        h.put(&self.pipeline.to_ne_bytes());
        h.put(&self.stage.to_ne_bytes());
        h.put(&self.kind.variant().to_ne_bytes());
        match self.kind {
            EventKind::Ingress { pkt, order } => {
                h.put(&pkt.0.to_ne_bytes());
                h.put(&order.0.to_ne_bytes());
                h.put(&order.1.to_ne_bytes());
            }
            EventKind::Access {
                pkt,
                reg,
                index,
                order,
            } => {
                h.phantom(PhantomKey { pkt, reg, index });
                h.put(&order.0.to_ne_bytes());
                h.put(&order.1.to_ne_bytes());
            }
            EventKind::Egress { pkt }
            | EventKind::DataEnq { pkt }
            | EventKind::DataEnqDropFull { pkt }
            | EventKind::PopData { pkt } => h.put(&pkt.0.to_ne_bytes()),
            EventKind::Drop { pkt, cause } => {
                h.put(&pkt.0.to_ne_bytes());
                h.put(&(cause as isize).to_ne_bytes());
            }
            EventKind::Execute {
                pkt,
                queued,
                bypassed,
            } => {
                h.put(&pkt.0.to_ne_bytes());
                h.put(&[queued as u8, bypassed as u8]);
            }
            EventKind::PhantomEmit {
                key,
                dest_pipeline,
                dest_stage,
            } => {
                h.phantom(key);
                h.put(&dest_pipeline.to_ne_bytes());
                h.put(&dest_stage.to_ne_bytes());
            }
            EventKind::PhantomChannelCancel { key }
            | EventKind::PhantomEnq { key }
            | EventKind::PhantomDropFull { key }
            | EventKind::DataMatch { key }
            | EventKind::DataOrphan { key }
            | EventKind::PopBlocked { key }
            | EventKind::FaultPhantomLost { key }
            | EventKind::PhantomRecovered { key } => h.phantom(key),
            EventKind::PhantomCancel { key, free } => {
                h.phantom(key);
                h.put(&[free as u8]);
            }
            EventKind::RemapMove {
                reg,
                index,
                from,
                to,
            } => {
                h.put(&reg.0.to_ne_bytes());
                h.put(&index.to_ne_bytes());
                h.put(&from.to_ne_bytes());
                h.put(&to.to_ne_bytes());
            }
            EventKind::Recirculate { pkt, target } => {
                h.put(&pkt.0.to_ne_bytes());
                h.put(&target.to_ne_bytes());
            }
            EventKind::Steer { from, to } => {
                h.put(&from.to_ne_bytes());
                h.put(&to.to_ne_bytes());
            }
            EventKind::FaultInjected { code, param } => {
                h.put(&code.to_ne_bytes());
                h.put(&param.to_ne_bytes());
            }
            EventKind::PipelineEvacuated { pipeline, indexes } => {
                h.put(&pipeline.to_ne_bytes());
                h.put(&indexes.to_ne_bytes());
            }
            EventKind::SnapshotTaken { seq: n }
            | EventKind::Restored { from_cycle: n }
            | EventKind::ProgramSwapped { migrated: n } => h.put(&n.to_ne_bytes()),
            EventKind::PopStale => {}
        }
        h
    }
}

/// The key runs of a line, each with the comma before it and the colon
/// after it: what [`Event::line`] writes and [`walk`] expects.
mod keys {
    pub const P: &[u8] = b",\"p\":";
    pub const S: &[u8] = b",\"s\":";
    pub const PKT: &[u8] = b",\"pkt\":";
    pub const REG: &[u8] = b",\"reg\":";
    pub const IDX: &[u8] = b",\"idx\":";
    pub const O1: &[u8] = b",\"o1\":";
    pub const O2: &[u8] = b",\"o2\":";
    /// With the value's opening quote.
    pub const CAUSE: &[u8] = b",\"cause\":\"";
    pub const QUEUED: &[u8] = b",\"queued\":";
    pub const BYPASSED: &[u8] = b",\"bypassed\":";
    pub const FREE: &[u8] = b",\"free\":";
    pub const DP: &[u8] = b",\"dp\":";
    pub const DS: &[u8] = b",\"ds\":";
    pub const FROM: &[u8] = b",\"from\":";
    pub const TO: &[u8] = b",\"to\":";
    pub const CODE: &[u8] = b",\"code\":";
    pub const PARAM: &[u8] = b",\"param\":";
    pub const PL: &[u8] = b",\"pl\":";
    pub const N: &[u8] = b",\"n\":";
    pub const SEQ: &[u8] = b",\"seq\":";
}
use keys::*;

/// The longest line [`Event::line`] writes: an `access` event with
/// every number at its widest.
const LINE_CAP: usize = 167;

/// The most bytes [`Event::hash_input`] writes, for an `access` event.
const HASH_CAP: usize = 50;

const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Bytes built on the stack and then handed on whole: a trace line, or
/// an event's hash input. Its methods, and [`Cursor`]'s, are inlined into
/// each call site, where the key is a constant: each copy becomes a few
/// fixed stores and the bounds checks fold away (as calls, with the key's
/// length a variable, `write_jsonl` took ≈ 84 ns an event, not ≈ 45).
struct Stack<const CAP: usize> {
    bytes: [u8; CAP],
    len: usize,
}

impl<const CAP: usize> Stack<CAP> {
    #[inline(always)]
    fn new() -> Self {
        Stack {
            bytes: [0; CAP],
            len: 0,
        }
    }

    #[inline(always)]
    fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    #[inline(always)]
    fn put(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        self.bytes[self.len..end].copy_from_slice(bytes);
        self.len = end;
    }

    /// `key`, then `n` in decimal, two digits at a time from the back.
    #[inline(always)]
    fn num(&mut self, key: &[u8], mut n: u64) {
        self.put(key);
        let digits = n.checked_ilog10().map_or(1, |d| d as usize + 1);
        let end = self.len + digits;
        let out = &mut self.bytes[self.len..end];
        let mut at = digits;
        while at >= 2 {
            let pair = (n % 100) as usize * 2;
            n /= 100;
            at -= 2;
            out[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if at == 1 {
            out[0] = b'0' + n as u8;
        }
        self.len = end;
    }

    #[inline(always)]
    fn flag(&mut self, key: &[u8], b: bool) {
        self.put(key);
        self.put(if b { b"true" } else { b"false" });
    }

    /// A phantom key's three line fields.
    #[inline(always)]
    fn key(&mut self, k: PhantomKey) {
        self.num(PKT, k.pkt.0);
        self.num(REG, k.reg.0.into());
        self.num(IDX, k.index.into());
    }

    /// A phantom key's hash input.
    #[inline(always)]
    fn phantom(&mut self, k: PhantomKey) {
        self.put(&k.pkt.0.to_ne_bytes());
        self.put(&k.reg.0.to_ne_bytes());
        self.put(&k.index.to_ne_bytes());
    }
}

/// The event at the cursor, up to and with its closing `}`, laid out
/// exactly as [`Event::line`] writes it, read against the same key runs:
/// the trace's [`Format::walk`](mp5_types::jsonl::Format::walk). A line
/// it stops on is [`Fields::read`]'s to judge.
pub(crate) fn walk(c: &mut Cursor<'_>) -> Option<Event> {
    let cycle = c.num(b"{\"c\":")?;
    let pipeline = c.narrow(P)?;
    let stage = c.narrow(S)?;
    c.lit(b",\"k\":\"")?;
    let kind = match c.quoted()? {
        b"ingress" => EventKind::Ingress {
            pkt: pkt(c)?,
            order: order(c)?,
        },
        b"egress" => EventKind::Egress { pkt: pkt(c)? },
        b"drop" => EventKind::Drop {
            pkt: pkt(c)?,
            cause: {
                c.lit(CAUSE)?;
                DropCause::from_name(c.quoted()?)?
            },
        },
        b"exec" => EventKind::Execute {
            pkt: pkt(c)?,
            queued: c.flag(QUEUED)?,
            bypassed: c.flag(BYPASSED)?,
        },
        b"access" => {
            let PhantomKey { pkt, reg, index } = key(c)?;
            EventKind::Access {
                pkt,
                reg,
                index,
                order: order(c)?,
            }
        }
        b"ph_emit" => EventKind::PhantomEmit {
            key: key(c)?,
            dest_pipeline: c.narrow(DP)?,
            dest_stage: c.narrow(DS)?,
        },
        b"ph_chan_cancel" => EventKind::PhantomChannelCancel { key: key(c)? },
        b"remap" => EventKind::RemapMove {
            reg: RegId(c.narrow(REG)?),
            index: c.narrow(IDX)?,
            from: c.narrow(FROM)?,
            to: c.narrow(TO)?,
        },
        b"recirc" => EventKind::Recirculate {
            pkt: pkt(c)?,
            target: c.narrow(TO)?,
        },
        b"ph_enq" => EventKind::PhantomEnq { key: key(c)? },
        b"ph_drop" => EventKind::PhantomDropFull { key: key(c)? },
        b"ph_cancel" => EventKind::PhantomCancel {
            key: key(c)?,
            free: c.flag(FREE)?,
        },
        b"data_match" => EventKind::DataMatch { key: key(c)? },
        b"data_orphan" => EventKind::DataOrphan { key: key(c)? },
        b"data_enq" => EventKind::DataEnq { pkt: pkt(c)? },
        b"data_enq_drop" => EventKind::DataEnqDropFull { pkt: pkt(c)? },
        b"pop_data" => EventKind::PopData { pkt: pkt(c)? },
        b"pop_stale" => EventKind::PopStale,
        b"pop_blocked" => EventKind::PopBlocked { key: key(c)? },
        b"steer" => EventKind::Steer {
            from: c.narrow(FROM)?,
            to: c.narrow(TO)?,
        },
        b"fault" => EventKind::FaultInjected {
            code: c.narrow(CODE)?,
            param: c.num(PARAM)?,
        },
        b"ph_lost" => EventKind::FaultPhantomLost { key: key(c)? },
        b"ph_recovered" => EventKind::PhantomRecovered { key: key(c)? },
        b"evacuated" => EventKind::PipelineEvacuated {
            pipeline: c.narrow(PL)?,
            indexes: c.num(N)?,
        },
        b"snapshot" => EventKind::SnapshotTaken { seq: c.num(SEQ)? },
        b"restored" => EventKind::Restored {
            from_cycle: c.num(FROM)?,
        },
        b"swap" => EventKind::ProgramSwapped {
            migrated: c.num(N)?,
        },
        _ => return None,
    };
    c.lit(b"}")?;
    Some(Event {
        cycle,
        pipeline,
        stage,
        kind,
    })
}

#[inline(always)]
fn pkt(c: &mut Cursor<'_>) -> Option<PacketId> {
    c.num(PKT).map(PacketId)
}

#[inline(always)]
fn key(c: &mut Cursor<'_>) -> Option<PhantomKey> {
    Some(PhantomKey {
        pkt: pkt(c)?,
        reg: RegId(c.narrow(REG)?),
        index: c.narrow(IDX)?,
    })
}

#[inline(always)]
fn order(c: &mut Cursor<'_>) -> Option<(u64, u64)> {
    Some((c.num(O1)?, c.num(O2)?))
}

/// Every key the encoder writes, filled in by one walk over a line.
#[derive(Default)]
struct Fields<'a> {
    c: Option<u64>,
    p: Option<u64>,
    s: Option<u64>,
    k: Option<Cow<'a, str>>,
    pkt: Option<u64>,
    reg: Option<u64>,
    idx: Option<u64>,
    o1: Option<u64>,
    o2: Option<u64>,
    cause: Option<Cow<'a, str>>,
    queued: Option<bool>,
    bypassed: Option<bool>,
    free: Option<bool>,
    dp: Option<u64>,
    ds: Option<u64>,
    from: Option<u64>,
    to: Option<u64>,
    code: Option<u64>,
    param: Option<u64>,
    pl: Option<u64>,
    n: Option<u64>,
    seq: Option<u64>,
}

impl<'a> Fields<'a> {
    fn read(line: &'a str) -> Result<Self, ParseError> {
        let mut f = Fields::default();
        let mut p = Parser::new(line);
        p.begin_object()?;
        while let Some(key) = p.next_key()? {
            let twice = match key.as_bytes() {
                b"c" => f.c.replace(p.u64()?).is_some(),
                b"p" => f.p.replace(p.u64()?).is_some(),
                b"s" => f.s.replace(p.u64()?).is_some(),
                b"k" => f.k.replace(p.str()?).is_some(),
                b"pkt" => f.pkt.replace(p.u64()?).is_some(),
                b"reg" => f.reg.replace(p.u64()?).is_some(),
                b"idx" => f.idx.replace(p.u64()?).is_some(),
                b"o1" => f.o1.replace(p.u64()?).is_some(),
                b"o2" => f.o2.replace(p.u64()?).is_some(),
                b"cause" => f.cause.replace(p.str()?).is_some(),
                b"queued" => f.queued.replace(p.bool()?).is_some(),
                b"bypassed" => f.bypassed.replace(p.bool()?).is_some(),
                b"free" => f.free.replace(p.bool()?).is_some(),
                b"dp" => f.dp.replace(p.u64()?).is_some(),
                b"ds" => f.ds.replace(p.u64()?).is_some(),
                b"from" => f.from.replace(p.u64()?).is_some(),
                b"to" => f.to.replace(p.u64()?).is_some(),
                b"code" => f.code.replace(p.u64()?).is_some(),
                b"param" => f.param.replace(p.u64()?).is_some(),
                b"pl" => f.pl.replace(p.u64()?).is_some(),
                b"n" => f.n.replace(p.u64()?).is_some(),
                b"seq" => f.seq.replace(p.u64()?).is_some(),
                _ => p.skip_value().map(|()| false)?,
            };
            if twice {
                return Err(duplicate(&key));
            }
        }
        p.end()?;
        Ok(f)
    }

    /// The event the keys describe, or the first field it lacks.
    fn event(&self) -> Result<Event, ParseError> {
        let kind = match req(self.k.as_deref(), "k")? {
            "ingress" => EventKind::Ingress {
                pkt: self.pkt()?,
                order: self.order()?,
            },
            "egress" => EventKind::Egress { pkt: self.pkt()? },
            "drop" => EventKind::Drop {
                pkt: self.pkt()?,
                cause: DropCause::from_name(req(self.cause.as_deref(), "cause")?.as_bytes())
                    .ok_or_else(|| ParseError::new("unknown drop cause".into()))?,
            },
            "exec" => EventKind::Execute {
                pkt: self.pkt()?,
                queued: req(self.queued, "queued")?,
                bypassed: req(self.bypassed, "bypassed")?,
            },
            "access" => {
                let PhantomKey { pkt, reg, index } = self.key()?;
                EventKind::Access {
                    pkt,
                    reg,
                    index,
                    order: self.order()?,
                }
            }
            "ph_emit" => EventKind::PhantomEmit {
                key: self.key()?,
                dest_pipeline: narrow(self.dp, "dp")?,
                dest_stage: narrow(self.ds, "ds")?,
            },
            "ph_chan_cancel" => EventKind::PhantomChannelCancel { key: self.key()? },
            "remap" => EventKind::RemapMove {
                reg: RegId(narrow(self.reg, "reg")?),
                index: narrow(self.idx, "idx")?,
                from: narrow(self.from, "from")?,
                to: narrow(self.to, "to")?,
            },
            "recirc" => EventKind::Recirculate {
                pkt: self.pkt()?,
                target: narrow(self.to, "to")?,
            },
            "ph_enq" => EventKind::PhantomEnq { key: self.key()? },
            "ph_drop" => EventKind::PhantomDropFull { key: self.key()? },
            "ph_cancel" => EventKind::PhantomCancel {
                key: self.key()?,
                free: req(self.free, "free")?,
            },
            "data_match" => EventKind::DataMatch { key: self.key()? },
            "data_orphan" => EventKind::DataOrphan { key: self.key()? },
            "data_enq" => EventKind::DataEnq { pkt: self.pkt()? },
            "data_enq_drop" => EventKind::DataEnqDropFull { pkt: self.pkt()? },
            "pop_data" => EventKind::PopData { pkt: self.pkt()? },
            "pop_stale" => EventKind::PopStale,
            "pop_blocked" => EventKind::PopBlocked { key: self.key()? },
            "steer" => EventKind::Steer {
                from: narrow(self.from, "from")?,
                to: narrow(self.to, "to")?,
            },
            "fault" => EventKind::FaultInjected {
                code: narrow(self.code, "code")?,
                param: req(self.param, "param")?,
            },
            "ph_lost" => EventKind::FaultPhantomLost { key: self.key()? },
            "ph_recovered" => EventKind::PhantomRecovered { key: self.key()? },
            "evacuated" => EventKind::PipelineEvacuated {
                pipeline: narrow(self.pl, "pl")?,
                indexes: req(self.n, "n")?,
            },
            "snapshot" => EventKind::SnapshotTaken {
                seq: req(self.seq, "seq")?,
            },
            "restored" => EventKind::Restored {
                from_cycle: req(self.from, "from")?,
            },
            "swap" => EventKind::ProgramSwapped {
                migrated: req(self.n, "n")?,
            },
            other => return Err(ParseError::new(format!("unknown event tag '{other}'"))),
        };
        Ok(Event {
            cycle: req(self.c, "c")?,
            pipeline: narrow(self.p, "p")?,
            stage: narrow(self.s, "s")?,
            kind,
        })
    }

    fn pkt(&self) -> Result<PacketId, ParseError> {
        Ok(PacketId(req(self.pkt, "pkt")?))
    }

    fn key(&self) -> Result<PhantomKey, ParseError> {
        Ok(PhantomKey {
            pkt: self.pkt()?,
            reg: RegId(narrow(self.reg, "reg")?),
            index: narrow(self.idx, "idx")?,
        })
    }

    fn order(&self) -> Result<(u64, u64), ParseError> {
        Ok((req(self.o1, "o1")?, req(self.o2, "o2")?))
    }
}

/// Out of line, and given the key's text rather than the `Cow` holding
/// it: formatting `key` in the loop would pin it to memory on every turn.
#[cold]
fn duplicate(key: &str) -> ParseError {
    ParseError::new(format!("duplicate field '{key}'"))
}

/// A field the event's kind needs.
fn req<T>(value: Option<T>, field: &str) -> Result<T, ParseError> {
    value.ok_or_else(|| ParseError::new(format!("missing field '{field}'")))
}

/// A required field narrowed to its width, refusing what does not fit.
fn narrow<T: TryFrom<u64>>(value: Option<u64>, field: &str) -> Result<T, ParseError> {
    T::try_from(req(value, field)?)
        .map_err(|_| ParseError::new(format!("field '{field}' out of range")))
}

/// A malformed trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    msg: String,
}

impl ParseError {
    fn new(msg: String) -> Self {
        ParseError { msg }
    }
}

impl From<serde::json::Error> for ParseError {
    fn from(e: serde::json::Error) -> Self {
        ParseError::new(e.to_string())
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace parse error: {}", self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Digests an event stream with a fixed-key hasher: every event in
/// order, lifecycle markers skipped. Two runs of the same seeded
/// configuration must hash alike — DESIGN §3's bit-for-bit claim,
/// checkable from the observable event stream, not just final state.
///
/// The digest is of the events, not of their JSONL text; the encoding
/// is injective, so two streams hash alike exactly when their files
/// would be byte-identical. It is a token for comparing streams inside
/// one process — not stable across builds or toolchains, and not a
/// checksum of a trace file: compare files with `cmp`.
pub fn stream_hash(events: &[Event]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for ev in events.iter().filter(|ev| !ev.kind.is_lifecycle()) {
        h.write(ev.hash_input().as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(p: u64) -> PhantomKey {
        PhantomKey {
            pkt: PacketId(p),
            reg: RegId(3),
            index: 17,
        }
    }

    fn all_kinds() -> Vec<EventKind> {
        vec![
            EventKind::Ingress {
                pkt: PacketId(1),
                order: (640, 3),
            },
            EventKind::Egress { pkt: PacketId(2) },
            EventKind::Drop {
                pkt: PacketId(3),
                cause: DropCause::NoPhantom,
            },
            EventKind::Execute {
                pkt: PacketId(4),
                queued: true,
                bypassed: false,
            },
            EventKind::Access {
                pkt: PacketId(5),
                reg: RegId(1),
                index: 9,
                order: (128, 7),
            },
            EventKind::PhantomEmit {
                key: k(6),
                dest_pipeline: 2,
                dest_stage: 5,
            },
            EventKind::PhantomChannelCancel { key: k(7) },
            EventKind::RemapMove {
                reg: RegId(0),
                index: 11,
                from: 0,
                to: 3,
            },
            EventKind::Recirculate {
                pkt: PacketId(8),
                target: 1,
            },
            EventKind::PhantomEnq { key: k(9) },
            EventKind::PhantomDropFull { key: k(10) },
            EventKind::PhantomCancel {
                key: k(11),
                free: true,
            },
            EventKind::DataMatch { key: k(12) },
            EventKind::DataOrphan { key: k(13) },
            EventKind::DataEnq { pkt: PacketId(14) },
            EventKind::DataEnqDropFull { pkt: PacketId(15) },
            EventKind::PopData { pkt: PacketId(16) },
            EventKind::PopStale,
            EventKind::PopBlocked { key: k(17) },
            EventKind::Steer { from: 0, to: 2 },
            EventKind::FaultInjected {
                code: 2,
                param: (1 << 16) | 3,
            },
            EventKind::FaultPhantomLost { key: k(18) },
            EventKind::PhantomRecovered { key: k(19) },
            EventKind::PipelineEvacuated {
                pipeline: 2,
                indexes: 40,
            },
            EventKind::SnapshotTaken { seq: 3 },
            EventKind::Restored { from_cycle: 4096 },
            EventKind::ProgramSwapped { migrated: 96 },
        ]
    }

    #[test]
    fn every_kind_round_trips() {
        for (i, kind) in all_kinds().into_iter().enumerate() {
            let ev = Event {
                cycle: 1000 + i as u64,
                pipeline: (i % 4) as u16,
                stage: (i % 16) as u16,
                kind,
            };
            let line = ev.to_jsonl();
            let back = Event::parse_jsonl(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(ev, back, "round trip failed for {line}");
        }
    }

    #[test]
    fn global_events_round_trip_sentinel_location() {
        let ev = Event {
            cycle: 7,
            pipeline: NO_LOC,
            stage: NO_LOC,
            kind: EventKind::RemapMove {
                reg: RegId(2),
                index: 4,
                from: 1,
                to: 2,
            },
        };
        let back = Event::parse_jsonl(&ev.to_jsonl()).unwrap();
        assert_eq!(back.pipeline, NO_LOC);
        assert_eq!(back.stage, NO_LOC);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "{",
            "{}",
            "{\"c\":1}",
            "{\"c\":1,\"p\":0,\"s\":0,\"k\":\"nope\"}",
            "{\"c\":x,\"p\":0,\"s\":0,\"k\":\"pop_stale\"}",
            "not json at all",
        ] {
            assert!(Event::parse_jsonl(bad).is_err(), "accepted: {bad}");
        }
    }

    /// The error `parse_jsonl` gives for `line`.
    fn rejection(line: &str) -> String {
        match Event::parse_jsonl(line) {
            Ok(ev) => panic!("accepted {line} as {ev:?}"),
            Err(e) => e.to_string(),
        }
    }

    /// A number one past its field's width is refused by name, not
    /// truncated: 70000 used to decode as pipeline 4464.
    #[test]
    fn a_number_too_wide_for_its_field_is_rejected() {
        const U16: u64 = u16::MAX as u64;
        const U32: u64 = u32::MAX as u64;
        // (line with WIDE where the field's value goes, field, its largest value)
        let cases = [
            (r#"{"c":1,"p":WIDE,"s":0,"k":"pop_stale"}"#, "p", U16),
            (r#"{"c":1,"p":0,"s":WIDE,"k":"pop_stale"}"#, "s", U16),
            (
                r#"{"c":1,"p":0,"s":0,"k":"ph_enq","pkt":1,"reg":WIDE,"idx":0}"#,
                "reg",
                U16,
            ),
            (
                r#"{"c":1,"p":0,"s":0,"k":"ph_enq","pkt":1,"reg":0,"idx":WIDE}"#,
                "idx",
                U32,
            ),
            (
                r#"{"c":1,"p":0,"s":0,"k":"remap","reg":0,"idx":WIDE,"from":0,"to":0}"#,
                "idx",
                U32,
            ),
            (
                r#"{"c":1,"p":0,"s":0,"k":"ph_emit","pkt":1,"reg":0,"idx":0,"dp":WIDE,"ds":0}"#,
                "dp",
                U16,
            ),
            (
                r#"{"c":1,"p":0,"s":0,"k":"ph_emit","pkt":1,"reg":0,"idx":0,"dp":0,"ds":WIDE}"#,
                "ds",
                U16,
            ),
            (
                r#"{"c":1,"p":0,"s":0,"k":"steer","from":WIDE,"to":0}"#,
                "from",
                U16,
            ),
            (
                r#"{"c":1,"p":0,"s":0,"k":"steer","from":0,"to":WIDE}"#,
                "to",
                U16,
            ),
            (
                r#"{"c":1,"p":0,"s":0,"k":"recirc","pkt":1,"to":WIDE}"#,
                "to",
                U16,
            ),
            (
                r#"{"c":1,"p":0,"s":0,"k":"fault","code":WIDE,"param":0}"#,
                "code",
                U16,
            ),
            (
                r#"{"c":1,"p":0,"s":0,"k":"evacuated","pl":WIDE,"n":0}"#,
                "pl",
                U16,
            ),
        ];
        for (line, field, max) in cases {
            let widest = line.replace("WIDE", &max.to_string());
            assert!(Event::parse_jsonl(&widest).is_ok(), "{widest}");
            let err = rejection(&line.replace("WIDE", &(max + 1).to_string()));
            let want = format!("field '{field}' out of range");
            assert!(err.contains(&want), "{line}: {err}");
        }
        // A key is as wide as the kind that reads it: a restore's `from`
        // is a cycle, a steer's a pipeline.
        let restored = r#"{"c":1,"p":0,"s":0,"k":"restored","from":65536}"#;
        assert!(Event::parse_jsonl(restored).is_ok());
    }

    #[test]
    fn a_duplicated_key_is_rejected_and_an_unknown_one_skipped() {
        let line = r#"{"c":1,"p":2,"s":3,"k":"egress","pkt":4}"#;
        let ev = Event::parse_jsonl(line).unwrap();
        for (twice, key) in [
            (r#""c":1,"c":1,"#, "c"),
            (r#""c":1,"pkt":4,"#, "pkt"),
            (r#""c":1,"k":"egress","#, "k"),
        ] {
            let err = rejection(&line.replacen(r#""c":1,"#, twice, 1));
            assert!(err.contains(&format!("duplicate field '{key}'")), "{err}");
        }
        // A key no kind has, and one this kind does not read.
        for extra in [
            r#""later":null,"#,
            r#""later":[1,{"c":2}],"#,
            r#""free":true,"#,
        ] {
            let with_extra = line.replacen(r#""p":2,"#, &format!(r#"{extra}"p":2,"#), 1);
            assert_eq!(Event::parse_jsonl(&with_extra).unwrap(), ev, "{with_extra}");
        }
        // PhantomKey order, an escape in a key and whitespace between tokens
        // are free; a comma with no member after it, or anything after
        // the object, is not.
        for alike in [
            r#"{"pkt":4,"k":"egress","s":3,"p":2,"c":1}"#,
            r#"{"c":1,"p":2,"s":3,"k":"egress","p\u006bt":4}"#,
            r#"{ "c" : 1 , "p":2, "s" :3,"k":"egress" ,"pkt": 4 }"#,
        ] {
            assert_eq!(Event::parse_jsonl(alike).unwrap(), ev, "{alike}");
        }
        assert!(rejection(&line.replace('}', ",}")).contains("expected string"));
        assert!(rejection(&format!("{line}x")).contains("trailing characters"));
        assert!(rejection(&line.replace(r#","pkt":4"#, "")).contains("missing field 'pkt'"));
    }

    #[test]
    fn lifecycle_events_do_not_perturb_stream_hash() {
        let work = Event {
            cycle: 5,
            pipeline: 0,
            stage: 0,
            kind: EventKind::PopStale,
        };
        let marker = |kind| Event {
            cycle: 5,
            pipeline: NO_LOC,
            stage: NO_LOC,
            kind,
        };
        let clean = [work];
        let operated = [
            marker(EventKind::SnapshotTaken { seq: 0 }),
            work,
            marker(EventKind::Restored { from_cycle: 5 }),
            marker(EventKind::ProgramSwapped { migrated: 12 }),
        ];
        assert_eq!(stream_hash(&clean), stream_hash(&operated));
        for kind in [
            EventKind::SnapshotTaken { seq: 0 },
            EventKind::Restored { from_cycle: 0 },
            EventKind::ProgramSwapped { migrated: 0 },
        ] {
            assert!(kind.is_lifecycle());
        }
        assert!(!EventKind::PopStale.is_lifecycle());
    }

    #[test]
    fn stream_hash_is_order_sensitive() {
        let a = Event {
            cycle: 1,
            pipeline: 0,
            stage: 0,
            kind: EventKind::PopStale,
        };
        let b = Event {
            cycle: 2,
            pipeline: 0,
            stage: 0,
            kind: EventKind::PopStale,
        };
        assert_eq!(stream_hash(&[a, b]), stream_hash(&[a, b]));
        assert_ne!(stream_hash(&[a, b]), stream_hash(&[b, a]));
        assert_ne!(stream_hash(&[a]), stream_hash(&[a, b]));
    }

    /// Every kind, and every drop cause, with each field set to `w`
    /// narrowed to its width: at `u64::MAX` every field is at its
    /// maximum.
    fn kinds_at(w: u64, flag: bool) -> Vec<EventKind> {
        let pkt = PacketId(w);
        let (reg, index, short) = (RegId(w as u16), w as u32, w as u16);
        let key = PhantomKey { pkt, reg, index };
        let mut kinds: Vec<EventKind> = [DropCause::FifoFull, DropCause::Starvation]
            .map(|cause| EventKind::Drop { pkt, cause })
            .into();
        kinds.extend(all_kinds().into_iter().map(|kind| match kind {
            EventKind::Ingress { .. } => EventKind::Ingress { pkt, order: (w, w) },
            EventKind::Egress { .. } => EventKind::Egress { pkt },
            EventKind::Drop { cause, .. } => EventKind::Drop { pkt, cause },
            EventKind::Execute { .. } => EventKind::Execute {
                pkt,
                queued: flag,
                bypassed: !flag,
            },
            EventKind::Access { .. } => EventKind::Access {
                pkt,
                reg,
                index,
                order: (w, w),
            },
            EventKind::PhantomEmit { .. } => EventKind::PhantomEmit {
                key,
                dest_pipeline: short,
                dest_stage: short,
            },
            EventKind::PhantomChannelCancel { .. } => EventKind::PhantomChannelCancel { key },
            EventKind::RemapMove { .. } => EventKind::RemapMove {
                reg,
                index,
                from: short,
                to: short,
            },
            EventKind::Recirculate { .. } => EventKind::Recirculate { pkt, target: short },
            EventKind::PhantomEnq { .. } => EventKind::PhantomEnq { key },
            EventKind::PhantomDropFull { .. } => EventKind::PhantomDropFull { key },
            EventKind::PhantomCancel { .. } => EventKind::PhantomCancel { key, free: flag },
            EventKind::DataMatch { .. } => EventKind::DataMatch { key },
            EventKind::DataOrphan { .. } => EventKind::DataOrphan { key },
            EventKind::DataEnq { .. } => EventKind::DataEnq { pkt },
            EventKind::DataEnqDropFull { .. } => EventKind::DataEnqDropFull { pkt },
            EventKind::PopData { .. } => EventKind::PopData { pkt },
            EventKind::PopStale => EventKind::PopStale,
            EventKind::PopBlocked { .. } => EventKind::PopBlocked { key },
            EventKind::Steer { .. } => EventKind::Steer {
                from: short,
                to: short,
            },
            EventKind::FaultInjected { .. } => EventKind::FaultInjected {
                code: short,
                param: w,
            },
            EventKind::FaultPhantomLost { .. } => EventKind::FaultPhantomLost { key },
            EventKind::PhantomRecovered { .. } => EventKind::PhantomRecovered { key },
            EventKind::PipelineEvacuated { .. } => EventKind::PipelineEvacuated {
                pipeline: short,
                indexes: w,
            },
            EventKind::SnapshotTaken { .. } => EventKind::SnapshotTaken { seq: w },
            EventKind::Restored { .. } => EventKind::Restored { from_cycle: w },
            EventKind::ProgramSwapped { .. } => EventKind::ProgramSwapped { migrated: w },
        }));
        kinds
    }

    /// Every kind of [`all_kinds`], at 0 and with every field at its
    /// maximum, at the origin and at `NO_LOC` on the last cycle.
    fn edge_events() -> Vec<Event> {
        let at = |cycle, loc, kind| Event {
            cycle,
            pipeline: loc,
            stage: loc,
            kind,
        };
        let mut events = Vec::new();
        for kind in all_kinds() {
            events.push(at(7, 1, kind));
        }
        for (w, flag) in [(0, false), (u64::MAX, true)] {
            for kind in kinds_at(w, flag) {
                events.push(at(0, 0, kind));
                events.push(at(u64::MAX, NO_LOC, kind));
            }
        }
        events
    }

    /// The bytes a hasher is fed, as a hasher sees them.
    #[derive(Default)]
    struct Fed(Vec<u8>);

    impl Hasher for Fed {
        fn write(&mut self, bytes: &[u8]) {
            self.0.extend_from_slice(bytes);
        }

        fn finish(&self) -> u64 {
            0
        }
    }

    /// `stream_hash` feeds each event in one `write`; the derived `Hash`
    /// is the reference for which bytes, in which order.
    #[test]
    fn the_one_write_digest_is_the_derived_hash() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::Hash;
        let mut widest = 0;
        for ev in edge_events() {
            let mut fed = Fed::default();
            ev.hash(&mut fed);
            let input = ev.hash_input();
            assert_eq!(input.as_bytes(), fed.0, "{ev:?}");
            widest = widest.max(input.len);

            let mut derived = DefaultHasher::new();
            ev.hash(&mut derived);
            let mut one_write = DefaultHasher::new();
            one_write.write(input.as_bytes());
            assert_eq!(one_write.finish(), derived.finish(), "{ev:?}");
            if !ev.kind.is_lifecycle() {
                assert_eq!(stream_hash(&[ev]), derived.finish(), "{ev:?}");
            }
        }
        assert_eq!(widest, HASH_CAP);
    }

    /// The stack line is sized to the widest line the encoder writes.
    #[test]
    fn the_widest_line_of_every_kind_fits() {
        let widest = edge_events().iter().map(|ev| ev.line().len).max().unwrap();
        assert_eq!(widest, LINE_CAP);
    }

    /// The walk's reading of `text`'s start.
    fn walk_text(text: &str) -> Option<Event> {
        walk(&mut Cursor::new(text.as_bytes()))
    }

    /// What a reader takes at the start of `text` in one walk: the event
    /// and its `\n`, and the bytes they take.
    fn walk_line(text: &str) -> Option<(Event, usize)> {
        let mut c = Cursor::new(text.as_bytes());
        let ev = walk(&mut c)?;
        c.lit(b"\n")?;
        Some((ev, text.len() - c.rest().len()))
    }

    /// The key-by-key reading of `line`, without the walk in front.
    fn read_by_key(line: &str) -> Result<Event, ParseError> {
        Fields::read(line)?.event()
    }

    /// The byte walk decides nothing the key-by-key reader would decide
    /// otherwise: every line, every prefix of it and every one-byte
    /// change to it reads the same both ways.
    #[test]
    fn the_byte_walk_reads_what_the_key_reader_reads() {
        let mut walked = 0;
        for ev in edge_events() {
            let line = ev.to_jsonl();
            // Only a 20-digit number sends an encoder line to the key
            // reader.
            let wide = line.contains(&u64::MAX.to_string());
            let walk = walk_text(&line);
            assert!(walk == if wide { None } else { Some(ev) }, "{line}");
            // A reader takes the line and its `\n` in the same walk, and
            // leaves any other ending to `parse_jsonl`.
            let next = format!("{line}\n{line}\n");
            let taken = walk_line(&next);
            assert!(taken == walk.map(|ev| (ev, line.len() + 1)), "{line}");
            for ending in ["", "\r\n", " \n", "x\n"] {
                let text = format!("{line}{ending}");
                assert!(walk_line(&text).is_none(), "{text:?}");
            }
            for tail in ["\n", "\r\n", " \t", "x", ",", "}"] {
                let text = format!("{line}{tail}");
                assert_eq!(Event::parse_jsonl(&text), read_by_key(&text), "{text:?}");
            }
            for cut in 0..line.len() {
                let text = &line[..cut];
                assert_eq!(Event::parse_jsonl(text), read_by_key(text), "{text:?}");
            }
            for at in 0..line.len() {
                for b in [b'0', b'9', b'"', b' ', b'-', b'.', b'e', b'\\', b'x'] {
                    let mut bytes = line.clone().into_bytes();
                    bytes[at] = b;
                    let text = String::from_utf8(bytes).unwrap();
                    let got = Event::parse_jsonl(&text);
                    assert_eq!(got, read_by_key(&text), "{text:?}");
                    walked += usize::from(walk_text(&text).is_some());
                }
            }
        }
        // Some changes keep the layout (another digit) and are walked.
        assert!(walked > 0);
    }
}
