//! The switch-wide event schema and its JSONL codec.
//!
//! Every observable action inside an MP5 switch (and the baselines) is
//! an [`Event`]: a `(cycle, pipeline, stage)` location plus an
//! [`EventKind`]. Events are emitted in simulation order, so a recorded
//! stream is a total order consistent with the switch's own execution —
//! which is exactly what the offline auditor ([`mod@crate::audit`]) needs to
//! re-verify the paper's invariants without trusting the simulator.
//!
//! The codec is a flat-JSON line format (one event per line, fixed
//! field order) on the vendored `serde::json` `Writer` and `Parser`.
//! Traces must round-trip bit-for-bit in every build of the workspace;
//! `tests/golden/events.jsonl` pins the bytes.

use std::borrow::Cow;
use std::hash::{Hash, Hasher};

use mp5_types::{PacketId, PhantomKey, RegId};
use serde::json::{Parser, Writer};

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

    fn from_str(s: &str) -> Option<Self> {
        [Self::FifoFull, Self::NoPhantom, Self::Starvation]
            .into_iter()
            .find(|cause| cause.as_str() == s)
    }
}

/// What happened. Variants split into two layers:
///
/// * **switch-level** events emitted by `mp5-core` / `mp5-baselines`
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
    /// (Recirculation baseline only) a packet looped from egress back
    /// to an ingress.
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
}

/// One traced event: a location plus what happened there.
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
        fn key(w: &mut Writer<'_>, k: &PhantomKey) {
            w.field("pkt", &k.pkt.0);
            w.field("reg", &k.reg.0);
            w.field("idx", &k.index);
        }
        let mut w = Writer::compact(out);
        w.begin_object();
        w.field("c", &self.cycle);
        w.field("p", &self.pipeline);
        w.field("s", &self.stage);
        w.field("k", self.kind.tag());
        match &self.kind {
            EventKind::Ingress { pkt, order } | EventKind::Access { pkt, order, .. } => {
                w.field("pkt", &pkt.0);
                if let EventKind::Access { reg, index, .. } = &self.kind {
                    w.field("reg", &reg.0);
                    w.field("idx", index);
                }
                w.field("o1", &order.0);
                w.field("o2", &order.1);
            }
            EventKind::Egress { pkt }
            | EventKind::DataEnq { pkt }
            | EventKind::DataEnqDropFull { pkt }
            | EventKind::PopData { pkt } => w.field("pkt", &pkt.0),
            EventKind::Drop { pkt, cause } => {
                w.field("pkt", &pkt.0);
                w.field("cause", cause.as_str());
            }
            EventKind::Execute {
                pkt,
                queued,
                bypassed,
            } => {
                w.field("pkt", &pkt.0);
                w.field("queued", queued);
                w.field("bypassed", bypassed);
            }
            EventKind::PhantomEmit {
                key: k,
                dest_pipeline,
                dest_stage,
            } => {
                key(&mut w, k);
                w.field("dp", dest_pipeline);
                w.field("ds", dest_stage);
            }
            EventKind::PhantomChannelCancel { key: k }
            | EventKind::PhantomEnq { key: k }
            | EventKind::PhantomDropFull { key: k }
            | EventKind::DataMatch { key: k }
            | EventKind::DataOrphan { key: k }
            | EventKind::PopBlocked { key: k }
            | EventKind::FaultPhantomLost { key: k }
            | EventKind::PhantomRecovered { key: k } => key(&mut w, k),
            EventKind::PhantomCancel { key: k, free } => {
                key(&mut w, k);
                w.field("free", free);
            }
            EventKind::RemapMove {
                reg,
                index,
                from,
                to,
            } => {
                w.field("reg", &reg.0);
                w.field("idx", index);
                w.field("from", from);
                w.field("to", to);
            }
            EventKind::Recirculate { pkt, target } => {
                w.field("pkt", &pkt.0);
                w.field("to", target);
            }
            EventKind::Steer { from, to } => {
                w.field("from", from);
                w.field("to", to);
            }
            EventKind::FaultInjected { code, param } => {
                w.field("code", code);
                w.field("param", param);
            }
            EventKind::PipelineEvacuated { pipeline, indexes } => {
                w.field("pl", pipeline);
                w.field("n", indexes);
            }
            EventKind::SnapshotTaken { seq } => w.field("seq", seq),
            EventKind::Restored { from_cycle } => w.field("from", from_cycle),
            EventKind::ProgramSwapped { migrated } => w.field("n", migrated),
            EventKind::PopStale => {}
        }
        w.end_object();
    }

    /// [`Event::write_jsonl`] into a fresh `String`.
    pub fn to_jsonl(&self) -> String {
        let mut line = Vec::with_capacity(96);
        self.write_jsonl(&mut line);
        String::from_utf8(line).expect("the JSON writer emits UTF-8")
    }

    /// Parses one line produced by [`Event::write_jsonl`]. Keys may come
    /// in any order and unknown keys are skipped; a key that appears
    /// twice, or a number too large for its field, is an error.
    pub fn parse_jsonl(line: &str) -> Result<Event, ParseError> {
        let f = Fields::read(line)?;
        let kind = match req(f.k.as_deref(), "k")? {
            "ingress" => EventKind::Ingress {
                pkt: f.pkt()?,
                order: f.order()?,
            },
            "egress" => EventKind::Egress { pkt: f.pkt()? },
            "drop" => EventKind::Drop {
                pkt: f.pkt()?,
                cause: DropCause::from_str(req(f.cause.as_deref(), "cause")?)
                    .ok_or_else(|| ParseError::new("unknown drop cause".into()))?,
            },
            "exec" => EventKind::Execute {
                pkt: f.pkt()?,
                queued: req(f.queued, "queued")?,
                bypassed: req(f.bypassed, "bypassed")?,
            },
            "access" => {
                let PhantomKey { pkt, reg, index } = f.key()?;
                EventKind::Access {
                    pkt,
                    reg,
                    index,
                    order: f.order()?,
                }
            }
            "ph_emit" => EventKind::PhantomEmit {
                key: f.key()?,
                dest_pipeline: narrow(f.dp, "dp")?,
                dest_stage: narrow(f.ds, "ds")?,
            },
            "ph_chan_cancel" => EventKind::PhantomChannelCancel { key: f.key()? },
            "remap" => EventKind::RemapMove {
                reg: RegId(narrow(f.reg, "reg")?),
                index: narrow(f.idx, "idx")?,
                from: narrow(f.from, "from")?,
                to: narrow(f.to, "to")?,
            },
            "recirc" => EventKind::Recirculate {
                pkt: f.pkt()?,
                target: narrow(f.to, "to")?,
            },
            "ph_enq" => EventKind::PhantomEnq { key: f.key()? },
            "ph_drop" => EventKind::PhantomDropFull { key: f.key()? },
            "ph_cancel" => EventKind::PhantomCancel {
                key: f.key()?,
                free: req(f.free, "free")?,
            },
            "data_match" => EventKind::DataMatch { key: f.key()? },
            "data_orphan" => EventKind::DataOrphan { key: f.key()? },
            "data_enq" => EventKind::DataEnq { pkt: f.pkt()? },
            "data_enq_drop" => EventKind::DataEnqDropFull { pkt: f.pkt()? },
            "pop_data" => EventKind::PopData { pkt: f.pkt()? },
            "pop_stale" => EventKind::PopStale,
            "pop_blocked" => EventKind::PopBlocked { key: f.key()? },
            "steer" => EventKind::Steer {
                from: narrow(f.from, "from")?,
                to: narrow(f.to, "to")?,
            },
            "fault" => EventKind::FaultInjected {
                code: narrow(f.code, "code")?,
                param: req(f.param, "param")?,
            },
            "ph_lost" => EventKind::FaultPhantomLost { key: f.key()? },
            "ph_recovered" => EventKind::PhantomRecovered { key: f.key()? },
            "evacuated" => EventKind::PipelineEvacuated {
                pipeline: narrow(f.pl, "pl")?,
                indexes: req(f.n, "n")?,
            },
            "snapshot" => EventKind::SnapshotTaken {
                seq: req(f.seq, "seq")?,
            },
            "restored" => EventKind::Restored {
                from_cycle: req(f.from, "from")?,
            },
            "swap" => EventKind::ProgramSwapped {
                migrated: req(f.n, "n")?,
            },
            other => return Err(ParseError::new(format!("unknown event tag '{other}'"))),
        };
        Ok(Event {
            cycle: req(f.c, "c")?,
            pipeline: narrow(f.p, "p")?,
            stage: narrow(f.s, "s")?,
            kind,
        })
    }
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
        ev.hash(&mut h);
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
}
