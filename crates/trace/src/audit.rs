//! The offline invariant auditor.
//!
//! [`audit`] replays a recorded event stream and *independently*
//! re-verifies the correctness claims of the paper's runtime design:
//!
//! * **Invariant 1** — a phantom reaches the destination FIFO before
//!   its data packet. Observable as: every `data_match` finds its key
//!   in the *enqueued* state, and no `data_orphan` hits a key whose
//!   phantom is still in flight.
//! * **Invariant 2** — incoming pass-through packets have priority
//!   over queued stateful work. Observable as: each `(cycle, pipeline,
//!   stage)` slot executes at most one packet, and every queued
//!   service is a `pop_data` / `exec(queued)` pair for the same packet
//!   in the same slot.
//! * **Condition C1** — per register index, the actual access sequence
//!   equals the switch entry order. The reference order is rebuilt
//!   from the entry-order keys carried in `access` events, *not* from
//!   the simulator's reference run, so this is a second implementation
//!   of `mp5-sim`'s online check.
//! * **Packet conservation** — every admitted packet leaves exactly
//!   once (egress or a counted drop), and nothing leaves that never
//!   entered.
//! * **Phantom/data pairing** — every emitted phantom is resolved
//!   exactly once: matched by its data packet, dropped on a full lane,
//!   cancelled on the channel, or cancelled in a FIFO.
//!
//! The checker deliberately shares *no* code with `mp5-core`: it sees
//! only the serialized event stream, so agreement between the two is
//! evidence about the switch, not about one shared implementation.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use mp5_types::{FastMap, PacketId, PhantomKey, RegId};

use crate::event::{Event, EventKind};

/// One observed access: the packet and its reference order key.
type Access = (PacketId, (u64, u64));

/// Which auditor check produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Check {
    /// Invariant 1: phantom precedes data at the destination FIFO.
    Inv1,
    /// Invariant 2: incoming pass-through priority / one packet per
    /// stage per cycle.
    Inv2,
    /// Condition C1: per-index serial access order equals entry order.
    C1,
    /// Packet conservation: one admission, one exit, per packet.
    Conservation,
    /// Phantom lifecycle: emit → (enqueue → match/cancel) | drop.
    Pairing,
    /// Stream well-formedness (monotonic cycles, consistent flags).
    Stream,
}

impl Check {
    /// Short machine-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Check::Inv1 => "inv1",
            Check::Inv2 => "inv2",
            Check::C1 => "c1",
            Check::Conservation => "conservation",
            Check::Pairing => "pairing",
            Check::Stream => "stream",
        }
    }

    /// Human description of what the check verifies.
    pub fn describes(self) -> &'static str {
        match self {
            Check::Inv1 => "phantom precedes data",
            Check::Inv2 => "stateless pass-through priority",
            Check::C1 => "serial access order per index",
            Check::Conservation => "packet conservation",
            Check::Pairing => "phantom/data pairing",
            Check::Stream => "stream well-formedness",
        }
    }

    const ALL: [Check; 6] = [
        Check::Inv1,
        Check::Inv2,
        Check::C1,
        Check::Conservation,
        Check::Pairing,
        Check::Stream,
    ];
}

impl std::fmt::Display for Check {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One concrete violation, located in the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated check.
    pub check: Check,
    /// Cycle of the offending event (or of detection, for end-of-stream
    /// findings).
    pub cycle: u64,
    /// Pipeline of the offending event, [`crate::event::NO_LOC`] if global.
    pub pipeline: u16,
    /// Stage of the offending event, [`crate::event::NO_LOC`] if global.
    pub stage: u16,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] cycle {} p{}/s{}: {}",
            self.check, self.cycle, self.pipeline, self.stage, self.detail
        )
    }
}

/// The auditor's verdict over one event stream.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Events examined.
    pub events: u64,
    /// Distinct packets admitted.
    pub packets: u64,
    /// Violation counts per check (every violation is counted, even
    /// when its finding was suppressed by the cap).
    pub violations: BTreeMap<Check, u64>,
    /// Retained findings (at most `max_findings` per check).
    pub findings: Vec<Finding>,
    /// Findings dropped by the per-check cap.
    pub suppressed: u64,
    /// Packets that violated C1 (overtook the serial order, per the
    /// same overtaker attribution as `mp5-sim`'s online counter).
    pub c1_violators: BTreeSet<PacketId>,
    /// Packets that performed at least one stateful access.
    pub c1_accessors: u64,
}

impl AuditReport {
    /// Total violations across all checks.
    pub fn total_violations(&self) -> u64 {
        self.violations.values().sum()
    }

    /// Violations of one check.
    pub fn count(&self, check: Check) -> u64 {
        self.violations.get(&check).copied().unwrap_or(0)
    }

    /// True when every check passed.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// Fraction of accessors that violated C1 — directly comparable to
    /// `mp5-sim`'s online `c1_violation_fraction`.
    pub fn c1_fraction(&self) -> f64 {
        if self.c1_accessors == 0 {
            0.0
        } else {
            self.c1_violators.len() as f64 / self.c1_accessors as f64
        }
    }

    /// Renders the report as one compact JSON object through
    /// `serde::json::Writer`: the counts, the violations per check and
    /// the retained findings.
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        let mut w = serde::json::Writer::compact(&mut out);
        w.begin_object();
        w.field("events", &self.events);
        w.field("packets", &self.packets);
        w.field("clean", &self.is_clean());
        w.field("c1_accessors", &self.c1_accessors);
        w.field("c1_violators", &self.c1_violators.len());
        w.key("violations");
        w.begin_object();
        for c in Check::ALL {
            w.field(c.label(), &self.count(c));
        }
        w.end_object();
        w.key("findings");
        w.begin_array();
        for f in &self.findings {
            w.element();
            w.begin_object();
            w.field("check", f.check.label());
            w.field("cycle", &f.cycle);
            w.field("pipeline", &f.pipeline);
            w.field("stage", &f.stage);
            w.field("detail", &f.detail);
            w.end_object();
        }
        w.end_array();
        w.field("suppressed", &self.suppressed);
        w.end_object();
        String::from_utf8(out).expect("the writer writes UTF-8")
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "audited {} events, {} packets: {}",
            self.events,
            self.packets,
            if self.is_clean() {
                "CLEAN".to_string()
            } else {
                format!("{} violation(s)", self.total_violations())
            }
        )?;
        for c in Check::ALL {
            writeln!(
                f,
                "  {:<14} ({}): {}",
                c.label(),
                c.describes(),
                self.count(c)
            )?;
        }
        if self.c1_accessors > 0 {
            writeln!(
                f,
                "  c1 fraction: {:.4} ({} of {} accessors)",
                self.c1_fraction(),
                self.c1_violators.len(),
                self.c1_accessors
            )?;
        }
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        if self.suppressed > 0 {
            writeln!(f, "  ... {} further finding(s) suppressed", self.suppressed)?;
        }
        Ok(())
    }
}

/// Phantom lifecycle states tracked per [`PhantomKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhState {
    /// Emitted onto the channel, not yet delivered.
    Emitted,
    /// Delivered into a stage FIFO, awaiting its data packet.
    Enqueued,
    /// Replaced by its data packet.
    Matched,
    /// Dropped on a full lane, or cancelled (channel or FIFO).
    Dead,
    /// Lost to an *injected fault*, with the loss recorded so the
    /// switch can recover the data packet into FIFO order later. The
    /// legal exits are `PhantomRecovered` (data arrived, recovered)
    /// or end-of-trace (data was dropped for an unrelated reason —
    /// conservation accounts for it).
    Lost,
}

/// Configurable auditor. [`audit`] runs it with defaults.
#[derive(Debug, Clone)]
pub struct Auditor {
    /// Retained findings per check; further violations are still
    /// counted but their findings suppressed.
    pub max_findings: usize,
}

impl Default for Auditor {
    fn default() -> Self {
        Auditor { max_findings: 20 }
    }
}

impl Auditor {
    /// An auditor retaining at most `max_findings` findings per check.
    pub fn new(max_findings: usize) -> Self {
        Auditor { max_findings }
    }

    /// Replays `events` and checks every invariant.
    pub fn run(&self, events: &[Event]) -> AuditReport {
        let mut rep = AuditReport {
            events: events.len() as u64,
            ..Default::default()
        };
        // No per-event table is ordered: packets and register states are
        // found through `FastMap`s (a trace is the simulator's own output,
        // so a crafted file could at worst slow an audit down), phantoms
        // and accesses are appended to flat logs, and the slot table is a
        // short sorted `Vec`. Whatever reaches the report is sorted before
        // it is iterated, so findings never follow hash order.
        let mut pkts = Packets::default();
        let mut accesses = AccessLog::default();
        let mut cur_cycle: u64 = 0;
        let mut slots = SlotTable::default();

        let max = self.max_findings;
        let mut kept = [0usize; Check::ALL.len()];
        let mut flag =
            |rep: &mut AuditReport, check: Check, loc: (u64, u16, u16), detail: String| {
                *rep.violations.entry(check).or_insert(0) += 1;
                let kept = &mut kept[check as usize];
                if *kept < max {
                    *kept += 1;
                    rep.findings.push(Finding {
                        check,
                        cycle: loc.0,
                        pipeline: loc.1,
                        stage: loc.2,
                        detail,
                    });
                } else {
                    rep.suppressed += 1;
                }
            };
        let at = |ev: &Event| (ev.cycle, ev.pipeline, ev.stage);
        let global = |cycle: u64| (cycle, crate::event::NO_LOC, crate::event::NO_LOC);

        for ev in events {
            if ev.cycle < cur_cycle {
                flag(
                    &mut rep,
                    Check::Stream,
                    at(ev),
                    format!("cycle went backwards ({} after {})", ev.cycle, cur_cycle),
                );
            }
            if ev.cycle != cur_cycle {
                // Slot bookkeeping closes at each cycle boundary: a pop
                // that never became an execute is a lost service slot.
                for ((p, st), pkt) in slots.close() {
                    let detail = format!("pop_data(pkt{}) at p{p}/s{st} never executed", pkt.0);
                    flag(&mut rep, Check::Inv2, global(cur_cycle), detail);
                }
                cur_cycle = ev.cycle;
            }
            match &ev.kind {
                EventKind::Ingress { pkt, .. } => {
                    pkts.rec(*pkt).admitted += 1;
                }
                EventKind::Egress { pkt } | EventKind::Drop { pkt, .. } => {
                    pkts.rec(*pkt).exits += 1;
                }
                EventKind::Execute {
                    pkt,
                    queued,
                    bypassed,
                } => {
                    let slot = slots.at((ev.pipeline, ev.stage));
                    slot.execs += 1;
                    let (execs, popped) = (slot.execs, slot.popped.take());
                    if execs > 1 {
                        flag(
                            &mut rep,
                            Check::Inv2,
                            at(ev),
                            format!("{execs} packets executed in one stage-cycle"),
                        );
                    }
                    if *bypassed && *queued {
                        flag(
                            &mut rep,
                            Check::Stream,
                            at(ev),
                            "queued service flagged as a bypass".into(),
                        );
                    }
                    match (popped, queued) {
                        (Some(popped), true) if popped == *pkt => {}
                        (Some(popped), true) => flag(
                            &mut rep,
                            Check::Inv2,
                            at(ev),
                            format!(
                                "queued execute of pkt{} but pop_data dequeued pkt{}",
                                pkt.0, popped.0
                            ),
                        ),
                        (None, true) => flag(
                            &mut rep,
                            Check::Inv2,
                            at(ev),
                            format!("queued execute of pkt{} without a pop_data", pkt.0),
                        ),
                        (Some(popped), false) => flag(
                            &mut rep,
                            Check::Inv2,
                            at(ev),
                            format!(
                                "pass-through pkt{} executed over dequeued pkt{}",
                                pkt.0, popped.0
                            ),
                        ),
                        (None, false) => {}
                    }
                }
                EventKind::Access {
                    pkt,
                    reg,
                    index,
                    order,
                } => {
                    accesses.push(reg.0, *index, (*pkt, *order));
                    pkts.rec(*pkt).accessed = true;
                }
                EventKind::PhantomEmit { key, .. } => {
                    if pkts.set_phantom(*key, PhState::Emitted).is_some() {
                        flag(
                            &mut rep,
                            Check::Pairing,
                            at(ev),
                            format!("duplicate phantom emission for {key}"),
                        );
                    }
                }
                EventKind::PhantomEnq { key } => match pkts.set_phantom(*key, PhState::Enqueued) {
                    Some(PhState::Emitted) => {}
                    other => flag(
                        &mut rep,
                        Check::Pairing,
                        at(ev),
                        format!("phantom {key} enqueued from state {other:?}"),
                    ),
                },
                EventKind::PhantomDropFull { key } => match pkts.set_phantom(*key, PhState::Dead) {
                    Some(PhState::Emitted) => {}
                    other => flag(
                        &mut rep,
                        Check::Pairing,
                        at(ev),
                        format!("phantom {key} dropped-full from state {other:?}"),
                    ),
                },
                EventKind::PhantomChannelCancel { key } => {
                    match pkts.set_phantom(*key, PhState::Dead) {
                        Some(PhState::Emitted) => {}
                        other => flag(
                            &mut rep,
                            Check::Pairing,
                            at(ev),
                            format!("channel cancel of {key} from state {other:?}"),
                        ),
                    }
                }
                EventKind::PhantomCancel { key, .. } => {
                    match pkts.set_phantom(*key, PhState::Dead) {
                        Some(PhState::Enqueued) => {}
                        other => flag(
                            &mut rep,
                            Check::Pairing,
                            at(ev),
                            format!("FIFO cancel of {key} from state {other:?}"),
                        ),
                    }
                }
                EventKind::DataMatch { key } => match pkts.set_phantom(*key, PhState::Matched) {
                    Some(PhState::Enqueued) => {}
                    Some(PhState::Emitted) => flag(
                        &mut rep,
                        Check::Inv1,
                        at(ev),
                        format!("data for {key} reached the FIFO before its phantom"),
                    ),
                    other => flag(
                        &mut rep,
                        Check::Inv1,
                        at(ev),
                        format!("data matched {key} from state {other:?}"),
                    ),
                },
                EventKind::DataOrphan { key } => match pkts.phantom(key) {
                    Some(PhState::Dead) => {}
                    Some(PhState::Emitted) => flag(
                        &mut rep,
                        Check::Inv1,
                        at(ev),
                        format!("data for {key} overtook its phantom still on the channel"),
                    ),
                    other => flag(
                        &mut rep,
                        Check::Pairing,
                        at(ev),
                        format!("orphaned data for {key} in state {other:?}"),
                    ),
                },
                EventKind::PopData { pkt } => {
                    let slot = slots.at((ev.pipeline, ev.stage));
                    if let Some(prev) = slot.popped.replace(*pkt) {
                        flag(
                            &mut rep,
                            Check::Inv2,
                            at(ev),
                            format!("two pops (pkt{}, pkt{}) in one stage-cycle", prev.0, pkt.0),
                        );
                    }
                }
                EventKind::FaultPhantomLost { key } => match pkts.set_phantom(*key, PhState::Lost) {
                    Some(PhState::Emitted) => {}
                    other => flag(
                        &mut rep,
                        Check::Pairing,
                        at(ev),
                        format!("fault lost phantom {key} from state {other:?}"),
                    ),
                },
                EventKind::PhantomRecovered { key } => {
                    match pkts.set_phantom(*key, PhState::Matched) {
                        Some(PhState::Lost) => {}
                        other => flag(
                            &mut rep,
                            Check::Inv1,
                            at(ev),
                            format!("recovery of {key} from state {other:?} (only fault-lost phantoms may be recovered)"),
                        ),
                    }
                }
                EventKind::RemapMove { .. }
                | EventKind::Recirculate { .. }
                | EventKind::DataEnq { .. }
                | EventKind::DataEnqDropFull { .. }
                | EventKind::PopStale
                | EventKind::PopBlocked { .. }
                | EventKind::Steer { .. }
                | EventKind::FaultInjected { .. }
                | EventKind::PipelineEvacuated { .. }
                // Lifecycle markers (checkpoint / restore / hot-swap)
                // describe operator actions, not packet behavior; a
                // well-formed stream is invariant-clean with or without
                // them: the model harness audits each stitched,
                // restored stream whose uninterrupted twin is clean.
                | EventKind::SnapshotTaken { .. }
                | EventKind::Restored { .. }
                | EventKind::ProgramSwapped { .. } => {}
            }
        }
        for ((p, st), pkt) in slots.close() {
            let detail = format!("pop_data(pkt{}) at p{p}/s{st} never executed", pkt.0);
            flag(&mut rep, Check::Inv2, global(cur_cycle), detail);
        }

        // End-of-stream: every phantom must be resolved.
        let mut unresolved: Vec<(PhantomKey, PhState)> = pkts
            .phantoms()
            .filter(|(_, st)| matches!(st, PhState::Emitted | PhState::Enqueued))
            .collect();
        unresolved.sort_by_key(|(k, _)| *k);
        for (key, st) in unresolved {
            flag(
                &mut rep,
                Check::Pairing,
                global(cur_cycle),
                format!("phantom {key} left in state {st:?} at end of trace"),
            );
        }

        // Packet conservation.
        let recs = pkts.recs.values();
        rep.packets = recs.clone().filter(|r| r.admitted > 0).count() as u64;
        rep.c1_accessors = recs.filter(|r| r.accessed).count() as u64;
        // Only a packet that moved but did not enter and leave once is
        // reported, so only those are sorted.
        let mut unconserved: Vec<(PacketId, (u32, u32))> = pkts
            .recs
            .iter()
            .map(|(&p, r)| (p, (r.admitted, r.exits)))
            .filter(|&(_, counts)| counts != (1, 1) && counts != (0, 0))
            .collect();
        unconserved.sort_unstable_by_key(|&(p, _)| p);
        for (pkt, (ingress, exits)) in unconserved {
            if ingress == 0 {
                flag(
                    &mut rep,
                    Check::Conservation,
                    global(cur_cycle),
                    format!("pkt{} exited without ever being admitted", pkt.0),
                );
            } else if ingress > 1 {
                flag(
                    &mut rep,
                    Check::Conservation,
                    global(cur_cycle),
                    format!("pkt{} admitted {ingress} times", pkt.0),
                );
            }
            if ingress > 0 && exits == 0 {
                flag(
                    &mut rep,
                    Check::Conservation,
                    global(cur_cycle),
                    format!("pkt{} neither egressed nor dropped", pkt.0),
                );
            } else if exits > 1 {
                flag(
                    &mut rep,
                    Check::Conservation,
                    global(cur_cycle),
                    format!("pkt{} left the switch {exits} times", pkt.0),
                );
            }
        }

        // Condition C1: per index, the actual sequence must follow the
        // entry order. Reference ranks come from the order keys the
        // events carry; the violator attribution (right-to-left minimum
        // scan marking overtakers) mirrors `mp5-sim`'s online counter so
        // the two independently-computed counts are comparable.
        let (states, grouped) = accesses.by_state();
        let mut ranks = Ranks::default();
        let mut seq: Vec<Access> = Vec::new();
        let mut violators_here: Vec<PacketId> = Vec::new();
        for ((reg, index), range) in states {
            seq.clear();
            seq.extend(grouped[range].iter().map(|&at| accesses.log[at as usize].1));
            let rank = ranks.of(&seq);
            let mut min_rank_right = (u64::MAX, u64::MAX, u32::MAX);
            violators_here.clear();
            for (&(p, _), &r) in seq.iter().zip(rank).rev() {
                if r > min_rank_right {
                    violators_here.push(p);
                }
                min_rank_right = min_rank_right.min(r);
            }
            if !violators_here.is_empty() {
                violators_here.reverse();
                let detail = format!(
                    "r{reg}[{index}]: {} of {} accesses overtook the entry order (e.g. pkt{})",
                    violators_here.len(),
                    seq.len(),
                    violators_here[0].0
                );
                flag(&mut rep, Check::C1, global(cur_cycle), detail);
                rep.c1_violators.extend(violators_here.iter().copied());
            }
        }
        // Count violating *packets* (union across indexes), like the
        // online metric, rather than per-index incidents.
        let c1_pkts = rep.c1_violators.len() as u64;
        if c1_pkts > 0 {
            rep.violations.insert(Check::C1, c1_pkts);
        }
        rep
    }
}

/// What the auditor learns of each packet.
#[derive(Debug)]
struct PacketRec {
    admitted: u32,
    exits: u32,
    /// Performed at least one stateful access.
    accessed: bool,
    /// The packet's newest phantom in [`Packets::chain`].
    phantoms: u32,
}

impl Default for PacketRec {
    fn default() -> Self {
        PacketRec {
            admitted: 0,
            exits: 0,
            accessed: false,
            phantoms: NO_LINK,
        }
    }
}

/// One record per packet, and every phantom's lifecycle state: each
/// packet's phantoms form a chain through `chain`, newest first. A
/// packet emits its few phantoms together, so one table of packets
/// serves every per-packet check, and the phantoms sit in emission
/// order.
#[derive(Debug, Default)]
struct Packets {
    recs: FastMap<PacketId, PacketRec>,
    chain: Vec<PhLink>,
}

/// One phantom of a packet: its state's `(reg, index)` and its own
/// lifecycle state.
#[derive(Debug)]
struct PhLink {
    reg: u16,
    index: u32,
    state: PhState,
    /// The packet's previous phantom, `NO_LINK` after its first.
    next: u32,
}

const NO_LINK: u32 = u32::MAX;

impl Packets {
    fn rec(&mut self, pkt: PacketId) -> &mut PacketRec {
        self.recs.entry(pkt).or_default()
    }

    /// Sets phantom `key`'s state, returning the state it had.
    fn set_phantom(&mut self, key: PhantomKey, state: PhState) -> Option<PhState> {
        let head = &mut self.recs.entry(key.pkt).or_default().phantoms;
        if let Some(at) = find(&self.chain, *head, &key) {
            return Some(std::mem::replace(&mut self.chain[at].state, state));
        }
        let link = u32::try_from(self.chain.len()).expect("fewer than 4 G phantoms");
        let next = std::mem::replace(head, link);
        let (reg, index) = (key.reg.0, key.index);
        self.chain.push(PhLink {
            reg,
            index,
            state,
            next,
        });
        None
    }

    fn phantom(&self, key: &PhantomKey) -> Option<PhState> {
        let at = find(&self.chain, self.recs.get(&key.pkt)?.phantoms, key)?;
        Some(self.chain[at].state)
    }

    /// Every phantom with its state, in no order.
    fn phantoms(&self) -> impl Iterator<Item = (PhantomKey, PhState)> + '_ {
        let chain = &self.chain;
        self.recs.iter().flat_map(move |(&pkt, rec)| {
            let mut at = rec.phantoms;
            std::iter::from_fn(move || {
                if at == NO_LINK {
                    return None;
                }
                let link = &chain[at as usize];
                at = link.next;
                let (reg, index) = (RegId(link.reg), link.index);
                Some((PhantomKey { pkt, reg, index }, link.state))
            })
        })
    }
}

/// Where `key` sits in the chain of its packet's phantoms that starts at
/// `at`.
fn find(chain: &[PhLink], mut at: u32, key: &PhantomKey) -> Option<usize> {
    while at != NO_LINK {
        let link = &chain[at as usize];
        if (link.reg, link.index) == (key.reg.0, key.index) {
            return Some(at as usize);
        }
        at = link.next;
    }
    None
}

/// A register state, `(reg, index)`, and where its accesses sit.
type StateRange = ((u64, u64), Range<usize>);

/// Every stateful access of a stream, in stream order, each tagged
/// with its register state's id; grouped by state once, at the end.
#[derive(Debug, Default)]
struct AccessLog {
    /// Each `(reg, index)` state's id, packed into one word so that it
    /// hashes as one, in the order of first access.
    ids: FastMap<u64, u32>,
    log: Vec<(u32, Access)>,
}

impl AccessLog {
    fn push(&mut self, reg: u16, index: u32, access: Access) {
        let fresh = u32::try_from(self.ids.len()).expect("fewer than 4 G states");
        let id = *self
            .ids
            .entry(u64::from(reg) << 32 | u64::from(index))
            .or_insert(fresh);
        self.log.push((id, access));
    }

    /// The log's positions grouped by state, each state's in stream
    /// order (a counting sort by id), and the states in `(reg, index)`
    /// order with the range of theirs.
    fn by_state(&self) -> (Vec<StateRange>, Vec<u32>) {
        let mut start = vec![0; self.ids.len() + 1];
        for &(id, _) in &self.log {
            start[id as usize + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut next = start.clone();
        let mut grouped = vec![0; self.log.len()];
        for (&(id, _), at) in self.log.iter().zip(0..) {
            grouped[next[id as usize]] = at;
            next[id as usize] += 1;
        }
        let mut states: Vec<(u64, u32)> = self.ids.iter().map(|(&k, &id)| (k, id)).collect();
        states.sort_unstable();
        let states = states
            .into_iter()
            .map(|(key, id)| {
                let id = id as usize;
                (
                    (key >> 32, key & u64::from(u32::MAX)),
                    start[id]..start[id + 1],
                )
            })
            .collect();
        (states, grouped)
    }
}

/// What one `(pipeline, stage)` slot did in the current cycle.
#[derive(Debug, Clone, Copy)]
struct Slot {
    loc: (u16, u16),
    /// Packets executed.
    execs: u32,
    /// The packet a `pop_data` dequeued that no execute has served yet.
    popped: Option<PacketId>,
}

/// The current cycle's slots, sorted by `(pipeline, stage)`. A switch
/// writes a cycle's events slot by slot in that order, so an event
/// lands on the last slot or past it; any other stream costs a binary
/// search.
#[derive(Debug, Default)]
struct SlotTable(Vec<Slot>);

impl SlotTable {
    fn at(&mut self, loc: (u16, u16)) -> &mut Slot {
        let found = match self.0.last() {
            Some(last) if last.loc == loc => Ok(self.0.len() - 1),
            Some(last) if last.loc > loc => self.0.binary_search_by_key(&loc, |s| s.loc),
            _ => Err(self.0.len()),
        };
        let i = found.unwrap_or_else(|i| {
            let slot = Slot {
                loc,
                execs: 0,
                popped: None,
            };
            self.0.insert(i, slot);
            i
        });
        &mut self.0[i]
    }

    /// Ends the cycle: empties the table and yields every pop that no
    /// execute served, in `(pipeline, stage)` order.
    fn close(&mut self) -> impl Iterator<Item = ((u16, u16), PacketId)> + '_ {
        self.0.drain(..).filter_map(|s| Some((s.loc, s.popped?)))
    }
}

/// An access's place in the entry order, as a key that compares as
/// that place does: its order key, ties kept in stream order.
type Rank = (u64, u64, u32);

/// Scratch for ranking one state's accesses, reused from state to
/// state.
#[derive(Debug, Default)]
struct Ranks {
    rank: Vec<Rank>,
    by_pkt: Vec<(PacketId, u32)>,
}

impl Ranks {
    /// The [`Rank`] of each access of `seq`. A packet that appears
    /// more than once takes, at every appearance, the rank of its last
    /// appearance in the entry order.
    fn of(&mut self, seq: &[Access]) -> &[Rank] {
        self.rank.clear();
        self.rank
            .extend(seq.iter().zip(0..).map(|(&(_, o), i)| (o.0, o.1, i)));
        self.by_pkt.clear();
        self.by_pkt
            .extend(seq.iter().zip(0..).map(|(&(p, _), i)| (p, i)));
        self.by_pkt.sort_unstable();
        for run in self.by_pkt.chunk_by(|a, b| a.0 == b.0) {
            if run.len() > 1 {
                let ranks = run.iter().map(|&(_, i)| self.rank[i as usize]);
                let last = ranks.fold((0, 0, 0), Rank::max);
                for &(_, i) in run {
                    self.rank[i as usize] = last;
                }
            }
        }
        &self.rank
    }
}

/// Audits an event stream with the default configuration.
pub fn audit(events: &[Event]) -> AuditReport {
    Auditor::default().run(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropCause, NO_LOC};
    use mp5_types::RegId;

    fn ev(cycle: u64, pipeline: u16, stage: u16, kind: EventKind) -> Event {
        Event {
            cycle,
            pipeline,
            stage,
            kind,
        }
    }

    fn key(p: u64) -> PhantomKey {
        PhantomKey {
            pkt: PacketId(p),
            reg: RegId(0),
            index: 4,
        }
    }

    /// A minimal clean life of one packet through one stateful stage.
    fn clean_run() -> Vec<Event> {
        let mut evs = Vec::new();
        for p in 0..3u64 {
            let c = p * 4;
            evs.push(ev(
                c,
                0,
                0,
                EventKind::Ingress {
                    pkt: PacketId(p),
                    order: (p * 64, 0),
                },
            ));
            evs.push(ev(
                c,
                0,
                0,
                EventKind::Execute {
                    pkt: PacketId(p),
                    queued: false,
                    bypassed: false,
                },
            ));
            evs.push(ev(
                c,
                0,
                0,
                EventKind::PhantomEmit {
                    key: key(p),
                    dest_pipeline: 0,
                    dest_stage: 2,
                },
            ));
            evs.push(ev(c + 1, 0, 2, EventKind::PhantomEnq { key: key(p) }));
            evs.push(ev(c + 2, 0, 2, EventKind::DataMatch { key: key(p) }));
            evs.push(ev(c + 3, 0, 2, EventKind::PopData { pkt: PacketId(p) }));
            evs.push(ev(
                c + 3,
                0,
                2,
                EventKind::Execute {
                    pkt: PacketId(p),
                    queued: true,
                    bypassed: false,
                },
            ));
            evs.push(ev(
                c + 3,
                0,
                2,
                EventKind::Access {
                    pkt: PacketId(p),
                    reg: RegId(0),
                    index: 4,
                    order: (p * 64, 0),
                },
            ));
            evs.push(ev(c + 3, 0, 3, EventKind::Egress { pkt: PacketId(p) }));
        }
        evs
    }

    #[test]
    fn clean_stream_audits_clean() {
        let rep = audit(&clean_run());
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(rep.packets, 3);
        assert_eq!(rep.c1_accessors, 3);
        assert!(rep.c1_violators.is_empty());
    }

    #[test]
    fn c1_overtaker_is_blamed() {
        // Packets 0, 1, 2 entered in that order, but the state sees the
        // access sequence 0, 2, 1: packet 2 overtook packet 1.
        let mut evs = Vec::new();
        for p in 0..3u64 {
            evs.push(ev(
                p,
                0,
                0,
                EventKind::Ingress {
                    pkt: PacketId(p),
                    order: (p * 64, 0),
                },
            ));
        }
        for (i, p) in [0u64, 2, 1].into_iter().enumerate() {
            evs.push(ev(
                10 + i as u64,
                0,
                2,
                EventKind::Access {
                    pkt: PacketId(p),
                    reg: RegId(0),
                    index: 4,
                    order: (p * 64, 0),
                },
            ));
        }
        for p in 0..3u64 {
            evs.push(ev(20 + p, 0, 3, EventKind::Egress { pkt: PacketId(p) }));
        }
        let rep = audit(&evs);
        assert_eq!(rep.count(Check::C1), 1, "{rep}");
        assert!(rep.c1_violators.contains(&PacketId(2)));
        assert!((rep.c1_fraction() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn data_before_phantom_violates_inv1() {
        let evs = vec![
            ev(
                0,
                0,
                0,
                EventKind::Ingress {
                    pkt: PacketId(0),
                    order: (0, 0),
                },
            ),
            ev(
                0,
                0,
                0,
                EventKind::PhantomEmit {
                    key: key(0),
                    dest_pipeline: 0,
                    dest_stage: 2,
                },
            ),
            // Data matched while the phantom is still on the channel.
            ev(1, 0, 2, EventKind::DataMatch { key: key(0) }),
            ev(2, 0, 3, EventKind::Egress { pkt: PacketId(0) }),
        ];
        let rep = audit(&evs);
        assert_eq!(rep.count(Check::Inv1), 1, "{rep}");
    }

    #[test]
    fn double_execute_violates_inv2() {
        let mut evs = clean_run();
        evs.push(ev(
            100,
            1,
            5,
            EventKind::Execute {
                pkt: PacketId(0),
                queued: false,
                bypassed: false,
            },
        ));
        evs.push(ev(
            100,
            1,
            5,
            EventKind::Execute {
                pkt: PacketId(1),
                queued: false,
                bypassed: false,
            },
        ));
        // Keep conservation clean: the extra executes reference already
        // conserved packets.
        let rep = audit(&evs);
        assert_eq!(rep.count(Check::Inv2), 1, "{rep}");
    }

    #[test]
    fn lost_packet_violates_conservation() {
        let evs = vec![ev(
            0,
            0,
            0,
            EventKind::Ingress {
                pkt: PacketId(9),
                order: (0, 0),
            },
        )];
        let rep = audit(&evs);
        assert_eq!(rep.count(Check::Conservation), 1);
        let rep2 = audit(&[ev(0, 0, 3, EventKind::Egress { pkt: PacketId(9) })]);
        assert_eq!(rep2.count(Check::Conservation), 1);
    }

    #[test]
    fn dropped_packet_is_conserved() {
        let evs = vec![
            ev(
                0,
                0,
                0,
                EventKind::Ingress {
                    pkt: PacketId(1),
                    order: (0, 0),
                },
            ),
            ev(
                1,
                0,
                2,
                EventKind::Drop {
                    pkt: PacketId(1),
                    cause: DropCause::FifoFull,
                },
            ),
        ];
        assert!(audit(&evs).is_clean());
    }

    #[test]
    fn unresolved_phantom_violates_pairing() {
        let evs = vec![ev(
            0,
            0,
            1,
            EventKind::PhantomEmit {
                key: key(3),
                dest_pipeline: 0,
                dest_stage: 2,
            },
        )];
        let rep = audit(&evs);
        assert_eq!(rep.count(Check::Pairing), 1);
    }

    #[test]
    fn phantom_drop_and_orphan_cascade_is_clean() {
        let evs = vec![
            ev(
                0,
                0,
                0,
                EventKind::Ingress {
                    pkt: PacketId(0),
                    order: (0, 0),
                },
            ),
            ev(
                0,
                0,
                1,
                EventKind::PhantomEmit {
                    key: key(0),
                    dest_pipeline: 0,
                    dest_stage: 2,
                },
            ),
            ev(1, 0, 2, EventKind::PhantomDropFull { key: key(0) }),
            ev(2, 0, 2, EventKind::DataOrphan { key: key(0) }),
            ev(
                2,
                0,
                2,
                EventKind::Drop {
                    pkt: PacketId(0),
                    cause: DropCause::NoPhantom,
                },
            ),
        ];
        let rep = audit(&evs);
        assert!(rep.is_clean(), "{rep}");
    }

    #[test]
    fn unexecuted_pops_are_reported_in_slot_order_every_time() {
        // Four pops at one cycle that no execute follows; the next
        // cycle's first event closes their slots.
        let slots = [(3u16, 1u16), (0, 2), (2, 0), (0, 1)];
        let mut evs: Vec<Event> = slots
            .iter()
            .zip(0u64..)
            .map(|(&(p, st), pkt)| ev(7, p, st, EventKind::PopData { pkt: PacketId(pkt) }))
            .collect();
        evs.push(ev(8, 0, 0, EventKind::PopStale));
        let first = audit(&evs).findings;
        let details: Vec<&str> = first.iter().map(|f| f.detail.as_str()).collect();
        assert_eq!(
            details,
            [
                "pop_data(pkt3) at p0/s1 never executed",
                "pop_data(pkt1) at p0/s2 never executed",
                "pop_data(pkt2) at p2/s0 never executed",
                "pop_data(pkt0) at p3/s1 never executed",
            ]
        );
        assert!(first.iter().all(|f| f.check == Check::Inv2 && f.cycle == 7));
        for _ in 0..15 {
            assert_eq!(audit(&evs).findings, first);
        }
    }

    /// The C1 blame, against the rank map it replaced (a stable sort by
    /// order key, each packet ranked at its last place), on sequences
    /// where packets repeat, under one order key or several.
    #[test]
    fn c1_blame_matches_a_rank_map_when_packets_repeat() {
        fn rank_map_blame(seq: &[(PacketId, (u64, u64))]) -> Vec<PacketId> {
            let mut reference: Vec<(u64, u64, PacketId)> =
                seq.iter().map(|(p, o)| (o.0, o.1, *p)).collect();
            reference.sort_by_key(|&(o1, o2, _)| (o1, o2));
            let rank: FastMap<PacketId, usize> = reference
                .iter()
                .enumerate()
                .map(|(i, &(_, _, p))| (p, i))
                .collect();
            let mut min_rank_right = usize::MAX;
            let mut blamed = Vec::new();
            for (p, _) in seq.iter().rev() {
                if rank[p] > min_rank_right {
                    blamed.push(*p);
                }
                min_rank_right = min_rank_right.min(rank[p]);
            }
            blamed.reverse();
            blamed
        }
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        for case in 0..400 {
            let len = 1 + next(12) as usize;
            let seq: Vec<(PacketId, (u64, u64))> = (0..len)
                .map(|_| {
                    let p = next(6);
                    let order = if case % 2 == 0 { p } else { next(8) };
                    (PacketId(p), (order / 2, order % 2))
                })
                .collect();
            let evs: Vec<Event> = seq
                .iter()
                .zip(0..)
                .map(|(&(pkt, order), c)| {
                    let kind = EventKind::Access {
                        pkt,
                        reg: RegId(1),
                        index: 3,
                        order,
                    };
                    ev(c, 0, 2, kind)
                })
                .collect();
            let rep = audit(&evs);
            let blamed = rank_map_blame(&seq);
            let want: BTreeSet<PacketId> = blamed.iter().copied().collect();
            assert_eq!(rep.c1_violators, want, "case {case}: {seq:?}");
            let detail = rep.findings.iter().find(|f| f.check == Check::C1);
            let want = blamed.first().map(|p| {
                format!(
                    "r1[3]: {} of {len} accesses overtook the entry order (e.g. pkt{})",
                    blamed.len(),
                    p.0
                )
            });
            assert_eq!(
                detail.map(|f| f.detail.clone()),
                want,
                "case {case}: {seq:?}"
            );
        }
    }

    #[test]
    fn findings_are_capped_but_counts_are_not() {
        let mut evs = Vec::new();
        for p in 0..50u64 {
            evs.push(ev(p, 0, 3, EventKind::Egress { pkt: PacketId(p) }));
        }
        let rep = Auditor::new(5).run(&evs);
        assert_eq!(rep.count(Check::Conservation), 50);
        assert_eq!(
            rep.findings
                .iter()
                .filter(|f| f.check == Check::Conservation)
                .count(),
            5
        );
        assert_eq!(rep.suppressed, 45);
    }

    #[test]
    fn report_json_is_parseable_shape() {
        let rep = audit(&clean_run());
        let js = rep.to_json();
        assert!(js.starts_with('{') && js.ends_with('}'));
        assert!(js.contains("\"clean\":true"));
        let _ = NO_LOC;
    }

    /// The layout ci.sh reads (`{"events":N,` first), and a finding's
    /// detail escaped as JSON, control characters included.
    #[test]
    fn report_json_keeps_its_layout_and_escapes_details() {
        let mut rep = audit(&clean_run());
        rep.findings.push(Finding {
            check: Check::Stream,
            cycle: 2,
            pipeline: NO_LOC,
            stage: 0,
            detail: "a \"quoted\" \\ line\nbreak\u{1}".into(),
        });
        let js = rep.to_json();
        assert!(js.starts_with(&format!("{{\"events\":{},\"packets\":", rep.events)));
        let detail = r#""detail":"a \"quoted\" \\ line\nbreak\u0001"}],"suppressed":0}"#;
        assert!(js.ends_with(detail), "{js}");
    }
}
