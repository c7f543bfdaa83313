//! Per-stage / per-register metrics rollups over a recorded stream.
//!
//! Where the auditor ([`mod@crate::audit`]) asks *"was the run correct?"*,
//! the rollup asks *"where did the cycles and queue slots go?"*: it
//! folds an event stream into per-`(pipeline, stage)` service counters
//! and occupancy histograms, per-register access/wait statistics, and
//! a crossbar steering matrix. `mp5-sim` renders these as aligned
//! tables, and `mp5run --rollup` writes them as CSV.

use std::collections::BTreeMap;

use mp5_types::{FastMap, FastSet, PhantomKey};

use crate::event::{Event, EventKind, NO_LOC};

/// A log₂-bucketed histogram of queue occupancies.
///
/// Bucket `i` counts samples in `[2^(i-1), 2^i - 1]` (bucket 0 counts
/// zeros, bucket 1 counts ones) — compact at any depth, detailed where
/// it matters (shallow queues).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    /// Largest sampled value.
    pub max: u64,
    /// Number of samples.
    pub samples: u64,
    /// Sum of samples (for the mean).
    pub sum: u64,
}

impl Histogram {
    fn bucket(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (64 - v.leading_zeros()) as usize
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let b = Self::bucket(v);
        if self.counts.len() <= b {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.max = self.max.max(v);
        self.samples += 1;
        self.sum += v;
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }

    /// `(upper bound, count)` per non-empty bucket.
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let hi = if i == 0 { 0 } else { (1u64 << i) - 1 };
                (hi, c)
            })
            .collect()
    }

    /// Compact `ub:count` rendering, e.g. `0:12 1:5 4:2`.
    pub fn render(&self) -> String {
        self.buckets()
            .iter()
            .map(|(hi, c)| format!("{hi}:{c}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Service and queue counters for one `(pipeline, stage)`.
#[derive(Debug, Clone, Default)]
pub struct StageRollup {
    /// Incoming pass-through executions (`exec` with `queued:false`).
    pub pass_through: u64,
    /// Pass-throughs taken while stateful work was queued (Invariant 2
    /// in action).
    pub bypasses: u64,
    /// Packets served from the stage FIFO.
    pub queued_served: u64,
    /// Stateful register accesses performed here.
    pub accesses: u64,
    /// Phantoms delivered into this stage's FIFO.
    pub phantom_enq: u64,
    /// Data packets that replaced their phantom here.
    pub data_match: u64,
    /// Direct data pushes (no-phantom modes).
    pub data_enq: u64,
    /// Pop cycles wasted reclaiming speculative-false phantoms.
    pub stale_cycles: u64,
    /// Pop cycles stalled behind a phantom (D4 order freeze).
    pub blocked_cycles: u64,
    /// Packets dropped at this stage (all causes).
    pub drops: u64,
    /// Packets steered *out of* this pipeline by the crossbar in front
    /// of this stage.
    pub steered_out: u64,
    /// Queue occupancy sampled after every queue-affecting event.
    pub occupancy: Histogram,
    occ: i64,
}

/// Access and phantom-wait statistics for one register array.
#[derive(Debug, Clone, Default)]
pub struct RegRollup {
    /// Total accesses.
    pub accesses: u64,
    /// Distinct indexes touched.
    pub hot_indexes: u64,
    /// Dynamic-sharding migrations of this array's indexes.
    pub remap_moves: u64,
    /// Completed phantom waits (enqueue → data match), in cycles.
    pub phantom_waits: Histogram,
    /// Data packets orphaned (phantom lost) on this array.
    pub orphans: u64,
}

/// A register's counters while a stream is folded, with the indexes
/// its accesses touched.
#[derive(Debug, Default)]
struct RegFold {
    rollup: RegRollup,
    touched: FastSet<u32>,
}

/// The stage rows of a fold in first-seen order, found through a
/// location index. Consecutive events often share a location, so the
/// last one looked up is kept. An event at no stage (`NO_LOC` as its
/// pipeline or stage: remap moves, lifecycle markers, an evacuated
/// pipeline) counts into a spare row that is never reported.
#[derive(Debug, Default)]
struct StageTable {
    index: FastMap<u32, usize>,
    rows: Vec<((u16, u16), StageRollup)>,
    last: Option<(u32, usize)>,
    spare: StageRollup,
}

impl StageTable {
    fn row(&mut self, pipeline: u16, stage: u16) -> &mut StageRollup {
        if pipeline == NO_LOC || stage == NO_LOC {
            return &mut self.spare;
        }
        // Packed, the location hashes as one word.
        let loc = u32::from(pipeline) << 16 | u32::from(stage);
        let i = match self.last {
            Some((last, i)) if last == loc => i,
            _ => {
                let fresh = self.rows.len();
                let i = *self.index.entry(loc).or_insert(fresh);
                if i == fresh {
                    self.rows.push(((pipeline, stage), StageRollup::default()));
                }
                self.last = Some((loc, i));
                i
            }
        };
        &mut self.rows[i].1
    }
}

/// The folded view of one event stream.
#[derive(Debug, Clone, Default)]
pub struct Rollup {
    /// Per-(pipeline, stage) counters, sorted. Events at no stage
    /// ([`NO_LOC`]) count in `regs` and `steers` only.
    pub stages: BTreeMap<(u16, u16), StageRollup>,
    /// Per-register counters, sorted by register id.
    pub regs: BTreeMap<u16, RegRollup>,
    /// Crossbar traffic: packets per (from, to) pipeline pair,
    /// off-diagonal only.
    pub steers: BTreeMap<(u16, u16), u64>,
    /// Events folded.
    pub events: u64,
    /// Last cycle observed.
    pub cycles: u64,
}

impl Rollup {
    /// Folds a stream into a rollup.
    pub fn from_events(events: &[Event]) -> Self {
        // The fold keeps no ordered map: stages sit in a dense table,
        // registers and steers in `FastMap`s, and each becomes its sorted
        // public map once, at the end.
        let mut stages = StageTable::default();
        let mut regs: FastMap<u16, RegFold> = FastMap::default();
        let mut steers: FastMap<(u16, u16), u64> = FastMap::default();
        let mut enq_cycle: FastMap<PhantomKey, u64> = FastMap::default();
        let mut cycles = 0;
        for ev in events {
            cycles = cycles.max(ev.cycle);
            let stage = stages.row(ev.pipeline, ev.stage);
            let mut occ_delta: Option<i64> = None;
            match &ev.kind {
                EventKind::Execute {
                    queued, bypassed, ..
                } => {
                    if *queued {
                        stage.queued_served += 1;
                    } else {
                        stage.pass_through += 1;
                        if *bypassed {
                            stage.bypasses += 1;
                        }
                    }
                }
                EventKind::Access { reg, index, .. } => {
                    stage.accesses += 1;
                    let rf = regs.entry(reg.0).or_default();
                    rf.rollup.accesses += 1;
                    rf.touched.insert(*index);
                }
                EventKind::PhantomEnq { key } => {
                    stage.phantom_enq += 1;
                    enq_cycle.insert(*key, ev.cycle);
                    occ_delta = Some(1);
                }
                EventKind::DataMatch { key } => {
                    stage.data_match += 1;
                    if let Some(start) = enq_cycle.remove(key) {
                        regs.entry(key.reg.0)
                            .or_default()
                            .rollup
                            .phantom_waits
                            .record(ev.cycle.saturating_sub(start));
                    }
                    occ_delta = Some(0);
                }
                EventKind::DataOrphan { key } => {
                    regs.entry(key.reg.0).or_default().rollup.orphans += 1;
                }
                EventKind::DataEnq { .. } => {
                    stage.data_enq += 1;
                    occ_delta = Some(1);
                }
                EventKind::PopData { .. } => occ_delta = Some(-1),
                EventKind::PopStale => {
                    stage.stale_cycles += 1;
                    occ_delta = Some(-1);
                }
                EventKind::PopBlocked { .. } => stage.blocked_cycles += 1,
                EventKind::PhantomCancel { key, free } => {
                    enq_cycle.remove(key);
                    // Free cancels vanish without service; costly ones
                    // leave a stale entry reclaimed by a later pop.
                    if *free {
                        occ_delta = Some(-1);
                    }
                }
                EventKind::Drop { .. } => stage.drops += 1,
                EventKind::Steer { from, to } => {
                    if from != to {
                        *steers.entry((*from, *to)).or_default() += 1;
                        stage.steered_out += 1;
                    }
                }
                EventKind::RemapMove { reg, .. } => {
                    regs.entry(reg.0).or_default().rollup.remap_moves += 1;
                }
                EventKind::PhantomRecovered { .. } => {
                    // A fault-recovered data packet enters the stage
                    // FIFO directly (its phantom was lost upstream).
                    occ_delta = Some(1);
                }
                EventKind::Ingress { .. }
                | EventKind::Egress { .. }
                | EventKind::Recirculate { .. }
                | EventKind::PhantomEmit { .. }
                | EventKind::PhantomChannelCancel { .. }
                | EventKind::PhantomDropFull { .. }
                | EventKind::DataEnqDropFull { .. }
                | EventKind::FaultInjected { .. }
                | EventKind::FaultPhantomLost { .. }
                | EventKind::PipelineEvacuated { .. }
                | EventKind::SnapshotTaken { .. }
                | EventKind::Restored { .. }
                | EventKind::ProgramSwapped { .. } => {}
            }
            if let Some(d) = occ_delta {
                stage.occ = (stage.occ + d).max(0);
                stage.occupancy.record(stage.occ as u64);
            }
        }
        let regs = regs.into_iter().map(|(reg, rf)| {
            let hot_indexes = rf.touched.len() as u64;
            (
                reg,
                RegRollup {
                    hot_indexes,
                    ..rf.rollup
                },
            )
        });
        Rollup {
            stages: stages.rows.into_iter().collect(),
            regs: regs.collect(),
            steers: steers.into_iter().collect(),
            events: events.len() as u64,
            cycles,
        }
    }

    /// Column headers of [`Rollup::stage_rows`].
    pub const STAGE_HEADERS: [&'static str; 12] = [
        "pipeline",
        "stage",
        "pass_through",
        "bypasses",
        "queued_served",
        "accesses",
        "phantom_enq",
        "data_match",
        "stale_cycles",
        "blocked_cycles",
        "drops",
        "occupancy",
    ];

    /// One row per `(pipeline, stage)` with any activity, matching
    /// [`Rollup::STAGE_HEADERS`]. The occupancy column is the
    /// histogram's compact `ub:count` form.
    pub fn stage_rows(&self) -> Vec<Vec<String>> {
        self.stages
            .iter()
            .map(|(&(p, s), st)| {
                vec![
                    p.to_string(),
                    s.to_string(),
                    st.pass_through.to_string(),
                    st.bypasses.to_string(),
                    st.queued_served.to_string(),
                    st.accesses.to_string(),
                    st.phantom_enq.to_string(),
                    st.data_match.to_string(),
                    st.stale_cycles.to_string(),
                    st.blocked_cycles.to_string(),
                    st.drops.to_string(),
                    st.occupancy.render(),
                ]
            })
            .collect()
    }

    /// Column headers of [`Rollup::reg_rows`].
    pub const REG_HEADERS: [&'static str; 7] = [
        "reg",
        "accesses",
        "hot_indexes",
        "remap_moves",
        "orphans",
        "mean_phantom_wait",
        "max_phantom_wait",
    ];

    /// One row per register array, matching [`Rollup::REG_HEADERS`].
    pub fn reg_rows(&self) -> Vec<Vec<String>> {
        self.regs
            .iter()
            .map(|(&reg, rr)| {
                vec![
                    format!("r{reg}"),
                    rr.accesses.to_string(),
                    rr.hot_indexes.to_string(),
                    rr.remap_moves.to_string(),
                    rr.orphans.to_string(),
                    format!("{:.2}", rr.phantom_waits.mean()),
                    rr.phantom_waits.max.to_string(),
                ]
            })
            .collect()
    }

    /// Renders the full rollup as CSV: a stage section, a register
    /// section, and a steering-matrix section, separated by blank
    /// lines. Occupancy histograms are quoted (they contain spaces,
    /// not commas, but quoting keeps naive splitters honest). No stage
    /// row has `65535` ([`NO_LOC`]) as its pipeline or stage: events
    /// there count in the other two sections only.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&Self::STAGE_HEADERS.join(","));
        out.push('\n');
        for row in self.stage_rows() {
            let (head, occ) = row.split_at(row.len() - 1);
            out.push_str(&head.join(","));
            out.push_str(&format!(",\"{}\"\n", occ[0]));
        }
        out.push('\n');
        out.push_str(&Self::REG_HEADERS.join(","));
        out.push('\n');
        for row in self.reg_rows() {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        if !self.steers.is_empty() {
            out.push('\n');
            out.push_str("steer_from,steer_to,packets\n");
            for (&(f, t), n) in &self.steers {
                out.push_str(&format!("{f},{t},{n}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NO_LOC;
    use mp5_types::{PacketId, RegId};

    #[test]
    fn histogram_buckets_log2() {
        let mut h = Histogram::default();
        for v in [0, 0, 1, 2, 3, 4, 5, 9] {
            h.record(v);
        }
        assert_eq!(h.max, 9);
        assert_eq!(h.samples, 8);
        // zeros=2, ones=1, [2,3]=2, [4,7]=2, [8,15]=1
        assert_eq!(h.buckets(), vec![(0, 2), (1, 1), (3, 2), (7, 2), (15, 1)]);
        assert!(h.render().starts_with("0:2 1:1"));
    }

    #[test]
    fn phantom_wait_is_match_minus_enqueue() {
        let key = PhantomKey {
            pkt: PacketId(1),
            reg: RegId(2),
            index: 0,
        };
        let evs = vec![
            Event {
                cycle: 10,
                pipeline: 0,
                stage: 3,
                kind: EventKind::PhantomEnq { key },
            },
            Event {
                cycle: 17,
                pipeline: 0,
                stage: 3,
                kind: EventKind::DataMatch { key },
            },
        ];
        let r = Rollup::from_events(&evs);
        let rr = &r.regs[&2];
        assert_eq!(rr.phantom_waits.samples, 1);
        assert_eq!(rr.phantom_waits.max, 7);
        let st = &r.stages[&(0, 3)];
        assert_eq!(st.phantom_enq, 1);
        assert_eq!(st.data_match, 1);
    }

    #[test]
    fn steers_accumulate_off_diagonal_only() {
        let mk = |from, to| Event {
            cycle: 0,
            pipeline: from,
            stage: 1,
            kind: EventKind::Steer { from, to },
        };
        let r = Rollup::from_events(&[mk(0, 2), mk(0, 2), mk(1, 1)]);
        assert_eq!(r.steers.get(&(0, 2)), Some(&2));
        assert_eq!(r.steers.get(&(1, 1)), None);
        assert_eq!(r.stages[&(0, 1)].steered_out, 2);
    }

    #[test]
    fn csv_has_all_three_sections() {
        let key = PhantomKey {
            pkt: PacketId(1),
            reg: RegId(0),
            index: 0,
        };
        let evs = vec![
            Event {
                cycle: 1,
                pipeline: 0,
                stage: 2,
                kind: EventKind::PhantomEnq { key },
            },
            Event {
                cycle: 2,
                pipeline: 0,
                stage: 2,
                kind: EventKind::Steer { from: 0, to: 1 },
            },
        ];
        let csv = Rollup::from_events(&evs).to_csv();
        assert!(csv.starts_with("pipeline,stage,"));
        assert!(csv.contains("reg,accesses,"));
        assert!(csv.contains("steer_from,steer_to,packets"));
        assert_eq!(
            csv.lines().next().unwrap().split(',').count(),
            Rollup::STAGE_HEADERS.len()
        );
    }

    /// Remap moves, lifecycle markers and an evacuated pipeline sit at
    /// no stage: they open no stage row, and the register and steering
    /// sections still count them.
    #[test]
    fn events_at_no_stage_open_no_stage_row() {
        let at = |pipeline, stage, kind| Event {
            cycle: 3,
            pipeline,
            stage,
            kind,
        };
        let evs = vec![
            at(
                NO_LOC,
                NO_LOC,
                EventKind::RemapMove {
                    reg: RegId(4),
                    index: 9,
                    from: 0,
                    to: 1,
                },
            ),
            at(NO_LOC, NO_LOC, EventKind::SnapshotTaken { seq: 0 }),
            at(
                2,
                NO_LOC,
                EventKind::PipelineEvacuated {
                    pipeline: 2,
                    indexes: 5,
                },
            ),
            at(NO_LOC, 1, EventKind::Steer { from: 0, to: 2 }),
            at(0, 1, EventKind::Steer { from: 0, to: 2 }),
        ];
        let r = Rollup::from_events(&evs);
        assert_eq!(r.stages.keys().collect::<Vec<_>>(), [&(0, 1)]);
        assert_eq!(r.stages[&(0, 1)].steered_out, 1);
        assert_eq!(r.regs[&4].remap_moves, 1);
        assert_eq!(r.steers.get(&(0, 2)), Some(&2));
        assert_eq!(r.events, 5);
        assert!(!r.to_csv().contains("65535"));
    }

    #[test]
    fn occupancy_tracks_enq_and_pop() {
        let key = |p| PhantomKey {
            pkt: PacketId(p),
            reg: RegId(0),
            index: 0,
        };
        let mk = |cycle, kind| Event {
            cycle,
            pipeline: 0,
            stage: 2,
            kind,
        };
        let evs = vec![
            mk(0, EventKind::PhantomEnq { key: key(0) }),
            mk(1, EventKind::PhantomEnq { key: key(1) }),
            mk(2, EventKind::DataMatch { key: key(0) }),
            mk(3, EventKind::PopData { pkt: PacketId(0) }),
            mk(4, EventKind::DataMatch { key: key(1) }),
            mk(5, EventKind::PopData { pkt: PacketId(1) }),
        ];
        let r = Rollup::from_events(&evs);
        let occ = &r.stages[&(0, 2)].occupancy;
        assert_eq!(occ.max, 2);
        // Samples: 1, 2, 2, 1, 1, 0.
        assert_eq!(occ.samples, 6);
        assert_eq!(occ.sum, 7);
    }
}
