//! The stage layout: every decision about which body stage holds what.
//!
//! [`Layout::new`] schedules the program, runs the transformer (whose
//! [`RegShard`](crate::transform::RegShard)s say why each array is or is
//! not sharded), and assembles the body stages against the [`Target`]:
//!
//! 1. **Tail merge** (§3.3's conservative fallback): while the prologue
//!    plus the body, and the flow-order stage still to come, exceed the
//!    stage budget, the last two body stages merge. Once any merge
//!    happened, every array in a shared stage is pinned and its access
//!    plans become one stage-level plan that serializes all packets
//!    through the stage in arrival order.
//! 2. **Flow-order stage** (§3.4): with flow-order enforcement, the
//!    dummy [`FLOW_ORDER_REG`] write moves into a dedicated final body
//!    stage, since ordering only holds if nothing stateful follows it.
//!    The ops budget is checked after this move.
//!
//! Budgets the result exceeds are recorded as [`Overrun`]s rather than
//! returned as errors: code generation fails on the first, and the
//! `mp5-analysis` crate reports them all. Both read this one record, so
//! the analyzer's report describes exactly what code generation does.

use std::collections::HashMap;

use mp5_lang::tac::{TacInstr, TacProgram};
use mp5_types::{RegId, StageId};

use crate::codegen::{CompileError, FLOW_ORDER_REG};
use crate::program::{AccessPlan, IdxPlan, PredPlan, StageCode, REG_STAGE_SENTINEL};
use crate::schedule::{pipeline_with, Schedule, ScheduleError};
use crate::target::Target;
use crate::transform::{transform, ShardClass, TransformResult};

/// A budget of the target that a [`Layout`] exceeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overrun {
    /// The prologue plus the single, fully merged body stage exceed the
    /// stage budget: the prologue cannot be merged.
    Stages {
        /// Stages required.
        needed: usize,
    },
    /// A body stage holds more operations than the target allows
    /// (counted after the tail merge and the flow-order move).
    Ops {
        /// The overflowing physical stage.
        stage: usize,
        /// Operations in it.
        needed: usize,
    },
    /// The dedicated flow-order stage does not fit in the stage budget.
    FlowOrderStage {
        /// Stages required.
        needed: usize,
    },
}

impl Overrun {
    /// The compile error code generation reports for this overrun.
    pub(crate) fn error(self, target: &Target) -> CompileError {
        match self {
            Overrun::Stages { needed } | Overrun::FlowOrderStage { needed } => {
                CompileError::TooManyStages {
                    needed,
                    available: target.max_stages,
                }
            }
            Overrun::Ops { stage, needed } => CompileError::TooManyOpsInStage {
                stage,
                needed,
                available: target.max_ops_per_stage,
            },
        }
    }
}

/// How one program is laid out on one target's stages.
#[derive(Debug, Clone)]
pub struct Layout {
    /// The PVSM schedule.
    pub schedule: Schedule,
    /// The transformer's prologue, access plans and per-register shard
    /// decisions, as they stood before the tail merge.
    pub transform: TransformResult,
    /// Body stages after the tail merge and the flow-order move. A
    /// register no instruction touches is resident in none of them.
    pub stages: Vec<StageCode>,
    /// Access plans for `stages`, sorted by stage.
    pub(crate) plans: Vec<AccessPlan>,
    /// Address-resolution prologue stages (0 when no access is planned).
    pub prologue_stages: usize,
    /// Tail merges performed.
    pub merges: usize,
    /// Arrays the transformer found shardable that the tail merge
    /// pinned, by stage.
    pub merge_pinned: Vec<RegId>,
    /// Budgets exceeded, in the order code generation checks them.
    pub overruns: Vec<Overrun>,
}

impl Layout {
    /// Lays `tac` out on `target`; with `flow_order`, the register named
    /// [`FLOW_ORDER_REG`] gets the final body stage to itself.
    ///
    /// # Panics
    ///
    /// With `flow_order` set, if `tac` has no [`FLOW_ORDER_REG`] write.
    pub fn new(tac: &TacProgram, target: &Target, flow_order: bool) -> Result<Self, ScheduleError> {
        let schedule = pipeline_with(tac, target.max_chain_depth, target.allow_pairs)?;
        let xf = transform(tac, &schedule, target.max_chain_depth);

        let mut stages: Vec<StageCode> = (0..schedule.num_stages.max(1))
            .map(|_| StageCode {
                instrs: Vec::new(),
                regs: Vec::new(),
            })
            .collect();
        for (j, ins) in tac.instrs.iter().enumerate() {
            stages[schedule.stage_of[j]].instrs.push(ins.clone());
        }
        for c in &schedule.clusters {
            stages[c.stage].regs.extend(c.regs.iter().copied());
        }

        // ---- stage-budget fallback: merge body stages from the tail ----
        // The flow-order write needs a final stage of its own unless it
        // already sits alone in the last one.
        let flow_reg = flow_order.then(|| {
            tac.reg(FLOW_ORDER_REG)
                .expect("flow-order register appended")
        });
        let flow_stage = |stages: &[StageCode]| match (flow_reg, stages.last()) {
            (Some(reg), Some(last)) => usize::from(last.regs != [reg]),
            _ => 0,
        };
        let prologue = xf.resolution.stages;
        let mut merges = 0;
        while prologue + stages.len() + flow_stage(&stages) > target.max_stages && stages.len() > 1
        {
            let tail = stages.pop().expect("len > 1");
            let last = stages.last_mut().expect("len > 1");
            last.instrs.extend(tail.instrs);
            last.regs.extend(tail.regs);
            merges += 1;
        }
        let mut overruns = Vec::new();
        if prologue + stages.len() > target.max_stages {
            overruns.push(Overrun::Stages {
                needed: prologue + stages.len(),
            });
        }
        let mut plans = xf.resolution.plans.clone();
        let mut merge_pinned = Vec::new();
        if merges > 0 {
            for s in stages.iter().filter(|s| s.regs.len() > 1) {
                merge_pinned.extend(
                    s.regs
                        .iter()
                        .filter(|r| xf.shards[r.index()].class.is_shardable()),
                );
            }
            plans = merged_plans(&plans, &stages, prologue);
        }
        let prologue_stages = if plans.is_empty() { 0 } else { prologue };

        let mut layout = Layout {
            schedule,
            transform: xf,
            stages,
            plans,
            prologue_stages,
            merges,
            merge_pinned,
            overruns,
        };
        if let Some(reg) = flow_reg.filter(|_| layout.overruns.is_empty()) {
            layout.move_to_final_stage(reg, target);
        }

        // ---- per-stage op budget ----
        for (si, s) in layout.stages.iter().enumerate() {
            if s.instrs.len() > target.max_ops_per_stage {
                layout.overruns.push(Overrun::Ops {
                    stage: layout.prologue_stages + si,
                    needed: s.instrs.len(),
                });
            }
        }
        Ok(layout)
    }

    /// The final sharding class of `reg`: the transformer's verdict,
    /// unless the tail merge pinned the array.
    pub fn class(&self, reg: RegId) -> ShardClass {
        if self.merge_pinned.contains(&reg) {
            ShardClass::PinnedCoResident
        } else {
            self.transform.shards[reg.index()].class
        }
    }

    /// Physical stages in total (prologue plus body).
    pub fn total_stages(&self) -> usize {
        self.prologue_stages + self.stages.len()
    }

    /// Moves `reg`'s writes into a new final body stage of their own,
    /// unless `reg` already is alone in the last one.
    fn move_to_final_stage(&mut self, reg: RegId, target: &Target) {
        let cur = self
            .stages
            .iter()
            .position(|s| s.regs.contains(&reg))
            .expect("flow-order write is scheduled");
        if cur + 1 == self.stages.len() && self.stages[cur].regs.len() == 1 {
            return;
        }
        if self.total_stages() + 1 > target.max_stages {
            self.overruns.push(Overrun::FlowOrderStage {
                needed: self.total_stages() + 1,
            });
        }
        // Only the stateful op moves; its hash inputs are plain Assigns
        // computed earlier.
        let mut moved = Vec::new();
        self.stages[cur].instrs.retain(|ins| {
            let write = matches!(ins, TacInstr::RegWrite { reg: r, .. } if *r == reg);
            if write {
                moved.push(ins.clone());
            }
            !write
        });
        self.stages[cur].regs.retain(|r| *r != reg);
        self.stages.push(StageCode {
            instrs: moved,
            regs: vec![reg],
        });
        let last = StageId((self.total_stages() - 1) as u16);
        for p in &mut self.plans {
            if p.reg == reg {
                p.stage = last;
            }
        }
        self.plans.sort_by_key(|p| p.stage);
    }
}

/// Access plans after a tail merge: plans of single-register stages keep
/// their shape at the register's new stage; each shared stage gets one
/// stage-level plan.
fn merged_plans(plans: &[AccessPlan], stages: &[StageCode], prologue: usize) -> Vec<AccessPlan> {
    let mut reg_stage: HashMap<RegId, usize> = HashMap::new();
    for (si, s) in stages.iter().enumerate() {
        for r in &s.regs {
            reg_stage.insert(*r, si);
        }
    }
    let mut out: Vec<AccessPlan> = Vec::new();
    let mut shared_done: Vec<usize> = Vec::new();
    for p in plans {
        let si = if p.reg == REG_STAGE_SENTINEL {
            // Pre-existing stage-level plan (pairs atom): locate the
            // stage by its original physical id.
            (p.stage.index() - prologue).min(stages.len() - 1)
        } else {
            reg_stage[&p.reg]
        };
        let stage = StageId((prologue + si) as u16);
        if stages[si].regs.len() > 1 {
            if !shared_done.contains(&si) {
                shared_done.push(si);
                out.push(AccessPlan {
                    stage,
                    reg: REG_STAGE_SENTINEL,
                    idx: IdxPlan::ArrayLevel,
                    pred: PredPlan::Always,
                });
            }
        } else {
            out.push(AccessPlan { stage, ..p.clone() });
        }
    }
    out.sort_by_key(|p| p.stage);
    out
}
