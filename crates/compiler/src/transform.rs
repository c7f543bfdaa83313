//! The PVSM-to-PVSM transformer (paper §3.3, Figure 5).
//!
//! Takes the pipelined schedule and decouples *address resolution* from
//! *stateful processing*: the logic sufficient to decide which register
//! index a packet will access (table match, predicate, index
//! computation) is hoisted into a prologue at the head of the pipeline,
//! followed by a phantom-generation stage; the state manipulation stays
//! in its original stage.
//!
//! The three hard cases of §3.3 are handled exactly as the paper
//! prescribes:
//!
//! * **Stateful predicate** (`if (reg1[0]) {...}`): the predicate cannot
//!   be evaluated preemptively, so MP5 "conservatively assumes that the
//!   predicate would evaluate to true" and generates a *speculative*
//!   phantom; a false outcome costs one wasted cycle at the stateful
//!   stage ([`PredPlan::Speculative`]).
//! * **Stateful index** (`reg1[reg2[0]]`): the index cannot be computed
//!   preemptively, so "MP5 ... maps the entire register array to a
//!   single pipeline, i.e., effectively no state sharding"
//!   ([`IdxPlan::ArrayLevel`] + [`ShardClass::PinnedStatefulIndex`]).
//! * **Multiple distinct indexes of one array** (e.g. speculative
//!   `if/else` branches touching `reg[i]` and `reg[j]`): the two indexes
//!   could be sharded to different pipelines, but a packet can only be
//!   in one pipeline at a time, so the array is pinned while keeping
//!   exact per-index phantoms where the predicates are resolvable.
//!
//! Each verdict is recorded as a [`RegShard`]: the class, the TAC
//! positions that forced it and the speculative flag. This is the only
//! place the decision is made; code generation stamps
//! `RegMeta::shardable` from it, and `mp5-analysis` renders it as
//! diagnostics.

use std::collections::BTreeSet;

use mp5_lang::ast::BinOp;
use mp5_lang::tac::{TacInstr, TacProgram};
use mp5_lang::{Operand, TacExpr};
use mp5_types::{FieldId, StageId};

use crate::program::{AccessPlan, IdxPlan, PredPlan, ResolutionCode};
use crate::schedule::Schedule;
use crate::slice::Slicer;

/// Why (or whether) a register array can be dynamically sharded across
/// pipelines (paper §3.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShardClass {
    /// The array's slots can be distributed across per-pipeline shards:
    /// every access resolves to one exact, header-derived index in the
    /// prologue.
    #[default]
    Shardable,
    /// A stateful *index* computation (the address depends on register
    /// state) makes the address unresolvable in the prologue; the array
    /// is pinned to one pipeline and serialized at array granularity.
    PinnedStatefulIndex,
    /// The array shares a stage with other arrays (a Banzai pairs-class
    /// atom, or codegen's shared-stage fallback, or multiple distinct
    /// resolvable indexes) and the co-resident group is pinned together.
    PinnedCoResident,
    /// A stateful *predicate* combined with multiple access sites keeps
    /// the taken set unresolvable; the array is pinned rather than
    /// speculatively phantomed.
    PinnedStatefulPredicate,
}

impl ShardClass {
    /// `true` only for [`ShardClass::Shardable`].
    pub fn is_shardable(self) -> bool {
        matches!(self, ShardClass::Shardable)
    }

    /// Stable machine-readable name (used by JSON output).
    pub fn as_str(self) -> &'static str {
        match self {
            ShardClass::Shardable => "shardable",
            ShardClass::PinnedStatefulIndex => "pinned-stateful-index",
            ShardClass::PinnedCoResident => "pinned-co-resident",
            ShardClass::PinnedStatefulPredicate => "pinned-stateful-predicate",
        }
    }
}

impl std::fmt::Display for ShardClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The transformer's sharding decision for one register array, with the
/// evidence it decided on.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegShard {
    /// The verdict.
    pub class: ShardClass,
    /// TAC positions of the accesses that forced a pinned verdict (empty
    /// for `Shardable`).
    pub culprits: Vec<usize>,
    /// A shardable array whose only access group sits under a stateful
    /// predicate: its phantom is speculative (§3.3).
    pub speculative: bool,
}

impl RegShard {
    fn pinned(class: ShardClass, culprits: Vec<usize>) -> Self {
        RegShard {
            class,
            culprits,
            speculative: false,
        }
    }
}

/// Output of the transformer: the resolution prologue plus per-register
/// sharding decisions (indexed like `tac.regs`).
#[derive(Debug, Clone)]
pub struct TransformResult {
    /// The resolution prologue (instrs, plans, stage count).
    pub resolution: ResolutionCode,
    /// Why each register array may or may not be sharded across
    /// pipelines, before code generation's tail merge.
    pub shards: Vec<RegShard>,
    /// Extra metadata field names created for synthesized predicate
    /// combinations (appended after `tac.field_names`).
    pub extra_fields: Vec<String>,
}

/// One register access site extracted from the TAC.
#[derive(Debug, Clone)]
struct AccessSite {
    pos: usize,
    idx: Operand,
    pred: Option<Operand>,
}

/// Runs the transformation.
pub fn transform(tac: &TacProgram, schedule: &Schedule, max_chain_depth: usize) -> TransformResult {
    let slicer = Slicer::new(tac);
    let mut slice_set: BTreeSet<usize> = BTreeSet::new();
    let mut extra_fields: Vec<String> = Vec::new();
    let mut synth: Vec<TacInstr> = Vec::new();
    let mut shards = vec![RegShard::default(); tac.regs.len()];

    // Plans in PVSM-stage order (phantom generation order).
    let mut staged_plans: Vec<(usize, AccessPlan)> = Vec::new();

    let fresh_field = |extra_fields: &mut Vec<String>| -> FieldId {
        let id = FieldId::from(tac.field_names.len() + extra_fields.len());
        extra_fields.push(format!("$res{}", extra_fields.len()));
        id
    };

    for cluster in &schedule.clusters {
        if cluster.regs.len() > 1 {
            // A pairs-class atom: the registers are entangled by shared
            // dataflow, so they co-reside in one stage, are pinned to
            // one pipeline, and every packet that might touch them
            // serializes through a single stage-level phantom.
            let culprits: Vec<usize> = cluster
                .members
                .iter()
                .copied()
                .filter(|&m| !matches!(tac.instrs[m], TacInstr::Assign { .. }))
                .collect();
            for &r in &cluster.regs {
                shards[r.index()] =
                    RegShard::pinned(ShardClass::PinnedCoResident, culprits.clone());
            }
            staged_plans.push((
                cluster.stage,
                AccessPlan {
                    stage: StageId(0),
                    reg: crate::program::REG_STAGE_SENTINEL,
                    idx: IdxPlan::ArrayLevel,
                    pred: PredPlan::Always,
                },
            ));
            continue;
        }
        let reg = cluster.regs[0];
        // Collect the access sites for this register.
        let mut sites: Vec<AccessSite> = Vec::new();
        for &m in &cluster.members {
            match &tac.instrs[m] {
                TacInstr::RegRead { idx, pred, .. } | TacInstr::RegWrite { idx, pred, .. } => {
                    sites.push(AccessSite {
                        pos: m,
                        idx: *idx,
                        pred: *pred,
                    });
                }
                _ => {}
            }
        }
        debug_assert!(!sites.is_empty());

        // Group sites by syntactic index operand (CSE makes equal
        // indexes literally identical operands).
        let mut groups: Vec<(Operand, Vec<AccessSite>)> = Vec::new();
        for s in sites {
            match groups.iter_mut().find(|(op, _)| *op == s.idx) {
                Some((_, v)) => v.push(s),
                None => groups.push((s.idx, vec![s])),
            }
        }

        // Try to slice every index and predicate, keeping the sites
        // whose index or (deciding) predicate is stateful.
        let mut group_plans: Vec<(IdxPlan, PredPlan)> = Vec::new();
        let mut idx_culprits: Vec<usize> = Vec::new();
        let mut pred_culprits: Vec<usize> = Vec::new();
        for (idx_op, sites) in &groups {
            let idx_plan = {
                let mut tmp = slice_set.clone();
                if slicer.slice_operand(*idx_op, sites[0].pos, &mut tmp) {
                    slice_set = tmp;
                    IdxPlan::Exact(*idx_op)
                } else {
                    idx_culprits.extend(sites.iter().map(|s| s.pos));
                    IdxPlan::ArrayLevel
                }
            };
            // Union predicate across the group's sites.
            let mut pred_ops: Vec<Operand> = Vec::new();
            let mut always = false;
            let mut stateful_preds: Vec<usize> = Vec::new();
            for s in sites {
                match s.pred {
                    None => always = true,
                    Some(p) => {
                        let mut tmp = slice_set.clone();
                        if slicer.slice_operand(p, s.pos, &mut tmp) {
                            slice_set = tmp;
                            if !pred_ops.contains(&p) {
                                pred_ops.push(p);
                            }
                        } else {
                            stateful_preds.push(s.pos);
                        }
                    }
                }
            }
            let pred_plan = if always {
                PredPlan::Always
            } else if !stateful_preds.is_empty() {
                pred_culprits.extend(stateful_preds);
                PredPlan::Speculative
            } else if pred_ops.len() == 1 {
                PredPlan::Exact(pred_ops[0])
            } else {
                // Synthesize OR of the predicates in the prologue.
                let mut acc = pred_ops[0];
                for &p in &pred_ops[1..] {
                    let dst = fresh_field(&mut extra_fields);
                    synth.push(TacInstr::Assign {
                        dst,
                        expr: TacExpr::Binary(BinOp::Or, acc, p),
                    });
                    acc = Operand::Field(dst);
                }
                PredPlan::Exact(acc)
            };
            group_plans.push((idx_plan, pred_plan));
        }

        // Decide shardability and final plans for this register.
        if groups.len() == 1 {
            let (idx_plan, pred_plan) = group_plans.pop().unwrap();
            shards[reg.index()] = match idx_plan {
                IdxPlan::ArrayLevel => {
                    RegShard::pinned(ShardClass::PinnedStatefulIndex, idx_culprits)
                }
                IdxPlan::Exact(_) => RegShard {
                    speculative: matches!(pred_plan, PredPlan::Speculative),
                    ..RegShard::default()
                },
            };
            staged_plans.push((
                cluster.stage,
                AccessPlan {
                    stage: StageId(0), // physical stage filled below
                    reg,
                    idx: idx_plan,
                    pred: pred_plan,
                },
            ));
        } else {
            // Multiple distinct indexes of one array: pin the array, and
            // name the dominant cause.
            shards[reg.index()] = if !idx_culprits.is_empty() {
                RegShard::pinned(ShardClass::PinnedStatefulIndex, idx_culprits)
            } else if !pred_culprits.is_empty() {
                RegShard::pinned(ShardClass::PinnedStatefulPredicate, pred_culprits)
            } else {
                let all = groups.iter().flat_map(|(_, ss)| ss.iter().map(|s| s.pos));
                RegShard::pinned(ShardClass::PinnedCoResident, all.collect())
            };
            // Co-resident only for its distinct indexes: every index
            // and predicate resolved.
            if shards[reg.index()].class == ShardClass::PinnedCoResident {
                // Exact per-index phantoms, all destined to the pinned
                // pipeline.
                for (idx_plan, pred_plan) in group_plans {
                    staged_plans.push((
                        cluster.stage,
                        AccessPlan {
                            stage: StageId(0),
                            reg,
                            idx: idx_plan,
                            pred: pred_plan,
                        },
                    ));
                }
            } else {
                // Fall all the way back: one array-level phantom per
                // packet, unconditional.
                staged_plans.push((
                    cluster.stage,
                    AccessPlan {
                        stage: StageId(0),
                        reg,
                        idx: IdxPlan::ArrayLevel,
                        pred: PredPlan::Always,
                    },
                ));
            }
        }
    }

    // Assemble the prologue instruction list: the union slice in
    // original program order, then synthesized predicate combinators.
    let mut instrs: Vec<TacInstr> = slice_set.iter().map(|&i| tac.instrs[i].clone()).collect();
    instrs.extend(synth);

    // Size the prologue: the slice instructions re-scheduled with the
    // same chain-depth rule, plus one stage for phantom generation.
    // (Prologue instructions are pure Assigns, so a simple chain-depth
    // pass suffices.)
    let comp_stages = prologue_stages(&instrs, tac, max_chain_depth);
    let stages = if staged_plans.is_empty() {
        0
    } else {
        comp_stages + 1
    };

    // Fill physical stage ids and sort plans by stage.
    let mut plans: Vec<AccessPlan> = staged_plans
        .into_iter()
        .map(|(pvsm_stage, mut plan)| {
            plan.stage = StageId((stages + pvsm_stage) as u16);
            plan
        })
        .collect();
    plans.sort_by_key(|p| p.stage);

    TransformResult {
        resolution: ResolutionCode {
            instrs,
            plans,
            stages,
        },
        shards,
        extra_fields,
    }
}

/// Stage count needed by the prologue computation, under the chain-depth
/// rule (dependent ops deeper than `maxd` spill to the next stage).
fn prologue_stages(instrs: &[TacInstr], tac: &TacProgram, maxd: usize) -> usize {
    if instrs.is_empty() {
        return 0;
    }
    let maxd = maxd.max(1);
    let mut total_fields = tac.field_names.len();
    for ins in instrs {
        if let TacInstr::Assign { dst, .. } = ins {
            total_fields = total_fields.max(dst.index() + 1);
        }
    }
    let mut avail: Vec<(usize, usize)> = vec![(0, 0); total_fields];
    let mut max_stage = 0;
    for ins in instrs {
        if let TacInstr::Assign { dst, expr } = ins {
            let mut s = 0usize;
            let mut d = 1usize;
            for o in expr.operands() {
                if let Operand::Field(f) = o {
                    let (ps, pd) = avail[f.index()];
                    let (cs, cd) = if pd < maxd { (ps, pd + 1) } else { (ps + 1, 1) };
                    if cs > s {
                        s = cs;
                        d = cd;
                    } else if cs == s {
                        d = d.max(cd);
                    }
                }
            }
            avail[dst.index()] = (s, d);
            max_stage = max_stage.max(s);
        }
    }
    max_stage + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::pipeline;
    use mp5_lang::frontend;

    fn xform(src: &str) -> (TacProgram, TransformResult) {
        let tac = frontend(src).unwrap();
        let sched = pipeline(&tac, 4).unwrap();
        let res = transform(&tac, &sched, 4);
        (tac, res)
    }

    #[test]
    fn pure_index_yields_exact_plan() {
        let (_, r) = xform(
            "struct Packet { int h; };
             int r[8];
             void func(struct Packet p) { r[p.h % 8] = r[p.h % 8] + 1; }",
        );
        assert_eq!(r.resolution.plans.len(), 1);
        assert!(matches!(r.resolution.plans[0].idx, IdxPlan::Exact(_)));
        assert!(matches!(r.resolution.plans[0].pred, PredPlan::Always));
        assert_eq!(r.shards[0], RegShard::default());
        assert!(r.resolution.stages >= 2, "compute + phantom-gen stages");
    }

    #[test]
    fn stateful_predicate_is_speculative() {
        let (_, r) = xform(
            "struct Packet { int h; };
             int gate = 0;
             int r[8];
             void func(struct Packet p) {
                 if (gate > 0) { r[p.h % 8] = 1; }
             }",
        );
        let plan_r = r
            .resolution
            .plans
            .iter()
            .find(|p| p.reg.index() == 1)
            .unwrap();
        assert!(matches!(plan_r.pred, PredPlan::Speculative));
        assert!(matches!(plan_r.idx, IdxPlan::Exact(_)));
        assert_eq!(
            r.shards[1].class,
            ShardClass::Shardable,
            "index is still exact"
        );
        assert!(r.shards[1].speculative);
    }

    #[test]
    fn stateful_index_pins_array() {
        let (tac, r) = xform(
            "struct Packet { int h; };
             int ptr = 0;
             int r[8];
             void func(struct Packet p) { r[ptr % 8] = 1; }",
        );
        let plan_r = r
            .resolution
            .plans
            .iter()
            .find(|p| p.reg.index() == 1)
            .unwrap();
        assert!(matches!(plan_r.idx, IdxPlan::ArrayLevel));
        // Stateful index: no sharding, and the write is the culprit.
        assert_eq!(r.shards[1].class, ShardClass::PinnedStatefulIndex);
        assert_eq!(r.shards[1].culprits.len(), 1);
        assert!(matches!(
            tac.instrs[r.shards[1].culprits[0]],
            TacInstr::RegWrite { .. }
        ));
    }

    #[test]
    fn ternary_branches_get_exact_predicated_plans() {
        let (_, r) = xform(
            "struct Packet { int m; int h1; int h2; int v; };
             int a[4];
             int b[4];
             void func(struct Packet p) {
                 p.v = (p.m == 1) ? a[p.h1 % 4] : b[p.h2 % 4];
             }",
        );
        assert_eq!(r.resolution.plans.len(), 2);
        for p in &r.resolution.plans {
            assert!(matches!(p.idx, IdxPlan::Exact(_)));
            assert!(matches!(p.pred, PredPlan::Exact(_)));
        }
        assert!(r.shards.iter().all(|s| s.class.is_shardable()));
    }

    #[test]
    fn rmw_with_branch_preds_unions_to_always() {
        // Figure 3's reg3: reads under c and !c plus an unconditional
        // write — the union predicate must be Always.
        let (_, r) = xform(
            "struct Packet { int h3; int val; int mux; };
             int reg3[4] = {0};
             void func(struct Packet p) {
                 reg3[p.h3 % 4] = (p.mux == 1)
                     ? reg3[p.h3 % 4] * p.val
                     : reg3[p.h3 % 4] + p.val;
             }",
        );
        assert_eq!(r.resolution.plans.len(), 1);
        assert!(matches!(r.resolution.plans[0].pred, PredPlan::Always));
        assert!(r.shards[0].class.is_shardable());
    }

    #[test]
    fn distinct_indexes_pin_array_but_keep_exact_plans() {
        let (_, r) = xform(
            "struct Packet { int m; int i; int j; };
             int r[8];
             void func(struct Packet p) {
                 if (p.m == 1) { r[p.i % 8] = 1; } else { r[p.j % 8] = 2; }
             }",
        );
        // Two indexes may shard apart: pin, naming both sites.
        assert_eq!(r.shards[0].class, ShardClass::PinnedCoResident);
        assert_eq!(r.shards[0].culprits.len(), 2);
        assert_eq!(r.resolution.plans.len(), 2);
        for p in &r.resolution.plans {
            assert!(matches!(p.idx, IdxPlan::Exact(_)));
            assert!(matches!(p.pred, PredPlan::Exact(_)));
        }
    }

    #[test]
    fn stateless_program_needs_no_prologue() {
        let (_, r) = xform(
            "struct Packet { int a; int b; };
             void func(struct Packet p) { p.b = p.a + 1; }",
        );
        assert_eq!(r.resolution.stages, 0);
        assert!(r.resolution.plans.is_empty());
        assert!(r.resolution.instrs.is_empty());
    }

    #[test]
    fn plans_sorted_by_stage() {
        let (_, r) = xform(
            "struct Packet { int h; };
             int a[4];
             int b[4];
             void func(struct Packet p) {
                 int v = a[p.h % 4];
                 b[v % 4] = v;
             }",
        );
        // b's index depends on a's value: b unshardable, a shardable.
        assert!(r.shards[0].class.is_shardable());
        assert_eq!(r.shards[1].class, ShardClass::PinnedStatefulIndex);
        assert!(r
            .resolution
            .plans
            .windows(2)
            .all(|w| w[0].stage <= w[1].stage));
    }

    #[test]
    fn stateful_predicate_over_two_indexes_pins() {
        let (_, r) = xform(
            "struct Packet { int i; int j; };
             int gate = 0;
             int r[8];
             void func(struct Packet p) {
                 if (gate > 0) { r[p.i % 8] = 1; }
                 if (gate > 1) { r[p.j % 8] = 2; }
             }",
        );
        assert_eq!(r.shards[1].class, ShardClass::PinnedStatefulPredicate);
        assert_eq!(r.shards[1].culprits.len(), 2);
    }

    #[test]
    fn pairs_atoms_pin_co_resident() {
        let (_, r) = xform(
            "struct Packet { int h; int o; };
             int a[4] = {0};
             int b[4] = {0};
             void func(struct Packet p) {
                 int t = a[p.h % 4] + b[p.h % 4];
                 a[p.h % 4] = t;
                 b[p.h % 4] = t;
                 p.o = t;
             }",
        );
        for s in &r.shards {
            assert_eq!(s.class, ShardClass::PinnedCoResident);
            assert_eq!(s.culprits.len(), 4, "both reads and both writes");
        }
    }

    #[test]
    fn shard_class_names_are_stable() {
        assert_eq!(ShardClass::Shardable.to_string(), "shardable");
        assert_eq!(
            ShardClass::PinnedStatefulIndex.to_string(),
            "pinned-stateful-index"
        );
        assert_eq!(
            ShardClass::PinnedCoResident.to_string(),
            "pinned-co-resident"
        );
        assert_eq!(
            ShardClass::PinnedStatefulPredicate.to_string(),
            "pinned-stateful-predicate"
        );
        assert!(!ShardClass::PinnedCoResident.is_shardable());
    }
}
