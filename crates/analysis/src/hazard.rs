//! Hazard / ordering analysis: the D4 preconditions.
//!
//! MP5's design principle D4 (pre-emptive state-access-order
//! enforcement) freezes the serial order of every stateful access at
//! packet arrival: the address-resolution prologue computes each
//! access's `(register, index)` and the phantom plan reserves the
//! access's slot before the packet enters the pipelines. That only
//! works when
//!
//! 1. every stateful access is *covered* by an access plan (a phantom is
//!    generated for its stage), and
//! 2. accesses whose address cannot be resolved pre-emptively degrade to
//!    *array-level* serialization — correct, but every packet serializes
//!    through the array's stage, so we surface it as a warning.
//!
//! This module checks both, on the transformer's plans recorded in the
//! compiler's [`Layout`] ([`plan_hazards`]) and on a finished
//! [`CompiledProgram`] ([`verify_coverage`], usable as a post-codegen
//! audit).

use mp5_compiler::program::REG_STAGE_SENTINEL;
use mp5_compiler::{AccessPlan, CompiledProgram, IdxPlan, Layout};
use mp5_lang::tac::TacProgram;
use mp5_lang::{Code, Diagnostic};
use mp5_types::RegId;

use crate::{access_positions, first_access_span};

/// Does a plan cover `reg` resident at physical stage `stage`: its own
/// plan, or a stage-level plan for that stage?
fn covers(plans: &[AccessPlan], reg: RegId, stage: usize) -> bool {
    plans
        .iter()
        .any(|p| p.reg == reg || (p.reg == REG_STAGE_SENTINEL && p.stage.index() == stage))
}

/// Diagnoses the transformer's planned accesses (pre-codegen):
/// array-level serialization warnings plus uncovered-stage errors.
///
/// Also returns, per register, whether the D4 plan covers it (a
/// register no instruction touches needs no plan).
pub fn plan_hazards(tac: &TacProgram, layout: &Layout) -> (Vec<bool>, Vec<Diagnostic>) {
    let res = &layout.transform.resolution;
    // Each accessed register's physical stage before any merge.
    let mut reg_stage: Vec<Option<usize>> = vec![None; tac.regs.len()];
    for c in &layout.schedule.clusters {
        for &r in &c.regs {
            reg_stage[r.index()] = Some(res.stages + c.stage);
        }
    }
    let mut diags = Vec::new();

    // (1) Array-level serialization warnings.
    for plan in res.plans.iter().filter(|p| p.idx == IdxPlan::ArrayLevel) {
        let (name, span) = if plan.reg == REG_STAGE_SENTINEL {
            // Stage-level plan: name every register in that stage.
            let names: Vec<&str> = (0..tac.regs.len())
                .filter(|&ri| reg_stage[ri] == Some(plan.stage.index()))
                .map(|ri| tac.regs[ri].name.as_str())
                .collect();
            (names.join("', '"), first_access_span(tac, None))
        } else {
            (
                tac.regs[plan.reg.index()].name.clone(),
                first_access_span(tac, Some(plan.reg)),
            )
        };
        diags.push(Diagnostic::warning(
            Code::ARRAY_LEVEL_SERIALIZATION,
            span,
            format!(
                "access to register '{name}' cannot be address-resolved in the \
                 prologue: every packet serializes through its stage \
                 (array-level phantom)"
            ),
        ));
    }

    // (2) D4 coverage: every register with a stateful access needs a
    // plan (its own, or a stage-level plan at its stage).
    let covered: Vec<bool> = reg_stage
        .iter()
        .enumerate()
        .map(|(ri, s)| s.is_none_or(|s| covers(&res.plans, RegId::from(ri), s)))
        .collect();
    for ri in (0..tac.regs.len()).filter(|&ri| !covered[ri]) {
        diags.push(Diagnostic::error(
            Code::UNCOVERED_STATEFUL_STAGE,
            first_access_span(tac, Some(RegId::from(ri))),
            format!(
                "stateful stage of register '{}' is not covered by the phantom \
                 plan: its serial access order cannot be frozen (D4 violated)",
                tac.regs[ri].name
            ),
        ));
    }

    (covered, diags)
}

/// Audits a finished [`CompiledProgram`]: every register placed in a
/// stage must be covered by a resolution plan (own plan, or a
/// stage-level plan for its stage). Returns one `MP5302` error per
/// uncovered register. A correct compiler output yields no findings;
/// this exists so that hand-built or mutated programs (and future
/// compiler changes) can be audited.
pub fn verify_coverage(prog: &CompiledProgram) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (ri, meta) in prog.regs.iter().enumerate() {
        let reg = RegId::from(ri);
        // Only registers actually accessed by the TAC need phantoms.
        if access_positions(&prog.tac, Some(reg)).next().is_none()
            || covers(&prog.resolution.plans, reg, meta.stage.index())
        {
            continue;
        }
        diags.push(Diagnostic::error(
            Code::UNCOVERED_STATEFUL_STAGE,
            first_access_span(&prog.tac, Some(reg)),
            format!(
                "stateful stage {} (register '{}') has no access plan: serial \
                 order cannot be frozen pre-emptively (D4 violated)",
                meta.stage.index(),
                meta.name
            ),
        ));
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp5_compiler::{compile, Target};
    use mp5_lang::tac::TacInstr;

    #[test]
    fn compiled_programs_are_covered() {
        let prog = compile(
            "struct Packet { int h; };
             int r[8];
             void func(struct Packet p) { r[p.h % 8] = r[p.h % 8] + 1; }",
            &Target::default(),
        )
        .unwrap();
        assert!(verify_coverage(&prog).is_empty());
    }

    #[test]
    fn removing_a_plan_is_detected() {
        let mut prog = compile(
            "struct Packet { int h; };
             int r[8];
             void func(struct Packet p) { r[p.h % 8] = r[p.h % 8] + 1; }",
            &Target::default(),
        )
        .unwrap();
        prog.resolution.plans.clear();
        let ds = verify_coverage(&prog);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::UNCOVERED_STATEFUL_STAGE);
        assert!(
            ds[0].span.line > 0,
            "span points at the access: {:?}",
            ds[0].span
        );
    }

    #[test]
    fn unaccessed_register_needs_no_plan() {
        let mut prog = compile(
            "struct Packet { int h; };
             int r[8];
             void func(struct Packet p) { r[p.h % 8] = 1; }",
            &Target::default(),
        )
        .unwrap();
        // Strip the access from the TAC: the register is now unused, so
        // a missing plan is fine.
        prog.tac
            .instrs
            .retain(|i| matches!(i, TacInstr::Assign { .. }));
        prog.resolution.plans.clear();
        assert!(verify_coverage(&prog).is_empty());
    }
}
