//! Shardability diagnostics (paper §3.3).
//!
//! The sharding decision is the compiler's: `mp5-compiler`'s transformer
//! records, per register array, a [`RegShard`] — the class, the TAC
//! positions that forced a pinned verdict and the speculative flag.
//! This module only renders that record: a warning per pinned array
//! pointing at its culprit access, and a note for a speculative phantom
//! plan.

use mp5_compiler::{RegShard, ShardClass};
use mp5_lang::tac::{TacInstr, TacProgram};
use mp5_lang::{Code, Diagnostic, Operand};
use mp5_types::RegId;

use crate::first_access_span;

/// Renders shardability findings as diagnostics (warnings for pinned
/// arrays, a note for speculative phantom plans).
pub fn diagnostics(tac: &TacProgram, shards: &[RegShard]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (ri, c) in shards.iter().enumerate() {
        let name = &tac.regs[ri].name;
        let span = c
            .culprits
            .first()
            .map(|&p| tac.span_of(p))
            .filter(|s| s.line > 0)
            // Fall back to the register's first stateful access.
            .unwrap_or_else(|| first_access_span(tac, Some(RegId::from(ri))));
        let site_note = |d: Diagnostic| {
            if c.culprits.is_empty() {
                d
            } else {
                let rendered: Vec<String> = c
                    .culprits
                    .iter()
                    .map(|&p| format!("[{p}] {}", tac.fmt_instr(&tac.instrs[p])))
                    .collect();
                d.with_note(format!("responsible access(es): {}", rendered.join("; ")))
            }
        };
        match c.class {
            ShardClass::Shardable => {
                if c.speculative {
                    diags.push(Diagnostic::note(
                        Code::SPECULATIVE_PHANTOM,
                        span,
                        format!(
                            "register '{name}' is guarded by a stateful predicate: \
                             MP5 assumes it true and emits a speculative phantom \
                             (one wasted cycle when false)"
                        ),
                    ));
                }
            }
            ShardClass::PinnedStatefulIndex => diags.push(site_note(Diagnostic::warning(
                Code::PINNED_STATEFUL_INDEX,
                span,
                format!(
                    "register '{name}' is indexed by stateful data: the array is \
                     pinned to one pipeline (no D2 sharding)"
                ),
            ))),
            ShardClass::PinnedCoResident => diags.push(site_note(Diagnostic::warning(
                if c.culprits.len() > 1 && has_multi_index(tac, c) {
                    Code::PINNED_MULTI_INDEX
                } else {
                    Code::PINNED_CO_RESIDENT
                },
                span,
                format!(
                    "register '{name}' is pinned to one pipeline: it shares a stage \
                     or is accessed at multiple distinct indexes"
                ),
            ))),
            ShardClass::PinnedStatefulPredicate => diags.push(site_note(Diagnostic::warning(
                Code::PINNED_STATEFUL_PREDICATE,
                span,
                format!(
                    "register '{name}' has multiple access sites under a stateful \
                     predicate: the taken set cannot be resolved in the prologue, \
                     so the array is pinned"
                ),
            ))),
        }
    }
    diags
}

/// Do the culprits of a co-resident verdict use more than one distinct
/// index operand (the multiple-distinct-indexes hard case, as opposed to
/// a pairs-class entanglement)?
fn has_multi_index(tac: &TacProgram, c: &RegShard) -> bool {
    let mut idxs: Vec<Operand> = Vec::new();
    let mut regs: Vec<RegId> = Vec::new();
    for &p in &c.culprits {
        if let TacInstr::RegRead { reg, idx, .. } | TacInstr::RegWrite { reg, idx, .. } =
            &tac.instrs[p]
        {
            if !idxs.contains(idx) {
                idxs.push(*idx);
            }
            if !regs.contains(reg) {
                regs.push(*reg);
            }
        }
    }
    regs.len() == 1 && idxs.len() > 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp5_compiler::{Layout, Target};

    #[test]
    fn diagnostics_carry_spans_and_codes() {
        let tac = mp5_lang::frontend(
            "struct Packet { int h; };
             int ptr = 0;
             int r[8];
             void func(struct Packet p) { r[ptr % 8] = 1; }",
        )
        .unwrap();
        let layout = Layout::new(&tac, &Target::default(), false).unwrap();
        let ds = diagnostics(&tac, &layout.transform.shards);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].code, Code::PINNED_STATEFUL_INDEX);
        assert!(
            ds[0].span.line >= 4,
            "span should hit the write: {:?}",
            ds[0].span
        );
    }
}
