//! Resource pressure of the compiler's [`Layout`] against a [`Target`].
//!
//! The layout already records every stage and operation budget it
//! exceeds, after the §3.3 tail-merge fallback and the §3.4 flow-order
//! stage; this module turns those overruns into diagnostics that say
//! which budget broke and by how much. SRAM is the one budget code
//! generation does not model. It follows §4.2: each register slot costs
//! the 64-bit value word plus `mp5-asic`'s 30 bits of per-index sharding
//! metadata.

use mp5_compiler::{Layout, Overrun, PressureEstimate, Target, FLOW_ORDER_REG};
use mp5_lang::tac::TacProgram;
use mp5_lang::{Code, Diagnostic};

/// Bits of SRAM one register slot occupies: the 64-bit data word plus
/// the per-index sharding metadata from the paper's ASIC model (§4.2).
pub const SRAM_BITS_PER_SLOT: u64 = 64 + 30;

/// Measures `layout` against every budget of `target`: the estimate,
/// and one error per budget exceeded.
pub fn estimate(
    tac: &TacProgram,
    layout: &Layout,
    target: &Target,
) -> (PressureEstimate, Vec<Diagnostic>) {
    let prologue_stages = layout.prologue_stages;
    let mut diagnostics: Vec<Diagnostic> = layout
        .overruns
        .iter()
        .map(|o| match *o {
            Overrun::Stages { needed } => Diagnostic::error(
                Code::TOO_MANY_STAGES,
                Default::default(),
                format!(
                    "program needs {needed} stages ({prologue_stages} prologue + {} body) \
                     even after merging every body stage; the target has {}",
                    layout.stages.len(),
                    target.max_stages
                ),
            )
            .with_note(
                "the address-resolution prologue cannot be merged: shrink the \
                 program's dependent state chain or raise Target::max_stages",
            ),
            Overrun::FlowOrderStage { needed } => Diagnostic::error(
                Code::TOO_MANY_STAGES,
                Default::default(),
                format!(
                    "program needs {needed} stages: flow-order enforcement gives \
                     '{FLOW_ORDER_REG}' a final stage of its own; the target has {}",
                    target.max_stages
                ),
            ),
            Overrun::Ops { stage, needed } => Diagnostic::error(
                Code::TOO_MANY_OPS,
                Default::default(),
                format!(
                    "stage {stage} holds {needed} operations, the target allows {} per stage",
                    target.max_ops_per_stage
                ),
            ),
        })
        .collect();

    let sram_bits: Vec<u64> = tac
        .regs
        .iter()
        .map(|r| r.size as u64 * SRAM_BITS_PER_SLOT)
        .collect();
    for (si, stage) in layout.stages.iter().enumerate() {
        let bits: u64 = stage.regs.iter().map(|r| sram_bits[r.index()]).sum();
        if bits > target.max_sram_bits_per_stage {
            let names: Vec<&str> = stage
                .regs
                .iter()
                .map(|r| tac.regs[r.index()].name.as_str())
                .collect();
            diagnostics.push(Diagnostic::error(
                Code::SRAM_OVERFLOW,
                Default::default(),
                format!(
                    "stage {} needs {bits} SRAM bits for register(s) '{}' \
                     ({} bits/slot incl. sharding metadata); the target \
                     provides {} bits per stage",
                    prologue_stages + si,
                    names.join("', '"),
                    SRAM_BITS_PER_SLOT,
                    target.max_sram_bits_per_stage
                ),
            ));
        }
    }

    let estimate = PressureEstimate {
        prologue_stages,
        body_stages: layout.stages.len(),
        total_stages: layout.total_stages(),
        max_stages: target.max_stages,
        peak_stage_ops: layout
            .stages
            .iter()
            .map(|s| s.instrs.len())
            .max()
            .unwrap_or(0),
        max_ops_per_stage: target.max_ops_per_stage,
        predicted_merges: layout.merges,
        sram_bits,
        max_sram_bits_per_stage: target.max_sram_bits_per_stage,
        fits: diagnostics.is_empty(),
    };
    (estimate, diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp5_lang::frontend;

    fn pressure_of(src: &str, target: &Target) -> (PressureEstimate, Vec<Diagnostic>) {
        let tac = frontend(src).unwrap();
        estimate(&tac, &Layout::new(&tac, target, false).unwrap(), target)
    }

    const CHAIN3: &str = "struct Packet { int h; };
         int a[4];
         int b[4];
         int c[4];
         void func(struct Packet p) {
             a[p.h % 4] = a[p.h % 4] + 1;
             b[p.h % 4] = b[p.h % 4] + 1;
             c[p.h % 4] = c[p.h % 4] + 1;
         }";

    #[test]
    fn small_program_fits_default_target() {
        let (p, diags) = pressure_of(CHAIN3, &Target::default());
        assert!(p.fits, "{diags:?}");
        assert_eq!(p.predicted_merges, 0);
        assert_eq!(p.sram_bits, vec![4 * 94; 3]);
    }

    #[test]
    fn impossible_stage_budget_is_an_error() {
        let (p, diags) = pressure_of(
            "struct Packet { int h; };
             int a[4];
             void func(struct Packet p) { a[p.h % 4] = a[p.h % 4] + hash2(p.h, 3); }",
            &Target::tiny(1),
        );
        assert!(!p.fits);
        assert!(diags.iter().any(|d| d.code == Code::TOO_MANY_STAGES));
    }

    #[test]
    fn ops_budget_is_checked() {
        let mut body = String::new();
        let mut fields = String::new();
        for i in 0..20 {
            body.push_str(&format!("p.f{i} = p.f{i} + 1;\n"));
            fields.push_str(&format!("int f{i};\n"));
        }
        let src = format!(
            "struct Packet {{ {fields} }};
             void func(struct Packet p) {{ {body} }}"
        );
        let (_, diags) = pressure_of(&src, &Target::tiny(16));
        assert!(diags.iter().any(|d| d.code == Code::TOO_MANY_OPS));
    }

    #[test]
    fn sram_budget_is_checked() {
        let (p, diags) = pressure_of(
            "struct Packet { int h; };
             int big[100000];
             void func(struct Packet p) { big[p.h % 100000] = 1; }",
            &Target::default(),
        );
        assert!(diags.iter().any(|d| d.code == Code::SRAM_OVERFLOW));
        assert_eq!(p.sram_bits, vec![100000 * 94]);
    }
}
