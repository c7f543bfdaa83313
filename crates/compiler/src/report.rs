//! The analysis report attached to a [`crate::CompiledProgram`] (data
//! model only).
//!
//! The analyzer that fills it in lives in the `mp5-analysis` crate; only
//! the data model lives here, so that [`crate::compile_with_options`]
//! can attach a report without a dependency cycle between the compiler
//! and the analyzer.
//!
//! The analyzer decides nothing about the stage layout: it is handed the
//! compiler's own [`Layout`] record (shard classes and culprits, tail
//! merges, the flow-order stage, budget overruns) and turns it into
//! diagnostics, adding only what code generation does not model (SRAM,
//! source spans, notes). The report answers three questions:
//!
//! 1. **Shardability** (§3.3): can each register array be dynamically
//!    sharded across pipelines (design principle D2), or must it be
//!    pinned to one pipeline — and *which TAC instructions* force the
//!    pinning?
//! 2. **Hazards / D4 preconditions**: is every stateful access's address
//!    resolvable in the prologue, and does the phantom-packet plan cover
//!    every stateful stage so serial order can be frozen pre-emptively?
//! 3. **Resource pressure**: how many stages / operations / SRAM bits
//!    the layout needs versus what the [`crate::Target`] provides.

use mp5_lang::Diagnostic;
use mp5_types::RegId;

use crate::layout::Layout;
use crate::schedule::ScheduleError;
use crate::transform::ShardClass;

/// Signature of an analyzer pluggable into
/// [`crate::CompileOptions::analyzer`]: it is given the lowered program,
/// the target and the compiler's layout of it (or why scheduling
/// failed), and renders them as a report.
///
/// A plain function pointer (not a trait object) so `CompileOptions`
/// keeps its `Clone + PartialEq + Eq` derives.
pub type AnalyzerFn =
    fn(&mp5_lang::TacProgram, &crate::Target, Result<&Layout, &ScheduleError>) -> AnalysisReport;

/// Analysis result for one register array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegAnalysis {
    /// Which register array.
    pub reg: RegId,
    /// Its source name.
    pub name: String,
    /// Element count.
    pub size: u32,
    /// Shardability classification.
    pub class: ShardClass,
    /// TAC instruction positions (indexes into `TacProgram::instrs`)
    /// responsible for a pinned classification. Empty for `Shardable`.
    pub culprits: Vec<usize>,
    /// Whether the access uses a *speculative* phantom plan (stateful
    /// predicate resolved by phantoming both branches — shardable, but
    /// worth surfacing as a performance note).
    pub speculative: bool,
    /// Whether the D4 phantom plan covers this array's stateful stage
    /// (an uncovered stage means serial order cannot be frozen).
    pub covered: bool,
}

/// Resource consumption of the compiler's layout versus a
/// [`crate::Target`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PressureEstimate {
    /// Address-resolution prologue stages.
    pub prologue_stages: usize,
    /// Body stages after the tail-merge fallback and the flow-order
    /// stage.
    pub body_stages: usize,
    /// Total physical stages (`prologue + body`).
    pub total_stages: usize,
    /// Stage budget of the target.
    pub max_stages: usize,
    /// Largest per-stage operation count after merging.
    pub peak_stage_ops: usize,
    /// Per-stage operation budget of the target.
    pub max_ops_per_stage: usize,
    /// Body-stage merges of the tail-merge fallback (each merge pins the
    /// co-resident arrays of the merged stage).
    pub predicted_merges: usize,
    /// SRAM bits per register array (data + per-index metadata).
    pub sram_bits: Vec<u64>,
    /// Per-stage SRAM budget of the target.
    pub max_sram_bits_per_stage: u64,
    /// Whether the program fits the target on every axis.
    pub fits: bool,
}

/// The full pre-codegen analysis report.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AnalysisReport {
    /// Per-register shardability and coverage results, indexed by
    /// [`RegId`].
    pub regs: Vec<RegAnalysis>,
    /// Resource-pressure estimate; `None` when the program could not be
    /// scheduled at all (the diagnostics then explain why).
    pub pressure: Option<PressureEstimate>,
    /// All findings, in program order (by source span, then code).
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Does any finding have error severity?
    pub fn has_errors(&self) -> bool {
        mp5_lang::diag::has_errors(&self.diagnostics)
    }

    /// Number of findings at warning severity or above.
    pub fn warning_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity >= mp5_lang::Severity::Warning)
            .count()
    }

    /// Looks up the analysis entry for a register by name.
    pub fn reg_by_name(&self, name: &str) -> Option<&RegAnalysis> {
        self.regs.iter().find(|r| r.name == name)
    }

    /// How many arrays the analyzer classified as shardable.
    pub fn shardable_count(&self) -> usize {
        self.regs.iter().filter(|r| r.class.is_shardable()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_clean() {
        let r = AnalysisReport::default();
        assert!(!r.has_errors());
        assert_eq!(r.warning_count(), 0);
        assert_eq!(r.shardable_count(), 0);
        assert!(r.reg_by_name("x").is_none());
    }
}
