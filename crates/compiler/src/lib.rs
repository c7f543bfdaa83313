//! The MP5 compiler.
//!
//! Compiles three-address code (the output of `mp5-lang`'s *Preprocessing*
//! phase) down to a [`CompiledProgram`] that both the single-pipeline
//! Banzai reference switch and the MP5 multi-pipeline switch execute.
//! Following the paper's Figure 5, compilation proceeds through:
//!
//! 1. **Pipelining** ([`schedule`]): dependency-driven assignment of
//!    instructions to stages of a *Pipelined Virtual Switch Machine*
//!    (PVSM) — a switch pipeline with no resource limits. All operations
//!    touching one register array are fused into a single-stage atomic
//!    cluster (Banzai's "atomic state operations finish within one
//!    pipeline stage"), and each stateful stage holds exactly one
//!    register array (serializing multi-array access across stages, per
//!    §3.3).
//! 2. **PVSM-to-PVSM transformation** ([`transform`]): MP5's addition.
//!    Hoists match/predicate/index evaluation into an *address
//!    resolution* prologue at the head of the pipeline and plans phantom
//!    packet generation, handling the three hard cases of §3.3:
//!    stateful predicates (speculative phantoms for both branches),
//!    stateful index computations (array pinned to one pipeline,
//!    no sharding), and multiple distinct indexes (array pinned). It
//!    records each register's verdict and the TAC positions behind it.
//! 3. **Layout** ([`layout`]): assembles the body stages against the
//!    physical machine's resource limits ([`target::Target`]) — the
//!    tail-merge fallback for insufficient stages (co-resident arrays
//!    pinned, stage-level phantoms) and the §3.4 flow-order stage — and
//!    records every budget it exceeds.
//! 4. **Code generation** ([`codegen`]): rejects a layout that exceeds a
//!    budget, or emits the final [`CompiledProgram`] from it. The
//!    optional analyzer (`mp5-analysis`) reads the same layout.
//!
//! The compiled artifact is *one* program: MP5's design principle D1
//! (processing homogeneity) replicates it onto every pipeline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codegen;
pub mod kernel;
pub mod layout;
pub mod program;
pub mod report;
pub mod schedule;
pub mod slice;
pub mod target;
pub mod transform;

pub use codegen::{
    compile, compile_tac, compile_with_options, CompileError, CompileOptions, FlowOrderSpec,
    FLOW_ORDER_REG,
};
pub use kernel::{BatchRegs, FieldMatrix, LaneAccess, LaneFields};
pub use layout::{Layout, Overrun};
pub use program::{
    AccessPlan, CompiledProgram, IdxPlan, PredPlan, ResolutionCode, ResolvedAccess, StageCode,
};
pub use report::{AnalysisReport, AnalyzerFn, PressureEstimate, RegAnalysis};
pub use target::Target;
pub use transform::{RegShard, ShardClass};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_counter_compiles() {
        let prog = compile(
            "struct Packet { int seq; };
             int count = 0;
             void func(struct Packet p) {
                 count = count + 1;
                 p.seq = count;
             }",
            &Target::default(),
        )
        .expect("counter must compile");
        assert_eq!(prog.regs.len(), 1);
        assert!(prog.num_stages() <= Target::default().max_stages);
        // One stateful stage for `count`.
        assert_eq!(prog.stages.iter().filter(|s| !s.regs.is_empty()).count(), 1);
    }
}
