//! `mp5-analysis` — static program analysis between TAC and codegen.
//!
//! The MP5 compiler's all-or-nothing guarantee (a program either runs at
//! line rate or does not compile) lives or dies by the quality of its
//! static feedback. This crate renders the compiler's own stage-layout
//! decision ([`Layout`]) for a lowered [`TacProgram`] on a [`Target`] as
//! a structured [`AnalysisReport`]. It decides nothing about the layout
//! itself, so a clean report means the program compiles, and the
//! report's classes and stage counts are the compiled program's:
//!
//! * **Shardability** ([`shard`]): the transformer's class of every
//!   register array — `Shardable`, `PinnedStatefulIndex`,
//!   `PinnedCoResident`, or `PinnedStatefulPredicate` (paper §3.3) — with
//!   the responsible TAC instructions, plus arrays the tail merge pinned.
//! * **Hazards / D4** ([`hazard`]): verifies every stateful access's
//!   address is resolvable in the prologue and the phantom plan covers
//!   every stateful stage; flags accesses whose serial order degrades to
//!   array-level serialization.
//! * **Resource pressure** ([`pressure`]): the layout's stages,
//!   per-stage operations and budget overruns, plus SRAM (which code
//!   generation does not model), so oversize programs fail with a
//!   precise explanation.
//!
//! All findings are span-carrying [`Diagnostic`]s with stable `MP5xxx`
//! codes, rendered rustc-style by `mp5-lang`'s diagnostics engine. The
//! `mp5lint` binary drives this over `.mp5` sources; [`analyze_layout`]
//! plugs into `mp5_compiler::CompileOptions::analyzer` so
//! `compile_with_options` can gate compilation on a clean report of the
//! layout it is about to emit (flow-order stage included) and attach it
//! to the [`CompiledProgram`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hazard;
pub mod json;
pub mod pressure;
pub mod shard;

use mp5_compiler::schedule::ScheduleError;
use mp5_compiler::{
    AnalysisReport, CompileError, CompileOptions, CompiledProgram, Layout, RegAnalysis, Target,
};
use mp5_lang::tac::{TacInstr, TacProgram};
use mp5_lang::{Code, Diagnostic, Span};
use mp5_types::RegId;

pub use mp5_compiler::ShardClass;

/// Analyzes a lowered program against a target, as compiled without
/// flow-order enforcement.
pub fn analyze_tac(tac: &TacProgram, target: &Target) -> AnalysisReport {
    analyze_layout(tac, target, Layout::new(tac, target, false).as_ref())
}

/// Renders the compiler's layout of `tac` on `target` (or why it could
/// not be scheduled) as a report.
///
/// This has the [`mp5_compiler::AnalyzerFn`] signature, so it can be
/// plugged straight into [`CompileOptions::analyzer`].
pub fn analyze_layout(
    tac: &TacProgram,
    target: &Target,
    layout: Result<&Layout, &ScheduleError>,
) -> AnalysisReport {
    let layout = match layout {
        Ok(layout) => layout,
        Err(e) => return schedule_failure_report(tac, e),
    };
    let shards = &layout.transform.shards;
    let mut diagnostics = shard::diagnostics(tac, shards);
    let (covered, hazards) = hazard::plan_hazards(tac, layout);
    diagnostics.extend(hazards);
    let (pressure, budget) = pressure::estimate(tac, layout, target);
    diagnostics.extend(budget);
    for &r in &layout.merge_pinned {
        diagnostics.push(Diagnostic::warning(
            Code::PINNED_CO_RESIDENT,
            first_access_span(tac, Some(r)),
            format!(
                "register '{}' will be pinned by the stage-merge fallback: \
                 the program exceeds the stage budget, so codegen co-locates \
                 tail stages",
                tac.regs[r.index()].name
            ),
        ));
    }

    let regs = shards
        .iter()
        .enumerate()
        .map(|(ri, s)| RegAnalysis {
            reg: RegId::from(ri),
            name: tac.regs[ri].name.clone(),
            size: tac.regs[ri].size,
            class: layout.class(RegId::from(ri)),
            culprits: s.culprits.clone(),
            speculative: s.speculative,
            covered: covered[ri],
        })
        .collect();

    sort_diags(&mut diagnostics);
    AnalysisReport {
        regs,
        pressure: Some(pressure),
        diagnostics,
    }
}

/// Report for a program that cannot even be scheduled.
fn schedule_failure_report(tac: &TacProgram, e: &ScheduleError) -> AnalysisReport {
    let mut diagnostics = Vec::new();
    let mut regs: Vec<RegAnalysis> = tac
        .regs
        .iter()
        .enumerate()
        .map(|(ri, r)| RegAnalysis {
            reg: RegId::from(ri),
            name: r.name.clone(),
            size: r.size,
            class: ShardClass::Shardable,
            culprits: Vec::new(),
            speculative: false,
            covered: false,
        })
        .collect();
    match e {
        ScheduleError::CrossRegisterAtom { regs: names } => {
            let mut span = Span::default();
            for (ri, r) in tac.regs.iter().enumerate() {
                if names.contains(&r.name) {
                    regs[ri].class = ShardClass::PinnedCoResident;
                    regs[ri].culprits = access_positions(tac, Some(RegId::from(ri))).collect();
                    if span == Span::default() {
                        span = first_access_span(tac, Some(RegId::from(ri)));
                    }
                }
            }
            diagnostics.push(Diagnostic::error(
                Code::PAIRS_UNSUPPORTED,
                span,
                format!(
                    "registers '{}' are entangled by one atomic operation, but the \
                     target provides no pairs-class atoms",
                    names.join("', '")
                ),
            ));
        }
        other => diagnostics.push(Diagnostic::error(
            Code::INTERNAL,
            Span::default(),
            format!("pipelining failed: {other}"),
        )),
    }
    AnalysisReport {
        regs,
        pressure: None,
        diagnostics,
    }
}

/// TAC positions of the stateful accesses to `reg` (to any register when
/// `None`).
pub(crate) fn access_positions(
    tac: &TacProgram,
    reg: Option<RegId>,
) -> impl Iterator<Item = usize> + '_ {
    tac.instrs
        .iter()
        .enumerate()
        .filter_map(move |(p, i)| match i {
            TacInstr::RegRead { reg: r, .. } | TacInstr::RegWrite { reg: r, .. }
                if reg.is_none_or(|want| *r == want) =>
            {
                Some(p)
            }
            _ => None,
        })
}

/// Span of the first stateful access to `reg` (to any register when
/// `None`), for diagnostic placement.
pub(crate) fn first_access_span(tac: &TacProgram, reg: Option<RegId>) -> Span {
    access_positions(tac, reg)
        .next()
        .map(|p| tac.span_of(p))
        .unwrap_or_default()
}

/// Stable order: by source position, then code (diagnostics without a
/// span sort last within their line group).
fn sort_diags(diags: &mut [Diagnostic]) {
    diags.sort_by_key(|d| (d.span.line, d.span.col, d.code));
}

/// Result of analyzing raw source text.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceAnalysis {
    /// Frontend diagnostics followed by analysis findings, in source
    /// order.
    pub diagnostics: Vec<Diagnostic>,
    /// The analysis report; `None` when frontend errors prevented
    /// lowering.
    pub report: Option<AnalysisReport>,
}

impl SourceAnalysis {
    /// Does any diagnostic have error severity?
    pub fn has_errors(&self) -> bool {
        mp5_lang::diag::has_errors(&self.diagnostics)
    }
}

/// Parses, checks, lowers, and analyzes source text, accumulating every
/// diagnostic along the way (the `mp5lint` entry point).
pub fn analyze_source(source: &str, target: &Target) -> SourceAnalysis {
    let (tac, mut diagnostics) = mp5_lang::frontend_diagnostics(source);
    let report = tac.map(|tac| analyze_tac(&tac, target));
    if let Some(r) = &report {
        diagnostics.extend(r.diagnostics.iter().cloned());
    }
    sort_diags(&mut diagnostics);
    SourceAnalysis {
        diagnostics,
        report,
    }
}

/// Compiles with the analyzer in the loop: the report gates compilation
/// (error findings abort with [`CompileError::AnalysisRejected`]) and is
/// attached to the compiled program.
pub fn compile_with_analysis(
    source: &str,
    target: &Target,
) -> Result<CompiledProgram, CompileError> {
    let opts = CompileOptions {
        analyzer: Some(analyze_layout),
        ..CompileOptions::default()
    };
    mp5_compiler::compile_with_options(source, target, &opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_program_produces_clean_report() {
        let tac = mp5_lang::frontend(
            "struct Packet { int h; };
             int r[8];
             void func(struct Packet p) { r[p.h % 8] = r[p.h % 8] + 1; }",
        )
        .unwrap();
        let report = analyze_tac(&tac, &Target::default());
        assert!(!report.has_errors());
        assert_eq!(report.shardable_count(), 1);
        assert!(report.regs[0].covered);
        assert!(report.pressure.as_ref().unwrap().fits);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn stateful_index_is_reported_not_fatal() {
        let report = analyze_source(
            "struct Packet { int h; };
             int ptr = 0;
             int r[8];
             void func(struct Packet p) { r[ptr % 8] = 1; }",
            &Target::default(),
        );
        assert!(!report.has_errors(), "pinning is a warning, not an error");
        let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::PINNED_STATEFUL_INDEX), "{codes:?}");
        assert!(
            codes.contains(&Code::ARRAY_LEVEL_SERIALIZATION),
            "{codes:?}"
        );
        let r = report.report.unwrap();
        assert_eq!(
            r.reg_by_name("r").unwrap().class,
            ShardClass::PinnedStatefulIndex
        );
        assert_eq!(r.reg_by_name("ptr").unwrap().class, ShardClass::Shardable);
    }

    #[test]
    fn frontend_errors_flow_through() {
        let report = analyze_source(
            "struct Packet { int a; };
             void func(struct Packet p) { p.b = 1; }",
            &Target::default(),
        );
        assert!(report.has_errors());
        assert!(report.report.is_none());
        assert_eq!(report.diagnostics[0].code, Code::UNKNOWN_FIELD);
    }

    #[test]
    fn pairs_without_pairs_atoms_is_an_error() {
        let src = "struct Packet { int h; int o; };
             int a[4] = {0};
             int b[4] = {0};
             void func(struct Packet p) {
                 int t = a[p.h % 4] + b[p.h % 4];
                 a[p.h % 4] = t;
                 b[p.h % 4] = t;
                 p.o = t;
             }";
        let no_pairs = Target {
            allow_pairs: false,
            ..Target::default()
        };
        let report = analyze_source(src, &no_pairs);
        assert!(report.has_errors());
        let codes: Vec<Code> = report.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&Code::PAIRS_UNSUPPORTED), "{codes:?}");
        // With pairs atoms it is merely pinned.
        let report = analyze_source(src, &Target::default());
        assert!(!report.has_errors());
    }

    #[test]
    fn analyzer_hook_attaches_report() {
        let prog = compile_with_analysis(
            "struct Packet { int h; };
             int r[8];
             void func(struct Packet p) { r[p.h % 8] = r[p.h % 8] + 1; }",
            &Target::default(),
        )
        .unwrap();
        let report = prog.analysis.as_ref().expect("report attached");
        assert_eq!(report.shardable_count(), 1);
    }

    #[test]
    fn analyzer_hook_rejects_oversize_programs() {
        let err = compile_with_analysis(
            "struct Packet { int h; };
             int big[100000];
             void func(struct Packet p) { big[p.h % 100000] = 1; }",
            &Target::default(),
        )
        .unwrap_err();
        match err {
            CompileError::AnalysisRejected { diagnostics } => {
                assert!(diagnostics.iter().any(|d| d.code == Code::SRAM_OVERFLOW));
            }
            other => panic!("expected AnalysisRejected, got {other:?}"),
        }
        // The same program compiles without the analyzer (codegen does
        // not model SRAM) — exactly the gap the analyzer closes.
        assert!(mp5_compiler::compile(
            "struct Packet { int h; };
             int big[100000];
             void func(struct Packet p) { big[p.h % 100000] = 1; }",
            &Target::default()
        )
        .is_ok());
    }

    #[test]
    fn merge_pinning_is_reflected_in_report() {
        let src = "struct Packet { int h; };
             int a[4];
             int b[4];
             int c[4];
             void func(struct Packet p) {
                 a[p.h % 4] = a[p.h % 4] + 1;
                 b[p.h % 4] = b[p.h % 4] + 1;
                 c[p.h % 4] = c[p.h % 4] + 1;
             }";
        let full = mp5_compiler::compile(src, &Target::default()).unwrap();
        let squeezed = Target {
            max_stages: full.num_stages() - 1,
            ..Target::default()
        };
        let tac = mp5_lang::frontend(src).unwrap();
        let report = analyze_tac(&tac, &squeezed);
        assert!(!report.has_errors());
        let pinned = report
            .regs
            .iter()
            .filter(|r| r.class == ShardClass::PinnedCoResident)
            .count();
        assert!(pinned >= 2, "{:?}", report.regs);
        // Matches what codegen actually does.
        let compiled = mp5_compiler::compile(src, &squeezed).unwrap();
        for (ra, meta) in report.regs.iter().zip(&compiled.regs) {
            assert_eq!(ra.class.is_shardable(), meta.shardable, "{}", meta.name);
        }
    }
}
