//! Code generation: a [`Layout`] → the physical pipeline configuration.
//!
//! Every stage-layout decision (shard classes, the §3.3 tail-merge
//! fallback, the §3.4 flow-order stage, budget overruns) is made once,
//! in [`Layout::new`]. Code generation turns the layout's first overrun
//! into a [`CompileError`], or else stamps register metadata from it and
//! assembles the final [`CompiledProgram`]. A configured analyzer is
//! handed the same layout, so its report describes exactly this
//! program.

use mp5_lang::tac::TacProgram;
use mp5_lang::LangError;
use mp5_types::{RegId, StageId};

use crate::layout::Layout;
use crate::program::{AtomClass, CompiledProgram, RegMeta};
use crate::schedule::ScheduleError;
use crate::target::Target;

/// Compilation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Frontend (lex/parse/semantic) error.
    Lang(LangError),
    /// Pipelining error (e.g. cross-register atoms).
    Schedule(ScheduleError),
    /// The program needs more stages than the machine has: even after
    /// the shared-stage fallback (the resolution prologue alone
    /// overflows the pipeline), or for the flow-order stage.
    TooManyStages {
        /// Stages required (prologue + at least one body stage).
        needed: usize,
        /// Stages available.
        available: usize,
    },
    /// A stage exceeds the per-stage operation budget.
    TooManyOpsInStage {
        /// The overflowing physical stage.
        stage: usize,
        /// Operations required.
        needed: usize,
        /// Operations available.
        available: usize,
    },
    /// The pre-codegen analyzer ([`CompileOptions::analyzer`]) found
    /// error-level problems; compilation was not attempted.
    AnalysisRejected {
        /// Every diagnostic the analyzer produced (errors and below).
        diagnostics: Vec<mp5_lang::Diagnostic>,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Lang(e) => write!(f, "{e}"),
            CompileError::Schedule(e) => write!(f, "{e}"),
            CompileError::TooManyStages { needed, available } => {
                write!(f, "program needs {needed} stages, machine has {available}")
            }
            CompileError::TooManyOpsInStage {
                stage,
                needed,
                available,
            } => write!(
                f,
                "stage {stage} needs {needed} operations, machine allows {available}"
            ),
            CompileError::AnalysisRejected { diagnostics } => {
                let errors = diagnostics
                    .iter()
                    .filter(|d| d.severity >= mp5_lang::Severity::Error)
                    .count();
                match diagnostics
                    .iter()
                    .find(|d| d.severity >= mp5_lang::Severity::Error)
                {
                    Some(first) => write!(
                        f,
                        "analysis rejected the program ({errors} error{}): [{}] {}",
                        if errors == 1 { "" } else { "s" },
                        first.code,
                        first.message
                    ),
                    None => write!(f, "analysis rejected the program"),
                }
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<LangError> for CompileError {
    fn from(e: LangError) -> Self {
        CompileError::Lang(e)
    }
}

impl From<ScheduleError> for CompileError {
    fn from(e: ScheduleError) -> Self {
        CompileError::Schedule(e)
    }
}

/// Compiles DSL source text for the given target machine.
pub fn compile(source: &str, target: &Target) -> Result<CompiledProgram, CompileError> {
    let tac = mp5_lang::frontend(source)?;
    compile_tac(tac, target)
}

/// Name of the synthetic register added by
/// [`CompileOptions::enforce_flow_order`].
pub const FLOW_ORDER_REG: &str = "__flow_order";

/// How to build the flow-order key (§3.4's "dummy register state would
/// be indexed based on packet flow ids (e.g., hash of 5-tuple)").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowOrderSpec {
    /// Packet fields hashed into the flow key; all must be declared.
    pub key_fields: Vec<String>,
    /// Buckets in the dummy register array.
    pub buckets: u32,
}

impl Default for FlowOrderSpec {
    fn default() -> Self {
        FlowOrderSpec {
            key_fields: mp5_types::FlowKey::FIELD_NAMES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            buckets: 1024,
        }
    }
}

/// Optional compilation features.
#[derive(Debug, Clone, Default)]
pub struct CompileOptions {
    /// §3.4 "Handling starvation and packet re-ordering": append a dummy
    /// stateful operation, **in the final pipeline stage**, indexed by
    /// the flow hash. Its phantoms force every flow's packets back into
    /// arrival order right before they leave the pipeline, eliminating
    /// the reordering that stateless-over-stateful prioritization can
    /// otherwise cause (e.g. for NATs and stateful firewalls).
    pub enforce_flow_order: Option<FlowOrderSpec>,
    /// Optional pre-codegen analyzer (the `mp5-analysis` crate's
    /// `analyze_layout`, or any custom [`crate::report::AnalyzerFn`]).
    /// When set, it is handed the lowered TAC and the [`Layout`] code
    /// generation is about to emit, flow-order stage included: if the
    /// report contains error-level findings, compilation stops with
    /// [`CompileError::AnalysisRejected`]; otherwise the report is
    /// attached to [`CompiledProgram::analysis`].
    pub analyzer: Option<crate::report::AnalyzerFn>,
}

impl PartialEq for CompileOptions {
    fn eq(&self, other: &Self) -> bool {
        let analyzers_eq = match (self.analyzer, other.analyzer) {
            (None, None) => true,
            (Some(a), Some(b)) => std::ptr::fn_addr_eq(a, b),
            _ => false,
        };
        self.enforce_flow_order == other.enforce_flow_order && analyzers_eq
    }
}

impl Eq for CompileOptions {}

/// Compiles with optional features.
pub fn compile_with_options(
    source: &str,
    target: &Target,
    opts: &CompileOptions,
) -> Result<CompiledProgram, CompileError> {
    let mut tac = mp5_lang::frontend(source)?;
    if let Some(spec) = &opts.enforce_flow_order {
        append_flow_order(&mut tac, spec)?;
    }
    let layout = Layout::new(&tac, target, opts.enforce_flow_order.is_some());
    let report = opts
        .analyzer
        .map(|analyze| analyze(&tac, target, layout.as_ref()));
    if let Some(r) = &report {
        if r.has_errors() {
            return Err(CompileError::AnalysisRejected {
                diagnostics: r.diagnostics.clone(),
            });
        }
    }
    let mut prog = generate(tac, layout?, target)?;
    prog.analysis = report;
    Ok(prog)
}

/// Appends `__flow_order[hash(key fields) % buckets] = 0` to the TAC.
fn append_flow_order(tac: &mut TacProgram, spec: &FlowOrderSpec) -> Result<(), CompileError> {
    use mp5_lang::tac::{RegInfo, TacInstr};
    use mp5_lang::{Operand, TacExpr};

    let semantic = |message: String| {
        CompileError::Lang(LangError::Semantic {
            span: Default::default(),
            message,
        })
    };
    if tac.reg(FLOW_ORDER_REG).is_some() {
        return Err(semantic(format!(
            "flow-order enforcement adds register '{FLOW_ORDER_REG}', which the program \
             already declares"
        )));
    }
    let mut key_ops = Vec::new();
    for name in &spec.key_fields {
        let id = tac.field(name).ok_or_else(|| {
            semantic(format!(
                "flow-order enforcement requires packet field '{name}'"
            ))
        })?;
        key_ops.push(Operand::Field(id));
    }
    let fresh = |tac: &mut TacProgram, tag: usize| {
        let id = mp5_types::FieldId::from(tac.field_names.len());
        tac.field_names.push(format!("$fo{tag}"));
        id
    };
    // Fold the key fields into one hash operand.
    let mut acc = *key_ops.first().unwrap_or(&Operand::Const(0));
    for (i, op) in key_ops.iter().copied().enumerate().skip(1) {
        let dst = fresh(tac, i);
        tac.instrs.push(TacInstr::Assign {
            dst,
            expr: TacExpr::Hash2(acc, op),
        });
        tac.spans.push(Default::default());
        acc = Operand::Field(dst);
    }
    let reg = mp5_types::RegId::from(tac.regs.len());
    tac.regs.push(RegInfo {
        name: FLOW_ORDER_REG.to_string(),
        size: spec.buckets,
        init: vec![0; spec.buckets as usize],
    });
    tac.instrs.push(TacInstr::RegWrite {
        reg,
        idx: acc,
        val: Operand::Const(0),
        pred: None,
    });
    tac.spans.push(Default::default());
    Ok(())
}

/// Compiles an already-lowered three-address program.
pub fn compile_tac(tac: TacProgram, target: &Target) -> Result<CompiledProgram, CompileError> {
    let layout = Layout::new(&tac, target, false)?;
    generate(tac, layout, target)
}

/// Emits the program `layout` describes, or the error for its first
/// overrun.
fn generate(
    tac: TacProgram,
    mut layout: Layout,
    target: &Target,
) -> Result<CompiledProgram, CompileError> {
    if let Some(o) = layout.overruns.first() {
        return Err(o.error(target));
    }
    // A register declared but never referenced by any instruction is
    // not resident in any scheduled stage; park it in the first body
    // stage so its (initial) state still has a home. `validate()`
    // requires every register to be resident exactly where its
    // RegMeta.stage says.
    let home = |layout: &Layout, r: RegId| layout.stages.iter().position(|s| s.regs.contains(&r));
    for r in (0..tac.regs.len()).map(RegId::from) {
        if home(&layout, r).is_none() {
            layout.stages[0].regs.push(r);
        }
    }

    let atoms = classify_atoms(&tac, &layout.schedule);
    let regs: Vec<RegMeta> = tac
        .regs
        .iter()
        .enumerate()
        .map(|(ri, r)| {
            let reg = RegId::from(ri);
            let body_stage = home(&layout, reg).expect("every register is parked");
            RegMeta {
                name: r.name.clone(),
                size: r.size,
                init: r.init.clone(),
                stage: StageId((layout.prologue_stages + body_stage) as u16),
                shardable: layout.class(reg).is_shardable(),
                atom_class: atoms[ri],
            }
        })
        .collect();

    let mut field_names = tac.field_names.clone();
    field_names.extend(layout.transform.extra_fields);
    let prog = CompiledProgram {
        field_names,
        declared_fields: tac.declared_fields,
        regs,
        resolution: crate::program::ResolutionCode {
            instrs: layout.transform.resolution.instrs,
            plans: layout.plans,
            stages: layout.prologue_stages,
        },
        stages: layout.stages,
        tac,
        analysis: None,
    };
    debug_assert_eq!(prog.validate(), Ok(()));
    Ok(prog)
}

/// Classifies every register's stateful atom into the Banzai atom
/// hierarchy (diagnostics: which action-unit template the machine must
/// provide for this program).
fn classify_atoms(tac: &TacProgram, sched: &crate::schedule::Schedule) -> Vec<AtomClass> {
    use mp5_lang::TacInstr;
    let mut classes = vec![AtomClass::Stateless; tac.regs.len()];
    for cluster in &sched.clusters {
        let class = if cluster.regs.len() > 1 {
            AtomClass::Pairs
        } else {
            let mut reads = 0usize;
            let mut writes = 0usize;
            let mut preds: Vec<Option<mp5_lang::Operand>> = Vec::new();
            let mut alu_ops = 0usize;
            for &m in &cluster.members {
                match &tac.instrs[m] {
                    TacInstr::RegRead { pred, .. } => {
                        reads += 1;
                        if !preds.contains(pred) {
                            preds.push(*pred);
                        }
                    }
                    TacInstr::RegWrite { pred, .. } => {
                        writes += 1;
                        if !preds.contains(pred) {
                            preds.push(*pred);
                        }
                    }
                    TacInstr::Assign { .. } => alu_ops += 1,
                }
            }
            let distinct_preds = preds.iter().filter(|p| p.is_some()).count();
            match (reads, writes) {
                (_, 0) => AtomClass::Read,
                (0, _) => AtomClass::Write,
                _ if distinct_preds == 0 && alu_ops <= 2 => AtomClass::ReadModifyWrite,
                _ if distinct_preds == 0 => AtomClass::NestedIfs,
                _ if distinct_preds == 1 => AtomClass::PredicatedRmw,
                _ if distinct_preds == 2 => AtomClass::IfElseRmw,
                _ => AtomClass::NestedIfs,
            }
        };
        for &r in &cluster.regs {
            classes[r.index()] = class;
        }
    }
    classes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ResolvedAccess, REG_STAGE_SENTINEL};
    use mp5_types::Value;

    fn compiled(src: &str) -> CompiledProgram {
        compile(src, &Target::default()).unwrap()
    }

    const FIG3: &str = r#"
        struct Packet { int h1; int h2; int h3; int val; int mux; };
        int reg1[4] = {2, 4, 8, 16};
        int reg2[4] = {1, 3, 5, 7};
        int reg3[4] = {0};
        void func(struct Packet p) {
            p.val = (p.mux == 1) ? reg1[p.h1 % 4] : reg2[p.h2 % 4];
            reg3[p.h3 % 4] = (p.mux == 1)
                ? reg3[p.h3 % 4] * p.val
                : reg3[p.h3 % 4] + p.val;
        }
    "#;

    #[test]
    fn fig3_compiles_and_validates() {
        let p = compiled(FIG3);
        p.validate().unwrap();
        assert_eq!(p.regs.len(), 3);
        assert!(p.regs.iter().all(|r| r.shardable));
        assert!(p.num_stages() <= 16);
    }

    #[test]
    fn fig3_serial_execution_matches_tac() {
        let p = compiled(FIG3);
        let mut regs_c = p.initial_regs();
        let mut regs_t = p.tac.initial_regs();
        let inputs: Vec<Vec<Value>> = (0..50)
            .map(|i| vec![i, i * 3 + 1, i * 7 + 2, 0, i % 2])
            .collect();
        for inp in &inputs {
            let mut fc = vec![0; p.num_fields()];
            fc[..inp.len()].copy_from_slice(inp);
            p.execute_serial(&mut fc, &mut regs_c);
            let mut ft = vec![0; p.tac.field_names.len()];
            ft[..inp.len()].copy_from_slice(inp);
            p.tac.execute(&mut ft, &mut regs_t);
            assert_eq!(
                &fc[..p.declared_fields],
                &ft[..p.declared_fields],
                "packet state must match TAC semantics"
            );
        }
        assert_eq!(regs_c, regs_t, "register state must match TAC semantics");
    }

    #[test]
    fn fig3_resolution_predicts_accesses() {
        let p = compiled(FIG3);
        // mux=1: accesses reg1[h1%4] and reg3[h3%4], not reg2.
        let mut f = vec![0; p.num_fields()];
        f[0] = 1; // h1
        f[2] = 2; // h3
        f[4] = 1; // mux
        let acc = p.resolve(&mut f);
        let regs: Vec<(usize, u32)> = acc.iter().map(|a| (a.reg.index(), a.index)).collect();
        assert!(regs.contains(&(0, 1)), "reg1[1] expected: {regs:?}");
        assert!(regs.contains(&(2, 2)), "reg3[2] expected: {regs:?}");
        assert!(!regs.iter().any(|&(r, _)| r == 1), "reg2 not accessed");
        // Accesses must come out in ascending stage order.
        assert!(acc.windows(2).all(|w| w[0].stage <= w[1].stage));
    }

    #[test]
    fn resolution_matches_actual_execution_accesses() {
        // The set of (reg, index) the resolver predicts must equal what
        // serial execution actually touches, for non-speculative plans.
        let p = compiled(FIG3);
        let mut regs = p.initial_regs();
        for i in 0..100i64 {
            let inp = [i * 13 % 10, i * 29 % 10, i * 7 % 10, 0, i % 2];
            let mut f = vec![0; p.num_fields()];
            f[..5].copy_from_slice(&inp);
            let predicted: Vec<(RegId, u32)> = p
                .resolve(&mut f.clone())
                .into_iter()
                .filter(|a| !a.speculative)
                .map(|a| (a.reg, a.index))
                .collect();
            let actual = p.execute_serial(&mut f, &mut regs);
            let actual: Vec<(RegId, u32)> = actual.into_iter().map(|a| (a.reg, a.index)).collect();
            let mut ps = predicted.clone();
            let mut as_ = actual.clone();
            ps.sort();
            as_.sort();
            assert_eq!(ps, as_, "resolution must predict exactly the real accesses");
        }
    }

    #[test]
    fn tiny_target_triggers_shared_stage_fallback() {
        // Three registers in a chain need >= 3 body stages + prologue;
        // a 4-stage machine forces merging, which pins registers.
        let src = "struct Packet { int h; };
             int a[4];
             int b[4];
             int c[4];
             void func(struct Packet p) {
                 a[p.h % 4] = a[p.h % 4] + 1;
                 b[p.h % 4] = b[p.h % 4] + 1;
                 c[p.h % 4] = c[p.h % 4] + 1;
             }";
        let full = compile(src, &Target::default()).unwrap();
        assert!(full.regs.iter().all(|r| r.shardable));
        let needed = full.num_stages();
        let squeezed = compile(
            src,
            &Target {
                max_stages: needed - 1,
                ..Target::default()
            },
        )
        .unwrap();
        squeezed.validate().unwrap();
        assert!(squeezed.num_stages() < needed);
        assert!(
            squeezed.regs.iter().any(|r| !r.shardable),
            "merged stages must pin their registers"
        );
        // Stage-level plan exists.
        assert!(squeezed
            .resolution
            .plans
            .iter()
            .any(|p| p.reg == REG_STAGE_SENTINEL));
        // Semantics are preserved.
        let mut r1 = full.initial_regs();
        let mut r2 = squeezed.initial_regs();
        for i in 0..20i64 {
            let mut f1 = vec![0; full.num_fields()];
            f1[0] = i;
            full.execute_serial(&mut f1, &mut r1);
            let mut f2 = vec![0; squeezed.num_fields()];
            f2[0] = i;
            squeezed.execute_serial(&mut f2, &mut r2);
        }
        assert_eq!(r1, r2);
    }

    #[test]
    fn impossible_budget_errors() {
        let err = compile(
            "struct Packet { int h; };
             int a[4];
             void func(struct Packet p) { a[p.h % 4] = a[p.h % 4] + hash2(p.h, 3); }",
            &Target::tiny(1),
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::TooManyStages { .. }), "{err}");
    }

    #[test]
    fn ops_budget_enforced() {
        // 20 independent ops in one stage with an 8-op budget.
        let mut body = String::new();
        for i in 0..20 {
            body.push_str(&format!("p.f{i} = p.f{i} + 1;\n"));
        }
        let mut fields = String::new();
        for i in 0..20 {
            fields.push_str(&format!("int f{i};\n"));
        }
        let src = format!(
            "struct Packet {{ {fields} }};
             void func(struct Packet p) {{ {body} }}"
        );
        let err = compile(&src, &Target::tiny(16)).unwrap_err();
        assert!(
            matches!(err, CompileError::TooManyOpsInStage { .. }),
            "{err}"
        );
    }

    #[test]
    fn lang_errors_propagate() {
        assert!(matches!(
            compile("not a program", &Target::default()),
            Err(CompileError::Lang(_))
        ));
    }

    #[test]
    fn global_counter_resolution_is_const_index() {
        let p = compiled(
            "struct Packet { int seq; };
             int count = 0;
             void func(struct Packet p) { count = count + 1; p.seq = count; }",
        );
        let mut f = vec![0; p.num_fields()];
        let acc = p.resolve(&mut f);
        assert_eq!(
            acc,
            vec![ResolvedAccess {
                stage: p.regs[0].stage,
                reg: RegId(0),
                index: 0,
                speculative: false,
            }]
        );
    }

    #[test]
    fn speculative_flag_set_for_stateful_predicate() {
        let p = compiled(
            "struct Packet { int h; };
             int gate = 1;
             int r[8];
             void func(struct Packet p) {
                 if (gate > 0) { r[p.h % 8] = 1; }
             }",
        );
        let mut f = vec![0; p.num_fields()];
        let acc = p.resolve(&mut f);
        let racc = acc.iter().find(|a| a.reg.index() == 1).unwrap();
        assert!(racc.speculative);
    }
}

#[cfg(test)]
mod atom_tests {
    use super::*;
    use crate::program::AtomClass;

    fn class_of(src: &str, reg: &str) -> AtomClass {
        let p = compile(src, &Target::default()).unwrap();
        let r = p.reg(reg).unwrap();
        p.regs[r.index()].atom_class
    }

    #[test]
    fn counter_is_rmw() {
        assert_eq!(
            class_of(
                "struct Packet { int s; };
                 int c = 0;
                 void func(struct Packet p) { c = c + 1; p.s = c; }",
                "c"
            ),
            AtomClass::ReadModifyWrite
        );
    }

    #[test]
    fn read_only_and_write_only() {
        let src = "struct Packet { int h; int o; };
             int lut[8] = {1,2,3,4,5,6,7,8};
             int log[8] = {0};
             void func(struct Packet p) {
                 p.o = lut[p.h % 8];
                 log[p.h % 8] = p.h;
             }";
        assert_eq!(class_of(src, "lut"), AtomClass::Read);
        assert_eq!(class_of(src, "log"), AtomClass::Write);
    }

    #[test]
    fn predicated_update_is_pred_rmw() {
        assert_eq!(
            class_of(
                "struct Packet { int h; int o; };
                 int r[8] = {0};
                 void func(struct Packet p) {
                     if (p.h > 4) { r[p.h % 8] = r[p.h % 8] + 1; }
                     p.o = 1;
                 }",
                "r"
            ),
            AtomClass::PredicatedRmw
        );
    }

    #[test]
    fn two_branch_update_is_ifelse_rmw() {
        // Figure 3's reg3: reads under c and !c plus an unconditional
        // write — two distinct predicates.
        assert_eq!(
            class_of(
                "struct Packet { int h; int v; int m; };
                 int r[4] = {0};
                 void func(struct Packet p) {
                     r[p.h % 4] = (p.m == 1) ? r[p.h % 4] * p.v : r[p.h % 4] + p.v;
                 }",
                "r"
            ),
            AtomClass::IfElseRmw
        );
    }

    #[test]
    fn entangled_registers_are_pairs() {
        let src = "struct Packet { int h; int o; };
             int a[4] = {0};
             int b[4] = {0};
             void func(struct Packet p) {
                 int t = a[p.h % 4] + b[p.h % 4];
                 a[p.h % 4] = t;
                 b[p.h % 4] = t;
                 p.o = t;
             }";
        assert_eq!(class_of(src, "a"), AtomClass::Pairs);
        assert_eq!(class_of(src, "b"), AtomClass::Pairs);
    }

    #[test]
    fn class_ordering_reflects_complexity() {
        assert!(AtomClass::Read < AtomClass::ReadModifyWrite);
        assert!(AtomClass::ReadModifyWrite < AtomClass::PredicatedRmw);
        assert!(AtomClass::PredicatedRmw < AtomClass::IfElseRmw);
        assert!(AtomClass::IfElseRmw < AtomClass::Pairs);
        assert_eq!(AtomClass::Pairs.to_string(), "pairs");
    }
}
