//! The compiled program representation executed by every switch model.

use mp5_lang::tac::{StateAccess, TacInstr};
use mp5_lang::{Operand, TacProgram};
use mp5_types::{RegId, StageId, Value};

/// Sentinel register id for *stage-level* access plans (used when code
/// generation had to co-locate several register arrays in one stage and
/// serialize every packet through it).
pub const REG_STAGE_SENTINEL: RegId = RegId(u16::MAX);

/// Sentinel index meaning "the whole array" (array-level phantom for
/// pinned registers whose concrete index cannot be resolved
/// preemptively).
pub const INDEX_ARRAY_LEVEL: u32 = u32::MAX;

/// Metadata about a register array in the compiled program.
#[derive(Debug, Clone, PartialEq)]
pub struct RegMeta {
    /// Source name.
    pub name: String,
    /// Element count.
    pub size: u32,
    /// Initial contents.
    pub init: Vec<Value>,
    /// Physical stage holding this array.
    pub stage: StageId,
    /// Whether MP5 may shard this array's indexes across pipelines (D2).
    /// `false` = pinned to one pipeline (§3.3's conservative fallbacks).
    pub shardable: bool,
    /// The Banzai atom class this array's stateful stage requires.
    pub atom_class: AtomClass,
}

/// Code for one physical *body* stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageCode {
    /// Instructions executed, in order, when a packet is processed by
    /// this stage.
    pub instrs: Vec<TacInstr>,
    /// Register arrays resident in this stage. Empty = stateless stage.
    /// More than one only in the pinned shared-stage fallback.
    pub regs: Vec<RegId>,
}

/// How the resolution stage computes an access's register index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdxPlan {
    /// The index is this (stateless) operand, available at resolution.
    Exact(Operand),
    /// The index computation is stateful (§3.3): the array is pinned and
    /// serialized at array granularity.
    ArrayLevel,
}

/// How the resolution stage decides whether the access happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredPlan {
    /// Unconditional access.
    Always,
    /// Access iff this (stateless) operand is non-zero.
    Exact(Operand),
    /// The predicate is stateful (§3.3): conservatively assume true and
    /// generate a *speculative* phantom; a false outcome wastes one
    /// cycle at the stateful stage.
    Speculative,
}

/// One planned state access, evaluated per packet by the address
/// resolution stage.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessPlan {
    /// Physical stage of the access.
    pub stage: StageId,
    /// Register array ([`REG_STAGE_SENTINEL`] for stage-level plans).
    pub reg: RegId,
    /// Index resolution.
    pub idx: IdxPlan,
    /// Predicate resolution.
    pub pred: PredPlan,
}

/// A concrete access produced by running the resolution program on one
/// packet. This is what becomes a phantom packet + metadata tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedAccess {
    /// Physical stage of the access.
    pub stage: StageId,
    /// Register array ([`REG_STAGE_SENTINEL`] for stage-level).
    pub reg: RegId,
    /// Concrete wrapped index, or [`INDEX_ARRAY_LEVEL`].
    pub index: u32,
    /// True if generated under an unresolvable predicate (may be
    /// discarded at the stateful stage, wasting a cycle).
    pub speculative: bool,
}

/// The address resolution prologue (paper Figure 5, the stages the
/// PVSM-to-PVSM transformer prepends).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResolutionCode {
    /// Stateless instruction slice computing all index and predicate
    /// operands.
    pub instrs: Vec<TacInstr>,
    /// Access plans, ordered by ascending stage.
    pub plans: Vec<AccessPlan>,
    /// Physical stages the prologue occupies (computation stages plus
    /// the phantom-generation stage).
    pub stages: usize,
}

/// A fully compiled packet-processing program.
///
/// Design principle D1: this single artifact is replicated identically
/// onto every pipeline of the MP5 switch.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// All field names (declared packet fields first, then metadata).
    pub field_names: Vec<String>,
    /// Leading count of *declared* packet header fields.
    pub declared_fields: usize,
    /// Register arrays.
    pub regs: Vec<RegMeta>,
    /// Address resolution prologue.
    pub resolution: ResolutionCode,
    /// Body stages; body stage `i` is physical stage
    /// `resolution.stages + i`.
    pub stages: Vec<StageCode>,
    /// The three-address program this was compiled from (kept for
    /// diagnostics and cross-validation).
    pub tac: TacProgram,
    /// Pre-codegen analysis report, when compilation ran with
    /// [`crate::CompileOptions::analyzer`] set (otherwise `None`).
    pub analysis: Option<crate::report::AnalysisReport>,
}

impl CompiledProgram {
    /// Total physical stages (prologue + body).
    pub fn num_stages(&self) -> usize {
        self.resolution.stages + self.stages.len()
    }

    /// Field id lookup by name.
    pub fn field(&self, name: &str) -> Option<mp5_types::FieldId> {
        self.field_names
            .iter()
            .position(|n| n == name)
            .map(mp5_types::FieldId::from)
    }

    /// Register id lookup by name.
    pub fn reg(&self, name: &str) -> Option<RegId> {
        self.regs
            .iter()
            .position(|r| r.name == name)
            .map(RegId::from)
    }

    /// Fresh register state.
    pub fn initial_regs(&self) -> Vec<Vec<Value>> {
        self.regs.iter().map(|r| r.init.clone()).collect()
    }

    /// Number of fields a packet needs.
    pub fn num_fields(&self) -> usize {
        self.field_names.len()
    }

    /// Runs the address resolution program on a packet's fields,
    /// returning the accesses for which phantoms/tags are generated
    /// (ordered by ascending stage, generation order).
    ///
    /// Mutates `fields`: resolution temporaries are metadata carried in
    /// the packet, exactly like the paper's `p.metadata.add(...)`.
    pub fn resolve(&self, fields: &mut [Value]) -> Vec<ResolvedAccess> {
        let mut out = Vec::new();
        self.resolve_into(fields, &mut out);
        out
    }

    /// [`CompiledProgram::resolve`] into a caller-owned buffer
    /// (cleared first), so per-packet resolution on the hot path
    /// allocates nothing once the buffer reaches steady-state size.
    pub fn resolve_into(&self, fields: &mut [Value], out: &mut Vec<ResolvedAccess>) {
        out.clear();
        for ins in &self.resolution.instrs {
            match ins {
                TacInstr::Assign { dst, expr } => fields[dst.index()] = expr.eval(fields),
                _ => unreachable!("resolution slice is stateless by construction"),
            }
        }
        let opval = |o: &Operand| match o {
            Operand::Const(v) => *v,
            Operand::Field(f) => fields[f.index()],
        };
        for plan in &self.resolution.plans {
            let (generate, speculative) = match plan.pred {
                PredPlan::Always => (true, false),
                PredPlan::Exact(p) => (opval(&p) != 0, false),
                PredPlan::Speculative => (true, true),
            };
            if !generate {
                continue;
            }
            let index = match plan.idx {
                IdxPlan::Exact(op) => {
                    let size = self.regs[plan.reg.index()].size;
                    TacProgram::wrap_index(size, opval(&op))
                }
                IdxPlan::ArrayLevel => INDEX_ARRAY_LEVEL,
            };
            // Two plans of one register may resolve to the same concrete
            // index (e.g. `r[p.a % 1]` and `r[p.b % 1]`). A packet holds
            // one queue slot per state, and duplicate phantom keys would
            // collide in the FIFO directory — merge them. A merged access
            // is speculative only if every constituent was.
            if let Some(prev) = out.iter_mut().find(|a: &&mut ResolvedAccess| {
                a.stage == plan.stage && a.reg == plan.reg && a.index == index
            }) {
                prev.speculative &= speculative;
                continue;
            }
            out.push(ResolvedAccess {
                stage: plan.stage,
                reg: plan.reg,
                index,
                speculative,
            });
        }
    }

    /// Executes one body stage on a packet's fields against register
    /// state, returning the state accesses actually performed.
    pub fn execute_stage(
        &self,
        body_stage: usize,
        fields: &mut [Value],
        regs: &mut [Vec<Value>],
    ) -> Vec<StateAccess> {
        let mut accesses = Vec::new();
        let stage = &self.stages[body_stage];
        for ins in &stage.instrs {
            exec_instr(ins, fields, regs, &self.regs, &mut accesses);
        }
        accesses.dedup();
        accesses
    }

    /// Executes the whole program serially on one packet (resolution
    /// prologue then all body stages). Reference semantics: must agree
    /// with [`TacProgram::execute`] on declared fields and registers.
    pub fn execute_serial(
        &self,
        fields: &mut [Value],
        regs: &mut [Vec<Value>],
    ) -> Vec<StateAccess> {
        self.resolve(fields);
        let mut all = Vec::new();
        for i in 0..self.stages.len() {
            all.extend(self.execute_stage(i, fields, regs));
        }
        all.dedup();
        all
    }

    /// Structural validation; returns a description of the first
    /// inconsistency, if any. Exercised by tests and debug builds.
    pub fn validate(&self) -> Result<(), String> {
        // Every register appears in exactly one stage's resident list,
        // matching its RegMeta.stage.
        for (i, r) in self.regs.iter().enumerate() {
            let body = (r.stage.index())
                .checked_sub(self.resolution.stages)
                .ok_or_else(|| format!("reg {} stage inside prologue", r.name))?;
            let sc = self
                .stages
                .get(body)
                .ok_or_else(|| format!("reg {} stage out of range", r.name))?;
            if !sc.regs.contains(&RegId::from(i)) {
                return Err(format!("reg {} not resident in its stage", r.name));
            }
        }
        // Stateful instructions only in stages where the reg is resident.
        for (si, sc) in self.stages.iter().enumerate() {
            for ins in &sc.instrs {
                if let TacInstr::RegRead { reg, .. } | TacInstr::RegWrite { reg, .. } = ins {
                    if !sc.regs.contains(reg) {
                        return Err(format!(
                            "stage {si} touches reg {} not resident there",
                            self.regs[reg.index()].name
                        ));
                    }
                }
            }
        }
        // Plans reference valid stages/regs.
        for p in &self.resolution.plans {
            if p.reg != REG_STAGE_SENTINEL && p.reg.index() >= self.regs.len() {
                return Err("plan references unknown reg".into());
            }
            if p.stage.index() < self.resolution.stages || p.stage.index() >= self.num_stages() {
                return Err("plan stage out of range".into());
            }
        }
        // Plans are sorted by stage (phantom generation order).
        if !self
            .resolution
            .plans
            .windows(2)
            .all(|w| w[0].stage <= w[1].stage)
        {
            return Err("plans not sorted by stage".into());
        }
        Ok(())
    }
}

/// Executes one instruction against fields + register state.
fn exec_instr(
    ins: &TacInstr,
    fields: &mut [Value],
    regs: &mut [Vec<Value>],
    meta: &[RegMeta],
    accesses: &mut Vec<StateAccess>,
) {
    let opval = |o: &Operand, fields: &[Value]| match o {
        Operand::Const(v) => *v,
        Operand::Field(f) => fields[f.index()],
    };
    match ins {
        TacInstr::Assign { dst, expr } => fields[dst.index()] = expr.eval(fields),
        TacInstr::RegRead {
            dst,
            reg,
            idx,
            pred,
        } => {
            let taken = pred.as_ref().is_none_or(|p| opval(p, fields) != 0);
            if taken {
                let size = meta[reg.index()].size;
                let i = TacProgram::wrap_index(size, opval(idx, fields));
                fields[dst.index()] = regs[reg.index()][i as usize];
                accesses.push(StateAccess {
                    reg: *reg,
                    index: i,
                });
            } else {
                fields[dst.index()] = 0;
            }
        }
        TacInstr::RegWrite {
            reg,
            idx,
            val,
            pred,
        } => {
            let taken = pred.as_ref().is_none_or(|p| opval(p, fields) != 0);
            if taken {
                let size = meta[reg.index()].size;
                let i = TacProgram::wrap_index(size, opval(idx, fields));
                regs[reg.index()][i as usize] = opval(val, fields);
                accesses.push(StateAccess {
                    reg: *reg,
                    index: i,
                });
            }
        }
    }
}

/// Banzai stateful-atom classes, ordered by increasing circuit
/// complexity (the atom hierarchy of the Domino paper, which the MP5
/// paper's action units inherit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AtomClass {
    /// No state touched.
    Stateless,
    /// State is only read.
    Read,
    /// State is only written (from packet fields/constants).
    Write,
    /// Unconditional read-modify-write through a short ALU chain
    /// (Banzai's `rw`/`addr` atoms).
    ReadModifyWrite,
    /// Read-modify-write under a single predicate (`predraw`).
    PredicatedRmw,
    /// Two-way predicated update (`ifelse_raw`).
    IfElseRmw,
    /// Deeper conditional circuits (`nested_ifs`).
    NestedIfs,
    /// Multiple entangled register arrays updated atomically (`pairs`).
    Pairs,
}

impl std::fmt::Display for AtomClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AtomClass::Stateless => "stateless",
            AtomClass::Read => "read",
            AtomClass::Write => "write",
            AtomClass::ReadModifyWrite => "rmw",
            AtomClass::PredicatedRmw => "pred-rmw",
            AtomClass::IfElseRmw => "ifelse-rmw",
            AtomClass::NestedIfs => "nested-ifs",
            AtomClass::Pairs => "pairs",
        };
        f.write_str(s)
    }
}
