//! The stage execution kernel (DESIGN.md §13).
//!
//! The interpreter in [`crate::program`] walks one packet at a time
//! and allocates a fresh access `Vec` per `(packet, stage)` pair.
//! [`CompiledProgram::execute_stage_batch`] runs a stage
//! **instruction-major** over any number of *lanes* — one dispatch per
//! instruction, then a lane loop — and appends state accesses to a
//! caller-owned buffer tagged by lane, so steady-state execution
//! allocates nothing. Lanes are rows of any [`LaneFields`] store: a
//! dense [`FieldMatrix`], or, as the switch runs it, one lane over a
//! packet's own field vector at the moment its stage is scheduled.
//!
//! Semantics are shared with the interpreter, not duplicated: ALU
//! work funnels through the same [`TacExpr::eval`](mp5_lang::TacExpr)
//! and the stateful ops mirror `exec_instr` exactly (predicate-false
//! reads still zero the destination and record no access). The
//! equivalence is pinned by tests here and, end to end, by the switch's
//! equivalence to the Banzai reference.

use crate::program::CompiledProgram;
use mp5_lang::tac::TacInstr;
use mp5_lang::{Operand, TacProgram};
use mp5_types::{RegId, Value};

/// Register-file accessor for batch execution.
///
/// Lanes of one batch may belong to different pipelines, each with its
/// own replica of every register array (design principle D2). The
/// kernel is generic over this trait — monomorphized per store — so it
/// never knows the layout: the switch hands it one pipeline's replica,
/// and a table indexed by `slot` serves lanes of several pipelines.
pub trait BatchRegs {
    /// Reads `reg[idx]` in the register file of `slot` (the caller's
    /// pipeline/view handle carried per lane).
    fn read(&mut self, slot: u16, reg: RegId, idx: u32) -> Value;
    /// Writes `reg[idx] = val` in the register file of `slot`.
    fn write(&mut self, slot: u16, reg: RegId, idx: u32, val: Value);
}

/// Row-addressable per-lane field storage for batch execution.
///
/// The kernel only ever touches one lane's field vector at a time, so
/// it does not care whether rows live in a dense [`FieldMatrix`] or
/// in place inside caller-owned packets — the switch executes a stage
/// directly on the scheduled packet's field vector, with no copy in or
/// out.
pub trait LaneFields {
    /// Lane `lane`'s field vector.
    fn row(&self, lane: u32) -> &[Value];
    /// Lane `lane`'s field vector, mutably.
    fn row_mut(&mut self, lane: u32) -> &mut [Value];
}

impl LaneFields for FieldMatrix {
    #[inline]
    fn row(&self, lane: u32) -> &[Value] {
        FieldMatrix::row(self, lane)
    }
    #[inline]
    fn row_mut(&mut self, lane: u32) -> &mut [Value] {
        FieldMatrix::row_mut(self, lane)
    }
}

/// One state access performed by one lane during a batch stage
/// execution. The flat list a kernel call appends to is
/// instruction-major; per-lane access order is recovered by filtering
/// on `lane` (instruction order is preserved within a lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneAccess {
    /// Lane (matrix row) that performed the access.
    pub lane: u32,
    /// Register array accessed.
    pub reg: RegId,
    /// Concrete wrapped index.
    pub index: u32,
}

/// A dense lane-major matrix of packet fields: row `l` holds the full
/// field vector of lane `l`. A many-lane kernel call strides over rows
/// with no per-packet indirection, and the buffer is reused across
/// calls.
#[derive(Debug, Default)]
pub struct FieldMatrix {
    vals: Vec<Value>,
    stride: usize,
}

impl FieldMatrix {
    /// An empty matrix whose rows are `stride` fields wide.
    pub fn new(stride: usize) -> Self {
        FieldMatrix {
            vals: Vec::new(),
            stride,
        }
    }

    /// Drops all rows, keeping the allocation (and resets the row
    /// width, so one buffer serves differently-shaped programs).
    pub fn reset(&mut self, stride: usize) {
        self.vals.clear();
        self.stride = stride;
    }

    /// Appends a row, returning its lane id.
    pub fn push_row(&mut self, fields: &[Value]) -> u32 {
        debug_assert_eq!(fields.len(), self.stride);
        let lane = self.len();
        self.vals.extend_from_slice(fields);
        lane
    }

    /// Number of rows.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u32 {
        // A zero-field program has stride 0 and no rows.
        self.vals.len().checked_div(self.stride).unwrap_or(0) as u32
    }

    /// Row `lane` as a field slice.
    pub fn row(&self, lane: u32) -> &[Value] {
        let base = lane as usize * self.stride;
        &self.vals[base..base + self.stride]
    }

    /// Row `lane` as a mutable field slice.
    pub fn row_mut(&mut self, lane: u32) -> &mut [Value] {
        let base = lane as usize * self.stride;
        &mut self.vals[base..base + self.stride]
    }
}

#[inline]
fn opval(o: &Operand, fields: &[Value]) -> Value {
    match o {
        Operand::Const(v) => *v,
        Operand::Field(f) => fields[f.index()],
    }
}

impl CompiledProgram {
    /// Executes one body stage over a batch of lanes in SoA layout.
    ///
    /// `lanes[i]` is a row of `fields` (any [`LaneFields`] store) and
    /// `slots[i]` the register-file handle its pipeline's state lives
    /// under. Accesses are appended to `out` tagged by lane, in
    /// instruction-major order; within a lane they appear in the
    /// scalar path's instruction order, so filtering `out` by lane and
    /// deduping consecutive duplicates reproduces
    /// [`CompiledProgram::execute_stage`]'s return value exactly.
    pub fn execute_stage_batch<F: LaneFields, R: BatchRegs>(
        &self,
        body_stage: usize,
        lanes: &[u32],
        slots: &[u16],
        fields: &mut F,
        regs: &mut R,
        out: &mut Vec<LaneAccess>,
    ) {
        debug_assert_eq!(lanes.len(), slots.len());
        let stage = &self.stages[body_stage];
        for ins in &stage.instrs {
            match ins {
                TacInstr::Assign { dst, expr } => {
                    let d = dst.index();
                    for &l in lanes {
                        let row = fields.row_mut(l);
                        row[d] = expr.eval(row);
                    }
                }
                TacInstr::RegRead {
                    dst,
                    reg,
                    idx,
                    pred,
                } => {
                    let d = dst.index();
                    let size = self.regs[reg.index()].size;
                    for (&l, &s) in lanes.iter().zip(slots) {
                        let row = fields.row_mut(l);
                        let taken = pred.as_ref().is_none_or(|p| opval(p, row) != 0);
                        row[d] = if taken {
                            let i = TacProgram::wrap_index(size, opval(idx, row));
                            out.push(LaneAccess {
                                lane: l,
                                reg: *reg,
                                index: i,
                            });
                            regs.read(s, *reg, i)
                        } else {
                            0
                        };
                    }
                }
                TacInstr::RegWrite {
                    reg,
                    idx,
                    val,
                    pred,
                } => {
                    let size = self.regs[reg.index()].size;
                    for (&l, &s) in lanes.iter().zip(slots) {
                        let row = fields.row(l);
                        let taken = pred.as_ref().is_none_or(|p| opval(p, row) != 0);
                        if taken {
                            let i = TacProgram::wrap_index(size, opval(idx, row));
                            regs.write(s, *reg, i, opval(val, row));
                            out.push(LaneAccess {
                                lane: l,
                                reg: *reg,
                                index: i,
                            });
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mp5_lang::tac::StateAccess;

    /// A plain per-slot register table, one replica per pipeline:
    /// `tables[slot][reg][index]`.
    struct Tables(Vec<Vec<Vec<Value>>>);

    impl BatchRegs for Tables {
        fn read(&mut self, slot: u16, reg: RegId, idx: u32) -> Value {
            self.0[slot as usize][reg.index()][idx as usize]
        }
        fn write(&mut self, slot: u16, reg: RegId, idx: u32, val: Value) {
            self.0[slot as usize][reg.index()][idx as usize] = val;
        }
    }

    fn compile(src: &str) -> CompiledProgram {
        crate::compile(src, &crate::Target::default()).expect("compile")
    }

    /// The batch kernel must agree with the scalar interpreter on every
    /// stage, field vector, and register cell — including per-lane
    /// access order after the filter-by-lane + consecutive-dedup
    /// recovery described on `execute_stage_batch`.
    #[test]
    fn batch_kernel_matches_scalar_interpreter() {
        let prog = compile(
            "struct Packet { int a; int b; };
             int ctr[16] = {0};
             int tot[4] = {0};
             void func(struct Packet p) {
                 ctr[p.a % 16] = ctr[p.a % 16] + 1;
                 if (p.b > 2) {
                     tot[p.b % 4] = tot[p.b % 4] + p.a;
                 }
             }",
        );
        let nf = prog.num_fields();
        // Three lanes on two register-file slots, exercising taken and
        // not-taken predicates.
        let seeds: [(u16, Value, Value); 3] = [(0, 3, 7), (1, 5, 1), (0, 9, 4)];
        let mut scalar_regs: Vec<Vec<Vec<Value>>> = (0..2).map(|_| prog.initial_regs()).collect();
        let mut batch_regs = Tables((0..2).map(|_| prog.initial_regs()).collect());
        let mut scalar_fields: Vec<Vec<Value>> = Vec::new();
        let mut fields = FieldMatrix::new(nf);
        let mut slots = Vec::new();
        for &(slot, a, b) in &seeds {
            let mut f = vec![0; nf];
            f[0] = a;
            f[1] = b;
            prog.resolve(&mut f);
            fields.push_row(&f);
            scalar_fields.push(f);
            slots.push(slot);
        }
        let lanes: Vec<u32> = (0..seeds.len() as u32).collect();
        for body in 0..prog.stages.len() {
            let mut out = Vec::new();
            prog.execute_stage_batch(body, &lanes, &slots, &mut fields, &mut batch_regs, &mut out);
            for (i, sf) in scalar_fields.iter_mut().enumerate() {
                let want = prog.execute_stage(body, sf, &mut scalar_regs[slots[i] as usize]);
                let mut got: Vec<StateAccess> = out
                    .iter()
                    .filter(|a| a.lane == i as u32)
                    .map(|a| StateAccess {
                        reg: a.reg,
                        index: a.index,
                    })
                    .collect();
                got.dedup();
                assert_eq!(got, want, "lane {i} accesses at body stage {body}");
                assert_eq!(fields.row(i as u32), sf.as_slice(), "lane {i} fields");
            }
        }
        assert_eq!(batch_regs.0, scalar_regs, "register state diverged");
    }

    #[test]
    fn field_matrix_round_trips_rows() {
        let mut m = FieldMatrix::new(3);
        assert_eq!(m.len(), 0);
        let a = m.push_row(&[1, 2, 3]);
        let b = m.push_row(&[4, 5, 6]);
        assert_eq!((a, b), (0, 1));
        assert_eq!(m.row(1), &[4, 5, 6]);
        m.row_mut(0)[2] = 9;
        assert_eq!(m.row(0), &[1, 2, 9]);
        m.reset(2);
        assert_eq!(m.len(), 0);
        m.push_row(&[7, 8]);
        assert_eq!(m.row(0), &[7, 8]);
    }
}
