//! The hop kernel: action bodies and control guards lowered, once per
//! switch, to width-resolved micro-ops.
//!
//! [`Program::lower`] runs at [`Switch::new`](crate::Switch::new) and
//! resolves everything about a primitive that does not depend on the
//! packet: which operands are constants, fields or action parameters, the
//! destination container and its mask, and — for a `modify_field` from a
//! constant — the value already truncated to the destination's width.
//! What is left per packet is a read of raw bits per operand, one ALU op,
//! and one masked store.
//!
//! The arithmetic is that of the RMT action ALU as [`Value`] models it:
//! operands are truncated to the *destination* width, a parameter the
//! entry does not supply reads as zero, shifts take the low 32 bits of
//! their amount and shift everything out at 128, register indexes wrap.
//! Add, subtract, the bitwise ops and left shifts are congruent modulo
//! `2^width`, so truncating the result once equals truncating every
//! operand first; a right shift is not, so it masks its operand instead.
//! The `#[cfg(test)]` reference evaluator at the bottom of this file keeps
//! the operand-by-operand `Value` chain, and a property test holds the two
//! together.

use crate::hash;
use crate::phv::Phv;
use crate::registers::RegisterArray;
use crate::spec::{
    DataPlaneSpec, FieldId, RAction, RBool, RCalc, ROperand, RPrimitive, RStmt, TableId,
};
use p4_ast::{CmpOp, Value};

/// Where an operand's bits come from.
#[derive(Clone, Copy, Debug)]
enum Src {
    Const(u128),
    Field(FieldId),
    /// Index into the matching entry's action data.
    Param(usize),
}

impl Src {
    fn of(op: &ROperand) -> Src {
        match op {
            ROperand::Const(v) => Src::Const(v.bits()),
            ROperand::Field(f) => Src::Field(*f),
            ROperand::Param(i) => Src::Param(*i),
        }
    }

    #[inline]
    fn bits(self, data: &[Value], phv: &Phv) -> u128 {
        match self {
            Src::Const(c) => c,
            Src::Field(f) => phv.bits(f),
            Src::Param(i) => data.get(i).map_or(0, Value::bits),
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Alu {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

/// One lowered primitive. `no_op()` lowers to nothing.
#[derive(Clone, Copy, Debug)]
enum MicroOp {
    /// `dst ← bits`, a constant already at the destination's width.
    Store {
        dst: FieldId,
        bits: u128,
    },
    /// `dst ← src`, truncated to the destination.
    Move {
        dst: FieldId,
        src: Src,
    },
    /// `dst ← a op b`, truncated to the destination; `mask` is the
    /// destination's, for the right shift's operand.
    Alu {
        op: Alu,
        dst: FieldId,
        mask: u128,
        a: Src,
        b: Src,
    },
    Drop,
    RegWrite {
        reg: usize,
        index: Src,
        value: Src,
    },
    RegRead {
        dst: FieldId,
        reg: usize,
        index: Src,
    },
    Count {
        reg: usize,
        index: Src,
    },
    /// `dst ← base + hash(calc) % max(size, 1)`.
    Hash {
        dst: FieldId,
        base: Src,
        calc: usize,
        size: Src,
    },
}

fn lower_action(spec: &DataPlaneSpec, action: &RAction) -> Vec<MicroOp> {
    use RPrimitive as P;
    let alu = |op: Alu, dst: &FieldId, a: &ROperand, b: &ROperand| MicroOp::Alu {
        op,
        dst: *dst,
        mask: Value::mask_for(spec.field_width(*dst)),
        a: Src::of(a),
        b: Src::of(b),
    };
    action
        .body
        .iter()
        .filter_map(|prim| {
            Some(match prim {
                P::ModifyField { dst, src } => match src {
                    ROperand::Const(v) => MicroOp::Store {
                        dst: *dst,
                        bits: v.resize(spec.field_width(*dst)).bits(),
                    },
                    _ => MicroOp::Move {
                        dst: *dst,
                        src: Src::of(src),
                    },
                },
                P::Add { dst, a, b } => alu(Alu::Add, dst, a, b),
                P::Subtract { dst, a, b } => alu(Alu::Sub, dst, a, b),
                P::BitAnd { dst, a, b } => alu(Alu::And, dst, a, b),
                P::BitOr { dst, a, b } => alu(Alu::Or, dst, a, b),
                P::BitXor { dst, a, b } => alu(Alu::Xor, dst, a, b),
                P::ShiftLeft { dst, a, amount } => alu(Alu::Shl, dst, a, amount),
                P::ShiftRight { dst, a, amount } => alu(Alu::Shr, dst, a, amount),
                P::Drop => MicroOp::Drop,
                P::NoOp => return None,
                P::RegisterWrite {
                    register,
                    index,
                    value,
                } => MicroOp::RegWrite {
                    reg: register.0 as usize,
                    index: Src::of(index),
                    value: Src::of(value),
                },
                P::RegisterRead {
                    dst,
                    register,
                    index,
                } => MicroOp::RegRead {
                    dst: *dst,
                    reg: register.0 as usize,
                    index: Src::of(index),
                },
                P::Count { counter, index } => MicroOp::Count {
                    reg: counter.0 as usize,
                    index: Src::of(index),
                },
                P::Hash {
                    dst,
                    base,
                    calc,
                    size,
                } => MicroOp::Hash {
                    dst: *dst,
                    base: Src::of(base),
                    calc: calc.0 as usize,
                    size: Src::of(size),
                },
            })
        })
        .collect()
}

/// Run one lowered action body against a packet. Every op of the body
/// runs, a `drop()` among them included — the flag is looked at between
/// tables, as on the ASIC, not between primitives.
#[inline]
fn run_action(
    ops: &[MicroOp],
    calcs: &[RCalc],
    registers: &mut [RegisterArray],
    hash_scratch: &mut Vec<Value>,
    data: &[Value],
    phv: &mut Phv,
) {
    for op in ops {
        match *op {
            MicroOp::Store { dst, bits } => phv.store(dst, bits),
            MicroOp::Move { dst, src } => {
                let bits = src.bits(data, phv);
                phv.set_bits(dst, bits);
            }
            MicroOp::Alu {
                op,
                dst,
                mask,
                a,
                b,
            } => {
                let (a, b) = (a.bits(data, phv), b.bits(data, phv));
                // A shift amount is the low 32 bits of its operand, and
                // 128 or more shifts everything out.
                let amount = b as u32;
                let bits = match op {
                    Alu::Add => a.wrapping_add(b),
                    Alu::Sub => a.wrapping_sub(b),
                    Alu::And => a & b,
                    Alu::Or => a | b,
                    Alu::Xor => a ^ b,
                    Alu::Shl if amount < 128 => a << amount,
                    Alu::Shr if amount < 128 => (a & mask) >> amount,
                    Alu::Shl | Alu::Shr => 0,
                };
                phv.set_bits(dst, bits);
            }
            MicroOp::Drop => phv.dropped = true,
            MicroOp::RegWrite { reg, index, value } => {
                let idx = index.bits(data, phv) as usize;
                registers[reg].write_bits(idx, value.bits(data, phv));
            }
            MicroOp::RegRead { dst, reg, index } => {
                let idx = index.bits(data, phv) as usize;
                phv.set_bits(dst, registers[reg].read(idx).bits());
            }
            MicroOp::Count { reg, index } => {
                let idx = index.bits(data, phv) as usize;
                registers[reg].increment(idx, 1);
            }
            MicroOp::Hash {
                dst,
                base,
                calc,
                size,
            } => {
                let c = &calcs[calc];
                hash_scratch.clear();
                hash_scratch.extend(c.inputs.iter().map(|f| phv.get(*f)));
                let h = hash::compute(c.algorithm, hash_scratch, c.output_width);
                let size = size.bits(data, phv).max(1);
                let bucket = match (u64::try_from(h.bits()), u64::try_from(size)) {
                    (Ok(h), Ok(size)) => u128::from(h % size),
                    _ => h.bits() % size,
                };
                let bits = base.bits(data, phv).wrapping_add(bucket);
                phv.set_bits(dst, bits);
            }
        }
    }
}

/// One test of a guard's jump code.
#[derive(Clone, Copy, Debug)]
enum Test {
    Valid(usize),
    Cmp { lhs: Src, op: CmpOp, rhs: Src },
}

/// A test and where to go on either outcome: an index into the guard's
/// code (always forward), [`PASS`] or [`FAIL`].
#[derive(Clone, Copy, Debug)]
struct Branch {
    test: Test,
    on_true: u32,
    on_false: u32,
}

const PASS: u32 = u32::MAX;
const FAIL: u32 = u32::MAX - 1;

/// The branch conditions guarding one `apply` site — every enclosing
/// `if`, at the polarity of the arm the site is in — compiled to
/// short-circuit jump code: no tree walk, no evaluation stack. Empty code
/// is an unguarded apply.
#[derive(Clone, Debug, Default)]
struct Guard {
    code: Vec<Branch>,
}

/// The exits of a code fragment still to be pointed somewhere: `(branch,
/// its on_true slot?)`.
type Exits = Vec<(usize, bool)>;

impl Guard {
    fn lower(guards: &[(RBool, bool)]) -> Guard {
        let mut code = Vec::new();
        let (mut pass, mut fail): (Exits, Exits) = (Vec::new(), Vec::new());
        for (cond, polarity) in guards {
            // Passing the previous guard falls into this one.
            let here = code.len() as u32;
            patch(&mut code, &pass, here);
            let (on_true, on_false) = lower_bool(cond, &mut code);
            let (passed, mut failed) = if *polarity {
                (on_true, on_false)
            } else {
                (on_false, on_true)
            };
            pass = passed;
            fail.append(&mut failed);
        }
        patch(&mut code, &pass, PASS);
        patch(&mut code, &fail, FAIL);
        Guard { code }
    }

    #[inline]
    fn passes(&self, phv: &Phv) -> bool {
        let mut pc = if self.code.is_empty() { PASS } else { 0 };
        loop {
            match pc {
                PASS => return true,
                FAIL => return false,
                _ => {}
            }
            let b = &self.code[pc as usize];
            let hit = match b.test {
                Test::Valid(h) => phv.is_valid(h),
                Test::Cmp { lhs, op, rhs } => {
                    // Control flow has no action data: a parameter
                    // operand was lowered to the constant zero.
                    let (l, r) = (lhs.bits(&[], phv), rhs.bits(&[], phv));
                    match op {
                        CmpOp::Eq => l == r,
                        CmpOp::Ne => l != r,
                        CmpOp::Lt => l < r,
                        CmpOp::Le => l <= r,
                        CmpOp::Gt => l > r,
                        CmpOp::Ge => l >= r,
                    }
                }
            };
            pc = if hit { b.on_true } else { b.on_false };
        }
    }
}

fn patch(code: &mut [Branch], exits: &Exits, target: u32) {
    for &(i, on_true) in exits {
        if on_true {
            code[i].on_true = target;
        } else {
            code[i].on_false = target;
        }
    }
}

/// Append `cond`'s jump code; returns its (true, false) exits, unpatched.
fn lower_bool(cond: &RBool, code: &mut Vec<Branch>) -> (Exits, Exits) {
    let leaf = |test: Test, code: &mut Vec<Branch>| {
        code.push(Branch {
            test,
            on_true: FAIL,
            on_false: FAIL,
        });
        let i = code.len() - 1;
        (vec![(i, true)], vec![(i, false)])
    };
    let ctrl = |op: &ROperand| match op {
        ROperand::Param(_) => Src::Const(0),
        other => Src::of(other),
    };
    match cond {
        RBool::Valid(h) => leaf(Test::Valid(*h), code),
        RBool::Cmp { lhs, op, rhs } => leaf(
            Test::Cmp {
                lhs: ctrl(lhs),
                op: *op,
                rhs: ctrl(rhs),
            },
            code,
        ),
        RBool::And(a, b) => {
            let (ta, mut fa) = lower_bool(a, code);
            let b_start = code.len() as u32;
            patch(code, &ta, b_start);
            let (tb, mut fb) = lower_bool(b, code);
            fa.append(&mut fb);
            (tb, fa)
        }
        RBool::Or(a, b) => {
            let (mut ta, fa) = lower_bool(a, code);
            let b_start = code.len() as u32;
            patch(code, &fa, b_start);
            let (mut tb, fb) = lower_bool(b, code);
            ta.append(&mut tb);
            (ta, fb)
        }
        RBool::Not(a) => {
            let (t, f) = lower_bool(a, code);
            (f, t)
        }
    }
}

/// One `apply` site flattened out of the control program.
#[derive(Clone, Debug)]
struct GuardedApply {
    table: TableId,
    guard: Guard,
}

/// A spec's executable half: every action body and both control blocks,
/// lowered. Shared by all pipes of a switch, like the spec itself.
#[derive(Clone, Debug, Default)]
pub(crate) struct Program {
    /// Micro-ops of each action, by `ActionId`.
    actions: Vec<Vec<MicroOp>>,
    /// Guarded applies bucketed by stage (outer index), so a stage step
    /// touches only its own applies.
    ingress: Vec<Vec<GuardedApply>>,
    egress: Vec<Vec<GuardedApply>>,
}

impl Program {
    pub(crate) fn lower(spec: &DataPlaneSpec) -> Program {
        Program {
            actions: spec.actions.iter().map(|a| lower_action(spec, a)).collect(),
            ingress: lower_control(spec, &spec.ingress, spec.ingress_stages),
            egress: lower_control(spec, &spec.egress, spec.egress_stages),
        }
    }

    /// Collect into `out` the tables of one stage whose guards pass. All
    /// guards see the pre-stage PHV — before any table of the stage runs
    /// — which is why the caller gets a list instead of a callback.
    #[inline]
    pub(crate) fn passing_tables(
        &self,
        egress: bool,
        stage: u32,
        phv: &Phv,
        out: &mut Vec<TableId>,
    ) {
        out.clear();
        let plan = if egress { &self.egress } else { &self.ingress };
        let Some(applies) = plan.get(stage as usize) else {
            return;
        };
        out.extend(
            applies
                .iter()
                .filter(|g| g.guard.passes(phv))
                .map(|g| g.table),
        );
    }

    /// Run action `action` with the matching entry's `data`.
    #[inline]
    pub(crate) fn run_action(
        &self,
        action: usize,
        calcs: &[RCalc],
        registers: &mut [RegisterArray],
        hash_scratch: &mut Vec<Value>,
        data: &[Value],
        phv: &mut Phv,
    ) {
        run_action(
            &self.actions[action],
            calcs,
            registers,
            hash_scratch,
            data,
            phv,
        );
    }
}

/// Flatten a control block into guarded applies grouped by stage. Applies
/// whose stage is out of range for the pipeline's stage count keep their
/// own (never-executed) bucket.
fn lower_control(spec: &DataPlaneSpec, stmts: &[RStmt], stages: u32) -> Vec<Vec<GuardedApply>> {
    fn walk(
        spec: &DataPlaneSpec,
        stmts: &[RStmt],
        guards: &mut Vec<(RBool, bool)>,
        out: &mut Vec<(u32, GuardedApply)>,
    ) {
        for s in stmts {
            match s {
                RStmt::Apply(tid) => out.push((
                    spec.tables[tid.0 as usize].stage,
                    GuardedApply {
                        table: *tid,
                        guard: Guard::lower(guards),
                    },
                )),
                RStmt::If { cond, then_, else_ } => {
                    for (arm, polarity) in [(then_, true), (else_, false)] {
                        guards.push((cond.clone(), polarity));
                        walk(spec, arm, guards, out);
                        guards.pop();
                    }
                }
            }
        }
    }
    let mut flat = Vec::new();
    walk(spec, stmts, &mut Vec::new(), &mut flat);
    let max_stage = flat.iter().map(|(stage, _)| stage + 1).max().unwrap_or(0);
    let mut buckets: Vec<Vec<GuardedApply>> = Vec::new();
    buckets.resize_with(stages.max(max_stage) as usize, Vec::new);
    for (stage, g) in flat {
        buckets[stage as usize].push(g);
    }
    buckets
}

#[cfg(test)]
mod tests {
    //! The micro-op executor against the `Value`-chain evaluator it
    //! replaced, kept here verbatim as the reference.

    use super::*;
    use crate::spec::{load, CalcId, RegisterId};
    use proptest::prelude::*;

    fn eval_operand(op: &ROperand, data: &[Value], phv: &Phv) -> Value {
        match op {
            ROperand::Const(v) => *v,
            ROperand::Field(f) => phv.get(*f),
            ROperand::Param(i) => data.get(*i).copied().unwrap_or(Value::zero(64)),
        }
    }

    /// One primitive as a chain of `Value` operations, each operand
    /// resized to the destination width before the ALU sees it.
    fn run_primitive(
        spec: &DataPlaneSpec,
        registers: &mut [RegisterArray],
        prim: &RPrimitive,
        data: &[Value],
        phv: &mut Phv,
    ) {
        use RPrimitive as P;
        let ev = |op: &ROperand, phv: &Phv| eval_operand(op, data, phv);
        match prim {
            P::ModifyField { dst, src } => {
                let v = ev(src, phv);
                phv.set(*dst, v);
            }
            P::Add { dst, a, b } => {
                let w = spec.field_width(*dst);
                let r = ev(a, phv).resize(w).wrapping_add(ev(b, phv).resize(w));
                phv.set(*dst, r);
            }
            P::Subtract { dst, a, b } => {
                let w = spec.field_width(*dst);
                let r = ev(a, phv).resize(w).wrapping_sub(ev(b, phv).resize(w));
                phv.set(*dst, r);
            }
            P::BitAnd { dst, a, b } => {
                let w = spec.field_width(*dst);
                let r = ev(a, phv).resize(w).and(ev(b, phv).resize(w));
                phv.set(*dst, r);
            }
            P::BitOr { dst, a, b } => {
                let w = spec.field_width(*dst);
                let r = ev(a, phv).resize(w).or(ev(b, phv).resize(w));
                phv.set(*dst, r);
            }
            P::BitXor { dst, a, b } => {
                let w = spec.field_width(*dst);
                let r = ev(a, phv).resize(w).xor(ev(b, phv).resize(w));
                phv.set(*dst, r);
            }
            P::ShiftLeft { dst, a, amount } => {
                let w = spec.field_width(*dst);
                let amt = ev(amount, phv).as_u64() as u32;
                phv.set(*dst, ev(a, phv).resize(w).shl(amt));
            }
            P::ShiftRight { dst, a, amount } => {
                let w = spec.field_width(*dst);
                let amt = ev(amount, phv).as_u64() as u32;
                phv.set(*dst, ev(a, phv).resize(w).shr(amt));
            }
            P::Drop => phv.dropped = true,
            P::NoOp => {}
            P::RegisterWrite {
                register,
                index,
                value,
            } => {
                let idx = ev(index, phv).as_usize();
                let v = ev(value, phv);
                registers[register.0 as usize].write(idx, v);
            }
            P::RegisterRead {
                dst,
                register,
                index,
            } => {
                let idx = ev(index, phv).as_usize();
                let v = registers[register.0 as usize].read(idx);
                phv.set(*dst, v);
            }
            P::Count { counter, index } => {
                let idx = ev(index, phv).as_usize();
                let cur = registers[counter.0 as usize].read(idx);
                let one = Value::new(1, cur.width());
                registers[counter.0 as usize].write(idx, cur.wrapping_add(one));
            }
            P::Hash {
                dst,
                base,
                calc,
                size,
            } => {
                let c = &spec.calcs[calc.0 as usize];
                let inputs: Vec<Value> = c.inputs.iter().map(|f| phv.get(*f)).collect();
                let h = hash::compute(c.algorithm, &inputs, c.output_width);
                let base = ev(base, phv);
                let size = ev(size, phv).bits().max(1);
                let w = spec.field_width(*dst);
                let v = base.resize(w).wrapping_add(Value::new(h.bits() % size, w));
                phv.set(*dst, v);
            }
        }
    }

    fn eval_bool(phv: &Phv, cond: &RBool) -> bool {
        let operand = |op: &ROperand| match op {
            ROperand::Const(v) => v.bits(),
            ROperand::Field(f) => phv.get(*f).bits(),
            ROperand::Param(_) => 0,
        };
        match cond {
            RBool::Valid(h) => phv.is_valid(*h),
            RBool::Cmp { lhs, op, rhs } => {
                let (l, r) = (operand(lhs), operand(rhs));
                match op {
                    CmpOp::Eq => l == r,
                    CmpOp::Ne => l != r,
                    CmpOp::Lt => l < r,
                    CmpOp::Le => l <= r,
                    CmpOp::Gt => l > r,
                    CmpOp::Ge => l >= r,
                }
            }
            RBool::And(a, b) => eval_bool(phv, a) && eval_bool(phv, b),
            RBool::Or(a, b) => eval_bool(phv, a) || eval_bool(phv, b),
            RBool::Not(a) => !eval_bool(phv, a),
        }
    }

    /// Metadata fields of these widths, three register arrays (one of
    /// them empty) and a hash calculation per algorithm.
    const WIDTHS: [u16; 10] = [1, 7, 8, 9, 16, 32, 48, 64, 127, 128];
    const REGISTERS: [(u16, u32); 3] = [(64, 5), (12, 3), (128, 0)];
    const CALCS: usize = 4;

    fn test_spec() -> DataPlaneSpec {
        let fields: String = WIDTHS
            .iter()
            .enumerate()
            .map(|(i, w)| format!("f{i} : {w}; "))
            .collect();
        let registers: String = REGISTERS
            .iter()
            .enumerate()
            .map(|(i, (w, n))| format!("register r{i} {{ width : {w}; instance_count : {n}; }}\n"))
            .collect();
        let calcs: String = ["crc16", "crc32", "xor_mix", "identity"]
            .iter()
            .enumerate()
            .map(|(i, alg)| {
                format!(
                    "field_list_calculation c{i} {{ input {{ fl; }} algorithm : {alg}; \
                     output_width : {}; }}\n",
                    [16, 32, 64, 24][i]
                )
            })
            .collect();
        let src = format!(
            "header_type m_t {{ fields {{ {fields} }} }}\nmetadata m_t m;\n\
             header_type h_t {{ fields {{ x : 8; }} }}\nheader h_t h;\n{registers}\
             field_list fl {{ m.f1; m.f5; m.f9; }}\n{calcs}"
        );
        load(&p4r_lang::parse_program(&src).expect("test program parses")).expect("loads")
    }

    fn field(spec: &DataPlaneSpec, i: usize) -> FieldId {
        spec.field_id("m", &format!("f{i}")).expect("test field")
    }

    /// Raw material for one operand: a selector, a field, a parameter
    /// index and a constant with its width.
    type RawOperand = (u8, usize, usize, u128, u16);

    fn raw_operand() -> impl Strategy<Value = RawOperand> {
        (
            0u8..8,
            0..WIDTHS.len(),
            0usize..6,
            prop_oneof![
                any::<u128>(),
                // Shift amounts and register indexes around the edges.
                0u128..300,
                Just(u128::from(u32::MAX) + 3),
            ],
            1u16..=128,
        )
    }

    fn operand(spec: &DataPlaneSpec, raw: RawOperand) -> ROperand {
        let (sel, f, p, c, w) = raw;
        match sel {
            0..=2 => ROperand::Field(field(spec, f)),
            // Parameters 0..3 are supplied, 3..6 are missing.
            3..=4 => ROperand::Param(p),
            _ => ROperand::Const(Value::new(c, w)),
        }
    }

    fn primitive(
        spec: &DataPlaneSpec,
        kind: u8,
        dst: usize,
        a: RawOperand,
        b: RawOperand,
    ) -> RPrimitive {
        use RPrimitive as P;
        let dst = field(spec, dst);
        let register = RegisterId((a.1 % REGISTERS.len()) as u32);
        let (a, b) = (operand(spec, a), operand(spec, b));
        match kind {
            0 => P::ModifyField { dst, src: a },
            1 => P::Add { dst, a, b },
            2 => P::Subtract { dst, a, b },
            3 => P::BitAnd { dst, a, b },
            4 => P::BitOr { dst, a, b },
            5 => P::BitXor { dst, a, b },
            6 => P::ShiftLeft { dst, a, amount: b },
            7 => P::ShiftRight { dst, a, amount: b },
            8 => P::Drop,
            9 => P::NoOp,
            10 => P::RegisterWrite {
                register,
                index: a,
                value: b,
            },
            11 => P::RegisterRead {
                dst,
                register,
                index: b,
            },
            12 => P::Count {
                counter: register,
                index: b,
            },
            _ => P::Hash {
                dst,
                base: a,
                calc: CalcId(u32::from(kind) % CALCS as u32),
                size: b,
            },
        }
    }

    fn registers(spec: &DataPlaneSpec) -> Vec<RegisterArray> {
        spec.registers.iter().map(RegisterArray::new).collect()
    }

    fn phv_state(phv: &Phv, spec: &DataPlaneSpec) -> (Vec<(u128, u16)>, bool) {
        let fields = (0..spec.fields.len())
            .map(|i| phv.get(FieldId(i as u32)))
            .map(|v| (v.bits(), v.width()))
            .collect();
        (fields, phv.dropped)
    }

    proptest! {
        #[test]
        fn micro_ops_match_the_value_chain(
            body in prop::collection::vec(
                (0u8..17, 0..WIDTHS.len(), raw_operand(), raw_operand()),
                1..12,
            ),
            seed in prop::collection::vec(any::<u128>(), WIDTHS.len()),
            params in prop::collection::vec((any::<u128>(), 1u16..=128), 3),
        ) {
            let spec = test_spec();
            let action = RAction {
                name: "a".into(),
                param_widths: Vec::new(),
                body: body
                    .iter()
                    .map(|(kind, dst, a, b)| primitive(&spec, *kind, *dst, *a, *b))
                    .collect(),
            };
            let data: Vec<Value> = params.iter().map(|(b, w)| Value::new(*b, *w)).collect();
            let mut want = Phv::new(&spec);
            for (i, bits) in seed.iter().enumerate() {
                want.set_bits(field(&spec, i), *bits);
            }
            let mut got = want.clone();
            let (mut want_regs, mut got_regs) = (registers(&spec), registers(&spec));

            // Twice over, so the second pass reads what the first wrote
            // into the registers.
            let ops = lower_action(&spec, &action);
            let mut scratch = Vec::new();
            for _ in 0..2 {
                for prim in &action.body {
                    run_primitive(&spec, &mut want_regs, prim, &data, &mut want);
                }
                run_action(&ops, &spec.calcs, &mut got_regs, &mut scratch, &data, &mut got);
            }

            prop_assert_eq!(phv_state(&got, &spec), phv_state(&want, &spec));
            for (g, w) in got_regs.iter().zip(&want_regs) {
                prop_assert_eq!(g.read_range(0, u32::MAX), w.read_range(0, u32::MAX));
            }
        }

        #[test]
        fn guard_jump_code_matches_the_tree(
            shape in prop::collection::vec((0u8..5, raw_operand(), raw_operand(), 0u8..6), 1..24),
            polarities in prop::collection::vec(any::<bool>(), 1..4),
            seed in prop::collection::vec(any::<u128>(), WIDTHS.len()),
            header_valid in any::<bool>(),
        ) {
            let spec = test_spec();
            let header = spec.header_idx("h").expect("test header");
            // Fold the shape list into one expression per guard: leaves
            // push, connectives pop.
            let build = |shape: &[(u8, RawOperand, RawOperand, u8)]| {
                let mut stack: Vec<RBool> = Vec::new();
                for (kind, lhs, rhs, op) in shape {
                    let node = match (kind, stack.len()) {
                        (2, 2..) => {
                            let (b, a) = (stack.pop().unwrap(), stack.pop().unwrap());
                            RBool::And(Box::new(a), Box::new(b))
                        }
                        (3, 2..) => {
                            let (b, a) = (stack.pop().unwrap(), stack.pop().unwrap());
                            RBool::Or(Box::new(a), Box::new(b))
                        }
                        (4, 1..) => RBool::Not(Box::new(stack.pop().unwrap())),
                        (0, _) => RBool::Valid(header),
                        _ => RBool::Cmp {
                            lhs: operand(&spec, *lhs),
                            op: [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]
                                [usize::from(*op)],
                            rhs: operand(&spec, *rhs),
                        },
                    };
                    stack.push(node);
                }
                stack
                    .into_iter()
                    .reduce(|a, b| RBool::Or(Box::new(a), Box::new(b)))
                    .expect("at least one leaf")
            };
            let guards: Vec<(RBool, bool)> = polarities
                .iter()
                .enumerate()
                .map(|(i, pol)| (build(&shape[i % shape.len()..]), *pol))
                .collect();
            let mut phv = Phv::new(&spec);
            for (i, bits) in seed.iter().enumerate() {
                // Narrow values make the comparisons hit both ways.
                phv.set_bits(field(&spec, i), *bits % 3);
            }
            phv.set_valid(header, header_valid);
            let want = guards.iter().all(|(cond, pol)| eval_bool(&phv, cond) == *pol);
            prop_assert_eq!(Guard::lower(&guards).passes(&phv), want);
        }
    }

    #[test]
    fn unguarded_apply_always_passes() {
        let spec = test_spec();
        assert!(Guard::lower(&[]).passes(&Phv::new(&spec)));
    }

    #[test]
    fn empty_register_is_inert_under_every_op() {
        let spec = test_spec();
        let empty = RegisterId(2);
        assert_eq!(
            spec.registers[2].count, 0,
            "r2 is the zero-cell register: {:?}",
            spec.registers[2]
        );
        let dst = field(&spec, 5);
        let action = RAction {
            name: "a".into(),
            param_widths: Vec::new(),
            body: vec![
                RPrimitive::Count {
                    counter: empty,
                    index: ROperand::Const(Value::new(9, 32)),
                },
                RPrimitive::RegisterWrite {
                    register: empty,
                    index: ROperand::Const(Value::new(1, 32)),
                    value: ROperand::Const(Value::new(7, 32)),
                },
                RPrimitive::RegisterRead {
                    dst,
                    register: empty,
                    index: ROperand::Const(Value::new(1, 32)),
                },
            ],
        };
        let mut phv = Phv::new(&spec);
        phv.set_bits(dst, 77);
        let mut regs = registers(&spec);
        let ops = lower_action(&spec, &action);
        run_action(&ops, &spec.calcs, &mut regs, &mut Vec::new(), &[], &mut phv);
        assert_eq!(phv.bits(dst), 0, "an empty register reads as zero");
    }
}
