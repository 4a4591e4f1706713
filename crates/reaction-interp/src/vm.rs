//! Operand-resolved bytecode VM for reaction bodies.
//!
//! [`CompiledReaction`] compiles a parsed reaction body once into `Vec<Op>`
//! over a register file, resolving every operand at compile time as
//! `rmt-sim`'s action kernel resolves `Src::{Const, Field, Param}`: a local,
//! a constant, a static the compiler proves live and every intermediate
//! value (the operand stack, laid out at compile time) is a register. An op
//! names the registers it reads and the one it writes, with the width the
//! write narrows to: `x = y + 4;` is one `Bin`, `i < 4` in a loop head one
//! compare-and-branch. Other statics, reaction arguments, malleables and
//! builtins are interned-name environment ops. After the first run the VM
//! performs no per-invocation allocation.
//!
//! The AST tree-walker ([`crate::Interpreter`]) remains the reference
//! semantics. The compiler reproduces its observable behavior *exactly*:
//!
//! * the same `ReactionEnv` calls in the same order,
//! * the same errors (including wrap-around stores and `DivisionByZero`),
//! * the same step accounting, and `StepLimitExceeded` at the walker's
//!   point: the walker ticks once per statement, expression node and loop
//!   iteration; the compiler counts those ticks in walker order and gives
//!   each op the ones that come before it ([`Inst`]), which it counts —
//!   and checks against the limit — before it does anything. So when the
//!   limit fires, everything observable that happened before it is what
//!   the walker did. Only steps that end a block with no op after them
//!   need an op of their own (`Tick`).
//!
//! The compiler is *total* over what the front end accepts: every body
//! `p4r_lang::creact::parse_body` returns compiles, short of one too large
//! for the bytecode's u16 indices ([`CompileError::TooLarge`]). Two
//! front-end rules make it so. The parser wraps a bare declaration used as
//! a branch or loop body in a block, so every local's visibility is
//! lexical and a register can stand for it; and a cast is exactly what
//! [`cast_type`] accepts applied to one argument — anything else under the
//! `__cast_` prefix is a compile-time error in `p4r-compiler`'s IR check
//! and, to both engines, an ordinary (unknown) builtin call.

use crate::slots::ReactionSlots;
use crate::{apply_binop, cast_type, coerce, elem, Binding, InterpError, ReactionEnv};
use p4r_lang::creact::{BinOp, Body, CType, Declarator, Expr, LValue, Stmt, UnOp};
use std::collections::HashMap;
use std::fmt;

/// Sentinel for "this name has no static slot anywhere in the body".
const NO_STATIC: u16 = u16::MAX;

/// The type of a compiler temporary: `coerce` leaves a 128-bit value as is.
const WIDE: CType = CType::Int(128);

/// The one way a parsed body fails to compile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// Register, array, type or name counts overflow the bytecode's
    /// indices.
    TooLarge(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::TooLarge(s) => write!(f, "body too large for bytecode: {s}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Where an op puts its value: register `reg`, narrowed on the way in to
/// width `width` of the program's width table (a C type's truncation and
/// sign, or none).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Dst {
    reg: u16,
    width: u8,
}

/// The registers an environment call passes: `len` entries of the
/// program's argument table from `at`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Args {
    at: u32,
    len: u16,
}

/// The builtins the VM computes itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Native {
    Abs,
    Min,
    Max,
    Cast(CType),
}

/// An op, and the steps the walker takes before it does what the op does:
/// the ticks of the statements, expression nodes and loop iterations it
/// enters after the previous op's effect.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Inst {
    ticks: u32,
    op: Op,
}

/// One bytecode instruction, its fields in the order its comment names
/// them. Every `u16` but a `name` (an interned name) or a `slot` (a static
/// slot) is a register or an array. Statics occupy the first registers and
/// the first arrays, one of each per static slot; locals, constants and
/// temporaries follow. An op reads all of its operands before it writes
/// `dst`, which may be one of them. A `u32` is a jump target or a length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum Op {
    /// Nothing but the steps: those that end a block with no op after them.
    Tick,
    /// `(src, dst)`.
    Move(u16, Dst),
    /// `(op, a, dst)`.
    Un(UnOp, u16, Dst),
    /// `(op, a, b, dst)`: `a op b` for every operator but `&&` / `||`.
    Bin(BinOp, u16, u16, Dst),
    Jmp(u32),
    /// `(op, a, b, to)`: jump when the comparison `a op b` holds.
    JmpIf(BinOp, u16, u16, u32),
    /// `(a, on, to, dst)`: `&&` (`on` false) / `||` (`on` true) as a
    /// value — when `a`'s truth is `on`, that is the value: write it as 0 /
    /// 1 and jump past the right operand.
    ShortCircuit(u16, bool, u32, Dst),
    /// `(reg, width, delta, post, dst)`: `++` / `--` on a register of
    /// width `width`; `dst` gets the value before (`post`) or after.
    IncrReg(u16, u8, i8, bool, Dst),
    /// `(arr, len)`: (re)zero a local array at its declaration.
    ZeroArray(u16, u32),
    /// `(arr, name, idx, dst)`: `arr[idx]`, bounds-checked.
    Elem(u16, u16, u16, Dst),
    /// `(arr, name, width, idx, val, dst)`: `arr[idx] = val` narrowed to
    /// `width`; `dst` gets the stored value.
    SetElem(u16, u16, u8, u16, u16, Dst),
    /// `(name)`: reading an array as a scalar.
    FailNotAScalar(u16),
    /// `(name)`: indexing a scalar.
    FailNotAnArray(u16),
    /// `(name, slot, dst)`: live static → env scalar arg → errors.
    LoadDyn(u16, u16, Dst),
    /// `(name, slot, src, dst)`: through the same chain (env args are
    /// read-only); `dst` gets the stored value.
    AssignDyn(u16, u16, u16, Dst),
    /// `(name, slot, idx, dst)`: live static array → env array arg →
    /// errors.
    ElemDyn(u16, u16, u16, Dst),
    /// `(name, slot, idx, val, dst)`.
    SetElemDyn(u16, u16, u16, u16, Dst),
    /// `(slot, to)`: skip the one-time initializer of a live static.
    JmpIfStaticInit(u16, u32),
    /// `(slot, ty, src)`: coerce, store, mark live.
    InitScalar(u16, CType, u16),
    /// `(slot, ty, len)`: zero, mark live (array initializers are ignored,
    /// as in the tree-walker).
    InitArray(u16, CType, u32),
    /// `(name, dst)`.
    ReadMbl(u16, Dst),
    /// `(name, src, dst)`: `write_mbl`, then `read_mbl` into `dst` — read
    /// whether or not the value is used, as the walker does.
    AssignMbl(u16, u16, Dst),
    /// `(name, delta, post, dst)`: `++` / `--` on a malleable.
    IncrMbl(u16, i8, bool, Dst),
    /// `(f, a, b, dst)`: `f(a)` or `f(a, b)`.
    Native(Native, u16, u16, Dst),
    /// `(name, args, dst)`: an environment builtin.
    EnvCall(u16, Args, Dst),
    /// `(receiver, method, args, dst)`: `env.table_op`.
    TableCall(u16, u16, Args, Dst),
    /// Stop, returning the register if there is one.
    Ret(Option<u16>),
}

impl Op {
    fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Op::Jmp(j) | Op::JmpIf(.., j) | Op::ShortCircuit(_, _, j, _) => Some(j),
            Op::JmpIfStaticInit(_, j) => Some(j),
            _ => None,
        }
    }
}

/// What a static slot holds. `Uninit` until a declaration executes for the
/// first time (the tree-walker inserts into its statics map lazily, and
/// name resolution must observe exactly the same liveness); the value of a
/// scalar lives in the register of the same index, the elements of an
/// array in the array of the same index.
#[derive(Clone, Copy, Debug)]
enum StaticCell {
    Uninit,
    Scalar(CType),
    Array(CType),
}

/// The compiled program (immutable after compile).
#[derive(Clone, Debug)]
struct Program {
    ops: Vec<Inst>,
    /// Interned names, for env calls and error messages.
    names: Vec<String>,
    /// The register file a reaction starts with: zero, but for the
    /// constants (statics first, then the scratch register).
    regs: Vec<i128>,
    /// `(mask, sign)` of each width a `Dst` names: `v` is stored as
    /// `((v & mask) ^ sign) - sign`, which is `coerce` for its C type.
    widths: Vec<(i128, i128)>,
    /// The registers of every environment call's arguments, in order.
    args: Vec<u16>,
    n_arrays: usize,
    n_static_slots: usize,
}

/// A reaction body compiled to operand-resolved bytecode, plus its
/// persistent `static` state — the VM twin of [`crate::Interpreter`].
#[derive(Debug)]
pub struct CompiledReaction {
    program: Program,
    /// What each of `program.names` resolved to in the environment the
    /// reaction is registered with; all [`Binding::UNBOUND`] until
    /// [`bind`](Self::bind).
    bound: Vec<Binding>,
    statics: Vec<StaticCell>,
    /// Execution step budget per invocation (loop runaway guard).
    pub step_limit: u64,
    /// Cumulative count of bytecode ops dispatched (for telemetry).
    dispatched: u64,
    // Execution state reused from run to run: no allocation per run after
    // warm-up. Statics' values live in the first registers and arrays.
    regs: Vec<i128>,
    arrays: Vec<Vec<i128>>,
    args_buf: Vec<i128>,
}

impl CompiledReaction {
    /// Compile a parsed body, collecting static slots along the way.
    pub fn compile(body: &Body) -> Result<Self, CompileError> {
        let slots =
            ReactionSlots::collect(body).map_err(|e| CompileError::TooLarge(e.to_string()))?;
        Self::compile_with_slots(body, &slots)
    }

    /// Compile against pre-resolved static slots (shared with the IR layer,
    /// so the VM and every other consumer agree on slot assignment).
    pub fn compile_with_slots(body: &Body, slots: &ReactionSlots) -> Result<Self, CompileError> {
        let program = Compiler::compile(body, slots)?;
        Ok(CompiledReaction {
            bound: vec![Binding::UNBOUND; program.names.len()],
            statics: vec![StaticCell::Uninit; program.n_static_slots],
            step_limit: 50_000_000,
            dispatched: 0,
            regs: program.regs.clone(),
            arrays: vec![Vec::new(); program.n_arrays],
            args_buf: Vec::new(),
            program,
        })
    }

    /// Parse and compile in one call. The outer error is a parse failure;
    /// the inner one a body too large for the bytecode.
    pub fn from_source(src: &str) -> Result<Result<Self, CompileError>, p4r_lang::ParseError> {
        let body = p4r_lang::creact::parse_body(src)?;
        Ok(Self::compile(&body))
    }

    /// Resolve every name the body mentions against the environment it
    /// will run in, once: `resolve` maps a name to that environment's ids,
    /// as [`ReactionEnv::resolve`] does. Every call a run then makes into
    /// the environment passes these ids beside the name; unbound, it
    /// passes [`Binding::NONE`].
    pub fn bind(&mut self, resolve: impl Fn(&str) -> Binding) {
        for (b, name) in self.bound.iter_mut().zip(&self.program.names) {
            *b = resolve(name);
        }
    }

    /// Number of bytecode ops in the program.
    pub fn ops_len(&self) -> usize {
        self.program.ops.len()
    }

    /// Cumulative ops dispatched across all runs (telemetry counter).
    pub fn dispatch_count(&self) -> u64 {
        self.dispatched
    }

    /// Reset persistent static state (used when "reloading" a reaction).
    pub fn reset_statics(&mut self) {
        self.statics.fill(StaticCell::Uninit);
    }

    /// Run one iteration of the reaction.
    pub fn run(&mut self, env: &mut dyn ReactionEnv) -> Result<Option<i128>, InterpError> {
        let Program {
            ops,
            names,
            widths,
            args,
            ..
        } = &self.program;
        let (bound, statics) = (&self.bound[..], &mut self.statics[..]);
        let (regs, arrays) = (&mut self.regs[..], &mut self.arrays[..]);
        let args_buf = &mut self.args_buf;
        let (mut dispatched, step_limit) = (0u64, self.step_limit);
        macro_rules! reg {
            ($r:expr) => {
                regs[$r as usize]
            };
        }
        // Store `v` narrowed to `dst`'s width.
        macro_rules! put {
            ($dst:expr, $v:expr) => {{
                let (v, dst): (i128, Dst) = ($v, $dst);
                reg!(dst.reg) = narrow(widths, dst.width, v);
            }};
        }
        macro_rules! args {
            ($a:expr) => {{
                let list = &args[$a.at as usize..$a.at as usize + usize::from($a.len)];
                args_buf.clear();
                args_buf.extend(list.iter().map(|&r| reg!(r)));
                &args_buf[..]
            }};
        }
        let mut run = || -> Result<Option<i128>, InterpError> {
            let (mut pc, mut steps) = (0usize, 0u64);
            loop {
                let Some(inst) = ops.get(pc) else {
                    return Ok(None);
                };
                pc += 1;
                dispatched += 1;
                steps += u64::from(inst.ticks);
                if steps > step_limit {
                    return Err(InterpError::StepLimitExceeded(step_limit));
                }
                match inst.op {
                    Op::Tick => {}
                    Op::Move(src, dst) => put!(dst, reg!(src)),
                    Op::Un(op, a, dst) => put!(dst, unop(op, reg!(a))),
                    Op::Bin(op, a, b, dst) => put!(dst, binop(op, reg!(a), reg!(b))?),
                    Op::Jmp(to) => pc = to as usize,
                    Op::JmpIf(op, a, b, to) => {
                        if holds(op, reg!(a), reg!(b)) {
                            pc = to as usize;
                        }
                    }
                    Op::ShortCircuit(a, on, to, dst) => {
                        if (reg!(a) != 0) == on {
                            put!(dst, i128::from(on));
                            pc = to as usize;
                        }
                    }
                    Op::IncrReg(r, width, delta, post, dst) => {
                        let cur = reg!(r);
                        reg!(r) = narrow(widths, width, cur.wrapping_add(i128::from(delta)));
                        put!(dst, if post { cur } else { reg!(r) });
                    }
                    Op::ZeroArray(arr, len) => zero(&mut arrays[arr as usize], len),
                    Op::Elem(arr, n, idx, dst) => {
                        let a = &mut arrays[arr as usize];
                        put!(dst, *elem(a, reg!(idx), &names[n as usize])?);
                    }
                    Op::SetElem(arr, n, width, idx, val, dst) => {
                        let (a, v) = (&mut arrays[arr as usize], narrow(widths, width, reg!(val)));
                        *elem(a, reg!(idx), &names[n as usize])? = v;
                        put!(dst, v);
                    }
                    Op::FailNotAScalar(n) => {
                        return Err(InterpError::NotAScalar(names[n as usize].clone()))
                    }
                    Op::FailNotAnArray(n) => {
                        return Err(InterpError::NotAnArray(names[n as usize].clone()))
                    }
                    Op::LoadDyn(n, slot, dst) => {
                        let (n, b) = (&names[n as usize], bound[n as usize]);
                        put!(dst, read_dyn_var(statics, regs, env, n, b, slot)?);
                    }
                    Op::AssignDyn(n, slot, src, dst) => {
                        let (n, v) = (&names[n as usize], reg!(src));
                        put!(dst, write_dyn_var(statics, regs, n, slot, v)?);
                    }
                    Op::ElemDyn(n, slot, idx, dst) => {
                        let (n, b, i) = (&names[n as usize], bound[n as usize], reg!(idx));
                        put!(dst, read_dyn_elem(statics, arrays, env, n, b, slot, i)?);
                    }
                    Op::SetElemDyn(n, slot, idx, val, dst) => {
                        let (n, i, v) = (&names[n as usize], reg!(idx), reg!(val));
                        put!(dst, write_dyn_elem(statics, arrays, n, slot, i, v)?);
                    }
                    Op::JmpIfStaticInit(slot, to) => {
                        if !matches!(statics[slot as usize], StaticCell::Uninit) {
                            pc = to as usize;
                        }
                    }
                    Op::InitScalar(slot, ty, src) => {
                        reg!(slot) = coerce(ty, reg!(src));
                        statics[slot as usize] = StaticCell::Scalar(ty);
                    }
                    Op::InitArray(slot, ty, len) => {
                        zero(&mut arrays[slot as usize], len);
                        statics[slot as usize] = StaticCell::Array(ty);
                    }
                    Op::ReadMbl(n, dst) => {
                        let (id, n) = (bound[n as usize].mbl, &names[n as usize]);
                        put!(dst, env.read_mbl(id, n)?);
                    }
                    Op::AssignMbl(n, src, dst) => {
                        let (id, n) = (bound[n as usize].mbl, &names[n as usize]);
                        env.write_mbl(id, n, reg!(src))?;
                        put!(dst, env.read_mbl(id, n)?);
                    }
                    Op::IncrMbl(n, delta, post, dst) => {
                        let (id, n) = (bound[n as usize].mbl, &names[n as usize]);
                        let cur = env.read_mbl(id, n)?;
                        env.write_mbl(id, n, cur.wrapping_add(i128::from(delta)))?;
                        put!(dst, if post { cur } else { env.read_mbl(id, n)? });
                    }
                    Op::Native(f, a, b, dst) => put!(dst, native(f, reg!(a), reg!(b))),
                    Op::EnvCall(n, a, dst) => {
                        let (id, n) = (bound[n as usize].builtin, &names[n as usize]);
                        match env.call(id, n, args!(a)) {
                            Some(r) => put!(dst, r?),
                            None => return Err(InterpError::UnknownBuiltin(n.clone())),
                        }
                    }
                    Op::TableCall(r, m, a, dst) => {
                        let ids = (bound[r as usize].table, bound[m as usize].method);
                        let (r, m) = (&names[r as usize], &names[m as usize]);
                        put!(dst, env.table_op(ids, r, m, args!(a))?);
                    }
                    Op::Ret(v) => return Ok(v.map(|r| reg!(r))),
                }
            }
        };
        let result = run();
        self.dispatched += dispatched;
        result
    }
}

/// `v` narrowed to width `width` of `widths`.
#[inline]
fn narrow(widths: &[(i128, i128)], width: u8, v: i128) -> i128 {
    let (mask, sign) = widths[usize::from(width)];
    ((v & mask) ^ sign) - sign
}

/// `(mask, sign)` such that `((v & mask) ^ sign) - sign == coerce(ty, v)`.
fn width_of(ty: CType) -> (i128, i128) {
    let bits = u32::from(ty.bits()).min(127);
    let mask = match bits {
        0 => 0,
        127 => -1,
        _ => (1i128 << bits) - 1,
    };
    let sign = match bits {
        1..=126 if ty.is_signed() => 1i128 << (bits - 1),
        _ => 0,
    };
    (mask, sign)
}

fn zero(a: &mut Vec<i128>, len: u32) {
    a.clear();
    a.resize(len as usize, 0);
}

#[inline]
fn unop(op: UnOp, v: i128) -> i128 {
    match op {
        UnOp::Neg => v.wrapping_neg(),
        UnOp::Not => !v,
        UnOp::LNot => i128::from(v == 0),
    }
}

/// `a op b` for every binary operator but the short-circuit pair: the
/// walker's [`apply_binop`], with `*`, `/` and `%` taken in 64 bits when
/// both operands fit. The result is the same — a 64-bit product that
/// overflows, a zero divisor and `i64::MIN / -1` fall through to the
/// 128-bit path — without the 128-bit division library call.
#[inline]
fn binop(op: BinOp, a: i128, b: i128) -> Result<i128, InterpError> {
    if let BinOp::Mul | BinOp::Div | BinOp::Rem = op {
        if let (Ok(x), Ok(y)) = (i64::try_from(a), i64::try_from(b)) {
            let narrow = match op {
                BinOp::Mul => x.checked_mul(y),
                BinOp::Div => x.checked_div(y),
                _ => x.checked_rem(y),
            };
            if let Some(v) = narrow {
                return Ok(i128::from(v));
            }
        }
    }
    apply_binop(op, a, b)
}

/// Does the comparison `a op b` hold?
#[inline]
fn holds(op: BinOp, a: i128, b: i128) -> bool {
    match op {
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        other => unreachable!("`{other:?}` is not a comparison"),
    }
}

/// The comparison that holds exactly when `op` does not; `None` for an
/// operator that is not a comparison.
fn negate(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        _ => return None,
    })
}

fn native(f: Native, a: i128, b: i128) -> i128 {
    match f {
        Native::Abs => a.wrapping_abs(),
        Native::Min => a.min(b),
        Native::Max => a.max(b),
        Native::Cast(ty) => coerce(ty, a),
    }
}

/// The cell of a static slot (none for [`NO_STATIC`]) once it is live.
#[inline]
fn live(statics: &[StaticCell], slot: u16) -> Option<StaticCell> {
    let cell = statics.get(slot as usize).copied();
    cell.filter(|c| !matches!(c, StaticCell::Uninit))
}

/// Scalar read chain: live static → env scalar arg → env array (NotAScalar)
/// → UnknownVariable. Mirrors `Exec::read_var` for non-local names.
#[inline]
fn read_dyn_var(
    statics: &[StaticCell],
    regs: &[i128],
    env: &mut dyn ReactionEnv,
    n: &str,
    b: Binding,
    slot: u16,
) -> Result<i128, InterpError> {
    match live(statics, slot) {
        Some(StaticCell::Scalar(_)) => Ok(regs[slot as usize]),
        Some(_) => Err(InterpError::NotAScalar(n.into())),
        None => match env.read_scalar_arg(b.scalar, n) {
            Some(v) => Ok(v),
            None if env.is_array_arg(b.array, n) => Err(InterpError::NotAScalar(n.into())),
            None => Err(InterpError::UnknownVariable(n.into())),
        },
    }
}

/// Scalar write chain: live static → UnknownVariable (environment arguments
/// are read-only, exactly like `Exec::write_var_scalar` for non-local
/// names). Returns the stored (coerced) value for the assignment's result.
fn write_dyn_var(
    statics: &[StaticCell],
    regs: &mut [i128],
    n: &str,
    slot: u16,
    v: i128,
) -> Result<i128, InterpError> {
    match live(statics, slot) {
        Some(StaticCell::Scalar(ty)) => {
            regs[slot as usize] = coerce(ty, v);
            Ok(regs[slot as usize])
        }
        Some(_) => Err(InterpError::NotAScalar(n.into())),
        None => Err(InterpError::UnknownVariable(n.into())),
    }
}

/// Element read chain: live static array → env array arg → NotAnArray /
/// UnknownVariable. Mirrors `Exec::read_index` for non-local names.
#[inline]
fn read_dyn_elem(
    statics: &[StaticCell],
    arrays: &mut [Vec<i128>],
    env: &mut dyn ReactionEnv,
    n: &str,
    b: Binding,
    slot: u16,
    i: i128,
) -> Result<i128, InterpError> {
    match live(statics, slot) {
        Some(StaticCell::Array(_)) => elem(&mut arrays[slot as usize], i, n).map(|v| *v),
        Some(_) => Err(InterpError::NotAnArray(n.into())),
        None => match env.read_array_arg(b.array, n, i) {
            Some(r) => r,
            None if env.read_scalar_arg(b.scalar, n).is_some() => {
                Err(InterpError::NotAnArray(n.into()))
            }
            None => Err(InterpError::UnknownVariable(n.into())),
        },
    }
}

/// Element write chain: live static array only, exactly like
/// `Exec::write_index` for non-local names. Returns the stored value.
fn write_dyn_elem(
    statics: &[StaticCell],
    arrays: &mut [Vec<i128>],
    n: &str,
    slot: u16,
    i: i128,
    v: i128,
) -> Result<i128, InterpError> {
    match live(statics, slot) {
        Some(StaticCell::Array(ty)) => {
            let e = elem(&mut arrays[slot as usize], i, n)?;
            *e = coerce(ty, v);
            Ok(*e)
        }
        Some(_) => Err(InterpError::NotAnArray(n.into())),
        None => Err(InterpError::UnknownVariable(n.into())),
    }
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

/// What a variable name means at a given compile point.
#[derive(Clone, Copy, Debug)]
enum Var {
    /// A local scalar, or a static scalar proved live: a register.
    Scalar { reg: u16, ty: CType },
    /// A local array, or a static array proved live.
    Array { arr: u16, ty: CType },
    /// Through the "live static, else environment argument" chain.
    Dyn { static_slot: u16 },
}

/// A place a value is read from or stored to, its index evaluated (exactly
/// once, as the walker's `resolve_lvalue`) into a register.
#[derive(Clone, Copy, Debug)]
enum Lv {
    /// `(reg, ty)`.
    Reg(u16, CType),
    /// `(arr, name, ty, idx)`.
    Elem(u16, u16, CType, u16),
    /// `(name, slot)`.
    Dyn(u16, u16),
    /// `(name, slot, idx)`.
    ElemDyn(u16, u16, u16),
    Mbl(u16),
    /// Any access fails with this op.
    Fail(Op),
}

/// Where the value of an expression being compiled goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Want {
    /// The next register of the operand stack.
    Push,
    /// An assignment or declaration target, coerced to its type.
    Into(u16, CType),
    /// Nowhere: a statement such as `x = e;`, `++i` or `t.addEntry(..);`.
    Discard,
}

/// One lexical scope: its locals, and the statics whose one declaration
/// has executed by this point of it.
#[derive(Default)]
struct Scope {
    locals: HashMap<String, Var>,
    live_statics: Vec<u16>,
}

#[derive(Default)]
struct LoopCtx {
    continue_sites: Vec<usize>,
    break_sites: Vec<usize>,
}

struct Compiler<'a> {
    ops: Vec<Inst>,
    names: Vec<String>,
    name_ids: HashMap<String, u16>,
    scopes: Vec<Scope>,
    slots: &'a ReactionSlots,
    /// Type and kind of each static's one declaration, once compiled.
    static_decls: HashMap<u16, Var>,
    /// The register file's starting values: the statics', the scratch
    /// register, then as allocated.
    regs: Vec<i128>,
    /// Register of each constant.
    consts: HashMap<i128, u16>,
    /// The operand stack: the register of each depth, and the depth.
    stack: Vec<u16>,
    depth: usize,
    /// The C types behind `Program::widths`; width 0 is no narrowing.
    widths: Vec<CType>,
    args: Vec<u16>,
    n_arrays: u16,
    /// Walker steps counted since the last op: the next op's `ticks`.
    pending: u32,
    loops: Vec<LoopCtx>,
    /// Top-level `break`/`continue` sites (tolerated as termination): they
    /// jump to the program end.
    end_sites: Vec<usize>,
}

impl<'a> Compiler<'a> {
    /// Compile against the shared, pre-resolved static slot map. Every
    /// static declaration anywhere in the body already has a slot, so any
    /// reference can check liveness at run time.
    fn compile(body: &Body, slots: &'a ReactionSlots) -> Result<Program, CompileError> {
        let mut c = Compiler {
            ops: Vec::new(),
            names: Vec::new(),
            name_ids: HashMap::new(),
            scopes: vec![Scope::default()],
            slots,
            static_decls: HashMap::new(),
            // The statics', then the scratch register.
            regs: vec![0; slots.len() + 1],
            consts: HashMap::new(),
            stack: Vec::new(),
            depth: 0,
            widths: vec![WIDE],
            args: Vec::new(),
            n_arrays: slots.len() as u16,
            pending: 0,
            loops: Vec::new(),
            end_sites: Vec::new(),
        };
        for s in &body.stmts {
            c.stmt(s)?;
        }
        let end = c.label();
        for site in std::mem::take(&mut c.end_sites) {
            c.patch(site, end);
        }
        Ok(Program {
            ops: c.ops,
            names: c.names,
            regs: c.regs,
            widths: c.widths.into_iter().map(width_of).collect(),
            args: c.args,
            n_arrays: usize::from(c.n_arrays),
            n_static_slots: slots.len(),
        })
    }

    fn intern(&mut self, name: &str) -> Result<u16, CompileError> {
        if let Some(&id) = self.name_ids.get(name) {
            return Ok(id);
        }
        let id = index(self.names.len(), "names")?;
        self.names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        Ok(id)
    }

    fn new_reg(&mut self, init: i128) -> Result<u16, CompileError> {
        let reg = index(self.regs.len(), "registers")?;
        self.regs.push(init);
        Ok(reg)
    }

    fn konst(&mut self, v: i128) -> Result<u16, CompileError> {
        if let Some(&reg) = self.consts.get(&v) {
            return Ok(reg);
        }
        let reg = self.new_reg(v)?;
        self.consts.insert(v, reg);
        Ok(reg)
    }

    /// The value of `reg` when it is a constant's.
    fn constant(&self, reg: u16) -> Option<i128> {
        let v = self.regs[usize::from(reg)];
        (self.consts.get(&v) == Some(&reg)).then_some(v)
    }

    fn width(&mut self, ty: CType) -> Result<u8, CompileError> {
        let at = self.widths.iter().position(|w| *w == ty);
        let at = at.unwrap_or_else(|| {
            self.widths.push(ty);
            self.widths.len() - 1
        });
        u8::try_from(at).map_err(|_| CompileError::TooLarge("too many types".into()))
    }

    /// An op has read `reg`: if it is the top of the operand stack, its
    /// depth is free again. (Operands are freed in reverse order.)
    fn free(&mut self, reg: u16) {
        if self.depth > 0 && self.stack[self.depth - 1] == reg {
            self.depth -= 1;
        }
    }

    /// Where an op writes a value that goes to `want`.
    fn place(&mut self, want: Want) -> Result<Dst, CompileError> {
        Ok(match want {
            Want::Push => {
                if self.depth == self.stack.len() {
                    let reg = self.new_reg(0)?;
                    self.stack.push(reg);
                }
                self.depth += 1;
                let reg = self.stack[self.depth - 1];
                Dst { reg, width: 0 }
            }
            Want::Into(reg, ty) => Dst {
                reg,
                width: self.width(ty)?,
            },
            // The scratch register.
            Want::Discard => Dst {
                reg: self.slots.len() as u16,
                width: 0,
            },
        })
    }

    /// `reg`'s value, wherever `want` says.
    fn copy(&mut self, reg: u16, want: Want) -> Result<(), CompileError> {
        if want != Want::Discard {
            let dst = self.place(want)?;
            self.emit(Op::Move(reg, dst));
        }
        Ok(())
    }

    /// What `name` means here. Locals first, innermost scope out (the
    /// walker's `find_var`); then a static, directly when its one
    /// declaration has run by this point of an enclosing scope (so the
    /// cell is live and of the declared kind), else through the chain.
    fn var(&self, name: &str) -> Var {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.locals.get(name) {
                return *v;
            }
        }
        let static_slot = self.slots.slot(name).unwrap_or(NO_STATIC);
        let live = |s: &Scope| s.live_statics.contains(&static_slot);
        match self.static_decls.get(&static_slot) {
            Some(v) if self.scopes.iter().any(live) => *v,
            _ => Var::Dyn { static_slot },
        }
    }

    /// `name`, or element `idx` of it, as a place; the index is evaluated
    /// here, into the returned register.
    fn resolve(
        &mut self,
        name: &str,
        idx: Option<&Expr>,
    ) -> Result<(Lv, Option<u16>), CompileError> {
        let i = idx.map(|e| self.operand(e)).transpose()?;
        let id = self.intern(name)?;
        let lv = match (self.var(name), i) {
            (Var::Scalar { reg, ty }, None) => Lv::Reg(reg, ty),
            (Var::Array { arr, ty }, Some(i)) => Lv::Elem(arr, id, ty, i),
            (Var::Dyn { static_slot }, None) => Lv::Dyn(id, static_slot),
            (Var::Dyn { static_slot }, Some(i)) => Lv::ElemDyn(id, static_slot, i),
            (Var::Array { .. }, None) => Lv::Fail(Op::FailNotAScalar(id)),
            (Var::Scalar { .. }, Some(_)) => Lv::Fail(Op::FailNotAnArray(id)),
        };
        Ok((lv, i))
    }

    fn lvalue(&mut self, target: &LValue) -> Result<(Lv, Option<u16>), CompileError> {
        match target {
            LValue::Var(name) => self.resolve(name, None),
            LValue::Index(name, idx) => self.resolve(name, Some(idx)),
            LValue::Mbl(name) => Ok((Lv::Mbl(self.intern(name)?), None)),
        }
    }

    /// The op that reads `lv` into `dst`.
    fn load(lv: Lv, dst: Dst) -> Op {
        match lv {
            Lv::Reg(reg, _) => Op::Move(reg, dst),
            Lv::Elem(arr, name, _, idx) => Op::Elem(arr, name, idx, dst),
            Lv::Dyn(name, slot) => Op::LoadDyn(name, slot, dst),
            Lv::ElemDyn(name, slot, idx) => Op::ElemDyn(name, slot, idx, dst),
            Lv::Mbl(name) => Op::ReadMbl(name, dst),
            Lv::Fail(op) => op,
        }
    }

    /// Store register `src` into `lv`; `want` gets the stored value.
    fn store(&mut self, lv: Lv, src: u16, want: Want) -> Result<(), CompileError> {
        let dst = self.place(want)?;
        let op = match lv {
            Lv::Reg(..) => unreachable!("a register is assigned where the value is computed"),
            Lv::Elem(arr, name, ty, idx) => Op::SetElem(arr, name, self.width(ty)?, idx, src, dst),
            Lv::Dyn(name, slot) => Op::AssignDyn(name, slot, src, dst),
            Lv::ElemDyn(name, slot, idx) => Op::SetElemDyn(name, slot, idx, src, dst),
            Lv::Mbl(name) => Op::AssignMbl(name, src, dst),
            Lv::Fail(op) => op,
        };
        self.emit(op);
        Ok(())
    }

    // -- emission ---------------------------------------------------------------

    /// Emit `op`, giving it the steps counted since the last op.
    fn emit(&mut self, op: Op) -> usize {
        let ticks = std::mem::take(&mut self.pending);
        self.ops.push(Inst { ticks, op });
        self.ops.len() - 1
    }

    /// Count one walker step.
    fn tick(&mut self) {
        self.pending += 1;
    }

    /// The position a jump may target. The steps of the block that falls
    /// into it are counted first, on that path only.
    fn label(&mut self) -> u32 {
        if self.pending > 0 {
            self.emit(Op::Tick);
        }
        self.ops.len() as u32
    }

    fn patch(&mut self, site: usize, to: u32) {
        *self.ops[site].op.target_mut().expect("patching a jump") = to;
    }

    fn patch_all(&mut self, sites: Vec<usize>, to: u32) {
        for site in sites {
            self.patch(site, to);
        }
    }

    fn jmp(&mut self, to: u32) -> usize {
        self.emit(Op::Jmp(to))
    }

    // -- statements ----------------------------------------------------------

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        self.tick();
        match s {
            Stmt::Empty => {}
            Stmt::Expr(e) => self.expr_to(e, Want::Discard)?,
            Stmt::Decl {
                is_static,
                ty,
                decls,
            } => {
                for d in decls {
                    self.declare(*is_static, *ty, d)?;
                }
            }
            Stmt::Block(stmts) => {
                self.scopes.push(Scope::default());
                for s in stmts {
                    self.stmt(s)?;
                }
                self.scopes.pop();
            }
            Stmt::If { cond, then_, else_ } => {
                let to_else = self.cond_jump(cond, false)?;
                self.stmt(then_)?;
                match else_ {
                    Some(e) => {
                        let jend = self.jmp(0);
                        let else_at = self.label();
                        self.patch_all(to_else, else_at);
                        self.stmt(e)?;
                        let end = self.label();
                        self.patch(jend, end);
                    }
                    None => {
                        let end = self.label();
                        self.patch_all(to_else, end);
                    }
                }
            }
            Stmt::While { cond, body } => self.looped(None, Some(cond), None, body)?,
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => self.looped(init.as_deref(), cond.as_ref(), step.as_ref(), body)?,
            Stmt::Return(e) => {
                let value = e.as_ref().map(|e| self.operand(e)).transpose()?;
                if let Some(r) = value {
                    self.free(r);
                }
                self.emit(Op::Ret(value));
            }
            Stmt::Break | Stmt::Continue => {
                let site = self.jmp(0);
                match self.loops.last_mut() {
                    Some(ctx) if matches!(s, Stmt::Break) => ctx.break_sites.push(site),
                    Some(ctx) => ctx.continue_sites.push(site),
                    None => self.end_sites.push(site),
                }
            }
        }
        debug_assert_eq!(self.depth, 0, "a statement leaves the operand stack empty");
        Ok(())
    }

    /// A `for` loop, or a `while` loop (no init, no step): the walker ticks
    /// once per iteration before the condition; `continue` goes to the step,
    /// which starts a block of its own only when there is a `continue`.
    fn looped(
        &mut self,
        init: Option<&Stmt>,
        cond: Option<&Expr>,
        step: Option<&Expr>,
        body: &Stmt,
    ) -> Result<(), CompileError> {
        self.scopes.push(Scope::default());
        if let Some(i) = init {
            self.stmt(i)?;
        }
        let head = self.label();
        self.tick();
        let exits = cond.map_or(Ok(Vec::new()), |c| self.cond_jump(c, false))?;
        self.loops.push(LoopCtx::default());
        self.stmt(body)?;
        let continued = self
            .loops
            .last()
            .is_some_and(|l| !l.continue_sites.is_empty());
        let step_at = if continued { self.label() } else { 0 };
        if let Some(st) = step {
            self.expr_to(st, Want::Discard)?;
        }
        self.jmp(head);
        let end = self.label();
        self.patch_all(exits, end);
        let ctx = self.loops.pop().expect("loop ctx");
        self.patch_all(ctx.continue_sites, step_at);
        self.patch_all(ctx.break_sites, end);
        self.scopes.pop();
        Ok(())
    }

    fn declare(&mut self, is_static: bool, ty: CType, d: &Declarator) -> Result<(), CompileError> {
        if is_static {
            let slot = self.slots.slot(&d.name).expect("static slot pre-collected");
            let skip = self.emit(Op::JmpIfStaticInit(slot, 0));
            let var = match d.array_len {
                // Array initializers are ignored (as in the walker).
                Some(n) => {
                    self.emit(Op::InitArray(slot, ty, n as u32));
                    Var::Array { arr: slot, ty }
                }
                None => {
                    let src = match &d.init {
                        Some(e) => self.operand(e)?,
                        None => self.konst(0)?,
                    };
                    self.free(src);
                    self.emit(Op::InitScalar(slot, ty, src));
                    Var::Scalar { reg: slot, ty }
                }
            };
            let after = self.label();
            self.patch(skip, after);
            // From here to the end of the scope the cell is live and of
            // this kind — when no other declaration could have made it.
            if self.slots.declarations(slot) == 1 {
                self.static_decls.insert(slot, var);
                let scope = self.scopes.last_mut().expect("scope stack never empty");
                scope.live_statics.push(slot);
            }
            return Ok(());
        }
        // Locals: a fresh register or array, (re)initialized in place. The
        // name becomes visible from this point to the end of the scope; the
        // initializer is compiled first, so it cannot see the new name
        // (matching the walker's eval-then-insert order).
        let var = match d.array_len {
            Some(n) => {
                let arr = self.n_arrays;
                self.n_arrays = index(usize::from(arr) + 1, "arrays")?;
                self.emit(Op::ZeroArray(arr, n as u32));
                Var::Array { arr, ty }
            }
            None => {
                let reg = self.new_reg(0)?;
                match &d.init {
                    Some(e) => self.expr_to(e, Want::Into(reg, ty))?,
                    None => {
                        let zero = self.konst(0)?;
                        self.copy(zero, Want::Into(reg, ty))?;
                    }
                }
                Var::Scalar { reg, ty }
            }
        };
        let scope = self.scopes.last_mut().expect("scope stack never empty");
        scope.locals.insert(d.name.clone(), var);
        Ok(())
    }

    // -- expressions ---------------------------------------------------------

    /// The register `e` reads without effect or failure — a constant, a
    /// scalar local, a static scalar proved live — if it is one.
    fn leaf(&mut self, e: &Expr) -> Result<Option<u16>, CompileError> {
        Ok(match e {
            Expr::Num(n) => Some(self.konst(*n)?),
            Expr::Var(name) => match self.var(name) {
                Var::Scalar { reg, .. } => Some(reg),
                _ => None,
            },
            _ => None,
        })
    }

    /// Compile `e` as an operand: a leaf is its register (no op, one
    /// tick); anything else runs here and leaves its value on top of the
    /// operand stack. The caller `free`s it once an op has read it.
    fn operand(&mut self, e: &Expr) -> Result<u16, CompileError> {
        if let Some(reg) = self.leaf(e)? {
            self.tick();
            return Ok(reg);
        }
        self.expr_to(e, Want::Push)?;
        Ok(self.stack[self.depth - 1])
    }

    /// `reg`, still the value it had, once code that may assign a variable
    /// (`clobbers`) has run: an op reads its operands when it runs, so a
    /// variable read first is copied to the operand stack first.
    fn keep(&mut self, reg: u16, clobbers: bool) -> Result<u16, CompileError> {
        let held = self.stack[..self.depth].contains(&reg) || self.constant(reg).is_some();
        if held || !clobbers {
            return Ok(reg);
        }
        self.copy(reg, Want::Push)?;
        Ok(self.stack[self.depth - 1])
    }

    /// Two operands evaluated left to right, freed.
    fn operands(&mut self, a: &Expr, b: &Expr) -> Result<(u16, u16), CompileError> {
        let ra = self.operand(a)?;
        let ra = self.keep(ra, assigns(b))?;
        let rb = self.operand(b)?;
        self.free(rb);
        self.free(ra);
        Ok((ra, rb))
    }

    /// Arguments evaluated left to right into registers listed in the
    /// argument table, freed.
    fn args(&mut self, args: &[Expr]) -> Result<Args, CompileError> {
        let mut regs = Vec::with_capacity(args.len());
        for (i, a) in args.iter().enumerate() {
            let r = self.operand(a)?;
            regs.push(self.keep(r, args[i + 1..].iter().any(assigns))?);
        }
        for r in regs.iter().rev() {
            self.free(*r);
        }
        let at = u32::try_from(self.args.len())
            .map_err(|_| CompileError::TooLarge("too many arguments".into()))?;
        self.args.extend(regs);
        Ok(Args {
            at,
            len: args.len() as u16,
        })
    }

    /// Compile `e` so that its value lands where `want` says. The leading
    /// tick mirrors the walker's `eval()` entry.
    fn expr_to(&mut self, e: &Expr, want: Want) -> Result<(), CompileError> {
        self.tick();
        if let Some(src) = self.leaf(e)? {
            return self.copy(src, want);
        }
        let (op, idx) = match e {
            Expr::Num(_) => unreachable!("a constant is a leaf"),
            Expr::Var(name) => self.resolve(name, None)?,
            Expr::Index(name, idx) => self.resolve(name, Some(idx))?,
            Expr::Mbl(name) => (Lv::Mbl(self.intern(name)?), None),
            Expr::Unary(op, inner) => {
                let a = self.operand(inner)?;
                self.free(a);
                let dst = self.place(want)?;
                self.emit(Op::Un(*op, a, dst));
                return Ok(());
            }
            Expr::Binary(op @ (BinOp::LAnd | BinOp::LOr), a, b) => {
                let a = self.operand(a)?;
                self.free(a);
                let dst = self.place(want)?;
                let on = *op == BinOp::LOr;
                let j = self.emit(Op::ShortCircuit(a, on, 0, dst));
                let b = self.operand(b)?;
                self.free(b);
                let zero = self.konst(0)?;
                self.emit(Op::Bin(BinOp::Ne, b, zero, dst));
                let end = self.label();
                self.patch(j, end);
                return Ok(());
            }
            Expr::Binary(op, a, b) => {
                let (a, b) = self.operands(a, b)?;
                let dst = self.place(want)?;
                self.emit(Op::Bin(*op, a, b, dst));
                return Ok(());
            }
            Expr::Ternary(c, a, b) => {
                // Both branches write the same place.
                let want = match want {
                    Want::Push => Want::Into(self.place(want)?.reg, WIDE),
                    other => other,
                };
                let to_else = self.cond_jump(c, false)?;
                self.expr_to(a, want)?;
                let jend = self.jmp(0);
                let else_at = self.label();
                self.patch_all(to_else, else_at);
                self.expr_to(b, want)?;
                let end = self.label();
                self.patch(jend, end);
                return Ok(());
            }
            Expr::Call(name, args) => return self.call(name, args, want),
            Expr::Method {
                receiver,
                method,
                args,
            } => {
                let args = self.args(args)?;
                let (recv, method) = (self.intern(receiver)?, self.intern(method)?);
                let dst = self.place(want)?;
                self.emit(Op::TableCall(recv, method, args, dst));
                return Ok(());
            }
            Expr::Assign { target, op, value } => return self.assign(target, *op, value, want),
            Expr::Incr {
                target,
                delta,
                post,
            } => return self.incr(target, *delta, *post, want),
        };
        // A read of a variable, element or malleable.
        if let Some(i) = idx {
            self.free(i);
        }
        let dst = self.place(want)?;
        self.emit(Self::load(op, dst));
        Ok(())
    }

    /// Compile `e` as a branch: jump (to the returned sites, patched by the
    /// caller) when `e`'s truth is `when`, fall through otherwise. `&&`,
    /// `||` and `!` become control flow; a comparison is one `JmpIf`.
    fn cond_jump(&mut self, e: &Expr, when: bool) -> Result<Vec<usize>, CompileError> {
        let (op, a, b) = match e {
            Expr::Num(n) => {
                self.tick();
                let taken = (*n != 0) == when;
                return Ok(if taken { vec![self.jmp(0)] } else { Vec::new() });
            }
            Expr::Unary(UnOp::LNot, a) => {
                self.tick();
                return self.cond_jump(a, !when);
            }
            Expr::Binary(op @ (BinOp::LAnd | BinOp::LOr), a, b) => {
                self.tick();
                // `a && b` is false as soon as `a` is, `a || b` true as
                // soon as `a` is: then both operands jump where `e` does.
                if (*op == BinOp::LAnd) != when {
                    let mut sites = self.cond_jump(a, when)?;
                    sites.extend(self.cond_jump(b, when)?);
                    return Ok(sites);
                }
                let decided = self.cond_jump(a, !when)?;
                let sites = self.cond_jump(b, when)?;
                let after = self.label();
                self.patch_all(decided, after);
                return Ok(sites);
            }
            Expr::Binary(op, a, b) if negate(*op).is_some() => {
                self.tick();
                let (a, b) = self.operands(a, b)?;
                (if when { Some(*op) } else { negate(*op) }, a, b)
            }
            _ => {
                let a = self.operand(e)?;
                self.free(a);
                let op = if when { BinOp::Ne } else { BinOp::Eq };
                (Some(op), a, self.konst(0)?)
            }
        };
        let op = op.expect("a comparison");
        Ok(vec![self.emit(Op::JmpIf(op, a, b, 0))])
    }

    /// `target op= value` (plain `=` when `op` is `None`). Walker order:
    /// the value, then the lvalue's index (exactly once), then the
    /// read-modify-write, then a read-back that is the expression's value.
    fn assign(
        &mut self,
        target: &LValue,
        op: Option<BinOp>,
        value: &Expr,
        want: Want,
    ) -> Result<(), CompileError> {
        if let LValue::Var(name) = target {
            if let Var::Scalar { reg, ty } = self.var(name) {
                // A register takes the value where it is computed.
                match op {
                    None => self.expr_to(value, Want::Into(reg, ty))?,
                    Some(op) => {
                        let b = self.operand(value)?;
                        self.free(b);
                        let dst = self.place(Want::Into(reg, ty))?;
                        self.emit(Op::Bin(op, reg, b, dst));
                    }
                }
                return self.copy(reg, want);
            }
        }
        let v = self.operand(value)?;
        let v = self.keep(v, matches!(target, LValue::Index(_, i) if assigns(i)))?;
        let (lv, idx) = self.lvalue(target)?;
        let new = match op {
            Some(op) => {
                let cur = self.place(Want::Push)?;
                self.emit(Self::load(lv, cur));
                self.emit(Op::Bin(op, cur.reg, v, cur));
                cur.reg
            }
            None => v,
        };
        for r in [Some(new), idx, Some(v)].into_iter().flatten() {
            self.free(r);
        }
        self.store(lv, new, want)
    }

    /// `++` / `--`: the place is read once, as in the walker, and the
    /// value of `x++` is what was read.
    fn incr(
        &mut self,
        target: &LValue,
        delta: i8,
        post: bool,
        want: Want,
    ) -> Result<(), CompileError> {
        let (lv, idx) = self.lvalue(target)?;
        let op = match lv {
            Lv::Reg(reg, ty) => Op::IncrReg(reg, self.width(ty)?, delta, post, self.place(want)?),
            Lv::Mbl(name) => Op::IncrMbl(name, delta, post, self.place(want)?),
            _ => {
                let cur = self.place(Want::Push)?;
                self.emit(Self::load(lv, cur));
                let (d, new) = (self.konst(i128::from(delta))?, self.place(Want::Push)?);
                self.emit(Op::Bin(BinOp::Add, cur.reg, d, new));
                for r in [Some(new.reg), Some(cur.reg), idx].into_iter().flatten() {
                    self.free(r);
                }
                self.store(lv, new.reg, if post { Want::Discard } else { want })?;
                return if post {
                    self.copy(cur.reg, want)
                } else {
                    Ok(())
                };
            }
        };
        self.emit(op);
        Ok(())
    }

    fn call(&mut self, name: &str, args: &[Expr], want: Want) -> Result<(), CompileError> {
        // Interpreter-native builtins, matched by name *and* arity exactly
        // like the walker.
        let native = match (name, args.len()) {
            ("abs", 1) => Some(Native::Abs),
            ("min", 2) => Some(Native::Min),
            ("max", 2) => Some(Native::Max),
            (_, 1) => cast_type(name).map(Native::Cast),
            _ => None,
        };
        let args = self.args(args)?;
        let op = match native {
            Some(f) => {
                let list = self.args.split_off(args.at as usize);
                let (a, b) = (list[0], list[list.len() - 1]);
                Op::Native(f, a, b, self.place(want)?)
            }
            None => Op::EnvCall(self.intern(name)?, args, self.place(want)?),
        };
        self.emit(op);
        Ok(())
    }
}

/// Index `len` of a table, if it fits the bytecode's u16 indices.
fn index(len: usize, what: &str) -> Result<u16, CompileError> {
    let fits = u16::try_from(len).ok().filter(|&i| i < u16::MAX);
    fits.ok_or_else(|| CompileError::TooLarge(format!("too many {what}")))
}

/// Can evaluating `e` assign a variable?
fn assigns(e: &Expr) -> bool {
    match e {
        Expr::Assign { .. } | Expr::Incr { .. } => true,
        Expr::Num(_) | Expr::Var(_) | Expr::Mbl(_) => false,
        Expr::Index(_, e) | Expr::Unary(_, e) => assigns(e),
        Expr::Binary(_, a, b) => assigns(a) || assigns(b),
        Expr::Ternary(c, a, b) => assigns(c) || assigns(a) || assigns(b),
        Expr::Call(_, args) | Expr::Method { args, .. } => args.iter().any(assigns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Interpreter, MockEnv};

    fn compile(src: &str) -> CompiledReaction {
        CompiledReaction::from_source(src)
            .expect("parse")
            .expect("compile")
    }

    /// Run `src` through the tree-walker and the VM against identically
    /// prepared environments; assert the result, malleable state, and
    /// table-op log all match.
    fn assert_parity_with(src: &str, mk: impl Fn() -> MockEnv) {
        let mut w_env = mk();
        let w = Interpreter::from_source(src).unwrap().run(&mut w_env);
        let mut v_env = mk();
        let v = compile(src).run(&mut v_env);
        assert_eq!(w, v, "result mismatch for:\n{src}");
        assert_eq!(w_env.mbls, v_env.mbls, "malleable mismatch for:\n{src}");
        assert_eq!(
            w_env.table_ops, v_env.table_ops,
            "table-op mismatch for:\n{src}"
        );
    }

    fn assert_parity(src: &str) {
        assert_parity_with(src, MockEnv::default);
    }

    #[test]
    fn arithmetic_and_locals() {
        assert_parity("int x = 6; int y = 7; return x * y;");
        assert_parity("uint8_t x = 250; x += 10; return x;");
        assert_parity("int8_t x = 120; x += 10; return x;");
        assert_parity("int x = 7; int y = 2; return x / y + x % y;");
        assert_parity("return (3 < 4) + (3 <= 3) + (4 > 3) + (3 >= 4) + (1 == 1) + (1 != 1);");
        assert_parity("return -(5) + ~0 + !3 + !0;");
        assert_parity("return 1 << 130;");
        assert_parity("return 100 >> 2;");
        // Stores that narrow: a declaration, a copy, a computed value.
        assert_parity(
            "uint8_t x = 300; int8_t y = 200; int16_t z = x * 1000; return x * 1000 + y;",
        );
        assert_parity("uint16_t a = 70000; int b = 0; b = a; uint8_t c = 0; c = b; return c;");
        // Operands an assignment inside the right operand overwrites.
        assert_parity("int x = 1; return x + (x = 5) * 10 + x;");
        assert_parity("int a[4]; int i = 1; a[i] = (i = 3); return a[1] * 10 + a[3] + i * 100;");
    }

    /// A destination's `(mask, sign)` narrows exactly as `coerce` does, for
    /// every width a C type or a cast can name and the corners of each.
    #[test]
    fn widths_narrow_as_coerce_does() {
        for bits in 0..=130u16 {
            for ty in [CType::UInt(bits), CType::Int(bits)] {
                let (mask, sign) = width_of(ty);
                let b = u32::from(bits.clamp(1, 127));
                for v in [
                    0,
                    1,
                    -1,
                    255,
                    -256,
                    1 << (b - 1),
                    (1 << (b - 1)) - 1,
                    i128::MAX,
                    i128::MIN,
                ] {
                    assert_eq!(((v & mask) ^ sign) - sign, coerce(ty, v), "{ty:?} {v}");
                }
            }
        }
    }

    /// `*`, `/` and `%` take a 64-bit path when both operands fit: the
    /// same results as the walker's 128-bit arithmetic at every edge.
    #[test]
    fn sixty_four_bit_arithmetic_is_the_128_bit_result() {
        let edges = [
            0,
            1,
            -1,
            2,
            7,
            -7,
            i128::from(i64::MAX),
            i128::from(i64::MIN),
            i128::from(i64::MAX) + 1,
            i128::from(i64::MIN) - 1,
            i128::from(u64::MAX),
            1 << 62,
            i128::MAX,
            i128::MIN,
        ];
        for op in [BinOp::Mul, BinOp::Div, BinOp::Rem] {
            for a in edges {
                for b in edges {
                    assert_eq!(binop(op, a, b), apply_binop(op, a, b), "{a} {op:?} {b}");
                }
            }
        }
    }

    /// A static is read and written in place only where its one
    /// declaration has run; everywhere else — before it, after the block
    /// it sits in, under a second declaration, behind a local of the same
    /// name — it goes through the live-static-else-argument chain. One
    /// pair of instances per source, statics carried across runs.
    #[test]
    fn statics_resolve_in_place_only_under_their_one_declaration() {
        for src in [
            "static uint8_t n = 250; n += 10; return n;",
            "n += 1; static uint8_t n = 7; n *= 3; return n;",
            "{ static uint8_t n = 1; n += 100; } n += 100; return n;",
            "if (c) { static uint8_t n = 1; } else { static int16_t n = -1; } n += 300; return n;",
            "static uint8_t n = 1; static uint16_t n = 2; n += 300; return n;",
            "int n = 5; { static uint8_t n = 7; n += 1; } return n;",
            "static uint16_t h[4]; h[c] += 40000; return h[1] + h[0];",
            "static uint8_t n[2]; return n;",
            "static uint8_t n = 3; return n[0];",
        ] {
            let mut w = Interpreter::from_source(src).unwrap();
            let mut v = compile(src);
            for c in [0, 1, 1, 0] {
                let mut w_env = MockEnv::default();
                w_env.scalars.insert("c".into(), c);
                w_env.scalars.insert("n".into(), 9);
                let mut v_env = MockEnv::default();
                v_env.scalars.insert("c".into(), c);
                v_env.scalars.insert("n".into(), 9);
                assert_eq!(w.run(&mut w_env), v.run(&mut v_env), "{src} with c = {c}");
            }
        }
    }

    #[test]
    fn short_circuit_skips_side_effects() {
        assert_parity_with("return 0 && t.addEntry(1);", MockEnv::default);
        assert_parity_with("return 1 || t.addEntry(1);", MockEnv::default);
        assert_parity_with("return 1 && t.addEntry(1);", MockEnv::default);
        assert_parity_with("return 0 || t.addEntry(1);", MockEnv::default);
    }

    #[test]
    fn ternary_takes_one_branch() {
        assert_parity("return 1 ? 10 : 20;");
        assert_parity("return 0 ? t.addEntry(1) : 20;");
    }

    #[test]
    fn division_by_zero_matches() {
        assert_parity("int x = 0; return 5 / x;");
        assert_parity("int x = 0; return 5 % x;");
    }

    #[test]
    fn incr_decr_values() {
        assert_parity("int x = 5; int a = x++; int b = ++x; int c = x--; int d = --x; return a * 1000000 + b * 10000 + c * 100 + d;");
        assert_parity("uint8_t x = 255; x++; return x;");
        assert_parity("uint8_t x = 0; x--; return x;");
    }

    #[test]
    fn local_arrays_and_bounds() {
        assert_parity("int a[4]; a[0] = 1; a[3] = 9; return a[0] + a[3];");
        assert_parity("int a[4]; return a[4];");
        assert_parity("int a[4]; return a[-1];");
        assert_parity("int a[4]; a[7] = 1; return 0;");
        assert_parity("int a[2]; a[1] += 5; a[1] += 6; return a[1];");
        assert_parity("int a[2]; int v = a[1]++; return v * 100 + a[1];");
    }

    #[test]
    fn scoping_shadows_and_restores() {
        assert_parity("int x = 1; { int x = 2; x = 20; } return x;");
        assert_parity("int x = 1; { x = 5; } return x;");
        assert_parity("int x = 1; int t = 0; { int x = 2; t = x; } return t * 10 + x;");
    }

    #[test]
    fn env_args_and_errors() {
        let mk = || {
            let mut env = MockEnv::default();
            env.scalars.insert("n".into(), 42);
            env.arrays.insert("q".into(), (0, vec![7, 8, 9]));
            env
        };
        assert_parity_with("return n + q[2];", mk);
        assert_parity_with("return q;", mk); // NotAScalar
        assert_parity_with("return n[0];", mk); // NotAnArray
        assert_parity_with("return missing;", mk); // UnknownVariable
        assert_parity_with("missing = 3; return 0;", mk);
        assert_parity_with("n = 3; return 0;", mk); // env scalars read-only
        assert_parity_with("q[0] = 3; return 0;", mk); // env arrays read-only
        assert_parity_with("q[0] += 3; return 0;", mk);
        assert_parity_with("return q[99];", mk); // env-reported OOB
    }

    #[test]
    fn malleable_ops() {
        let mk = || {
            let mut env = MockEnv::default();
            env.mbls.insert("thresh".into(), 100);
            env
        };
        assert_parity_with("${thresh} = 5; return ${thresh};", mk);
        assert_parity_with("${thresh} += 11; return ${thresh};", mk);
        assert_parity_with("${thresh}++; return ${thresh};", mk);
        assert_parity_with("int v = ++${thresh}; return v;", mk);
        assert_parity_with("int v = ${thresh}--; return v * 1000 + ${thresh};", mk);
        assert_parity_with("return ${unknown};", mk); // Env error
    }

    #[test]
    fn table_method_calls_log_identically() {
        assert_parity("t.addEntry(1, 2, 3); u.delEntry(7); return t.size();");
    }

    #[test]
    fn builtins_and_casts() {
        let mk = || {
            let mut env = MockEnv::default();
            env.builtins.insert("now_ns".into(), 1234);
            env
        };
        assert_parity_with("return abs(-5) + min(3, 4) + max(3, 4);", mk);
        assert_parity_with("return now_ns();", mk);
        assert_parity_with("return nope();", mk); // UnknownBuiltin
        assert_parity_with("return __cast_u8(257);", mk);
        assert_parity_with("return __cast_i8(200);", mk);
    }

    #[test]
    fn loops_break_continue() {
        assert_parity("int s = 0; int i = 0; while (i < 10) { s += i; i++; } return s;");
        assert_parity("int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s;");
        assert_parity(
            "int s = 0; for (int i = 0; i < 10; i++) { if (i == 3) { continue; } if (i == 7) { break; } s += i; } return s;",
        );
        // Two continue sites in one for-loop (regression: both must patch
        // to the step, not to each other).
        assert_parity(
            "int s = 0; for (int i = 0; i < 10; i++) { if (i % 2 == 0) { continue; } if (i % 3 == 0) { continue; } s += i; } return s;",
        );
        assert_parity("int i = 0; while (1) { i++; if (i > 5) { break; } } return i;");
        assert_parity("int s = 0; int i = 0; while (i < 6) { i++; if (i % 2) { continue; } s += i; } return s;");
        // Loop without braces around a non-decl statement.
        assert_parity("int s = 0; for (int i = 0; i < 4; i++) s += i; return s;");
        // Top-level break / continue tolerated as termination.
        assert_parity("${m} = 1; break; ${m} = 2; return 9;");
        assert_parity("continue; return 9;");
    }

    #[test]
    fn statics_persist_across_runs() {
        let src = "static uint32_t count = 0; count += 1; ${out} = count; return count;";
        let mut w = Interpreter::from_source(src).unwrap();
        let mut v = compile(src);
        for i in 1..=5 {
            let mut w_env = MockEnv::default();
            w_env.mbls.insert("out".into(), 0);
            let mut v_env = MockEnv::default();
            v_env.mbls.insert("out".into(), 0);
            let wr = w.run(&mut w_env);
            let vr = v.run(&mut v_env);
            assert_eq!(wr, vr);
            assert_eq!(wr, Ok(Some(i)));
            assert_eq!(w_env.mbls, v_env.mbls);
        }
        w.reset_statics();
        v.reset_statics();
        let mut w_env = MockEnv::default();
        w_env.mbls.insert("out".into(), 0);
        let mut v_env = MockEnv::default();
        v_env.mbls.insert("out".into(), 0);
        assert_eq!(w.run(&mut w_env), Ok(Some(1)));
        assert_eq!(v.run(&mut v_env), Ok(Some(1)));
    }

    #[test]
    fn static_arrays_persist() {
        let src = "static uint16_t hist[4]; hist[2] += 3; return hist[2];";
        let mut w = Interpreter::from_source(src).unwrap();
        let mut v = compile(src);
        for i in 1..=3 {
            let mut env = MockEnv::default();
            assert_eq!(w.run(&mut env), Ok(Some(3 * i)));
            let mut env = MockEnv::default();
            assert_eq!(v.run(&mut env), Ok(Some(3 * i)));
        }
    }

    #[test]
    fn static_init_expr_runs_once() {
        // The initializer's table op must fire exactly once across runs.
        let src = "static int x = t.bump(); x += 1; return x;";
        let mut w = Interpreter::from_source(src).unwrap();
        let mut v = compile(src);
        let mut w_env = MockEnv::default();
        let mut v_env = MockEnv::default();
        for _ in 0..3 {
            let wr = w.run(&mut w_env);
            let vr = v.run(&mut v_env);
            assert_eq!(wr, vr);
        }
        assert_eq!(w_env.table_ops.len(), 1);
        assert_eq!(v_env.table_ops.len(), 1);
    }

    #[test]
    fn side_effecting_index_evaluates_once() {
        // `a[${i}++] += 1` must bump $i exactly once in both engines.
        let mk = || {
            let mut env = MockEnv::default();
            env.mbls.insert("i".into(), 1);
            env
        };
        assert_parity_with("int a[4]; a[${i}++] += 1; return a[1] * 10 + ${i};", mk);
        assert_parity_with("int a[4]; a[${i}++]++; return a[1] * 10 + ${i};", mk);
    }

    #[test]
    fn step_limit_sweep_matches_walker_exactly() {
        // A body with loops, env effects, and short-circuits: for every
        // step budget, both engines must agree on the outcome AND on how
        // much observable work happened before the limit hit.
        let src = r#"
static uint32_t runs = 0;
runs += 1;
int s = 0;
for (int i = 0; i < 4; i++) {
    if (i % 2 == 0 && i > 0) { ${even} = ${even} + i; }
    s += i;
}
int j = 0;
while (j < 3) { j++; ${sum} = ${sum} + j; }
return s * 100 + j;
"#;
        for limit in 1..=200u64 {
            let mk = || {
                let mut env = MockEnv::default();
                env.mbls.insert("even".into(), 0);
                env.mbls.insert("sum".into(), 0);
                env
            };
            let mut w = Interpreter::from_source(src).unwrap();
            w.step_limit = limit;
            let mut w_env = mk();
            let wr = w.run(&mut w_env);
            let mut v = compile(src);
            v.step_limit = limit;
            let mut v_env = mk();
            let vr = v.run(&mut v_env);
            assert_eq!(wr, vr, "result diverged at step_limit={limit}");
            assert_eq!(
                w_env.mbls, v_env.mbls,
                "malleable state diverged at step_limit={limit}"
            );
        }
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut v = compile("while (1) { }");
        v.step_limit = 10_000;
        let mut env = MockEnv::default();
        assert_eq!(v.run(&mut env), Err(InterpError::StepLimitExceeded(10_000)));
    }

    /// A bare declaration as a branch or loop body is scoped to that body
    /// (the parser wraps it in a block), so the VM takes it like any other:
    /// one pair of engine instances per source, run with the argument `c`
    /// going 0, 1, 0, 1 so statics persist from run to run.
    #[test]
    fn bare_decl_branches_scope_to_the_branch() {
        let unknown = |n: &str| Err(InterpError::UnknownVariable(n.into()));
        for (src, expected) in [
            ("if (1) int x = 3;", None),
            ("if (0) int x = 3; else int y = 4;", None),
            ("while (0) int x = 3;", None),
            ("for (;0;) int x = 3;", None),
            ("if (c > 0) static uint64_t n = 0; return 0;", None),
            // `x` is out of scope after the branch whether or not it ran.
            ("if (c) int x = 3; return x;", Some(vec![unknown("x"); 4])),
            // A static declared in a branch that did not run is not live
            // yet; once one has run it stays.
            (
                "if (c) static uint64_t n = 0; n += 1; return n;",
                Some(vec![unknown("n"), Ok(Some(1)), Ok(Some(2)), Ok(Some(3))]),
            ),
        ] {
            let mut w = Interpreter::from_source(src).unwrap();
            let mut v = compile(src);
            let mut seen = Vec::new();
            for c in [0, 1, 0, 1] {
                let mut w_env = MockEnv::default();
                w_env.scalars.insert("c".into(), c);
                let mut v_env = MockEnv::default();
                v_env.scalars.insert("c".into(), c);
                let wr = w.run(&mut w_env);
                assert_eq!(wr, v.run(&mut v_env), "{src} with c = {c}");
                seen.push(wr);
            }
            if let Some(expected) = expected {
                assert_eq!(seen, expected, "{src}");
            }
        }
    }

    /// Under the `__cast_` prefix only `cast_type`'s names applied to one
    /// argument are casts; the rest reach the engines only from a body the
    /// IR check never saw, and are to both an unknown builtin — not a
    /// panic in one and a refusal in the other.
    #[test]
    fn malformed_casts_are_unknown_builtins_on_both_engines() {
        for call in [
            "__cast_(1)",
            "__cast_8()",
            "__cast_u8()",
            "__cast_u0(1)",
            "__cast_x(1)",
            "__cast_u129(1)",
            "__cast_u8(1, 2)",
        ] {
            let src = format!("return {call};");
            assert_parity(&src);
            let name = call.split('(').next().unwrap();
            assert_eq!(
                compile(&src).run(&mut MockEnv::default()),
                Err(InterpError::UnknownBuiltin(name.into())),
                "{src}"
            );
        }
        assert_eq!(cast_type("__cast_u128"), Some(CType::UInt(128)));
        assert_eq!(cast_type("__cast_i1"), Some(CType::Int(1)));
        assert_eq!(cast_type("__cast_"), None);
        assert_eq!(cast_type("cast_u8"), None);
    }

    #[test]
    fn decl_initializer_sees_outer_binding() {
        let mk = || {
            let mut env = MockEnv::default();
            env.scalars.insert("x".into(), 40);
            env
        };
        // `int x = x + 2;` — the initializer's `x` is the env arg.
        assert_parity_with("int x = x + 2; return x;", mk);
    }

    #[test]
    fn dispatch_count_accumulates() {
        let mut v = compile("int s = 0; for (int i = 0; i < 10; i++) { s += i; } return s;");
        let mut env = MockEnv::default();
        v.run(&mut env).unwrap();
        let once = v.dispatch_count();
        assert!(once > 0);
        v.run(&mut env).unwrap();
        assert_eq!(v.dispatch_count(), once * 2);
    }

    /// Operands are registers and the tick of each step rides the
    /// back edge: an iteration of `for (..; i < n; i++) { s += i; }` is a
    /// compare-and-branch, one `Bin`, one increment and one `Jmp`.
    #[test]
    fn a_loop_iteration_is_four_dispatches() {
        let run = |n: u32| {
            let src = format!("int s = 0; for (int i = 0; i < {n}; i++) {{ s += i; }} return s;");
            let mut v = compile(&src);
            assert_parity(&src);
            v.run(&mut MockEnv::default()).unwrap();
            v.dispatch_count()
        };
        assert_eq!(run(110) - run(10), 4 * 100);
    }

    #[test]
    fn tick_merging_preserves_loop_head_targets() {
        // The merged program must still terminate loops correctly.
        let v = compile("int s = 0; int i = 0; while (i < 3) { s += i; i++; } return s;");
        assert!(v.ops_len() > 0);
        let mut v = v;
        let mut env = MockEnv::default();
        assert_eq!(v.run(&mut env), Ok(Some(3)));
    }

    #[test]
    fn figure_1_reaction_parity() {
        // The paper's flagship reaction shape: argmax over a ring of
        // per-port counters, then a table update.
        let src = r#"
uint16_t current_max = 0, max_port = 0;
for (int i = 0; i < 8; i++) {
    if (q[i] > current_max) {
        current_max = q[i];
        max_port = i;
    }
}
if (current_max > ${thresh}) {
    fwd.modEntry(0, max_port);
}
${last} = max_port;
return max_port;
"#;
        let mk = || {
            let mut env = MockEnv::default();
            env.arrays
                .insert("q".into(), (0, vec![3, 9, 4, 27, 5, 8, 1, 2]));
            env.mbls.insert("thresh".into(), 10);
            env.mbls.insert("last".into(), 0);
            env
        };
        assert_parity_with(src, mk);
    }
}
