//! Slot-resolved bytecode VM for reaction bodies.
//!
//! [`CompiledReaction`] compiles a parsed reaction body once into a compact
//! `Vec<Op>` program: every name the body mentions is interned to an index
//! at compile time — locals become scalar/array register slots, statics
//! become persistent slots, and malleables/arguments/builtins become
//! interned-name environment ops. Execution is a tight dispatch loop over
//! the op vector with a reusable operand stack; after the first run the VM
//! performs no per-invocation allocation.
//!
//! The AST tree-walker ([`crate::Interpreter`]) remains the reference
//! semantics. The compiler reproduces its observable behavior *exactly*:
//!
//! * the same `ReactionEnv` calls in the same order,
//! * the same errors (including wrap-around stores and `DivisionByZero`),
//! * the same step accounting — explicit `TickN` ops are emitted at the
//!   positions where the tree-walker ticks (one per statement entry, one
//!   per expression node entry, one per loop iteration), with only
//!   *adjacent* ticks merged (no side effect can occur between adjacent
//!   ticks, so `StepLimitExceeded` fires at an identical point).
//!
//! The compiler is *total* over what the front end accepts: every body
//! `p4r_lang::creact::parse_body` returns compiles, short of one too large
//! for the bytecode's u16 indices ([`CompileError::TooLarge`]). Two
//! front-end rules make it so. The parser wraps a bare declaration used as
//! a branch or loop body in a block, so every local's visibility is
//! lexical and a slot can stand for it; and a cast is exactly what
//! [`cast_type`] accepts applied to one argument — anything else under the
//! `__cast_` prefix is a compile-time error in `p4r-compiler`'s IR check
//! and, to both engines, an ordinary (unknown) builtin call.

use crate::slots::ReactionSlots;
use crate::{apply_binop, cast_type, coerce, Binding, InterpError, ReactionEnv};
use p4r_lang::creact::{BinOp, Body, CType, Declarator, Expr, LValue, Stmt, UnOp};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Sentinel for "this name has no static slot anywhere in the body".
const NO_STATIC: u16 = u16::MAX;

/// The one way a parsed body fails to compile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// Slot or name counts overflow the bytecode's u16 indices.
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

/// One bytecode instruction. Stack effects are noted per op; `lv` is the
/// VM's resolved-lvalue index register (set by `SetLvIndex`, consumed by
/// the `*ElemLv*` ops — an lvalue's index is evaluated exactly once).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Count `n` interpreter steps against the limit.
    TickN(u32),
    /// Push a constant.
    Const(i128),
    /// Discard the top of stack.
    Pop,
    /// Swap the two top values.
    Swap,
    /// Normalize the top value to 0/1.
    Bool,
    Un(UnOp),
    /// Pop `b`, pop `a`, push `a op b`.
    Bin(BinOp),
    Jmp(u32),
    /// Pop; jump if zero.
    Jz(u32),
    /// Pop; if zero push 0 and jump (short-circuit `&&`).
    JzPush0(u32),
    /// Pop; if non-zero push 1 and jump (short-circuit `||`).
    JnzPush1(u32),

    // -- local register slots ------------------------------------------------
    /// Push scalar local.
    LoadLocal(u16),
    /// Pop, coerce to `ty`, store, push the stored value.
    StoreLocal {
        slot: u16,
        ty: CType,
    },
    /// Pop init value, coerce, store (declaration; pushes nothing).
    InitLocal {
        slot: u16,
        ty: CType,
    },
    /// `++`/`--` on a scalar local; pushes pre or post value.
    IncrLocal {
        slot: u16,
        ty: CType,
        delta: i8,
        post: bool,
    },
    /// (Re)zero a local array at its declaration.
    ZeroLocalArray {
        slot: u16,
        len: u32,
    },
    /// Pop index, push `arr[idx]` (bounds-checked).
    ElemLocal {
        slot: u16,
        name: u16,
    },
    /// Pop index into the lvalue-index register.
    SetLvIndex,
    /// Push `arr[lv]`.
    LoadElemLvLocal {
        slot: u16,
        name: u16,
    },
    /// Pop value, coerce, store at `lv`, push the stored value.
    StoreElemLvLocal {
        slot: u16,
        name: u16,
        ty: CType,
    },
    IncrElemLvLocal {
        slot: u16,
        name: u16,
        ty: CType,
        delta: i8,
        post: bool,
    },
    /// Reading a local array as a scalar.
    FailNotAScalar(u16),
    /// Indexing a local scalar.
    FailNotAnArray(u16),

    // -- dynamic names (maybe-static, else environment) ----------------------
    /// Scalar read: live static → env scalar arg → errors.
    LoadDynVar {
        name: u16,
        static_slot: u16,
    },
    /// Pop value; store through the same chain (env args are read-only);
    /// push the stored value.
    AssignDynVar {
        name: u16,
        static_slot: u16,
    },
    IncrDynVar {
        name: u16,
        static_slot: u16,
        delta: i8,
        post: bool,
    },
    /// Pop index, push element: live static array → env array arg → errors.
    ElemDyn {
        name: u16,
        static_slot: u16,
    },
    LoadElemLvDyn {
        name: u16,
        static_slot: u16,
    },
    StoreElemLvDyn {
        name: u16,
        static_slot: u16,
    },
    IncrElemLvDyn {
        name: u16,
        static_slot: u16,
        delta: i8,
        post: bool,
    },

    // -- static declarations -------------------------------------------------
    /// Skip the (one-time) initializer if the static is already live.
    JmpIfStaticInit {
        slot: u16,
        target: u32,
    },
    /// Pop init value, coerce, store, mark live.
    InitStaticScalar {
        slot: u16,
        ty: CType,
    },
    /// Allocate a zeroed array, mark live (array initializers are ignored,
    /// as in the tree-walker).
    InitStaticArray {
        slot: u16,
        ty: CType,
        len: u32,
    },

    // -- malleables -----------------------------------------------------------
    /// Push `env.read_mbl(name)`.
    ReadMbl(u16),
    /// Pop value; `write_mbl` then `read_mbl`; push the re-read value.
    AssignMbl(u16),
    IncrMbl {
        name: u16,
        delta: i8,
        post: bool,
    },

    // -- calls ----------------------------------------------------------------
    /// Pop, coerce to `ty`, push (compiled `(uintN_t)` cast).
    Cast(CType),
    Abs,
    Min,
    Max,
    /// Pop `argc` args, call the environment builtin, push the result.
    EnvCall {
        name: u16,
        argc: u16,
    },
    /// Pop `argc` args, invoke `env.table_op`, push the result.
    TableOp {
        recv: u16,
        method: u16,
        argc: u16,
    },
    /// Stop; pop the return value if `has_value`.
    Ret {
        has_value: bool,
    },
}

/// A persistent static slot. `Uninit` until its declaration executes for
/// the first time (the tree-walker inserts into its statics map lazily, and
/// name resolution must observe exactly the same liveness).
#[derive(Clone, Debug)]
enum StaticCell {
    Uninit,
    Scalar { ty: CType, val: i128 },
    Array { ty: CType, vals: Vec<i128> },
}

/// The compiled program (immutable after compile).
#[derive(Clone, Debug)]
struct Program {
    ops: Vec<Op>,
    /// Interned names, for env calls and error messages.
    names: Vec<String>,
    n_scalar_slots: usize,
    n_array_slots: usize,
    n_static_slots: usize,
}

/// A reaction body compiled to slot-resolved bytecode, plus its persistent
/// `static` state — the VM twin of [`crate::Interpreter`].
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
    // Reusable execution buffers: no allocation per run after warm-up.
    stack: Vec<i128>,
    locals: Vec<i128>,
    local_arrays: Vec<Vec<i128>>,
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
        let statics = vec![StaticCell::Uninit; program.n_static_slots];
        let locals = vec![0; program.n_scalar_slots];
        let local_arrays = vec![Vec::new(); program.n_array_slots];
        Ok(CompiledReaction {
            bound: vec![Binding::UNBOUND; program.names.len()],
            program,
            statics,
            step_limit: 50_000_000,
            dispatched: 0,
            stack: Vec::new(),
            locals,
            local_arrays,
            args_buf: Vec::new(),
        })
    }

    /// Parse and compile in one call. The outer error is a parse failure;
    /// the inner one a body too large for the bytecode.
    pub fn from_source(src: &str) -> Result<Result<Self, CompileError>, p4r_lang::ParseError> {
        let body = p4r_lang::creact::parse_body(src)?;
        Ok(Self::compile(&body))
    }

    /// Resolve every name the body mentions against the environment it
    /// will run in, once: `resolve` maps a name to that environment's ids.
    /// Runs then reach the environment through the `*_at` calls of
    /// [`ReactionEnv`] with these ids.
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
        for s in &mut self.statics {
            *s = StaticCell::Uninit;
        }
    }

    /// Run one iteration of the reaction.
    pub fn run(&mut self, env: &mut dyn ReactionEnv) -> Result<Option<i128>, InterpError> {
        let prog = &self.program;
        let names = &prog.names;
        let bound = &self.bound;
        let stack = &mut self.stack;
        let locals = &mut self.locals;
        let arrays = &mut self.local_arrays;
        let statics = &mut self.statics;
        let args_buf = &mut self.args_buf;
        stack.clear();
        let mut pc: usize = 0;
        let mut steps: u64 = 0;
        let mut lv: i128 = 0;
        let mut dispatched: u64 = 0;
        let step_limit = self.step_limit;

        macro_rules! pop {
            () => {
                stack.pop().expect("operand stack underflow")
            };
        }

        let result = 'vm: loop {
            let Some(op) = prog.ops.get(pc) else {
                break 'vm Ok(None);
            };
            pc += 1;
            dispatched += 1;
            match op {
                Op::TickN(n) => {
                    steps += u64::from(*n);
                    if steps > step_limit {
                        break 'vm Err(InterpError::StepLimitExceeded(step_limit));
                    }
                }
                Op::Const(v) => stack.push(*v),
                Op::Pop => {
                    pop!();
                }
                Op::Swap => {
                    let len = stack.len();
                    stack.swap(len - 1, len - 2);
                }
                Op::Bool => {
                    let v = pop!();
                    stack.push(i128::from(v != 0));
                }
                Op::Un(op) => {
                    let v = pop!();
                    stack.push(match op {
                        UnOp::Neg => v.wrapping_neg(),
                        UnOp::Not => !v,
                        UnOp::LNot => i128::from(v == 0),
                    });
                }
                Op::Bin(op) => {
                    let b = pop!();
                    let a = pop!();
                    match apply_binop(*op, a, b) {
                        Ok(v) => stack.push(v),
                        Err(e) => break 'vm Err(e),
                    }
                }
                Op::Jmp(t) => pc = *t as usize,
                Op::Jz(t) => {
                    if pop!() == 0 {
                        pc = *t as usize;
                    }
                }
                Op::JzPush0(t) => {
                    if pop!() == 0 {
                        stack.push(0);
                        pc = *t as usize;
                    }
                }
                Op::JnzPush1(t) => {
                    if pop!() != 0 {
                        stack.push(1);
                        pc = *t as usize;
                    }
                }
                Op::LoadLocal(slot) => stack.push(locals[*slot as usize]),
                Op::StoreLocal { slot, ty } => {
                    let v = coerce(*ty, pop!());
                    locals[*slot as usize] = v;
                    stack.push(v);
                }
                Op::InitLocal { slot, ty } => {
                    locals[*slot as usize] = coerce(*ty, pop!());
                }
                Op::IncrLocal {
                    slot,
                    ty,
                    delta,
                    post,
                } => {
                    let cur = locals[*slot as usize];
                    let stored = coerce(*ty, cur.wrapping_add(i128::from(*delta)));
                    locals[*slot as usize] = stored;
                    stack.push(if *post { cur } else { stored });
                }
                Op::ZeroLocalArray { slot, len } => {
                    let a = &mut arrays[*slot as usize];
                    a.clear();
                    a.resize(*len as usize, 0);
                }
                Op::ElemLocal { slot, name } => {
                    let i = pop!();
                    match elem_checked(&arrays[*slot as usize], i, names, *name) {
                        Ok(v) => stack.push(v),
                        Err(e) => break 'vm Err(e),
                    }
                }
                Op::SetLvIndex => lv = pop!(),
                Op::LoadElemLvLocal { slot, name } => {
                    match elem_checked(&arrays[*slot as usize], lv, names, *name) {
                        Ok(v) => stack.push(v),
                        Err(e) => break 'vm Err(e),
                    }
                }
                Op::StoreElemLvLocal { slot, name, ty } => {
                    let v = coerce(*ty, pop!());
                    let a = &mut arrays[*slot as usize];
                    if lv < 0 || lv as usize >= a.len() {
                        break 'vm Err(oob(names, *name, lv, a.len()));
                    }
                    a[lv as usize] = v;
                    stack.push(v);
                }
                Op::IncrElemLvLocal {
                    slot,
                    name,
                    ty,
                    delta,
                    post,
                } => {
                    let a = &mut arrays[*slot as usize];
                    if lv < 0 || lv as usize >= a.len() {
                        break 'vm Err(oob(names, *name, lv, a.len()));
                    }
                    let cur = a[lv as usize];
                    let stored = coerce(*ty, cur.wrapping_add(i128::from(*delta)));
                    a[lv as usize] = stored;
                    stack.push(if *post { cur } else { stored });
                }
                Op::FailNotAScalar(name) => {
                    break 'vm Err(InterpError::NotAScalar(names[*name as usize].clone()))
                }
                Op::FailNotAnArray(name) => {
                    break 'vm Err(InterpError::NotAnArray(names[*name as usize].clone()))
                }
                Op::LoadDynVar { name, static_slot } => {
                    match read_dyn_var(statics, env, names, bound, *name, *static_slot) {
                        Ok(v) => stack.push(v),
                        Err(e) => break 'vm Err(e),
                    }
                }
                Op::AssignDynVar { name, static_slot } => {
                    let v = pop!();
                    match write_dyn_var(statics, names, *name, *static_slot, v) {
                        Ok(stored) => stack.push(stored),
                        Err(e) => break 'vm Err(e),
                    }
                }
                Op::IncrDynVar {
                    name,
                    static_slot,
                    delta,
                    post,
                } => {
                    let cur = match read_dyn_var(statics, env, names, bound, *name, *static_slot) {
                        Ok(v) => v,
                        Err(e) => break 'vm Err(e),
                    };
                    let new = cur.wrapping_add(i128::from(*delta));
                    match write_dyn_var(statics, names, *name, *static_slot, new) {
                        Ok(stored) => stack.push(if *post { cur } else { stored }),
                        Err(e) => break 'vm Err(e),
                    }
                }
                Op::ElemDyn { name, static_slot } => {
                    let i = pop!();
                    match read_dyn_elem(statics, env, names, bound, *name, *static_slot, i) {
                        Ok(v) => stack.push(v),
                        Err(e) => break 'vm Err(e),
                    }
                }
                Op::LoadElemLvDyn { name, static_slot } => {
                    match read_dyn_elem(statics, env, names, bound, *name, *static_slot, lv) {
                        Ok(v) => stack.push(v),
                        Err(e) => break 'vm Err(e),
                    }
                }
                Op::StoreElemLvDyn { name, static_slot } => {
                    let v = pop!();
                    match write_dyn_elem(statics, names, *name, *static_slot, lv, v) {
                        Ok(stored) => stack.push(stored),
                        Err(e) => break 'vm Err(e),
                    }
                }
                Op::IncrElemLvDyn {
                    name,
                    static_slot,
                    delta,
                    post,
                } => {
                    let cur =
                        match read_dyn_elem(statics, env, names, bound, *name, *static_slot, lv) {
                            Ok(v) => v,
                            Err(e) => break 'vm Err(e),
                        };
                    let new = cur.wrapping_add(i128::from(*delta));
                    match write_dyn_elem(statics, names, *name, *static_slot, lv, new) {
                        Ok(stored) => stack.push(if *post { cur } else { stored }),
                        Err(e) => break 'vm Err(e),
                    }
                }
                Op::JmpIfStaticInit { slot, target } => {
                    if !matches!(statics[*slot as usize], StaticCell::Uninit) {
                        pc = *target as usize;
                    }
                }
                Op::InitStaticScalar { slot, ty } => {
                    let v = coerce(*ty, pop!());
                    statics[*slot as usize] = StaticCell::Scalar { ty: *ty, val: v };
                }
                Op::InitStaticArray { slot, ty, len } => {
                    statics[*slot as usize] = StaticCell::Array {
                        ty: *ty,
                        vals: vec![0; *len as usize],
                    };
                }
                Op::ReadMbl(name) => {
                    let (id, n) = (bound[*name as usize].mbl, &names[*name as usize]);
                    match env.read_mbl_at(id, n) {
                        Ok(v) => stack.push(v),
                        Err(e) => break 'vm Err(e),
                    }
                }
                Op::AssignMbl(name) => {
                    let v = pop!();
                    let (id, n) = (bound[*name as usize].mbl, &names[*name as usize]);
                    if let Err(e) = env.write_mbl_at(id, n, v) {
                        break 'vm Err(e);
                    }
                    match env.read_mbl_at(id, n) {
                        Ok(v) => stack.push(v),
                        Err(e) => break 'vm Err(e),
                    }
                }
                Op::IncrMbl { name, delta, post } => {
                    let (id, n) = (bound[*name as usize].mbl, &names[*name as usize]);
                    let cur = match env.read_mbl_at(id, n) {
                        Ok(v) => v,
                        Err(e) => break 'vm Err(e),
                    };
                    let new = cur.wrapping_add(i128::from(*delta));
                    if let Err(e) = env.write_mbl_at(id, n, new) {
                        break 'vm Err(e);
                    }
                    if *post {
                        stack.push(cur);
                    } else {
                        match env.read_mbl_at(id, n) {
                            Ok(v) => stack.push(v),
                            Err(e) => break 'vm Err(e),
                        }
                    }
                }
                Op::Cast(ty) => {
                    let v = pop!();
                    stack.push(coerce(*ty, v));
                }
                Op::Abs => {
                    let v = pop!();
                    stack.push(v.wrapping_abs());
                }
                Op::Min => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(a.min(b));
                }
                Op::Max => {
                    let b = pop!();
                    let a = pop!();
                    stack.push(a.max(b));
                }
                Op::EnvCall { name, argc } => {
                    let argc = usize::from(*argc);
                    args_buf.clear();
                    args_buf.extend_from_slice(&stack[stack.len() - argc..]);
                    stack.truncate(stack.len() - argc);
                    let n = &names[*name as usize];
                    match env.call_at(bound[*name as usize].builtin, n, args_buf) {
                        Some(Ok(v)) => stack.push(v),
                        Some(Err(e)) => break 'vm Err(e),
                        None => break 'vm Err(InterpError::UnknownBuiltin(n.clone())),
                    }
                }
                Op::TableOp { recv, method, argc } => {
                    let argc = usize::from(*argc);
                    args_buf.clear();
                    args_buf.extend_from_slice(&stack[stack.len() - argc..]);
                    stack.truncate(stack.len() - argc);
                    let ids = (bound[*recv as usize].table, bound[*method as usize].method);
                    let (recv, method) = (&names[*recv as usize], &names[*method as usize]);
                    match env.table_op_at(ids, recv, method, args_buf) {
                        Ok(v) => stack.push(v),
                        Err(e) => break 'vm Err(e),
                    }
                }
                Op::Ret { has_value } => {
                    if *has_value {
                        break 'vm Ok(Some(pop!()));
                    }
                    break 'vm Ok(None);
                }
            }
        };
        self.dispatched += dispatched;
        result
    }
}

fn oob(names: &[String], name: u16, index: i128, len: usize) -> InterpError {
    InterpError::IndexOutOfBounds {
        name: names[name as usize].clone(),
        index,
        len,
    }
}

#[inline]
fn elem_checked(a: &[i128], i: i128, names: &[String], name: u16) -> Result<i128, InterpError> {
    if i < 0 || i as usize >= a.len() {
        Err(oob(names, name, i, a.len()))
    } else {
        Ok(a[i as usize])
    }
}

/// Scalar read chain: live static → env scalar arg → env array (NotAScalar)
/// → UnknownVariable. Mirrors `Exec::read_var` for non-local names.
fn read_dyn_var(
    statics: &[StaticCell],
    env: &mut dyn ReactionEnv,
    names: &[String],
    bound: &[Binding],
    name: u16,
    static_slot: u16,
) -> Result<i128, InterpError> {
    if static_slot != NO_STATIC {
        match &statics[static_slot as usize] {
            StaticCell::Scalar { val, .. } => return Ok(*val),
            StaticCell::Array { .. } => {
                return Err(InterpError::NotAScalar(names[name as usize].clone()))
            }
            StaticCell::Uninit => {}
        }
    }
    let (b, n) = (bound[name as usize], &names[name as usize]);
    if let Some(v) = env.read_scalar_arg_at(b.scalar, n) {
        return Ok(v);
    }
    if env.is_array_arg_at(b.array, n) {
        return Err(InterpError::NotAScalar(n.clone()));
    }
    Err(InterpError::UnknownVariable(n.clone()))
}

/// Scalar write chain: live static → UnknownVariable (environment arguments
/// are read-only, exactly like `Exec::write_var_scalar` for non-local
/// names). Returns the stored (coerced) value for the assignment's result.
fn write_dyn_var(
    statics: &mut [StaticCell],
    names: &[String],
    name: u16,
    static_slot: u16,
    value: i128,
) -> Result<i128, InterpError> {
    if static_slot != NO_STATIC {
        match &mut statics[static_slot as usize] {
            StaticCell::Scalar { ty, val } => {
                *val = coerce(*ty, value);
                return Ok(*val);
            }
            StaticCell::Array { .. } => {
                return Err(InterpError::NotAScalar(names[name as usize].clone()))
            }
            StaticCell::Uninit => {}
        }
    }
    Err(InterpError::UnknownVariable(names[name as usize].clone()))
}

/// Element read chain: live static array → env array arg → NotAnArray /
/// UnknownVariable. Mirrors `Exec::read_index` for non-local names.
fn read_dyn_elem(
    statics: &[StaticCell],
    env: &mut dyn ReactionEnv,
    names: &[String],
    bound: &[Binding],
    name: u16,
    static_slot: u16,
    i: i128,
) -> Result<i128, InterpError> {
    if static_slot != NO_STATIC {
        match &statics[static_slot as usize] {
            StaticCell::Array { vals, .. } => return elem_checked(vals, i, names, name),
            StaticCell::Scalar { .. } => {
                return Err(InterpError::NotAnArray(names[name as usize].clone()))
            }
            StaticCell::Uninit => {}
        }
    }
    let (b, n) = (bound[name as usize], &names[name as usize]);
    match env.read_array_arg_at(b.array, n, i) {
        Some(r) => r,
        None => {
            if env.read_scalar_arg_at(b.scalar, n).is_some() {
                Err(InterpError::NotAnArray(n.clone()))
            } else {
                Err(InterpError::UnknownVariable(n.clone()))
            }
        }
    }
}

/// Element write chain: live static array only, exactly like
/// `Exec::write_index` for non-local names. Returns the stored value.
fn write_dyn_elem(
    statics: &mut [StaticCell],
    names: &[String],
    name: u16,
    static_slot: u16,
    i: i128,
    value: i128,
) -> Result<i128, InterpError> {
    if static_slot != NO_STATIC {
        match &mut statics[static_slot as usize] {
            StaticCell::Array { ty, vals } => {
                if i < 0 || i as usize >= vals.len() {
                    return Err(oob(names, name, i, vals.len()));
                }
                vals[i as usize] = coerce(*ty, value);
                return Ok(vals[i as usize]);
            }
            StaticCell::Scalar { .. } => {
                return Err(InterpError::NotAnArray(names[name as usize].clone()))
            }
            StaticCell::Uninit => {}
        }
    }
    Err(InterpError::UnknownVariable(names[name as usize].clone()))
}

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

/// How a name resolves at a given compile point.
#[derive(Clone, Copy, Debug)]
enum LocalKind {
    Scalar { slot: u16, ty: CType },
    Array { slot: u16, ty: CType },
}

struct LoopCtx {
    /// Known `continue` target (a while-loop's head). `None` for for-loops,
    /// where `continue` jumps *forward* to the step and is patched later.
    continue_target: Option<u32>,
    continue_sites: Vec<usize>,
    break_sites: Vec<usize>,
}

struct Compiler {
    ops: Vec<Op>,
    names: Vec<String>,
    name_ids: HashMap<String, u16>,
    scopes: Vec<HashMap<String, LocalKind>>,
    /// Static name → slot; all `static` declarations of one name share a
    /// slot (the tree-walker keeps one flat statics map).
    static_slots: HashMap<String, u16>,
    n_scalar_slots: u16,
    n_array_slots: u16,
    loops: Vec<LoopCtx>,
    /// Top-level `break`/`continue` sites (tolerated as termination): they
    /// jump to the program end.
    end_sites: Vec<usize>,
}

impl Compiler {
    /// Compile against the shared, pre-resolved static slot map. Every
    /// static declaration anywhere in the body already has a slot, so any
    /// reference can check liveness at run time.
    fn compile(body: &Body, slots: &ReactionSlots) -> Result<Program, CompileError> {
        let mut c = Compiler {
            ops: Vec::new(),
            names: Vec::new(),
            name_ids: HashMap::new(),
            scopes: vec![HashMap::new()],
            static_slots: slots.iter().map(|(n, s)| (n.to_string(), s)).collect(),
            n_scalar_slots: 0,
            n_array_slots: 0,
            loops: Vec::new(),
            end_sites: Vec::new(),
        };
        for s in &body.stmts {
            c.stmt(s)?;
        }
        let end = c.ops.len() as u32;
        for site in std::mem::take(&mut c.end_sites) {
            c.patch(site, end);
        }
        c.peephole_merge_ticks();
        Ok(Program {
            ops: c.ops,
            names: c.names,
            n_scalar_slots: usize::from(c.n_scalar_slots),
            n_array_slots: usize::from(c.n_array_slots),
            n_static_slots: c.static_slots.len(),
        })
    }

    fn intern(&mut self, name: &str) -> Result<u16, CompileError> {
        if let Some(&id) = self.name_ids.get(name) {
            return Ok(id);
        }
        let id = self.names.len();
        if id >= usize::from(u16::MAX) {
            return Err(CompileError::TooLarge("too many names".into()));
        }
        self.names.push(name.to_string());
        self.name_ids.insert(name.to_string(), id as u16);
        Ok(id as u16)
    }

    fn static_slot_of(&self, name: &str) -> u16 {
        self.static_slots.get(name).copied().unwrap_or(NO_STATIC)
    }

    fn lookup_local(&self, name: &str) -> Option<LocalKind> {
        for scope in self.scopes.iter().rev() {
            if let Some(k) = scope.get(name) {
                return Some(*k);
            }
        }
        None
    }

    fn emit(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    fn tick(&mut self) {
        self.emit(Op::TickN(1));
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    fn patch(&mut self, site: usize, target: u32) {
        match &mut self.ops[site] {
            Op::Jmp(t)
            | Op::Jz(t)
            | Op::JzPush0(t)
            | Op::JnzPush1(t)
            | Op::JmpIfStaticInit { target: t, .. } => *t = target,
            other => unreachable!("patching non-jump op {other:?}"),
        }
    }

    /// Merge runs of adjacent `TickN` ops. Nothing with a side effect sits
    /// between adjacent ticks, so the step-limit error still fires at an
    /// identical observable point. A tick that is a jump target is never
    /// folded into its predecessor (the jumped-to tick must still count).
    fn peephole_merge_ticks(&mut self) {
        let old = std::mem::take(&mut self.ops);
        let mut targets = HashSet::new();
        for op in &old {
            match op {
                Op::Jmp(t)
                | Op::Jz(t)
                | Op::JzPush0(t)
                | Op::JnzPush1(t)
                | Op::JmpIfStaticInit { target: t, .. } => {
                    targets.insert(*t);
                }
                _ => {}
            }
        }
        // remap[i] = new index of old op i; the extra final entry maps
        // one-past-the-end targets (jumps to the program end).
        let mut remap = vec![0u32; old.len() + 1];
        let mut merged: Vec<Op> = Vec::with_capacity(old.len());
        for (i, op) in old.into_iter().enumerate() {
            if let Op::TickN(n) = op {
                if !targets.contains(&(i as u32)) {
                    if let Some(Op::TickN(prev)) = merged.last_mut() {
                        *prev += n;
                        remap[i] = (merged.len() - 1) as u32;
                        continue;
                    }
                }
            }
            remap[i] = merged.len() as u32;
            merged.push(op);
        }
        let last = remap.len() - 1;
        remap[last] = merged.len() as u32;
        for op in &mut merged {
            match op {
                Op::Jmp(t)
                | Op::Jz(t)
                | Op::JzPush0(t)
                | Op::JnzPush1(t)
                | Op::JmpIfStaticInit { target: t, .. } => *t = remap[*t as usize],
                _ => {}
            }
        }
        self.ops = merged;
    }

    // -- statements ----------------------------------------------------------

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        self.tick();
        match s {
            Stmt::Empty => {}
            Stmt::Expr(e) => {
                self.expr(e)?;
                self.emit(Op::Pop);
            }
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
                self.scopes.push(HashMap::new());
                for s in stmts {
                    self.stmt(s)?;
                }
                self.scopes.pop();
            }
            Stmt::If { cond, then_, else_ } => {
                self.expr(cond)?;
                let jz = self.emit(Op::Jz(0));
                self.stmt(then_)?;
                match else_ {
                    Some(e) => {
                        let jend = self.emit(Op::Jmp(0));
                        let else_at = self.here();
                        self.patch(jz, else_at);
                        self.stmt(e)?;
                        let end = self.here();
                        self.patch(jend, end);
                    }
                    None => {
                        let end = self.here();
                        self.patch(jz, end);
                    }
                }
            }
            Stmt::While { cond, body } => {
                let head = self.here();
                self.tick(); // per-iteration tick, before the condition
                self.expr(cond)?;
                let jz = self.emit(Op::Jz(0));
                self.loops.push(LoopCtx {
                    continue_target: Some(head),
                    continue_sites: Vec::new(),
                    break_sites: Vec::new(),
                });
                self.stmt(body)?;
                self.emit(Op::Jmp(head));
                let end = self.here();
                self.patch(jz, end);
                let ctx = self.loops.pop().expect("loop ctx");
                for site in ctx.break_sites {
                    self.patch(site, end);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(i) = init {
                    self.stmt(i)?;
                }
                let head = self.here();
                self.tick(); // per-iteration tick, before the condition
                let jz = match cond {
                    Some(c) => {
                        self.expr(c)?;
                        Some(self.emit(Op::Jz(0)))
                    }
                    None => None,
                };
                self.loops.push(LoopCtx {
                    continue_target: None,
                    continue_sites: Vec::new(),
                    break_sites: Vec::new(),
                });
                self.stmt(body)?;
                let step_at = self.here();
                if let Some(st) = step {
                    self.expr(st)?;
                    self.emit(Op::Pop);
                }
                self.emit(Op::Jmp(head));
                let end = self.here();
                if let Some(jz) = jz {
                    self.patch(jz, end);
                }
                let ctx = self.loops.pop().expect("loop ctx");
                for site in ctx.continue_sites {
                    self.patch(site, step_at);
                }
                for site in ctx.break_sites {
                    self.patch(site, end);
                }
                self.scopes.pop();
            }
            Stmt::Return(e) => {
                match e {
                    Some(e) => {
                        self.expr(e)?;
                        self.emit(Op::Ret { has_value: true });
                    }
                    None => {
                        self.emit(Op::Ret { has_value: false });
                    }
                };
            }
            Stmt::Break => {
                let site = self.emit(Op::Jmp(0));
                match self.loops.last_mut() {
                    Some(ctx) => ctx.break_sites.push(site),
                    None => self.end_sites.push(site),
                }
            }
            Stmt::Continue => {
                let site = self.emit(Op::Jmp(0));
                match self.loops.last_mut() {
                    Some(ctx) => match ctx.continue_target {
                        Some(head) => self.patch(site, head),
                        None => ctx.continue_sites.push(site),
                    },
                    None => self.end_sites.push(site),
                }
            }
        }
        Ok(())
    }

    fn declare(&mut self, is_static: bool, ty: CType, d: &Declarator) -> Result<(), CompileError> {
        if is_static {
            let slot = self.static_slot_of(&d.name);
            debug_assert_ne!(slot, NO_STATIC, "static slot pre-collected");
            let skip = self.emit(Op::JmpIfStaticInit { slot, target: 0 });
            match d.array_len {
                Some(n) => {
                    // Array initializers are ignored (as in the walker).
                    self.emit(Op::InitStaticArray {
                        slot,
                        ty,
                        len: n as u32,
                    });
                }
                None => {
                    match &d.init {
                        Some(e) => self.expr(e)?,
                        None => {
                            self.emit(Op::Const(0));
                        }
                    }
                    self.emit(Op::InitStaticScalar { slot, ty });
                }
            }
            let after = self.here();
            self.patch(skip, after);
            return Ok(());
        }
        // Locals: assign a fresh slot and (re)initialize it in place. The
        // name becomes visible from this point to the end of the scope;
        // the initializer is compiled first, so it cannot see the new name
        // (matching the walker's eval-then-insert order).
        let kind = match d.array_len {
            Some(n) => {
                let slot = self.n_array_slots;
                self.n_array_slots = self
                    .n_array_slots
                    .checked_add(1)
                    .ok_or_else(|| CompileError::TooLarge("too many local arrays".into()))?;
                self.emit(Op::ZeroLocalArray {
                    slot,
                    len: n as u32,
                });
                LocalKind::Array { slot, ty }
            }
            None => {
                let slot = self.n_scalar_slots;
                self.n_scalar_slots = self
                    .n_scalar_slots
                    .checked_add(1)
                    .ok_or_else(|| CompileError::TooLarge("too many locals".into()))?;
                match &d.init {
                    Some(e) => self.expr(e)?,
                    None => {
                        self.emit(Op::Const(0));
                    }
                }
                self.emit(Op::InitLocal { slot, ty });
                LocalKind::Scalar { slot, ty }
            }
        };
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(d.name.clone(), kind);
        Ok(())
    }

    // -- expressions ---------------------------------------------------------

    /// Compile an expression; at run time its code leaves exactly one value
    /// on the stack. The leading tick mirrors the walker's `eval()` entry.
    fn expr(&mut self, e: &Expr) -> Result<(), CompileError> {
        self.tick();
        match e {
            Expr::Num(n) => {
                self.emit(Op::Const(*n));
            }
            Expr::Var(name) => match self.lookup_local(name) {
                Some(LocalKind::Scalar { slot, .. }) => {
                    self.emit(Op::LoadLocal(slot));
                }
                Some(LocalKind::Array { .. }) => {
                    let id = self.intern(name)?;
                    self.emit(Op::FailNotAScalar(id));
                }
                None => {
                    let id = self.intern(name)?;
                    let ss = self.static_slot_of(name);
                    self.emit(Op::LoadDynVar {
                        name: id,
                        static_slot: ss,
                    });
                }
            },
            Expr::Mbl(name) => {
                let id = self.intern(name)?;
                self.emit(Op::ReadMbl(id));
            }
            Expr::Index(name, idx) => {
                self.expr(idx)?;
                match self.lookup_local(name) {
                    Some(LocalKind::Array { slot, .. }) => {
                        let id = self.intern(name)?;
                        self.emit(Op::ElemLocal { slot, name: id });
                    }
                    Some(LocalKind::Scalar { .. }) => {
                        let id = self.intern(name)?;
                        self.emit(Op::FailNotAnArray(id));
                    }
                    None => {
                        let id = self.intern(name)?;
                        let ss = self.static_slot_of(name);
                        self.emit(Op::ElemDyn {
                            name: id,
                            static_slot: ss,
                        });
                    }
                }
            }
            Expr::Unary(op, inner) => {
                self.expr(inner)?;
                self.emit(Op::Un(*op));
            }
            Expr::Binary(op, a, b) => match op {
                BinOp::LAnd => {
                    self.expr(a)?;
                    let j = self.emit(Op::JzPush0(0));
                    self.expr(b)?;
                    self.emit(Op::Bool);
                    let end = self.here();
                    self.patch(j, end);
                }
                BinOp::LOr => {
                    self.expr(a)?;
                    let j = self.emit(Op::JnzPush1(0));
                    self.expr(b)?;
                    self.emit(Op::Bool);
                    let end = self.here();
                    self.patch(j, end);
                }
                _ => {
                    self.expr(a)?;
                    self.expr(b)?;
                    self.emit(Op::Bin(*op));
                }
            },
            Expr::Ternary(c, a, b) => {
                self.expr(c)?;
                let jz = self.emit(Op::Jz(0));
                self.expr(a)?;
                let jend = self.emit(Op::Jmp(0));
                let else_at = self.here();
                self.patch(jz, else_at);
                self.expr(b)?;
                let end = self.here();
                self.patch(jend, end);
            }
            Expr::Call(name, args) => self.call(name, args)?,
            Expr::Method {
                receiver,
                method,
                args,
            } => {
                for a in args {
                    self.expr(a)?;
                }
                let recv = self.intern(receiver)?;
                let method = self.intern(method)?;
                self.emit(Op::TableOp {
                    recv,
                    method,
                    argc: args.len() as u16,
                });
            }
            Expr::Assign { target, op, value } => {
                // Walker order: RHS first, then the lvalue index (exactly
                // once), then read-modify-write and a final read-back.
                self.expr(value)?;
                self.compile_assign(target, *op)?;
            }
            Expr::Incr {
                target,
                delta,
                post,
            } => {
                self.compile_incr(target, *delta, *post)?;
            }
        }
        Ok(())
    }

    fn compile_assign(&mut self, target: &LValue, op: Option<BinOp>) -> Result<(), CompileError> {
        match target {
            LValue::Var(name) => match self.lookup_local(name) {
                Some(LocalKind::Scalar { slot, ty }) => {
                    if let Some(binop) = op {
                        self.emit(Op::LoadLocal(slot));
                        self.emit(Op::Swap);
                        self.emit(Op::Bin(binop));
                    }
                    self.emit(Op::StoreLocal { slot, ty });
                }
                Some(LocalKind::Array { .. }) => {
                    // Both the compound pre-read and the simple write fail
                    // with NotAScalar before any side effect.
                    let id = self.intern(name)?;
                    self.emit(Op::FailNotAScalar(id));
                }
                None => {
                    let id = self.intern(name)?;
                    let ss = self.static_slot_of(name);
                    if let Some(binop) = op {
                        self.emit(Op::LoadDynVar {
                            name: id,
                            static_slot: ss,
                        });
                        self.emit(Op::Swap);
                        self.emit(Op::Bin(binop));
                    }
                    self.emit(Op::AssignDynVar {
                        name: id,
                        static_slot: ss,
                    });
                }
            },
            LValue::Mbl(name) => {
                let id = self.intern(name)?;
                if let Some(binop) = op {
                    self.emit(Op::ReadMbl(id));
                    self.emit(Op::Swap);
                    self.emit(Op::Bin(binop));
                }
                self.emit(Op::AssignMbl(id));
            }
            LValue::Index(name, idx) => {
                self.expr(idx)?;
                self.emit(Op::SetLvIndex);
                match self.lookup_local(name) {
                    Some(LocalKind::Array { slot, ty }) => {
                        let id = self.intern(name)?;
                        if let Some(binop) = op {
                            self.emit(Op::LoadElemLvLocal { slot, name: id });
                            self.emit(Op::Swap);
                            self.emit(Op::Bin(binop));
                        }
                        self.emit(Op::StoreElemLvLocal { slot, name: id, ty });
                    }
                    Some(LocalKind::Scalar { .. }) => {
                        let id = self.intern(name)?;
                        self.emit(Op::FailNotAnArray(id));
                    }
                    None => {
                        let id = self.intern(name)?;
                        let ss = self.static_slot_of(name);
                        if let Some(binop) = op {
                            self.emit(Op::LoadElemLvDyn {
                                name: id,
                                static_slot: ss,
                            });
                            self.emit(Op::Swap);
                            self.emit(Op::Bin(binop));
                        }
                        self.emit(Op::StoreElemLvDyn {
                            name: id,
                            static_slot: ss,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn compile_incr(&mut self, target: &LValue, delta: i8, post: bool) -> Result<(), CompileError> {
        match target {
            LValue::Var(name) => match self.lookup_local(name) {
                Some(LocalKind::Scalar { slot, ty }) => {
                    self.emit(Op::IncrLocal {
                        slot,
                        ty,
                        delta,
                        post,
                    });
                }
                Some(LocalKind::Array { .. }) => {
                    let id = self.intern(name)?;
                    self.emit(Op::FailNotAScalar(id));
                }
                None => {
                    let id = self.intern(name)?;
                    let ss = self.static_slot_of(name);
                    self.emit(Op::IncrDynVar {
                        name: id,
                        static_slot: ss,
                        delta,
                        post,
                    });
                }
            },
            LValue::Mbl(name) => {
                let id = self.intern(name)?;
                self.emit(Op::IncrMbl {
                    name: id,
                    delta,
                    post,
                });
            }
            LValue::Index(name, idx) => {
                self.expr(idx)?;
                self.emit(Op::SetLvIndex);
                match self.lookup_local(name) {
                    Some(LocalKind::Array { slot, ty }) => {
                        let id = self.intern(name)?;
                        self.emit(Op::IncrElemLvLocal {
                            slot,
                            name: id,
                            ty,
                            delta,
                            post,
                        });
                    }
                    Some(LocalKind::Scalar { .. }) => {
                        let id = self.intern(name)?;
                        self.emit(Op::FailNotAnArray(id));
                    }
                    None => {
                        let id = self.intern(name)?;
                        let ss = self.static_slot_of(name);
                        self.emit(Op::IncrElemLvDyn {
                            name: id,
                            static_slot: ss,
                            delta,
                            post,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> Result<(), CompileError> {
        for a in args {
            self.expr(a)?;
        }
        // Interpreter-native builtins, matched by name *and* arity exactly
        // like the walker.
        match (name, args.len()) {
            ("abs", 1) => {
                self.emit(Op::Abs);
                return Ok(());
            }
            ("min", 2) => {
                self.emit(Op::Min);
                return Ok(());
            }
            ("max", 2) => {
                self.emit(Op::Max);
                return Ok(());
            }
            _ => {}
        }
        if let (Some(ty), 1) = (cast_type(name), args.len()) {
            self.emit(Op::Cast(ty));
            return Ok(());
        }
        let id = self.intern(name)?;
        self.emit(Op::EnvCall {
            name: id,
            argc: args.len() as u16,
        });
        Ok(())
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
