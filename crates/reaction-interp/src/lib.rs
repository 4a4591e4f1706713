//! # reaction-interp
//!
//! Execution of the C-like reaction bodies of P4R programs.
//!
//! The paper compiles reactions with `gcc` and loads them as shared objects
//! into the Mantis agent. This reproduction compiles the parsed reaction
//! AST (`p4r_lang::creact`) to operand-resolved bytecode and runs that
//! ([`CompiledReaction`], the one executor the agent has for a body) —
//! same semantics, no FFI — while the agent also takes native Rust
//! reactions for heavy workloads.
//!
//! [`Interpreter`], the AST tree-walker the VM was written against, is the
//! *reference*: the differential harnesses (`bench::fuzz`,
//! `reaction_vm_differential.rs`, the unit tests of [`vm`]) run it beside
//! the VM and compare; nothing in production reaches it.
//!
//! Both support everything the paper's examples need: typed integer locals
//! with C wrap-around semantics, `static` state that persists across
//! dialogue-loop iterations (§6, "stateful dialogue"), arrays, control
//! flow, malleable reads/writes (`${var}`), malleable-table method calls
//! (`t.addEntry(...)`), and builtin/agent-provided functions.

#![forbid(unsafe_code)]

use p4r_lang::creact::{BinOp, Body, CType, Declarator, Expr, LValue, Stmt, UnOp};
use std::collections::HashMap;
use std::fmt;

pub mod slots;
pub mod vm;

pub use slots::ReactionSlots;
pub use vm::{CompileError, CompiledReaction};

/// Errors surfaced to the agent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InterpError {
    UnknownVariable(String),
    UnknownBuiltin(String),
    NotAnArray(String),
    NotAScalar(String),
    IndexOutOfBounds {
        name: String,
        index: i128,
        len: usize,
    },
    DivisionByZero,
    StepLimitExceeded(u64),
    /// Error raised by the environment (malleable/table access failed).
    Env(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::UnknownVariable(n) => write!(f, "unknown variable `{n}`"),
            InterpError::UnknownBuiltin(n) => write!(f, "unknown function `{n}`"),
            InterpError::NotAnArray(n) => write!(f, "`{n}` is not an array"),
            InterpError::NotAScalar(n) => write!(f, "`{n}` is an array, expected a scalar"),
            InterpError::IndexOutOfBounds { name, index, len } => {
                write!(f, "index {index} out of bounds for `{name}` (len {len})")
            }
            InterpError::DivisionByZero => write!(f, "division by zero"),
            InterpError::StepLimitExceeded(n) => {
                write!(f, "reaction exceeded the {n}-step execution limit")
            }
            InterpError::Env(e) => write!(f, "environment error: {e}"),
        }
    }
}

impl std::error::Error for InterpError {}

/// The agent-provided environment a reaction executes against.
///
/// Argument reads hit the agent's *polled snapshot* (serializable isolation:
/// the snapshot was captured before the body runs); malleable writes are
/// staged by the agent and committed atomically after the body finishes.
///
/// One entrance: [`resolve`](Self::resolve) turns a name into the
/// environment's ids, and every call takes the id for its role together
/// with the source name. The id comes from `resolve` — once, at
/// [`CompiledReaction::bind`], or at each access, as the reference walker
/// does — or is [`Binding::NONE`] when the caller never resolved the name
/// (an unbound VM). The name is there for error text and for environments
/// that are maps of names. An environment keys on whichever it has: the
/// agent's context on the id, [`MockEnv`] on the name.
pub trait ReactionEnv {
    /// Everything `name` means to this environment, one id per role.
    fn resolve(&self, name: &str) -> Binding;

    /// Read a scalar reaction argument (a measured field).
    fn read_scalar_arg(&self, id: u16, name: &str) -> Option<i128>;

    /// Read one element of an array argument (a measured register slice).
    /// `index` uses the *original register indexing* (the `reg r[lo:hi]`
    /// declaration range); [`array_arg`] is the bounds rule.
    fn read_array_arg(&self, id: u16, name: &str, index: i128)
        -> Option<Result<i128, InterpError>>;

    /// Whether `name` is an array argument (for arity checking).
    fn is_array_arg(&self, id: u16, name: &str) -> bool;

    /// Read the last-written value of a malleable.
    fn read_mbl(&mut self, id: u16, name: &str) -> Result<i128, InterpError>;

    /// Stage a write to a malleable value or field selector.
    fn write_mbl(&mut self, id: u16, name: &str, value: i128) -> Result<(), InterpError>;

    /// Invoke a malleable-table method (`addEntry`/`modEntry`/`delEntry`/
    /// `setDefault`...). `ids` are the receiver's `table` id and the method
    /// name's `method` id. Returns a handle or status value.
    fn table_op(
        &mut self,
        ids: (u16, u16),
        table: &str,
        method: &str,
        args: &[i128],
    ) -> Result<i128, InterpError>;

    /// Agent-provided builtin functions (e.g. `now_us()`); return `None`
    /// for unknown names.
    fn call(&mut self, id: u16, name: &str, args: &[i128]) -> Option<Result<i128, InterpError>>;
}

/// What one name of a reaction body means to the environment it will run
/// against, one id per role the name can play ([`Binding::NONE`] where it
/// plays none). The ids are the environment's own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Binding {
    /// Scalar (measured field) argument.
    pub scalar: u16,
    /// Array (measured register slice) argument.
    pub array: u16,
    /// Malleable value or field.
    pub mbl: u16,
    /// Malleable table (a method-call receiver).
    pub table: u16,
    /// Table method.
    pub method: u16,
    /// Environment builtin function.
    pub builtin: u16,
}

impl Binding {
    pub const NONE: u16 = u16::MAX;
    /// The binding of a name nothing resolved.
    pub const UNBOUND: Binding = Binding {
        scalar: Binding::NONE,
        array: Binding::NONE,
        mbl: Binding::NONE,
        table: Binding::NONE,
        method: Binding::NONE,
        builtin: Binding::NONE,
    };
}

/// A variable's storage.
#[derive(Clone, Debug)]
enum Storage {
    Scalar(i128),
    Array(Vec<i128>),
}

/// An lvalue whose index has been evaluated (exactly once).
#[derive(Clone, Debug)]
enum ResolvedLValue {
    Var(String),
    Mbl(String),
    Index(String, i128),
}

#[derive(Clone, Debug)]
struct Var {
    ty: CType,
    storage: Storage,
}

/// Truncate a value to a C type's width with the right signedness.
#[inline]
pub(crate) fn coerce(ty: CType, v: i128) -> i128 {
    let bits = u32::from(ty.bits()).min(127);
    if bits == 0 {
        return 0;
    }
    let mask: i128 = if bits >= 127 { -1 } else { (1i128 << bits) - 1 };
    let raw = v & mask;
    if ty.is_signed() && bits < 127 {
        let sign_bit = 1i128 << (bits - 1);
        if raw & sign_bit != 0 {
            raw - (1i128 << bits)
        } else {
            raw
        }
    } else {
        raw
    }
}

/// Element `i` of array `n`, or `IndexOutOfBounds`: the one bounds rule of
/// every array a body indexes — locals and statics on both engines here,
/// environment arguments through [`array_arg`].
#[inline]
pub(crate) fn elem<'a>(a: &'a mut [i128], i: i128, n: &str) -> Result<&'a mut i128, InterpError> {
    let len = a.len();
    let oob = || InterpError::IndexOutOfBounds {
        name: n.into(),
        index: i,
        len,
    };
    usize::try_from(i)
        .ok()
        .and_then(|i| a.get_mut(i))
        .ok_or_else(oob)
}

/// Element `index` of the environment array argument `name` whose first
/// element is numbered `lo` (the `reg r[lo:hi]` range), or
/// `IndexOutOfBounds`: [`elem`]'s rule, for an environment's
/// [`ReactionEnv::read_array_arg`].
#[inline]
pub fn array_arg(name: &str, lo: i128, vals: &[i128], index: i128) -> Result<i128, InterpError> {
    let off = index.checked_sub(lo).and_then(|o| usize::try_from(o).ok());
    off.and_then(|o| vals.get(o).copied())
        .ok_or_else(|| InterpError::IndexOutOfBounds {
            name: name.into(),
            index,
            len: vals.len(),
        })
}

/// The type a cast builtin names: `(uintN_t) e` parses to
/// `__cast_uN(e)`, `(intN_t) e` to `__cast_iN(e)`, N in 1..=128. Both
/// engines ask here, so a name this rejects (or a cast of anything but one
/// argument) is to both an ordinary builtin call; the IR typecheck asks here
/// too and rejects the rest of the `__cast_` prefix at compile time.
pub fn cast_type(name: &str) -> Option<CType> {
    let rest = name.strip_prefix("__cast_")?;
    let bits = rest.get(1..)?.parse::<u16>().ok()?;
    let bits = Some(bits).filter(|b| (1..=128).contains(b))?;
    match rest.as_bytes()[0] {
        b'u' => Some(CType::UInt(bits)),
        b'i' => Some(CType::Int(bits)),
        _ => None,
    }
}

/// Flow control signal from statement execution.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Option<i128>),
}

/// The reference executor: a reaction body walked as an AST, plus its
/// persistent `static` state (which lives as long as the instance —
/// exactly like the DATA segment of the paper's dynamically loaded shared
/// objects).
#[derive(Debug)]
pub struct Interpreter {
    body: Body,
    statics: HashMap<String, Var>,
    /// Execution step budget per invocation (loop runaway guard).
    pub step_limit: u64,
}

impl Interpreter {
    pub fn new(body: Body) -> Self {
        Interpreter {
            body,
            statics: HashMap::new(),
            step_limit: 50_000_000,
        }
    }

    /// Parse and wrap a body in one call.
    pub fn from_source(src: &str) -> Result<Self, p4r_lang::ParseError> {
        Ok(Interpreter::new(p4r_lang::creact::parse_body(src)?))
    }

    /// Run one iteration of the reaction.
    pub fn run(&mut self, env: &mut dyn ReactionEnv) -> Result<Option<i128>, InterpError> {
        let stmts = self.body.stmts.clone();
        let mut ex = Exec {
            statics: &mut self.statics,
            scopes: vec![HashMap::new()],
            env,
            steps: 0,
            step_limit: self.step_limit,
        };
        for s in &stmts {
            match ex.stmt(s)? {
                Flow::Return(v) => return Ok(v),
                Flow::Normal => {}
                // break/continue at top level: tolerated as termination.
                Flow::Break | Flow::Continue => break,
            }
        }
        Ok(None)
    }

    /// Reset persistent static state (used when "reloading" a reaction).
    pub fn reset_statics(&mut self) {
        self.statics.clear();
    }
}

struct Exec<'a> {
    statics: &'a mut HashMap<String, Var>,
    scopes: Vec<HashMap<String, Var>>,
    env: &'a mut dyn ReactionEnv,
    steps: u64,
    step_limit: u64,
}

impl<'a> Exec<'a> {
    fn tick(&mut self) -> Result<(), InterpError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            Err(InterpError::StepLimitExceeded(self.step_limit))
        } else {
            Ok(())
        }
    }

    fn find_var(&mut self, name: &str) -> Option<&mut Var> {
        for scope in self.scopes.iter_mut().rev() {
            if scope.contains_key(name) {
                return scope.get_mut(name);
            }
        }
        self.statics.get_mut(name)
    }

    fn stmt(&mut self, s: &Stmt) -> Result<Flow, InterpError> {
        self.tick()?;
        match s {
            Stmt::Empty => Ok(Flow::Normal),
            Stmt::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            Stmt::Decl {
                is_static,
                ty,
                decls,
            } => {
                for d in decls {
                    self.declare(*is_static, *ty, d)?;
                }
                Ok(Flow::Normal)
            }
            Stmt::Block(stmts) => {
                self.scopes.push(HashMap::new());
                let mut flow = Flow::Normal;
                for s in stmts {
                    flow = self.stmt(s)?;
                    if !matches!(flow, Flow::Normal) {
                        break;
                    }
                }
                self.scopes.pop();
                Ok(flow)
            }
            Stmt::If { cond, then_, else_ } => {
                if self.eval(cond)? != 0 {
                    self.stmt(then_)
                } else if let Some(e) = else_ {
                    self.stmt(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body } => {
                loop {
                    self.tick()?;
                    if self.eval(cond)? == 0 {
                        break;
                    }
                    match self.stmt(body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                let result = (|| {
                    if let Some(i) = init {
                        self.stmt(i)?;
                    }
                    loop {
                        self.tick()?;
                        if let Some(c) = cond {
                            if self.eval(c)? == 0 {
                                break;
                            }
                        }
                        match self.stmt(body)? {
                            Flow::Break => break,
                            Flow::Return(v) => return Ok(Flow::Return(v)),
                            Flow::Normal | Flow::Continue => {}
                        }
                        if let Some(st) = step {
                            self.eval(st)?;
                        }
                    }
                    Ok(Flow::Normal)
                })();
                self.scopes.pop();
                result
            }
            Stmt::Return(e) => {
                let v = match e {
                    Some(e) => Some(self.eval(e)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
        }
    }

    fn declare(&mut self, is_static: bool, ty: CType, d: &Declarator) -> Result<(), InterpError> {
        if is_static && self.statics.contains_key(&d.name) {
            // Statics initialize once, on the first invocation.
            return Ok(());
        }
        let storage = match d.array_len {
            Some(n) => Storage::Array(vec![0; n]),
            None => {
                let init = match &d.init {
                    Some(e) => coerce(ty, self.eval(e)?),
                    None => 0,
                };
                Storage::Scalar(init)
            }
        };
        let var = Var { ty, storage };
        if is_static {
            self.statics.insert(d.name.clone(), var);
        } else {
            self.scopes
                .last_mut()
                .expect("scope stack never empty")
                .insert(d.name.clone(), var);
        }
        Ok(())
    }

    fn eval(&mut self, e: &Expr) -> Result<i128, InterpError> {
        self.tick()?;
        match e {
            Expr::Num(n) => Ok(*n),
            Expr::Var(name) => self.read_var(name),
            Expr::Mbl(name) => self.env.read_mbl(self.env.resolve(name).mbl, name),
            Expr::Index(name, idx) => {
                let i = self.eval(idx)?;
                self.read_index(name, i)
            }
            Expr::Unary(op, inner) => {
                let v = self.eval(inner)?;
                Ok(match op {
                    UnOp::Neg => v.wrapping_neg(),
                    UnOp::Not => !v,
                    UnOp::LNot => i128::from(v == 0),
                })
            }
            Expr::Binary(op, a, b) => self.binary(*op, a, b),
            Expr::Ternary(c, a, b) => {
                if self.eval(c)? != 0 {
                    self.eval(a)
                } else {
                    self.eval(b)
                }
            }
            Expr::Call(name, args) => self.call(name, args),
            Expr::Method {
                receiver,
                method,
                args,
            } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a)?);
                }
                let (t, m) = (self.env.resolve(receiver), self.env.resolve(method));
                self.env
                    .table_op((t.table, m.method), receiver, method, &vals)
            }
            Expr::Assign { target, op, value } => {
                let rhs = self.eval(value)?;
                let resolved = self.resolve_lvalue(target)?;
                let new = match op {
                    None => rhs,
                    Some(binop) => {
                        let cur = self.read_resolved(&resolved)?;
                        apply_binop(*binop, cur, rhs)?
                    }
                };
                self.write_resolved(&resolved, new)?;
                self.read_resolved(&resolved)
            }
            Expr::Incr {
                target,
                delta,
                post,
            } => {
                let resolved = self.resolve_lvalue(target)?;
                let cur = self.read_resolved(&resolved)?;
                let new = cur.wrapping_add(i128::from(*delta));
                self.write_resolved(&resolved, new)?;
                if *post {
                    Ok(cur)
                } else {
                    self.read_resolved(&resolved)
                }
            }
        }
    }

    fn binary(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Result<i128, InterpError> {
        // Short-circuit logicals.
        match op {
            BinOp::LAnd => {
                let l = self.eval(a)?;
                if l == 0 {
                    return Ok(0);
                }
                return Ok(i128::from(self.eval(b)? != 0));
            }
            BinOp::LOr => {
                let l = self.eval(a)?;
                if l != 0 {
                    return Ok(1);
                }
                return Ok(i128::from(self.eval(b)? != 0));
            }
            _ => {}
        }
        let l = self.eval(a)?;
        let r = self.eval(b)?;
        apply_binop(op, l, r)
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> Result<i128, InterpError> {
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a)?);
        }
        // Interpreter-native builtins first.
        match (name, vals.as_slice()) {
            ("abs", [x]) => return Ok(x.wrapping_abs()),
            ("min", [x, y]) => return Ok(*x.min(y)),
            ("max", [x, y]) => return Ok(*x.max(y)),
            _ => {}
        }
        if let (Some(ty), [x]) = (cast_type(name), vals.as_slice()) {
            return Ok(coerce(ty, *x));
        }
        match self.env.call(self.env.resolve(name).builtin, name, &vals) {
            Some(r) => r,
            None => Err(InterpError::UnknownBuiltin(name.to_string())),
        }
    }

    fn read_var(&mut self, name: &str) -> Result<i128, InterpError> {
        if let Some(v) = self.find_var(name) {
            return match &v.storage {
                Storage::Scalar(x) => Ok(*x),
                Storage::Array(_) => Err(InterpError::NotAScalar(name.to_string())),
            };
        }
        let b = self.env.resolve(name);
        if let Some(v) = self.env.read_scalar_arg(b.scalar, name) {
            return Ok(v);
        }
        if self.env.is_array_arg(b.array, name) {
            return Err(InterpError::NotAScalar(name.to_string()));
        }
        Err(InterpError::UnknownVariable(name.to_string()))
    }

    fn read_index(&mut self, name: &str, index: i128) -> Result<i128, InterpError> {
        if let Some(v) = self.find_var(name) {
            return match &mut v.storage {
                Storage::Array(a) => elem(a, index, name).map(|e| *e),
                Storage::Scalar(_) => Err(InterpError::NotAnArray(name.to_string())),
            };
        }
        let b = self.env.resolve(name);
        match self.env.read_array_arg(b.array, name, index) {
            Some(r) => r,
            None => {
                if self.env.read_scalar_arg(b.scalar, name).is_some() {
                    Err(InterpError::NotAnArray(name.to_string()))
                } else {
                    Err(InterpError::UnknownVariable(name.to_string()))
                }
            }
        }
    }

    /// Evaluate an lvalue's index expression exactly once (C evaluates
    /// `arr[f()] += 1` with a single call to `f`).
    fn resolve_lvalue(&mut self, lv: &LValue) -> Result<ResolvedLValue, InterpError> {
        Ok(match lv {
            LValue::Var(n) => ResolvedLValue::Var(n.clone()),
            LValue::Mbl(n) => ResolvedLValue::Mbl(n.clone()),
            LValue::Index(n, idx) => {
                let i = self.eval(idx)?;
                ResolvedLValue::Index(n.clone(), i)
            }
        })
    }

    fn read_resolved(&mut self, lv: &ResolvedLValue) -> Result<i128, InterpError> {
        match lv {
            ResolvedLValue::Var(n) => self.read_var(n),
            ResolvedLValue::Mbl(n) => self.env.read_mbl(self.env.resolve(n).mbl, n),
            ResolvedLValue::Index(n, i) => self.read_index(n, *i),
        }
    }

    fn write_resolved(&mut self, lv: &ResolvedLValue, value: i128) -> Result<(), InterpError> {
        match lv {
            ResolvedLValue::Mbl(n) => self.env.write_mbl(self.env.resolve(n).mbl, n, value),
            ResolvedLValue::Var(n) => self.write_var_scalar(n, value),
            ResolvedLValue::Index(n, i) => self.write_index(n, *i, value),
        }
    }

    fn write_var_scalar(&mut self, n: &str, value: i128) -> Result<(), InterpError> {
        if let Some(v) = self.find_var(n) {
            let ty = v.ty;
            match &mut v.storage {
                Storage::Scalar(x) => {
                    *x = coerce(ty, value);
                    Ok(())
                }
                Storage::Array(_) => Err(InterpError::NotAScalar(n.to_string())),
            }
        } else {
            Err(InterpError::UnknownVariable(n.to_string()))
        }
    }

    fn write_index(&mut self, n: &str, i: i128, value: i128) -> Result<(), InterpError> {
        if let Some(v) = self.find_var(n) {
            let ty = v.ty;
            match &mut v.storage {
                Storage::Array(a) => {
                    *elem(a, i, n)? = coerce(ty, value);
                    Ok(())
                }
                Storage::Scalar(_) => Err(InterpError::NotAnArray(n.to_string())),
            }
        } else {
            Err(InterpError::UnknownVariable(n.to_string()))
        }
    }
}

#[inline]
pub(crate) fn apply_binop(op: BinOp, l: i128, r: i128) -> Result<i128, InterpError> {
    Ok(match op {
        BinOp::Add => l.wrapping_add(r),
        BinOp::Sub => l.wrapping_sub(r),
        BinOp::Mul => l.wrapping_mul(r),
        BinOp::Div => {
            if r == 0 {
                return Err(InterpError::DivisionByZero);
            }
            l.wrapping_div(r)
        }
        BinOp::Rem => {
            if r == 0 {
                return Err(InterpError::DivisionByZero);
            }
            l.wrapping_rem(r)
        }
        BinOp::And => l & r,
        BinOp::Or => l | r,
        BinOp::Xor => l ^ r,
        BinOp::Shl => {
            if !(0..128).contains(&r) {
                0
            } else {
                l.wrapping_shl(r as u32)
            }
        }
        BinOp::Shr => {
            if !(0..128).contains(&r) {
                0
            } else {
                l.wrapping_shr(r as u32)
            }
        }
        BinOp::Lt => i128::from(l < r),
        BinOp::Le => i128::from(l <= r),
        BinOp::Gt => i128::from(l > r),
        BinOp::Ge => i128::from(l >= r),
        BinOp::Eq => i128::from(l == r),
        BinOp::Ne => i128::from(l != r),
        BinOp::LAnd | BinOp::LOr => unreachable!("handled with short-circuit"),
    })
}

// ---------------------------------------------------------------------------
// A simple map-backed environment for tests and examples.
// ---------------------------------------------------------------------------

/// In-memory [`ReactionEnv`] used by unit tests, examples, and dry runs. It
/// is a map of names: it hands out no ids and keys every call on the name.
#[derive(Clone, Debug, Default)]
pub struct MockEnv {
    pub scalars: HashMap<String, i128>,
    /// Arrays with their base index: `(lo, values)`.
    pub arrays: HashMap<String, (i128, Vec<i128>)>,
    pub mbls: HashMap<String, i128>,
    /// Log of table ops `(table, method, args)`.
    pub table_ops: Vec<(String, String, Vec<i128>)>,
    /// Extra builtin values: function name → return value.
    pub builtins: HashMap<String, i128>,
}

impl ReactionEnv for MockEnv {
    fn resolve(&self, _name: &str) -> Binding {
        Binding::UNBOUND
    }

    fn read_scalar_arg(&self, _id: u16, name: &str) -> Option<i128> {
        self.scalars.get(name).copied()
    }

    fn read_array_arg(
        &self,
        _id: u16,
        name: &str,
        index: i128,
    ) -> Option<Result<i128, InterpError>> {
        let (lo, vals) = self.arrays.get(name)?;
        Some(array_arg(name, *lo, vals, index))
    }

    fn is_array_arg(&self, _id: u16, name: &str) -> bool {
        self.arrays.contains_key(name)
    }

    fn read_mbl(&mut self, _id: u16, name: &str) -> Result<i128, InterpError> {
        self.mbls
            .get(name)
            .copied()
            .ok_or_else(|| InterpError::Env(format!("unknown malleable `{name}`")))
    }

    fn write_mbl(&mut self, _id: u16, name: &str, value: i128) -> Result<(), InterpError> {
        self.mbls.insert(name.to_string(), value);
        Ok(())
    }

    fn table_op(
        &mut self,
        _ids: (u16, u16),
        table: &str,
        method: &str,
        args: &[i128],
    ) -> Result<i128, InterpError> {
        self.table_ops
            .push((table.to_string(), method.to_string(), args.to_vec()));
        Ok(self.table_ops.len() as i128)
    }

    fn call(&mut self, _id: u16, name: &str, _args: &[i128]) -> Option<Result<i128, InterpError>> {
        self.builtins.get(name).map(|v| Ok(*v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, env: &mut MockEnv) -> Result<Option<i128>, InterpError> {
        Interpreter::from_source(src).unwrap().run(env)
    }

    #[test]
    fn figure_1_reaction_finds_max_queue() {
        let src = r#"
uint16_t current_max = 0, max_port = 0;
for (int i = 1; i <= 10; ++i)
    if (qdepths[i] > current_max) {
        current_max = qdepths[i]; max_port = i;
    }
${value_var} = max_port;
"#;
        let mut env = MockEnv::default();
        env.arrays
            .insert("qdepths".into(), (1, vec![3, 9, 2, 40, 5, 6, 7, 8, 1, 0]));
        env.mbls.insert("value_var".into(), 0);
        run(src, &mut env).unwrap();
        // index 4 holds 40 (array starts at lo=1).
        assert_eq!(env.mbls["value_var"], 4);
    }

    #[test]
    fn statics_persist_across_invocations() {
        let src = "static int count = 0; count = count + 1; return count;";
        let mut interp = Interpreter::from_source(src).unwrap();
        let mut env = MockEnv::default();
        assert_eq!(interp.run(&mut env).unwrap(), Some(1));
        assert_eq!(interp.run(&mut env).unwrap(), Some(2));
        assert_eq!(interp.run(&mut env).unwrap(), Some(3));
        interp.reset_statics();
        assert_eq!(interp.run(&mut env).unwrap(), Some(1));
    }

    #[test]
    fn static_arrays_usable_as_hash_table() {
        // Open-addressing hash table in interpreted C — a smoke test that
        // the language is expressive enough for UC1-style reactions.
        let src = r#"
static uint64_t keys[64];
static uint64_t vals[64];
int k = key_in;
int slot = (k * 31) % 64;
int placed = 0;
for (int probe = 0; probe < 64 && !placed; ++probe) {
    int i = (slot + probe) % 64;
    if (keys[i] == 0 || keys[i] == k) {
        keys[i] = k;
        vals[i] = vals[i] + add_in;
        placed = 1;
    }
}
int out = 0;
for (int probe = 0; probe < 64; ++probe) {
    int i = (slot + probe) % 64;
    if (keys[i] == k) { out = vals[i]; break; }
}
return out;
"#;
        let mut interp = Interpreter::from_source(src).unwrap();
        let mut env = MockEnv::default();
        env.scalars.insert("key_in".into(), 42);
        env.scalars.insert("add_in".into(), 100);
        assert_eq!(interp.run(&mut env).unwrap(), Some(100));
        assert_eq!(interp.run(&mut env).unwrap(), Some(200));
        env.scalars.insert("key_in".into(), 7);
        assert_eq!(interp.run(&mut env).unwrap(), Some(100));
        env.scalars.insert("key_in".into(), 42);
        env.scalars.insert("add_in".into(), 1);
        assert_eq!(interp.run(&mut env).unwrap(), Some(201));
    }

    #[test]
    fn uint_wraparound() {
        let mut env = MockEnv::default();
        assert_eq!(
            run("uint8_t x = 255; x = x + 1; return x;", &mut env).unwrap(),
            Some(0)
        );
        assert_eq!(
            run("uint16_t x = 0; x = x - 1; return x;", &mut env).unwrap(),
            Some(65535)
        );
    }

    #[test]
    fn int_sign_semantics() {
        let mut env = MockEnv::default();
        assert_eq!(
            run("int8_t x = 127; x = x + 1; return x;", &mut env).unwrap(),
            Some(-128)
        );
        assert_eq!(
            run("int x = 0 - 5; return x / 2;", &mut env).unwrap(),
            Some(-2)
        );
        assert_eq!(
            run("int x = 0 - 5; return x % 2;", &mut env).unwrap(),
            Some(-1)
        );
    }

    #[test]
    fn division_by_zero_is_error() {
        let mut env = MockEnv::default();
        assert_eq!(
            run("int x = 1 / 0;", &mut env).unwrap_err(),
            InterpError::DivisionByZero
        );
        assert_eq!(
            run("int x = 1 % 0;", &mut env).unwrap_err(),
            InterpError::DivisionByZero
        );
    }

    #[test]
    fn step_limit_stops_infinite_loop() {
        let mut interp = Interpreter::from_source("while (1) { }").unwrap();
        interp.step_limit = 10_000;
        let mut env = MockEnv::default();
        assert!(matches!(
            interp.run(&mut env).unwrap_err(),
            InterpError::StepLimitExceeded(_)
        ));
    }

    #[test]
    fn short_circuit_evaluation() {
        let mut env = MockEnv::default();
        // RHS would divide by zero — must not evaluate.
        assert_eq!(
            run("int x = 0; return x && (1 / 0);", &mut env).unwrap(),
            Some(0)
        );
        assert_eq!(
            run("int x = 1; return x || (1 / 0);", &mut env).unwrap(),
            Some(1)
        );
    }

    #[test]
    fn pre_and_post_increment_values() {
        let mut env = MockEnv::default();
        assert_eq!(run("int x = 5; return x++;", &mut env).unwrap(), Some(5));
        assert_eq!(run("int x = 5; return ++x;", &mut env).unwrap(), Some(6));
        assert_eq!(
            run("int x = 5; int y = x--; return x + y * 10;", &mut env).unwrap(),
            Some(54)
        );
    }

    #[test]
    fn table_methods_reach_env() {
        let src = "block_table.addEntry(10, 2); block_table.delEntry(1);";
        let mut env = MockEnv::default();
        run(src, &mut env).unwrap();
        assert_eq!(env.table_ops.len(), 2);
        assert_eq!(env.table_ops[0].0, "block_table");
        assert_eq!(env.table_ops[0].1, "addEntry");
        assert_eq!(env.table_ops[0].2, vec![10, 2]);
        assert_eq!(env.table_ops[1].1, "delEntry");
    }

    #[test]
    fn env_builtins_and_unknown() {
        let mut env = MockEnv::default();
        env.builtins.insert("now_us".into(), 777);
        assert_eq!(run("return now_us();", &mut env).unwrap(), Some(777));
        assert_eq!(
            run("return mystery();", &mut env).unwrap_err(),
            InterpError::UnknownBuiltin("mystery".into())
        );
    }

    #[test]
    fn native_builtins() {
        let mut env = MockEnv::default();
        assert_eq!(run("return abs(0 - 7);", &mut env).unwrap(), Some(7));
        assert_eq!(run("return min(3, 9);", &mut env).unwrap(), Some(3));
        assert_eq!(run("return max(3, 9);", &mut env).unwrap(), Some(9));
    }

    #[test]
    fn casts_truncate() {
        let mut env = MockEnv::default();
        assert_eq!(run("return (uint8_t) 300;", &mut env).unwrap(), Some(44));
        assert_eq!(run("return (int8_t) 200;", &mut env).unwrap(), Some(-56));
    }

    #[test]
    fn array_bounds_checked() {
        let mut env = MockEnv::default();
        assert!(matches!(
            run("int a[4]; return a[4];", &mut env).unwrap_err(),
            InterpError::IndexOutOfBounds { .. }
        ));
        env.arrays.insert("q".into(), (2, vec![1, 2, 3]));
        assert_eq!(run("return q[4];", &mut env).unwrap(), Some(3));
        assert!(matches!(
            run("return q[1];", &mut env).unwrap_err(),
            InterpError::IndexOutOfBounds { .. }
        ));
    }

    #[test]
    fn scoping_shadows_and_restores() {
        let src = r#"
int x = 1;
{
    int x = 2;
    ${a} = x;
}
${b} = x;
"#;
        let mut env = MockEnv::default();
        env.mbls.insert("a".into(), 0);
        env.mbls.insert("b".into(), 0);
        run(src, &mut env).unwrap();
        assert_eq!(env.mbls["a"], 2);
        assert_eq!(env.mbls["b"], 1);
    }

    #[test]
    fn unknown_variable_is_error() {
        let mut env = MockEnv::default();
        assert_eq!(
            run("return ghost;", &mut env).unwrap_err(),
            InterpError::UnknownVariable("ghost".into())
        );
    }

    #[test]
    fn compound_assignment_coerces() {
        let mut env = MockEnv::default();
        assert_eq!(
            run("uint8_t x = 250; x += 10; return x;", &mut env).unwrap(),
            Some(4)
        );
        assert_eq!(
            run("int x = 7; x *= 3; x -= 1; x /= 4; return x;", &mut env).unwrap(),
            Some(5)
        );
    }

    #[test]
    fn break_and_continue() {
        let src = r#"
int total = 0;
for (int i = 0; i < 10; ++i) {
    if (i == 3) continue;
    if (i == 6) break;
    total += i;
}
return total;
"#;
        let mut env = MockEnv::default();
        // 0+1+2+4+5 = 12
        assert_eq!(run(src, &mut env).unwrap(), Some(12));
    }

    #[test]
    fn while_with_break_from_nested_if() {
        let src = r#"
int i = 0;
while (1) {
    i++;
    if (i >= 5) { break; }
}
return i;
"#;
        let mut env = MockEnv::default();
        assert_eq!(run(src, &mut env).unwrap(), Some(5));
    }

    #[test]
    fn ternary_expression() {
        let mut env = MockEnv::default();
        env.scalars.insert("a".into(), 10);
        env.scalars.insert("b".into(), 3);
        assert_eq!(
            run("return a > b ? a - b : b - a;", &mut env).unwrap(),
            Some(7)
        );
    }

    #[test]
    fn all_compound_assignment_operators() {
        let mut env = MockEnv::default();
        let src = r#"
int x = 12;
x %= 5;    // 2
x <<= 3;   // 16
x |= 1;    // 17
x &= 30;   // 16
x ^= 48;   // 32
x >>= 2;   // 8
return x;
"#;
        assert_eq!(run(src, &mut env).unwrap(), Some(8));
    }

    #[test]
    fn side_effecting_index_evaluates_once() {
        // `a[i++] += 1` must bump `i` exactly once (C semantics).
        let src = r#"
int a[4];
int i = 1;
a[i++] += 10;
return i * 100 + a[1];
"#;
        let mut env = MockEnv::default();
        assert_eq!(run(src, &mut env).unwrap(), Some(210));
    }

    #[test]
    fn mbl_compound_ops() {
        let mut env = MockEnv::default();
        env.mbls.insert("thresh".into(), 10);
        run("${thresh} += 5; ${thresh} *= 2;", &mut env).unwrap();
        assert_eq!(env.mbls["thresh"], 30);
    }
}
