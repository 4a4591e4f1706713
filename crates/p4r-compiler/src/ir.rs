//! The typed mid-level IR (`P4rIr`) shared by every lowering.
//!
//! The staged pipeline is:
//!
//! ```text
//! source ──p4r-lang──▶ AST ──build()──▶ P4rIr ──┬─▶ lower.rs   (rmt-sim DataPlaneSpec backend)
//!                      (validate)               ├─▶ bytecode VM (reaction-interp::CompiledReaction)
//!                                               └─▶ reference walker (reaction-interp::Interpreter; harnesses only)
//! ```
//!
//! `build()` performs name resolution and type/width checking over the parts
//! of a P4R program that `p4_ast::validate` cannot see — chiefly reaction
//! bodies, which the AST carries as raw text — and produces typed
//! descriptors with *pre-resolved slots*: every reaction's body is parsed
//! exactly once, its `static` slots are assigned once (via
//! [`ReactionSlots`], the same map the VM compiles against), and its
//! malleable/argument/table references are checked against the program.
//! Downstream consumers therefore agree on what the program means by
//! construction instead of re-deriving it from the AST independently.
//!
//! IR invariants (checked by `build`, relied on by the lowerings):
//!
//! * every reaction body parses, and every `${mbl}` it references names a
//!   declared malleable value or field;
//! * every method-call receiver in a body names a declared table;
//! * every variable a body reads is an argument binding, a declared local
//!   or `static`, or a whole-header expansion of an argument;
//! * the `__cast_` prefix is reserved: a call under it is
//!   `__cast_{u,i}{1..=128}` with one argument
//!   ([`reaction_interp::cast_type`], which both engines compile casts
//!   through) or a diagnostic;
//! * a declaration is never a bare branch or loop body (the parser wraps it
//!   in a block), so every local's scope is lexical — with the cast rule,
//!   what makes [`reaction_interp::CompiledReaction::compile`] total over
//!   the bodies this IR carries;
//! * static slots are assigned in pre-order encounter order and shared with
//!   [`reaction_interp::CompiledReaction::compile_with_slots`].

use p4_ast::{FieldOrMbl, FieldRef, Pipeline, Program, ReactionArg, Value};
use p4r_lang::creact::{self, Body, Expr, LValue, Stmt};
use p4r_lang::lexer::{caret_snippet, lex, Tok};
use reaction_interp::{cast_type, ReactionSlots};
use std::collections::BTreeSet;
use std::fmt;
use std::fmt::Write as _;

/// A typecheck diagnostic with a source position and caret snippet.
///
/// Positions inside reaction bodies are relative to the body text (the
/// `context` field names the reaction); program-level positions are relative
/// to the full source.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub message: String,
    /// Where the diagnostic arose, e.g. `in reaction \`my_reaction\``.
    pub context: String,
    /// 1-based line (0 when unknown).
    pub line: u32,
    /// 1-based byte column (0 when unknown).
    pub col: u32,
    /// Rendered caret snippet (empty when no position is known).
    pub snippet: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.context)?;
        if self.line > 0 {
            write!(f, " at line {}, col {}", self.line, self.col)?;
        }
        write!(f, ": {}", self.message)?;
        if !self.snippet.is_empty() {
            write!(f, "\n{}", self.snippet)?;
        }
        Ok(())
    }
}

/// A typed malleable value descriptor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IrMblValue {
    pub name: String,
    pub width: u16,
    pub init: Value,
}

/// A typed malleable field descriptor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IrMblField {
    pub name: String,
    pub width: u16,
    pub init: FieldRef,
    pub alts: Vec<FieldRef>,
    /// ceil(log2(|alts|)) — the selector metadata width.
    pub selector_bits: u16,
}

/// A table descriptor: name, key columns, actions, malleability.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IrTable {
    pub name: String,
    /// Key columns as `(target, match_kind)` rendered strings.
    pub keys: Vec<(String, String)>,
    pub actions: Vec<String>,
    pub size: Option<u32>,
    pub malleable: bool,
}

/// An action descriptor with the malleable fields its body reads/writes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IrAction {
    pub name: String,
    pub params: Vec<String>,
    /// Malleable *fields* referenced anywhere in the body, in first-use
    /// order. Each entry multiplies the action's specialization count by
    /// its alt count.
    pub mbl_fields: Vec<String>,
    /// Malleable *values* read by the body (lowered to metadata refs).
    pub mbl_values: Vec<String>,
}

/// One reaction argument with its resolved width.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IrReactionArg {
    /// A sampled field (or malleable ref); `binding` is the name the body
    /// uses. `width` is the declared field width (0 if unresolvable, which
    /// validation has already rejected).
    Field {
        binding: String,
        pipeline: Pipeline,
        width: u16,
        masked: bool,
    },
    /// A register slice `reg name[lo:hi]`.
    Register {
        name: String,
        lo: u32,
        hi: u32,
        width: u16,
    },
    /// A whole header: expands to one scalar binding per field.
    Header {
        instance: String,
        pipeline: Pipeline,
        bindings: Vec<(String, u16)>,
    },
}

/// A reaction with its body parsed once and all slots pre-resolved.
#[derive(Clone, Debug, PartialEq)]
pub struct IrReaction {
    pub name: String,
    pub args: Vec<IrReactionArg>,
    /// The parsed body — what the VM compiles, never the raw text.
    pub body: Body,
    /// Pre-resolved `static` slots, shared with the VM.
    pub statics: ReactionSlots,
    /// Malleables the body reads or writes, sorted.
    pub mbls_used: Vec<String>,
    /// Tables the body drives via method calls, sorted.
    pub tables_used: Vec<String>,
}

/// The typed mid-level IR for one P4R program.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct P4rIr {
    pub mbl_values: Vec<IrMblValue>,
    pub mbl_fields: Vec<IrMblField>,
    pub tables: Vec<IrTable>,
    pub actions: Vec<IrAction>,
    pub reactions: Vec<IrReaction>,
}

impl P4rIr {
    /// Look up a reaction by name.
    pub fn reaction(&self, name: &str) -> Option<&IrReaction> {
        self.reactions.iter().find(|r| r.name == name)
    }

    /// Stable, human-readable dump for golden-snapshot tests. The format is
    /// deterministic: declaration order for top-level items, sorted sets for
    /// derived name lists.
    pub fn dump(&self) -> String {
        let mut s = String::new();
        for v in &self.mbl_values {
            let _ = writeln!(
                s,
                "mbl_value {} : {}w init={}",
                v.name,
                v.width,
                v.init.bits()
            );
        }
        for f in &self.mbl_fields {
            let alts: Vec<String> = f
                .alts
                .iter()
                .map(|a| format!("{}.{}", a.instance, a.field))
                .collect();
            let _ = writeln!(
                s,
                "mbl_field {} : {}w sel={}b init={}.{} alts=[{}]",
                f.name,
                f.width,
                f.selector_bits,
                f.init.instance,
                f.init.field,
                alts.join(", ")
            );
        }
        for t in &self.tables {
            let keys: Vec<String> = t.keys.iter().map(|(k, m)| format!("{k}:{m}")).collect();
            let _ = writeln!(
                s,
                "table {}{} keys=[{}] actions=[{}] size={:?}",
                t.name,
                if t.malleable { " (malleable)" } else { "" },
                keys.join(", "),
                t.actions.join(", "),
                t.size
            );
        }
        for a in &self.actions {
            let _ = writeln!(
                s,
                "action {}({}) mbl_fields=[{}] mbl_values=[{}]",
                a.name,
                a.params.join(", "),
                a.mbl_fields.join(", "),
                a.mbl_values.join(", ")
            );
        }
        for r in &self.reactions {
            let _ = writeln!(s, "reaction {} {{", r.name);
            for arg in &r.args {
                match arg {
                    IrReactionArg::Field {
                        binding,
                        pipeline,
                        width,
                        masked,
                    } => {
                        let _ = writeln!(
                            s,
                            "  arg field {binding} : {width}w pipe={pipeline:?}{}",
                            if *masked { " masked" } else { "" }
                        );
                    }
                    IrReactionArg::Register {
                        name,
                        lo,
                        hi,
                        width,
                    } => {
                        let _ = writeln!(s, "  arg reg {name}[{lo}:{hi}] : {width}w");
                    }
                    IrReactionArg::Header {
                        instance,
                        pipeline,
                        bindings,
                    } => {
                        let fields: Vec<String> =
                            bindings.iter().map(|(b, w)| format!("{b}:{w}w")).collect();
                        let _ = writeln!(
                            s,
                            "  arg header {instance} pipe={pipeline:?} fields=[{}]",
                            fields.join(", ")
                        );
                    }
                }
            }
            for (name, slot) in r.statics.iter() {
                let _ = writeln!(s, "  static[{slot}] {name}");
            }
            if !r.mbls_used.is_empty() {
                let _ = writeln!(s, "  mbls=[{}]", r.mbls_used.join(", "));
            }
            if !r.tables_used.is_empty() {
                let _ = writeln!(s, "  tables=[{}]", r.tables_used.join(", "));
            }
            let _ = writeln!(s, "  stmts={}", r.body.stmts.len());
            let _ = writeln!(s, "}}");
        }
        s
    }
}

/// Build and typecheck the IR for a validated program. Returns every
/// diagnostic found (not just the first).
pub fn build(prog: &Program) -> Result<P4rIr, Vec<Diagnostic>> {
    let mut ir = P4rIr::default();
    let mut diags = Vec::new();

    for v in &prog.mbl_values {
        if v.init.width() != v.width || (v.width < 128 && v.init.bits() >> v.width != 0) {
            // The parser constructs inits at the declared width, so a
            // mismatch can only come from hand-built ASTs — still a
            // diagnostic, not a panic.
            diags.push(Diagnostic {
                message: format!(
                    "malleable value `{}` init {} does not fit width {}",
                    v.name,
                    v.init.bits(),
                    v.width
                ),
                context: format!("in malleable value `{}`", v.name),
                line: 0,
                col: 0,
                snippet: String::new(),
            });
        }
        ir.mbl_values.push(IrMblValue {
            name: v.name.clone(),
            width: v.width,
            init: v.init,
        });
    }

    for f in &prog.mbl_fields {
        ir.mbl_fields.push(IrMblField {
            name: f.name.clone(),
            width: f.width,
            init: f.init.clone(),
            alts: f.alts.clone(),
            selector_bits: f.selector_bits(),
        });
    }

    for t in &prog.tables {
        ir.tables.push(IrTable {
            name: t.name.clone(),
            keys: t
                .reads
                .iter()
                .map(|r| {
                    let target = match &r.target {
                        FieldOrMbl::Field(fr) => format!("{}.{}", fr.instance, fr.field),
                        FieldOrMbl::Mbl(m) => format!("${{{m}}}"),
                    };
                    (target, format!("{:?}", r.kind).to_lowercase())
                })
                .collect(),
            actions: t.actions.clone(),
            size: t.size,
            malleable: t.malleable,
        });
    }

    for a in &prog.actions {
        let mut mbl_fields = Vec::new();
        let mut mbl_values = BTreeSet::new();
        for call in &a.body {
            for m in mbl_refs(call) {
                if prog.mbl_field(&m).is_some() {
                    if !mbl_fields.contains(&m) {
                        mbl_fields.push(m);
                    }
                } else if prog.mbl_value(&m).is_some() {
                    mbl_values.insert(m);
                }
            }
        }
        ir.actions.push(IrAction {
            name: a.name.clone(),
            params: a.params.clone(),
            mbl_fields,
            mbl_values: mbl_values.into_iter().collect(),
        });
    }

    for r in &prog.reactions {
        match build_reaction(prog, r, &mut diags) {
            Some(ir_r) => ir.reactions.push(ir_r),
            None => continue,
        }
    }

    if diags.is_empty() {
        Ok(ir)
    } else {
        Err(diags)
    }
}

fn build_reaction(
    prog: &Program,
    r: &p4_ast::ReactionDecl,
    diags: &mut Vec<Diagnostic>,
) -> Option<IrReaction> {
    let context = format!("in reaction `{}`", r.name);

    let body = match creact::parse_body(&r.body_src) {
        Ok(b) => b,
        Err(e) => {
            diags.push(Diagnostic {
                message: e.message,
                context,
                line: e.line,
                col: e.col,
                snippet: e.snippet,
            });
            return None;
        }
    };

    let statics = match ReactionSlots::collect(&body) {
        Ok(s) => s,
        Err(e) => {
            diags.push(Diagnostic {
                message: e.to_string(),
                context,
                line: 0,
                col: 0,
                snippet: String::new(),
            });
            return None;
        }
    };

    // Resolve argument bindings and widths.
    let mut args = Vec::new();
    let mut scalars: BTreeSet<String> = BTreeSet::new();
    let mut arrays: BTreeSet<String> = BTreeSet::new();
    for a in &r.args {
        match a {
            ReactionArg::Field {
                pipeline,
                target,
                mask,
            } => {
                let binding = a.binding_name();
                let width = match target {
                    FieldOrMbl::Field(fr) => prog.field_width(fr).unwrap_or(0),
                    FieldOrMbl::Mbl(m) => prog
                        .mbl_value(m)
                        .map(|v| v.width)
                        .or_else(|| prog.mbl_field(m).map(|f| f.width))
                        .unwrap_or(0),
                };
                scalars.insert(binding.clone());
                args.push(IrReactionArg::Field {
                    binding,
                    pipeline: *pipeline,
                    width,
                    masked: mask.is_some(),
                });
            }
            ReactionArg::Register { register, lo, hi } => {
                let width = prog.register(register).map(|d| d.width).unwrap_or(0);
                arrays.insert(register.clone());
                args.push(IrReactionArg::Register {
                    name: register.clone(),
                    lo: *lo,
                    hi: *hi,
                    width,
                });
            }
            ReactionArg::Header { pipeline, instance } => {
                let mut bindings = Vec::new();
                if let Some(inst) = prog.instance(instance) {
                    if let Some(ht) = prog.header_type(&inst.header_type) {
                        for (fname, fwidth) in &ht.fields {
                            let b = format!("{instance}_{fname}");
                            scalars.insert(b.clone());
                            bindings.push((b, *fwidth));
                        }
                    }
                }
                args.push(IrReactionArg::Header {
                    instance: instance.clone(),
                    pipeline: *pipeline,
                    bindings,
                });
            }
        }
    }

    // Typecheck the body: name resolution for variables, malleables, table
    // methods, and cast builtins.
    let mut ck = BodyCheck {
        prog,
        src: &r.body_src,
        context: &context,
        scalars: &scalars,
        arrays: &arrays,
        declared: collect_declared(&body),
        diags,
        mbls_used: BTreeSet::new(),
        tables_used: BTreeSet::new(),
    };
    let before = ck.diags.len();
    for s in &body.stmts {
        ck.stmt(s);
    }
    let mbls_used = ck.mbls_used.into_iter().collect();
    let tables_used = ck.tables_used.into_iter().collect();
    if diags.len() > before {
        return None;
    }

    Some(IrReaction {
        name: r.name.clone(),
        args,
        body,
        statics,
        mbls_used,
        tables_used,
    })
}

/// Every name declared anywhere in the body (locals and statics). Strict
/// resolution accepts args ∪ declared; anything else is a compile-time
/// unknown-variable diagnostic instead of the walker's runtime error.
fn collect_declared(body: &Body) -> BTreeSet<String> {
    fn visit(s: &Stmt, out: &mut BTreeSet<String>) {
        match s {
            Stmt::Decl { decls, .. } => {
                for d in decls {
                    out.insert(d.name.clone());
                }
            }
            Stmt::Block(inner) => inner.iter().for_each(|s| visit(s, out)),
            Stmt::If { then_, else_, .. } => {
                visit(then_, out);
                if let Some(e) = else_ {
                    visit(e, out);
                }
            }
            Stmt::While { body, .. } => visit(body, out),
            Stmt::For { init, body, .. } => {
                if let Some(i) = init {
                    visit(i, out);
                }
                visit(body, out);
            }
            _ => {}
        }
    }
    let mut out = BTreeSet::new();
    body.stmts.iter().for_each(|s| visit(s, &mut out));
    out
}

struct BodyCheck<'a> {
    prog: &'a Program,
    src: &'a str,
    context: &'a str,
    scalars: &'a BTreeSet<String>,
    arrays: &'a BTreeSet<String>,
    declared: BTreeSet<String>,
    diags: &'a mut Vec<Diagnostic>,
    mbls_used: BTreeSet<String>,
    tables_used: BTreeSet<String>,
}

impl BodyCheck<'_> {
    /// Report `message` pointing at the first occurrence of identifier
    /// `name` in the body text (found by re-lexing; the creact AST carries
    /// no spans).
    fn diag_at_ident(&mut self, name: &str, message: String) {
        let (line, col) = find_ident(self.src, name).unwrap_or((0, 0));
        self.diags.push(Diagnostic {
            message,
            context: self.context.to_string(),
            line,
            col,
            snippet: if line > 0 {
                caret_snippet(self.src, line, col)
            } else {
                String::new()
            },
        });
    }

    fn known_var(&self, name: &str) -> bool {
        self.scalars.contains(name) || self.arrays.contains(name) || self.declared.contains(name)
    }

    fn check_var(&mut self, name: &str) {
        if !self.known_var(name) {
            self.diag_at_ident(
                name,
                format!("unknown variable `{name}` (not an argument or declared local)"),
            );
        }
    }

    fn check_mbl(&mut self, name: &str) {
        if self.prog.mbl_value(name).is_none() && self.prog.mbl_field(name).is_none() {
            self.diag_at_ident(name, format!("unknown malleable `${{{name}}}`"));
        } else {
            self.mbls_used.insert(name.to_string());
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Decl { decls, .. } => {
                for d in decls {
                    if let Some(init) = &d.init {
                        self.expr(init);
                    }
                }
            }
            Stmt::Expr(e) => self.expr(e),
            Stmt::If { cond, then_, else_ } => {
                self.expr(cond);
                self.stmt(then_);
                if let Some(e) = else_ {
                    self.stmt(e);
                }
            }
            Stmt::While { cond, body } => {
                self.expr(cond);
                self.stmt(body);
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    self.stmt(i);
                }
                if let Some(c) = cond {
                    self.expr(c);
                }
                if let Some(st) = step {
                    self.expr(st);
                }
                self.stmt(body);
            }
            Stmt::Return(e) => {
                if let Some(e) = e {
                    self.expr(e);
                }
            }
            Stmt::Block(inner) => inner.iter().for_each(|s| self.stmt(s)),
            Stmt::Break | Stmt::Continue | Stmt::Empty => {}
        }
    }

    fn lvalue(&mut self, lv: &LValue) {
        match lv {
            LValue::Var(name) => self.check_var(name),
            LValue::Mbl(name) => self.check_mbl(name),
            LValue::Index(name, index) => {
                self.check_var(name);
                self.expr(index);
            }
        }
    }

    fn expr(&mut self, e: &Expr) {
        match e {
            Expr::Num(_) => {}
            Expr::Var(name) => self.check_var(name),
            Expr::Mbl(name) => self.check_mbl(name),
            Expr::Index(name, index) => {
                self.check_var(name);
                self.expr(index);
            }
            Expr::Unary(_, e) => self.expr(e),
            Expr::Binary(_, lhs, rhs) => {
                self.expr(lhs);
                self.expr(rhs);
            }
            Expr::Call(name, args) => {
                self.check_call(name, args.len());
                args.iter().for_each(|a| self.expr(a));
            }
            Expr::Method {
                receiver,
                method: _,
                args,
            } => {
                if self.prog.table(receiver).is_none() {
                    self.diag_at_ident(
                        receiver,
                        format!("method call on `{receiver}`, which is not a declared table"),
                    );
                } else {
                    self.tables_used.insert(receiver.clone());
                }
                args.iter().for_each(|a| self.expr(a));
            }
            Expr::Ternary(cond, then_, else_) => {
                self.expr(cond);
                self.expr(then_);
                self.expr(else_);
            }
            Expr::Assign { target, value, .. } => {
                self.lvalue(target);
                self.expr(value);
            }
            Expr::Incr { target, .. } => self.lvalue(target),
        }
    }

    /// The whole `__cast_` prefix is the cast builtins': a call under it is
    /// one of [`cast_type`]'s names with exactly one argument, or an error
    /// here. Other calls are environment builtins resolved at run time,
    /// which stay permissive.
    fn check_call(&mut self, name: &str, argc: usize) {
        if !name.starts_with("__cast_") {
            return;
        }
        if cast_type(name).is_none() {
            self.diag_at_ident(
                name,
                format!("malformed cast builtin `{name}` (expected `__cast_u<N>` or `__cast_i<N>`, N in 1..=128)"),
            );
        } else if argc != 1 {
            self.diag_at_ident(
                name,
                format!("cast builtin `{name}` takes exactly 1 argument, got {argc}"),
            );
        }
    }
}

/// Malleable names referenced by a primitive call (targets then operands,
/// in call order).
fn mbl_refs(call: &p4_ast::PrimitiveCall) -> Vec<String> {
    let mut out = Vec::new();
    for t in crate::lower::primitive_targets(call) {
        if let FieldOrMbl::Mbl(m) = t {
            out.push(m.clone());
        }
    }
    for op in crate::lower::primitive_operands(call) {
        if let p4_ast::Operand::Mbl(m) = op {
            out.push(m.clone());
        }
    }
    out
}

/// Locate the first occurrence of identifier `name` in `src` by re-lexing.
/// Returns (line, col), both 1-based.
fn find_ident(src: &str, name: &str) -> Option<(u32, u32)> {
    let toks = lex(src).ok()?;
    toks.iter()
        .find(|t| matches!(&t.tok, Tok::Ident(s) if s == name))
        .map(|t| (t.line, t.col))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(src: &str) -> Program {
        let mut p = p4r_lang::parse_program(src).unwrap();
        p4_ast::intrinsics::inject(&mut p);
        p
    }

    const BASE: &str = r#"
header_type h_t { fields { foo : 32; bar : 16; } }
header h_t hdr;
register counts { width : 32; instance_count : 8; }
malleable value threshold { width : 32; init : 7; }
action a() { modify_field(hdr.foo, ${threshold}); }
table t { reads { hdr.foo : exact; } actions { a; } size : 4; }
control ingress { apply(t); }
"#;

    fn with_reaction(body: &str) -> String {
        format!("{BASE}\nreaction r(ing hdr.foo, reg counts[0:7]) {{ {body} }}\n")
    }

    #[test]
    fn builds_ir_for_valid_program() {
        let p = prog(&with_reaction(
            "static uint32_t seen = 0; seen += hdr_foo; ${threshold} = seen; \
             int x = counts[0]; t.addEntry(1, x);",
        ));
        let ir = build(&p).unwrap();
        assert_eq!(ir.mbl_values.len(), 1);
        let r = ir.reaction("r").unwrap();
        assert_eq!(r.statics.slot("seen"), Some(0));
        assert_eq!(r.mbls_used, vec!["threshold".to_string()]);
        assert_eq!(r.tables_used, vec!["t".to_string()]);
        assert!(matches!(
            &r.args[0],
            IrReactionArg::Field { binding, width: 32, .. } if binding == "hdr_foo"
        ));
        assert!(matches!(
            &r.args[1],
            IrReactionArg::Register { name, lo: 0, hi: 7, width: 32 } if name == "counts"
        ));
    }

    #[test]
    fn unknown_variable_is_spanned_diagnostic() {
        let p = prog(&with_reaction("int x = ghost + 1;"));
        let diags = build(&p).unwrap_err();
        assert_eq!(diags.len(), 1);
        let d = &diags[0];
        assert!(d.message.contains("ghost"), "{}", d.message);
        assert!(d.line > 0 && d.col > 0, "{d:?}");
        assert!(d.snippet.contains('^'), "{}", d.snippet);
        assert!(d.context.contains("reaction `r`"));
    }

    #[test]
    fn unknown_malleable_rejected() {
        let p = prog(&with_reaction("${nope} = 1;"));
        let diags = build(&p).unwrap_err();
        assert!(diags[0].message.contains("nope"));
    }

    #[test]
    fn method_on_non_table_rejected() {
        let p = prog(&with_reaction("counts.addEntry(1, 2);"));
        let diags = build(&p).unwrap_err();
        assert!(diags[0].message.contains("not a declared table"));
    }

    #[test]
    fn the_cast_prefix_is_reserved() {
        let opts = crate::CompilerOptions::default();
        for call in [
            "__cast_(1)",
            "__cast_8()",
            "__cast_u8()",
            "__cast_u0(1)",
            "__cast_x(1)",
        ] {
            let src = with_reaction(&format!("int x =\n  {call};"));
            let msg = crate::compile_source(&src, &opts).unwrap_err().to_string();
            assert!(msg.contains("cast builtin `__cast_"), "{call}: {msg}");
            assert!(msg.contains("at line 2, col 2"), "{call}: {msg}");
        }
        let ok = with_reaction("int x = (uint8_t) 300 + __cast_i128(hdr_foo);");
        crate::compile_source(&ok, &opts).unwrap();
    }

    #[test]
    fn body_parse_error_becomes_diagnostic() {
        let p = prog(&with_reaction("int x = ;"));
        let diags = build(&p).unwrap_err();
        assert!(diags[0].line > 0);
        assert!(diags[0].context.contains("reaction `r`"));
    }

    #[test]
    fn header_arg_expands_bindings() {
        let p = prog(&format!(
            "{BASE}\nreaction r(ing hdr hdr) {{ int x = hdr_foo + hdr_bar; }}\n"
        ));
        let ir = build(&p).unwrap();
        let r = ir.reaction("r").unwrap();
        match &r.args[0] {
            IrReactionArg::Header { bindings, .. } => {
                assert_eq!(
                    bindings,
                    &[("hdr_foo".to_string(), 32), ("hdr_bar".to_string(), 16)]
                );
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn dump_is_stable() {
        let p = prog(&with_reaction("static int n = 0; n++;"));
        let ir = build(&p).unwrap();
        let d1 = ir.dump();
        let d2 = build(&p).unwrap().dump();
        assert_eq!(d1, d2);
        assert!(d1.contains("mbl_value threshold : 32w init=7"));
        assert!(d1.contains("static[0] n"));
    }
}
