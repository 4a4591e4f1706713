//! Semantic validation of a (P4R or plain P4) program.
//!
//! The checks here are the ones the Mantis compiler relies on: all references
//! resolve, widths are sane, names are unique, and malleable usage obeys the
//! P4R grammar (e.g. malleable *values* cannot be assignment destinations in
//! the data plane — only reactions may write them).

use crate::ast::*;
use std::collections::HashSet;
use std::fmt;

/// A validation error with enough context to point the user at the problem.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateError {
    DuplicateName {
        kind: &'static str,
        name: String,
    },
    UnknownHeaderType {
        instance: String,
        header_type: String,
    },
    UnknownInstance {
        referenced: String,
        context: String,
    },
    UnknownField {
        field: FieldRef,
        context: String,
    },
    UnknownAction {
        table: String,
        action: String,
    },
    UnknownTable {
        name: String,
        context: String,
    },
    UnknownRegister {
        name: String,
        context: String,
    },
    UnknownMalleable {
        name: String,
        context: String,
    },
    UnknownCalculation {
        name: String,
        context: String,
    },
    UnknownFieldList {
        name: String,
        context: String,
    },
    UnknownParserState {
        name: String,
        context: String,
    },
    MblValueAsDestination {
        name: String,
        context: String,
    },
    MblFieldInitNotInAlts {
        name: String,
    },
    MblFieldAltWidthMismatch {
        name: String,
        alt: FieldRef,
        expect: u16,
        got: u16,
    },
    EmptyAlts {
        name: String,
    },
    RegisterRangeOutOfBounds {
        register: String,
        hi: u32,
        count: u32,
    },
    BadDefaultAction {
        table: String,
        action: String,
    },
    ZeroWidthField {
        header_type: String,
        field: String,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use ValidateError::*;
        match self {
            DuplicateName { kind, name } => write!(f, "duplicate {kind} name `{name}`"),
            UnknownHeaderType { instance, header_type } => {
                write!(f, "instance `{instance}` references unknown header type `{header_type}`")
            }
            UnknownInstance { referenced, context } => {
                write!(f, "unknown instance `{referenced}` referenced in {context}")
            }
            UnknownField { field, context } => {
                write!(f, "unknown field `{field}` referenced in {context}")
            }
            UnknownAction { table, action } => {
                write!(f, "table `{table}` lists unknown action `{action}`")
            }
            UnknownTable { name, context } => {
                write!(f, "unknown table `{name}` referenced in {context}")
            }
            UnknownRegister { name, context } => {
                write!(f, "unknown register `{name}` referenced in {context}")
            }
            UnknownMalleable { name, context } => {
                write!(f, "unknown malleable `${{{name}}}` referenced in {context}")
            }
            UnknownCalculation { name, context } => {
                write!(f, "unknown field_list_calculation `{name}` in {context}")
            }
            UnknownFieldList { name, context } => {
                write!(f, "unknown field_list `{name}` in {context}")
            }
            UnknownParserState { name, context } => {
                write!(f, "unknown parser state `{name}` in {context}")
            }
            MblValueAsDestination { name, context } => write!(
                f,
                "malleable value `${{{name}}}` used as a data-plane assignment destination in {context}; \
                 only reactions may write malleable values"
            ),
            MblFieldInitNotInAlts { name } => {
                write!(f, "malleable field `{name}`: init reference is not a member of alts")
            }
            MblFieldAltWidthMismatch { name, alt, expect, got } => write!(
                f,
                "malleable field `{name}`: alt `{alt}` has width {got}, expected {expect}"
            ),
            EmptyAlts { name } => write!(f, "malleable field `{name}` has an empty alts set"),
            RegisterRangeOutOfBounds { register, hi, count } => write!(
                f,
                "reaction argument reads register `{register}` up to index {hi}, \
                 but it has only {count} instances"
            ),
            BadDefaultAction { table, action } => write!(
                f,
                "table `{table}` default action `{action}` is not in its action list"
            ),
            ZeroWidthField { header_type, field } => {
                write!(f, "header type `{header_type}` field `{field}` has width 0")
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// Validate a program, returning all errors found (empty = valid).
pub fn validate(p: &Program) -> Vec<ValidateError> {
    let mut errs = Vec::new();
    check_unique_names(p, &mut errs);
    check_header_types(p, &mut errs);
    check_instances(p, &mut errs);
    check_malleables(p, &mut errs);
    check_actions(p, &mut errs);
    check_tables(p, &mut errs);
    check_controls(p, &mut errs);
    check_parser(p, &mut errs);
    check_field_lists(p, &mut errs);
    check_reactions(p, &mut errs);
    errs
}

fn check_unique_names(p: &Program, errs: &mut Vec<ValidateError>) {
    fn dups<'a>(
        kind: &'static str,
        names: impl Iterator<Item = &'a str>,
        errs: &mut Vec<ValidateError>,
    ) {
        let mut seen = HashSet::new();
        for n in names {
            if !seen.insert(n) {
                errs.push(ValidateError::DuplicateName {
                    kind,
                    name: n.to_string(),
                });
            }
        }
    }
    dups(
        "header_type",
        p.header_types.iter().map(|h| h.name.as_str()),
        errs,
    );
    dups(
        "instance",
        p.instances.iter().map(|i| i.name.as_str()),
        errs,
    );
    dups("action", p.actions.iter().map(|a| a.name.as_str()), errs);
    dups("table", p.tables.iter().map(|t| t.name.as_str()), errs);
    dups(
        "register",
        p.registers.iter().map(|r| r.name.as_str()),
        errs,
    );
    dups(
        "malleable",
        p.mbl_values
            .iter()
            .map(|m| m.name.as_str())
            .chain(p.mbl_fields.iter().map(|m| m.name.as_str())),
        errs,
    );
    dups(
        "reaction",
        p.reactions.iter().map(|r| r.name.as_str()),
        errs,
    );
}

fn check_header_types(p: &Program, errs: &mut Vec<ValidateError>) {
    for ht in &p.header_types {
        for (fname, w) in &ht.fields {
            if *w == 0 {
                errs.push(ValidateError::ZeroWidthField {
                    header_type: ht.name.clone(),
                    field: fname.clone(),
                });
            }
        }
    }
}

fn check_instances(p: &Program, errs: &mut Vec<ValidateError>) {
    for inst in &p.instances {
        if p.header_type(&inst.header_type).is_none() {
            errs.push(ValidateError::UnknownHeaderType {
                instance: inst.name.clone(),
                header_type: inst.header_type.clone(),
            });
        }
    }
}

fn check_field_ref(p: &Program, fr: &FieldRef, context: &str, errs: &mut Vec<ValidateError>) {
    match p.instance(&fr.instance) {
        None => errs.push(ValidateError::UnknownInstance {
            referenced: fr.instance.clone(),
            context: context.to_string(),
        }),
        Some(inst) => {
            let known = p
                .header_type(&inst.header_type)
                .map(|ht| ht.field_width(&fr.field).is_some())
                .unwrap_or(true); // header-type error already reported
            if !known {
                errs.push(ValidateError::UnknownField {
                    field: fr.clone(),
                    context: context.to_string(),
                });
            }
        }
    }
}

fn mbl_exists(p: &Program, name: &str) -> bool {
    p.mbl_value(name).is_some() || p.mbl_field(name).is_some()
}

fn check_target(
    p: &Program,
    t: &FieldOrMbl,
    context: &str,
    is_destination: bool,
    errs: &mut Vec<ValidateError>,
) {
    match t {
        FieldOrMbl::Field(fr) => check_field_ref(p, fr, context, errs),
        FieldOrMbl::Mbl(name) => {
            if !mbl_exists(p, name) {
                errs.push(ValidateError::UnknownMalleable {
                    name: name.clone(),
                    context: context.to_string(),
                });
            } else if is_destination && p.mbl_value(name).is_some() {
                errs.push(ValidateError::MblValueAsDestination {
                    name: name.clone(),
                    context: context.to_string(),
                });
            }
        }
    }
}

fn check_operand(
    p: &Program,
    o: &Operand,
    params: &[String],
    context: &str,
    errs: &mut Vec<ValidateError>,
) {
    match o {
        Operand::Const(_) => {}
        Operand::Field(fr) => check_field_ref(p, fr, context, errs),
        Operand::Mbl(name) => {
            if !mbl_exists(p, name) {
                errs.push(ValidateError::UnknownMalleable {
                    name: name.clone(),
                    context: context.to_string(),
                });
            }
        }
        Operand::Param(name) => {
            if !params.iter().any(|q| q == name) {
                // Treat an unknown parameter as an unknown instance reference
                // (the parser produces Param only for declared params, but
                // hand-built ASTs may get this wrong).
                errs.push(ValidateError::UnknownInstance {
                    referenced: name.clone(),
                    context: context.to_string(),
                });
            }
        }
    }
}

fn check_malleables(p: &Program, errs: &mut Vec<ValidateError>) {
    for mf in &p.mbl_fields {
        if mf.alts.is_empty() {
            errs.push(ValidateError::EmptyAlts {
                name: mf.name.clone(),
            });
            continue;
        }
        if mf.init_index().is_none() {
            errs.push(ValidateError::MblFieldInitNotInAlts {
                name: mf.name.clone(),
            });
        }
        for alt in &mf.alts {
            let ctx = format!("malleable field `{}` alts", mf.name);
            check_field_ref(p, alt, &ctx, errs);
            if let Some(w) = p.field_width(alt) {
                if w != mf.width {
                    errs.push(ValidateError::MblFieldAltWidthMismatch {
                        name: mf.name.clone(),
                        alt: alt.clone(),
                        expect: mf.width,
                        got: w,
                    });
                }
            }
        }
    }
}

fn check_actions(p: &Program, errs: &mut Vec<ValidateError>) {
    for a in &p.actions {
        let ctx = format!("action `{}`", a.name);
        for call in &a.body {
            use PrimitiveCall::*;
            match call {
                ModifyField { dst, src } => {
                    check_target(p, dst, &ctx, true, errs);
                    check_operand(p, src, &a.params, &ctx, errs);
                }
                Add { dst, a: x, b }
                | Subtract { dst, a: x, b }
                | BitAnd { dst, a: x, b }
                | BitOr { dst, a: x, b }
                | BitXor { dst, a: x, b } => {
                    check_target(p, dst, &ctx, true, errs);
                    check_operand(p, x, &a.params, &ctx, errs);
                    check_operand(p, b, &a.params, &ctx, errs);
                }
                ShiftLeft { dst, a: x, amount } | ShiftRight { dst, a: x, amount } => {
                    check_target(p, dst, &ctx, true, errs);
                    check_operand(p, x, &a.params, &ctx, errs);
                    check_operand(p, amount, &a.params, &ctx, errs);
                }
                AddToField { dst, v } | SubtractFromField { dst, v } => {
                    check_target(p, dst, &ctx, true, errs);
                    check_operand(p, v, &a.params, &ctx, errs);
                }
                Drop | NoOp => {}
                RegisterWrite {
                    register,
                    index,
                    value,
                } => {
                    if p.register(register).is_none() {
                        errs.push(ValidateError::UnknownRegister {
                            name: register.clone(),
                            context: ctx.clone(),
                        });
                    }
                    check_operand(p, index, &a.params, &ctx, errs);
                    check_operand(p, value, &a.params, &ctx, errs);
                }
                RegisterRead {
                    dst,
                    register,
                    index,
                } => {
                    check_target(p, dst, &ctx, true, errs);
                    if p.register(register).is_none() {
                        errs.push(ValidateError::UnknownRegister {
                            name: register.clone(),
                            context: ctx.clone(),
                        });
                    }
                    check_operand(p, index, &a.params, &ctx, errs);
                }
                Count { counter, index } => {
                    if p.register(counter).is_none() {
                        errs.push(ValidateError::UnknownRegister {
                            name: counter.clone(),
                            context: ctx.clone(),
                        });
                    }
                    check_operand(p, index, &a.params, &ctx, errs);
                }
                ModifyFieldWithHash {
                    dst,
                    base,
                    calculation,
                    size,
                } => {
                    check_target(p, dst, &ctx, true, errs);
                    check_operand(p, base, &a.params, &ctx, errs);
                    check_operand(p, size, &a.params, &ctx, errs);
                    if p.calculation(calculation).is_none() {
                        errs.push(ValidateError::UnknownCalculation {
                            name: calculation.clone(),
                            context: ctx.clone(),
                        });
                    }
                }
            }
        }
    }
}

fn check_tables(p: &Program, errs: &mut Vec<ValidateError>) {
    for t in &p.tables {
        let ctx = format!("table `{}` reads", t.name);
        for r in &t.reads {
            check_target(p, &r.target, &ctx, false, errs);
        }
        for a in &t.actions {
            if p.action(a).is_none() {
                errs.push(ValidateError::UnknownAction {
                    table: t.name.clone(),
                    action: a.clone(),
                });
            }
        }
        if let Some((da, _)) = &t.default_action {
            if !t.actions.iter().any(|a| a == da) {
                errs.push(ValidateError::BadDefaultAction {
                    table: t.name.clone(),
                    action: da.clone(),
                });
            }
        }
    }
}

fn check_control_stmts(
    p: &Program,
    stmts: &[ControlStmt],
    which: &str,
    errs: &mut Vec<ValidateError>,
) {
    for s in stmts {
        match s {
            ControlStmt::Apply(t) => {
                if p.table(t).is_none() {
                    errs.push(ValidateError::UnknownTable {
                        name: t.clone(),
                        context: format!("control {which}"),
                    });
                }
            }
            ControlStmt::If { cond, then_, else_ } => {
                check_bool_expr(p, cond, which, errs);
                check_control_stmts(p, then_, which, errs);
                check_control_stmts(p, else_, which, errs);
            }
        }
    }
}

fn check_bool_expr(p: &Program, e: &BoolExpr, which: &str, errs: &mut Vec<ValidateError>) {
    match e {
        BoolExpr::Valid(inst) => {
            if p.instance(inst).is_none() {
                errs.push(ValidateError::UnknownInstance {
                    referenced: inst.clone(),
                    context: format!("control {which} valid()"),
                });
            }
        }
        BoolExpr::Cmp { lhs, rhs, .. } => {
            let ctx = format!("control {which} condition");
            check_operand(p, lhs, &[], &ctx, errs);
            check_operand(p, rhs, &[], &ctx, errs);
        }
        BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
            check_bool_expr(p, a, which, errs);
            check_bool_expr(p, b, which, errs);
        }
        BoolExpr::Not(a) => check_bool_expr(p, a, which, errs),
    }
}

fn check_controls(p: &Program, errs: &mut Vec<ValidateError>) {
    check_control_stmts(p, &p.ingress, "ingress", errs);
    check_control_stmts(p, &p.egress, "egress", errs);
}

fn check_parser(p: &Program, errs: &mut Vec<ValidateError>) {
    let state_names: HashSet<&str> = p.parser_states.iter().map(|s| s.name.as_str()).collect();
    for st in &p.parser_states {
        let ctx = format!("parser state `{}`", st.name);
        for e in &st.extracts {
            if p.instance(e).is_none() {
                errs.push(ValidateError::UnknownInstance {
                    referenced: e.clone(),
                    context: ctx.clone(),
                });
            }
        }
        let mut check_state = |n: &str| {
            if !state_names.contains(n) {
                errs.push(ValidateError::UnknownParserState {
                    name: n.to_string(),
                    context: ctx.clone(),
                });
            }
        };
        match &st.next {
            ParserNext::State(n) => check_state(n),
            ParserNext::Select {
                field,
                cases,
                default,
            } => {
                for (_, n) in cases {
                    check_state(n);
                }
                if let Some(d) = default {
                    check_state(d);
                }
                check_field_ref(p, field, &ctx, errs);
            }
            ParserNext::Ingress => {}
        }
    }
}

fn check_field_lists(p: &Program, errs: &mut Vec<ValidateError>) {
    for fl in &p.field_lists {
        let ctx = format!("field_list `{}`", fl.name);
        for e in &fl.entries {
            check_target(p, e, &ctx, false, errs);
        }
    }
    for c in &p.calculations {
        if p.field_list(&c.input).is_none() {
            errs.push(ValidateError::UnknownFieldList {
                name: c.input.clone(),
                context: format!("field_list_calculation `{}`", c.name),
            });
        }
    }
}

fn check_reactions(p: &Program, errs: &mut Vec<ValidateError>) {
    for r in &p.reactions {
        let ctx = format!("reaction `{}`", r.name);
        for arg in &r.args {
            match arg {
                ReactionArg::Field { target, .. } => check_target(p, target, &ctx, false, errs),
                ReactionArg::Header { instance, .. } => {
                    if p.instance(instance).is_none() {
                        errs.push(ValidateError::UnknownInstance {
                            referenced: instance.clone(),
                            context: ctx.clone(),
                        });
                    }
                }
                ReactionArg::Register {
                    register,
                    lo: _,
                    hi,
                } => match p.register(register) {
                    None => errs.push(ValidateError::UnknownRegister {
                        name: register.clone(),
                        context: ctx.clone(),
                    }),
                    Some(decl) => {
                        if *hi >= decl.instance_count {
                            errs.push(ValidateError::RegisterRangeOutOfBounds {
                                register: register.clone(),
                                hi: *hi,
                                count: decl.instance_count,
                            });
                        }
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn base() -> Program {
        Program {
            header_types: vec![HeaderTypeDecl {
                name: "h_t".into(),
                fields: vec![("a".into(), 8), ("b".into(), 8)],
            }],
            instances: vec![InstanceDecl {
                header_type: "h_t".into(),
                name: "h".into(),
                is_metadata: false,
                initializers: vec![],
            }],
            ..Default::default()
        }
    }

    #[test]
    fn empty_program_is_valid() {
        assert!(validate(&Program::default()).is_empty());
    }

    #[test]
    fn base_program_is_valid() {
        assert!(validate(&base()).is_empty());
    }

    #[test]
    fn duplicate_table_names_detected() {
        let mut p = base();
        for _ in 0..2 {
            p.tables.push(TableDecl {
                name: "t".into(),
                reads: vec![],
                actions: vec![],
                default_action: None,
                size: None,
                malleable: false,
            });
        }
        assert!(validate(&p)
            .iter()
            .any(|e| matches!(e, ValidateError::DuplicateName { kind: "table", .. })));
    }

    #[test]
    fn unknown_action_in_table() {
        let mut p = base();
        p.tables.push(TableDecl {
            name: "t".into(),
            reads: vec![],
            actions: vec!["missing".into()],
            default_action: None,
            size: None,
            malleable: false,
        });
        assert!(validate(&p)
            .iter()
            .any(|e| matches!(e, ValidateError::UnknownAction { .. })));
    }

    #[test]
    fn mbl_value_write_rejected() {
        let mut p = base();
        p.mbl_values.push(MblValueDecl {
            name: "mv".into(),
            width: 16,
            init: Value::new(0, 16),
        });
        p.actions.push(ActionDecl {
            name: "a".into(),
            params: vec![],
            body: vec![PrimitiveCall::ModifyField {
                dst: FieldOrMbl::mbl("mv"),
                src: Operand::Const(Value::new(1, 16)),
            }],
        });
        assert!(validate(&p)
            .iter()
            .any(|e| matches!(e, ValidateError::MblValueAsDestination { .. })));
    }

    #[test]
    fn mbl_value_read_allowed() {
        let mut p = base();
        p.mbl_values.push(MblValueDecl {
            name: "mv".into(),
            width: 8,
            init: Value::new(0, 8),
        });
        p.actions.push(ActionDecl {
            name: "a".into(),
            params: vec![],
            body: vec![PrimitiveCall::Add {
                dst: FieldOrMbl::field("h", "a"),
                a: Operand::field("h", "b"),
                b: Operand::Mbl("mv".into()),
            }],
        });
        assert!(validate(&p).is_empty());
    }

    #[test]
    fn mbl_field_init_must_be_alt() {
        let mut p = base();
        p.mbl_fields.push(MblFieldDecl {
            name: "mf".into(),
            width: 8,
            init: FieldRef::new("h", "a"),
            alts: vec![FieldRef::new("h", "b")],
        });
        assert!(validate(&p)
            .iter()
            .any(|e| matches!(e, ValidateError::MblFieldInitNotInAlts { .. })));
    }

    #[test]
    fn mbl_field_alt_width_mismatch() {
        let mut p = base();
        p.mbl_fields.push(MblFieldDecl {
            name: "mf".into(),
            width: 16,
            init: FieldRef::new("h", "a"),
            alts: vec![FieldRef::new("h", "a")],
        });
        assert!(validate(&p)
            .iter()
            .any(|e| matches!(e, ValidateError::MblFieldAltWidthMismatch { .. })));
    }

    #[test]
    fn reaction_register_range_checked() {
        let mut p = base();
        p.registers.push(RegisterDecl {
            name: "r".into(),
            width: 32,
            instance_count: 4,
            pipeline: Pipeline::Ingress,
        });
        p.reactions.push(ReactionDecl {
            name: "rx".into(),
            args: vec![ReactionArg::Register {
                register: "r".into(),
                lo: 0,
                hi: 4,
            }],
            body_src: String::new(),
        });
        assert!(validate(&p)
            .iter()
            .any(|e| matches!(e, ValidateError::RegisterRangeOutOfBounds { .. })));
    }

    #[test]
    fn unknown_table_in_control() {
        let mut p = base();
        p.ingress.push(ControlStmt::Apply("ghost".into()));
        assert!(validate(&p)
            .iter()
            .any(|e| matches!(e, ValidateError::UnknownTable { .. })));
    }

    #[test]
    fn parser_state_refs_checked() {
        let mut p = base();
        p.parser_states.push(ParserStateDecl {
            name: "start".into(),
            extracts: vec!["h".into()],
            next: ParserNext::State("missing".into()),
        });
        assert!(validate(&p)
            .iter()
            .any(|e| matches!(e, ValidateError::UnknownParserState { .. })));
    }

    #[test]
    fn bad_default_action_detected() {
        let mut p = base();
        p.actions.push(ActionDecl {
            name: "a".into(),
            params: vec![],
            body: vec![PrimitiveCall::NoOp],
        });
        p.tables.push(TableDecl {
            name: "t".into(),
            reads: vec![],
            actions: vec![],
            default_action: Some(("a".into(), vec![])),
            size: None,
            malleable: false,
        });
        assert!(validate(&p)
            .iter()
            .any(|e| matches!(e, ValidateError::BadDefaultAction { .. })));
    }
}
