//! The P4-14 subset AST, extended with the P4R (Mantis) primitives:
//! malleable values, malleable fields, malleable tables, and reactions.
//!
//! The grammar follows Figure 3 of the paper: P4R reuses P4-14 v1.0.5 syntax
//! and adds `malleable` declarations plus `reaction` blocks whose bodies are
//! C-like code (kept as raw source here; parsed separately by `p4r-lang`).

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A reference to a concrete header/metadata field, e.g. `ipv4.src_addr`.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize, PartialOrd, Ord)]
pub struct FieldRef {
    /// Header or metadata instance name.
    pub instance: String,
    /// Field name within the instance's header type.
    pub field: String,
}

impl FieldRef {
    pub fn new(instance: impl Into<String>, field: impl Into<String>) -> Self {
        FieldRef {
            instance: instance.into(),
            field: field.into(),
        }
    }
}

impl fmt::Display for FieldRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.instance, self.field)
    }
}

impl fmt::Debug for FieldRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// Either a concrete field reference or a malleable reference `${name}`.
///
/// Before compilation (in P4R source) malleable references may appear almost
/// anywhere a field can; the compiler removes all `Mbl` variants when
/// lowering to plain P4.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FieldOrMbl {
    Field(FieldRef),
    /// `${name}` — reference to a malleable field or value.
    Mbl(String),
}

impl FieldOrMbl {
    pub fn field(instance: impl Into<String>, field: impl Into<String>) -> Self {
        FieldOrMbl::Field(FieldRef::new(instance, field))
    }

    pub fn mbl(name: impl Into<String>) -> Self {
        FieldOrMbl::Mbl(name.into())
    }

    pub fn as_field(&self) -> Option<&FieldRef> {
        match self {
            FieldOrMbl::Field(f) => Some(f),
            FieldOrMbl::Mbl(_) => None,
        }
    }
}

impl fmt::Display for FieldOrMbl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldOrMbl::Field(fr) => write!(f, "{fr}"),
            FieldOrMbl::Mbl(n) => write!(f, "${{{n}}}"),
        }
    }
}

impl fmt::Debug for FieldOrMbl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// An operand of a primitive action call.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// Literal constant.
    Const(Value),
    /// Concrete field reference.
    Field(FieldRef),
    /// Malleable reference `${name}` (P4R only; removed by the compiler).
    Mbl(String),
    /// Reference to an action parameter (run-time action data).
    Param(String),
}

impl Operand {
    pub fn field(instance: impl Into<String>, field: impl Into<String>) -> Self {
        Operand::Field(FieldRef::new(instance, field))
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Const(v) => write!(f, "{v}"),
            Operand::Field(fr) => write!(f, "{fr}"),
            Operand::Mbl(n) => write!(f, "${{{n}}}"),
            Operand::Param(p) => write!(f, "{p}"),
        }
    }
}

impl fmt::Debug for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A header type declaration: `header_type h_t { fields { a : 8; ... } }`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeaderTypeDecl {
    pub name: String,
    /// Field name and width in bits, in declaration order.
    pub fields: Vec<(String, u16)>,
}

impl HeaderTypeDecl {
    /// Total width of the header type in bits.
    pub fn total_bits(&self) -> u32 {
        self.fields.iter().map(|(_, w)| u32::from(*w)).sum()
    }

    pub fn field_width(&self, field: &str) -> Option<u16> {
        self.fields
            .iter()
            .find(|(n, _)| n == field)
            .map(|(_, w)| *w)
    }
}

/// A header or metadata instance.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceDecl {
    pub header_type: String,
    pub name: String,
    /// `metadata` instances always exist; `header` instances must be parsed
    /// or added before use.
    pub is_metadata: bool,
    /// Metadata initializers: `metadata t m { f : 1 }`.
    pub initializers: Vec<(String, Value)>,
}

/// Match kind for a table read.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatchKind {
    Exact,
    Ternary,
    Lpm,
}

impl fmt::Display for MatchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchKind::Exact => write!(f, "exact"),
            MatchKind::Ternary => write!(f, "ternary"),
            MatchKind::Lpm => write!(f, "lpm"),
        }
    }
}

/// One entry in a table's `reads { ... }` block.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableRead {
    pub target: FieldOrMbl,
    pub kind: MatchKind,
    /// Optional static mask (`field mask 0xff : ternary`).
    pub mask: Option<Value>,
}

/// A match-action table declaration.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableDecl {
    pub name: String,
    pub reads: Vec<TableRead>,
    pub actions: Vec<String>,
    pub default_action: Option<(String, Vec<Value>)>,
    pub size: Option<u32>,
    /// True if declared `malleable table` in P4R.
    pub malleable: bool,
}

/// Primitive action calls supported by the simulated RMT target.
///
/// This is the subset of P4-14 primitives the paper's examples use, plus
/// hashing (for the ECMP use case) and register access (for measurement).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrimitiveCall {
    /// `modify_field(dst, src)`
    ModifyField { dst: FieldOrMbl, src: Operand },
    /// `add(dst, a, b)`
    Add {
        dst: FieldOrMbl,
        a: Operand,
        b: Operand,
    },
    /// `add_to_field(dst, v)`
    AddToField { dst: FieldOrMbl, v: Operand },
    /// `subtract(dst, a, b)`
    Subtract {
        dst: FieldOrMbl,
        a: Operand,
        b: Operand,
    },
    /// `subtract_from_field(dst, v)`
    SubtractFromField { dst: FieldOrMbl, v: Operand },
    /// `bit_and(dst, a, b)`
    BitAnd {
        dst: FieldOrMbl,
        a: Operand,
        b: Operand,
    },
    /// `bit_or(dst, a, b)`
    BitOr {
        dst: FieldOrMbl,
        a: Operand,
        b: Operand,
    },
    /// `bit_xor(dst, a, b)`
    BitXor {
        dst: FieldOrMbl,
        a: Operand,
        b: Operand,
    },
    /// `shift_left(dst, a, amount)`
    ShiftLeft {
        dst: FieldOrMbl,
        a: Operand,
        amount: Operand,
    },
    /// `shift_right(dst, a, amount)`
    ShiftRight {
        dst: FieldOrMbl,
        a: Operand,
        amount: Operand,
    },
    /// `drop()`
    Drop,
    /// `no_op()`
    NoOp,
    /// `register_write(reg, index, value)`
    RegisterWrite {
        register: String,
        index: Operand,
        value: Operand,
    },
    /// `register_read(dst, reg, index)`
    RegisterRead {
        dst: FieldOrMbl,
        register: String,
        index: Operand,
    },
    /// `count(counter, index)` — modelled as a register increment.
    Count { counter: String, index: Operand },
    /// `modify_field_with_hash_based_offset(dst, base, calc, size)`
    ModifyFieldWithHash {
        dst: FieldOrMbl,
        base: Operand,
        calculation: String,
        size: Operand,
    },
}

/// An action declaration (compound action in P4-14 terms).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionDecl {
    pub name: String,
    /// Run-time parameters (action data supplied by table entries).
    pub params: Vec<String>,
    pub body: Vec<PrimitiveCall>,
}

/// A stateful register declaration.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisterDecl {
    pub name: String,
    pub width: u16,
    pub instance_count: u32,
    /// Pipeline the register lives in. Registers generated by the Mantis
    /// compiler for ingress/egress measurement carry this explicitly.
    pub pipeline: Pipeline,
}

/// Which pipeline an object belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pipeline {
    Ingress,
    Egress,
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pipeline::Ingress => write!(f, "ingress"),
            Pipeline::Egress => write!(f, "egress"),
        }
    }
}

/// A `field_list` declaration (used as hash inputs).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldListDecl {
    pub name: String,
    pub entries: Vec<FieldOrMbl>,
}

/// Hash algorithms supported by `field_list_calculation`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HashAlgorithm {
    Crc16,
    Crc32,
    Identity,
    /// A xorshift-based mix, used to model alternative hash strategies.
    XorMix,
}

/// A `field_list_calculation` declaration.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldListCalcDecl {
    pub name: String,
    pub input: String,
    pub algorithm: HashAlgorithm,
    pub output_width: u16,
}

/// Condition in a control-flow `if`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BoolExpr {
    /// `valid(header)`
    Valid(String),
    /// Comparison between two operands.
    Cmp {
        lhs: Operand,
        op: CmpOp,
        rhs: Operand,
    },
    And(Box<BoolExpr>, Box<BoolExpr>),
    Or(Box<BoolExpr>, Box<BoolExpr>),
    Not(Box<BoolExpr>),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// A statement in a control block (`control ingress { ... }`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ControlStmt {
    /// `apply(table);`
    Apply(String),
    /// `if (cond) { ... } else { ... }`
    If {
        cond: BoolExpr,
        then_: Vec<ControlStmt>,
        else_: Vec<ControlStmt>,
    },
}

/// A parser state: `parser name { extract(h); return select(...)/state; }`.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParserStateDecl {
    pub name: String,
    pub extracts: Vec<String>,
    pub next: ParserNext,
}

/// Parser transfer.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParserNext {
    /// `return state;`
    State(String),
    /// `return select(field) { value : state; default : state; }`
    Select {
        field: FieldRef,
        cases: Vec<(Value, String)>,
        default: Option<String>,
    },
    /// `return ingress;`
    Ingress,
}

// ---------------------------------------------------------------------------
// P4R extensions (Figure 3 of the paper)
// ---------------------------------------------------------------------------

/// `malleable value name { width : W; init : V; }`
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MblValueDecl {
    pub name: String,
    pub width: u16,
    pub init: Value,
}

/// `malleable field name { width : W; init : ref; alts { ref, ... } }`
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MblFieldDecl {
    pub name: String,
    pub width: u16,
    pub init: FieldRef,
    pub alts: Vec<FieldRef>,
}

impl MblFieldDecl {
    /// Number of selector bits needed: ceil(log2(|alts|)).
    pub fn selector_bits(&self) -> u16 {
        let n = self.alts.len().max(1);
        let mut bits = 0u16;
        while (1usize << bits) < n {
            bits += 1;
        }
        bits.max(1)
    }

    /// Index of the initial alternative in `alts`.
    pub fn init_index(&self) -> Option<usize> {
        self.alts.iter().position(|a| *a == self.init)
    }
}

/// A reaction argument (Figure 3: `ing`/`egr` field args or `reg r[a:b]`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReactionArg {
    /// A header/metadata field (or malleable ref) sampled from every packet
    /// at the end of the named pipeline. An optional static mask is applied
    /// before the value is stored (Fig. 3's `field_or_masked_ref`).
    Field {
        pipeline: Pipeline,
        target: FieldOrMbl,
        mask: Option<Value>,
    },
    /// A slice of a user-defined register: `reg qdepths[1:10]`.
    Register { register: String, lo: u32, hi: u32 },
    /// A whole header (Fig. 3's `header_ref`): every field of the instance
    /// is measured, bound as `<instance>_<field>`.
    Header {
        pipeline: Pipeline,
        instance: String,
    },
}

impl ReactionArg {
    /// Source-level identifier the reaction body uses for this argument.
    pub fn binding_name(&self) -> String {
        match self {
            ReactionArg::Field { target, .. } => match target {
                FieldOrMbl::Field(fr) => format!("{}_{}", fr.instance, fr.field),
                FieldOrMbl::Mbl(n) => n.clone(),
            },
            ReactionArg::Register { register, .. } => register.clone(),
            ReactionArg::Header { instance, .. } => instance.clone(),
        }
    }
}

/// `reaction name(args...) { C-like body }`
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReactionDecl {
    pub name: String,
    pub args: Vec<ReactionArg>,
    /// Raw body source between the braces; parsed by `p4r-lang::creact`.
    pub body_src: String,
}

/// A complete P4R program (or, after compilation, a plain P4 program whose
/// malleable/reaction vectors are empty).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Program {
    pub header_types: Vec<HeaderTypeDecl>,
    pub instances: Vec<InstanceDecl>,
    pub parser_states: Vec<ParserStateDecl>,
    pub registers: Vec<RegisterDecl>,
    pub field_lists: Vec<FieldListDecl>,
    pub calculations: Vec<FieldListCalcDecl>,
    pub actions: Vec<ActionDecl>,
    pub tables: Vec<TableDecl>,
    pub ingress: Vec<ControlStmt>,
    pub egress: Vec<ControlStmt>,
    // P4R extensions:
    pub mbl_values: Vec<MblValueDecl>,
    pub mbl_fields: Vec<MblFieldDecl>,
    pub reactions: Vec<ReactionDecl>,
}

impl Program {
    pub fn header_type(&self, name: &str) -> Option<&HeaderTypeDecl> {
        self.header_types.iter().find(|h| h.name == name)
    }

    pub fn instance(&self, name: &str) -> Option<&InstanceDecl> {
        self.instances.iter().find(|i| i.name == name)
    }

    pub fn action(&self, name: &str) -> Option<&ActionDecl> {
        self.actions.iter().find(|a| a.name == name)
    }

    pub fn table(&self, name: &str) -> Option<&TableDecl> {
        self.tables.iter().find(|t| t.name == name)
    }

    pub fn table_mut(&mut self, name: &str) -> Option<&mut TableDecl> {
        self.tables.iter_mut().find(|t| t.name == name)
    }

    pub fn register(&self, name: &str) -> Option<&RegisterDecl> {
        self.registers.iter().find(|r| r.name == name)
    }

    pub fn mbl_value(&self, name: &str) -> Option<&MblValueDecl> {
        self.mbl_values.iter().find(|m| m.name == name)
    }

    pub fn mbl_field(&self, name: &str) -> Option<&MblFieldDecl> {
        self.mbl_fields.iter().find(|m| m.name == name)
    }

    pub fn field_list(&self, name: &str) -> Option<&FieldListDecl> {
        self.field_lists.iter().find(|f| f.name == name)
    }

    pub fn calculation(&self, name: &str) -> Option<&FieldListCalcDecl> {
        self.calculations.iter().find(|c| c.name == name)
    }

    /// Width of a concrete field reference, resolved through its instance.
    pub fn field_width(&self, fr: &FieldRef) -> Option<u16> {
        let inst = self.instance(&fr.instance)?;
        self.header_type(&inst.header_type)?.field_width(&fr.field)
    }

    /// Width of a `FieldOrMbl`, resolving malleables to their declared width.
    pub fn width_of(&self, target: &FieldOrMbl) -> Option<u16> {
        match target {
            FieldOrMbl::Field(fr) => self.field_width(fr),
            FieldOrMbl::Mbl(name) => self
                .mbl_value(name)
                .map(|v| v.width)
                .or_else(|| self.mbl_field(name).map(|f| f.width)),
        }
    }

    /// True if any P4R-only constructs remain (i.e. the program is not yet
    /// plain P4).
    pub fn has_p4r_constructs(&self) -> bool {
        !self.mbl_values.is_empty() || !self.mbl_fields.is_empty()
    }

    /// All tables applied (transitively) by the given control block.
    pub fn applied_tables(stmts: &[ControlStmt]) -> Vec<&str> {
        let mut out = Vec::new();
        fn walk<'a>(stmts: &'a [ControlStmt], out: &mut Vec<&'a str>) {
            for s in stmts {
                match s {
                    ControlStmt::Apply(t) => out.push(t.as_str()),
                    ControlStmt::If { then_, else_, .. } => {
                        walk(then_, out);
                        walk(else_, out);
                    }
                }
            }
        }
        walk(stmts, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program() -> Program {
        Program {
            header_types: vec![HeaderTypeDecl {
                name: "h_t".into(),
                fields: vec![("a".into(), 8), ("b".into(), 16)],
            }],
            instances: vec![InstanceDecl {
                header_type: "h_t".into(),
                name: "h".into(),
                is_metadata: false,
                initializers: vec![],
            }],
            mbl_values: vec![MblValueDecl {
                name: "vv".into(),
                width: 16,
                init: Value::new(1, 16),
            }],
            mbl_fields: vec![MblFieldDecl {
                name: "ff".into(),
                width: 8,
                init: FieldRef::new("h", "a"),
                alts: vec![FieldRef::new("h", "a"), FieldRef::new("h", "b")],
            }],
            ..Default::default()
        }
    }

    #[test]
    fn field_width_resolution() {
        let p = sample_program();
        assert_eq!(p.field_width(&FieldRef::new("h", "a")), Some(8));
        assert_eq!(p.field_width(&FieldRef::new("h", "b")), Some(16));
        assert_eq!(p.field_width(&FieldRef::new("h", "nope")), None);
        assert_eq!(p.field_width(&FieldRef::new("nope", "a")), None);
    }

    #[test]
    fn width_of_resolves_malleables() {
        let p = sample_program();
        assert_eq!(p.width_of(&FieldOrMbl::mbl("vv")), Some(16));
        assert_eq!(p.width_of(&FieldOrMbl::mbl("ff")), Some(8));
        assert_eq!(p.width_of(&FieldOrMbl::mbl("none")), None);
        assert_eq!(p.width_of(&FieldOrMbl::field("h", "a")), Some(8));
    }

    #[test]
    fn selector_bits_log2() {
        let mut f = MblFieldDecl {
            name: "f".into(),
            width: 32,
            init: FieldRef::new("h", "a"),
            alts: vec![FieldRef::new("h", "a")],
        };
        assert_eq!(f.selector_bits(), 1);
        f.alts.push(FieldRef::new("h", "b"));
        assert_eq!(f.selector_bits(), 1);
        f.alts.push(FieldRef::new("h", "c"));
        assert_eq!(f.selector_bits(), 2);
        for i in 0..5 {
            f.alts.push(FieldRef::new("h", format!("x{i}")));
        }
        assert_eq!(f.alts.len(), 8);
        assert_eq!(f.selector_bits(), 3);
        f.alts.push(FieldRef::new("h", "y"));
        assert_eq!(f.selector_bits(), 4);
    }

    #[test]
    fn header_total_bits() {
        let p = sample_program();
        assert_eq!(p.header_type("h_t").unwrap().total_bits(), 24);
    }

    #[test]
    fn applied_tables_walks_nested_ifs() {
        let stmts = vec![
            ControlStmt::Apply("t1".into()),
            ControlStmt::If {
                cond: BoolExpr::Valid("h".into()),
                then_: vec![ControlStmt::Apply("t2".into())],
                else_: vec![ControlStmt::If {
                    cond: BoolExpr::Valid("h".into()),
                    then_: vec![ControlStmt::Apply("t3".into())],
                    else_: vec![],
                }],
            },
        ];
        assert_eq!(Program::applied_tables(&stmts), vec!["t1", "t2", "t3"]);
    }

    #[test]
    fn display_forms() {
        assert_eq!(FieldOrMbl::mbl("x").to_string(), "${x}");
        assert_eq!(FieldOrMbl::field("h", "a").to_string(), "h.a");
        assert_eq!(Operand::Const(Value::new(300, 16)).to_string(), "0x12c");
        assert_eq!(CmpOp::Le.to_string(), "<=");
    }

    #[test]
    fn reaction_arg_binding_names() {
        let a = ReactionArg::Field {
            pipeline: Pipeline::Ingress,
            target: FieldOrMbl::field("ipv4", "src"),
            mask: None,
        };
        assert_eq!(a.binding_name(), "ipv4_src");
        let r = ReactionArg::Register {
            register: "qdepths".into(),
            lo: 1,
            hi: 10,
        };
        assert_eq!(r.binding_name(), "qdepths");
    }
}
