//! Loader: resolves a validated, *plain-P4* [`p4_ast::Program`] into an
//! executable [`DataPlaneSpec`] with numeric ids instead of names.
//!
//! The loader refuses programs that still contain P4R constructs — the
//! Mantis compiler must lower them first. Intrinsic metadata (`intr.*`) is
//! injected automatically so that programs can route packets.

use crate::clock::Nanos;
use p4_ast::{
    ActionDecl, BoolExpr, CmpOp, ControlStmt, FieldOrMbl, FieldRef, HashAlgorithm, MatchKind,
    Operand, ParserNext, Pipeline, PrimitiveCall, Program, Value,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::{Rc, Weak};

/// Identifier of a PHV field container.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FieldId(pub u32);

/// Identifier of a table.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

/// Identifier of an action.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActionId(pub u32);

/// Identifier of a register array.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegisterId(pub u32);

/// Identifier of a hash calculation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CalcId(pub u32);

/// Switch port number.
pub type PortId = u16;

macro_rules! impl_id_debug {
    ($($t:ident),*) => {$(
        impl fmt::Debug for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($t), "({})"), self.0)
            }
        }
    )*};
}
impl_id_debug!(FieldId, TableId, ActionId, RegisterId, CalcId);

pub use p4_ast::intrinsics::{INTR, INTR_FIELDS};

/// Information about one PHV field container.
#[derive(Clone, Debug)]
pub struct FieldInfo {
    pub instance: String,
    pub field: String,
    pub width: u16,
    pub is_metadata: bool,
    /// Initial value for metadata fields (headers start invalid).
    pub init: Value,
}

/// Information about one header/metadata instance.
#[derive(Clone, Debug)]
pub struct HeaderInfo {
    pub name: String,
    pub is_metadata: bool,
    /// Field ids in declaration order (used by the byte parser).
    pub fields: Vec<FieldId>,
}

/// A resolved operand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ROperand {
    Const(Value),
    Field(FieldId),
    /// Index into the action-data vector supplied by the matching entry.
    Param(usize),
}

/// A resolved primitive call.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RPrimitive {
    ModifyField {
        dst: FieldId,
        src: ROperand,
    },
    Add {
        dst: FieldId,
        a: ROperand,
        b: ROperand,
    },
    Subtract {
        dst: FieldId,
        a: ROperand,
        b: ROperand,
    },
    BitAnd {
        dst: FieldId,
        a: ROperand,
        b: ROperand,
    },
    BitOr {
        dst: FieldId,
        a: ROperand,
        b: ROperand,
    },
    BitXor {
        dst: FieldId,
        a: ROperand,
        b: ROperand,
    },
    ShiftLeft {
        dst: FieldId,
        a: ROperand,
        amount: ROperand,
    },
    ShiftRight {
        dst: FieldId,
        a: ROperand,
        amount: ROperand,
    },
    Drop,
    NoOp,
    RegisterWrite {
        register: RegisterId,
        index: ROperand,
        value: ROperand,
    },
    RegisterRead {
        dst: FieldId,
        register: RegisterId,
        index: ROperand,
    },
    Count {
        counter: RegisterId,
        index: ROperand,
    },
    Hash {
        dst: FieldId,
        base: ROperand,
        calc: CalcId,
        size: ROperand,
    },
}

/// A resolved action.
#[derive(Clone, Debug)]
pub struct RAction {
    pub name: String,
    /// Widths of the action-data parameters (inferred from first use; 64 if
    /// unused).
    pub param_widths: Vec<u16>,
    pub body: Vec<RPrimitive>,
}

/// One component of a table's match key.
#[derive(Clone, Debug)]
pub struct KeySpec {
    pub field: FieldId,
    pub kind: MatchKind,
    pub width: u16,
    /// Static mask from `mask` annotations (applied before matching).
    pub static_mask: Option<Value>,
}

/// A resolved table specification.
#[derive(Clone, Debug)]
pub struct TableSpec {
    pub name: String,
    pub key: Vec<KeySpec>,
    pub actions: Vec<ActionId>,
    pub default_action: Option<(ActionId, Vec<Value>)>,
    pub size: u32,
    pub malleable: bool,
    /// Stage this table was placed into (0-based, per pipeline).
    pub stage: u32,
    pub pipeline: Pipeline,
}

/// A resolved register specification.
#[derive(Clone, Debug)]
pub struct RegisterSpec {
    pub name: String,
    pub width: u16,
    pub count: u32,
    pub pipeline: Pipeline,
}

/// A resolved hash calculation.
#[derive(Clone, Debug)]
pub struct RCalc {
    pub name: String,
    pub inputs: Vec<FieldId>,
    pub algorithm: HashAlgorithm,
    pub output_width: u16,
}

/// Resolved boolean expression for control flow.
#[derive(Clone, Debug)]
pub enum RBool {
    Valid(usize), // header index
    Cmp {
        lhs: ROperand,
        op: CmpOp,
        rhs: ROperand,
    },
    And(Box<RBool>, Box<RBool>),
    Or(Box<RBool>, Box<RBool>),
    Not(Box<RBool>),
}

/// Resolved control statement.
#[derive(Clone, Debug)]
pub enum RStmt {
    Apply(TableId),
    If {
        cond: RBool,
        then_: Vec<RStmt>,
        else_: Vec<RStmt>,
    },
}

/// Resolved parser state.
#[derive(Clone, Debug)]
pub struct RParserState {
    pub name: String,
    /// Header indexes to extract, in order.
    pub extracts: Vec<usize>,
    pub next: RParserNext,
}

#[derive(Clone, Debug)]
pub enum RParserNext {
    State(usize),
    Select {
        field: FieldId,
        cases: Vec<(u128, usize)>,
        default: Option<usize>,
    },
    Ingress,
}

/// Errors produced while loading a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoadError {
    /// The program still contains malleables — run the Mantis compiler.
    P4rConstructsRemain,
    Validation(String),
    UnknownField(String),
    UnknownAction(String),
    UnknownRegister(String),
    UnknownCalc(String),
    UnknownHeader(String),
    /// An operand that must be a concrete field was something else.
    NotAField(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::P4rConstructsRemain => write!(
                f,
                "program still contains malleable declarations; run the Mantis compiler first"
            ),
            LoadError::Validation(e) => write!(f, "validation failed: {e}"),
            LoadError::UnknownField(s) => write!(f, "unknown field `{s}`"),
            LoadError::UnknownAction(s) => write!(f, "unknown action `{s}`"),
            LoadError::UnknownRegister(s) => write!(f, "unknown register `{s}`"),
            LoadError::UnknownCalc(s) => write!(f, "unknown calculation `{s}`"),
            LoadError::UnknownHeader(s) => write!(f, "unknown header `{s}`"),
            LoadError::NotAField(s) => write!(f, "expected a concrete field, found `{s}`"),
        }
    }
}

impl std::error::Error for LoadError {}

/// The fully resolved, executable data-plane specification.
#[derive(Clone, Debug, Default)]
pub struct DataPlaneSpec {
    pub fields: Vec<FieldInfo>,
    pub headers: Vec<HeaderInfo>,
    pub actions: Vec<RAction>,
    pub tables: Vec<TableSpec>,
    pub registers: Vec<RegisterSpec>,
    pub calcs: Vec<RCalc>,
    pub ingress: Vec<RStmt>,
    pub egress: Vec<RStmt>,
    pub parser_states: Vec<RParserState>,
    /// Index of the `start` parser state, if any.
    pub parser_start: Option<usize>,
    /// Number of ingress/egress stages after placement.
    pub ingress_stages: u32,
    pub egress_stages: u32,

    /// `(instance, field) → id`, sorted so lookups run on borrowed keys
    /// (no per-lookup String allocation on the packet hot path).
    field_index: Vec<(String, String, FieldId)>,
    /// Pre-resolved intrinsic ids; `None` only when the spec lacks the
    /// `intr` instance (never for `load`ed programs).
    intr: Option<IntrIds>,
    header_index: HashMap<String, usize>,
    /// Per-header wire bit widths (0 for metadata headers), precomputed
    /// so [`crate::Phv::frame_len`] avoids walking field lists per packet.
    wire_bits: Vec<u32>,
    /// The fresh-packet PHV, so pooled buffers reset by slice copy.
    image: PhvImage,
    table_index: HashMap<String, TableId>,
    action_index: HashMap<String, ActionId>,
    register_index: HashMap<String, RegisterId>,
}

/// The PHV of a fresh packet under one spec — what [`crate::Phv::new`]
/// produces — kept as flat slices, so taking a pooled PHV, resetting it
/// and rebasing a moved one at a wire hop are slice copies instead of
/// walks over [`FieldInfo`]s.
#[derive(Clone, Debug, Default)]
pub(crate) struct PhvImage {
    /// Every field's init bits.
    pub bits: Box<[u128]>,
    /// Every field's declared width: the container layout, fixed once per
    /// program and shared by every PHV laid out for it.
    pub widths: Rc<[u16]>,
    /// Header validity: metadata instances valid, wire headers not.
    pub valid: Box<[bool]>,
    /// Each header's `start..end` field-index run (an instance's fields
    /// are allocated consecutively by `load`).
    pub header_runs: Box<[(usize, usize)]>,
}

impl PhvImage {
    fn build(fields: &[FieldInfo], headers: &[HeaderInfo]) -> PhvImage {
        let run = |h: &HeaderInfo| {
            h.fields
                .first()
                .map_or((0, 0), |f| (f.0 as usize, f.0 as usize + h.fields.len()))
        };
        PhvImage {
            bits: fields.iter().map(|f| f.init.bits()).collect(),
            widths: layout(fields.iter().map(|f| f.width).collect()),
            valid: headers.iter().map(|h| h.is_metadata).collect(),
            header_runs: headers.iter().map(run).collect(),
        }
    }
}

/// The one `Rc` this thread holds for a width layout: every spec loaded
/// from one program points its PHVs at the same layout, so a PHV recycled
/// between two switches of that program keeps its pointer (the fast path
/// of [`crate::Phv::reset`]).
fn layout(widths: Vec<u16>) -> Rc<[u16]> {
    thread_local! {
        static LAYOUTS: RefCell<Vec<Weak<[u16]>>> = const { RefCell::new(Vec::new()) };
    }
    LAYOUTS.with_borrow_mut(|layouts| {
        layouts.retain(|l| l.strong_count() > 0);
        let mut known = layouts.iter().filter_map(Weak::upgrade);
        if let Some(l) = known.find(|l| **l == widths[..]) {
            return l;
        }
        let l: Rc<[u16]> = widths.into();
        layouts.push(Rc::downgrade(&l));
        l
    })
}

/// Per-pipeline latency model of the simulated ASIC.
#[derive(Clone, Copy, Debug)]
pub struct PipelineTiming {
    /// Latency contributed by each stage a packet traverses.
    pub per_stage: Nanos,
    /// Fixed parse/deparse/TM overhead.
    pub fixed: Nanos,
}

impl Default for PipelineTiming {
    fn default() -> Self {
        // A Tofino-class pipeline is a few hundred nanoseconds end to end.
        PipelineTiming {
            per_stage: 25,
            fixed: 150,
        }
    }
}

/// The intrinsic metadata fields every loaded spec carries, resolved to
/// [`FieldId`]s once at load time so per-packet paths never look names up.
#[derive(Clone, Copy, Debug)]
pub struct IntrIds {
    pub ingress_port: FieldId,
    pub egress_spec: FieldId,
    pub egress_port: FieldId,
    pub pkt_len: FieldId,
    pub ts_ns: FieldId,
    pub recirc_count: FieldId,
    pub deq_qdepth: FieldId,
}

impl IntrIds {
    fn resolve(spec: &DataPlaneSpec) -> Option<IntrIds> {
        Some(IntrIds {
            ingress_port: spec.field_id(INTR, "ingress_port")?,
            egress_spec: spec.field_id(INTR, "egress_spec")?,
            egress_port: spec.field_id(INTR, "egress_port")?,
            pkt_len: spec.field_id(INTR, "pkt_len")?,
            ts_ns: spec.field_id(INTR, "ts_ns")?,
            recirc_count: spec.field_id(INTR, "recirc_count")?,
            deq_qdepth: spec.field_id(INTR, "deq_qdepth")?,
        })
    }
}

impl DataPlaneSpec {
    pub fn field_id(&self, instance: &str, field: &str) -> Option<FieldId> {
        self.field_index
            .binary_search_by(|(i, f, _)| (i.as_str(), f.as_str()).cmp(&(instance, field)))
            .ok()
            .map(|pos| self.field_index[pos].2)
    }

    #[inline]
    pub fn intr_ids(&self) -> Option<IntrIds> {
        self.intr
    }

    pub fn field_id_of(&self, fr: &FieldRef) -> Option<FieldId> {
        self.field_id(&fr.instance, &fr.field)
    }

    pub fn table_id(&self, name: &str) -> Option<TableId> {
        self.table_index.get(name).copied()
    }

    pub fn action_id(&self, name: &str) -> Option<ActionId> {
        self.action_index.get(name).copied()
    }

    pub fn register_id(&self, name: &str) -> Option<RegisterId> {
        self.register_index.get(name).copied()
    }

    pub fn header_idx(&self, name: &str) -> Option<usize> {
        self.header_index.get(name).copied()
    }

    #[inline]
    pub fn field_width(&self, id: FieldId) -> u16 {
        self.fields[id.0 as usize].width
    }

    /// Wire bit width of each header (0 for metadata headers).
    #[inline]
    pub fn wire_bits(&self) -> &[u32] {
        &self.wire_bits
    }

    /// The fresh-packet PHV image.
    #[inline]
    pub(crate) fn image(&self) -> &PhvImage {
        &self.image
    }

    pub fn table(&self, id: TableId) -> &TableSpec {
        &self.tables[id.0 as usize]
    }

    pub fn register(&self, id: RegisterId) -> &RegisterSpec {
        &self.registers[id.0 as usize]
    }
}

/// Resolve a plain-P4 program into an executable spec.
///
/// The intrinsic metadata instance (`intr`) is injected automatically if the
/// program does not declare it.
pub fn load(prog: &Program) -> Result<DataPlaneSpec, LoadError> {
    if prog.has_p4r_constructs() {
        return Err(LoadError::P4rConstructsRemain);
    }
    let mut prog = prog.clone();
    p4_ast::intrinsics::inject(&mut prog);
    let prog = &prog;
    let errs = p4_ast::validate::validate(prog);
    if !errs.is_empty() {
        let msgs: Vec<String> = errs.iter().map(|e| e.to_string()).collect();
        return Err(LoadError::Validation(msgs.join("; ")));
    }

    let mut spec = DataPlaneSpec::default();

    // Instances (intrinsics first — `inject` prepends them).
    for inst in &prog.instances {
        let ht = prog
            .header_type(&inst.header_type)
            .ok_or_else(|| LoadError::UnknownHeader(inst.header_type.clone()))?;
        let mut ids = Vec::new();
        for (fname, width) in &ht.fields {
            let id = FieldId(spec.fields.len() as u32);
            let init = inst
                .initializers
                .iter()
                .find(|(n, _)| n == fname)
                .map(|(_, v)| v.resize(*width))
                .unwrap_or_else(|| Value::zero(*width));
            spec.fields.push(FieldInfo {
                instance: inst.name.clone(),
                field: fname.clone(),
                width: *width,
                is_metadata: inst.is_metadata,
                init,
            });
            spec.field_index
                .push((inst.name.clone(), fname.clone(), id));
            ids.push(id);
        }
        spec.header_index
            .insert(inst.name.clone(), spec.headers.len());
        spec.headers.push(HeaderInfo {
            name: inst.name.clone(),
            is_metadata: inst.is_metadata,
            fields: ids,
        });
    }
    // All names are registered; sort once so `field_id` can binary-search
    // with borrowed keys, then pin the intrinsic ids for the hot paths.
    spec.field_index
        .sort_by(|a, b| (a.0.as_str(), a.1.as_str()).cmp(&(b.0.as_str(), b.1.as_str())));
    spec.intr = IntrIds::resolve(&spec);
    spec.wire_bits = spec
        .headers
        .iter()
        .map(|h| {
            if h.is_metadata {
                0
            } else {
                h.fields
                    .iter()
                    .map(|f| u32::from(spec.fields[f.0 as usize].width))
                    .sum()
            }
        })
        .collect();
    spec.image = PhvImage::build(&spec.fields, &spec.headers);

    // Registers.
    for r in &prog.registers {
        let id = RegisterId(spec.registers.len() as u32);
        spec.register_index.insert(r.name.clone(), id);
        spec.registers.push(RegisterSpec {
            name: r.name.clone(),
            width: r.width,
            count: r.instance_count,
            pipeline: r.pipeline,
        });
    }

    // Calculations.
    for c in &prog.calculations {
        let fl = prog
            .field_list(&c.input)
            .ok_or_else(|| LoadError::UnknownCalc(c.input.clone()))?;
        let mut inputs = Vec::new();
        for e in &fl.entries {
            let fr = e
                .as_field()
                .ok_or_else(|| LoadError::NotAField(e.to_string()))?;
            inputs.push(
                spec.field_id_of(fr)
                    .ok_or_else(|| LoadError::UnknownField(fr.to_string()))?,
            );
        }
        spec.calcs.push(RCalc {
            name: c.name.clone(),
            inputs,
            algorithm: c.algorithm,
            output_width: c.output_width,
        });
    }

    // Actions.
    for a in &prog.actions {
        let id = ActionId(spec.actions.len() as u32);
        spec.action_index.insert(a.name.clone(), id);
        let ra = resolve_action(&spec, prog, a)?;
        spec.actions.push(ra);
    }

    // Tables (stage assignment happens per control block below).
    for t in &prog.tables {
        let id = TableId(spec.tables.len() as u32);
        spec.table_index.insert(t.name.clone(), id);
        let mut key = Vec::new();
        for r in &t.reads {
            let fr = r
                .target
                .as_field()
                .ok_or_else(|| LoadError::NotAField(r.target.to_string()))?;
            let fid = spec
                .field_id_of(fr)
                .ok_or_else(|| LoadError::UnknownField(fr.to_string()))?;
            let width = spec.field_width(fid);
            key.push(KeySpec {
                field: fid,
                kind: r.kind,
                width,
                static_mask: r.mask.map(|m| m.resize(width)),
            });
        }
        let mut actions = Vec::new();
        for an in &t.actions {
            actions.push(
                spec.action_id(an)
                    .ok_or_else(|| LoadError::UnknownAction(an.clone()))?,
            );
        }
        let default_action = match &t.default_action {
            None => None,
            Some((an, args)) => {
                let aid = spec
                    .action_id(an)
                    .ok_or_else(|| LoadError::UnknownAction(an.clone()))?;
                let widths = &spec.actions[aid.0 as usize].param_widths;
                let args = args
                    .iter()
                    .zip(widths.iter())
                    .map(|(v, w)| v.resize(*w))
                    .collect();
                Some((aid, args))
            }
        };
        spec.tables.push(TableSpec {
            name: t.name.clone(),
            key,
            actions,
            default_action,
            size: t.size.unwrap_or(1024),
            malleable: t.malleable,
            stage: 0,
            pipeline: Pipeline::Ingress, // fixed up below
        });
    }

    // Control blocks.
    spec.ingress = resolve_control(&spec, &prog.ingress)?;
    spec.egress = resolve_control(&spec, &prog.egress)?;

    // Stage assignment: sequential applies occupy consecutive stages; the
    // two arms of an `if` share stages.
    let ing = spec.ingress.clone();
    let eg = spec.egress.clone();
    spec.ingress_stages = assign_stages(&mut spec, &ing, 0, Pipeline::Ingress);
    spec.egress_stages = assign_stages(&mut spec, &eg, 0, Pipeline::Egress);

    // Parser states.
    let name_to_idx: HashMap<&str, usize> = prog
        .parser_states
        .iter()
        .enumerate()
        .map(|(i, s)| (s.name.as_str(), i))
        .collect();
    for st in &prog.parser_states {
        let extracts = st
            .extracts
            .iter()
            .map(|e| {
                spec.header_idx(e)
                    .ok_or_else(|| LoadError::UnknownHeader(e.clone()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let next = match &st.next {
            ParserNext::State(n) => RParserNext::State(name_to_idx[n.as_str()]),
            ParserNext::Ingress => RParserNext::Ingress,
            ParserNext::Select {
                field,
                cases,
                default,
            } => RParserNext::Select {
                field: spec
                    .field_id_of(field)
                    .ok_or_else(|| LoadError::UnknownField(field.to_string()))?,
                cases: cases
                    .iter()
                    .map(|(v, n)| (v.bits(), name_to_idx[n.as_str()]))
                    .collect(),
                default: default.as_ref().map(|n| name_to_idx[n.as_str()]),
            },
        };
        spec.parser_states.push(RParserState {
            name: st.name.clone(),
            extracts,
            next,
        });
    }
    spec.parser_start = spec.parser_states.iter().position(|s| s.name == "start");

    Ok(spec)
}

fn resolve_operand(
    spec: &DataPlaneSpec,
    params: &[String],
    op: &Operand,
) -> Result<ROperand, LoadError> {
    match op {
        Operand::Const(v) => Ok(ROperand::Const(*v)),
        Operand::Field(fr) => spec
            .field_id_of(fr)
            .map(ROperand::Field)
            .ok_or_else(|| LoadError::UnknownField(fr.to_string())),
        Operand::Param(p) => params
            .iter()
            .position(|q| q == p)
            .map(ROperand::Param)
            .ok_or_else(|| LoadError::UnknownField(p.clone())),
        Operand::Mbl(m) => Err(LoadError::NotAField(format!("${{{m}}}"))),
    }
}

fn resolve_dst(spec: &DataPlaneSpec, dst: &FieldOrMbl) -> Result<FieldId, LoadError> {
    let fr = dst
        .as_field()
        .ok_or_else(|| LoadError::NotAField(dst.to_string()))?;
    spec.field_id_of(fr)
        .ok_or_else(|| LoadError::UnknownField(fr.to_string()))
}

fn resolve_action(
    spec: &DataPlaneSpec,
    _prog: &Program,
    a: &ActionDecl,
) -> Result<RAction, LoadError> {
    let mut param_widths = vec![64u16; a.params.len()];
    let mut body = Vec::new();
    for call in &a.body {
        use PrimitiveCall as P;
        use RPrimitive as R;
        let r = match call {
            P::ModifyField { dst, src } => {
                let dst = resolve_dst(spec, dst)?;
                let src = resolve_operand(spec, &a.params, src)?;
                infer_param_width(&mut param_widths, &src, spec.field_width(dst));
                R::ModifyField { dst, src }
            }
            P::Add { dst, a: x, b } => {
                bin(spec, &a.params, &mut param_widths, dst, x, b, |d, a, b| {
                    R::Add { dst: d, a, b }
                })?
            }
            P::Subtract { dst, a: x, b } => {
                bin(spec, &a.params, &mut param_widths, dst, x, b, |d, a, b| {
                    R::Subtract { dst: d, a, b }
                })?
            }
            P::BitAnd { dst, a: x, b } => {
                bin(spec, &a.params, &mut param_widths, dst, x, b, |d, a, b| {
                    R::BitAnd { dst: d, a, b }
                })?
            }
            P::BitOr { dst, a: x, b } => {
                bin(spec, &a.params, &mut param_widths, dst, x, b, |d, a, b| {
                    R::BitOr { dst: d, a, b }
                })?
            }
            P::BitXor { dst, a: x, b } => {
                bin(spec, &a.params, &mut param_widths, dst, x, b, |d, a, b| {
                    R::BitXor { dst: d, a, b }
                })?
            }
            P::ShiftLeft { dst, a: x, amount } => bin(
                spec,
                &a.params,
                &mut param_widths,
                dst,
                x,
                amount,
                |d, a, b| R::ShiftLeft {
                    dst: d,
                    a,
                    amount: b,
                },
            )?,
            P::ShiftRight { dst, a: x, amount } => bin(
                spec,
                &a.params,
                &mut param_widths,
                dst,
                x,
                amount,
                |d, a, b| R::ShiftRight {
                    dst: d,
                    a,
                    amount: b,
                },
            )?,
            P::AddToField { dst, v } => {
                let d = resolve_dst(spec, dst)?;
                let v = resolve_operand(spec, &a.params, v)?;
                infer_param_width(&mut param_widths, &v, spec.field_width(d));
                R::Add {
                    dst: d,
                    a: ROperand::Field(d),
                    b: v,
                }
            }
            P::SubtractFromField { dst, v } => {
                let d = resolve_dst(spec, dst)?;
                let v = resolve_operand(spec, &a.params, v)?;
                infer_param_width(&mut param_widths, &v, spec.field_width(d));
                R::Subtract {
                    dst: d,
                    a: ROperand::Field(d),
                    b: v,
                }
            }
            P::Drop => R::Drop,
            P::NoOp => R::NoOp,
            P::RegisterWrite {
                register,
                index,
                value,
            } => {
                let rid = spec
                    .register_id(register)
                    .ok_or_else(|| LoadError::UnknownRegister(register.clone()))?;
                let index = resolve_operand(spec, &a.params, index)?;
                let value = resolve_operand(spec, &a.params, value)?;
                infer_param_width(&mut param_widths, &value, spec.register(rid).width);
                R::RegisterWrite {
                    register: rid,
                    index,
                    value,
                }
            }
            P::RegisterRead {
                dst,
                register,
                index,
            } => {
                let d = resolve_dst(spec, dst)?;
                let rid = spec
                    .register_id(register)
                    .ok_or_else(|| LoadError::UnknownRegister(register.clone()))?;
                let index = resolve_operand(spec, &a.params, index)?;
                R::RegisterRead {
                    dst: d,
                    register: rid,
                    index,
                }
            }
            P::Count { counter, index } => {
                let rid = spec
                    .register_id(counter)
                    .ok_or_else(|| LoadError::UnknownRegister(counter.clone()))?;
                let index = resolve_operand(spec, &a.params, index)?;
                R::Count {
                    counter: rid,
                    index,
                }
            }
            P::ModifyFieldWithHash {
                dst,
                base,
                calculation,
                size,
            } => {
                let d = resolve_dst(spec, dst)?;
                let base = resolve_operand(spec, &a.params, base)?;
                let size = resolve_operand(spec, &a.params, size)?;
                let calc = spec
                    .calcs
                    .iter()
                    .position(|c| &c.name == calculation)
                    .map(|i| CalcId(i as u32))
                    .ok_or_else(|| LoadError::UnknownCalc(calculation.clone()))?;
                R::Hash {
                    dst: d,
                    base,
                    calc,
                    size,
                }
            }
        };
        body.push(r);
    }
    Ok(RAction {
        name: a.name.clone(),
        param_widths,
        body,
    })
}

fn bin(
    spec: &DataPlaneSpec,
    params: &[String],
    widths: &mut [u16],
    dst: &FieldOrMbl,
    a: &Operand,
    b: &Operand,
    build: impl FnOnce(FieldId, ROperand, ROperand) -> RPrimitive,
) -> Result<RPrimitive, LoadError> {
    let d = resolve_dst(spec, dst)?;
    let ra = resolve_operand(spec, params, a)?;
    let rb = resolve_operand(spec, params, b)?;
    infer_param_width(widths, &ra, spec.field_width(d));
    infer_param_width(widths, &rb, spec.field_width(d));
    Ok(build(d, ra, rb))
}

fn infer_param_width(widths: &mut [u16], op: &ROperand, width: u16) {
    if let ROperand::Param(i) = op {
        widths[*i] = width;
    }
}

fn resolve_control(spec: &DataPlaneSpec, stmts: &[ControlStmt]) -> Result<Vec<RStmt>, LoadError> {
    let mut out = Vec::new();
    for s in stmts {
        match s {
            ControlStmt::Apply(t) => {
                out.push(RStmt::Apply(
                    spec.table_id(t)
                        .ok_or_else(|| LoadError::UnknownAction(t.clone()))?,
                ));
            }
            ControlStmt::If { cond, then_, else_ } => {
                out.push(RStmt::If {
                    cond: resolve_bool(spec, cond)?,
                    then_: resolve_control(spec, then_)?,
                    else_: resolve_control(spec, else_)?,
                });
            }
        }
    }
    Ok(out)
}

fn resolve_bool(spec: &DataPlaneSpec, e: &BoolExpr) -> Result<RBool, LoadError> {
    Ok(match e {
        BoolExpr::Valid(h) => RBool::Valid(
            spec.header_idx(h)
                .ok_or_else(|| LoadError::UnknownHeader(h.clone()))?,
        ),
        BoolExpr::Cmp { lhs, op, rhs } => RBool::Cmp {
            lhs: resolve_operand(spec, &[], lhs)?,
            op: *op,
            rhs: resolve_operand(spec, &[], rhs)?,
        },
        BoolExpr::And(a, b) => RBool::And(
            Box::new(resolve_bool(spec, a)?),
            Box::new(resolve_bool(spec, b)?),
        ),
        BoolExpr::Or(a, b) => RBool::Or(
            Box::new(resolve_bool(spec, a)?),
            Box::new(resolve_bool(spec, b)?),
        ),
        BoolExpr::Not(a) => RBool::Not(Box::new(resolve_bool(spec, a)?)),
    })
}

/// Assign stages: each `apply` in sequence takes the next stage; both arms
/// of an `if` start from the same stage and the sequel continues after the
/// deeper arm. Returns the number of stages used starting from `base`.
fn assign_stages(spec: &mut DataPlaneSpec, stmts: &[RStmt], base: u32, pipeline: Pipeline) -> u32 {
    let mut stage = base;
    for s in stmts {
        match s {
            RStmt::Apply(tid) => {
                let t = &mut spec.tables[tid.0 as usize];
                t.stage = stage;
                t.pipeline = pipeline;
                stage += 1;
            }
            RStmt::If { then_, else_, .. } => {
                let a = assign_stages(spec, then_, stage, pipeline);
                let b = assign_stages(spec, else_, stage, pipeline);
                stage = a.max(b);
            }
        }
    }
    stage
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4r_lang::parse_program;

    const PLAIN: &str = r#"
header_type eth_t { fields { dst : 48; src : 48; etype : 16; } }
header eth_t eth;
header_type meta_t { fields { idx : 16; } }
metadata meta_t meta;
register counts { width : 64; instance_count : 64; }
action fwd(port) { modify_field(intr.egress_spec, port); }
action bump() { count(counts, meta.idx); }
action nop() { no_op(); }
table l2 {
    reads { eth.dst : exact; }
    actions { fwd; nop; }
    default_action : nop();
    size : 128;
}
table stats { actions { bump; } default_action : bump(); }
control ingress {
    apply(l2);
    if (valid(eth)) {
        apply(stats);
    }
}
"#;

    #[test]
    fn loads_plain_program() {
        let prog = parse_program(PLAIN).unwrap();
        let spec = load(&prog).unwrap();
        assert!(spec.field_id("intr", "egress_spec").is_some());
        assert!(spec.field_id("eth", "dst").is_some());
        let l2 = spec.table_id("l2").unwrap();
        assert_eq!(spec.table(l2).key.len(), 1);
        assert_eq!(spec.table(l2).stage, 0);
        let stats = spec.table_id("stats").unwrap();
        assert_eq!(spec.table(stats).stage, 1);
        assert_eq!(spec.ingress_stages, 2);
        // fwd's param width was inferred from egress_spec (9 bits).
        let fwd = spec.action_id("fwd").unwrap();
        assert_eq!(spec.actions[fwd.0 as usize].param_widths, vec![9]);
    }

    #[test]
    fn rejects_remaining_malleables() {
        let prog = parse_program("malleable value v { width : 8; init : 0; }").unwrap();
        assert_eq!(load(&prog).unwrap_err(), LoadError::P4rConstructsRemain);
    }

    #[test]
    fn rejects_invalid_program() {
        let prog = parse_program("control ingress { apply(ghost); }").unwrap();
        assert!(matches!(load(&prog).unwrap_err(), LoadError::Validation(_)));
    }

    #[test]
    fn if_arms_share_stages() {
        let src = r#"
header_type h_t { fields { a : 8; } }
header h_t h;
action nop() { no_op(); }
table t1 { actions { nop; } }
table t2 { actions { nop; } }
table t3 { actions { nop; } }
control ingress {
    if (valid(h)) { apply(t1); } else { apply(t2); }
    apply(t3);
}
"#;
        let prog = parse_program(src).unwrap();
        let spec = load(&prog).unwrap();
        assert_eq!(spec.table(spec.table_id("t1").unwrap()).stage, 0);
        assert_eq!(spec.table(spec.table_id("t2").unwrap()).stage, 0);
        assert_eq!(spec.table(spec.table_id("t3").unwrap()).stage, 1);
        assert_eq!(spec.ingress_stages, 2);
    }

    #[test]
    fn metadata_initializers_become_field_inits() {
        let src = r#"
header_type m_t { fields { f : 8; } }
metadata m_t m { f : 7; }
"#;
        let prog = parse_program(src).unwrap();
        let spec = load(&prog).unwrap();
        let id = spec.field_id("m", "f").unwrap();
        assert_eq!(spec.fields[id.0 as usize].init, Value::new(7, 8));
    }

    #[test]
    fn parser_states_resolve() {
        let src = r#"
header_type eth_t { fields { dst : 48; src : 48; etype : 16; } }
header eth_t eth;
parser start {
    extract(eth);
    return ingress;
}
"#;
        let prog = parse_program(src).unwrap();
        let spec = load(&prog).unwrap();
        assert_eq!(spec.parser_start, Some(0));
        assert_eq!(spec.parser_states[0].extracts.len(), 1);
    }
}
