//! The Mantis agent: prologue + dialogue loop (§6) with per-pipeline
//! serializable isolation of measurements, malleable updates, and packet
//! processing (§5).
//!
//! One dialogue iteration follows the paper's control flow exactly:
//!
//! ```text
//! updateTable(memo, "p4r_init_", {measure_ver : mv ^ 1});
//! read_measurements(memo, mv); mv ^= 1;
//! run_user_reaction(memo, helper_state, vv ^ 1);   // stages updates
//! updateTable(memo, "p4r_init_", {config_ver : vv ^ 1});   // commit
//! fill_shadow_tables(memo, vv); vv ^= 1;           // mirror
//! ```
//!
//! The loop is fault-tolerant (DESIGN.md §8):
//!
//! * every driver op in the measure and apply paths is retried with
//!   bounded exponential backoff on the virtual clock while the error is
//!   transient;
//! * the malleable-update phase is transactional — table shadows and
//!   agent bookkeeping are checkpointed before the first driver op, and a
//!   mid-apply failure rolls everything back (all-or-nothing);
//! * each reaction runs behind a circuit breaker: a failing reaction is
//!   contained (its partial staging discarded, the iteration continues)
//!   and quarantined after `threshold` consecutive failures, with a
//!   half-open probe after the cooldown.

use crate::costmodel::CostModel;
use crate::ctx::{bind_name, CtxError, Names, ReactionCtx, Slot};
use crate::driver::LocalDriver;
use crate::driver_api::{CheckpointToken, DriverApi, DriverOp, DriverResponse};
use crate::logical::{LogicalTable, LogicalUndo, Staged, StagedOp};
use crate::measure::{MeasurePlan, Snapshot};
use mantis_faults::{BreakerConfig, BreakerState, CircuitBreaker, FaultPlan, RetryPolicy};
use mantis_telemetry::{scopes, CounterId, HistId, NameId, Scope, Telemetry, TelemetryConfig};
use p4_ast::Value;
use p4r_compiler::entry::ExpandError;
use p4r_compiler::iface::ControlInterface;
use p4r_compiler::Compiled;
use p4r_lang::creact::Body;
use reaction_interp::{CompiledReaction, InterpError, Interpreter, ReactionSlots};
use rmt_sim::{Clock, DriverError, EntryHandle, KeyField, Nanos, PortId, SharedSwitch, TableId};
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// Which part of the agent's lifecycle an error surfaced in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AgentPhase {
    Prologue,
    UserInit,
    Measure,
    React,
    /// Prepare + commit of staged malleable updates.
    Update,
    /// Mirror of committed state onto the old primary copy.
    Sync,
}

impl AgentPhase {
    pub fn as_str(&self) -> &'static str {
        match self {
            AgentPhase::Prologue => "prologue",
            AgentPhase::UserInit => "user-init",
            AgentPhase::Measure => "measure",
            AgentPhase::React => "react",
            AgentPhase::Update => "update",
            AgentPhase::Sync => "sync",
        }
    }
}

impl fmt::Display for AgentPhase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What went wrong.
#[derive(Debug)]
pub enum AgentErrorKind {
    Driver(DriverError),
    Expand(ExpandError),
    Ctx(CtxError),
    Interp(InterpError),
    UnknownReaction(String),
    UnknownTable(String),
    MissingEntry {
        table: String,
        handle: u64,
    },
    NotCompiledWithReaction(String),
    /// The bytecode VM was explicitly requested ([`ReactionEngine::ForceVm`])
    /// but cannot compile this reaction body.
    VmUnsupported {
        reaction: String,
        reason: String,
    },
}

impl fmt::Display for AgentErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgentErrorKind::Driver(e) => write!(f, "driver: {e}"),
            AgentErrorKind::Expand(e) => write!(f, "entry expansion: {e}"),
            AgentErrorKind::Ctx(e) => write!(f, "reaction context: {e}"),
            AgentErrorKind::Interp(e) => write!(f, "reaction execution: {e}"),
            AgentErrorKind::UnknownReaction(n) => write!(f, "unknown reaction `{n}`"),
            AgentErrorKind::UnknownTable(n) => write!(f, "unknown table `{n}`"),
            AgentErrorKind::MissingEntry { table, handle } => {
                write!(f, "no logical entry {handle} in `{table}`")
            }
            AgentErrorKind::NotCompiledWithReaction(n) => {
                write!(f, "program has no reaction named `{n}`")
            }
            AgentErrorKind::VmUnsupported { reaction, reason } => {
                write!(
                    f,
                    "reaction `{reaction}` cannot run on the bytecode VM: {reason}"
                )
            }
        }
    }
}

/// Agent errors: the failure [`kind`](AgentErrorKind) plus where it
/// happened — the dialogue [`phase`](AgentPhase) and (inside the loop)
/// the 0-based iteration number, both carried into `Display`.
#[derive(Debug)]
pub struct AgentError {
    /// 0-based dialogue iteration the error surfaced in; `None` outside
    /// the loop (prologue, registration, user init).
    pub iteration: Option<u64>,
    pub phase: Option<AgentPhase>,
    pub kind: AgentErrorKind,
}

impl AgentError {
    /// Would retrying plausibly succeed? True exactly for transient
    /// injected driver faults; every other kind (logic errors, permanent
    /// faults) is not retryable.
    pub fn is_transient(&self) -> bool {
        matches!(&self.kind, AgentErrorKind::Driver(e) if e.is_transient())
    }

    /// Did the agent process die mid-operation (an injected crash)? A
    /// crash is neither retried nor rolled back: the process is gone, and
    /// whatever the op did or did not reach the device stays there until
    /// a successor [`reconcile`](MantisAgent::reconcile)s.
    pub fn is_crash(&self) -> bool {
        matches!(&self.kind, AgentErrorKind::Driver(e) if e.is_crash())
    }

    /// Annotate with a phase, keeping an earlier (more precise) one.
    fn in_phase(mut self, phase: AgentPhase) -> Self {
        if self.phase.is_none() {
            self.phase = Some(phase);
        }
        self
    }

    /// Annotate with the dialogue iteration, keeping an earlier one.
    fn at_iteration(mut self, iteration: u64) -> Self {
        if self.iteration.is_none() {
            self.iteration = Some(iteration);
        }
        self
    }

    pub(crate) fn missing_entry(table: &str, handle: u64) -> Self {
        AgentErrorKind::MissingEntry {
            table: table.to_string(),
            handle,
        }
        .into()
    }
}

impl fmt::Display for AgentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.iteration, self.phase) {
            (Some(i), Some(p)) => write!(f, "iteration {i}, {p} phase: {}", self.kind),
            (None, Some(p)) => write!(f, "{p} phase: {}", self.kind),
            _ => write!(f, "{}", self.kind),
        }
    }
}

impl std::error::Error for AgentError {}

impl From<AgentErrorKind> for AgentError {
    fn from(kind: AgentErrorKind) -> Self {
        AgentError {
            iteration: None,
            phase: None,
            kind,
        }
    }
}
impl From<DriverError> for AgentError {
    fn from(e: DriverError) -> Self {
        AgentErrorKind::Driver(e).into()
    }
}
impl From<ExpandError> for AgentError {
    fn from(e: ExpandError) -> Self {
        AgentErrorKind::Expand(e).into()
    }
}
impl From<CtxError> for AgentError {
    fn from(e: CtxError) -> Self {
        AgentErrorKind::Ctx(e).into()
    }
}
impl From<InterpError> for AgentError {
    fn from(e: InterpError) -> Self {
        AgentErrorKind::Interp(e).into()
    }
}

/// One contained reaction failure (the iteration itself kept going).
#[derive(Clone, Debug)]
pub struct ReactionFailure {
    pub name: String,
    /// Rendered error (the reaction's partial staging was discarded).
    pub error: String,
    /// Did this failure trip the reaction's circuit breaker open?
    pub quarantined: bool,
}

/// A native (Rust) reaction — the fast path the paper implements as
/// compiled C; used by the heavy use-case workloads.
pub trait NativeReaction {
    fn react(&mut self, ctx: &mut ReactionCtx<'_>) -> Result<(), CtxError>;
}

impl<F> NativeReaction for F
where
    F: FnMut(&mut ReactionCtx<'_>) -> Result<(), CtxError>,
{
    fn react(&mut self, ctx: &mut ReactionCtx<'_>) -> Result<(), CtxError> {
        self(ctx)
    }
}

enum ReactionImpl {
    /// Slot-resolved bytecode (the fast path for C-like bodies).
    Compiled(CompiledReaction),
    /// AST tree-walker — the reference semantics, kept as the fallback
    /// for bodies the bytecode compiler rejects.
    Interpreted(Interpreter),
    Native(Box<dyn NativeReaction>),
}

impl fmt::Debug for ReactionImpl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReactionImpl::Compiled(_) => write!(f, "Compiled"),
            ReactionImpl::Interpreted(_) => write!(f, "Interpreted"),
            ReactionImpl::Native(_) => write!(f, "Native"),
        }
    }
}

#[derive(Debug)]
struct RegisteredReaction {
    name: String,
    /// What the measure phase polls for it, lowered from its binding...
    plan: MeasurePlan,
    /// ...and where the polled arguments land, refilled in place.
    snapshot: Snapshot,
    imp: ReactionImpl,
    breaker: CircuitBreaker,
}

/// Which reaction (by index) staged which slice of the iteration's staged
/// ops — used to attribute a mid-apply driver failure back to its
/// reaction's circuit breaker.
#[derive(Clone, Debug)]
struct ReactionRange {
    reaction: usize,
    table_ops: Range<usize>,
    port_ops: Range<usize>,
}

/// Where inside the staged sequence an apply failure happened.
#[derive(Clone, Copy, Debug)]
enum Blame {
    /// Not attributable to a single staged op (master flip, init writes).
    None,
    TableOp(usize),
    PortOp(usize),
}

/// An apply-phase failure: the error plus breaker attribution.
struct ApplyFailure {
    err: AgentError,
    blame: Blame,
}

impl ApplyFailure {
    fn unblamed(err: AgentError) -> Self {
        ApplyFailure {
            err,
            blame: Blame::None,
        }
    }

    fn in_phase(mut self, phase: AgentPhase) -> Self {
        self.err = self.err.in_phase(phase);
        self
    }
}

/// What a transactional apply must be able to take back. On the device:
/// one checkpoint per touched table — a mark on the driver's undo journal
/// of that table, held only for the transaction — and the prior port
/// states. In the agent: the inverse of every bookkeeping change, recorded
/// as the apply makes it. Nothing is copied wholesale, and the buffers
/// are reused from one iteration to the next.
#[derive(Debug, Default)]
struct Txn {
    /// Device tables the staged update can touch, sorted, each once.
    touched: Vec<TableId>,
    /// The checkpoints open on them.
    tables: Vec<(TableId, CheckpointToken)>,
    ports: Vec<(PortId, bool)>,
    /// Config version at checkpoint time (equal in every pipe).
    vv: u8,
    /// Committed value of each slot a staged write is about to replace.
    slots: Vec<(usize, i128)>,
    logical: Vec<LogicalUndo>,
}

/// Extra (non-master) init table runtime state.
#[derive(Clone, Debug)]
struct ExtraInit {
    table_id: TableId,
    action: rmt_sim::ActionId,
    data: Vec<Value>,
    /// Entry handles for vv=0 and vv=1.
    handles: [EntryHandle; 2],
}

/// Per-iteration report. Timing fields are a convenience copy of what
/// the telemetry registry records (each is also a `agent.<phase>_ns`
/// histogram sample); the fault-tolerance fields mirror the
/// `agent.retries` / `agent.rollbacks` / `agent.quarantined` counters.
#[derive(Clone, Debug, Default)]
pub struct IterationReport {
    pub duration_ns: Nanos,
    pub measure_ns: Nanos,
    pub react_ns: Nanos,
    /// Prepare + commit of staged malleable updates.
    pub update_ns: Nanos,
    /// Mirror of committed state onto the old primary copy.
    pub sync_ns: Nanos,
    pub staged_table_ops: usize,
    /// Driver-op retries performed this iteration (all levels).
    pub retries: u32,
    /// Transactional rollbacks of the apply phase this iteration.
    pub rollbacks: u32,
    /// Reactions skipped because their breaker was open.
    pub quarantine_skips: usize,
    /// Reactions that failed this iteration (contained, not fatal). They
    /// go to the caller of the iteration; the copy of the report kept for
    /// [`AgentStats::last`] leaves this empty.
    pub reaction_failures: Vec<ReactionFailure>,
}

/// Cumulative agent statistics, materialized from the telemetry
/// registry (`agent.iterations` / `agent.busy_ns` counters) by
/// [`MantisAgent::stats`].
#[derive(Clone, Debug, Default)]
pub struct AgentStats {
    pub iterations: u64,
    pub busy_ns: Nanos,
    pub last: IterationReport,
}

/// Which execution engine an interpreted reaction should run on.
///
/// The fuzz harness forces each engine in turn to compare their observable
/// behavior; production callers use [`ReactionEngine::Auto`], which prefers
/// the bytecode VM and falls back to the tree-walker (recording a
/// `reaction.vm_fallback` telemetry counter so walker-only coverage is
/// never silent).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReactionEngine {
    /// Bytecode VM when compilable, tree-walker otherwise.
    #[default]
    Auto,
    /// Bytecode VM only; registration fails if the body is unsupported.
    ForceVm,
    /// Tree-walker only.
    ForceWalker,
}

/// The Mantis control-plane agent.
pub struct MantisAgent {
    pub iface: ControlInterface,
    driver: Box<dyn DriverApi>,
    clock: Clock,
    /// Per-pipe config version. All pipes hold equal values between
    /// iterations; during a commit they flip pipe-by-pipe, so a packet in
    /// pipe `i` never observes a half-applied update within its own pipe.
    vv: Vec<u8>,
    mv: u8,
    /// Current master init action data ([vv, mv, bin-0 slots...]).
    master_data: Vec<Value>,
    master_table: TableId,
    master_action: rmt_sim::ActionId,
    extra_inits: Vec<ExtraInit>,
    /// Malleable slots by slot id (values, then fields): the committed
    /// value and where its data cell lives.
    slots: Vec<Slot>,
    /// Logical tables by table id, each with its resolved driver plan.
    tables: Vec<LogicalTable>,
    /// Name → slot id / table id, for the public edge.
    names: Names,
    reactions: Vec<RegisteredReaction>,
    /// Pre-parsed reaction bodies and static slots from the compiler IR,
    /// keyed by reaction name. Registration consumes these instead of
    /// re-parsing `body_src`; the text round-trip survives only as a
    /// fallback for interfaces restored without their IR.
    ir_bodies: HashMap<String, (Body, ReactionSlots)>,
    /// (reaction, reason) pairs for every VM → walker fallback, mirrored
    /// by the `reaction.vm_fallback` counter.
    vm_fallbacks: Vec<(String, String)>,
    staged: Staged,
    reaction_ranges: Vec<ReactionRange>,
    txn: Txn,
    retry: RetryPolicy,
    breaker_cfg: BreakerConfig,
    iteration_count: u64,
    /// Set once any breaker ever trips; gates the degraded-mode gauges so
    /// fault-free runs record nothing extra (telemetry determinism).
    had_quarantine: bool,
    telemetry: Arc<Telemetry>,
    metrics: AgentMetrics,
    last_report: IterationReport,
    prologue_done: bool,
}

/// Telemetry handles behind the records every dialogue iteration makes,
/// resolved once per attached registry.
#[derive(Clone, Copy, Debug, Default)]
struct AgentMetrics {
    span_iteration: NameId,
    span_measure: NameId,
    span_react: NameId,
    span_update: NameId,
    span_sync: NameId,
    iterations: CounterId,
    busy_ns: CounterId,
    staged_table_ops: CounterId,
    hist_iteration: HistId,
    hist_measure: HistId,
    hist_react: HistId,
    hist_update: HistId,
    hist_sync: HistId,
}

impl AgentMetrics {
    fn resolve(tel: &Telemetry) -> Self {
        AgentMetrics {
            span_iteration: tel.intern(scopes::SPAN_ITERATION),
            span_measure: tel.intern(scopes::SPAN_MEASURE),
            span_react: tel.intern(scopes::SPAN_REACT),
            span_update: tel.intern(scopes::SPAN_UPDATE),
            span_sync: tel.intern(scopes::SPAN_SYNC),
            iterations: tel.register_counter(scopes::CTR_ITERATIONS),
            busy_ns: tel.register_counter(scopes::CTR_BUSY_NS),
            staged_table_ops: tel.register_counter(scopes::CTR_STAGED_TABLE_OPS),
            hist_iteration: tel.register_hist(scopes::HIST_ITERATION_NS),
            hist_measure: tel.register_hist(scopes::HIST_MEASURE_NS),
            hist_react: tel.register_hist(scopes::HIST_REACT_NS),
            hist_update: tel.register_hist(scopes::HIST_UPDATE_NS),
            hist_sync: tel.register_hist(scopes::HIST_SYNC_NS),
        }
    }
}

impl fmt::Debug for MantisAgent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MantisAgent")
            .field("vv", &self.vv)
            .field("mv", &self.mv)
            .field("reactions", &self.reactions.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// A driver under an agent's retry discipline: every op submitted through
/// it is retried on transient failure with bounded exponential backoff on
/// the virtual clock. A bundle of borrows, so the loop's phases can hold
/// it beside the agent state they walk.
pub(crate) struct Submitter<'a> {
    driver: &'a mut dyn DriverApi,
    clock: &'a Clock,
    tel: &'a Telemetry,
    policy: RetryPolicy,
    retries: &'a mut u32,
}

impl Submitter<'_> {
    pub(crate) fn now(&self) -> Nanos {
        self.clock.now()
    }

    pub(crate) fn submit(&mut self, op: DriverOp) -> Result<DriverResponse, AgentError> {
        let mut attempt = 0u32;
        loop {
            match self.driver.submit(op.clone()) {
                Ok(r) => return Ok(r),
                Err(e) if e.is_transient() && self.policy.allows(attempt) => {
                    let backoff = self.policy.backoff(attempt);
                    attempt += 1;
                    *self.retries += 1;
                    self.tel.counter_add(scopes::CTR_RETRIES, 1);
                    self.tel.hist_record(scopes::HIST_RETRY_BACKOFF_NS, backoff);
                    self.clock.advance(backoff);
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Borrow the agent's driver as a [`Submitter`], leaving the rest of the
/// agent's fields free to borrow next to it.
macro_rules! submitter {
    ($agent:expr, $retries:expr) => {
        Submitter {
            driver: $agent.driver.as_mut(),
            clock: &$agent.clock,
            tel: &$agent.telemetry,
            policy: $agent.retry,
            retries: $retries,
        }
    };
}

impl MantisAgent {
    /// Create an agent for a compiled program running on `switch`.
    ///
    /// # Panics
    /// Panics if the switch was not loaded with the same compiled program
    /// (tables/actions referenced by the interface must exist).
    pub fn new(switch: SharedSwitch, compiled: &Compiled, cost: CostModel) -> Self {
        Self::with_driver(compiled, Box::new(LocalDriver::new(switch, cost)))
    }

    /// Create an agent that controls its switch through an arbitrary
    /// [`DriverApi`] implementation — in-process ([`LocalDriver`], what
    /// [`new`](MantisAgent::new) builds) or remote over a control channel.
    ///
    /// # Panics
    /// Panics if the driver's spec does not carry the compiled program's
    /// tables/actions.
    pub fn with_driver(compiled: &Compiled, mut driver: Box<dyn DriverApi>) -> Self {
        let iface = compiled.iface.clone();
        let clock = driver.clock().clone();
        // Every agent owns an (enabled) telemetry handle so that stats
        // are always registry-sourced; `set_telemetry` swaps in a
        // shared handle when the caller wants the full trace.
        let telemetry = Arc::new(Telemetry::new(TelemetryConfig::default()));
        let metrics = AgentMetrics::resolve(&telemetry);
        driver.set_telemetry(telemetry.clone());

        let master = iface
            .master_init()
            .expect("invariant: compiled programs always carry a master init");
        let master_table = driver.table_id(&master.table).unwrap_or_else(|_| {
            panic!(
                "invariant: master init table `{}` must exist on the switch \
                 the program was loaded onto",
                master.table
            )
        });
        let master_action = driver.action_id(&master.action).unwrap_or_else(|_| {
            panic!(
                "invariant: master init action `{}` must exist on the switch \
                 the program was loaded onto",
                master.action
            )
        });

        // Slots, by id: malleable values, then malleable fields.
        let values = iface.values.iter().map(|v| Slot {
            name: v.name.clone(),
            value: v.init.bits() as i128,
            width: v.width,
            alts: None,
            init_table: v.init_table,
            param_idx: v.param_idx,
        });
        let fields = iface.fields.iter().map(|f| Slot {
            name: f.name.clone(),
            value: f.init_index as i128,
            width: f.selector_bits,
            alts: Some(f.alts.len()),
            init_table: f.init_table,
            param_idx: f.param_idx,
        });
        let slots: Vec<Slot> = values.chain(fields).collect();

        // Build initial data vectors per init table.
        let mut datas: Vec<Vec<Value>> = iface
            .init_tables
            .iter()
            .map(|it| {
                it.param_widths
                    .iter()
                    .map(|w| Value::zero(*w))
                    .collect::<Vec<_>>()
            })
            .collect();
        // vv=1, mv=0 in the master.
        datas[0][0] = Value::new(1, 1);
        datas[0][1] = Value::zero(1);
        for slot in &slots {
            datas[slot.init_table][slot.param_idx] = slot.cell(slot.value);
        }
        let master_data = datas[0].clone();
        let extra_ids = datas;

        // Resolve extra init tables (entries installed during prologue).
        let mut extra_inits = Vec::new();
        for (i, it) in iface.init_tables.iter().enumerate() {
            if it.is_master {
                continue;
            }
            let table_id = driver.table_id(&it.table).unwrap_or_else(|_| {
                panic!(
                    "invariant: init table `{}` must exist on the switch",
                    it.table
                )
            });
            let action = driver.action_id(&it.action).unwrap_or_else(|_| {
                panic!(
                    "invariant: init action `{}` must exist on the switch",
                    it.action
                )
            });
            extra_inits.push(ExtraInit {
                table_id,
                action,
                data: extra_ids[i].clone(),
                handles: [EntryHandle(0), EntryHandle(0)],
            });
        }

        // Logical tables, by id, for user-facing (non-init) tables, each
        // resolved against the switch's spec once.
        let tables: Vec<LogicalTable> = iface
            .tables
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.name.starts_with("p4r_init"))
            .map(|(i, t)| LogicalTable::new(i, t, driver.spec()))
            .collect();

        let names = Names {
            slots: slots.iter().map(|s| s.name.clone()).zip(0..).collect(),
            tables: tables.iter().map(|t| t.name.clone()).zip(0..).collect(),
        };

        // Capture the typed IR's pre-parsed bodies + static slots so
        // registration never re-derives them from text.
        let ir_bodies = compiled
            .ir
            .reactions
            .iter()
            .map(|r| (r.name.clone(), (r.body.clone(), r.statics.clone())))
            .collect();

        let num_pipes = usize::from(driver.num_pipes());
        MantisAgent {
            iface,
            driver,
            clock,
            vv: vec![1; num_pipes],
            mv: 0,
            master_data,
            master_table,
            master_action,
            extra_inits,
            slots,
            tables,
            names,
            reactions: Vec::new(),
            ir_bodies,
            vm_fallbacks: Vec::new(),
            staged: Staged::default(),
            reaction_ranges: Vec::new(),
            txn: Txn::default(),
            retry: RetryPolicy::default(),
            breaker_cfg: BreakerConfig::default(),
            iteration_count: 0,
            had_quarantine: false,
            telemetry,
            metrics,
            last_report: IterationReport::default(),
            prologue_done: false,
        }
    }

    /// Share a telemetry handle (e.g. the testbed-wide one). The driver
    /// is re-pointed too. Counters accumulated so far are not migrated.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.driver.set_telemetry(telemetry.clone());
        self.metrics = AgentMetrics::resolve(&telemetry);
        self.telemetry = telemetry;
    }

    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// Cumulative stats, read back from the telemetry registry.
    pub fn stats(&self) -> AgentStats {
        AgentStats {
            iterations: self.telemetry.counter_value(self.metrics.iterations) as u64,
            busy_ns: self.telemetry.counter_value(self.metrics.busy_ns) as Nanos,
            last: self.last_report.clone(),
        }
    }

    /// Total bytecode ops dispatched across all VM-compiled reactions.
    pub fn vm_dispatch_total(&self) -> u64 {
        self.reactions
            .iter()
            .map(|r| match &r.imp {
                ReactionImpl::Compiled(vm) => vm.dispatch_count(),
                _ => 0,
            })
            .sum()
    }

    /// Publish per-reaction execution-engine stats as telemetry gauges
    /// (`reaction.<name>.vm_dispatch`). Explicit-call-only, so existing
    /// telemetry traces are unaffected unless a caller opts in.
    pub fn publish_reaction_stats(&self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        for r in &self.reactions {
            if let ReactionImpl::Compiled(vm) = &r.imp {
                self.telemetry.gauge_set(
                    &format!("reaction.{}.vm_dispatch", r.name),
                    vm.dispatch_count() as i128,
                );
            }
        }
    }

    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    pub fn driver(&self) -> &dyn DriverApi {
        self.driver.as_ref()
    }

    pub fn driver_mut(&mut self) -> &mut dyn DriverApi {
        self.driver.as_mut()
    }

    /// Committed config version (pipe 0's copy; all pipes agree between
    /// iterations).
    pub fn vv(&self) -> u8 {
        self.vv[0]
    }

    /// Per-pipe config versions.
    pub fn vv_per_pipe(&self) -> &[u8] {
        &self.vv
    }

    pub fn mv(&self) -> u8 {
        self.mv
    }

    /// Committed value of a malleable (value: raw; field: alt index).
    pub fn slot(&self, name: &str) -> Option<i128> {
        let id = self.names.slots.get(name)?;
        Some(self.slots[*id].value)
    }

    /// Number of logical entries in a malleable table.
    pub fn logical_len(&self, table: &str) -> Option<usize> {
        let id = self.names.tables.get(table)?;
        Some(self.tables[*id].len())
    }

    /// FNV-1a fingerprint of the agent's *committed malleable config*:
    /// every slot value plus every logical table entry (key, priority,
    /// action, action data), both in sorted order.
    ///
    /// Deliberately excluded: vv/mv parity (a recovered run may have
    /// committed a different number of times), physical and logical entry
    /// handles (monotonic allocators do not reset across a crash), and
    /// data-plane counters. Two agents with equal fingerprints steer
    /// packets identically — the convergence oracle of DESIGN.md §13.
    pub fn config_fingerprint(&self) -> u64 {
        let mut h = Self::FNV_OFFSET;
        self.eat_slots(&mut h);
        self.eat_entries(&mut h);
        h
    }

    /// [`MantisAgent::config_fingerprint`] restricted to logical table
    /// entries — the configuration content alone. Slot values are
    /// additionally excluded because they mirror *measurements*: two runs
    /// with different fault timing legitimately diverge on them while
    /// steering packets through identical tables. The cross-run
    /// convergence oracle compares this against a fault-free baseline.
    pub fn entry_fingerprint(&self) -> u64 {
        let mut h = Self::FNV_OFFSET;
        self.eat_entries(&mut h);
        h
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    fn eat(h: &mut u64, s: &str) {
        for b in s.as_bytes() {
            *h ^= u64::from(*b);
            *h = h.wrapping_mul(Self::FNV_PRIME);
        }
    }

    /// Fingerprints hash names, in sorted-name order — never ids.
    fn eat_slots(&self, h: &mut u64) {
        let mut slots: Vec<(&str, i128)> = Vec::with_capacity(self.slots.len());
        slots.extend(self.slots.iter().map(|s| (s.name.as_str(), s.value)));
        slots.sort();
        for (name, v) in slots {
            Self::eat(h, &format!("slot {name}={v}\n"));
        }
    }

    fn eat_entries(&self, h: &mut u64) {
        let mut tables: Vec<&LogicalTable> = self.tables.iter().collect();
        tables.sort_by(|a, b| a.name.cmp(&b.name));
        for lt in tables {
            let name = &lt.name;
            let mut lines: Vec<String> = lt
                .entries
                .values()
                .map(|e| {
                    let action = &lt.actions[e.action].name;
                    format!(
                        "{name} {:?} p{} {action}{:?}\n",
                        e.key, e.priority, e.action_data
                    )
                })
                .collect();
            lines.sort();
            for l in lines {
                Self::eat(h, &l);
            }
        }
    }

    /// Device-side config-atomicity oracle: read every pipe's master init
    /// default back and check the pipes agree (between dialogue
    /// iterations every pipe must be entirely-old xor entirely-new, and
    /// post-quiescence they must all be new). Returns a description of
    /// the divergence, naming the pipe, if the invariant is violated.
    /// Reads run with faults suspended so the oracle itself cannot
    /// trigger injected rules.
    pub fn verify_config_atomicity(&mut self) -> Result<(), String> {
        self.driver.suspend_faults();
        let num_pipes = self.driver.num_pipes();
        let mut datas = Vec::with_capacity(usize::from(num_pipes));
        for pipe in 0..num_pipes {
            match self.driver.table_default_on(pipe, self.master_table) {
                Ok((_, data)) => datas.push(data),
                Err(e) => {
                    self.driver.resume_faults();
                    return Err(format!("atomicity read-back failed on pipe {pipe}: {e}"));
                }
            }
        }
        self.driver.resume_faults();
        for (pipe, data) in datas.iter().enumerate().skip(1) {
            if *data != datas[0] {
                return Err(format!(
                    "config torn across pipes: pipe {pipe} has {data:?}, pipe 0 has {:?}",
                    datas[0]
                ));
            }
        }
        Ok(())
    }

    // -- fault-tolerance configuration ------------------------------------------

    /// Install a fault plan on the driver (driver-op rules only; link
    /// flaps are scheduled through `netsim::schedule_link_flaps`).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.driver.set_fault_plan(plan);
    }

    /// Declare which fabric switch this agent controls (`None` on a
    /// single-switch testbed). Switch-scoped fault rules match against it.
    pub fn set_fabric_index(&mut self, index: Option<u16>) {
        self.driver.set_fabric_index(index);
    }

    pub fn fabric_index(&self) -> Option<u16> {
        self.driver.fabric_index()
    }

    /// Replace the retry policy used for driver ops and apply attempts.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Replace the per-reaction circuit-breaker configuration. Existing
    /// breakers are reset to closed.
    pub fn set_breaker_config(&mut self, cfg: BreakerConfig) {
        self.breaker_cfg = cfg;
        for r in &mut self.reactions {
            r.breaker = CircuitBreaker::new(cfg);
        }
    }

    pub fn breaker_config(&self) -> BreakerConfig {
        self.breaker_cfg
    }

    /// Breaker state of one registered reaction.
    pub fn breaker_state(&self, name: &str) -> Option<BreakerState> {
        self.reactions
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.breaker.state())
    }

    /// Names of reactions currently quarantined (breaker open, cooldown
    /// not yet elapsed).
    pub fn quarantined_reactions(&self) -> Vec<String> {
        let now = self.clock.now();
        self.reactions
            .iter()
            .filter(|r| r.breaker.is_quarantined(now))
            .map(|r| r.name.clone())
            .collect()
    }

    // -- registration ----------------------------------------------------------

    /// Register a reaction to run its compiled C-like body in the
    /// interpreter, picking the engine automatically.
    pub fn register_interpreted(&mut self, name: &str) -> Result<(), AgentError> {
        self.register_interpreted_with(name, ReactionEngine::Auto)
    }

    /// Register a reaction on a specific execution engine.
    ///
    /// The body and static slots come pre-parsed from the compiler IR;
    /// re-parsing `body_src` happens only for interfaces that lost their
    /// IR (e.g. restored from a serialized `ControlInterface`).
    pub fn register_interpreted_with(
        &mut self,
        name: &str,
        engine: ReactionEngine,
    ) -> Result<(), AgentError> {
        let lowered = self.lower(name)?;
        let (body, slots) = match self.ir_bodies.get(name) {
            Some((body, slots)) => (body.clone(), slots.clone()),
            None => {
                let env = |e: String| AgentError::from(AgentErrorKind::Interp(InterpError::Env(e)));
                let src = &self.iface.reaction(name).expect("lowered above").body_src;
                let body = p4r_lang::creact::parse_body(src).map_err(|e| env(e.to_string()))?;
                let slots = ReactionSlots::collect(&body).map_err(|e| env(e.to_string()))?;
                (body, slots)
            }
        };
        let imp = if engine == ReactionEngine::ForceWalker {
            ReactionImpl::Interpreted(Interpreter::new(body))
        } else {
            match CompiledReaction::compile_with_slots(&body, &slots) {
                // The VM meets its names here, once: every argument,
                // malleable, table, method and builtin the body mentions
                // becomes an id of this agent's.
                Ok(mut vm) => {
                    vm.bind(|n| bind_name(n, &lowered.1, &self.names));
                    ReactionImpl::Compiled(vm)
                }
                Err(e) if engine == ReactionEngine::ForceVm => {
                    return Err(AgentError::from(AgentErrorKind::VmUnsupported {
                        reaction: name.to_string(),
                        reason: e.to_string(),
                    }))
                }
                // Auto prefers the bytecode VM; it falls back to the
                // tree-walker for the rare bodies the VM cannot compile
                // faithfully, and makes the walker-only coverage visible
                // in telemetry.
                Err(e) => {
                    self.telemetry.counter_add(scopes::CTR_VM_FALLBACK, 1);
                    self.vm_fallbacks.push((name.to_string(), e.to_string()));
                    ReactionImpl::Interpreted(Interpreter::new(body))
                }
            }
        };
        self.install(name, lowered, imp);
        Ok(())
    }

    /// Lower the measurement poll of the program's reaction `name`.
    fn lower(&self, name: &str) -> Result<(MeasurePlan, Snapshot), AgentError> {
        let binding = self.iface.reaction(name).ok_or_else(|| {
            AgentError::from(AgentErrorKind::NotCompiledWithReaction(name.to_string()))
        })?;
        Ok(MeasurePlan::lower(binding, self.driver.as_ref())?)
    }

    /// Register `imp` as reaction `name`. A name registers once: doing it
    /// again replaces the earlier registration — statics, breaker and
    /// measurement caches included — in place.
    fn install(&mut self, name: &str, lowered: (MeasurePlan, Snapshot), imp: ReactionImpl) {
        let new = RegisteredReaction {
            name: name.to_string(),
            plan: lowered.0,
            snapshot: lowered.1,
            imp,
            breaker: CircuitBreaker::new(self.breaker_cfg),
        };
        match self.reactions.iter_mut().find(|r| r.name == name) {
            Some(r) => *r = new,
            None => self.reactions.push(new),
        }
    }

    /// Register every reaction in the program with the interpreter.
    pub fn register_all_interpreted(&mut self) -> Result<(), AgentError> {
        self.register_all_interpreted_with(ReactionEngine::Auto)
    }

    /// Register every reaction in the program on a specific engine.
    pub fn register_all_interpreted_with(
        &mut self,
        engine: ReactionEngine,
    ) -> Result<(), AgentError> {
        for name in self
            .iface
            .reactions
            .iter()
            .map(|r| r.name.clone())
            .collect::<Vec<_>>()
        {
            self.register_interpreted_with(&name, engine)?;
        }
        Ok(())
    }

    /// Every VM → walker fallback so far, as `(reaction, reason)` pairs.
    /// Empty in the common case where every body compiles to bytecode.
    pub fn vm_fallbacks(&self) -> &[(String, String)] {
        &self.vm_fallbacks
    }

    /// Cap the interpreter/VM step budget of every registered reaction
    /// (the fuzz harness tightens this so runaway generated loops abort
    /// quickly and identically on both engines).
    pub fn set_reaction_step_limits(&mut self, limit: u64) {
        for r in &mut self.reactions {
            match &mut r.imp {
                ReactionImpl::Compiled(vm) => vm.step_limit = limit,
                ReactionImpl::Interpreted(w) => w.step_limit = limit,
                ReactionImpl::Native(_) => {}
            }
        }
    }

    /// Register a native Rust implementation for a reaction declared in the
    /// program (its args/measurements come from the declaration).
    pub fn register_native(
        &mut self,
        name: &str,
        imp: Box<dyn NativeReaction>,
    ) -> Result<(), AgentError> {
        let lowered = self.lower(name)?;
        self.install(name, lowered, ReactionImpl::Native(imp));
        Ok(())
    }

    /// Swap a reaction implementation at runtime (the paper's dynamic
    /// `.so` reload). The reaction's breaker is reset: a reload is the
    /// operator's fix for a quarantined reaction.
    pub fn swap_reaction(
        &mut self,
        name: &str,
        imp: Box<dyn NativeReaction>,
    ) -> Result<(), AgentError> {
        let cfg = self.breaker_cfg;
        let r = self
            .reactions
            .iter_mut()
            .find(|r| r.name == name)
            .ok_or_else(|| AgentError::from(AgentErrorKind::UnknownReaction(name.to_string())))?;
        r.imp = ReactionImpl::Native(imp);
        r.breaker = CircuitBreaker::new(cfg);
        Ok(())
    }

    // -- prologue ---------------------------------------------------------------

    /// The prologue phase: precompute metadata, install static entries,
    /// initialize init tables, warm the driver memo.
    pub fn prologue(&mut self) -> Result<(), AgentError> {
        self.prologue_inner()
            .map_err(|e| e.in_phase(AgentPhase::Prologue))
    }

    fn prologue_inner(&mut self) -> Result<(), AgentError> {
        // Master init configuration.
        self.driver.table_set_default(
            self.master_table,
            self.master_action,
            self.master_data.clone(),
            true,
        )?;

        // Extra init tables: one entry per vv value.
        let mut handles = Vec::with_capacity(self.extra_inits.len());
        for ei in &self.extra_inits {
            let mut hs = [EntryHandle(0), EntryHandle(0)];
            for vvbit in 0..2u8 {
                hs[vvbit as usize] = self.driver.table_add(
                    ei.table_id,
                    vec![KeyField::Exact(Value::new(u128::from(vvbit), 1))],
                    0,
                    ei.action,
                    ei.data.clone(),
                )?;
            }
            handles.push(hs);
        }
        for (ei, hs) in self.extra_inits.iter_mut().zip(handles) {
            ei.handles = hs;
        }

        // Load tables for the field-list optimization.
        for pe in self.iface.prologue_entries.clone() {
            let tid = self.driver.table_id(&pe.table)?;
            let aid = self.driver.action_id(&pe.action)?;
            self.driver.table_add(
                tid,
                vec![KeyField::Exact(Value::new(u128::from(pe.selector), 16))],
                0,
                aid,
                vec![],
            )?;
        }
        self.prologue_done = true;
        Ok(())
    }

    /// Take over a switch that a previous controller already initialised
    /// (controller failover). The original prologue's entries are still
    /// installed on the device, so re-adding them would duplicate; instead
    /// the new controller re-asserts its bookkeeping onto the existing
    /// entries: the master init default is rewritten as an init flip, and
    /// each extra init table's two entries — at their deterministic
    /// prologue handles (per-table handles start at 1, and init tables
    /// only ever receive the prologue's two adds) — are modified back to
    /// this agent's data. Prologue entries (field-list selectors) are
    /// static and left untouched. Malleable config then re-converges from
    /// live measurements over subsequent iterations: Mantis reactive
    /// state is soft state.
    pub fn adopt(&mut self) -> Result<(), AgentError> {
        self.adopt_inner()
            .map_err(|e| e.in_phase(AgentPhase::Prologue))
    }

    fn adopt_inner(&mut self) -> Result<(), AgentError> {
        self.driver.table_set_default(
            self.master_table,
            self.master_action,
            self.master_data.clone(),
            true,
        )?;
        for i in 0..self.extra_inits.len() {
            let (table_id, action, data) = {
                let ei = &self.extra_inits[i];
                (ei.table_id, ei.action, ei.data.clone())
            };
            let hs = [EntryHandle(1), EntryHandle(2)];
            for h in hs {
                self.driver.table_mod(table_id, h, action, data.clone())?;
            }
            self.extra_inits[i].handles = hs;
        }
        self.driver.flush()?;
        self.prologue_done = true;
        Ok(())
    }

    /// Recover from an agent crash at an *arbitrary* point of the dialogue
    /// (DESIGN.md §13): read the device's authoritative state back through
    /// the driver and rebuild this agent's soft state to match, repairing
    /// any torn commit the dead agent left behind.
    ///
    /// Unlike [`adopt`](MantisAgent::adopt) — which assumes the previous
    /// controller died *between* iterations — `reconcile` makes no
    /// assumption about where the crash landed:
    ///
    /// 1. every pipe's master init default is read back; pipe 0 is
    ///    authoritative (commits and measure flips walk pipes in index
    ///    order, so pipe 0 always carries the newest `[vv, mv, slots...]`),
    ///    and stale pipes are rolled *forward* to it;
    /// 2. each extra init table's two per-vv entries are read back; missing
    ///    ones are re-added and a mirror divergence (crash between prepare
    ///    and mirror) is repaired by copying the active copy over the old;
    /// 3. user-table entries are wiped, logical bookkeeping reset and every
    ///    reaction registration dropped — Mantis reactive state is soft
    ///    state (§6), so the caller re-registers its reactions, re-runs its
    ///    `user_init` and lets them re-converge from live measurements,
    ///    exactly as a fresh controller would;
    /// 4. static prologue entries (field-list selectors) are re-installed.
    ///
    /// Runs with faults suspended: recovery itself models the restarted
    /// process's clean first ops.
    pub fn reconcile(&mut self) -> Result<(), AgentError> {
        self.driver.suspend_faults();
        let res = self.reconcile_inner();
        self.driver.resume_faults();
        res.map_err(|e| e.in_phase(AgentPhase::Prologue))
    }

    fn reconcile_inner(&mut self) -> Result<(), AgentError> {
        // ── 1. master init: per-pipe read-back + roll-forward ──
        let num_pipes = self.driver.num_pipes();
        let mut pipe_datas = Vec::with_capacity(usize::from(num_pipes));
        for pipe in 0..num_pipes {
            let (_, data) = self.driver.table_default_on(pipe, self.master_table)?;
            pipe_datas.push(data);
        }
        let want_len = self.master_data.len();
        if pipe_datas[0].len() != want_len {
            // The crash predates the master default (mid-prologue): assert
            // this agent's initial config on every pipe and start clean.
            self.driver.table_set_default(
                self.master_table,
                self.master_action,
                self.master_data.clone(),
                true,
            )?;
        } else {
            let newest = pipe_datas[0].clone();
            for pipe in 1..num_pipes {
                if pipe_datas[usize::from(pipe)] != newest {
                    self.driver.table_set_default_on(
                        pipe,
                        self.master_table,
                        self.master_action,
                        newest.clone(),
                        true,
                    )?;
                }
            }
            // Adopt the device's committed view: vv (now uniform), mv, and
            // every master-resident slot.
            let vv = newest[0].bits() as u8;
            self.vv = vec![vv; usize::from(num_pipes)];
            self.mv = newest[1].bits() as u8;
            for slot in self.slots.iter_mut().filter(|s| s.init_table == 0) {
                slot.value = newest[slot.param_idx].bits() as i128;
            }
            self.master_data = newest;
        }

        // ── 2. extra init tables: read back both per-vv entries ──
        let active = self.vv[0];
        for i in 0..self.extra_inits.len() {
            let (table_id, action) = {
                let ei = &self.extra_inits[i];
                (ei.table_id, ei.action)
            };
            let snaps = self.driver.table_dump(table_id)?;
            let mut found: [Option<(EntryHandle, Vec<Value>)>; 2] = [None, None];
            for s in &snaps {
                for vvbit in 0..2u8 {
                    let want = KeyField::Exact(Value::new(u128::from(vvbit), 1));
                    if s.key.first() == Some(&want) {
                        found[vvbit as usize] = Some((s.handle, s.data.clone()));
                    }
                }
            }
            // The active copy's data is what packets currently see: adopt
            // it (falling back to this agent's initial data if the crash
            // predates the prologue's add).
            if let Some((_, data)) = &found[active as usize] {
                let loaded = data.clone();
                for slot in self.slots.iter_mut().filter(|s| s.init_table == i + 1) {
                    slot.value = loaded[slot.param_idx].bits() as i128;
                }
                self.extra_inits[i].data = loaded;
            }
            let data = self.extra_inits[i].data.clone();
            let mut handles = [EntryHandle(0), EntryHandle(0)];
            for vvbit in 0..2u8 {
                match &found[vvbit as usize] {
                    Some((h, d)) => {
                        handles[vvbit as usize] = *h;
                        // Crash between prepare and mirror: the old copy
                        // still holds pre-crash data. Repair it.
                        if *d != data {
                            self.driver.table_mod(table_id, *h, action, data.clone())?;
                        }
                    }
                    None => {
                        handles[vvbit as usize] = self.driver.table_add(
                            table_id,
                            vec![KeyField::Exact(Value::new(u128::from(vvbit), 1))],
                            0,
                            action,
                            data.clone(),
                        )?;
                    }
                }
            }
            self.extra_inits[i].handles = handles;
        }

        // ── 3. user tables: wipe physical entries, reset bookkeeping ──
        for lt in &mut self.tables {
            for s in self.driver.table_dump(lt.table_id)? {
                self.driver.table_del(lt.table_id, s.handle)?;
            }
            lt.reset();
        }

        // ── 4. re-install static prologue entries ──
        for pe in self.iface.prologue_entries.clone() {
            let tid = self.driver.table_id(&pe.table)?;
            let aid = self.driver.action_id(&pe.action)?;
            self.driver.table_add(
                tid,
                vec![KeyField::Exact(Value::new(u128::from(pe.selector), 16))],
                0,
                aid,
                vec![],
            )?;
        }

        // Soft state of the dead agent dies with it: staged intent, and
        // the reactions — their statics, breakers, snapshots and register
        // caches lived in the process. The caller registers them afresh,
        // as it does on a fresh agent.
        self.staged.clear();
        self.reaction_ranges.clear();
        self.reactions.clear();
        self.driver.flush()?;
        self.prologue_done = true;
        Ok(())
    }

    /// Run user initialization: stage updates in a closure, then apply them
    /// with the full serializable sequence (no measurement).
    pub fn user_init<F>(&mut self, f: F) -> Result<(), AgentError>
    where
        F: FnOnce(&mut ReactionCtx<'_>) -> Result<(), CtxError>,
    {
        self.reaction_ranges.clear();
        {
            let snapshot = Snapshot::default();
            let mut ctx = ReactionCtx {
                snapshot: &snapshot,
                slots: &self.slots,
                staged: &mut self.staged,
                tables: &mut self.tables,
                names: &self.names,
                now_ns: self.clock.now(),
            };
            let res = f(&mut ctx);
            if let Err(e) = res {
                // Discard partially staged effects: user initialization is
                // all-or-nothing, like a reaction.
                self.staged.clear();
                return Err(AgentError::from(e).in_phase(AgentPhase::UserInit));
            }
        }
        let mut retries = 0u32;
        let mut rollbacks = 0u32;
        self.apply_staged(&mut retries, &mut rollbacks)
            .map(|_| ())
            .map_err(|e| e.in_phase(AgentPhase::UserInit))
    }

    // -- dialogue ---------------------------------------------------------------

    /// One iteration of the dialogue loop. Phases are recorded as
    /// `Scope::Agent` spans (measure → react → update → sync) and fed
    /// into the `agent.*` histograms/counters of the telemetry registry.
    ///
    /// Fault-tolerance contract: reaction failures are *contained* —
    /// reported in [`IterationReport::reaction_failures`], counted
    /// against the reaction's breaker, never fatal to the iteration. An
    /// `Err` return means the measure or apply phase failed permanently;
    /// in that case the device and agent state are those of the last
    /// committed iteration (the transactional apply rolled back).
    pub fn dialogue_iteration(&mut self) -> Result<IterationReport, AgentError> {
        let iter = self.iteration_count;
        let m = self.metrics;
        let mut retries = 0u32;
        let mut rollbacks = 0u32;
        let t0 = self.clock.now();
        self.telemetry.begin(Scope::Agent, m.span_iteration, t0);

        // ── measurement flip: freeze the current working copy ──
        self.telemetry.begin(Scope::Agent, m.span_measure, t0);
        let frozen = self.mv;
        self.mv ^= 1;
        let measured = self
            .write_master(&mut retries)
            .and_then(|()| self.read_measurements(frozen, &mut retries));
        if let Err(e) = measured {
            if e.is_crash() {
                // The process died mid-measure. No restore: a dead agent
                // writes nothing, and the device keeps whatever subset of
                // pipes the flip reached. The successor reconciles.
                return Err(e.in_phase(AgentPhase::Measure).at_iteration(iter));
            }
            // Nothing malleable was touched; re-freeze the old copy so the
            // device and agent agree again, then surface the error.
            self.mv = frozen;
            self.restore_master();
            let t_err = self.clock.now();
            self.telemetry.end(Scope::Agent, m.span_measure, t_err);
            self.telemetry.end(Scope::Agent, m.span_iteration, t_err);
            return Err(e.in_phase(AgentPhase::Measure).at_iteration(iter));
        }
        let t_measured = self.clock.now();
        self.telemetry.end(Scope::Agent, m.span_measure, t_measured);

        // ── run reactions against the frozen snapshot ──
        // Failures are contained: the failing reaction's partial staging
        // is discarded and its breaker advances; the iteration continues
        // with whatever the healthy reactions staged.
        self.telemetry.begin(Scope::Agent, m.span_react, t_measured);
        let (reaction_failures, quarantine_skips) = self.run_reactions(iter);
        let t_reacted = self.clock.now();
        self.telemetry.end(Scope::Agent, m.span_react, t_reacted);

        // ── prepare / commit / mirror (transactional) ──
        let staged_ops = self.staged.table_ops.len();
        let applied = self.apply_staged(&mut retries, &mut rollbacks);
        let t1 = self.clock.now();
        self.telemetry.end(Scope::Agent, m.span_iteration, t1);
        let (update_ns, sync_ns) = match applied {
            Ok(v) => v,
            Err(e) => return Err(e.in_phase(AgentPhase::Update).at_iteration(iter)),
        };
        // The commit landed: the reactions that ran this iteration get
        // their breaker success (a half-open probe closes here).
        for rr in self.reaction_ranges.drain(..) {
            self.reactions[rr.reaction].breaker.on_success();
        }

        self.last_report = IterationReport {
            duration_ns: t1 - t0,
            measure_ns: t_measured - t0,
            react_ns: t_reacted - t_measured,
            update_ns,
            sync_ns,
            staged_table_ops: staged_ops,
            retries,
            rollbacks,
            quarantine_skips,
            reaction_failures: Vec::new(),
        };
        self.iteration_count += 1;
        let report = &self.last_report;
        if let Some(mut rec) = self.telemetry.recorder() {
            rec.add(m.iterations, 1);
            rec.add(m.busy_ns, i128::from(report.duration_ns));
            rec.add(m.staged_table_ops, staged_ops as i128);
            rec.record(m.hist_iteration, report.duration_ns);
            rec.record(m.hist_measure, report.measure_ns);
            rec.record(m.hist_react, report.react_ns);
            rec.record(m.hist_update, report.update_ns);
            rec.record(m.hist_sync, report.sync_ns);
        }
        Ok(IterationReport {
            reaction_failures,
            ..report.clone()
        })
    }

    /// Run `n` iterations back-to-back (busy loop).
    pub fn run_iterations(&mut self, n: usize) -> Result<(), AgentError> {
        for _ in 0..n {
            self.dialogue_iteration()?;
        }
        Ok(())
    }

    /// Run `n` iterations with `sleep_ns` of `nanosleep` pacing between
    /// them (the Fig. 11 CPU/latency trade-off). Returns the resulting CPU
    /// utilization in `[0, 1]`.
    pub fn run_paced(&mut self, n: usize, sleep_ns: Nanos) -> Result<f64, AgentError> {
        let start = self.clock.now();
        let busy0 = self.telemetry.counter_value(self.metrics.busy_ns);
        for _ in 0..n {
            self.dialogue_iteration()?;
            self.clock.advance(sleep_ns);
        }
        // Busy time comes out of the registry, not ad-hoc accumulation.
        let busy = (self.telemetry.counter_value(self.metrics.busy_ns) - busy0) as u64;
        let span = self.clock.now() - start;
        Ok(if span == 0 {
            1.0
        } else {
            busy as f64 / span as f64
        })
    }

    /// Re-write every pipe's master init default from current agent state
    /// (vv per pipe, mv global).
    fn write_master(&mut self, retries: &mut u32) -> Result<(), AgentError> {
        for pipe in 0..self.vv.len() as u16 {
            self.write_master_pipe(pipe, retries)?;
        }
        Ok(())
    }

    /// Submit one op under this agent's retry discipline.
    fn retry_submit(
        &mut self,
        retries: &mut u32,
        op: DriverOp,
    ) -> Result<DriverResponse, AgentError> {
        submitter!(self, retries).submit(op)
    }

    /// Write one pipe's master init default: `[vv[pipe], mv, slots...]`.
    /// The write is a single atomic set_default, so a packet in this pipe
    /// observes either the old or the new config version, never a blend.
    fn write_master_pipe(&mut self, pipe: u16, retries: &mut u32) -> Result<(), AgentError> {
        self.master_data[0] = Value::new(u128::from(self.vv[pipe as usize]), 1);
        self.master_data[1] = Value::new(u128::from(self.mv), 1);
        let op = DriverOp::SetDefaultOn {
            pipe,
            table: self.master_table,
            action: self.master_action,
            data: self.master_data.clone(),
            is_init_flip: true,
        };
        self.retry_submit(retries, op).map(drop)
    }

    /// Re-write the master init default from current agent state over a
    /// fault-free recovery path (used after a failed measure flip).
    fn restore_master(&mut self) {
        self.driver.suspend_faults();
        let mut scratch = 0u32;
        let res = self.write_master(&mut scratch);
        self.driver.resume_faults();
        if let Err(e) = res {
            // With faults suspended the master set_default has no failure
            // mode left: the table/action were validated in `new`.
            panic!("invariant: fault-free master restore failed: {e}");
        }
    }

    /// Poll every registered reaction's arguments from measurement copy
    /// `frozen`, each by its plan into its own snapshot.
    fn read_measurements(&mut self, frozen: u8, retries: &mut u32) -> Result<(), AgentError> {
        let mut sub = submitter!(self, retries);
        for r in &mut self.reactions {
            r.snapshot.refill(&r.plan, frozen, &mut sub)?;
        }
        Ok(())
    }

    /// Run every registered reaction that its breaker allows. Returns the
    /// contained failures and the number of quarantine skips.
    fn run_reactions(&mut self, iter: u64) -> (Vec<ReactionFailure>, usize) {
        self.reaction_ranges.clear();
        let mut reactions = std::mem::take(&mut self.reactions);
        let mut failures = Vec::new();
        let mut skipped = 0usize;
        for (reaction, r) in reactions.iter_mut().enumerate() {
            let now = self.clock.now();
            if !r.breaker.allow(now) {
                skipped += 1;
                self.telemetry.counter_add(scopes::CTR_QUARANTINE_SKIPS, 1);
                continue;
            }
            let marks = self.staged.marks();
            let mut ctx = ReactionCtx {
                snapshot: &r.snapshot,
                slots: &self.slots,
                staged: &mut self.staged,
                tables: &mut self.tables,
                names: &self.names,
                now_ns: now,
            };
            let res: Result<(), AgentError> = match &mut r.imp {
                ReactionImpl::Compiled(vm) => {
                    vm.run(&mut ctx).map(|_| ()).map_err(AgentError::from)
                }
                ReactionImpl::Interpreted(interp) => {
                    interp.run(&mut ctx).map(|_| ()).map_err(AgentError::from)
                }
                ReactionImpl::Native(imp) => imp.react(&mut ctx).map_err(AgentError::from),
            };
            match res {
                Ok(()) => {
                    // Breaker success is recorded only once this reaction's
                    // staged ops actually commit (in dialogue_iteration):
                    // a reaction that poisons the apply phase must not
                    // reset its own failure count by merely running.
                    let end = self.staged.marks();
                    self.reaction_ranges.push(ReactionRange {
                        reaction,
                        table_ops: marks.table_ops..end.table_ops,
                        port_ops: marks.port_ops..end.port_ops,
                    });
                }
                Err(e) => {
                    // Contain the failure: discard only this reaction's
                    // partial staging and advance its breaker.
                    self.staged.truncate(marks);
                    let now = self.clock.now();
                    let tripped = r.breaker.on_failure(now);
                    if tripped {
                        self.note_quarantine(now);
                    }
                    let err = e.in_phase(AgentPhase::React).at_iteration(iter);
                    failures.push(ReactionFailure {
                        name: r.name.clone(),
                        error: err.to_string(),
                        quarantined: tripped,
                    });
                }
            }
        }
        self.reactions = reactions;
        // Degraded-mode gauges: only recorded once a quarantine has ever
        // happened, so fault-free traces stay byte-identical.
        if self.had_quarantine {
            let now = self.clock.now();
            let q = self
                .reactions
                .iter()
                .filter(|r| r.breaker.is_quarantined(now))
                .count();
            self.telemetry
                .gauge_set(scopes::GAUGE_QUARANTINED, q as i128);
            self.telemetry
                .gauge_set(scopes::GAUGE_DEGRADED, (q > 0) as i128);
        }
        (failures, skipped)
    }

    /// A breaker just tripped open.
    fn note_quarantine(&mut self, now: Nanos) {
        self.had_quarantine = true;
        if self.telemetry.is_enabled() {
            self.telemetry.instant(Scope::Agent, "quarantine", now, &[]);
        }
    }

    /// Transactional wrapper around one apply attempt: checkpoint, try,
    /// roll back + retry on transient failure, roll back + drop the
    /// staged intent on permanent failure (all-or-nothing).
    fn apply_staged(
        &mut self,
        retries: &mut u32,
        rollbacks: &mut u32,
    ) -> Result<(Nanos, Nanos), AgentError> {
        if self.staged.is_empty() {
            return Ok((0, 0));
        }
        self.begin_txn()?;
        let mut attempt = 0u32;
        let result = loop {
            match self.apply_staged_once(retries) {
                Ok(ns) => {
                    self.staged.clear();
                    break Ok(ns);
                }
                Err(fail) => {
                    if fail.err.is_crash() {
                        // The process died mid-apply. A dead agent cannot
                        // roll back: the device is left torn exactly as the
                        // crash found it (some pipes committed, some not),
                        // which is the state a successor must reconcile.
                        break Err(fail.err);
                    }
                    self.rollback();
                    *rollbacks += 1;
                    self.telemetry.counter_add(scopes::CTR_ROLLBACKS, 1);
                    if fail.err.is_transient() && self.retry.allows(attempt) {
                        let backoff = self.retry.backoff(attempt);
                        attempt += 1;
                        *retries += 1;
                        self.telemetry.counter_add(scopes::CTR_RETRIES, 1);
                        self.telemetry
                            .hist_record(scopes::HIST_RETRY_BACKOFF_NS, backoff);
                        self.clock.advance(backoff);
                        continue;
                    }
                    // Permanent: blame the reaction whose staged op failed
                    // (if attributable), drop the intent, surface the error.
                    self.blame_apply_failure(fail.blame);
                    self.staged.clear();
                    break Err(fail.err);
                }
            }
        };
        self.discard_checkpoints();
        result
    }

    /// Open the transaction: checkpoint everything one apply attempt can
    /// touch on the device — the master, every staged-op table and all
    /// extra init tables — and note the agent state and port states it is
    /// about to replace. A failure part-way hands back the checkpoints
    /// already taken: a mark left behind keeps its table journalling.
    fn begin_txn(&mut self) -> Result<(), AgentError> {
        let txn = &mut self.txn;
        txn.ports.clear();
        txn.slots.clear();
        txn.logical.clear();
        // All pipes hold equal vv between iterations.
        txn.vv = self.vv[0];
        let committed = |(slot, _): &(usize, i128)| (*slot, self.slots[*slot].value);
        txn.slots
            .extend(self.staged.slot_writes.iter().map(committed));

        let staged_tables = self.staged.table_ops.iter();
        let staged_tables = staged_tables.map(|op| self.tables[op.table()].table_id);
        let init_tables = self.extra_inits.iter().map(|ei| ei.table_id);
        txn.touched.clear();
        txn.touched.push(self.master_table);
        txn.touched.extend(staged_tables.chain(init_tables));
        txn.touched.sort_unstable();
        txn.touched.dedup();

        let opened = self.open_checkpoints();
        if opened.is_err() {
            self.discard_checkpoints();
        }
        opened.map_err(AgentError::from)
    }

    /// Checkpoint every touched table, then read the prior state of every
    /// port about to change. Stops at the first failure with the
    /// checkpoints taken so far in `txn.tables`.
    fn open_checkpoints(&mut self) -> Result<(), DriverError> {
        debug_assert!(self.txn.tables.is_empty(), "the last transaction closed");
        for table in &self.txn.touched {
            let token = self.driver.table_checkpoint(*table)?;
            self.txn.tables.push((*table, token));
        }
        for (port, _) in &self.staged.port_ops {
            if let Some(up) = self.driver.port_up(*port)? {
                self.txn.ports.push((*port, up));
            }
        }
        Ok(())
    }

    /// Close the transaction's device side: drop its checkpoints.
    fn discard_checkpoints(&mut self) {
        for (_, token) in self.txn.tables.drain(..) {
            self.driver.checkpoint_discard(token);
        }
    }

    /// Take back a failed apply attempt. The device side runs with faults
    /// suspended: recovery replays the driver's journaled shadow over a
    /// known-good path. The agent side replays its own undo records,
    /// newest first. Staged ops are left intact so the caller can retry or
    /// drop them, and the checkpoints stay open for the next attempt.
    fn rollback(&mut self) {
        self.driver.suspend_faults();
        for (tid, token) in &self.txn.tables {
            let res = self.driver.table_restore(*tid, *token);
            debug_assert!(
                res.is_ok(),
                "invariant: restoring a live checkpoint succeeds"
            );
            let _ = res;
        }
        for (port, up) in &self.txn.ports {
            let res = self.driver.port_set_up(*port, *up);
            debug_assert!(res.is_ok(), "invariant: restoring a known port succeeds");
            let _ = res;
        }
        self.driver.resume_faults();
        self.driver.spend_rollback(self.txn.tables.len());
        for undo in self.txn.logical.drain(..).rev() {
            undo.revert(&mut self.tables, &mut self.staged.table_ops);
        }
        for i in (0..self.txn.slots.len()).rev() {
            let (slot, committed) = self.txn.slots[i];
            self.slots[slot].value = committed;
            self.write_slot_cell(slot, committed);
        }
        self.vv.fill(self.txn.vv);
        self.master_data[0] = Value::new(u128::from(self.txn.vv), 1);
    }

    /// Advance the breaker of the reaction whose staged op caused a
    /// permanent apply failure, quarantining a reaction that keeps
    /// poisoning the update phase while the rest of the loop stays live.
    fn blame_apply_failure(&mut self, blame: Blame) {
        let hit = |rr: &ReactionRange| match blame {
            Blame::TableOp(i) => rr.table_ops.contains(&i),
            Blame::PortOp(i) => rr.port_ops.contains(&i),
            Blame::None => false,
        };
        let Some(reaction) = self.reaction_ranges.iter().find(|rr| hit(rr)) else {
            return;
        };
        let reaction = reaction.reaction;
        let now = self.clock.now();
        if self.reactions[reaction].breaker.on_failure(now) {
            self.note_quarantine(now);
        }
    }

    /// One attempt at the prepare/commit/mirror sequence. Returns
    /// `(update_ns, sync_ns)`, also recorded as `update`/`sync` spans.
    /// Does not consume `self.staged` (the transactional wrapper does).
    fn apply_staged_once(&mut self, retries: &mut u32) -> Result<(Nanos, Nanos), ApplyFailure> {
        let m = self.metrics;
        // All pipes hold equal vv between iterations; pipe 0 names the
        // shared shadow copy.
        let shadow = self.vv[0] ^ 1;
        let t_update = self.clock.now();
        self.telemetry.begin(Scope::Agent, m.span_update, t_update);
        if let Err(f) = self.apply_prepare_commit(shadow, retries) {
            let now = self.clock.now();
            self.telemetry.end(Scope::Agent, m.span_update, now);
            return Err(f.in_phase(AgentPhase::Update));
        }
        let t_sync = self.clock.now();
        self.telemetry.end(Scope::Agent, m.span_update, t_sync);
        self.telemetry.begin(Scope::Agent, m.span_sync, t_sync);
        let old = shadow ^ 1;
        // Mirror, then drain pipelined driver work before declaring the
        // iteration synced (a no-op for the in-process driver). No in-place
        // retry of the flush: a failed flush discards the remote batch, so
        // recovery must replay the whole attempt via the transactional
        // rollback, not re-flush emptiness.
        let mirrored = self.apply_mirror(old, retries).and_then(|()| {
            let flushed = self.driver.flush();
            flushed.map_err(|e| ApplyFailure::unblamed(e.into()))
        });
        if let Err(f) = mirrored {
            let now = self.clock.now();
            self.telemetry.end(Scope::Agent, m.span_sync, now);
            return Err(f.in_phase(AgentPhase::Sync));
        }
        let t_done = self.clock.now();
        self.telemetry.end(Scope::Agent, m.span_sync, t_done);
        Ok((t_sync - t_update, t_done - t_sync))
    }

    /// Prepare staged updates on the shadow copy, then commit by flipping
    /// vv in the master init table (plus the atomic rider ops).
    fn apply_prepare_commit(&mut self, shadow: u8, retries: &mut u32) -> Result<(), ApplyFailure> {
        // ── prepare ──
        self.apply_table_ops(shadow, false, retries)?;
        for w in 0..self.staged.slot_writes.len() {
            let (slot, v) = self.staged.slot_writes[w];
            // Master slots commit with the vv flip, below.
            if self.slots[slot].init_table > 0 {
                self.write_slot_cell(slot, v);
            }
        }
        self.write_touched_extra_inits(shadow, retries)
            .map_err(ApplyFailure::unblamed)?;

        // ── commit ──
        // Fold staged slot writes into the committed view and the master
        // data vector: they become visible with the vv-flip `set_default`.
        for w in 0..self.staged.slot_writes.len() {
            let (slot, v) = self.staged.slot_writes[w];
            self.slots[slot].value = v;
            if self.slots[slot].init_table == 0 {
                self.write_slot_cell(slot, v);
            }
        }
        // Flip pipe-by-pipe: every pipe's shadow copy was fully prepared
        // above (table writes fan out), so each per-pipe flip moves that
        // pipe atomically from the old config to the complete new one. A
        // mid-sequence failure leaves self.vv mixed; the transactional
        // rollback restores both the agent vv vector and every pipe's
        // master default from the table checkpoint.
        for pipe in 0..self.vv.len() as u16 {
            self.vv[pipe as usize] = shadow;
            self.write_master_pipe(pipe, retries)
                .map_err(ApplyFailure::unblamed)?;
        }
        // Port ops and default-action changes are single atomic driver ops;
        // they ride along with the commit point.
        let mut sub = submitter!(self, retries);
        for (i, (port, up)) in self.staged.port_ops.iter().enumerate() {
            let set = DriverOp::PortSetUp {
                port: *port,
                up: *up,
            };
            let blame = Blame::PortOp(i);
            sub.submit(set).map_err(|err| ApplyFailure { err, blame })?;
        }
        for (i, op) in self.staged.table_ops.iter().enumerate() {
            if let StagedOp::SetDefault {
                table,
                action,
                action_data,
            } = op
            {
                let set = self.tables[*table].set_default_op(*action, action_data);
                let blame = Blame::TableOp(i);
                sub.submit(set).map_err(|err| ApplyFailure { err, blame })?;
            }
        }
        Ok(())
    }

    /// Mirror the committed state onto the old primary copy.
    fn apply_mirror(&mut self, old: u8, retries: &mut u32) -> Result<(), ApplyFailure> {
        self.apply_table_ops(old, true, retries)?;
        self.write_touched_extra_inits(old, retries)
            .map_err(ApplyFailure::unblamed)
    }

    /// Apply staged table ops, in place, to one vv copy.
    fn apply_table_ops(
        &mut self,
        copy: u8,
        mirror: bool,
        retries: &mut u32,
    ) -> Result<(), ApplyFailure> {
        let mut sub = submitter!(self, retries);
        for (i, op) in self.staged.table_ops.iter_mut().enumerate() {
            let lt = &mut self.tables[op.table()];
            let info = &self.iface.tables[lt.info];
            let undo = &mut self.txn.logical;
            lt.apply(info, (i, op), copy, mirror, &mut sub, undo)
                .map_err(|err| ApplyFailure {
                    err,
                    blame: Blame::TableOp(i),
                })?;
        }
        Ok(())
    }

    /// Set slot `slot`'s data cell, in the master or an extra init table's
    /// data vector, to hold `value`.
    fn write_slot_cell(&mut self, slot: usize, value: i128) {
        let slot = &self.slots[slot];
        let data = match slot.init_table {
            0 => &mut self.master_data,
            t => &mut self.extra_inits[t - 1].data,
        };
        data[slot.param_idx] = slot.cell(value);
    }

    /// Write each extra init table the staged slot writes touch — once, in
    /// first-write order — from its current data to its `copy` entry.
    fn write_touched_extra_inits(&mut self, copy: u8, retries: &mut u32) -> Result<(), AgentError> {
        let table_of =
            |agent: &Self, w: usize| agent.slots[agent.staged.slot_writes[w].0].init_table;
        for w in 0..self.staged.slot_writes.len() {
            let t = table_of(self, w);
            if t == 0 || (0..w).any(|earlier| table_of(self, earlier) == t) {
                continue;
            }
            let ei = &self.extra_inits[t - 1];
            let op = DriverOp::TableMod {
                table: ei.table_id,
                handle: ei.handles[copy as usize],
                action: ei.action,
                data: ei.data.clone(),
            };
            self.retry_submit(retries, op)?;
        }
        Ok(())
    }
}
