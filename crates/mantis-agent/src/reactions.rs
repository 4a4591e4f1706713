//! The registered reactions: how a body becomes an executor, and how one
//! iteration's run of them is contained.
//!
//! [`Reactions`] owns every registration — its measurement plan and
//! snapshot, its executor (the bytecode VM for a C-like body, or a native
//! closure) and its circuit breaker — plus the record of which reaction staged which
//! ops this iteration, so a failure in the update phase can be charged to
//! the breaker of the reaction that staged the failing op. A failing
//! reaction is contained (its partial staging discarded, the iteration
//! continues) and quarantined after `threshold` consecutive failures, with
//! a half-open probe after the cooldown.

use crate::ctx::{bind_name, CtxError, ReactionCtx};
use crate::health::Health;
use crate::isolation::Slot;
use crate::logical::{LogicalTable, Staged};
use crate::measure::{MeasurePlan, Snapshot};
use crate::report::{AgentError, AgentErrorKind, AgentPhase};
use crate::txn::Blame;
use mantis_faults::{BreakerConfig, BreakerState, CircuitBreaker};
use mantis_telemetry::Scope;
use p4r_compiler::iface::ControlInterface;
use p4r_compiler::Compiled;
use p4r_lang::creact::Body;
use reaction_interp::{CompiledReaction, ReactionSlots};
use rmt_sim::Nanos;
use std::collections::HashMap;
use std::ops::Range;

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
/// compiled C; used by the heavy use-case workloads. What it returns is the
/// agent's own error type, so a reaction that wraps an executor of its own
/// (the differential harnesses register the reference tree-walker this
/// way) reports that executor's errors as the agent would have.
pub trait NativeReaction {
    fn react(&mut self, ctx: &mut ReactionCtx<'_>) -> Result<(), AgentError>;
}

impl<F> NativeReaction for F
where
    F: FnMut(&mut ReactionCtx<'_>) -> Result<(), CtxError>,
{
    fn react(&mut self, ctx: &mut ReactionCtx<'_>) -> Result<(), AgentError> {
        self(ctx).map_err(AgentError::from)
    }
}

// The VM sits inline: a handful of registrations, and the loop reaches its
// program without a pointer hop.
#[allow(clippy::large_enum_variant)]
enum ReactionImpl {
    /// Slot-resolved bytecode: how a C-like body runs.
    Compiled(CompiledReaction),
    Native(Box<dyn NativeReaction>),
}

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
struct ReactionRange {
    reaction: usize,
    table_ops: Range<usize>,
    port_ops: Range<usize>,
}

pub(crate) struct Reactions {
    registered: Vec<RegisteredReaction>,
    /// Pre-parsed reaction bodies and static slots from the compiler IR,
    /// keyed by reaction name: registration never re-parses `body_src`.
    ir_bodies: HashMap<String, (Body, ReactionSlots)>,
    /// What each reaction that ran this iteration staged.
    ranges: Vec<ReactionRange>,
    breaker_cfg: BreakerConfig,
    /// Set once any breaker ever trips; gates the degraded-mode gauges so
    /// fault-free runs record nothing extra (telemetry determinism).
    had_quarantine: bool,
}

impl Reactions {
    pub(crate) fn new(compiled: &Compiled) -> Self {
        let reactions = compiled.ir.reactions.iter();
        Reactions {
            registered: Vec::new(),
            ir_bodies: reactions
                .map(|r| (r.name.clone(), (r.body.clone(), r.statics.clone())))
                .collect(),
            ranges: Vec::new(),
            breaker_cfg: BreakerConfig::default(),
            had_quarantine: false,
        }
    }

    // -- registration ----------------------------------------------------------

    /// Register reaction `name` to run its C-like body: compile it to
    /// bytecode, bind it, install it.
    pub(crate) fn register_interpreted(
        &mut self,
        name: &str,
        iface: &ControlInterface,
        (slots, tables): (&[Slot], &[LogicalTable]),
        h: &Health,
    ) -> Result<(), AgentError> {
        let lowered = lower(name, iface, h)?;
        // (The compiler lowers every reaction it binds, or fails.)
        let Some((body, statics)) = self.ir_bodies.get(name) else {
            return Err(AgentErrorKind::NotCompiledWithReaction(name.to_string()).into());
        };
        // Compilation is total over what the front end accepts; what is
        // left to fail is a body too large for the bytecode's indices.
        let mut vm = CompiledReaction::compile_with_slots(body, statics).map_err(|error| {
            let reaction = name.to_string();
            AgentErrorKind::Compile { reaction, error }
        })?;
        // The VM meets its names here, once: every argument, malleable,
        // table, method and builtin the body mentions becomes an id of
        // this agent's.
        vm.bind(|n| bind_name(n, &lowered.1, slots, tables));
        self.install(name, lowered, ReactionImpl::Compiled(vm));
        Ok(())
    }

    pub(crate) fn register_native(
        &mut self,
        name: &str,
        imp: Box<dyn NativeReaction>,
        iface: &ControlInterface,
        h: &Health,
    ) -> Result<(), AgentError> {
        let lowered = lower(name, iface, h)?;
        self.install(name, lowered, ReactionImpl::Native(imp));
        Ok(())
    }

    fn find(&mut self, name: &str) -> Option<&mut RegisteredReaction> {
        self.registered.iter_mut().find(|r| r.name == name)
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
        match self.find(name) {
            Some(r) => *r = new,
            None => self.registered.push(new),
        }
    }

    pub(crate) fn swap(
        &mut self,
        name: &str,
        imp: Box<dyn NativeReaction>,
    ) -> Result<(), AgentError> {
        let breaker = CircuitBreaker::new(self.breaker_cfg);
        let Some(r) = self.find(name) else {
            return Err(AgentErrorKind::UnknownReaction(name.to_string()).into());
        };
        (r.imp, r.breaker) = (ReactionImpl::Native(imp), breaker);
        Ok(())
    }

    /// Forget every registration (the process that held them died).
    pub(crate) fn clear(&mut self) {
        self.registered.clear();
        self.ranges.clear();
    }

    pub(crate) fn len(&self) -> usize {
        self.registered.len()
    }

    pub(crate) fn set_step_limits(&mut self, limit: u64) {
        for r in &mut self.registered {
            if let ReactionImpl::Compiled(vm) = &mut r.imp {
                vm.step_limit = limit;
            }
        }
    }

    /// `(name, bytecode ops dispatched)` of every VM-compiled reaction.
    pub(crate) fn vm_dispatch(&self) -> impl Iterator<Item = (&str, u64)> {
        self.registered.iter().filter_map(|r| match &r.imp {
            ReactionImpl::Compiled(vm) => Some((r.name.as_str(), vm.dispatch_count())),
            _ => None,
        })
    }

    // -- breakers -----------------------------------------------------------------

    pub(crate) fn set_breaker_config(&mut self, cfg: BreakerConfig) {
        self.breaker_cfg = cfg;
        for r in &mut self.registered {
            r.breaker = CircuitBreaker::new(cfg);
        }
    }

    pub(crate) fn breaker_config(&self) -> BreakerConfig {
        self.breaker_cfg
    }

    pub(crate) fn breaker_state(&self, name: &str) -> Option<BreakerState> {
        let r = self.registered.iter().find(|r| r.name == name);
        r.map(|r| r.breaker.state())
    }

    /// Reactions whose breaker is open with the cooldown not yet elapsed.
    pub(crate) fn quarantined(&self, now: Nanos) -> impl Iterator<Item = &str> {
        let open = self
            .registered
            .iter()
            .filter(move |r| r.breaker.is_quarantined(now));
        open.map(|r| r.name.as_str())
    }

    // -- one iteration -----------------------------------------------------------

    /// Poll every registered reaction's arguments from measurement copy
    /// `frozen`, each by its plan into its own snapshot.
    pub(crate) fn measure(&mut self, frozen: u8, h: &mut Health) -> Result<(), AgentError> {
        for r in &mut self.registered {
            r.snapshot.refill(&r.plan, frozen, h)?;
        }
        Ok(())
    }

    /// Nothing a reaction staged is pending (a new staging round starts).
    pub(crate) fn clear_ranges(&mut self) {
        self.ranges.clear();
    }

    /// Run every registered reaction that its breaker allows, each against
    /// its own snapshot, staging into `staged`. Failures are contained:
    /// the failing reaction's partial staging is discarded and its breaker
    /// advances. Returns the contained failures and the number of
    /// quarantine skips.
    pub(crate) fn run(
        &mut self,
        iter: u64,
        slots: &[Slot],
        staged: &mut Staged,
        tables: &mut [LogicalTable],
        h: &Health,
    ) -> (Vec<ReactionFailure>, usize) {
        let m = h.metrics();
        self.ranges.clear();
        let mut failures = Vec::new();
        let mut skipped = 0usize;
        for (reaction, r) in self.registered.iter_mut().enumerate() {
            let now = h.now();
            if !r.breaker.allow(now) {
                skipped += 1;
                h.telemetry().add(m.quarantine_skips, 1);
                continue;
            }
            let marks = staged.marks();
            let mut ctx = ReactionCtx {
                snapshot: &r.snapshot,
                slots,
                staged: &mut *staged,
                tables: &mut *tables,
                now_ns: now,
            };
            let res: Result<(), AgentError> = match &mut r.imp {
                ReactionImpl::Compiled(vm) => {
                    vm.run(&mut ctx).map(|_| ()).map_err(AgentError::from)
                }
                ReactionImpl::Native(imp) => imp.react(&mut ctx),
            };
            match res {
                Ok(()) => {
                    // Breaker success is recorded only once this reaction's
                    // staged ops actually commit (`committed`): a reaction
                    // that poisons the apply phase must not reset its own
                    // failure count by merely running.
                    let end = staged.marks();
                    self.ranges.push(ReactionRange {
                        reaction,
                        table_ops: marks.table_ops..end.table_ops,
                        port_ops: marks.port_ops..end.port_ops,
                    });
                }
                Err(e) => {
                    // Contain the failure: discard only this reaction's
                    // partial staging and advance its breaker.
                    staged.truncate(marks);
                    let now = h.now();
                    let tripped = r.breaker.on_failure(now);
                    if tripped {
                        note_quarantine(&mut self.had_quarantine, now, h);
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
        // Degraded-mode gauges: only recorded once a quarantine has ever
        // happened, so fault-free traces stay byte-identical.
        if self.had_quarantine {
            let q = self.quarantined(h.now()).count();
            let tel = h.telemetry();
            tel.set(m.quarantined, q as i128);
            tel.set(m.degraded, (q > 0) as i128);
        }
        (failures, skipped)
    }

    /// The update committed: the reactions that ran this iteration get
    /// their breaker success (a half-open probe closes here).
    pub(crate) fn committed(&mut self) {
        for rr in self.ranges.drain(..) {
            self.registered[rr.reaction].breaker.on_success();
        }
    }

    /// Advance the breaker of the reaction whose staged op caused a
    /// permanent apply failure, quarantining a reaction that keeps
    /// poisoning the update phase while the rest of the loop stays live.
    pub(crate) fn blame(&mut self, blame: Blame, h: &Health) {
        let hit = |rr: &ReactionRange| match blame {
            Blame::TableOp(i) => rr.table_ops.contains(&i),
            Blame::PortOp(i) => rr.port_ops.contains(&i),
            Blame::None => false,
        };
        let Some(reaction) = self.ranges.iter().find(|rr| hit(rr)) else {
            return;
        };
        let reaction = reaction.reaction;
        let now = h.now();
        if self.registered[reaction].breaker.on_failure(now) {
            note_quarantine(&mut self.had_quarantine, now, h);
        }
    }
}

/// A breaker just tripped open.
fn note_quarantine(had_quarantine: &mut bool, now: Nanos, h: &Health) {
    *had_quarantine = true;
    h.telemetry()
        .mark(Scope::Agent, h.metrics().quarantine, now, &[]);
}

/// Lower the measurement poll of the program's reaction `name`.
fn lower(
    name: &str,
    iface: &ControlInterface,
    h: &Health,
) -> Result<(MeasurePlan, Snapshot), AgentError> {
    let binding = iface.reaction(name).ok_or_else(|| {
        AgentError::from(AgentErrorKind::NotCompiledWithReaction(name.to_string()))
    })?;
    Ok(MeasurePlan::lower(binding, h.driver())?)
}
