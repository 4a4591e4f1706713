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
//! [`MantisAgent`] is that loop over components that each own their state
//! and are the only writers of it (the crate docs list them, DESIGN.md §16
//! maps them). How the loop tolerates faults (DESIGN.md §8) is told where
//! it is done.

use crate::costmodel::CostModel;
use crate::ctx::{slot_named, table_named, CtxError, ReactionCtx};
use crate::driver::LocalDriver;
use crate::driver_api::DriverApi;
use crate::health::Health;
use crate::isolation::Isolation;
use crate::logical::{fingerprint, LogicalTable, Staged};
use crate::measure::Snapshot;
use crate::reactions::Reactions;
use crate::recovery::{bring_up, BringUp};
use crate::txn::Txn;
use mantis_faults::{BreakerConfig, BreakerState, FaultPlan, RetryPolicy};
use mantis_telemetry::Telemetry;
use p4r_compiler::iface::ControlInterface;
use p4r_compiler::Compiled;
use rmt_sim::{Clock, Nanos, SharedSwitch};
use std::fmt;
use std::sync::Arc;

pub use crate::reactions::{NativeReaction, ReactionFailure};
pub use crate::report::{AgentError, AgentErrorKind, AgentPhase, AgentStats, IterationReport};

/// The Mantis control-plane agent.
pub struct MantisAgent {
    pub iface: ControlInterface,
    health: Health,
    isolation: Isolation,
    /// Logical tables by table id, each with its resolved driver plan.
    tables: Vec<LogicalTable>,
    reactions: Reactions,
    staged: Staged,
    txn: Txn,
    last_report: IterationReport,
}

impl fmt::Debug for MantisAgent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MantisAgent")
            .field("vv", &self.vv_per_pipe())
            .field("mv", &self.mv())
            .field("reactions", &self.reactions.len())
            .field("stats", &self.stats())
            .finish()
    }
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
    pub fn with_driver(compiled: &Compiled, driver: Box<dyn DriverApi>) -> Self {
        let iface = compiled.iface.clone();
        let health = Health::new(driver);
        let isolation = Isolation::new(&iface, health.driver());
        // One logical table per user-facing (non-init) table.
        let user_tables = iface.tables.iter();
        let user_tables = user_tables.filter(|t| !t.name.starts_with("p4r_init"));
        let tables: Vec<LogicalTable> = user_tables
            .map(|t| LogicalTable::new(t, health.driver().spec()))
            .collect();
        MantisAgent {
            iface,
            health,
            isolation,
            tables,
            reactions: Reactions::new(compiled),
            staged: Staged::default(),
            txn: Txn::default(),
            last_report: IterationReport::default(),
        }
    }

    /// Share a telemetry handle (e.g. the testbed-wide one). The driver
    /// is re-pointed too. Counters accumulated so far are not migrated.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.health.set_telemetry(telemetry);
    }

    /// The registry this agent's stack records into.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.health.telemetry()
    }

    /// Cumulative stats of this agent — its own count, whoever else shares
    /// its registry (the `agent.iterations` / `agent.busy_ns` counters
    /// there are the sum over the agents that do).
    pub fn stats(&self) -> AgentStats {
        AgentStats {
            iterations: self.health.iterations,
            busy_ns: self.health.busy_ns,
            last: self.last_report.clone(),
        }
    }

    /// Total bytecode ops dispatched across all VM-compiled reactions.
    pub fn vm_dispatch_total(&self) -> u64 {
        self.reactions.vm_dispatch().map(|(_, n)| n).sum()
    }

    /// Publish per-reaction execution-engine stats as telemetry gauges
    /// (`reaction.<name>.vm_dispatch`). Explicit-call-only, so existing
    /// telemetry traces are unaffected unless a caller opts in.
    pub fn publish_reaction_stats(&self) {
        let tel = self.telemetry();
        if !tel.is_enabled() {
            return;
        }
        for (name, dispatched) in self.reactions.vm_dispatch() {
            tel.gauge_set(&format!("reaction.{name}.vm_dispatch"), dispatched as i128);
        }
    }

    pub fn clock(&self) -> &Clock {
        self.health.clock()
    }

    pub fn driver(&self) -> &dyn DriverApi {
        self.health.driver()
    }

    /// The driver, for out-of-band use. An op submitted through it records
    /// into this agent's registry like any other.
    pub fn driver_mut(&mut self) -> &mut dyn DriverApi {
        self.health.driver_mut()
    }

    /// Committed config version (pipe 0's copy; all pipes agree between
    /// iterations).
    pub fn vv(&self) -> u8 {
        self.isolation.vv()
    }

    /// Per-pipe config versions.
    pub fn vv_per_pipe(&self) -> &[u8] {
        self.isolation.vv_per_pipe()
    }

    pub fn mv(&self) -> u8 {
        self.isolation.mv()
    }

    /// Committed value of a malleable (value: raw; field: alt index).
    pub fn slot(&self, name: &str) -> Option<i128> {
        let slots = self.isolation.slots();
        Some(slots[slot_named(slots, name)?].value())
    }

    /// Number of logical entries in a malleable table.
    pub fn logical_len(&self, table: &str) -> Option<usize> {
        Some(self.tables[table_named(&self.tables, table)?].len())
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
        fingerprint(self.isolation.slots(), &self.tables)
    }

    /// [`MantisAgent::config_fingerprint`] restricted to logical table
    /// entries — the configuration content alone. Slot values are
    /// additionally excluded because they mirror *measurements*: two runs
    /// with different fault timing legitimately diverge on them while
    /// steering packets through identical tables. The cross-run
    /// convergence oracle compares this against a fault-free baseline.
    pub fn entry_fingerprint(&self) -> u64 {
        fingerprint(&[], &self.tables)
    }

    /// Device-side config-atomicity oracle: read every pipe's master init
    /// default back and check the pipes agree (between dialogue
    /// iterations every pipe must be entirely-old xor entirely-new, and
    /// post-quiescence they must all be new). Returns a description of
    /// the divergence, naming the pipe, if the invariant is violated.
    /// Reads run with faults suspended so the oracle itself cannot
    /// trigger injected rules.
    pub fn verify_config_atomicity(&mut self) -> Result<(), String> {
        self.isolation.verify_atomicity(&mut self.health)
    }

    // -- fault-tolerance configuration ------------------------------------------

    /// Install a fault plan on the driver (driver-op rules only; link
    /// flaps are scheduled through `netsim::schedule_link_flaps`).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.health.driver_mut().set_fault_plan(plan);
    }

    /// Declare which fabric switch this agent controls (`None` on a
    /// single-switch testbed). Switch-scoped fault rules match against it.
    pub fn set_fabric_index(&mut self, index: Option<u16>) {
        self.health.driver_mut().set_fabric_index(index);
    }

    pub fn fabric_index(&self) -> Option<u16> {
        self.health.driver().fabric_index()
    }

    /// Replace the retry policy used for driver ops and apply attempts.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.health.policy = policy;
    }

    /// Replace the per-reaction circuit-breaker configuration. Existing
    /// breakers are reset to closed.
    pub fn set_breaker_config(&mut self, cfg: BreakerConfig) {
        self.reactions.set_breaker_config(cfg);
    }

    pub fn breaker_config(&self) -> BreakerConfig {
        self.reactions.breaker_config()
    }

    /// Breaker state of one registered reaction.
    pub fn breaker_state(&self, name: &str) -> Option<BreakerState> {
        self.reactions.breaker_state(name)
    }

    /// Names of reactions currently quarantined (breaker open, cooldown
    /// not yet elapsed).
    pub fn quarantined_reactions(&self) -> Vec<String> {
        let quarantined = self.reactions.quarantined(self.health.now());
        quarantined.map(str::to_string).collect()
    }

    // -- registration ----------------------------------------------------------

    /// Register a reaction to run its C-like body: compiled to bytecode,
    /// bound to this agent's ids, run on the VM. The body and static slots
    /// come pre-parsed from the compiler IR; one too large for the
    /// bytecode's indices is an error naming the reaction.
    pub fn register_interpreted(&mut self, name: &str) -> Result<(), AgentError> {
        let (slots, tables) = (self.isolation.slots(), &self.tables);
        self.reactions
            .register_interpreted(name, &self.iface, (slots, tables), &self.health)
    }

    /// Register every reaction in the program to run its C-like body.
    pub fn register_all_interpreted(&mut self) -> Result<(), AgentError> {
        for i in 0..self.iface.reactions.len() {
            let name = self.iface.reactions[i].name.clone();
            self.register_interpreted(&name)?;
        }
        Ok(())
    }

    /// Always empty: every body the compiler accepts runs on the VM, so
    /// there is no fallback to list. Kept only because `benchmark/` calls
    /// it; ROADMAP item 1(a), the `[benchmark]` PR, removes the call and
    /// with it this accessor.
    pub fn vm_fallbacks(&self) -> &[(String, String)] {
        &[]
    }

    /// Cap the VM step budget of every registered C-like reaction (the fuzz
    /// harness tightens this so runaway generated loops abort quickly).
    pub fn set_reaction_step_limits(&mut self, limit: u64) {
        self.reactions.set_step_limits(limit);
    }

    /// Register a native Rust implementation for a reaction declared in the
    /// program (its args/measurements come from the declaration).
    pub fn register_native(
        &mut self,
        name: &str,
        imp: Box<dyn NativeReaction>,
    ) -> Result<(), AgentError> {
        self.reactions
            .register_native(name, imp, &self.iface, &self.health)
    }

    /// Swap a reaction implementation at runtime (the paper's dynamic
    /// `.so` reload). The reaction's breaker is reset: a reload is the
    /// operator's fix for a quarantined reaction.
    pub fn swap_reaction(
        &mut self,
        name: &str,
        imp: Box<dyn NativeReaction>,
    ) -> Result<(), AgentError> {
        self.reactions.swap(name, imp)
    }

    // -- bring-up ---------------------------------------------------------------

    /// The prologue phase: precompute metadata, install static entries,
    /// initialize init tables, warm the driver memo.
    pub fn prologue(&mut self) -> Result<(), AgentError> {
        self.bring_up(BringUp::Fresh)
    }

    /// Take over a switch that a previous controller already initialised
    /// (controller failover). The original prologue's entries are still
    /// installed on the device, so re-adding them would duplicate; instead
    /// the new controller re-asserts its bookkeeping onto the existing
    /// entries: the master init default is rewritten as an init flip, and
    /// each extra init table's two entries are modified back to this
    /// agent's data. Prologue entries (field-list selectors) are static
    /// and left untouched. Malleable config then re-converges from
    /// live measurements over subsequent iterations: Mantis reactive
    /// state is soft state.
    pub fn adopt(&mut self) -> Result<(), AgentError> {
        self.bring_up(BringUp::TakeOver)
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
    /// 4. static prologue entries (field-list selectors) are read back and
    ///    the missing ones re-installed.
    ///
    /// Idempotent: reconciling a device that needs no repair changes
    /// nothing on it but the wiped user tables, however often it runs.
    /// Runs with faults suspended: recovery itself models the restarted
    /// process's clean first ops.
    pub fn reconcile(&mut self) -> Result<(), AgentError> {
        self.bring_up(BringUp::Reconcile)
    }

    fn bring_up(&mut self, how: BringUp) -> Result<(), AgentError> {
        bring_up(
            how,
            &self.iface,
            &mut self.isolation,
            &mut self.tables,
            &mut self.staged,
            &mut self.reactions,
            &mut self.health,
        )
    }

    /// Run user initialization: stage updates in a closure, then apply them
    /// with the full serializable sequence (no measurement).
    pub fn user_init<F>(&mut self, f: F) -> Result<(), AgentError>
    where
        F: FnOnce(&mut ReactionCtx<'_>) -> Result<(), CtxError>,
    {
        self.reactions.clear_ranges();
        let snapshot = Snapshot::default();
        let mut ctx = ReactionCtx {
            snapshot: &snapshot,
            slots: self.isolation.slots(),
            staged: &mut self.staged,
            tables: &mut self.tables,
            now_ns: self.health.now(),
        };
        if let Err(e) = f(&mut ctx) {
            // Discard partially staged effects: user initialization is
            // all-or-nothing, like a reaction.
            self.staged.clear();
            return Err(AgentError::from(e).in_phase(AgentPhase::UserInit));
        }
        self.apply_staged()
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
        let iter = self.health.iterations;
        let m = self.health.metrics();
        self.health.reset_retries();
        // ── measurement flip: freeze the current working copy ──
        let t0 = self.health.spans(&[], &[m.span_iteration, m.span_measure]);
        let measured = self
            .isolation
            .flip_measure(&mut self.health)
            .and_then(|frozen| self.reactions.measure(frozen, &mut self.health));
        if let Err(e) = measured {
            // A crash means the process died mid-measure. No restore: a
            // dead agent writes nothing, and the device keeps whatever
            // subset of pipes the flip reached. The successor reconciles.
            if !e.is_crash() {
                // Nothing malleable was touched; re-freeze the old copy so
                // the device and agent agree again, then surface the error.
                self.isolation.unflip_measure(&mut self.health);
                self.health.spans(&[m.span_measure, m.span_iteration], &[]);
            }
            return Err(e.in_phase(AgentPhase::Measure).at_iteration(iter));
        }
        // ── run reactions against the frozen snapshot ──
        // Failures are contained: the failing reaction's partial staging
        // is discarded and its breaker advances; the iteration continues
        // with whatever the healthy reactions staged.
        let t_measured = self.health.spans(&[m.span_measure], &[m.span_react]);
        let (reaction_failures, quarantine_skips) = self.reactions.run(
            iter,
            self.isolation.slots(),
            &mut self.staged,
            &mut self.tables,
            &self.health,
        );
        let t_reacted = self.health.spans(&[m.span_react], &[]);

        // ── prepare / commit / mirror (transactional) ──
        let staged_ops = self.staged.table_ops.len();
        let applied = self.apply_staged();
        let t1 = self.health.now();
        let (update_ns, sync_ns) = match applied {
            Ok(v) => v,
            Err(e) => {
                self.health.spans(&[m.span_iteration], &[]);
                return Err(e.in_phase(AgentPhase::Update).at_iteration(iter));
            }
        };
        self.reactions.committed();

        self.last_report = IterationReport {
            duration_ns: t1 - t0,
            measure_ns: t_measured - t0,
            react_ns: t_reacted - t_measured,
            update_ns,
            sync_ns,
            staged_table_ops: staged_ops,
            retries: self.health.retries(),
            rollbacks: self.txn.rollbacks(),
            quarantine_skips,
            reaction_failures: Vec::new(),
        };
        self.health.close_iteration(t1, &self.last_report);
        Ok(IterationReport {
            reaction_failures,
            ..self.last_report.clone()
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
        let start = self.health.now();
        let busy0 = self.health.busy_ns;
        for _ in 0..n {
            self.dialogue_iteration()?;
            self.health.clock().advance(sleep_ns);
        }
        let busy = self.health.busy_ns - busy0;
        let span = self.health.now() - start;
        Ok(if span == 0 {
            1.0
        } else {
            busy as f64 / span as f64
        })
    }

    /// Apply what is staged, as one transaction; `(update_ns, sync_ns)`.
    fn apply_staged(&mut self) -> Result<(Nanos, Nanos), AgentError> {
        self.txn.apply(
            &mut self.staged,
            &mut self.tables,
            &mut self.isolation,
            &mut self.reactions,
            &mut self.health,
        )
    }
}
