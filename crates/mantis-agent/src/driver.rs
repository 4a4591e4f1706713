//! The in-process Mantis driver: carries out [`DriverOp`]s on a switch
//! that lives in this process, accounting virtual-time costs, memoizing
//! repeated operations (§6, "caching/memoization of device
//! instructions"), and exposing the busy window that concurrent legacy
//! control-plane operations queue behind (Fig. 12).
//!
//! [`LocalDriver::submit`] is the one place an op is validated, costed,
//! fault-gated and applied, in that order. Validation comes first because
//! ops also arrive from outside the process (the control plane decodes
//! them off the wire): an id, pipe or token the device does not have is
//! refused before it costs anything. The optional [`FaultInjector`] is
//! consulted *before* the device is touched: an injected failure consumes
//! the op's modeled latency (the transport timed out) but mutates nothing,
//! so a retried op lands exactly as it would have in a fault-free run.
//! Recovery code suspends injection while it replays the driver's software
//! shadow.

use crate::costmodel::CostModel;
use crate::driver_api::{DriverApi, DriverOp, DriverResponse};
use mantis_faults::{FaultInjector, FaultPlan, Injection};
use mantis_telemetry::{scopes, CounterId, DriverOpId, NameId, Scope, Telemetry};
use p4_ast::Value;
use rmt_sim::{
    ActionId, Clock, DataPlaneSpec, DriverError, EntryHandle, KeyField, Nanos, ReadAgg, RegisterId,
    SharedSwitch, TableId,
};
use std::collections::HashMap;
use std::sync::Arc;

/// The op classes the driver accounts separately: each has its own cost
/// rule, fault-plan name, `Scope::Driver` span and `driver.<op>_*` metrics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    TableAdd,
    TableMod,
    TableDel,
    InitFlip,
    SetDefault,
    RegisterRead,
    RegisterWrite,
    PortSet,
    DefaultRead,
    TableDump,
    FieldPoll,
    Rollback,
}

impl Op {
    const COUNT: usize = Op::Rollback as usize + 1;

    /// The name fault plans, errors and telemetry know the op by.
    const fn name(self) -> &'static str {
        match self {
            Op::TableAdd => "table_add",
            Op::TableMod => "table_mod",
            Op::TableDel => "table_del",
            Op::InitFlip => "init_flip",
            Op::SetDefault => "set_default",
            Op::RegisterRead => "register_read",
            Op::RegisterWrite => "register_write",
            Op::PortSet => "port_set",
            Op::DefaultRead => "default_read",
            Op::TableDump => "table_dump",
            Op::FieldPoll => "field_poll",
            Op::Rollback => "rollback",
        }
    }
}

/// Telemetry handles behind everything the driver records. The per-class
/// ones (indexed by `Op as usize`: the span and `driver.<op>_*` metrics,
/// and `fault.<op>_injected`) are each resolved by the first op — the first
/// fault — of their class after the registry changes, so set-up does not
/// pay for classes that never fire; the rest in `set_telemetry`.
#[derive(Debug, Default)]
struct DriverMetrics {
    ops: [DriverOpId; Op::COUNT],
    op_faults: [CounterId; Op::COUNT],
    faults_injected: CounterId,
    fault_injected: NameId,
    injected_failures: CounterId,
}

/// One physical table entry as read back from the device — the unit of
/// the reconcile path's [`DriverOp::TableDump`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EntrySnapshot {
    pub handle: EntryHandle,
    pub key: Vec<KeyField>,
    pub priority: u32,
    pub action: ActionId,
    pub data: Vec<Value>,
}

/// Statistics of driver activity.
#[derive(Clone, Debug, Default)]
pub struct DriverStats {
    pub ops: u64,
    pub busy_ns: Nanos,
    pub table_ops: u64,
    pub register_reads: u64,
    pub field_reads: u64,
    /// Ops that failed with an injected fault.
    pub injected_failures: u64,
}

/// The in-process, cost-accounted driver. Every op applies synchronously;
/// barriers are trivial. This is the paper's deployment shape (agent on
/// the switch CPU), the device end of the control plane, and the reference
/// the remote path is differentially tested against.
#[derive(Debug)]
pub struct LocalDriver {
    cost: CostModel,
    clock: Clock,
    switch: SharedSwitch,
    /// Client-side spec copy so metadata lookups never borrow the switch.
    spec: DataPlaneSpec,
    num_pipes: u16,
    /// Per table, by `TableId`: have its update template and its init-flip
    /// template been computed (§6 memoization)? A first use is cold.
    memo: Vec<[bool; 2]>,
    busy_until: Nanos,
    /// Device-lock critical section of the most recent operation.
    lock_start: Nanos,
    lock_until: Nanos,
    stats: DriverStats,
    /// Where this driver records: the registry of the stack it is part of.
    telemetry: Arc<Telemetry>,
    metrics: DriverMetrics,
    injector: Option<FaultInjector>,
    /// Fabric switch this driver controls (`None` on single-switch
    /// testbeds); fault injectors inherit it so `FaultRule::on_switch`
    /// rules can target one agent of a fabric.
    fabric_index: Option<u16>,
    /// Last successfully read values per register range, served back by a
    /// `StaleRead` injection. Only maintained while an injector is set.
    stale_cache: HashMap<(RegisterId, u32, u32), Vec<Value>>,
}

impl LocalDriver {
    pub fn new(switch: SharedSwitch, cost: CostModel) -> Self {
        let (clock, spec, num_pipes) = {
            let sw = switch.borrow();
            (sw.clock().clone(), sw.spec().clone(), sw.num_pipes())
        };
        LocalDriver {
            cost,
            clock,
            switch,
            memo: vec![[false; 2]; spec.tables.len()],
            spec,
            num_pipes,
            busy_until: 0,
            lock_start: 0,
            lock_until: 0,
            stats: DriverStats::default(),
            telemetry: Telemetry::disabled(),
            metrics: DriverMetrics::default(),
            injector: None,
            fabric_index: None,
            stale_cache: HashMap::new(),
        }
    }

    /// Refuse an op that names a table, action, register, pipe or
    /// checkpoint this device does not have. `Switch` indexes by id
    /// unchecked, and ops reach here from the wire.
    fn validate(&self, op: &DriverOp) -> Result<(), DriverError> {
        let (table, action, reg, pipe) = match *op {
            DriverOp::TableAdd { table, action, .. }
            | DriverOp::TableMod { table, action, .. }
            | DriverOp::SetDefault { table, action, .. } => (Some(table), Some(action), None, None),
            DriverOp::SetDefaultOn {
                pipe,
                table,
                action,
                ..
            } => (Some(table), Some(action), None, Some(pipe)),
            // (A restore's token is the switch's to judge: it knows which
            // checkpoints are live, and of which table.)
            DriverOp::TableDel { table, .. }
            | DriverOp::TableCheckpoint { table }
            | DriverOp::TableRestore { table, .. }
            | DriverOp::TableDump { table } => (Some(table), None, None, None),
            DriverOp::TableDefaultOn { pipe, table } => (Some(table), None, None, Some(pipe)),
            DriverOp::RegisterWrite { reg, .. }
            | DriverOp::RegisterReadRange { reg, .. }
            | DriverOp::RegisterReadAgg { reg, .. } => (None, None, Some(reg), None),
            _ => return Ok(()),
        };
        if let Some(t) = table.filter(|t| t.0 as usize >= self.spec.tables.len()) {
            return Err(DriverError::UnknownTable(format!("#{}", t.0)));
        }
        if let Some(a) = action.filter(|a| a.0 as usize >= self.spec.actions.len()) {
            return Err(DriverError::UnknownAction(format!("#{}", a.0)));
        }
        if let Some(r) = reg.filter(|r| r.0 as usize >= self.spec.registers.len()) {
            return Err(DriverError::UnknownRegister(format!("#{}", r.0)));
        }
        match pipe.filter(|p| *p >= self.num_pipes) {
            Some(p) => Err(DriverError::BadPipe(p)),
            None => Ok(()),
        }
    }

    /// Consult the fault plan for one op addressed at hardware pipe
    /// `pipe` (when `Some`), so pipe-scoped fault rules can target it.
    /// Records `fault.injected` when a decision is made.
    fn inject(&mut self, op: Op, pipe: Option<u16>) -> Option<Injection> {
        let now = self.clock.now();
        let inj = self.injector.as_mut()?.decide_on(op.name(), pipe, now)?;
        let (tel, m) = (&self.telemetry, &mut self.metrics);
        if tel.is_enabled() {
            let id = &mut m.op_faults[op as usize];
            if !tel.owns(*id) {
                let name = format!("fault.{}_injected", op.name());
                *id = tel.register_counter(&name);
            }
            tel.add(m.faults_injected, 1);
            tel.add(*id, 1);
            tel.mark(Scope::Driver, m.fault_injected, now, &[]);
        }
        Some(inj)
    }

    /// An op failed with an injected fault.
    fn count_injected_failure(&mut self) {
        self.stats.injected_failures += 1;
        self.telemetry.add(self.metrics.injected_failures, 1);
    }

    /// Resolve an injection decision against one op, then account it:
    /// `Err(Injected)` for failures (after spending the op's latency — the
    /// transport timed out), a scaled cost for delays. Any other effect
    /// is handed back: only a read has a use for it.
    fn account(
        &mut self,
        op: Op,
        pipe: Option<u16>,
        mut cost: Nanos,
    ) -> Result<Option<Injection>, DriverError> {
        let effect = self.inject(op, pipe);
        match effect {
            Some(Injection::Fail { persistent }) => {
                self.spend(op, cost);
                self.count_injected_failure();
                return Err(DriverError::Injected {
                    op: op.name(),
                    persistent,
                });
            }
            // Process death is instant: no latency is spent, no state
            // mutated. Whether the op "landed" is decided by where the
            // crash point falls in the op sequence, which is exactly what
            // the reconcile path must cope with.
            Some(Injection::Crash) => {
                self.count_injected_failure();
                return Err(DriverError::Crashed { op: op.name() });
            }
            Some(Injection::Delay { factor_milli }) => cost = scale(cost, factor_milli),
            _ => {}
        }
        self.spend(op, cost);
        Ok(effect)
    }

    /// Account one operation of the given duration: the clock advances, and
    /// the busy window extends. `op` names the operation class for
    /// telemetry (span + per-op histogram).
    fn spend(&mut self, op: Op, dur: Nanos) {
        let start = self.clock.now().max(self.busy_until);
        // Saturating: `SpendExternal` carries a duration off the wire.
        let end = start.saturating_add(dur);
        self.clock.advance_to(end);
        self.busy_until = end;
        // Only the PCIe transaction itself holds the device lock; the rest
        // of the operation is driver software time that concurrent legacy
        // clients are not blocked by.
        self.lock_start = start;
        self.lock_until = start.saturating_add(self.cost.device_lock_ns.min(dur));
        self.stats.ops += 1;
        self.stats.busy_ns = self.stats.busy_ns.saturating_add(dur);
        let (tel, id) = (&self.telemetry, &mut self.metrics.ops[op as usize]);
        if tel.is_enabled() {
            if !tel.owns(id.span) {
                *id = tel.register_driver_op(op.name());
            }
            tel.begin(Scope::Driver, id.span, start);
            tel.end(Scope::Driver, id.span, end);
            tel.record_driver_op(id, dur);
        }
    }

    /// First use of template `kind` (0 table update, 1 init flip) of `table`?
    fn cold(&mut self, table: TableId, kind: usize) -> bool {
        !std::mem::replace(&mut self.memo[table.0 as usize][kind], true)
    }

    fn table_op_cost(&mut self, table: TableId) -> Nanos {
        self.stats.table_ops += 1;
        if self.cold(table, 0) {
            self.cost.table_update_cold_ns
        } else {
            self.cost.table_update_ns
        }
    }

    /// The master init table's default is the most frequently updated
    /// object in Mantis (the vv/mv flip), so it gets its own memoized
    /// (cheapest) cost class.
    fn set_default_cost(&mut self, table: TableId, is_init_flip: bool) -> (Op, Nanos) {
        if is_init_flip {
            let cost = if self.cold(table, 1) {
                self.cost.table_update_cold_ns
            } else {
                self.cost.init_update_ns
            };
            (Op::InitFlip, cost)
        } else {
            (Op::SetDefault, self.table_op_cost(table))
        }
    }

    /// Batched range read of a register array, into `spare`'s allocation.
    /// Fallible: the transport can fail, and injected
    /// `StaleRead`/`CorruptRead` effects distort the returned values without
    /// failing the op (measurement noise, not a retryable error).
    fn read_range(
        &mut self,
        reg: RegisterId,
        lo: u32,
        hi: u32,
        spare: &mut Vec<Value>,
    ) -> Result<Vec<Value>, DriverError> {
        let width = self.spec.register(reg).width;
        let width_bytes = usize::from(width).div_ceil(8);
        let n = hi.saturating_sub(lo) as usize + 1;
        // One logical read touches every pipe's copy: the driver DMAs
        // each pipe's range and aggregates in software (RBFRT-style), so
        // the PCIe cost scales with `num_pipes` (identity at 1).
        let cost = self
            .cost
            .register_read(n * width_bytes * usize::from(self.num_pipes));
        self.stats.register_reads += 1;
        let effect = self.account(Op::RegisterRead, None, cost)?;
        if let Some(Injection::Stale) = effect {
            // Serve the previous snapshot of this range (zeros if it
            // was never read): a checkpoint that missed the sync.
            let cached = self.stale_cache.get(&(reg, lo, hi)).cloned();
            return Ok(cached.unwrap_or_else(|| vec![Value::zero(width); n]));
        }
        let mut vals = std::mem::take(spare);
        let sw = self.switch.borrow();
        sw.register_read_agg_into(reg, lo, hi, ReadAgg::Sum, &mut vals);
        if let Some(Injection::Corrupt { xor }) = effect {
            for v in &mut vals {
                *v = Value::new(v.bits() ^ u128::from(xor), width);
            }
        } else if self.injector.is_some() {
            self.stale_cache.insert((reg, lo, hi), vals.clone());
        }
        Ok(vals)
    }
}

/// Scale a cost by an integer milli-factor (3000 = ×3).
fn scale(cost: Nanos, factor_milli: u32) -> Nanos {
    (u128::from(cost) * u128::from(factor_milli) / 1_000) as Nanos
}

impl DriverApi for LocalDriver {
    fn spec(&self) -> &DataPlaneSpec {
        &self.spec
    }

    fn num_pipes(&self) -> u16 {
        self.num_pipes
    }

    fn cost(&self) -> &CostModel {
        &self.cost
    }

    fn clock(&self) -> &Clock {
        &self.clock
    }

    fn submit_reusing(
        &mut self,
        op: &DriverOp,
        spare: &mut Vec<Value>,
    ) -> Result<DriverResponse, DriverError> {
        self.validate(op)?;
        Ok(match *op {
            DriverOp::TableAdd {
                table,
                ref key,
                priority,
                action,
                ref data,
            } => {
                let cost = self.table_op_cost(table);
                self.account(Op::TableAdd, None, cost)?;
                let mut sw = self.switch.borrow_mut();
                DriverResponse::Handle(sw.table_add(table, key.clone(), priority, action, data)?)
            }
            DriverOp::TableMod {
                table,
                handle,
                action,
                ref data,
            } => {
                let cost = self.table_op_cost(table);
                self.account(Op::TableMod, None, cost)?;
                let mut sw = self.switch.borrow_mut();
                sw.table_mod(table, handle, action, data)?;
                DriverResponse::Ok
            }
            DriverOp::TableDel { table, handle } => {
                let cost = self.table_op_cost(table);
                self.account(Op::TableDel, None, cost)?;
                self.switch.borrow_mut().table_del(table, handle)?;
                DriverResponse::Ok
            }
            DriverOp::SetDefault {
                table,
                action,
                ref data,
                is_init_flip,
            } => {
                let (class, cost) = self.set_default_cost(table, is_init_flip);
                self.account(class, None, cost)?;
                let mut sw = self.switch.borrow_mut();
                sw.table_set_default(table, action, data)?;
                DriverResponse::Ok
            }
            // One device op per pipe, visible to pipe-scoped fault rules.
            DriverOp::SetDefaultOn {
                pipe,
                table,
                action,
                ref data,
                is_init_flip,
            } => {
                let (class, cost) = self.set_default_cost(table, is_init_flip);
                self.account(class, Some(pipe), cost)?;
                let mut sw = self.switch.borrow_mut();
                sw.table_set_default_on(pipe, table, action, data)?;
                DriverResponse::Ok
            }
            DriverOp::RegisterWrite { reg, index, value } => {
                self.account(Op::RegisterWrite, None, self.cost.pcie_base_ns)?;
                self.switch.borrow_mut().register_write(reg, index, value);
                DriverResponse::Ok
            }
            DriverOp::PortSetUp { port, up } => {
                self.account(Op::PortSet, None, self.cost.port_op_ns)?;
                self.switch.borrow_mut().port_set_up(port, up)?;
                DriverResponse::Ok
            }
            DriverOp::RegisterReadRange { reg, lo, hi } => {
                DriverResponse::Values(self.read_range(reg, lo, hi, spare)?)
            }
            DriverOp::RegisterReadAgg { reg, lo, hi, agg } => {
                let mut vals = std::mem::take(spare);
                let sw = self.switch.borrow();
                sw.register_read_agg_into(reg, lo, hi, agg, &mut vals);
                DriverResponse::Values(vals)
            }
            DriverOp::PortUp { port } => {
                DriverResponse::PortState(self.switch.borrow().port(port).map(|st| st.up))
            }
            DriverOp::SpendExternal { dur } => {
                self.account(Op::FieldPoll, None, dur)?;
                self.stats.field_reads += 1;
                DriverResponse::Ok
            }
            // One warm table update per restored table shadow.
            DriverOp::SpendRollback { tables } => {
                self.spend(
                    Op::Rollback,
                    self.cost.table_update_ns * Nanos::from(tables),
                );
                DriverResponse::Ok
            }
            DriverOp::TableCheckpoint { table } => {
                DriverResponse::Token(self.switch.borrow_mut().table_checkpoint(table))
            }
            DriverOp::TableRestore { table, token } => {
                self.switch.borrow_mut().table_restore(table, token)?;
                DriverResponse::Ok
            }
            DriverOp::CheckpointDiscard { token } => {
                self.switch.borrow_mut().checkpoint_discard(token);
                DriverResponse::Ok
            }
            DriverOp::TableDefaultOn { pipe, table } => {
                self.account(Op::DefaultRead, Some(pipe), self.cost.pcie_base_ns)?;
                let sw = self.switch.borrow();
                let (action, data) = match sw.table_ref(table).default_action_on(pipe) {
                    Some((action, data)) => (*action, data.to_vec()),
                    None => (ActionId(0), Vec::new()),
                };
                DriverResponse::DefaultAction { action, data }
            }
            // Cost scales with the entry count like a batched register read.
            DriverOp::TableDump { table } => {
                let n = self.switch.borrow().table_len(table).max(1);
                self.account(Op::TableDump, None, self.cost.register_read(n * 16))?;
                let sw = self.switch.borrow();
                let entries = sw.table_ref(table).entries().map(|e| EntrySnapshot {
                    handle: e.handle,
                    key: e.key.clone(),
                    priority: e.priority,
                    action: e.action,
                    data: e.action_data.to_vec(),
                });
                DriverResponse::Entries(entries.collect())
            }
            DriverOp::MasterClaim { .. } | DriverOp::MasterProbe => {
                panic!(
                    "invariant: mastership is arbitrated by the control plane, not a device driver"
                )
            }
        })
    }

    /// Install a fault plan (driver-op rules; link flaps are scheduled by
    /// `netsim`). Replaces any previous plan and resets its budgets.
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        let mut injector = FaultInjector::new(plan);
        injector.set_switch(self.fabric_index);
        self.injector = Some(injector);
        self.stale_cache.clear();
    }

    fn clear_fault_plan(&mut self) {
        self.injector = None;
        self.stale_cache.clear();
    }

    /// Ops are still counted but nothing injects: models rollback
    /// replaying the driver's journaled shadow state over a known-good
    /// path.
    fn suspend_faults(&mut self) {
        if let Some(inj) = self.injector.as_mut() {
            inj.suspend();
        }
    }

    fn resume_faults(&mut self) {
        if let Some(inj) = self.injector.as_mut() {
            inj.resume();
        }
    }

    /// Applied to the current injector (if any) and inherited by later
    /// plans.
    fn set_fabric_index(&mut self, index: Option<u16>) {
        self.fabric_index = index;
        if let Some(inj) = self.injector.as_mut() {
            inj.set_switch(index);
        }
    }

    fn fabric_index(&self) -> Option<u16> {
        self.fabric_index
    }

    /// Each op records a `Scope::Driver` span plus a `driver.<op>_ns`
    /// histogram sample and a `driver.<op>_calls` counter.
    fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.metrics = DriverMetrics {
            faults_injected: telemetry.register_counter(scopes::CTR_FAULTS_INJECTED),
            fault_injected: telemetry.intern("fault_injected"),
            injected_failures: telemetry.register_counter(scopes::CTR_DRIVER_INJECTED),
            ..DriverMetrics::default()
        };
        self.telemetry = telemetry;
    }

    fn stats(&self) -> DriverStats {
        self.stats.clone()
    }

    /// A concurrent legacy operation issued before this time queues until
    /// it.
    fn busy_until(&self) -> Nanos {
        self.busy_until
    }

    /// The underlying driver is thread-safe and the Mantis loop is
    /// single-threaded, so the legacy op queues behind *at most one*
    /// in-flight device-lock critical section (§6). Latency = completion -
    /// `at`. Does not advance the shared clock (the caller models its own
    /// timeline).
    fn legacy_table_update_at(&mut self, at: Nanos) -> Nanos {
        let start = if at >= self.lock_start && at < self.lock_until {
            self.lock_until
        } else {
            at
        };
        self.stats.ops += 1;
        start + self.cost.table_update_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantis_faults::{FaultEffect, FaultOp, FaultRule, FaultWindow};
    use rmt_sim::{switch_from_source, SwitchConfig};

    fn mk() -> (SharedSwitch, LocalDriver, Clock) {
        let clock = Clock::new();
        let sw = switch_from_source(
            r#"
header_type h_t { fields { a : 32; } }
header h_t h;
register r { width : 32; instance_count : 64; }
action nop() { no_op(); }
table t { reads { h.a : exact; } actions { nop; } size : 16; }
control ingress { apply(t); }
"#,
            SwitchConfig::default(),
            clock.clone(),
        )
        .unwrap();
        let sw = SharedSwitch::new(sw);
        let d = LocalDriver::new(sw.clone(), CostModel::default());
        (sw, d, clock)
    }

    /// Add the entry keyed `key` to table `t` with action `nop`.
    fn add(d: &mut LocalDriver, key: u128) -> Result<EntryHandle, DriverError> {
        let t = d.table_id("t").unwrap();
        let nop = d.action_id("nop").unwrap();
        let key = vec![KeyField::Exact(Value::new(key, 32))];
        d.table_add(t, key, 0, nop, vec![])
    }

    #[test]
    fn ops_advance_clock_and_busy_window() {
        let (_sw, mut d, clock) = mk();
        assert_eq!(clock.now(), 0);
        add(&mut d, 1).unwrap();
        let after_cold = clock.now();
        assert_eq!(after_cold, d.cost.table_update_cold_ns);
        assert_eq!(d.busy_until(), after_cold);
        // Second op is memoized (warm).
        add(&mut d, 2).unwrap();
        assert_eq!(clock.now() - after_cold, d.cost.table_update_ns);
    }

    /// Memoization is per table and per template: on two interleaved
    /// tables, the first table op and the first init flip of each are cold,
    /// every later one warm.
    #[test]
    fn first_table_op_and_first_init_flip_per_table_are_cold() {
        let clock = Clock::new();
        let sw = switch_from_source(
            r#"
header_type h_t { fields { a : 32; } }
header h_t h;
action nop() { no_op(); }
table t { reads { h.a : exact; } actions { nop; } size : 16; }
table u { reads { h.a : exact; } actions { nop; } size : 16; }
control ingress { apply(t); apply(u); }
"#,
            SwitchConfig::default(),
            clock.clone(),
        )
        .unwrap();
        let mut d = LocalDriver::new(SharedSwitch::new(sw), CostModel::default());
        let (t, u) = (d.table_id("t").unwrap(), d.table_id("u").unwrap());
        let nop = d.action_id("nop").unwrap();
        let c = d.cost.clone();
        let (cold, warm, flip) = (c.table_update_cold_ns, c.table_update_ns, c.init_update_ns);
        let mut key = 0u128;
        let mut cost_of = |d: &mut LocalDriver, table: TableId, is_flip: bool| {
            let t0 = clock.now();
            if is_flip {
                d.table_set_default(table, nop, vec![], true).unwrap();
            } else {
                key += 1;
                let key = vec![KeyField::Exact(Value::new(key, 32))];
                d.table_add(table, key, 0, nop, vec![]).unwrap();
            }
            clock.now() - t0
        };
        for (table, is_flip, want) in [
            (t, false, cold),
            (u, true, cold),
            (t, true, cold),
            (u, false, cold),
            (t, false, warm),
            (u, true, flip),
            (t, true, flip),
            (u, false, warm),
            (t, true, flip),
            (u, false, warm),
        ] {
            assert_eq!(
                cost_of(&mut d, table, is_flip),
                want,
                "{table:?} flip {is_flip}"
            );
        }
    }

    #[test]
    fn register_range_read_costs_by_bytes() {
        let (_sw, mut d, clock) = mk();
        let r = d.register_id("r").unwrap();
        let t0 = clock.now();
        let vals = d.register_read_range(r, 0, 15).unwrap();
        assert_eq!(vals.len(), 16);
        let dur = clock.now() - t0;
        assert_eq!(dur, d.cost.register_read(16 * 4));
    }

    #[test]
    fn legacy_update_queues_behind_device_lock_only() {
        let (_sw, mut d, _clock) = mk();
        add(&mut d, 1).unwrap();
        let busy = d.busy_until();
        let op_start = busy - d.cost.table_update_cold_ns;
        // A legacy op landing inside the PCIe critical section waits for
        // it — and only it.
        let blocked = d.legacy_table_update_at(op_start + 100);
        assert_eq!(
            blocked,
            op_start + d.cost.device_lock_ns + d.cost.table_update_ns
        );
        // One landing in the driver-software part of the op is unblocked.
        let free = d.legacy_table_update_at(op_start + d.cost.device_lock_ns + 50);
        assert_eq!(
            free,
            op_start + d.cost.device_lock_ns + 50 + d.cost.table_update_ns
        );
    }

    #[test]
    fn injected_failure_spends_latency_but_mutates_nothing() {
        let (sw, mut d, clock) = mk();
        let t = d.table_id("t").unwrap();
        d.set_fault_plan(FaultPlan::new().fail_transient(
            FaultOp::Named("table_add"),
            FaultWindow::Always,
            1,
        ));
        let t0 = clock.now();
        let err = add(&mut d, 1).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert!(clock.now() > t0, "a failed op still costs transport time");
        assert_eq!(
            sw.borrow().table_len(t),
            0,
            "failed op must not touch the device"
        );
        // Budget spent: the retry lands.
        add(&mut d, 1).unwrap();
        assert_eq!(sw.borrow().table_len(t), 1);
        assert_eq!(d.stats.injected_failures, 1);
    }

    #[test]
    fn stale_read_serves_previous_snapshot_and_corrupt_flips_bits() {
        let (sw, mut d, _clock) = mk();
        let r = d.register_id("r").unwrap();
        d.set_fault_plan(
            FaultPlan::new()
                .rule(FaultRule::new(
                    FaultOp::Named("register_read"),
                    FaultEffect::StaleRead,
                    FaultWindow::Ops { lo: 1, hi: 2 },
                    Some(1),
                ))
                .rule(FaultRule::new(
                    FaultOp::Named("register_read"),
                    FaultEffect::CorruptRead { xor: 0xff },
                    FaultWindow::Ops { lo: 2, hi: 3 },
                    Some(1),
                )),
        );
        sw.borrow_mut().register_write(r, 0, Value::new(7, 32));
        // Op 0: clean read, primes the stale cache.
        assert_eq!(d.register_read_range(r, 0, 0).unwrap()[0].bits(), 7);
        sw.borrow_mut().register_write(r, 0, Value::new(9, 32));
        // Op 1: stale — still sees 7.
        assert_eq!(d.register_read_range(r, 0, 0).unwrap()[0].bits(), 7);
        // Op 2: corrupt — 9 ^ 0xff.
        assert_eq!(d.register_read_range(r, 0, 0).unwrap()[0].bits(), 9 ^ 0xff);
        // Op 3: clean again.
        assert_eq!(d.register_read_range(r, 0, 0).unwrap()[0].bits(), 9);
    }

    #[test]
    fn delay_injection_scales_op_cost() {
        let (_sw, mut d, clock) = mk();
        // Warm the memo first, fault-free.
        add(&mut d, 1).unwrap();
        d.set_fault_plan(FaultPlan::new().delay(
            FaultOp::Named("table_add"),
            FaultWindow::Always,
            3_000,
            1,
        ));
        let t0 = clock.now();
        add(&mut d, 2).unwrap();
        assert_eq!(clock.now() - t0, 3 * d.cost.table_update_ns);
    }

    #[test]
    fn suspended_faults_do_not_inject() {
        let (_sw, mut d, _clock) = mk();
        d.set_fault_plan(FaultPlan::new().fail_persistent(FaultOp::Any, FaultWindow::Always));
        d.suspend_faults();
        add(&mut d, 1).unwrap();
        d.resume_faults();
        assert!(add(&mut d, 2).is_err());
    }

    #[test]
    fn ops_naming_what_the_device_lacks_are_refused_before_any_cost() {
        let (sw, mut d, clock) = mk();
        let t = d.table_id("t").unwrap();
        let r = d.register_id("r").unwrap();
        let nop = d.action_id("nop").unwrap();
        let token = d.table_checkpoint(t).unwrap();
        let refused = [
            (
                DriverOp::TableDel {
                    table: TableId(9),
                    handle: EntryHandle(1),
                },
                DriverError::UnknownTable("#9".into()),
            ),
            (
                DriverOp::TableMod {
                    table: t,
                    handle: EntryHandle(1),
                    action: ActionId(9),
                    data: vec![],
                },
                DriverError::UnknownAction("#9".into()),
            ),
            (
                DriverOp::RegisterReadRange {
                    reg: RegisterId(r.0 + 1),
                    lo: 0,
                    hi: 0,
                },
                DriverError::UnknownRegister(format!("#{}", r.0 + 1)),
            ),
            (
                DriverOp::SetDefaultOn {
                    pipe: 7,
                    table: t,
                    action: nop,
                    data: vec![],
                    is_init_flip: true,
                },
                DriverError::BadPipe(7),
            ),
            (
                DriverOp::TableRestore {
                    table: t,
                    token: token + 1,
                },
                DriverError::Table(rmt_sim::TableError::UnknownHandle(EntryHandle(token + 1))),
            ),
        ];
        for (op, want) in refused {
            assert_eq!(d.submit(&op), Err(want), "{op:?}");
        }
        assert_eq!(clock.now(), 0, "a refused op costs nothing");
        assert_eq!(d.stats.ops, 0);
        // An inverted range is an empty read, not a slice panic.
        assert_eq!(d.register_read_range(r, 5, 3).unwrap(), vec![]);
        // The live token still restores.
        add(&mut d, 1).unwrap();
        d.table_restore(t, token).unwrap();
        assert_eq!(sw.borrow().table_len(t), 0);
    }
}
