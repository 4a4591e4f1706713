//! The optimized Mantis driver: a wrapper over the raw switch driver that
//! accounts virtual-time costs, memoizes repeated operations (§6,
//! "caching/memoization of device instructions"), and exposes the busy
//! window that concurrent legacy control-plane operations queue behind
//! (Fig. 12).
//!
//! Every operation consults an optional [`FaultInjector`] *before*
//! touching the device: an injected failure consumes the op's modeled
//! latency (the transport timed out) but mutates nothing, so a retried op
//! lands exactly as it would have in a fault-free run. Recovery code
//! suspends injection while it replays the driver's software shadow.

use crate::costmodel::CostModel;
use mantis_faults::{FaultInjector, FaultPlan, Injection};
use mantis_telemetry::{scopes, DriverOpId, Scope, Telemetry};
use p4_ast::Value;
use rmt_sim::{
    ActionId, Clock, DriverError, EntryHandle, KeyField, Nanos, RegisterId, Switch, TableId,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Memoization key: which device-instruction templates have been computed.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum MemoKey {
    Table(TableId),
    InitDefault(TableId),
}

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
    FieldWordRead,
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
            Op::FieldWordRead => "field_word_read",
            Op::RegisterWrite => "register_write",
            Op::PortSet => "port_set",
            Op::DefaultRead => "default_read",
            Op::TableDump => "table_dump",
            Op::FieldPoll => "field_poll",
            Op::Rollback => "rollback",
        }
    }
}

/// One physical table entry as read back from the device — the unit of
/// the reconcile path's [`MantisDriver::table_dump`].
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

/// The cost-accounted driver.
#[derive(Debug)]
pub struct MantisDriver {
    pub cost: CostModel,
    clock: Clock,
    memo: HashSet<MemoKey>,
    busy_until: Nanos,
    /// Device-lock critical section of the most recent operation.
    lock_start: Nanos,
    lock_until: Nanos,
    pub stats: DriverStats,
    telemetry: Arc<Telemetry>,
    /// Telemetry handles per op class (indexed by `Op as usize`), each
    /// resolved by the first op of its class after the registry changes.
    op_ids: [DriverOpId; Op::COUNT],
    injector: Option<FaultInjector>,
    /// Fabric switch this driver controls (`None` on single-switch
    /// testbeds); fault injectors inherit it so `FaultRule::on_switch`
    /// rules can target one agent of a fabric.
    fabric_index: Option<u16>,
    /// Last successfully read values per register range, served back by a
    /// `StaleRead` injection. Only maintained while an injector is set.
    stale_cache: HashMap<(RegisterId, u32, u32), Vec<Value>>,
}

impl MantisDriver {
    pub fn new(cost: CostModel, clock: Clock) -> Self {
        MantisDriver {
            cost,
            clock,
            memo: HashSet::new(),
            busy_until: 0,
            lock_start: 0,
            lock_until: 0,
            stats: DriverStats::default(),
            telemetry: Telemetry::disabled(),
            op_ids: Default::default(),
            injector: None,
            fabric_index: None,
            stale_cache: HashMap::new(),
        }
    }

    /// Route per-op accounting into a shared telemetry handle: each op
    /// records a `Scope::Driver` span plus a `driver.<op>_ns` histogram
    /// sample and a `driver.<op>_calls` counter.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.telemetry = telemetry;
    }

    /// Install a fault plan (driver-op rules; link flaps are scheduled by
    /// `netsim`). Replaces any previous plan and resets its budgets.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        let mut injector = FaultInjector::new(plan);
        injector.set_switch(self.fabric_index);
        self.injector = Some(injector);
        self.stale_cache.clear();
    }

    /// Declare which fabric switch this driver controls. Applied to the
    /// current injector (if any) and inherited by later plans.
    pub fn set_fabric_index(&mut self, index: Option<u16>) {
        self.fabric_index = index;
        if let Some(inj) = self.injector.as_mut() {
            inj.set_switch(index);
        }
    }

    pub fn fabric_index(&self) -> Option<u16> {
        self.fabric_index
    }

    /// Remove fault injection entirely.
    pub fn clear_fault_plan(&mut self) {
        self.injector = None;
        self.stale_cache.clear();
    }

    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// Enter a fault-free recovery section (nestable): ops are counted
    /// but nothing injects. Models rollback replaying the driver's
    /// journaled shadow state over a known-good path.
    pub fn suspend_faults(&mut self) {
        if let Some(inj) = self.injector.as_mut() {
            inj.suspend();
        }
    }

    /// Leave a fault-free recovery section.
    pub fn resume_faults(&mut self) {
        if let Some(inj) = self.injector.as_mut() {
            inj.resume();
        }
    }

    /// End of the driver's current busy window — a concurrent legacy
    /// operation issued before this time queues until it.
    pub fn busy_until(&self) -> Nanos {
        self.busy_until
    }

    /// The shared virtual clock this driver accounts on.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Consult the fault plan for one op. Records `fault.injected` when a
    /// decision is made.
    fn inject(&mut self, op: Op) -> Option<Injection> {
        self.inject_on(op, None)
    }

    /// Consult the fault plan for one op addressed at hardware pipe
    /// `pipe` (when `Some`), so pipe-scoped fault rules can target it.
    fn inject_on(&mut self, op: Op, pipe: Option<u16>) -> Option<Injection> {
        let op = op.name();
        let inj = self
            .injector
            .as_mut()?
            .decide_on(op, pipe, self.clock.now())?;
        if self.telemetry.is_enabled() {
            self.telemetry.counter_add(scopes::CTR_FAULTS_INJECTED, 1);
            self.telemetry
                .counter_add(&format!("fault.{op}_injected"), 1);
            self.telemetry
                .instant(Scope::Driver, "fault_injected", self.clock.now(), &[]);
        }
        Some(inj)
    }

    /// Resolve an injection decision against a mutation op: returns
    /// `Err(Injected)` for failures (after spending the op's latency —
    /// the transport timed out) and scales the cost for delays.
    fn gate(&mut self, op: Op, cost: &mut Nanos) -> Result<(), DriverError> {
        self.gate_on(op, None, cost)
    }

    /// Like `gate`, for an op addressed at one hardware pipe.
    fn gate_on(&mut self, op: Op, pipe: Option<u16>, cost: &mut Nanos) -> Result<(), DriverError> {
        match self.inject_on(op, pipe) {
            Some(Injection::Fail { persistent }) => {
                self.spend(op, *cost);
                self.stats.injected_failures += 1;
                self.telemetry.counter_add(scopes::CTR_DRIVER_INJECTED, 1);
                Err(DriverError::Injected {
                    op: op.name(),
                    persistent,
                })
            }
            // Process death is instant: no latency is spent, no state
            // mutated. Whether the op "landed" is decided by where the
            // crash point falls in the op sequence, which is exactly what
            // the reconcile path must cope with.
            Some(Injection::Crash) => {
                self.stats.injected_failures += 1;
                self.telemetry.counter_add(scopes::CTR_DRIVER_INJECTED, 1);
                Err(DriverError::Crashed { op: op.name() })
            }
            Some(Injection::Delay { factor_milli }) => {
                *cost = scale(*cost, factor_milli);
                Ok(())
            }
            // Read and channel effects are meaningless on mutations.
            Some(Injection::Stale)
            | Some(Injection::Corrupt { .. })
            | Some(Injection::Duplicate)
            | None => Ok(()),
        }
    }

    /// Account one operation of the given duration: the clock advances, and
    /// the busy window extends. `op` names the operation class for
    /// telemetry (span + per-op histogram).
    fn spend(&mut self, op: Op, dur: Nanos) {
        let start = self.clock.now().max(self.busy_until);
        let end = start + dur;
        self.clock.advance_to(end);
        self.busy_until = end;
        // Only the PCIe transaction itself holds the device lock; the rest
        // of the operation is driver software time that concurrent legacy
        // clients are not blocked by.
        self.lock_start = start;
        self.lock_until = start + self.cost.device_lock_ns.min(dur);
        self.stats.ops += 1;
        self.stats.busy_ns += dur;
        if self.telemetry.is_enabled() {
            let id = &mut self.op_ids[op as usize];
            if !self.telemetry.owns(id.span) {
                *id = self.telemetry.register_driver_op(op.name());
            }
            if let Some(mut rec) = self.telemetry.recorder() {
                rec.begin(Scope::Driver, id.span, start);
                rec.end(Scope::Driver, id.span, end);
                rec.driver_op(id, dur);
            }
        }
    }

    fn table_op_cost(&mut self, table: TableId) -> Nanos {
        let cold = self.memo.insert(MemoKey::Table(table));
        self.stats.table_ops += 1;
        if cold {
            self.cost.table_update_cold_ns
        } else {
            self.cost.table_update_ns
        }
    }

    // -- table operations -----------------------------------------------------

    pub fn table_add(
        &mut self,
        sw: &mut Switch,
        table: TableId,
        key: Vec<KeyField>,
        priority: u32,
        action: ActionId,
        data: Vec<Value>,
    ) -> Result<EntryHandle, DriverError> {
        let mut cost = self.table_op_cost(table);
        self.gate(Op::TableAdd, &mut cost)?;
        self.spend(Op::TableAdd, cost);
        sw.table_add(table, key, priority, action, data)
    }

    pub fn table_mod(
        &mut self,
        sw: &mut Switch,
        table: TableId,
        handle: EntryHandle,
        action: ActionId,
        data: Vec<Value>,
    ) -> Result<(), DriverError> {
        let mut cost = self.table_op_cost(table);
        self.gate(Op::TableMod, &mut cost)?;
        self.spend(Op::TableMod, cost);
        sw.table_mod(table, handle, action, data)
    }

    pub fn table_del(
        &mut self,
        sw: &mut Switch,
        table: TableId,
        handle: EntryHandle,
    ) -> Result<(), DriverError> {
        let mut cost = self.table_op_cost(table);
        self.gate(Op::TableDel, &mut cost)?;
        self.spend(Op::TableDel, cost);
        sw.table_del(table, handle)
    }

    /// Update a table's default action in every pipe (fan-out). The
    /// master init table's default is the most frequently updated object
    /// in Mantis (the vv/mv flip), so it gets its own memoized (cheapest)
    /// cost class.
    pub fn table_set_default(
        &mut self,
        sw: &mut Switch,
        table: TableId,
        action: ActionId,
        data: Vec<Value>,
        is_init_flip: bool,
    ) -> Result<(), DriverError> {
        let (op, mut cost) = self.set_default_cost(table, is_init_flip);
        self.gate(op, &mut cost)?;
        self.spend(op, cost);
        sw.table_set_default(table, action, data)
    }

    /// Update a table's default action in a *single* pipe — the per-pipe
    /// version-variable flip. One device op per pipe, visible to
    /// pipe-scoped fault rules.
    pub fn table_set_default_on(
        &mut self,
        sw: &mut Switch,
        pipe: u16,
        table: TableId,
        action: ActionId,
        data: Vec<Value>,
        is_init_flip: bool,
    ) -> Result<(), DriverError> {
        let (op, mut cost) = self.set_default_cost(table, is_init_flip);
        self.gate_on(op, Some(pipe), &mut cost)?;
        self.spend(op, cost);
        sw.table_set_default_on(pipe, table, action, data)
    }

    fn set_default_cost(&mut self, table: TableId, is_init_flip: bool) -> (Op, Nanos) {
        if is_init_flip {
            let cost = if self.memo.insert(MemoKey::InitDefault(table)) {
                self.cost.table_update_cold_ns
            } else {
                self.cost.init_update_ns
            };
            (Op::InitFlip, cost)
        } else {
            (Op::SetDefault, self.table_op_cost(table))
        }
    }

    // -- register operations ----------------------------------------------------

    /// Batched range read of a register array. Fallible: the transport
    /// can fail, and injected `StaleRead`/`CorruptRead` effects distort
    /// the returned values without failing the op (measurement noise, not
    /// a retryable error).
    pub fn register_read_range(
        &mut self,
        sw: &Switch,
        reg: RegisterId,
        lo: u32,
        hi: u32,
    ) -> Result<Vec<Value>, DriverError> {
        let width = sw.spec().register(reg).width;
        let width_bytes = usize::from(width).div_ceil(8);
        let n = (hi.saturating_sub(lo) + 1) as usize;
        // One logical read touches every pipe's copy: the driver DMAs
        // each pipe's range and aggregates in software (RBFRT-style), so
        // the PCIe cost scales with `num_pipes` (identity at 1).
        let num_pipes = usize::from(sw.config().num_pipes);
        let mut cost = self.cost.register_read(n * width_bytes * num_pipes);
        let effect = self.inject(Op::RegisterRead);
        if let Some(Injection::Delay { factor_milli }) = effect {
            cost = scale(cost, factor_milli);
        }
        self.stats.register_reads += 1;
        match effect {
            Some(Injection::Fail { persistent }) => {
                self.spend(Op::RegisterRead, cost);
                self.stats.injected_failures += 1;
                self.telemetry.counter_add(scopes::CTR_DRIVER_INJECTED, 1);
                return Err(DriverError::Injected {
                    op: "register_read",
                    persistent,
                });
            }
            Some(Injection::Crash) => {
                self.stats.injected_failures += 1;
                self.telemetry.counter_add(scopes::CTR_DRIVER_INJECTED, 1);
                return Err(DriverError::Crashed {
                    op: "register_read",
                });
            }
            Some(Injection::Stale) => {
                self.spend(Op::RegisterRead, cost);
                // Serve the previous snapshot of this range (zeros if it
                // was never read): a checkpoint that missed the sync.
                return Ok(self
                    .stale_cache
                    .get(&(reg, lo, hi))
                    .cloned()
                    .unwrap_or_else(|| vec![Value::zero(width); n]));
            }
            Some(Injection::Corrupt { xor }) => {
                self.spend(Op::RegisterRead, cost);
                return Ok(sw
                    .register_read_range(reg, lo, hi)
                    .into_iter()
                    .map(|v| Value::new(v.bits() ^ u128::from(xor), width))
                    .collect());
            }
            _ => {}
        }
        self.spend(Op::RegisterRead, cost);
        let vals = sw.register_read_range(reg, lo, hi);
        if self.injector.is_some() {
            self.stale_cache.insert((reg, lo, hi), vals.clone());
        }
        Ok(vals)
    }

    /// Poll one packed field word (a 2-entry measurement register).
    pub fn field_word_read(
        &mut self,
        sw: &Switch,
        reg: RegisterId,
        index: u32,
    ) -> Result<Value, DriverError> {
        let mut cost = self.cost.pcie_base_ns + self.cost.field_word_read_ns;
        self.gate(Op::FieldWordRead, &mut cost)?;
        self.spend(Op::FieldWordRead, cost);
        self.stats.field_reads += 1;
        Ok(sw
            .register_read_range(reg, index, index)
            .into_iter()
            .next()
            .unwrap_or(Value::zero(32)))
    }

    pub fn register_write(
        &mut self,
        sw: &mut Switch,
        reg: RegisterId,
        index: u32,
        value: Value,
    ) -> Result<(), DriverError> {
        let mut cost = self.cost.pcie_base_ns;
        self.gate(Op::RegisterWrite, &mut cost)?;
        self.spend(Op::RegisterWrite, cost);
        sw.register_write(reg, index, value);
        Ok(())
    }

    pub fn port_set_up(
        &mut self,
        sw: &mut Switch,
        port: rmt_sim::PortId,
        up: bool,
    ) -> Result<(), DriverError> {
        let mut cost = self.cost.port_op_ns;
        self.gate(Op::PortSet, &mut cost)?;
        self.spend(Op::PortSet, cost);
        sw.port_set_up(port, up)
    }

    // -- read-back (reconcile) --------------------------------------------------

    /// Read back one pipe's default action of a table — the reconcile
    /// path's master-state read (a restarted agent recovering vv/mv and
    /// the committed slot values from the device).
    pub fn table_default_on(
        &mut self,
        sw: &Switch,
        pipe: u16,
        table: TableId,
    ) -> Result<(ActionId, Vec<Value>), DriverError> {
        if pipe >= sw.num_pipes() {
            return Err(DriverError::BadPipe(pipe));
        }
        let mut cost = self.cost.pcie_base_ns;
        self.gate_on(Op::DefaultRead, Some(pipe), &mut cost)?;
        self.spend(Op::DefaultRead, cost);
        let (action, data) = sw
            .table_ref_on(pipe, table)
            .default_action()
            .cloned()
            .unwrap_or((ActionId(0), std::sync::Arc::from(Vec::new())));
        Ok((action, data.to_vec()))
    }

    /// Dump every physical entry of a table (pipe 0's view; symmetric ops
    /// keep all pipes equal) — the reconcile path's table read-back. Cost
    /// scales with the entry count like a batched register read.
    pub fn table_dump(
        &mut self,
        sw: &Switch,
        table: TableId,
    ) -> Result<Vec<EntrySnapshot>, DriverError> {
        let n = sw.table_len(table).max(1);
        let mut cost = self.cost.register_read(n * 16);
        self.gate(Op::TableDump, &mut cost)?;
        self.spend(Op::TableDump, cost);
        Ok(sw
            .table_ref(table)
            .entries()
            .map(|e| EntrySnapshot {
                handle: e.handle,
                key: e.key.clone(),
                priority: e.priority,
                action: e.action,
                data: e.action_data.to_vec(),
            })
            .collect())
    }

    /// Account an externally computed cost (e.g. the packed-word cost of a
    /// field-argument poll, where the agent reads several 2-entry
    /// measurement registers as one batch).
    pub fn spend_external(&mut self, dur: Nanos) -> Result<(), DriverError> {
        let mut cost = dur;
        self.gate(Op::FieldPoll, &mut cost)?;
        self.spend(Op::FieldPoll, cost);
        self.stats.field_reads += 1;
        Ok(())
    }

    /// Account the recovery work of restoring `tables` table shadows
    /// after a failed transactional apply (one warm table update each).
    pub fn spend_rollback(&mut self, tables: usize) {
        let cost = self.cost.table_update_ns * tables as Nanos;
        self.spend(Op::Rollback, cost);
    }

    /// Simulate a *legacy* control-plane operation submitted at `at` (from
    /// another core). The underlying driver is thread-safe and the Mantis
    /// loop is single-threaded, so the legacy op queues behind *at most
    /// one* in-flight device-lock critical section (§6). Returns its
    /// completion time; latency = completion - at. Does not advance the
    /// shared clock (the caller models its own timeline).
    pub fn legacy_table_update_at(&mut self, at: Nanos) -> Nanos {
        let start = if at >= self.lock_start && at < self.lock_until {
            self.lock_until
        } else {
            at
        };
        self.stats.ops += 1;
        start + self.cost.table_update_ns
    }
}

/// Scale a cost by an integer milli-factor (3000 = ×3).
fn scale(cost: Nanos, factor_milli: u32) -> Nanos {
    (u128::from(cost) * u128::from(factor_milli) / 1_000) as Nanos
}

#[cfg(test)]
mod tests {
    use super::*;
    use mantis_faults::{FaultOp, FaultWindow};
    use rmt_sim::{switch_from_source, SwitchConfig};

    fn mk() -> (Switch, MantisDriver, Clock) {
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
        let d = MantisDriver::new(CostModel::default(), clock.clone());
        (sw, d, clock)
    }

    #[test]
    fn ops_advance_clock_and_busy_window() {
        let (mut sw, mut d, clock) = mk();
        let t = sw.table_id("t").unwrap();
        let nop = sw.action_id("nop").unwrap();
        assert_eq!(clock.now(), 0);
        d.table_add(
            &mut sw,
            t,
            vec![KeyField::Exact(Value::new(1, 32))],
            0,
            nop,
            vec![],
        )
        .unwrap();
        let after_cold = clock.now();
        assert_eq!(after_cold, d.cost.table_update_cold_ns);
        assert_eq!(d.busy_until(), after_cold);
        // Second op is memoized (warm).
        d.table_add(
            &mut sw,
            t,
            vec![KeyField::Exact(Value::new(2, 32))],
            0,
            nop,
            vec![],
        )
        .unwrap();
        assert_eq!(clock.now() - after_cold, d.cost.table_update_ns);
    }

    #[test]
    fn register_range_read_costs_by_bytes() {
        let (sw, mut d, clock) = mk();
        let r = sw.register_id("r").unwrap();
        let t0 = clock.now();
        let vals = d.register_read_range(&sw, r, 0, 15).unwrap();
        assert_eq!(vals.len(), 16);
        let dur = clock.now() - t0;
        assert_eq!(dur, d.cost.register_read(16 * 4));
    }

    #[test]
    fn legacy_update_queues_behind_device_lock_only() {
        let (mut sw, mut d, clock) = mk();
        let t = sw.table_id("t").unwrap();
        let nop = sw.action_id("nop").unwrap();
        d.table_add(
            &mut sw,
            t,
            vec![KeyField::Exact(Value::new(1, 32))],
            0,
            nop,
            vec![],
        )
        .unwrap();
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
        let _ = clock;
    }

    #[test]
    fn injected_failure_spends_latency_but_mutates_nothing() {
        let (mut sw, mut d, clock) = mk();
        let t = sw.table_id("t").unwrap();
        let nop = sw.action_id("nop").unwrap();
        d.set_fault_plan(FaultPlan::new().fail_transient(
            FaultOp::Named("table_add"),
            FaultWindow::Always,
            1,
        ));
        let t0 = clock.now();
        let err = d
            .table_add(
                &mut sw,
                t,
                vec![KeyField::Exact(Value::new(1, 32))],
                0,
                nop,
                vec![],
            )
            .unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert!(clock.now() > t0, "a failed op still costs transport time");
        assert_eq!(sw.table_len(t), 0, "failed op must not touch the device");
        // Budget spent: the retry lands.
        d.table_add(
            &mut sw,
            t,
            vec![KeyField::Exact(Value::new(1, 32))],
            0,
            nop,
            vec![],
        )
        .unwrap();
        assert_eq!(sw.table_len(t), 1);
        assert_eq!(d.stats.injected_failures, 1);
    }

    #[test]
    fn stale_read_serves_previous_snapshot_and_corrupt_flips_bits() {
        let (mut sw, mut d, _clock) = mk();
        let r = sw.register_id("r").unwrap();
        d.set_fault_plan(
            FaultPlan::new()
                .rule(mantis_faults::FaultRule::new(
                    FaultOp::Named("register_read"),
                    mantis_faults::FaultEffect::StaleRead,
                    FaultWindow::Ops { lo: 1, hi: 2 },
                    Some(1),
                ))
                .rule(mantis_faults::FaultRule::new(
                    FaultOp::Named("register_read"),
                    mantis_faults::FaultEffect::CorruptRead { xor: 0xff },
                    FaultWindow::Ops { lo: 2, hi: 3 },
                    Some(1),
                )),
        );
        sw.register_write(r, 0, Value::new(7, 32));
        // Op 0: clean read, primes the stale cache.
        assert_eq!(d.register_read_range(&sw, r, 0, 0).unwrap()[0].bits(), 7);
        sw.register_write(r, 0, Value::new(9, 32));
        // Op 1: stale — still sees 7.
        assert_eq!(d.register_read_range(&sw, r, 0, 0).unwrap()[0].bits(), 7);
        // Op 2: corrupt — 9 ^ 0xff.
        assert_eq!(
            d.register_read_range(&sw, r, 0, 0).unwrap()[0].bits(),
            9 ^ 0xff
        );
        // Op 3: clean again.
        assert_eq!(d.register_read_range(&sw, r, 0, 0).unwrap()[0].bits(), 9);
    }

    #[test]
    fn delay_injection_scales_op_cost() {
        let (mut sw, mut d, clock) = mk();
        let t = sw.table_id("t").unwrap();
        let nop = sw.action_id("nop").unwrap();
        // Warm the memo first, fault-free.
        d.table_add(
            &mut sw,
            t,
            vec![KeyField::Exact(Value::new(1, 32))],
            0,
            nop,
            vec![],
        )
        .unwrap();
        d.set_fault_plan(FaultPlan::new().delay(
            FaultOp::Named("table_add"),
            FaultWindow::Always,
            3_000,
            1,
        ));
        let t0 = clock.now();
        d.table_add(
            &mut sw,
            t,
            vec![KeyField::Exact(Value::new(2, 32))],
            0,
            nop,
            vec![],
        )
        .unwrap();
        assert_eq!(clock.now() - t0, 3 * d.cost.table_update_ns);
    }

    #[test]
    fn suspended_faults_do_not_inject() {
        let (mut sw, mut d, _clock) = mk();
        let t = sw.table_id("t").unwrap();
        let nop = sw.action_id("nop").unwrap();
        d.set_fault_plan(FaultPlan::new().fail_persistent(FaultOp::Any, FaultWindow::Always));
        d.suspend_faults();
        d.table_add(
            &mut sw,
            t,
            vec![KeyField::Exact(Value::new(1, 32))],
            0,
            nop,
            vec![],
        )
        .unwrap();
        d.resume_faults();
        assert!(d
            .table_add(
                &mut sw,
                t,
                vec![KeyField::Exact(Value::new(2, 32))],
                0,
                nop,
                vec![],
            )
            .is_err());
    }
}
