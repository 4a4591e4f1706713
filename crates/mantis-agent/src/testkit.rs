//! Test doubles shared by this crate's unit tests.

use crate::costmodel::CostModel;
use crate::driver::{DriverStats, LocalDriver};
use crate::driver_api::{DriverApi, DriverOp, DriverResponse};
use mantis_faults::FaultPlan;
use mantis_telemetry::Telemetry;
use p4_ast::Value;
use p4r_compiler::{compile_source, Compiled, CompilerOptions};
use rmt_sim::{Clock, DataPlaneSpec, DriverError, Nanos, SharedSwitch, Switch, SwitchConfig};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;

/// Compile `src` and load it onto a fresh `num_pipes`-pipe switch.
pub(crate) fn switch_for(
    src: &str,
    opts: &CompilerOptions,
    num_pipes: u16,
) -> (Compiled, SharedSwitch) {
    let compiled = compile_source(src, opts).unwrap();
    let spec = rmt_sim::load(&compiled.p4).unwrap();
    let config = SwitchConfig {
        num_pipes,
        ..SwitchConfig::default()
    };
    let switch = SharedSwitch::new(Switch::new(spec, config, Clock::new()));
    (compiled, switch)
}

/// What a [`Hooked`] driver's hook decides about one op: `Some(e)` fails it
/// before it reaches the device, as an injected fault does.
pub(crate) type Hook = Box<dyn FnMut(&DriverOp) -> Option<DriverError>>;

/// An in-process driver that shows every op to a hook first. The hook is
/// not consulted inside a fault-suspended section, as a fault injector is
/// not; the section depth is shared out for tests to watch.
pub(crate) struct Hooked {
    inner: LocalDriver,
    hook: Hook,
    pub(crate) suspended: Rc<Cell<i32>>,
}

impl Hooked {
    pub(crate) fn new(switch: SharedSwitch, hook: Hook) -> Self {
        Hooked {
            inner: LocalDriver::new(switch, CostModel::default()),
            hook,
            suspended: Rc::new(Cell::new(0)),
        }
    }
}

impl DriverApi for Hooked {
    fn submit_reusing(
        &mut self,
        op: &DriverOp,
        spare: &mut Vec<Value>,
    ) -> Result<DriverResponse, DriverError> {
        if self.suspended.get() == 0 {
            if let Some(e) = (self.hook)(op) {
                return Err(e);
            }
        }
        self.inner.submit_reusing(op, spare)
    }
    fn spec(&self) -> &DataPlaneSpec {
        self.inner.spec()
    }
    fn num_pipes(&self) -> u16 {
        self.inner.num_pipes()
    }
    fn cost(&self) -> &CostModel {
        self.inner.cost()
    }
    fn clock(&self) -> &Clock {
        self.inner.clock()
    }
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.inner.set_fault_plan(plan)
    }
    fn clear_fault_plan(&mut self) {
        self.inner.clear_fault_plan()
    }
    fn suspend_faults(&mut self) {
        self.suspended.set(self.suspended.get() + 1);
        self.inner.suspend_faults()
    }
    fn resume_faults(&mut self) {
        self.suspended.set(self.suspended.get() - 1);
        self.inner.resume_faults()
    }
    fn set_fabric_index(&mut self, index: Option<u16>) {
        self.inner.set_fabric_index(index)
    }
    fn fabric_index(&self) -> Option<u16> {
        self.inner.fabric_index()
    }
    fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.inner.set_telemetry(telemetry)
    }
    fn stats(&self) -> DriverStats {
        self.inner.stats()
    }
    fn busy_until(&self) -> Nanos {
        self.inner.busy_until()
    }
    fn legacy_table_update_at(&mut self, at: Nanos) -> Nanos {
        self.inner.legacy_table_update_at(at)
    }
}
