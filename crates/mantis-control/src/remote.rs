//! The remote driver: the agent-facing [`DriverApi`] implementation that
//! encodes every call onto the wire and pipelines batches (RBFRT-style).
//!
//! ## Batching model
//!
//! The ops [`DriverOp::deferrable`] names (mutations with no
//! client-visible result) are **deferred** into a pending batch — kept as
//! the request frame it will be sent as ([`RequestBatch`]), so deferring
//! an op costs its encoding and no copy of the op. Every
//! other op is a **barrier**: the pending batch is sent with the barrier
//! op appended, one frame for the lot. [`DriverApi::flush`] is an
//! explicit barrier with no op. With batching disabled every mutation is
//! its own frame (the one-op-per-frame baseline the bench compares
//! against).
//!
//! ## Deferred-error protocol
//!
//! The plane applies a batch in order and stops at the first error, so a
//! short response batch identifies the failing index `i`: ops `[0, i)`
//! were applied and are dropped from pending; ops `[i, ..)` (minus the
//! barrier, which the caller's retry will re-issue) are retained. A
//! deferred mutation's failure thus surfaces at the *barrier* that
//! flushed it — blame attribution shifts to the barrier op on permanent
//! failures, which the differential tests accept as a documented
//! difference from local mode. A transport-level failure retains the
//! whole batch: the channel's in-flight retries already replayed the
//! same sequence number, so nothing was applied (or the response was
//! lost, the at-least-once caveat documented in [`crate::channel`]).

use crate::channel::{Channel, ChannelConfig};
use crate::plane::ControlPlane;
use crate::wire::{DriverOp, DriverResponse, RequestBatch};
use mantis_agent::costmodel::CostModel;
use mantis_agent::driver::DriverStats;
use mantis_agent::DriverApi;
use mantis_faults::FaultPlan;
use mantis_telemetry::{scopes, HistId, Telemetry};
use p4_ast::Value;
use rmt_sim::{Clock, DataPlaneSpec, DriverError, Nanos};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// How a batch send failed.
enum SendFailure {
    /// The channel gave up: nothing (knowably) applied, batch retained.
    Transport(DriverError),
    /// The plane stopped at op `index`; ops before it were applied.
    Op { index: usize, error: DriverError },
}

/// A [`DriverApi`] that drives a switch through a control [`Channel`].
pub struct RemoteDriver {
    channel: Channel,
    plane: Rc<RefCell<ControlPlane>>,
    // Client-side session metadata, pushed at setup like a P4Runtime
    // pipeline config — metadata lookups never cross the wire.
    spec: DataPlaneSpec,
    num_pipes: u16,
    cost: CostModel,
    clock: Clock,
    pending: RequestBatch,
    batching: bool,
    /// The registry of the stack this driver is part of; the channel and
    /// the plane's handling of this driver's frames record into it too.
    telemetry: Arc<Telemetry>,
    /// Handle for `control.batch_size`, resolved in `set_telemetry`.
    batch_size: HistId,
}

impl RemoteDriver {
    /// Connect a batching driver to `plane` over a channel with `cfg`.
    pub fn new(plane: Rc<RefCell<ControlPlane>>, cfg: ChannelConfig) -> Self {
        Self::with_batching(plane, cfg, true)
    }

    /// As [`new`](RemoteDriver::new), choosing the batching mode.
    pub fn with_batching(
        plane: Rc<RefCell<ControlPlane>>,
        cfg: ChannelConfig,
        batching: bool,
    ) -> Self {
        let channel = Channel::new(plane.clone(), cfg);
        let (spec, num_pipes, cost, clock) = {
            let p = plane.borrow();
            let d = p.driver();
            (
                d.spec().clone(),
                d.num_pipes(),
                d.cost().clone(),
                d.clock().clone(),
            )
        };
        RemoteDriver {
            channel,
            plane,
            spec,
            num_pipes,
            cost,
            clock,
            pending: RequestBatch::new(),
            batching,
            telemetry: Telemetry::disabled(),
            batch_size: HistId::default(),
        }
    }

    /// Deferred mutations not yet flushed.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    pub fn channel_mut(&mut self) -> &mut Channel {
        &mut self.channel
    }

    pub fn plane(&self) -> &Rc<RefCell<ControlPlane>> {
        &self.plane
    }

    // -- batch plumbing ------------------------------------------------------

    /// Send the pending batch as one frame. Its answers stay in the
    /// channel; on failure the batch is as it was.
    fn send(&mut self) -> Result<&mut [DriverResponse], SendFailure> {
        let sent = self.pending.len();
        self.telemetry.record(self.batch_size, sent as u64);
        let rs = self
            .channel
            .send(&mut self.pending)
            .map_err(SendFailure::Transport)?;
        if let Some(DriverResponse::Err(e)) = rs.last() {
            return Err(SendFailure::Op {
                index: rs.len() - 1,
                error: e.clone(),
            });
        }
        debug_assert_eq!(
            rs.len(),
            sent,
            "invariant: an error-free response batch answers every op"
        );
        Ok(rs)
    }

    /// Queue a result-less mutation; in one-op-per-frame mode it is sent
    /// immediately.
    fn defer(&mut self, op: &DriverOp) -> Result<(), DriverError> {
        self.pending.push(op);
        if self.batching {
            Ok(())
        } else {
            self.flush_pending()
        }
    }

    fn flush_pending(&mut self) -> Result<(), DriverError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        match self.send().map(drop) {
            Ok(()) => {
                self.pending.clear();
                Ok(())
            }
            Err(SendFailure::Transport(e)) => Err(e),
            Err(SendFailure::Op { index, error }) => {
                self.pending.drop_front(index);
                Err(error)
            }
        }
    }

    /// Send pending ops plus `op` as one frame; return `op`'s response. A
    /// read's values leave the channel's decode scratch in the vector they
    /// were decoded into, and `spare`'s takes its place there.
    /// On a batch error the applied prefix leaves pending and the barrier
    /// itself is *not* retained — the caller's retry re-issues it, which
    /// re-appends it behind whatever is still pending, under a fresh
    /// sequence number (the plane stopped before applying it, so there is
    /// no double-apply).
    fn barrier(
        &mut self,
        op: &DriverOp,
        spare: &mut Vec<Value>,
    ) -> Result<DriverResponse, DriverError> {
        self.pending.push(op);
        let sent =
            self.send().map(
                |rs| match rs.last_mut().expect("invariant: batch was non-empty") {
                    DriverResponse::Values(vs) => {
                        DriverResponse::Values(std::mem::replace(vs, std::mem::take(spare)))
                    }
                    other => std::mem::replace(other, DriverResponse::Ok),
                },
            );
        match sent {
            Ok(answer) => {
                self.pending.clear();
                Ok(answer)
            }
            Err(SendFailure::Transport(e)) => {
                self.pending.pop();
                Err(e)
            }
            Err(SendFailure::Op { index, error }) => {
                self.pending.pop();
                self.pending.drop_front(index);
                Err(error)
            }
        }
    }
}

impl DriverApi for RemoteDriver {
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

    /// With batching off a deferrable op is still queued first, so its
    /// frame carries exactly that op.
    fn submit_reusing(
        &mut self,
        op: &DriverOp,
        spare: &mut Vec<Value>,
    ) -> Result<DriverResponse, DriverError> {
        if op.deferrable() {
            self.defer(op).map(|()| DriverResponse::Ok)
        } else {
            self.barrier(op, spare)
        }
    }

    fn flush(&mut self) -> Result<(), DriverError> {
        self.flush_pending()
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        // Channel rules (FaultOp::Control) arm here; everything else arms
        // the far-end device driver. Both see the full plan — selectors
        // keep them disjoint.
        self.channel.set_plan(plan.clone());
        self.plane.borrow_mut().driver_mut().set_fault_plan(plan);
    }

    fn clear_fault_plan(&mut self) {
        self.channel.clear_plan();
        self.plane.borrow_mut().driver_mut().clear_fault_plan();
    }

    fn suspend_faults(&mut self) {
        // Rollback entry: the failed attempt's unflushed mutations are
        // moot once the table checkpoints are restored — drop them so
        // the retried attempt starts from a clean batch.
        self.pending.clear();
        self.channel.suspend_faults();
        self.plane.borrow_mut().driver_mut().suspend_faults();
    }

    fn resume_faults(&mut self) {
        self.channel.resume_faults();
        self.plane.borrow_mut().driver_mut().resume_faults();
    }

    fn set_fabric_index(&mut self, index: Option<u16>) {
        self.channel.set_switch(index);
        self.plane.borrow_mut().driver_mut().set_fabric_index(index);
    }

    fn fabric_index(&self) -> Option<u16> {
        self.plane.borrow().driver().fabric_index()
    }

    fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.channel.set_telemetry(telemetry.clone());
        self.batch_size = telemetry.register_hist(scopes::HIST_CONTROL_BATCH);
        // Frames that come to the plane from outside any stack are
        // recorded in the registry of the last stack attached to it.
        self.plane.borrow_mut().set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    fn stats(&self) -> DriverStats {
        self.plane.borrow().driver().stats()
    }

    fn busy_until(&self) -> Nanos {
        self.plane.borrow().driver().busy_until()
    }

    fn legacy_table_update_at(&mut self, at: Nanos) -> Nanos {
        self.plane
            .borrow_mut()
            .driver_mut()
            .legacy_table_update_at(at)
    }
}

impl std::fmt::Debug for RemoteDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteDriver")
            .field("channel", &self.channel)
            .field("pending", &self.pending.len())
            .field("batching", &self.batching)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4_ast::Value;
    use rmt_sim::{ActionId, EntryHandle, ReadAgg, RegisterId, TableId};

    /// The deferral table, pinned. `defers` has no wildcard arm, so a new
    /// `DriverOp` variant does not compile until it is classified here.
    #[test]
    fn deferral_table_is_pinned_for_every_op() {
        fn defers(op: &DriverOp) -> bool {
            match op {
                DriverOp::TableMod { .. }
                | DriverOp::TableDel { .. }
                | DriverOp::RegisterWrite { .. }
                | DriverOp::CheckpointDiscard { .. } => true,
                DriverOp::SetDefault { is_init_flip, .. }
                | DriverOp::SetDefaultOn { is_init_flip, .. } => !*is_init_flip,
                DriverOp::TableAdd { .. }
                | DriverOp::PortSetUp { .. }
                | DriverOp::RegisterReadRange { .. }
                | DriverOp::RegisterReadAgg { .. }
                | DriverOp::PortUp { .. }
                | DriverOp::SpendExternal { .. }
                | DriverOp::SpendRollback { .. }
                | DriverOp::TableCheckpoint { .. }
                | DriverOp::TableRestore { .. }
                | DriverOp::MasterClaim { .. }
                | DriverOp::MasterProbe
                | DriverOp::TableDefaultOn { .. }
                | DriverOp::TableDump { .. } => false,
            }
        }
        let (table, action, reg) = (TableId(0), ActionId(0), RegisterId(0));
        let handle = EntryHandle(1);
        let set_default = |is_init_flip| DriverOp::SetDefault {
            table,
            action,
            data: vec![],
            is_init_flip,
        };
        let set_default_on = |is_init_flip| DriverOp::SetDefaultOn {
            pipe: 0,
            table,
            action,
            data: vec![],
            is_init_flip,
        };
        let every_op = [
            DriverOp::TableAdd {
                table,
                key: vec![],
                priority: 0,
                action,
                data: vec![],
            },
            DriverOp::TableMod {
                table,
                handle,
                action,
                data: vec![],
            },
            DriverOp::TableDel { table, handle },
            set_default(false),
            set_default(true),
            set_default_on(false),
            set_default_on(true),
            DriverOp::RegisterWrite {
                reg,
                index: 0,
                value: Value::zero(8),
            },
            DriverOp::PortSetUp { port: 0, up: true },
            DriverOp::RegisterReadRange { reg, lo: 0, hi: 0 },
            DriverOp::RegisterReadAgg {
                reg,
                lo: 0,
                hi: 0,
                agg: ReadAgg::Sum,
            },
            DriverOp::PortUp { port: 0 },
            DriverOp::SpendExternal { dur: 1 },
            DriverOp::SpendRollback { tables: 1 },
            DriverOp::TableCheckpoint { table },
            DriverOp::TableRestore { table, token: 0 },
            DriverOp::CheckpointDiscard { token: 0 },
            DriverOp::MasterClaim {
                controller: 0,
                lease_ns: 1,
            },
            DriverOp::MasterProbe,
            DriverOp::TableDefaultOn { pipe: 0, table },
            DriverOp::TableDump { table },
        ];
        let deferred = every_op.iter().filter(|op| op.deferrable()).count();
        assert_eq!(deferred, 6);
        for op in &every_op {
            assert_eq!(op.deferrable(), defers(op), "{op:?}");
        }
    }
}
