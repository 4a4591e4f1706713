//! The agent-facing driver vocabulary.
//!
//! What an agent can ask of a switch is one value type, [`DriverOp`],
//! answered by one [`DriverResponse`]. [`DriverApi::submit`] carries an op
//! out; the typed calls (`table_add`, `register_read_range`, …) are sugar
//! written once on the trait: build the op, submit it, unpack the answer.
//! The same dialogue loop therefore runs *on* the switch CPU (the paper's
//! deployment — [`LocalDriver`](crate::driver::LocalDriver), in-process,
//! zero transport cost) or *remotely* over a control channel
//! (`mantis-control`'s `RemoteDriver`, which puts the very same op values
//! on the wire and pipelines batches).
//!
//! The driver owns its access path to the device. A batching
//! implementation may *defer* the ops [`DriverOp::deferrable`] names;
//! every other op is a **barrier** that observes every op issued before
//! it, and [`DriverApi::flush`] forces pending work to complete. The
//! local driver applies everything synchronously.

use crate::costmodel::CostModel;
use crate::driver::{DriverStats, EntrySnapshot};
use mantis_faults::FaultPlan;
use mantis_telemetry::Telemetry;
use p4_ast::Value;
use rmt_sim::{
    ActionId, Clock, DataPlaneSpec, DriverError, EntryHandle, KeyField, Nanos, PortId, ReadAgg,
    RegisterId, TableId,
};
use std::sync::Arc;

/// Opaque name of a live table checkpoint. A checkpoint is not a copy: it
/// is a mark on the undo journal the device driver keeps for its software
/// shadow of that table (`rmt_sim::table`), so nothing but this token ever
/// crosses the driver API — or the wire.
///
/// The contract of the three checkpoint ops:
///
/// * tokens of one table form a **stack**. [`DriverOp::TableRestore`]
///   rolls the table back to the named mark and retires every younger
///   token of that table — they name states that no longer exist.
///   Tokens of other tables are untouched;
/// * the restored token **stays live**: a transaction restores the same
///   checkpoint once per failed apply attempt;
/// * a live mark makes every mutation of its table record an inverse, so
///   whoever takes a token owes its [`DriverOp::CheckpointDiscard`] — on
///   every path, including a transaction that fails while still opening.
///   The agent is the only holder, takes at most one per table, and holds
///   it for one transaction;
/// * a dead, discarded or foreign token restores nothing and is refused
///   (`TableError::UnknownHandle(token)`) before any cost; discarding one
///   is a no-op;
/// * table state is entries (in order, handles included), default action
///   and the handle counter. Lookup/hit statistics are traffic counters
///   and are never rewound.
pub type CheckpointToken = u64;

/// One driver operation: what [`DriverApi::submit`] carries out and what a
/// request frame carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DriverOp {
    /// Install one physical entry; the handle is device-assigned.
    TableAdd {
        table: TableId,
        key: Vec<KeyField>,
        priority: u32,
        action: ActionId,
        data: Vec<Value>,
    },
    TableMod {
        table: TableId,
        handle: EntryHandle,
        action: ActionId,
        data: Vec<Value>,
    },
    TableDel {
        table: TableId,
        handle: EntryHandle,
    },
    /// Fan-out default-action update. `is_init_flip` marks the master
    /// init table's vv/mv flip: the cheapest cost class, and a barrier.
    SetDefault {
        table: TableId,
        action: ActionId,
        data: Vec<Value>,
        is_init_flip: bool,
    },
    /// Single-pipe default-action update (the per-pipe version flip).
    SetDefaultOn {
        pipe: u16,
        table: TableId,
        action: ActionId,
        data: Vec<Value>,
        is_init_flip: bool,
    },
    RegisterWrite {
        reg: RegisterId,
        index: u32,
        value: Value,
    },
    PortSetUp {
        port: PortId,
        up: bool,
    },
    /// Batched, cost-accounted range read.
    RegisterReadRange {
        reg: RegisterId,
        lo: u32,
        hi: u32,
    },
    /// Cross-pipe aggregated read of the *sync protocol* — free of device
    /// cost (the values ride along with an accounted poll), but a remote
    /// driver still pays its channel costs.
    RegisterReadAgg {
        reg: RegisterId,
        lo: u32,
        hi: u32,
        agg: ReadAgg,
    },
    /// Admin state of a port (`None` for an unknown port).
    PortUp {
        port: PortId,
    },
    /// Account an externally computed measurement cost (the packed-word
    /// field poll).
    SpendExternal {
        dur: Nanos,
    },
    /// Account the recovery work of restoring `tables` table shadows.
    SpendRollback {
        tables: u32,
    },
    /// Open a checkpoint of a table: a mark on the journal of the driver's
    /// software shadow (free of device cost). From here until the token is
    /// discarded the table journals its mutations. See
    /// [`CheckpointToken`] for the contract.
    TableCheckpoint {
        table: TableId,
    },
    /// Roll a table back to a live checkpoint *of that table*. The token
    /// stays valid (rollback may restore the same checkpoint across
    /// several apply attempts); younger tokens of the table die.
    TableRestore {
        table: TableId,
        token: CheckpointToken,
    },
    /// Drop a checkpoint the transaction no longer needs; with a table's
    /// last one gone, its journal empties and recording stops.
    CheckpointDiscard {
        token: CheckpointToken,
    },
    /// Claim (or renew) switch mastership for `controller`, leasing it
    /// until `now + lease_ns` (P4Runtime-style arbitration). Answered by
    /// the control plane, never by a device driver.
    MasterClaim {
        controller: u16,
        lease_ns: Nanos,
    },
    /// Read the current mastership state without claiming it.
    MasterProbe,
    /// Read one pipe's current default action (crash-recovery read-back:
    /// a restarted agent recovers the per-pipe version bits, the
    /// measurement version and the committed slot values from it).
    TableDefaultOn {
        pipe: u16,
        table: TableId,
    },
    /// Dump every installed entry of a table (every pipe matches the
    /// same entries) — how a restarted agent discovers what the dead one
    /// left installed.
    TableDump {
        table: TableId,
    },
}

impl DriverOp {
    /// May a batching driver queue this op instead of sending it now?
    /// True for the mutations with no client-visible result; everything
    /// whose answer the caller needs at once — device-assigned handles,
    /// reads, checkpoints and restores, init-table flips (the RBFRT-style
    /// flush point), port admin changes, mastership — is a barrier.
    pub fn deferrable(&self) -> bool {
        match self {
            DriverOp::TableMod { .. }
            | DriverOp::TableDel { .. }
            | DriverOp::RegisterWrite { .. }
            | DriverOp::CheckpointDiscard { .. } => true,
            DriverOp::SetDefault { is_init_flip, .. }
            | DriverOp::SetDefaultOn { is_init_flip, .. } => !is_init_flip,
            _ => false,
        }
    }

    /// Take back the action data of an op built around a vector its
    /// stager keeps (empty for an op that carries none).
    pub fn take_data(&mut self) -> Vec<Value> {
        match self {
            DriverOp::TableAdd { data, .. }
            | DriverOp::TableMod { data, .. }
            | DriverOp::SetDefault { data, .. }
            | DriverOp::SetDefaultOn { data, .. } => std::mem::take(data),
            _ => Vec::new(),
        }
    }
}

/// The answer to one [`DriverOp`]. On the wire a failed batch is
/// truncated: the server stops at the first error, so the *last* response
/// of a short batch is the failing op's error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DriverResponse {
    Ok,
    Handle(EntryHandle),
    Values(Vec<Value>),
    PortState(Option<bool>),
    Token(CheckpointToken),
    Master {
        granted: bool,
        master: Option<u16>,
        expires: Nanos,
    },
    /// A pipe's default action: `(action, data)`. An uninitialized
    /// default comes back as `ActionId(0)` with empty data.
    DefaultAction {
        action: ActionId,
        data: Vec<Value>,
    },
    /// A full table dump.
    Entries(Vec<EntrySnapshot>),
    Err(DriverError),
}

impl DriverResponse {
    /// Every op has exactly one answer shape; a driver that answers with
    /// another is broken.
    fn unexpected(self, want: &str) -> ! {
        panic!("invariant: driver answered {self:?} where {want} was due")
    }

    pub(crate) fn into_handle(self) -> EntryHandle {
        match self {
            DriverResponse::Handle(h) => h,
            other => other.unexpected("Handle"),
        }
    }

    pub(crate) fn into_values(self) -> Vec<Value> {
        match self {
            DriverResponse::Values(vs) => vs,
            other => other.unexpected("Values"),
        }
    }
}

/// Every operation the Mantis agent needs from a switch driver.
///
/// Implementations: [`LocalDriver`](crate::driver::LocalDriver)
/// (in-process, the paper's shape) and `mantis_control::RemoteDriver`
/// (wire-encoded, batching). Both implement
/// [`submit_reusing`](Self::submit_reusing); [`submit`](Self::submit) and
/// the typed calls below are provided.
pub trait DriverApi {
    // -- static metadata (client-side; pushed at session setup like a
    //    P4Runtime pipeline config) -----------------------------------------

    /// The data-plane spec of the controlled switch.
    fn spec(&self) -> &DataPlaneSpec;

    /// Hardware pipes of the controlled switch.
    fn num_pipes(&self) -> u16;

    /// The driver's virtual-time cost model.
    fn cost(&self) -> &CostModel;

    /// The shared virtual clock every cost is accounted on.
    fn clock(&self) -> &Clock;

    fn table_id(&self, name: &str) -> Result<TableId, DriverError> {
        self.spec()
            .table_id(name)
            .ok_or_else(|| DriverError::UnknownTable(name.to_string()))
    }

    fn action_id(&self, name: &str) -> Result<ActionId, DriverError> {
        self.spec()
            .action_id(name)
            .ok_or_else(|| DriverError::UnknownAction(name.to_string()))
    }

    fn register_id(&self, name: &str) -> Result<RegisterId, DriverError> {
        self.spec()
            .register_id(name)
            .ok_or_else(|| DriverError::UnknownRegister(name.to_string()))
    }

    // -- the one operation --------------------------------------------------

    /// Carry out one op and answer it. Never answers
    /// [`DriverResponse::Err`]: a failure is the `Err` of the result.
    fn submit(&mut self, op: &DriverOp) -> Result<DriverResponse, DriverError> {
        self.submit_reusing(op, &mut Vec::new())
    }

    /// [`submit`](Self::submit), lending the driver a vector: a register
    /// read may take `spare`'s allocation (leaving it empty) for the
    /// [`DriverResponse::Values`] it answers, so a caller that puts each
    /// answer's vector back for the next read allocates nothing.
    fn submit_reusing(
        &mut self,
        op: &DriverOp,
        spare: &mut Vec<Value>,
    ) -> Result<DriverResponse, DriverError>;

    // -- typed calls: build the op, submit, unpack --------------------------

    fn table_add(
        &mut self,
        table: TableId,
        key: Vec<KeyField>,
        priority: u32,
        action: ActionId,
        data: Vec<Value>,
    ) -> Result<EntryHandle, DriverError> {
        let op = DriverOp::TableAdd {
            table,
            key,
            priority,
            action,
            data,
        };
        Ok(self.submit(&op)?.into_handle())
    }

    fn table_mod(
        &mut self,
        table: TableId,
        handle: EntryHandle,
        action: ActionId,
        data: Vec<Value>,
    ) -> Result<(), DriverError> {
        let op = DriverOp::TableMod {
            table,
            handle,
            action,
            data,
        };
        self.submit(&op).map(drop)
    }

    fn table_del(&mut self, table: TableId, handle: EntryHandle) -> Result<(), DriverError> {
        self.submit(&DriverOp::TableDel { table, handle }).map(drop)
    }

    fn table_set_default(
        &mut self,
        table: TableId,
        action: ActionId,
        data: Vec<Value>,
        is_init_flip: bool,
    ) -> Result<(), DriverError> {
        let op = DriverOp::SetDefault {
            table,
            action,
            data,
            is_init_flip,
        };
        self.submit(&op).map(drop)
    }

    fn table_set_default_on(
        &mut self,
        pipe: u16,
        table: TableId,
        action: ActionId,
        data: Vec<Value>,
        is_init_flip: bool,
    ) -> Result<(), DriverError> {
        let op = DriverOp::SetDefaultOn {
            pipe,
            table,
            action,
            data,
            is_init_flip,
        };
        self.submit(&op).map(drop)
    }

    fn port_set_up(&mut self, port: PortId, up: bool) -> Result<(), DriverError> {
        self.submit(&DriverOp::PortSetUp { port, up }).map(drop)
    }

    fn register_read_range(
        &mut self,
        reg: RegisterId,
        lo: u32,
        hi: u32,
    ) -> Result<Vec<Value>, DriverError> {
        Ok(self
            .submit(&DriverOp::RegisterReadRange { reg, lo, hi })?
            .into_values())
    }

    fn port_up(&mut self, port: PortId) -> Result<Option<bool>, DriverError> {
        match self.submit(&DriverOp::PortUp { port })? {
            DriverResponse::PortState(st) => Ok(st),
            other => other.unexpected("PortState"),
        }
    }

    fn table_default_on(
        &mut self,
        pipe: u16,
        table: TableId,
    ) -> Result<(ActionId, Vec<Value>), DriverError> {
        match self.submit(&DriverOp::TableDefaultOn { pipe, table })? {
            DriverResponse::DefaultAction { action, data } => Ok((action, data)),
            other => other.unexpected("DefaultAction"),
        }
    }

    fn table_dump(&mut self, table: TableId) -> Result<Vec<EntrySnapshot>, DriverError> {
        match self.submit(&DriverOp::TableDump { table })? {
            DriverResponse::Entries(es) => Ok(es),
            other => other.unexpected("Entries"),
        }
    }

    /// Infallible by contract: it only runs inside a fault-suspended
    /// recovery section, where neither a channel nor the device driver
    /// injects.
    fn spend_rollback(&mut self, tables: usize) {
        let tables = tables as u32;
        let _ = self.submit(&DriverOp::SpendRollback { tables });
    }

    fn table_checkpoint(&mut self, table: TableId) -> Result<CheckpointToken, DriverError> {
        match self.submit(&DriverOp::TableCheckpoint { table })? {
            DriverResponse::Token(t) => Ok(t),
            other => other.unexpected("Token"),
        }
    }

    fn table_restore(&mut self, table: TableId, token: CheckpointToken) -> Result<(), DriverError> {
        self.submit(&DriverOp::TableRestore { table, token })
            .map(drop)
    }

    /// No client-visible result; a (rare) transient loss on a remote
    /// driver in one-op-per-frame mode merely leaks a server-side
    /// checkpoint.
    fn checkpoint_discard(&mut self, token: CheckpointToken) {
        let _ = self.submit(&DriverOp::CheckpointDiscard { token });
    }

    // -- batching -----------------------------------------------------------

    /// Force every deferred mutation to complete. No-op for synchronous
    /// drivers.
    fn flush(&mut self) -> Result<(), DriverError> {
        Ok(())
    }

    // -- fault & config plumbing --------------------------------------------

    /// Install a fault plan. A remote driver arms *both* its channel (the
    /// `FaultOp::Control` rules) and the far-end device driver (everything
    /// else) — write rules with specific selectors, not `FaultOp::Any`.
    fn set_fault_plan(&mut self, plan: FaultPlan);

    fn clear_fault_plan(&mut self);

    /// Enter a fault-free recovery section (nestable).
    fn suspend_faults(&mut self);

    fn resume_faults(&mut self);

    fn set_fabric_index(&mut self, index: Option<u16>);

    fn fabric_index(&self) -> Option<u16>;

    /// Record into `telemetry` from here on: the registry of the stack this
    /// driver is part of. A driver passes it on to whatever records beneath
    /// it.
    fn set_telemetry(&mut self, telemetry: Arc<Telemetry>);

    /// Cumulative device-driver statistics.
    fn stats(&self) -> DriverStats;

    /// End of the device driver's current busy window.
    fn busy_until(&self) -> Nanos;

    /// Simulate a concurrent legacy control-plane op submitted at `at`
    /// (Fig. 12); returns its completion time.
    fn legacy_table_update_at(&mut self, at: Nanos) -> Nanos;
}
