//! The malleable update as a transaction: the prepare / commit / mirror
//! sequence of §5.1.2, all-or-nothing.
//!
//! [`Txn::apply`] checkpoints before the first driver op, attempts the
//! sequence, and on a mid-apply failure rolls everything back — and tries
//! again while the failure is transient. [`Txn`] owns what a rollback
//! needs: on the device, one checkpoint per touched table (a mark on the
//! driver's undo journal, held for the transaction) and the prior port
//! states; in the agent, the inverse of every logical-table bookkeeping
//! change, recorded as the attempt makes it. The §5 bookkeeping needs no
//! take-back: it moves only once an attempt holds ([`Isolation::settle`]).

use crate::driver_api::{CheckpointToken, DriverOp};
use crate::health::Health;
use crate::isolation::Isolation;
use crate::logical::{LogicalTable, LogicalUndo, Staged, StagedOp};
use crate::reactions::Reactions;
use crate::report::{AgentError, AgentPhase};
use rmt_sim::{DriverError, Nanos, PortId, TableId};

/// The staged op an apply attempt is carrying out, for breaker attribution
/// should it fail.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) enum Blame {
    /// No single staged op (init writes, the version flip, the flush).
    #[default]
    None,
    TableOp(usize),
    PortOp(usize),
}

#[derive(Debug, Default)]
pub(crate) struct Txn {
    /// Device tables the staged update can touch, sorted, each once.
    touched: Vec<TableId>,
    /// The checkpoints open on them.
    tables: Vec<(TableId, CheckpointToken)>,
    ports: Vec<(PortId, bool)>,
    logical: Vec<LogicalUndo>,
    in_flight: Blame,
    /// Rollbacks the last [`apply`](Txn::apply) took.
    rollbacks: u32,
}

impl Txn {
    pub(crate) fn rollbacks(&self) -> u32 {
        self.rollbacks
    }

    /// Run the staged update as a transaction: checkpoint, try, roll back +
    /// retry on transient failure, roll back + drop the staged intent on
    /// permanent failure (all-or-nothing). Returns `(update_ns, sync_ns)`.
    pub(crate) fn apply(
        &mut self,
        staged: &mut Staged,
        tables: &mut [LogicalTable],
        iso: &mut Isolation,
        reactions: &mut Reactions,
        h: &mut Health,
    ) -> Result<(Nanos, Nanos), AgentError> {
        self.rollbacks = 0;
        if staged.is_empty() {
            return Ok((0, 0));
        }
        self.begin(staged, tables, iso, h)?;
        let mut attempt = 0u32;
        let result = loop {
            match self.attempt(staged, tables, iso, h) {
                Ok(ns) => {
                    iso.settle(&staged.slot_writes);
                    staged.clear();
                    break Ok(ns);
                }
                // The process died mid-apply. A dead agent cannot roll
                // back: the device is left torn exactly as the crash found
                // it (some pipes committed, some not), which is the state a
                // successor must reconcile.
                Err(e) if e.is_crash() => break Err(e),
                Err(e) => {
                    self.rollback(staged, tables, h);
                    self.rollbacks += 1;
                    h.telemetry().add(h.metrics().rollbacks, 1);
                    if e.is_transient() && h.retry_after(&mut attempt) {
                        continue;
                    }
                    // Permanent: blame the reaction whose staged op failed
                    // (if attributable), drop the intent, surface the error.
                    reactions.blame(self.in_flight, h);
                    staged.clear();
                    break Err(e);
                }
            }
        };
        self.discard(h);
        result
    }

    /// Open the transaction: checkpoint everything one apply attempt can
    /// touch on the device — every init table and every staged-op table —
    /// and note the port states it is about to replace. A failure part-way
    /// hands back the checkpoints already taken: a mark left behind keeps
    /// its table journalling.
    fn begin(
        &mut self,
        staged: &Staged,
        tables: &[LogicalTable],
        iso: &Isolation,
        h: &mut Health,
    ) -> Result<(), AgentError> {
        self.ports.clear();
        self.logical.clear();

        let staged_tables = staged.table_ops.iter();
        let staged_tables = staged_tables.map(|op| tables[op.table()].table_id);
        self.touched.clear();
        self.touched.extend(iso.init_tables().chain(staged_tables));
        self.touched.sort_unstable();
        self.touched.dedup();

        let opened = self.open_checkpoints(staged, h);
        if opened.is_err() {
            self.discard(h);
        }
        opened.map_err(AgentError::from)
    }

    /// Checkpoint every touched table, then read the prior state of every
    /// port about to change. Stops at the first failure with the
    /// checkpoints taken so far in `self.tables`.
    fn open_checkpoints(&mut self, staged: &Staged, h: &mut Health) -> Result<(), DriverError> {
        debug_assert!(self.tables.is_empty(), "the last transaction closed");
        let driver = h.driver_mut();
        for table in &self.touched {
            let token = driver.table_checkpoint(*table)?;
            self.tables.push((*table, token));
        }
        for (port, _) in &staged.port_ops {
            if let Some(up) = driver.port_up(*port)? {
                self.ports.push((*port, up));
            }
        }
        Ok(())
    }

    fn discard(&mut self, h: &mut Health) {
        for (_, token) in self.tables.drain(..) {
            h.driver_mut().checkpoint_discard(token);
        }
    }

    /// Take back a failed apply attempt. The device side runs with faults
    /// suspended: recovery replays the driver's journaled shadow over a
    /// known-good path. The agent side replays its own undo records,
    /// newest first. Staged ops are left intact so the caller can retry or
    /// drop them, and the checkpoints stay open for the next attempt.
    fn rollback(&mut self, staged: &mut Staged, tables: &mut [LogicalTable], h: &mut Health) {
        h.without_faults(|h| {
            let driver = h.driver_mut();
            for (tid, token) in &self.tables {
                let res = driver.table_restore(*tid, *token);
                debug_assert!(
                    res.is_ok(),
                    "invariant: restoring a live checkpoint succeeds"
                );
            }
            for (port, up) in &self.ports {
                let res = driver.port_set_up(*port, *up);
                debug_assert!(res.is_ok(), "invariant: restoring a known port succeeds");
            }
        });
        h.driver_mut().spend_rollback(self.tables.len());
        for undo in self.logical.drain(..).rev() {
            undo.revert(tables, &mut staged.table_ops);
        }
    }

    /// One attempt at the prepare/commit/mirror sequence: `(update_ns,
    /// sync_ns)`, also recorded as spans. `staged` is left for a retry.
    fn attempt(
        &mut self,
        staged: &mut Staged,
        tables: &mut [LogicalTable],
        iso: &mut Isolation,
        h: &mut Health,
    ) -> Result<(Nanos, Nanos), AgentError> {
        let m = h.metrics();
        let t_update = h.spans(&[], &[m.span_update]);
        if let Err(e) = self.update(staged, tables, iso, h) {
            h.spans(&[m.span_update], &[]);
            return Err(e.in_phase(AgentPhase::Update));
        }
        let t_sync = h.spans(&[m.span_update], &[m.span_sync]);
        let synced = self.sync(staged, tables, iso, h);
        let t_done = h.spans(&[m.span_sync], &[]);
        synced.map_err(|e| e.in_phase(AgentPhase::Sync))?;
        Ok((t_sync - t_update, t_done - t_sync))
    }

    /// Prepare staged updates on the shadow copy, then commit by flipping
    /// vv in the master init table (plus the atomic rider ops).
    fn update(
        &mut self,
        staged: &mut Staged,
        tables: &mut [LogicalTable],
        iso: &mut Isolation,
        h: &mut Health,
    ) -> Result<(), AgentError> {
        self.table_ops(staged, tables, iso.shadow(), false, h)?;
        self.in_flight = Blame::None;
        iso.write_slots(iso.shadow(), &staged.slot_writes, h)?;
        iso.commit(&staged.slot_writes, h)?;
        // Port ops and default-action changes are single atomic driver ops;
        // they ride along with the commit point.
        for (i, (port, up)) in staged.port_ops.iter().enumerate() {
            let set = DriverOp::PortSetUp {
                port: *port,
                up: *up,
            };
            self.in_flight = Blame::PortOp(i);
            h.submit(&set)?;
        }
        for (i, op) in staged.table_ops.iter_mut().enumerate() {
            if let StagedOp::SetDefault {
                table,
                action,
                action_data,
            } = op
            {
                let data = std::mem::take(action_data);
                let mut set = tables[*table].set_default_op(*action, data);
                self.in_flight = Blame::TableOp(i);
                let sent = h.submit(&set);
                *action_data = set.take_data();
                sent?;
            }
        }
        Ok(())
    }

    /// Mirror the committed state onto the old primary copy, then drain
    /// pipelined driver work before declaring the iteration synced (a no-op
    /// for the in-process driver). No in-place retry of the flush: a failed
    /// flush discards the remote batch, so recovery must replay the whole
    /// attempt via the transactional rollback, not re-flush emptiness.
    fn sync(
        &mut self,
        staged: &mut Staged,
        tables: &mut [LogicalTable],
        iso: &mut Isolation,
        h: &mut Health,
    ) -> Result<(), AgentError> {
        self.table_ops(staged, tables, iso.vv(), true, h)?;
        self.in_flight = Blame::None;
        iso.write_slots(iso.vv(), &staged.slot_writes, h)?;
        Ok(h.driver_mut().flush()?)
    }

    /// Apply staged table ops, in place, to one vv copy.
    fn table_ops(
        &mut self,
        staged: &mut Staged,
        tables: &mut [LogicalTable],
        copy: u8,
        mirror: bool,
        h: &mut Health,
    ) -> Result<(), AgentError> {
        for (i, op) in staged.table_ops.iter_mut().enumerate() {
            self.in_flight = Blame::TableOp(i);
            tables[op.table()].apply((i, op), copy, mirror, h, &mut self.logical)?;
        }
        Ok(())
    }
}
