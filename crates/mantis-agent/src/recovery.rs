//! Bring-up: the one routine by which an agent meets its switch, entered
//! three ways — onto a fresh device, over a live predecessor, or after a
//! crash. It holds no state of its own, orchestrates
//! [`Isolation`]'s `install` / `reassert` / `read_back`, and only reads
//! the rest of the agent until the crash path, having repaired the device,
//! commits by wiping the dead process's soft state.

use crate::health::Health;
use crate::isolation::Isolation;
use crate::logical::{LogicalTable, Staged};
use crate::reactions::Reactions;
use crate::report::{AgentError, AgentPhase};
use p4_ast::Value;
use p4r_compiler::iface::ControlInterface;
use rmt_sim::KeyField;

/// What the agent assumes about the device it attaches to: the
/// [`prologue`](crate::MantisAgent::prologue), [`adopt`](crate::MantisAgent::adopt)
/// and [`reconcile`](crate::MantisAgent::reconcile) of the public API.
pub(crate) enum BringUp {
    /// Nobody initialised it.
    Fresh,
    /// A previous controller did, and died *between* iterations.
    TakeOver,
    /// A previous agent died at an arbitrary driver op.
    Reconcile,
}

/// Bring the agent up on its switch. No op here is retried.
pub(crate) fn bring_up(
    how: BringUp,
    iface: &ControlInterface,
    iso: &mut Isolation,
    tables: &mut [LogicalTable],
    staged: &mut Staged,
    reactions: &mut Reactions,
    h: &mut Health,
) -> Result<(), AgentError> {
    let done = match how {
        BringUp::Fresh => iso
            .install(h)
            .and_then(|()| ensure_prologue_entries(iface, false, h)),
        // Prologue entries are static and stand. Malleable config
        // re-converges from live measurements over subsequent iterations.
        BringUp::TakeOver => iso.reassert(h).and_then(|()| Ok(h.driver_mut().flush()?)),
        BringUp::Reconcile => h.without_faults(|h| {
            iso.read_back(h)?;
            // User tables: wipe the physical entries, reset the bookkeeping.
            for lt in tables {
                for e in h.driver_mut().table_dump(lt.table_id)? {
                    h.driver_mut().table_del(lt.table_id, e.handle)?;
                }
                lt.reset();
            }
            ensure_prologue_entries(iface, true, h)?;
            // Soft state of the dead agent dies with it: staged intent, and
            // the reactions — their statics, breakers, snapshots and
            // register caches lived in the process. The caller registers
            // them afresh, as it does on a fresh agent.
            staged.clear();
            reactions.clear();
            Ok(h.driver_mut().flush()?)
        }),
    };
    done.map_err(|e| e.in_phase(AgentPhase::Prologue))
}

/// Install the static prologue entries: the load-table selectors of the
/// field-list optimization, a table's entries consecutive. With `look` the
/// device may already hold some (it was initialised before), so each table
/// is dumped and only the missing selectors are added — a load table has
/// room for each selector twice, so re-adding them blindly fills it on the
/// second recovery.
fn ensure_prologue_entries(
    iface: &ControlInterface,
    look: bool,
    h: &mut Health,
) -> Result<(), AgentError> {
    let driver = h.driver_mut();
    for entries in iface.prologue_entries.chunk_by(|a, b| a.table == b.table) {
        let table = driver.table_id(&entries[0].table)?;
        let installed = match look {
            true => driver.table_dump(table)?,
            false => Vec::new(),
        };
        for pe in entries {
            // (The device holds the selector at its column's width.)
            let selects = |k: &KeyField| matches!(k, KeyField::Exact(v) if v.bits() == u128::from(pe.selector));
            if installed.iter().any(|e| e.key.first().is_some_and(selects)) {
                continue;
            }
            let action = driver.action_id(&pe.action)?;
            let key = vec![KeyField::Exact(Value::new(u128::from(pe.selector), 16))];
            driver.table_add(table, key, 0, action, vec![])?;
        }
    }
    Ok(())
}
