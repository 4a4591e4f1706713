//! Logical-table bookkeeping for the three-phase serializable update
//! protocol (§5.1.2, Figs. 7-8).
//!
//! Users manipulate *logical* entries (original P4R key, original action).
//! Each logical entry materializes as physical entries in both the vv=0 and
//! vv=1 copies of the table (after the mirror phase); the agent tracks the
//! physical handles per copy.
//!
//! Everything here is addressed by ids resolved once, when the agent is
//! built: a table is its index in the agent's table vector, an action its
//! ordinal in the table's original action list. A [`LogicalTable`] carries
//! the plan that turns those into driver ids — the device [`TableId`], the
//! physical key kinds, and per action the [`ActionId`] of every physical
//! entry one logical entry expands to — so applying a staged op compares
//! and hashes no string.

use crate::driver_api::DriverOp;
use crate::health::Health;
use crate::isolation::Slot;
use crate::report::{AgentError, AgentErrorKind};
use p4_ast::{MatchKind, Value};
use p4r_compiler::entry::{expand_entry, expansion_variants, LogicalKey, PhysEntry, PhysKey};
use p4r_compiler::iface::TableInfo;
use rmt_sim::{ActionId, DataPlaneSpec, EntryHandle, KeyField, TableId};
use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;

/// A user-visible handle to a logical entry.
pub type LogicalHandle = u64;

/// State of one logical entry.
#[derive(Clone, Debug)]
pub struct LogicalEntry {
    pub key: Vec<LogicalKey>,
    pub priority: u32,
    /// Ordinal of the entry's action in its table's action list.
    pub action: usize,
    pub action_data: Vec<Value>,
    /// Physical handles per vv copy.
    pub phys: [Vec<EntryHandle>; 2],
}

/// One original action of a table, resolved against the switch.
#[derive(Clone, Debug)]
pub struct ActionPlan {
    /// Original (user-visible) action name.
    pub name: String,
    /// Action-data parameter count.
    pub arity: usize,
    /// The variant a default-action change installs.
    default_variant: ActionId,
    /// For each physical entry one logical entry using this action expands
    /// to, in expansion order, the specialized variant it carries.
    phys_actions: Vec<ActionId>,
}

/// Bookkeeping for one malleable (or malleable-affected) table.
#[derive(Clone, Debug)]
pub struct LogicalTable {
    pub name: String,
    pub table_id: TableId,
    pub entries: HashMap<LogicalHandle, LogicalEntry>,
    next_handle: LogicalHandle,
    /// The compiler's description of the table, which entry expansion
    /// reads.
    info: TableInfo,
    /// Does the physical key carry a `vv` column? Unversioned tables keep
    /// a single physical entry set, installed during the prepare pass; the
    /// mirror pass skips their physical writes entirely.
    versioned: bool,
    /// User-visible key columns.
    pub(crate) user_key_len: usize,
    /// Match kind and width of each physical key column.
    key_kinds: Vec<(MatchKind, u16)>,
    pub(crate) actions: Vec<ActionPlan>,
}

impl LogicalTable {
    /// Resolve table `info` against the loaded program.
    ///
    /// # Panics
    /// Panics if `spec` lacks the table or one of its action variants.
    pub fn new(info: &TableInfo, spec: &DataPlaneSpec) -> Self {
        let must = |what: &str, name: &str| -> ! {
            panic!("invariant: {what} `{name}` must exist on the switch")
        };
        let table_id = spec
            .table_id(&info.name)
            .unwrap_or_else(|| must("table", &info.name));
        let action_id =
            |name: &String| spec.action_id(name).unwrap_or_else(|| must("action", name));
        let actions = info
            .actions
            .iter()
            .map(|av| {
                let variants: Vec<ActionId> = av.variants.iter().map(action_id).collect();
                let phys = expansion_variants(info, av);
                ActionPlan {
                    name: av.orig.clone(),
                    arity: spec.actions[variants[0].0 as usize].param_widths.len(),
                    default_variant: variants[0],
                    phys_actions: phys.into_iter().map(|v| variants[v]).collect(),
                }
            })
            .collect();
        let key = &spec.table(table_id).key;
        LogicalTable {
            name: info.name.clone(),
            table_id,
            entries: HashMap::new(),
            next_handle: 1,
            info: info.clone(),
            versioned: info.vv_col.is_some(),
            user_key_len: info.user_key.len(),
            key_kinds: key.iter().map(|k| (k.kind, k.width)).collect(),
            actions,
        }
    }

    /// Forget every logical entry (the device was wiped).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.next_handle = 1;
    }

    pub fn alloc_handle(&mut self) -> LogicalHandle {
        let h = self.next_handle;
        self.next_handle += 1;
        h
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Ordinal of original action `name`.
    pub fn action_ordinal(&self, name: &str) -> Option<usize> {
        self.actions.iter().position(|a| a.name == name)
    }

    fn missing(&self, handle: LogicalHandle) -> AgentError {
        let table = self.name.clone();
        AgentErrorKind::MissingEntry { table, handle }.into()
    }

    /// The driver op of a staged default-action change, built around the
    /// staged data (the stager [takes it back](DriverOp::take_data)).
    pub(crate) fn set_default_op(&self, action: usize, data: Vec<Value>) -> DriverOp {
        DriverOp::SetDefault {
            table: self.table_id,
            action: self.actions[action].default_variant,
            data,
            is_init_flip: false,
        }
    }

    /// Install the physical entries of one logical entry on vv copy `copy`.
    fn add_phys(
        &self,
        entry: (&[LogicalKey], u32, usize, &[Value]),
        copy: u8,
        h: &mut Health,
    ) -> Result<Vec<EntryHandle>, AgentError> {
        let (key, priority, action, data) = entry;
        let plan = &self.actions[action];
        let vv = self.versioned.then_some(copy);
        let phys = expand_entry(&self.info, key, &plan.name, data, priority, vv)?;
        debug_assert_eq!(phys.len(), plan.phys_actions.len());
        let mut handles = Vec::with_capacity(phys.len());
        for (pe, action) in phys.into_iter().zip(&plan.phys_actions) {
            let op = DriverOp::TableAdd {
                table: self.table_id,
                key: phys_key(&pe, &self.key_kinds),
                priority: pe.priority,
                action: *action,
                data: pe.action_data,
            };
            handles.push(h.submit(&op)?.into_handle());
        }
        Ok(handles)
    }

    /// Apply staged op `op` (addressed to this table, with its index in the
    /// batch) to vv copy `copy`. In the mirror
    /// pass a delete also removes the logical entry and a modify adopts
    /// the new action. Every change to the bookkeeping leaves its inverse
    /// in `undo`.
    pub(crate) fn apply(
        &mut self,
        (op_index, op): (usize, &mut StagedOp),
        copy: u8,
        mirror: bool,
        h: &mut Health,
        undo: &mut Vec<LogicalUndo>,
    ) -> Result<(), AgentError> {
        let unversioned = !self.versioned;
        let skip_phys = unversioned && mirror;
        let table = op.table();
        let at = |handle| (table, handle);
        match op {
            StagedOp::Add {
                handle,
                key,
                priority,
                action,
                action_data,
                ..
            } => {
                if skip_phys {
                    return Ok(());
                }
                let handles = self.add_phys((key, *priority, *action, action_data), copy, h)?;
                let entry = match self.entries.entry(*handle) {
                    MapEntry::Occupied(e) => e.into_mut(),
                    MapEntry::Vacant(v) => {
                        undo.push(LogicalUndo::Entry(at(*handle), None));
                        v.insert(LogicalEntry {
                            key: key.clone(),
                            priority: *priority,
                            action: *action,
                            action_data: action_data.clone(),
                            phys: [Vec::new(), Vec::new()],
                        })
                    }
                };
                if unversioned {
                    entry.phys[usize::from(copy ^ 1)] = handles.clone();
                }
                entry.phys[usize::from(copy)] = handles;
            }
            StagedOp::Mod {
                handle,
                action,
                action_data,
                ..
            } => {
                if skip_phys {
                    return Ok(());
                }
                let tid = self.table_id;
                let Some(entry) = self.entries.get(handle) else {
                    return Err(self.missing(*handle));
                };
                let plan = &self.actions[*action];
                let slots = &entry.phys[usize::from(copy)];
                let replaced = if entry.action == *action && slots.len() == plan.phys_actions.len()
                {
                    // Same action: in-place modify of each physical entry.
                    // The key does not move, so nothing is re-expanded, and
                    // each op is built around the staged data itself.
                    for (phys, variant) in slots.iter().zip(&plan.phys_actions) {
                        let mut op = DriverOp::TableMod {
                            table: tid,
                            handle: *phys,
                            action: *variant,
                            data: std::mem::take(action_data),
                        };
                        let sent = h.submit(&op);
                        *action_data = op.take_data();
                        sent?;
                    }
                    None
                } else {
                    // Action changed: replace the physical set.
                    undo.push(LogicalUndo::Entry(at(*handle), Some(entry.clone())));
                    for phys in slots {
                        h.submit(&DriverOp::TableDel {
                            table: tid,
                            handle: *phys,
                        })?;
                    }
                    let new = (
                        entry.key.as_slice(),
                        entry.priority,
                        *action,
                        &**action_data,
                    );
                    Some(self.add_phys(new, copy, h)?)
                };
                let entry = self
                    .entries
                    .get_mut(handle)
                    .expect("invariant: the entry was found above");
                if let Some(handles) = replaced {
                    entry.phys[usize::from(copy)] = handles;
                }
                if mirror || unversioned {
                    // Bookkeeping reflects the new logical action after the
                    // final pass. The data trades places with the staged
                    // op's: nothing is copied, and a rollback trades back.
                    entry.action = *action;
                    std::mem::swap(&mut entry.action_data, action_data);
                    undo.push(LogicalUndo::Data(at(*handle), op_index));
                    if unversioned {
                        entry.phys[usize::from(copy ^ 1)] = entry.phys[usize::from(copy)].clone();
                    }
                }
            }
            StagedOp::Del { handle, .. } => {
                let tid = self.table_id;
                let Some(entry) = self.entries.get_mut(handle) else {
                    return Err(self.missing(*handle));
                };
                if !skip_phys {
                    undo.push(LogicalUndo::Entry(at(*handle), Some(entry.clone())));
                    for phys in std::mem::take(&mut entry.phys[usize::from(copy)]) {
                        h.submit(&DriverOp::TableDel {
                            table: tid,
                            handle: phys,
                        })?;
                    }
                    if unversioned {
                        entry.phys[usize::from(copy ^ 1)].clear();
                    }
                }
                if mirror {
                    // (For an unversioned table the physical entries went
                    // in the prepare pass.)
                    let gone = self.entries.remove(handle);
                    undo.push(LogicalUndo::Entry(at(*handle), gone));
                }
            }
            StagedOp::SetDefault { .. } => {
                // Applied once at commit (not versioned).
            }
        }
        Ok(())
    }
}

/// Driver key fields of an expanded physical entry, for the switch's
/// physical column kinds.
fn phys_key(pe: &PhysEntry, kinds: &[(MatchKind, u16)]) -> Vec<KeyField> {
    let fields = pe.key.iter().zip(kinds);
    fields
        .map(|(pk, (kind, width))| match (pk, kind) {
            (PhysKey::Exact(v), MatchKind::Exact) => KeyField::Exact(*v),
            (PhysKey::Exact(v), MatchKind::Ternary) => KeyField::Ternary {
                value: *v,
                mask: Value::ones(*width),
            },
            (PhysKey::Exact(v), MatchKind::Lpm) => KeyField::Lpm {
                value: *v,
                prefix_len: *width,
            },
            (PhysKey::Ternary { value, mask }, _) => KeyField::Ternary {
                value: *value,
                mask: *mask,
            },
            (PhysKey::Lpm { value, prefix_len }, _) => KeyField::Lpm {
                value: *value,
                prefix_len: *prefix_len,
            },
            (PhysKey::Any, MatchKind::Lpm) => KeyField::Lpm {
                value: Value::zero(*width),
                prefix_len: 0,
            },
            (PhysKey::Any, _) => KeyField::Ternary {
                value: Value::zero(*width),
                mask: Value::zero(*width),
            },
        })
        .collect()
}

/// The inverse of one bookkeeping change of an apply attempt, keyed by
/// `(table, handle)`.
#[derive(Debug)]
pub(crate) enum LogicalUndo {
    /// Put this entry state back (`None`: the entry did not exist).
    Entry((usize, LogicalHandle), Option<LogicalEntry>),
    /// Trade the entry's action data back with this staged op's.
    Data((usize, LogicalHandle), usize),
}

impl LogicalUndo {
    /// Undo one change. Inverses run newest first, so each meets the state
    /// its change left.
    pub(crate) fn revert(self, tables: &mut [LogicalTable], staged: &mut [StagedOp]) {
        match self {
            LogicalUndo::Entry((table, handle), Some(old)) => {
                tables[table].entries.insert(handle, old);
            }
            LogicalUndo::Entry((table, handle), None) => {
                tables[table].entries.remove(&handle);
            }
            LogicalUndo::Data((table, handle), op) => {
                let entry = tables[table].entries.get_mut(&handle);
                if let (Some(entry), StagedOp::Mod { action_data, .. }) = (entry, &mut staged[op]) {
                    std::mem::swap(&mut entry.action_data, action_data);
                }
            }
        }
    }
}

/// FNV-1a fingerprint of a committed malleable config: every slot value,
/// then every logical table entry (key, priority, action, action data).
/// Fingerprints hash names, in sorted-name order — never ids.
pub(crate) fn fingerprint(slots: &[Slot], tables: &[LogicalTable]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |s: &str| {
        for b in s.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut slots: Vec<(&str, i128)> = slots.iter().map(|s| (s.name.as_str(), s.value())).collect();
    slots.sort();
    for (name, v) in slots {
        eat(&format!("slot {name}={v}\n"));
    }
    let mut tables: Vec<&LogicalTable> = tables.iter().collect();
    tables.sort_by(|a, b| a.name.cmp(&b.name));
    for lt in tables {
        let name = &lt.name;
        let line = |e: &LogicalEntry| {
            let action = &lt.actions[e.action].name;
            format!(
                "{name} {:?} p{} {action}{:?}\n",
                e.key, e.priority, e.action_data
            )
        };
        let mut lines: Vec<String> = lt.entries.values().map(line).collect();
        lines.sort();
        lines.iter().for_each(|l| eat(l));
    }
    h
}

/// A staged (not yet applied) update from a reaction: `table` indexes the
/// agent's table vector, `action` the table's original action list.
#[derive(Clone, Debug)]
pub enum StagedOp {
    Add {
        table: usize,
        handle: LogicalHandle,
        key: Vec<LogicalKey>,
        priority: u32,
        action: usize,
        action_data: Vec<Value>,
    },
    Mod {
        table: usize,
        handle: LogicalHandle,
        action: usize,
        action_data: Vec<Value>,
    },
    Del {
        table: usize,
        handle: LogicalHandle,
    },
    SetDefault {
        table: usize,
        action: usize,
        action_data: Vec<Value>,
    },
}

impl StagedOp {
    /// The agent table the op addresses.
    pub fn table(&self) -> usize {
        match self {
            StagedOp::Add { table, .. }
            | StagedOp::Mod { table, .. }
            | StagedOp::Del { table, .. }
            | StagedOp::SetDefault { table, .. } => *table,
        }
    }
}

/// Everything a reaction stages during one dialogue iteration; applied by
/// the agent's prepare/commit/mirror sequence afterwards.
#[derive(Clone, Debug, Default)]
pub struct Staged {
    /// Malleable value writes / field-selector shifts: slot id → new raw
    /// value, in program order (the last write of a slot wins).
    pub slot_writes: Vec<(usize, i128)>,
    pub table_ops: Vec<StagedOp>,
    /// Port administration requests (e.g. route recomputation disabling a
    /// port); applied at commit.
    pub port_ops: Vec<(rmt_sim::PortId, bool)>,
}

impl Staged {
    pub fn is_empty(&self) -> bool {
        self.slot_writes.is_empty() && self.table_ops.is_empty() && self.port_ops.is_empty()
    }

    pub fn clear(&mut self) {
        self.slot_writes.clear();
        self.table_ops.clear();
        self.port_ops.clear();
    }

    /// Snapshot the current staging lengths. Taken before each reaction
    /// runs so a failing reaction's partial effects can be
    /// [`truncate`](Staged::truncate)d away without touching what earlier
    /// reactions staged.
    pub fn marks(&self) -> StagedMarks {
        StagedMarks {
            slot_writes: self.slot_writes.len(),
            table_ops: self.table_ops.len(),
            port_ops: self.port_ops.len(),
        }
    }

    /// Roll staging back to a previous [`marks`](Staged::marks) snapshot.
    pub fn truncate(&mut self, m: StagedMarks) {
        self.slot_writes.truncate(m.slot_writes);
        self.table_ops.truncate(m.table_ops);
        self.port_ops.truncate(m.port_ops);
    }

    /// Latest staged value for a slot (read-your-writes inside a reaction).
    pub fn slot_value(&self, slot: usize) -> Option<i128> {
        let latest = self.slot_writes.iter().rev().find(|(s, _)| *s == slot);
        latest.map(|(_, v)| *v)
    }
}

/// Staging lengths at one point in time (see [`Staged::marks`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StagedMarks {
    pub slot_writes: usize,
    pub table_ops: usize,
    pub port_ops: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marks_truncate_only_the_tail() {
        let mut s = Staged::default();
        s.slot_writes.push((0, 1));
        let m = s.marks();
        s.slot_writes.push((1, 2));
        s.table_ops.push(StagedOp::Del {
            table: 0,
            handle: 1,
        });
        s.truncate(m);
        assert_eq!(s.slot_writes, vec![(0, 1)]);
        assert!(s.table_ops.is_empty());
    }

    #[test]
    fn handles_are_unique_and_increasing() {
        let compiled = p4r_compiler::compile_source(
            "header_type h_t { fields { a : 8; } } header h_t h;
             action nop() { no_op(); }
             malleable table t { reads { h.a : exact; } actions { nop; } size : 4; }
             control ingress { apply(t); }",
            &p4r_compiler::CompilerOptions::default(),
        )
        .unwrap();
        let spec = rmt_sim::load(&compiled.p4).unwrap();
        let mut t = LogicalTable::new(compiled.iface.table("t").unwrap(), &spec);
        let a = t.alloc_handle();
        let b = t.alloc_handle();
        assert!(b > a);
        t.reset();
        assert_eq!(t.alloc_handle(), a);
    }

    #[test]
    fn staged_read_your_writes() {
        let mut s = Staged::default();
        assert!(s.is_empty());
        s.slot_writes.push((3, 1));
        s.slot_writes.push((3, 2));
        assert_eq!(s.slot_value(3), Some(2));
        assert_eq!(s.slot_value(4), None);
        s.clear();
        assert!(s.is_empty());
    }
}
