//! The reaction execution context.
//!
//! A [`ReactionCtx`] is handed to both native Rust reactions and the
//! interpreter for C-like reaction bodies. It exposes the polled snapshot
//! (measurements), the last-written malleable values, and *staging* APIs for
//! updates. Nothing in the context touches the switch: all effects are
//! staged and applied by the agent's prepare/commit/mirror sequence after
//! the reaction returns, which is what makes the reaction's effects
//! serializable.

use crate::isolation::Slot;
use crate::logical::{LogicalHandle, LogicalTable, Staged, StagedOp};
use crate::measure::Snapshot;
use p4_ast::Value;
use p4r_compiler::entry::LogicalKey;
use reaction_interp::{array_arg, Binding, InterpError, ReactionEnv};
use rmt_sim::Nanos;
use std::fmt;

/// Interpreted table methods and agent builtins; a name's position is its
/// id.
const METHODS: [&str; 5] = ["addEntry", "modEntry", "delEntry", "setDefault", "size"];
const ADD_ENTRY: u16 = 0;
const MOD_ENTRY: u16 = 1;
const DEL_ENTRY: u16 = 2;
const SET_DEFAULT: u16 = 3;
const SIZE: u16 = 4;
const BUILTINS: [&str; 5] = ["now_ns", "now_us", "snapshot_ns", "port_down", "port_up"];
const NOW_NS: u16 = 0;
const NOW_US: u16 = 1;
const SNAPSHOT_NS: u16 = 2;
const PORT_DOWN: u16 = 3;
const PORT_UP: u16 = 4;

fn id_of(names: &[&str], name: &str) -> u16 {
    id16(names.iter().position(|n| *n == name))
}

fn id16(id: Option<usize>) -> u16 {
    let id = id.and_then(|i| u16::try_from(i).ok());
    id.unwrap_or(Binding::NONE)
}

/// A name's dense id on this agent: a slot's index in the slot vector, a
/// table's in the table vector.
pub(crate) fn slot_named(slots: &[Slot], name: &str) -> Option<usize> {
    slots.iter().position(|s| s.name == name)
}

pub(crate) fn table_named(tables: &[LogicalTable], name: &str) -> Option<usize> {
    tables.iter().position(|t| t.name == name)
}

/// Everything `name` can mean to a reaction registered with arguments
/// `snapshot` on an agent with these `slots` and `tables` — what
/// [`CompiledReaction::bind`](reaction_interp::CompiledReaction::bind)
/// stores, what [`ReactionCtx`]'s `resolve` answers, and the ids the
/// `ReactionEnv` calls below receive.
pub(crate) fn bind_name(
    name: &str,
    snapshot: &Snapshot,
    slots: &[Slot],
    tables: &[LogicalTable],
) -> Binding {
    Binding {
        scalar: id16(snapshot.scalar_id(name)),
        array: id16(snapshot.array_id(name)),
        mbl: id16(slot_named(slots, name)),
        table: id16(table_named(tables, name)),
        method: id_of(&METHODS, name),
        builtin: id_of(&BUILTINS, name),
    }
}

/// Errors from staging APIs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CtxError {
    UnknownMalleable(String),
    UnknownTable(String),
    UnknownAction {
        table: String,
        action: String,
    },
    /// A handle no entry can have: it does not fit a [`LogicalHandle`].
    UnknownHandle(i128),
    /// A port number no port can have: it does not fit a `PortId`.
    BadPort(i128),
    AltOutOfRange {
        mbl: String,
        index: i128,
        alts: usize,
    },
    BadArity {
        what: String,
        expected: usize,
        got: usize,
    },
    UnknownMethod(String),
}

impl fmt::Display for CtxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CtxError::UnknownMalleable(n) => write!(f, "unknown malleable `{n}`"),
            CtxError::UnknownTable(n) => write!(f, "unknown malleable table `{n}`"),
            CtxError::UnknownAction { table, action } => {
                write!(f, "table `{table}` has no action `{action}`")
            }
            CtxError::UnknownHandle(h) => write!(f, "unknown logical entry handle {h}"),
            CtxError::BadPort(p) => write!(f, "no port {p}"),
            CtxError::AltOutOfRange { mbl, index, alts } => write!(
                f,
                "alternative index {index} out of range for `{mbl}` ({alts} alts)"
            ),
            CtxError::BadArity {
                what,
                expected,
                got,
            } => {
                write!(f, "{what}: expected {expected} values, got {got}")
            }
            CtxError::UnknownMethod(m) => write!(f, "unknown table method `{m}`"),
        }
    }
}

impl std::error::Error for CtxError {}

/// The context a reaction runs against.
pub struct ReactionCtx<'a> {
    pub(crate) snapshot: &'a Snapshot,
    /// Malleable slots by id, with their committed values.
    pub(crate) slots: &'a [Slot],
    pub(crate) staged: &'a mut Staged,
    /// Logical tables by id.
    pub(crate) tables: &'a mut [LogicalTable],
    pub(crate) now_ns: Nanos,
}

impl fmt::Debug for ReactionCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReactionCtx")
            .field("now_ns", &self.now_ns)
            .field("staged_ops", &self.staged.table_ops.len())
            .finish()
    }
}

impl<'a> ReactionCtx<'a> {
    /// Virtual time the reaction is running at.
    pub fn now_ns(&self) -> Nanos {
        self.now_ns
    }

    /// Read a scalar (field) argument by binding name.
    pub fn arg(&self, name: &str) -> Option<i128> {
        self.snapshot.scalar(self.snapshot.scalar_id(name)?)
    }

    /// Read an array (register-slice) argument: `(lo, values)`.
    pub fn arg_array(&self, name: &str) -> Option<(i128, &[i128])> {
        self.snapshot.array(self.snapshot.array_id(name)?)
    }

    /// Element of an array argument at its original register index.
    pub fn arg_index(&self, name: &str, index: i128) -> Option<i128> {
        let (lo, vals) = self.arg_array(name)?;
        array_arg(name, lo, vals, index).ok()
    }

    fn slot_id(&self, name: &str) -> Result<usize, CtxError> {
        slot_named(self.slots, name).ok_or_else(|| CtxError::UnknownMalleable(name.to_string()))
    }

    fn table_id(&self, name: &str) -> Result<usize, CtxError> {
        table_named(self.tables, name).ok_or_else(|| CtxError::UnknownTable(name.to_string()))
    }

    /// Table id and the ordinal of its original action `action`.
    fn table_action(&self, table: &str, action: &str) -> Result<(usize, usize), CtxError> {
        let t = self.table_id(table)?;
        match self.tables[t].action_ordinal(action) {
            Some(a) => Ok((t, a)),
            None => Err(CtxError::UnknownAction {
                table: table.to_string(),
                action: action.to_string(),
            }),
        }
    }

    /// Last written (or staged) value of slot `id`.
    fn slot_value(&self, id: usize) -> i128 {
        let staged = self.staged.slot_value(id);
        staged.unwrap_or(self.slots[id].value())
    }

    /// Stage a write to slot `id`: a value is masked to its width, a field
    /// selector must name one of its alternatives.
    fn stage_slot(&mut self, id: usize, value: i128) -> Result<(), CtxError> {
        let slot = &self.slots[id];
        let value = match slot.alts {
            None => value & mask_i128(slot.width),
            Some(alts) if !usize::try_from(value).is_ok_and(|v| v < alts) => {
                return Err(CtxError::AltOutOfRange {
                    mbl: slot.name.clone(),
                    index: value,
                    alts,
                })
            }
            Some(_) => value,
        };
        self.staged.slot_writes.push((id, value));
        Ok(())
    }

    /// Last written (or staged) value of a malleable value, or the selector
    /// index of a malleable field.
    pub fn mbl(&self, name: &str) -> Result<i128, CtxError> {
        Ok(self.slot_value(self.slot_id(name)?))
    }

    /// Stage a write to a malleable value.
    pub fn set_mbl(&mut self, name: &str, value: i128) -> Result<(), CtxError> {
        self.stage_slot(self.slot_id(name)?, value)
    }

    /// Stage shifting a malleable field to alternative `index`.
    pub fn shift_field(&mut self, name: &str, index: usize) -> Result<(), CtxError> {
        let id = self.slot_id(name)?;
        if self.slots[id].alts.is_none() {
            return Err(CtxError::UnknownMalleable(name.to_string()));
        }
        self.stage_slot(id, index as i128)
    }

    /// Stage adding a logical entry; returns its handle immediately (the
    /// entry becomes visible to the data plane at commit).
    pub fn table_add(
        &mut self,
        table: &str,
        key: Vec<LogicalKey>,
        priority: u32,
        action: &str,
        action_data: Vec<Value>,
    ) -> Result<LogicalHandle, CtxError> {
        let (t, action) = self.table_action(table, action)?;
        let lt = &mut self.tables[t];
        if key.len() != lt.user_key_len {
            return Err(CtxError::BadArity {
                what: format!("key of `{table}`"),
                expected: lt.user_key_len,
                got: key.len(),
            });
        }
        let handle = lt.alloc_handle();
        self.staged.table_ops.push(StagedOp::Add {
            table: t,
            handle,
            key,
            priority,
            action,
            action_data,
        });
        Ok(handle)
    }

    /// Stage modifying a logical entry's action/action data.
    pub fn table_mod(
        &mut self,
        table: &str,
        handle: LogicalHandle,
        action: &str,
        action_data: Vec<Value>,
    ) -> Result<(), CtxError> {
        let (table, action) = self.table_action(table, action)?;
        self.staged.table_ops.push(StagedOp::Mod {
            table,
            handle,
            action,
            action_data,
        });
        Ok(())
    }

    /// Stage deleting a logical entry.
    pub fn table_del(&mut self, table: &str, handle: LogicalHandle) -> Result<(), CtxError> {
        let table = self.table_id(table)?;
        self.staged.table_ops.push(StagedOp::Del { table, handle });
        Ok(())
    }

    /// Stage changing a table's default action.
    pub fn table_set_default(
        &mut self,
        table: &str,
        action: &str,
        action_data: Vec<Value>,
    ) -> Result<(), CtxError> {
        let (table, action) = self.table_action(table, action)?;
        self.staged.table_ops.push(StagedOp::SetDefault {
            table,
            action,
            action_data,
        });
        Ok(())
    }

    /// Stage a port up/down change (applied at commit; used by the route
    /// recomputation use case).
    pub fn set_port_up(&mut self, port: rmt_sim::PortId, up: bool) {
        self.staged.port_ops.push((port, up));
    }

    /// Number of logical entries currently installed in a table.
    pub fn table_len(&self, table: &str) -> Option<usize> {
        Some(self.tables[table_named(self.tables, table)?].len())
    }
}

fn mask_i128(width: u16) -> i128 {
    if width >= 127 {
        -1
    } else {
        (1i128 << width) - 1
    }
}

/// The [`ReactionEnv`] impl lets interpreted (C-like) reaction bodies run
/// against the same context native reactions use. It keys every call on
/// the id: the bytecode VM passes the ids [`bind_name`] resolved at
/// registration, a harness's reference tree-walker the ones `resolve` —
/// the same [`bind_name`] — answers at each access. The name is only for
/// error text.
///
/// Interpreted table-method convention (documented in the README):
///
/// * `t.addEntry(action_ordinal, key..., data...)` → logical handle,
/// * `t.modEntry(handle, action_ordinal, data...)`,
/// * `t.delEntry(handle)`,
/// * `t.setDefault(action_ordinal, data...)`,
/// * `t.size()` → current logical entry count,
///
/// where `action_ordinal` indexes the table's original action list and keys
/// are exact values, one per user-visible key column.
impl ReactionEnv for ReactionCtx<'_> {
    fn resolve(&self, name: &str) -> Binding {
        bind_name(name, self.snapshot, self.slots, self.tables)
    }

    fn read_scalar_arg(&self, id: u16, _name: &str) -> Option<i128> {
        self.snapshot.scalar(usize::from(id))
    }

    fn read_array_arg(
        &self,
        id: u16,
        name: &str,
        index: i128,
    ) -> Option<Result<i128, InterpError>> {
        let (lo, vals) = self.snapshot.array(usize::from(id))?;
        Some(array_arg(name, lo, vals, index))
    }

    fn is_array_arg(&self, id: u16, _name: &str) -> bool {
        self.snapshot.array(usize::from(id)).is_some()
    }

    fn read_mbl(&mut self, id: u16, name: &str) -> Result<i128, InterpError> {
        if usize::from(id) < self.slots.len() {
            return Ok(self.slot_value(usize::from(id)));
        }
        Err(env_err(CtxError::UnknownMalleable(name.to_string())))
    }

    fn write_mbl(&mut self, id: u16, name: &str, value: i128) -> Result<(), InterpError> {
        if usize::from(id) < self.slots.len() {
            return self.stage_slot(usize::from(id), value).map_err(env_err);
        }
        Err(env_err(CtxError::UnknownMalleable(name.to_string())))
    }

    fn table_op(
        &mut self,
        (t, m): (u16, u16),
        table: &str,
        method: &str,
        args: &[i128],
    ) -> Result<i128, InterpError> {
        let t = usize::from(t);
        let Some(lt) = self.tables.get_mut(t) else {
            return Err(env_err(CtxError::UnknownTable(table.to_string())));
        };
        let bad_arity = |what: String, expected: usize| {
            let got = args.len();
            env_err(CtxError::BadArity {
                what,
                expected,
                got,
            })
        };
        // Action ordinal `args[at]` and the data values behind it.
        let action_and_data = |lt: &LogicalTable, at: usize, data_from: usize| {
            let ord = args[at];
            let Some(action) = usize::try_from(ord).ok().filter(|a| *a < lt.actions.len()) else {
                return Err(env_err(CtxError::UnknownAction {
                    table: table.to_string(),
                    action: format!("#{ord}"),
                }));
            };
            let data = args[data_from..].iter();
            Ok((action, data.map(|v| Value::new(*v as u128, 64)).collect()))
        };
        // The entry handle `args[0]` names.
        let handle_arg = || {
            let h = LogicalHandle::try_from(args[0]);
            h.map_err(|_| env_err(CtxError::UnknownHandle(args[0])))
        };
        let op = match m {
            ADD_ENTRY => {
                let key_len = lt.user_key_len;
                if args.len() < 1 + key_len {
                    return Err(bad_arity(format!("addEntry on `{table}`"), 1 + key_len));
                }
                let (action, action_data): (_, Vec<Value>) = action_and_data(lt, 0, 1 + key_len)?;
                let plan = &lt.actions[action];
                if action_data.len() != plan.arity {
                    let what = format!("addEntry on `{table}` with action `{}`", plan.name);
                    return Err(bad_arity(what, 1 + key_len + plan.arity));
                }
                let key = args[1..1 + key_len].iter();
                let handle = lt.alloc_handle();
                self.staged.table_ops.push(StagedOp::Add {
                    table: t,
                    handle,
                    key: key
                        .map(|v| LogicalKey::Exact(Value::new(*v as u128, 64)))
                        .collect(),
                    priority: 0,
                    action,
                    action_data,
                });
                return Ok(i128::from(handle));
            }
            MOD_ENTRY => {
                if args.len() < 2 {
                    return Err(bad_arity(format!("modEntry on `{table}`"), 2));
                }
                let (action, action_data) = action_and_data(lt, 1, 2)?;
                StagedOp::Mod {
                    table: t,
                    handle: handle_arg()?,
                    action,
                    action_data,
                }
            }
            DEL_ENTRY => {
                if args.len() != 1 {
                    return Err(bad_arity(format!("delEntry on `{table}`"), 1));
                }
                StagedOp::Del {
                    table: t,
                    handle: handle_arg()?,
                }
            }
            SET_DEFAULT => {
                if args.is_empty() {
                    return Err(bad_arity(format!("setDefault on `{table}`"), 1));
                }
                let (action, action_data) = action_and_data(lt, 0, 1)?;
                StagedOp::SetDefault {
                    table: t,
                    action,
                    action_data,
                }
            }
            SIZE => return Ok(lt.len() as i128),
            _ => return Err(env_err(CtxError::UnknownMethod(method.to_string()))),
        };
        self.staged.table_ops.push(op);
        Ok(0)
    }

    fn call(&mut self, id: u16, _name: &str, args: &[i128]) -> Option<Result<i128, InterpError>> {
        match (id, args) {
            (NOW_NS, []) => Some(Ok(i128::from(self.now_ns))),
            (NOW_US, []) => Some(Ok(i128::from(self.now_ns / 1_000))),
            (SNAPSHOT_NS, []) => Some(Ok(i128::from(self.snapshot.taken_at))),
            (PORT_DOWN | PORT_UP, [p]) => {
                let Ok(port) = rmt_sim::PortId::try_from(*p) else {
                    return Some(Err(env_err(CtxError::BadPort(*p))));
                };
                self.set_port_up(port, id == PORT_UP);
                Some(Ok(0))
            }
            _ => None,
        }
    }
}

fn env_err(e: CtxError) -> InterpError {
    InterpError::Env(e.to_string())
}
