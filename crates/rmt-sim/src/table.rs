//! Runtime match-action tables.
//!
//! Semantics mirror an RMT TCAM/SRAM unit:
//!
//! * **exact** keys must match bit-for-bit,
//! * **ternary** keys match under a per-entry mask; among multiple matching
//!   entries the highest `priority` wins (ties broken by insertion order,
//!   oldest first — deterministic),
//! * **lpm** keys match a per-entry prefix; the longest matching prefix wins
//!   (then priority).
//!
//! Single-entry add/modify/delete are atomic with respect to packet
//! processing — exactly the guarantee the Mantis paper builds its
//! serializable update protocol on.
//!
//! A switch stores each table once, and every hardware pipe matches its
//! entries. The default action is the one piece kept per pipe: a packet
//! that hits nothing gets its own pipe's default (DESIGN.md §9).
//!
//! Duplicate keys: exact-only tables resolve a re-added identical key to
//! the newest entry (the hash index is overwritten); scan-matched tables
//! (ternary/LPM) tie-break by insertion order, oldest first. The Mantis
//! layers never insert duplicate physical keys (expansion makes keys
//! unique per vv/selector), so the difference is only observable through
//! the raw driver API.
//!
//! # Lookup fast paths
//!
//! Each table keeps an index sized to its match kinds, so per-packet match
//! cost scales with the candidate set, not the table size:
//!
//! * exact-only tables: a hash map from key bits to entry index (O(1)),
//! * single-LPM tables (one `lpm` field, rest `exact`): per-prefix-length
//!   hash buckets probed longest-first; the first populated bucket holds
//!   the winner because prefix length dominates priority in the winner
//!   ordering,
//! * anything else (ternary, multi-LPM): entries pre-sorted by descending
//!   `(prefix_sum, priority, oldest-first)` precedence with per-field
//!   care-bits (`value & mask == target` rows) precomputed, so the scan
//!   early-exits at the first match.
//!
//! All indexes are pure accelerators: the winner is identical to a linear
//! scan with the `(prefix, priority, Reverse(seq))` ordering (property-
//! tested in `tests/`), and nothing about the virtual-clock cost model
//! changes. Lookups also reuse a per-table scratch buffer instead of
//! allocating per packet, and a [`Lookup`] borrows the winning entry's
//! action data from the table — no clone, no reference-count traffic.
//!
//! # Checkpoints are marks on an undo journal
//!
//! A driver transaction does not copy a table to be able to roll it back.
//! [`Table::checkpoint`] opens a *mark*; while any mark is live, every
//! add / mod / del / set-default appends its inverse to the table's
//! journal. [`Table::restore`] replays inverses back to the mark,
//! [`Table::discard`] drops the mark, and with no mark live nothing is
//! recorded. Marks of one table form a stack: restoring an older one
//! retires the younger ones (they name states that no longer exist), and
//! the restored mark itself stays live for another attempt. `lookups` and
//! `hits` are traffic statistics, not table state — a restore leaves them
//! alone.

use crate::phv::Phv;
use crate::spec::{ActionId, TableSpec};
use p4_ast::{MatchKind, Value};
use std::collections::HashMap as StdHashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// Multiply-rotate hasher (the rustc/Firefox "Fx" construction) for the
/// match indices. Table keys are short, well-distributed bit strings, and
/// the default SipHash costs more than the probe itself on the per-packet
/// path; a keyed DoS-resistant hash buys nothing here because entries
/// come from the control plane, not the wire.
#[derive(Default)]
struct FxHasher(u64);

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(SEED);
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(w)).wrapping_mul(SEED);
        }
    }
}

type HashMap<K, V> = StdHashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Opaque handle to an installed entry, unique within a table for the
/// lifetime of the switch.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntryHandle(pub u64);

impl fmt::Debug for EntryHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EntryHandle({})", self.0)
    }
}

/// One component of an entry's match key.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyField {
    Exact(Value),
    Ternary { value: Value, mask: Value },
    Lpm { value: Value, prefix_len: u16 },
}

impl KeyField {
    fn matches(&self, field: Value, static_mask: Option<Value>) -> bool {
        let field = match static_mask {
            Some(m) => field.and(m),
            None => field,
        };
        match self {
            KeyField::Exact(v) => field.bits() == v.bits(),
            KeyField::Ternary { value, mask } => field.matches_ternary(*value, *mask),
            KeyField::Lpm { value, prefix_len } => field.matches_prefix(*value, *prefix_len),
        }
    }

    /// LPM specificity used for longest-prefix ordering.
    fn prefix_len(&self) -> u16 {
        match self {
            KeyField::Lpm { prefix_len, .. } => *prefix_len,
            _ => 0,
        }
    }

    /// Care-bits row `(mask, target)` for this key field over a field of
    /// `width` bits: the field value `f` (already static-masked, `< 2^width`)
    /// matches iff `f & mask == target`.
    ///
    /// A `target` with bits outside `mask` can never match — that encodes
    /// the bit-for-bit semantics for values wider than the field (exact
    /// compares raw bits; LPM compares the full shifted pattern).
    fn care_bits(&self, width: u16) -> (u128, u128) {
        match self {
            KeyField::Exact(v) => (!0u128, v.bits()),
            KeyField::Ternary { value, mask } => (mask.bits(), value.bits() & mask.bits()),
            KeyField::Lpm { value, prefix_len } => {
                if *prefix_len == 0 {
                    (0, 0)
                } else {
                    let shift = u32::from(width.saturating_sub(*prefix_len));
                    let mask = prefix_mask(width, *prefix_len);
                    // Keep pattern bits above the field width: they make the
                    // row unmatchable, same as `matches_prefix`.
                    (mask, (value.bits() >> shift) << shift)
                }
            }
        }
    }
}

/// Mask selecting the top `prefix_len` bits of a `width`-bit field.
fn prefix_mask(width: u16, prefix_len: u16) -> u128 {
    if prefix_len == 0 {
        return 0;
    }
    let p = prefix_len.min(width);
    let ones = if p >= 128 { !0u128 } else { (1u128 << p) - 1 };
    ones << u32::from(width - p)
}

/// An installed table entry.
#[derive(Clone, Debug)]
pub struct Entry {
    pub handle: EntryHandle,
    pub key: Vec<KeyField>,
    pub priority: u32,
    pub action: ActionId,
    pub action_data: Arc<[Value]>,
    /// Insertion sequence for deterministic tie-breaks.
    seq: u64,
}

/// Errors from control-plane table operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TableError {
    KeyArityMismatch { expected: usize, got: usize },
    KeyKindMismatch { index: usize, expected: MatchKind },
    UnknownHandle(EntryHandle),
    UnknownAction(ActionId),
    TableFull { capacity: u32 },
    ActionDataArity { expected: usize, got: usize },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::KeyArityMismatch { expected, got } => {
                write!(
                    f,
                    "key arity mismatch: expected {expected} fields, got {got}"
                )
            }
            TableError::KeyKindMismatch { index, expected } => {
                write!(f, "key field {index} must be a {expected} match")
            }
            TableError::UnknownHandle(h) => write!(f, "no entry with handle {h:?}"),
            TableError::UnknownAction(a) => write!(f, "action {a:?} is not bound to this table"),
            TableError::TableFull { capacity } => write!(f, "table full (capacity {capacity})"),
            TableError::ActionDataArity { expected, got } => {
                write!(
                    f,
                    "action data arity mismatch: expected {expected}, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for TableError {}

/// Which accelerator structure a table uses (derived from the key spec).
#[derive(Clone, Debug)]
enum Index {
    /// All-exact key: hash map from key bits to entry index. Duplicate keys
    /// resolve to the newest entry (insert overwrites).
    Exact(HashMap<Vec<u128>, usize>),
    /// Exactly one `lpm` field, all others `exact`: per-prefix-length hash
    /// buckets, probed longest prefix first.
    Lpm(LpmIndex),
    /// General case (ternary or several LPM fields): entries in descending
    /// precedence order with precomputed care-bits rows.
    Scan(ScanIndex),
}

impl Index {
    /// Make room at entry position `from`: every indexed position at or
    /// past it moves up by one.
    fn shift_up(&mut self, from: usize) {
        let bump = |v: &mut usize| {
            if *v >= from {
                *v += 1;
            }
        };
        match self {
            Index::Exact(map) => map.values_mut().for_each(bump),
            Index::Lpm(lpm) => lpm
                .levels
                .iter_mut()
                .flat_map(|l| l.buckets.values_mut())
                .flatten()
                .for_each(bump),
            Index::Scan(scan) => scan.order.iter_mut().for_each(|row| bump(&mut row.idx)),
        }
    }
}

#[derive(Clone, Debug)]
struct LpmIndex {
    /// Position of the `lpm` field in the key.
    lpm_pos: usize,
    /// Spec width of the `lpm` field.
    width: u16,
    /// Levels sorted by descending `prefix_len`; each maps the key bits
    /// (exact fields raw, LPM field masked to the prefix) to the entry
    /// indices carrying that key, sorted best-first by
    /// `(priority desc, seq asc)`.
    levels: Vec<LpmLevel>,
}

#[derive(Clone, Debug)]
struct LpmLevel {
    prefix_len: u16,
    mask: u128,
    buckets: HashMap<Vec<u128>, Vec<usize>>,
}

/// Precedence key for scan-ordered entries: higher sorts first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Prec {
    prefix: u32,
    priority: u32,
    seq: u64,
}

impl Prec {
    fn rank(&self) -> (u32, u32, std::cmp::Reverse<u64>) {
        (self.prefix, self.priority, std::cmp::Reverse(self.seq))
    }
}

impl PartialOrd for Prec {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Prec {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

#[derive(Clone, Debug, Default)]
struct ScanIndex {
    /// Rows in descending precedence order; the first matching row wins.
    order: Vec<ScanRow>,
}

#[derive(Clone, Debug)]
struct ScanRow {
    /// Index into `Table::entries`.
    idx: usize,
    prec: Prec,
    /// Per-field `(mask, target)` care-bits: the row matches iff every
    /// field value satisfies `f & mask == target`.
    rows: Box<[(u128, u128)]>,
}

impl ScanRow {
    #[inline]
    fn matches(&self, field_bits: &[u128]) -> bool {
        self.rows
            .iter()
            .zip(field_bits.iter())
            .all(|((mask, target), f)| f & mask == *target)
    }
}

/// A runtime table instance.
#[derive(Clone, Debug)]
pub struct Table {
    /// Entries in insertion order (the driver-visible view).
    entries: Vec<Entry>,
    /// Handle → position in `entries`.
    slot_of: HashMap<EntryHandle, usize>,
    index: Index,
    /// The default action of each hardware pipe, in pipe order: the one
    /// piece of table state pipes do not share (a per-pipe version flip,
    /// DESIGN.md §9). A standalone table has one pipe.
    defaults: Vec<Option<(ActionId, Arc<[Value]>)>>,
    next_handle: u64,
    next_seq: u64,
    capacity: u32,
    /// Lookup and hit/miss counters (for stats and tests).
    pub lookups: u64,
    pub hits: u64,
    /// Reusable per-lookup buffer of static-masked field bits.
    scratch_bits: Vec<u128>,
    /// Reusable probe-key buffer for the LPM index.
    scratch_key: Vec<u128>,
    journal: Journal,
}

/// The inverse of one control-plane mutation.
#[derive(Clone, Debug)]
enum Undo {
    /// An add pushed this handle; when undone it is the last entry again.
    Added(EntryHandle),
    /// A mod replaced this action and data.
    Modded {
        handle: EntryHandle,
        action: ActionId,
        action_data: Arc<[Value]>,
    },
    /// A delete removed this entry from position `pos`.
    Deleted { pos: usize, entry: Entry },
    /// A set-default replaced this pipe's default action.
    Default {
        pipe: usize,
        old: Option<(ActionId, Arc<[Value]>)>,
    },
}

/// A live checkpoint: where its journal suffix starts, and the counters
/// no inverse op carries.
#[derive(Clone, Debug)]
struct Mark {
    token: u64,
    at: usize,
    next_handle: u64,
    next_seq: u64,
}

/// Inverse ops since the oldest live mark; empty and idle without one.
#[derive(Clone, Debug, Default)]
struct Journal {
    undo: Vec<Undo>,
    marks: Vec<Mark>,
}

/// The outcome of a table lookup; the action data is borrowed from the
/// table for as long as the outcome is held.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Lookup<'a> {
    Hit {
        handle: EntryHandle,
        action: ActionId,
        action_data: &'a [Value],
    },
    Default {
        action: ActionId,
        action_data: &'a [Value],
    },
    Miss,
}

impl Lookup<'_> {
    /// The outcome as owned parts — the matched handle (`None` unless a
    /// hit) and the action with its data (`None` on a miss) — for holding
    /// two lookups of one table side by side.
    pub fn detach(&self) -> (Option<EntryHandle>, Option<(ActionId, Vec<Value>)>) {
        match *self {
            Lookup::Hit {
                handle,
                action,
                action_data,
            } => (Some(handle), Some((action, action_data.to_vec()))),
            Lookup::Default {
                action,
                action_data,
            } => (None, Some((action, action_data.to_vec()))),
            Lookup::Miss => (None, None),
        }
    }
}

impl Table {
    /// A one-pipe table.
    pub fn new(spec: &TableSpec) -> Self {
        Table::with_pipes(spec, 1)
    }

    /// A table whose entries every one of `pipes` pipes matches, each pipe
    /// with its own default action (initially the spec's).
    pub(crate) fn with_pipes(spec: &TableSpec, pipes: u16) -> Self {
        let index = if !spec.key.is_empty() && spec.key.iter().all(|k| k.kind == MatchKind::Exact) {
            Index::Exact(HashMap::default())
        } else if let Some(lpm_pos) = single_lpm_pos(spec) {
            Index::Lpm(LpmIndex {
                lpm_pos,
                width: spec.key[lpm_pos].width,
                levels: Vec::new(),
            })
        } else {
            Index::Scan(ScanIndex::default())
        };
        let default = spec
            .default_action
            .as_ref()
            .map(|(a, d)| (*a, Arc::from(d.as_slice())));
        Table {
            entries: Vec::new(),
            slot_of: HashMap::default(),
            index,
            defaults: vec![default; usize::from(pipes)],
            next_handle: 1,
            next_seq: 0,
            capacity: spec.size,
            lookups: 0,
            hits: 0,
            scratch_bits: Vec::new(),
            scratch_key: Vec::new(),
            journal: Journal::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    pub fn entries(&self) -> impl Iterator<Item = &Entry> {
        self.entries.iter()
    }

    /// Pipe 0's default action.
    pub fn default_action(&self) -> Option<&(ActionId, Arc<[Value]>)> {
        self.default_action_on(0)
    }

    /// Pipe `pipe`'s default action (`None` past the last pipe).
    pub fn default_action_on(&self, pipe: u16) -> Option<&(ActionId, Arc<[Value]>)> {
        self.defaults.get(usize::from(pipe))?.as_ref()
    }

    /// Set the default action of one pipe, or of every pipe (`None`).
    pub(crate) fn set_default(&mut self, pipe: Option<u16>, action: ActionId, data: Arc<[Value]>) {
        let pipes = match pipe {
            Some(p) => usize::from(p)..usize::from(p) + 1,
            None => 0..self.defaults.len(),
        };
        for pipe in pipes {
            let old = self.defaults[pipe].replace((action, data.clone()));
            if self.journalling() {
                self.journal.undo.push(Undo::Default { pipe, old });
            }
        }
    }

    /// The installed entry with this handle.
    pub fn get(&self, handle: EntryHandle) -> Option<&Entry> {
        self.slot_of.get(&handle).map(|&i| &self.entries[i])
    }

    fn validate_key(&self, spec: &TableSpec, key: &[KeyField]) -> Result<(), TableError> {
        if key.len() != spec.key.len() {
            return Err(TableError::KeyArityMismatch {
                expected: spec.key.len(),
                got: key.len(),
            });
        }
        for (i, (kf, ks)) in key.iter().zip(spec.key.iter()).enumerate() {
            let ok = matches!(
                (kf, ks.kind),
                (KeyField::Exact(_), MatchKind::Exact)
                    | (KeyField::Ternary { .. }, MatchKind::Ternary)
                    | (KeyField::Lpm { .. }, MatchKind::Lpm)
            );
            if !ok {
                return Err(TableError::KeyKindMismatch {
                    index: i,
                    expected: ks.kind,
                });
            }
        }
        Ok(())
    }

    fn validate_action(
        &self,
        spec: &TableSpec,
        action: ActionId,
        data_len: usize,
        param_count: usize,
    ) -> Result<(), TableError> {
        if !spec.actions.contains(&action) {
            return Err(TableError::UnknownAction(action));
        }
        if data_len != param_count {
            return Err(TableError::ActionDataArity {
                expected: param_count,
                got: data_len,
            });
        }
        Ok(())
    }

    /// Install a new entry. `param_count` is the arity of `action` (the
    /// switch resolves it from the action table). The data is kept behind
    /// an `Arc`; one given as an `Arc` is kept without a copy.
    pub fn add_entry(
        &mut self,
        spec: &TableSpec,
        key: Vec<KeyField>,
        priority: u32,
        action: ActionId,
        action_data: impl Into<Arc<[Value]>>,
        param_count: usize,
    ) -> Result<EntryHandle, TableError> {
        let action_data = action_data.into();
        self.validate_key(spec, &key)?;
        self.validate_action(spec, action, action_data.len(), param_count)?;
        if self.entries.len() as u32 >= self.capacity {
            return Err(TableError::TableFull {
                capacity: self.capacity,
            });
        }
        let handle = EntryHandle(self.next_handle);
        self.next_handle += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.entries.len();
        self.entries.push(Entry {
            handle,
            key,
            priority,
            action,
            action_data,
            seq,
        });
        self.index_entry(spec, idx);
        if self.journalling() {
            self.journal.undo.push(Undo::Added(handle));
        }
        Ok(handle)
    }

    /// Replace the action/action-data of an existing entry (the key and
    /// priority are immutable, matching real switch drivers).
    pub fn mod_entry(
        &mut self,
        spec: &TableSpec,
        handle: EntryHandle,
        action: ActionId,
        action_data: impl Into<Arc<[Value]>>,
        param_count: usize,
    ) -> Result<(), TableError> {
        let action_data = action_data.into();
        self.validate_action(spec, action, action_data.len(), param_count)?;
        let idx = *self
            .slot_of
            .get(&handle)
            .ok_or(TableError::UnknownHandle(handle))?;
        let e = &mut self.entries[idx];
        let action = std::mem::replace(&mut e.action, action);
        let action_data = std::mem::replace(&mut e.action_data, action_data);
        if self.journalling() {
            self.journal.undo.push(Undo::Modded {
                handle,
                action,
                action_data,
            });
        }
        Ok(())
    }

    /// Remove an entry. The index is patched incrementally: only the
    /// displaced positions (entries after the removed one) are shifted,
    /// never rebuilt from scratch.
    pub fn del_entry(&mut self, handle: EntryHandle) -> Result<Entry, TableError> {
        let pos = *self
            .slot_of
            .get(&handle)
            .ok_or(TableError::UnknownHandle(handle))?;
        let entry = self.remove_at(pos);
        if self.journalling() {
            let entry = entry.clone();
            self.journal.undo.push(Undo::Deleted { pos, entry });
        }
        Ok(entry)
    }

    /// Enter `entries[idx]` into the handle map and the match index. Every
    /// other entry is already indexed at its current position.
    fn index_entry(&mut self, spec: &TableSpec, idx: usize) {
        let e = &self.entries[idx];
        self.slot_of.insert(e.handle, idx);
        match &mut self.index {
            Index::Exact(map) => {
                // Among duplicate keys the newest entry answers.
                let shadowed = |&i: &usize| self.entries[i].seq > e.seq;
                let bits = exact_key_bits(&e.key);
                if !map.get(&bits).is_some_and(shadowed) {
                    map.insert(bits, idx);
                }
            }
            Index::Lpm(lpm) => lpm.insert(&e.key, e.priority, e.seq, idx, &self.entries),
            Index::Scan(scan) => scan.insert(spec, &e.key, e.priority, e.seq, idx),
        }
    }

    /// Take `entries[idx]` out of the table, the handle map and the match
    /// index, shifting the positions behind it down.
    fn remove_at(&mut self, idx: usize) -> Entry {
        let e = self.entries.remove(idx);
        self.slot_of.remove(&e.handle);
        for o in &self.entries[idx..] {
            *self
                .slot_of
                .get_mut(&o.handle)
                .expect("invariant: every entry is in the handle map") -= 1;
        }
        match &mut self.index {
            Index::Exact(map) => {
                let bits = exact_key_bits(&e.key);
                if map.get(&bits) == Some(&idx) {
                    // If a shadowed duplicate of the same key remains, it
                    // becomes visible again (newest survivor wins, matching
                    // the old full-rebuild behavior).
                    match self
                        .entries
                        .iter()
                        .enumerate()
                        .filter(|(_, o)| exact_key_bits(&o.key) == bits)
                        .max_by_key(|(_, o)| o.seq)
                    {
                        // An older duplicate sits before the removed entry,
                        // so the shift below leaves it alone.
                        Some((i, _)) => {
                            map.insert(bits, i);
                        }
                        None => {
                            map.remove(&bits);
                        }
                    }
                }
                for v in map.values_mut() {
                    if *v > idx {
                        *v -= 1;
                    }
                }
            }
            Index::Lpm(lpm) => lpm.remove(&e.key, idx),
            Index::Scan(scan) => scan.remove(idx),
        }
        e
    }

    /// Put a deleted entry back at `pos`, shifting the positions from
    /// there on up. Its `seq` restores its precedence among its peers.
    fn insert_at(&mut self, spec: &TableSpec, pos: usize, entry: Entry) {
        for o in &self.entries[pos..] {
            *self
                .slot_of
                .get_mut(&o.handle)
                .expect("invariant: every entry is in the handle map") += 1;
        }
        self.index.shift_up(pos);
        self.entries.insert(pos, entry);
        self.index_entry(spec, pos);
    }

    // -- checkpoints --------------------------------------------------------

    fn journalling(&self) -> bool {
        !self.journal.marks.is_empty()
    }

    /// Open a mark named `token` (unique among this table's live marks):
    /// from here on mutations journal their inverses.
    pub fn checkpoint(&mut self, token: u64) {
        debug_assert!(!self.has_checkpoint(token), "checkpoint token reused");
        self.journal.marks.push(Mark {
            token,
            at: self.journal.undo.len(),
            next_handle: self.next_handle,
            next_seq: self.next_seq,
        });
    }

    pub(crate) fn has_checkpoint(&self, token: u64) -> bool {
        self.journal.marks.iter().any(|m| m.token == token)
    }

    /// Undo every mutation since mark `token` was opened. The mark stays
    /// live; younger marks are retired. `false` if no such mark is live
    /// (nothing changes).
    pub fn restore(&mut self, spec: &TableSpec, token: u64) -> bool {
        let Some(m) = self.journal.marks.iter().position(|m| m.token == token) else {
            return false;
        };
        self.journal.marks.truncate(m + 1);
        let Mark {
            at,
            next_handle,
            next_seq,
            ..
        } = self.journal.marks[m];
        while self.journal.undo.len() > at {
            match self.journal.undo.pop().expect("len checked") {
                Undo::Added(handle) => {
                    debug_assert_eq!(self.entries.last().map(|e| e.handle), Some(handle));
                    self.remove_at(self.entries.len() - 1);
                }
                Undo::Modded {
                    handle,
                    action,
                    action_data,
                } => {
                    let e = &mut self.entries[self.slot_of[&handle]];
                    e.action = action;
                    e.action_data = action_data;
                }
                Undo::Deleted { pos, entry } => self.insert_at(spec, pos, entry),
                Undo::Default { pipe, old } => self.defaults[pipe] = old,
            }
        }
        self.next_handle = next_handle;
        self.next_seq = next_seq;
        true
    }

    /// Drop mark `token` (a no-op if it is not live). With the last mark
    /// gone the journal empties and recording stops.
    pub fn discard(&mut self, token: u64) {
        self.journal.marks.retain(|m| m.token != token);
        if self.journal.marks.is_empty() {
            self.journal.undo.clear();
        }
    }

    /// Look up the winning entry for the current PHV; a packet that hits
    /// nothing gets pipe 0's default.
    #[inline]
    pub fn lookup(&mut self, spec: &TableSpec, phv: &Phv) -> Lookup<'_> {
        self.lookup_in(0, spec, phv)
    }

    /// [`lookup`](Self::lookup) for a packet in pipe `pipe`: a miss gets
    /// that pipe's default.
    #[inline]
    pub(crate) fn lookup_in(&mut self, pipe: usize, spec: &TableSpec, phv: &Phv) -> Lookup<'_> {
        self.lookups += 1;
        if spec.key.is_empty() {
            // Keyless tables always run their default action.
            return self.default_lookup(pipe);
        }

        // Static-masked field bits, reusing the table-owned scratch buffer.
        self.scratch_bits.clear();
        for k in &spec.key {
            let b = phv.bits(k.field);
            self.scratch_bits.push(match k.static_mask {
                Some(m) => b & m.bits(),
                None => b,
            });
        }

        let winner: Option<usize> = match &self.index {
            Index::Exact(map) => map.get(self.scratch_bits.as_slice()).copied(),
            Index::Lpm(lpm) => lpm.probe(&self.scratch_bits, &mut self.scratch_key),
            Index::Scan(scan) => scan
                .order
                .iter()
                .find(|row| row.matches(&self.scratch_bits))
                .map(|row| row.idx),
        };

        if let Some(i) = winner {
            self.hits += 1;
            let e = &self.entries[i];
            return Lookup::Hit {
                handle: e.handle,
                action: e.action,
                action_data: &e.action_data,
            };
        }
        self.default_lookup(pipe)
    }

    #[inline]
    fn default_lookup(&self, pipe: usize) -> Lookup<'_> {
        match &self.defaults[pipe] {
            Some((a, d)) => Lookup::Default {
                action: *a,
                action_data: d,
            },
            None => Lookup::Miss,
        }
    }

    /// Normalize a user-provided key to the spec's field widths. Exposed so
    /// that the driver layer can accept plain `u128` keys.
    pub fn normalize_key(spec: &TableSpec, key: Vec<KeyField>) -> Vec<KeyField> {
        key.into_iter()
            .zip(spec.key.iter())
            .map(|(kf, ks)| match kf {
                KeyField::Exact(v) => KeyField::Exact(v.resize(ks.width)),
                KeyField::Ternary { value, mask } => KeyField::Ternary {
                    value: value.resize(ks.width),
                    mask: mask.resize(ks.width),
                },
                KeyField::Lpm { value, prefix_len } => KeyField::Lpm {
                    value: value.resize(ks.width),
                    prefix_len: prefix_len.min(ks.width),
                },
            })
            .collect()
    }

    /// Reference linear-scan lookup (the pre-index semantics). Kept for the
    /// differential property tests and the bench harness baseline; must
    /// always agree with [`Table::lookup`], including the exact-only
    /// duplicate-key rule (newest entry wins — see the module docs).
    pub fn lookup_linear(&self, spec: &TableSpec, phv: &Phv) -> Lookup<'_> {
        if spec.key.is_empty() {
            return self.default_lookup(0);
        }
        let field_vals: Vec<Value> = spec
            .key
            .iter()
            .map(|k| {
                let v = phv.get(k.field);
                match k.static_mask {
                    Some(m) => v.and(m),
                    None => v,
                }
            })
            .collect();
        if spec.key.iter().all(|k| k.kind == MatchKind::Exact) {
            let winner = self
                .entries
                .iter()
                .filter(|e| {
                    e.key
                        .iter()
                        .zip(field_vals.iter())
                        .all(|(kf, fv)| kf.matches(*fv, None))
                })
                .max_by_key(|e| e.seq);
            if let Some(e) = winner {
                return Lookup::Hit {
                    handle: e.handle,
                    action: e.action,
                    action_data: &e.action_data,
                };
            }
            return self.default_lookup(0);
        }
        let mut best: Option<&Entry> = None;
        let mut best_prefix: u32 = 0;
        for e in &self.entries {
            let all = e
                .key
                .iter()
                .zip(field_vals.iter())
                .all(|(kf, fv)| kf.matches(*fv, None));
            if !all {
                continue;
            }
            let prefix: u32 = e.key.iter().map(|k| u32::from(k.prefix_len())).sum();
            let better = match best {
                None => true,
                Some(b) => {
                    (prefix, e.priority, std::cmp::Reverse(e.seq))
                        > (best_prefix, b.priority, std::cmp::Reverse(b.seq))
                }
            };
            if better {
                best = Some(e);
                best_prefix = prefix;
            }
        }
        if let Some(e) = best {
            return Lookup::Hit {
                handle: e.handle,
                action: e.action,
                action_data: &e.action_data,
            };
        }
        self.default_lookup(0)
    }
}

/// Position of the single `lpm` key field if every other field is `exact`.
fn single_lpm_pos(spec: &TableSpec) -> Option<usize> {
    let mut pos = None;
    for (i, k) in spec.key.iter().enumerate() {
        match k.kind {
            MatchKind::Lpm if pos.is_none() => pos = Some(i),
            MatchKind::Exact => {}
            _ => return None,
        }
    }
    pos
}

impl LpmIndex {
    /// Probe key for an entry: exact fields raw, the LPM field reduced to
    /// its prefix bits (keeping out-of-width pattern bits, which makes the
    /// entry unmatchable — same as `matches_prefix`).
    fn entry_key(&self, key: &[KeyField], prefix_len: u16) -> Vec<u128> {
        key.iter()
            .enumerate()
            .map(|(i, kf)| match kf {
                KeyField::Exact(v) => v.bits(),
                KeyField::Lpm { value, .. } => {
                    if prefix_len == 0 {
                        0
                    } else {
                        let shift = u32::from(self.width.saturating_sub(prefix_len));
                        (value.bits() >> shift) << shift
                    }
                }
                KeyField::Ternary { .. } => unreachable!("ternary field {i} in LPM index"),
            })
            .collect()
    }

    fn insert(&mut self, key: &[KeyField], priority: u32, seq: u64, idx: usize, entries: &[Entry]) {
        let prefix_len = key[self.lpm_pos].prefix_len();
        let bits = self.entry_key(key, prefix_len);
        let level_pos = match self
            .levels
            .binary_search_by(|l| prefix_len.cmp(&l.prefix_len))
        {
            Ok(p) => p,
            Err(p) => {
                self.levels.insert(
                    p,
                    LpmLevel {
                        prefix_len,
                        mask: prefix_mask(self.width, prefix_len),
                        buckets: HashMap::default(),
                    },
                );
                p
            }
        };
        let bucket = self.levels[level_pos].buckets.entry(bits).or_default();
        // Keep best-first: (priority desc, seq asc). `seq` is unique, so the
        // position is total-ordered.
        let pos = bucket.partition_point(|&other| {
            let o = &entries[other];
            (o.priority, std::cmp::Reverse(o.seq)) > (priority, std::cmp::Reverse(seq))
        });
        bucket.insert(pos, idx);
    }

    fn remove(&mut self, key: &[KeyField], idx: usize) {
        let prefix_len = key[self.lpm_pos].prefix_len();
        let bits = self.entry_key(key, prefix_len);
        if let Some(level_pos) = self.levels.iter().position(|l| l.prefix_len == prefix_len) {
            let level = &mut self.levels[level_pos];
            if let Some(bucket) = level.buckets.get_mut(&bits) {
                bucket.retain(|&i| i != idx);
                if bucket.is_empty() {
                    level.buckets.remove(&bits);
                }
            }
            if level.buckets.is_empty() {
                self.levels.remove(level_pos);
            }
        }
        for level in &mut self.levels {
            for bucket in level.buckets.values_mut() {
                for v in bucket.iter_mut() {
                    if *v > idx {
                        *v -= 1;
                    }
                }
            }
        }
    }

    /// Longest-prefix-first probe; the first populated bucket's best entry
    /// is the overall winner (prefix length dominates priority).
    fn probe(&self, field_bits: &[u128], scratch_key: &mut Vec<u128>) -> Option<usize> {
        scratch_key.clear();
        scratch_key.extend_from_slice(field_bits);
        for level in &self.levels {
            scratch_key[self.lpm_pos] = field_bits[self.lpm_pos] & level.mask;
            if let Some(bucket) = level.buckets.get(scratch_key.as_slice()) {
                return bucket.first().copied();
            }
        }
        None
    }
}

impl ScanIndex {
    fn insert(&mut self, spec: &TableSpec, key: &[KeyField], priority: u32, seq: u64, idx: usize) {
        let prec = Prec {
            prefix: key.iter().map(|k| u32::from(k.prefix_len())).sum(),
            priority,
            seq,
        };
        let rows: Box<[(u128, u128)]> = key
            .iter()
            .zip(spec.key.iter())
            .map(|(kf, ks)| kf.care_bits(ks.width))
            .collect();
        let pos = self.order.partition_point(|row| row.prec > prec);
        self.order.insert(pos, ScanRow { idx, prec, rows });
    }

    fn remove(&mut self, idx: usize) {
        self.order.retain(|row| row.idx != idx);
        for row in &mut self.order {
            if row.idx > idx {
                row.idx -= 1;
            }
        }
    }
}

fn exact_key_bits(key: &[KeyField]) -> Vec<u128> {
    key.iter()
        .map(|k| match k {
            KeyField::Exact(v) => v.bits(),
            _ => unreachable!("exact index on non-exact key"),
        })
        .collect()
}

#[cfg(test)]
mod journal_property;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FieldId, KeySpec};
    use p4_ast::Pipeline;

    fn mkspec(kinds: &[MatchKind]) -> TableSpec {
        TableSpec {
            name: "t".into(),
            key: kinds
                .iter()
                .enumerate()
                .map(|(i, k)| KeySpec {
                    field: FieldId(i as u32),
                    kind: *k,
                    width: 32,
                    static_mask: None,
                })
                .collect(),
            actions: vec![ActionId(0), ActionId(1)],
            default_action: Some((ActionId(1), vec![])),
            size: 4,
            malleable: false,
            stage: 0,
            pipeline: Pipeline::Ingress,
        }
    }

    /// Minimal fake PHV: field i has value vals[i].
    fn phv_with(vals: &[u128]) -> Phv {
        // Build a spec with enough 32-bit fields.
        use crate::spec::load;
        let fields: String = (0..vals.len())
            .map(|i| format!("f{i} : 32;"))
            .collect::<Vec<_>>()
            .join(" ");
        let src = format!("header_type m_t {{ fields {{ {fields} }} }} metadata m_t m;");
        let prog = p4r_lang::parse_program(&src).unwrap();
        let spec = load(&prog).unwrap();
        let mut phv = Phv::new(&spec);
        for (i, v) in vals.iter().enumerate() {
            let id = spec.field_id("m", &format!("f{i}")).unwrap();
            phv.set(id, Value::new(*v, 32));
        }
        phv
    }

    /// Remap table spec key fields to the fake PHV's field ids (intrinsics
    /// occupy the first ids).
    fn remap(spec: &mut TableSpec, base: u32) {
        for (i, k) in spec.key.iter_mut().enumerate() {
            k.field = FieldId(base + i as u32);
        }
    }

    const INTR_COUNT: u32 = crate::spec::INTR_FIELDS.len() as u32;

    #[test]
    fn exact_match_hit_and_miss() {
        let mut spec = mkspec(&[MatchKind::Exact]);
        remap(&mut spec, INTR_COUNT);
        let mut t = Table::new(&spec);
        let h = t
            .add_entry(
                &spec,
                vec![KeyField::Exact(Value::new(7, 32))],
                0,
                ActionId(0),
                vec![],
                0,
            )
            .unwrap();
        match t.lookup(&spec, &phv_with(&[7])) {
            Lookup::Hit { handle, action, .. } => {
                assert_eq!(handle, h);
                assert_eq!(action, ActionId(0));
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(matches!(
            t.lookup(&spec, &phv_with(&[8])),
            Lookup::Default {
                action: ActionId(1),
                ..
            }
        ));
        assert_eq!(t.lookups, 2);
        assert_eq!(t.hits, 1);
    }

    #[test]
    fn ternary_priority_wins() {
        let mut spec = mkspec(&[MatchKind::Ternary]);
        remap(&mut spec, INTR_COUNT);
        let mut t = Table::new(&spec);
        t.add_entry(
            &spec,
            vec![KeyField::Ternary {
                value: Value::zero(32),
                mask: Value::zero(32), // wildcard
            }],
            1,
            ActionId(0),
            vec![],
            0,
        )
        .unwrap();
        let hi = t
            .add_entry(
                &spec,
                vec![KeyField::Ternary {
                    value: Value::new(5, 32),
                    mask: Value::ones(32),
                }],
                10,
                ActionId(1),
                vec![],
                0,
            )
            .unwrap();
        match t.lookup(&spec, &phv_with(&[5])) {
            Lookup::Hit { handle, .. } => assert_eq!(handle, hi),
            other => panic!("expected hit, got {other:?}"),
        }
        // Non-5 packets fall to the wildcard.
        match t.lookup(&spec, &phv_with(&[9])) {
            Lookup::Hit { action, .. } => assert_eq!(action, ActionId(0)),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn ternary_tie_break_is_insertion_order() {
        let mut spec = mkspec(&[MatchKind::Ternary]);
        remap(&mut spec, INTR_COUNT);
        let mut t = Table::new(&spec);
        let first = t
            .add_entry(
                &spec,
                vec![KeyField::Ternary {
                    value: Value::zero(32),
                    mask: Value::zero(32),
                }],
                5,
                ActionId(0),
                vec![],
                0,
            )
            .unwrap();
        t.add_entry(
            &spec,
            vec![KeyField::Ternary {
                value: Value::zero(32),
                mask: Value::zero(32),
            }],
            5,
            ActionId(1),
            vec![],
            0,
        )
        .unwrap();
        match t.lookup(&spec, &phv_with(&[1])) {
            Lookup::Hit { handle, .. } => assert_eq!(handle, first),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn lpm_longest_prefix_wins() {
        let mut spec = mkspec(&[MatchKind::Lpm]);
        remap(&mut spec, INTR_COUNT);
        let mut t = Table::new(&spec);
        t.add_entry(
            &spec,
            vec![KeyField::Lpm {
                value: Value::new(0x0a000000, 32),
                prefix_len: 8,
            }],
            0,
            ActionId(0),
            vec![],
            0,
        )
        .unwrap();
        let h24 = t
            .add_entry(
                &spec,
                vec![KeyField::Lpm {
                    value: Value::new(0x0a000100, 32),
                    prefix_len: 24,
                }],
                0,
                ActionId(1),
                vec![],
                0,
            )
            .unwrap();
        match t.lookup(&spec, &phv_with(&[0x0a000105])) {
            Lookup::Hit { handle, .. } => assert_eq!(handle, h24),
            other => panic!("expected hit, got {other:?}"),
        }
        match t.lookup(&spec, &phv_with(&[0x0a990105])) {
            Lookup::Hit { action, .. } => assert_eq!(action, ActionId(0)),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn lpm_del_then_fallback_to_shorter_prefix() {
        let mut spec = mkspec(&[MatchKind::Lpm]);
        remap(&mut spec, INTR_COUNT);
        let mut t = Table::new(&spec);
        let h8 = t
            .add_entry(
                &spec,
                vec![KeyField::Lpm {
                    value: Value::new(0x0a000000, 32),
                    prefix_len: 8,
                }],
                0,
                ActionId(0),
                vec![],
                0,
            )
            .unwrap();
        let h24 = t
            .add_entry(
                &spec,
                vec![KeyField::Lpm {
                    value: Value::new(0x0a000100, 32),
                    prefix_len: 24,
                }],
                0,
                ActionId(1),
                vec![],
                0,
            )
            .unwrap();
        t.del_entry(h24).unwrap();
        match t.lookup(&spec, &phv_with(&[0x0a000105])) {
            Lookup::Hit { handle, .. } => assert_eq!(handle, h8),
            other => panic!("expected hit, got {other:?}"),
        }
        t.del_entry(h8).unwrap();
        assert!(matches!(
            t.lookup(&spec, &phv_with(&[0x0a000105])),
            Lookup::Default { .. }
        ));
    }

    #[test]
    fn lpm_with_exact_companion_field() {
        let mut spec = mkspec(&[MatchKind::Exact, MatchKind::Lpm]);
        remap(&mut spec, INTR_COUNT);
        let mut t = Table::new(&spec);
        let h = t
            .add_entry(
                &spec,
                vec![
                    KeyField::Exact(Value::new(4, 32)),
                    KeyField::Lpm {
                        value: Value::new(0x0a000000, 32),
                        prefix_len: 16,
                    },
                ],
                0,
                ActionId(0),
                vec![],
                0,
            )
            .unwrap();
        match t.lookup(&spec, &phv_with(&[4, 0x0a00ffff])) {
            Lookup::Hit { handle, .. } => assert_eq!(handle, h),
            other => panic!("expected hit, got {other:?}"),
        }
        // Wrong exact companion → default.
        assert!(matches!(
            t.lookup(&spec, &phv_with(&[5, 0x0a00ffff])),
            Lookup::Default { .. }
        ));
    }

    #[test]
    fn scan_del_shifts_displaced_indices() {
        let mut spec = mkspec(&[MatchKind::Ternary]);
        remap(&mut spec, INTR_COUNT);
        spec.size = 8;
        let mut t = Table::new(&spec);
        let mk = |v: u128| KeyField::Ternary {
            value: Value::new(v, 32),
            mask: Value::ones(32),
        };
        let h1 = t
            .add_entry(&spec, vec![mk(1)], 0, ActionId(0), vec![], 0)
            .unwrap();
        let h2 = t
            .add_entry(&spec, vec![mk(2)], 0, ActionId(0), vec![], 0)
            .unwrap();
        let h3 = t
            .add_entry(&spec, vec![mk(3)], 0, ActionId(1), vec![], 0)
            .unwrap();
        t.del_entry(h1).unwrap();
        // h2/h3 shifted down by one; lookups must still resolve them.
        match t.lookup(&spec, &phv_with(&[2])) {
            Lookup::Hit { handle, .. } => assert_eq!(handle, h2),
            other => panic!("expected hit, got {other:?}"),
        }
        match t.lookup(&spec, &phv_with(&[3])) {
            Lookup::Hit { handle, action, .. } => {
                assert_eq!(handle, h3);
                assert_eq!(action, ActionId(1));
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(matches!(
            t.lookup(&spec, &phv_with(&[1])),
            Lookup::Default { .. }
        ));
    }

    #[test]
    fn exact_del_restores_shadowed_duplicate() {
        let mut spec = mkspec(&[MatchKind::Exact]);
        remap(&mut spec, INTR_COUNT);
        let mut t = Table::new(&spec);
        let old = t
            .add_entry(
                &spec,
                vec![KeyField::Exact(Value::new(7, 32))],
                0,
                ActionId(0),
                vec![],
                0,
            )
            .unwrap();
        let newer = t
            .add_entry(
                &spec,
                vec![KeyField::Exact(Value::new(7, 32))],
                0,
                ActionId(1),
                vec![],
                0,
            )
            .unwrap();
        // Newest duplicate wins while installed.
        match t.lookup(&spec, &phv_with(&[7])) {
            Lookup::Hit { handle, .. } => assert_eq!(handle, newer),
            other => panic!("expected hit, got {other:?}"),
        }
        t.del_entry(newer).unwrap();
        // The shadowed entry becomes visible again.
        match t.lookup(&spec, &phv_with(&[7])) {
            Lookup::Hit { handle, .. } => assert_eq!(handle, old),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn indexed_lookup_matches_linear_reference() {
        let mut spec = mkspec(&[MatchKind::Ternary, MatchKind::Lpm]);
        remap(&mut spec, INTR_COUNT);
        spec.size = 64;
        let mut t = Table::new(&spec);
        // A deterministic little generator (no external rand).
        let mut s: u64 = 0x9e3779b97f4a7c15;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..40 {
            let key = vec![
                KeyField::Ternary {
                    value: Value::new(u128::from(next() & 0xffff), 32),
                    mask: Value::new(u128::from(next() & 0xffff), 32),
                },
                KeyField::Lpm {
                    value: Value::new(u128::from(next() as u32), 32),
                    prefix_len: (next() % 33) as u16,
                },
            ];
            let prio = (next() % 4) as u32;
            t.add_entry(&spec, key, prio, ActionId(0), vec![], 0)
                .unwrap();
        }
        for _ in 0..200 {
            let phv = phv_with(&[u128::from(next() & 0xffff), u128::from(next() as u32)]);
            let fast = t.lookup(&spec, &phv).detach();
            let slow = t.lookup_linear(&spec, &phv).detach();
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn mod_and_del_entry() {
        let mut spec = mkspec(&[MatchKind::Exact]);
        remap(&mut spec, INTR_COUNT);
        let mut t = Table::new(&spec);
        let h = t
            .add_entry(
                &spec,
                vec![KeyField::Exact(Value::new(1, 32))],
                0,
                ActionId(0),
                vec![],
                0,
            )
            .unwrap();
        t.mod_entry(&spec, h, ActionId(1), vec![], 0).unwrap();
        match t.lookup(&spec, &phv_with(&[1])) {
            Lookup::Hit { action, .. } => assert_eq!(action, ActionId(1)),
            other => panic!("expected hit, got {other:?}"),
        }
        t.del_entry(h).unwrap();
        assert!(matches!(
            t.lookup(&spec, &phv_with(&[1])),
            Lookup::Default { .. }
        ));
        assert_eq!(t.del_entry(h).unwrap_err(), TableError::UnknownHandle(h));
    }

    #[test]
    fn capacity_enforced() {
        let mut spec = mkspec(&[MatchKind::Exact]);
        remap(&mut spec, INTR_COUNT);
        spec.size = 2;
        let mut t = Table::new(&spec);
        for i in 0..2 {
            t.add_entry(
                &spec,
                vec![KeyField::Exact(Value::new(i, 32))],
                0,
                ActionId(0),
                vec![],
                0,
            )
            .unwrap();
        }
        let err = t
            .add_entry(
                &spec,
                vec![KeyField::Exact(Value::new(99, 32))],
                0,
                ActionId(0),
                vec![],
                0,
            )
            .unwrap_err();
        assert_eq!(err, TableError::TableFull { capacity: 2 });
    }

    #[test]
    fn key_validation() {
        let mut spec = mkspec(&[MatchKind::Exact, MatchKind::Ternary]);
        remap(&mut spec, INTR_COUNT);
        let mut t = Table::new(&spec);
        // wrong arity
        assert!(matches!(
            t.add_entry(
                &spec,
                vec![KeyField::Exact(Value::new(0, 32))],
                0,
                ActionId(0),
                vec![],
                0
            ),
            Err(TableError::KeyArityMismatch { .. })
        ));
        // wrong kind
        assert!(matches!(
            t.add_entry(
                &spec,
                vec![
                    KeyField::Ternary {
                        value: Value::zero(32),
                        mask: Value::zero(32)
                    },
                    KeyField::Ternary {
                        value: Value::zero(32),
                        mask: Value::zero(32)
                    },
                ],
                0,
                ActionId(0),
                vec![],
                0
            ),
            Err(TableError::KeyKindMismatch { index: 0, .. })
        ));
        // unknown action
        assert!(matches!(
            t.add_entry(
                &spec,
                vec![
                    KeyField::Exact(Value::zero(32)),
                    KeyField::Ternary {
                        value: Value::zero(32),
                        mask: Value::zero(32)
                    },
                ],
                0,
                ActionId(9),
                vec![],
                0
            ),
            Err(TableError::UnknownAction(_))
        ));
    }

    #[test]
    fn keyless_table_runs_default() {
        let mut spec = mkspec(&[]);
        spec.key.clear();
        let mut t = Table::new(&spec);
        assert!(matches!(
            t.lookup(&spec, &phv_with(&[0])),
            Lookup::Default {
                action: ActionId(1),
                ..
            }
        ));
    }

    #[test]
    fn normalize_key_resizes() {
        let spec = mkspec(&[MatchKind::Exact]);
        let key = Table::normalize_key(&spec, vec![KeyField::Exact(Value::new(0x1_0000_0001, 64))]);
        match &key[0] {
            KeyField::Exact(v) => {
                assert_eq!(v.width(), 32);
                assert_eq!(v.bits(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
