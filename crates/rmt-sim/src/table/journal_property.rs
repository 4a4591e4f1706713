//! The undo journal against the checkpoint it replaced.
//!
//! Until this journal a checkpoint was a deep copy of the table and a
//! restore put the copy back. That copy is kept here as the reference:
//! random add / mod / del / set-default (of every pipe or of one) /
//! checkpoint / restore / discard sequences run over an exact, an LPM and a
//! scan-indexed table of a 1- and a 2-pipe switch, a `Table::clone` is
//! taken beside every mark, and after every restore the journalled table
//! must *be* that clone — entries in order, each pipe's default, both
//! counters, the handle map, and an index that answers every probe as the
//! linear scan does. The token contract is
//! checked on the way: a restored token stays live, younger tokens of the
//! same table die with the restore, dead tokens are refused and change
//! nothing. After every step the switch's answer to `checkpoint_table` —
//! which it reads from the tables' journals — is the model's set of live
//! tokens, and a live token named with another table (or a table out of
//! range) is refused and changes nothing.

use super::*;
use crate::clock::Clock;
use crate::spec::TableId;
use crate::switch::{switch_from_source, DriverError, Switch, SwitchConfig};
use proptest::prelude::*;

const PROGRAM: &str = r#"
header_type m_t { fields { a : 32; b : 32; c : 32; out : 32; } }
metadata m_t m;
action set(v) { modify_field(m.out, v); }
action nop() { no_op(); }
table te { reads { m.a : exact; } actions { set; nop; } default_action : nop(); size : 48; }
table tl { reads { m.a : exact; m.b : lpm; } actions { set; nop; } size : 48; }
table tt { reads { m.b : ternary; m.c : lpm; } actions { set; nop; } size : 48; }
control ingress { apply(te); apply(tl); apply(tt); }
"#;

const TABLES: [&str; 3] = ["te", "tl", "tt"];

/// A key for table `t` out of a small domain, so duplicates, shadowing and
/// overlapping prefixes all happen.
fn key(t: usize, x: u64) -> Vec<KeyField> {
    let small = Value::new(u128::from(x % 5), 32);
    let lpm = KeyField::Lpm {
        value: Value::new(u128::from((x >> 8) % 4) << 28, 32),
        prefix_len: [0, 2, 4, 32][(x >> 16) as usize % 4],
    };
    match t {
        0 => vec![KeyField::Exact(small)],
        1 => vec![KeyField::Exact(small), lpm],
        _ => vec![
            KeyField::Ternary {
                value: small,
                mask: Value::new(u128::from((x >> 4) % 8), 32),
            },
            lpm,
        ],
    }
}

/// Everything about a table a driver or a packet can observe, bar the
/// traffic counters.
fn state(t: &Table) -> String {
    let mut slots: Vec<_> = t.slot_of.iter().map(|(h, i)| (*h, *i)).collect();
    slots.sort();
    let (entries, defaults) = (&t.entries, &t.defaults);
    let counters = (t.next_handle, t.next_seq);
    format!("{entries:?} {slots:?} {defaults:?} {counters:?}")
}

/// What one mark must bring back.
struct Reference {
    table: usize,
    token: u64,
    /// The clone-based checkpoint.
    copy: Table,
}

struct Harness {
    sw: Switch,
    ids: Vec<TableId>,
    marks: Vec<Reference>,
    dead: Vec<(usize, u64)>,
}

impl Harness {
    fn new(pipes: u16) -> Self {
        let config = SwitchConfig {
            num_pipes: pipes,
            ..SwitchConfig::default()
        };
        let sw = switch_from_source(PROGRAM, config, Clock::new()).expect("program loads");
        let ids = TABLES.iter().map(|t| sw.table_id(t).unwrap()).collect();
        // `set(v)` and `nop()` are the spec's first two actions, in order.
        assert_eq!(sw.spec().actions[0].param_widths.len(), 1);
        Harness {
            sw,
            ids,
            marks: Vec::new(),
            dead: Vec::new(),
        }
    }

    fn handles(&self, t: usize) -> Vec<EntryHandle> {
        let table = self.sw.table_ref(self.ids[t]);
        table.entries().map(|e| e.handle).collect()
    }

    fn table(&self, t: usize) -> Table {
        self.sw.table_ref(self.ids[t]).clone()
    }

    /// The journalled table is the reference's, every pipe's default
    /// included, and its index answers as a linear scan of the reference
    /// does.
    fn check_restored(&self, r: &Reference, probes: &[u64]) -> Result<(), TestCaseError> {
        let spec = self.sw.spec();
        let tspec = spec.table(self.ids[r.table]);
        let (mut got, want) = (self.table(r.table), &r.copy);
        prop_assert_eq!(state(&got), state(want));
        for h in want.entries().map(|e| e.handle) {
            prop_assert!(got.get(h).is_some(), "{:?} was live at the mark", h);
        }
        for x in probes {
            let mut phv = Phv::new(spec);
            for (f, bits) in [("a", x % 5), ("b", (x >> 8) << 26), ("c", (x >> 4) << 27)] {
                phv.set_u64(spec.field_id("m", f).unwrap(), bits);
            }
            let fast = got.lookup(tspec, &phv).detach();
            prop_assert_eq!(&fast, &got.lookup_linear(tspec, &phv).detach());
            prop_assert_eq!(&fast, &want.lookup_linear(tspec, &phv).detach());
        }
        Ok(())
    }

    /// Every live token names its table and every dead one nothing; a live
    /// token restored on a table that did not take it is refused, and no
    /// table moves.
    fn check_tokens(&mut self, x: u64) -> Result<(), TestCaseError> {
        for m in &self.marks {
            prop_assert_eq!(self.sw.checkpoint_table(m.token), Some(self.ids[m.table]));
        }
        for &(_, token) in &self.dead {
            prop_assert_eq!(self.sw.checkpoint_table(token), None);
        }
        let Some(m) = self.marks.get(x as usize % self.marks.len().max(1)) else {
            return Ok(());
        };
        let token = m.token;
        let other = (m.table + 1 + (x >> 8) as usize % (TABLES.len() - 1)) % TABLES.len();
        let before: Vec<String> = (0..TABLES.len()).map(|t| state(&self.table(t))).collect();
        let want = Err(DriverError::Table(TableError::UnknownHandle(EntryHandle(
            token,
        ))));
        prop_assert_eq!(self.sw.table_restore(self.ids[other], token), want.clone());
        prop_assert_eq!(
            self.sw.table_restore(TableId(TABLES.len() as u32), token),
            want
        );
        let after: Vec<String> = (0..TABLES.len()).map(|t| state(&self.table(t))).collect();
        prop_assert_eq!(before, after);
        Ok(())
    }

    fn step(&mut self, (kind, t, x, y): (u8, usize, u64, u64)) -> Result<(), TestCaseError> {
        let id = self.ids[t];
        let pick = |n: usize| (n > 0).then(|| x as usize % n.max(1));
        let action = ActionId((y % 2) as u32);
        let data = |a: ActionId| match a.0 {
            0 => vec![Value::new(u128::from(y), 32)],
            _ => vec![],
        };
        match kind {
            0..=3 => {
                // A full table refuses the add in every pipe alike.
                let _ = self
                    .sw
                    .table_add(id, key(t, x), (y % 3) as u32, action, data(action));
            }
            4 | 5 => {
                if let Some(i) = pick(self.handles(t).len()) {
                    let h = self.handles(t)[i];
                    self.sw.table_mod(id, h, action, data(action)).unwrap();
                }
            }
            6 | 7 => {
                if let Some(i) = pick(self.handles(t).len()) {
                    let h = self.handles(t)[i];
                    self.sw.table_del(id, h).unwrap();
                }
            }
            8 => self.sw.table_set_default(id, action, data(action)).unwrap(),
            15 => {
                // One pipe's default moves: a restore must bring back each
                // pipe's separately.
                let pipe = (x >> 3) as u16 % self.sw.num_pipes();
                let set = self.sw.table_set_default_on(pipe, id, action, data(action));
                set.unwrap();
            }
            9 | 10 => {
                let copy = self.table(t);
                let token = self.sw.table_checkpoint(id);
                self.marks.push(Reference {
                    table: t,
                    token,
                    copy,
                });
            }
            11 | 12 => {
                let Some(i) = pick(self.marks.len()) else {
                    return Ok(());
                };
                let (table, token) = (self.marks[i].table, self.marks[i].token);
                let after_mark: Vec<EntryHandle> = self
                    .handles(table)
                    .into_iter()
                    .filter(|h| h.0 >= self.marks[i].copy.next_handle)
                    .collect();
                self.sw.table_restore(self.ids[table], token).unwrap();
                // Younger marks of that table named states that are gone.
                let (kept, retired): (Vec<_>, Vec<_>) = std::mem::take(&mut self.marks)
                    .into_iter()
                    .partition(|m| m.table != table || m.token <= token);
                self.marks = kept;
                self.dead.extend(retired.iter().map(|m| (m.table, m.token)));
                let r = self.marks.iter().find(|m| m.token == token).unwrap();
                self.check_restored(r, &[x, y, x ^ y, x.rotate_left(17)])?;
                for h in after_mark {
                    let gone = self.sw.table_ref(self.ids[table]).get(h).is_none();
                    prop_assert!(gone, "{:?} was added after the mark", h);
                }
                // The handle counter rewound with the table.
                if let Ok(h) =
                    self.sw
                        .table_add(self.ids[table], key(table, x), 0, ActionId(1), vec![])
                {
                    prop_assert_eq!(h.0, r.copy.next_handle);
                    self.sw.table_del(self.ids[table], h).unwrap();
                    // (That probe is journalled too: restore once more so
                    // the reference still describes the table.)
                    self.sw.table_restore(self.ids[table], token).unwrap();
                }
            }
            13 => {
                if let Some(i) = pick(self.marks.len()) {
                    let m = self.marks.remove(i);
                    self.sw.checkpoint_discard(m.token);
                    self.dead.push((m.table, m.token));
                }
            }
            _ => {
                // A dead token is refused and nothing moves.
                if let Some(i) = pick(self.dead.len()) {
                    let (table, token) = self.dead[i];
                    let before = state(self.sw.table_ref(self.ids[table]));
                    let refused = self.sw.table_restore(self.ids[table], token);
                    let want = DriverError::Table(TableError::UnknownHandle(EntryHandle(token)));
                    prop_assert_eq!(refused, Err(want));
                    self.sw.checkpoint_discard(token);
                    let after = state(self.sw.table_ref(self.ids[table]));
                    prop_assert_eq!(before, after);
                }
            }
        }
        Ok(())
    }
}

proptest! {
    #[test]
    fn a_restore_is_the_clone_it_replaced(
        ops in prop::collection::vec((0u8..16, 0usize..3, any::<u64>(), any::<u64>()), 1..120),
        two_pipes in any::<bool>(),
    ) {
        let mut h = Harness::new(if two_pipes { 2 } else { 1 });
        for op in ops {
            h.step(op)?;
            h.check_tokens(op.2 ^ op.3)?;
        }
        // Every mark still live restores, youngest first so each is reached.
        while let Some(r) = h.marks.pop() {
            h.sw.table_restore(h.ids[r.table], r.token).unwrap();
            h.check_restored(&r, &[1, 2, 3])?;
            h.sw.checkpoint_discard(r.token);
        }
        // With every mark gone no table is still recording.
        for t in 0..TABLES.len() {
            let journal = h.table(t).journal;
            prop_assert!(journal.undo.is_empty() && journal.marks.is_empty());
        }
    }
}

#[test]
fn restoring_never_rewinds_the_traffic_counters() {
    let mut h = Harness::new(1);
    let id = h.ids[0];
    h.sw.table_add(id, key(0, 1), 0, ActionId(1), vec![])
        .unwrap();
    let token = h.sw.table_checkpoint(id);
    let spec = h.sw.spec().clone();
    let mut phv = Phv::new(&spec);
    phv.set_u64(spec.field_id("m", "a").unwrap(), 1);
    h.sw.run_pipeline(phv, p4_ast::Pipeline::Ingress);
    let counted = (h.sw.table_ref(id).lookups, h.sw.table_ref(id).hits);
    assert_eq!(counted, (1, 1));
    h.sw.table_restore(id, token).unwrap();
    assert_eq!(
        (h.sw.table_ref(id).lookups, h.sw.table_ref(id).hits),
        counted
    );
}
