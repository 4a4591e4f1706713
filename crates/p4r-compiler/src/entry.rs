//! Logical→physical table-entry expansion.
//!
//! Users interact with malleable tables in terms of the *original* P4R key
//! (e.g. "match `${read_var} = 0`"). The compiler's transformations (Figs.
//! 5-6) widen the physical key with alternative ternary columns, selector
//! columns, and the `vv` version bit, and replace actions with specialized
//! variants. This module computes the set of physical entries that realize
//! one logical entry — the expansion whose size is
//! `Π |alts|` over the malleables involved (§4.1).

use crate::iface::{ActionVariants, TableInfo, UserKey};
use p4_ast::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One user-visible key component.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LogicalKey {
    Exact(Value),
    Ternary { value: Value, mask: Value },
    Lpm { value: Value, prefix_len: u16 },
}

/// One physical key column of an expanded entry.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhysKey {
    Exact(Value),
    Ternary {
        value: Value,
        mask: Value,
    },
    Lpm {
        value: Value,
        prefix_len: u16,
    },
    /// Full wildcard (only meaningful on ternary columns).
    Any,
}

/// A fully expanded physical entry.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhysEntry {
    pub key: Vec<PhysKey>,
    pub action: String,
    pub action_data: Vec<Value>,
    pub priority: u32,
}

/// Expansion errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExpandError {
    KeyArity {
        expected: usize,
        got: usize,
    },
    UnknownAction(String),
    /// LPM keys are not supported on malleable-field columns.
    LpmOnMblColumn {
        mbl: String,
    },
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandError::KeyArity { expected, got } => {
                write!(f, "logical key arity {got}, table expects {expected}")
            }
            ExpandError::UnknownAction(a) => write!(f, "action `{a}` not on this table"),
            ExpandError::LpmOnMblColumn { mbl } => {
                write!(f, "lpm match on malleable field `{mbl}` is not supported")
            }
        }
    }
}

impl std::error::Error for ExpandError {}

/// The malleables one logical entry of `info` using `av` expands over,
/// with their alternative counts: read malleables (user_key order), then
/// the action's.
fn mbl_union<'a>(info: &'a TableInfo, av: &'a ActionVariants) -> Vec<(&'a str, usize)> {
    let mut union: Vec<(&str, usize)> = Vec::new();
    let reads = info.user_key.iter().filter_map(|k| match k {
        UserKey::MblField { mbl, alt_count, .. } => Some((mbl.as_str(), *alt_count)),
        UserKey::Concrete { .. } => None,
    });
    let acts = av
        .mbls
        .iter()
        .map(String::as_str)
        .zip(av.alt_counts.iter().copied());
    for (m, n) in reads.chain(acts) {
        if !union.iter().any(|(u, _)| *u == m) {
            union.push((m, n));
        }
    }
    union
}

/// The alternative `assignment` picks for `mbl` (0 if it is not involved).
fn selected(union: &[(&str, usize)], assignment: &[usize], mbl: &str) -> usize {
    let pos = union.iter().position(|(m, _)| *m == mbl);
    pos.map_or(0, |i| assignment[i])
}

/// For each physical entry [`expand_entry`] emits for an entry using `av`,
/// in order, the index into `av.variants` of the action it carries. The
/// sequence depends on the table and action alone — not on key, data or
/// `vv` — so a control plane can resolve it once per (table, action).
pub fn expansion_variants(info: &TableInfo, av: &ActionVariants) -> Vec<usize> {
    let union = mbl_union(info, av);
    let counts: Vec<usize> = union.iter().map(|(_, n)| *n).collect();
    crate::compiler::assignments(&counts)
        .iter()
        .map(|assignment| {
            let act: Vec<usize> = av
                .mbls
                .iter()
                .map(|m| selected(&union, assignment, m))
                .collect();
            av.variant_index(&act)
        })
        .collect()
}

/// Expand one logical entry into its physical entries.
///
/// `vv` selects the version-bit value for the emitted entries; pass `None`
/// for tables without a vv column (non-malleable).
pub fn expand_entry(
    info: &TableInfo,
    key: &[LogicalKey],
    action: &str,
    action_data: &[Value],
    priority: u32,
    vv: Option<u8>,
) -> Result<Vec<PhysEntry>, ExpandError> {
    if key.len() != info.user_key.len() {
        return Err(ExpandError::KeyArity {
            expected: info.user_key.len(),
            got: key.len(),
        });
    }
    let av = info
        .action(action)
        .ok_or_else(|| ExpandError::UnknownAction(action.to_string()))?;

    let union = mbl_union(info, av);
    let counts: Vec<usize> = union.iter().map(|(_, n)| *n).collect();
    let mut out = Vec::new();
    for assignment in crate::compiler::assignments(&counts) {
        let sel = |mbl: &str| selected(&union, &assignment, mbl);

        let mut phys = vec![PhysKey::Any; info.phys_cols];
        for (lk, uk) in key.iter().zip(info.user_key.iter()) {
            match uk {
                UserKey::Concrete { phys_idx, .. } => {
                    phys[*phys_idx] = match lk {
                        LogicalKey::Exact(v) => PhysKey::Exact(*v),
                        LogicalKey::Ternary { value, mask } => PhysKey::Ternary {
                            value: *value,
                            mask: *mask,
                        },
                        LogicalKey::Lpm { value, prefix_len } => PhysKey::Lpm {
                            value: *value,
                            prefix_len: *prefix_len,
                        },
                    };
                }
                UserKey::MblField {
                    mbl,
                    width,
                    alt_count,
                    alt_phys_start,
                } => {
                    let chosen = sel(mbl);
                    for i in 0..*alt_count {
                        let col = alt_phys_start + i;
                        phys[col] = if i == chosen {
                            match lk {
                                LogicalKey::Exact(v) => PhysKey::Ternary {
                                    value: v.resize(*width),
                                    mask: Value::ones(*width),
                                },
                                LogicalKey::Ternary { value, mask } => PhysKey::Ternary {
                                    value: *value,
                                    mask: *mask,
                                },
                                LogicalKey::Lpm { .. } => {
                                    return Err(ExpandError::LpmOnMblColumn { mbl: mbl.clone() })
                                }
                            }
                        } else {
                            PhysKey::Any
                        };
                    }
                }
            }
        }
        for (mbl, col) in &info.selector_cols {
            phys[*col] = PhysKey::Exact(Value::new(sel(mbl) as u128, 16));
        }
        if let (Some(col), Some(v)) = (info.vv_col, vv) {
            phys[col] = PhysKey::Exact(Value::new(u128::from(v), 1));
        }

        let act_assignment: Vec<usize> = av.mbls.iter().map(|m| sel(m)).collect();
        out.push(PhysEntry {
            key: phys,
            action: av.variant(&act_assignment).to_string(),
            action_data: action_data.to_vec(),
            priority,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::ActionVariants;
    use p4_ast::{FieldRef, MatchKind};

    /// Table modelled on Fig. 6: reads { ${read_var} : exact (→ 2 ternary
    /// cols + selector); } with an action specialized over the same mbl.
    fn fig6_table() -> TableInfo {
        TableInfo {
            name: "my_table".into(),
            user_key: vec![
                UserKey::Concrete {
                    field: FieldRef::new("hdr", "qux"),
                    kind: MatchKind::Exact,
                    width: 32,
                    phys_idx: 0,
                },
                UserKey::MblField {
                    mbl: "read_var".into(),
                    width: 32,
                    alt_count: 2,
                    alt_phys_start: 1,
                },
            ],
            selector_cols: vec![("read_var".into(), 3)],
            vv_col: Some(4),
            phys_cols: 5,
            actions: vec![ActionVariants {
                orig: "my_action".into(),
                mbls: vec!["read_var".into()],
                alt_counts: vec![2],
                variants: vec!["my_action_hdr_foo_".into(), "my_action_hdr_bar_".into()],
            }],
            malleable: true,
        }
    }

    #[test]
    fn expands_paper_example() {
        // The paper's example: adding an entry for ${read_var} = 0 inserts
        //   (foo=0, bar=*, read_var_alt=0)
        //   (foo=*, bar=0, read_var_alt=1)
        let t = fig6_table();
        let entries = expand_entry(
            &t,
            &[
                LogicalKey::Exact(Value::new(5, 32)),
                LogicalKey::Exact(Value::zero(32)),
            ],
            "my_action",
            &[],
            10,
            Some(1),
        )
        .unwrap();
        assert_eq!(entries.len(), 2);

        let e0 = &entries[0];
        assert_eq!(e0.action, "my_action_hdr_foo_");
        assert_eq!(e0.key[0], PhysKey::Exact(Value::new(5, 32)));
        assert_eq!(
            e0.key[1],
            PhysKey::Ternary {
                value: Value::zero(32),
                mask: Value::ones(32)
            }
        );
        assert_eq!(e0.key[2], PhysKey::Any);
        assert_eq!(e0.key[3], PhysKey::Exact(Value::new(0, 16)));
        assert_eq!(e0.key[4], PhysKey::Exact(Value::new(1, 1)));
        assert_eq!(e0.priority, 10);

        let e1 = &entries[1];
        assert_eq!(e1.action, "my_action_hdr_bar_");
        assert_eq!(e1.key[1], PhysKey::Any);
        assert_eq!(
            e1.key[2],
            PhysKey::Ternary {
                value: Value::zero(32),
                mask: Value::ones(32)
            }
        );
        assert_eq!(e1.key[3], PhysKey::Exact(Value::new(1, 16)));
    }

    #[test]
    fn vv_none_leaves_column_any() {
        let mut t = fig6_table();
        t.vv_col = None;
        t.phys_cols = 4;
        let entries = expand_entry(
            &t,
            &[
                LogicalKey::Exact(Value::new(1, 32)),
                LogicalKey::Exact(Value::new(2, 32)),
            ],
            "my_action",
            &[],
            0,
            None,
        )
        .unwrap();
        assert_eq!(entries[0].key.len(), 4);
    }

    #[test]
    fn arity_and_action_checked() {
        let t = fig6_table();
        assert!(matches!(
            expand_entry(&t, &[], "my_action", &[], 0, Some(0)),
            Err(ExpandError::KeyArity { .. })
        ));
        assert!(matches!(
            expand_entry(
                &t,
                &[
                    LogicalKey::Exact(Value::zero(32)),
                    LogicalKey::Exact(Value::zero(32))
                ],
                "ghost",
                &[],
                0,
                Some(0)
            ),
            Err(ExpandError::UnknownAction(_))
        ));
    }

    #[test]
    fn lpm_on_mbl_column_rejected() {
        let t = fig6_table();
        let err = expand_entry(
            &t,
            &[
                LogicalKey::Exact(Value::zero(32)),
                LogicalKey::Lpm {
                    value: Value::zero(32),
                    prefix_len: 8,
                },
            ],
            "my_action",
            &[],
            0,
            Some(0),
        )
        .unwrap_err();
        assert!(matches!(err, ExpandError::LpmOnMblColumn { .. }));
    }

    #[test]
    fn action_only_mbl_expands_by_action_alts() {
        // Fig. 5 shape: concrete key, action uses a 3-alt malleable.
        let t = TableInfo {
            name: "w".into(),
            user_key: vec![UserKey::Concrete {
                field: FieldRef::new("h", "a"),
                kind: MatchKind::Exact,
                width: 8,
                phys_idx: 0,
            }],
            selector_cols: vec![("wv".into(), 1)],
            vv_col: None,
            phys_cols: 2,
            actions: vec![ActionVariants {
                orig: "act".into(),
                mbls: vec!["wv".into()],
                alt_counts: vec![3],
                variants: vec!["act_0_".into(), "act_1_".into(), "act_2_".into()],
            }],
            malleable: false,
        };
        let entries = expand_entry(
            &t,
            &[LogicalKey::Exact(Value::new(9, 8))],
            "act",
            &[Value::new(5, 16)],
            0,
            None,
        )
        .unwrap();
        assert_eq!(entries.len(), 3);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.key[1], PhysKey::Exact(Value::new(i as u128, 16)));
            assert_eq!(e.action, format!("act_{i}_"));
            assert_eq!(e.action_data, vec![Value::new(5, 16)]);
        }
    }

    /// The per-(table, action) plan names, entry for entry, the action
    /// variants a full expansion emits: a read malleable the action does
    /// not use multiplies the entries without moving the variant, and a
    /// second action malleable varies fastest.
    #[test]
    fn expansion_variants_name_what_expand_entry_emits() {
        let mut t = fig6_table();
        t.actions.push(ActionVariants {
            orig: "mix".into(),
            mbls: vec!["other".into(), "read_var".into()],
            alt_counts: vec![3, 2],
            variants: (0..6).map(|i| format!("mix_v{i}")).collect(),
        });
        t.actions.push(ActionVariants {
            orig: "plain".into(),
            mbls: vec![],
            alt_counts: vec![],
            variants: vec!["plain".into()],
        });
        let key = [
            LogicalKey::Exact(Value::new(5, 32)),
            LogicalKey::Exact(Value::zero(32)),
        ];
        for (av, n) in t.actions.iter().zip([2, 6, 2]) {
            let entries = expand_entry(&t, &key, &av.orig, &[], 0, Some(1)).unwrap();
            let plan = expansion_variants(&t, av);
            assert_eq!(plan.len(), n, "{}", av.orig);
            let named: Vec<&str> = plan.iter().map(|&v| av.variants[v].as_str()).collect();
            let emitted: Vec<&str> = entries.iter().map(|e| e.action.as_str()).collect();
            assert_eq!(named, emitted, "{}", av.orig);
        }
    }
}
