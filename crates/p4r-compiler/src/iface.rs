//! The control interface: everything the Mantis agent needs to know about a
//! compiled program — where each malleable lives, how user-visible table
//! entries map onto physical entries, and which generated registers hold
//! measurements.
//!
//! This is the Rust analogue of the generated C header the paper's compiler
//! emits alongside the transformed P4.

use p4_ast::{FieldRef, MatchKind, Pipeline, Value};
use serde::{Deserialize, Serialize};

/// Name of the generated P4R metadata header type.
pub const META_TYPE: &str = "p4r_meta_t_";
/// Name of the generated P4R metadata instance.
pub const META: &str = "p4r_meta_";
/// Field carrying the table-version bit (§5.1.2).
pub const VV: &str = "vv";
/// Field carrying the measurement-version bit (§5.2).
pub const MV: &str = "mv";

/// A malleable value slot.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ValueSlot {
    pub name: String,
    pub width: u16,
    pub init: Value,
    /// Which init table carries this slot and at which parameter position.
    pub init_table: usize,
    pub param_idx: usize,
    /// Generated metadata field name.
    pub meta_field: String,
}

/// A malleable field slot.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldSlot {
    pub name: String,
    pub width: u16,
    pub alts: Vec<FieldRef>,
    pub selector_bits: u16,
    /// Index of the initial alternative.
    pub init_index: usize,
    pub init_table: usize,
    pub param_idx: usize,
    /// Generated selector metadata field name (`<name>_alt`).
    pub selector_field: String,
    /// If the field is used in a `field_list`, the compiler applies the
    /// load-value optimization (§4.1 end): a table copies the selected
    /// alternative into this metadata field at the start of the pipeline.
    pub load: Option<LoadInfo>,
}

/// Load-value optimization artifacts for a malleable field.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoadInfo {
    /// Generated table matching on the selector.
    pub table: String,
    /// Generated value-holding metadata field.
    pub value_field: String,
    /// Generated action per alternative.
    pub actions: Vec<String>,
}

/// One init table (master carries vv and mv as its first two params).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct InitTable {
    pub table: String,
    pub action: String,
    /// Parameter widths in order (master: [vv, mv, slots...]).
    pub param_widths: Vec<u16>,
    pub is_master: bool,
}

/// How one user-visible key column of a table maps to physical columns.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum UserKey {
    /// A concrete field: one physical column at `phys_idx`.
    Concrete {
        field: FieldRef,
        kind: MatchKind,
        width: u16,
        phys_idx: usize,
    },
    /// A malleable field match (Fig. 6): `alt_count` ternary columns at
    /// `alt_phys_start..alt_phys_start+alt_count`, selected by the
    /// malleable's selector column.
    MblField {
        mbl: String,
        width: u16,
        alt_count: usize,
        alt_phys_start: usize,
    },
}

/// An action available on a table, with its specialization variants.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActionVariants {
    /// Original (user-visible) action name.
    pub orig: String,
    /// Malleable fields used inside the action, in combination order.
    pub mbls: Vec<String>,
    /// Alternative counts per malleable in `mbls`.
    pub alt_counts: Vec<usize>,
    /// Variant action names, indexed by mixed-radix combination of the alt
    /// assignment over `mbls` (row-major: first mbl varies slowest). For
    /// actions using no malleable fields this is the single original name.
    pub variants: Vec<String>,
}

impl ActionVariants {
    /// Variant name for the given per-mbl alternative assignment.
    pub fn variant(&self, assignment: &[usize]) -> &str {
        &self.variants[self.variant_index(assignment)]
    }

    /// Index into `variants` for the given per-mbl alternative assignment.
    pub fn variant_index(&self, assignment: &[usize]) -> usize {
        debug_assert_eq!(assignment.len(), self.mbls.len());
        let mut idx = 0usize;
        for (a, n) in assignment.iter().zip(self.alt_counts.iter()) {
            idx = idx * n + a;
        }
        idx
    }
}

/// Control-interface description of one (possibly transformed) table.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TableInfo {
    pub name: String,
    /// User-visible key layout and its mapping to physical columns.
    pub user_key: Vec<UserKey>,
    /// Selector columns appended to the key: `(mbl name, phys_idx)`.
    pub selector_cols: Vec<(String, usize)>,
    /// Physical column index of the `vv` bit (malleable tables only).
    pub vv_col: Option<usize>,
    /// Total physical key columns.
    pub phys_cols: usize,
    pub actions: Vec<ActionVariants>,
    pub malleable: bool,
}

impl TableInfo {
    pub fn action(&self, orig: &str) -> Option<&ActionVariants> {
        self.actions.iter().find(|a| a.orig == orig)
    }

    /// Number of physical entries one logical entry expands to, given the
    /// action it uses.
    pub fn expansion_factor(&self, action: &str) -> usize {
        let read_mbls: Vec<(&str, usize)> = self
            .user_key
            .iter()
            .filter_map(|k| match k {
                UserKey::MblField { mbl, alt_count, .. } => Some((mbl.as_str(), *alt_count)),
                _ => None,
            })
            .collect();
        let act = self.action(action);
        let mut union: Vec<(&str, usize)> = read_mbls;
        if let Some(a) = act {
            for (m, n) in a.mbls.iter().zip(a.alt_counts.iter()) {
                if !union.iter().any(|(u, _)| u == m) {
                    union.push((m.as_str(), *n));
                }
            }
        }
        union.iter().map(|(_, n)| n).product()
    }
}

/// A measured field argument of a reaction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeasuredField {
    /// Binding name visible inside the reaction body.
    pub binding: String,
    /// The measured field (post-transformation — malleable refs resolve to
    /// the generated metadata field).
    pub field: FieldRef,
    pub width: u16,
    pub pipeline: Pipeline,
    /// Generated 2-entry register holding working/checkpoint copies.
    pub register: String,
}

/// A measured user register argument of a reaction.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MeasuredRegister {
    pub binding: String,
    /// Original register name.
    pub register: String,
    pub lo: u32,
    pub hi: u32,
    pub width: u16,
    /// Generated double-buffered duplicate (`2 * stride` entries).
    pub dup_register: String,
    /// Generated write-counter register (same layout).
    pub ts_register: String,
    /// log2 of the copy stride: working copy of index `i` lives at
    /// `(mv << stride_log2) | i`.
    pub stride_log2: u32,
    /// True if the original register was never read in the data plane and
    /// was elided (§5.2 optimization).
    pub original_elided: bool,
    /// True if the data plane never writes the register (it is fed
    /// externally, e.g. the traffic manager's queue-depth mirror). Such
    /// registers have no duplicate/counter pair; the agent polls them
    /// directly.
    #[serde(default)]
    pub external: bool,
}

/// Reaction bindings.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReactionBinding {
    pub name: String,
    pub fields: Vec<MeasuredField>,
    pub registers: Vec<MeasuredRegister>,
    /// Bit widths of this reaction's field args, for Fig. 10a-style packed
    /// word accounting.
    pub packed_words: usize,
    /// The C-like body source (parsed by `p4r_lang::creact`).
    pub body_src: String,
}

/// A static entry the agent must install during the prologue (load tables
/// for the field-list optimization).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrologueEntry {
    pub table: String,
    /// Exact selector value to match.
    pub selector: u64,
    pub action: String,
}

/// The complete control interface of a compiled program.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ControlInterface {
    pub values: Vec<ValueSlot>,
    pub fields: Vec<FieldSlot>,
    pub init_tables: Vec<InitTable>,
    pub tables: Vec<TableInfo>,
    pub reactions: Vec<ReactionBinding>,
    pub prologue_entries: Vec<PrologueEntry>,
}

impl ControlInterface {
    pub fn value(&self, name: &str) -> Option<&ValueSlot> {
        self.values.iter().find(|v| v.name == name)
    }

    pub fn field(&self, name: &str) -> Option<&FieldSlot> {
        self.fields.iter().find(|f| f.name == name)
    }

    pub fn table(&self, name: &str) -> Option<&TableInfo> {
        self.tables.iter().find(|t| t.name == name)
    }

    pub fn reaction(&self, name: &str) -> Option<&ReactionBinding> {
        self.reactions.iter().find(|r| r.name == name)
    }

    /// The master init table (carries vv/mv).
    pub fn master_init(&self) -> Option<&InitTable> {
        self.init_tables.iter().find(|t| t.is_master)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_variants_mixed_radix() {
        let av = ActionVariants {
            orig: "a".into(),
            mbls: vec!["f".into(), "g".into()],
            alt_counts: vec![2, 3],
            variants: (0..6).map(|i| format!("a_v{i}")).collect(),
        };
        assert_eq!(av.variant(&[0, 0]), "a_v0");
        assert_eq!(av.variant(&[0, 2]), "a_v2");
        assert_eq!(av.variant(&[1, 0]), "a_v3");
        assert_eq!(av.variant(&[1, 2]), "a_v5");
    }

    #[test]
    fn expansion_factor_unions_reads_and_actions() {
        let t = TableInfo {
            name: "t".into(),
            user_key: vec![UserKey::MblField {
                mbl: "f".into(),
                width: 32,
                alt_count: 2,
                alt_phys_start: 0,
            }],
            selector_cols: vec![("f".into(), 2)],
            vv_col: None,
            phys_cols: 3,
            actions: vec![
                ActionVariants {
                    orig: "uses_f".into(),
                    mbls: vec!["f".into()],
                    alt_counts: vec![2],
                    variants: vec!["uses_f_0".into(), "uses_f_1".into()],
                },
                ActionVariants {
                    orig: "uses_g".into(),
                    mbls: vec!["g".into()],
                    alt_counts: vec![3],
                    variants: vec!["g0".into(), "g1".into(), "g2".into()],
                },
                ActionVariants {
                    orig: "plain".into(),
                    mbls: vec![],
                    alt_counts: vec![],
                    variants: vec!["plain".into()],
                },
            ],
            malleable: false,
        };
        // Same mbl in reads and action: union, not product.
        assert_eq!(t.expansion_factor("uses_f"), 2);
        // Different mbls multiply.
        assert_eq!(t.expansion_factor("uses_g"), 6);
        // No action mbls: reads only.
        assert_eq!(t.expansion_factor("plain"), 2);
    }
}
