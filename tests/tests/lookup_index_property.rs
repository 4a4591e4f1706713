//! Property test: the indexed table lookup (exact hash / LPM buckets /
//! precedence-sorted scan with care-bits) is a pure accelerator — on random
//! tables over random match-kind mixes, with random add/delete histories,
//! `Table::lookup` must return exactly what the reference linear scan
//! `Table::lookup_linear` returns, for every probe PHV.
//!
//! Values are drawn from small domains so entries collide, overlap, and
//! tie on priority; prefix lengths span the whole 0..=32 range so the
//! longest-prefix-dominates ordering is exercised against wildcards.

use mantis::p4_ast::{MatchKind, Pipeline, Value};
use mantis::p4r_lang;
use mantis::rmt_sim::spec::{KeySpec, TableSpec};
use mantis::rmt_sim::table::Table;
use mantis::rmt_sim::{load, ActionId, DataPlaneSpec, KeyField, Phv};
use proptest::prelude::*;

const MAX_ARITY: usize = 3;

/// A PHV spec with `n` 32-bit metadata fields `m.f0 .. m.f{n-1}`.
fn phv_spec(n: usize) -> DataPlaneSpec {
    let fields: String = (0..n)
        .map(|i| format!("f{i} : 32;"))
        .collect::<Vec<_>>()
        .join(" ");
    let src = format!("header_type m_t {{ fields {{ {fields} }} }} metadata m_t m;");
    load(&p4r_lang::parse_program(&src).unwrap()).unwrap()
}

fn table_spec(dps: &DataPlaneSpec, kinds: &[MatchKind]) -> TableSpec {
    TableSpec {
        name: "prop".into(),
        key: kinds
            .iter()
            .enumerate()
            .map(|(i, k)| KeySpec {
                field: dps.field_id("m", &format!("f{i}")).unwrap(),
                kind: *k,
                width: 32,
                static_mask: None,
            })
            .collect(),
        actions: vec![ActionId(0), ActionId(1)],
        default_action: Some((ActionId(1), vec![])),
        size: 256,
        malleable: false,
        stage: 0,
        pipeline: Pipeline::Ingress,
    }
}

fn probe_phv(dps: &DataPlaneSpec, vals: &[u32]) -> Phv {
    let mut phv = Phv::new(dps);
    for (i, v) in vals.iter().enumerate() {
        let id = dps.field_id("m", &format!("f{i}")).unwrap();
        phv.set(id, Value::new(u128::from(*v), 32));
    }
    phv
}

fn kind_strategy() -> impl Strategy<Value = MatchKind> {
    prop_oneof![
        Just(MatchKind::Exact),
        Just(MatchKind::Ternary),
        Just(MatchKind::Lpm),
    ]
}

/// Small-domain field values so probes actually hit entries, plus a
/// high-bit pattern so long prefixes can discriminate.
fn value_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..16, Just(0x0a00_0000u32), 0u32..256]
}

/// Ternary masks biased toward overlap-heavy patterns.
fn mask_strategy() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        Just(0x3),
        Just(0xc),
        Just(0xf),
        Just(0xff),
        Just(0xff00_0000),
        Just(u32::MAX),
    ]
}

/// One raw key field: interpreted per the table's match kind, so every
/// entry row carries enough material for any kind at any position.
fn raw_field() -> impl Strategy<Value = (u32, u32, u16)> {
    (value_strategy(), mask_strategy(), 0u16..=32)
}

fn materialize_key(kinds: &[MatchKind], raw: &[(u32, u32, u16)]) -> Vec<KeyField> {
    kinds
        .iter()
        .zip(raw.iter())
        .map(|(k, &(value, mask, prefix))| match k {
            MatchKind::Exact => KeyField::Exact(Value::new(u128::from(value), 32)),
            MatchKind::Ternary => KeyField::Ternary {
                value: Value::new(u128::from(value), 32),
                mask: Value::new(u128::from(mask), 32),
            },
            MatchKind::Lpm => KeyField::Lpm {
                value: Value::new(u128::from(value), 32),
                prefix_len: prefix,
            },
        })
        .collect()
}

fn check_parity(t: &mut Table, spec: &TableSpec, dps: &DataPlaneSpec, probes: &[Vec<u32>]) {
    for vals in probes {
        let phv = probe_phv(dps, &vals[..spec.key.len()]);
        let fast = t.lookup(spec, &phv).detach();
        let slow = t.lookup_linear(spec, &phv).detach();
        assert_eq!(fast, slow, "index diverged from linear scan on {vals:?}");
    }
}

proptest! {
    #[test]
    fn indexed_lookup_equals_linear_scan(
        kinds in prop::collection::vec(kind_strategy(), 1..=MAX_ARITY),
        raw_entries in prop::collection::vec(
            (prop::collection::vec(raw_field(), MAX_ARITY), 0u32..4),
            0..24,
        ),
        probes in prop::collection::vec(
            prop::collection::vec(value_strategy(), MAX_ARITY),
            1..16,
        ),
        dels in prop::collection::vec(0u16..512, 0..8),
    ) {
        let dps = phv_spec(kinds.len());
        let spec = table_spec(&dps, &kinds);
        let mut t = Table::new(&spec);
        let mut handles = Vec::new();
        let entries: Vec<(Vec<KeyField>, u32)> = raw_entries
            .iter()
            .map(|(raw, prio)| (materialize_key(&kinds, &raw[..kinds.len()]), *prio))
            .collect();
        for (key, prio) in &entries {
            handles.push(
                t.add_entry(&spec, key.clone(), *prio, ActionId(0), vec![], 0)
                    .unwrap(),
            );
        }
        check_parity(&mut t, &spec, &dps, &probes);

        // Random deletions must leave the incremental index fixup in
        // agreement with the reference scan.
        for del in &dels {
            if handles.is_empty() {
                break;
            }
            let h = handles.remove(usize::from(*del) % handles.len());
            t.del_entry(h).unwrap();
            check_parity(&mut t, &spec, &dps, &probes);
        }

        // Re-adding after deletions (index positions have shifted) must
        // also stay consistent.
        for (key, prio) in entries.iter().take(4) {
            t.add_entry(&spec, key.clone(), *prio, ActionId(0), vec![], 0)
                .unwrap();
        }
        check_parity(&mut t, &spec, &dps, &probes);
    }
}
