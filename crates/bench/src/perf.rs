//! Wall-clock throughput microbenchmarks for the data-path fast paths:
//! indexed table lookups vs the linear reference scan, and the reaction
//! bytecode VM vs the AST tree-walker.
//!
//! Unlike every other generator in this crate, these numbers are *host*
//! wall-clock time (`std::time::Instant`), not virtual time: the point is
//! the real compute cost of a lookup or a reaction run, which the
//! virtual-clock cost model deliberately abstracts away. Nothing here
//! advances the virtual clock or affects any simulation outcome.
//!
//! Workloads:
//!
//! * **exact** — 1 K exact entries, uniform probe traffic (hash map vs
//!   full scan),
//! * **lpm** — 1 K routing prefixes across /8–/24 levels, uniform probes
//!   (per-prefix-length buckets vs full scan),
//! * **ternary** — an ACL-style rule set: 1 K specific rules in priority
//!   order plus a low-priority wildcard, with probe traffic concentrated
//!   on the highest-priority rules (the usual hot-flow skew, e.g. a DoS
//!   blocklist). The precedence-sorted scan early-exits on the first hit;
//!   the linear reference must always consider every entry,
//! * **reactions** — a Fig.-1-style queue-scan reaction body executed by
//!   the operand-resolved bytecode VM and by the reference tree-walker.
//!
//! Every workload first cross-checks that both engines agree on every
//! probe (winners for lookups, malleable writes for reactions) before any
//! timing starts, so the numbers can never come from divergent semantics.
//!
//! The `figures` binary (`figures -- perf`) writes the report to
//! `BENCH_perf.json` in the working directory (committed at the repo root)
//! and to `results/perf.json`; CI runs the quick mode as a smoke check.

use mantis::p4r_lang;
use mantis::reaction_interp::{CompiledReaction, Interpreter, MockEnv};
use p4_ast::{MatchKind, Pipeline, Value};
use rmt_sim::spec::{KeySpec, TableSpec};
use rmt_sim::table::{KeyField, Table};
use rmt_sim::{load, ActionId, DataPlaneSpec, Phv};
use serde::Serialize;
use std::time::Instant;

/// One indexed-vs-linear lookup comparison.
#[derive(Clone, Debug, Serialize)]
pub struct LookupBench {
    pub workload: String,
    pub entries: usize,
    pub indexed_iters: u64,
    pub linear_iters: u64,
    pub indexed_ns_per_lookup: f64,
    pub linear_ns_per_lookup: f64,
    pub indexed_lookups_per_sec: f64,
    pub linear_lookups_per_sec: f64,
    pub speedup: f64,
}

/// VM-vs-walker reaction throughput comparison.
#[derive(Clone, Debug, Serialize)]
pub struct ReactionBench {
    /// Compiled program length in bytecode ops.
    pub body_ops: usize,
    pub vm_iters: u64,
    pub walker_iters: u64,
    pub vm_ns_per_run: f64,
    pub walker_ns_per_run: f64,
    pub vm_runs_per_sec: f64,
    pub walker_runs_per_sec: f64,
    pub speedup: f64,
}

/// The full fast-path throughput report (`BENCH_perf.json`).
#[derive(Clone, Debug, Serialize)]
pub struct PerfReport {
    pub quick: bool,
    pub exact: LookupBench,
    pub lpm: LookupBench,
    pub ternary: LookupBench,
    pub reactions: ReactionBench,
}

const TABLE_ENTRIES: usize = 1024;
const PROBES: usize = 256;

/// Deterministic xorshift64* so runs are repeatable without `rand`.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// A PHV spec with `n` 32-bit metadata fields `m.f0 .. m.f{n-1}`.
fn phv_spec(n: usize) -> DataPlaneSpec {
    let fields: String = (0..n)
        .map(|i| format!("f{i} : 32;"))
        .collect::<Vec<_>>()
        .join(" ");
    let src = format!("header_type m_t {{ fields {{ {fields} }} }} metadata m_t m;");
    let prog = p4r_lang::parse_program(&src).expect("bench PHV program");
    load(&prog).expect("bench PHV spec")
}

/// A table spec keyed on `m.f0..` with the given match kinds.
fn table_spec(dps: &DataPlaneSpec, kinds: &[MatchKind], size: u32) -> TableSpec {
    TableSpec {
        name: "bench".into(),
        key: kinds
            .iter()
            .enumerate()
            .map(|(i, k)| KeySpec {
                field: dps.field_id("m", &format!("f{i}")).expect("bench field"),
                kind: *k,
                width: 32,
                static_mask: None,
            })
            .collect(),
        actions: vec![ActionId(0), ActionId(1)],
        default_action: Some((ActionId(1), vec![])),
        size,
        malleable: false,
        stage: 0,
        pipeline: Pipeline::Ingress,
    }
}

fn probe_phv(dps: &DataPlaneSpec, vals: &[u128]) -> Phv {
    let mut phv = Phv::new(dps);
    for (i, v) in vals.iter().enumerate() {
        let id = dps.field_id("m", &format!("f{i}")).expect("bench field");
        phv.set(id, Value::new(*v, 32));
    }
    phv
}

/// Time `iters` calls of `f`, returning total nanoseconds (at least 1).
fn time_ns(iters: u64, mut f: impl FnMut(u64)) -> u64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    (t0.elapsed().as_nanos() as u64).max(1)
}

/// Blocks each comparison's runs are split into; divides every run count.
const BLOCKS: u64 = 10;

/// Time `fast_iters` calls of `fast` and `slow_iters` of `slow` in
/// [`BLOCKS`] interleaved blocks, so that a slow spell of a shared host
/// falls on both alike. Returns each one's nanoseconds a call and the
/// median of the blocks' ratios, slow over fast.
fn interleaved(fast: (u64, impl FnMut(u64)), slow: (u64, impl FnMut(u64))) -> (f64, f64, f64) {
    let ((fast_iters, mut fast), (slow_iters, mut slow)) = (fast, slow);
    let (fast_n, slow_n) = (fast_iters / BLOCKS, slow_iters / BLOCKS);
    let (mut fast_ns, mut slow_ns, mut ratios) = (0, 0, Vec::new());
    for b in 0..BLOCKS {
        // Block `b` goes on from call `b·n`, as one unbroken run would.
        let f = time_ns(fast_n, |i| fast(b * fast_n + i));
        let s = time_ns(slow_n, |i| slow(b * slow_n + i));
        ratios.push((s * fast_iters) as f64 / (f * slow_iters) as f64);
        (fast_ns, slow_ns) = (fast_ns + f, slow_ns + s);
    }
    let per = |ns: u64, iters: u64| ns as f64 / iters as f64;
    let speedup = netsim::median(&ratios);
    (per(fast_ns, fast_iters), per(slow_ns, slow_iters), speedup)
}

/// Install `key` at `priority` for action `action`, with no action data.
fn add(t: &mut Table, spec: &TableSpec, key: KeyField, priority: u32, action: u32) {
    let installed = t.add_entry(spec, vec![key], priority, ActionId(action), vec![], 0);
    installed.expect("bench entry installs");
}

fn lookup_bench(
    workload: &str,
    spec: &TableSpec,
    table: &mut Table,
    probes: &[Phv],
    indexed_iters: u64,
    linear_iters: u64,
) -> LookupBench {
    // Cross-check before timing: the index must agree with the reference
    // scan on every probe.
    for phv in probes {
        let fast = table.lookup(spec, phv).detach();
        let slow = table.lookup_linear(spec, phv).detach();
        assert_eq!(fast, slow, "{workload}: indexed lookup diverged");
    }

    // The scan reads a copy, so that each engine's calls hold their own table.
    let reference = table.clone();
    let probe = |i: u64| &probes[(i as usize) % probes.len()];
    let (indexed_per, linear_per, speedup) = interleaved(
        (indexed_iters, |i| {
            std::hint::black_box(table.lookup(spec, probe(i)));
        }),
        (linear_iters, |i| {
            std::hint::black_box(reference.lookup_linear(spec, probe(i)));
        }),
    );
    LookupBench {
        workload: workload.into(),
        entries: table.len(),
        indexed_iters,
        linear_iters,
        indexed_ns_per_lookup: indexed_per,
        linear_ns_per_lookup: linear_per,
        indexed_lookups_per_sec: 1e9 / indexed_per,
        linear_lookups_per_sec: 1e9 / linear_per,
        speedup,
    }
}

fn exact_bench(indexed_iters: u64, linear_iters: u64) -> LookupBench {
    let dps = phv_spec(1);
    let spec = table_spec(&dps, &[MatchKind::Exact], TABLE_ENTRIES as u32 + 8);
    let mut t = Table::new(&spec);
    for i in 0..TABLE_ENTRIES {
        let key = KeyField::Exact(Value::new(i as u128, 32));
        add(&mut t, &spec, key, 0, 0);
    }
    let mut rng = Rng(0x243f6a8885a308d3);
    let probes: Vec<Phv> = (0..PROBES)
        .map(|_| probe_phv(&dps, &[u128::from(rng.next()) % (TABLE_ENTRIES as u128)]))
        .collect();
    lookup_bench("exact", &spec, &mut t, &probes, indexed_iters, linear_iters)
}

fn lpm_bench(indexed_iters: u64, linear_iters: u64) -> LookupBench {
    let dps = phv_spec(1);
    let spec = table_spec(&dps, &[MatchKind::Lpm], TABLE_ENTRIES as u32 + 8);
    let mut t = Table::new(&spec);
    // A routing-table shape: mostly /24s under 10.0.0.0/8, a layer of /16
    // aggregates, and a /8 catch-all.
    let n24 = TABLE_ENTRIES - 18;
    let prefixes = (0..n24 as u128).map(|i| (0x0a00_0000 | (i << 8), 24));
    let aggregates = (0..16u128).map(|i| (0x0a00_0000 | (i << 16), 16));
    let catch_alls = [(0x0a00_0000, 8), (0x0b00_0000, 8)];
    for (value, prefix_len) in prefixes.chain(aggregates).chain(catch_alls) {
        let value = Value::new(value, 32);
        add(&mut t, &spec, KeyField::Lpm { value, prefix_len }, 0, 0);
    }
    let mut rng = Rng(0x13198a2e03707344);
    let probes: Vec<Phv> = (0..PROBES)
        .map(|_| {
            // Addresses spread across /24 hits, /16 and /8 fallbacks, and
            // misses outside 10/8 and 11/8.
            let addr = 0x0800_0000u128 + (u128::from(rng.next()) % 0x0400_0000);
            probe_phv(&dps, &[addr])
        })
        .collect();
    lookup_bench("lpm", &spec, &mut t, &probes, indexed_iters, linear_iters)
}

fn ternary_bench(indexed_iters: u64, linear_iters: u64) -> LookupBench {
    let dps = phv_spec(1);
    let spec = table_spec(&dps, &[MatchKind::Ternary], TABLE_ENTRIES as u32 + 8);
    let mut t = Table::new(&spec);
    // ACL shape: specific rules with descending priority, wildcard last.
    for i in 0..TABLE_ENTRIES {
        let (value, mask) = (Value::new(i as u128, 32), Value::ones(32));
        let key = KeyField::Ternary { value, mask };
        add(&mut t, &spec, key, (TABLE_ENTRIES - i) as u32, 0);
    }
    let (value, mask) = (Value::zero(32), Value::zero(32));
    add(&mut t, &spec, KeyField::Ternary { value, mask }, 0, 1);
    // Hot-flow skew: probe traffic hits the 64 highest-priority rules
    // (blocklist-style), which the precedence-sorted scan resolves in its
    // first rows while the linear reference walks all 1 K+ entries.
    let mut rng = Rng(0xa409_3822_299f_31d0);
    let probes: Vec<Phv> = (0..PROBES)
        .map(|_| probe_phv(&dps, &[u128::from(rng.next()) % 64]))
        .collect();
    lookup_bench(
        "ternary",
        &spec,
        &mut t,
        &probes,
        indexed_iters,
        linear_iters,
    )
}

/// The Fig.-1-style reaction body used for the VM/walker comparison: scan
/// the per-port queue depths, track the max, and publish it (plus a load
/// average) through malleables.
const REACTION_SRC: &str = r#"
uint32_t current_max = 0, max_port = 0, total = 0;
for (int i = 0; i < 64; ++i) {
    total += qdepths[i];
    if (qdepths[i] > current_max) {
        current_max = qdepths[i];
        max_port = i;
    }
}
uint32_t avg = total / 64;
if (current_max > avg * 4) {
    ${alarm_port} = max_port;
}
${value_var} = max_port;
${load_avg} = avg;
"#;

fn reaction_env() -> MockEnv {
    let mut env = MockEnv::default();
    let mut rng = Rng(0x082e_fa98_ec4e_6c89);
    let depths: Vec<i128> = (0..64).map(|_| i128::from(rng.next() % 4096)).collect();
    env.arrays.insert("qdepths".into(), (0, depths));
    env.mbls.insert("alarm_port".into(), 0);
    env.mbls.insert("value_var".into(), 0);
    env.mbls.insert("load_avg".into(), 0);
    env
}

fn reaction_bench(vm_iters: u64, walker_iters: u64) -> ReactionBench {
    let body = p4r_lang::creact::parse_body(REACTION_SRC).expect("bench reaction parses");
    let mut vm = CompiledReaction::compile(&body).expect("bench reaction compiles");
    let mut walker = Interpreter::new(body);

    // Cross-check before timing: identical results and malleable writes.
    let mut env_vm = reaction_env();
    let mut env_walker = reaction_env();
    let r_vm = vm.run(&mut env_vm).expect("vm run");
    let r_walker = walker.run(&mut env_walker).expect("walker run");
    assert_eq!(r_vm, r_walker, "reaction engines diverged on result");
    assert_eq!(
        env_vm.mbls, env_walker.mbls,
        "reaction engines diverged on malleable writes"
    );

    let (vm_per, walker_per, speedup) = interleaved(
        (vm_iters, |_| {
            std::hint::black_box(vm.run(&mut env_vm).expect("vm run"));
        }),
        (walker_iters, |_| {
            std::hint::black_box(walker.run(&mut env_walker).expect("walker run"));
        }),
    );
    ReactionBench {
        body_ops: vm.ops_len(),
        vm_iters,
        walker_iters,
        vm_ns_per_run: vm_per,
        walker_ns_per_run: walker_per,
        vm_runs_per_sec: 1e9 / vm_per,
        walker_runs_per_sec: 1e9 / walker_per,
        speedup,
    }
}

/// Run the full fast-path throughput suite. `quick` shrinks the iteration
/// counts so CI can smoke-test the harness in well under a second.
pub fn run(quick: bool) -> PerfReport {
    let (idx_iters, lin_iters, vm_iters, walker_iters) = if quick {
        (20_000, 2_000, 2_000, 500)
    } else {
        (200_000, 20_000, 50_000, 10_000)
    };
    PerfReport {
        quick,
        exact: exact_bench(idx_iters, lin_iters),
        lpm: lpm_bench(idx_iters, lin_iters),
        ternary: ternary_bench(idx_iters, lin_iters),
        reactions: reaction_bench(vm_iters, walker_iters),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Structural smoke test only — timing asserts would be flaky under
    /// debug builds and loaded CI machines; the speedup floors are checked
    /// on the committed release-mode `BENCH_perf.json` instead.
    #[test]
    fn quick_report_is_well_formed() {
        let r = run(true);
        assert!(r.quick);
        for lb in [&r.exact, &r.lpm, &r.ternary] {
            assert!(lb.entries >= TABLE_ENTRIES);
            assert!(lb.indexed_ns_per_lookup > 0.0);
            assert!(lb.linear_ns_per_lookup > 0.0);
            assert!(lb.speedup > 0.0);
        }
        assert!(r.reactions.body_ops > 0);
        assert!(r.reactions.vm_ns_per_run > 0.0);
        assert!(r.reactions.walker_ns_per_run > 0.0);
    }
}
