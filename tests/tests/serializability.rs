//! Property tests for the §5 isolation guarantees: from the perspective of
//! the packet stream, every update to malleable entities is atomic — each
//! packet sees either the entire old configuration or the entire new one,
//! and once the new configuration is observed, the old one never reappears
//! (serializable isolation of updates and packet processing). Every
//! testbed runs once per driver mode: in process, and over the wire at
//! zero RTT.

use integration_tests::{driver_modes, testbed};
use mantis::p4_ast::{Pipeline, Value};
use mantis::p4r_compiler::entry::{expand_entry, LogicalKey, PhysEntry, PhysKey};
use mantis::p4r_compiler::{compile_source, CompilerOptions};
use mantis::rmt_sim::{KeyField, PacketDesc, Switch, SwitchConfig, TableId};
use mantis::{Clock, Testbed};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// A program with a malleable value, a malleable field, and a malleable
/// table — the update's effect on a probe packet is a single output field,
/// making "which configuration did this packet see" directly observable.
const PROG: &str = r#"
header_type h_t { fields { a : 32; b : 32; out : 32; } }
header h_t h;
malleable value scale { width : 32; init : 1; }
malleable field pick { width : 32; init : h.a; alts { h.a, h.b } }
action classify(tag) {
    modify_field(h.out, tag);
    add_to_field(h.out, ${scale});
}
action fallback() { modify_field(h.out, 0); }
malleable table cls {
    reads { ${pick} : exact; }
    actions { classify; fallback; }
    default_action : fallback();
    size : 64;
}
control ingress { apply(cls); }
"#;

fn probe(tb: &Testbed, a: u128, b: u128) -> u64 {
    let mut sw = tb.sim.switch().borrow_mut();
    let phv = PacketDesc::new(0)
        .field("h", "a", a)
        .field("h", "b", b)
        .build(sw.spec());
    let out = sw.run_pipeline(phv, Pipeline::Ingress);
    out.get(sw.spec().field_id("h", "out").unwrap()).as_u64()
}

#[test]
fn update_is_atomic_for_concurrent_probes() {
    // Old config: entry {pick=5} → classify(100), scale=1 → out=101.
    // New config (one serializable commit): scale=7, entry retargeted to
    // tag 200, reference shifted to h.b → out is 207 for b=5 packets.
    for mode in driver_modes() {
        let tb = testbed(PROG, 1, mode).unwrap();
        let handle = Rc::new(RefCell::new(0u64));
        let h2 = handle.clone();
        tb.agent
            .borrow_mut()
            .user_init(move |ctx| {
                *h2.borrow_mut() = ctx.table_add(
                    "cls",
                    vec![LogicalKey::Exact(Value::new(5, 32))],
                    0,
                    "classify",
                    vec![Value::new(100, 32)],
                )?;
                Ok(())
            })
            .unwrap();
        assert_eq!(probe(&tb, 5, 9), 101); // matched via h.a
        assert_eq!(probe(&tb, 9, 5), 0); // h.b not referenced yet

        let h = *handle.borrow();
        tb.agent
            .borrow_mut()
            .user_init(move |ctx| {
                ctx.set_mbl("scale", 7)?;
                ctx.shift_field("pick", 1)?;
                ctx.table_mod("cls", h, "classify", vec![Value::new(200, 32)])?;
                Ok(())
            })
            .unwrap();
        // Entirely new world: matching now keys on h.b with the new tag+scale.
        assert_eq!(probe(&tb, 9, 5), 207);
        assert_eq!(probe(&tb, 5, 9), 0);
    }
}

// -- cross-pipe isolation (DESIGN.md §9) ------------------------------------

/// A version-observable program without malleable fields: one exact-match
/// malleable table plus a scalar, so "which world did this packet see" is
/// a single output value.
const PIPE_PROG: &str = r#"
header_type h_t { fields { k : 32; out : 32; } }
header h_t h;
malleable value scale { width : 32; init : 1; }
action classify(tag) {
    modify_field(h.out, tag);
    add_to_field(h.out, ${scale});
}
action fallback() { modify_field(h.out, 0); }
malleable table cls {
    reads { h.k : exact; }
    actions { classify; fallback; }
    default_action : fallback();
    size : 64;
}
control ingress { apply(cls); }
"#;

const NUM_PIPES: u16 = 4;
const OLD_WORLD: u64 = 101; // tag 100 + scale 1
const NEW_WORLD: u64 = 207; // tag 200 + scale 7

/// Switch-level multi-pipe harness: drives prepare (all pipes) and per-pipe
/// commits as individual driver ops, the way the agent's commit loop
/// issues them, so probes can land between any two per-pipe flips.
struct PipeHarness {
    sw: Switch,
    cls: TableId,
    info: mantis::p4r_compiler::iface::TableInfo,
    master: TableId,
    master_action: mantis::rmt_sim::ActionId,
    shadow_handles: Vec<mantis::rmt_sim::EntryHandle>,
}

impl PipeHarness {
    fn new() -> Self {
        let compiled = compile_source(PIPE_PROG, &CompilerOptions::default()).unwrap();
        let spec = mantis::rmt_sim::load(&compiled.p4).unwrap();
        let sw = Switch::new(
            spec,
            SwitchConfig {
                num_pipes: NUM_PIPES,
                ..Default::default()
            },
            Clock::new(),
        );
        let cls = sw.table_id("cls").unwrap();
        let master = sw.table_id("p4r_init_").unwrap();
        let master_action = sw.action_id("p4r_init_action_").unwrap();
        let info = compiled.iface.table("cls").unwrap().clone();
        let mut h = PipeHarness {
            sw,
            cls,
            info,
            master,
            master_action,
            shadow_handles: Vec::new(),
        };
        // Initial config in every pipe: vv=1, mv=0, scale=1; the logical
        // entry {k=5 → classify(100)} in both copies (every pipe matches them).
        h.set_master_all(1, 1);
        h.add_copy(1, 100);
        h.shadow_handles = h.add_copy(0, 100);
        h
    }

    fn expand(&self, vv: u8, tag: u64) -> Vec<PhysEntry> {
        expand_entry(
            &self.info,
            &[LogicalKey::Exact(Value::new(5, 32))],
            "classify",
            &[Value::new(u128::from(tag), 32)],
            0,
            Some(vv),
        )
        .unwrap()
    }

    fn add_copy(&mut self, vv: u8, tag: u64) -> Vec<mantis::rmt_sim::EntryHandle> {
        self.expand(vv, tag)
            .iter()
            .map(|pe| {
                let key = to_keyfields(&self.sw, self.cls, pe);
                let aid = self.sw.action_id(&pe.action).unwrap();
                self.sw
                    .table_add(self.cls, key, pe.priority, aid, pe.action_data.clone())
                    .unwrap()
            })
            .collect()
    }

    /// Prepare: rewrite the shadow (vv=0) copy to the new tag. Every pipe
    /// matches the rewritten entries, invisible until that pipe's flip.
    fn prepare(&mut self, tag: u64) {
        let entries = self.expand(0, tag);
        for (h, pe) in self.shadow_handles.clone().iter().zip(entries.iter()) {
            let aid = self.sw.action_id(&pe.action).unwrap();
            self.sw
                .table_mod(self.cls, *h, aid, pe.action_data.clone())
                .unwrap();
        }
    }

    fn master_data(vv: u8, scale: u64) -> Vec<Value> {
        vec![
            Value::new(u128::from(vv), 1),
            Value::zero(1),
            Value::new(u128::from(scale), 32),
        ]
    }

    fn set_master_all(&mut self, vv: u8, scale: u64) {
        self.sw
            .table_set_default(
                self.master,
                self.master_action,
                Self::master_data(vv, scale),
            )
            .unwrap();
    }

    /// One per-pipe commit: the atomic default-action flip in pipe `p`.
    fn commit_pipe(&mut self, p: u16, vv: u8, scale: u64) {
        self.sw
            .table_set_default_on(
                p,
                self.master,
                self.master_action,
                Self::master_data(vv, scale),
            )
            .unwrap();
    }

    /// Run a full probe packet through pipe `p` (ingress on that pipe's
    /// first port) and return its observed world.
    fn probe_pipe(&mut self, p: u16) -> u64 {
        let port = p * self.ports_per_pipe();
        let phv = PacketDesc::new(port)
            .field("h", "k", 5)
            .build(self.sw.spec());
        let out = self.sw.run_pipeline(phv, Pipeline::Ingress);
        out.get(self.sw.spec().field_id("h", "out").unwrap())
            .as_u64()
    }

    fn ports_per_pipe(&self) -> u16 {
        self.sw.config().num_ports.div_ceil(NUM_PIPES)
    }
}

fn to_keyfields(sw: &Switch, table: TableId, pe: &PhysEntry) -> Vec<KeyField> {
    sw.spec()
        .table(table)
        .key
        .iter()
        .zip(pe.key.iter())
        .map(|(ks, pk)| match pk {
            PhysKey::Exact(v) => KeyField::Exact(*v),
            PhysKey::Ternary { value, mask } => KeyField::Ternary {
                value: *value,
                mask: *mask,
            },
            PhysKey::Lpm { value, prefix_len } => KeyField::Lpm {
                value: *value,
                prefix_len: *prefix_len,
            },
            PhysKey::Any => KeyField::Ternary {
                value: Value::zero(ks.width),
                mask: Value::zero(ks.width),
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cross-pipe update window: the commit flips pipes one at a time (in
    /// a seed-chosen order), and probe packets interleave across all
    /// pipes between every pair of flips. Each probe must observe the
    /// entirely-old or entirely-new configuration — decided solely by
    /// whether its *own* pipe has flipped — and within each pipe the
    /// observation sequence is monotonic (old never reappears after new).
    #[test]
    fn cross_pipe_probes_see_old_xor_new_per_pipe(
        perm in 0usize..24,
        schedule in proptest::collection::vec((0u16..NUM_PIPES, 0usize..=NUM_PIPES as usize), 8..20),
    ) {
        // Decode `perm` into one of the 4! commit orders (Lehmer code).
        let mut avail: Vec<u16> = (0..NUM_PIPES).collect();
        let mut order = Vec::with_capacity(avail.len());
        let mut code = perm;
        for radix in (1..=avail.len()).rev() {
            order.push(avail.remove(code % radix));
            code /= radix;
        }
        let mut h = PipeHarness::new();
        // Prepare the shadow copy everywhere: must be invisible in every
        // pipe until that pipe's own flip.
        h.prepare(200);
        for p in 0..NUM_PIPES {
            prop_assert_eq!(h.probe_pipe(p), OLD_WORLD, "prepare leaked into pipe {}", p);
        }

        let mut last_seen: Vec<Option<u64>> = vec![None; NUM_PIPES as usize];
        // `step` counts how many per-pipe commits have landed.
        for step in 0..=NUM_PIPES as usize {
            let flipped: &[u16] = &order[..step];
            for (probe_pipe, _) in schedule.iter().filter(|(_, at)| *at == step) {
                let got = h.probe_pipe(*probe_pipe);
                let expect = if flipped.contains(probe_pipe) { NEW_WORLD } else { OLD_WORLD };
                prop_assert_eq!(
                    got, expect,
                    "pipe {} after {} commits (order {:?})", probe_pipe, step, order
                );
                prop_assert!(
                    got == OLD_WORLD || got == NEW_WORLD,
                    "blended observation {} in pipe {}", got, probe_pipe
                );
                // Per-pipe monotonicity.
                if let Some(prev) = last_seen[*probe_pipe as usize] {
                    prop_assert!(
                        !(prev == NEW_WORLD && got == OLD_WORLD),
                        "old world reappeared in pipe {}", probe_pipe
                    );
                }
                last_seen[*probe_pipe as usize] = Some(got);
            }
            if step < NUM_PIPES as usize {
                h.commit_pipe(order[step], 0, 7);
            }
        }
        // All pipes flipped: every pipe serves the new world.
        for p in 0..NUM_PIPES {
            prop_assert_eq!(h.probe_pipe(p), NEW_WORLD, "pipe {} after full commit", p);
        }
    }

    /// The same contract through the agent path at num_pipes = 4: a
    /// user_init commit is one serializable transition for every pipe —
    /// probes on all pipes see the complete old world before and the
    /// complete new world after, with identical values across pipes.
    #[test]
    fn agent_commit_is_serializable_across_pipes(
        new_scale in 2u32..1000,
        new_tag in 2u32..1000,
    ) {
        for mode in driver_modes() {
            let tb = testbed(PIPE_PROG, NUM_PIPES, mode).unwrap();
            let handle = Rc::new(RefCell::new(0u64));
            let h2 = handle.clone();
            tb.agent
                .borrow_mut()
                .user_init(move |ctx| {
                    *h2.borrow_mut() = ctx.table_add(
                        "cls",
                        vec![LogicalKey::Exact(Value::new(5, 32))],
                        0,
                        "classify",
                        vec![Value::new(100, 32)],
                    )?;
                    Ok(())
                })
                .unwrap();
            let probe_on = |pipe: u16| {
                let mut sw = tb.sim.switch().borrow_mut();
                let port = pipe * sw.config().num_ports.div_ceil(NUM_PIPES);
                let phv = PacketDesc::new(port).field("h", "k", 5).build(sw.spec());
                let out = sw.run_pipeline(phv, Pipeline::Ingress);
                out.get(sw.spec().field_id("h", "out").unwrap()).as_u64()
            };
            for p in 0..NUM_PIPES {
                prop_assert_eq!(probe_on(p), OLD_WORLD, "pipe {} before", p);
            }
            let h = *handle.borrow();
            tb.agent
                .borrow_mut()
                .user_init(move |ctx| {
                    ctx.set_mbl("scale", i128::from(new_scale))?;
                    ctx.table_mod("cls", h, "classify", vec![Value::new(u128::from(new_tag), 32)])?;
                    Ok(())
                })
                .unwrap();
            let expect = u64::from(new_scale) + u64::from(new_tag);
            for p in 0..NUM_PIPES {
                prop_assert_eq!(probe_on(p), expect, "pipe {} after", p);
            }
            // The per-pipe version vector converged.
            let agent = tb.agent.borrow();
            let vvs = agent.vv_per_pipe();
            prop_assert_eq!(vvs.len(), usize::from(NUM_PIPES));
            prop_assert!(vvs.iter().all(|v| *v == vvs[0]), "vv diverged: {:?}", vvs);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized sequences of staged updates: after every commit, probes
    /// must observe a consistent world — either everything before the
    /// commit or everything after, never a blend. We verify by checking
    /// the probe output equals the prediction computed from the logical
    /// model.
    #[test]
    fn committed_state_always_matches_logical_model(
        ops in proptest::collection::vec((0u8..4, 0u32..8, 1u32..1000), 1..12)
    ) {
        for mode in driver_modes() {
            let tb = testbed(PROG, 1, mode).unwrap();
            // Logical model state.
            let mut scale: u64 = 1;
            let mut pick_b = false;
            let mut entries: Vec<(u32, u64, u64)> = Vec::new(); // (key, tag, handle)

            for &(kind, key, val) in &ops {
                match kind {
                    0 => {
                        // set scale
                        tb.agent.borrow_mut().user_init(move |ctx| {
                            ctx.set_mbl("scale", i128::from(val))
                        }).unwrap();
                        scale = u64::from(val);
                    }
                    1 => {
                        // shift reference
                        let idx = (val % 2) as usize;
                        tb.agent.borrow_mut().user_init(move |ctx| {
                            ctx.shift_field("pick", idx)
                        }).unwrap();
                        pick_b = idx == 1;
                    }
                    2 => {
                        // add (or re-tag) entry for `key`
                        if let Some(e) = entries.iter_mut().find(|(k, _, _)| *k == key) {
                            let h = e.2;
                            tb.agent.borrow_mut().user_init(move |ctx| {
                                ctx.table_mod("cls", h, "classify",
                                    vec![Value::new(u128::from(val), 32)])
                            }).unwrap();
                            e.1 = u64::from(val);
                        } else {
                            let hcell = Rc::new(RefCell::new(0u64));
                            let h2 = hcell.clone();
                            tb.agent.borrow_mut().user_init(move |ctx| {
                                *h2.borrow_mut() = ctx.table_add(
                                    "cls",
                                    vec![LogicalKey::Exact(Value::new(u128::from(key), 32))],
                                    0,
                                    "classify",
                                    vec![Value::new(u128::from(val), 32)],
                                )?;
                                Ok(())
                            }).unwrap();
                            entries.push((key, u64::from(val), *hcell.borrow()));
                        }
                    }
                    _ => {
                        // delete entry for `key` if present
                        if let Some(pos) = entries.iter().position(|(k, _, _)| *k == key) {
                            let h = entries.remove(pos).2;
                            tb.agent.borrow_mut().user_init(move |ctx| {
                                ctx.table_del("cls", h)
                            }).unwrap();
                        }
                    }
                }

                // Probe every key with the malleable reference on both sides.
                for k in 0..8u32 {
                    // Packet whose h.a = k, h.b = k+100 (so only one side can
                    // match entries keyed 0..8).
                    let got = probe(&tb, u128::from(k), u128::from(k) + 100);
                    let expect = if pick_b {
                        0 // reference points at h.b = k+100, never a stored key
                    } else {
                        entries
                            .iter()
                            .find(|(ek, _, _)| *ek == k)
                            .map(|(_, tag, _)| tag + scale)
                            .unwrap_or(0)
                    };
                    prop_assert_eq!(got, expect, "key {} after op", k);

                    // And the mirrored packet (h.b = k).
                    let got_b = probe(&tb, u128::from(k) + 100, u128::from(k));
                    let expect_b = if pick_b {
                        entries
                            .iter()
                            .find(|(ek, _, _)| *ek == k)
                            .map(|(_, tag, _)| tag + scale)
                            .unwrap_or(0)
                    } else {
                        0
                    };
                    prop_assert_eq!(got_b, expect_b, "mirror key {} after op", k);
                }

                // Invariant: both vv copies hold the same logical content —
                // physical entry count is 2 copies × 2 alts × logical entries.
                let sw = tb.sim.switch().borrow();
                let t = sw.table_id("cls").unwrap();
                prop_assert_eq!(sw.table_len(t), entries.len() * 4);
            }
        }
    }

    /// Monotonicity: interleave probe packets between every phase of a
    /// manually-driven update. Once a probe observes the new value, no
    /// later probe observes the old one, and every observation is one of
    /// the two (never a mix).
    #[test]
    fn probes_between_commit_phases_see_old_xor_new(
        new_scale in 2u32..1000,
        new_tag in 2u32..1000,
    ) {
        for mode in driver_modes() {
            let tb = testbed(PROG, 1, mode).unwrap();
            tb.agent.borrow_mut().user_init(|ctx| {
                ctx.table_add(
                    "cls",
                    vec![LogicalKey::Exact(Value::new(5, 32))],
                    0,
                    "classify",
                    vec![Value::new(1, 32)],
                )?;
                Ok(())
            }).unwrap();
            let old = probe(&tb, 5, 0);
            prop_assert_eq!(old, 2); // tag 1 + scale 1

            // Run the update while probing after each dialogue step: the
            // user_init path performs prepare→commit→mirror internally; probes
            // before it must see old, after it new. (Step-level interleaving of
            // the data plane is exercised in rmt-sim's staged-execution tests;
            // here we verify the observable contract end to end.)
            let handle = 1u64; // first logical handle in `cls`
            let mut observations = vec![old];
            tb.agent.borrow_mut().user_init(move |ctx| {
                ctx.set_mbl("scale", i128::from(new_scale))?;
                ctx.table_mod("cls", handle, "classify",
                    vec![Value::new(u128::from(new_tag), 32)])?;
                Ok(())
            }).unwrap();
            observations.push(probe(&tb, 5, 0));

            let old_world = 2u64;
            let new_world = u64::from(new_scale) + u64::from(new_tag);
            let mut seen_new = false;
            for obs in observations {
                prop_assert!(
                    obs == old_world || obs == new_world,
                    "blended observation {} (old {}, new {})",
                    obs, old_world, new_world
                );
                if obs == new_world {
                    seen_new = true;
                } else {
                    prop_assert!(!seen_new, "old world reappeared after new");
                }
            }
            prop_assert!(seen_new);
        }
    }
}

// -- the oracle on the agent that ships ---------------------------------------

/// [`PROG`] plus a reaction to hang a native body on.
const AGENT_PROG: &str = r#"
header_type h_t { fields { a : 32; b : 32; out : 32; } }
header h_t h;
malleable value scale { width : 32; init : 1; }
malleable field pick { width : 32; init : h.a; alts { h.a, h.b } }
action classify(tag) {
    modify_field(h.out, tag);
    add_to_field(h.out, ${scale});
}
action fallback() { modify_field(h.out, 0); }
malleable table cls {
    reads { ${pick} : exact; }
    actions { classify; fallback; }
    default_action : fallback();
    size : 64;
}
reaction swing(ing h.a) { }
control ingress { apply(cls); }
"#;

/// What every pipe showed a probe packet after each driver op, oldest
/// first.
type Sightings = Rc<RefCell<Vec<Vec<u64>>>>;

/// An in-process driver that, after every op the agent submits, sends the
/// probe packet `(a = 5, b = 9)` through every pipe and notes what came
/// out — the packet stream of `PipeHarness`, but between the ops of the
/// real commit protocol instead of a hand-written twin of it.
struct Probing {
    inner: mantis::mantis_agent::LocalDriver,
    switch: mantis::SharedSwitch,
    seen: Sightings,
}

impl Probing {
    fn probe_all(&self) {
        let mut sw = self.switch.borrow_mut();
        let per_pipe = sw.config().num_ports.div_ceil(sw.num_pipes());
        let out = sw.spec().field_id("h", "out").unwrap();
        for pipe in 0..sw.num_pipes() {
            let phv = PacketDesc::new(pipe * per_pipe)
                .field("h", "a", 5)
                .field("h", "b", 9)
                .build(sw.spec());
            let got = sw.run_pipeline(phv, Pipeline::Ingress).get(out).as_u64();
            self.seen.borrow_mut()[usize::from(pipe)].push(got);
        }
    }
}

impl mantis::mantis_agent::DriverApi for Probing {
    fn submit_reusing(
        &mut self,
        op: &mantis::control::DriverOp,
        spare: &mut Vec<mantis::p4_ast::Value>,
    ) -> Result<mantis::control::DriverResponse, mantis::rmt_sim::DriverError> {
        let answer = self.inner.submit_reusing(op, spare);
        self.probe_all();
        answer
    }
    fn spec(&self) -> &mantis::rmt_sim::DataPlaneSpec {
        self.inner.spec()
    }
    fn num_pipes(&self) -> u16 {
        self.inner.num_pipes()
    }
    fn cost(&self) -> &mantis::CostModel {
        self.inner.cost()
    }
    fn clock(&self) -> &Clock {
        self.inner.clock()
    }
    fn set_fault_plan(&mut self, plan: mantis::FaultPlan) {
        self.inner.set_fault_plan(plan)
    }
    fn clear_fault_plan(&mut self) {
        self.inner.clear_fault_plan()
    }
    fn suspend_faults(&mut self) {
        self.inner.suspend_faults()
    }
    fn resume_faults(&mut self) {
        self.inner.resume_faults()
    }
    fn set_fabric_index(&mut self, index: Option<u16>) {
        self.inner.set_fabric_index(index)
    }
    fn fabric_index(&self) -> Option<u16> {
        self.inner.fabric_index()
    }
    fn set_telemetry(&mut self, telemetry: std::sync::Arc<mantis::Telemetry>) {
        self.inner.set_telemetry(telemetry)
    }
    fn stats(&self) -> mantis::mantis_agent::driver::DriverStats {
        self.inner.stats()
    }
    fn busy_until(&self) -> u64 {
        self.inner.busy_until()
    }
    fn legacy_table_update_at(&mut self, at: u64) -> u64 {
        self.inner.legacy_table_update_at(at)
    }
}

/// Since the last call, every pipe went from `old` to `new` in one step:
/// no probe saw anything else, none saw `old` again after `new`, and every
/// pipe ended on `new`. Pipes need not move together.
fn assert_one_step_per_pipe(seen: &Sightings, old: u64, new: u64, ctx: &str) {
    for (pipe, sightings) in seen.borrow_mut().iter_mut().enumerate() {
        let moved = sightings.iter().position(|s| *s != old);
        let (before, after) = sightings.split_at(moved.unwrap_or(sightings.len()));
        assert!(!before.is_empty(), "{ctx}: pipe {pipe} was never probed");
        assert!(
            after.iter().all(|s| *s == new) && !after.is_empty(),
            "{ctx}: pipe {pipe} went {old} → {new} through {sightings:?}"
        );
        sightings.clear();
    }
}

/// The contract `cross_pipe_probes_see_old_xor_new_per_pipe` checks on a
/// twin, on the agent itself: one commit carrying a slot write, a field
/// shift and a table modify — through `user_init` and through a reaction
/// of `dialogue_iteration`, on 1 and on 4 pipes — with a probe in every
/// pipe after *every* driver op of it (checkpoints, prepare writes,
/// per-pipe flips, mirror writes, the measure flip).
#[test]
fn every_op_of_the_agents_commit_leaves_each_pipe_old_xor_new() {
    for num_pipes in [1u16, NUM_PIPES] {
        let compiled = compile_source(AGENT_PROG, &CompilerOptions::default()).unwrap();
        let spec = mantis::rmt_sim::load(&compiled.p4).unwrap();
        let config = SwitchConfig {
            num_pipes,
            ..Default::default()
        };
        let switch = mantis::SharedSwitch::new(Switch::new(spec, config, Clock::new()));
        let seen: Sightings = Rc::new(RefCell::new(vec![Vec::new(); usize::from(num_pipes)]));
        let driver = Probing {
            inner: mantis::mantis_agent::LocalDriver::new(switch.clone(), Default::default()),
            switch,
            seen: seen.clone(),
        };
        let mut agent = mantis::MantisAgent::with_driver(&compiled, Box::new(driver));
        let ctx = |what: &str| format!("{num_pipes} pipes, {what}");

        // World 0 (nothing installed: fallback) → world A: key 5 tagged
        // 100, key 9 tagged 300, scale 1, keyed on h.a — the probe's a = 5.
        agent.prologue().unwrap();
        let handle = Rc::new(RefCell::new(0u64));
        let h2 = handle.clone();
        agent
            .user_init(move |ctx| {
                let key = |k| vec![LogicalKey::Exact(Value::new(k, 32))];
                *h2.borrow_mut() =
                    ctx.table_add("cls", key(5), 0, "classify", vec![Value::new(100, 32)])?;
                ctx.table_add("cls", key(9), 0, "classify", vec![Value::new(300, 32)])?;
                Ok(())
            })
            .unwrap();
        assert_one_step_per_pipe(&seen, 0, 101, &ctx("install"));

        // World A → world B in one `user_init` commit: scale 7, key 5
        // re-tagged 200, keyed on h.b — the probe's b = 9 → 300 + 7. Any
        // blend reads 107, 201, 207 or 301.
        let h = *handle.borrow();
        agent
            .user_init(move |ctx| {
                ctx.set_mbl("scale", 7)?;
                ctx.shift_field("pick", 1)?;
                ctx.table_mod("cls", h, "classify", vec![Value::new(200, 32)])
            })
            .unwrap();
        assert_one_step_per_pipe(&seen, 101, 307, &ctx("user_init commit"));

        // World B → world A through the dialogue: a reaction stages the
        // way back, once.
        let mut staged = false;
        let swing = move |ctx: &mut mantis::ReactionCtx<'_>| {
            if !std::mem::replace(&mut staged, true) {
                ctx.set_mbl("scale", 1)?;
                ctx.shift_field("pick", 0)?;
                ctx.table_mod("cls", h, "classify", vec![Value::new(100, 32)])?;
            }
            Ok(())
        };
        agent.register_native("swing", Box::new(swing)).unwrap();
        agent.dialogue_iteration().unwrap();
        assert_one_step_per_pipe(&seen, 307, 101, &ctx("dialogue commit"));
        // A quiescent iteration (measure flip only) moves nothing.
        agent.dialogue_iteration().unwrap();
        for sightings in seen.borrow().iter() {
            assert!(sightings.iter().all(|s| *s == 101), "{sightings:?}");
        }
    }
}
