//! # mantis-agent
//!
//! The Mantis control plane (§6 of the paper): an agent that runs on the
//! switch CPU and executes, as fast as the driver allows, a *dialogue loop*
//! of measurement polling and user-defined reactions, with per-pipeline
//! serializable isolation between measurements, malleable updates, and
//! packet processing (§5).
//!
//! Structure:
//!
//! * [`costmodel`] — virtual-time latencies of driver operations,
//!   calibrated to the shapes of the paper's Fig. 10;
//! * [`driver_api`] — the driver vocabulary: one [`driver_api::DriverOp`] value per
//!   thing an agent can ask of a switch, one `submit`, typed calls as
//!   sugar over it;
//! * [`driver`] — the in-process driver: validated, memoized,
//!   cost-accounted ops on the raw switch, including the busy-window model
//!   for concurrent legacy operations (Fig. 12);
//! * [`logical`] — logical-entry bookkeeping for the three-phase
//!   (prepare/commit/mirror) update protocol of §5.1.2;
//! * [`ctx`] — the staging context handed to reactions (native Rust or
//!   interpreted C-like bodies);
//! * `measure` — a reaction's measurement poll lowered to a plan, and the
//!   snapshot it refills in place;
//! * [`agent`] — [`MantisAgent`]: the struct, its public methods and the
//!   dialogue loop, over components that each own their state and are the
//!   only writers of it (DESIGN.md §16):
//!   * `isolation` — the §5 mechanism: version bits, init tables, the
//!     slots' committed values;
//!   * `health` — the retrying link to the driver: one `submit`, one
//!     backoff accounting, one fault-free recovery section;
//!   * `reactions` — registration, the contained run, circuit breakers;
//!   * `txn` — the prepare / commit / mirror update as a transaction, and
//!     its take-back;
//!   * `recovery` — bring-up: one routine behind `prologue`, `adopt` and
//!     `reconcile`;
//!   * `report` — what comes back: errors, iteration reports, stats.

#![forbid(unsafe_code)]

pub mod agent;
pub mod costmodel;
pub mod ctx;
pub mod driver;
pub mod driver_api;
mod health;
mod isolation;
pub mod logical;
mod measure;
mod reactions;
mod recovery;
mod report;
pub mod sched;
#[cfg(test)]
mod testkit;
mod txn;

pub use agent::{
    AgentError, AgentErrorKind, AgentPhase, AgentStats, IterationReport, MantisAgent,
    NativeReaction, ReactionFailure,
};
pub use costmodel::CostModel;
pub use ctx::{CtxError, ReactionCtx};
pub use driver::LocalDriver;
pub use driver_api::{CheckpointToken, DriverApi};
pub use logical::{LogicalHandle, Staged, StagedOp};
pub use measure::Snapshot;
pub use sched::{schedule_agent, schedule_fabric_agents, schedule_paced_agent};

#[cfg(test)]
mod tests {
    use super::*;
    use p4_ast::{Pipeline, Value};
    use p4r_compiler::entry::LogicalKey;
    use p4r_compiler::{compile_source, CompilerOptions};
    use rmt_sim::{Clock, PacketDesc, SharedSwitch, Switch, SwitchConfig};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A P4R program exercising values, fields, malleable tables,
    /// measurement fields and registers in one place.
    const PROGRAM: &str = r#"
header_type ip_t { fields { src : 32; dst : 32; proto : 8; } }
header ip_t ip;
register total_bytes { width : 64; instance_count : 4; }
malleable value thresh { width : 32; init : 100; }
malleable field target {
    width : 32; init : ip.src;
    alts { ip.src, ip.dst }
}
action fwd(port) { modify_field(intr.egress_spec, port); }
action tally(idx) { register_write(total_bytes, idx, intr.pkt_len); }
action bump() { add_to_field(ip.proto, ${thresh}); }
action to_drop() { drop(); }
malleable table acl {
    reads { ${target} : exact; }
    actions { fwd; to_drop; }
    size : 32;
}
table stats { actions { tally; } default_action : tally(0); }
table adjust { actions { bump; } default_action : bump(); }
reaction watch(ing ip.src, reg total_bytes[0:3]) {
    static uint64_t seen = 0;
    seen = seen + 1;
    if (total_bytes[0] > ${thresh}) {
        ${thresh} = ${thresh} * 2;
    }
    return seen;
}
control ingress {
    apply(acl);
    apply(adjust);
    apply(stats);
}
"#;

    /// A switch loaded with `src` and an agent for it, prologue not yet run.
    fn agent_for(src: &str) -> (SharedSwitch, MantisAgent, Clock) {
        let compiled = compile_source(src, &CompilerOptions::default()).unwrap();
        let clock = Clock::new();
        let spec = rmt_sim::load(&compiled.p4).unwrap();
        let switch = SharedSwitch::new(Switch::new(spec, SwitchConfig::default(), clock.clone()));
        let agent = MantisAgent::new(switch.clone(), &compiled, CostModel::default());
        (switch, agent, clock)
    }

    fn build() -> (SharedSwitch, MantisAgent, Clock) {
        let (switch, mut agent, clock) = agent_for(PROGRAM);
        agent.prologue().unwrap();
        (switch, agent, clock)
    }

    fn inject(sw: &SharedSwitch, src: u128, dst: u128) -> bool {
        sw.borrow_mut().inject(
            &PacketDesc::new(1)
                .field("ip", "src", src)
                .field("ip", "dst", dst)
                .field("ip", "proto", 6)
                .payload(100),
        )
    }

    #[test]
    fn prologue_installs_master_default() {
        let (sw, _agent, _clock) = build();
        let sw = sw.borrow();
        let t = sw.table_id("p4r_init_").unwrap();
        let d = sw.table_ref(t).default_action().unwrap();
        // vv=1, mv=0, thresh=100, target_alt=0
        assert_eq!(d.1[0], Value::new(1, 1));
        assert_eq!(d.1[1], Value::zero(1));
    }

    #[test]
    fn malleable_value_commit_changes_dataplane() {
        let (sw, mut agent, _clock) = build();
        agent
            .user_init(|ctx| {
                ctx.set_mbl("thresh", 7)?;
                Ok(())
            })
            .unwrap();
        assert_eq!(agent.slot("thresh"), Some(7));
        // A packet's proto (6) gets 7 added: verify via pipeline run.
        let out = {
            let mut swm = sw.borrow_mut();
            let phv = PacketDesc::new(1)
                .field("ip", "src", 1)
                .field("ip", "dst", 2)
                .field("ip", "proto", 6)
                .build(swm.spec());
            swm.run_pipeline(phv, Pipeline::Ingress)
        };
        let sw2 = sw.borrow();
        let proto = out.get(sw2.field_id("ip", "proto").unwrap());
        assert_eq!(proto.bits(), 13);
    }

    #[test]
    fn malleable_table_add_expands_and_matches() {
        let (sw, mut agent, _clock) = build();
        // Add a logical entry: ${target} == 42 → fwd(5).
        agent
            .user_init(|ctx| {
                ctx.table_add(
                    "acl",
                    vec![LogicalKey::Exact(Value::new(42, 32))],
                    10,
                    "fwd",
                    vec![Value::new(5, 9)],
                )?;
                Ok(())
            })
            .unwrap();
        // Physical entries: 2 alts × 2 vv copies = 4.
        {
            let sw = sw.borrow();
            let t = sw.table_id("acl").unwrap();
            assert_eq!(sw.table_len(t), 4);
        }
        // target initially references ip.src: src=42 matches → queue 5.
        assert!(inject(&sw, 42, 0));
        assert!(sw.borrow().queue_depth(5) > 0);

        // Shift the reference to ip.dst; now dst=42 matches instead.
        agent
            .user_init(|ctx| {
                ctx.shift_field("target", 1)?;
                Ok(())
            })
            .unwrap();
        let before = sw.borrow().queue_depth(5);
        assert!(inject(&sw, 0, 42));
        assert!(
            sw.borrow().queue_depth(5) > before,
            "dst-shifted entry did not match"
        );
        // And src=42 no longer matches.
        let before = sw.borrow().queue_depth(5);
        assert!(inject(&sw, 42, 0));
        assert_eq!(sw.borrow().queue_depth(5), before);
    }

    #[test]
    fn dialogue_iteration_runs_interpreted_reaction() {
        let (sw, mut agent, _clock) = build();
        agent.register_all_interpreted().unwrap();
        // Send some packets so total_bytes[0] accumulates.
        for i in 0..5 {
            inject(&sw, 100 + i, 1);
        }
        let rep = agent.dialogue_iteration().unwrap();
        assert!(rep.duration_ns > 0);
        // Reaction saw total_bytes[0] = 109 (9 B header + 100 B payload)
        // > thresh (100) and doubled thresh.
        assert_eq!(agent.slot("thresh"), Some(200));
        // Next iteration: 109 < 200, so no further doubling — the reaction
        // reads the committed value back (read-your-writes across
        // iterations).
        inject(&sw, 1, 1);
        agent.dialogue_iteration().unwrap();
        assert_eq!(agent.slot("thresh"), Some(200));
    }

    #[test]
    fn reaction_time_is_tens_of_microseconds() {
        let (sw, mut agent, _clock) = build();
        agent.register_all_interpreted().unwrap();
        inject(&sw, 9, 9);
        // Warm up driver memoization.
        agent.dialogue_iteration().unwrap();
        let rep = agent.dialogue_iteration().unwrap();
        assert!(
            rep.duration_ns > 5_000 && rep.duration_ns < 100_000,
            "iteration took {} ns",
            rep.duration_ns
        );
    }

    #[test]
    fn measurement_fields_reach_snapshot() {
        let (sw, mut agent, _clock) = build();
        let seen = Rc::new(RefCell::new(Vec::<i128>::new()));
        let seen2 = seen.clone();
        agent
            .register_native(
                "watch",
                Box::new(move |ctx: &mut ReactionCtx<'_>| {
                    if let Some(v) = ctx.arg("ip_src") {
                        seen2.borrow_mut().push(v);
                    }
                    Ok(())
                }),
            )
            .unwrap();
        inject(&sw, 777, 1);
        agent.dialogue_iteration().unwrap();
        inject(&sw, 888, 1);
        agent.dialogue_iteration().unwrap();
        let seen = seen.borrow();
        assert!(seen.contains(&777) || seen.contains(&888), "{seen:?}");
    }

    #[test]
    fn register_cache_retains_freshest_value() {
        let (sw, mut agent, _clock) = build();
        let seen = Rc::new(RefCell::new(Vec::<i128>::new()));
        let seen2 = seen.clone();
        agent
            .register_native(
                "watch",
                Box::new(move |ctx: &mut ReactionCtx<'_>| {
                    seen2
                        .borrow_mut()
                        .push(ctx.arg_index("total_bytes", 0).unwrap());
                    Ok(())
                }),
            )
            .unwrap();
        inject(&sw, 1, 1); // writes total_bytes[0] = 118 into working copy
        agent.dialogue_iteration().unwrap();
        // No new packets: several iterations must NOT regress to a stale 0
        // (the §5.2 alternation problem the ts-cache solves).
        agent.dialogue_iteration().unwrap();
        agent.dialogue_iteration().unwrap();
        let seen = seen.borrow();
        assert!(seen.len() >= 3);
        assert_eq!(seen[1], seen[2], "stale alternation: {seen:?}");
        assert!(*seen.last().unwrap() > 0, "{seen:?}");
    }

    #[test]
    fn vv_flips_each_commit_and_both_copies_stay_consistent() {
        let (sw, mut agent, _clock) = build();
        assert_eq!(agent.vv(), 1);
        let h = Rc::new(RefCell::new(0u64));
        let h2 = h.clone();
        agent
            .user_init(move |ctx| {
                *h2.borrow_mut() = ctx.table_add(
                    "acl",
                    vec![LogicalKey::Exact(Value::new(1, 32))],
                    0,
                    "fwd",
                    vec![Value::new(2, 9)],
                )?;
                Ok(())
            })
            .unwrap();
        assert_eq!(agent.vv(), 0);
        // Modify the entry: still 4 physical entries, new action data.
        let handle = *h.borrow();
        agent
            .user_init(move |ctx| {
                ctx.table_mod("acl", handle, "fwd", vec![Value::new(3, 9)])?;
                Ok(())
            })
            .unwrap();
        assert_eq!(agent.vv(), 1);
        {
            let sw = sw.borrow();
            let t = sw.table_id("acl").unwrap();
            assert_eq!(sw.table_len(t), 4);
            for e in sw.table_ref(t).entries() {
                assert_eq!(e.action_data[..], [Value::new(3, 9)]);
            }
        }
        // Delete: physical entries drain from both copies.
        agent
            .user_init(move |ctx| {
                ctx.table_del("acl", handle)?;
                Ok(())
            })
            .unwrap();
        let sw = sw.borrow();
        let t = sw.table_id("acl").unwrap();
        assert_eq!(sw.table_len(t), 0);
        assert_eq!(agent.logical_len("acl"), Some(0));
    }

    #[test]
    fn packets_see_old_or_new_config_never_a_mix() {
        let (sw, mut agent, _clock) = build();
        let h = Rc::new(RefCell::new(0u64));
        let h2 = h.clone();
        agent
            .user_init(move |ctx| {
                *h2.borrow_mut() = ctx.table_add(
                    "acl",
                    vec![LogicalKey::Exact(Value::new(5, 32))],
                    0,
                    "fwd",
                    vec![Value::new(2, 9)],
                )?;
                Ok(())
            })
            .unwrap();
        let handle = *h.borrow();

        let port_of = |sw: &SharedSwitch| {
            let mut swm = sw.borrow_mut();
            let phv = PacketDesc::new(1)
                .field("ip", "src", 5)
                .field("ip", "dst", 0)
                .field("ip", "proto", 0)
                .build(swm.spec());
            let out = swm.run_pipeline(phv, Pipeline::Ingress);
            out.egress_spec(swm.spec())
        };
        assert_eq!(port_of(&sw), 2);
        agent
            .user_init(move |ctx| {
                ctx.table_mod("acl", handle, "fwd", vec![Value::new(6, 9)])?;
                Ok(())
            })
            .unwrap();
        assert_eq!(port_of(&sw), 6);
    }

    #[test]
    fn unversioned_table_survives_add_and_del_in_one_iteration() {
        // Regression: an unversioned table (no vv column — one physical
        // entry set installed during prepare) receiving both an Add and a
        // Del in the same iteration. The mirror pass must skip the
        // physical writes for both ops via the same rule, leaving exactly
        // the added entry behind with consistent bookkeeping.
        let src = r#"
header_type ip_t { fields { src : 32; dst : 32; } }
header ip_t ip;
malleable value knob { width : 32; init : 0; }
action fwd(port) { modify_field(intr.egress_spec, port); }
action to_drop() { drop(); }
action touch() { add_to_field(ip.dst, ${knob}); }
table blocklist {
    reads { ip.src : exact; }
    actions { fwd; to_drop; }
    size : 16;
}
table adjust { actions { touch; } default_action : touch(); }
reaction r(ing ip.src) { return 0; }
control ingress { apply(blocklist); apply(adjust); }
"#;
        let compiled = compile_source(src, &CompilerOptions::default()).unwrap();
        assert!(
            compiled.iface.table("blocklist").unwrap().vv_col.is_none(),
            "blocklist must be unversioned for this regression test"
        );
        let clock = Clock::new();
        let spec = rmt_sim::load(&compiled.p4).unwrap();
        let switch = SharedSwitch::new(Switch::new(spec, SwitchConfig::default(), clock.clone()));
        let mut agent = MantisAgent::new(switch.clone(), &compiled, CostModel::default());
        agent.prologue().unwrap();

        let h = Rc::new(RefCell::new(0u64));
        let h2 = h.clone();
        agent
            .user_init(move |ctx| {
                *h2.borrow_mut() = ctx.table_add(
                    "blocklist",
                    vec![LogicalKey::Exact(Value::new(1, 32))],
                    0,
                    "fwd",
                    vec![Value::new(2, 9)],
                )?;
                Ok(())
            })
            .unwrap();
        let handle = *h.borrow();
        // One iteration: Add a new entry AND Del the existing one.
        agent
            .user_init(move |ctx| {
                ctx.table_add(
                    "blocklist",
                    vec![LogicalKey::Exact(Value::new(2, 32))],
                    0,
                    "fwd",
                    vec![Value::new(3, 9)],
                )?;
                ctx.table_del("blocklist", handle)?;
                Ok(())
            })
            .unwrap();
        // Exactly the added entry remains, physically and logically.
        {
            let sw = switch.borrow();
            let t = sw.table_id("blocklist").unwrap();
            assert_eq!(sw.table_len(t), 1);
        }
        assert_eq!(agent.logical_len("blocklist"), Some(1));
        // The surviving entry matches src=2 → port 3; src=1 no longer hits.
        let port_of = |src_val: u128| {
            let mut swm = switch.borrow_mut();
            let phv = PacketDesc::new(1)
                .field("ip", "src", src_val)
                .field("ip", "dst", 0)
                .build(swm.spec());
            let out = swm.run_pipeline(phv, Pipeline::Ingress);
            out.egress_spec(swm.spec())
        };
        assert_eq!(port_of(2), 3);
        assert_ne!(port_of(1), 2, "deleted entry still matches");
    }

    #[test]
    fn paced_loop_trades_cpu_for_latency() {
        let (sw, mut agent, clock) = build();
        agent.register_all_interpreted().unwrap();
        inject(&sw, 1, 1);
        let busy_util = agent.run_paced(10, 0).unwrap();
        assert!(busy_util > 0.99);
        let t0 = clock.now();
        let paced_util = agent.run_paced(10, 200_000).unwrap();
        assert!(paced_util < 0.5, "paced utilization {paced_util}");
        assert!(clock.now() - t0 >= 2_000_000);
        // The figures are the agent's own account, not the registry's: one
        // that records nothing leaves them standing, and counting.
        agent.set_telemetry(mantis_telemetry::Telemetry::disabled());
        assert_eq!(agent.stats().iterations, 20);
        assert!(agent.run_paced(5, 1_000).unwrap() > 0.0);
        assert_eq!(agent.stats().iterations, 25);
    }

    #[test]
    fn unknown_reaction_registration_fails() {
        let (_sw, mut agent, _clock) = build();
        let err = agent.register_interpreted("ghost").unwrap_err();
        assert!(matches!(
            err.kind,
            AgentErrorKind::NotCompiledWithReaction(_)
        ));
        assert!(!err.is_transient());
    }

    #[test]
    fn bare_decl_branch_registers_on_the_vm() {
        // A declaration as a bare `if` body: scoped to the branch by the
        // parser, so it registers the one way there is, and runs.
        const SRC: &str = r#"
header_type ip_t { fields { src : 32; } }
header ip_t ip;
reaction r(ing ip.src) {
    if (ip_src > 0) static uint64_t n = 0;
    return 0;
}
control ingress { }
"#;
        let (switch, mut agent, _clock) = agent_for(SRC);
        agent.prologue().unwrap();
        agent.register_interpreted("r").unwrap();
        for src in [0, 5, 0] {
            let pkt = PacketDesc::new(1).field("ip", "src", src).payload(64);
            switch.borrow_mut().inject(&pkt);
            let report = agent.dialogue_iteration().unwrap();
            assert!(report.reaction_failures.is_empty());
        }
        assert!(agent.vm_dispatch_total() > 0);
        assert!(agent.vm_fallbacks().is_empty());
    }

    #[test]
    fn oversized_body_is_a_registration_error_naming_the_reaction() {
        // 65 536 distinct names overflow the bytecode's u16 name index: the
        // one body the compiler accepts and the VM cannot take.
        let calls: String = (0..=u16::MAX).map(|i| format!("f{i}();")).collect();
        let src = format!("reaction huge() {{ {calls} }}\ncontrol ingress {{ }}\n");
        let (_switch, mut agent, _clock) = agent_for(&src);
        let err = agent.register_all_interpreted().unwrap_err();
        assert!(
            matches!(&err.kind, AgentErrorKind::Compile { reaction, .. } if reaction == "huge"),
            "{err}"
        );
        assert!(err.to_string().contains("reaction `huge`: body too large"));
        assert!(!err.is_transient());
    }

    #[test]
    fn use_case_style_program_never_falls_back() {
        // Every reaction of the program registers, and on the VM: the
        // golden-traced programs' telemetry depends on it.
        let (sw, mut agent, _clock) = build();
        agent.register_all_interpreted().unwrap();
        inject(&sw, 1, 1);
        agent.dialogue_iteration().unwrap();
        assert!(agent.vm_dispatch_total() > 0);
        assert!(agent.vm_fallbacks().is_empty());
    }

    #[test]
    fn interpreted_table_ops_install_entries() {
        // A reaction that blocks a sender via the malleable table, using
        // the interpreted addEntry convention.
        let src = r#"
header_type ip_t { fields { src : 32; dst : 32; } }
header ip_t ip;
action fwd(port) { modify_field(intr.egress_spec, port); }
action to_drop() { drop(); }
malleable table acl {
    reads { ip.src : exact; }
    actions { fwd; to_drop; }
    size : 16;
}
reaction guard(ing ip.src) {
    static int blocked = 0;
    if (!blocked && ip_src == 666) {
        acl.addEntry(1, 666);
        blocked = 1;
    }
}
control ingress { apply(acl); }
"#;
        let (switch, mut agent, _clock) = agent_for(src);
        agent.prologue().unwrap();
        agent.register_all_interpreted().unwrap();

        // Benign traffic: nothing blocked.
        switch
            .borrow_mut()
            .inject(&PacketDesc::new(0).field("ip", "src", 5).payload(50));
        agent.dialogue_iteration().unwrap();
        assert_eq!(agent.logical_len("acl"), Some(0));

        // Attacker appears; next iteration observes and blocks it.
        switch
            .borrow_mut()
            .inject(&PacketDesc::new(0).field("ip", "src", 666).payload(50));
        agent.dialogue_iteration().unwrap();
        assert_eq!(agent.logical_len("acl"), Some(1));
        // vv doubling: 2 physical entries.
        {
            let sw = switch.borrow();
            let t = sw.table_id("acl").unwrap();
            assert_eq!(sw.table_len(t), 2);
        }
        // The attacker's packets now drop.
        let dropped_before = switch.borrow().stats.dropped_ingress;
        switch
            .borrow_mut()
            .inject(&PacketDesc::new(0).field("ip", "src", 666).payload(50));
        assert_eq!(switch.borrow().stats.dropped_ingress, dropped_before + 1);
    }

    /// Every entry point leaves what it recorded in the registry on the way
    /// out — the failing ways included: a reader holding the registry
    /// itself never finds records missing, and the switch never records
    /// ahead of them.
    #[test]
    fn entry_points_flush_what_they_recorded_on_every_way_out() {
        use driver_api::DriverOp;
        let (compiled, switch) = testkit::switch_for(PROGRAM, &CompilerOptions::default(), 1);
        let armed = Rc::new(std::cell::Cell::new(false));
        let refuse_flips = armed.clone();
        let hook = move |op: &DriverOp| match op {
            DriverOp::SetDefaultOn {
                is_init_flip: true, ..
            } if refuse_flips.get() => Some(rmt_sim::DriverError::Injected {
                op: "init_flip",
                persistent: true,
            }),
            _ => None,
        };
        let driver = testkit::Hooked::new(switch, Box::new(hook));
        let mut agent = MantisAgent::with_driver(&compiled, Box::new(driver));
        let tel = mantis_telemetry::Telemetry::shared();
        agent.set_telemetry(tel.clone());
        let spans = |name: &str, ph: &str| {
            let trace = tel.chrome_trace_json();
            let (ph, name) = (format!("\"ph\":\"{ph}\""), format!("\"name\":\"{name}\""));
            let hits = trace
                .lines()
                .filter(|l| l.contains(&ph) && l.contains(&name));
            hits.count()
        };

        // `prologue` alone is visible.
        agent.prologue().unwrap();
        let driver_ops = |snap: &mantis_telemetry::Snapshot| -> i128 {
            let calls = snap.counters.iter().filter(|(k, _)| k.ends_with("_calls"));
            calls.map(|(_, v)| *v).sum()
        };
        let after_prologue = driver_ops(&tel.snapshot());
        assert!(after_prologue > 0);

        // So is an iteration that commits …
        agent.register_all_interpreted().unwrap();
        agent.dialogue_iteration().unwrap();
        assert!(driver_ops(&tel.snapshot()) > after_prologue);
        assert_eq!((spans("iteration", "B"), spans("iteration", "E")), (1, 1));
        assert_eq!(tel.counter(mantis_telemetry::scopes::CTR_ITERATIONS), 1);

        // … and one whose measurement flip fails: its `measure` and
        // `iteration` spans are closed and in the registry when the error
        // comes back.
        armed.set(true);
        let err = agent.dialogue_iteration().unwrap_err();
        assert_eq!(err.phase, Some(AgentPhase::Measure), "{err}");
        assert_eq!((spans("iteration", "B"), spans("iteration", "E")), (2, 2));
        assert_eq!((spans("measure", "B"), spans("measure", "E")), (2, 2));
        // So is a failed `user_init`'s rollback.
        let rollbacks = tel.counter(mantis_telemetry::scopes::CTR_ROLLBACKS);
        let init = agent.user_init(|ctx| ctx.set_mbl("thresh", 7));
        assert!(init.is_err());
        assert_eq!(
            tel.counter(mantis_telemetry::scopes::CTR_ROLLBACKS),
            rollbacks + 1
        );
        assert_eq!(agent.stats().iterations, 1);
    }

    /// A transaction that cannot finish opening — a checkpoint or the
    /// port-state read fails, as a barrier op does over a faulty channel —
    /// hands back every checkpoint it had taken: none stays open on the
    /// device to keep a table journalling.
    #[test]
    fn a_half_opened_transaction_returns_its_checkpoints() {
        // The update touches the master and `acl`: two checkpoints.
        for (fail_checkpoint, taken) in [(1, 0), (2, 1), (0, 2)] {
            let (compiled, switch) = testkit::switch_for(PROGRAM, &CompilerOptions::default(), 1);
            // `(checkpoints taken, checkpoints discarded)`.
            let seen = Rc::new(RefCell::new((0, 0)));
            let counts = seen.clone();
            // Refuse the `fail_checkpoint`-th (1-based) `TableCheckpoint`;
            // 0 refuses `PortUp`.
            let hook = move |op: &driver_api::DriverOp| {
                let refuse = Some(rmt_sim::DriverError::Injected {
                    op: "control",
                    persistent: true,
                });
                match op {
                    driver_api::DriverOp::TableCheckpoint { .. } => {
                        if counts.borrow().0 + 1 == fail_checkpoint {
                            return refuse;
                        }
                        counts.borrow_mut().0 += 1;
                    }
                    driver_api::DriverOp::PortUp { .. } if fail_checkpoint == 0 => return refuse,
                    driver_api::DriverOp::CheckpointDiscard { .. } => counts.borrow_mut().1 += 1,
                    _ => {}
                }
                None
            };
            let driver = testkit::Hooked::new(switch.clone(), Box::new(hook));
            let mut agent = MantisAgent::with_driver(&compiled, Box::new(driver));
            agent.prologue().unwrap();
            let err = agent
                .user_init(|ctx| {
                    let key = vec![LogicalKey::Exact(Value::new(1, 32))];
                    ctx.table_add("acl", key, 0, "to_drop", vec![])?;
                    ctx.set_port_up(3, false);
                    Ok(())
                })
                .unwrap_err();
            assert!(matches!(err.kind, AgentErrorKind::Driver(_)), "{err}");
            assert_eq!(
                *seen.borrow(),
                (taken, taken),
                "failing op {fail_checkpoint}"
            );
            for token in 0..2 {
                assert_eq!(switch.borrow().checkpoint_table(token), None);
            }
        }
    }
}
