//! Fault-tolerance properties of the dialogue loop (DESIGN.md §8):
//!
//! * any seeded **transient** fault plan is fully absorbed — the final
//!   device + agent state is identical to the fault-free run;
//! * a **persistent** fault quarantines only the reaction it poisons,
//!   while other reactions keep executing;
//! * a quarantined reaction is probed after the cooldown and restored
//!   once the probe commits;
//! * a mid-apply permanent failure rolls the whole staged intent back —
//!   no half-applied iterations;
//! * all fault/retry/rollback/quarantine activity surfaces in the
//!   telemetry snapshot.
//!
//! Every testbed runs once per driver mode: in process, and over the wire
//! at zero RTT.

use integration_tests::{driver_modes, testbed};
use mantis::p4_ast::Value;
use mantis::p4r_compiler::entry::LogicalKey;
use mantis::{
    BreakerConfig, BreakerState, DriverMode, FaultOp, FaultPlan, FaultWindow, ReactionCtx,
    RetryPolicy, Testbed,
};

const CHURN_P4R: &str = r#"
header_type h_t { fields { a : 32; b : 32; } }
header h_t h;
malleable value knob { width : 32; init : 0; }
malleable field pick { width : 32; init : h.a; alts { h.a, h.b } }
action fwd(port) { modify_field(intr.egress_spec, port); }
action nop() { no_op(); }
malleable table acl {
    reads { ${pick} : exact; }
    actions { fwd; nop; }
    size : 128;
}
table t { actions { nop; } default_action : nop(); }
reaction churn(ing h.a) { ${knob} = ${knob}; }
reaction other(ing h.a) { ${knob} = ${knob}; }
control ingress { apply(acl); apply(t); }
"#;

/// A deterministic, time-insensitive workload: staged ops depend only on
/// the reaction's own invocation count, never on the virtual clock (fault
/// delays shift time, and the final state must not care).
fn register_churn(tb: &Testbed) {
    let mut i: u64 = 0;
    let mut handles: Vec<u64> = Vec::new();
    tb.agent
        .borrow_mut()
        .register_native(
            "churn",
            Box::new(move |ctx: &mut ReactionCtx<'_>| {
                i += 1;
                ctx.set_mbl("knob", i as i128)?;
                match i % 3 {
                    0 => {
                        let h = ctx.table_add(
                            "acl",
                            vec![LogicalKey::Exact(Value::new(u128::from(i), 32))],
                            0,
                            "fwd",
                            vec![Value::new(u128::from(i % 8), 9)],
                        )?;
                        handles.push(h);
                    }
                    1 => {
                        if let Some(h) = handles.first().copied() {
                            ctx.table_mod(
                                "acl",
                                h,
                                "fwd",
                                vec![Value::new(u128::from((i + 1) % 8), 9)],
                            )?;
                        }
                    }
                    _ => {
                        if i % 6 == 2 {
                            if let Some(h) = handles.pop() {
                                ctx.table_del("acl", h)?;
                            }
                        }
                    }
                }
                if i.is_multiple_of(5) {
                    ctx.shift_field("pick", (i % 2) as usize)?;
                }
                Ok(())
            }),
        )
        .expect("churn registered");
}

/// Full-state fingerprint: committed slots, vv, logical bookkeeping, and
/// the sorted physical table contents.
fn fingerprint(tb: &Testbed) -> String {
    let agent = tb.agent.borrow();
    let sw = tb.sim.switch().borrow();
    let t = sw.table_id("acl").expect("acl exists");
    let mut entries: Vec<String> = sw
        .table_ref(t)
        .entries()
        .map(|e| {
            format!(
                "{:?}|{:?}|{}|{:?}|{:?}",
                e.handle, e.key, e.priority, e.action, e.action_data
            )
        })
        .collect();
    entries.sort();
    format!(
        "vv={} knob={:?} pick={:?} logical={:?} phys=[{}]",
        agent.vv(),
        agent.slot("knob"),
        agent.slot("pick"),
        agent.logical_len("acl"),
        entries.join(";")
    )
}

fn churn_run(mode: DriverMode, plan: Option<FaultPlan>, iters: usize) -> String {
    let tb = testbed(CHURN_P4R, 1, mode).expect("churn program");
    register_churn(&tb);
    if let Some(plan) = plan {
        let mut agent = tb.agent.borrow_mut();
        // random_transient can stack several Fail rules on one op class;
        // give the retry loop enough headroom to absorb the worst case.
        agent.set_retry_policy(RetryPolicy {
            max_retries: 8,
            ..RetryPolicy::default()
        });
        agent.set_fault_plan(plan);
    }
    for k in 0..iters {
        tb.agent
            .borrow_mut()
            .dialogue_iteration()
            .unwrap_or_else(|e| panic!("{mode:?} iteration {k} must absorb transients: {e}"));
    }
    fingerprint(&tb)
}

#[test]
fn seeded_transient_fault_plans_preserve_the_final_state() {
    for mode in driver_modes() {
        let baseline = churn_run(mode, None, 10);
        assert!(baseline.contains("knob=Some(10)"), "{baseline}");
        for seed in 0..25u64 {
            let plan = FaultPlan::random_transient(seed, 300);
            let faulted = churn_run(mode, Some(plan), 10);
            assert_eq!(
                faulted, baseline,
                "{mode:?} seed {seed}: faulted run diverged from fault-free state"
            );
        }
    }
}

#[test]
fn persistent_fault_quarantines_only_the_affected_reaction() {
    for mode in driver_modes() {
        let tb = testbed(CHURN_P4R, 1, mode).expect("program");
        {
            let mut agent = tb.agent.borrow_mut();
            agent.set_breaker_config(BreakerConfig {
                threshold: 3,
                cooldown_ns: 1_000_000_000_000,
            });
            // `other` only writes a slot — its commit path never touches
            // table_add, so it must keep working.
            let mut i: i128 = 0;
            agent
                .register_native(
                    "other",
                    Box::new(move |ctx: &mut ReactionCtx<'_>| {
                        i += 1;
                        ctx.set_mbl("knob", i)
                    }),
                )
                .unwrap();
            let mut k: u128 = 0;
            agent
                .register_native(
                    "churn",
                    Box::new(move |ctx: &mut ReactionCtx<'_>| {
                        k += 1;
                        ctx.table_add(
                            "acl",
                            vec![LogicalKey::Exact(Value::new(k, 32))],
                            0,
                            "nop",
                            vec![],
                        )
                        .map(|_| ())
                    }),
                )
                .unwrap();
            agent.set_fault_plan(
                FaultPlan::new().fail_persistent(FaultOp::Named("table_add"), FaultWindow::Always),
            );
        }
        let mut failed = 0;
        let mut ok = 0;
        for _ in 0..9 {
            match tb.agent.borrow_mut().dialogue_iteration() {
                Ok(rep) => {
                    ok += 1;
                    assert!(rep.quarantine_skips > 0, "post-quarantine iterations skip");
                }
                Err(e) => {
                    failed += 1;
                    assert!(!e.is_transient(), "persistent faults are not transient");
                }
            }
        }
        assert_eq!(failed, 3, "three failed applies trip the threshold");
        assert_eq!(ok, 6, "after quarantine every iteration commits");
        let agent = tb.agent.borrow();
        assert_eq!(agent.quarantined_reactions(), vec!["churn".to_string()]);
        assert!(matches!(
            agent.breaker_state("churn"),
            Some(BreakerState::Open { .. })
        ));
        assert!(matches!(
            agent.breaker_state("other"),
            Some(BreakerState::Closed { .. })
        ));
        // The healthy reaction committed on every successful iteration.
        assert_eq!(agent.slot("knob"), Some(9));
        assert_eq!(agent.logical_len("acl"), Some(0), "no half-applied adds");
        assert!(agent.telemetry().counter("agent.quarantined") > 0);
        assert!(agent.telemetry().counter("agent.rollbacks") >= 3);
    }
}

#[test]
fn quarantined_reaction_is_probed_and_restored_after_cooldown() {
    for mode in driver_modes() {
        let tb = testbed(CHURN_P4R, 1, mode).expect("program");
        let cooldown = 200_000;
        {
            let mut agent = tb.agent.borrow_mut();
            agent.set_breaker_config(BreakerConfig {
                threshold: 2,
                cooldown_ns: cooldown,
            });
            let mut k: u128 = 0;
            agent
                .register_native(
                    "churn",
                    Box::new(move |ctx: &mut ReactionCtx<'_>| {
                        k += 1;
                        ctx.table_add(
                            "acl",
                            vec![LogicalKey::Exact(Value::new(k, 32))],
                            0,
                            "nop",
                            vec![],
                        )
                        .map(|_| ())
                    }),
                )
                .unwrap();
            agent
                .register_native(
                    "other",
                    Box::new(|ctx: &mut ReactionCtx<'_>| ctx.set_mbl("knob", 1)),
                )
                .unwrap();
            agent.set_fault_plan(
                FaultPlan::new().fail_persistent(FaultOp::Named("table_add"), FaultWindow::Always),
            );
        }
        // Two failed applies → quarantine.
        for _ in 0..2 {
            assert!(tb.agent.borrow_mut().dialogue_iteration().is_err());
        }
        assert_eq!(
            tb.agent.borrow().quarantined_reactions(),
            vec!["churn".to_string()]
        );
        // While quarantined, iterations succeed without churn's ops.
        tb.agent.borrow_mut().dialogue_iteration().unwrap();
        assert_eq!(tb.agent.borrow().logical_len("acl"), Some(0));

        // The operator fixes the driver (fault plan removed); after the
        // cooldown the breaker half-opens and the successful probe restores
        // the reaction.
        tb.agent.borrow_mut().driver_mut().clear_fault_plan();
        tb.agent.borrow().clock().advance(cooldown + 1);
        let rep = tb.agent.borrow_mut().dialogue_iteration().unwrap();
        assert_eq!(rep.quarantine_skips, 0, "probe iteration runs the reaction");
        let agent = tb.agent.borrow();
        assert!(agent.quarantined_reactions().is_empty());
        assert!(matches!(
            agent.breaker_state("churn"),
            Some(BreakerState::Closed { failures: 0 })
        ));
        assert_eq!(agent.logical_len("acl"), Some(1), "probe's add committed");
    }
}

#[test]
fn mid_apply_permanent_failure_rolls_back_atomically() {
    for mode in driver_modes() {
        let tb = testbed(CHURN_P4R, 1, mode).expect("program");
        // Install one entry fault-free so there is something to modify.
        let mut handle = 0;
        tb.agent
            .borrow_mut()
            .user_init(|ctx| {
                handle = ctx.table_add(
                    "acl",
                    vec![LogicalKey::Exact(Value::new(1, 32))],
                    0,
                    "fwd",
                    vec![Value::new(2, 9)],
                )?;
                Ok(())
            })
            .unwrap();
        let before = fingerprint(&tb);

        // Now a staged batch where the first op succeeds on the shadow copy
        // and the second fails permanently: everything must roll back.
        tb.agent.borrow_mut().set_fault_plan(
            FaultPlan::new().fail_persistent(FaultOp::Named("table_mod"), FaultWindow::Always),
        );
        let err = tb
            .agent
            .borrow_mut()
            .user_init(|ctx| {
                ctx.set_mbl("knob", 77)?;
                ctx.table_add(
                    "acl",
                    vec![LogicalKey::Exact(Value::new(9, 32))],
                    0,
                    "nop",
                    vec![],
                )?;
                ctx.table_mod("acl", handle, "fwd", vec![Value::new(5, 9)])?;
                Ok(())
            })
            .unwrap_err();
        assert!(!err.is_transient());
        assert_eq!(
            fingerprint(&tb),
            before,
            "half-applied update leaked past the rollback"
        );
        let agent = tb.agent.borrow();
        assert_eq!(agent.telemetry().counter("agent.rollbacks"), 1);
        assert_eq!(agent.slot("knob"), Some(0), "slot write rolled back");
    }
}

#[test]
fn failover_converges_under_the_bench_fault_plan() {
    let r = bench::faults::run(true);
    assert!(r.converged_equal, "route tables must converge: {r:?}");
    assert!(r.faults_injected > 0, "{r:?}");
    assert!(r.retries > 0, "{r:?}");
    assert!(
        r.fault_free_reaction_ns > 0 && r.faulted_reaction_ns > 0,
        "{r:?}"
    );
    assert_eq!(r.quarantined, vec!["poison".to_string()]);
    assert!(r.other_reaction_iterations > 0);
}

#[test]
fn fault_activity_surfaces_in_the_telemetry_snapshot() {
    for mode in driver_modes() {
        let tb = testbed(CHURN_P4R, 1, mode).expect("program");
        register_churn(&tb);
        {
            let mut agent = tb.agent.borrow_mut();
            agent.set_retry_policy(RetryPolicy {
                max_retries: 8,
                ..RetryPolicy::default()
            });
            agent.set_fault_plan(
                FaultPlan::new()
                    .fail_transient(FaultOp::AnyTableOp, FaultWindow::Always, 3)
                    .delay(FaultOp::AnyRead, FaultWindow::Always, 3_000, 2),
            );
        }
        for _ in 0..6 {
            tb.agent.borrow_mut().dialogue_iteration().unwrap();
        }
        let tel = tb.telemetry.clone();
        assert!(tel.counter("fault.injected") >= 5, "all injections counted");
        assert!(tel.counter("agent.retries") >= 3);
        let snap = tel.snapshot_json();
        for key in ["fault.injected", "agent.retries", "agent.retry_backoff_ns"] {
            assert!(snap.contains(key), "snapshot missing {key}: {snap}");
        }
        assert!(
            snap.trim_start().starts_with('{'),
            "snapshot is JSON: {snap}"
        );
    }
}
