//! Pipe-count equivalence (DESIGN.md §9): the whole stack must behave
//! the same whether the switch has 1, 2, or 4 hardware pipes.
//!
//! * every use-case program runs end-to-end under each pipe count, and
//!   the agent's per-pipe version bits converge after every iteration;
//! * a deterministic churn workload reaches the same agent-visible state
//!   (slots, vv, logical table sizes) regardless of pipe count;
//! * transient fault plans are absorbed identically at every pipe count;
//! * every testbed here runs once per driver mode: in process, and over
//!   the wire protocol at zero RTT;
//! * pipe-scoped telemetry labels appear only when `num_pipes > 1`, so a
//!   single-pipe run's trace is byte-identical to the pre-multi-pipe
//!   goldens (enforced byte-for-byte by `telemetry_determinism.rs`).

use integration_tests::{driver_modes, testbed};
use mantis::apps::programs::{DOS_P4R, ECMP_P4R, FAILOVER_P4R, RL_P4R};
use mantis::p4_ast::Value;
use mantis::p4r_compiler::entry::LogicalKey;
use mantis::rmt_sim::PacketDesc;
use mantis::{DriverMode, FaultPlan, ReactionCtx, RetryPolicy, Testbed};

const PIPE_COUNTS: [u16; 3] = [1, 2, 4];

const ALL_PROGRAMS: [(&str, &str); 4] = [
    ("dos", DOS_P4R),
    ("failover", FAILOVER_P4R),
    ("ecmp", ECMP_P4R),
    ("rl", RL_P4R),
];

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
control ingress { apply(acl); apply(t); }
"#;

/// The same deterministic workload as `fault_tolerance.rs`: staged ops
/// depend only on the reaction's invocation count, never on the clock or
/// the pipe count.
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

/// Agent-visible state that must not depend on the pipe count: committed
/// slots, the (converged) version bit, and logical bookkeeping. Driver
/// costs and timing legitimately scale with fan-out, so they are
/// deliberately excluded.
fn agent_fingerprint(tb: &Testbed) -> String {
    let agent = tb.agent.borrow();
    assert!(
        agent.vv_per_pipe().iter().all(|&v| v == agent.vv()),
        "per-pipe version bits must converge between iterations: {:?}",
        agent.vv_per_pipe()
    );
    format!(
        "vv={} knob={:?} pick={:?} logical={:?}",
        agent.vv(),
        agent.slot("knob"),
        agent.slot("pick"),
        agent.logical_len("acl"),
    )
}

fn churn_run(pipes: u16, mode: DriverMode, plan: Option<FaultPlan>, iters: usize) -> String {
    let tb = testbed(CHURN_P4R, pipes, mode).expect("churn program");
    register_churn(&tb);
    if let Some(plan) = plan {
        let mut agent = tb.agent.borrow_mut();
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
            .unwrap_or_else(|e| panic!("pipes={pipes} {mode:?} iteration {k}: {e}"));
    }
    agent_fingerprint(&tb)
}

#[test]
fn every_use_case_program_runs_under_every_pipe_count() {
    for mode in driver_modes() {
        for pipes in PIPE_COUNTS {
            for (name, src) in ALL_PROGRAMS {
                let tb = testbed(src, pipes, mode)
                    .unwrap_or_else(|e| panic!("{name} @ {pipes} pipes, {mode:?}: {e}"));
                tb.agent
                    .borrow_mut()
                    .register_all_interpreted()
                    .unwrap_or_else(|e| panic!("{name} @ {pipes} pipes, {mode:?}: {e}"));
                for k in 0..3 {
                    tb.agent
                        .borrow_mut()
                        .dialogue_iteration()
                        .unwrap_or_else(|e| {
                            panic!("{name} @ {pipes} pipes, {mode:?}, iter {k}: {e}")
                        });
                }
                let agent = tb.agent.borrow();
                assert_eq!(agent.vv_per_pipe().len(), usize::from(pipes), "{name}");
                assert!(
                    agent.vv_per_pipe().iter().all(|&v| v == agent.vv()),
                    "{name} @ {pipes} pipes, {mode:?}: vv diverged {:?}",
                    agent.vv_per_pipe()
                );
            }
        }
    }
}

#[test]
fn churn_reaches_the_same_state_at_every_pipe_count() {
    for mode in driver_modes() {
        let baseline = churn_run(1, mode, None, 12);
        assert!(baseline.contains("knob=Some(12)"), "{baseline}");
        for pipes in [2, 4] {
            assert_eq!(
                churn_run(pipes, mode, None, 12),
                baseline,
                "pipes={pipes} {mode:?} diverged from the single-pipe run"
            );
        }
    }
}

#[test]
fn transient_faults_are_absorbed_identically_at_every_pipe_count() {
    for mode in driver_modes() {
        for pipes in PIPE_COUNTS {
            let baseline = churn_run(pipes, mode, None, 10);
            for seed in 0..8u64 {
                let faulted = churn_run(
                    pipes,
                    mode,
                    Some(FaultPlan::random_transient(seed, 300)),
                    10,
                );
                assert_eq!(
                    faulted, baseline,
                    "pipes={pipes} {mode:?} seed={seed}: faulted run diverged from fault-free state"
                );
            }
        }
    }
}

#[test]
fn churn_loop_runs_at_every_pipe_count() {
    for pipes in PIPE_COUNTS {
        for mode in driver_modes() {
            let tb = testbed(CHURN_P4R, pipes, mode).expect("churn program");
            register_churn(&tb);
            for _ in 0..5 {
                tb.agent
                    .borrow_mut()
                    .dialogue_iteration()
                    .expect("iteration");
            }
            let agent = tb.agent.borrow();
            assert_eq!(agent.vv_per_pipe().len(), usize::from(pipes), "{mode:?}");
            assert_eq!(agent.slot("knob"), Some(5), "pipes={pipes} {mode:?}");
        }
    }
}

#[test]
fn pipe_labels_appear_only_when_multiple_pipes_exist() {
    // pipes=1 must stay byte-identical to the pre-multi-pipe telemetry
    // goldens, so no pipe-scoped metric may be emitted at all.
    for mode in driver_modes() {
        let single = testbed(CHURN_P4R, 1, mode).expect("program");
        single
            .sim
            .switch()
            .borrow_mut()
            .inject(&PacketDesc::new(0).field("h", "a", 7).payload(64));
        let snap = single.telemetry_snapshot();
        assert!(snap.contains("switch.rx"), "{snap}");
        assert!(
            !snap.contains("pipe0."),
            "single-pipe run leaked pipe labels: {snap}"
        );

        // pipes=4: the same traffic is attributed to its pipe. Port 0 lands in
        // pipe 0; with 32 ports and 4 pipes, port 16 lands in pipe 2.
        let quad = testbed(CHURN_P4R, 4, mode).expect("program");
        {
            let mut sw = quad.sim.switch().borrow_mut();
            assert_eq!(sw.pipe_of_port(16), 2);
            sw.inject(&PacketDesc::new(0).field("h", "a", 7).payload(64));
            sw.inject(&PacketDesc::new(16).field("h", "a", 7).payload(64));
        }
        let snap = quad.telemetry_snapshot();
        assert!(snap.contains("pipe0.switch.rx"), "{snap}");
        assert!(snap.contains("pipe2.switch.rx"), "{snap}");
    }
}
