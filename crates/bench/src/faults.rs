//! Fault-tolerance benchmark (`figures -- faults`): run the failover use
//! case under a deterministic fault plan and compare against the
//! fault-free run, then demonstrate reaction quarantine isolating a
//! persistently failing reaction.
//!
//! Scenario 1 — *recovery under transient faults*: the gray-failure
//! testbed experiences a hard link failure (scheduled as a link flap)
//! while the driver suffers transient op failures, latency spikes, and
//! read faults around the failure window. The agent must absorb
//! everything through retry/rollback and converge to the **same** final
//! route table as the fault-free run; the benchmark reports both
//! recovery times and the fault/retry/rollback counters.
//!
//! Scenario 2 — *quarantine containment*: two reactions share one agent;
//! one keeps poisoning the update phase with a persistently failing
//! `table_add`. After the breaker threshold it is quarantined and the
//! healthy reaction keeps committing.

use mantis::apps::failover::{build_testbed, schedule_paced_agent, FailoverTestbed, Topology};
use mantis::p4r_compiler::entry::LogicalKey;
use mantis::{BreakerConfig, FaultOp, FaultPlan, FaultWindow, ReactionCtx, RetryPolicy, Testbed};
use p4_ast::Value;
use rmt_sim::Nanos;
use serde::Serialize;

/// When the benchmark's link failure hits, in virtual nanoseconds.
const FAIL_AT_NS: Nanos = 1_000_000;
/// Dialogue pacing for the failover loop.
const TD_NS: Nanos = 50_000;

/// Everything `results/faults.json` reports.
#[derive(Clone, Debug, Serialize)]
pub struct FaultBenchResult {
    /// Link failure → reroute commit, fault-free run.
    pub fault_free_reaction_ns: u64,
    /// Same, with the transient fault plan active.
    pub faulted_reaction_ns: u64,
    /// `fault.injected` counter of the faulted run.
    pub faults_injected: u64,
    /// `agent.retries` counter of the faulted run.
    pub retries: u64,
    /// `agent.rollbacks` counter of the faulted run.
    pub rollbacks: u64,
    /// `agent.quarantined` (skip) counter of the quarantine scenario.
    pub quarantine_skips: u64,
    /// Did the faulted run converge to the identical route table?
    pub converged_equal: bool,
    /// Reactions quarantined in the containment scenario.
    pub quarantined: Vec<String>,
    /// Iterations the healthy reaction completed after its neighbor was
    /// quarantined (containment scenario).
    pub other_reaction_iterations: u64,
}

/// The transient fault plan for scenario 1: everything is budgeted, so a
/// retrying agent must fully absorb it.
fn transient_plan() -> FaultPlan {
    FaultPlan::new()
        // The hard failure under test: the primary link goes down and
        // stays down for the whole run.
        .flap(4, FAIL_AT_NS, 1_000_000_000)
        // Driver trouble clustered around the failure window.
        .fail_transient(
            FaultOp::AnyTableOp,
            FaultWindow::Time {
                lo: FAIL_AT_NS,
                hi: FAIL_AT_NS + 1_000_000,
            },
            3,
        )
        .fail_transient(
            FaultOp::AnyRead,
            FaultWindow::Time {
                lo: 900_000,
                hi: 1_600_000,
            },
            2,
        )
        .delay(
            FaultOp::AnyRead,
            FaultWindow::Time {
                lo: 0,
                hi: 3_000_000,
            },
            3_000,
            4,
        )
}

/// Sorted physical fingerprint of the route table: handles, keys,
/// priorities, actions, data. Equal fingerprints mean the data plane
/// routes identically.
fn route_fingerprint(tb: &FailoverTestbed) -> Vec<String> {
    let sw = tb.sim.switch().borrow();
    let t = sw.table_id("route").expect("route table exists");
    let mut v: Vec<String> = sw
        .table_ref(t)
        .entries()
        .map(|e| {
            format!(
                "{:?}|{:?}|{}|{:?}|{:?}",
                e.handle, e.key, e.priority, e.action, e.action_data
            )
        })
        .collect();
    v.sort();
    v
}

/// Run the failover scenario; `plan_for_driver` decides whether the
/// driver faults are active (the link flap always is). Returns the
/// recovery time and the final route fingerprint.
fn failover_run(with_driver_faults: bool, horizon: Nanos) -> (u64, Vec<String>, FailoverTestbed) {
    let plan = transient_plan();
    let mut tb = build_testbed(Topology::example(), 1_000, 0.2);
    if with_driver_faults {
        let mut agent = tb.agent.borrow_mut();
        // random_transient can stack faults; give retry enough headroom.
        agent.set_retry_policy(RetryPolicy {
            max_retries: 8,
            ..RetryPolicy::default()
        });
        agent.set_fault_plan(plan.clone());
    }
    netsim::schedule_link_flaps(&mut tb.sim, &plan);
    schedule_paced_agent(&mut tb.sim, tb.agent.clone(), TD_NS, 0);
    tb.sim.run_until(horizon);
    let reaction_ns = tb
        .events
        .borrow()
        .first()
        .map(|ev| ev.detected_ns.saturating_sub(FAIL_AT_NS))
        .unwrap_or(0);
    let fp = route_fingerprint(&tb);
    (reaction_ns, fp, tb)
}

/// The two-reaction program for the quarantine scenario.
const TWO_REACTIONS_P4R: &str = r#"
header_type h_t { fields { a : 32; } }
header h_t h;
malleable value knob { width : 32; init : 0; }
action fwd(port) { modify_field(intr.egress_spec, port); }
action nop() { no_op(); }
malleable table acl {
    reads { h.a : exact; }
    actions { fwd; nop; }
    size : 64;
}
table t { actions { nop; } default_action : nop(); }
reaction keep(ing h.a) { ${knob} = ${knob}; }
reaction poison(ing h.a) { ${knob} = ${knob}; }
control ingress { apply(acl); apply(t); }
"#;

/// Scenario 2: returns `(quarantined_names, quarantine_skips,
/// healthy_iterations_after_quarantine)`.
fn quarantine_scenario(iters: usize) -> (Vec<String>, u64, u64) {
    // In-process driver: the fault figure times the agent on the switch
    // CPU, as the paper deploys it.
    let tb = Testbed::from_p4r(TWO_REACTIONS_P4R).expect("two-reaction program");
    {
        let mut agent = tb.agent.borrow_mut();
        agent.set_breaker_config(BreakerConfig {
            threshold: 3,
            // Effectively forever on this run's time scale: no probe.
            cooldown_ns: 1_000_000_000_000,
        });
        // `keep` commits a monotone counter through the knob slot.
        let mut i: i128 = 0;
        agent
            .register_native(
                "keep",
                Box::new(move |ctx: &mut ReactionCtx<'_>| {
                    i += 1;
                    ctx.set_mbl("knob", i)
                }),
            )
            .expect("keep registered");
        // `poison` stages a table_add that the fault plan fails forever.
        let mut k: u128 = 0;
        agent
            .register_native(
                "poison",
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
            .expect("poison registered");
        agent.set_fault_plan(
            FaultPlan::new().fail_persistent(FaultOp::Named("table_add"), FaultWindow::Always),
        );
    }
    let mut healthy_after = 0u64;
    for _ in 0..iters {
        let mut agent = tb.agent.borrow_mut();
        let quarantined_before = !agent.quarantined_reactions().is_empty();
        if agent.dialogue_iteration().is_ok() && quarantined_before {
            healthy_after += 1;
        }
    }
    let agent = tb.agent.borrow();
    let quarantined = agent.quarantined_reactions();
    let skips = agent.telemetry().counter("agent.quarantined") as u64;
    assert!(
        agent.slot("knob").unwrap_or(0) > 0,
        "healthy reaction must keep committing after quarantine"
    );
    (quarantined, skips, healthy_after)
}

/// Run both scenarios. `quick` shortens the horizons for CI smoke runs.
pub fn run(quick: bool) -> FaultBenchResult {
    let horizon = if quick { 2_500_000 } else { 5_000_000 };
    let iters = if quick { 8 } else { 16 };

    let (fault_free_ns, fp_free, _tb_free) = failover_run(false, horizon);
    let (faulted_ns, fp_faulted, tb_faulted) = failover_run(true, horizon);
    let tel = tb_faulted.agent.borrow().telemetry().clone();
    let faults_injected = tel.counter("fault.injected") as u64;
    let retries = tel.counter("agent.retries") as u64;
    let rollbacks = tel.counter("agent.rollbacks") as u64;

    let (quarantined, quarantine_skips, healthy_after) = quarantine_scenario(iters);

    FaultBenchResult {
        fault_free_reaction_ns: fault_free_ns,
        faulted_reaction_ns: faulted_ns,
        faults_injected,
        retries,
        rollbacks,
        quarantine_skips,
        converged_equal: !fp_free.is_empty() && fp_free == fp_faulted,
        quarantined,
        other_reaction_iterations: healthy_after,
    }
}

/// Deterministic faulted telemetry run for the faulted-trace golden test:
/// the micro workload paced under a transient op/delay plan. Returns
/// `(chrome_trace_json, snapshot_json)`.
pub fn faulted_profile(iters: usize, sleep_ns: u64) -> (String, String) {
    let tb = crate::micro_testbed();
    {
        let mut agent = tb.agent.borrow_mut();
        agent.set_retry_policy(RetryPolicy {
            max_retries: 8,
            ..RetryPolicy::default()
        });
        agent.set_fault_plan(
            FaultPlan::new()
                .fail_transient(
                    FaultOp::Named("set_default"),
                    FaultWindow::Ops { lo: 5, hi: 200 },
                    2,
                )
                .fail_transient(FaultOp::AnyRead, FaultWindow::Ops { lo: 10, hi: 300 }, 2)
                .delay(FaultOp::AnyRead, FaultWindow::Always, 2_500, 3),
        );
        agent
            .run_paced(iters, sleep_ns)
            .expect("transient plan is absorbed");
    }
    (
        tb.telemetry.chrome_trace_json(),
        tb.telemetry.snapshot_json(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fault_bench_shape() {
        let r = run(true);
        assert!(r.converged_equal, "faulted run must converge: {r:?}");
        assert!(r.faults_injected > 0);
        assert!(r.retries > 0);
        assert_eq!(r.quarantined, vec!["poison".to_string()]);
        assert!(r.other_reaction_iterations > 0);
        assert!(r.fault_free_reaction_ns > 0);
        assert!(r.faulted_reaction_ns > 0);
    }
}
