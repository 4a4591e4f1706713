//! Chaos soak (`figures -- chaos`): seeded fault schedules lowered onto
//! live scenarios and checked by invariant oracles (DESIGN.md §13).
//!
//! Each seed generates a [`ChaosPlan`] whose events run against:
//!
//! * **fabric** — a 2×2 leaf-spine failover fabric with 2-pipe switches:
//!   agent crashes (killed mid-dialogue,
//!   restarted after a downtime and reconciled from device state), link
//!   flaps, and driver latency spikes;
//! * **mastership** — two controllers arbitrating one 2-pipe switch over
//!   lossy channels: frame drops/delays, persistent severance, controller
//!   process crashes.
//!
//! Oracles checked after every trial:
//!
//! * **config atomicity** — every pipe's read-back init state agrees
//!   (no torn apply survives recovery);
//! * **counter conservation** — per switch, `rx == tx + drops` once all
//!   sources stop and the queues drain;
//! * **convergence** — for schedules without link flaps (flaps
//!   legitimately reroute), the post-quiescence [`entry_fingerprint`]
//!   equals the fault-free baseline's;
//! * **single master** — never two lease holders after a full round, and
//!   a lone master commits iterations once the chaos window closes.
//!
//! A failing seed is [`shrink`]-minimized and serialized into
//! `tests/chaos_corpus/` as a regression file the test suite replays.
//!
//! [`entry_fingerprint`]: MantisAgent::entry_fingerprint

use mantis::apps::fabric::{
    build_failover_fabric_with, leaf_host, restart_fabric_agent, FabricOptions, FabricTestbed,
    EXIT_PORT,
};
use mantis::control::{ChannelConfig, ControlPlane};
use mantis::netsim::{schedule_link_flaps, spawn_udp_on, UdpConfig, HOST_PORTS};
use mantis::p4r_compiler::{compile_source, Compiled, CompilerOptions};
use mantis::rmt_sim::{Nanos, PacketDesc};
use mantis::{
    Clock, Controller, ControllerConfig, CostModel, FaultPlan, MantisAgent, SharedSwitch, Switch,
    SwitchConfig,
};
pub use mantis_faults::chaos::{shrink, ChaosConfig, ChaosEvent, ChaosParseError, ChaosPlan};
use serde::Serialize;
use std::path::PathBuf;
use std::rc::Rc;

/// Dialogue pacing for the fabric agents.
const TD_NS: Nanos = 50_000;
/// Heartbeat period `T_s`.
const TS_NS: Nanos = 1_000;
/// Gray-failure delivery expectation.
const ETA: f64 = 0.2;
/// Virtual downtime between an agent crash and its restart.
const RESTART_NS: Nanos = 100_000;
/// UDP cross-traffic stops here so it can fully drain by the horizon.
const UDP_STOP_NS: Nanos = 1_100_000;
/// Last manually-stepped agent round; chaos windows all close earlier.
const AGENT_END_NS: Nanos = 1_250_000;
/// Heartbeats stop after the agents go quiet (no dialogue runs after
/// this, so the stall can't be mistaken for a gray failure).
const HB_STOP_NS: Nanos = 1_700_000;
/// Fabric trial horizon: everything injected has drained by now.
const HORIZON_NS: Nanos = 2_200_000;
/// Mastership lease; the standby polls at `CTL_TD_NS`. Wide enough that
/// a step inflated by retried frames still renews well before expiry —
/// only a real partition (sever, crash downtime) lets the lease lapse.
const LEASE_NS: Nanos = 300_000;
const CTL_TD_NS: Nanos = 10_000;
/// Chaos rounds of the mastership scenario (× `CTL_TD_NS` virtual time).
const CTL_ROUNDS: usize = 220;
/// Rounds allowed for a lone master to commit after the chaos window.
const CTL_SETTLE_ROUNDS: usize = 200;

/// The mastership scenario's program: a malleable table plus a reaction
/// that rewrites `${knob}` every iteration, so each dialogue commits a
/// multi-pipe init-table update (the torn-apply surface).
const CHAOS_CTL_P4R: &str = r#"
header_type h_t { fields { a : 32; b : 32; } }
header h_t h;
malleable value knob { width : 32; init : 0; }
action fwd(port) { modify_field(intr.egress_spec, port); }
action nop() { no_op(); }
malleable table acl {
    reads { h.b : exact; }
    actions { fwd; nop; }
    size : 128;
}
table t { actions { nop; } default_action : nop(); }
reaction churn(ing h.a) { ${knob} = h_a + 1; }
control ingress { apply(acl); apply(t); }
"#;

/// Generator bounds matching the scenarios above: 4 fabric switches
/// (2 leaves + 2 spines), the leaf uplink ports, windows inside the
/// stepped portion of the fabric run.
fn gen_cfg() -> ChaosConfig {
    ChaosConfig {
        switches: 4,
        ports: (0..2).map(|j| u32::from(HOST_PORTS) + j).collect(),
        horizon_ns: 1_200_000,
        ops_hint: 160,
        max_events: 6,
    }
}

/// One oracle violation, tagged with the seed and scenario it came from.
#[derive(Clone, Debug, Serialize)]
pub struct Violation {
    pub seed: u64,
    pub scenario: String,
    pub oracle: String,
    pub detail: String,
}

/// Outcome of one fabric chaos trial.
#[derive(Clone, Debug, Default)]
pub struct FabricTrialOutcome {
    /// Injected agent crashes observed (including repeat kills of a
    /// restarted process).
    pub crashes: u64,
    /// Successful crash-restart reconciliations.
    pub restarts: u64,
    /// Virtual reconcile+reinstall time of each successful restart.
    pub reconcile_ns: Vec<u64>,
    /// Post-quiescence per-agent entry fingerprints (fabric order).
    pub entry_fps: Vec<u64>,
    /// Whether the convergence oracle applies (no link flaps — a flap
    /// permanently reroutes, which is legitimate config divergence).
    pub comparable: bool,
    /// Gray-failure detections that fired: `(leaf, detected_ns, neighbor)`.
    pub detections: Vec<(usize, u64, usize)>,
    /// `(oracle, detail)` pairs; empty on a clean trial.
    pub violations: Vec<(String, String)>,
}

fn viol(oracle: &str, detail: String) -> (String, String) {
    (oracle.to_string(), detail)
}

/// Run one fabric chaos trial: manual dialogue stepping so crashes can be
/// observed and restarts scheduled deterministically, then quiescence and
/// the oracles. `baseline` is the fault-free run's entry fingerprints.
pub fn fabric_trial(plan: &ChaosPlan, baseline: Option<&[u64]>) -> FabricTrialOutcome {
    let opts = FabricOptions {
        switch: SwitchConfig {
            num_pipes: 2,
            ..SwitchConfig::default()
        },
        hb_stop_ns: Some(HB_STOP_NS),
    };
    let mut tb = build_failover_fabric_with(2, 2, TS_NS, ETA, &opts);
    let fplan = plan.fabric_plan();
    for a in &tb.agents {
        a.borrow_mut().set_fault_plan(fplan.clone());
    }
    schedule_link_flaps(&mut tb.sim, &fplan);

    // Cross traffic in both directions, stopped early enough to drain.
    for (src, dst) in [(0usize, 1usize), (1, 0)] {
        spawn_udp_on(
            &mut tb.sim,
            src,
            UdpConfig {
                ingress_port: EXIT_PORT,
                fields: vec![
                    ("ethernet".into(), "ether_type".into(), 0x0800),
                    ("ipv4".into(), "src_addr".into(), u128::from(leaf_host(src))),
                    ("ipv4".into(), "dst_addr".into(), u128::from(leaf_host(dst))),
                    ("ipv4".into(), "protocol".into(), 17),
                ],
                payload_bytes: 1_000,
                rate_bps: 200_000_000,
                start_ns: 0,
                stop_ns: Some(UDP_STOP_NS),
            },
        );
    }

    let clock = {
        let a = tb.agents[0].borrow();
        a.clock().clone()
    };
    let n = tb.agents.len();
    let mut down_until: Vec<Option<Nanos>> = vec![None; n];
    let mut out = FabricTrialOutcome {
        comparable: !plan
            .events
            .iter()
            .any(|e| matches!(e, ChaosEvent::Flap { .. })),
        ..FabricTrialOutcome::default()
    };

    let restart = |tb: &FabricTestbed,
                   i: usize,
                   out: &mut FabricTrialOutcome,
                   down_until: &mut Vec<Option<Nanos>>,
                   now: Nanos| {
        let t0 = clock.now();
        match restart_fabric_agent(tb, i, Some(plan.restart_plan(i as u16))) {
            Ok(()) => {
                down_until[i] = None;
                out.restarts += 1;
                out.reconcile_ns.push(clock.now() - t0);
            }
            Err(e) if e.is_crash() => {
                out.crashes += 1;
                down_until[i] = Some(now + RESTART_NS);
            }
            Err(e) => out
                .violations
                .push(viol("recovery", format!("switch {i}: restart failed: {e}"))),
        }
    };

    let mut t = 0;
    while t < AGENT_END_NS {
        t += TD_NS;
        tb.sim.run_until(t);
        for i in 0..n {
            // A reconcile earlier in this round may have pushed the shared
            // clock past the round boundary; deliver everything due up to
            // the real clock first, or this agent's gray-failure window
            // would count heartbeats that are still sitting in the event
            // queue as missing.
            let now = clock.now();
            if now > t {
                tb.sim.run_until(now);
            }
            if let Some(up_at) = down_until[i] {
                // The process is dead; model the supervisor restarting it
                // after `RESTART_NS` of downtime.
                if t >= up_at {
                    restart(&tb, i, &mut out, &mut down_until, t);
                }
                continue;
            }
            let r = tb.agents[i].borrow_mut().dialogue_iteration();
            if let Err(e) = r {
                if e.is_crash() {
                    out.crashes += 1;
                    down_until[i] = Some(t + RESTART_NS);
                }
                // Non-crash errors are transient faults the paced loop
                // would swallow; the next round retries.
            }
        }
        // A slow round (a crash restart's reconcile costs ~2 T_d of
        // virtual time) slips the pace like a real paced loop would:
        // skip the missed ticks instead of letting delivery lag the clock.
        while t + TD_NS <= clock.now() {
            t += TD_NS;
        }
    }
    // Revive anything still down so the fabric can converge.
    for i in 0..n {
        if down_until[i].is_some() {
            restart(&tb, i, &mut out, &mut down_until, t);
        }
        if down_until[i].is_some() {
            out.violations.push(viol(
                "recovery",
                format!("switch {i}: agent still down at end of schedule"),
            ));
        }
    }

    // Post-chaos convergence: clean dialogue rounds while heartbeats are
    // still flowing, then stop every source and drain.
    for a in &tb.agents {
        a.borrow_mut().set_fault_plan(FaultPlan::default());
    }
    for _ in 0..3 {
        t += TD_NS;
        tb.sim.run_until(t.max(clock.now()));
        for i in 0..n {
            let now = clock.now();
            if now > t {
                tb.sim.run_until(now);
            }
            if let Err(e) = tb.agents[i].borrow_mut().dialogue_iteration() {
                out.violations.push(viol(
                    "convergence",
                    format!("switch {i}: post-quiescence iteration failed: {e}"),
                ));
            }
        }
    }
    tb.sim.run_until(HORIZON_NS);

    // Oracle: config atomicity — no pipe left behind by a torn apply.
    for (i, a) in tb.agents.iter().enumerate() {
        if let Err(detail) = a.borrow_mut().verify_config_atomicity() {
            out.violations
                .push(viol("config-atomicity", format!("switch {i}: {detail}")));
        }
    }
    // Oracle: counter conservation — with all sources stopped and queues
    // drained, every received packet is transmitted or attributed to a
    // drop counter.
    for i in 0..n {
        let sw = tb.sim.switch_at(i).borrow();
        let s = &sw.stats;
        let accounted = s.tx + s.dropped_ingress + s.dropped_port_down + s.dropped_queue;
        if s.rx != accounted {
            out.violations.push(viol(
                "counter-conservation",
                format!(
                    "switch {i}: rx {} != tx {} + dropped {}",
                    s.rx,
                    s.tx,
                    accounted - s.tx
                ),
            ));
        }
    }
    for (leaf, evs) in tb.events.iter().enumerate() {
        for ev in evs.borrow().iter() {
            out.detections.push((leaf, ev.detected_ns, ev.neighbor));
        }
    }
    // Oracle: convergence to the fault-free configuration.
    out.entry_fps = tb
        .agents
        .iter()
        .map(|a| a.borrow().entry_fingerprint())
        .collect();
    if out.comparable {
        if let Some(base) = baseline {
            for (i, (got, want)) in out.entry_fps.iter().zip(base.iter()).enumerate() {
                if got != want {
                    out.violations.push(viol(
                        "convergence",
                        format!("switch {i}: entry fingerprint {got:#x} != fault-free {want:#x}"),
                    ));
                }
            }
        }
    }
    out
}

/// Outcome of one mastership chaos trial.
#[derive(Clone, Debug, Default)]
pub struct MastershipTrialOutcome {
    /// Injected controller-process crashes observed.
    pub crashes: u64,
    /// Crash-recovery reconciliations both controllers performed.
    pub recoveries: u64,
    /// Mastership handovers between the two controllers.
    pub failovers: u64,
    pub violations: Vec<(String, String)>,
}

fn ctl_compiled() -> Compiled {
    compile_source(CHAOS_CTL_P4R, &CompilerOptions::default()).expect("chaos control program")
}

/// Run one mastership chaos trial: two controllers, one 2-pipe switch,
/// the plan's control events armed on the primary's channels only (the
/// standby stays clean so the single-master oracle watches a live
/// failover target).
pub fn mastership_trial(plan: &ChaosPlan) -> MastershipTrialOutcome {
    let comp = ctl_compiled();
    let spec = mantis::rmt_sim::load(&comp.p4).expect("chaos control spec loads");
    let clock = Clock::new();
    let switch = SharedSwitch::new(Switch::new(
        spec,
        SwitchConfig {
            num_pipes: 2,
            ..SwitchConfig::default()
        },
        clock.clone(),
    ));
    let plane = ControlPlane::shared(switch.clone(), CostModel::default());
    let chan = ChannelConfig::with_rtt(1_000);
    let mut primary = Controller::new(ControllerConfig::new(1, LEASE_NS, chan));
    let mut standby = Controller::new(ControllerConfig::new(2, LEASE_NS, chan));
    primary.add_switch(plane.clone(), comp.clone());
    standby.add_switch(plane.clone(), comp);
    let device = plane;
    let setup = Rc::new(|_i: usize, agent: &mut MantisAgent| agent.register_all_interpreted());
    primary.set_agent_setup(setup.clone());
    standby.set_agent_setup(setup);
    primary.set_channel_fault_plan(plan.control_plan());

    let mut out = MastershipTrialOutcome::default();
    let mut last_master: Option<u16> = None;
    let mut both_master_rounds = 0u32;
    // `StepReport::crashed` is a level (the process is currently down),
    // not an event — count rising edges so `crashes` means crash events.
    let (mut p_down, mut s_down) = (false, false);
    for round in 0..CTL_ROUNDS {
        if round % 4 == 0 {
            // Traffic so the reaction has fresh measurements to commit.
            switch.borrow_mut().inject(
                &PacketDesc::new(0)
                    .field("h", "a", 1 + (round as u128 % 7))
                    .field("h", "b", 0)
                    .payload(64),
            );
        }
        // A step may legitimately error while partitioned; only crashes
        // and the oracles below are scored.
        let rp = primary.step();
        let rs = standby.step();
        for (r, was) in [(&rp, &mut p_down), (&rs, &mut s_down)] {
            let down = r.as_ref().map_or(*was, |rep| rep.crashed);
            if down && !*was {
                out.crashes += 1;
            }
            *was = down;
        }
        // Overlapping *beliefs* for one round are legal lease behavior:
        // a step inflated past the lease hands the next claim to the
        // standby while the ex-master hasn't renewed yet. The renew at
        // its very next step must correct the stale belief — two
        // consecutive both-master rounds mean arbitration is broken.
        if primary.is_master() && standby.is_master() {
            both_master_rounds += 1;
            if both_master_rounds >= 2 {
                out.violations.push(viol(
                    "single-master",
                    format!(
                        "round {round}: both controllers held mastership for \
                         {both_master_rounds} consecutive rounds"
                    ),
                ));
                break;
            }
        } else {
            both_master_rounds = 0;
        }
        let master = if primary.is_master() {
            Some(1u16)
        } else if standby.is_master() {
            Some(2)
        } else {
            None
        };
        if let (Some(m), Some(l)) = (master, last_master) {
            if m != l {
                out.failovers += 1;
            }
        }
        if master.is_some() {
            last_master = master;
        }
        clock.advance(CTL_TD_NS);
    }

    // Settle: under the same plans (a persistent sever keeps a
    // partitioned ex-primary away), exactly one controller must hold
    // mastership and commit an iteration.
    let mut settled = false;
    for _ in 0..CTL_SETTLE_ROUNDS {
        let rp = primary.step();
        let rs = standby.step();
        let committed =
            rp.as_ref().map_or(0, |r| r.iterations) + rs.as_ref().map_or(0, |r| r.iterations);
        for (r, was) in [(&rp, &mut p_down), (&rs, &mut s_down)] {
            let down = r.as_ref().map_or(*was, |rep| rep.crashed);
            if down && !*was {
                out.crashes += 1;
            }
            *was = down;
        }
        if (primary.is_master() ^ standby.is_master()) && committed > 0 {
            settled = true;
            break;
        }
        clock.advance(CTL_TD_NS);
    }
    if !settled {
        out.violations.push(viol(
            "mastership-convergence",
            "no single master committed an iteration after the chaos window".to_string(),
        ));
    } else {
        // The device's lease must name the controller that believes it
        // is master (the belief was just confirmed by a granted renew).
        let believed = if primary.is_master() { 1 } else { 2 };
        match device.borrow().master() {
            Some((id, _)) if id == believed => {}
            other => out.violations.push(viol(
                "single-master",
                format!(
                    "settled: controller {believed} believes it is master but \
                     the device lease is {other:?}"
                ),
            )),
        }
    }
    out.recoveries = primary.recoveries() + standby.recoveries();

    // Oracle: the surviving master's device view is pipe-atomic.
    let master = if primary.is_master() {
        Some(&mut primary)
    } else if standby.is_master() {
        Some(&mut standby)
    } else {
        None
    };
    if let Some(m) = master {
        for (i, agent) in m.agents_mut().iter_mut().enumerate() {
            if let Err(detail) = agent.verify_config_atomicity() {
                out.violations.push(viol(
                    "config-atomicity",
                    format!("ctl switch {i}: {detail}"),
                ));
            }
        }
    }
    out
}

/// Replay one (possibly shrunk) plan against every scenario it lowers
/// onto; the corpus regression tests call this on checked-in repro files.
pub fn replay(plan: &ChaosPlan) -> Vec<Violation> {
    let mut out = Vec::new();
    if plan.has_fabric_events() {
        let base = fabric_trial(&ChaosPlan::default(), None);
        let tr = fabric_trial(plan, Some(&base.entry_fps));
        out.extend(tr.violations.into_iter().map(|(oracle, detail)| Violation {
            seed: plan.seed,
            scenario: "fabric".to_string(),
            oracle,
            detail,
        }));
    }
    if plan.has_control_events() {
        let tr = mastership_trial(plan);
        out.extend(tr.violations.into_iter().map(|(oracle, detail)| Violation {
            seed: plan.seed,
            scenario: "mastership".to_string(),
            oracle,
            detail,
        }));
    }
    out
}

/// Everything `results/chaos.json` (and the `"chaos"` section of
/// `BENCH_perf.json`) reports.
#[derive(Clone, Debug, Serialize)]
pub struct ChaosSoakResult {
    pub seeds_run: u64,
    pub quick: bool,
    pub fabric_trials: u64,
    pub fabric_crashes: u64,
    pub fabric_restarts: u64,
    /// Mean virtual reconcile+reinstall time of a crash restart.
    pub mean_reconcile_ns: f64,
    pub max_reconcile_ns: u64,
    /// Trials whose schedule allowed the fingerprint-convergence oracle.
    pub fingerprint_checked: u64,
    pub mastership_trials: u64,
    pub ctl_crashes: u64,
    pub ctl_recoveries: u64,
    pub ctl_failovers: u64,
    pub violations: Vec<Violation>,
    /// Shrunk repro files written for failing seeds (none on a clean soak).
    pub corpus_written: Vec<String>,
}

fn corpus_path(seed: u64, scenario: &str) -> PathBuf {
    PathBuf::from("tests")
        .join("chaos_corpus")
        .join(format!("seed_{seed}_{scenario}.chaos"))
}

/// Shrink a failing plan and write the minimized repro to the corpus.
fn write_repro<F>(seed: u64, scenario: &str, plan: &ChaosPlan, fails: F) -> Option<String>
where
    F: FnMut(&ChaosPlan) -> bool,
{
    let min = shrink(plan, fails);
    let path = corpus_path(seed, scenario);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, min.to_text()) {
        Ok(()) => Some(path.display().to_string()),
        Err(_) => None,
    }
}

/// Run the chaos soak: `quick` (CI) trims the seed count.
pub fn run(quick: bool) -> ChaosSoakResult {
    let seeds: u64 = if quick { 8 } else { 200 };
    let baseline = fabric_trial(&ChaosPlan::default(), None);
    let base_fps = baseline.entry_fps.clone();

    let mut result = ChaosSoakResult {
        seeds_run: seeds,
        quick,
        fabric_trials: 0,
        fabric_crashes: 0,
        fabric_restarts: 0,
        mean_reconcile_ns: 0.0,
        max_reconcile_ns: 0,
        fingerprint_checked: 0,
        mastership_trials: 0,
        ctl_crashes: 0,
        ctl_recoveries: 0,
        ctl_failovers: 0,
        violations: baseline
            .violations
            .iter()
            .map(|(oracle, detail)| Violation {
                seed: u64::MAX,
                scenario: "baseline".to_string(),
                oracle: oracle.clone(),
                detail: detail.clone(),
            })
            .collect(),
        corpus_written: Vec::new(),
    };
    let mut reconcile_ns: Vec<u64> = Vec::new();

    for seed in 0..seeds {
        let plan = ChaosPlan::generate(seed, &gen_cfg());
        if plan.has_fabric_events() {
            let tr = fabric_trial(&plan, Some(&base_fps));
            result.fabric_trials += 1;
            result.fabric_crashes += tr.crashes;
            result.fabric_restarts += tr.restarts;
            reconcile_ns.extend(&tr.reconcile_ns);
            if tr.comparable {
                result.fingerprint_checked += 1;
            }
            if !tr.violations.is_empty() {
                for (oracle, detail) in &tr.violations {
                    result.violations.push(Violation {
                        seed,
                        scenario: "fabric".to_string(),
                        oracle: oracle.clone(),
                        detail: detail.clone(),
                    });
                }
                if let Some(p) = write_repro(seed, "fabric", &plan, |cand| {
                    !fabric_trial(cand, Some(&base_fps)).violations.is_empty()
                }) {
                    result.corpus_written.push(p);
                }
            }
        }
        if plan.has_control_events() {
            let tr = mastership_trial(&plan);
            result.mastership_trials += 1;
            result.ctl_crashes += tr.crashes;
            result.ctl_recoveries += tr.recoveries;
            result.ctl_failovers += tr.failovers;
            if !tr.violations.is_empty() {
                for (oracle, detail) in &tr.violations {
                    result.violations.push(Violation {
                        seed,
                        scenario: "mastership".to_string(),
                        oracle: oracle.clone(),
                        detail: detail.clone(),
                    });
                }
                if let Some(p) = write_repro(seed, "mastership", &plan, |cand| {
                    !mastership_trial(cand).violations.is_empty()
                }) {
                    result.corpus_written.push(p);
                }
            }
        }
    }

    if !reconcile_ns.is_empty() {
        result.mean_reconcile_ns =
            reconcile_ns.iter().sum::<u64>() as f64 / reconcile_ns.len() as f64;
        result.max_reconcile_ns = reconcile_ns.iter().copied().max().unwrap_or(0);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_fabric_trial_upholds_every_oracle() {
        let base = fabric_trial(&ChaosPlan::default(), None);
        assert!(base.violations.is_empty(), "{:?}", base.violations);
        assert_eq!(base.crashes, 0);
        assert!(base.comparable);
        // Fault-free is self-consistent: replaying against its own
        // fingerprints matches.
        let again = fabric_trial(&ChaosPlan::default(), Some(&base.entry_fps));
        assert!(again.violations.is_empty(), "{:?}", again.violations);
    }

    #[test]
    fn crashed_agent_reconciles_and_converges_to_baseline() {
        let base = fabric_trial(&ChaosPlan::default(), None);
        let plan = ChaosPlan {
            seed: 0,
            events: vec![
                ChaosEvent::Crash {
                    switch: 0,
                    at_op: 40,
                },
                ChaosEvent::Crash {
                    switch: 2,
                    at_op: 48,
                },
            ],
        };
        let tr = fabric_trial(&plan, Some(&base.entry_fps));
        assert!(tr.violations.is_empty(), "{:?}", tr.violations);
        assert!(tr.crashes >= 2, "crashes {}", tr.crashes);
        assert_eq!(tr.restarts, tr.crashes, "every crash recovered");
        assert!(!tr.reconcile_ns.is_empty());
        assert!(tr.comparable);
        assert_eq!(tr.entry_fps, base.entry_fps);
    }

    #[test]
    fn flapped_trial_is_not_fingerprint_comparable_but_stays_atomic() {
        let base = fabric_trial(&ChaosPlan::default(), None);
        let plan = ChaosPlan {
            seed: 0,
            events: vec![ChaosEvent::Flap {
                switch: 0,
                port: u32::from(mantis::netsim::HOST_PORTS),
                down_ns: 200_000,
                up_ns: 600_000,
            }],
        };
        let tr = fabric_trial(&plan, Some(&base.entry_fps));
        assert!(!tr.comparable);
        assert!(tr.violations.is_empty(), "{:?}", tr.violations);
    }

    #[test]
    fn mastership_survives_sever_and_controller_crash() {
        // Fault-free first.
        let clean = mastership_trial(&ChaosPlan::default());
        assert!(clean.violations.is_empty(), "{:?}", clean.violations);
        assert_eq!(clean.failovers, 0);

        // A persistent sever forces exactly one failover to the standby.
        let severed = mastership_trial(&ChaosPlan {
            seed: 0,
            events: vec![ChaosEvent::Sever { at_ns: 400_000 }],
        });
        assert!(severed.violations.is_empty(), "{:?}", severed.violations);
        assert!(severed.failovers >= 1, "no failover: {severed:?}");

        // A controller crash is recovered by reconciliation.
        let crashed = mastership_trial(&ChaosPlan {
            seed: 0,
            events: vec![ChaosEvent::CtlCrash { at_op: 30 }],
        });
        assert!(crashed.violations.is_empty(), "{:?}", crashed.violations);
        assert!(crashed.crashes >= 1, "crash never fired: {crashed:?}");
        assert!(crashed.recoveries >= 1, "no reconcile: {crashed:?}");
    }

    #[test]
    fn seeded_trials_are_deterministic() {
        let base = fabric_trial(&ChaosPlan::default(), None);
        let plan = ChaosPlan::generate(11, &gen_cfg());
        let a = fabric_trial(&plan, Some(&base.entry_fps));
        let b = fabric_trial(&plan, Some(&base.entry_fps));
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(a.reconcile_ns, b.reconcile_ns);
        assert_eq!(a.entry_fps, b.entry_fps);
        assert_eq!(a.violations, b.violations);
    }
}
