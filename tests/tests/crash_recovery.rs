//! Crash-restart recovery (DESIGN.md §13): an agent killed at an
//! *arbitrary* driver op — any dialogue phase, including between two
//! per-pipe commits — must come back via [`MantisAgent::reconcile`] with
//! the device's authoritative state adopted, any torn apply repaired,
//! and converge to the exact configuration a never-crashed run reaches.
//!
//! All tests run on 2-pipe switches so the torn-apply surface (a crash
//! between pipe 0's and pipe 1's commit) is live, and every testbed runs
//! once per driver mode: in process, and over the wire at zero RTT.

use std::rc::Rc;

use integration_tests::{driver_modes, testbed};
use mantis::p4_ast::Value;
use mantis::p4r_compiler::entry::LogicalKey;
use mantis::rmt_sim::PacketDesc;
use mantis::{
    compile_source, ChannelConfig, Clock, CompilerOptions, ControlPlane, Controller,
    ControllerConfig, CostModel, DriverMode, FaultOp, FaultPlan, FaultWindow, MantisAgent,
    SharedSwitch, Switch, SwitchConfig, Testbed,
};

const PROG: &str = r#"
header_type h_t { fields { a : 32; b : 32; } }
header h_t h;
malleable value knob { width : 32; init : 0; }
action fwd(port) { modify_field(intr.egress_spec, port); }
action nop() { no_op(); }
malleable table acl {
    reads { h.b : exact; }
    actions { fwd; nop; }
    size : 64;
}
table t { actions { nop; } default_action : nop(); }
reaction watch(ing h.a) { ${knob} = h_a + 1; }
control ingress { apply(acl); apply(t); }
"#;

/// The run's durable configuration: four ACL routes. The reaction only
/// rewrites `${knob}` (soft state that re-converges from measurements),
/// so entries come solely from here and the cross-run entry fingerprints
/// are comparable.
fn install_entries(tb: &Testbed) {
    tb.agent
        .borrow_mut()
        .user_init(|ctx| {
            for i in 0..4u128 {
                ctx.table_add(
                    "acl",
                    vec![LogicalKey::Exact(Value::new(i, 32))],
                    0,
                    "fwd",
                    vec![Value::new(i % 3 + 1, 9)],
                )?;
            }
            Ok(())
        })
        .expect("install acl entries");
}

fn build(mode: DriverMode) -> Testbed {
    let tb = testbed(PROG, 2, mode).expect("program compiles");
    tb.agent
        .borrow_mut()
        .register_all_interpreted()
        .expect("reactions register");
    install_entries(&tb);
    tb
}

fn inject(tb: &Testbed, k: u64) {
    tb.sim.switch().borrow_mut().inject(
        &PacketDesc::new(0)
            .field("h", "a", u128::from(k % 7) + 1)
            .field("h", "b", u128::from(k % 4))
            .payload(64),
    );
}

/// The supervisor restarts the process: clean fault plan, reconcile device
/// state, then what every fresh process does — register the reactions
/// (`reconcile` dropped the dead process's) and re-run the durable user
/// init.
fn restart(tb: &Testbed) {
    let mut agent = tb.agent.borrow_mut();
    agent.set_fault_plan(FaultPlan::default());
    agent.reconcile().expect("reconcile");
    agent
        .register_all_interpreted()
        .expect("reactions re-register");
    drop(agent);
    install_entries(tb);
}

/// Drive `iters` successful dialogue iterations, restarting through
/// `reconcile` + re-setup whenever the injected crash fires. Returns
/// whether the crash fired.
fn drive(tb: &Testbed, iters: usize) -> bool {
    let mut crashed = false;
    let mut done = 0;
    let mut k = 0u64;
    while done < iters {
        k += 1;
        inject(tb, k);
        let r = tb.agent.borrow_mut().dialogue_iteration();
        match r {
            Ok(_) => done += 1,
            Err(e) if e.is_crash() => {
                crashed = true;
                restart(tb);
            }
            Err(e) => panic!("non-crash failure at k={k}: {e}"),
        }
    }
    crashed
}

fn entry_fp(tb: &Testbed) -> u64 {
    tb.agent.borrow().entry_fingerprint()
}

fn assert_recovered(tb: &Testbed, baseline_fp: u64, ctx: &str) {
    let mut agent = tb.agent.borrow_mut();
    agent
        .verify_config_atomicity()
        .unwrap_or_else(|d| panic!("{ctx}: torn apply survived recovery: {d}"));
    let vv = agent.vv();
    assert!(
        agent.vv_per_pipe().iter().all(|&v| v == vv),
        "{ctx}: per-pipe version bits diverged: {:?}",
        agent.vv_per_pipe()
    );
    assert_eq!(
        agent.entry_fingerprint(),
        baseline_fp,
        "{ctx}: recovered config differs from the never-crashed run"
    );
}

/// ≥25 crash points spanning every dialogue phase across several
/// iterations (measure reads, reaction commits, the two per-pipe master
/// commits, flush): each run must converge to the fault-free fingerprint.
#[test]
fn crash_at_every_dialogue_phase_recovers_to_fault_free_state() {
    for mode in driver_modes() {
        let baseline = build(mode);
        assert!(!drive(&baseline, 10));
        let base_fp = entry_fp(&baseline);

        let mut fired = 0;
        for at_op in (1..=50).step_by(2) {
            let tb = build(mode);
            tb.agent
                .borrow_mut()
                .set_fault_plan(FaultPlan::default().crash_at_op(at_op));
            if drive(&tb, 10) {
                fired += 1;
            }
            assert_recovered(&tb, base_fp, &format!("crash at op {at_op}, {mode:?}"));
        }
        // Every op index inside ten iterations' worth of driver traffic
        // must actually have killed the agent once.
        assert_eq!(fired, 25, "{mode:?}: some crash points never fired");
    }
}

/// A crash can land between pipe 0's and pipe 1's commit, leaving the
/// device observably torn. `reconcile` must detect it and roll the stale
/// pipe *forward* (pipe 0 always carries the newest state).
#[test]
fn torn_apply_is_observed_and_rolled_forward() {
    for mode in driver_modes() {
        let mut torn_seen = 0;
        for at_op in 1..=40 {
            let tb = build(mode);
            tb.agent
                .borrow_mut()
                .set_fault_plan(FaultPlan::default().crash_at_op(at_op));
            let mut k = 0u64;
            let crash = loop {
                k += 1;
                if k > 60 {
                    break false;
                }
                inject(&tb, k);
                match tb.agent.borrow_mut().dialogue_iteration() {
                    Ok(_) => {}
                    Err(e) if e.is_crash() => break true,
                    Err(e) => panic!("non-crash failure: {e}"),
                }
            };
            assert!(crash, "crash at op {at_op} never fired, {mode:?}");
            // Device-side probe before recovery: is the config torn?
            let torn = tb.agent.borrow_mut().verify_config_atomicity().is_err();
            if torn {
                torn_seen += 1;
            }
            let mut agent = tb.agent.borrow_mut();
            agent.set_fault_plan(FaultPlan::default());
            agent.reconcile().expect("reconcile repairs the tear");
            agent
                .verify_config_atomicity()
                .unwrap_or_else(|d| panic!("crash at op {at_op}: tear survived reconcile: {d}"));
            let vv = agent.vv();
            assert!(
                agent.vv_per_pipe().iter().all(|&v| v == vv),
                "crash at op {at_op}: vv not uniform after reconcile"
            );
        }
        // The sweep crosses the inter-pipe commit gap at least once.
        assert!(
            torn_seen >= 1,
            "{mode:?}: no crash point ever produced an observable torn apply"
        );
    }
}

/// A restarted process is a *fresh* agent attaching to a live switch: no
/// prologue, just `reconcile`. It must adopt the device's version vector
/// and committed slots, and after re-running the durable init reach the
/// dead agent's exact configuration — then keep the dialogue going.
#[test]
fn fresh_agent_reconciles_onto_live_switch() {
    for mode in driver_modes() {
        let tb = build(mode);
        assert!(!drive(&tb, 5));
        let (fp, vv, knob) = {
            let a = tb.agent.borrow();
            (a.entry_fingerprint(), a.vv(), a.slot("knob"))
        };

        // The old process dies; a new one attaches to the same switch.
        let mut fresh =
            MantisAgent::new(tb.sim.switch().clone(), &tb.compiled, CostModel::default());
        fresh.reconcile().expect("fresh reconcile");
        assert_eq!(fresh.vv(), vv, "device version vector not adopted");
        assert_eq!(fresh.slot("knob"), knob, "committed slot not adopted");

        fresh
            .register_all_interpreted()
            .expect("reactions re-register");
        fresh
            .user_init(|ctx| {
                for i in 0..4u128 {
                    ctx.table_add(
                        "acl",
                        vec![LogicalKey::Exact(Value::new(i, 32))],
                        0,
                        "fwd",
                        vec![Value::new(i % 3 + 1, 9)],
                    )?;
                }
                Ok(())
            })
            .expect("durable init re-runs");
        assert_eq!(fresh.entry_fingerprint(), fp, "config not re-reached");

        // The dialogue continues from the adopted state.
        inject(&tb, 99);
        fresh.dialogue_iteration().expect("dialogue resumes");
        fresh
            .verify_config_atomicity()
            .expect("atomic after resumed dialogue");
    }
}

/// Repeated crashes — every restart is itself killed a few ops in — must
/// still end in a converged, atomic configuration once the faults stop.
#[test]
fn repeated_crash_restart_cycles_converge() {
    for mode in driver_modes() {
        let baseline = build(mode);
        assert!(!drive(&baseline, 8));
        let base_fp = entry_fp(&baseline);

        let tb = build(mode);
        let mut crashes = 0;
        let mut k = 0u64;
        let mut done = 0;
        // Arm a fresh crash a few ops ahead after every restart, five times.
        tb.agent
            .borrow_mut()
            .set_fault_plan(FaultPlan::default().crash_at_op(7));
        while done < 8 {
            k += 1;
            inject(&tb, k);
            let r = tb.agent.borrow_mut().dialogue_iteration();
            match r {
                Ok(_) => done += 1,
                Err(e) if e.is_crash() => {
                    crashes += 1;
                    restart(&tb);
                    // Arm the next kill only after recovery finishes: ops are
                    // counted (not injected) while faults are suspended, so a
                    // window set before `reconcile` would be consumed silently.
                    if crashes < 5 {
                        tb.agent
                            .borrow_mut()
                            .set_fault_plan(FaultPlan::default().crash_at_op(5 + crashes));
                    }
                }
                Err(e) => panic!("non-crash failure: {e}"),
            }
            assert!(
                k < 200,
                "never converged: {crashes} crashes, {done} iterations"
            );
        }
        assert!(crashes >= 5, "only {crashes} crashes fired");
        assert_recovered(&tb, base_fp, "after repeated crash cycles");
    }
}

/// The failover race: while the primary is partitioned away, the standby
/// is killed *during* its takeover (once on the arbitration channel
/// mid-claim, once on the driver channel mid-adopt — both channels carry
/// the same plan with independent op counters). The standby's next claim
/// must route through `reconcile`, repair whatever the dead takeover left
/// behind, and finish as the sole master of an atomic configuration.
#[test]
fn standby_crash_during_adoption_recovers_and_masters() {
    const LEASE_NS: u64 = 300_000;
    const SEVER_AT_NS: u64 = 400_000;

    let comp = compile_source(PROG, &CompilerOptions::default()).expect("program compiles");
    let spec = mantis::rmt_sim::load(&comp.p4).expect("spec loads");
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
    let setup = Rc::new(|_i: usize, agent: &mut MantisAgent| agent.register_all_interpreted());
    primary.set_agent_setup(setup.clone());
    standby.set_agent_setup(setup);

    // Primary: severed from SEVER_AT_NS on (unscoped rule — the
    // arbitration channel carries no switch id, so the scoped
    // `sever_control` builder would miss it).
    primary.set_channel_fault_plan(FaultPlan::default().fail_persistent(
        FaultOp::Control,
        FaultWindow::Time {
            lo: SEVER_AT_NS,
            hi: u64::MAX,
        },
    ));
    // Standby: killed at channel op 6 — fires on the arbitration channel
    // during an early denied claim, and again on the driver channel six
    // frames into the post-failover adopt.
    standby.set_channel_fault_plan(FaultPlan::default().crash_at_op(6));

    let mut settled = 0;
    for round in 0..600 {
        if round % 4 == 0 {
            switch.borrow_mut().inject(
                &PacketDesc::new(0)
                    .field("h", "a", 1 + (round as u128 % 7))
                    .field("h", "b", 0)
                    .payload(64),
            );
        }
        // Steps may error while partitioned or crashed; mastership and
        // recovery are asserted below, not per step.
        let _ = primary.step();
        let _ = standby.step();
        if standby.is_master() && standby.recoveries() >= 1 {
            settled = round;
            break;
        }
    }
    assert!(
        standby.is_master(),
        "standby never took over (recoveries={})",
        standby.recoveries()
    );
    assert!(
        standby.recoveries() >= 1,
        "standby mastered without going through reconcile"
    );
    assert!(
        !primary.is_master(),
        "severed primary still claims mastership"
    );
    assert!(settled > 0, "takeover happened before the sever could fire");

    // A few clean rounds, then the adopted device must be atomic.
    for round in 0..8 {
        if round % 4 == 0 {
            switch.borrow_mut().inject(
                &PacketDesc::new(0)
                    .field("h", "a", 1 + (round as u128 % 7))
                    .field("h", "b", 0)
                    .payload(64),
            );
        }
        let _ = standby.step();
    }
    standby.agents_mut()[0]
        .verify_config_atomicity()
        .expect("post-takeover config is atomic");
}

/// A controller restart re-runs the agent setup on the *same* agent
/// object. The dead process's registrations must not survive beside the
/// new ones: after recovery every reaction runs exactly once per
/// iteration, and an interpreted reaction's `static` starts over from its
/// initialiser, as it does in any fresh process.
#[test]
fn restart_runs_each_reaction_once_and_resets_its_statics() {
    const TWO_REACTIONS: &str = r#"
header_type h_t { fields { a : 32; b : 32; } }
header h_t h;
malleable value knob { width : 32; init : 0; }
action nop() { no_op(); }
table t { actions { nop; } default_action : nop(); }
reaction count(ing h.a) { }
reaction tick(ing h.b) { static uint32_t n = 0; n = n + 1; ${knob} = n; }
control ingress { apply(t); }
"#;
    let comp = compile_source(TWO_REACTIONS, &CompilerOptions::default()).expect("compiles");
    let spec = mantis::rmt_sim::load(&comp.p4).expect("spec loads");
    let config = SwitchConfig {
        num_pipes: 2,
        ..SwitchConfig::default()
    };
    let switch = SharedSwitch::new(Switch::new(spec, config, Clock::new()));
    let plane = ControlPlane::shared(switch, CostModel::default());
    let chan = ChannelConfig::with_rtt(1_000);
    let mut ctl = Controller::new(ControllerConfig::new(1, 300_000, chan));
    ctl.add_switch(plane, comp);
    let runs = Rc::new(std::cell::Cell::new(0u32));
    let counter = runs.clone();
    ctl.set_agent_setup(Rc::new(move |_i: usize, agent: &mut MantisAgent| {
        agent.register_all_interpreted()?;
        // Registering `count` again replaces the interpreted body just
        // registered for it, in place.
        let runs = counter.clone();
        let counting = move |_: &mut mantis::ReactionCtx<'_>| {
            runs.set(runs.get() + 1);
            Ok(())
        };
        agent.register_native("count", Box::new(counting))
    }));
    // Killed at channel op 60: on the driver channel that is mid-dialogue,
    // a few iterations in, with the `static` already counting.
    ctl.set_channel_fault_plan(FaultPlan::default().crash_at_op(60));

    let mut knob_before_crash = 0;
    for _ in 0..200 {
        if ctl.recoveries() >= 1 && ctl.is_master() {
            break;
        }
        if !ctl.is_crashed() && !ctl.agents().is_empty() {
            knob_before_crash = ctl.agents()[0].slot("knob").expect("knob");
        }
        let _ = ctl.step();
    }
    assert!(ctl.is_master() && ctl.recoveries() >= 1, "never recovered");
    assert!(
        knob_before_crash >= 2,
        "the static never counted before the crash"
    );

    // The step that recovered also ran the first iteration of the new life.
    let first = ctl.agents()[0].slot("knob").expect("knob");
    assert_eq!(first, 1, "the static did not restart from its initialiser");
    let counted = runs.get();
    for k in 1..=5 {
        let report = ctl.step().expect("clean step");
        assert_eq!((report.iterations, report.failures), (1, 0));
        assert_eq!(runs.get(), counted + k, "`count` ran more than once");
        let knob = ctl.agents()[0].slot("knob").expect("knob");
        assert_eq!(knob, i128::from(1 + k), "`tick` ran more than once");
    }
}

/// `reconcile` is idempotent over the static prologue entries. The
/// field-list load tables are sized `alts × 2`, so a recovery that re-adds
/// their selectors without looking doubles them once and fails for good —
/// `table full` — the second time. Three crash-restarts in a row must each
/// succeed, leave exactly one entry per selector, and leave the selectors
/// working: a field shift committed afterwards still moves the hash input.
#[test]
fn repeated_reconciles_keep_one_prologue_entry_per_selector() {
    use mantis::apps::programs::ECMP_P4R;
    use mantis::p4_ast::Pipeline;

    for mode in driver_modes() {
        let tb = testbed(ECMP_P4R, 2, mode).expect("ecmp compiles");
        let selectors = tb.compiled.iface.prologue_entries.clone();
        assert_eq!(selectors.len(), 4, "two load tables of two selectors");
        for round in 1..=3 {
            let mut agent = tb.agent.borrow_mut();
            agent
                .reconcile()
                .unwrap_or_else(|e| panic!("reconcile #{round}: {e}"));
            agent
                .register_all_interpreted()
                .expect("reactions re-register");
            agent
                .dialogue_iteration()
                .unwrap_or_else(|e| panic!("iteration after reconcile #{round}: {e}"));
        }
        {
            let sw = tb.sim.switch().borrow();
            for table in ["p4r_load_hash_a_", "p4r_load_hash_b_"] {
                let want = selectors.iter().filter(|pe| pe.table == table).count();
                let id = sw.table_id(table).expect("load table");
                assert_eq!(sw.table_len(id), want, "entries in `{table}`");
            }
        }

        // Which ports do packets differing only in `vary` hash to?
        let ports_varying = |vary: &str| {
            let mut sw = tb.sim.switch().borrow_mut();
            let mut ports = std::collections::BTreeSet::new();
            for i in 0..32u128 {
                let field = |name: &str| if name == vary { 1_000 + i * 7_919 } else { 7 };
                let phv = PacketDesc::new(0)
                    .field("ethernet", "ether_type", 0x0800)
                    .field("ipv4", "src_addr", field("src_addr"))
                    .field("ipv4", "dst_addr", 9)
                    .field("ipv4", "protocol", 17)
                    .field("l4", "sport", field("sport"))
                    .field("l4", "dport", 11)
                    .build(sw.spec());
                let out = sw.run_pipeline(phv, Pipeline::Ingress);
                ports.insert(out.egress_spec(sw.spec()));
            }
            ports
        };
        // `hash_a` starts on ipv4.src_addr: the source address spreads
        // packets, the source port does not.
        assert!(ports_varying("src_addr").len() > 1);
        assert_eq!(ports_varying("sport").len(), 1);
        tb.agent
            .borrow_mut()
            .user_init(|ctx| ctx.shift_field("hash_a", 1))
            .expect("shift commits");
        // Shifted to l4.sport: now it is the other way round.
        assert_eq!(ports_varying("src_addr").len(), 1);
        assert!(ports_varying("sport").len() > 1);
    }
}
