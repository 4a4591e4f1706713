//! One registry lock per unit of work (DESIGN.md §6): everything an
//! agent's stack records — the loop's spans and figures, the driver's ops,
//! and over the wire the channel's frames and the plane-side driver's ops —
//! goes into the one buffer the agent owns, and reaches the registry in one
//! flush as the entry point returns.
//!
//! * Each of the four use-case programs, on the in-process driver and on
//!   `DriverMode::Remote`: every `dialogue_iteration()` — quiescent or
//!   committing — takes the registry lock exactly once, and what it
//!   recorded is all there when it returns.
//! * Two controllers sharing one `ControlPlane`: the plane records each
//!   frame into the buffer of the controller that sent it, so after either
//!   one's iteration that controller's registry holds exactly the driver
//!   ops the plane carried out meanwhile — none left in, or leaked to, the
//!   other's.

use mantis::apps::programs::{DOS_P4R, ECMP_P4R, FAILOVER_P4R, RL_P4R};
use mantis::mantis_agent::DriverApi;
use mantis::p4r_compiler::{compile_source, CompilerOptions};
use mantis::rmt_sim::PacketDesc;
use mantis::{
    ChannelConfig, Clock, ControlPlane, CostModel, DriverMode, MantisAgent, RemoteDriver,
    SharedSwitch, Switch, SwitchConfig, Telemetry, Testbed,
};
use std::sync::Arc;

/// Ops the device driver accounted, summed over `driver.<op>_calls`.
fn driver_calls(tel: &Telemetry) -> i128 {
    let snap = tel.snapshot();
    let calls = snap.counters.iter();
    let calls = calls.filter(|(k, _)| k.starts_with("driver.") && k.ends_with("_calls"));
    calls.map(|(_, v)| *v).sum()
}

fn eth_ipv4(port: u16, src: u128, payload: u32) -> PacketDesc {
    PacketDesc::new(port)
        .field("ethernet", "ether_type", 0x0800)
        .field("ipv4", "src_addr", src)
        .field("ipv4", "dst_addr", 0x0a00_0002)
        .field("ipv4", "protocol", 17)
        .payload(payload)
}

#[test]
fn an_iteration_takes_the_registry_lock_once_on_both_drivers() {
    let wire = ChannelConfig::with_rtt(10_000);
    let modes = [
        ("local", DriverMode::Local),
        ("remote", DriverMode::Remote(wire)),
    ];
    let programs = [
        ("dos", DOS_P4R),
        ("ecmp", ECMP_P4R),
        ("failover", FAILOVER_P4R),
        ("rl", RL_P4R),
    ];
    for ((program, src), (driver, mode)) in programs.iter().flat_map(|p| modes.map(|m| (*p, m))) {
        let name = format!("{program} ({driver})");
        let config = SwitchConfig::default();
        let tb = Testbed::with_config_mode(src, config, CostModel::default(), mode)
            .expect("program compiles");
        if program == "rl" {
            let mut sw = tb.sim.switch().borrow_mut();
            sw.bind_queue_depth_register("qdepths").expect("qdepths");
        }
        let mut agent = tb.agent.borrow_mut();
        agent.register_all_interpreted().expect("registers");
        let (mut quiescent, mut committing) = (0, 0);
        for i in 0..200u32 {
            // Traffic on some rounds only: both kinds of iteration occur.
            if i % 3 == 0 {
                let mut sw = tb.sim.switch().borrow_mut();
                let host = 0x0a00_0010 + u128::from(i % 5);
                sw.inject(&eth_ipv4((i % 4) as u16, host, 200 + i));
                sw.pump();
                sw.take_transmitted();
            }
            let flushes = agent.telemetry_flushes();
            let (iterations, ops) = (
                tb.telemetry.counter("agent.iterations"),
                driver_calls(&tb.telemetry),
            );
            let report = agent.dialogue_iteration().expect("iteration commits");
            assert_eq!(
                agent.telemetry_flushes() - flushes,
                1,
                "{name}: iteration {i} ({} staged ops)",
                report.staged_table_ops
            );
            // Nothing is left waiting: read through the testbed's handle.
            assert_eq!(tb.telemetry.counter("agent.iterations"), iterations + 1);
            assert!(driver_calls(&tb.telemetry) > ops, "{name}: iteration {i}");
            if report.update_ns + report.sync_ns == 0 {
                quiescent += 1;
            } else {
                committing += 1;
            }
        }
        assert!(quiescent > 100, "{name}: {quiescent} quiescent iterations");
        // (RL commits on a third of these rounds, failover once.)
        assert!(
            committing > 0 || matches!(program, "dos" | "ecmp"),
            "{name}"
        );
    }
}

const COUNTER_P4R: &str = r#"
header_type h_t { fields { a : 32; } }
header h_t h;
register seen { width : 64; instance_count : 4; }
malleable value knob { width : 32; init : 0; }
action tally() { count(seen, 0); }
table t { actions { tally; } default_action : tally(); }
reaction watch(reg seen[0:0]) { ${knob} = seen[0]; }
control ingress { apply(t); }
"#;

#[test]
fn a_shared_plane_records_each_frame_in_its_senders_buffer() {
    // Once with a registry per controller, once with one registry for both.
    for shared in [false, true] {
        let comp = compile_source(COUNTER_P4R, &CompilerOptions::default()).expect("compiles");
        let spec = mantis::rmt_sim::load(&comp.p4).expect("loads");
        let switch = SharedSwitch::new(Switch::new(spec, SwitchConfig::default(), Clock::new()));
        let plane = ControlPlane::shared(switch.clone(), CostModel::default());
        let one = Telemetry::shared();
        let controller = || -> (MantisAgent, Arc<Telemetry>) {
            let driver = RemoteDriver::new(plane.clone(), ChannelConfig::with_rtt(1_000));
            let mut agent = MantisAgent::with_driver(&comp, Box::new(driver));
            let tel = if shared {
                one.clone()
            } else {
                Telemetry::shared()
            };
            agent.set_telemetry(tel.clone());
            (agent, tel)
        };
        let (mut a, tel_a) = controller();
        let (mut b, tel_b) = controller();
        a.prologue().expect("boots the switch");
        b.adopt().expect("takes the booted switch over");
        for agent in [&mut a, &mut b] {
            agent.register_all_interpreted().expect("registers");
        }
        let device_ops = || plane.borrow().driver().stats().ops as i128;
        for round in 0..6u32 {
            switch
                .borrow_mut()
                .inject(&PacketDesc::new(0).field("h", "a", 7).payload(64));
            for (agent, mine, theirs) in [(&mut a, &tel_a, &tel_b), (&mut b, &tel_b, &tel_a)] {
                let before = (driver_calls(mine), driver_calls(theirs), device_ops());
                agent.dialogue_iteration().expect("iteration commits");
                let carried = device_ops() - before.2;
                assert!(carried > 0);
                assert_eq!(
                    driver_calls(mine) - before.0,
                    carried,
                    "round {round}, shared registry: {shared}"
                );
                if !shared {
                    assert_eq!(driver_calls(theirs), before.1, "round {round}");
                }
            }
        }
    }
}
