//! Records land in program order (DESIGN.md §6): everything an agent's
//! stack records — the loop's spans and figures, the driver's ops, and over
//! the wire the channel's frames and the plane-side driver's ops — goes
//! into the registry of that stack as it happens.
//!
//! Two controllers sharing one `ControlPlane`: the plane records each frame
//! into the registry of the controller that sent it, so after either one's
//! iteration that controller's registry holds exactly the driver ops the
//! plane carried out meanwhile — none leaked to the other's.

use mantis::mantis_agent::DriverApi;
use mantis::p4r_compiler::{compile_source, CompilerOptions};
use mantis::rmt_sim::PacketDesc;
use mantis::{
    ChannelConfig, Clock, ControlPlane, CostModel, MantisAgent, RemoteDriver, SharedSwitch, Switch,
    SwitchConfig, Telemetry,
};
use std::sync::Arc;

/// Ops the device driver accounted, summed over `driver.<op>_calls`.
fn driver_calls(tel: &Telemetry) -> i128 {
    let snap = tel.snapshot();
    let calls = snap.counters.iter();
    let calls = calls.filter(|(k, _)| k.starts_with("driver.") && k.ends_with("_calls"));
    calls.map(|(_, v)| *v).sum()
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
fn a_shared_plane_records_each_frame_in_its_senders_registry() {
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
