//! End-to-end flows spanning every crate: P4R source → compiler → switch
//! simulator → agent → network simulator. Every testbed runs once per
//! driver mode: in process, and over the wire at zero RTT.

use integration_tests::{driver_modes, testbed};
use mantis::apps::programs::{DOS_P4R, ECMP_P4R, FAILOVER_P4R, RL_P4R};
use mantis::p4_ast;
use mantis::p4r_compiler::{compile_source, CompilerOptions};
use mantis::rmt_sim::PacketDesc;

const ALL_PROGRAMS: [(&str, &str); 4] = [
    ("dos", DOS_P4R),
    ("failover", FAILOVER_P4R),
    ("ecmp", ECMP_P4R),
    ("rl", RL_P4R),
];

#[test]
fn every_use_case_program_builds_a_testbed() {
    for mode in driver_modes() {
        for (name, src) in ALL_PROGRAMS {
            let tb = testbed(src, 1, mode).unwrap_or_else(|e| panic!("{name} {mode:?}: {e}"));
            // Every program has at least one reaction registered and runnable
            // through the interpreter.
            tb.agent
                .borrow_mut()
                .register_all_interpreted()
                .unwrap_or_else(|e| panic!("{name} {mode:?}: {e}"));
            tb.agent
                .borrow_mut()
                .dialogue_iteration()
                .unwrap_or_else(|e| panic!("{name} {mode:?}: {e}"));
        }
    }
}

#[test]
fn generated_p4_pretty_prints_and_reparses() {
    for (name, src) in ALL_PROGRAMS {
        let compiled = compile_source(src, &CompilerOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let printed = p4_ast::pretty::print_program(&compiled.p4);
        let reparsed = mantis::p4r_lang::parse_program(&printed)
            .unwrap_or_else(|e| panic!("{name} reparse: {e}"));
        // The reparsed program is structurally identical where it matters.
        assert_eq!(compiled.p4.tables.len(), reparsed.tables.len(), "{name}");
        assert_eq!(compiled.p4.actions.len(), reparsed.actions.len(), "{name}");
        assert_eq!(
            compiled.p4.registers.len(),
            reparsed.registers.len(),
            "{name}"
        );
        // And it still loads into the simulator.
        mantis::rmt_sim::load(&reparsed).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn control_interface_serializes_round_trip() {
    for (name, src) in ALL_PROGRAMS {
        let compiled = compile_source(src, &CompilerOptions::default()).unwrap();
        let json = serde_json::to_string(&compiled.iface).unwrap();
        let back: mantis::p4r_compiler::ControlInterface = serde_json::from_str(&json).unwrap();
        assert_eq!(compiled.iface, back, "{name}");
    }
}

#[test]
fn byte_level_packets_flow_through_compiled_dos_pipeline() {
    // Parse a raw Ethernet+IPv4 frame through the program's parser states,
    // run the pipeline, and deparse.
    let compiled = compile_source(DOS_P4R, &CompilerOptions::default()).unwrap();
    let spec = mantis::rmt_sim::load(&compiled.p4).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(&[0, 0, 0, 0, 0, 0xD0]); // dst
    frame.extend_from_slice(&[0xBB; 6]); // src
    frame.extend_from_slice(&[0x08, 0x00]);
    frame.extend_from_slice(&[0x45, 0, 0, 40, 0, 1, 0, 0, 64, 6, 0, 0]);
    frame.extend_from_slice(&[10, 0, 0, 1]);
    frame.extend_from_slice(&[10, 0, 0, 2]);
    frame.extend_from_slice(&[0u8; 20]);

    let phv = mantis::rmt_sim::parse::parse_packet(&spec, &frame, 1).unwrap();
    assert_eq!(
        phv.get(spec.field_id("ipv4", "src_addr").unwrap()).bits(),
        0x0a000001
    );
    let clock = mantis::Clock::new();
    let mut sw = mantis::Switch::new(spec, mantis::SwitchConfig::default(), clock);
    let out = sw.run_pipeline(phv, p4_ast::Pipeline::Ingress);
    // Default l2 action bounces to the ingress port.
    assert_eq!(out.egress_spec(sw.spec()), 1);
    let bytes = mantis::rmt_sim::parse::deparse_packet(sw.spec(), &out);
    assert_eq!(bytes.len(), frame.len());
}

#[test]
fn quickstart_flow_from_readme_works() {
    let src = r#"
header_type h_t { fields { a : 32; } }
header h_t h;
malleable value boost { width : 32; init : 5; }
action bump() { add_to_field(h.a, ${boost}); }
table t { actions { bump; } default_action : bump(); }
reaction tune(ing h.a) {
    if (h_a > 100) { ${boost} = 1; }
}
control ingress { apply(t); }
"#;
    for mode in driver_modes() {
        let tb = testbed(src, 1, mode).unwrap();
        tb.agent.borrow_mut().register_all_interpreted().unwrap();
        tb.sim
            .switch()
            .borrow_mut()
            .inject(&PacketDesc::new(0).field("h", "a", 200).payload(64));
        tb.agent.borrow_mut().dialogue_iteration().unwrap();
        assert_eq!(tb.agent.borrow().slot("boost"), Some(1));
    }
}

#[test]
fn reaction_swap_at_runtime() {
    // The paper's dynamic .so reload: replace a reaction implementation
    // without restarting the agent; statics in the new one start fresh.
    let src = r#"
header_type h_t { fields { a : 32; } }
header h_t h;
malleable value knob { width : 32; init : 0; }
action noop() { no_op(); }
table t { actions { noop; } default_action : noop(); }
reaction r(ing h.a) { ${knob} = 1; }
control ingress { apply(t); }
"#;
    for mode in driver_modes() {
        let tb = testbed(src, 1, mode).unwrap();
        tb.agent.borrow_mut().register_all_interpreted().unwrap();
        tb.agent.borrow_mut().dialogue_iteration().unwrap();
        assert_eq!(tb.agent.borrow().slot("knob"), Some(1));

        tb.agent
            .borrow_mut()
            .swap_reaction(
                "r",
                Box::new(|ctx: &mut mantis::ReactionCtx<'_>| ctx.set_mbl("knob", 42)),
            )
            .unwrap();
        tb.agent.borrow_mut().dialogue_iteration().unwrap();
        assert_eq!(tb.agent.borrow().slot("knob"), Some(42));
    }
}

#[test]
fn multiple_reactions_run_in_sequence() {
    let src = r#"
header_type h_t { fields { a : 32; } }
header h_t h;
malleable value x { width : 32; init : 0; }
malleable value y { width : 32; init : 0; }
action noop() { no_op(); }
table t { actions { noop; } default_action : noop(); }
reaction first(ing h.a) { ${x} = ${x} + 1; }
reaction second(ing h.a) { ${y} = ${x} * 10; }
control ingress { apply(t); }
"#;
    for mode in driver_modes() {
        let tb = testbed(src, 1, mode).unwrap();
        tb.agent.borrow_mut().register_all_interpreted().unwrap();
        tb.agent.borrow_mut().dialogue_iteration().unwrap();
        // `second` sees `first`'s staged write within the same dialogue (the
        // paper: reactions run sequentially; reads return the last written
        // value).
        assert_eq!(tb.agent.borrow().slot("x"), Some(1));
        assert_eq!(tb.agent.borrow().slot("y"), Some(10));
        tb.agent.borrow_mut().dialogue_iteration().unwrap();
        assert_eq!(tb.agent.borrow().slot("y"), Some(20));
    }
}

#[test]
fn masked_reaction_args_measure_masked_values() {
    // Fig. 3's `field_or_masked_ref`: `ing ipv4.src mask 0xffffff00`
    // measures the /24 prefix of the source, not the full address.
    let src = r#"
header_type ip_t { fields { src : 32; } }
header ip_t ip;
malleable value seen { width : 32; init : 0; }
action nop() { no_op(); }
table t { actions { nop; } default_action : nop(); }
reaction watch(ing ip.src mask 0xffffff00) {
    ${seen} = ip_src;
}
control ingress { apply(t); }
"#;
    for mode in driver_modes() {
        let tb = testbed(src, 1, mode).unwrap();
        tb.agent.borrow_mut().register_all_interpreted().unwrap();
        tb.sim.switch().borrow_mut().inject(
            &PacketDesc::new(0)
                .field("ip", "src", 0x0a0b0c0d)
                .payload(10),
        );
        tb.agent.borrow_mut().dialogue_iteration().unwrap();
        tb.sim.switch().borrow_mut().inject(
            &PacketDesc::new(0)
                .field("ip", "src", 0x0a0b0c0d)
                .payload(10),
        );
        tb.agent.borrow_mut().dialogue_iteration().unwrap();
        assert_eq!(tb.agent.borrow().slot("seen"), Some(0x0a0b0c00));
    }
}

#[test]
fn whole_header_reaction_arg_measures_every_field() {
    // Fig. 3's `header_ref`: `ing hdr flow` binds every field of `flow`.
    let src = r#"
header_type flow_t { fields { src : 32; dst : 32; proto : 8; } }
header flow_t flow;
malleable value sum { width : 32; init : 0; }
action nop() { no_op(); }
table t { actions { nop; } default_action : nop(); }
reaction watch(ing hdr flow) {
    ${sum} = flow_src + flow_dst + flow_proto;
}
control ingress { apply(t); }
"#;
    for mode in driver_modes() {
        let tb = testbed(src, 1, mode).unwrap();
        let binding = tb.compiled.iface.reaction("watch").unwrap();
        assert_eq!(binding.fields.len(), 3);
        tb.agent.borrow_mut().register_all_interpreted().unwrap();
        tb.sim.switch().borrow_mut().inject(
            &PacketDesc::new(0)
                .field("flow", "src", 100)
                .field("flow", "dst", 20)
                .field("flow", "proto", 3)
                .payload(10),
        );
        tb.agent.borrow_mut().dialogue_iteration().unwrap();
        assert_eq!(tb.agent.borrow().slot("sum"), Some(123));
        // Field-argument copies hold only what packets wrote during their
        // window (§4.2: "users should ensure that any necessary information is
        // retained across packets"): with no traffic during the next window,
        // the other copy reads back as empty.
        tb.agent.borrow_mut().dialogue_iteration().unwrap();
        assert_eq!(tb.agent.borrow().slot("sum"), Some(0));
    }
}
