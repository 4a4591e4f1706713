//! Failure-injection and error-path tests: the agent and compiler must
//! reject or surface bad inputs instead of corrupting data-plane state.
//! Every testbed runs once per driver mode: in process, and over the wire
//! at zero RTT.

use integration_tests::{driver_modes, testbed};
use mantis::p4_ast::Value;
use mantis::p4r_compiler::entry::LogicalKey;
use mantis::p4r_compiler::{compile, CompilerOptions};
use mantis::rmt_sim::PacketDesc;
use mantis::{AgentErrorKind, DriverMode, MantisAgent, SharedSwitch, Testbed};

const PROG: &str = r#"
header_type h_t { fields { a : 32; b : 32; } }
header h_t h;
malleable value knob { width : 8; init : 0; }
malleable field pick { width : 32; init : h.a; alts { h.a, h.b } }
action tag(v) { modify_field(h.b, v); }
action nop() { no_op(); }
table probe { actions { nop; } default_action : nop(); }
malleable table small {
    reads { ${pick} : exact; }
    actions { tag; nop; }
    size : 2;
}
reaction r(ing h.a) { ${knob} = h_a; }
control ingress { apply(small); apply(probe); }
"#;

fn build(mode: DriverMode) -> Testbed {
    testbed(PROG, 1, mode).unwrap()
}

#[test]
fn reaction_runtime_error_surfaces_and_does_not_wedge_the_agent() {
    let src = r#"
header_type h_t { fields { a : 32; } }
header h_t h;
malleable value k { width : 8; init : 0; }
action nop() { no_op(); }
table t { actions { nop; } default_action : nop(); }
reaction bad(ing h.a) { int x = 1 / (h_a - h_a); }
control ingress { apply(t); }
"#;
    for mode in driver_modes() {
        let tb = testbed(src, 1, mode).unwrap();
        tb.agent.borrow_mut().register_all_interpreted().unwrap();
        // Reaction failures are contained: the iteration succeeds and reports
        // the failure instead of aborting the loop.
        let rep = tb.agent.borrow_mut().dialogue_iteration().unwrap();
        assert_eq!(rep.reaction_failures.len(), 1);
        let failure = &rep.reaction_failures[0];
        assert_eq!(failure.name, "bad");
        assert!(
            failure.error.contains("react phase"),
            "failure should name the phase: {}",
            failure.error
        );
        // The agent is still usable: swap in a fixed reaction and continue.
        tb.agent
            .borrow_mut()
            .swap_reaction(
                "bad",
                Box::new(|ctx: &mut mantis::ReactionCtx<'_>| ctx.set_mbl("k", 7)),
            )
            .unwrap();
        tb.agent.borrow_mut().dialogue_iteration().unwrap();
        assert_eq!(tb.agent.borrow().slot("k"), Some(7));
    }
}

#[test]
fn table_capacity_exhaustion_reports_driver_error() {
    // `small` holds 2 logical entries → 2 (vv) × 2 (alts) = 4 phys each,
    // physical capacity 2 × 2 × 2 = 8. The third logical entry must fail
    // cleanly.
    for mode in driver_modes() {
        let tb = build(mode);
        for i in 0..2 {
            tb.agent
                .borrow_mut()
                .user_init(move |ctx| {
                    ctx.table_add(
                        "small",
                        vec![LogicalKey::Exact(Value::new(i, 32))],
                        0,
                        "tag",
                        vec![Value::new(1, 32)],
                    )?;
                    Ok(())
                })
                .unwrap();
        }
        let err = tb
            .agent
            .borrow_mut()
            .user_init(|ctx| {
                ctx.table_add(
                    "small",
                    vec![LogicalKey::Exact(Value::new(99, 32))],
                    0,
                    "tag",
                    vec![Value::new(1, 32)],
                )?;
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err.kind, AgentErrorKind::Driver(_)), "{err}");
        assert!(!err.is_transient(), "capacity exhaustion is permanent");
    }
}

#[test]
fn invalid_alt_index_rejected_before_staging() {
    for mode in driver_modes() {
        let tb = build(mode);
        let err = tb
            .agent
            .borrow_mut()
            .user_init(|ctx| {
                ctx.shift_field("pick", 5)?;
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err.kind, AgentErrorKind::Ctx(_)), "{err}");
        // Committed state unchanged.
        assert_eq!(tb.agent.borrow().slot("pick"), Some(0));
    }
}

#[test]
fn unknown_names_rejected() {
    for mode in driver_modes() {
        let tb = build(mode);
        let mut agent = tb.agent.borrow_mut();
        assert!(agent
            .user_init(|ctx| {
                ctx.set_mbl("ghost", 1)?;
                Ok(())
            })
            .is_err());
        assert!(agent
            .user_init(|ctx| {
                ctx.table_add("ghost", vec![], 0, "tag", vec![])?;
                Ok(())
            })
            .is_err());
        assert!(agent
            .user_init(|ctx| {
                ctx.table_add(
                    "small",
                    vec![LogicalKey::Exact(Value::new(1, 32))],
                    0,
                    "ghost_action",
                    vec![],
                )?;
                Ok(())
            })
            .is_err());
        assert!(agent
            .user_init(|ctx| {
                ctx.table_del("small", 424242)?;
                Ok(())
            })
            .is_err());
    }
}

#[test]
fn malleable_value_write_is_masked_to_width() {
    // `knob` is 8 bits wide; a reaction writing 0x1ff must commit 0xff.
    for mode in driver_modes() {
        let tb = build(mode);
        tb.agent
            .borrow_mut()
            .user_init(|ctx| {
                ctx.set_mbl("knob", 0x1ff)?;
                Ok(())
            })
            .unwrap();
        assert_eq!(tb.agent.borrow().slot("knob"), Some(0xff));
    }
}

#[test]
fn split_init_tables_commit_slot_writes_end_to_end() {
    // Force the init configuration across several init tables by shrinking
    // the per-action parameter budget; slot writes must still be atomic
    // and visible to the data plane.
    let mut src = String::from("header_type h_t { fields { a : 32; out : 32; } }\nheader h_t h;\n");
    for i in 0..8 {
        src.push_str(&format!(
            "malleable value k{i} {{ width : 32; init : {i}; }}\n"
        ));
    }
    src.push_str(
        r#"
action mix() {
    modify_field(h.out, ${k0});
    add_to_field(h.out, ${k5});
    add_to_field(h.out, ${k7});
}
table t { actions { mix; } default_action : mix(); }
control ingress { apply(t); }
"#,
    );
    let prog = mantis::p4r_lang::parse_program(&src).unwrap();
    let compiled = compile(
        &prog,
        &CompilerOptions {
            max_init_action_bits: 72, // fits two 32-bit slots per table
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        compiled.iface.init_tables.len() >= 3,
        "expected split init tables, got {}",
        compiled.iface.init_tables.len()
    );

    let clock = mantis::Clock::new();
    let spec = mantis::rmt_sim::load(&compiled.p4).unwrap();
    let switch = SharedSwitch::new(mantis::Switch::new(
        spec,
        mantis::SwitchConfig::default(),
        clock,
    ));
    let mut agent = MantisAgent::new(switch.clone(), &compiled, mantis::CostModel::default());
    agent.prologue().unwrap();

    let probe = |switch: &SharedSwitch| {
        let mut sw = switch.borrow_mut();
        let phv = PacketDesc::new(0).field("h", "a", 1).build(sw.spec());
        let out = sw.run_pipeline(phv, mantis::p4_ast::Pipeline::Ingress);
        out.get(sw.spec().field_id("h", "out").unwrap()).as_u64()
    };
    // Initial: k0 + k5 + k7 = 0 + 5 + 7.
    assert_eq!(probe(&switch), 12);

    // Rewrite slots that live in different init tables, in one commit.
    agent
        .user_init(|ctx| {
            ctx.set_mbl("k0", 100)?;
            ctx.set_mbl("k5", 20)?;
            ctx.set_mbl("k7", 3)?;
            Ok(())
        })
        .unwrap();
    assert_eq!(probe(&switch), 123);

    // And again, to exercise the shadow/mirror path of the extra init
    // tables on the other vv copy.
    agent
        .user_init(|ctx| {
            ctx.set_mbl("k5", 50)?;
            Ok(())
        })
        .unwrap();
    assert_eq!(probe(&switch), 153);
    agent
        .user_init(|ctx| {
            ctx.set_mbl("k7", 0)?;
            Ok(())
        })
        .unwrap();
    assert_eq!(probe(&switch), 150);
}

#[test]
fn queue_overflow_and_port_down_are_counted_not_fatal() {
    for mode in driver_modes() {
        let tb = Testbed::with_config_mode(
            PROG,
            mantis::SwitchConfig {
                queue_capacity_bytes: 64,
                ..Default::default()
            },
            mantis::CostModel::default(),
            mode,
        )
        .unwrap();
        let sw = tb.sim.switch();
        // Overflow the default queue.
        for _ in 0..4 {
            sw.borrow_mut()
                .inject(&PacketDesc::new(0).field("h", "a", 1).payload(50));
        }
        assert!(sw.borrow().stats.dropped_queue > 0);
        // Down a port and hit it.
        sw.borrow_mut().port_set_up(3, false).unwrap();
        sw.borrow_mut()
            .inject(&PacketDesc::new(3).field("h", "a", 1).payload(10));
        assert_eq!(sw.borrow().stats.dropped_port_down, 1);
        // Out-of-range port rejected.
        assert!(sw.borrow_mut().port_set_up(1000, false).is_err());
    }
}

#[test]
fn step_limit_guards_runaway_interpreted_reactions() {
    let src = r#"
header_type h_t { fields { a : 32; } }
header h_t h;
malleable value k { width : 8; init : 0; }
action nop() { no_op(); }
table t { actions { nop; } default_action : nop(); }
reaction spin(ing h.a) { while (1) { ${k} = 1; } }
control ingress { apply(t); }
"#;
    for mode in driver_modes() {
        let tb = testbed(src, 1, mode).unwrap();
        tb.agent.borrow_mut().register_all_interpreted().unwrap();
        let rep = tb.agent.borrow_mut().dialogue_iteration().unwrap();
        assert_eq!(rep.reaction_failures.len(), 1, "runaway reaction contained");
        // Staged effects of the failed reaction are NOT committed.
        assert_eq!(tb.agent.borrow().slot("k"), Some(0));
    }
}

#[test]
fn failed_reaction_stages_nothing_for_later_commits() {
    // The reaction writes k BEFORE dividing by zero; that partial write
    // must not leak into a later successful commit.
    let src = r#"
header_type h_t { fields { a : 32; } }
header h_t h;
malleable value k { width : 8; init : 0; }
malleable value other { width : 8; init : 0; }
action nop() { no_op(); }
table t { actions { nop; } default_action : nop(); }
reaction bad(ing h.a) {
    ${k} = 99;
    int x = 1 / (h_a - h_a);
}
control ingress { apply(t); }
"#;
    for mode in driver_modes() {
        let tb = testbed(src, 1, mode).unwrap();
        tb.agent.borrow_mut().register_all_interpreted().unwrap();
        let rep = tb.agent.borrow_mut().dialogue_iteration().unwrap();
        assert_eq!(rep.reaction_failures.len(), 1);
        // A later, unrelated commit must not carry the orphaned ${k} = 99.
        tb.agent
            .borrow_mut()
            .user_init(|ctx| {
                ctx.set_mbl("other", 1)?;
                Ok(())
            })
            .unwrap();
        assert_eq!(tb.agent.borrow().slot("k"), Some(0));
        assert_eq!(tb.agent.borrow().slot("other"), Some(1));
    }
}

#[test]
fn failed_user_init_discards_partial_staging() {
    for mode in driver_modes() {
        let tb = build(mode);
        let err = tb
            .agent
            .borrow_mut()
            .user_init(|ctx| {
                ctx.set_mbl("knob", 55)?; // staged...
                ctx.set_mbl("ghost", 1)?; // ...then fails
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err.kind, AgentErrorKind::Ctx(_)));
        tb.agent
            .borrow_mut()
            .user_init(|ctx| {
                ctx.shift_field("pick", 1)?;
                Ok(())
            })
            .unwrap();
        // The 55 from the failed init never committed.
        assert_eq!(tb.agent.borrow().slot("knob"), Some(0));
    }
}
