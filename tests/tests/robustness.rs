//! Robustness: the front end must never panic on arbitrary input (errors
//! only), and the paper's exact Fig. 6 compound scenario must work end to
//! end, under both driver modes.

use integration_tests::{driver_modes, testbed};
use mantis::p4_ast::{Pipeline, Value};
use mantis::p4r_compiler::entry::LogicalKey;
use mantis::rmt_sim::PacketDesc;
use mantis::Testbed;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup: the P4R parser returns Ok or Err, never panics.
    #[test]
    fn p4r_parser_never_panics(src in "\\PC*") {
        let _ = mantis::p4r_lang::parse_program(&src);
    }

    /// Same for the C-like reaction body parser.
    #[test]
    fn creact_parser_never_panics(src in "\\PC*") {
        let _ = mantis::p4r_lang::creact::parse_body(&src);
    }

    /// Structured-ish soup: P4R keywords and punctuation in random order
    /// exercise deeper parser states than raw bytes do.
    #[test]
    fn p4r_parser_never_panics_on_keyword_soup(
        words in proptest::collection::vec(
            proptest::sample::select(vec![
                "header_type", "header", "metadata", "table", "malleable",
                "value", "field", "reaction", "control", "ingress", "reads",
                "actions", "{", "}", "(", ")", ";", ":", "exact", "ternary",
                "${", "x", "42", "init", "width", "alts", ",", "mask",
                "register", "apply", "if", "valid",
            ]),
            0..64,
        )
    ) {
        let src = words.join(" ");
        let _ = mantis::p4r_lang::parse_program(&src);
    }

    /// Reaction bodies from C-ish token soup.
    #[test]
    fn creact_never_panics_on_token_soup(
        words in proptest::collection::vec(
            proptest::sample::select(vec![
                "int", "uint64_t", "static", "for", "while", "if", "else",
                "return", "break", "continue", "{", "}", "(", ")", ";", "=",
                "+", "-", "*", "/", "%", "<", ">", "==", "&&", "||", "x",
                "y", "7", "${", "arr", "[", "]", "?", ":", "++", "+=",
            ]),
            0..64,
        )
    ) {
        let src = words.join(" ");
        let _ = mantis::p4r_lang::creact::parse_body(&src);
    }
}

/// The paper's Fig. 6 scenario verbatim: one malleable field used *both*
/// as a table match field and inside an action of the same table. A single
/// logical entry expands across alternatives with a consistent assignment
/// (the selector ties the match column and the action variant together).
#[test]
fn fig6_compound_read_use_end_to_end() {
    let src = r#"
header_type h_t { fields { foo : 32; bar : 32; baz : 32; qux : 32; } }
header h_t hdr;
malleable field read_var {
    width : 32; init : hdr.foo;
    alts { hdr.foo, hdr.bar }
}
action my_action() {
    add(hdr.qux, hdr.baz, ${read_var});
}
action miss() { modify_field(hdr.qux, 0); }
malleable table my_table {
    reads { ${read_var} : exact; }
    actions { my_action; miss; }
    default_action : miss();
    size : 16;
}
control ingress { apply(my_table); }
"#;
    for mode in driver_modes() {
        let tb = testbed(src, 1, mode).unwrap();
        // Add the paper's entry: ${read_var} = 0 (we use 5 to distinguish from
        // the miss default of 0).
        tb.agent
            .borrow_mut()
            .user_init(|ctx| {
                ctx.table_add(
                    "my_table",
                    vec![LogicalKey::Exact(Value::new(5, 32))],
                    0,
                    "my_action",
                    vec![],
                )?;
                Ok(())
            })
            .unwrap();

        let probe = |tb: &Testbed, foo: u128, bar: u128, baz: u128| {
            let mut sw = tb.sim.switch().borrow_mut();
            let phv = PacketDesc::new(0)
                .field("hdr", "foo", foo)
                .field("hdr", "bar", bar)
                .field("hdr", "baz", baz)
                .build(sw.spec());
            let out = sw.run_pipeline(phv, Pipeline::Ingress);
            out.get(sw.spec().field_id("hdr", "qux").unwrap()).as_u64()
        };

        // read_var → hdr.foo: match on foo=5, and the action adds baz + foo.
        assert_eq!(probe(&tb, 5, 99, 1000), 1005);
        // foo≠5 misses even when bar=5 (consistent assignment: the bar column
        // only matches when the selector says so).
        assert_eq!(probe(&tb, 7, 5, 1000), 0);

        // Shift to hdr.bar: now bar=5 matches and the action adds baz + bar.
        tb.agent
            .borrow_mut()
            .user_init(|ctx| {
                ctx.shift_field("read_var", 1)?;
                Ok(())
            })
            .unwrap();
        assert_eq!(probe(&tb, 99, 5, 1000), 1005);
        assert_eq!(probe(&tb, 5, 7, 1000), 0);
    }
}

/// Two Mantis agents on two independent pipelines (the §6 note: "if the
/// switch contains multiple disjoint linecards or pipelines, these can be
/// handled by spawning multiple Mantis agent threads, each handling its own
/// component"). Each agent commits to its own switch without interference.
#[test]
fn one_agent_per_pipeline_scales_out() {
    let src = r#"
header_type h_t { fields { a : 32; } }
header h_t h;
malleable value knob { width : 32; init : 0; }
action bump() { add_to_field(h.a, ${knob}); }
table t { actions { bump; } default_action : bump(); }
reaction r(ing h.a) { ${knob} = h_a + 1; }
control ingress { apply(t); }
"#;
    for mode in driver_modes() {
        let mut pipes: Vec<Testbed> = (0..2).map(|_| testbed(src, 1, mode).unwrap()).collect();
        for tb in &pipes {
            tb.agent.borrow_mut().register_all_interpreted().unwrap();
        }
        // Different traffic per pipeline.
        pipes[0]
            .sim
            .switch()
            .borrow_mut()
            .inject(&PacketDesc::new(0).field("h", "a", 10).payload(8));
        pipes[1]
            .sim
            .switch()
            .borrow_mut()
            .inject(&PacketDesc::new(0).field("h", "a", 500).payload(8));
        for tb in &mut pipes {
            tb.agent.borrow_mut().dialogue_iteration().unwrap();
        }
        // Each agent reacted to its own pipeline's measurement only.
        assert_eq!(pipes[0].agent.borrow().slot("knob"), Some(11));
        assert_eq!(pipes[1].agent.borrow().slot("knob"), Some(501));
    }
}
