//! The Mantis compiler: lowers a P4R program to (1) a plain, *malleable* P4
//! program and (2) a [`ControlInterface`] the agent drives at runtime.
//!
//! Implemented transformations, each mapping to a part of the paper:
//!
//! * malleable values → metadata + init table (Fig. 4),
//! * malleable fields written in actions → selector metadata + action
//!   specialization (Fig. 5),
//! * malleable fields read in actions/table matches → selector + alt
//!   ternary columns + specialization (Fig. 6),
//! * compound usages and init-action bin packing (§4.1),
//! * the load-value optimization for field-list usages (§4.1, end),
//! * measurement registers for reaction field args (§4.2),
//! * isolation scaffolding: `vv`/`mv` bits, vv columns on malleable tables,
//!   double-buffered measurement registers, duplicated user registers with
//!   write counters (§5).

#[cfg(test)]
use crate::iface::*;
use crate::ir::{self, Diagnostic, P4rIr};
use crate::lower;
pub use crate::lower::assignments;
use p4_ast::Program;
#[cfg(test)]
use p4_ast::{ControlStmt, FieldOrMbl, MatchKind, Operand, PrimitiveCall, Value};
use std::fmt;

/// Compiler options (platform constants).
#[derive(Clone, Debug)]
pub struct CompilerOptions {
    /// Maximum total parameter width of a single init action, in bits.
    /// Exceeding this splits the configuration across multiple init tables
    /// (§5.1.1).
    pub max_init_action_bits: u32,
    /// Word size used when packing measurement fields into registers for
    /// cost accounting (Fig. 10a).
    pub measurement_word_bits: u32,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            max_init_action_bits: 512,
            measurement_word_bits: 32,
        }
    }
}

/// Compilation errors.
#[derive(Clone, Debug, PartialEq)]
pub enum CompileError {
    Validation(Vec<p4_ast::validate::ValidateError>),
    Parse(String),
    /// A table's default action uses a malleable field; defaults cannot be
    /// specialized because they run on miss (no selector match available).
    DefaultActionUsesMblField {
        table: String,
        action: String,
    },
    /// Internal invariant: the generated program failed validation.
    GeneratedProgramInvalid(Vec<p4_ast::validate::ValidateError>),
    /// Name-resolution / typecheck failures from the IR builder, each with
    /// a source position and caret snippet.
    Diagnostics(Vec<Diagnostic>),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Validation(errs) => {
                write!(f, "P4R program invalid: ")?;
                for e in errs {
                    write!(f, "{e}; ")?;
                }
                Ok(())
            }
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::DefaultActionUsesMblField { table, action } => write!(
                f,
                "table `{table}` default action `{action}` uses a malleable field; \
                 default actions cannot be specialized"
            ),
            CompileError::GeneratedProgramInvalid(errs) => {
                write!(f, "compiler bug — generated program invalid: ")?;
                for e in errs {
                    write!(f, "{e}; ")?;
                }
                Ok(())
            }
            CompileError::Diagnostics(diags) => {
                for (i, d) in diags.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// The compiler output pair (Figure 2 of the paper).
#[derive(Clone, Debug)]
pub struct Compiled {
    /// The transformed, plain-P4 program.
    pub p4: Program,
    /// The runtime interface for the Mantis agent.
    pub iface: crate::iface::ControlInterface,
    /// The typed mid-level IR the program was lowered from. The agent
    /// compiles each reaction for the VM from its pre-parsed body and
    /// pre-resolved slots.
    pub ir: P4rIr,
}

/// Compile P4R source text.
pub fn compile_source(src: &str, opts: &CompilerOptions) -> Result<Compiled, CompileError> {
    let prog = p4r_lang::parse_program(src).map_err(|e| CompileError::Parse(e.to_string()))?;
    compile(&prog, opts)
}

/// Compile a parsed P4R program.
pub fn compile(prog: &Program, opts: &CompilerOptions) -> Result<Compiled, CompileError> {
    let mut src = prog.clone();
    p4_ast::intrinsics::inject(&mut src);
    let errs = p4_ast::validate::validate(&src);
    if !errs.is_empty() {
        return Err(CompileError::Validation(errs));
    }
    let ir = ir::build(&src).map_err(CompileError::Diagnostics)?;
    lower::lower(src, ir, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Figure 1 of the paper, with headers declared.
    const FIG1: &str = r#"
header_type h_t {
    fields { foo : 32; bar : 32; baz : 32; qux : 32; }
}
header h_t hdr;

register qdepths { width : 32; instance_count : 16; }

malleable value value_var { width : 32; init : 1; }
malleable field field_var {
    width : 32; init : hdr.foo;
    alts { hdr.foo, hdr.bar }
}
malleable table table_var {
    reads { ${field_var} : exact; }
    actions { my_action; my_drop; }
    size : 64;
}
action my_action() {
    add(${field_var}, hdr.baz, ${value_var});
}
action my_drop() { drop(); }
reaction my_reaction(reg qdepths[1:10]) {
    uint32_t current_max = 0, max_port = 0;
    for (int i = 1; i <= 10; ++i)
        if (qdepths[i] > current_max) {
            current_max = qdepths[i]; max_port = i;
        }
    ${value_var} = max_port;
}
control ingress { apply(table_var); }
"#;

    fn compile_fig1() -> Compiled {
        compile_source(FIG1, &CompilerOptions::default()).unwrap()
    }

    #[test]
    fn fig1_compiles_to_plain_p4() {
        let out = compile_fig1();
        assert!(!out.p4.has_p4r_constructs());
        assert!(out.p4.reactions.is_empty());
        assert!(p4_ast::validate::validate(&out.p4).is_empty());
    }

    #[test]
    fn fig1_meta_header_generated() {
        let out = compile_fig1();
        let ht = out.p4.header_type(META_TYPE).unwrap();
        // vv, mv, value_var (32), field_var_alt (1)
        assert!(ht.field_width(VV) == Some(1));
        assert!(ht.field_width(MV) == Some(1));
        assert_eq!(ht.field_width("value_var"), Some(32));
        assert_eq!(ht.field_width("field_var_alt"), Some(1));
        let inst = out.p4.instance(META).unwrap();
        assert!(inst.is_metadata);
        // vv initializer = 1
        assert_eq!(
            inst.initializers.iter().find(|(n, _)| n == VV).unwrap().1,
            Value::new(1, 1)
        );
    }

    #[test]
    fn fig1_single_init_table_with_default() {
        let out = compile_fig1();
        assert_eq!(out.iface.init_tables.len(), 1);
        let it = out.iface.master_init().unwrap();
        assert_eq!(it.table, "p4r_init_");
        // [vv, mv, value_var, field_var_alt]
        assert_eq!(it.param_widths, vec![1, 1, 32, 1]);
        let t = out.p4.table("p4r_init_").unwrap();
        let (da, args) = t.default_action.as_ref().unwrap();
        assert_eq!(da, "p4r_init_action_");
        assert_eq!(args[0], Value::new(1, 1)); // vv
        assert_eq!(args[1], Value::zero(1)); // mv
        assert_eq!(args[2], Value::new(1, 32)); // value_var init
                                                // init applied first in ingress
        assert_eq!(out.p4.ingress[0], ControlStmt::Apply("p4r_init_".into()));
    }

    #[test]
    fn fig1_action_specialized_per_alt() {
        let out = compile_fig1();
        // my_action uses ${field_var} (2 alts) → two variants; original gone.
        assert!(out.p4.action("my_action").is_none());
        let v0 = out.p4.action("my_action_hdr_foo_").unwrap();
        let v1 = out.p4.action("my_action_hdr_bar_").unwrap();
        // Variant bodies reference the concrete alts and the value metadata.
        match &v0.body[0] {
            PrimitiveCall::Add { dst, b, .. } => {
                assert_eq!(dst, &FieldOrMbl::field("hdr", "foo"));
                assert_eq!(b, &Operand::field(META, "value_var"));
            }
            other => panic!("unexpected: {other:?}"),
        }
        match &v1.body[0] {
            PrimitiveCall::Add { dst, .. } => {
                assert_eq!(dst, &FieldOrMbl::field("hdr", "bar"));
            }
            other => panic!("unexpected: {other:?}"),
        }
        // my_drop untouched.
        assert!(out.p4.action("my_drop").is_some());
    }

    #[test]
    fn fig1_table_transformed() {
        let out = compile_fig1();
        let t = out.p4.table("table_var").unwrap();
        // reads: 2 alt ternary columns + selector + vv
        assert_eq!(t.reads.len(), 4);
        assert_eq!(t.reads[0].kind, MatchKind::Ternary);
        assert_eq!(t.reads[0].target, FieldOrMbl::field("hdr", "foo"));
        assert_eq!(t.reads[1].kind, MatchKind::Ternary);
        assert_eq!(t.reads[1].target, FieldOrMbl::field("hdr", "bar"));
        assert_eq!(t.reads[2].target, FieldOrMbl::field(META, "field_var_alt"));
        assert_eq!(t.reads[2].kind, MatchKind::Exact);
        assert_eq!(t.reads[3].target, FieldOrMbl::field(META, VV));
        // actions: two specialized + my_drop
        assert_eq!(t.actions.len(), 3);
        // physical size: 64 user entries × 2 alts × 2 shadow
        assert_eq!(t.size, Some(256));

        let info = out.iface.table("table_var").unwrap();
        assert!(info.malleable);
        assert_eq!(info.vv_col, Some(3));
        assert_eq!(info.expansion_factor("my_action"), 2);
        assert_eq!(info.expansion_factor("my_drop"), 2); // read mbl still applies
    }

    #[test]
    fn fig1_reaction_binding() {
        let out = compile_fig1();
        let r = out.iface.reaction("my_reaction").unwrap();
        assert_eq!(r.registers.len(), 1);
        let m = &r.registers[0];
        assert_eq!(m.register, "qdepths");
        assert_eq!((m.lo, m.hi), (1, 10));
        // `qdepths` is never written by the data plane (the traffic
        // manager feeds it), so it is polled directly: no duplicate pair.
        assert!(m.external);
        assert!(out.p4.register("p4r_dup_qdepths_").is_none());
        assert!(r.body_src.contains("${value_var}"));
    }

    #[test]
    fn value_slot_in_iface() {
        let out = compile_fig1();
        let v = out.iface.value("value_var").unwrap();
        assert_eq!(v.width, 32);
        assert_eq!(v.init, Value::new(1, 32));
        assert_eq!(v.init_table, 0);
        assert_eq!(v.param_idx, 2); // after vv, mv
        let f = out.iface.field("field_var").unwrap();
        assert_eq!(f.selector_bits, 1);
        assert_eq!(f.init_index, 0);
        assert_eq!(f.param_idx, 3);
    }

    #[test]
    fn dataplane_written_register_gets_dup_pair() {
        let src = r#"
header_type h_t { fields { a : 32; } }
header h_t h;
register samples { width : 32; instance_count : 16; }
action save(i) { register_write(samples, i, h.a); }
action probe() { register_read(h.a, samples, 0); }
table t { actions { save; probe; } default_action : save(0); }
reaction watch(reg samples[1:10]) { int x = samples[1]; }
control ingress { apply(t); }
"#;
        let out = compile_source(src, &CompilerOptions::default()).unwrap();
        let m = &out.iface.reaction("watch").unwrap().registers[0];
        assert!(!m.external);
        assert!(!m.original_elided); // `probe` reads it in the data plane
        assert_eq!(m.dup_register, "p4r_dup_samples_");
        assert_eq!(m.ts_register, "p4r_ts_samples_");
        assert_eq!(m.stride_log2, 4); // 16 instances
                                      // dup register exists with 32 entries (2 << 4).
        let dup = out.p4.register("p4r_dup_samples_").unwrap();
        assert_eq!(dup.instance_count, 32);
    }

    #[test]
    fn measured_fields_generate_registers_and_tables() {
        let src = r#"
header_type ip_t { fields { src : 32; dst : 32; } }
header ip_t ip;
register total { width : 64; instance_count : 1; }
action keep() { register_write(total, 0, intr.pkt_len); }
table t { actions { keep; } default_action : keep(); }
reaction watch(ing ip.src, reg total[0:0]) {
    static uint64_t last = 0;
    last = total[0];
}
control ingress { apply(t); }
"#;
        let out = compile_source(src, &CompilerOptions::default()).unwrap();
        let r = out.iface.reaction("watch").unwrap();
        assert_eq!(r.fields.len(), 1);
        assert_eq!(r.fields[0].binding, "ip_src");
        assert_eq!(r.fields[0].register, "p4r_meas_watch_ip_src_");
        assert_eq!(r.packed_words, 1);
        // Measurement register has two entries gated by mv.
        let reg = out.p4.register("p4r_meas_watch_ip_src_").unwrap();
        assert_eq!(reg.instance_count, 2);
        // Measurement table applied at end of ingress.
        let last = out.p4.ingress.last().unwrap();
        assert_eq!(last, &ControlStmt::Apply("p4r_measure_ing_".into()));
        // The measure action writes at index mv.
        let ma = out.p4.action("p4r_measure_ing_action_").unwrap();
        match &ma.body[0] {
            PrimitiveCall::RegisterWrite {
                register,
                index,
                value,
            } => {
                assert_eq!(register, "p4r_meas_watch_ip_src_");
                assert_eq!(index, &Operand::field(META, MV));
                assert_eq!(value, &Operand::field("ip", "src"));
            }
            other => panic!("unexpected: {other:?}"),
        }
        // `total` is written AND read (reaction only reads via dup); it is
        // register_write-only in the data plane, so it can be elided.
        let m = &r.registers[0];
        assert!(m.original_elided);
        assert!(out.p4.register("total").is_none());
        // The writing action mirrors into the dup register.
        let keep = out.p4.action("keep").unwrap();
        assert!(keep.body.iter().any(|c| matches!(
            c,
            PrimitiveCall::RegisterWrite { register, .. } if register == "p4r_dup_total_"
        )));
        // ts register bumped.
        assert!(keep.body.iter().any(|c| matches!(
            c,
            PrimitiveCall::RegisterWrite { register, .. } if register == "p4r_ts_total_"
        )));
    }

    #[test]
    fn count_register_not_elided() {
        let src = r#"
register hits { width : 64; instance_count : 4; }
action bump() { count(hits, 1); }
table t { actions { bump; } default_action : bump(); }
reaction watch(reg hits[0:3]) { int x = hits[0]; }
control ingress { apply(t); }
"#;
        let out = compile_source(src, &CompilerOptions::default()).unwrap();
        let m = &out.iface.reaction("watch").unwrap().registers[0];
        assert!(!m.original_elided);
        assert!(out.p4.register("hits").is_some());
        // The count action reads back and mirrors.
        let bump = out.p4.action("bump").unwrap();
        assert!(bump.body.iter().any(|c| matches!(
            c,
            PrimitiveCall::RegisterRead { register, .. } if register == "hits"
        )));
    }

    #[test]
    fn init_tables_split_when_over_capacity() {
        // 20 values of 64 bits = 1280 bits > 510-bit capacity → ≥3 bins.
        let mut src = String::new();
        src.push_str("header_type h_t { fields { a : 32; } }\nheader h_t hdr;\n");
        for i in 0..20 {
            src.push_str(&format!(
                "malleable value v{i} {{ width : 64; init : {i}; }}\n"
            ));
        }
        src.push_str("action a() { modify_field(hdr.a, ${v0}); }\n");
        src.push_str("table t { actions { a; } default_action : a(); }\n");
        src.push_str("control ingress { apply(t); }\n");
        let out = compile_source(&src, &CompilerOptions::default()).unwrap();
        assert!(
            out.iface.init_tables.len() >= 3,
            "{}",
            out.iface.init_tables.len()
        );
        assert_eq!(
            out.iface.init_tables.iter().filter(|t| t.is_master).count(),
            1
        );
        // Non-master init tables read vv and are registered as malleable.
        let second = &out.iface.init_tables[1];
        let t = out.p4.table(&second.table).unwrap();
        assert_eq!(t.reads.len(), 1);
        assert!(out.iface.table(&second.table).unwrap().malleable);
        // Every slot maps to a valid table/param.
        for v in &out.iface.values {
            let it = &out.iface.init_tables[v.init_table];
            assert!(v.param_idx < it.param_widths.len());
            assert_eq!(it.param_widths[v.param_idx], v.width);
        }
    }

    #[test]
    fn field_list_gets_load_optimization() {
        let src = r#"
header_type ip_t { fields { src : 32; dst : 32; sport : 32; } }
header ip_t ip;
malleable field hash_in { width : 32; init : ip.src; alts { ip.src, ip.sport } }
field_list fl { ${hash_in}; ip.dst; }
field_list_calculation c { input { fl; } algorithm : crc16; output_width : 16; }
action pick(base) { modify_field_with_hash_based_offset(intr.egress_spec, base, c, 4); }
table t { actions { pick; } default_action : pick(0); }
control ingress { apply(t); }
"#;
        let out = compile_source(src, &CompilerOptions::default()).unwrap();
        let f = out.iface.field("hash_in").unwrap();
        let load = f.load.as_ref().unwrap();
        assert_eq!(load.table, "p4r_load_hash_in_");
        assert_eq!(load.actions.len(), 2);
        // Field list now references the loaded value.
        let fl = out.p4.field_list("fl").unwrap();
        assert_eq!(fl.entries[0], FieldOrMbl::field(META, "hash_in_val_"));
        // Prologue entries installed per alternative.
        assert_eq!(
            out.iface
                .prologue_entries
                .iter()
                .filter(|e| e.table == load.table)
                .count(),
            2
        );
        // Load table applied after init, before user tables.
        let names: Vec<String> = out
            .p4
            .ingress
            .iter()
            .filter_map(|s| match s {
                ControlStmt::Apply(t) => Some(t.clone()),
                _ => None,
            })
            .collect();
        let load_pos = names.iter().position(|n| n == &load.table).unwrap();
        let t_pos = names.iter().position(|n| n == "t").unwrap();
        let init_pos = names.iter().position(|n| n == "p4r_init_").unwrap();
        assert!(init_pos < load_pos && load_pos < t_pos);
    }

    #[test]
    fn default_action_with_mbl_field_rejected() {
        let src = r#"
header_type h_t { fields { a : 32; b : 32; } }
header h_t hdr;
malleable field f { width : 32; init : hdr.a; alts { hdr.a, hdr.b } }
action bad() { modify_field(${f}, hdr.a); }
table t { actions { bad; } default_action : bad(); }
control ingress { apply(t); }
"#;
        let err = compile_source(src, &CompilerOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            CompileError::DefaultActionUsesMblField { .. }
        ));
    }

    #[test]
    fn invalid_p4r_rejected() {
        let err = compile_source(
            "action a() { modify_field(ghost.field, 1); }",
            &CompilerOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CompileError::Validation(_)));
    }

    #[test]
    fn assignments_mixed_radix() {
        assert_eq!(assignments(&[]), vec![Vec::<usize>::new()]);
        assert_eq!(assignments(&[2]), vec![vec![0], vec![1]]);
        assert_eq!(
            assignments(&[2, 3]),
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2]
            ]
        );
    }

    #[test]
    fn two_mbl_fields_in_one_action_enumerate_permutations() {
        let src = r#"
header_type h_t { fields { a : 32; b : 32; c : 32; d : 32; } }
header h_t hdr;
malleable field f { width : 32; init : hdr.a; alts { hdr.a, hdr.b } }
malleable field g { width : 32; init : hdr.c; alts { hdr.c, hdr.d } }
action mix() { modify_field(${f}, ${g}); }
table t { reads { hdr.a : exact; } actions { mix; } size : 8; }
control ingress { apply(t); }
"#;
        let out = compile_source(src, &CompilerOptions::default()).unwrap();
        let info = out.iface.table("t").unwrap();
        let av = info.action("mix").unwrap();
        assert_eq!(av.variants.len(), 4);
        assert_eq!(info.expansion_factor("mix"), 4);
        // All four variants exist as actions with fully concrete bodies.
        for v in &av.variants {
            let a = out.p4.action(v).unwrap();
            match &a.body[0] {
                PrimitiveCall::ModifyField { dst, src } => {
                    assert!(dst.as_field().is_some());
                    assert!(matches!(src, Operand::Field(_)));
                }
                other => panic!("unexpected: {other:?}"),
            }
        }
        // Physical size: 8 × 2 × 2 = 32.
        assert_eq!(out.p4.table("t").unwrap().size, Some(32));
    }

    #[test]
    fn compiled_program_loc_grows() {
        // Sanity for Table 1's LoC columns: generated P4 is larger than the
        // P4R source.
        let out = compile_fig1();
        let p4r_loc = FIG1.lines().filter(|l| !l.trim().is_empty()).count();
        let p4_loc = p4_ast::pretty::loc(&out.p4);
        assert!(p4_loc > p4r_loc, "{p4_loc} <= {p4r_loc}");
    }
}
