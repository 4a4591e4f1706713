//! Differential test for the reaction execution engines: the bytecode VM
//! and the reference AST tree-walker must be observationally
//! identical — same results, same malleable writes, same table ops, same
//! errors (including `StepLimitExceeded` mid-loop and integer wrap-around)
//! — on every reaction body shipped with the four use-case apps, plus
//! crafted edge-case bodies.
//!
//! Statics are exercised by running each body several times against the
//! same engine instances: any divergence in persistent `static` state shows
//! up as diverging writes or results in later runs. Every call an engine
//! makes into its environment is logged, and the logs must be equal too.

use mantis::apps::programs::{DOS_P4R, ECMP_P4R, FAILOVER_P4R, RL_P4R};
use mantis::p4r_compiler::generate::{generate, GenConfig};
use mantis::p4r_lang::creact::parse_body;
use mantis::reaction_interp::{
    Binding, CompiledReaction, InterpError, Interpreter, MockEnv, ReactionEnv,
};
use mantis::{compile_source, CompilerOptions};
use proptest::prelude::*;
use std::cell::RefCell;

/// A [`MockEnv`] that logs every call made into it, in order — reads
/// included, which leave nothing else behind. `resolve` is forwarded and not
/// logged: the walker resolves at each access and an unbound VM never does,
/// so only the calls themselves are the engines' common record.
struct Logged {
    env: MockEnv,
    calls: RefCell<Vec<String>>,
}

impl Logged {
    fn log(&self, call: String) {
        self.calls.borrow_mut().push(call);
    }
}

impl ReactionEnv for Logged {
    fn resolve(&self, name: &str) -> Binding {
        self.env.resolve(name)
    }

    fn read_scalar_arg(&self, id: u16, name: &str) -> Option<i128> {
        self.log(format!("scalar {name}"));
        self.env.read_scalar_arg(id, name)
    }

    fn read_array_arg(
        &self,
        id: u16,
        name: &str,
        index: i128,
    ) -> Option<Result<i128, InterpError>> {
        self.log(format!("array {name}[{index}]"));
        self.env.read_array_arg(id, name, index)
    }

    fn is_array_arg(&self, id: u16, name: &str) -> bool {
        self.log(format!("is_array {name}"));
        self.env.is_array_arg(id, name)
    }

    fn read_mbl(&mut self, id: u16, name: &str) -> Result<i128, InterpError> {
        self.log(format!("read ${name}"));
        self.env.read_mbl(id, name)
    }

    fn write_mbl(&mut self, id: u16, name: &str, value: i128) -> Result<(), InterpError> {
        self.log(format!("write ${name} {value}"));
        self.env.write_mbl(id, name, value)
    }

    fn table_op(
        &mut self,
        ids: (u16, u16),
        table: &str,
        method: &str,
        args: &[i128],
    ) -> Result<i128, InterpError> {
        self.log(format!("{table}.{method}{args:?}"));
        self.env.table_op(ids, table, method, args)
    }

    fn call(&mut self, id: u16, name: &str, args: &[i128]) -> Option<Result<i128, InterpError>> {
        self.log(format!("{name}{args:?}"));
        self.env.call(id, name, args)
    }
}

/// Run `src` through both engines (fresh instance each) against
/// identically seeded envs, `runs` times on the *same* instances/envs so
/// statics and accumulated env state are covered, under the given step
/// limit. Asserts identical results/errors and identical env state after
/// every run; returns whether a run ran out of steps.
fn assert_parity(
    label: &str,
    src: &str,
    mk_env: impl Fn() -> MockEnv,
    step_limit: u64,
    runs: u32,
) -> bool {
    let body = parse_body(src).unwrap_or_else(|e| panic!("{label}: body does not parse: {e}"));
    let mut vm = CompiledReaction::compile(&body)
        .unwrap_or_else(|e| panic!("{label}: body must compile to bytecode: {e}"));
    let mut walker = Interpreter::new(body);
    vm.step_limit = step_limit;
    walker.step_limit = step_limit;

    let logged = |env| Logged {
        env,
        calls: RefCell::default(),
    };
    let (mut vm_side, mut walker_side) = (logged(mk_env()), logged(mk_env()));
    let mut exhausted = false;
    for run in 0..runs {
        let r_vm = vm.run(&mut vm_side);
        let r_walker = walker.run(&mut walker_side);
        exhausted |= r_walker == Err(InterpError::StepLimitExceeded(step_limit));
        let (env_vm, env_walker) = (&vm_side.env, &walker_side.env);
        assert_eq!(
            r_vm, r_walker,
            "{label}: result diverged (run {run}, step limit {step_limit})"
        );
        assert_eq!(
            env_vm.mbls, env_walker.mbls,
            "{label}: malleable writes diverged (run {run}, step limit {step_limit})"
        );
        assert_eq!(
            env_vm.table_ops, env_walker.table_ops,
            "{label}: table ops diverged (run {run}, step limit {step_limit})"
        );
        assert_eq!(
            env_vm.arrays, env_walker.arrays,
            "{label}: array state diverged (run {run}, step limit {step_limit})"
        );
        assert_eq!(
            vm_side.calls, walker_side.calls,
            "{label}: environment calls diverged (run {run}, step limit {step_limit})"
        );
    }
    exhausted
}

/// Build a plausible env for a compiled app's reaction binding: measured
/// fields become scalar args, measured registers become array args with
/// the binding's index range, every malleable value slot is writable at
/// its declared init, and `now_us()` reads a fixed clock.
fn app_envs(src: &str) -> Vec<(String, String, MockEnv)> {
    let compiled = compile_source(src, &CompilerOptions::default()).expect("app compiles");
    let iface = &compiled.iface;
    iface
        .reactions
        .iter()
        .map(|binding| {
            let mut env = MockEnv::default();
            for (i, f) in binding.fields.iter().enumerate() {
                // Deterministic, width-respecting sample values.
                let max = 1i128 << u32::from(f.width).min(30);
                env.scalars
                    .insert(f.binding.clone(), (i as i128 * 37 + 13) % max);
            }
            for (i, r) in binding.registers.iter().enumerate() {
                let len = (r.hi - r.lo + 1) as usize;
                let max = 1i128 << u32::from(r.width).min(30);
                let vals: Vec<i128> = (0..len)
                    .map(|j| ((i as i128 + 1) * 101 + j as i128 * 17) % max)
                    .collect();
                env.arrays
                    .insert(r.binding.clone(), (i128::from(r.lo), vals));
            }
            for v in &iface.values {
                env.mbls.insert(v.name.clone(), v.init.bits() as i128);
            }
            env.builtins.insert("now_us".into(), 1_000);
            (binding.name.clone(), binding.body_src.clone(), env)
        })
        .collect()
}

#[test]
fn app_reactions_match_walker() {
    for (app, src) in [
        ("dos", DOS_P4R),
        ("failover", FAILOVER_P4R),
        ("ecmp", ECMP_P4R),
        ("rl", RL_P4R),
    ] {
        let reactions = app_envs(src);
        assert!(!reactions.is_empty(), "{app}: no reactions compiled");
        for (name, body_src, env) in &reactions {
            let label = format!("{app}/{name}");
            assert_parity(&label, body_src, || env.clone(), 50_000_000, 4);
        }
    }
}

/// Every step limit from 1 to one past what two consecutive unlimited runs
/// need (statics carry over from the first run to the second): wherever the
/// limit falls, both engines stop at the same point with the same
/// `StepLimitExceeded`, result, malleable writes and table-op log. This is
/// the oracle for the VM's tick motion — a tick it counts later than the
/// walker would leave an effect behind, one it counts earlier would stop it
/// short. A body that never finishes is swept to `cap`. Returns the last
/// limit tried.
fn sweep_step_limits(label: &str, src: &str, env: &MockEnv, cap: u64) -> u64 {
    let mut limit = 1;
    while assert_parity(&format!("{label}@{limit}"), src, || env.clone(), limit, 2) && limit < cap {
        limit += 1;
    }
    assert_parity(
        &format!("{label}@{}", limit + 1),
        src,
        || env.clone(),
        limit + 1,
        2,
    );
    limit + 1
}

/// The four app bodies, the paper's Figure 1 body, and statements that
/// fail where they count their last steps — a failure must not come
/// before a limit the walker hits first, nor after one it does not.
#[test]
fn app_reactions_match_walker_under_step_limits() {
    for (app, src) in [
        ("dos", DOS_P4R),
        ("failover", FAILOVER_P4R),
        ("ecmp", ECMP_P4R),
        ("rl", RL_P4R),
    ] {
        for (name, body_src, env) in &app_envs(src) {
            let swept = sweep_step_limits(&format!("{app}/{name}"), body_src, env, u64::MAX);
            assert!(swept > 20, "{app}/{name}: only {swept} limits");
        }
    }
    let mut env = env_with_mbls(&[("thresh", 10), ("last", 0)]);
    env.arrays
        .insert("q".into(), (0, vec![3, 9, 4, 27, 5, 8, 1, 2]));
    sweep_step_limits("figure 1", FIGURE_1, &env, u64::MAX);
    env.builtins.insert("now_us".into(), 1);
    for src in [
        "int x = 0; ${last} = 7; ${last} = 6 / x + ${last};",
        "int x = 0; ${last} = 7; ${last} = ${thresh} % x;",
        "int a[4]; int i = 4; ${last} = 1; ${last} = a[i];",
        "${last} = 1; ${last} = q[i = 9];",
        "${last} = now_us(); ${last} = nope(${last});",
    ] {
        sweep_step_limits(src, src, &env, u64::MAX);
    }
}

/// The paper's Figure 1 reaction: argmax over a ring of per-port counters,
/// then a table update.
const FIGURE_1: &str = r#"
uint16_t current_max = 0, max_port = 0;
for (int i = 0; i < 8; i++) {
    if (q[i] > current_max) {
        current_max = q[i];
        max_port = i;
    }
}
if (current_max > ${thresh}) {
    fwd.modEntry(0, max_port);
}
${last} = max_port;
return max_port;
"#;

/// The first 100 generated programs that compile, the same sweep: what
/// the fuzz campaign samples at three limits, every limit here. (Those that
/// terminate need at most 488 steps; the few that loop until the limit
/// stops them are swept to 1 000.)
#[test]
fn generated_reactions_match_walker_under_every_step_limit() {
    let cfg = GenConfig::default();
    let mut swept = 0;
    for seed in 0.. {
        let src = generate(seed, &cfg).render();
        if compile_source(&src, &CompilerOptions::default()).is_err() {
            continue;
        }
        for (name, body_src, env) in &app_envs(&src) {
            sweep_step_limits(&format!("seed {seed} `{name}`"), body_src, env, 1_000);
        }
        swept += 1;
        if swept == 100 {
            break;
        }
    }
}

fn env_with_mbls(mbls: &[(&str, i128)]) -> MockEnv {
    let mut env = MockEnv::default();
    for (k, v) in mbls {
        env.mbls.insert((*k).to_string(), *v);
    }
    env
}

#[test]
fn step_limit_exceeded_is_identical() {
    let src = "while (1) { ${x} = ${x} + 1; }";
    let body = parse_body(src).unwrap();
    let mut vm = CompiledReaction::compile(&body).unwrap();
    let mut walker = Interpreter::new(body);
    for limit in [1u64, 2, 10, 101, 1000] {
        vm.step_limit = limit;
        walker.step_limit = limit;
        let mut env_vm = env_with_mbls(&[("x", 0)]);
        let mut env_walker = env_with_mbls(&[("x", 0)]);
        let r_vm = vm.run(&mut env_vm);
        let r_walker = walker.run(&mut env_walker);
        assert_eq!(r_vm, r_walker, "limit {limit}");
        assert_eq!(
            r_vm,
            Err(InterpError::StepLimitExceeded(limit)),
            "limit {limit}"
        );
        // Partial effects up to the abort point must agree too.
        assert_eq!(env_vm.mbls, env_walker.mbls, "limit {limit}");
    }
}

#[test]
fn integer_wrap_around_is_identical() {
    let src = r#"
uint8_t a = 250;
a += 10;
${wrapped_u8} = a;
int8_t b = 120;
b += 10;
${wrapped_i8} = b;
int8_t c = -128;
c--;
${wrapped_dec} = c;
uint16_t d = 65535;
++d;
${wrapped_u16} = d;
${cast} = (uint8_t) 300 + (int8_t) 200 + (uint16_t) (0 - 1);
"#;
    assert_parity(
        "wrap-around",
        src,
        || {
            env_with_mbls(&[
                ("wrapped_u8", 0),
                ("wrapped_i8", 0),
                ("wrapped_dec", 0),
                ("wrapped_u16", 0),
                ("cast", 0),
            ])
        },
        50_000_000,
        2,
    );
}

#[test]
fn runtime_errors_are_identical() {
    // Division by zero, deep in an expression.
    let src_div = "${y} = 1 + 6 / (${z} - ${z});";
    let body = parse_body(src_div).unwrap();
    let mut vm = CompiledReaction::compile(&body).unwrap();
    let mut walker = Interpreter::new(body);
    let mut env_vm = env_with_mbls(&[("y", 0), ("z", 7)]);
    let mut env_walker = env_with_mbls(&[("y", 0), ("z", 7)]);
    let r_vm = vm.run(&mut env_vm);
    let r_walker = walker.run(&mut env_walker);
    assert_eq!(r_vm, r_walker);
    assert_eq!(r_vm, Err(InterpError::DivisionByZero));
    assert_eq!(env_vm.mbls, env_walker.mbls);

    // Array index out of bounds on an env argument.
    let src_oob = "${y} = qdepths[99];";
    let body = parse_body(src_oob).unwrap();
    let mut vm = CompiledReaction::compile(&body).unwrap();
    let mut walker = Interpreter::new(body);
    let mk = || {
        let mut env = env_with_mbls(&[("y", 0)]);
        env.arrays.insert("qdepths".into(), (0, vec![1, 2, 3, 4]));
        env
    };
    let (mut env_vm, mut env_walker) = (mk(), mk());
    let r_vm = vm.run(&mut env_vm);
    let r_walker = walker.run(&mut env_walker);
    assert_eq!(r_vm, r_walker);
    assert!(matches!(r_vm, Err(InterpError::IndexOutOfBounds { .. })));

    // Unknown variable.
    let src_unk = "${y} = nowhere;";
    let body = parse_body(src_unk).unwrap();
    let mut vm = CompiledReaction::compile(&body).unwrap();
    let mut walker = Interpreter::new(body);
    let (mut env_vm, mut env_walker) = (env_with_mbls(&[("y", 0)]), env_with_mbls(&[("y", 0)]));
    let r_vm = vm.run(&mut env_vm);
    let r_walker = walker.run(&mut env_walker);
    assert_eq!(r_vm, r_walker);
    assert!(matches!(r_vm, Err(InterpError::UnknownVariable(_))));

    // Indices at or beyond 2^64, and `i128::MIN`: out of bounds on both
    // engines — never an alias of a small index, never an overflow panic.
    let mut env = MockEnv::default();
    env.arrays.insert("a".into(), (5, vec![10, 20, 30, 40]));
    let beyond = 1i128 << 64;
    for (src, name, index) in [
        (
            "int b[4]; b[1] = 7; return b[18446744073709551617];",
            "b",
            beyond + 1,
        ),
        (
            "int b[4]; b[18446744073709551617] = 9; return b[1];",
            "b",
            beyond + 1,
        ),
        (
            "static int s[4]; s[1] = 7; return s[18446744073709551617];",
            "s",
            beyond + 1,
        ),
        ("return a[18446744073709551616 + 6];", "a", beyond + 6),
        (
            "return a[(0 - 170141183460469231731687303715884105727) - 1];",
            "a",
            i128::MIN,
        ),
    ] {
        let oob = Err(InterpError::IndexOutOfBounds {
            name: name.into(),
            index,
            len: 4,
        });
        assert_eq!(run_both(src, &env), (oob.clone(), oob), "{src}");
    }
}

/// `src` run once on a fresh VM and a fresh walker, each against its own
/// copy of `env`: `(vm, walker)`.
fn run_both(src: &str, env: &MockEnv) -> (RunResult, RunResult) {
    let body = parse_body(src).unwrap();
    let mut vm = CompiledReaction::compile(&body).unwrap();
    let mut walker = Interpreter::new(body);
    (vm.run(&mut env.clone()), walker.run(&mut env.clone()))
}

type RunResult = Result<Option<i128>, InterpError>;

/// An index anywhere in `i128`, weighted toward the edges a narrowing
/// conversion gets wrong: small values, ±2^64 and the extremes.
fn any_index() -> impl Strategy<Value = i128> {
    prop_oneof![
        any::<i128>(),
        (-6i64..10).prop_map(i128::from),
        (-6i64..10).prop_map(|d| (1i128 << 64) + i128::from(d)),
        (-6i64..10).prop_map(|d| i128::from(d) - (1i128 << 64)),
        Just(i128::MIN),
        Just(i128::MAX),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One bounds rule for every array a body indexes, on both engines: an
    /// element iff `index − lo ∈ [0, len)`, else `IndexOutOfBounds` — local
    /// and static arrays (`lo` 0) read and written, environment arrays read
    /// with any `lo`, the index anywhere in `i128`.
    #[test]
    fn every_array_index_follows_one_bounds_rule(index in any_index(), lo in any_index()) {
        let vals = [10i128, 11, 12, 13];
        // The model, stated without the code's `checked_sub`: `index` is at
        // or above `lo` and less than `len` past it — when `index >= lo` the
        // true difference lies in [0, 2^128) and is the wrapping one read
        // unsigned.
        let off = |lo: i128| {
            let d = index.wrapping_sub(lo) as u128;
            (index >= lo && d < 4).then_some(d as usize)
        };
        let oob = |name: &str| Err(InterpError::IndexOutOfBounds {
            name: name.into(),
            index,
            len: 4,
        });
        let read = |name: &str, lo| off(lo).map_or_else(|| oob(name), |k| Ok(Some(vals[k])));
        let write = |name: &str| off(0).map_or_else(|| oob(name), |k| Ok(Some(9 * 10i128.pow(k as u32))));
        let mut env = MockEnv::default();
        env.scalars.insert("i".into(), index);
        env.arrays.insert("a".into(), (lo, vals.to_vec()));
        let fill = "b[0] = 10; b[1] = 11; b[2] = 12; b[3] = 13;";
        let sum = "b[0] + 10 * b[1] + 100 * b[2] + 1000 * b[3]";
        for decl in ["int b[4];", "static int b[4];"] {
            for (src, want) in [
                (format!("{decl} {fill} return b[i];"), read("b", 0)),
                (format!("{decl} b[i] = 9; return {sum};"), write("b")),
            ] {
                prop_assert_eq!(run_both(&src, &env), (want.clone(), want), "{}", src);
            }
        }
        let want = read("a", lo);
        prop_assert_eq!(run_both("return a[i];", &env), (want.clone(), want));
    }
}

#[test]
fn statics_and_termination_are_identical() {
    // A persistent counter plus top-level break-style early termination.
    let src = r#"
static uint32_t calls = 0;
calls += 1;
${count} = calls;
if (calls > 2) {
    return calls;
}
${after} = calls * 10;
"#;
    assert_parity(
        "statics",
        src,
        || env_with_mbls(&[("count", 0), ("after", 0)]),
        50_000_000,
        5,
    );
}

/// The cases above run both engines against `MockEnv`, which knows names
/// only. In the agent the VM is *bound*: registration resolves every name
/// of the body to an id of the agent's (argument, malleable slot, table,
/// method, builtin) once, while the walker asks the `ReactionCtx` to resolve
/// each name at each access — the same resolver, so the same ids. Twin
/// testbeds — one registered the way every agent registers (the VM), one
/// with the reference walker registered from outside as a native reaction
/// — under the same phased traffic must stage the same updates every
/// iteration: same virtual timing, same staged op counts, same failure
/// strings, same committed slots and entries.
#[test]
fn bound_vm_matches_walker_through_a_real_reaction_ctx() {
    use bench::fuzz::register_reference_walker;
    use mantis::rmt_sim::PacketDesc;
    use mantis::{CostModel, DriverMode, SwitchConfig, Testbed};

    const STEP_LIMIT: u64 = 50_000_000;

    fn ipv4(port: u16, src: u128, payload: u32) -> PacketDesc {
        PacketDesc::new(port)
            .field("ethernet", "ether_type", 0x0800)
            .field("ipv4", "src_addr", src)
            .field("ipv4", "dst_addr", 0x0a00_0001)
            .field("ipv4", "protocol", 17)
            .payload(payload)
    }
    // Quiet and hot phases alternate so every body takes both its idle
    // path and its reacting one: an attacker, a polarised flow, a silent
    // neighbour, a standing queue.
    fn traffic(app: &str, i: u64) -> Vec<PacketDesc> {
        let hot = (i / 40) % 2 == 1;
        match app {
            "dos" => {
                let mut pkts = vec![ipv4((i % 4) as u16, 0x0a00_0100 + u128::from(i % 50), 100)];
                if hot {
                    pkts.extend((0..8).map(|_| ipv4(1, 0x0b00_0000 + u128::from(i / 80), 1_400)));
                }
                pkts
            }
            "ecmp" => {
                let flow = |f: u64| {
                    ipv4(0, u128::from(f) * 0x9e37 + 1, 200)
                        .field("l4", "sport", u128::from(1024 + f % 40_000))
                        .field("l4", "dport", u128::from(1 + f % 1_000))
                };
                let n = if hot { 16 } else { 4 };
                (0..n)
                    .map(|k| flow(if hot { 7 } else { i * 4 + k }))
                    .collect()
            }
            "failover" => {
                let ports = (4..8u16).filter(|p| !(hot && *p == 5));
                ports
                    .flat_map(|p| {
                        let hb = PacketDesc::new(p)
                            .field("ethernet", "ether_type", 0x88b5)
                            .field("hb", "seq", 0)
                            .field("hb", "origin", u128::from(p))
                            .payload(0);
                        std::iter::repeat_n(hb, 10)
                    })
                    .collect()
            }
            _ => {
                let burst = if hot && i.is_multiple_of(40) { 300 } else { 0 };
                let mut pkts = vec![ipv4(0, 0x0a00_0101, 100)];
                pkts.extend((0..burst).map(|_| ipv4(1, 0x0a00_0102, 1_450)));
                pkts
            }
        }
    }

    for (app, src) in [
        ("dos", DOS_P4R),
        ("failover", FAILOVER_P4R),
        ("ecmp", ECMP_P4R),
        ("rl", RL_P4R),
    ] {
        let build = |reference: bool| {
            let config = SwitchConfig {
                num_pipes: 1,
                // A bottleneck slow enough for the RL burst to stand.
                port_rate_bps: match app {
                    "rl" => 1_000_000_000,
                    _ => SwitchConfig::default().port_rate_bps,
                },
                ..SwitchConfig::default()
            };
            let tb =
                Testbed::with_config_mode(src, config, CostModel::default(), DriverMode::Local)
                    .expect("app compiles");
            if app == "rl" {
                let mut sw = tb.sim.switch().borrow_mut();
                sw.bind_queue_depth_register("qdepths").expect("qdepths");
            }
            let mut agent = tb.agent.borrow_mut();
            if reference {
                register_reference_walker(&mut agent, STEP_LIMIT).expect("registers");
            } else {
                agent.register_all_interpreted().expect("registers");
                agent.set_reaction_step_limits(STEP_LIMIT);
            }
            drop(agent);
            tb
        };
        let twins = [build(false), build(true)];
        let initial = twins[0].agent.borrow().config_fingerprint();
        let mut reacted = false;
        for i in 0..240 {
            let seen = twins.each_ref().map(|tb| {
                let mut sw = tb.sim.switch().borrow_mut();
                for pkt in traffic(app, i) {
                    sw.inject(&pkt);
                }
                sw.pump();
                sw.take_transmitted();
                drop(sw);
                let mut agent = tb.agent.borrow_mut();
                let r = agent.dialogue_iteration().expect("iteration commits");
                let failures: Vec<String> = r
                    .reaction_failures
                    .iter()
                    .map(|f| f.error.clone())
                    .collect();
                let timing = (
                    r.duration_ns,
                    r.measure_ns,
                    r.react_ns,
                    r.update_ns,
                    r.sync_ns,
                );
                let fps = (agent.config_fingerprint(), agent.entry_fingerprint());
                (timing, r.staged_table_ops, failures, fps)
            });
            assert_eq!(seen[0], seen[1], "{app}: engines diverged at iteration {i}");
            reacted |= seen[0].1 > 0 || seen[0].3 .0 != initial;
        }
        assert!(reacted, "{app}: the traffic never made the body react");
        // The twins did run different executors.
        assert!(twins[0].agent.borrow().vm_dispatch_total() > 0);
        assert_eq!(twins[1].agent.borrow().vm_dispatch_total(), 0);
    }
}

/// A reaction that fails is contained and reported; the report of the twin
/// that runs the reference walker (a native reaction, to its agent) must
/// read byte for byte like the VM twin's — division by zero, an environment
/// error and the step limit alike.
#[test]
fn reference_walker_reports_failures_as_the_agent_does() {
    use bench::fuzz::register_reference_walker;
    use mantis::rmt_sim::PacketDesc;
    use mantis::Testbed;

    const SRC: &str = r#"
header_type ip_t { fields { src : 32; } }
header ip_t ip;
malleable value knob { width : 8; init : 1; }
action fwd() { modify_field(intr.egress_spec, ${knob}); }
table t { actions { fwd; } size : 1; }
reaction r(ing ip.src) {
    static uint32_t runs = 0;
    runs++;
    if (runs == 2) { ${knob} = 100 / (ip_src - ip_src); }
    if (runs == 3) { ${knob} = no_such_builtin(1); }
    if (runs == 4) { while (1) { runs = 4; } }
    ${knob} = runs;
}
control ingress { apply(t); }
"#;
    let build = |reference: bool| {
        let tb = Testbed::from_p4r(SRC).expect("program compiles");
        let mut agent = tb.agent.borrow_mut();
        if reference {
            register_reference_walker(&mut agent, 10_000).expect("registers");
        } else {
            agent.register_all_interpreted().expect("registers");
            agent.set_reaction_step_limits(10_000);
        }
        drop(agent);
        tb
    };
    let twins = [build(false), build(true)];
    let mut failed = 0;
    for i in 0..6u128 {
        let seen = twins.each_ref().map(|tb| {
            let pkt = PacketDesc::new(0).field("ip", "src", 7 + i).payload(64);
            tb.sim.switch().borrow_mut().inject(&pkt);
            let mut agent = tb.agent.borrow_mut();
            let r = agent.dialogue_iteration().expect("failures are contained");
            let failures: Vec<(String, String, bool)> = r
                .reaction_failures
                .iter()
                .map(|f| (f.name.clone(), f.error.clone(), f.quarantined))
                .collect();
            (failures, agent.slot("knob"), agent.config_fingerprint())
        });
        assert_eq!(seen[0], seen[1], "iteration {i}");
        failed += seen[0].0.len();
    }
    assert_eq!(failed, 3, "runs 2, 3 and 4 each fail once");
}
