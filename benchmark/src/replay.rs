//! Isolated replays: each layer's public functions driven from outside
//! with the inputs and sizes the workloads give them, timed on their own.
//! A layer's *replay share* of a workload is `Σ ops × replay ns / wall`;
//! what no replay explains is reported as unattributed, not hidden.
//!
//! Every timing is the median over batches of a fixed number of calls, so
//! one descheduled batch does not move it. Replays read no environment
//! and take the workload seed for whatever they randomise.

use crate::fabric_fwd::{self, ROUTE_P4};
use crate::react::{self, Driver};
use crate::report::{put, Metrics};
use crate::stats::median;
use crate::Scale;
use mantis::control::{encode_request_frame, ControlPlane, DriverOp, FrameDecoder};
use mantis::mantis_agent::{DriverApi, LocalDriver};
use mantis::p4_ast::{MatchKind, Pipeline, Value};
use mantis::p4r_compiler::entry::LogicalKey;
use mantis::p4r_compiler::{compile_source, CompilerOptions};
use mantis::reaction_interp::{CompiledReaction, Interpreter, MockEnv};
use mantis::rmt_sim::spec::{KeySpec, TableSpec};
use mantis::rmt_sim::{
    load, switch_from_source, ActionId, Clock, DataPlaneSpec, KeyField, PacketDesc, PacketTemplate,
    Phv, SharedSwitch, Switch, SwitchConfig, Table,
};
use mantis::{p4r_lang, CostModel, Telemetry, Testbed};
use netsim::{spawn_scale_flows, TimingWheel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Batches per replay; the reported figure is their median.
const BATCHES: usize = 15;

/// How many calls a replay makes: the stated counts, or a twentieth of
/// them for the self-test's smoke runs.
#[derive(Clone, Copy)]
struct Effort(u64);

impl Effort {
    fn calls(self, stated: u64) -> u64 {
        (stated / self.0).max(16)
    }

    /// Batches of a replay whose every batch is expensive.
    fn batches(self) -> usize {
        (BATCHES as u64 / self.0).max(1) as usize
    }
}
/// Entries resident in the lookup and table-write replays.
const RESIDENT: usize = 1024;

/// Median over [`BATCHES`] batches of wall ns per call of `f`, `per_batch`
/// calls to a batch. `f` gets the running call index.
fn ns_per_call(per_batch: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut i = 0u64;
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                f(i);
                i += 1;
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    median(&batches)
}

// ---------------------------------------------------------------------------
// rmt-sim
// ---------------------------------------------------------------------------

/// One leaf of the routed fabric, alone, with its 16 routes installed.
fn route_switch(clock: &Clock) -> Switch {
    let mut sw = switch_from_source(ROUTE_P4, SwitchConfig::default(), clock.clone())
        .expect("route program compiles");
    let table = sw.table_id("route").expect("route table");
    let action = sw.action_id("fwd").expect("fwd action");
    for addr in 1..=16u128 {
        sw.table_add(
            table,
            vec![KeyField::Exact(Value::new(addr, 32))],
            0,
            action,
            vec![Value::new(addr % 4, 64)],
        )
        .expect("route installs");
    }
    sw
}

/// `inject_template` (ingress pipeline + enqueue) and `pump` (egress +
/// transmit) on the route program, and `run_pipeline` alone.
fn rmt_packet_path(seed: u64, e: Effort, m: &mut Metrics) {
    let clock = Clock::new();
    let mut sw = route_switch(&clock);
    let desc = PacketDesc::new(0)
        .field("ip", "src", 1)
        .field("ip", "dst", 2)
        .payload(700);
    let mut tmpl = PacketTemplate::compile(&desc, sw.spec()).expect("template compiles");
    let mut rng = StdRng::seed_from_u64(seed);
    let burst = 256u64;
    let mut inject = Vec::new();
    let mut pump = Vec::new();
    let mut sink = Vec::new();
    for _ in 0..e.calls(BATCHES as u64 * 40) {
        let t0 = Instant::now();
        for _ in 0..burst {
            tmpl.set_value(1, u128::from(rng.gen_range(1..=16u32)));
            black_box(sw.inject_template(&tmpl));
        }
        inject.push(t0.elapsed().as_nanos() as f64 / burst as f64);
        // Release the burst: 256 × 750 B drain in well under 1 ms.
        clock.advance(1_000_000);
        let t1 = Instant::now();
        let served = sw.pump();
        pump.push(t1.elapsed().as_nanos() as f64 / served.max(1) as f64);
        sw.drain_transmitted_with_len(&mut sink);
        for (pkt, _) in sink.drain(..) {
            sw.recycle_phv(pkt.phv);
        }
    }
    put(m, "rmt_sim.inject_ns", median(&inject), "ns");
    put(m, "rmt_sim.pump_ns_per_pkt", median(&pump), "ns");

    let dst = sw.field_id("ip", "dst").expect("ip.dst");
    let mut phv = Some(desc.build(sw.spec()));
    let ns = ns_per_call(e.calls(20_000), |i| {
        let mut p = phv.take().expect("phv cycles");
        p.dropped = false;
        p.set_u64(dst, 1 + i % 16);
        phv = Some(black_box(sw.run_pipeline(p, Pipeline::Ingress)));
    });
    put(m, "rmt_sim.pipeline_route_ns", ns, "ns");
}

/// The failover program after a real prologue, with 64 /24 routes
/// installed through the agent.
fn failover_testbed() -> Testbed {
    let tb = react::build("failover", Driver::Local);
    tb.agent
        .borrow_mut()
        .user_init(|ctx| {
            for i in 0..64u128 {
                ctx.table_add(
                    "route",
                    vec![LogicalKey::Lpm {
                        value: Value::new(0x0a00_0000 | (i << 8), 32),
                        prefix_len: 24,
                    }],
                    0,
                    "route_to",
                    vec![Value::new(4 + i % 4, 9)],
                )?;
            }
            Ok(())
        })
        .expect("routes install");
    tb
}

/// `run_pipeline` and `register_read_range` on the failover program (LPM
/// route table, register-ALU heartbeat count).
fn rmt_failover_path(e: Effort, m: &mut Metrics) {
    let tb = failover_testbed();
    let handle = tb.sim.switch().clone();
    let mut sw = handle.borrow_mut();
    let hb = PacketDesc::new(4)
        .field("ethernet", "ether_type", 0x88b5)
        .field("hb", "origin", 4);
    let data = PacketDesc::new(0)
        .field("ethernet", "ether_type", 0x0800)
        .field("ipv4", "dst_addr", 0x0a00_0101)
        .payload(1_250);
    let mut phvs = [Some(hb.build(sw.spec())), Some(data.build(sw.spec()))];
    let ns = ns_per_call(e.calls(20_000), |i| {
        let slot = &mut phvs[(i % 2) as usize];
        let mut p = slot.take().expect("phv cycles");
        // Both packets end in `drop()`; a dropped PHV skips its tables.
        p.dropped = false;
        *slot = Some(black_box(sw.run_pipeline(p, Pipeline::Ingress)));
    });
    put(m, "rmt_sim.pipeline_failover_ns", ns, "ns");

    let reg = sw.register_id("hb_count").expect("hb_count register");
    let ns = ns_per_call(e.calls(20_000), |_| {
        black_box(sw.register_read_range(reg, 0, 31));
    });
    put(m, "rmt_sim.register_read_ns_per_cell", ns / 32.0, "ns");
}

/// A PHV layout with one 32-bit metadata field, and a table keyed on it.
fn one_field_table(kind: MatchKind) -> (DataPlaneSpec, TableSpec) {
    let prog = p4r_lang::parse_program("header_type m_t { fields { f0 : 32; } } metadata m_t m;")
        .expect("replay PHV program parses");
    let dps = load(&prog).expect("replay PHV spec loads");
    let spec = TableSpec {
        name: "replay".into(),
        key: vec![KeySpec {
            field: dps.field_id("m", "f0").expect("m.f0"),
            kind,
            width: 32,
            static_mask: None,
        }],
        actions: vec![ActionId(0), ActionId(1)],
        default_action: Some((ActionId(1), vec![])),
        size: RESIDENT as u32 + 8,
        malleable: false,
        stage: 0,
        pipeline: Pipeline::Ingress,
    };
    (dps, spec)
}

fn key_for(kind: MatchKind, i: u128) -> Vec<KeyField> {
    vec![match kind {
        MatchKind::Exact => KeyField::Exact(Value::new(i, 32)),
        MatchKind::Lpm => KeyField::Lpm {
            value: Value::new(0x0a00_0000 | (i << 8), 32),
            prefix_len: 24,
        },
        _ => KeyField::Ternary {
            value: Value::new(i, 32),
            mask: Value::ones(32),
        },
    }]
}

/// `Table::lookup` with [`RESIDENT`] entries and a seeded hit mix (three
/// probes in four hit), and add/mod/del of one more entry.
fn rmt_tables(seed: u64, e: Effort, m: &mut Metrics) {
    for (kind, name) in [
        (MatchKind::Exact, "exact"),
        (MatchKind::Lpm, "lpm"),
        (MatchKind::Ternary, "ternary"),
    ] {
        let (dps, spec) = one_field_table(kind);
        let mut table = Table::new(&spec);
        for i in 0..RESIDENT as u128 {
            let prio = (RESIDENT as u128 - i) as u32;
            table
                .add_entry(&spec, key_for(kind, i), prio, ActionId(0), vec![], 0)
                .expect("resident entry installs");
        }
        let field = dps.field_id("m", "f0").expect("m.f0");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7ab1e);
        let probes: Vec<Phv> = (0..256)
            .map(|_| {
                let hit = rng.gen_range(0..4u32) != 0;
                let i = u64::from(rng.gen_range(0..RESIDENT as u32));
                let v = match (kind, hit) {
                    (MatchKind::Lpm, true) => 0x0a00_0000 | (i << 8) | 7,
                    (MatchKind::Lpm, false) => 0x0c00_0000 | i,
                    (_, true) => i,
                    (_, false) => 0x4000_0000 | i,
                };
                let mut phv = Phv::new(&dps);
                phv.set_u64(field, v);
                phv
            })
            .collect();
        let ns = ns_per_call(e.calls(20_000), |i| {
            black_box(table.lookup(&spec, &probes[(i % 256) as usize]));
        });
        put(m, format!("rmt_sim.lookup_{name}_ns"), ns, "ns");

        if kind == MatchKind::Lpm {
            continue;
        }
        // The write-side twin: one entry beyond the resident set.
        let suffix = if kind == MatchKind::Exact {
            ""
        } else {
            "_ternary"
        };
        let (mut add, mut modify, mut del) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..BATCHES {
            let n = e.calls(2_000);
            let (mut a, mut o, mut d) = (0u128, 0u128, 0u128);
            for i in 0..n {
                let key = key_for(kind, RESIDENT as u128 + u128::from(i));
                let t0 = Instant::now();
                let h = table
                    .add_entry(&spec, key, 0, ActionId(0), vec![], 0)
                    .expect("add");
                let t1 = Instant::now();
                table
                    .mod_entry(&spec, h, ActionId(1), vec![], 0)
                    .expect("mod");
                let t2 = Instant::now();
                table.del_entry(h).expect("del");
                let t3 = Instant::now();
                a += (t1 - t0).as_nanos();
                o += (t2 - t1).as_nanos();
                d += (t3 - t2).as_nanos();
            }
            add.push(a as f64 / n as f64);
            modify.push(o as f64 / n as f64);
            del.push(d as f64 / n as f64);
        }
        put(
            m,
            format!("rmt_sim.table_add{suffix}_ns"),
            median(&add),
            "ns",
        );
        put(
            m,
            format!("rmt_sim.table_mod{suffix}_ns"),
            median(&modify),
            "ns",
        );
        put(
            m,
            format!("rmt_sim.table_del{suffix}_ns"),
            median(&del),
            "ns",
        );
    }
}

// ---------------------------------------------------------------------------
// netsim
// ---------------------------------------------------------------------------

/// `TimingWheel` fed arrival times shaped like the Fig. 14 block's: about
/// 255 K arrivals per virtual second on a 1 µs tick, each scheduled a wire
/// delay ahead of the cursor and popped when due.
fn netsim_wheel(seed: u64, e: Effort, m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3ee1);
    let n = e.calls(400_000) as usize;
    let mut times: Vec<u64> = (0..n)
        .map(|_| rng.gen_range(0..1_500_000u64) * 1_000)
        .collect();
    times.sort_unstable();
    let mut wheel: TimingWheel<u64> = TimingWheel::new();
    let (mut sched, mut pop) = (Vec::new(), Vec::new());
    for chunk in times.chunks((n / BATCHES).max(1)) {
        let (mut s_ns, mut p_ns, mut popped) = (0u128, 0u128, 0u64);
        for (seq, t) in chunk.iter().enumerate() {
            let t0 = Instant::now();
            wheel.schedule(*t + 1_500, seq as u64, *t);
            let t1 = Instant::now();
            while let Some(ev) = wheel.pop_due(*t) {
                black_box(ev);
                popped += 1;
            }
            let t2 = Instant::now();
            s_ns += (t1 - t0).as_nanos();
            p_ns += (t2 - t1).as_nanos();
        }
        sched.push(s_ns as f64 / chunk.len() as f64);
        pop.push(p_ns as f64 / popped.max(1) as f64);
    }
    put(m, "netsim.wheel_schedule_ns", median(&sched), "ns");
    put(m, "netsim.wheel_pop_ns", median(&pop), "ns");
}

/// `spawn_scale_flows` of the whole Fig. 14 block on a fresh fabric.
fn netsim_spawn(seed: u64, scale: Scale, m: &mut Metrics) {
    let size = fabric_fwd::FabricSize::for_scale(scale);
    let mut sim = fabric_fwd::build_fabric();
    let t0 = Instant::now();
    let planned = spawn_scale_flows(
        &mut sim,
        &fabric_fwd::scale_cfg(seed, size),
        &fabric_fwd::hosts(),
    )
    .expect("scale flows spawn");
    black_box(planned);
    put(m, "netsim.spawn_flows_s", t0.elapsed().as_secs_f64(), "s");
}

// ---------------------------------------------------------------------------
// mantis-agent driver, reaction-interp, mantis-control, compiler, telemetry
// ---------------------------------------------------------------------------

/// `LocalDriver` ops on the failover program's switch: the table write, the register read
/// and the init flip every dialogue iteration is made of.
fn agent_driver(e: Effort, m: &mut Metrics) {
    let tb = failover_testbed();
    let switch = tb.sim.switch().clone();
    let mut driver = LocalDriver::new(switch.clone(), CostModel::default());
    let table = driver.table_id("route").expect("route table");
    let init = tb.compiled.iface.master_init().expect("master init table");
    let init_table = driver.table_id(&init.table).expect("init table id");
    // The physical entries and the master default as the prologue left
    // them; the replays write the same values back.
    let (entries, init_default) = {
        let sw = switch.borrow();
        let entries: Vec<_> = sw
            .table_ref(table)
            .entries()
            .map(|e| (e.handle, e.action, e.action_data.to_vec()))
            .collect();
        let (action, data) = sw
            .table_ref(init_table)
            .default_action()
            .expect("prologue set the master default")
            .clone();
        (entries, (action, data.to_vec()))
    };
    let ns = ns_per_call(e.calls(10_000), |i| {
        let (handle, action, data) = &entries[i as usize % entries.len()];
        driver
            .table_mod(table, *handle, *action, data.clone())
            .expect("table_mod");
    });
    put(m, "mantis_agent.driver_table_mod_ns", ns, "ns");

    let reg = driver.register_id("hb_count").expect("hb_count register");
    let ns = ns_per_call(e.calls(10_000), |_| {
        black_box(
            driver
                .register_read_range(reg, 0, 7)
                .expect("register read"),
        );
    });
    put(m, "mantis_agent.driver_register_read_ns", ns, "ns");

    let ns = ns_per_call(e.calls(10_000), |_| {
        driver
            .table_set_default(init_table, init_default.0, init_default.1.clone(), true)
            .expect("init flip");
    });
    put(m, "mantis_agent.driver_init_flip_ns", ns, "ns");
}

/// The five reaction bodies on a `MockEnv` seeded like the stimulus (every
/// measured register and field present, moving between runs): bytecode VM
/// and, for reference only, the tree-walker.
fn reaction_bodies(seed: u64, e: Effort, m: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xb0d1e5);
    let (mut vm_ns, mut walker_ns, mut dispatch) = (Vec::new(), Vec::new(), Vec::new());
    let mut fallbacks = 0u64;
    for program in react::PROGRAMS {
        let compiled = compile_source(react::source(program), &CompilerOptions::default())
            .expect("program compiles");
        let binding = &compiled.iface.reactions[0];
        let body = p4r_lang::creact::parse_body(&binding.body_src).expect("body parses");
        let mut env = MockEnv::default();
        for f in &binding.fields {
            env.scalars.insert(
                f.binding.clone(),
                i128::from(rng.gen_range(1..1_000_000u32)),
            );
        }
        for r in &binding.registers {
            let vals = (r.lo..=r.hi)
                .map(|_| i128::from(rng.gen_range(0..4_096u32)))
                .collect();
            env.arrays
                .insert(r.binding.clone(), (i128::from(r.lo), vals));
        }
        for v in &compiled.iface.values {
            env.mbls.insert(v.name.clone(), v.init.bits() as i128);
        }
        for f in &compiled.iface.fields {
            env.mbls.insert(f.name.clone(), f.init_index as i128);
        }
        env.builtins.insert("now_us".into(), 1_000);
        let step = |env: &mut MockEnv, i: u64| {
            // Counters grow and the clock moves, as under the stimulus.
            for (_, vals) in env.arrays.values_mut() {
                for v in vals.iter_mut() {
                    *v += 3;
                }
            }
            env.builtins.insert("now_us".into(), 1_000 + 10 * i as i128);
            env.table_ops.clear();
        };
        let mut walker = Interpreter::new(body.clone());
        match CompiledReaction::compile(&body) {
            Ok(mut vm) => {
                let runs = 5_000u64;
                let ns = ns_per_call(runs, |i| {
                    step(&mut env, i);
                    black_box(vm.run(&mut env).expect("vm run"));
                });
                vm_ns.push(ns);
                put(m, format!("reaction_interp.vm_run_ns.{program}"), ns, "ns");
                dispatch.push(vm.dispatch_count() as f64 / (runs * BATCHES as u64) as f64);
            }
            Err(_) => fallbacks += 1,
        }
        let ns = ns_per_call(e.calls(1_000), |i| {
            step(&mut env, i);
            black_box(walker.run(&mut env).expect("walker run"));
        });
        walker_ns.push(ns);
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    put(m, "reaction_interp.vm_run_ns", mean(&vm_ns), "ns");
    put(m, "reaction_interp.walker_run_ns", mean(&walker_ns), "ns");
    put(
        m,
        "reaction_interp.vm_dispatch_per_run",
        mean(&dispatch),
        "count",
    );
    put(m, "reaction_interp.vm_fallbacks", fallbacks as f64, "count");
}

/// `encode_request_frame`, `FrameDecoder` and `ControlPlane::handle_frame`
/// on the churn iteration's batch shape: 16 table mods and one init flip.
fn control_wire(e: Effort, m: &mut Metrics) {
    let tb = react::build("churn", Driver::Local);
    let switch = tb.sim.switch().clone();
    let (table, action, handles) = {
        let sw = switch.borrow();
        let table = sw.table_id("acl").expect("acl table");
        let handles: Vec<_> = sw.table_ref(table).entries().map(|e| e.handle).collect();
        let action = sw
            .table_ref(table)
            .entries()
            .next()
            .expect("entries")
            .action;
        (table, action, handles)
    };
    let ops: Vec<DriverOp> = handles
        .iter()
        .cycle()
        .take(16)
        .map(|h| DriverOp::TableMod {
            table,
            handle: *h,
            action,
            data: switch
                .borrow()
                .table_ref(table)
                .entries()
                .find(|e| e.handle == *h)
                .expect("entry")
                .action_data
                .to_vec(),
        })
        .collect();
    let ns = ns_per_call(e.calls(5_000), |i| {
        black_box(encode_request_frame(i, &ops));
    });
    put(m, "mantis_control.encode_ns_per_frame", ns, "ns");

    let frame = encode_request_frame(1, &ops);
    put(
        m,
        "mantis_control.replay_frame_bytes",
        frame.len() as f64,
        "count",
    );
    put(
        m,
        "mantis_control.replay_frame_ops",
        ops.len() as f64,
        "count",
    );
    let mut decoder = FrameDecoder::new();
    let ns = ns_per_call(e.calls(5_000), |_| {
        decoder.push(&frame);
        black_box(decoder.next_frame().expect("frame decodes"));
    });
    put(m, "mantis_control.decode_ns_per_frame", ns, "ns");

    let mut plane = ControlPlane::new(switch.clone(), CostModel::default());
    let client = plane.register_client();
    let ns = ns_per_call(e.calls(2_000), |i| {
        // A fresh sequence number each call, or the plane replays its
        // cached response instead of applying the batch.
        let frame = encode_request_frame(i + 2, &ops);
        black_box(plane.handle_frame(client, &frame).expect("frame applies"));
    });
    // The encode of the request is inside the loop; take it back out.
    let encode = m["mantis_control.encode_ns_per_frame"].value;
    put(
        m,
        "mantis_control.plane_handle_ns_per_frame",
        (ns - encode).max(0.0),
        "ns",
    );
}

/// Parse, compile and prologue of the five programs, summed.
fn compile_chain(e: Effort, m: &mut Metrics) {
    let (mut parse, mut compile, mut prologue) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..e.batches() {
        let (mut p, mut c, mut g) = (0.0, 0.0, 0.0);
        for program in react::PROGRAMS {
            let src = react::source(program);
            let t0 = Instant::now();
            black_box(p4r_lang::parse_program(src).expect("parses"));
            let t1 = Instant::now();
            let compiled = compile_source(src, &CompilerOptions::default()).expect("compiles");
            let t2 = Instant::now();
            let spec = load(&compiled.p4).expect("loads");
            let switch =
                SharedSwitch::new(Switch::new(spec, SwitchConfig::default(), Clock::new()));
            let mut agent = mantis::MantisAgent::new(switch, &compiled, CostModel::default());
            let t3 = Instant::now();
            agent.prologue().expect("prologue");
            let t4 = Instant::now();
            p += (t1 - t0).as_secs_f64() * 1e6;
            // compile_source parses too; report the compiler's own part.
            c += ((t2 - t1).as_secs_f64() - (t1 - t0).as_secs_f64()).max(0.0) * 1e6;
            g += (t4 - t3).as_secs_f64() * 1e6;
        }
        parse.push(p);
        compile.push(c);
        prologue.push(g);
    }
    put(m, "p4r_lang.parse_us", median(&parse), "us");
    put(m, "p4r_compiler.compile_us", median(&compile), "us");
    put(m, "mantis_agent.prologue_us", median(&prologue), "us");
}

/// The enabled registry's string-keyed hot calls.
fn telemetry_calls(e: Effort, m: &mut Metrics) {
    let tel = Telemetry::shared();
    let names: Vec<String> = (0..8).map(|i| format!("sw{i}.switch.rx")).collect();
    let ns = ns_per_call(e.calls(50_000), |i| {
        tel.counter_add(&names[(i % 8) as usize], 1);
    });
    put(m, "mantis_telemetry.counter_add_ns", ns, "ns");
    let ns = ns_per_call(e.calls(50_000), |i| {
        tel.span_begin(mantis::Scope::Agent, "iteration", i);
        tel.span_end(mantis::Scope::Agent, "iteration", i + 1);
    });
    put(m, "mantis_telemetry.span_ns", ns, "ns");
}

/// Run every layer's replays.
pub fn run_all(seed: u64, scale: Scale) -> Metrics {
    let e = Effort(if scale == Scale::Smoke { 20 } else { 1 });
    let mut m = Metrics::new();
    rmt_packet_path(seed, e, &mut m);
    rmt_failover_path(e, &mut m);
    rmt_tables(seed, e, &mut m);
    netsim_wheel(seed, e, &mut m);
    netsim_spawn(seed, scale, &mut m);
    agent_driver(e, &mut m);
    reaction_bodies(seed, e, &mut m);
    control_wire(e, &mut m);
    compile_chain(e, &mut m);
    telemetry_calls(e, &mut m);
    m
}
