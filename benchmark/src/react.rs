//! `react_local` / `react_remote`: the dialogue loop, closed loop, one
//! client. Five programs run `dialogue_iteration()` back to back; before
//! each timed iteration the harness injects a seeded packet burst and
//! pumps the switch, untimed, and every
//! [`PHASE_LEN`] iterations it flips a phase so that measured registers
//! move and each program's update branch fires at a seed-fixed cadence.
//!
//! The two workloads share everything but the driver: `react_local` goes
//! through the in-process driver, `react_remote` through the wire protocol
//! over a 10 µs-RTT channel with batching on. Stimulus is driven by the
//! iteration count, not by virtual time, and every reaction decision has a
//! wide margin against the slower virtual pace of the remote loop — so
//! both end each program with the same committed configuration, which is
//! what the fingerprint check compares.

use crate::host::peak_rss_mb;
use crate::report::{put, Outcome};
use crate::span::Tracer;
use crate::stats::{geomean, median, median_of_fastest, min_per_index, summarize, Summary};
use crate::Scale;
use mantis::apps::programs::{DOS_P4R, ECMP_P4R, FAILOVER_P4R, RL_P4R};
use mantis::p4_ast::Value;
use mantis::p4r_compiler::entry::LogicalKey;
use mantis::rmt_sim::{PacketDesc, PortId, Switch};
use mantis::telemetry::Snapshot;
use mantis::{
    ChannelConfig, CostModel, DriverMode, MantisAgent, ReactionCtx, SwitchConfig, Testbed,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The reaction loop's programs, in reporting order.
pub const PROGRAMS: [&str; 5] = ["dos", "ecmp", "failover", "rl", "churn"];

/// Iterations between phase flips.
pub const PHASE_LEN: u64 = 1_000;

/// Control-channel round trip of `react_remote`.
pub const REMOTE_RTT_NS: u64 = 10_000;

/// Entries the `churn` program rewrites per iteration.
const CHURN_MODS: usize = 8;

/// The mod-heavy program of `bench::control` (its source is private to
/// that crate, so the benchmark carries its own copy): every iteration
/// rewrites [`CHURN_MODS`] malleable-table entries and commits a value.
const CHURN_P4R: &str = r#"
header_type h_t { fields { a : 32; b : 32; } }
header h_t h;
malleable value knob { width : 32; init : 0; }
action fwd(port) { modify_field(intr.egress_spec, port); }
action nop() { no_op(); }
malleable table acl {
    reads { h.b : exact; }
    actions { fwd; nop; }
    size : 256;
}
table t { actions { nop; } default_action : nop(); }
reaction churn(ing h.a) { ${knob} = ${knob}; }
control ingress { apply(acl); apply(t); }
"#;

pub fn source(program: &str) -> &'static str {
    match program {
        "dos" => DOS_P4R,
        "ecmp" => ECMP_P4R,
        "failover" => FAILOVER_P4R,
        "rl" => RL_P4R,
        "churn" => CHURN_P4R,
        other => panic!("unknown program {other}"),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    Local,
    Remote,
}

#[derive(Clone, Copy, Debug)]
pub struct ReactSize {
    /// Timed iterations per program in one repetition.
    pub iters: u64,
    pub warmup: u64,
    /// Repetitions of every program's loop, each on a fresh testbed with
    /// the same seed: iteration `i` does the same work in every one.
    pub reps: usize,
    /// Samples behind `setup_s`, each [`SETUPS_PER_SAMPLE`] fresh builds
    /// of all five testbeds.
    pub setup_samples: usize,
    /// Timed iterations after which the committed configuration is
    /// fingerprinted, and for which the twin on the other driver runs.
    pub checkpoint: u64,
}

/// Building the five testbeds is 2–3 ms of work, the same every time; a
/// sample is the fastest of this many consecutive builds.
pub const SETUPS_PER_SAMPLE: usize = 10;

impl ReactSize {
    /// 15 000 timed iterations per program and repetition, on either
    /// driver. With the stimulus, one such pass over the five programs
    /// takes 2.5–3 s on the reference host (the README has the breakdown),
    /// so a run of `seconds` buys `seconds / 3` of them: ten passes,
    /// 150 000 iterations per program, in the 30 s `BENCHMARK.json` runs
    /// for. Many short passes rather than few long ones: every iteration
    /// counts at its fastest reading, and ten readings outlast a host that
    /// disturbs half of them.
    pub fn for_scale(scale: Scale) -> ReactSize {
        match scale {
            Scale::Seconds(seconds) => ReactSize {
                iters: 15_000,
                warmup: 1_000,
                reps: (seconds / 3).max(1) as usize,
                setup_samples: 21,
                checkpoint: 10_000,
            },
            Scale::Smoke => ReactSize::smoke(),
        }
    }

    /// Two phases, so one of them is an active one on any seed.
    pub fn smoke() -> ReactSize {
        ReactSize {
            iters: 2_000,
            warmup: 0,
            reps: 2,
            setup_samples: 1,
            checkpoint: 1_000,
        }
    }
}

/// Register the churn program's native reaction: rewrite the
/// pre-installed entries and bump the knob, every iteration.
fn arm_churn(agent: &mut MantisAgent) {
    let mut handles = Vec::with_capacity(CHURN_MODS);
    agent
        .user_init(|ctx| {
            for k in 0..CHURN_MODS {
                handles.push(ctx.table_add(
                    "acl",
                    vec![LogicalKey::Exact(Value::new(k as u128 + 1, 32))],
                    0,
                    "fwd",
                    vec![Value::new(k as u128 % 8, 9)],
                )?);
            }
            Ok(())
        })
        .expect("churn entries install");
    let mut i: u64 = 0;
    agent
        .register_native(
            "churn",
            Box::new(move |ctx: &mut ReactionCtx<'_>| {
                i += 1;
                for (k, h) in handles.iter().enumerate() {
                    ctx.table_mod(
                        "acl",
                        *h,
                        "fwd",
                        vec![Value::new((i + k as u64) as u128 % 8, 9)],
                    )?;
                }
                ctx.set_mbl("knob", i as i128)
            }),
        )
        .expect("churn reaction registers");
}

/// Parse, compile, load, attach the agent, run the prologue and register
/// the reactions — everything up to the first dialogue iteration.
pub fn build(program: &str, driver: Driver) -> Testbed {
    let switch_cfg = SwitchConfig {
        // The RL body halves its threshold once per iteration while the
        // queue stands above twice the threshold. A 1 Gb/s bottleneck
        // drains ≈9 KB per remote iteration, so the build-up burst
        // outlasts the whole halving chain at either virtual pace.
        port_rate_bps: if program == "rl" {
            1_000_000_000
        } else {
            SwitchConfig::default().port_rate_bps
        },
        num_pipes: 1,
        ..SwitchConfig::default()
    };
    let mode = match driver {
        Driver::Local => DriverMode::Local,
        Driver::Remote => DriverMode::Remote(ChannelConfig::with_rtt(REMOTE_RTT_NS)),
    };
    let mut tb = Testbed::with_config_mode(source(program), switch_cfg, CostModel::default(), mode)
        .unwrap_or_else(|e| panic!("{program}: {e}"));
    // The testbed builder reads MANTIS_WORKERS; pin the drain regardless.
    tb.sim.set_workers(1);
    if program == "rl" {
        tb.sim
            .switch()
            .borrow_mut()
            .bind_queue_depth_register("qdepths")
            .expect("qdepths register binds");
    }
    {
        let mut agent = tb.agent.borrow_mut();
        if program == "churn" {
            arm_churn(&mut agent);
        } else {
            agent
                .register_all_interpreted()
                .unwrap_or_else(|e| panic!("{program}: {e}"));
        }
    }
    tb
}

// ---------------------------------------------------------------------------
// Stimulus
// ---------------------------------------------------------------------------

fn eth_ipv4(port: PortId, src: u128, dst: u128, payload: u32) -> PacketDesc {
    PacketDesc::new(port)
        .field("ethernet", "ether_type", 0x0800)
        .field("ipv4", "src_addr", src)
        .field("ipv4", "dst_addr", dst)
        .field("ipv4", "protocol", 17)
        .payload(payload)
}

/// Seeded packet source of one program. Bursts are a function of the
/// iteration index and the seed only.
pub struct Stimulus {
    program: &'static str,
    rng: StdRng,
    /// Which quarter of the phases is the active one (seeded, 0 or 1, so
    /// that even a two-phase smoke run has an active phase).
    phase_offset: u64,
    /// Background packets, picked at random each iteration.
    pool: Vec<PacketDesc>,
    /// The active phase's packet (attacker, polarised flow, big packet).
    hot: Option<PacketDesc>,
    /// Port whose heartbeats are lost in the active phase.
    lossy_port: PortId,
}

/// Heartbeats per neighbour port per iteration. The failover body expects
/// `0.2 × T_d[µs]` per port; 10 covers the ≈38 µs virtual iteration of the
/// remote loop (7 expected) with margin, so a healthy port never looks
/// lossy.
const HB_PER_PORT: usize = 10;
/// Neighbour ports of the failover program.
const HB_PORTS: [PortId; 4] = [4, 5, 6, 7];
/// Attacker packets per iteration in a DoS attack phase: 8 × 1.4 KB per
/// iteration clears the body's 125 B/µs threshold at either virtual pace.
const DOS_ATTACK_PKTS: usize = 8;
/// Packets of one polarised flow per iteration in an ECMP skew phase (the
/// body ignores windows with fewer than 16 packets).
const ECMP_SKEW_PKTS: usize = 16;
/// Packets of the RL build-up burst: 300 × 1.5 KB ≈ 450 KB queued at once,
/// more than twice the threshold's 200 KB ceiling.
const RL_BURST_PKTS: usize = 300;

impl Stimulus {
    pub fn new(program: &'static str, seed: u64) -> Stimulus {
        // Each program draws from its own stream of the workload seed.
        let salt = PROGRAMS.iter().position(|p| *p == program).expect("known") as u64;
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt);
        let phase_offset = rng.gen_range(0..2u64);
        let pool = match program {
            "dos" => (0..64u128)
                .map(|i| {
                    eth_ipv4(
                        (i % 4) as PortId,
                        0x0a00_0001 + i,
                        0x0a00_1000 + u128::from(rng.gen_range(0..256u32)),
                        rng.gen_range(64..160u32),
                    )
                })
                .collect(),
            "ecmp" => (0..64u128)
                .map(|_| {
                    eth_ipv4(
                        0,
                        u128::from(rng.gen_range(1..u32::MAX)),
                        u128::from(rng.gen_range(1..u32::MAX)),
                        200,
                    )
                    .field("l4", "sport", u128::from(rng.gen_range(1024..65_535u32)))
                    .field(
                        "l4",
                        "dport",
                        u128::from(rng.gen_range(1..1024u32)),
                    )
                })
                .collect(),
            "failover" => HB_PORTS
                .iter()
                .map(|p| {
                    PacketDesc::new(*p)
                        .field("ethernet", "ether_type", 0x88b5)
                        .field("hb", "seq", 0)
                        .field("hb", "origin", u128::from(*p))
                        .payload(0)
                })
                .collect(),
            "rl" => vec![eth_ipv4(0, 0x0a00_0101, 0x0a00_0001, 100)],
            "churn" => (0..64u128)
                .map(|i| {
                    PacketDesc::new(0)
                        .field("h", "a", u128::from(rng.gen_range(1..u32::MAX)))
                        .field("h", "b", 1 + i % CHURN_MODS as u128)
                        .payload(64)
                })
                .collect(),
            other => panic!("unknown program {other}"),
        };
        Stimulus {
            program,
            rng,
            phase_offset,
            pool,
            hot: None,
            lossy_port: HB_PORTS[0],
        }
    }

    fn active(&self, phase: u64) -> bool {
        (phase + self.phase_offset) % 4 == 1
    }

    /// Inject iteration `iter`'s burst into `sw`; returns the packets sent.
    pub fn burst(&mut self, sw: &mut Switch, iter: u64) -> u64 {
        let phase = iter / PHASE_LEN;
        let active = self.active(phase);
        let entering = iter.is_multiple_of(PHASE_LEN);
        let mut sent = 0u64;
        let mut send = |sw: &mut Switch, d: &PacketDesc| {
            sw.inject(d);
            sent += 1;
        };
        match self.program {
            "dos" => {
                if entering && active {
                    // A fresh attacker address every attack phase.
                    let addr = 0x0b00_0000 + phase * 65_537 + self.rng.gen_range(1..60_000u64);
                    self.hot = Some(eth_ipv4(1, u128::from(addr), 0x0a00_1001, 1_400));
                }
                for _ in 0..2 {
                    let i = self.rng.gen_range(0..self.pool.len());
                    send(sw, &self.pool[i]);
                }
                // The attacker goes last, so it is the sampled source.
                if active {
                    let hot = self.hot.as_ref().expect("set on entry");
                    for _ in 0..DOS_ATTACK_PKTS {
                        send(sw, hot);
                    }
                }
            }
            "ecmp" => {
                if entering && active {
                    let i = self.rng.gen_range(0..self.pool.len());
                    self.hot = Some(self.pool[i].clone());
                }
                if active {
                    let hot = self.hot.as_ref().expect("set on entry");
                    for _ in 0..ECMP_SKEW_PKTS {
                        send(sw, hot);
                    }
                } else {
                    for _ in 0..4 {
                        let i = self.rng.gen_range(0..self.pool.len());
                        send(sw, &self.pool[i]);
                    }
                }
            }
            "failover" => {
                if entering && active {
                    self.lossy_port = HB_PORTS[self.rng.gen_range(0..HB_PORTS.len())];
                }
                for (idx, port) in HB_PORTS.iter().enumerate() {
                    if active && *port == self.lossy_port {
                        continue;
                    }
                    for _ in 0..HB_PER_PORT {
                        send(sw, &self.pool[idx]);
                    }
                }
            }
            "rl" => {
                if entering && active {
                    let big = eth_ipv4(1, 0x0a00_0102, 0x0a00_0001, 1_450);
                    for _ in 0..RL_BURST_PKTS {
                        send(sw, &big);
                    }
                }
                send(sw, &self.pool[0]);
            }
            "churn" => {
                let i = self.rng.gen_range(0..self.pool.len());
                send(sw, &self.pool[i]);
            }
            _ => unreachable!("checked in new"),
        }
        sent
    }
}

// ---------------------------------------------------------------------------
// One program's timed loop
// ---------------------------------------------------------------------------

/// What one program's loop measured.
#[derive(Clone, Debug, Default)]
pub struct ProgramRun {
    pub program: &'static str,
    pub iters: u64,
    /// Iterations that returned `Err` or carried reaction failures.
    pub failed: u64,
    /// Wall ns of every timed `dialogue_iteration()`, in order.
    pub samples: Vec<u64>,
    /// Virtual ns each of them advanced the clock.
    pub virts: Vec<u64>,
    /// Percentiles of `samples`.
    pub wall: Summary,
    /// Median over phase blocks of wall ms per virtual ms.
    pub wall_per_virt: f64,
    pub wall_total_ns: u64,
    pub stim_pkts: u64,
    // Virtual-clock totals over the timed iterations.
    pub virt_ns: u64,
    pub virt_measure_ns: u64,
    pub virt_react_ns: u64,
    pub virt_update_ns: u64,
    pub virt_sync_ns: u64,
    pub staged_ops: u64,
    pub retries: u64,
    pub rollbacks: u64,
    pub reaction_failures: u64,
    /// Iterations that committed a table or malleable update.
    pub updates: u64,
    pub vm_fallbacks: usize,
    pub vm_dispatch: u64,
    pub config_fp: u64,
    pub entry_fp: u64,
    /// `(config, entry)` fingerprints after `size.checkpoint` iterations.
    pub checkpoint_fp: (u64, u64),
    /// Control-channel totals (zero on the local driver).
    pub frames: u64,
    pub bytes: u64,
    /// Driver ops by name, from the testbed's telemetry counters.
    pub driver_ops: Vec<(String, u64)>,
    pub telemetry_events: u64,
}

impl ProgramRun {
    /// Derive the percentiles and ratios from `samples` and `virts`.
    fn summarize(&mut self) {
        self.wall = summarize(&mut self.samples.clone());
        self.wall_total_ns = self.samples.iter().sum();
        let ratio = |(wall, virt): (&[u64], &[u64])| {
            wall.iter().sum::<u64>() as f64 / virt.iter().sum::<u64>().max(1) as f64
        };
        let blocks: Vec<f64> = self
            .samples
            .chunks_exact(PHASE_LEN as usize)
            .zip(self.virts.chunks_exact(PHASE_LEN as usize))
            .map(ratio)
            .collect();
        self.wall_per_virt = median(&blocks);
    }

    /// One run out of repetitions of the same loop: the simulated side is
    /// the first one's (they are identical, which the caller checks), and
    /// every iteration counts at its fastest reading (see
    /// [`min_per_index`]).
    pub fn fastest_of(mut reps: Vec<ProgramRun>) -> ProgramRun {
        let series: Vec<&[u64]> = reps.iter().map(|r| r.samples.as_slice()).collect();
        let samples = min_per_index(&series);
        let failed = reps.iter().map(|r| r.failed).sum();
        let mut run = reps.swap_remove(0);
        run.samples = samples;
        run.failed = failed;
        run.summarize();
        run
    }
}

/// Run `warmup + iters` iterations of `program` on a fresh testbed.
pub fn run_program(
    program: &'static str,
    driver: Driver,
    seed: u64,
    size: ReactSize,
    tracer: &mut Tracer,
) -> ProgramRun {
    tracer.begin("mantis", "Testbed::with_config_mode");
    let tb = build(program, driver);
    tracer.end();
    let mut stim = Stimulus::new(program, seed);
    let clock = tb.sim.clock().clone();
    let switch = tb.sim.switch().clone();
    let mut out = ProgramRun {
        program,
        iters: size.iters,
        samples: Vec::with_capacity(size.iters as usize),
        virts: Vec::with_capacity(size.iters as usize),
        ..ProgramRun::default()
    };
    let mut counters0 = (0u64, 0u64);

    for it in 0..size.warmup + size.iters {
        let timed = it >= size.warmup;
        if it == size.warmup {
            counters0 = (
                tb.telemetry.counter("control.frames") as u64,
                tb.telemetry.counter("control.bytes") as u64,
            );
        }
        // Stimulus, untimed: burst, then serve whatever the clock has
        // released.
        tracer.begin("rmt_sim", "Switch::inject+pump");
        let pkts = {
            let mut sw = switch.borrow_mut();
            let pkts = stim.burst(&mut sw, it);
            sw.pump();
            pkts
        };
        // The span calls sit inside the timed window, so a traced run's
        // wall carries their cost.
        let t0 = Instant::now();
        tracer.end();

        let v0 = clock.now();
        tracer.begin("mantis_agent", "dialogue_iteration");
        let report = tb.agent.borrow_mut().dialogue_iteration();
        let wall = t0.elapsed().as_nanos() as u64;
        tracer.end();

        if it % PHASE_LEN == PHASE_LEN - 1 {
            // Transmitted packets pile up in the switch; drop them untimed.
            switch.borrow_mut().take_transmitted();
        }
        if !timed {
            continue;
        }
        let virt = clock.now() - v0;
        out.samples.push(wall);
        out.virts.push(virt);
        out.virt_ns += virt;
        out.stim_pkts += pkts;
        match report {
            Ok(r) => {
                out.virt_measure_ns += r.measure_ns;
                out.virt_react_ns += r.react_ns;
                out.virt_update_ns += r.update_ns;
                out.virt_sync_ns += r.sync_ns;
                out.staged_ops += r.staged_table_ops as u64;
                out.retries += u64::from(r.retries);
                out.rollbacks += u64::from(r.rollbacks);
                out.reaction_failures += r.reaction_failures.len() as u64;
                out.updates += u64::from(r.update_ns > 0);
                out.failed += u64::from(!r.reaction_failures.is_empty());
            }
            Err(_) => out.failed += 1,
        }
        if it + 1 - size.warmup == size.checkpoint {
            let agent = tb.agent.borrow();
            out.checkpoint_fp = (agent.config_fingerprint(), agent.entry_fingerprint());
        }
    }

    out.summarize();
    let agent = tb.agent.borrow();
    out.vm_fallbacks = agent.vm_fallbacks().len();
    out.vm_dispatch = agent.vm_dispatch_total();
    out.config_fp = agent.config_fingerprint();
    out.entry_fp = agent.entry_fingerprint();
    out.frames = tb.telemetry.counter("control.frames") as u64 - counters0.0;
    out.bytes = tb.telemetry.counter("control.bytes") as u64 - counters0.1;
    let snap = tb.telemetry.snapshot();
    out.telemetry_events = snap.events_buffered + snap.events_dropped;
    out.driver_ops = driver_op_counts(&snap);
    out
}

/// Driver ops by name, from a registry's `driver.<op>_calls` counters.
pub fn driver_op_counts(snap: &Snapshot) -> Vec<(String, u64)> {
    snap.counters
        .iter()
        .filter_map(|(k, v)| {
            let op = k.strip_prefix("driver.")?.strip_suffix("_calls")?;
            Some((op.to_string(), *v as u64))
        })
        .collect()
}

/// Wall seconds of one fresh build of all five testbeds.
pub fn setup_seconds(driver: Driver, samples: usize) -> f64 {
    median_of_fastest(samples, SETUPS_PER_SAMPLE, || {
        for p in PROGRAMS {
            std::hint::black_box(build(p, driver));
        }
    })
}

/// All five programs; the per-program runs come back for the traced
/// run's layer accounting.
pub fn run(
    driver: Driver,
    seed: u64,
    size: ReactSize,
    tracer: &mut Tracer,
) -> (Outcome, Vec<ProgramRun>) {
    let mut out = Outcome::default();
    let setup_s = setup_seconds(driver, size.setup_samples);
    // Repetitions are whole passes over the five programs, so that the
    // readings of one iteration lie seconds apart.
    let mut passes: Vec<Vec<ProgramRun>> = (0..size.reps.max(1))
        .map(|_| {
            PROGRAMS
                .iter()
                .map(|p| run_program(p, driver, seed, size, tracer))
                .collect()
        })
        .collect();
    // Read before the twins and the pooled percentiles allocate.
    put(&mut out.metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    let runs: Vec<ProgramRun> = (0..PROGRAMS.len())
        .map(|i| {
            let reps: Vec<ProgramRun> = passes.iter_mut().map(|pass| pass.remove(0)).collect();
            let first = &reps[0];
            out.check(
                &format!("{}: repetitions simulate the same loop", PROGRAMS[i]),
                reps.iter().all(|r| {
                    r.virts == first.virts
                        && (r.config_fp, r.entry_fp) == (first.config_fp, first.entry_fp)
                }),
                format!("{} repetition(s)", reps.len()),
            );
            ProgramRun::fastest_of(reps)
        })
        .collect();
    // The twin: the same stimulus through the other driver, up to the
    // checkpoint, must have committed the same configuration.
    let other = match driver {
        Driver::Local => Driver::Remote,
        Driver::Remote => Driver::Local,
    };
    let twin_size = ReactSize {
        iters: size.checkpoint,
        ..size
    };
    for r in &runs {
        let twin = run_program(r.program, other, seed, twin_size, &mut Tracer::new(false));
        out.check(
            &format!(
                "{}: local and remote commit the same configuration",
                r.program
            ),
            (twin.config_fp, twin.entry_fp) == r.checkpoint_fp && twin.failed == 0,
            format!(
                "after {} iterations: config {:016x} entries {:016x}",
                size.checkpoint, r.checkpoint_fp.0, r.checkpoint_fp.1
            ),
        );
    }

    let per = |f: &dyn Fn(&ProgramRun) -> f64| geomean(&runs.iter().map(f).collect::<Vec<_>>());
    put(
        &mut out.metrics,
        "iter_us_p50",
        per(&|r| r.wall.p50 as f64 / 1e3),
        "us",
    );
    put(
        &mut out.metrics,
        "iter_us_p90",
        per(&|r| r.wall.p90 as f64 / 1e3),
        "us",
    );
    put(
        &mut out.metrics,
        "wall_ms_per_virt_ms",
        per(&|r| r.wall_per_virt),
        "ms/ms",
    );
    put(&mut out.metrics, "setup_s", setup_s, "s");

    // Tail percentiles over the pooled samples: printed with their sample
    // count, not gated (p99 moved 25 % between identical runs).
    let mut pooled: Vec<u64> = runs
        .iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    let tail = summarize(&mut pooled);
    out.put_tail(&tail);

    out.attempted = runs.iter().map(|r| r.iters).sum::<u64>() * size.reps.max(1) as u64;
    out.failed = runs.iter().map(|r| r.failed).sum();
    out.exact(
        "virt_iter_us",
        per(&|r| r.virt_ns as f64 / r.iters as f64 / 1e3),
    );
    for r in &runs {
        let p = r.program;
        put(
            &mut out.info,
            format!("iter_us_p50.{p}"),
            r.wall.p50 as f64 / 1e3,
            "us",
        );
        put(
            &mut out.info,
            format!("iter_us_p90.{p}"),
            r.wall.p90 as f64 / 1e3,
            "us",
        );
        out.exact(&format!("virt_iter_ns.{p}"), r.virt_ns);
        out.exact(&format!("staged_ops.{p}"), r.staged_ops);
        out.exact(&format!("updates.{p}"), r.updates);
        out.exact(&format!("stim_pkts.{p}"), r.stim_pkts);
        out.exact(&format!("frames.{p}"), r.frames);
        out.exact(&format!("config_fp.{p}"), format!("{:016x}", r.config_fp));
        out.exact(&format!("entry_fp.{p}"), format!("{:016x}", r.entry_fp));
        out.check(
            &format!("{p}: every iteration Ok, no reaction failures"),
            r.failed == 0 && r.retries == 0 && r.rollbacks == 0,
            format!(
                "failed {} retries {} rollbacks {}",
                r.failed, r.retries, r.rollbacks
            ),
        );
        out.check(
            &format!("{p}: no VM fallback"),
            r.vm_fallbacks == 0,
            format!("{} fallbacks", r.vm_fallbacks),
        );
        out.check(
            &format!("{p}: stimulus drove an update"),
            r.updates > 0,
            format!("{} updating iterations of {}", r.updates, r.iters),
        );
    }
    (out, runs)
}
