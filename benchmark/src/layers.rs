//! The traced run: per-layer metrics for one workload.
//!
//! Three parts. (1) The isolated replays of `replay.rs`, the same whatever
//! the workload. (2) The workload twice at one repetition, once with the
//! tracer off and once on — same seed, same
//! inputs — which gives the span file, the tracing overhead and the counts
//! the workload's own layers produce. A per-layer metric of a part the
//! workload does not run reads 0 (`LayerMetric::on`). (3) The accounting:
//! a layer's share of this workload is `Σ ops × replay cost / untraced
//! wall`, and `bench.unattributed_share` is one minus their sum — so
//! shares and remainder sum to 1 by construction, and whatever the replays
//! do not explain is stated.

use crate::fabric_fwd::{self, BlockRun, FabricSize};
use crate::react::{self, Driver, ProgramRun, ReactSize};
use crate::reactive_fabric::{self, ReactiveSize};
use crate::report::{put, Metrics, Outcome};
use crate::span::Tracer;
use crate::stats::{geomean, summarize};
use crate::{out_dir, replay, Scale, Workload, PER_LAYER};

/// The fixed 2 ms slice of `reactive_fabric` behind the drain and
/// telemetry comparisons (failure at 1 ms).
fn slice(telemetry: bool, workers: usize) -> ReactiveSize {
    ReactiveSize {
        horizon_ns: 2_000_000,
        fail_at_ns: 1_000_000,
        reps: 1,
        setup_samples: 1,
        telemetry,
        workers,
    }
}

fn sum_wall(runs: &[ProgramRun]) -> f64 {
    runs.iter().map(|r| r.wall_total_ns as f64).sum()
}

/// `mantis_agent.*` and `sim.virt_iter_us` from the loop's program runs.
fn agent_metrics(runs: &[ProgramRun], m: &mut Metrics) {
    for r in runs {
        put(
            m,
            format!("mantis_agent.iter_us_p50.{}", r.program),
            r.wall.p50 as f64 / 1e3,
            "us",
        );
        put(
            m,
            format!("mantis_agent.iter_us_p90.{}", r.program),
            r.wall.p90 as f64 / 1e3,
            "us",
        );
    }
    let mut pooled: Vec<u64> = runs
        .iter()
        .flat_map(|r| r.samples.iter().copied())
        .collect();
    let tail = summarize(&mut pooled);
    put(m, "mantis_agent.iter_us_p99", tail.p99 as f64 / 1e3, "us");
    put(m, "mantis_agent.iter_us_p99_n", tail.n as f64, "count");
    put(
        m,
        "mantis_agent.iter_us_pmax",
        tail.ptail as f64 / 1e3,
        "us",
    );
    put(m, "mantis_agent.iter_us_pmax_q", tail.ptail_q, "1");
    let iters: f64 = runs.iter().map(|r| r.iters as f64).sum();
    let total = |f: &dyn Fn(&ProgramRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    put(
        m,
        "mantis_agent.virt_measure_us",
        total(&|r| r.virt_measure_ns) / iters / 1e3,
        "virt_us",
    );
    put(
        m,
        "mantis_agent.virt_react_us",
        total(&|r| r.virt_react_ns) / iters / 1e3,
        "virt_us",
    );
    put(
        m,
        "mantis_agent.virt_update_us",
        total(&|r| r.virt_update_ns) / iters / 1e3,
        "virt_us",
    );
    put(
        m,
        "mantis_agent.virt_sync_us",
        total(&|r| r.virt_sync_ns) / iters / 1e3,
        "virt_us",
    );
    put(
        m,
        "sim.virt_iter_us",
        geomean(
            &runs
                .iter()
                .map(|r| r.virt_ns as f64 / r.iters as f64 / 1e3)
                .collect::<Vec<_>>(),
        ),
        "virt_us",
    );
    put(
        m,
        "mantis_agent.staged_ops_per_iter",
        total(&|r| r.staged_ops) / iters,
        "count",
    );
    put(m, "mantis_agent.retries", total(&|r| r.retries), "count");
    put(
        m,
        "mantis_agent.rollbacks",
        total(&|r| r.rollbacks),
        "count",
    );
    put(
        m,
        "mantis_agent.reaction_failures",
        total(&|r| r.reaction_failures),
        "count",
    );
}

/// `mantis_control.*` counts from a set of remote program runs.
fn control_metrics(runs: &[ProgramRun], m: &mut Metrics) {
    let iters: f64 = runs.iter().map(|r| r.iters as f64).sum();
    let frames: f64 = runs.iter().map(|r| r.frames as f64).sum();
    let bytes: f64 = runs.iter().map(|r| r.bytes as f64).sum();
    let ops: f64 = runs
        .iter()
        .flat_map(|r| r.driver_ops.iter().map(|(_, n)| *n as f64))
        .sum();
    put(m, "mantis_control.frames_per_iter", frames / iters, "count");
    put(m, "mantis_control.bytes_per_iter", bytes / iters, "count");
    // Frames count both directions; ops ride in the request half.
    put(
        m,
        "mantis_control.batch_size_mean",
        ops / (frames / 2.0).max(1.0),
        "count",
    );
}

/// Packets per wall second and wall ns per hop of a fabric run.
fn fabric_rates(wall_s: f64, packets: u64, hops: u64, m: &mut Metrics) {
    put(m, "netsim.pkts_per_s", packets as f64 / wall_s, "1/s");
    put(
        m,
        "netsim.ns_per_hop",
        wall_s * 1e9 / hops.max(1) as f64,
        "ns",
    );
}

/// The scale-flow engine's counts from one block run.
fn netsim_counts(b: &BlockRun, m: &mut Metrics) {
    put(
        m,
        "netsim.mean_batch",
        b.injected as f64 / b.batches.max(1) as f64,
        "count",
    );
    put(m, "netsim.max_batch", b.max_batch as f64, "count");
    put(m, "netsim.wheel_slots", b.wheel_slots as f64, "count");
    put(m, "netsim.arena_bytes", b.arena_bytes as f64, "count");
}

/// Wall ns the driver replays explain: each op at the cost of the
/// replayed op nearest to it.
fn driver_ns<'a>(ops: impl Iterator<Item = &'a (String, u64)>, r: &Metrics) -> f64 {
    ops.map(|(op, n)| {
        let cost = match op.as_str() {
            "table_add" | "table_mod" | "table_del" | "set_default" => {
                r["mantis_agent.driver_table_mod_ns"].value
            }
            "init_flip" => r["mantis_agent.driver_init_flip_ns"].value,
            "register_read" | "field_poll" | "field_word_read" => {
                r["mantis_agent.driver_register_read_ns"].value
            }
            _ => 0.0,
        };
        *n as f64 * cost
    })
    .sum()
}

/// Wall ns of a reaction-loop workload (local or remote) each layer's
/// replays explain.
fn react_explained(runs: &[ProgramRun], size: ReactSize, r: &Metrics) -> [(&'static str, f64); 4] {
    // The telemetry counters behind the op counts cover warm-up too.
    let timed = size.iters as f64 / (size.iters + size.warmup) as f64;
    let vm: f64 = runs
        .iter()
        .filter(|p| p.program != "churn") // native reaction, no bytecode
        .map(|p| p.iters as f64 * r[&format!("reaction_interp.vm_run_ns.{}", p.program)].value)
        .sum();
    let driver = driver_ns(runs.iter().flat_map(|p| &p.driver_ops), r) * timed;
    let ops: f64 = runs
        .iter()
        .flat_map(|p| p.driver_ops.iter().map(|(_, n)| *n as f64))
        .sum();
    let events: f64 = runs.iter().map(|p| p.telemetry_events as f64).sum();
    // A span is two ring pushes; every driver op adds a counter and a
    // histogram record.
    let telemetry = (events * r["mantis_telemetry.span_ns"].value / 2.0
        + ops * 2.0 * r["mantis_telemetry.counter_add_ns"].value)
        * timed;
    let frames: f64 = runs.iter().map(|p| p.frames as f64).sum::<f64>() / 2.0;
    let bytes: f64 = runs.iter().map(|p| p.bytes as f64).sum::<f64>() / 2.0;
    let per_byte = (r["mantis_control.encode_ns_per_frame"].value
        + r["mantis_control.decode_ns_per_frame"].value)
        / r["mantis_control.replay_frame_bytes"].value;
    // The plane replay applies its batch; the ops are the driver's share.
    let per_frame = (r["mantis_control.plane_handle_ns_per_frame"].value
        - r["mantis_control.replay_frame_ops"].value * r["mantis_agent.driver_table_mod_ns"].value)
        .max(0.0);
    let control = bytes * per_byte + frames * per_frame;
    [
        ("reaction_interp", vm),
        ("mantis_agent", driver),
        ("mantis_telemetry", telemetry),
        ("mantis_control", control),
    ]
}

/// Write `<layer>.share` for every layer and the remainder.
fn shares(m: &mut Metrics, wall_ns: f64, explained: &[(&str, f64)]) {
    let mut rest = 1.0;
    for layer in [
        "rmt_sim",
        "netsim",
        "mantis_agent",
        "reaction_interp",
        "mantis_control",
        "mantis_telemetry",
    ] {
        let ns = explained
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0.0, |(_, ns)| *ns);
        let share = ns / wall_ns.max(1.0);
        rest -= share;
        put(m, format!("{layer}.share"), share, "1");
    }
    put(m, "bench.unattributed_share", rest, "1");
}

fn write_spans(tracer: &Tracer, workload: Workload, out: &mut Outcome) {
    let path = out_dir().join(format!("trace-{}.json", workload.name()));
    let written = tracer.write_json(&path, workload.name());
    out.check(
        "span file written",
        written.is_ok(),
        format!("{} spans to {}", tracer.spans().len(), path.display()),
    );
    for (layer, spans, self_ns) in tracer.self_time_by_layer() {
        put(
            &mut out.info,
            format!("span_self_ms.{layer}"),
            self_ns as f64 / 1e6,
            "ms",
        );
        put(
            &mut out.info,
            format!("span_count.{layer}"),
            spans as f64,
            "count",
        );
    }
}

/// The traced run of `workload`.
pub fn run(workload: Workload, seed: u64, scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let mut m = replay::run_all(seed, scale);
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    let wheel = m["netsim.wheel_schedule_ns"].value + m["netsim.wheel_pop_ns"].value;

    let (wall_off, wall_on, same) = match workload {
        Workload::FabricFwd => {
            let size = FabricSize {
                reps: 1,
                ..FabricSize::for_scale(scale)
            };
            let a = fabric_fwd::run_block(seed, size, &mut off);
            let b = fabric_fwd::run_block(seed, size, &mut on);
            out.attempted = a.planned;
            out.failed = a.planned - a.accepted.min(a.planned);
            fabric_rates(a.wall_s, a.injected, a.hops, &mut m);
            netsim_counts(&a, &mut m);
            // One ingress pass and one pump per hop; one wheel event per
            // wire hop and per flow wake.
            let rmt =
                a.hops as f64 * (m["rmt_sim.inject_ns"].value + m["rmt_sim.pump_ns_per_pkt"].value);
            let events = (a.hops - a.exits + a.batches) as f64;
            shares(
                &mut m,
                a.wall_s * 1e9,
                &[("rmt_sim", rmt), ("netsim", events * wheel)],
            );
            (
                a.wall_s * 1e9,
                b.wall_s * 1e9,
                a.fingerprint == b.fingerprint,
            )
        }
        Workload::ReactLocal | Workload::ReactRemote => {
            let driver = if workload == Workload::ReactLocal {
                Driver::Local
            } else {
                Driver::Remote
            };
            let size = ReactSize::for_scale(scale);
            let run = |t: &mut Tracer| -> Vec<ProgramRun> {
                react::PROGRAMS
                    .iter()
                    .map(|p| react::run_program(p, driver, seed, size, t))
                    .collect()
            };
            let (a, b) = (run(&mut off), run(&mut on));
            let same = a
                .iter()
                .zip(&b)
                .all(|(x, y)| x.config_fp == y.config_fp && x.virt_ns == y.virt_ns);
            out.attempted = a.iter().map(|r| r.iters).sum();
            out.failed = a.iter().map(|r| r.failed).sum();
            agent_metrics(&a, &mut m);
            if driver == Driver::Remote {
                control_metrics(&a, &mut m);
            }
            let explained = react_explained(&a, size, &m);
            shares(&mut m, sum_wall(&a), &explained);
            (sum_wall(&a), sum_wall(&b), same)
        }
        Workload::ReactiveFabric => {
            let size = ReactiveSize {
                reps: 1,
                ..ReactiveSize::for_scale(scale)
            };
            let a = reactive_fabric::run_fabric(seed, size, &mut off);
            let b = reactive_fabric::run_fabric(seed, size, &mut on);
            out.attempted = a.udp_sent + a.agent_iterations;
            out.failed = a.udp_refused + a.agent_errors;
            fabric_rates(a.wall_s, a.rx, a.hops, &mut m);
            put(
                &mut m,
                "sim.conv_virt_us",
                a.conv_ns.map_or(-1.0, |ns| ns as f64 / 1e3),
                "virt_us",
            );

            // The 2 ms slice: pooled against serial drain, telemetry on
            // against off.
            let w1 = reactive_fabric::run_fabric(seed, slice(true, 1), &mut off);
            let w2 = reactive_fabric::run_fabric(seed, slice(true, 2), &mut off);
            let quiet = reactive_fabric::run_fabric(seed, slice(false, 1), &mut off);
            out.check(
                "serial and pooled drains agree on the 2 ms slice",
                w1.fingerprint == w2.fingerprint,
                format!("{} vs {}", w1.fingerprint, w2.fingerprint),
            );
            put(&mut m, "netsim.par_w2_slowdown", w2.wall_s / w1.wall_s, "1");
            // A model (ParStats::speedup), not a measurement of this host.
            put(
                &mut m,
                "netsim.par_critical_speedup_w2",
                w2.critical_speedup,
                "1",
            );
            let telemetry_share = 1.0 - quiet.wall_s / w1.wall_s;
            put(
                &mut m,
                "mantis_telemetry.on_overhead_share",
                telemetry_share,
                "1",
            );

            // The failover program's ingress pass instead of the route
            // program's, the same enqueue and pump.
            let ingress = m["rmt_sim.inject_ns"].value - m["rmt_sim.pipeline_route_ns"].value
                + m["rmt_sim.pipeline_failover_ns"].value;
            let rmt = a.rx as f64 * ingress + a.hops as f64 * m["rmt_sim.pump_ns_per_pkt"].value;
            // An estimate: the spines' reaction costed as the leaves'.
            let vm = a.agent_iterations as f64 * m["reaction_interp.vm_run_ns.failover"].value;
            let agent = driver_ns(a.driver_ops.iter(), &m);
            let wall = a.wall_s * 1e9;
            shares(
                &mut m,
                wall,
                &[
                    ("rmt_sim", rmt),
                    ("netsim", (a.rx + a.agent_iterations) as f64 * wheel),
                    ("mantis_agent", agent),
                    ("reaction_interp", vm),
                    ("mantis_telemetry", telemetry_share * wall),
                ],
            );
            (wall, b.wall_s * 1e9, a.fingerprint == b.fingerprint)
        }
    };
    out.check(
        "tracing leaves the simulated output unchanged",
        same,
        "untraced vs traced twin",
    );
    put(
        &mut m,
        "bench.trace_overhead_share",
        wall_on / wall_off.max(1.0) - 1.0,
        "1",
    );
    write_spans(&on, workload, &mut out);

    // The contract's per-layer list goes to `metrics`, at 0 where this
    // workload does not run the part; everything else the replays produced
    // is printed as information.
    let mut missing = Vec::new();
    for layer in &PER_LAYER {
        match m.remove(layer.name) {
            Some(value) => {
                out.metrics.insert(layer.name.into(), value);
            }
            None if !layer.on.contains(&workload) => {
                put(&mut out.metrics, layer.name, 0.0, layer.unit)
            }
            None => missing.push(layer.name),
        }
    }
    out.info.extend(m);
    out.check(
        "every per-layer metric of this workload produced",
        missing.is_empty(),
        format!("missing {missing:?}"),
    );
    out
}
