//! `reactive_fabric`: both paths at once. The 4×4 failover fabric with
//! eight paced agents (`T_d` = 50 µs), 12 leaf-to-leaf 1 Gb/s UDP flows,
//! 16 heartbeat streams (`T_s` = 1 µs), telemetry on, and the
//! leaf 0 ↔ spine 0 wire downed halfway through. The multi-table
//! register-ALU program, closure-scheduled agents and heartbeats beside
//! wheel events, and string-keyed telemetry are all live — the parts
//! `fabric_fwd` bypasses — and the run yields the paper's Fig. 16 number
//! (failure → reroute commit) as a simulated statistic.
//!
//! The simulator advances in `T_d` slices, one dialogue round of all eight
//! agents each, and every `run_until` call is timed on its own.

use crate::host::peak_rss_mb;
use crate::report::{put, Outcome};
use crate::span::Tracer;
use crate::stats::{median_of_fastest, Fnv};
use crate::Scale;
use mantis::apps::fabric::{build_failover_fabric, leaf_host, FabricTestbed, EXIT_PORT};
use mantis::{schedule_fabric_agents, FaultPlan, Telemetry};
use netsim::{schedule_link_flaps, spawn_udp_on, UdpConfig, UdpState, HOST_PORTS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

pub const LEAVES: usize = 4;
pub const SPINES: usize = 4;
/// Dialogue pacing of every agent, and the timed slice.
pub const TD_NS: u64 = 50_000;
/// Heartbeat period.
pub const TS_NS: u64 = 1_000;
/// Delivery expectation of the gray-failure detector.
pub const ETA: f64 = 0.2;

#[derive(Clone, Copy, Debug)]
pub struct ReactiveSize {
    pub horizon_ns: u64,
    /// Earliest instant the wire goes down; the seed adds less than `T_d`.
    pub fail_at_ns: u64,
    pub reps: usize,
    /// Samples behind `setup_s`, each [`SETUPS_PER_SAMPLE`] fresh set-ups.
    pub setup_samples: usize,
    pub telemetry: bool,
    pub workers: usize,
}

/// A set-up is ≈1 ms of work, the same every time; a sample is the
/// fastest of this many consecutive set-ups.
pub const SETUPS_PER_SAMPLE: usize = 10;

impl ReactiveSize {
    /// [`crate::block_reps`] repetitions of the whole 200 ms: three in the
    /// 30 s `BENCHMARK.json` runs for.
    pub fn for_scale(scale: Scale) -> ReactiveSize {
        match scale {
            Scale::Seconds(seconds) => ReactiveSize {
                horizon_ns: 200_000_000,
                fail_at_ns: 100_000_000,
                reps: crate::block_reps(seconds),
                setup_samples: 21,
                telemetry: true,
                workers: 1,
            },
            Scale::Smoke => ReactiveSize {
                horizon_ns: 5_000_000,
                fail_at_ns: 2_000_000,
                reps: 3,
                setup_samples: 1,
                telemetry: true,
                workers: 1,
            },
        }
    }
}

#[derive(Clone, Debug, Default)]
pub struct FabricRun {
    pub wall_s: f64,
    pub slice_ns: Vec<u64>,
    /// UDP packets offered / refused at injection.
    pub udp_sent: u64,
    pub udp_refused: u64,
    /// Switch packet arrivals (host injections and wire deliveries).
    pub rx: u64,
    pub hops: u64,
    pub exits: u64,
    pub agent_iterations: u64,
    pub agent_errors: u64,
    /// Driver ops of all eight agents by name (empty with telemetry off).
    pub driver_ops: Vec<(String, u64)>,
    pub telemetry_events: u64,
    /// Failure → leaf 0's reroute commit, virtual ns (`None`: undetected).
    pub conv_ns: Option<u64>,
    pub routes_changed: usize,
    /// Leaf 0 → leaf 1 deliveries before the failure / after the reroute.
    pub delivered_before: u64,
    pub delivered_after: u64,
    pub critical_speedup: f64,
    pub fingerprint: String,
}

/// A fabric ready to run: agents, flows and the fault scheduled.
struct Ready {
    tb: FabricTestbed,
    telemetry: Arc<Telemetry>,
    flows: Vec<Rc<RefCell<UdpState>>>,
    fail_at: u64,
}

/// Everything up to the first timed `run_until`: compile both programs,
/// load eight switches, run eight prologues, install routes, schedule
/// agents, heartbeats, flows and the link fault.
fn setup(seed: u64, size: ReactiveSize, tracer: &mut Tracer) -> Ready {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_fab0);
    let fail_at = size.fail_at_ns + rng.gen_range(0..TD_NS);

    tracer.begin("mantis_apps", "build_failover_fabric");
    let mut tb = build_failover_fabric(LEAVES, SPINES, TS_NS, ETA);
    tracer.end();
    let telemetry = if size.telemetry {
        Telemetry::shared()
    } else {
        Telemetry::disabled()
    };
    for i in 0..tb.sim.num_switches() {
        tb.sim
            .switch_at(i)
            .borrow_mut()
            .set_telemetry(telemetry.clone());
        tb.agents[i].borrow_mut().set_telemetry(telemetry.clone());
    }
    tracer.begin("mantis_agent", "schedule_fabric_agents");
    schedule_fabric_agents(&mut tb.sim, &tb.agents, TD_NS, 0);
    tracer.end();
    tracer.begin("netsim", "spawn_udp_on+schedule_link_flaps");
    let mut flows = Vec::new();
    for src in 0..LEAVES {
        for dst in (0..LEAVES).filter(|d| *d != src) {
            flows.push(spawn_udp_on(
                &mut tb.sim,
                src,
                UdpConfig {
                    ingress_port: EXIT_PORT,
                    fields: vec![
                        ("ethernet".into(), "ether_type".into(), 0x0800),
                        ("ipv4".into(), "src_addr".into(), u128::from(leaf_host(src))),
                        ("ipv4".into(), "dst_addr".into(), u128::from(leaf_host(dst))),
                        ("ipv4".into(), "protocol".into(), 17),
                    ],
                    payload_bytes: 1_250,
                    rate_bps: 1_000_000_000,
                    // Seeded desynchronisation, under one packet time.
                    start_ns: rng.gen_range(0..10_000),
                    stop_ns: None,
                },
            ));
        }
    }
    // The fault lives on the wire: both endpoints go down, for good.
    let plan = FaultPlan::new().flap_on(0, u32::from(HOST_PORTS), fail_at, u64::MAX);
    schedule_link_flaps(&mut tb.sim, &plan);
    tracer.end();
    tb.sim.set_workers(size.workers);
    Ready {
        tb,
        telemetry,
        flows,
        fail_at,
    }
}

/// Set the fabric up and run it to the horizon in `T_d` slices.
pub fn run_fabric(seed: u64, size: ReactiveSize, tracer: &mut Tracer) -> FabricRun {
    let Ready {
        mut tb,
        telemetry,
        flows,
        fail_at,
    } = setup(seed, size, tracer);
    let mut run = FabricRun::default();

    let src_field = tb
        .sim
        .switch_at(1)
        .borrow()
        .field_id("ipv4", "src_addr")
        .expect("leaf program has ipv4.src_addr");
    let mut exits = Fnv::default();
    let mut delivered: Vec<u64> = Vec::new(); // leaf 0 → leaf 1 exit times
    let mut at = 0;
    while at < size.horizon_ns {
        at = (at + TD_NS).min(size.horizon_ns);
        tracer.begin("netsim", "Simulator::run_until");
        let t0 = Instant::now();
        tb.sim.run_until(at);
        run.slice_ns.push(t0.elapsed().as_nanos() as u64);
        tracer.end();
        for (sw, pkt) in tb.sim.take_tx_tagged() {
            exits.u64(sw as u64);
            exits.u64(u64::from(pkt.port));
            exits.u64(pkt.time);
            run.exits += 1;
            if sw == 1
                && pkt.port == EXIT_PORT
                && pkt.phv.get_u64(src_field) == u64::from(leaf_host(0))
            {
                delivered.push(pkt.time);
            }
        }
    }
    run.wall_s = run.slice_ns.iter().sum::<u64>() as f64 / 1e9;

    for i in 0..tb.sim.num_switches() {
        exits.u64(tb.sim.tx_count_on(i));
        exits.u64(tb.sim.tx_bytes_on(i));
        run.hops += tb.sim.tx_count_on(i);
        run.rx += tb.sim.switch_at(i).borrow().stats.rx;
    }
    // All eight agents count into the one shared registry (zero when off).
    run.agent_iterations = telemetry.counter("agent.iterations") as u64;
    for f in &flows {
        let f = f.borrow();
        run.udp_sent += f.sent_pkts;
        run.udp_refused += f.dropped_pkts;
    }
    run.agent_errors = telemetry.counter("agent.paced_iteration_errors") as u64;
    let snap = telemetry.snapshot();
    run.telemetry_events = snap.events_buffered + snap.events_dropped;
    run.driver_ops = crate::react::driver_op_counts(&snap);
    if size.telemetry {
        // The merged registry is part of the observable output.
        exits.bytes(telemetry.snapshot_json().as_bytes());
    }
    if let Some(ev) = tb.events[0].borrow().first() {
        run.conv_ns = Some(ev.detected_ns.saturating_sub(fail_at));
        run.routes_changed = ev.routes_changed;
        run.delivered_after = delivered.iter().filter(|t| **t > ev.detected_ns).count() as u64;
    }
    run.delivered_before = delivered.iter().filter(|t| **t < fail_at).count() as u64;
    run.critical_speedup = tb.sim.par_stats().speedup();
    run.fingerprint = exits.hex();
    run
}

pub fn run(seed: u64, size: ReactiveSize, tracer: &mut Tracer) -> (Outcome, Vec<FabricRun>) {
    let mut out = Outcome::default();
    let mut runs = vec![run_fabric(seed, size, tracer)];
    // One repetition's footprint, read before anything else allocates.
    put(&mut out.metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    runs.extend((1..size.reps).map(|_| run_fabric(seed, size, tracer)));
    let first = &runs[0];

    let series: Vec<&[u64]> = runs.iter().map(|r| r.slice_ns.as_slice()).collect();
    out.put_sliced(&series, first.rx, size.horizon_ns);
    let setup_s = median_of_fastest(size.setup_samples, SETUPS_PER_SAMPLE, || {
        std::hint::black_box(setup(seed, size, &mut Tracer::new(false)).fail_at);
    });
    put(&mut out.metrics, "setup_s", setup_s, "s");

    out.attempted = runs.iter().map(|r| r.udp_sent + r.agent_iterations).sum();
    out.failed = runs.iter().map(|r| r.udp_refused + r.agent_errors).sum();
    out.check(
        "failure detected and routes moved",
        runs.iter()
            .all(|r| r.conv_ns.is_some() && r.routes_changed >= 1),
        format!(
            "convergence {:?} ns, {} route(s) changed",
            first.conv_ns, first.routes_changed
        ),
    );
    out.check(
        "leaf 0 → leaf 1 deliveries resume after the reroute",
        runs.iter()
            .all(|r| r.delivered_before > 0 && r.delivered_after > 0),
        format!(
            "{} before the failure, {} after the reroute",
            first.delivered_before, first.delivered_after
        ),
    );
    out.check(
        "fingerprint equal across repetitions",
        runs.iter().all(|r| r.fingerprint == first.fingerprint),
        format!("{} repetition(s) of {}", runs.len(), first.fingerprint),
    );
    out.exact(
        "conv_virt_us",
        first.conv_ns.map_or(-1.0, |ns| ns as f64 / 1e3),
    );
    out.exact("routes_changed", first.routes_changed);
    out.exact("udp_sent", first.udp_sent);
    out.exact("switch_rx", first.rx);
    out.exact("hops", first.hops);
    out.exact("exits", first.exits);
    out.exact("agent_iterations", first.agent_iterations);
    out.exact("delivered_before", first.delivered_before);
    out.exact("delivered_after", first.delivered_after);
    out.exact("telemetry_events", first.telemetry_events);
    out.exact("fingerprint", &first.fingerprint);
    (out, runs)
}
