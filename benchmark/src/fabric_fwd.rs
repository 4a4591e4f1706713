//! `fabric_fwd`: the unscaled Fig. 14 traffic block over the routed 4×4
//! leaf–spine fabric — one exact-match `route` table per switch, serial
//! drain, telemetry off, no agents. The packet path (`netsim` wheel, flows
//! and routing; `rmt-sim` inject, match and traffic manager) does all the
//! work and the control path none. Batch work at a stated input size, not
//! an arrival-rate test.
//!
//! The run advances the simulator in 1 ms virtual slices and times each
//! `run_until` call on its own: the sum gives wall per virtual ms (and
//! packets per second), the slice percentiles the step latencies, and
//! between slices the harness streams every fabric exit into the
//! fingerprint, so the output check covers all packets, not a capped tail.

use crate::host::peak_rss_mb;
use crate::report::{put, Outcome};
use crate::span::Tracer;
use crate::stats::{median, Fnv};
use crate::Scale;
use netsim::{
    scale_totals, spawn_scale_flows, ScaleConfig, ScaleHost, Simulator, Topology, HOST_PORTS,
};
use p4_ast::Value;
use rmt_sim::{switch_from_source, Clock, KeyField, PortId, SharedSwitch, SwitchConfig};
use std::time::Instant;

/// Routing program every fabric switch runs (the `figures -- scale` one):
/// exact match on the destination address, forward or drop.
pub const ROUTE_P4: &str = r#"
header_type ip_t { fields { src : 32; dst : 32; } }
header ip_t ip;
action fwd(port) { modify_field(intr.egress_spec, port); }
action to_drop() { drop(); }
table route {
    reads { ip.dst : exact; }
    actions { fwd; to_drop; }
    default_action : to_drop();
    size : 128;
}
control ingress { apply(route); }
"#;

pub const LEAVES: usize = 4;
pub const SPINES: usize = 4;

/// Virtual length of one timed `run_until` slice.
pub const SLICE_NS: u64 = 1_000_000;

/// The Fig. 14 block: 370 000 Pareto flows with 700 B payloads over 20 s
/// of virtual time (5 106 906 packets on seed 14).
#[derive(Clone, Copy, Debug)]
pub struct FabricSize {
    pub flows: u32,
    pub duration_ns: u64,
    /// Repetitions of the whole block (fresh fabric each).
    pub reps: usize,
}

impl FabricSize {
    /// [`crate::block_reps`] repetitions of the whole block: three in the
    /// 30 s `BENCHMARK.json` runs for.
    pub fn for_scale(scale: Scale) -> FabricSize {
        match scale {
            Scale::Seconds(seconds) => FabricSize {
                flows: 370_000,
                duration_ns: 20_000_000_000,
                reps: crate::block_reps(seconds),
            },
            Scale::Smoke => FabricSize::smoke(),
        }
    }

    /// About 1 % of the block, three times.
    pub fn smoke() -> FabricSize {
        FabricSize {
            flows: 3_700,
            duration_ns: 200_000_000,
            reps: 3,
        }
    }
}

/// Host `h` behind leaf `l` (addresses start at 1 so the all-zeros
/// template default can never match).
fn host_addr(leaf: usize, h: usize) -> u64 {
    (leaf * HOST_PORTS as usize + h + 1) as u64
}

pub fn hosts() -> Vec<ScaleHost> {
    (0..LEAVES)
        .flat_map(|leaf| {
            (0..HOST_PORTS as usize).map(move |h| ScaleHost {
                switch: leaf,
                port: h as PortId,
                addr: host_addr(leaf, h),
            })
        })
        .collect()
}

/// Build the routed fabric: every switch knows every host. Leaves forward
/// local hosts to their port and remote hosts up to the spine picked by
/// destination address; spines forward down to the owning leaf.
pub fn build_fabric() -> Simulator {
    let clock = Clock::new();
    let switches: Vec<SharedSwitch> = (0..LEAVES + SPINES)
        .map(|_| {
            let cfg = SwitchConfig {
                num_pipes: 1,
                ..SwitchConfig::default()
            };
            SharedSwitch::new(
                switch_from_source(ROUTE_P4, cfg, clock.clone()).expect("route program compiles"),
            )
        })
        .collect();
    for (i, handle) in switches.iter().enumerate() {
        let mut sw = handle.borrow_mut();
        let table = sw.table_id("route").expect("route table");
        let action = sw.action_id("fwd").expect("fwd action");
        for leaf in 0..LEAVES {
            for h in 0..HOST_PORTS as usize {
                let addr = host_addr(leaf, h);
                let port = if i >= LEAVES {
                    Topology::spine_downlink_port(leaf)
                } else if leaf == i {
                    h as PortId
                } else {
                    Topology::leaf_uplink_port((addr % SPINES as u64) as usize)
                };
                sw.table_add(
                    table,
                    vec![KeyField::Exact(Value::new(u128::from(addr), 32))],
                    0,
                    action,
                    vec![Value::new(u128::from(port), 64)],
                )
                .expect("route installs");
            }
        }
    }
    let mut sim = Simulator::fabric(switches, Topology::leaf_spine(LEAVES, SPINES));
    // Serial drain, whatever MANTIS_WORKERS or the core count say.
    sim.set_workers(1);
    sim
}

pub fn scale_cfg(seed: u64, size: FabricSize) -> ScaleConfig {
    ScaleConfig {
        seed,
        flows: size.flows,
        duration_ns: size.duration_ns,
        payload_bytes: 700,
        ..ScaleConfig::default()
    }
}

/// One repetition's measurements.
#[derive(Clone, Debug, Default)]
pub struct BlockRun {
    pub setup_s: f64,
    /// Sum of the timed `run_until` slices.
    pub wall_s: f64,
    pub slice_ns: Vec<u64>,
    pub planned: u64,
    pub injected: u64,
    pub accepted: u64,
    /// Packets transmitted out of leaf host ports.
    pub host_tx: u64,
    /// Fabric exits streamed out of the simulator's log.
    pub exits: u64,
    /// Transmissions summed over all switches (one per hop).
    pub hops: u64,
    pub batches: u64,
    pub max_batch: u64,
    pub wheel_slots: usize,
    pub arena_bytes: u64,
    pub fingerprint: String,
}

/// Everything up to the first timed `run_until`: eight switches compiled
/// and loaded, routes installed, the flow schedule materialised. Returns
/// the simulator, the planned packet count and the set-up seconds.
fn setup(seed: u64, size: FabricSize, tracer: &mut Tracer) -> (Simulator, u64, f64) {
    let t_setup = Instant::now();
    tracer.begin("rmt_sim", "switch_from_source+table_add");
    let mut sim = build_fabric();
    tracer.end();
    tracer.begin("netsim", "spawn_scale_flows");
    let planned =
        spawn_scale_flows(&mut sim, &scale_cfg(seed, size), &hosts()).expect("scale flows spawn");
    tracer.end();
    (sim, planned, t_setup.elapsed().as_secs_f64())
}

/// Build a fresh fabric, spawn the block and run it to the horizon.
pub fn run_block(seed: u64, size: FabricSize, tracer: &mut Tracer) -> BlockRun {
    let cfg = scale_cfg(seed, size);
    let (mut sim, planned, setup_s) = setup(seed, size, tracer);
    let mut run = BlockRun {
        planned,
        setup_s,
        ..BlockRun::default()
    };

    // A flow that starts in the block's last ticks runs its remaining
    // packets (at most 511) one tick apart past the nominal duration;
    // 1 ms covers that and the last packets' trip across the fabric.
    let horizon = cfg.duration_ns + SLICE_NS;
    let mut exits = Fnv::default();
    let mut at = 0;
    while at < horizon {
        at = (at + SLICE_NS).min(horizon);
        tracer.begin("netsim", "Simulator::run_until");
        let t0 = Instant::now();
        sim.run_until(at);
        run.slice_ns.push(t0.elapsed().as_nanos() as u64);
        tracer.end();
        for (sw, pkt) in sim.take_tx_tagged() {
            exits.u64(sw as u64);
            exits.u64(u64::from(pkt.port));
            exits.u64(pkt.time);
            run.exits += 1;
        }
    }
    run.wall_s = run.slice_ns.iter().sum::<u64>() as f64 / 1e9;

    let totals = scale_totals(&sim);
    run.injected = totals.injected_pkts;
    run.accepted = totals.accepted_pkts;
    run.batches = totals.batches;
    run.max_batch = totals.max_batch;
    run.wheel_slots = sim.wheel_slots();
    run.arena_bytes = sim.arena_bytes();
    for i in 0..sim.num_switches() {
        exits.u64(sim.tx_count_on(i));
        exits.u64(sim.tx_bytes_on(i));
        run.hops += sim.tx_count_on(i);
    }
    for leaf in 0..LEAVES {
        let sw = sim.switch_at(leaf).borrow();
        run.host_tx += (0..HOST_PORTS)
            .map(|p| sw.port(p).map_or(0, |s| s.tx_packets))
            .sum::<u64>();
    }
    run.fingerprint = exits.hex();
    run
}

pub fn run(seed: u64, size: FabricSize, tracer: &mut Tracer) -> (Outcome, Vec<BlockRun>) {
    let mut out = Outcome::default();
    let mut runs = vec![run_block(seed, size, tracer)];
    // One block's footprint, read before the next repetition allocates:
    // whether that reuses the freed memory or grows the heap is the
    // allocator's choice, not the program's.
    put(&mut out.metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    runs.extend((1..size.reps).map(|_| run_block(seed, size, tracer)));
    let first = &runs[0];

    let series: Vec<&[u64]> = runs.iter().map(|r| r.slice_ns.as_slice()).collect();
    let wall_s = out.put_sliced(&series, first.injected, size.duration_ns);
    let setups: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    put(&mut out.metrics, "setup_s", median(&setups), "s");
    put(
        &mut out.info,
        "ns_per_hop",
        wall_s * 1e9 / first.hops as f64,
        "ns",
    );

    out.attempted = runs.iter().map(|r| r.planned).sum();
    out.failed = runs
        .iter()
        .map(|r| r.planned - r.accepted.min(r.host_tx).min(r.planned))
        .sum();
    out.check(
        "planned = injected = accepted = packets leaving at host ports",
        runs.iter().all(|r| {
            r.planned == r.injected
                && r.injected == r.accepted
                && r.accepted == r.host_tx
                && r.host_tx == r.exits
        }),
        format!(
            "planned {} injected {} accepted {} host_tx {} exits {}",
            first.planned, first.injected, first.accepted, first.host_tx, first.exits
        ),
    );
    out.check(
        "exit fingerprint equal across repetitions",
        runs.iter().all(|r| r.fingerprint == first.fingerprint),
        format!("{} repetition(s) of {}", runs.len(), first.fingerprint),
    );
    out.exact("planned_pkts", first.planned);
    out.exact("hops", first.hops);
    out.exact("batches", first.batches);
    out.exact("max_batch", first.max_batch);
    out.exact("wheel_slots", first.wheel_slots);
    out.exact("arena_bytes", first.arena_bytes);
    out.exact("fingerprint", &first.fingerprint);
    (out, runs)
}
