//! The scale engine's steady-state packet path performs zero heap
//! allocation (DESIGN.md §14).
//!
//! A counting global allocator wraps the system one; a small scale block
//! runs on a routed leaf–spine fabric, split into a warm-up half (pools
//! fill, wheel slots and scratch buffers reach their high-water marks)
//! and a measured half. The measured half must inject thousands of
//! packets without a single new allocation: templates write into pooled
//! PHVs, wire hops move buffers instead of copying, transmit batches
//! reuse scratch capacity, and the capped tx log recycles exit buffers
//! into the one freelist the fabric's switches share.
//!
//! The telemetry-on twin runs the same block with an enabled registry
//! shared by every switch (DESIGN.md §6): once the ring has filled, the
//! rx/tx counters, queue-depth gauges, `egress_pass` spans and
//! `drop_queue_full` instants of the measured half are all recorded
//! through pre-resolved handles into fixed-size ring records — still zero
//! allocations.
//!
//! The route program's fabric is one spec end to end, so its wire hops
//! move their buffers. The third block runs the failover fabric, whose
//! leaves and spines run different programs of one wire layout: every hop
//! there moves its buffer too and rebases it onto the receiver's program,
//! spine heartbeats are relayed by an exact-match table and
//! counted-and-dropped by a register ALU on the leaf, and data crosses
//! leaf → spine → leaf over LPM routes. The fourth runs the ECMP fabric,
//! whose sending leaf declares an `l4` header the spines do not: each of
//! its uplink hops goes through a compiled
//! [`TransferMap`](mantis::rmt_sim::TransferMap) into a PHV taken from
//! the receiver's pool, after a hash micro-op picked the uplink — the PHV
//! images, transfer runs and micro-op buffers all in play, none of them
//! allocating.
//!
//! The last two blocks source a UDP flow and a heartbeat stream on one
//! end of a three-switch line and let every packet leave through the
//! other: a buffer is recycled two hops from where it was injected, into
//! the freelist the whole line shares — by tx-log eviction, or, with no
//! log kept at all, as the packet exits.

use mantis::apps::fabric::{build_ecmp_fabric, build_failover_fabric, leaf_host, EXIT_PORT};
use mantis::netsim::{
    scale_totals, spawn_heartbeats_on, spawn_scale_flows, spawn_udp_on, Endpoint, HeartbeatConfig,
    ScaleConfig, ScaleHost, Simulator, Topology, UdpConfig, HOST_PORTS,
};
use mantis::p4_ast::Value;
use mantis::rmt_sim::{switch_from_source, KeyField, PortId, TransferMap};
use mantis::{Clock, SharedSwitch, SwitchConfig, Telemetry, TelemetryConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Allocations made by this thread. A block runs its whole fabric on
    /// its test's thread, so what other test threads allocate meanwhile —
    /// their set-up, their asserts, the harness reporting them — is not
    /// counted against its measured half.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread's allocations hold, and their high-water mark
    /// since the last [`reset_peak`]. Signed: a block frees on its own
    /// thread what it allocated there, but a thread may free another's.
    static LIVE: Cell<(i64, i64)> = const { Cell::new((0, 0)) };
}

fn count_alloc(grow: usize) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    count_bytes(grow as i64);
}

fn count_bytes(delta: i64) {
    let _ = LIVE.try_with(|c| {
        let (live, peak) = c.get();
        c.set((live + delta, peak.max(live + delta)));
    });
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Start a new high-water mark at the bytes held now; returns them.
fn reset_peak() -> i64 {
    LIVE.with(|c| {
        let (live, _) = c.get();
        c.set((live, live));
        live
    })
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_bytes(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(0);
        count_bytes(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: Counting = Counting;

const ROUTE_P4: &str = r#"
header_type ip_t { fields { src : 32; dst : 32; } }
header ip_t ip;
action fwd(port) { modify_field(intr.egress_spec, port); }
action to_drop() { drop(); }
table route {
    reads { ip.dst : exact; }
    actions { fwd; to_drop; }
    default_action : to_drop();
    size : 64;
}
control ingress { apply(route); }
"#;

const LEAVES: usize = 2;
const SPINES: usize = 1;

fn host_addr(leaf: usize, h: usize) -> u64 {
    (leaf * HOST_PORTS as usize + h + 1) as u64
}

fn build_fabric(config: &SwitchConfig, telemetry: Option<&Arc<Telemetry>>) -> Simulator {
    let clock = Clock::new();
    let mut switches = Vec::new();
    for i in 0..LEAVES + SPINES {
        let mut sw = switch_from_source(ROUTE_P4, config.clone(), clock.clone())
            .expect("route program compiles");
        if let Some(telemetry) = telemetry {
            sw.set_fabric_index(Some(i as u16));
            sw.set_telemetry(telemetry.clone());
        }
        switches.push(SharedSwitch::new(sw));
    }
    for (i, handle) in switches.iter().enumerate() {
        let mut sw = handle.borrow_mut();
        let t = sw.table_id("route").expect("route table");
        let a = sw.action_id("fwd").expect("fwd action");
        for leaf in 0..LEAVES {
            for h in 0..HOST_PORTS as usize {
                let addr = host_addr(leaf, h);
                let port = if i < LEAVES {
                    if leaf == i {
                        h as u64
                    } else {
                        u64::from(Topology::leaf_uplink_port((addr % SPINES as u64) as usize))
                    }
                } else {
                    u64::from(Topology::spine_downlink_port(leaf))
                };
                sw.table_add(
                    t,
                    vec![KeyField::Exact(Value::new(u128::from(addr), 32))],
                    0,
                    a,
                    vec![Value::new(u128::from(port), 64)],
                )
                .expect("route installs");
            }
        }
    }
    let mut sim = Simulator::fabric(switches, Topology::leaf_spine(LEAVES, SPINES));
    // Small cap: exits hit it during warm-up and recycle from then on, so
    // the log itself stops growing before the measured window.
    sim.tx_log_cap = 64;
    sim
}

/// What the measured (second) half of one block did.
struct MeasuredHalf {
    allocations: u64,
    exited: u64,
    queue_drops: u64,
    planned: u64,
}

/// The scale block of these tests: 3 000 flows over every leaf host.
fn scale_block() -> (Vec<ScaleHost>, ScaleConfig) {
    let hosts = (0..LEAVES)
        .flat_map(|leaf| {
            (0..HOST_PORTS as usize).map(move |h| ScaleHost {
                switch: leaf,
                port: h as PortId,
                addr: host_addr(leaf, h),
            })
        })
        .collect();
    let cfg = ScaleConfig {
        seed: 7,
        flows: 3_000,
        duration_ns: 2_000_000_000,
        ..Default::default()
    };
    (hosts, cfg)
}

fn run_block(config: &SwitchConfig, telemetry: Option<&Arc<Telemetry>>) -> MeasuredHalf {
    let (hosts, cfg) = scale_block();
    let mut sim = build_fabric(config, telemetry);
    let planned = spawn_scale_flows(&mut sim, &cfg, &hosts).expect("flows spawn");
    assert!(planned > 10_000, "block too small to exercise steady state");
    let queue_drops = |sim: &Simulator| -> u64 {
        (0..LEAVES + SPINES)
            .map(|i| sim.switch_at(i).borrow().stats.dropped_queue)
            .sum()
    };

    // Warm-up half: freelists, wheel buckets, queue deques, and batch
    // scratch all reach steady capacity (and, with telemetry on, the ring
    // fills and every slot the traffic touches is sized).
    sim.run_until(cfg.duration_ns / 2);
    let exited0 = sim.tx_count;
    let drops0 = queue_drops(&sim);

    let before = allocs();
    sim.run_until(cfg.duration_ns + 100_000);
    let after = allocs();

    MeasuredHalf {
        allocations: after - before,
        exited: sim.tx_count - exited0,
        queue_drops: queue_drops(&sim) - drops0,
        planned,
    }
}

/// What spawning the scale block may hold at once besides its schedule,
/// its bucket cursors and one bucket: the shards (a compiled template and
/// a copy of the host table each), the shard list and a first wake per
/// shard.
const SPAWN_SLACK_BYTES: i64 = 16 << 10;

/// Bucket cursors: at most 2^10 buckets of 8 B a shard.
const CURSOR_BYTES: i64 = LEAVES as i64 * (8 << 10);

/// One bucket's sort scratch is 8 B a word of the largest bucket. This
/// block's two shards hold ≈ 21 K and 22 K words, each in 8 buckets of
/// 2^18 ticks: one per 2^10 of the 12 000 words that its 3 000 flows of at
/// least 4 packets are sure to send. The largest bucket, ≈ 4.4 K words, is
/// under an eighth of the schedule's ≈ 43 K.
const BUCKET_SHARE: i64 = 8;

/// Spawning places each packet's word straight into its tick bucket, so
/// it holds at most the schedule at 8 B a planned packet, the bucket
/// cursors, one bucket's sort scratch and [`SPAWN_SLACK_BYTES`] at once;
/// it returns holding the schedule alone, every shard's schedule
/// allocated at exactly its length.
#[test]
fn spawning_a_scale_block_holds_eight_bytes_a_packet() {
    let (hosts, cfg) = scale_block();
    let mut sim = build_fabric(&SwitchConfig::default(), None);
    let base = reset_peak();
    let planned = spawn_scale_flows(&mut sim, &cfg, &hosts).expect("flows spawn");
    let (live, peak) = LIVE.with(Cell::get);
    let schedule = 8 * planned as i64;
    assert!(
        peak - base <= schedule + schedule / BUCKET_SHARE + CURSOR_BYTES + SPAWN_SLACK_BYTES,
        "spawn peaked at {} B for {planned} packets",
        peak - base
    );
    assert!(
        live - base <= schedule + SPAWN_SLACK_BYTES,
        "spawn kept {} B for {planned} packets",
        live - base
    );
    let totals = scale_totals(&sim);
    assert_eq!(totals.shards, LEAVES);
    // Each shard's capacity is at least its length and the lengths sum to
    // `planned`: equal sums mean every capacity equals its length.
    assert_eq!(totals.schedule_bytes, 8 * planned);
}

#[test]
fn steady_state_packet_path_does_not_allocate() {
    let half = run_block(&SwitchConfig::default(), None);
    assert!(half.exited > 0, "no traffic crossed the fabric");
    assert_eq!(
        half.allocations, 0,
        "steady-state half allocated {} times (planned {} packets)",
        half.allocations, half.planned
    );
}

#[test]
fn steady_state_packet_path_does_not_allocate_with_telemetry_on() {
    // A ring the warm-up half overfills several times, and queues two
    // frames deep so that same-tick bursts overflow them.
    let telemetry = Telemetry::shared_with(TelemetryConfig {
        trace_capacity: 4_096,
        enabled: true,
    });
    let config = SwitchConfig {
        queue_capacity_bytes: 1_500,
        ..Default::default()
    };
    let half = run_block(&config, Some(&telemetry));
    assert!(half.exited > 0, "no traffic crossed the fabric");
    assert!(
        half.queue_drops > 0,
        "no queue overflowed in the measured half: drop_queue_full went unexercised"
    );
    assert_eq!(
        half.allocations, 0,
        "telemetry-on steady-state half allocated {} times (planned {} packets)",
        half.allocations, half.planned
    );

    // The block really did record: ring full and wrapped, counters under
    // every scope, per-port gauges, spans. (Each queue drop counted above
    // records its `drop_queue_full` instant in the same branch.)
    let snap = telemetry.snapshot();
    assert_eq!(snap.events_buffered, 4_096);
    assert!(snap.events_dropped > 4_096);
    assert!(snap.counter("switch.rx") > 0 && snap.counter("sw0.switch.rx") > 0);
    assert!(snap.counter("switch.tx") > 0 && snap.counter("sw2.switch.tx") > 0);
    assert!(snap.gauges.keys().any(|k| k.starts_with("tm.q")));
    assert!(telemetry
        .chrome_trace_json()
        .contains("\"name\":\"egress_pass\""));
}

#[test]
fn heartbeat_and_cross_program_hops_do_not_allocate() {
    // Four heartbeat streams at T_s = 1 µs; no agents (a dialogue loop
    // allocates by design, and is not the packet path).
    let mut tb = build_failover_fabric(2, 2, 1_000, 0.2);
    tb.sim.tx_log_cap = 64;
    {
        // Different programs, one wire layout: every hop moves its buffer.
        let (leaf, spine) = (tb.sim.switch_at(0).borrow(), tb.sim.switch_at(2).borrow());
        let (lf, sf) = (&leaf.spec().fields, &spine.spec().fields);
        let metadata_differs = lf.iter().zip(sf).any(|(a, b)| {
            a.is_metadata && (a.instance != b.instance || a.field != b.field || a.init != b.init)
        });
        assert!(
            metadata_differs,
            "leaf and spine must run different programs"
        );
        for (from, to) in [(&leaf, &spine), (&spine, &leaf)] {
            assert!(
                TransferMap::build(from.spec(), to.spec()).is_identity(),
                "leaf and spine programs share one wire layout: their hops move"
            );
        }
    }
    let flow = spawn_udp_on(
        &mut tb.sim,
        0,
        UdpConfig {
            ingress_port: EXIT_PORT,
            fields: vec![
                ("ethernet".into(), "ether_type".into(), 0x0800),
                ("ipv4".into(), "src_addr".into(), u128::from(leaf_host(0))),
                ("ipv4".into(), "dst_addr".into(), u128::from(leaf_host(1))),
            ],
            payload_bytes: 1_250,
            rate_bps: 1_000_000_000,
            start_ns: 0,
            stop_ns: None,
        },
    );
    let counted = |sim: &Simulator| -> u64 {
        (0..2)
            .map(|leaf| {
                let sw = sim.switch_at(leaf).borrow();
                let reg = sw.register_id("hb_count").expect("hb_count register");
                sw.register_read_range(reg, 0, 31)
                    .iter()
                    .map(|v| v.as_u64())
                    .sum::<u64>()
            })
            .sum()
    };

    tb.sim.run_until(1_000_000);
    let (exits0, counted0) = (tb.sim.tx_count_on(1), counted(&tb.sim));
    let before = allocs();
    tb.sim.run_until(2_000_000);
    let after = allocs();

    // Both paths ran in the measured half: ~4 000 heartbeats relayed,
    // transferred, counted and dropped; ~100 data packets across three
    // switches and two programs.
    let heartbeats = counted(&tb.sim) - counted0;
    assert!(heartbeats > 3_000, "{heartbeats} heartbeats counted");
    assert!(tb.sim.tx_count_on(1) - exits0 > 50, "data did not cross");
    assert_eq!(flow.borrow().dropped_pkts, 0);
    assert_eq!(
        after - before,
        0,
        "cross-program steady state allocated {} times",
        after - before
    );
}

#[test]
fn hops_between_different_wire_layouts_do_not_allocate() {
    // Sixteen flows, 4 Gb/s in all, hashed over four spines.
    let (mut sim, flows) = build_ecmp_fabric(16);
    sim.tx_log_cap = 64;
    let spines = 2..6;
    {
        let (leaf, receiver) = (sim.switch_at(0).borrow(), sim.switch_at(1).borrow());
        for j in spines.clone() {
            let spine = sim.switch_at(j).borrow();
            assert!(
                !TransferMap::build(leaf.spec(), spine.spec()).is_identity(),
                "the ECMP leaf's `l4` header must make its uplink hops copy"
            );
            assert!(TransferMap::build(spine.spec(), receiver.spec()).is_identity());
        }
    }
    let relayed = |sim: &Simulator| -> u64 { spines.clone().map(|j| sim.tx_count_on(j)).sum() };

    sim.run_until(1_000_000);
    let (exits0, relayed0) = (sim.tx_count_on(1), relayed(&sim));
    let before = allocs();
    sim.run_until(2_000_000);
    let after = allocs();

    // ~500 packets in the measured millisecond, each copied into a spine
    // PHV on its first hop and moved on its second.
    assert!(relayed(&sim) - relayed0 > 400, "spines relayed too little");
    assert!(sim.tx_count_on(1) - exits0 > 400, "data did not cross");
    assert!(flows.iter().all(|f| f.borrow().dropped_pkts == 0));
    assert_eq!(
        after - before,
        0,
        "cross-layout steady state allocated {} times",
        after - before
    );
}

/// The address every packet of the line block is routed to.
const LINE_DST: u64 = 9;

/// A UDP source and a heartbeat source on switch 0 of a three-switch line
/// of the route program, every packet leaving the fabric out an unlinked
/// port of switch 2: the measured half must see them exit and allocate
/// nothing.
fn line_block_does_not_allocate(tx_log_cap: usize) {
    let clock = Clock::new();
    let switches = (0..3)
        .map(|i| {
            let mut sw = switch_from_source(ROUTE_P4, SwitchConfig::default(), clock.clone())
                .expect("route program compiles");
            let t = sw.table_id("route").expect("route table");
            let a = sw.action_id("fwd").expect("fwd action");
            let port: u128 = if i < 2 { 5 } else { 2 };
            sw.table_add(
                t,
                vec![KeyField::Exact(Value::new(u128::from(LINE_DST), 32))],
                0,
                a,
                vec![Value::new(port, 64)],
            )
            .expect("route installs");
            SharedSwitch::new(sw)
        })
        .collect();
    let topo = Topology::new(3)
        .link_with(Endpoint::new(0, 5), Endpoint::new(1, 4), 1_000, 0)
        .link_with(Endpoint::new(1, 5), Endpoint::new(2, 4), 1_000, 0);
    let mut sim = Simulator::fabric(switches, topo);
    sim.tx_log_cap = tx_log_cap;
    let fields = |src: u128| {
        vec![
            ("ip".into(), "src".into(), src),
            ("ip".into(), "dst".into(), u128::from(LINE_DST)),
        ]
    };
    let udp = spawn_udp_on(
        &mut sim,
        0,
        UdpConfig {
            ingress_port: 0,
            fields: fields(1),
            payload_bytes: 100,
            rate_bps: 1_000_000_000,
            start_ns: 0,
            stop_ns: None,
        },
    );
    spawn_heartbeats_on(
        &mut sim,
        0,
        HeartbeatConfig {
            port: 1,
            fields: fields(2),
            interval_ns: 1_000,
            start_ns: 0,
            stop_ns: None,
        },
    );

    sim.run_until(1_000_000);
    let exits0 = sim.tx_count_on(2);
    let before = allocs();
    sim.run_until(2_000_000);
    let after = allocs();

    // ~1 250 UDP packets and 1 000 heartbeats in the measured millisecond.
    let exits = sim.tx_count_on(2) - exits0;
    assert!(exits > 2_000, "{exits} packets exited");
    assert_eq!(udp.borrow().dropped_pkts, 0);
    assert_eq!(
        after - before,
        0,
        "line block (tx_log_cap {tx_log_cap}) allocated {} times",
        after - before
    );
}

#[test]
fn sources_whose_exits_leave_elsewhere_do_not_allocate() {
    line_block_does_not_allocate(64);
}

#[test]
fn sources_do_not_allocate_when_no_exit_is_logged() {
    line_block_does_not_allocate(0);
}
