//! Fabric determinism (DESIGN.md §10): a multi-switch run is a pure
//! function of its inputs.
//!
//! * the full leaf–spine failover workload — heartbeats, a measured flow,
//!   N interleaved dialogue loops, and a mid-run link failure — produces
//!   byte-identical per-switch churn fingerprints when run twice;
//! * events inserted in shuffled order at *equal timestamps* on distinct
//!   switches leave every per-switch fingerprint unchanged (the
//!   `(time, switch, seq)` ordering makes same-time work on different
//!   switches commute), checked by proptest over random permutations;
//! * the drain's readiness index holds on that workload at full size — a
//!   count-based floor (switch visits per event, pumps that served
//!   nothing) that does not depend on how fast the runner is — and the
//!   shard count `ParStats` models changes nothing the run does;
//! * the relay loop runs on a line fabric of every length from 1 to 4
//!   switches, with every agent measuring its own switch;
//! * every fabric here runs once per driver mode: in process, and over
//!   the wire protocol at zero RTT;
//! * switch-scoped telemetry labels (`sw{i}.*`) appear only when the
//!   fabric has more than one switch, so single-switch traces stay
//!   byte-identical to the pre-fabric goldens (enforced byte-for-byte by
//!   `telemetry_determinism.rs`).

use integration_tests::{driver_modes, testbed};
use mantis::apps::fabric::{build_failover_fabric, leaf_host, EXIT_PORT};
use mantis::netsim::{
    schedule_link_flaps, spawn_udp_on, Simulator, Topology, UdpConfig, HOST_PORTS,
};
use mantis::rmt_sim::PacketDesc;
use mantis::{schedule_fabric_agents, CostModel, DriverMode, Fabric, FaultPlan, SwitchConfig};
use proptest::prelude::*;

/// Everything observable per switch after a run: aggregate tx accounting
/// plus the ordered `(port, time)` sequence of packets that left it.
/// Cross-switch interleaving in the shared log may legitimately vary with
/// event insertion order; the per-switch projections may not.
fn per_switch_fingerprints(sim: &mut Simulator) -> Vec<String> {
    let n = sim.num_switches();
    let tagged = sim.take_tx_tagged();
    (0..n)
        .map(|i| {
            let log: Vec<String> = tagged
                .iter()
                .filter(|(s, _)| *s == i)
                .map(|(_, p)| format!("{}@{}", p.port, p.time))
                .collect();
            format!(
                "sw{i} tx={} bytes={} log=[{}]",
                sim.tx_count_on(i),
                sim.tx_bytes_on(i),
                log.join(",")
            )
        })
        .collect()
}

/// One full failover-fabric run: 2×2 leaf–spine, paced agents, a
/// leaf-0 → leaf-1 flow, and a link failure mid-run.
fn failover_churn_run() -> (Vec<String>, Vec<usize>, Vec<Option<i128>>) {
    let mut tb = build_failover_fabric(2, 2, 1_000, 0.2);
    schedule_fabric_agents(&mut tb.sim, &tb.agents, 50_000, 0);
    spawn_udp_on(
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
    let plan = FaultPlan::new().flap_on(0, u32::from(HOST_PORTS), 700_000, 1_900_000);
    schedule_link_flaps(&mut tb.sim, &plan);
    tb.sim.run_until(1_500_000);

    let detections: Vec<usize> = tb.events.iter().map(|e| e.borrow().len()).collect();
    let relay_totals: Vec<Option<i128>> = (2..4)
        .map(|s| tb.agents[s].borrow().slot("relay_total"))
        .collect();
    (
        per_switch_fingerprints(&mut tb.sim),
        detections,
        relay_totals,
    )
}

#[test]
fn the_same_fabric_workload_runs_byte_identically_twice() {
    let first = failover_churn_run();
    let second = failover_churn_run();
    assert_eq!(first.1, second.1, "detection counts diverged");
    assert_eq!(first.2, second.2, "spine measurements diverged");
    for (i, (a, b)) in first.0.iter().zip(second.0.iter()).enumerate() {
        assert_eq!(a, b, "switch {i} churn fingerprint diverged");
    }
    // The run did real work: the failure was detected and packets moved
    // on every switch.
    assert_eq!(first.1[0], 1, "leaf 0 must detect the downed wire");
    assert!(
        first.0.iter().all(|f| !f.contains("tx=0 ")),
        "{:?}",
        first.0
    );
}

/// The benchmark's `reactive_fabric` shape — 4×4 leaf–spine, `T_s` = 1 µs
/// heartbeats, eight agents paced at `T_d` = 50 µs, twelve leaf-to-leaf
/// flows — for 2 ms: the drain must find its work by the readiness index,
/// not by polling. Before the index this slice took 5.7 switch visits per
/// event and 87 % of its pumps served nothing. Returns the run's exits
/// and the drain's accounting.
fn readiness_slice(workers: usize) -> (Vec<String>, mantis::netsim::ParStats) {
    let mut tb = build_failover_fabric(4, 4, 1_000, 0.2);
    tb.sim.set_workers(workers);
    schedule_fabric_agents(&mut tb.sim, &tb.agents, 50_000, 0);
    for src in 0..4 {
        for dst in (0..4).filter(|d| *d != src) {
            spawn_udp_on(
                &mut tb.sim,
                src,
                UdpConfig {
                    ingress_port: EXIT_PORT,
                    fields: vec![
                        ("ethernet".into(), "ether_type".into(), 0x0800),
                        ("ipv4".into(), "src_addr".into(), u128::from(leaf_host(src))),
                        ("ipv4".into(), "dst_addr".into(), u128::from(leaf_host(dst))),
                    ],
                    payload_bytes: 1_250,
                    rate_bps: 1_000_000_000,
                    start_ns: (src * 4 + dst) as u64 * 700,
                    stop_ns: None,
                },
            );
        }
    }
    tb.sim.run_until(2_000_000);

    let stats = tb.sim.par_stats();
    assert_eq!(stats.workers, workers);
    // Every dispatched event is followed by one drain, and the horizon
    // adds a last one: drains − 1 events.
    let events = stats.drains - 1;
    assert!(events > 50_000, "the slice did real work: {stats:?}");
    assert!(stats.work_units > 30_000, "packets were served: {stats:?}");
    assert!(
        stats.switch_visits as f64 <= 1.5 * events as f64,
        "{} switch visits for {events} events",
        stats.switch_visits
    );
    assert_eq!(stats.zero_serve_pumps, 0, "{stats:?}");
    (per_switch_fingerprints(&mut tb.sim), stats)
}

#[test]
fn the_serial_drain_visits_switches_only_when_they_are_due() {
    let (_, stats) = readiness_slice(1);
    assert_eq!(stats.critical_units, stats.work_units, "{stats:?}");
}

/// `set_workers(2)` sets the shard count `ParStats` models and nothing
/// else: the same exits, visits and work, and the modelled makespan the
/// epoch-barrier pool reported on this slice before it was deleted
/// (20 953 of 38 798 work units, speedup 1.8516680188994417).
#[test]
fn a_modelled_shard_count_changes_nothing_the_drain_does() {
    let (serial_exits, serial) = readiness_slice(1);
    let (exits, stats) = readiness_slice(2);
    assert_eq!(exits, serial_exits);
    assert_eq!(
        (stats.drains, stats.switch_visits, stats.work_units),
        (serial.drains, serial.switch_visits, serial.work_units)
    );
    assert_eq!((stats.work_units, stats.critical_units), (38_798, 20_953));
    assert_eq!(stats.speedup(), 1.851_668_018_899_441_7);
}

/// A tiny relay program for the permutation property: count arrivals per
/// ingress port and forward everything east (port `HOST_PORTS + 1`).
const RELAY_P4R: &str = r#"
header_type h_t { fields { a : 32; } }
header h_t h;
register seen { width : 64; instance_count : 8; }
malleable value knob { width : 32; init : 0; }
action fwd() {
    count(seen, intr.ingress_port);
    modify_field(intr.egress_spec, 5);
}
table t { actions { fwd; } default_action : fwd(); }
reaction watch(reg seen[0:7]) { ${knob} = seen[0]; }
control ingress { apply(t); }
"#;

/// An `n`-switch line of [`RELAY_P4R`] whose agents drive their switches
/// by `mode`.
fn relay_line(n: usize, mode: DriverMode) -> Fabric {
    Fabric::with_driver_mode(
        &vec![RELAY_P4R; n],
        Topology::line(n),
        SwitchConfig::default(),
        CostModel::default(),
        mode,
    )
    .expect("relay fabric")
}

/// Run a line fabric where packet injections at *equal timestamps* on
/// distinct switches are inserted into the event queue in `order`.
fn permuted_run(order: &[usize], rounds: u64, mode: DriverMode) -> Vec<String> {
    let mut fab = relay_line(3, mode);
    for agent in &fab.agents {
        agent
            .borrow_mut()
            .register_all_interpreted()
            .expect("watch registered");
    }
    fab.start_agents(100_000);
    // `rounds` waves: at each time t, one packet into every switch — the
    // insertion order of the same-time events is the permutation under
    // test. Switch `i`'s packet carries `h.a = t ^ i` so payloads are
    // position-dependent.
    for r in 0..rounds {
        let t = 1_000 + r * 10_000;
        for &i in order {
            fab.sim.schedule(t, move |s| {
                s.switch_at(i)
                    .borrow_mut()
                    .inject(&PacketDesc::new(0).field("h", "a", u128::from(t ^ i as u64)));
            });
        }
    }
    fab.sim.run_until(1_000 + rounds * 10_000 + 500_000);
    per_switch_fingerprints(&mut fab.sim)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn same_time_insertions_on_distinct_switches_commute(
        seed in 0u64..1_000,
    ) {
        // Deterministic Fisher–Yates over the 3 switches from the seed.
        let mut order = [0usize, 1, 2];
        let mut state = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        for mode in driver_modes() {
            let baseline = permuted_run(&[0, 1, 2], 6, mode);
            let permuted = permuted_run(&order, 6, mode);
            prop_assert_eq!(
                baseline,
                permuted,
                "insertion order {:?} changed a per-switch fingerprint under {:?}",
                order,
                mode
            );
        }
    }
}

#[test]
fn relay_loop_runs_at_every_switch_count() {
    for n in 1..=4 {
        for mode in driver_modes() {
            let mut fab = relay_line(n, mode);
            for agent in &fab.agents {
                agent
                    .borrow_mut()
                    .register_all_interpreted()
                    .expect("watch registered");
            }
            fab.start_agents(50_000);
            for i in 0..n {
                fab.sim.schedule(1_000, move |s| {
                    s.switch_at(i)
                        .borrow_mut()
                        .inject(&PacketDesc::new(0).field("h", "a", 7));
                });
            }
            fab.sim.run_until(300_000);
            assert_eq!(fab.num_switches(), n);
            // Every switch saw its packet and its agent measured it.
            for i in 0..n {
                let knob = fab.agents[i].borrow().slot("knob");
                assert_eq!(knob, Some(1), "switch {i} of {n}, {mode:?}");
            }
        }
    }
}

#[test]
fn switch_labels_appear_only_when_multiple_switches_exist() {
    // A single-switch testbed must stay byte-identical to the pre-fabric
    // telemetry goldens, so no switch-scoped metric may be emitted.
    for mode in driver_modes() {
        let single = testbed(RELAY_P4R, 1, mode).expect("program");
        single
            .sim
            .switch()
            .borrow_mut()
            .inject(&PacketDesc::new(0).field("h", "a", 7).payload(64));
        let snap = single.telemetry_snapshot();
        assert!(snap.contains("switch.rx"), "{snap}");
        assert!(
            !snap.contains("sw0."),
            "single-switch run leaked switch labels: {snap}"
        );

        // A 2-switch fabric attributes the same traffic per switch.
        let fab = relay_line(2, mode);
        for i in 0..2 {
            fab.sim
                .switch_at(i)
                .borrow_mut()
                .inject(&PacketDesc::new(0).field("h", "a", 7).payload(64));
        }
        let snap = fab.telemetry_snapshot();
        assert!(snap.contains("sw0.switch.rx"), "{snap}");
        assert!(snap.contains("sw1.switch.rx"), "{snap}");
    }
}
