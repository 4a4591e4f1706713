//! Fabric experiments: the paper's use cases running on a *network* of
//! Mantis switches instead of a single box.
//!
//! Two scenarios, both on a [`netsim::Topology::leaf_spine`] fabric where
//! every switch runs its own [`MantisAgent`]:
//!
//! * **Failover (§5, §8.3.2 end-to-end):** each leaf runs
//!   [`FAILOVER_P4R`] with the gray-failure detector watching its spine
//!   uplinks; spines run [`SPINE_P4R`] relaying heartbeats and routing
//!   data by destination prefix. A `mantis-faults` link flap downs a real
//!   inter-switch wire (both endpoints), the affected leaf's reaction
//!   detects the heartbeat stall and reroutes onto the alternate spine,
//!   and end-to-end delivery resumes — convergence and goodput are
//!   measured at the destination leaf's host port, after a multi-hop path.
//! * **ECMP (§8.3.3 end-to-end):** the sending leaf hashes flows across
//!   its spine uplinks ([`ECMP_P4R`]); the per-spine split and the
//!   delivered count at the far leaf measure the balance of the fabric.
//!
//! Addressing convention: leaf `i` owns subnet `10.0.i.0/24` behind its
//! host port 0; hosts inject and exit the fabric there.

use crate::failover::{FailureEvent, GrayFailureDetector, Topology as RouteTopology};
use crate::programs::{ECMP_P4R, FAILOVER_P4R, SPINE_P4R};
use mantis_agent::{schedule_fabric_agents, AgentError, CostModel, LogicalHandle, MantisAgent};
use mantis_faults::FaultPlan;
use netsim::{
    schedule_link_flaps, spawn_heartbeats_on, spawn_udp_on, HeartbeatConfig, Simulator, Topology,
    UdpConfig, UdpState, HOST_PORTS,
};
use p4_ast::Value;
use p4r_compiler::entry::LogicalKey;
use p4r_compiler::{compile_source, CompilerOptions};
use rmt_sim::{Clock, Nanos, PortId, SharedSwitch, Switch, SwitchConfig};
use std::cell::RefCell;
use std::rc::Rc;

/// The host port where a leaf's subnet attaches (packets to the local
/// subnet exit the fabric here).
pub const EXIT_PORT: PortId = 0;

/// Leaf `i` owns `10.0.i.0/24`.
pub fn leaf_subnet(leaf: usize) -> u32 {
    0x0a00_0000 | ((leaf as u32) << 8)
}

/// First host address in leaf `i`'s subnet.
pub fn leaf_host(leaf: usize) -> u32 {
    leaf_subnet(leaf) | 1
}

/// The routed view leaf `leaf` has of the fabric: one neighbor per spine
/// uplink, one destination prefix per remote leaf. Primary spine for the
/// `d`-th remote prefix is `d % spines` (backup `d + 1`), so every
/// leaf-to-leaf path has a distinct alternate to fail over to.
pub fn leaf_route_topology(leaf: usize, leaves: usize, spines: usize) -> RouteTopology {
    let neighbor_ports: Vec<PortId> = (0..spines).map(|j| HOST_PORTS + j as PortId).collect();
    let dests: Vec<(u32, u16)> = (0..leaves)
        .filter(|k| *k != leaf)
        .map(|k| (leaf_subnet(k), 24))
        .collect();
    let mut costs = vec![vec![8u32; dests.len()]; spines];
    for (n, row) in costs.iter_mut().enumerate() {
        for (d, cost) in row.iter_mut().enumerate() {
            *cost = if n == d % spines {
                1
            } else if n == (d + 1) % spines {
                3
            } else {
                8
            };
        }
    }
    RouteTopology {
        neighbor_ports,
        dests,
        costs,
    }
}

/// A leaf–spine fabric wired for the failover experiment: `leaves`
/// [`FAILOVER_P4R`] switches (each with a native [`GrayFailureDetector`]
/// over its uplinks) and `spines` [`SPINE_P4R`] relays, plus one
/// heartbeat generator per (spine, leaf) pair.
pub struct FabricTestbed {
    pub sim: Simulator,
    /// All agents, fabric index order (leaves first, then spines).
    pub agents: Vec<Rc<RefCell<MantisAgent>>>,
    pub leaves: usize,
    pub spines: usize,
    /// Per-leaf failure-event logs (leaf index order).
    pub events: Vec<Rc<RefCell<Vec<FailureEvent>>>>,
    /// Heartbeat period the fabric was built with (needed to rebuild a
    /// crashed leaf's detector).
    pub ts_ns: Nanos,
    /// Delivery expectation the fabric was built with.
    pub eta: f64,
}

/// Install leaf `leaf`'s initial routes (primary spine per remote
/// prefix plus the local-subnet exit) and return the remote-prefix
/// route handles in destination order — the handles the gray-failure
/// detector repoints on failover. Logical handles are deterministic, so
/// a crash-restarted agent gets the same ones back.
pub fn install_leaf_routes(
    agent: &mut MantisAgent,
    leaf: usize,
    leaves: usize,
    spines: usize,
) -> Result<Vec<LogicalHandle>, AgentError> {
    let topo = leaf_route_topology(leaf, leaves, spines);
    let routes = topo.best_routes(&vec![true; spines]);
    let handles = Rc::new(RefCell::new(Vec::new()));
    let out = handles.clone();
    let local = leaf_subnet(leaf);
    agent.user_init(move |ctx| {
        for (d, (addr, plen)) in topo.dests.iter().enumerate() {
            let n = routes[d].expect("all spines alive initially");
            let port = topo.neighbor_ports[n];
            let h = ctx.table_add(
                "route",
                vec![LogicalKey::Lpm {
                    value: Value::new(u128::from(*addr), 32),
                    prefix_len: *plen,
                }],
                0,
                "route_to",
                vec![Value::new(u128::from(port), 9)],
            )?;
            handles.borrow_mut().push(h);
        }
        // The local subnet exits the fabric at the host port.
        ctx.table_add(
            "route",
            vec![LogicalKey::Lpm {
                value: Value::new(u128::from(local), 32),
                prefix_len: 24,
            }],
            0,
            "route_to",
            vec![Value::new(u128::from(EXIT_PORT), 9)],
        )?;
        Ok(())
    })?;
    let hs = out.borrow().clone();
    Ok(hs)
}

/// Install a spine's heartbeat and data routes: one downlink entry per
/// leaf in each of `hb_route` and `route`.
pub fn install_spine_routes(agent: &mut MantisAgent, leaves: usize) -> Result<(), AgentError> {
    agent.user_init(move |ctx| {
        for i in 0..leaves {
            let down = u128::from(HOST_PORTS + i as PortId);
            // Heartbeats bound for leaf i (hb.origin = i) relay to
            // its downlink; so does its data prefix.
            ctx.table_add(
                "hb_route",
                vec![LogicalKey::Exact(Value::new(i as u128, 16))],
                0,
                "hb_to",
                vec![Value::new(down, 9)],
            )?;
            ctx.table_add(
                "route",
                vec![LogicalKey::Lpm {
                    value: Value::new(u128::from(leaf_subnet(i)), 32),
                    prefix_len: 24,
                }],
                0,
                "route_to",
                vec![Value::new(down, 9)],
            )?;
        }
        Ok(())
    })
}

/// Model a crash-restart of fabric agent `index` (leaf or spine): the
/// restarted control process runs under `plan` (typically
/// [`mantis_faults::chaos::ChaosPlan::restart_plan`]'s output; `None`
/// clears faults), reads device state back and repairs any torn apply
/// ([`MantisAgent::reconcile`]), re-installs its routes, and registers
/// its reaction afresh — a new gray-failure detector appending to the same
/// event log on a leaf, the interpreted relay watcher on a spine (the
/// dead process's registrations died with it).
/// The agent object is repaired in place, so paced dialogue loops
/// already scheduled against its `Rc` keep driving the revived agent.
pub fn restart_fabric_agent(
    tb: &FabricTestbed,
    index: usize,
    plan: Option<FaultPlan>,
) -> Result<(), AgentError> {
    let mut agent = tb.agents[index].borrow_mut();
    agent.set_fault_plan(plan.unwrap_or_default());
    agent.reconcile()?;
    if index < tb.leaves {
        let handles = install_leaf_routes(&mut agent, index, tb.leaves, tb.spines)?;
        let mut det = GrayFailureDetector::new(
            leaf_route_topology(index, tb.leaves, tb.spines),
            tb.ts_ns,
            tb.eta,
        );
        det.events = tb.events[index].clone();
        det.set_route_handles(handles);
        agent.register_native("detect_failures", Box::new(det))?;
    } else {
        install_spine_routes(&mut agent, tb.leaves)?;
        agent.register_all_interpreted()?;
    }
    Ok(())
}

/// Knobs for [`build_failover_fabric_with`] beyond the topology shape.
#[derive(Clone, Debug, Default)]
pub struct FabricOptions {
    /// Per-switch hardware configuration. The fabric's active ports all
    /// live in pipe 0 even at `num_pipes > 1` (ports partition
    /// contiguously), so raising the pipe count leaves traffic behavior
    /// unchanged while making the agents' per-pipe apply path — and its
    /// torn-crash surface — live.
    pub switch: SwitchConfig,
    /// Stop the heartbeat generators at this virtual time (`None` = run
    /// forever). Used by workloads that must fully quiesce.
    pub hb_stop_ns: Option<Nanos>,
}

/// Build the failover fabric. `ts_ns` is the heartbeat period `T_s`
/// (1 µs in the paper), `eta` the delivery expectation.
///
/// # Panics
/// Panics unless `2 ≤ leaves ≤ 4` and `2 ≤ spines ≤ 4`: uplinks must fit
/// the `hb_count[0:7]` reaction window and downlinks the host-port base.
pub fn build_failover_fabric(
    leaves: usize,
    spines: usize,
    ts_ns: Nanos,
    eta: f64,
) -> FabricTestbed {
    build_failover_fabric_with(leaves, spines, ts_ns, eta, &FabricOptions::default())
}

/// [`build_failover_fabric`] with explicit [`FabricOptions`].
pub fn build_failover_fabric_with(
    leaves: usize,
    spines: usize,
    ts_ns: Nanos,
    eta: f64,
    opts: &FabricOptions,
) -> FabricTestbed {
    assert!(
        (2..=HOST_PORTS as usize).contains(&leaves),
        "leaves must be in 2..=4"
    );
    assert!(
        (2..=HOST_PORTS as usize).contains(&spines),
        "spines must be in 2..=4"
    );
    let leaf_compiled =
        compile_source(FAILOVER_P4R, &CompilerOptions::default()).expect("FAILOVER_P4R compiles");
    let spine_compiled =
        compile_source(SPINE_P4R, &CompilerOptions::default()).expect("SPINE_P4R compiles");
    let clock = Clock::new();
    let mut switches = Vec::with_capacity(leaves + spines);
    let mut agents = Vec::with_capacity(leaves + spines);
    let mut events = Vec::with_capacity(leaves);

    for i in 0..leaves {
        let spec = rmt_sim::load(&leaf_compiled.p4).expect("leaf spec loads");
        let switch = SharedSwitch::new(Switch::new(spec, opts.switch.clone(), clock.clone()));
        switch.borrow_mut().set_fabric_index(Some(i as u16));
        let mut agent = MantisAgent::new(switch.clone(), &leaf_compiled, CostModel::default());
        agent.set_fabric_index(Some(i as u16));
        agent.prologue().expect("leaf prologue");

        let route_topo = leaf_route_topology(i, leaves, spines);
        let mut det = GrayFailureDetector::new(route_topo.clone(), ts_ns, eta);
        events.push(det.events.clone());
        let handles =
            install_leaf_routes(&mut agent, i, leaves, spines).expect("leaf routes installed");
        det.set_route_handles(handles);
        agent
            .register_native("detect_failures", Box::new(det))
            .expect("leaf reaction registered");
        switches.push(switch);
        agents.push(Rc::new(RefCell::new(agent)));
    }

    for j in 0..spines {
        let fab = (leaves + j) as u16;
        let spec = rmt_sim::load(&spine_compiled.p4).expect("spine spec loads");
        let switch = SharedSwitch::new(Switch::new(spec, opts.switch.clone(), clock.clone()));
        switch.borrow_mut().set_fabric_index(Some(fab));
        let mut agent = MantisAgent::new(switch.clone(), &spine_compiled, CostModel::default());
        agent.set_fabric_index(Some(fab));
        agent.prologue().expect("spine prologue");
        install_spine_routes(&mut agent, leaves).expect("spine routes installed");
        agent
            .register_all_interpreted()
            .expect("spine reaction registered");
        switches.push(switch);
        agents.push(Rc::new(RefCell::new(agent)));
    }

    let mut sim = Simulator::fabric(switches, Topology::leaf_spine(leaves, spines));

    // One heartbeat stream per (spine, leaf) pair, originated at the
    // spine's host port: `hb.origin` names the destination leaf, the
    // spine relays it down the leaf's link, and the leaf counts it per
    // ingress port — which identifies the spine (and hence the wire).
    for j in 0..spines {
        for i in 0..leaves {
            spawn_heartbeats_on(
                &mut sim,
                leaves + j,
                HeartbeatConfig {
                    port: 0,
                    fields: vec![
                        ("ethernet".into(), "ether_type".into(), 0x88b5),
                        ("hb".into(), "seq".into(), j as u128),
                        ("hb".into(), "origin".into(), i as u128),
                    ],
                    interval_ns: ts_ns,
                    start_ns: 0,
                    stop_ns: opts.hb_stop_ns,
                },
            );
        }
    }

    FabricTestbed {
        sim,
        agents,
        leaves,
        spines,
        events,
        ts_ns,
        eta,
    }
}

/// One fabric failover trial: down the wire between leaf 0 and spine
/// `fail_spine` at `fail_at_ns`, measure convergence and end-to-end
/// delivery of a leaf-0 → leaf-1 flow.
#[derive(Clone, Copy, Debug)]
pub struct FabricFailoverTrial {
    pub leaves: usize,
    pub spines: usize,
    /// Dialogue pacing `T_d` for every agent in the fabric.
    pub td_ns: Nanos,
    pub eta: f64,
    /// Spine whose leaf-0 wire fails (must be the primary for leaf 1's
    /// prefix, i.e. spine 0, for the flow to be affected).
    pub fail_spine: usize,
    pub fail_at_ns: Nanos,
    /// Extra virtual time after detection, to observe resumed delivery.
    pub settle_ns: Nanos,
    /// Data rate of the measured leaf-0 → leaf-1 flow.
    pub rate_bps: u64,
}

impl Default for FabricFailoverTrial {
    fn default() -> Self {
        FabricFailoverTrial {
            leaves: 2,
            spines: 2,
            td_ns: 50_000,
            eta: 0.2,
            fail_spine: 0,
            fail_at_ns: 1_000_000,
            settle_ns: 1_000_000,
            rate_bps: 1_000_000_000,
        }
    }
}

/// Measured outcome of a [`FabricFailoverTrial`].
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct FabricFailoverOutcome {
    pub leaves: usize,
    pub spines: usize,
    /// Wire failure → leaf 0's reroute commit.
    pub convergence_ns: Nanos,
    /// Routes moved by the reroute.
    pub routes_changed: usize,
    /// End-to-end deliveries at leaf 1's host port before the failure.
    pub delivered_before: u64,
    /// Deliveries in the outage window (failure → reroute commit):
    /// only packets already in flight past the failed wire.
    pub delivered_outage: u64,
    /// Deliveries after the reroute, over the alternate spine.
    pub delivered_after: u64,
    /// Wire failure → first post-reroute delivery (end-to-end resume).
    pub resume_ns: Option<Nanos>,
}

/// Run one failover trial on a fresh fabric.
///
/// # Panics
/// Panics if the failure is never detected within the deadline.
pub fn run_fabric_failover(trial: &FabricFailoverTrial) -> FabricFailoverOutcome {
    let mut tb = build_failover_fabric(trial.leaves, trial.spines, 1_000, trial.eta);
    schedule_fabric_agents(&mut tb.sim, &tb.agents, trial.td_ns, 0);

    // The measured flow: a host behind leaf 0 to a host behind leaf 1.
    spawn_udp_on(
        &mut tb.sim,
        0,
        UdpConfig {
            ingress_port: EXIT_PORT,
            fields: vec![
                ("ethernet".into(), "ether_type".into(), 0x0800),
                ("ipv4".into(), "src_addr".into(), u128::from(leaf_host(0))),
                ("ipv4".into(), "dst_addr".into(), u128::from(leaf_host(1))),
                ("ipv4".into(), "protocol".into(), 17),
            ],
            payload_bytes: 1_250,
            rate_bps: trial.rate_bps,
            start_ns: 0,
            stop_ns: None,
        },
    );

    // Down the leaf-0 ↔ fail_spine wire; the fault lives on the wire, so
    // both endpoints go down and heartbeats die in both directions.
    let fail_port = HOST_PORTS as u32 + trial.fail_spine as u32;
    let plan = FaultPlan::new().flap_on(0, fail_port, trial.fail_at_ns, Nanos::MAX);
    schedule_link_flaps(&mut tb.sim, &plan);

    tb.sim.run_until(trial.fail_at_ns);
    let deadline = trial.fail_at_ns + 100 * trial.td_ns + 1_000_000;
    let mut step = trial.fail_at_ns;
    while tb.events[0].borrow().is_empty() && step < deadline {
        step += trial.td_ns.max(10_000);
        tb.sim.run_until(step);
    }
    let ev = tb.events[0]
        .borrow()
        .first()
        .copied()
        .expect("failure must be detected");
    tb.sim.run_until(step + trial.settle_ns);

    let mut delivered_before = 0;
    let mut delivered_outage = 0;
    let mut delivered_after = 0;
    let mut resume_ns = None;
    for (sw, pkt) in tb.sim.take_tx_tagged() {
        if sw != 1 || pkt.port != EXIT_PORT {
            continue;
        }
        if pkt.time < trial.fail_at_ns {
            delivered_before += 1;
        } else if pkt.time <= ev.detected_ns {
            delivered_outage += 1;
        } else {
            if resume_ns.is_none() {
                resume_ns = Some(pkt.time - trial.fail_at_ns);
            }
            delivered_after += 1;
        }
    }
    FabricFailoverOutcome {
        leaves: trial.leaves,
        spines: trial.spines,
        convergence_ns: ev.detected_ns.saturating_sub(trial.fail_at_ns),
        routes_changed: ev.routes_changed,
        delivered_before,
        delivered_outage,
        delivered_after,
        resume_ns,
    }
}

/// Measured outcome of the end-to-end ECMP scenario.
#[derive(Clone, Debug, serde::Serialize)]
pub struct FabricEcmpOutcome {
    pub spines: usize,
    /// Packets each spine relayed toward the destination leaf.
    pub per_spine_tx: Vec<u64>,
    /// Packets the sources injected into the fabric.
    pub sent: u64,
    /// End-to-end deliveries at the destination leaf's host port.
    pub delivered: u64,
    /// Load imbalance across spines (1.0 = perfectly even).
    pub max_over_min: f64,
}

/// The ECMP fabric's leaves and spines (`ECMP_P4R`'s `pick_path` spreads
/// over 4 consecutive ports).
const ECMP_FABRIC: (usize, usize) = (2, 4);

/// The fabric of [`run_fabric_ecmp`], its `flows` sources spawned and
/// nothing run yet: leaf 0 runs [`ECMP_P4R`] hashing every flow across
/// its 4 spine uplinks; spines relay to leaf 1, which runs
/// [`FAILOVER_P4R`] and delivers at its host port. Flow diversity comes
/// from the source addresses.
pub fn build_ecmp_fabric(flows: usize) -> (Simulator, Vec<Rc<RefCell<UdpState>>>) {
    let (leaves, spines) = ECMP_FABRIC;
    let ecmp_compiled =
        compile_source(ECMP_P4R, &CompilerOptions::default()).expect("ECMP_P4R compiles");
    let leaf_compiled =
        compile_source(FAILOVER_P4R, &CompilerOptions::default()).expect("FAILOVER_P4R compiles");
    let spine_compiled =
        compile_source(SPINE_P4R, &CompilerOptions::default()).expect("SPINE_P4R compiles");
    let clock = Clock::new();
    let mut switches = Vec::with_capacity(leaves + spines);

    // Leaf 0: the ECMP sender (default action already hashes onto the
    // uplinks — ports 4..8 — so no routes are needed).
    {
        let spec = rmt_sim::load(&ecmp_compiled.p4).expect("ecmp spec loads");
        let switch = SharedSwitch::new(Switch::new(spec, SwitchConfig::default(), clock.clone()));
        switch.borrow_mut().set_fabric_index(Some(0));
        let mut agent = MantisAgent::new(switch.clone(), &ecmp_compiled, CostModel::default());
        agent.prologue().expect("ecmp prologue");
        switches.push(switch);
    }
    // Leaf 1: the receiver; its local subnet exits at the host port.
    {
        let spec = rmt_sim::load(&leaf_compiled.p4).expect("leaf spec loads");
        let switch = SharedSwitch::new(Switch::new(spec, SwitchConfig::default(), clock.clone()));
        switch.borrow_mut().set_fabric_index(Some(1));
        let mut agent = MantisAgent::new(switch.clone(), &leaf_compiled, CostModel::default());
        agent.prologue().expect("leaf prologue");
        agent
            .user_init(move |ctx| {
                ctx.table_add(
                    "route",
                    vec![LogicalKey::Lpm {
                        value: Value::new(u128::from(leaf_subnet(1)), 32),
                        prefix_len: 24,
                    }],
                    0,
                    "route_to",
                    vec![Value::new(u128::from(EXIT_PORT), 9)],
                )?;
                Ok(())
            })
            .expect("leaf route installed");
        switches.push(switch);
    }
    // Spines: route leaf 1's prefix down its link.
    for j in 0..spines {
        let spec = rmt_sim::load(&spine_compiled.p4).expect("spine spec loads");
        let switch = SharedSwitch::new(Switch::new(spec, SwitchConfig::default(), clock.clone()));
        switch
            .borrow_mut()
            .set_fabric_index(Some((leaves + j) as u16));
        let mut agent = MantisAgent::new(switch.clone(), &spine_compiled, CostModel::default());
        agent.prologue().expect("spine prologue");
        agent
            .user_init(move |ctx| {
                ctx.table_add(
                    "route",
                    vec![LogicalKey::Lpm {
                        value: Value::new(u128::from(leaf_subnet(1)), 32),
                        prefix_len: 24,
                    }],
                    0,
                    "route_to",
                    vec![Value::new(u128::from(HOST_PORTS + 1), 9)],
                )?;
                Ok(())
            })
            .expect("spine route installed");
        switches.push(switch);
    }

    let mut sim = Simulator::fabric(switches, Topology::leaf_spine(leaves, spines));

    // Hash-diverse flows: distinct source addresses, one destination
    // subnet (the polarization experiment's inverse — here we *want*
    // the spread, measured end to end).
    let mut states: Vec<Rc<RefCell<UdpState>>> = Vec::with_capacity(flows);
    let per_flow = 4_000_000_000 / flows.max(1) as u64;
    for i in 0..flows as u64 {
        states.push(spawn_udp_on(
            &mut sim,
            0,
            UdpConfig {
                ingress_port: EXIT_PORT,
                fields: vec![
                    ("ethernet".into(), "ether_type".into(), 0x0800),
                    (
                        "ipv4".into(),
                        "src_addr".into(),
                        u128::from(i.wrapping_mul(2_654_435_761) & 0xffff_ffff),
                    ),
                    (
                        "ipv4".into(),
                        "dst_addr".into(),
                        u128::from(leaf_subnet(1) | (1 + (i as u32 % 200))),
                    ),
                    ("ipv4".into(), "protocol".into(), 17),
                    ("l4".into(), "sport".into(), u128::from(i * 7 + 1)),
                    ("l4".into(), "dport".into(), u128::from(i * 13 + 2)),
                ],
                payload_bytes: 1_000,
                rate_bps: per_flow,
                start_ns: i * 997, // desynchronized
                stop_ns: None,
            },
        ));
    }

    (sim, states)
}

/// End-to-end ECMP across the spines of [`build_ecmp_fabric`]: the spine
/// split and the delivered count are measured after the multi-hop path.
pub fn run_fabric_ecmp(flows: usize, duration_ns: Nanos) -> FabricEcmpOutcome {
    let (leaves, spines) = ECMP_FABRIC;
    let (mut sim, states) = build_ecmp_fabric(flows);
    sim.run_until(duration_ns);

    let per_spine_tx: Vec<u64> = (0..spines).map(|j| sim.tx_count_on(leaves + j)).collect();
    let delivered = sim
        .take_tx_tagged()
        .iter()
        .filter(|(sw, pkt)| *sw == 1 && pkt.port == EXIT_PORT)
        .count() as u64;
    let sent = states.iter().map(|s| s.borrow().accepted_pkts).sum();
    let max = per_spine_tx.iter().copied().max().unwrap_or(0);
    let min = per_spine_tx.iter().copied().min().unwrap_or(0);
    FabricEcmpOutcome {
        spines,
        per_spine_tx,
        sent,
        delivered,
        max_over_min: if min > 0 {
            max as f64 / min as f64
        } else {
            f64::INFINITY
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_topology_prefers_distinct_primaries() {
        let t = leaf_route_topology(0, 4, 2);
        assert_eq!(t.neighbor_ports, vec![4, 5]);
        assert_eq!(t.dests.len(), 3);
        let routes = t.best_routes(&[true, true]);
        assert_eq!(routes[0], Some(0));
        assert_eq!(routes[1], Some(1));
        // Spine 0 dead: everything shifts to spine 1.
        let routes = t.best_routes(&[false, true]);
        assert!(routes.iter().all(|r| *r == Some(1)));
    }

    #[test]
    fn failover_reroutes_around_a_downed_inter_switch_link() {
        let out = run_fabric_failover(&FabricFailoverTrial::default());
        // Detection within the paper's envelope (T_d = 50 µs, 2
        // consecutive windows + phase): well under 300 µs.
        assert!(
            out.convergence_ns >= 50_000 && out.convergence_ns <= 300_000,
            "convergence {} ns",
            out.convergence_ns
        );
        assert!(out.routes_changed >= 1, "no routes moved");
        // End-to-end delivery: flowing before, resumed after, over the
        // alternate spine.
        assert!(
            out.delivered_before > 50,
            "before: {}",
            out.delivered_before
        );
        assert!(out.delivered_after > 50, "after: {}", out.delivered_after);
        let resume = out.resume_ns.expect("delivery must resume");
        assert!(
            resume >= out.convergence_ns,
            "resume {} before convergence {}",
            resume,
            out.convergence_ns
        );
        // The outage is real: barely anything crosses the dead wire.
        assert!(
            out.delivered_outage < out.delivered_before / 4,
            "outage window leaked {} packets",
            out.delivered_outage
        );
    }

    #[test]
    fn only_the_affected_leaf_reacts() {
        let mut tb = build_failover_fabric(2, 2, 1_000, 0.2);
        schedule_fabric_agents(&mut tb.sim, &tb.agents, 50_000, 0);
        let plan = FaultPlan::new().flap_on(0, HOST_PORTS as u32, 1_000_000, Nanos::MAX);
        schedule_link_flaps(&mut tb.sim, &plan);
        tb.sim.run_until(2_000_000);
        assert!(
            !tb.events[0].borrow().is_empty(),
            "leaf 0 must detect its dead uplink"
        );
        // Leaf 1's wire to spine 0 is intact: no spurious detection.
        assert!(
            tb.events[1].borrow().is_empty(),
            "leaf 1 falsely detected: {:?}",
            tb.events[1].borrow()
        );
    }

    #[test]
    fn spine_agents_measure_relayed_traffic() {
        let mut tb = build_failover_fabric(2, 2, 1_000, 0.2);
        schedule_fabric_agents(&mut tb.sim, &tb.agents, 50_000, 0);
        tb.sim.run_until(500_000);
        // Heartbeats alone make the spines relay packets; their
        // interpreted reaction mirrors the count into ${relay_total}.
        for j in 0..2 {
            let total = tb.agents[2 + j].borrow().slot("relay_total");
            assert!(
                total.is_some_and(|t| t > 0),
                "spine {j} relay_total = {total:?}"
            );
        }
    }

    #[test]
    fn ecmp_spreads_across_all_spines_end_to_end() {
        let out = run_fabric_ecmp(64, 2_000_000);
        assert!(
            out.per_spine_tx.iter().all(|c| *c > 0),
            "some spine idle: {:?}",
            out.per_spine_tx
        );
        assert!(out.sent > 500, "sent only {}", out.sent);
        // Nearly everything survives the two-hop path (the tail is still
        // in flight at the horizon).
        assert!(
            out.delivered >= out.sent * 9 / 10,
            "delivered {} of {}",
            out.delivered,
            out.sent
        );
    }
}
