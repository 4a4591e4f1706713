//! Use case #2 (§8.3.2): route recomputation on gray failures.
//!
//! Every neighbor sends a heartbeat each `T_s` (1 µs in the paper and
//! here); the data plane counts heartbeats per port. The reaction compares
//! each port's count delta against the threshold `δ = ⌊η·T_d/T_s⌋` (where
//! `T_d` is the measured time since the last dialogue) and, after two
//! consecutive violations, marks the link failed, recomputes shortest
//! paths, and reinstalls affected routes into the malleable `route` table —
//! all within one serializable commit.

use crate::programs::FAILOVER_P4R;
use mantis_agent::{AgentError, CostModel, LogicalHandle, MantisAgent, ReactionCtx};
use netsim::{spawn_heartbeats, HeartbeatConfig, Simulator};
use p4_ast::Value;
use p4r_compiler::entry::LogicalKey;
use p4r_compiler::{compile_source, CompilerOptions};
use rmt_sim::{Clock, Nanos, PortId, SharedSwitch, Switch, SwitchConfig};
use std::cell::RefCell;
use std::rc::Rc;

/// A small routed topology around the monitored switch: each destination
/// prefix is reachable through any neighbor at some cost.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Switch ports that connect to heartbeat-sending neighbors.
    pub neighbor_ports: Vec<PortId>,
    /// Destination prefixes: `(address, prefix_len)`.
    pub dests: Vec<(u32, u16)>,
    /// `costs[n][d]`: path cost to dest `d` via neighbor `n`
    /// (`u32::MAX` = unreachable).
    pub costs: Vec<Vec<u32>>,
}

impl Topology {
    /// A 4-neighbor, 8-destination default where each destination's
    /// primary and backup differ.
    pub fn example() -> Self {
        let neighbor_ports = vec![4, 5, 6, 7];
        let dests: Vec<(u32, u16)> = (0..8).map(|d| (0x0a00_0000 + (d << 8), 24)).collect();
        // Primary = d % 4; backup = (d + 1) % 4 at a higher cost.
        let mut costs = vec![vec![10u32; dests.len()]; neighbor_ports.len()];
        for (n, row) in costs.iter_mut().enumerate() {
            for (d, cost) in row.iter_mut().enumerate() {
                *cost = if n == d % 4 {
                    1
                } else if n == (d + 1) % 4 {
                    3
                } else {
                    8
                };
            }
        }
        Topology {
            neighbor_ports,
            dests,
            costs,
        }
    }

    /// Best neighbor index per destination given link liveness.
    pub fn best_routes(&self, alive: &[bool]) -> Vec<Option<usize>> {
        self.dests
            .iter()
            .enumerate()
            .map(|(d, _)| {
                self.neighbor_ports
                    .iter()
                    .enumerate()
                    .filter(|(n, _)| alive.get(*n).copied().unwrap_or(false))
                    .min_by_key(|(n, _)| self.costs[*n][d])
                    .map(|(n, _)| n)
            })
            .collect()
    }
}

/// A detection/recomputation event.
#[derive(Clone, Copy, Debug)]
pub struct FailureEvent {
    /// Time the reaction staged the reroute (commit follows within the
    /// same dialogue iteration).
    pub detected_ns: Nanos,
    /// Neighbor index that failed.
    pub neighbor: usize,
    /// Number of routes moved.
    pub routes_changed: usize,
}

/// The native gray-failure detector + route recomputation reaction.
pub struct GrayFailureDetector {
    /// Heartbeat period `T_s`.
    pub ts_ns: Nanos,
    /// Delivery expectation `η ∈ [0, 1]`.
    pub eta: f64,
    /// Consecutive below-threshold windows required (paper: 2).
    pub consecutive: u32,
    pub topo: Topology,
    route_handles: Vec<LogicalHandle>,
    last_counts: Vec<u64>,
    below: Vec<u32>,
    alive: Vec<bool>,
    last_poll_ns: Option<Nanos>,
    pub events: Rc<RefCell<Vec<FailureEvent>>>,
}

impl GrayFailureDetector {
    pub fn new(topo: Topology, ts_ns: Nanos, eta: f64) -> Self {
        let n = topo.neighbor_ports.len();
        GrayFailureDetector {
            ts_ns,
            eta,
            consecutive: 2,
            topo,
            route_handles: Vec::new(),
            last_counts: vec![0; n],
            below: vec![0; n],
            alive: vec![true; n],
            last_poll_ns: None,
            events: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Record the logical handles of installed route entries (dest order).
    pub fn set_route_handles(&mut self, handles: Vec<LogicalHandle>) {
        self.route_handles = handles;
    }
}

impl mantis_agent::NativeReaction for GrayFailureDetector {
    fn react(&mut self, ctx: &mut ReactionCtx<'_>) -> Result<(), AgentError> {
        let now = ctx.now_ns();
        let Some(last) = self.last_poll_ns else {
            // First dialogue: baseline the counters.
            for (i, port) in self.topo.neighbor_ports.iter().enumerate() {
                self.last_counts[i] =
                    ctx.arg_index("hb_count", i128::from(*port)).unwrap_or(0) as u64;
            }
            self.last_poll_ns = Some(now);
            return Ok(());
        };
        let td = now.saturating_sub(last);
        self.last_poll_ns = Some(now);
        if td == 0 {
            return Ok(());
        }
        // δ = ⌊η · T_d / T_s⌋
        let delta_thresh = ((self.eta * td as f64) / self.ts_ns as f64).floor() as u64;

        let old_routes = self.topo.best_routes(&self.alive);
        let mut newly_failed = None;
        for (i, port) in self.topo.neighbor_ports.iter().enumerate() {
            let count = ctx.arg_index("hb_count", i128::from(*port)).unwrap_or(0) as u64;
            let delta = count.saturating_sub(self.last_counts[i]);
            self.last_counts[i] = count;
            if !self.alive[i] {
                continue;
            }
            if delta < delta_thresh {
                self.below[i] += 1;
            } else {
                self.below[i] = 0;
            }
            if self.below[i] >= self.consecutive {
                self.alive[i] = false;
                newly_failed = Some(i);
            }
        }
        if let Some(failed) = newly_failed {
            // Recompute and reinstall only the changed routes.
            let new_routes = self.topo.best_routes(&self.alive);
            let mut changed = 0;
            for (d, (old, new)) in old_routes.iter().zip(new_routes.iter()).enumerate() {
                if old == new {
                    continue;
                }
                let Some(handle) = self.route_handles.get(d).copied() else {
                    continue;
                };
                match new {
                    Some(n) => {
                        let port = self.topo.neighbor_ports[*n];
                        ctx.table_mod(
                            "route",
                            handle,
                            "route_to",
                            vec![Value::new(u128::from(port), 9)],
                        )?;
                    }
                    None => {
                        ctx.table_mod("route", handle, "unroutable", vec![])?;
                    }
                }
                changed += 1;
            }
            self.events.borrow_mut().push(FailureEvent {
                detected_ns: now,
                neighbor: failed,
                routes_changed: changed,
            });
        }
        Ok(())
    }
}

/// The wired UC2 testbed.
pub struct FailoverTestbed {
    pub sim: Simulator,
    pub agent: Rc<RefCell<MantisAgent>>,
    pub topo: Topology,
    pub events: Rc<RefCell<Vec<FailureEvent>>>,
}

/// Build the failover testbed: compile, install initial routes, start
/// heartbeat generators (`T_s = ts_ns`).
pub fn build_testbed(topo: Topology, ts_ns: Nanos, eta: f64) -> FailoverTestbed {
    let compiled =
        compile_source(FAILOVER_P4R, &CompilerOptions::default()).expect("FAILOVER_P4R compiles");
    let clock = Clock::new();
    let spec = rmt_sim::load(&compiled.p4).expect("loads");
    let switch = SharedSwitch::new(Switch::new(spec, SwitchConfig::default(), clock));
    let mut agent = MantisAgent::new(switch.clone(), &compiled, CostModel::default());
    agent.prologue().expect("prologue");

    let mut det = GrayFailureDetector::new(topo.clone(), ts_ns, eta);
    let events = det.events.clone();

    // Install primary routes and remember their handles.
    let routes = topo.best_routes(&vec![true; topo.neighbor_ports.len()]);
    let handles = Rc::new(RefCell::new(Vec::new()));
    {
        let topo = topo.clone();
        let handles = handles.clone();
        agent
            .user_init(move |ctx| {
                for (d, (addr, plen)) in topo.dests.iter().enumerate() {
                    let n = routes[d].expect("all reachable initially");
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
                Ok(())
            })
            .expect("routes installed");
    }
    det.set_route_handles(handles.borrow().clone());
    agent
        .register_native("detect_failures", Box::new(det))
        .expect("reaction registered");

    let mut sim = Simulator::new(switch);
    for port in &topo.neighbor_ports {
        spawn_heartbeats(
            &mut sim,
            HeartbeatConfig {
                port: *port,
                fields: vec![
                    ("ethernet".into(), "ether_type".into(), 0x88b5),
                    ("hb".into(), "seq".into(), 0),
                    ("hb".into(), "origin".into(), u128::from(*port)),
                ],
                interval_ns: ts_ns,
                start_ns: 0,
                stop_ns: None,
            },
        );
    }
    FailoverTestbed {
        sim,
        agent: Rc::new(RefCell::new(agent)),
        topo,
        events,
    }
}

pub use mantis_agent::sched::schedule_paced_agent;

/// One Fig. 16 trial: fail a link at `fail_at_ns`, return the reaction
/// time (failure → recomputed routes committed).
#[derive(Clone, Copy, Debug)]
pub struct FailoverTrial {
    pub td_ns: Nanos,
    pub eta: f64,
    pub fail_at_ns: Nanos,
    pub fail_neighbor: usize,
}

#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct FailoverOutcome {
    pub reaction_time_ns: Nanos,
    pub routes_changed: usize,
}

/// Run a single failover trial. `T_s` is fixed at 1 µs as in the paper.
pub fn run_trial(trial: &FailoverTrial) -> FailoverOutcome {
    let topo = Topology::example();
    let fail_port = topo.neighbor_ports[trial.fail_neighbor];
    let mut tb = build_testbed(topo, 1_000, trial.eta);
    schedule_paced_agent(&mut tb.sim, tb.agent.clone(), trial.td_ns, 0);
    let fail_at = trial.fail_at_ns;
    tb.sim.schedule(fail_at, move |s| {
        s.switch()
            .borrow_mut()
            .port_set_up(fail_port, false)
            .expect("port exists");
    });
    // Run until detection (bounded).
    let deadline = fail_at + 100 * trial.td_ns + 1_000_000;
    let mut step = fail_at;
    while tb.events.borrow().is_empty() && step < deadline {
        step += trial.td_ns.max(10_000);
        tb.sim.run_until(step);
    }
    let ev = tb
        .events
        .borrow()
        .first()
        .copied()
        .expect("failure must be detected");
    FailoverOutcome {
        reaction_time_ns: ev.detected_ns.saturating_sub(fail_at),
        routes_changed: ev.routes_changed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_sim::PacketDesc;

    #[test]
    fn best_routes_prefer_primary_then_backup() {
        let topo = Topology::example();
        let all = vec![true; 4];
        let routes = topo.best_routes(&all);
        assert_eq!(routes[0], Some(0));
        assert_eq!(routes[1], Some(1));
        // Fail neighbor 0: dest 0 and 4 shift to their backup (neighbor 1).
        let mut alive = all.clone();
        alive[0] = false;
        let routes = topo.best_routes(&alive);
        assert_eq!(routes[0], Some(1));
        assert_eq!(routes[4], Some(1));
        assert_eq!(routes[1], Some(1)); // unchanged
                                        // All dead: unroutable.
        let routes = topo.best_routes(&[false, false, false, false]);
        assert!(routes.iter().all(|r| r.is_none()));
    }

    #[test]
    fn detects_failure_and_reroutes_within_paper_bounds() {
        // T_d = 50 µs, η = 0.2 — the paper reports 100-200 µs end to end.
        let out = run_trial(&FailoverTrial {
            td_ns: 50_000,
            eta: 0.2,
            fail_at_ns: 1_000_000,
            fail_neighbor: 0,
        });
        assert!(
            out.reaction_time_ns >= 50_000 && out.reaction_time_ns <= 300_000,
            "reaction time {} ns",
            out.reaction_time_ns
        );
        // Neighbor 0 is primary for dests 0 and 4.
        assert_eq!(out.routes_changed, 2);
    }

    #[test]
    fn reaction_time_scales_with_td() {
        let mut times = Vec::new();
        for td in [25_000u64, 50_000, 100_000] {
            let out = run_trial(&FailoverTrial {
                td_ns: td,
                eta: 0.2,
                fail_at_ns: 1_000_000,
                fail_neighbor: 1,
            });
            times.push(out.reaction_time_ns);
        }
        assert!(
            times[0] < times[2],
            "Td=25µs ({}) should react faster than Td=100µs ({})",
            times[0],
            times[2]
        );
    }

    #[test]
    fn eta_has_low_impact() {
        // Fig. 16b: the impact of η is low for a hard failure.
        let mut times = Vec::new();
        for eta in [0.2, 0.5, 0.8] {
            let out = run_trial(&FailoverTrial {
                td_ns: 50_000,
                eta,
                fail_at_ns: 1_000_000,
                fail_neighbor: 2,
            });
            times.push(out.reaction_time_ns as f64);
        }
        let max = times.iter().cloned().fold(f64::MIN, f64::max);
        let min = times.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max / min < 2.0, "η impact too large: {times:?}");
    }

    #[test]
    fn failure_phase_creates_bounded_variance() {
        // Variance comes from where in the T_d window the failure lands.
        let mut times = Vec::new();
        for offset in [0u64, 10_000, 20_000, 30_000, 40_000] {
            let out = run_trial(&FailoverTrial {
                td_ns: 50_000,
                eta: 0.2,
                fail_at_ns: 1_000_000 + offset,
                fail_neighbor: 0,
            });
            times.push(out.reaction_time_ns);
        }
        let max = *times.iter().max().unwrap();
        let min = *times.iter().min().unwrap();
        assert!(max - min <= 2 * 50_000, "{times:?}");
        // All within the paper's 100-200 µs band (with slack).
        assert!(times.iter().all(|t| *t <= 300_000), "{times:?}");
    }

    #[test]
    fn traffic_follows_rerouted_paths() {
        let topo = Topology::example();
        let dest0 = topo.dests[0].0;
        let mut tb = build_testbed(topo, 1_000, 0.2);
        schedule_paced_agent(&mut tb.sim, tb.agent.clone(), 50_000, 0);
        tb.sim.run_until(500_000);

        let send = |tb: &mut FailoverTestbed| {
            tb.sim.switch().borrow_mut().inject(
                &PacketDesc::new(0)
                    .field("ethernet", "ether_type", 0x0800)
                    .field("ipv4", "dst_addr", u128::from(dest0))
                    .field("ipv4", "src_addr", 1)
                    .payload(100),
            );
        };
        // Before failure: routed via neighbor 0 (port 4).
        send(&mut tb);
        assert!(tb.sim.switch().borrow().queue_depth(4) > 0);

        // Fail port 4 and let the agent react.
        tb.sim.switch().borrow_mut().port_set_up(4, false).unwrap();
        tb.sim.run_for(400_000);
        assert!(!tb.events.borrow().is_empty(), "failure not detected");

        // After: routed via the backup (port 5).
        let q5_before = tb.sim.switch().borrow().queue_depth(5);
        send(&mut tb);
        assert!(tb.sim.switch().borrow().queue_depth(5) > q5_before);
    }

    #[test]
    fn interpreted_detection_body_sets_failed_port() {
        // The C-like reference body (detection only) runs in the
        // interpreter and flags the failed port via ${failed_port}.
        let topo = Topology::example();
        let compiled = compile_source(FAILOVER_P4R, &CompilerOptions::default()).unwrap();
        let clock = Clock::new();
        let spec = rmt_sim::load(&compiled.p4).unwrap();
        let switch = SharedSwitch::new(Switch::new(spec, SwitchConfig::default(), clock));
        let mut agent = MantisAgent::new(switch.clone(), &compiled, CostModel::default());
        agent.prologue().unwrap();
        agent.register_all_interpreted().unwrap();
        let agent = Rc::new(RefCell::new(agent));

        let mut sim = Simulator::new(switch);
        for port in &topo.neighbor_ports {
            spawn_heartbeats(
                &mut sim,
                HeartbeatConfig {
                    port: *port,
                    fields: vec![
                        ("ethernet".into(), "ether_type".into(), 0x88b5),
                        ("hb".into(), "seq".into(), 0),
                        ("hb".into(), "origin".into(), u128::from(*port)),
                    ],
                    interval_ns: 1_000,
                    start_ns: 0,
                    stop_ns: None,
                },
            );
        }
        schedule_paced_agent(&mut sim, agent.clone(), 50_000, 0);
        sim.run_until(500_000);
        assert_eq!(agent.borrow().slot("failed_port"), Some(65535));
        sim.switch().borrow_mut().port_set_up(5, false).unwrap();
        sim.run_for(500_000);
        assert_eq!(agent.borrow().slot("failed_port"), Some(5));
    }
}
