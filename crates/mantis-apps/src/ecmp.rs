//! Use case #3 (§8.3.3): hash polarization mitigation.
//!
//! The ECMP hash inputs are malleable fields (`hash_a`, `hash_b` in
//! [`crate::programs::ECMP_P4R`]). The reaction polls per-port egress
//! counters, computes the absolute deviation of the per-dialogue deltas
//! (mean-based; see `netsim::mean_abs_dev` for why not the median
//! variant), and — when the relative imbalance persists — shifts the hash
//! inputs to an alternative header combination.

use crate::programs::ECMP_P4R;
use mantis_agent::{AgentError, CostModel, MantisAgent, ReactionCtx};
use netsim::{mean, mean_abs_dev, Simulator, UdpConfig};
use p4r_compiler::{compile_source, CompilerOptions};
use rmt_sim::{Clock, Nanos, SharedSwitch, Switch, SwitchConfig};
use std::cell::RefCell;
use std::rc::Rc;

/// The hash-input configurations the reaction cycles through:
/// `(hash_a alt, hash_b alt)` — 0 = IP addresses, 1 = L4 ports.
pub const CONFIGS: [(usize, usize); 4] = [(0, 0), (1, 1), (1, 0), (0, 1)];

/// Native rebalancing reaction.
pub struct Rebalancer {
    /// Shift when MAD/mean exceeds this for `persist_required` dialogues.
    pub mad_threshold: f64,
    pub persist_required: u32,
    /// Minimum packets per window to consider (noise floor).
    pub min_window_pkts: u64,
    last: [u64; 4],
    persist: u32,
    config: usize,
    primed: bool,
    /// `(time, relative MAD)` per dialogue.
    pub imbalance: Rc<RefCell<Vec<(Nanos, f64)>>>,
    /// `(time, new config index)` per shift.
    pub shifts: Rc<RefCell<Vec<(Nanos, usize)>>>,
}

impl Rebalancer {
    pub fn new() -> Self {
        Rebalancer {
            mad_threshold: 0.25,
            persist_required: 3,
            min_window_pkts: 64,
            last: [0; 4],
            persist: 0,
            config: 0,
            primed: false,
            imbalance: Rc::new(RefCell::new(Vec::new())),
            shifts: Rc::new(RefCell::new(Vec::new())),
        }
    }
}

impl Default for Rebalancer {
    fn default() -> Self {
        Rebalancer::new()
    }
}

impl mantis_agent::NativeReaction for Rebalancer {
    fn react(&mut self, ctx: &mut ReactionCtx<'_>) -> Result<(), AgentError> {
        let mut deltas = [0f64; 4];
        let mut counts = [0u64; 4];
        for (i, c) in counts.iter_mut().enumerate() {
            *c = ctx.arg_index("egr_counts", (i + 4) as i128).unwrap_or(0) as u64;
        }
        if !self.primed {
            self.last = counts;
            self.primed = true;
            return Ok(());
        }
        let mut total = 0u64;
        for i in 0..4 {
            let d = counts[i].saturating_sub(self.last[i]);
            deltas[i] = d as f64;
            total += d;
        }
        self.last = counts;
        if total < self.min_window_pkts {
            return Ok(());
        }
        let m = mean_abs_dev(&deltas);
        let avg = mean(&deltas);
        let rel = if avg > 0.0 { m / avg } else { 0.0 };
        self.imbalance.borrow_mut().push((ctx.now_ns(), rel));
        if rel > self.mad_threshold {
            self.persist += 1;
        } else {
            self.persist = 0;
        }
        if self.persist >= self.persist_required {
            self.config = (self.config + 1) % CONFIGS.len();
            let (a, b) = CONFIGS[self.config];
            ctx.shift_field("hash_a", a)?;
            ctx.shift_field("hash_b", b)?;
            self.shifts.borrow_mut().push((ctx.now_ns(), self.config));
            self.persist = 0;
            // Restart the observation window under the new configuration.
            self.primed = false;
        }
        Ok(())
    }
}

/// Wired UC3 testbed.
pub struct EcmpTestbed {
    pub sim: Simulator,
    pub agent: Rc<RefCell<MantisAgent>>,
    pub imbalance: Rc<RefCell<Vec<(Nanos, f64)>>>,
    pub shifts: Rc<RefCell<Vec<(Nanos, usize)>>>,
}

pub fn build_testbed() -> EcmpTestbed {
    let compiled =
        compile_source(ECMP_P4R, &CompilerOptions::default()).expect("ECMP_P4R compiles");
    let clock = Clock::new();
    let spec = rmt_sim::load(&compiled.p4).expect("loads");
    let switch = SharedSwitch::new(Switch::new(spec, SwitchConfig::default(), clock));
    let mut agent = MantisAgent::new(switch.clone(), &compiled, CostModel::default());
    agent.prologue().expect("prologue");
    let rb = Rebalancer::new();
    let imbalance = rb.imbalance.clone();
    let shifts = rb.shifts.clone();
    agent
        .register_native("rebalance", Box::new(rb))
        .expect("reaction registered");
    let sim = Simulator::new(switch);
    EcmpTestbed {
        sim,
        agent: Rc::new(RefCell::new(agent)),
        imbalance,
        shifts,
    }
}

/// A polarized workload: every flow shares the same IP pair (so IP-based
/// hashing maps everything onto one path) but has distinct L4 ports.
pub fn spawn_polarized_flows(sim: &mut Simulator, flows: usize, total_bps: u64) {
    let per_flow = total_bps / flows.max(1) as u64;
    for i in 0..flows {
        netsim::spawn_udp(
            sim,
            UdpConfig {
                ingress_port: 0,
                fields: vec![
                    ("ethernet".into(), "ether_type".into(), 0x0800),
                    ("ipv4".into(), "src_addr".into(), 0x0a00_0001),
                    ("ipv4".into(), "dst_addr".into(), 0x0a00_0002),
                    ("ipv4".into(), "protocol".into(), 17),
                    (
                        "l4".into(),
                        "sport".into(),
                        u128::from((i as u64).wrapping_mul(7_919) & 0xffff),
                    ),
                    (
                        "l4".into(),
                        "dport".into(),
                        u128::from((i as u64).wrapping_mul(104_729).wrapping_add(3) & 0xffff),
                    ),
                ],
                payload_bytes: 1_000,
                rate_bps: per_flow,
                start_ns: (i as u64) * 997, // desynchronized
                stop_ns: None,
            },
        );
    }
}

/// Result of the rebalancing experiment.
#[derive(Clone, Debug, serde::Serialize)]
pub struct RebalanceResult {
    /// Relative MAD before the first shift.
    pub imbalance_before: f64,
    /// Relative MAD after the last shift (steady state).
    pub imbalance_after: f64,
    pub first_shift_ns: Option<Nanos>,
    pub shifts: usize,
    /// Per-port packet counts at the end.
    pub final_counts: [u64; 4],
}

/// Run the §8.3.3 experiment: polarized traffic, paced dialogue loop,
/// measure imbalance before/after the hash shift.
pub fn run_rebalance(flows: usize, duration_ns: Nanos, pace_ns: Nanos) -> RebalanceResult {
    let mut tb = build_testbed();
    spawn_polarized_flows(&mut tb.sim, flows, 4_000_000_000);
    crate::failover::schedule_paced_agent(&mut tb.sim, tb.agent.clone(), pace_ns, 0);
    tb.sim.run_until(duration_ns);

    let shifts = tb.shifts.borrow().clone();
    let imb = tb.imbalance.borrow().clone();
    let first_shift_ns = shifts.first().map(|(t, _)| *t);
    let before: Vec<f64> = imb
        .iter()
        .filter(|(t, _)| first_shift_ns.is_none_or(|fs| *t < fs))
        .map(|(_, v)| *v)
        .collect();
    let last_shift = shifts.last().map(|(t, _)| *t).unwrap_or(0);
    let after: Vec<f64> = imb
        .iter()
        .filter(|(t, _)| *t > last_shift)
        .map(|(_, v)| *v)
        .collect();

    let mut final_counts = [0u64; 4];
    {
        let sw = tb.sim.switch().borrow();
        let r = sw.register_id("egr_counts").unwrap();
        for (i, v) in sw.register_read_range(r, 4, 7).iter().enumerate() {
            final_counts[i] = v.as_u64();
        }
    }
    RebalanceResult {
        imbalance_before: mean(&before),
        imbalance_after: mean(&after),
        first_shift_ns,
        shifts: shifts.len(),
        final_counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn polarized_traffic_triggers_shift_and_balances() {
        // 256 flows: enough hash samples that 4-way ECMP balances to
        // within the detector's threshold.
        let res = run_rebalance(256, 3_000_000, 200_000);
        // IP-hashed traffic with one IP pair → everything on one port →
        // relative MAD ≈ 1 (median is 0-ish... the MAD of [N,0,0,0]).
        assert!(
            res.imbalance_before > 0.5,
            "expected polarization, got {}",
            res.imbalance_before
        );
        let first = res.first_shift_ns.expect("must shift");
        assert!(first < 1_000_000, "shift too late: {first}");
        // After shifting to L4-port hashing, flows spread.
        assert!(
            res.imbalance_after < 0.35,
            "still imbalanced after shift: {}",
            res.imbalance_after
        );
        // All four paths now carry traffic.
        assert!(
            res.final_counts.iter().all(|c| *c > 0),
            "{:?}",
            res.final_counts
        );
    }

    #[test]
    fn balanced_traffic_never_shifts() {
        let mut tb = build_testbed();
        // Distinct, well-spread IP pairs → IP hashing already balances.
        for i in 0..256u64 {
            netsim::spawn_udp(
                &mut tb.sim,
                UdpConfig {
                    ingress_port: 0,
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
                            u128::from(i.wrapping_mul(104_729).wrapping_add(7) & 0xffff_ffff),
                        ),
                        ("ipv4".into(), "protocol".into(), 17),
                        ("l4".into(), "sport".into(), 1),
                        ("l4".into(), "dport".into(), 2),
                    ],
                    payload_bytes: 1_000,
                    rate_bps: 15_000_000,
                    start_ns: i * 997,
                    stop_ns: None,
                },
            );
        }
        crate::failover::schedule_paced_agent(&mut tb.sim, tb.agent.clone(), 200_000, 0);
        tb.sim.run_until(3_000_000);
        assert!(
            tb.shifts.borrow().is_empty(),
            "spurious shifts: {:?}",
            tb.shifts.borrow()
        );
    }

    #[test]
    fn interpreted_mad_body_also_rebalances() {
        // The embedded C-like reaction (insertion-sort median + MAD)
        // detects the same imbalance through the interpreter.
        let compiled = compile_source(ECMP_P4R, &CompilerOptions::default()).unwrap();
        let clock = Clock::new();
        let spec = rmt_sim::load(&compiled.p4).unwrap();
        let switch = SharedSwitch::new(Switch::new(spec, SwitchConfig::default(), clock));
        let mut agent = MantisAgent::new(switch.clone(), &compiled, CostModel::default());
        agent.prologue().unwrap();
        agent.register_all_interpreted().unwrap();
        let agent = Rc::new(RefCell::new(agent));
        let mut sim = Simulator::new(switch);
        spawn_polarized_flows(&mut sim, 256, 4_000_000_000);
        crate::failover::schedule_paced_agent(&mut sim, agent.clone(), 200_000, 0);
        sim.run_until(3_000_000);
        // The C body cycles both fields together: (0,0) → (1,1).
        assert_eq!(agent.borrow().slot("hash_a"), Some(1));
        assert_eq!(agent.borrow().slot("hash_b"), Some(1));
        // Traffic spread across all four ports after the shift.
        let sw = sim.switch().borrow();
        let r = sw.register_id("egr_counts").unwrap();
        let counts: Vec<u64> = sw
            .register_read_range(r, 4, 7)
            .iter()
            .map(|v| v.as_u64())
            .collect();
        assert!(counts.iter().filter(|c| **c > 0).count() >= 3, "{counts:?}");
    }

    #[test]
    fn load_tables_feed_hash_inputs() {
        // The compiled program hashes over loaded value fields; verify the
        // pipeline actually spreads flows by L4 port after a manual shift.
        let mut tb = build_testbed();
        tb.agent
            .borrow_mut()
            .user_init(|ctx| {
                ctx.shift_field("hash_a", 1)?;
                ctx.shift_field("hash_b", 1)?;
                Ok(())
            })
            .unwrap();
        spawn_polarized_flows(&mut tb.sim, 32, 1_000_000_000);
        tb.sim.run_until(1_000_000);
        let sw = tb.sim.switch().borrow();
        let r = sw.register_id("egr_counts").unwrap();
        let counts: Vec<u64> = sw
            .register_read_range(r, 4, 7)
            .iter()
            .map(|v| v.as_u64())
            .collect();
        assert!(
            counts.iter().filter(|c| **c > 0).count() >= 3,
            "flows not spread: {counts:?}"
        );
    }
}
