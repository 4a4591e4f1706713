//! Use case #4 (§8.3.4): reinforcement learning of the DCTCP ECN marking
//! threshold.
//!
//! The marking threshold is a malleable value (`ecn_thresh` in
//! [`crate::programs::RL_P4R`]); the egress pipeline marks packets whose
//! queue exceeded it. The native reaction runs ε-greedy tabular Q-learning
//! (off-policy TD control, per Sutton & Barto \[46]): the state is the
//! discretized queue depth, actions are candidate thresholds, and the
//! reward is link utilization minus a queueing penalty — the paper's "sum
//! of the utilization of the switch with the inverse of queue length".

use crate::programs::RL_P4R;
use mantis_agent::{AgentError, CostModel, MantisAgent, ReactionCtx};
use netsim::{spawn_tcp, Simulator, TcpConfig, TcpState};
use p4r_compiler::{compile_source, CompilerOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rmt_sim::{Clock, Nanos, SharedSwitch, Switch, SwitchConfig};
use std::cell::RefCell;
use std::rc::Rc;

/// Tabular ε-greedy Q-learning over ECN thresholds.
pub struct QLearner {
    /// Candidate marking thresholds (bytes).
    pub actions: Vec<u32>,
    /// Queue-depth state bins (upper bounds, bytes).
    pub state_bins: Vec<u32>,
    pub epsilon: f64,
    pub alpha: f64,
    pub gamma: f64,
    /// Queue penalty weight λ in `reward = util - λ·(q/q_max)`.
    pub lambda: f64,
    /// Port line rate, for the utilization term.
    pub line_rate_bps: u64,
    q: Vec<Vec<f64>>,
    rng: StdRng,
    prev: Option<(usize, usize)>,
    last_pkts: u64,
    last_poll_ns: Option<Nanos>,
    pub rewards: Rc<RefCell<Vec<(Nanos, f64)>>>,
    pub chosen: Rc<RefCell<Vec<(Nanos, u32)>>>,
}

impl QLearner {
    pub fn new(seed: u64, line_rate_bps: u64) -> Self {
        QLearner {
            actions: vec![2_000, 5_000, 10_000, 20_000, 40_000, 80_000],
            state_bins: vec![1_000, 5_000, 20_000, 60_000, 150_000, u32::MAX],
            epsilon: 0.15,
            alpha: 0.3,
            gamma: 0.6,
            lambda: 0.7,
            line_rate_bps,
            q: vec![vec![0.0; 6]; 6],
            rng: StdRng::seed_from_u64(seed),
            prev: None,
            last_pkts: 0,
            last_poll_ns: None,
            rewards: Rc::new(RefCell::new(Vec::new())),
            chosen: Rc::new(RefCell::new(Vec::new())),
        }
    }

    fn state_of(&self, qdepth: u64) -> usize {
        self.state_bins
            .iter()
            .position(|b| qdepth <= u64::from(*b))
            .unwrap_or(self.state_bins.len() - 1)
    }

    /// Greedy action for a state (exposed for post-training inspection).
    pub fn greedy(&self, state: usize) -> usize {
        self.q[state]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Replace the action set (resizes the Q table).
    pub fn set_actions(&mut self, actions: Vec<u32>) {
        self.q = vec![vec![0.0; actions.len()]; self.state_bins.len()];
        self.actions = actions;
        self.prev = None;
    }
}

impl mantis_agent::NativeReaction for QLearner {
    fn react(&mut self, ctx: &mut ReactionCtx<'_>) -> Result<(), AgentError> {
        let now = ctx.now_ns();
        let qdepth = ctx.arg_index("qdepths", 2).unwrap_or(0) as u64;
        let pkts = ctx.arg_index("egr_pkts", 0).unwrap_or(0) as u64;
        let Some(last_t) = self.last_poll_ns else {
            self.last_poll_ns = Some(now);
            self.last_pkts = pkts;
            return Ok(());
        };
        let dt = now.saturating_sub(last_t);
        self.last_poll_ns = Some(now);
        if dt == 0 {
            return Ok(());
        }
        let dp = pkts.saturating_sub(self.last_pkts);
        self.last_pkts = pkts;

        // Reward: utilization of the egress link minus queue penalty.
        // Packets are ~1 KB; utilization = delivered bits / capacity bits.
        let delivered_bits = dp as f64 * 1_000.0 * 8.0;
        let capacity_bits = self.line_rate_bps as f64 * dt as f64 / 1e9;
        let util = (delivered_bits / capacity_bits).min(1.0);
        let qfrac = (qdepth as f64 / 150_000.0).min(1.0);
        let reward = util - self.lambda * qfrac;
        self.rewards.borrow_mut().push((now, reward));

        let state = self.state_of(qdepth);

        // TD update for the previous (s, a).
        if let Some((ps, pa)) = self.prev {
            let best_next = self.q[state].iter().cloned().fold(f64::MIN, f64::max);
            let q = &mut self.q[ps][pa];
            *q += self.alpha * (reward + self.gamma * best_next - *q);
        }

        // ε-greedy action selection.
        let action = if self.rng.gen::<f64>() < self.epsilon {
            self.rng.gen_range(0..self.actions.len())
        } else {
            self.greedy(state)
        };
        let thresh = self.actions[action];
        ctx.set_mbl("ecn_thresh", i128::from(thresh))?;
        self.chosen.borrow_mut().push((now, thresh));
        self.prev = Some((state, action));
        Ok(())
    }
}

/// Wired UC4 testbed with DCTCP-like flows.
pub struct RlTestbed {
    pub sim: Simulator,
    pub agent: Rc<RefCell<MantisAgent>>,
    pub flows: Vec<Rc<RefCell<TcpState>>>,
    pub rewards: Rc<RefCell<Vec<(Nanos, f64)>>>,
    pub chosen: Rc<RefCell<Vec<(Nanos, u32)>>>,
}

/// Build the RL testbed: `n_flows` ECN-reactive TCP flows into one
/// bottleneck port (port 2).
pub fn build_testbed(n_flows: usize, seed: u64, learner: Option<QLearner>) -> RlTestbed {
    let compiled = compile_source(RL_P4R, &CompilerOptions::default()).expect("RL_P4R compiles");
    let clock = Clock::new();
    let spec = rmt_sim::load(&compiled.p4).expect("loads");
    let line_rate = 10_000_000_000;
    let mut switch = Switch::new(
        spec,
        SwitchConfig {
            port_rate_bps: line_rate,
            queue_capacity_bytes: 150_000,
            ..Default::default()
        },
        clock,
    );
    switch
        .bind_queue_depth_register("qdepths")
        .expect("qdepths register");
    let switch = SharedSwitch::new(switch);
    let mut agent = MantisAgent::new(switch.clone(), &compiled, CostModel::default());
    agent.prologue().expect("prologue");
    let learner = learner.unwrap_or_else(|| QLearner::new(seed, line_rate));
    let rewards = learner.rewards.clone();
    let chosen = learner.chosen.clone();
    agent
        .register_native("tune_threshold", Box::new(learner))
        .expect("reaction registered");

    let mut sim = Simulator::new(switch.clone());

    // ECN-reactive flows: overprovisioned in aggregate so the queue builds
    // unless marking reins them in.
    let per_flow = line_rate * 2 / n_flows.max(1) as u64;
    let mut flows = Vec::new();
    for i in 0..n_flows {
        flows.push(spawn_tcp(
            &mut sim,
            TcpConfig {
                ingress_port: (i % 2) as u16,
                fields: vec![
                    ("ethernet".into(), "ether_type".into(), 0x0800),
                    ("ipv4".into(), "src_addr".into(), 0x0a00_0100 + i as u128),
                    ("ipv4".into(), "dst_addr".into(), 0x0a00_0001),
                ],
                payload_bytes: 1_000,
                initial_rate_bps: per_flow / 4,
                min_rate_bps: per_flow / 64,
                max_rate_bps: per_flow,
                increase_bps: per_flow / 8,
                rtt_ns: 100_000,
                start_ns: (i as u64) * 7_919,
                stop_ns: None,
            },
        ));
    }

    // DCTCP-style ECN feedback: each RTT, flows back off in proportion to
    // the marked fraction (the receiver-echo path, abstracted).
    {
        let switch = switch.clone();
        let flows = flows.clone();
        let mut last_marks = 0u64;
        let mut last_pkts = 0u64;
        sim.schedule_periodic(100_000, 100_000, move |_| {
            let (marks, pkts) = {
                let sw = switch.borrow();
                let rm = sw.register_id("egr_marks").unwrap();
                let rp = sw.register_id("egr_pkts").unwrap();
                (
                    sw.register_read_range(rm, 0, 0)[0].as_u64(),
                    sw.register_read_range(rp, 0, 0)[0].as_u64(),
                )
            };
            let dm = marks.saturating_sub(last_marks);
            let dp = pkts.saturating_sub(last_pkts);
            last_marks = marks;
            last_pkts = pkts;
            if dp > 0 && dm > 0 {
                let frac = (dm as f64 / dp as f64).min(1.0);
                for f in &flows {
                    f.borrow_mut().backoff_factor = Some(1.0 - frac / 2.0);
                }
            }
            true
        });
    }

    RlTestbed {
        sim,
        agent: Rc::new(RefCell::new(agent)),
        flows,
        rewards,
        chosen,
    }
}

/// Outcome of a training run.
#[derive(Clone, Debug, serde::Serialize)]
pub struct RlResult {
    /// Mean reward over the first quarter of the run.
    pub early_reward: f64,
    /// Mean reward over the last quarter.
    pub late_reward: f64,
    pub iterations: usize,
}

/// Train the learner for `duration_ns` with the dialogue loop paced at
/// `pace_ns`.
pub fn run_training(duration_ns: Nanos, pace_ns: Nanos, seed: u64) -> RlResult {
    let mut tb = build_testbed(16, seed, None);
    crate::failover::schedule_paced_agent(&mut tb.sim, tb.agent.clone(), pace_ns, 0);
    tb.sim.run_until(duration_ns);
    summarize(&tb)
}

/// Run with a *fixed* threshold (no learning) — the ablation baseline.
pub fn run_fixed_threshold(duration_ns: Nanos, pace_ns: Nanos, thresh: u32) -> RlResult {
    let mut learner = QLearner::new(1, 10_000_000_000);
    learner.epsilon = 0.0;
    learner.alpha = 0.0;
    learner.set_actions(vec![thresh]);
    let mut tb = build_testbed(16, 1, Some(learner));
    crate::failover::schedule_paced_agent(&mut tb.sim, tb.agent.clone(), pace_ns, 0);
    tb.sim.run_until(duration_ns);
    summarize(&tb)
}

fn summarize(tb: &RlTestbed) -> RlResult {
    let rewards = tb.rewards.borrow();
    let n = rewards.len();
    let quarter = (n / 4).max(1);
    let early: Vec<f64> = rewards.iter().take(quarter).map(|(_, r)| *r).collect();
    let late: Vec<f64> = rewards
        .iter()
        .skip(n.saturating_sub(quarter))
        .map(|(_, r)| *r)
        .collect();
    RlResult {
        early_reward: netsim::mean(&early),
        late_reward: netsim::mean(&late),
        iterations: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn marking_engages_when_queue_exceeds_threshold() {
        // Static check of the data plane: with a tiny threshold every
        // queued packet is marked; with a huge one none are.
        for (thresh, expect_marks) in [(100u32, true), (10_000_000, false)] {
            let mut tb = build_testbed(8, 3, None);
            tb.agent
                .borrow_mut()
                .user_init(move |ctx| {
                    ctx.set_mbl("ecn_thresh", i128::from(thresh))?;
                    Ok(())
                })
                .unwrap();
            tb.sim.run_until(2_000_000);
            let sw = tb.sim.switch().borrow();
            let rm = sw.register_id("egr_marks").unwrap();
            let marks = sw.register_read_range(rm, 0, 0)[0].as_u64();
            if expect_marks {
                assert!(marks > 0, "no marks at threshold {thresh}");
            } else {
                assert_eq!(marks, 0, "unexpected marks at threshold {thresh}");
            }
        }
    }

    #[test]
    fn ecn_feedback_tames_the_queue() {
        // With marking at a sane threshold, flows back off and the queue
        // stays bounded; with marking disabled the queue slams the cap.
        let with_marks = run_fixed_threshold(5_000_000, 100_000, 20_000);
        let without = run_fixed_threshold(5_000_000, 100_000, 100_000_000);
        assert!(
            with_marks.late_reward > without.late_reward,
            "marking should improve reward: {} vs {}",
            with_marks.late_reward,
            without.late_reward
        );
    }

    #[test]
    fn q_learning_improves_reward() {
        let res = run_training(100_000_000, 100_000, 7);
        assert!(res.iterations > 100, "only {} iterations", res.iterations);
        assert!(
            res.late_reward > res.early_reward,
            "no improvement: early {} late {}",
            res.early_reward,
            res.late_reward
        );
    }

    #[test]
    fn learned_policy_competitive_with_best_fixed() {
        let learned = run_training(20_000_000, 100_000, 7);
        let fixed: Vec<RlResult> = [2_000u32, 20_000, 80_000]
            .iter()
            .map(|t| run_fixed_threshold(20_000_000, 100_000, *t))
            .collect();
        let best_fixed = fixed.iter().map(|r| r.late_reward).fold(f64::MIN, f64::max);
        let worst_fixed = fixed.iter().map(|r| r.late_reward).fold(f64::MAX, f64::min);
        // Learned policy must clearly beat the worst static choice and be
        // within reach of the best.
        assert!(
            learned.late_reward > worst_fixed,
            "learned {} vs worst fixed {}",
            learned.late_reward,
            worst_fixed
        );
        assert!(
            learned.late_reward > best_fixed - 0.25,
            "learned {} too far below best fixed {}",
            learned.late_reward,
            best_fixed
        );
    }

    #[test]
    fn interpreted_hill_climb_body_adjusts_threshold() {
        // The embedded C-like reference body (hill climbing) moves the
        // threshold off its initial value in response to load.
        let compiled = compile_source(RL_P4R, &CompilerOptions::default()).unwrap();
        let clock = Clock::new();
        let spec = rmt_sim::load(&compiled.p4).unwrap();
        let mut switch = Switch::new(
            spec,
            SwitchConfig {
                port_rate_bps: 10_000_000_000,
                queue_capacity_bytes: 150_000,
                ..Default::default()
            },
            clock,
        );
        switch.bind_queue_depth_register("qdepths").unwrap();
        let switch = SharedSwitch::new(switch);
        let mut agent = MantisAgent::new(switch.clone(), &compiled, CostModel::default());
        agent.prologue().unwrap();
        agent.register_all_interpreted().unwrap();
        let agent = Rc::new(RefCell::new(agent));
        let mut sim = Simulator::new(switch);
        // Light traffic → queue stays near zero → threshold creeps up.
        spawn_tcp(
            &mut sim,
            TcpConfig {
                fields: vec![
                    ("ethernet".into(), "ether_type".into(), 0x0800),
                    ("ipv4".into(), "src_addr".into(), 1),
                    ("ipv4".into(), "dst_addr".into(), 2),
                ],
                initial_rate_bps: 1_000_000_000,
                increase_bps: 0,
                ..Default::default()
            },
        );
        crate::failover::schedule_paced_agent(&mut sim, agent.clone(), 100_000, 0);
        sim.run_until(3_000_000);
        let t = agent.borrow().slot("ecn_thresh").unwrap();
        assert!(t > 30_000, "threshold did not adapt upward: {t}");
    }

    #[test]
    fn state_discretization_is_monotone() {
        let q = QLearner::new(0, 10_000_000_000);
        assert_eq!(q.state_of(0), 0);
        assert!(q.state_of(10_000) <= q.state_of(100_000));
        assert_eq!(q.state_of(u64::MAX), 5);
    }
}
