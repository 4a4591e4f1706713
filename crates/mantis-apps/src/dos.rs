//! Use case #1 (§8.3.1): flow size estimation and DoS mitigation,
//! end-to-end on the simulated switch.
//!
//! The [`DosEstimator`] native reaction implements the same algorithm as
//! the embedded C reference body in [`crate::programs::DOS_P4R`]: attribute
//! byte-counter deltas to the sampled source, estimate per-sender rates,
//! and block senders exceeding a threshold via the malleable
//! `block_table`. [`run_mitigation`] reproduces the Fig. 15 scenario.

use crate::programs::DOS_P4R;
use mantis_agent::{AgentError, CostModel, MantisAgent, ReactionCtx};
use netsim::{spawn_tcp, spawn_udp, BucketSeries, Simulator, TcpConfig, TcpState, UdpConfig};
use p4_ast::Value;
use p4r_compiler::entry::LogicalKey;
use p4r_compiler::{compile_source, CompilerOptions};
use rmt_sim::{Clock, Nanos, SharedSwitch, Switch, SwitchConfig};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Per-sender estimate kept by the reaction.
#[derive(Clone, Copy, Debug, Default)]
pub struct FlowEst {
    pub first_seen_ns: Nanos,
    pub bytes: u64,
    pub blocked: bool,
}

/// The native estimator/mitigator reaction.
pub struct DosEstimator {
    /// Blocking threshold in bytes per second (paper: 1 Gbps).
    pub threshold_bps: u64,
    /// Minimum observation window before a sender is eligible for
    /// blocking (suppresses spurious detections of new flows).
    pub min_age_ns: Nanos,
    /// Minimum attributed volume before blocking eligibility — guards
    /// against attribution noise flagging small flows (a few samples of a
    /// small flow can momentarily look fast).
    pub min_bytes: u64,
    last_total: u64,
    pub flows: Rc<RefCell<HashMap<u32, FlowEst>>>,
    /// Blocking events: `(time, source)`.
    pub blocks: Rc<RefCell<Vec<(Nanos, u32)>>>,
}

impl DosEstimator {
    pub fn new(threshold_bps: u64, min_age_ns: Nanos) -> Self {
        DosEstimator {
            threshold_bps,
            min_age_ns,
            min_bytes: 64 * 1024,
            last_total: 0,
            flows: Rc::new(RefCell::new(HashMap::new())),
            blocks: Rc::new(RefCell::new(Vec::new())),
        }
    }
}

impl mantis_agent::NativeReaction for DosEstimator {
    fn react(&mut self, ctx: &mut ReactionCtx<'_>) -> Result<(), AgentError> {
        let Some(src) = ctx.arg("ipv4_src_addr") else {
            return Ok(());
        };
        let Some(total) = ctx.arg_index("total_bytes", 0) else {
            return Ok(());
        };
        let total = total as u64;
        let delta = total.saturating_sub(self.last_total);
        self.last_total = total;
        let src = src as u32;
        if src == 0 || delta == 0 {
            return Ok(());
        }
        let now = ctx.now_ns();
        let mut flows = self.flows.borrow_mut();
        let e = flows.entry(src).or_insert(FlowEst {
            first_seen_ns: now,
            bytes: 0,
            blocked: false,
        });
        e.bytes += delta;
        let age = now.saturating_sub(e.first_seen_ns);
        if !e.blocked && age > self.min_age_ns && e.bytes > self.min_bytes {
            // rate = bytes / age (the paper's (f_t - f_t0)/(t - t0)).
            let rate_bps = e.bytes.saturating_mul(8_000_000_000) / age.max(1);
            if rate_bps > self.threshold_bps {
                ctx.table_add(
                    "block_table",
                    vec![LogicalKey::Exact(Value::new(u128::from(src), 32))],
                    10,
                    "deny",
                    vec![],
                )?;
                e.blocked = true;
                self.blocks.borrow_mut().push((now, src));
            }
        }
        Ok(())
    }
}

/// A fully wired UC1 testbed: switch + agent + simulator.
pub struct DosTestbed {
    pub sim: Simulator,
    pub agent: Rc<RefCell<MantisAgent>>,
    pub flows: Rc<RefCell<HashMap<u32, FlowEst>>>,
    pub blocks: Rc<RefCell<Vec<(Nanos, u32)>>>,
}

/// Build the UC1 testbed. `dest_port` is the bottleneck egress; all
/// traffic to `dest_mac` routes there.
pub fn build_testbed(
    switch_cfg: SwitchConfig,
    dest_mac: u64,
    dest_port: u16,
    threshold_bps: u64,
    min_age_ns: Nanos,
) -> DosTestbed {
    let compiled = compile_source(DOS_P4R, &CompilerOptions::default()).expect("DOS_P4R compiles");
    let clock = Clock::new();
    let spec = rmt_sim::load(&compiled.p4).expect("DOS_P4R loads");
    let switch = SharedSwitch::new(Switch::new(spec, switch_cfg, clock));
    let mut agent = MantisAgent::new(switch.clone(), &compiled, CostModel::default());
    agent.prologue().expect("prologue");

    let est = DosEstimator::new(threshold_bps, min_age_ns);
    let flows = est.flows.clone();
    let blocks = est.blocks.clone();
    agent
        .register_native("estimate_and_block", Box::new(est))
        .expect("reaction registered");
    agent
        .user_init(|ctx| {
            ctx.table_add(
                "l2_forward",
                vec![LogicalKey::Exact(Value::new(u128::from(dest_mac), 48))],
                0,
                "set_egress",
                vec![Value::new(u128::from(dest_port), 9)],
            )?;
            Ok(())
        })
        .expect("route installed");

    let sim = Simulator::new(switch);
    DosTestbed {
        sim,
        agent: Rc::new(RefCell::new(agent)),
        flows,
        blocks,
    }
}

pub use mantis_agent::sched::schedule_agent;

/// Parameters of the Fig. 15 scenario.
#[derive(Clone, Debug)]
pub struct MitigationConfig {
    pub legit_flows: usize,
    /// Aggregate legitimate load (paper: 20% of a 10 Gbps bottleneck).
    pub legit_total_bps: u64,
    pub bottleneck_bps: u64,
    pub attacker_bps: u64,
    pub attack_start_ns: Nanos,
    pub duration_ns: Nanos,
    /// Goodput bucketing for the output series.
    pub bucket_ns: Nanos,
}

impl Default for MitigationConfig {
    fn default() -> Self {
        MitigationConfig {
            legit_flows: 250,
            legit_total_bps: 2_000_000_000,
            bottleneck_bps: 10_000_000_000,
            attacker_bps: 25_000_000_000,
            attack_start_ns: 1_000_000,
            duration_ns: 3_000_000,
            bucket_ns: 100_000,
        }
    }
}

/// Results of the Fig. 15 scenario.
#[derive(Clone, Debug, serde::Serialize)]
pub struct MitigationResult {
    /// Aggregate goodput (accepted bits/s) of legitimate flows per bucket.
    pub legit_goodput: Vec<(Nanos, f64)>,
    /// Attacker accepted throughput per bucket.
    pub attacker_goodput: Vec<(Nanos, f64)>,
    /// Time the blocking rule committed (None = not detected).
    pub block_time_ns: Option<Nanos>,
    pub attack_start_ns: Nanos,
    /// Time from first attack packet to the committed block.
    pub mitigation_latency_ns: Option<Nanos>,
}

/// Run the Fig. 15 scenario.
pub fn run_mitigation(cfg: &MitigationConfig) -> MitigationResult {
    let attacker_src: u32 = 0x0a63_6363;
    let dest_mac = 0xD0;
    let dest_port = 2;
    let mut tb = build_testbed(
        SwitchConfig {
            port_rate_bps: cfg.bottleneck_bps,
            queue_capacity_bytes: 200_000,
            ..Default::default()
        },
        dest_mac,
        dest_port,
        1_000_000_000, // 1 Gbps threshold, as in the paper
        50_000,
    );

    // Legitimate flows: distinct sources, common destination.
    let per_flow = cfg.legit_total_bps / cfg.legit_flows as u64;
    // Stagger flow starts across one inter-packet interval so the
    // aggregate is smooth rather than phase-locked bursts.
    let pkt_interval_ns = 1_400u64 * 8 * 1_000_000_000 / per_flow.max(1);
    let mut legit: Vec<Rc<RefCell<TcpState>>> = Vec::new();
    for i in 0..cfg.legit_flows {
        let src = 0x0a00_0001 + i as u128;
        let stagger = pkt_interval_ns * i as u64 / cfg.legit_flows as u64;
        let flow = spawn_tcp(
            &mut tb.sim,
            TcpConfig {
                ingress_port: (i % 2) as u16, // ports 0-1 are senders
                fields: vec![
                    ("ethernet".into(), "dst_addr".into(), dest_mac as u128),
                    ("ethernet".into(), "ether_type".into(), 0x0800),
                    ("ipv4".into(), "src_addr".into(), src),
                    ("ipv4".into(), "dst_addr".into(), 0x0a00_0000),
                ],
                payload_bytes: 1_400,
                initial_rate_bps: per_flow,
                // Steady state at the configured share (the paper's flows
                // hold 20% utilization); recovery within a few RTTs.
                max_rate_bps: per_flow,
                increase_bps: per_flow / 4,
                rtt_ns: 100_000,
                start_ns: stagger,
                stop_ns: None,
                min_rate_bps: per_flow / 16,
            },
        );
        legit.push(flow);
    }
    // The attacker.
    let attacker = spawn_udp(
        &mut tb.sim,
        UdpConfig {
            ingress_port: 3,
            fields: vec![
                ("ethernet".into(), "dst_addr".into(), dest_mac as u128),
                ("ethernet".into(), "ether_type".into(), 0x0800),
                ("ipv4".into(), "src_addr".into(), attacker_src as u128),
                ("ipv4".into(), "dst_addr".into(), 0x0a00_0000),
            ],
            payload_bytes: 1_250,
            rate_bps: cfg.attacker_bps,
            start_ns: cfg.attack_start_ns,
            stop_ns: None,
        },
    );

    schedule_agent(&mut tb.sim, tb.agent.clone(), 0);

    // Goodput sampler.
    let legit_series = Rc::new(RefCell::new(BucketSeries::new(cfg.bucket_ns)));
    let attacker_series = Rc::new(RefCell::new(BucketSeries::new(cfg.bucket_ns)));
    {
        let legit = legit.clone();
        let attacker = attacker.clone();
        let ls = legit_series.clone();
        let ats = attacker_series.clone();
        let mut last_legit = 0u64;
        let mut last_attack = 0u64;
        tb.sim.schedule_periodic(0, cfg.bucket_ns / 4, move |s| {
            let total: u64 = legit.iter().map(|f| f.borrow().accepted_bytes).sum();
            ls.borrow_mut().add(s.now(), (total - last_legit) as f64);
            last_legit = total;
            let a = attacker.borrow().accepted_pkts * 1_250;
            ats.borrow_mut().add(s.now(), (a - last_attack) as f64);
            last_attack = a;
            true
        });
    }

    tb.sim.run_until(cfg.duration_ns);

    let block_time_ns = tb.blocks.borrow().first().map(|(t, _)| *t);
    let legit_goodput = legit_series.borrow().rate_bps();
    let attacker_goodput = attacker_series.borrow().rate_bps();
    MitigationResult {
        legit_goodput,
        attacker_goodput,
        block_time_ns,
        attack_start_ns: cfg.attack_start_ns,
        mitigation_latency_ns: block_time_ns.map(|t| t.saturating_sub(cfg.attack_start_ns)),
    }
}

/// Replay a synthetic trace through the full switch+agent path and return
/// the reaction's per-sender estimates (validates that the offline
/// [`crate::baselines::MantisEstimator`] model matches the end-to-end
/// system).
pub fn run_estimation_e2e(trace: &netsim::trace::Trace) -> (HashMap<u32, u64>, u64) {
    let mut tb = build_testbed(
        SwitchConfig::default(),
        0xD0,
        2,
        u64::MAX, // never block — pure estimation
        u64::MAX,
    );
    for p in &trace.packets {
        let (at, src, dst, bytes) = (p.at, p.src, p.dst, p.bytes);
        tb.sim.schedule(at, move |s| {
            s.switch().borrow_mut().inject(
                &rmt_sim::PacketDesc::new(0)
                    .field("ethernet", "dst_addr", 0xD0)
                    .field("ethernet", "ether_type", 0x0800)
                    .field("ipv4", "src_addr", u128::from(src))
                    .field("ipv4", "dst_addr", u128::from(dst))
                    .payload(bytes.saturating_sub(34)),
            );
        });
    }
    schedule_agent(&mut tb.sim, tb.agent.clone(), 0);
    tb.sim
        .run_until(trace.packets.last().map(|p| p.at + 100_000).unwrap_or(0));
    let iters = tb.agent.borrow().stats().iterations;
    let est = tb
        .flows
        .borrow()
        .iter()
        .map(|(k, v)| (*k, v.bytes))
        .collect();
    (est, iters)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mitigation_blocks_attacker_fast() {
        let cfg = MitigationConfig {
            legit_flows: 50, // scaled down for unit-test speed
            duration_ns: 2_500_000,
            ..Default::default()
        };
        let res = run_mitigation(&cfg);
        let lat = res
            .mitigation_latency_ns
            .expect("attacker must be detected");
        // The paper reports ~100 µs from the first malicious packet to the
        // installed rule; accept anything clearly sub-millisecond.
        assert!(lat < 400_000, "mitigation latency {lat} ns");
        // After the block, attacker goodput collapses.
        let after: Vec<f64> = res
            .attacker_goodput
            .iter()
            .filter(|(t, _)| *t > res.block_time_ns.unwrap() + 200_000)
            .map(|(_, v)| *v)
            .collect();
        assert!(!after.is_empty());
        assert!(
            after.iter().all(|v| *v < 1e9),
            "attacker not suppressed: {after:?}"
        );
    }

    #[test]
    fn legit_goodput_recovers_after_mitigation() {
        let cfg = MitigationConfig {
            legit_flows: 50,
            duration_ns: 3_000_000,
            ..Default::default()
        };
        let res = run_mitigation(&cfg);
        let block = res.block_time_ns.unwrap();
        let before_attack: Vec<f64> = res
            .legit_goodput
            .iter()
            .filter(|(t, _)| *t > 200_000 && *t < cfg.attack_start_ns)
            .map(|(_, v)| *v)
            .collect();
        let recovered: Vec<f64> = res
            .legit_goodput
            .iter()
            .filter(|(t, _)| *t > block + 700_000)
            .map(|(_, v)| *v)
            .collect();
        let base = netsim::mean(&before_attack);
        let rec = netsim::mean(&recovered);
        assert!(base > 1e9, "baseline goodput {base}");
        assert!(
            rec > base * 0.7,
            "goodput did not recover: {rec} vs baseline {base}"
        );
    }

    #[test]
    fn e2e_estimation_matches_truth_for_large_flows() {
        let trace = netsim::trace::generate(&netsim::trace::TraceConfig {
            flows: 200,
            duration_ns: 10_000_000,
            seed: 3,
            min_pkts_per_flow: 4.0,
            ..Default::default()
        });
        let (est, iters) = run_estimation_e2e(&trace);
        assert!(iters > 100, "agent iterated {iters} times");
        // Total attribution conserved (up to the tail after the last
        // sample).
        let est_total: u64 = est.values().sum();
        let truth_total = trace.total_bytes();
        assert!(
            est_total as f64 > truth_total as f64 * 0.8,
            "attributed {est_total} of {truth_total}"
        );
        // Largest flow estimated within 50%.
        let (big_src, big_truth) = trace
            .truth_bytes
            .iter()
            .max_by_key(|(_, b)| **b)
            .map(|(s, b)| (*s, *b))
            .unwrap();
        let e = est.get(&big_src).copied().unwrap_or(0);
        let rel = (e as f64 - big_truth as f64).abs() / big_truth as f64;
        assert!(rel < 0.5, "largest flow est {e} truth {big_truth}");
    }
}
