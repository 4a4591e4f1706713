//! Parallel-runtime scaling benchmark (`figures -- parallel`): the
//! epoch-barrier worker pool driving a leaf–spine fabric.
//!
//! A fixed workload — every leaf streaming UDP to every other leaf over
//! the spines, plus the failover fabric's per-(spine, leaf) heartbeats
//! and one Mantis agent per switch — runs to the same virtual horizon at
//! each worker count. Per point we record two speedups and a
//! fingerprint of everything observable: exit packets, per-switch
//! transmit counters, and the merged telemetry trace and snapshot. The
//! fingerprints must match at every worker count — that is the
//! determinism contract the barrier merge enforces.
//!
//! * `speedup` is a **model**: `work_units / critical_units` from
//!   [`netsim::ParStats`], per-epoch packets served divided by the
//!   per-epoch maximum over workers of their owned-shard packets, summed
//!   over all drains. It says how well the shard schedule balances
//!   packets — deterministic, the same on any host, exactly 1.0 inline —
//!   and nothing about time: it counts every packet as equal work and
//!   leaves out the channel round trip and barrier every epoch pays.
//! * `wall_speedup` is **measured**: `wall_ms` at one worker over
//!   `wall_ms` at this count, one run each on this host. Read it beside
//!   `host_cores` — with fewer cores than workers it can only fall.

use mantis::apps::fabric::{build_failover_fabric, leaf_host, EXIT_PORT};
use mantis::{netsim::spawn_udp_on, netsim::UdpConfig, Telemetry};
use mantis_agent::schedule_fabric_agents;
use serde::Serialize;
use std::time::Instant;

/// Dialogue pacing for every agent in the fabric.
const TD_NS: u64 = 50_000;
/// Heartbeat period `T_s` (1 µs, as in the paper's failover setup).
const TS_NS: u64 = 1_000;
/// Delivery expectation η of the gray-failure detector.
const ETA: f64 = 0.2;
/// Data rate of each leaf-to-leaf flow.
const RATE_BPS: u64 = 1_000_000_000;

/// One worker count's measurement.
#[derive(Clone, Debug, Serialize)]
pub struct ParallelPoint {
    /// Effective worker count after the simulator's clamp.
    pub workers: usize,
    pub wall_ms: f64,
    /// `wall_ms` of the one-worker point over this point's (1.0 there).
    pub wall_speedup: f64,
    pub drains: u64,
    pub parallel_drains: u64,
    pub work_units: u64,
    pub critical_units: u64,
    /// Modelled critical-path speedup over inline execution (see the
    /// module docs) — shard balance, not time.
    pub speedup: f64,
    pub tx_count: u64,
    pub tx_bytes: u64,
    /// FNV-1a over exits, per-switch counters, and telemetry exports.
    pub fingerprint: String,
}

/// Everything `figures -- parallel` reports.
#[derive(Clone, Debug, Serialize)]
pub struct ParallelBenchResult {
    pub leaves: usize,
    pub spines: usize,
    pub switches: usize,
    pub duration_ns: u64,
    pub flows: usize,
    pub td_ns: u64,
    pub ts_ns: u64,
    /// Cores on the machine that produced the numbers: `wall_speedup`
    /// can show a gain only where `host_cores >= workers`.
    pub host_cores: usize,
    pub metric: String,
    pub points: Vec<ParallelPoint>,
    /// All points produced byte-identical fingerprints.
    pub identical: bool,
    /// Modelled critical-path speedup at 4 workers.
    pub speedup_at_4: f64,
}

/// Incremental FNV-1a (64-bit) — enough to witness byte-identity.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Run the workload once at `workers` and measure it.
fn run_point(leaves: usize, spines: usize, duration_ns: u64, workers: usize) -> ParallelPoint {
    let mut tb = build_failover_fabric(leaves, spines, TS_NS, ETA);
    // The testbed leaves switch telemetry disabled; attach one shared
    // handle to every switch so the barrier merge lands in a ring whose
    // bytes we can compare across worker counts.
    let telemetry = Telemetry::shared();
    for i in 0..tb.sim.num_switches() {
        tb.sim
            .switch_at(i)
            .borrow_mut()
            .set_telemetry(telemetry.clone());
    }
    schedule_fabric_agents(&mut tb.sim, &tb.agents, TD_NS, 0);
    for src in 0..leaves {
        for dst in 0..leaves {
            if src == dst {
                continue;
            }
            spawn_udp_on(
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
                    rate_bps: RATE_BPS,
                    start_ns: 0,
                    stop_ns: None,
                },
            );
        }
    }
    tb.sim.set_workers(workers);

    let t0 = Instant::now();
    tb.sim.run_until(duration_ns);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let stats = tb.sim.par_stats();
    let mut tx_count = 0u64;
    let mut tx_bytes = 0u64;
    let mut h = Fnv::new();
    for i in 0..tb.sim.num_switches() {
        h.u64(tb.sim.tx_count_on(i));
        h.u64(tb.sim.tx_bytes_on(i));
        tx_count += tb.sim.tx_count_on(i);
        tx_bytes += tb.sim.tx_bytes_on(i);
    }
    for (sw, pkt) in tb.sim.take_tx_tagged() {
        h.u64(sw as u64);
        h.u64(u64::from(pkt.port));
        h.u64(pkt.time);
    }
    h.bytes(telemetry.chrome_trace_json().as_bytes());
    h.bytes(telemetry.snapshot_json().as_bytes());

    ParallelPoint {
        workers: tb.sim.workers(),
        wall_ms,
        wall_speedup: 1.0, // against the one-worker point; `run` fills it in
        drains: stats.drains,
        parallel_drains: stats.parallel_drains,
        work_units: stats.work_units,
        critical_units: stats.critical_units,
        speedup: stats.speedup(),
        tx_count,
        tx_bytes,
        fingerprint: format!("{:016x}", h.0),
    }
}

/// Run the parallel benchmark. `quick` trims the topology, horizon, and
/// worker sweep for CI.
pub fn run(quick: bool) -> ParallelBenchResult {
    let (leaves, spines, duration_ns) = if quick {
        (2usize, 2usize, 400_000u64)
    } else {
        (4, 4, 2_000_000)
    };
    let counts: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 8] };

    let mut points: Vec<ParallelPoint> = counts
        .iter()
        .map(|&w| run_point(leaves, spines, duration_ns, w))
        .collect();
    let serial_ms = points[0].wall_ms;
    for p in &mut points {
        p.wall_speedup = serial_ms / p.wall_ms.max(1e-9);
    }

    let identical = points
        .windows(2)
        .all(|p| p[0].fingerprint == p[1].fingerprint && p[0].tx_count == p[1].tx_count);
    assert!(
        identical,
        "worker counts disagree: {:?}",
        points
            .iter()
            .map(|p| (p.workers, p.fingerprint.clone()))
            .collect::<Vec<_>>()
    );
    let speedup_at_4 = points
        .iter()
        .find(|p| p.workers == 4)
        .map(|p| p.speedup)
        .unwrap_or(0.0);

    ParallelBenchResult {
        leaves,
        spines,
        switches: leaves + spines,
        duration_ns,
        flows: leaves * (leaves - 1),
        td_ns: TD_NS,
        ts_ns: TS_NS,
        host_cores: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        metric: "speedup: critical-path model (work_units / critical_units), shard balance \
                 only — no per-epoch barrier or channel cost; wall_speedup: measured wall_ms \
                 ratio against the 1-worker point on host_cores cores"
            .into(),
        points,
        identical,
        speedup_at_4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_parallel_bench_is_deterministic_and_scales() {
        let r = run(true);
        assert_eq!((r.leaves, r.spines, r.switches), (2, 2, 4));
        assert!(r.identical, "fingerprints diverged across worker counts");
        assert_eq!(r.points.len(), 3);
        let serial = &r.points[0];
        assert_eq!(serial.workers, 1);
        assert_eq!(serial.parallel_drains, 0);
        assert!((serial.speedup - 1.0).abs() < 1e-9, "{}", serial.speedup);
        for p in &r.points[1..] {
            assert!(
                p.parallel_drains > 0,
                "workers={} never went parallel",
                p.workers
            );
            assert_eq!(p.work_units, serial.work_units);
            assert!(p.wall_speedup > 0.0, "{p:?}");
            assert!(
                p.speedup > 1.0,
                "workers={} speedup {}",
                p.workers,
                p.speedup
            );
        }
        assert!(r.points.iter().all(|p| p.tx_count > 0));
    }
}
