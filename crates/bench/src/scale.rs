//! Internet-scale traffic benchmark (`figures -- scale`): the timing-wheel
//! event core, interned zero-alloc PHVs, and sharded flow engine driving
//! the paper's Fig. 14 traffic block **unscaled** — ~370 K Pareto-sized
//! flows (~9 M packets) over 20 s of virtual time — across a leaf–spine
//! fabric with exact-match IP routing on every switch.
//!
//! One measurement comes out of an invocation: the full flow block,
//! reported as injected packets per wall-clock second, an FNV-1a
//! fingerprint over every per-switch transmit counter and fabric-exit
//! packet, and the flow engine's own gauges (batching, wheel occupancy,
//! arena bytes). Throughput is of the one thread that runs the fabric;
//! read it with the host it was measured on.
//!
//! The speedup over the closure-heap engine this one replaced (6.5×,
//! measured at PR 9) is history recorded in EXPERIMENTS.md; that engine
//! is no longer in the tree to measure against.
//!
//! Quick mode shrinks the block to 8 000 flows over 0.4 s for CI while
//! keeping every section of the output populated.

use netsim::{
    scale_totals, spawn_scale_flows, ScaleConfig, ScaleHost, Simulator, Topology, HOST_PORTS,
};
use p4_ast::Value;
use rmt_sim::{switch_from_source, Clock, KeyField, PortId, SharedSwitch, SwitchConfig};
use serde::Serialize;
use std::time::Instant;

/// Routing program every fabric switch runs: exact-match on the packet's
/// destination address, forwarding to a host port (leaves) or a downlink
/// (spines). Misses drop at ingress admission.
const ROUTE_P4: &str = r#"
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

/// Fabric shape (4×4 leaf–spine, every leaf fully populated with hosts).
const LEAVES: usize = 4;
const SPINES: usize = 4;

/// One engine run's measurement.
#[derive(Clone, Debug, Serialize)]
pub struct ScaleRun {
    pub flows: u64,
    /// Packets the schedule planned (sum of per-flow Pareto sizes).
    pub planned_pkts: u64,
    /// Packets actually handed to a switch.
    pub injected_pkts: u64,
    /// Packets accepted at ingress admission.
    pub accepted_pkts: u64,
    pub virtual_secs: f64,
    pub wall_secs: f64,
    /// Injected packets per wall-clock second — the headline metric.
    pub pkts_per_sec: f64,
    pub fingerprint: String,
}

/// Flow-engine gauges snapshotted after the headline run (`scale_totals`
/// and the simulator's wheel and arena gauges).
#[derive(Clone, Debug, Serialize)]
pub struct ScaleGauges {
    pub shards: usize,
    pub batches: u64,
    pub max_batch: u64,
    pub mean_batch: f64,
    pub wheel_slots: usize,
    pub arena_bytes: u64,
}

/// Everything `figures -- scale` reports (`"scale"` in `BENCH_perf.json`).
#[derive(Clone, Debug, Serialize)]
pub struct ScaleBenchResult {
    pub leaves: usize,
    pub spines: usize,
    pub hosts: usize,
    pub quick: bool,
    /// The full-block run.
    pub headline: ScaleRun,
    pub gauges: ScaleGauges,
}

/// Incremental FNV-1a (64-bit) — enough to witness byte-identity.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Host `h` behind leaf `l` (addresses start at 1 so a miss on the
/// all-zeros template default can never silently match).
fn host_addr(leaf: usize, h: usize) -> u64 {
    (leaf * HOST_PORTS as usize + h + 1) as u64
}

fn hosts() -> Vec<ScaleHost> {
    let mut out = Vec::new();
    for leaf in 0..LEAVES {
        for h in 0..HOST_PORTS as usize {
            out.push(ScaleHost {
                switch: leaf,
                port: h as PortId,
                addr: host_addr(leaf, h),
            });
        }
    }
    out
}

/// Build the routed leaf–spine fabric. Every switch knows every host:
/// leaves forward local hosts to their port and remote hosts up to the
/// spine picked by destination address; spines forward down to the
/// owning leaf.
fn build_fabric() -> Simulator {
    let clock = Clock::new();
    let mut switches = Vec::with_capacity(LEAVES + SPINES);
    for _ in 0..LEAVES + SPINES {
        let sw = switch_from_source(ROUTE_P4, SwitchConfig::default(), clock.clone())
            .expect("scale route program compiles");
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
    // Exit packets are counted and hashed as they stream; no need to keep
    // millions of them resident.
    sim.tx_log_cap = 1 << 16;
    sim
}

fn fingerprint(sim: &mut Simulator) -> String {
    let mut h = Fnv::new();
    for i in 0..sim.num_switches() {
        h.u64(sim.tx_count_on(i));
        h.u64(sim.tx_bytes_on(i));
    }
    for (sw, pkt) in sim.take_tx_tagged() {
        h.u64(sw as u64);
        h.u64(u64::from(pkt.port));
        h.u64(pkt.time);
    }
    format!("{:016x}", h.0)
}

fn scale_cfg(flows: u64, duration_ns: u64) -> ScaleConfig {
    ScaleConfig {
        seed: 14, // Fig. 14's block
        flows: u32::try_from(flows).expect("flow count fits u32"),
        duration_ns,
        payload_bytes: 700,
        ..Default::default()
    }
}

/// Run the sharded template engine once and measure it.
fn run_engine(cfg: &ScaleConfig) -> (ScaleRun, ScaleGauges) {
    let mut sim = build_fabric();
    let planned = spawn_scale_flows(&mut sim, cfg, &hosts()).expect("scale flows spawn");
    let t0 = Instant::now();
    // Margin past the last arrival so in-flight packets cross the fabric.
    sim.run_until(cfg.duration_ns + 100_000);
    let wall_secs = t0.elapsed().as_secs_f64();
    let totals = scale_totals(&sim);
    let gauges = ScaleGauges {
        shards: totals.shards,
        batches: totals.batches,
        max_batch: totals.max_batch,
        mean_batch: totals.injected_pkts as f64 / totals.batches.max(1) as f64,
        wheel_slots: sim.wheel_slots(),
        arena_bytes: sim.arena_bytes(),
    };
    let run = ScaleRun {
        flows: u64::from(cfg.flows),
        planned_pkts: planned,
        injected_pkts: totals.injected_pkts,
        accepted_pkts: totals.accepted_pkts,
        virtual_secs: cfg.duration_ns as f64 / 1e9,
        wall_secs,
        pkts_per_sec: totals.injected_pkts as f64 / wall_secs.max(1e-9),
        fingerprint: fingerprint(&mut sim),
    };
    (run, gauges)
}

/// Run the scale benchmark. `quick` trims the block for CI; the full run
/// reproduces Fig. 14's ~370 K flows over 20 s of virtual time.
pub fn run(quick: bool) -> ScaleBenchResult {
    let (flows, duration_ns) = if quick {
        (8_000u64, 400_000_000u64)
    } else {
        (370_000, 20_000_000_000)
    };
    let (headline, gauges) = run_engine(&scale_cfg(flows, duration_ns));
    ScaleBenchResult {
        leaves: LEAVES,
        spines: SPINES,
        hosts: LEAVES * HOST_PORTS as usize,
        quick,
        headline,
        gauges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quick block's fingerprint is pinned: the run is a pure
    /// function of its seed.
    #[test]
    fn quick_scale_bench_is_deterministic_and_fast() {
        let r = run(true);
        assert_eq!(r.headline.fingerprint, "c4efc47d5eb8bda3");
        assert_eq!(r.headline.planned_pkts, r.headline.injected_pkts);
        assert!(r.headline.accepted_pkts > 0);
        assert!(r.gauges.shards == LEAVES);
        assert!(r.gauges.mean_batch >= 1.0);
    }
}
