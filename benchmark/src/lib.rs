//! The wall-clock benchmark of `BENCHMARK.json`: four workloads over the
//! packet path and the reaction loop, end-to-end metrics from untraced
//! runs, per-layer metrics from traced runs and isolated replays. Only
//! public functions of the repository's crates are called, and every
//! setting (workers, pipes, driver mode, seed) is pinned here.

pub mod compare;
pub mod fabric_fwd;
pub mod host;
pub mod layers;
pub mod react;
pub mod reactive_fabric;
pub mod replay;
pub mod report;
pub mod span;
pub mod stats;

use report::{Outcome, RunRecord};
use span::Tracer;
use std::path::PathBuf;

/// The manifest this package was built against, compiled in.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 30;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FabricFwd,
    ReactLocal,
    ReactRemote,
    ReactiveFabric,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::FabricFwd,
        Workload::ReactLocal,
        Workload::ReactRemote,
        Workload::ReactiveFabric,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FabricFwd => "fabric_fwd",
            Workload::ReactLocal => "react_local",
            Workload::ReactRemote => "react_remote",
            Workload::ReactiveFabric => "reactive_fabric",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much work a run does: the workloads at their stated sizes with the
/// repetition and iteration counts `seconds` buys on the reference host,
/// or the self-test's smoke sizes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Seconds(u64),
    Smoke,
}

/// Whole-block repetitions a run of `seconds` buys on the two fabric
/// workloads, where one takes ≈10 s on the reference host: one per ten
/// seconds (three at the 30 s `BENCHMARK.json` runs for). A tighter budget
/// cuts repetitions, never the block.
pub fn block_reps(seconds: u64) -> usize {
    (seconds / 10).max(1) as usize
}

/// End-to-end metrics, as in `BENCHMARK.json`. Every workload reports
/// every one (the driver reads every name from every run), so each has one
/// definition that holds on all four: a *step* is the unit a workload is
/// timed in — one `dialogue_iteration()` on the reaction loops, one
/// `run_until` slice of fixed virtual length on the fabrics.
pub const END_TO_END: [(&str, &str); 5] = [
    // Wall ms of the timed steps per virtual ms they advance the clock.
    ("wall_ms_per_virt_ms", "ms/ms"),
    // Percentiles of wall µs per timed step.
    ("iter_us_p50", "us"),
    ("iter_us_p90", "us"),
    // Everything up to the first timed step, median of fresh set-ups.
    ("setup_s", "s"),
    // VmHWM of the workload's process.
    ("peak_rss_mb", "MB"),
];

/// One per-layer metric of `BENCHMARK.json`.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Workloads whose traced run measures it. It reads 0 on the others:
    /// they do not run that part. Replays are measured on all four.
    pub on: &'static [Workload],
    /// The end-to-end metric, and the workload to read it on, that a
    /// change to what this measures should move. Every pairing not named
    /// is predicted to stay within its bound.
    pub moves: &'static [(&'static str, Workload)],
}

use Workload::{FabricFwd as Fwd, ReactLocal as Loc, ReactRemote as Rem, ReactiveFabric as Rfab};

const EVERY: &[Workload] = &Workload::ALL;
const FABRICS: &[Workload] = &[Fwd, Rfab];
const LOOPS: &[Workload] = &[Loc, Rem];

type Moves = &'static [(&'static str, Workload)];
const FWD_SPEED: Moves = &[("wall_ms_per_virt_ms", Fwd), ("iter_us_p50", Fwd)];
const RFAB_SPEED: Moves = &[("wall_ms_per_virt_ms", Rfab)];
const PACKET_PATH: Moves = &[
    ("wall_ms_per_virt_ms", Fwd),
    ("iter_us_p50", Fwd),
    ("wall_ms_per_virt_ms", Rfab),
];
const LOCAL_LOOP: Moves = &[("iter_us_p50", Loc)];
/// The agent is the same on both drivers: both loops move, the remote one
/// by the same amount and not more.
const BOTH_LOOPS: Moves = &[
    ("iter_us_p50", Loc),
    ("wall_ms_per_virt_ms", Loc),
    ("iter_us_p50", Rem),
    ("wall_ms_per_virt_ms", Rem),
];
const LOOP_TAIL: Moves = &[("iter_us_p90", Loc), ("iter_us_p90", Rem)];
const REMOTE_ONLY: Moves = &[("iter_us_p50", Rem), ("wall_ms_per_virt_ms", Rem)];
const FWD_SETUP: Moves = &[("setup_s", Fwd)];
const SMALL_SETUPS: Moves = &[("setup_s", Loc), ("setup_s", Rem), ("setup_s", Rfab)];
const TELEMETRY_ON: Moves = &[
    ("wall_ms_per_virt_ms", Rfab),
    ("iter_us_p50", Loc),
    ("iter_us_p50", Rem),
];
/// Simulated statistics and accounting: no host-time metric follows them.
const NOTHING: Moves = &[];

const fn layer(
    name: &'static str,
    unit: &'static str,
    on: &'static [Workload],
    moves: Moves,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        on,
        moves,
    }
}

/// Per-layer metrics, as in `BENCHMARK.json`, each with the workloads that
/// measure it and the end-to-end metric it should move. `BENCHMARK.json`
/// itself may carry only name, unit and direction, so the mapping lives
/// here; a traced run prints it beside every value.
pub const PER_LAYER: [LayerMetric; 76] = [
    layer("rmt_sim.inject_ns", "ns", EVERY, PACKET_PATH),
    layer("rmt_sim.pump_ns_per_pkt", "ns", EVERY, PACKET_PATH),
    layer("rmt_sim.pipeline_route_ns", "ns", EVERY, FWD_SPEED),
    layer("rmt_sim.pipeline_failover_ns", "ns", EVERY, RFAB_SPEED),
    layer("rmt_sim.lookup_exact_ns", "ns", EVERY, FWD_SPEED),
    layer("rmt_sim.lookup_lpm_ns", "ns", EVERY, RFAB_SPEED),
    layer("rmt_sim.lookup_ternary_ns", "ns", EVERY, RFAB_SPEED),
    layer("rmt_sim.register_read_ns_per_cell", "ns", EVERY, RFAB_SPEED),
    layer("rmt_sim.table_add_ns", "ns", EVERY, LOCAL_LOOP),
    layer("rmt_sim.table_mod_ns", "ns", EVERY, LOCAL_LOOP),
    layer("rmt_sim.table_del_ns", "ns", EVERY, LOCAL_LOOP),
    layer("rmt_sim.table_add_ternary_ns", "ns", EVERY, LOCAL_LOOP),
    layer("rmt_sim.table_mod_ternary_ns", "ns", EVERY, LOCAL_LOOP),
    layer("rmt_sim.table_del_ternary_ns", "ns", EVERY, LOCAL_LOOP),
    layer("rmt_sim.share", "1", EVERY, PACKET_PATH),
    layer("netsim.wheel_schedule_ns", "ns", EVERY, FWD_SPEED),
    layer("netsim.wheel_pop_ns", "ns", EVERY, FWD_SPEED),
    layer("netsim.pkts_per_s", "1/s", FABRICS, PACKET_PATH),
    layer("netsim.ns_per_hop", "ns", FABRICS, PACKET_PATH),
    layer("netsim.mean_batch", "count", &[Fwd], FWD_SPEED),
    layer("netsim.max_batch", "count", &[Fwd], FWD_SPEED),
    layer("netsim.wheel_slots", "count", &[Fwd], FWD_SPEED),
    layer(
        "netsim.arena_bytes",
        "count",
        &[Fwd],
        &[("peak_rss_mb", Fwd)],
    ),
    layer("netsim.spawn_flows_s", "s", EVERY, FWD_SETUP),
    // Not gated yet: the pooled drain is several times slower than the
    // serial one on two shared cores, and too noisy to bound.
    layer("netsim.par_w2_slowdown", "1", &[Rfab], NOTHING),
    layer("netsim.par_critical_speedup_w2", "1", &[Rfab], NOTHING),
    layer("netsim.share", "1", EVERY, PACKET_PATH),
    layer("mantis_agent.iter_us_p50.dos", "us", LOOPS, BOTH_LOOPS),
    layer("mantis_agent.iter_us_p50.ecmp", "us", LOOPS, BOTH_LOOPS),
    layer("mantis_agent.iter_us_p50.failover", "us", LOOPS, BOTH_LOOPS),
    layer("mantis_agent.iter_us_p50.rl", "us", LOOPS, BOTH_LOOPS),
    layer("mantis_agent.iter_us_p50.churn", "us", LOOPS, BOTH_LOOPS),
    layer("mantis_agent.iter_us_p90.dos", "us", LOOPS, LOOP_TAIL),
    layer("mantis_agent.iter_us_p90.ecmp", "us", LOOPS, LOOP_TAIL),
    layer("mantis_agent.iter_us_p90.failover", "us", LOOPS, LOOP_TAIL),
    layer("mantis_agent.iter_us_p90.rl", "us", LOOPS, LOOP_TAIL),
    layer("mantis_agent.iter_us_p90.churn", "us", LOOPS, LOOP_TAIL),
    layer("mantis_agent.iter_us_p99", "us", LOOPS, LOOP_TAIL),
    layer("mantis_agent.iter_us_p99_n", "count", LOOPS, NOTHING),
    layer("mantis_agent.iter_us_pmax", "us", LOOPS, LOOP_TAIL),
    layer("mantis_agent.iter_us_pmax_q", "1", LOOPS, NOTHING),
    layer("mantis_agent.virt_measure_us", "virt_us", LOOPS, NOTHING),
    layer("mantis_agent.virt_react_us", "virt_us", LOOPS, NOTHING),
    layer("mantis_agent.virt_update_us", "virt_us", LOOPS, NOTHING),
    layer("mantis_agent.virt_sync_us", "virt_us", LOOPS, NOTHING),
    layer(
        "mantis_agent.staged_ops_per_iter",
        "count",
        LOOPS,
        BOTH_LOOPS,
    ),
    layer("mantis_agent.retries", "count", LOOPS, BOTH_LOOPS),
    layer("mantis_agent.rollbacks", "count", LOOPS, BOTH_LOOPS),
    layer("mantis_agent.reaction_failures", "count", LOOPS, NOTHING),
    layer("mantis_agent.driver_table_mod_ns", "ns", EVERY, BOTH_LOOPS),
    layer(
        "mantis_agent.driver_register_read_ns",
        "ns",
        EVERY,
        BOTH_LOOPS,
    ),
    layer("mantis_agent.driver_init_flip_ns", "ns", EVERY, BOTH_LOOPS),
    layer("mantis_agent.prologue_us", "us", EVERY, SMALL_SETUPS),
    layer("mantis_agent.share", "1", EVERY, BOTH_LOOPS),
    layer("reaction_interp.vm_run_ns", "ns", EVERY, LOCAL_LOOP),
    layer(
        "reaction_interp.vm_dispatch_per_run",
        "count",
        EVERY,
        LOCAL_LOOP,
    ),
    layer("reaction_interp.vm_fallbacks", "count", EVERY, LOCAL_LOOP),
    // Reference only: no workload runs the tree-walker.
    layer("reaction_interp.walker_run_ns", "ns", EVERY, NOTHING),
    layer("reaction_interp.share", "1", EVERY, LOCAL_LOOP),
    layer(
        "mantis_control.encode_ns_per_frame",
        "ns",
        EVERY,
        REMOTE_ONLY,
    ),
    layer(
        "mantis_control.decode_ns_per_frame",
        "ns",
        EVERY,
        REMOTE_ONLY,
    ),
    layer(
        "mantis_control.plane_handle_ns_per_frame",
        "ns",
        EVERY,
        REMOTE_ONLY,
    ),
    layer(
        "mantis_control.frames_per_iter",
        "count",
        &[Rem],
        REMOTE_ONLY,
    ),
    layer(
        "mantis_control.bytes_per_iter",
        "count",
        &[Rem],
        REMOTE_ONLY,
    ),
    layer(
        "mantis_control.batch_size_mean",
        "count",
        &[Rem],
        REMOTE_ONLY,
    ),
    layer("mantis_control.share", "1", EVERY, REMOTE_ONLY),
    layer("p4r_lang.parse_us", "us", EVERY, SMALL_SETUPS),
    layer("p4r_compiler.compile_us", "us", EVERY, SMALL_SETUPS),
    layer("mantis_telemetry.counter_add_ns", "ns", EVERY, TELEMETRY_ON),
    layer("mantis_telemetry.span_ns", "ns", EVERY, TELEMETRY_ON),
    layer(
        "mantis_telemetry.on_overhead_share",
        "1",
        &[Rfab],
        RFAB_SPEED,
    ),
    layer("mantis_telemetry.share", "1", EVERY, TELEMETRY_ON),
    // Virtual time: identical between two runs of a seed unless the
    // modelled behaviour changed.
    layer("sim.virt_iter_us", "virt_us", LOOPS, NOTHING),
    layer("sim.conv_virt_us", "virt_us", &[Rfab], NOTHING),
    layer("bench.trace_overhead_share", "1", EVERY, NOTHING),
    layer("bench.unattributed_share", "1", EVERY, NOTHING),
];

/// Where span files and run records go: `out/` beside this package's
/// manifest, inside the checkout whatever the working directory is.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run one workload once. `trace` selects the traced run (per-layer
/// metrics) over the plain one (end-to-end metrics).
pub fn run_workload(workload: Workload, seed: u64, scale: Scale, trace: bool) -> Outcome {
    if trace {
        return layers::run(workload, seed, scale);
    }
    let mut off = Tracer::new(false);
    match workload {
        Workload::FabricFwd => {
            fabric_fwd::run(seed, fabric_fwd::FabricSize::for_scale(scale), &mut off).0
        }
        Workload::ReactLocal => {
            react::run(
                react::Driver::Local,
                seed,
                react::ReactSize::for_scale(scale),
                &mut off,
            )
            .0
        }
        Workload::ReactRemote => {
            react::run(
                react::Driver::Remote,
                seed,
                react::ReactSize::for_scale(scale),
                &mut off,
            )
            .0
        }
        Workload::ReactiveFabric => {
            let size = reactive_fabric::ReactiveSize::for_scale(scale);
            reactive_fabric::run(seed, size, &mut off).0
        }
    }
}

/// Package an outcome with its run parameters and host descriptor.
pub fn record(workload: Workload, seed: u64, seconds: u64, trace: bool, out: Outcome) -> RunRecord {
    RunRecord {
        workload: workload.name().into(),
        seed,
        seconds,
        trace,
        host: host::HostInfo::capture(seed),
        correct: out.correct(),
        attempted: out.attempted.max(1),
        failed: out.failed,
        checks: out.checks,
        metrics: out.metrics,
        exact: out.exact,
        info: out.info,
    }
}
