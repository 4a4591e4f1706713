//! # netsim
//!
//! A deterministic discrete-event network simulator around the `rmt-sim`
//! switch — the stand-in for the paper's 25 Gbps server testbed:
//!
//! * [`sim`] — event queue on the shared virtual clock,
//! * [`topo`] — the fabric graph: `(switch, port)` endpoints wired by
//!   latency/bandwidth links,
//! * [`faults`] — deterministic link flaps scheduled from a fault plan,
//! * [`flows`] — TCP-like AIMD flows, CBR UDP senders (the DoS attacker),
//!   and heartbeat generators,
//! * [`trace`] — seeded synthetic CAIDA-like traces with ground truth,
//! * [`metrics`] — time-bucketed series, median/MAD/percentiles,
//! * [`wheel`] — the hierarchical timing wheel behind the event queue.

#![forbid(unsafe_code)]

pub mod faults;
pub mod flows;
pub mod metrics;
pub mod sim;
pub mod topo;
pub mod trace;
pub mod wheel;

pub use faults::{schedule_link_flap, schedule_link_flaps};
pub use flows::{
    scale_totals, spawn_heartbeats, spawn_heartbeats_on, spawn_scale_flows, spawn_tcp,
    spawn_tcp_on, spawn_udp, spawn_udp_on, HeartbeatConfig, ScaleConfig, ScaleHost, ScaleTotals,
    TcpConfig, TcpState, UdpConfig, UdpState,
};
pub use metrics::{mean, mean_abs_dev, median, percentile, BucketSeries};
pub use sim::{ParStats, Simulator};
pub use topo::{Endpoint, Link, Topology, DEFAULT_LINK_LATENCY_NS, HOST_PORTS};
pub use trace::{generate, Trace, TraceConfig, TracePacket};
pub use wheel::TimingWheel;
