//! # mantis-control
//!
//! The remote runtime control plane: everything that lets a Mantis agent
//! run *off* the switch CPU, over a wire, without giving up the paper's
//! reaction-loop semantics (DESIGN.md §11).
//!
//! Layers, bottom up:
//!
//! * [`wire`] — the versioned binary protocol: every
//!   [`DriverApi`](mantis_agent::DriverApi) op and response has a compact
//!   encoding; frames are length-prefixed batches and a [`FrameDecoder`]
//!   reassembles them from arbitrarily split byte chunks.
//! * [`channel`] — a virtual-clock-accounted transport (per-direction
//!   latency + per-frame + per-byte cost) with deterministic fault
//!   injection (`FaultOp::Control` rules: dropped, duplicated, delayed
//!   frames) and in-channel retransmission.
//! * [`plane`] — the device-side endpoint: decodes frames onto the
//!   in-process [`LocalDriver`](mantis_agent::LocalDriver), applies
//!   batches in order stopping at the first error, dedups re-delivered
//!   frames by sequence number, and arbitrates lease-based mastership.
//! * [`remote`] — [`RemoteDriver`], the agent-facing driver that defers
//!   result-less mutations into pipelined batches and flushes them at
//!   barriers (reads, `table_add`, init flips — RBFRT-style).
//! * [`controller`] — [`Controller`], which runs one agent per switch
//!   behind remote drivers and implements standby failover: when the
//!   primary's channels are severed its lease expires and a standby
//!   claims, **adopts** the initialised switches, and carries on.

#![forbid(unsafe_code)]

pub mod channel;
pub mod controller;
pub mod plane;
pub mod remote;
pub mod wire;

pub use channel::{Channel, ChannelConfig};
pub use controller::{AgentSetup, Controller, ControllerConfig, StepReport};
pub use plane::ControlPlane;
pub use remote::RemoteDriver;
pub use wire::{
    decode_frame, encode_request_frame, encode_request_frame_into, encode_response_frame,
    encode_response_frame_into, DecodeScratch, DriverOp, DriverResponse, Frame, FrameBody,
    FrameDecoder, RequestBatch, WireError,
};

use mantis_agent::{CostModel, MantisAgent};
use p4r_compiler::Compiled;
use rmt_sim::SharedSwitch;
use std::cell::RefCell;
use std::rc::Rc;

/// Build a remotely-driven agent for `switch`: a [`ControlPlane`] next to
/// the switch, a [`RemoteDriver`] over a channel with `cfg`, and a
/// [`MantisAgent`] on top. The returned plane handle gives tests and the
/// testbed out-of-band access (mastership state, duplicate counters).
///
/// The prologue is *not* run — callers drive it exactly like the local
/// path (`agent.prologue()`), so construction order matches
/// `Fabric::with_driver_mode`.
pub fn remote_agent(
    switch: SharedSwitch,
    compiled: &Compiled,
    cost: CostModel,
    cfg: ChannelConfig,
) -> (MantisAgent, Rc<RefCell<ControlPlane>>) {
    let plane = ControlPlane::shared(switch, cost);
    let driver = RemoteDriver::new(plane.clone(), cfg);
    let agent = MantisAgent::with_driver(compiled, Box::new(driver));
    (agent, plane)
}
