//! The control channel: a virtual-clock-accounted, fault-injectable
//! transport between a [`RemoteDriver`](crate::RemoteDriver) (or a
//! controller's arbitration path) and a [`ControlPlane`](crate::ControlPlane).
//!
//! A channel is FIFO and loss/reorder-free *by default*; every deviation
//! is an injected fault from the channel's own [`FaultInjector`], consulted
//! once per frame per direction with the op labels `control_req` /
//! `control_resp` (the [`FaultOp::Control`](mantis_faults::FaultOp::Control)
//! class). Time is charged on the shared virtual clock:
//! `latency_ns + per_frame_ns + len · per_byte_ns` per direction, so a
//! reaction loop's control cost scales with both RTT and frame count —
//! exactly the trade batching exploits.
//!
//! Reliability model: **at-least-once with server-side dedup.** A dropped
//! request or response frame times out and is retried with the *same*
//! sequence number; the [`ControlPlane`] deduplicates by `(client, seq)`
//! and replays the cached response without re-applying, so a lost
//! *response* does not double-apply the batch. Only when every in-channel
//! retry is exhausted does the channel surface a transient
//! [`DriverError::Injected`] — and a caller that then re-sends the batch
//! under a fresh sequence number (the agent's `retry_op`) re-applies it.
//! Test fault plans keep drop budgets below the in-channel retry budget,
//! so that caveat never bites in practice; see DESIGN.md §11.

use crate::plane::ControlPlane;
use crate::wire::{
    encode_request_frame_into, DecodeScratch, DriverOp, DriverResponse, FrameBody, RequestBatch,
};
use mantis_faults::{FaultInjector, FaultPlan, Injection};
use mantis_telemetry::{scopes, CounterId, HistId, Telemetry};
use rmt_sim::{Clock, DriverError, Nanos};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Latency/bandwidth/reliability parameters of one control channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChannelConfig {
    /// One-way propagation latency per frame.
    pub latency_ns: Nanos,
    /// Fixed per-frame serialization/processing overhead, per direction.
    pub per_frame_ns: Nanos,
    /// Per-byte serialization cost, per direction.
    pub per_byte_ns: Nanos,
    /// In-channel retransmissions after a lost frame before the channel
    /// gives up and surfaces a transient transport error.
    pub retries: u32,
    /// Virtual time the sender waits for a lost frame before retrying.
    pub timeout_ns: Nanos,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            latency_ns: 0,
            per_frame_ns: 0,
            per_byte_ns: 0,
            retries: 4,
            timeout_ns: 20_000,
        }
    }
}

impl ChannelConfig {
    /// A channel with the given round-trip time and default reliability.
    pub fn with_rtt(rtt_ns: Nanos) -> Self {
        ChannelConfig {
            latency_ns: rtt_ns / 2,
            ..ChannelConfig::default()
        }
    }

    /// The zero-byte round-trip time of this channel.
    pub fn rtt_ns(&self) -> Nanos {
        2 * (self.latency_ns + self.per_frame_ns)
    }
}

/// One client endpoint of a control channel to a [`ControlPlane`].
pub struct Channel {
    cfg: ChannelConfig,
    clock: Clock,
    injector: FaultInjector,
    plane: Rc<RefCell<ControlPlane>>,
    client: u16,
    next_seq: u64,
    /// The registry of the stack this channel is part of, which the plane
    /// records its side of each frame into as well; `None` (an arbitration
    /// channel, nobody's stack) records nothing.
    telemetry: Option<Arc<Telemetry>>,
    /// Handles for the channel's records, resolved in `set_telemetry`.
    frames: CounterId,
    bytes: CounterId,
    drops: CounterId,
    dups: CounterId,
    rtt_ns: HistId,
    /// The frame [`request`](Channel::request) encodes its ops into.
    req: Vec<u8>,
    /// The response frame of the round trip in progress, as received.
    resp: Vec<u8>,
    /// The last response frame, decoded; its vectors are the next one's.
    answers: DecodeScratch,
}

impl Channel {
    /// Open a channel to `plane`, registering a fresh client identity for
    /// sequence-number dedup.
    pub fn new(plane: Rc<RefCell<ControlPlane>>, cfg: ChannelConfig) -> Self {
        let (clock, client) = {
            let mut p = plane.borrow_mut();
            (p.clock(), p.register_client())
        };
        Channel {
            cfg,
            clock,
            injector: FaultInjector::new(FaultPlan::default()),
            plane,
            client,
            next_seq: 0,
            telemetry: None,
            frames: CounterId::default(),
            bytes: CounterId::default(),
            drops: CounterId::default(),
            dups: CounterId::default(),
            rtt_ns: HistId::default(),
            req: Vec::new(),
            resp: Vec::new(),
            answers: DecodeScratch::default(),
        }
    }

    pub fn config(&self) -> ChannelConfig {
        self.cfg
    }

    /// The dedup identity this channel registered with its plane.
    pub fn client(&self) -> u16 {
        self.client
    }

    /// Record into `telemetry`, the registry of the stack this channel is
    /// part of.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.frames = telemetry.register_counter(scopes::CTR_CONTROL_FRAMES);
        self.bytes = telemetry.register_counter(scopes::CTR_CONTROL_BYTES);
        self.drops = telemetry.register_counter(scopes::CTR_CONTROL_DROPS);
        self.dups = telemetry.register_counter(scopes::CTR_CONTROL_DUPS);
        self.rtt_ns = telemetry.register_hist(scopes::HIST_CONTROL_RTT_NS);
        self.telemetry = Some(telemetry);
    }

    /// Make one burst of records, if anyone is listening.
    fn record(&self, records: impl FnOnce(&Telemetry)) {
        if let Some(telemetry) = &self.telemetry {
            records(telemetry);
        }
    }

    /// Arm a fault plan on this channel (only its `FaultOp::Control`
    /// rules can ever match). Resets the injector's op count.
    pub fn set_plan(&mut self, plan: FaultPlan) {
        let switch = self.injector.switch();
        self.injector = FaultInjector::new(plan);
        self.injector.set_switch(switch);
    }

    pub fn clear_plan(&mut self) {
        self.set_plan(FaultPlan::default());
    }

    /// Declare which fabric switch this channel leads to, so
    /// switch-scoped rules (`FaultPlan::sever_control`) can match it.
    pub fn set_switch(&mut self, switch: Option<u16>) {
        self.injector.set_switch(switch);
    }

    /// Enter a fault-free section (the journaled recovery path bypasses
    /// the faulty transport).
    pub fn suspend_faults(&mut self) {
        self.injector.suspend();
    }

    pub fn resume_faults(&mut self) {
        self.injector.resume();
    }

    pub fn injected_total(&self) -> u64 {
        self.injector.injected_total()
    }

    /// Send one batch of ops and return the (possibly truncated — see
    /// [`crate::wire::DriverResponse`]) batch of responses, which stays in
    /// this channel until the next round trip. Allocates a fresh sequence
    /// number; in-channel retransmissions reuse it.
    pub fn request(&mut self, ops: &[DriverOp]) -> Result<&[DriverResponse], DriverError> {
        let seq = self.fresh_seq();
        let mut req = std::mem::take(&mut self.req);
        encode_request_frame_into(&mut req, seq, ops);
        let done = self.exchange(seq, &req);
        self.req = req;
        done?;
        Ok(self.answers())
    }

    /// [`request`](Channel::request) for a batch its sender keeps encoded.
    pub fn send(&mut self, batch: &mut RequestBatch) -> Result<&mut [DriverResponse], DriverError> {
        let seq = self.fresh_seq();
        self.exchange(seq, batch.seal(seq))?;
        Ok(self.answers())
    }

    fn fresh_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Carry request frame `seq` over and decode the response to it.
    fn exchange(&mut self, seq: u64, request: &[u8]) -> Result<(), DriverError> {
        self.roundtrip(request)?;
        let frame = self
            .answers
            .decode(&self.resp)
            .expect("invariant: control-plane response frames always decode");
        assert_eq!(
            frame.seq, seq,
            "invariant: FIFO channel responses match the in-flight request"
        );
        Ok(())
    }

    /// The responses of the last round trip.
    fn answers(&mut self) -> &mut [DriverResponse] {
        match &mut self.answers.frame.body {
            FrameBody::Response(rs) => rs,
            FrameBody::Request(_) => {
                panic!("invariant: the device end only ever sends response frames")
            }
        }
    }

    /// One at-least-once round trip of pre-encoded request bytes; the
    /// response frame is left in `self.resp`.
    fn roundtrip(&mut self, bytes: &[u8]) -> Result<(), DriverError> {
        let t0 = self.clock.now();
        let mut attempt = 0u32;
        loop {
            match self.attempt(bytes) {
                Ok(()) => {
                    self.record(|w| w.record(self.rtt_ns, self.clock.now() - t0));
                    return Ok(());
                }
                Err(DriverError::Injected {
                    persistent: false, ..
                }) if attempt < self.cfg.retries => {
                    attempt += 1;
                    self.clock.advance(self.cfg.timeout_ns);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One transmission attempt: request over, apply, response back.
    fn attempt(&mut self, bytes: &[u8]) -> Result<(), DriverError> {
        let mut deliveries = 1u32;
        self.transfer(bytes.len());
        match self.injector.decide("control_req", self.clock.now()) {
            Some(Injection::Fail { persistent }) => {
                self.record(|w| w.add(self.drops, 1));
                return Err(DriverError::Injected {
                    op: "control_req",
                    persistent,
                });
            }
            Some(Injection::Delay { factor_milli }) => self.delay(bytes.len(), factor_milli),
            Some(Injection::Duplicate) => deliveries = 2,
            // The controller process dies with the request in hand: it
            // never reaches the device. Not retried (nobody is left to).
            Some(Injection::Crash) => {
                return Err(DriverError::Crashed { op: "control_req" });
            }
            // Stale/Corrupt are read-path faults with no channel meaning.
            Some(Injection::Stale) | Some(Injection::Corrupt { .. }) | None => {}
        }

        // Deliver (twice when duplicated in flight — the plane's seq
        // dedup absorbs the copy and replays the cached response).
        for _ in 0..deliveries {
            self.plane
                .borrow_mut()
                .handle_frame_for(self.client, bytes, &mut self.resp, self.telemetry.as_ref())
                .expect("invariant: channel frames are never corrupted in flight");
        }

        let len = self.resp.len();
        self.transfer(len);
        match self.injector.decide("control_resp", self.clock.now()) {
            Some(Injection::Fail { persistent }) => {
                self.record(|w| w.add(self.drops, 1));
                return Err(DriverError::Injected {
                    op: "control_resp",
                    persistent,
                });
            }
            Some(Injection::Delay { factor_milli }) => self.delay(len, factor_milli),
            // A duplicated response: the client keeps one copy.
            Some(Injection::Duplicate) => self.record(|w| w.add(self.dups, 1)),
            // The controller dies with the response in flight: the batch
            // *was* applied on the device — exactly the torn case the
            // successor's reconcile repairs.
            Some(Injection::Crash) => {
                return Err(DriverError::Crashed { op: "control_resp" });
            }
            Some(Injection::Stale) | Some(Injection::Corrupt { .. }) | None => {}
        }
        Ok(())
    }

    /// Charge one direction's transfer cost and count the frame.
    fn transfer(&mut self, len: usize) -> Nanos {
        let cost =
            self.cfg.latency_ns + self.cfg.per_frame_ns + len as Nanos * self.cfg.per_byte_ns;
        self.clock.advance(cost);
        self.record(|w| {
            w.add(self.frames, 1);
            w.add(self.bytes, len as i128);
        });
        cost
    }

    /// Charge the extra time of a delayed frame: `(factor - 1) ×` the
    /// transfer cost already paid.
    fn delay(&mut self, len: usize, factor_milli: u32) {
        let base = (self.cfg.latency_ns
            + self.cfg.per_frame_ns
            + len as Nanos * self.cfg.per_byte_ns) as u128;
        let extra = base * u128::from(factor_milli.saturating_sub(1_000)) / 1_000;
        self.clock.advance(extra as Nanos);
    }
}

impl std::fmt::Debug for Channel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Channel")
            .field("cfg", &self.cfg)
            .field("client", &self.client)
            .field("next_seq", &self.next_seq)
            .finish()
    }
}
