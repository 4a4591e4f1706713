//! The device-side control-plane endpoint.
//!
//! A [`ControlPlane`] sits next to one switch and owns the in-process
//! [`LocalDriver`] for it. Request frames arriving over a
//! [`Channel`](crate::Channel) are decoded and each op handed to
//! [`LocalDriver::submit`](DriverApi::submit), which validates it: a
//! frame naming what the device lacks gets an error response, not a
//! panic. A batch is applied **in order, stopping at the first error** —
//! the response batch is then shorter than the request batch and its
//! last element carries the error, which is what lets the client-side
//! [`RemoteDriver`](crate::RemoteDriver) compute exactly which prefix of
//! a failed batch was applied.
//!
//! Exactly-once semantics over an at-least-once channel come from
//! sequence-number dedup: the last [`DEDUP_WINDOW`] responses to each
//! client are kept, by sequence number, and a re-delivered frame (channel
//! retransmission or an injected duplicate) replays the kept response
//! without touching the device.
//!
//! The plane answers in memory it already owns: a frame is decoded into
//! scratch the next frame reuses, each answer is encoded as it is given
//! into the caller's response buffer, and the copy kept for dedup
//! overwrites the oldest one's bytes.
//!
//! The plane also arbitrates **mastership** (P4Runtime-style): a
//! [`DriverOp::MasterClaim`] is granted when the switch has no master,
//! the incumbent's lease has expired on the virtual clock, or the
//! claimant *is* the incumbent (renewal). Arbitration is cooperative —
//! op batches are not gated on it; a partitioned ex-master is already
//! prevented from reaching the device by the severed channel itself, and
//! controllers stop driving agents when they cannot renew.

use crate::wire::{DecodeScratch, DriverOp, DriverResponse, FrameBody, ResponseFrame, WireError};
use mantis_agent::{CostModel, DriverApi, LocalDriver};
use mantis_telemetry::{scopes, CounterId, Telemetry};
use p4_ast::Value;
use rmt_sim::{Clock, Nanos, SharedSwitch};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Cached responses retained per client for duplicate suppression. The
/// channel's retry budget is far below this, so a retransmission always
/// finds its cached response.
const DEDUP_WINDOW: usize = 32;

/// One client's last [`DEDUP_WINDOW`] response frames by sequence number.
/// Once full the ring allocates nothing: a new response overwrites the
/// oldest one's bytes.
#[derive(Debug, Default)]
struct DedupRing {
    kept: Vec<(u64, Vec<u8>)>,
    /// Where the next response goes: the end while the ring grows, then
    /// the oldest entry.
    next: usize,
    /// The highest sequence number ever kept, so that a fresh one — the
    /// common case — misses without a scan.
    newest: Option<u64>,
}

impl DedupRing {
    fn find(&self, seq: u64) -> Option<&[u8]> {
        if self.newest.is_none_or(|newest| seq > newest) {
            return None;
        }
        let hit = self.kept.iter().find(|(kept, _)| *kept == seq);
        hit.map(|(_, bytes)| bytes.as_slice())
    }

    fn keep(&mut self, seq: u64, response: &[u8]) {
        self.newest = self.newest.max(Some(seq));
        if self.kept.len() < DEDUP_WINDOW {
            self.kept.resize_with(self.next + 1, Default::default);
        }
        let (kept, bytes) = &mut self.kept[self.next];
        *kept = seq;
        bytes.clear();
        bytes.extend_from_slice(response);
        self.next = (self.next + 1) % DEDUP_WINDOW;
    }
}

/// The device-side endpoint: decodes frames onto a [`LocalDriver`].
pub struct ControlPlane {
    driver: LocalDriver,
    /// Where the frame being handled is recorded — by this plane and by
    /// `driver` alike: the registry of the stack that sent it, or `own`.
    recording: Arc<Telemetry>,
    /// The registry for frames that come from outside any stack (an
    /// arbitration channel, a caller of
    /// [`handle_frame`](ControlPlane::handle_frame)).
    own: Arc<Telemetry>,
    /// `control.frames_duplicated` in `recording`'s registry.
    dups: CounterId,
    next_client: u16,
    /// Dedup state per client id.
    dedup: Vec<DedupRing>,
    /// The request frame being handled, decoded.
    request: DecodeScratch,
    /// The vector lent to each op for a read's values, taken back once
    /// the answer is encoded.
    values: Vec<Value>,
    duplicates_seen: u64,
    /// Current master: `(controller id, lease expiry)`.
    master: Option<(u16, Nanos)>,
    had_master: bool,
}

impl ControlPlane {
    pub fn new(switch: SharedSwitch, cost: CostModel) -> Self {
        let own = Telemetry::disabled();
        ControlPlane {
            driver: LocalDriver::new(switch, cost),
            recording: own.clone(),
            own,
            dups: CounterId::default(),
            next_client: 0,
            dedup: Vec::new(),
            request: DecodeScratch::default(),
            values: Vec::new(),
            duplicates_seen: 0,
            master: None,
            had_master: false,
        }
    }

    /// Wrap the plane for sharing with channels and a remote driver.
    pub fn shared(switch: SharedSwitch, cost: CostModel) -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(ControlPlane::new(switch, cost)))
    }

    /// The in-process driver this plane fronts (out-of-band access for
    /// stats, fault arming, and recovery plumbing).
    pub fn driver(&self) -> &LocalDriver {
        &self.driver
    }

    pub fn driver_mut(&mut self) -> &mut LocalDriver {
        &mut self.driver
    }

    /// The switch's virtual clock.
    pub fn clock(&self) -> Clock {
        self.driver.clock().clone()
    }

    /// Hand out a fresh client identity for sequence-number dedup.
    pub fn register_client(&mut self) -> u16 {
        let id = self.next_client;
        self.next_client += 1;
        id
    }

    /// The registry that frames from outside any stack are recorded in.
    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.own = telemetry;
        self.record_into(self.own.clone());
    }

    fn record_into(&mut self, telemetry: Arc<Telemetry>) {
        self.dups = telemetry.register_counter(scopes::CTR_CONTROL_DUPS);
        self.driver.set_telemetry(telemetry.clone());
        self.recording = telemetry;
    }

    /// Duplicate frames absorbed by sequence-number dedup.
    pub fn duplicates_seen(&self) -> u64 {
        self.duplicates_seen
    }

    /// The current master and its lease expiry (which may be in the past).
    pub fn master(&self) -> Option<(u16, Nanos)> {
        self.master
    }

    /// Has *any* controller ever held mastership? A fresh claimant uses
    /// the previous-master field of its grant to decide between a full
    /// prologue and an adoption takeover.
    pub fn had_master(&self) -> bool {
        self.had_master
    }

    /// Decode one request frame, apply its batch, and return the encoded
    /// response frame. Duplicate `(client, seq)` deliveries replay the
    /// cached response without re-applying.
    pub fn handle_frame(&mut self, client: u16, bytes: &[u8]) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::new();
        self.handle_frame_into(client, bytes, &mut out)?;
        Ok(out)
    }

    /// [`handle_frame`](ControlPlane::handle_frame) into a response buffer
    /// the caller keeps: `out` is replaced by the response frame.
    pub fn handle_frame_into(
        &mut self,
        client: u16,
        bytes: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        self.handle_frame_for(client, bytes, out, None)
    }

    /// [`handle_frame_into`](ControlPlane::handle_frame_into) for a frame
    /// of the stack that records into `telemetry`: everything the plane and
    /// its driver record while handling it goes there, in order with what
    /// the sender recorded around it. A plane shared by two controllers
    /// thus never records one's frames in the other's registry. Without a
    /// registry the records go to the plane's own.
    pub(crate) fn handle_frame_for(
        &mut self,
        client: u16,
        bytes: &[u8],
        out: &mut Vec<u8>,
        telemetry: Option<&Arc<Telemetry>>,
    ) -> Result<(), WireError> {
        let to = telemetry.unwrap_or(&self.own);
        if !Arc::ptr_eq(to, &self.recording) {
            let to = to.clone();
            self.record_into(to);
        }
        self.handle(client, bytes, out)
    }

    fn handle(&mut self, client: u16, bytes: &[u8], out: &mut Vec<u8>) -> Result<(), WireError> {
        let frame = self.request.decode(bytes)?;
        let seq = frame.seq;
        let ops = match &mut frame.body {
            // Out of the scratch while `self` applies them.
            FrameBody::Request(ops) => std::mem::take(ops),
            FrameBody::Response(_) => {
                return Err(WireError::BadTag {
                    what: "direction",
                    tag: 1,
                })
            }
        };
        if self.dedup.len() <= usize::from(client) {
            self.dedup
                .resize_with(usize::from(client) + 1, DedupRing::default);
        }
        if let Some(cached) = self.dedup[usize::from(client)].find(seq) {
            self.duplicates_seen += 1;
            self.recording.add(self.dups, 1);
            out.clear();
            out.extend_from_slice(cached);
        } else {
            let mut response = ResponseFrame::begin(out);
            for op in &ops {
                let r = self.apply(op);
                response.push(&r);
                match r {
                    DriverResponse::Err(_) => break,
                    // A read's values are encoded: the vector is lent again.
                    DriverResponse::Values(values) => self.values = values,
                    _ => {}
                }
            }
            response.end(seq);
            self.dedup[usize::from(client)].keep(seq, out);
        }
        self.request.frame.body = FrameBody::Request(ops);
        Ok(())
    }

    /// Answer the mastership ops here; every other op is the device
    /// driver's.
    fn apply(&mut self, op: &DriverOp) -> DriverResponse {
        match *op {
            DriverOp::MasterClaim {
                controller,
                lease_ns,
            } => self.master_claim(controller, lease_ns),
            DriverOp::MasterProbe => DriverResponse::Master {
                granted: false,
                master: self.master.map(|(c, _)| c),
                expires: self.master.map_or(0, |(_, exp)| exp),
            },
            _ => {
                let answer = self.driver.submit_reusing(op, &mut self.values);
                answer.unwrap_or_else(DriverResponse::Err)
            }
        }
    }

    /// Grant mastership when the switch has no master, the incumbent's
    /// lease expired, or the claimant is the incumbent (renewal). A grant
    /// reports the *previous* holder in the `master` field ("granted; you
    /// replaced X") so a fresh claimant can distinguish a first-boot
    /// prologue (`None`) from a failover takeover (`Some(other)`).
    fn master_claim(&mut self, controller: u16, lease_ns: Nanos) -> DriverResponse {
        let now = self.driver.clock().now();
        match self.master {
            Some((incumbent, expires)) if incumbent != controller && now < expires => {
                DriverResponse::Master {
                    granted: false,
                    master: Some(incumbent),
                    expires,
                }
            }
            prev => {
                let expires = now.saturating_add(lease_ns);
                self.master = Some((controller, expires));
                self.had_master = true;
                DriverResponse::Master {
                    granted: true,
                    master: prev.map(|(c, _)| c),
                    expires,
                }
            }
        }
    }
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("clients", &self.next_client)
            .field("master", &self.master)
            .field("duplicates_seen", &self.duplicates_seen)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{decode_frame, encode_request_frame};
    use rmt_sim::{
        switch_from_source, DriverError, EntryHandle, KeyField, RegisterId, SwitchConfig,
        TableError, TableId,
    };

    fn request(plane: &mut ControlPlane, seq: u64, ops: &[DriverOp]) -> Vec<DriverResponse> {
        request_as(plane, 0, seq, ops).1
    }

    /// Client `client`'s frame `seq`: the response bytes, and decoded.
    fn request_as(
        plane: &mut ControlPlane,
        client: u16,
        seq: u64,
        ops: &[DriverOp],
    ) -> (Vec<u8>, Vec<DriverResponse>) {
        let out = plane
            .handle_frame(client, &encode_request_frame(seq, ops))
            .expect("a well-formed frame is answered");
        match decode_frame(&out).expect("response decodes").body {
            FrameBody::Response(rs) => (out, rs),
            FrameBody::Request(_) => panic!("plane answered with a request frame"),
        }
    }

    /// A plane over a one-table, one-register switch; with it the switch
    /// and the ids of table `t` and its action `nop`.
    fn plane() -> (ControlPlane, SharedSwitch, TableId, rmt_sim::ActionId) {
        let sw = switch_from_source(
            r#"
header_type h_t { fields { a : 32; } }
header h_t h;
register r { width : 32; instance_count : 8; }
action nop() { no_op(); }
table t { reads { h.a : exact; } actions { nop; } size : 16; }
control ingress { apply(t); }
"#,
            SwitchConfig::default(),
            Clock::new(),
        )
        .unwrap();
        let switch = SharedSwitch::new(sw);
        let plane = ControlPlane::new(switch.clone(), CostModel::default());
        let (t, nop) = {
            let d = plane.driver();
            (d.table_id("t").unwrap(), d.action_id("nop").unwrap())
        };
        (plane, switch, t, nop)
    }

    fn add(t: TableId, nop: rmt_sim::ActionId, key: u128) -> DriverOp {
        DriverOp::TableAdd {
            table: t,
            key: vec![KeyField::Exact(Value::new(key, 32))],
            priority: 0,
            action: nop,
            data: vec![],
        }
    }

    /// Frames are bytes from outside the process: naming a table,
    /// checkpoint or range the device lacks must cost an error response,
    /// never the plane.
    #[test]
    fn frames_naming_what_the_device_lacks_get_errors_and_the_plane_stays_up() {
        let (mut plane, switch, t, nop) = plane();

        let bad_table = DriverOp::TableMod {
            table: TableId(999),
            handle: EntryHandle(1),
            action: nop,
            data: vec![],
        };
        assert_eq!(
            request(&mut plane, 1, &[bad_table]),
            [DriverResponse::Err(DriverError::UnknownTable(
                "#999".into()
            ))]
        );
        let dead_token = DriverOp::TableRestore {
            table: t,
            token: 77,
        };
        assert_eq!(
            request(&mut plane, 2, &[dead_token]),
            [DriverResponse::Err(DriverError::Table(
                TableError::UnknownHandle(EntryHandle(77))
            ))]
        );
        assert_eq!(plane.clock().now(), 0, "a refused op costs nothing");
        let inverted = DriverOp::RegisterReadRange {
            reg: RegisterId(0),
            lo: 5,
            hi: 3,
        };
        let forever = DriverOp::MasterClaim {
            controller: 1,
            lease_ns: u64::MAX,
        };
        let rs = request(&mut plane, 3, &[inverted, forever]);
        assert_eq!(rs[0], DriverResponse::Values(vec![]));
        assert!(matches!(
            rs[1],
            DriverResponse::Master { granted: true, .. }
        ));

        // The plane is still up: a valid frame on it is applied.
        assert!(matches!(
            request(&mut plane, 4, &[add(t, nop, 1)])[..],
            [DriverResponse::Handle(_)]
        ));
        assert_eq!(switch.borrow().table_len(t), 1);
    }

    /// A duration off the wire can park the clock at the horizon; the ops
    /// after it are still answered and applied.
    #[test]
    fn a_saturated_clock_does_not_take_the_plane_down() {
        let (mut plane, switch, t, nop) = plane();
        let forever = DriverOp::SpendExternal { dur: u64::MAX };
        assert_eq!(request(&mut plane, 1, &[forever]), [DriverResponse::Ok]);
        assert_eq!(plane.clock().now(), u64::MAX);
        assert!(matches!(
            request(&mut plane, 2, &[add(t, nop, 1)])[..],
            [DriverResponse::Handle(_)]
        ));
        assert_eq!(switch.borrow().table_len(t), 1);
    }

    /// A number above the newest kept misses before any scan, a
    /// retransmit inside the window hits, and one that fell out of the
    /// window misses even though it is below the newest.
    #[test]
    fn dedup_ring_misses_fresh_and_evicted_numbers_and_hits_retransmits() {
        let mut ring = DedupRing::default();
        assert_eq!(ring.find(0), None, "an empty ring keeps nothing");
        for seq in 0..DEDUP_WINDOW as u64 + 8 {
            ring.keep(seq, &seq.to_le_bytes());
        }
        let newest = DEDUP_WINDOW as u64 + 7;
        assert_eq!(ring.newest, Some(newest));
        assert_eq!(ring.find(newest + 1), None, "fresh");
        assert_eq!(ring.find(newest), Some(&newest.to_le_bytes()[..]));
        assert_eq!(ring.find(9), Some(&9u64.to_le_bytes()[..]), "retransmit");
        assert_eq!(ring.find(7), None, "older than the window");
    }

    /// The dedup ring is the `(client, seq)` → response map it replaced: a
    /// re-delivery inside the window replays the first answer's bytes and
    /// touches nothing, one that fell out of it is applied again, and
    /// clients have a window each.
    #[test]
    fn dedup_replays_inside_the_window_and_only_there_per_client() {
        let (mut plane, switch, t, nop) = plane();
        let (first, _) = request_as(&mut plane, 0, 0, &[add(t, nop, 100)]);
        // Another client under the same sequence number is not a duplicate.
        request_as(&mut plane, 1, 0, &[add(t, nop, 200)]);
        assert_eq!(
            (switch.borrow().table_len(t), plane.duplicates_seen()),
            (2, 0)
        );

        // DEDUP_WINDOW - 1 more frames of client 0 leave frame 0 the oldest
        // one kept — and client 1's window alone.
        let probe = [DriverOp::PortUp { port: 0 }];
        for seq in 1..DEDUP_WINDOW as u64 {
            request_as(&mut plane, 0, seq, &probe);
        }
        let (again, rs) = request_as(&mut plane, 0, 0, &[add(t, nop, 100)]);
        assert_eq!(again, first, "the replay is the bytes of the first answer");
        assert!(matches!(rs[..], [DriverResponse::Handle(_)]));
        assert_eq!(
            (switch.borrow().table_len(t), plane.duplicates_seen()),
            (2, 1)
        );
        // A duplicate is answered whatever the re-delivered frame carries.
        let (again, _) = request_as(&mut plane, 0, 0, &probe);
        assert_eq!(again, first);

        // One more frame evicts frame 0: re-delivered now, it is applied.
        request_as(&mut plane, 0, DEDUP_WINDOW as u64, &probe);
        let (third, rs) = request_as(&mut plane, 0, 0, &[add(t, nop, 101)]);
        assert!(matches!(rs[..], [DriverResponse::Handle(_)]));
        assert_ne!(third, first, "a second entry has a second handle");
        assert_eq!(
            (switch.borrow().table_len(t), plane.duplicates_seen()),
            (3, 2)
        );
        // Client 1 sent nothing since: its frame 0 is still in its window.
        request_as(&mut plane, 1, 0, &probe);
        assert_eq!(
            (switch.borrow().table_len(t), plane.duplicates_seen()),
            (3, 3)
        );
    }
}
