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
//! sequence-number dedup: responses are cached per `(client, seq)`, and
//! a re-delivered frame (channel retransmission or an injected
//! duplicate) replays the cached response without touching the device.
//!
//! The plane also arbitrates **mastership** (P4Runtime-style): a
//! [`DriverOp::MasterClaim`] is granted when the switch has no master,
//! the incumbent's lease has expired on the virtual clock, or the
//! claimant *is* the incumbent (renewal). Arbitration is cooperative —
//! op batches are not gated on it; a partitioned ex-master is already
//! prevented from reaching the device by the severed channel itself, and
//! controllers stop driving agents when they cannot renew.

use crate::wire::{
    decode_frame, encode_response_frame, DriverOp, DriverResponse, FrameBody, WireError,
};
use mantis_agent::{CostModel, DriverApi, LocalDriver};
use mantis_telemetry::{scopes, Telemetry};
use rmt_sim::{Clock, Nanos, SharedSwitch};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Cached responses retained per client for duplicate suppression. The
/// channel's retry budget is far below this, so a retransmission always
/// finds its cached response.
const DEDUP_WINDOW: usize = 32;

/// The device-side endpoint: decodes frames onto a [`LocalDriver`].
pub struct ControlPlane {
    driver: LocalDriver,
    telemetry: Arc<Telemetry>,
    next_client: u16,
    dedup: HashMap<(u16, u64), Vec<u8>>,
    dedup_order: HashMap<u16, VecDeque<u64>>,
    duplicates_seen: u64,
    /// Current master: `(controller id, lease expiry)`.
    master: Option<(u16, Nanos)>,
    had_master: bool,
}

impl ControlPlane {
    pub fn new(switch: SharedSwitch, cost: CostModel) -> Self {
        ControlPlane {
            driver: LocalDriver::new(switch, cost),
            telemetry: Telemetry::disabled(),
            next_client: 0,
            dedup: HashMap::new(),
            dedup_order: HashMap::new(),
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

    pub fn set_telemetry(&mut self, telemetry: Arc<Telemetry>) {
        self.driver.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
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
        let frame = decode_frame(bytes)?;
        let ops = match frame.body {
            FrameBody::Request(ops) => ops,
            FrameBody::Response(_) => {
                return Err(WireError::BadTag {
                    what: "direction",
                    tag: 1,
                })
            }
        };
        if let Some(cached) = self.dedup.get(&(client, frame.seq)) {
            self.duplicates_seen += 1;
            self.telemetry.counter_add(scopes::CTR_CONTROL_DUPS, 1);
            return Ok(cached.clone());
        }

        let mut resps = Vec::with_capacity(ops.len());
        for op in ops {
            let r = self.apply(op);
            let failed = matches!(r, DriverResponse::Err(_));
            resps.push(r);
            if failed {
                break;
            }
        }
        let out = encode_response_frame(frame.seq, &resps);
        self.remember(client, frame.seq, out.clone());
        Ok(out)
    }

    fn remember(&mut self, client: u16, seq: u64, resp: Vec<u8>) {
        let order = self.dedup_order.entry(client).or_default();
        order.push_back(seq);
        self.dedup.insert((client, seq), resp);
        while order.len() > DEDUP_WINDOW {
            let evicted = order.pop_front().expect("non-empty after len check");
            self.dedup.remove(&(client, evicted));
        }
    }

    /// Answer the mastership ops here; every other op is the device
    /// driver's, handed over by value.
    fn apply(&mut self, op: DriverOp) -> DriverResponse {
        match op {
            DriverOp::MasterClaim {
                controller,
                lease_ns,
            } => self.master_claim(controller, lease_ns),
            DriverOp::MasterProbe => DriverResponse::Master {
                granted: false,
                master: self.master.map(|(c, _)| c),
                expires: self.master.map_or(0, |(_, exp)| exp),
            },
            op => self.driver.submit(op).unwrap_or_else(DriverResponse::Err),
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
    use crate::wire::encode_request_frame;
    use p4_ast::Value;
    use rmt_sim::{
        switch_from_source, DriverError, EntryHandle, KeyField, RegisterId, SwitchConfig,
        TableError, TableId,
    };

    fn request(plane: &mut ControlPlane, seq: u64, ops: &[DriverOp]) -> Vec<DriverResponse> {
        let out = plane
            .handle_frame(0, &encode_request_frame(seq, ops))
            .expect("a well-formed frame is answered");
        match decode_frame(&out).expect("response decodes").body {
            FrameBody::Response(rs) => rs,
            FrameBody::Request(_) => panic!("plane answered with a request frame"),
        }
    }

    /// Frames are bytes from outside the process: naming a table,
    /// checkpoint or range the device lacks must cost an error response,
    /// never the plane.
    #[test]
    fn frames_naming_what_the_device_lacks_get_errors_and_the_plane_stays_up() {
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
        let mut plane = ControlPlane::new(switch.clone(), CostModel::default());
        let (t, nop) = {
            let d = plane.driver();
            (d.table_id("t").unwrap(), d.action_id("nop").unwrap())
        };

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
        let add = DriverOp::TableAdd {
            table: t,
            key: vec![KeyField::Exact(Value::new(1, 32))],
            priority: 0,
            action: nop,
            data: vec![],
        };
        assert!(matches!(
            request(&mut plane, 4, &[add])[..],
            [DriverResponse::Handle(_)]
        ));
        assert_eq!(switch.borrow().table_len(t), 1);
    }
}
