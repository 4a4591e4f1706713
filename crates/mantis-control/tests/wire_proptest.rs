//! Property tests over random [`DriverOp`]s.
//!
//! The wire codec is a faithful roundtrip under arbitrary transport
//! fragmentation: random request/response batches are encoded,
//! concatenated into one byte stream, split at random boundaries, and fed
//! chunk-by-chunk to a [`FrameDecoder`] — the decoded frames must equal
//! the originals exactly, regardless of where the splits fall (including
//! mid-header and mid-length-prefix).
//!
//! The codec is one codec whoever owns the buffers: encoding into a
//! dirty, reused buffer gives the bytes of a fresh encode, a
//! [`RequestBatch`] built op by op seals to them too, and decoding into
//! scratch that still holds the last frame gives the fresh decode.
//!
//! The two drivers agree op for op: the same generator, its ids fitted to
//! a small fixed program, drives a `LocalDriver` and a `RemoteDriver` at
//! RTT 0 — equal answers, equal device state, equal `DriverStats`; and
//! with a share of ids and tokens the device lacks, equal errors and no
//! panic on either side. The deferred batch, kept as bytes, answers an
//! error in its middle as the batch of ops it replaced did: a model of
//! that batch (`ModelBatch`) runs beside the driver.

use mantis_agent::driver::EntrySnapshot;
use mantis_agent::{CostModel, DriverApi, LocalDriver};
use mantis_control::wire::{
    encode_request_frame, encode_request_frame_into, encode_response_frame,
    encode_response_frame_into, DecodeScratch, Frame, FrameBody, RequestBatch,
};
use mantis_control::{
    ChannelConfig, ControlPlane, DriverOp, DriverResponse, FrameDecoder, RemoteDriver,
};
use p4_ast::{MatchKind, Value};
use proptest::collection::vec;
use proptest::prelude::*;
use rmt_sim::{
    switch_from_source, ActionId, Clock, DriverError, EntryHandle, KeyField, PortId, ReadAgg,
    RegisterId, SharedSwitch, Switch, SwitchConfig, TableError, TableId,
};

fn value_strategy() -> impl Strategy<Value = Value> {
    (any::<u128>(), 1u16..=128).prop_map(|(bits, width)| Value::new(bits, width))
}

fn key_field_strategy() -> impl Strategy<Value = KeyField> {
    prop_oneof![
        value_strategy().prop_map(KeyField::Exact),
        (value_strategy(), value_strategy())
            .prop_map(|(value, mask)| KeyField::Ternary { value, mask }),
        (value_strategy(), 0u16..=128)
            .prop_map(|(value, prefix_len)| KeyField::Lpm { value, prefix_len }),
    ]
}

fn driver_op_strategy() -> impl Strategy<Value = DriverOp> {
    let values = vec(value_strategy(), 0..4).boxed();
    prop_oneof![
        (
            any::<u32>(),
            vec(key_field_strategy(), 0..4),
            any::<u32>(),
            any::<u32>(),
            values.clone(),
        )
            .prop_map(|(t, key, priority, a, data)| DriverOp::TableAdd {
                table: TableId(t),
                key,
                priority,
                action: ActionId(a),
                data,
            }),
        (any::<u32>(), any::<u64>(), any::<u32>(), values.clone()).prop_map(|(t, h, a, data)| {
            DriverOp::TableMod {
                table: TableId(t),
                handle: EntryHandle(h),
                action: ActionId(a),
                data,
            }
        }),
        (any::<u32>(), any::<u64>()).prop_map(|(t, h)| DriverOp::TableDel {
            table: TableId(t),
            handle: EntryHandle(h),
        }),
        (any::<u32>(), any::<u32>(), values.clone(), any::<bool>()).prop_map(
            |(t, a, data, is_init_flip)| DriverOp::SetDefault {
                table: TableId(t),
                action: ActionId(a),
                data,
                is_init_flip,
            }
        ),
        (
            any::<u16>(),
            any::<u32>(),
            any::<u32>(),
            values,
            any::<bool>(),
        )
            .prop_map(|(pipe, t, a, data, is_init_flip)| DriverOp::SetDefaultOn {
                pipe,
                table: TableId(t),
                action: ActionId(a),
                data,
                is_init_flip,
            }),
        (any::<u32>(), any::<u32>(), value_strategy()).prop_map(|(r, index, value)| {
            DriverOp::RegisterWrite {
                reg: RegisterId(r),
                index,
                value,
            }
        }),
        (any::<PortId>(), any::<bool>()).prop_map(|(port, up)| DriverOp::PortSetUp { port, up }),
        (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(r, lo, hi)| {
            DriverOp::RegisterReadRange {
                reg: RegisterId(r),
                lo,
                hi,
            }
        }),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            prop_oneof![Just(ReadAgg::Sum), Just(ReadAgg::Max)],
        )
            .prop_map(|(r, lo, hi, agg)| DriverOp::RegisterReadAgg {
                reg: RegisterId(r),
                lo,
                hi,
                agg,
            }),
        any::<PortId>().prop_map(|port| DriverOp::PortUp { port }),
        any::<u64>().prop_map(|dur| DriverOp::SpendExternal { dur }),
        any::<u32>().prop_map(|tables| DriverOp::SpendRollback { tables }),
        any::<u32>().prop_map(|t| DriverOp::TableCheckpoint { table: TableId(t) }),
        (any::<u32>(), any::<u64>()).prop_map(|(t, token)| DriverOp::TableRestore {
            table: TableId(t),
            token,
        }),
        any::<u64>().prop_map(|token| DriverOp::CheckpointDiscard { token }),
        (any::<u16>(), any::<u64>()).prop_map(|(controller, lease_ns)| DriverOp::MasterClaim {
            controller,
            lease_ns,
        }),
        Just(DriverOp::MasterProbe),
        (any::<u16>(), any::<u32>()).prop_map(|(pipe, t)| DriverOp::TableDefaultOn {
            pipe,
            table: TableId(t),
        }),
        any::<u32>().prop_map(|t| DriverOp::TableDump { table: TableId(t) }),
    ]
}

/// `Injected.op` carries a `&'static str`; the wire maps it through a
/// fixed label table, so roundtrip only holds for known labels.
const OP_NAMES: &[&str] = &[
    "table_add",
    "table_mod",
    "table_del",
    "set_default",
    "init_flip",
    "register_read",
    "field_word_read",
    "field_poll",
    "register_write",
    "port_set",
    "rollback",
    "control_req",
    "control_resp",
];

fn table_error_strategy() -> impl Strategy<Value = TableError> {
    prop_oneof![
        (0usize..8, 0usize..8)
            .prop_map(|(expected, got)| TableError::KeyArityMismatch { expected, got }),
        (
            0usize..8,
            prop_oneof![
                Just(MatchKind::Exact),
                Just(MatchKind::Ternary),
                Just(MatchKind::Lpm),
            ],
        )
            .prop_map(|(index, expected)| TableError::KeyKindMismatch { index, expected }),
        any::<u64>().prop_map(|h| TableError::UnknownHandle(EntryHandle(h))),
        any::<u32>().prop_map(|a| TableError::UnknownAction(ActionId(a))),
        any::<u32>().prop_map(|capacity| TableError::TableFull { capacity }),
        (0usize..8, 0usize..8)
            .prop_map(|(expected, got)| TableError::ActionDataArity { expected, got }),
    ]
}

fn driver_error_strategy() -> impl Strategy<Value = DriverError> {
    prop_oneof![
        table_error_strategy().prop_map(DriverError::Table),
        "[a-z_]{0,12}".prop_map(DriverError::UnknownTable),
        "[a-z_]{0,12}".prop_map(DriverError::UnknownRegister),
        "[a-z_]{0,12}".prop_map(DriverError::UnknownAction),
        any::<PortId>().prop_map(DriverError::BadPort),
        any::<u16>().prop_map(DriverError::BadPipe),
        (0..OP_NAMES.len(), any::<bool>()).prop_map(|(i, persistent)| DriverError::Injected {
            op: OP_NAMES[i],
            persistent,
        }),
        (0..OP_NAMES.len()).prop_map(|i| DriverError::Crashed { op: OP_NAMES[i] }),
    ]
}

fn entry_strategy() -> impl Strategy<Value = EntrySnapshot> {
    (
        any::<u64>(),
        vec(key_field_strategy(), 0..4),
        any::<u32>(),
        any::<u32>(),
        vec(value_strategy(), 0..4),
    )
        .prop_map(|(h, key, priority, a, data)| EntrySnapshot {
            handle: EntryHandle(h),
            key,
            priority,
            action: ActionId(a),
            data,
        })
}

fn response_strategy() -> impl Strategy<Value = DriverResponse> {
    prop_oneof![
        Just(DriverResponse::Ok),
        any::<u64>().prop_map(|h| DriverResponse::Handle(EntryHandle(h))),
        vec(value_strategy(), 0..6).prop_map(DriverResponse::Values),
        prop_oneof![Just(None), Just(Some(false)), Just(Some(true))]
            .prop_map(DriverResponse::PortState),
        any::<u64>().prop_map(DriverResponse::Token),
        (
            any::<bool>(),
            prop_oneof![Just(None), any::<u16>().prop_map(Some)],
            any::<u64>(),
        )
            .prop_map(|(granted, master, expires)| DriverResponse::Master {
                granted,
                master,
                expires,
            }),
        driver_error_strategy().prop_map(DriverResponse::Err),
        (any::<u32>(), vec(value_strategy(), 0..4)).prop_map(|(a, data)| {
            DriverResponse::DefaultAction {
                action: ActionId(a),
                data,
            }
        }),
        vec(entry_strategy(), 0..3).prop_map(DriverResponse::Entries),
    ]
}

fn frame_strategy() -> impl Strategy<Value = (u64, Frame, Vec<u8>)> {
    let request = (any::<u64>(), vec(driver_op_strategy(), 0..6)).prop_map(|(seq, ops)| {
        let bytes = encode_request_frame(seq, &ops);
        (
            seq,
            Frame {
                seq,
                body: FrameBody::Request(ops),
            },
            bytes,
        )
    });
    let response = (any::<u64>(), vec(response_strategy(), 0..6)).prop_map(|(seq, rs)| {
        let bytes = encode_response_frame(seq, &rs);
        (
            seq,
            Frame {
                seq,
                body: FrameBody::Response(rs),
            },
            bytes,
        )
    });
    prop_oneof![request, response]
}

// -- local vs remote ---------------------------------------------------------

/// Two tables of different key shape and action sets, two registers of
/// different width; the switch has two pipes and [`NUM_PORTS`] ports.
const PROGRAM: &str = r#"
header_type h_t { fields { a : 32; b : 16; } }
header h_t h;
register r0 { width : 32; instance_count : 8; }
register r1 { width : 16; instance_count : 4; }
action nop() { no_op(); }
action set_b(v) { modify_field(h.b, v); }
table t0 { reads { h.a : exact; } actions { nop; set_b; } size : 64; }
table t1 { reads { h.a : ternary; h.b : exact; } actions { set_b; } size : 64; }
control ingress { apply(t0); apply(t1); }
"#;

const NUM_PORTS: u16 = 4;

fn fresh_switch() -> SharedSwitch {
    let config = SwitchConfig {
        num_ports: NUM_PORTS,
        num_pipes: 2,
        ..SwitchConfig::default()
    };
    SharedSwitch::new(switch_from_source(PROGRAM, config, Clock::new()).unwrap())
}

/// `x` folded onto `0..n + slack`: with `slack` 1, `n` itself — one past
/// the last thing the device has — comes up too. An empty range folds
/// onto 0, which is past its end as well.
fn fold(x: u64, n: usize, slack: u64) -> usize {
    (x % (n as u64 + slack).max(1)) as usize
}

/// Fit a generated op to `sw`, the local device as it stands now: table,
/// action, register, pipe and port ids in range, the handle a live one,
/// the token one of `tokens` (the live checkpoints), key and action data
/// of the table's shape — so that with `slack` 0 the op succeeds. With
/// `slack` 1 each of those may also name what the device lacks. `None`
/// for an op with nothing to address (no live entry, no live token) and
/// for the mastership ops, which a device driver does not answer.
fn fit(
    raw: DriverOp,
    i: usize,
    sw: &Switch,
    tokens: &[(TableId, u64)],
    slack: u64,
) -> Option<DriverOp> {
    let spec = sw.spec();
    let table = |t: TableId| TableId(fold(t.0.into(), spec.tables.len(), slack) as u32);
    let reg = |r: RegisterId| RegisterId(fold(r.0.into(), spec.registers.len(), slack) as u32);
    let pipe = |p: u16| fold(p.into(), sw.num_pipes().into(), slack) as u16;
    let port = |p: PortId| fold(p.into(), NUM_PORTS.into(), slack) as PortId;
    // An action bound to the table with data of its arity, or (slack) any
    // action id up to one past the last with the data as generated.
    let action = |t: TableId, a: ActionId, data: Vec<Value>| match spec.tables.get(t.0 as usize) {
        Some(ts) if slack == 0 => {
            let a = ts.actions[a.0 as usize % ts.actions.len()];
            let widths = &spec.actions[a.0 as usize].param_widths;
            (
                a,
                widths.iter().map(|w| Value::new(i as u128, *w)).collect(),
            )
        }
        _ => (
            ActionId(fold(a.0.into(), spec.actions.len(), 1) as u32),
            data,
        ),
    };
    // A live handle of the table; with slack also a dead one.
    let handle = |t: TableId, h: EntryHandle| {
        let live: Vec<EntryHandle> = match spec.tables.get(t.0 as usize) {
            Some(_) => sw.table_ref(t).entries().map(|e| e.handle).collect(),
            None => Vec::new(),
        };
        match live.get(fold(h.0, live.len(), slack)) {
            Some(h) => Some(*h),
            None if slack == 1 => Some(EntryHandle(h.0 | 1 << 40)),
            None => None,
        }
    };
    let token = |tok: u64| match tokens.get(fold(tok, tokens.len(), slack)) {
        Some(live) => Some(*live),
        None if slack == 1 => Some((TableId(tok as u32 % 2), tok | 1 << 40)),
        None => None,
    };
    Some(match raw {
        DriverOp::TableAdd {
            table: t,
            priority,
            action: a,
            data,
            ..
        } => {
            let t = table(t);
            let (action, data) = action(t, a, data);
            // A well-formed key no other entry has.
            let key = spec.tables.get(t.0 as usize).map_or(Vec::new(), |ts| {
                let field = |k: &rmt_sim::spec::KeySpec| match k.kind {
                    MatchKind::Exact => KeyField::Exact(Value::new(i as u128, k.width)),
                    MatchKind::Ternary => KeyField::Ternary {
                        value: Value::new(i as u128, k.width),
                        mask: Value::ones(k.width),
                    },
                    MatchKind::Lpm => KeyField::Lpm {
                        value: Value::new(i as u128, k.width),
                        prefix_len: k.width,
                    },
                };
                ts.key.iter().map(field).collect()
            });
            DriverOp::TableAdd {
                table: t,
                key,
                priority: priority % 8,
                action,
                data,
            }
        }
        DriverOp::TableMod {
            table: t,
            handle: h,
            action: a,
            data,
        } => {
            let t = table(t);
            let (action, data) = action(t, a, data);
            DriverOp::TableMod {
                table: t,
                handle: handle(t, h)?,
                action,
                data,
            }
        }
        DriverOp::TableDel {
            table: t,
            handle: h,
        } => {
            let t = table(t);
            DriverOp::TableDel {
                table: t,
                handle: handle(t, h)?,
            }
        }
        DriverOp::SetDefault {
            table: t,
            action: a,
            data,
            is_init_flip,
        } => {
            let t = table(t);
            let (action, data) = action(t, a, data);
            DriverOp::SetDefault {
                table: t,
                action,
                data,
                is_init_flip,
            }
        }
        DriverOp::SetDefaultOn {
            pipe: p,
            table: t,
            action: a,
            data,
            is_init_flip,
        } => {
            let t = table(t);
            let (action, data) = action(t, a, data);
            DriverOp::SetDefaultOn {
                pipe: pipe(p),
                table: t,
                action,
                data,
                is_init_flip,
            }
        }
        DriverOp::RegisterWrite {
            reg: r,
            index,
            value,
        } => DriverOp::RegisterWrite {
            reg: reg(r),
            index: index % 10,
            value,
        },
        DriverOp::PortSetUp { port: p, up } => DriverOp::PortSetUp { port: port(p), up },
        DriverOp::RegisterReadRange { reg: r, lo, hi } => DriverOp::RegisterReadRange {
            reg: reg(r),
            lo: lo % 10,
            hi: hi % 10,
        },
        DriverOp::RegisterReadAgg {
            reg: r,
            lo,
            hi,
            agg,
        } => DriverOp::RegisterReadAgg {
            reg: reg(r),
            lo: lo % 10,
            hi: hi % 10,
            agg,
        },
        DriverOp::PortUp { port: p } => DriverOp::PortUp { port: port(p) },
        DriverOp::SpendExternal { dur } => DriverOp::SpendExternal { dur: dur % 100_000 },
        DriverOp::SpendRollback { tables } => DriverOp::SpendRollback { tables: tables % 8 },
        DriverOp::TableCheckpoint { table: t } => DriverOp::TableCheckpoint { table: table(t) },
        DriverOp::TableRestore { token: tok, .. } => {
            let (table, token) = token(tok)?;
            DriverOp::TableRestore { table, token }
        }
        DriverOp::CheckpointDiscard { token: tok } => DriverOp::CheckpointDiscard {
            token: token(tok)?.1,
        },
        DriverOp::TableDefaultOn { pipe: p, table: t } => DriverOp::TableDefaultOn {
            pipe: pipe(p),
            table: table(t),
        },
        DriverOp::TableDump { table: t } => DriverOp::TableDump { table: table(t) },
        DriverOp::MasterClaim { .. } | DriverOp::MasterProbe => return None,
    })
}

/// Everything a driver op can change on a device: each table's entries,
/// then per pipe the tables' defaults and the registers.
fn device_state(sw: &Switch) -> Vec<String> {
    let spec = sw.spec();
    let tables = (0..spec.tables.len() as u32).map(|t| sw.table_ref(TableId(t)));
    let mut out: Vec<String> = tables
        .clone()
        .map(|table| format!("{:?}", table.entries().collect::<Vec<_>>()))
        .collect();
    for pipe in 0..sw.num_pipes() {
        for table in tables.clone() {
            out.push(format!("{:?}", table.default_action_on(pipe)));
        }
        for (r, rs) in spec.registers.iter().enumerate() {
            let r = RegisterId(r as u32);
            out.push(format!(
                "{:?}",
                sw.register_read_range_on(pipe, r, 0, rs.count)
            ));
        }
    }
    out.extend((0..NUM_PORTS).map(|p| format!("{:?}", sw.port(p).map(|st| st.up))));
    out
}

/// Drive `raws`, fitted, through a local and a remote driver in lockstep.
/// With `slack` 0 the remote batches and is flushed once at the end;
/// with `slack` 1 it is flushed after every op, so that a deferred op's
/// error surfaces at that op, and after an error the batch the driver
/// retained for a retry is dropped as the agent's rollback drops it.
fn local_and_remote_agree(raws: Vec<DriverOp>, slack: u64) -> Result<(), TestCaseError> {
    let (sw_l, sw_r) = (fresh_switch(), fresh_switch());
    let mut local = LocalDriver::new(sw_l.clone(), CostModel::default());
    let plane = ControlPlane::shared(sw_r.clone(), CostModel::default());
    let mut remote = RemoteDriver::new(plane, ChannelConfig::default());
    let mut tokens: Vec<(TableId, u64)> = Vec::new();
    for (i, raw) in raws.into_iter().enumerate() {
        let Some(op) = fit(raw, i, &sw_l.borrow(), &tokens, slack) else {
            continue;
        };
        let l = local.submit(&op);
        let mut r = remote.submit(&op);
        if slack == 1 {
            r = r.and_then(|resp| remote.flush().map(|()| resp));
            if r.is_err() {
                remote.suspend_faults();
                remote.resume_faults();
            }
        } else {
            prop_assert!(l.is_ok(), "fitted op {:?} failed: {:?}", op, l);
        }
        prop_assert_eq!(&l, &r, "{:?}", op);
        match (&op, &l) {
            (DriverOp::TableCheckpoint { table }, Ok(DriverResponse::Token(t))) => {
                tokens.push((*table, *t));
            }
            (DriverOp::CheckpointDiscard { token }, _) => tokens.retain(|(_, t)| t != token),
            // Tokens of one table are a stack: a restore retires the
            // younger ones of that table.
            (DriverOp::TableRestore { table, token }, Ok(_)) => {
                tokens.retain(|(of, t)| of != table || t <= token);
            }
            _ => {}
        }
    }
    prop_assert_eq!(remote.flush(), Ok(()));
    prop_assert_eq!(remote.pending_len(), 0);
    prop_assert_eq!(device_state(&sw_l.borrow()), device_state(&sw_r.borrow()));
    prop_assert_eq!(
        format!("{:?}", local.stats()),
        format!("{:?}", remote.stats())
    );
    prop_assert_eq!(sw_l.borrow().clock().now(), sw_r.borrow().clock().now());
    Ok(())
}

/// The deferred batch as `RemoteDriver` kept it when it kept ops: deferrable
/// ops queue; a barrier sends the queue and itself as one batch, which the
/// device applies in order up to the first error. The applied prefix
/// leaves, the suffix stays, the barrier is never retained.
struct ModelBatch {
    device: LocalDriver,
    pending: Vec<DriverOp>,
}

impl ModelBatch {
    /// Apply `batch` as the plane does; the answers, or the failing index.
    fn apply(&mut self, batch: &[DriverOp]) -> Result<Vec<DriverResponse>, (usize, DriverError)> {
        let answers = batch.iter().enumerate();
        let answers = answers.map(|(i, op)| self.device.submit(op).map_err(|e| (i, e)));
        answers.collect()
    }

    fn submit(&mut self, op: &DriverOp) -> Result<DriverResponse, DriverError> {
        if op.deferrable() {
            self.pending.push(op.clone());
            return Ok(DriverResponse::Ok);
        }
        let mut batch = std::mem::take(&mut self.pending);
        batch.push(op.clone());
        match self.apply(&batch) {
            Ok(mut answers) => Ok(answers.pop().expect("the barrier's")),
            Err((i, e)) => {
                self.pending = batch[i..batch.len() - 1].to_vec();
                Err(e)
            }
        }
    }

    fn flush(&mut self) -> Result<(), DriverError> {
        let batch = std::mem::take(&mut self.pending);
        self.apply(&batch).map(drop).map_err(|(i, e)| {
            self.pending = batch[i..].to_vec();
            e
        })
    }
}

proptest! {
    /// One output buffer, one batch and one decode scratch, reused frame
    /// after frame, against a fresh encode and a fresh decode of each.
    #[test]
    fn reused_buffers_encode_and_decode_as_fresh_ones(frames in vec(frame_strategy(), 1..8)) {
        let mut buf = vec![0xa5; 7];
        let mut batch = RequestBatch::new();
        let mut scratch = DecodeScratch::default();
        for (seq, frame, fresh) in &frames {
            match &frame.body {
                FrameBody::Request(ops) => {
                    encode_request_frame_into(&mut buf, *seq, ops);
                    // Built op by op, with one op pushed and taken back.
                    batch.clear();
                    for op in ops {
                        batch.push(op);
                    }
                    batch.push(&DriverOp::MasterProbe);
                    batch.pop();
                    prop_assert_eq!(batch.len(), ops.len());
                    prop_assert_eq!(batch.seal(*seq), &fresh[..]);
                    // Dropping a prefix leaves the frame of the suffix.
                    let cut = ops.len() / 2;
                    batch.drop_front(cut);
                    prop_assert_eq!(batch.seal(*seq), &encode_request_frame(*seq, &ops[cut..])[..]);
                }
                FrameBody::Response(rs) => encode_response_frame_into(&mut buf, *seq, rs),
            }
            prop_assert_eq!(&buf, fresh);
            prop_assert_eq!(&*scratch.decode(fresh).expect("valid frame"), frame);
        }
    }

    /// A `RemoteDriver`'s deferred batch against [`ModelBatch`]: the same
    /// answer to every op — errors in the middle of a batch included — the
    /// same ops left pending after each, and the same device at the end.
    #[test]
    fn deferred_bytes_batch_answers_errors_as_the_op_batch_did(
        raws in vec(driver_op_strategy(), 1..48),
    ) {
        let (sw_m, sw_r) = (fresh_switch(), fresh_switch());
        let device = LocalDriver::new(sw_m.clone(), CostModel::default());
        let mut model = ModelBatch { device, pending: Vec::new() };
        let plane = ControlPlane::shared(sw_r.clone(), CostModel::default());
        let mut remote = RemoteDriver::new(plane, ChannelConfig::default());
        for (i, raw) in raws.into_iter().enumerate() {
            // No live token is tracked: every restore and discard names a
            // dead one, which is one more error for a batch to meet.
            let Some(op) = fit(raw, i, &sw_m.borrow(), &[], 1) else {
                continue;
            };
            let (m, r) = (model.submit(&op), remote.submit(&op));
            prop_assert_eq!(&m, &r, "{:?}", op);
            prop_assert_eq!(model.pending.len(), remote.pending_len(), "after {:?}", op);
            if m.is_err() {
                // What stayed — its head the op that failed, unless that was
                // the barrier — is re-sent by a flush; then both sides drop
                // it, as the agent's rollback does.
                prop_assert_eq!(model.flush(), remote.flush());
                prop_assert_eq!(model.pending.len(), remote.pending_len());
                model.pending.clear();
                remote.suspend_faults();
                remote.resume_faults();
            }
        }
        prop_assert_eq!(model.flush(), remote.flush());
        prop_assert_eq!(model.pending.len(), remote.pending_len());
        prop_assert_eq!(device_state(&sw_m.borrow()), device_state(&sw_r.borrow()));
        prop_assert_eq!(sw_m.borrow().clock().now(), sw_r.borrow().clock().now());
    }

    /// Valid ops, batching on: every barrier answers as the local driver
    /// does, and after the final flush the two devices and the two
    /// drivers' statistics are equal.
    #[test]
    fn local_and_remote_agree_on_valid_ops(raws in vec(driver_op_strategy(), 1..48)) {
        local_and_remote_agree(raws, 0)?;
    }

    /// With ids, handles and tokens the device lacks in the mix, neither
    /// side panics and both report the same error.
    #[test]
    fn local_and_remote_refuse_alike(raws in vec(driver_op_strategy(), 1..48)) {
        local_and_remote_agree(raws, 1)?;
    }

    /// Any stream of encoded frames, cut at any byte boundaries, decodes
    /// back to exactly the frames that went in.
    #[test]
    fn frames_roundtrip_across_arbitrary_splits(
        frames in vec(frame_strategy(), 1..5),
        cuts in vec(any::<u16>(), 0..12),
    ) {
        let stream: Vec<u8> = frames.iter().flat_map(|(_, _, bytes)| bytes.clone()).collect();

        // Map the raw cut points into in-range, sorted split offsets.
        let mut offsets: Vec<usize> = cuts
            .iter()
            .map(|c| (*c as usize) % (stream.len() + 1))
            .collect();
        offsets.sort_unstable();
        offsets.dedup();

        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        let mut last = 0usize;
        for off in offsets.into_iter().chain(std::iter::once(stream.len())) {
            decoder.push(&stream[last..off]);
            last = off;
            while let Some(frame) = decoder.next_frame().expect("valid stream") {
                decoded.push(frame);
            }
        }

        let expected: Vec<Frame> = frames.into_iter().map(|(_, f, _)| f).collect();
        prop_assert_eq!(decoded, expected);
        prop_assert_eq!(decoder.buffered(), 0, "no leftover bytes");
    }

    /// A truncated frame never yields anything (and never errors); the
    /// remaining bytes complete it.
    #[test]
    fn truncation_waits_instead_of_erroring(
        frame in frame_strategy(),
        cut_seed in any::<u16>(),
    ) {
        let (_, expected, bytes) = frame;
        // Cut strictly inside the frame so the prefix is incomplete.
        let cut = (1 + (cut_seed as usize) % bytes.len()).min(bytes.len() - 1);

        let mut decoder = FrameDecoder::new();
        decoder.push(&bytes[..cut]);
        prop_assert_eq!(decoder.next_frame().expect("prefix is not an error"), None);
        decoder.push(&bytes[cut..]);
        prop_assert_eq!(decoder.next_frame().expect("completed frame"), Some(expected));
        prop_assert_eq!(decoder.buffered(), 0);
    }
}
