//! The versioned control-plane wire protocol (DESIGN.md §11).
//!
//! The driver vocabulary — [`DriverOp`] and [`DriverResponse`], defined
//! beside [`DriverApi`](mantis_agent::DriverApi) and re-exported here — has
//! a compact binary encoding. Frames carry *batches*: a fixed header (magic,
//! version, direction, sequence number) followed by a length-prefixed
//! body holding a count of length-prefixed items. Length prefixes make
//! the stream self-delimiting, so a [`FrameDecoder`] can be fed bytes at
//! arbitrary split points (the property test does exactly that) and
//! still yield identical frames.
//!
//! Encoding rules: all integers little-endian fixed-width; [`Value`] as
//! `u128` bits + `u16` width; strings (only inside errors) UTF-8 with a
//! `u32` length prefix. There is no implicit compatibility: a frame with
//! an unknown version or tag is a hard [`WireError`] — endpoints of one
//! simulation always speak the same [`VERSION`].
//!
//! One codec, written against buffers its caller keeps: frames are encoded
//! *into* a `Vec<u8>` ([`encode_request_frame_into`],
//! [`encode_response_frame_into`], [`RequestBatch`]) with every length
//! patched in place once known, and decoded *into* a [`DecodeScratch`]
//! whose vectors the next frame reuses. [`encode_request_frame`],
//! [`encode_response_frame`], [`decode_frame`] and [`FrameDecoder`] are the
//! same codec handed a fresh buffer each call — for tests, benches and
//! anything off the dialogue loop.

use mantis_agent::driver::EntrySnapshot;
pub use mantis_agent::driver_api::{DriverOp, DriverResponse};
use p4_ast::{MatchKind, Value};
use rmt_sim::{
    ActionId, DriverError, EntryHandle, KeyField, ReadAgg, RegisterId, TableError, TableId,
};
use std::fmt;

/// Frame magic: `MCTL`.
pub const MAGIC: [u8; 4] = *b"MCTL";
/// Wire-protocol version. Bumped on any encoding change.
pub const VERSION: u8 = 2;

/// Fixed frame-header size: magic(4) + version(1) + direction(1) +
/// seq(8) + body length(4).
pub const HEADER_LEN: usize = 18;

/// Upper bound on a frame body. The largest legitimate batch (a full
/// table dump of a 4096-entry table) is well under 1 MiB; anything
/// bigger is a corrupt or hostile length prefix, and the decoder must
/// reject it *before* buffering toward it — otherwise four junk bytes
/// commit the receiver to reserving up to 4 GiB.
pub const MAX_FRAME_BODY: usize = 1 << 20;

/// Decoded frame body: a request batch or a response batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameBody {
    Request(Vec<DriverOp>),
    Response(Vec<DriverResponse>),
}

/// One decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub seq: u64,
    pub body: FrameBody,
}

/// Hard decode failures (never produced by mere fragmentation — a
/// truncated buffer just waits for more bytes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    BadMagic([u8; 4]),
    BadVersion(u8),
    BadTag {
        what: &'static str,
        tag: u8,
    },
    Truncated {
        what: &'static str,
    },
    BadUtf8,
    /// The header's body-length prefix exceeds [`MAX_FRAME_BODY`]: a
    /// corrupt or hostile stream, rejected before any buffering.
    FrameTooLarge {
        len: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            WireError::Truncated { what } => write!(f, "truncated {what}"),
            WireError::BadUtf8 => write!(f, "invalid UTF-8 in string"),
            WireError::FrameTooLarge { len } => {
                write!(f, "frame body of {len} bytes exceeds {MAX_FRAME_BODY}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Known driver-op labels, used to reconstruct the `&'static str` inside
/// [`DriverError::Injected`] after a wire crossing. Unknown labels map to
/// `"control_req"` (the only way to get one is a version skew the
/// [`VERSION`] check already rejects).
const OP_NAMES: &[&str] = &[
    "table_add",
    "table_mod",
    "table_del",
    "set_default",
    "init_flip",
    "register_read",
    // No driver op carries this label any more; the slot stays so the
    // indices of the labels after it do not shift on the wire.
    "field_word_read",
    "field_poll",
    "register_write",
    "port_set",
    "rollback",
    "control_req",
    "control_resp",
    "default_read",
    "table_dump",
];

/// Fallback index for unknown labels — pinned to `"control_req"`
/// explicitly so appending labels to [`OP_NAMES`] cannot shift it.
const OP_NAME_FALLBACK: usize = 11;

fn op_name_index(name: &str) -> u8 {
    debug_assert_eq!(OP_NAMES[OP_NAME_FALLBACK], "control_req");
    OP_NAMES
        .iter()
        .position(|n| *n == name)
        .unwrap_or(OP_NAME_FALLBACK) as u8
}

fn op_name(index: u8) -> &'static str {
    OP_NAMES
        .get(usize::from(index))
        .copied()
        .unwrap_or("control_req")
}

// -- primitive writers -------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_bool(buf: &mut Vec<u8>, v: bool) {
    buf.push(u8::from(v));
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    put_u128(buf, v.bits());
    put_u16(buf, v.width());
}

fn put_values(buf: &mut Vec<u8>, vs: &[Value]) {
    put_u32(buf, vs.len() as u32);
    for v in vs {
        put_value(buf, v);
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_key_field(buf: &mut Vec<u8>, k: &KeyField) {
    match k {
        KeyField::Exact(v) => {
            put_u8(buf, 0);
            put_value(buf, v);
        }
        KeyField::Ternary { value, mask } => {
            put_u8(buf, 1);
            put_value(buf, value);
            put_value(buf, mask);
        }
        KeyField::Lpm { value, prefix_len } => {
            put_u8(buf, 2);
            put_value(buf, value);
            put_u16(buf, *prefix_len);
        }
    }
}

// -- primitive readers -------------------------------------------------------

/// A cursor over a fully-buffered item body. All reads are bounds-checked;
/// running out of bytes inside an item is a hard error (the frame header's
/// body length already guaranteed the bytes were all here).
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated { what });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn bool(&mut self, what: &'static str) -> Result<bool, WireError> {
        Ok(self.u8(what)? != 0)
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().unwrap()))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    fn u128(&mut self, what: &'static str) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(
            self.take(16, what)?.try_into().unwrap(),
        ))
    }

    fn value(&mut self) -> Result<Value, WireError> {
        let bits = self.u128("value bits")?;
        let width = self.u16("value width")?;
        Ok(Value::new(bits, width))
    }

    /// A counted run of values, in the allocation of a vector out of
    /// `spare` or failing that a new one.
    fn values(&mut self, spare: &mut Vec<Vec<Value>>) -> Result<Vec<Value>, WireError> {
        let n = self.u32("value count")? as usize;
        let mut out = spare.pop().unwrap_or_default();
        out.clear();
        out.reserve_exact(n.min(4096));
        for _ in 0..n {
            out.push(self.value()?);
        }
        Ok(out)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let n = self.u32("string length")? as usize;
        let bytes = self.take(n, "string bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn key_field(&mut self) -> Result<KeyField, WireError> {
        match self.u8("key-field tag")? {
            0 => Ok(KeyField::Exact(self.value()?)),
            1 => Ok(KeyField::Ternary {
                value: self.value()?,
                mask: self.value()?,
            }),
            2 => Ok(KeyField::Lpm {
                value: self.value()?,
                prefix_len: self.u16("lpm prefix")?,
            }),
            tag => Err(WireError::BadTag {
                what: "key-field",
                tag,
            }),
        }
    }

    fn done(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

// -- op encoding -------------------------------------------------------------

fn encode_op(buf: &mut Vec<u8>, op: &DriverOp) {
    match op {
        DriverOp::TableAdd {
            table,
            key,
            priority,
            action,
            data,
        } => {
            put_u8(buf, 0);
            put_u32(buf, table.0);
            put_u32(buf, key.len() as u32);
            for k in key {
                put_key_field(buf, k);
            }
            put_u32(buf, *priority);
            put_u32(buf, action.0);
            put_values(buf, data);
        }
        DriverOp::TableMod {
            table,
            handle,
            action,
            data,
        } => {
            put_u8(buf, 1);
            put_u32(buf, table.0);
            put_u64(buf, handle.0);
            put_u32(buf, action.0);
            put_values(buf, data);
        }
        DriverOp::TableDel { table, handle } => {
            put_u8(buf, 2);
            put_u32(buf, table.0);
            put_u64(buf, handle.0);
        }
        DriverOp::SetDefault {
            table,
            action,
            data,
            is_init_flip,
        } => {
            put_u8(buf, 3);
            put_u32(buf, table.0);
            put_u32(buf, action.0);
            put_values(buf, data);
            put_bool(buf, *is_init_flip);
        }
        DriverOp::SetDefaultOn {
            pipe,
            table,
            action,
            data,
            is_init_flip,
        } => {
            put_u8(buf, 4);
            put_u16(buf, *pipe);
            put_u32(buf, table.0);
            put_u32(buf, action.0);
            put_values(buf, data);
            put_bool(buf, *is_init_flip);
        }
        DriverOp::RegisterWrite { reg, index, value } => {
            put_u8(buf, 5);
            put_u32(buf, reg.0);
            put_u32(buf, *index);
            put_value(buf, value);
        }
        DriverOp::PortSetUp { port, up } => {
            put_u8(buf, 6);
            put_u16(buf, *port);
            put_bool(buf, *up);
        }
        DriverOp::RegisterReadRange { reg, lo, hi } => {
            put_u8(buf, 7);
            put_u32(buf, reg.0);
            put_u32(buf, *lo);
            put_u32(buf, *hi);
        }
        DriverOp::RegisterReadAgg { reg, lo, hi, agg } => {
            put_u8(buf, 8);
            put_u32(buf, reg.0);
            put_u32(buf, *lo);
            put_u32(buf, *hi);
            put_u8(buf, matches!(agg, ReadAgg::Max) as u8);
        }
        DriverOp::PortUp { port } => {
            put_u8(buf, 9);
            put_u16(buf, *port);
        }
        DriverOp::SpendExternal { dur } => {
            put_u8(buf, 10);
            put_u64(buf, *dur);
        }
        DriverOp::SpendRollback { tables } => {
            put_u8(buf, 11);
            put_u32(buf, *tables);
        }
        DriverOp::TableCheckpoint { table } => {
            put_u8(buf, 12);
            put_u32(buf, table.0);
        }
        DriverOp::TableRestore { table, token } => {
            put_u8(buf, 13);
            put_u32(buf, table.0);
            put_u64(buf, *token);
        }
        DriverOp::CheckpointDiscard { token } => {
            put_u8(buf, 14);
            put_u64(buf, *token);
        }
        DriverOp::MasterClaim {
            controller,
            lease_ns,
        } => {
            put_u8(buf, 15);
            put_u16(buf, *controller);
            put_u64(buf, *lease_ns);
        }
        DriverOp::MasterProbe => {
            put_u8(buf, 16);
        }
        DriverOp::TableDefaultOn { pipe, table } => {
            put_u8(buf, 17);
            put_u16(buf, *pipe);
            put_u32(buf, table.0);
        }
        DriverOp::TableDump { table } => {
            put_u8(buf, 18);
            put_u32(buf, table.0);
        }
    }
}

fn decode_op(c: &mut Cursor<'_>, spare: &mut Vec<Vec<Value>>) -> Result<DriverOp, WireError> {
    match c.u8("op tag")? {
        0 => {
            let table = TableId(c.u32("table id")?);
            let nk = c.u32("key arity")? as usize;
            let mut key = Vec::with_capacity(nk.min(64));
            for _ in 0..nk {
                key.push(c.key_field()?);
            }
            Ok(DriverOp::TableAdd {
                table,
                key,
                priority: c.u32("priority")?,
                action: ActionId(c.u32("action id")?),
                data: c.values(spare)?,
            })
        }
        1 => Ok(DriverOp::TableMod {
            table: TableId(c.u32("table id")?),
            handle: EntryHandle(c.u64("handle")?),
            action: ActionId(c.u32("action id")?),
            data: c.values(spare)?,
        }),
        2 => Ok(DriverOp::TableDel {
            table: TableId(c.u32("table id")?),
            handle: EntryHandle(c.u64("handle")?),
        }),
        3 => Ok(DriverOp::SetDefault {
            table: TableId(c.u32("table id")?),
            action: ActionId(c.u32("action id")?),
            data: c.values(spare)?,
            is_init_flip: c.bool("init flip")?,
        }),
        4 => Ok(DriverOp::SetDefaultOn {
            pipe: c.u16("pipe")?,
            table: TableId(c.u32("table id")?),
            action: ActionId(c.u32("action id")?),
            data: c.values(spare)?,
            is_init_flip: c.bool("init flip")?,
        }),
        5 => Ok(DriverOp::RegisterWrite {
            reg: RegisterId(c.u32("register id")?),
            index: c.u32("register index")?,
            value: c.value()?,
        }),
        6 => Ok(DriverOp::PortSetUp {
            port: c.u16("port")?,
            up: c.bool("port state")?,
        }),
        7 => Ok(DriverOp::RegisterReadRange {
            reg: RegisterId(c.u32("register id")?),
            lo: c.u32("range lo")?,
            hi: c.u32("range hi")?,
        }),
        8 => Ok(DriverOp::RegisterReadAgg {
            reg: RegisterId(c.u32("register id")?),
            lo: c.u32("range lo")?,
            hi: c.u32("range hi")?,
            agg: if c.u8("aggregation")? != 0 {
                ReadAgg::Max
            } else {
                ReadAgg::Sum
            },
        }),
        9 => Ok(DriverOp::PortUp {
            port: c.u16("port")?,
        }),
        10 => Ok(DriverOp::SpendExternal {
            dur: c.u64("duration")?,
        }),
        11 => Ok(DriverOp::SpendRollback {
            tables: c.u32("table count")?,
        }),
        12 => Ok(DriverOp::TableCheckpoint {
            table: TableId(c.u32("table id")?),
        }),
        13 => Ok(DriverOp::TableRestore {
            table: TableId(c.u32("table id")?),
            token: c.u64("token")?,
        }),
        14 => Ok(DriverOp::CheckpointDiscard {
            token: c.u64("token")?,
        }),
        15 => Ok(DriverOp::MasterClaim {
            controller: c.u16("controller id")?,
            lease_ns: c.u64("lease")?,
        }),
        16 => Ok(DriverOp::MasterProbe),
        17 => Ok(DriverOp::TableDefaultOn {
            pipe: c.u16("pipe")?,
            table: TableId(c.u32("table id")?),
        }),
        18 => Ok(DriverOp::TableDump {
            table: TableId(c.u32("table id")?),
        }),
        tag => Err(WireError::BadTag { what: "op", tag }),
    }
}

// -- entry-snapshot encoding -------------------------------------------------

fn put_entry_snapshot(buf: &mut Vec<u8>, e: &EntrySnapshot) {
    put_u64(buf, e.handle.0);
    put_u32(buf, e.key.len() as u32);
    for k in &e.key {
        put_key_field(buf, k);
    }
    put_u32(buf, e.priority);
    put_u32(buf, e.action.0);
    put_values(buf, &e.data);
}

fn entry_snapshot(
    c: &mut Cursor<'_>,
    spare: &mut Vec<Vec<Value>>,
) -> Result<EntrySnapshot, WireError> {
    let handle = EntryHandle(c.u64("entry handle")?);
    let nk = c.u32("key arity")? as usize;
    let mut key = Vec::with_capacity(nk.min(64));
    for _ in 0..nk {
        key.push(c.key_field()?);
    }
    Ok(EntrySnapshot {
        handle,
        key,
        priority: c.u32("priority")?,
        action: ActionId(c.u32("action id")?),
        data: c.values(spare)?,
    })
}

// -- error encoding ----------------------------------------------------------

fn encode_driver_error(buf: &mut Vec<u8>, e: &DriverError) {
    match e {
        DriverError::Table(te) => {
            put_u8(buf, 0);
            match te {
                TableError::KeyArityMismatch { expected, got } => {
                    put_u8(buf, 0);
                    put_u32(buf, *expected as u32);
                    put_u32(buf, *got as u32);
                }
                TableError::KeyKindMismatch { index, expected } => {
                    put_u8(buf, 1);
                    put_u32(buf, *index as u32);
                    put_u8(
                        buf,
                        match expected {
                            MatchKind::Exact => 0,
                            MatchKind::Ternary => 1,
                            MatchKind::Lpm => 2,
                        },
                    );
                }
                TableError::UnknownHandle(h) => {
                    put_u8(buf, 2);
                    put_u64(buf, h.0);
                }
                TableError::UnknownAction(a) => {
                    put_u8(buf, 3);
                    put_u32(buf, a.0);
                }
                TableError::TableFull { capacity } => {
                    put_u8(buf, 4);
                    put_u32(buf, *capacity);
                }
                TableError::ActionDataArity { expected, got } => {
                    put_u8(buf, 5);
                    put_u32(buf, *expected as u32);
                    put_u32(buf, *got as u32);
                }
            }
        }
        DriverError::UnknownTable(s) => {
            put_u8(buf, 1);
            put_str(buf, s);
        }
        DriverError::UnknownRegister(s) => {
            put_u8(buf, 2);
            put_str(buf, s);
        }
        DriverError::UnknownAction(s) => {
            put_u8(buf, 3);
            put_str(buf, s);
        }
        DriverError::BadPort(p) => {
            put_u8(buf, 4);
            put_u16(buf, *p);
        }
        DriverError::BadPipe(p) => {
            put_u8(buf, 5);
            put_u16(buf, *p);
        }
        DriverError::Injected { op, persistent } => {
            put_u8(buf, 6);
            put_u8(buf, op_name_index(op));
            put_bool(buf, *persistent);
        }
        DriverError::Crashed { op } => {
            put_u8(buf, 7);
            put_u8(buf, op_name_index(op));
        }
    }
}

fn decode_driver_error(c: &mut Cursor<'_>) -> Result<DriverError, WireError> {
    match c.u8("error tag")? {
        0 => {
            let te = match c.u8("table-error tag")? {
                0 => TableError::KeyArityMismatch {
                    expected: c.u32("expected")? as usize,
                    got: c.u32("got")? as usize,
                },
                1 => TableError::KeyKindMismatch {
                    index: c.u32("index")? as usize,
                    expected: match c.u8("match kind")? {
                        0 => MatchKind::Exact,
                        1 => MatchKind::Ternary,
                        2 => MatchKind::Lpm,
                        tag => {
                            return Err(WireError::BadTag {
                                what: "match-kind",
                                tag,
                            })
                        }
                    },
                },
                2 => TableError::UnknownHandle(EntryHandle(c.u64("handle")?)),
                3 => TableError::UnknownAction(ActionId(c.u32("action id")?)),
                4 => TableError::TableFull {
                    capacity: c.u32("capacity")?,
                },
                5 => TableError::ActionDataArity {
                    expected: c.u32("expected")? as usize,
                    got: c.u32("got")? as usize,
                },
                tag => {
                    return Err(WireError::BadTag {
                        what: "table-error",
                        tag,
                    })
                }
            };
            Ok(DriverError::Table(te))
        }
        1 => Ok(DriverError::UnknownTable(c.string()?)),
        2 => Ok(DriverError::UnknownRegister(c.string()?)),
        3 => Ok(DriverError::UnknownAction(c.string()?)),
        4 => Ok(DriverError::BadPort(c.u16("port")?)),
        5 => Ok(DriverError::BadPipe(c.u16("pipe")?)),
        6 => Ok(DriverError::Injected {
            op: op_name(c.u8("op name")?),
            persistent: c.bool("persistence")?,
        }),
        7 => Ok(DriverError::Crashed {
            op: op_name(c.u8("op name")?),
        }),
        tag => Err(WireError::BadTag { what: "error", tag }),
    }
}

// -- response encoding -------------------------------------------------------

fn encode_response(buf: &mut Vec<u8>, r: &DriverResponse) {
    match r {
        DriverResponse::Ok => put_u8(buf, 0),
        DriverResponse::Handle(h) => {
            put_u8(buf, 1);
            put_u64(buf, h.0);
        }
        DriverResponse::Values(vs) => {
            put_u8(buf, 2);
            put_values(buf, vs);
        }
        DriverResponse::PortState(st) => {
            put_u8(buf, 3);
            match st {
                None => put_u8(buf, 0),
                Some(up) => {
                    put_u8(buf, 1);
                    put_bool(buf, *up);
                }
            }
        }
        DriverResponse::Token(t) => {
            put_u8(buf, 4);
            put_u64(buf, *t);
        }
        DriverResponse::Master {
            granted,
            master,
            expires,
        } => {
            put_u8(buf, 5);
            put_bool(buf, *granted);
            match master {
                None => put_u8(buf, 0),
                Some(id) => {
                    put_u8(buf, 1);
                    put_u16(buf, *id);
                }
            }
            put_u64(buf, *expires);
        }
        DriverResponse::Err(e) => {
            put_u8(buf, 6);
            encode_driver_error(buf, e);
        }
        DriverResponse::DefaultAction { action, data } => {
            put_u8(buf, 7);
            put_u32(buf, action.0);
            put_values(buf, data);
        }
        DriverResponse::Entries(es) => {
            put_u8(buf, 8);
            put_u32(buf, es.len() as u32);
            for e in es {
                put_entry_snapshot(buf, e);
            }
        }
    }
}

fn decode_response(
    c: &mut Cursor<'_>,
    spare: &mut Vec<Vec<Value>>,
) -> Result<DriverResponse, WireError> {
    match c.u8("response tag")? {
        0 => Ok(DriverResponse::Ok),
        1 => Ok(DriverResponse::Handle(EntryHandle(c.u64("handle")?))),
        2 => Ok(DriverResponse::Values(c.values(spare)?)),
        3 => Ok(DriverResponse::PortState(if c.u8("port presence")? != 0 {
            Some(c.bool("port state")?)
        } else {
            None
        })),
        4 => Ok(DriverResponse::Token(c.u64("token")?)),
        5 => Ok(DriverResponse::Master {
            granted: c.bool("granted")?,
            master: if c.u8("master presence")? != 0 {
                Some(c.u16("master id")?)
            } else {
                None
            },
            expires: c.u64("expiry")?,
        }),
        6 => Ok(DriverResponse::Err(decode_driver_error(c)?)),
        7 => Ok(DriverResponse::DefaultAction {
            action: ActionId(c.u32("action id")?),
            data: c.values(spare)?,
        }),
        8 => {
            let n = c.u32("entry count")? as usize;
            let mut es = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                es.push(entry_snapshot(c, spare)?);
            }
            Ok(DriverResponse::Entries(es))
        }
        tag => Err(WireError::BadTag {
            what: "response",
            tag,
        }),
    }
}

// -- frame codec -------------------------------------------------------------

/// Offset of a frame's first item: the header, then the item count.
const ITEMS_AT: usize = HEADER_LEN + 4;

/// Start a frame in `buf` — emptied, its allocation reused: the header
/// and item count, with the three fields [`end_frame`] stamps left zero.
fn begin_frame(buf: &mut Vec<u8>, direction: u8) {
    buf.clear();
    buf.extend_from_slice(&MAGIC);
    buf.push(VERSION);
    buf.push(direction);
    buf.extend_from_slice(&[0; ITEMS_AT - 6]);
}

/// Append one length-prefixed item: `encode` writes it in place, and its
/// length is patched in behind it.
fn put_item(buf: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let at = buf.len();
    put_u32(buf, 0);
    encode(buf);
    let len = (buf.len() - at - 4) as u32;
    buf[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Complete the frame of `items` items in `buf`: stamp the sequence
/// number, the body length and the item count.
fn end_frame(buf: &mut [u8], seq: u64, items: usize) {
    let body = (buf.len() - HEADER_LEN) as u32;
    buf[6..14].copy_from_slice(&seq.to_le_bytes());
    buf[14..18].copy_from_slice(&body.to_le_bytes());
    buf[18..ITEMS_AT].copy_from_slice(&(items as u32).to_le_bytes());
}

/// Encode a request frame carrying one batch of ops into `buf`, replacing
/// what it held.
pub fn encode_request_frame_into(buf: &mut Vec<u8>, seq: u64, ops: &[DriverOp]) {
    begin_frame(buf, 0);
    for op in ops {
        put_item(buf, |item| encode_op(item, op));
    }
    end_frame(buf, seq, ops.len());
}

/// Encode a request frame carrying one batch of ops.
pub fn encode_request_frame(seq: u64, ops: &[DriverOp]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_request_frame_into(&mut buf, seq, ops);
    buf
}

/// Encode a response frame carrying one batch of responses into `buf`,
/// replacing what it held.
pub fn encode_response_frame_into(buf: &mut Vec<u8>, seq: u64, resps: &[DriverResponse]) {
    let mut frame = ResponseFrame::begin(buf);
    for r in resps {
        frame.push(r);
    }
    frame.end(seq);
}

/// Encode a response frame carrying one batch of responses.
pub fn encode_response_frame(seq: u64, resps: &[DriverResponse]) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_response_frame_into(&mut buf, seq, resps);
    buf
}

/// A response frame being written into a buffer its owner keeps, one
/// answer at a time — the device end encodes each answer as it is given
/// and holds no batch of them.
pub(crate) struct ResponseFrame<'a> {
    buf: &'a mut Vec<u8>,
    items: usize,
}

impl<'a> ResponseFrame<'a> {
    pub(crate) fn begin(buf: &'a mut Vec<u8>) -> Self {
        begin_frame(buf, 1);
        ResponseFrame { buf, items: 0 }
    }

    pub(crate) fn push(&mut self, r: &DriverResponse) {
        put_item(self.buf, |item| encode_response(item, r));
        self.items += 1;
    }

    pub(crate) fn end(self, seq: u64) {
        end_frame(self.buf, seq, self.items);
    }
}

/// A request frame under construction: a batch of ops kept as the bytes
/// it will be sent as, plus where each op's item starts. Deferring an op
/// costs its encoding and nothing else, and what the deferred-error
/// protocol does to a batch — the applied prefix leaves, the suffix stays,
/// the barrier is not retained — is a cut of the byte buffer.
#[derive(Debug)]
pub struct RequestBatch {
    frame: Vec<u8>,
    /// Offset in `frame` of each op's item, in op order.
    starts: Vec<usize>,
}

impl Default for RequestBatch {
    fn default() -> Self {
        RequestBatch::new()
    }
}

impl RequestBatch {
    pub fn new() -> Self {
        let mut frame = Vec::new();
        begin_frame(&mut frame, 0);
        RequestBatch {
            frame,
            starts: Vec::new(),
        }
    }

    /// Ops in the batch.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Append `op`.
    pub fn push(&mut self, op: &DriverOp) {
        self.starts.push(self.frame.len());
        put_item(&mut self.frame, |item| encode_op(item, op));
    }

    /// Drop the newest op.
    pub fn pop(&mut self) {
        if let Some(at) = self.starts.pop() {
            self.frame.truncate(at);
        }
    }

    /// Drop the `n` oldest ops.
    pub fn drop_front(&mut self, n: usize) {
        let cut = self.starts.get(n).copied().unwrap_or(self.frame.len());
        self.frame.drain(ITEMS_AT..cut);
        self.starts.drain(..n.min(self.starts.len()));
        for start in &mut self.starts {
            *start -= cut - ITEMS_AT;
        }
    }

    pub fn clear(&mut self) {
        self.frame.truncate(ITEMS_AT);
        self.starts.clear();
    }

    /// The batch as the request frame numbered `seq`.
    pub fn seal(&mut self, seq: u64) -> &[u8] {
        end_frame(&mut self.frame, seq, self.starts.len());
        &self.frame
    }
}

/// Where frames are decoded to by an owner that decodes many: the decoded
/// [`frame`](DecodeScratch::frame) stays here, and the vectors inside it —
/// the batch itself, every op's action data, every read's values — are the
/// allocations the next [`decode`](DecodeScratch::decode) fills.
#[derive(Debug)]
pub struct DecodeScratch {
    /// The last frame decoded (an empty request before the first).
    pub frame: Frame,
    /// Value vectors recovered from the frame before.
    spare: Vec<Vec<Value>>,
}

impl Default for DecodeScratch {
    fn default() -> Self {
        DecodeScratch {
            frame: Frame {
                seq: 0,
                body: FrameBody::Request(Vec::new()),
            },
            spare: Vec::new(),
        }
    }
}

/// The fields of a frame header, once the whole frame is buffered.
struct Header {
    direction: u8,
    seq: u64,
    body_len: usize,
}

/// Parse the header at the front of `buf`; `Ok(None)` while the frame it
/// announces is not all there.
fn parse_header(buf: &[u8]) -> Result<Option<Header>, WireError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let magic: [u8; 4] = buf[0..4].try_into().unwrap();
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if buf[4] != VERSION {
        return Err(WireError::BadVersion(buf[4]));
    }
    let body_len = u32::from_le_bytes(buf[14..18].try_into().unwrap()) as usize;
    if body_len > MAX_FRAME_BODY {
        // Reject *now*, before `Ok(None)` commits the receiver to
        // buffering up to 4 GiB chasing a corrupt length prefix.
        return Err(WireError::FrameTooLarge { len: body_len });
    }
    if buf.len() < HEADER_LEN + body_len {
        return Ok(None);
    }
    Ok(Some(Header {
        direction: buf[5],
        seq: u64::from_le_bytes(buf[6..14].try_into().unwrap()),
        body_len,
    }))
}

/// Decode the `n` items of a body: for each, `item` is handed a cursor
/// over exactly that item and must use it up (`tail` names the error if
/// it does not).
fn decode_items(
    c: &mut Cursor<'_>,
    n: u32,
    tail: &'static str,
    mut item: impl FnMut(&mut Cursor<'_>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    for _ in 0..n {
        let len = c.u32("item length")? as usize;
        let mut ic = Cursor::new(c.take(len, "item body")?);
        item(&mut ic)?;
        if !ic.done() {
            return Err(WireError::Truncated { what: tail });
        }
    }
    Ok(())
}

impl DecodeScratch {
    /// Decode `bytes`, which hold exactly one frame, over the last one.
    /// After an error the frame held is an empty request.
    pub fn decode(&mut self, bytes: &[u8]) -> Result<&mut Frame, WireError> {
        let h = parse_header(bytes)?.ok_or(WireError::Truncated { what: "frame" })?;
        self.decode_body(&h, &bytes[HEADER_LEN..HEADER_LEN + h.body_len])?;
        if bytes.len() > HEADER_LEN + h.body_len {
            return Err(WireError::Truncated { what: "frame tail" });
        }
        Ok(&mut self.frame)
    }

    fn decode_body(&mut self, h: &Header, body: &[u8]) -> Result<(), WireError> {
        let DecodeScratch { frame, spare } = self;
        // Empty the last frame, keeping its vectors: the batch for this
        // frame's, each item's values for this frame's items'.
        let empty = FrameBody::Request(Vec::new());
        let (mut ops, mut rs) = match std::mem::replace(&mut frame.body, empty) {
            FrameBody::Request(mut ops) => {
                let used = ops.iter_mut().map(DriverOp::take_data);
                spare.extend(used.filter(|v| v.capacity() > 0));
                ops.clear();
                (ops, Vec::new())
            }
            FrameBody::Response(mut rs) => {
                spare.extend(rs.iter_mut().filter_map(|r| match r {
                    DriverResponse::Values(vs) if vs.capacity() > 0 => Some(std::mem::take(vs)),
                    _ => None,
                }));
                rs.clear();
                (Vec::new(), rs)
            }
        };
        frame.seq = h.seq;
        let mut c = Cursor::new(body);
        let n = c.u32("item count")?;
        frame.body = match h.direction {
            0 => {
                ops.reserve_exact(n.min(4096) as usize);
                decode_items(&mut c, n, "op tail", |ic| {
                    ops.push(decode_op(ic, spare)?);
                    Ok(())
                })?;
                FrameBody::Request(ops)
            }
            1 => {
                rs.reserve_exact(n.min(4096) as usize);
                decode_items(&mut c, n, "response tail", |ic| {
                    rs.push(decode_response(ic, spare)?);
                    Ok(())
                })?;
                FrameBody::Response(rs)
            }
            tag => {
                return Err(WireError::BadTag {
                    what: "direction",
                    tag,
                })
            }
        };
        Ok(())
    }
}

/// Incremental frame decoder: feed it byte chunks split at *any*
/// boundary; complete frames come out in order.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Append raw bytes from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Decode the next complete frame, `Ok(None)` if more bytes are
    /// needed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let Some(h) = parse_header(&self.buf)? else {
            return Ok(None);
        };
        let (mut scratch, end) = (DecodeScratch::default(), HEADER_LEN + h.body_len);
        scratch.decode_body(&h, &self.buf[HEADER_LEN..end])?;
        self.buf.drain(..end);
        Ok(Some(scratch.frame))
    }
}

/// Decode one frame from a buffer holding exactly one frame.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, WireError> {
    let mut scratch = DecodeScratch::default();
    scratch.decode(bytes)?;
    Ok(scratch.frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<DriverOp> {
        vec![
            DriverOp::TableAdd {
                table: TableId(3),
                key: vec![
                    KeyField::Exact(Value::new(7, 16)),
                    KeyField::Ternary {
                        value: Value::new(1, 8),
                        mask: Value::new(0xff, 8),
                    },
                    KeyField::Lpm {
                        value: Value::new(0x0a00, 16),
                        prefix_len: 8,
                    },
                ],
                priority: 9,
                action: ActionId(2),
                data: vec![Value::new(42, 32)],
            },
            DriverOp::SetDefaultOn {
                pipe: 1,
                table: TableId(0),
                action: ActionId(0),
                data: vec![Value::new(1, 1), Value::zero(1)],
                is_init_flip: true,
            },
            DriverOp::RegisterReadAgg {
                reg: RegisterId(5),
                lo: 0,
                hi: 63,
                agg: ReadAgg::Max,
            },
            DriverOp::MasterClaim {
                controller: 2,
                lease_ns: 1_000_000,
            },
            DriverOp::TableDefaultOn {
                pipe: 1,
                table: TableId(0),
            },
            DriverOp::TableDump { table: TableId(3) },
        ]
    }

    fn sample_resps() -> Vec<DriverResponse> {
        vec![
            DriverResponse::Handle(EntryHandle(11)),
            DriverResponse::Ok,
            DriverResponse::Values(vec![Value::new(3, 64), Value::new(4, 64)]),
            DriverResponse::Master {
                granted: false,
                master: Some(1),
                expires: 500,
            },
            DriverResponse::Err(DriverError::Injected {
                op: "table_mod",
                persistent: false,
            }),
            DriverResponse::Err(DriverError::Table(TableError::KeyKindMismatch {
                index: 2,
                expected: MatchKind::Lpm,
            })),
            DriverResponse::Err(DriverError::Crashed { op: "init_flip" }),
            DriverResponse::DefaultAction {
                action: ActionId(4),
                data: vec![Value::new(1, 1), Value::zero(1), Value::new(100, 32)],
            },
            DriverResponse::Entries(vec![EntrySnapshot {
                handle: EntryHandle(7),
                key: vec![
                    KeyField::Exact(Value::new(1, 1)),
                    KeyField::Lpm {
                        value: Value::new(0x0a00_0100, 32),
                        prefix_len: 24,
                    },
                ],
                priority: 3,
                action: ActionId(2),
                data: vec![Value::new(9, 9)],
            }]),
        ]
    }

    #[test]
    fn request_and_response_roundtrip() {
        let ops = sample_ops();
        let frame = decode_frame(&encode_request_frame(77, &ops)).unwrap();
        assert_eq!(frame.seq, 77);
        assert_eq!(frame.body, FrameBody::Request(ops));

        let resps = sample_resps();
        let frame = decode_frame(&encode_response_frame(78, &resps)).unwrap();
        assert_eq!(frame.seq, 78);
        assert_eq!(frame.body, FrameBody::Response(resps));
    }

    #[test]
    fn decoder_survives_byte_at_a_time_feeding() {
        let mut stream = encode_request_frame(1, &sample_ops());
        stream.extend_from_slice(&encode_response_frame(2, &sample_resps()));
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for b in stream {
            dec.push(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                frames.push(f);
            }
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].seq, 1);
        assert!(matches!(frames[0].body, FrameBody::Request(ref ops) if ops.len() == 6));
        assert_eq!(frames[1].seq, 2);
        assert!(matches!(frames[1].body, FrameBody::Response(ref rs) if rs.len() == 9));
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_buffering() {
        // A header whose body length claims ~4 GiB must error immediately,
        // not leave the decoder waiting (and its caller reserving) forever.
        let mut bytes = encode_request_frame(1, &[DriverOp::MasterProbe]);
        bytes[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&bytes[..HEADER_LEN]);
        assert!(matches!(
            dec.next_frame(),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn largest_allowed_body_still_waits_for_bytes() {
        // Exactly MAX_FRAME_BODY is legitimate: the decoder keeps waiting.
        let mut bytes = encode_request_frame(1, &[DriverOp::MasterProbe]);
        bytes[14..18].copy_from_slice(&(MAX_FRAME_BODY as u32).to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&bytes[..HEADER_LEN]);
        assert!(matches!(dec.next_frame(), Ok(None)));
        // One past the bound is hostile.
        bytes[14..18].copy_from_slice(&((MAX_FRAME_BODY + 1) as u32).to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.push(&bytes[..HEADER_LEN]);
        assert_eq!(
            dec.next_frame(),
            Err(WireError::FrameTooLarge {
                len: MAX_FRAME_BODY + 1
            })
        );
    }

    #[test]
    fn bad_magic_and_version_are_hard_errors() {
        let mut bytes = encode_request_frame(1, &[DriverOp::MasterProbe]);
        bytes[0] = b'X';
        assert!(matches!(decode_frame(&bytes), Err(WireError::BadMagic(_))));
        let mut bytes = encode_request_frame(1, &[DriverOp::MasterProbe]);
        bytes[4] = 99;
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::BadVersion(99))
        ));
    }

    #[test]
    fn injected_error_op_names_survive_the_wire() {
        for name in super::OP_NAMES {
            let resp = DriverResponse::Err(DriverError::Injected {
                op: name,
                persistent: true,
            });
            let frame =
                decode_frame(&encode_response_frame(0, std::slice::from_ref(&resp))).unwrap();
            assert_eq!(frame.body, FrameBody::Response(vec![resp]));
        }
    }
}
