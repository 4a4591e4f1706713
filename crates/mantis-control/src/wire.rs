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
//! `u32` length prefix; a vector as a `u32` count, then its items. There is
//! no implicit compatibility: a frame with an unknown version or tag is a
//! hard [`WireError`] — endpoints of one simulation always speak the same
//! [`VERSION`].
//!
//! Each layout is written once. The leaf types implement a private `Wire`
//! trait, whose `put` and `get` are the two directions; every enum of the
//! vocabulary — ops, answers, errors, key fields, match kinds — and the
//! table-dump entry is a `wire_enum!` table, one row per variant: its tag,
//! then its fields in wire order. Both the encoding and the decoding `match`
//! are derived from that row, so the tables are the layout's specification,
//! and a unit test pins the bytes of a frame holding every variant.
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
use p4_ast::value::MAX_WIDTH;
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
    /// A value's width outside `1..=MAX_WIDTH`, which no field can have.
    BadWidth(u16),
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
            WireError::BadWidth(w) => write!(f, "value width {w} outside 1..={MAX_WIDTH}"),
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

// -- layouts -----------------------------------------------------------------

/// Value vectors a decode draws on before it allocates one.
type Spare = Vec<Vec<Value>>;

/// A cursor over a fully-buffered item body. All reads are bounds-checked;
/// running out of bytes inside an item is a hard error (the frame header's
/// body length already guaranteed the bytes were all here).
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    #[inline]
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if n > self.rest.len() {
            return Err(WireError::Truncated { what });
        }
        let (s, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(s)
    }

    fn left(&self) -> usize {
        self.rest.len()
    }
}

/// A type with one byte layout: `put` appends it, `get` reads it back.
/// Leaf types implement it below; every enum of the protocol is a
/// `wire_enum!` table of them.
trait Wire: Sized {
    /// The most a counted run of these reserves before reading them: a
    /// count off the wire is only a claim, and a cap on the bytes left
    /// would still let a 1 MiB frame reserve for a million key fields.
    const RESERVE: usize = 4096;

    fn put(&self, buf: &mut Vec<u8>);

    fn get(c: &mut Cursor<'_>, spare: &mut Spare) -> Result<Self, WireError>;

    /// A counted run of these, in a new vector.
    #[inline]
    fn get_vec(c: &mut Cursor<'_>, spare: &mut Spare) -> Result<Vec<Self>, WireError> {
        get_run(Vec::new(), c, spare)
    }
}

/// A `u32` count, then that many `T`s, in the allocation of `out`.
#[inline]
fn get_run<T: Wire>(
    mut out: Vec<T>,
    c: &mut Cursor<'_>,
    spare: &mut Spare,
) -> Result<Vec<T>, WireError> {
    let n = usize::get(c, spare)?;
    out.clear();
    out.reserve_exact(n.min(T::RESERVE));
    for _ in 0..n {
        out.push(T::get(c, spare)?);
    }
    Ok(out)
}

/// Integers: little-endian, fixed width.
macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn get(c: &mut Cursor<'_>, _: &mut Spare) -> Result<Self, WireError> {
                let bytes = c.take(std::mem::size_of::<$t>(), stringify!($t))?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returns n bytes")))
            }
        }
    )*};
}

wire_int!(u8, u16, u32, u64, u128);

/// Ids: the integer they wrap.
macro_rules! wire_id {
    ($($id:ident),*) => {$(
        impl Wire for $id {
            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                self.0.put(buf);
            }

            #[inline]
            fn get(c: &mut Cursor<'_>, spare: &mut Spare) -> Result<Self, WireError> {
                Ok($id(Wire::get(c, spare)?))
            }
        }
    )*};
}

wire_id!(TableId, ActionId, RegisterId, EntryHandle);

/// One byte; any but 0 reads as `true`.
impl Wire for bool {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        u8::from(*self).put(buf);
    }

    #[inline]
    fn get(c: &mut Cursor<'_>, spare: &mut Spare) -> Result<Self, WireError> {
        Ok(u8::get(c, spare)? != 0)
    }
}

/// Counts, indices and arities: a `u32`.
impl Wire for usize {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u32).put(buf);
    }

    #[inline]
    fn get(c: &mut Cursor<'_>, spare: &mut Spare) -> Result<Self, WireError> {
        Ok(u32::get(c, spare)? as usize)
    }
}

/// `u128` bits, then the `u16` width.
impl Wire for Value {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        self.bits().put(buf);
        self.width().put(buf);
    }

    #[inline]
    fn get(c: &mut Cursor<'_>, spare: &mut Spare) -> Result<Self, WireError> {
        let (bits, width) = (u128::get(c, spare)?, u16::get(c, spare)?);
        if !(1..=MAX_WIDTH).contains(&width) {
            return Err(WireError::BadWidth(width));
        }
        Ok(Value::new(bits, width))
    }

    /// In the allocation of a vector out of `spare`, failing that a new one.
    #[inline]
    fn get_vec(c: &mut Cursor<'_>, spare: &mut Spare) -> Result<Vec<Self>, WireError> {
        get_run(spare.pop().unwrap_or_default(), c, spare)
    }
}

/// UTF-8 after a `u32` length.
impl Wire for String {
    fn put(&self, buf: &mut Vec<u8>) {
        self.len().put(buf);
        buf.extend_from_slice(self.as_bytes());
    }

    fn get(c: &mut Cursor<'_>, spare: &mut Spare) -> Result<Self, WireError> {
        let n = usize::get(c, spare)?;
        let bytes = c.take(n, "string bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

/// An op label: its index in [`OP_NAMES`].
impl Wire for &'static str {
    fn put(&self, buf: &mut Vec<u8>) {
        debug_assert_eq!(OP_NAMES[OP_NAME_FALLBACK], "control_req");
        let index = OP_NAMES.iter().position(|n| n == self);
        (index.unwrap_or(OP_NAME_FALLBACK) as u8).put(buf);
    }

    fn get(c: &mut Cursor<'_>, spare: &mut Spare) -> Result<Self, WireError> {
        let index = usize::from(u8::get(c, spare)?);
        Ok(OP_NAMES.get(index).unwrap_or(&OP_NAMES[OP_NAME_FALLBACK]))
    }
}

/// One byte: 1 for `Max`; any but 0 reads as `Max`.
impl Wire for ReadAgg {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        matches!(self, ReadAgg::Max).put(buf);
    }

    #[inline]
    fn get(c: &mut Cursor<'_>, spare: &mut Spare) -> Result<Self, WireError> {
        Ok(if bool::get(c, spare)? {
            ReadAgg::Max
        } else {
            ReadAgg::Sum
        })
    }
}

/// A `u32` count, then the items.
impl<T: Wire> Wire for Vec<T> {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        self.len().put(buf);
        for x in self {
            x.put(buf);
        }
    }

    #[inline]
    fn get(c: &mut Cursor<'_>, spare: &mut Spare) -> Result<Self, WireError> {
        T::get_vec(c, spare)
    }
}

/// A presence byte (any but 0 is present), then the value if present.
impl<T: Wire> Wire for Option<T> {
    #[inline]
    fn put(&self, buf: &mut Vec<u8>) {
        self.is_some().put(buf);
        if let Some(x) = self {
            x.put(buf);
        }
    }

    #[inline]
    fn get(c: &mut Cursor<'_>, spare: &mut Spare) -> Result<Self, WireError> {
        Ok(if bool::get(c, spare)? {
            Some(T::get(c, spare)?)
        } else {
            None
        })
    }
}

/// The layout of an enum, one row a variant: `tag Variant`,
/// `tag Variant(fields)` or `tag Variant { fields }`, the fields named in
/// the order they cross the wire. A variant is its `u8` tag, then its
/// fields; both the encoding and the decoding `match` are derived from the
/// rows, and an unknown tag is a [`WireError::BadTag`] naming `$what`.
/// `reserve` caps a counted run of the enum below [`Wire::RESERVE`]. A
/// `struct` table is one untagged row.
macro_rules! wire_enum {
    ($T:ident, $what:literal $(, reserve $cap:literal)?;
     $($tag:literal $V:ident $(($($x:ident),*))? $({ $($f:ident),* })?),* $(,)?) => {
        impl Wire for $T {
            $(const RESERVE: usize = $cap;)?

            #[inline]
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $($T::$V $(($($x),*))? $({ $($f),* })? => {
                        buf.push($tag);
                        $($($x.put(buf);)*)?
                        $($($f.put(buf);)*)?
                    })*
                }
            }

            #[inline]
            fn get(c: &mut Cursor<'_>, spare: &mut Spare) -> Result<Self, WireError> {
                match u8::get(c, spare)? {
                    $($tag => {
                        $($(let $x = Wire::get(c, spare)?;)*)?
                        $($(let $f = Wire::get(c, spare)?;)*)?
                        Ok($T::$V $(($($x),*))? $({ $($f),* })?)
                    })*
                    tag => Err(WireError::BadTag { what: $what, tag }),
                }
            }
        }
    };
    (struct $T:ident { $($f:ident),* }) => {
        impl Wire for $T {
            fn put(&self, buf: &mut Vec<u8>) {
                let $T { $($f),* } = self;
                $($f.put(buf);)*
            }

            fn get(c: &mut Cursor<'_>, spare: &mut Spare) -> Result<Self, WireError> {
                $(let $f = Wire::get(c, spare)?;)*
                Ok($T { $($f),* })
            }
        }
    };
}

wire_enum! { DriverOp, "op";
    0 TableAdd { table, key, priority, action, data },
    1 TableMod { table, handle, action, data },
    2 TableDel { table, handle },
    3 SetDefault { table, action, data, is_init_flip },
    4 SetDefaultOn { pipe, table, action, data, is_init_flip },
    5 RegisterWrite { reg, index, value },
    6 PortSetUp { port, up },
    7 RegisterReadRange { reg, lo, hi },
    8 RegisterReadAgg { reg, lo, hi, agg },
    9 PortUp { port },
    10 SpendExternal { dur },
    11 SpendRollback { tables },
    12 TableCheckpoint { table },
    13 TableRestore { table, token },
    14 CheckpointDiscard { token },
    15 MasterClaim { controller, lease_ns },
    16 MasterProbe,
    17 TableDefaultOn { pipe, table },
    18 TableDump { table },
}

wire_enum! { DriverResponse, "response";
    0 Ok,
    1 Handle(handle),
    2 Values(values),
    3 PortState(up),
    4 Token(token),
    5 Master { granted, master, expires },
    6 Err(error),
    7 DefaultAction { action, data },
    8 Entries(entries),
}

wire_enum! { struct EntrySnapshot { handle, key, priority, action, data } }

wire_enum! { DriverError, "error";
    0 Table(error),
    1 UnknownTable(name),
    2 UnknownRegister(name),
    3 UnknownAction(name),
    4 BadPort(port),
    5 BadPipe(pipe),
    6 Injected { op, persistent },
    7 Crashed { op },
}

wire_enum! { TableError, "table-error";
    0 KeyArityMismatch { expected, got },
    1 KeyKindMismatch { index, expected },
    2 UnknownHandle(handle),
    3 UnknownAction(action),
    4 TableFull { capacity },
    5 ActionDataArity { expected, got },
}

wire_enum! { KeyField, "key-field", reserve 64;
    0 Exact(value),
    1 Ternary { value, mask },
    2 Lpm { value, prefix_len },
}

wire_enum! { MatchKind, "match-kind";
    0 Exact,
    1 Ternary,
    2 Lpm,
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

/// Append one length-prefixed item: it is written in place, and its
/// length is patched in behind it.
#[inline]
fn put_item(buf: &mut Vec<u8>, item: &impl Wire) {
    let at = buf.len();
    buf.extend_from_slice(&[0; 4]);
    item.put(buf);
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
        put_item(buf, op);
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

    #[inline]
    pub(crate) fn push(&mut self, r: &DriverResponse) {
        put_item(self.buf, r);
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
        put_item(&mut self.frame, op);
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

/// Decode the `n` items of a body onto `out`: each is read from a cursor
/// over exactly its bytes, and must use them up.
fn decode_items<T: Wire>(
    c: &mut Cursor<'_>,
    n: usize,
    spare: &mut Spare,
    out: &mut Vec<T>,
) -> Result<(), WireError> {
    out.reserve_exact(n.min(T::RESERVE));
    for _ in 0..n {
        let len = usize::get(c, spare)?;
        let mut item = Cursor {
            rest: c.take(len, "item body")?,
        };
        out.push(T::get(&mut item, spare)?);
        if item.left() > 0 {
            return Err(WireError::Truncated { what: "item tail" });
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
        let mut c = Cursor { rest: body };
        let n = usize::get(&mut c, spare)?;
        frame.body = match h.direction {
            0 => {
                decode_items(&mut c, n, spare, &mut ops)?;
                FrameBody::Request(ops)
            }
            1 => {
                decode_items(&mut c, n, spare, &mut rs)?;
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every op, once.
    fn every_op() -> Vec<DriverOp> {
        let v = |bits, width| Value::new(bits, width);
        vec![
            sample_ops().swap_remove(0),
            DriverOp::TableMod {
                table: TableId(1),
                handle: EntryHandle(0x0102_0304_0506_0708),
                action: ActionId(3),
                data: vec![v(5, 8)],
            },
            DriverOp::TableDel {
                table: TableId(2),
                handle: EntryHandle(9),
            },
            DriverOp::SetDefault {
                table: TableId(4),
                action: ActionId(1),
                data: vec![],
                is_init_flip: true,
            },
            DriverOp::SetDefaultOn {
                pipe: 3,
                table: TableId(4),
                action: ActionId(2),
                data: vec![v(1, 1)],
                is_init_flip: false,
            },
            DriverOp::RegisterWrite {
                reg: RegisterId(6),
                index: 17,
                value: v(u128::MAX >> 1, 127),
            },
            DriverOp::PortSetUp { port: 12, up: true },
            DriverOp::RegisterReadRange {
                reg: RegisterId(7),
                lo: 2,
                hi: 40,
            },
            DriverOp::RegisterReadAgg {
                reg: RegisterId(8),
                lo: 0,
                hi: 3,
                agg: ReadAgg::Sum,
            },
            DriverOp::PortUp { port: 0xfffe },
            DriverOp::SpendExternal { dur: 1_500 },
            DriverOp::SpendRollback { tables: 2 },
            DriverOp::TableCheckpoint { table: TableId(5) },
            DriverOp::TableRestore {
                table: TableId(5),
                token: 77,
            },
            DriverOp::CheckpointDiscard { token: 78 },
            DriverOp::MasterClaim {
                controller: 2,
                lease_ns: 1_000_000,
            },
            DriverOp::MasterProbe,
            DriverOp::TableDefaultOn {
                pipe: 1,
                table: TableId(0),
            },
            DriverOp::TableDump { table: TableId(3) },
        ]
    }

    /// Every answer, every error and table error, every key kind and
    /// every match kind, once.
    fn every_response() -> Vec<DriverResponse> {
        let v = |bits, width| Value::new(bits, width);
        let table = |e| DriverResponse::Err(DriverError::Table(e));
        let mismatch = |expected| table(TableError::KeyKindMismatch { index: 1, expected });
        vec![
            DriverResponse::Ok,
            DriverResponse::Handle(EntryHandle(11)),
            DriverResponse::Values(vec![v(3, 64), v(4, 64)]),
            DriverResponse::PortState(None),
            DriverResponse::PortState(Some(false)),
            DriverResponse::PortState(Some(true)),
            DriverResponse::Token(0xdead_beef),
            DriverResponse::Master {
                granted: true,
                master: None,
                expires: 500,
            },
            DriverResponse::Master {
                granted: false,
                master: Some(1),
                expires: 600,
            },
            DriverResponse::DefaultAction {
                action: ActionId(4),
                data: vec![v(1, 1), v(100, 32)],
            },
            DriverResponse::Entries(vec![
                EntrySnapshot {
                    handle: EntryHandle(7),
                    key: vec![
                        KeyField::Exact(v(1, 1)),
                        KeyField::Ternary {
                            value: v(0x10, 8),
                            mask: v(0xf0, 8),
                        },
                        KeyField::Lpm {
                            value: v(0x0a00_0100, 32),
                            prefix_len: 24,
                        },
                    ],
                    priority: 3,
                    action: ActionId(2),
                    data: vec![v(9, 9)],
                },
                EntrySnapshot {
                    handle: EntryHandle(8),
                    key: vec![],
                    priority: 0,
                    action: ActionId(0),
                    data: vec![],
                },
            ]),
            DriverResponse::Entries(vec![]),
            table(TableError::KeyArityMismatch {
                expected: 2,
                got: 3,
            }),
            mismatch(MatchKind::Exact),
            mismatch(MatchKind::Ternary),
            mismatch(MatchKind::Lpm),
            table(TableError::UnknownHandle(EntryHandle(12))),
            table(TableError::UnknownAction(ActionId(13))),
            table(TableError::TableFull { capacity: 4096 }),
            table(TableError::ActionDataArity {
                expected: 1,
                got: 0,
            }),
            DriverResponse::Err(DriverError::UnknownTable("acl".into())),
            DriverResponse::Err(DriverError::UnknownRegister("r\u{e9}g".into())),
            DriverResponse::Err(DriverError::UnknownAction(String::new())),
            DriverResponse::Err(DriverError::BadPort(300)),
            DriverResponse::Err(DriverError::BadPipe(4)),
            DriverResponse::Err(DriverError::Injected {
                op: "table_dump",
                persistent: true,
            }),
            DriverResponse::Err(DriverError::Crashed { op: "init_flip" }),
        ]
    }

    /// The request frame of [`every_op`], byte for byte.
    const EVERY_OP_HEX: &str = "\
        4d43544c02000807060504030201a60100001300000074000000000300000003\
        0000000007000000000000000000000000000000100001010000000000000000\
        000000000000000800ff000000000000000000000000000000080002000a0000\
        000000000000000000000000100008000900000002000000010000002a000000\
        0000000000000000000000002000270000000101000000080706050403020103\
        000000010000000500000000000000000000000000000008000d000000020200\
        000009000000000000000e000000030400000001000000000000000122000000\
        0403000400000002000000010000000100000000000000000000000000000001\
        00001b000000050600000011000000ffffffffffffffffffffffffffffff7f7f\
        0004000000060c00010d000000070700000002000000280000000e0000000808\
        0000000000000003000000000300000009feff090000000adc05000000000000\
        050000000b02000000050000000c050000000d0000000d050000004d00000000\
        000000090000000e4e000000000000000b0000000f020040420f000000000001\
        000000100700000011010000000000050000001203000000";

    /// The response frame of [`every_response`], byte for byte.
    const EVERY_RESPONSE_HEX: &str = "\
        4d43544c02010900000000000000010200001b00000001000000000900000001\
        0b00000000000000290000000202000000030000000000000000000000000000\
        0040000400000000000000000000000000000040000200000003000300000003\
        0100030000000301010900000004efbeadde000000000b000000050100f40100\
        00000000000d000000050001010058020000000000002d000000070400000002\
        0000000100000000000000000000000000000001006400000000000000000000\
        0000000000200094000000080200000007000000000000000300000000010000\
        0000000000000000000000000001000110000000000000000000000000000000\
        0800f00000000000000000000000000000000800020001000a00000000000000\
        0000000000200018000300000002000000010000000900000000000000000000\
        0000000000090008000000000000000000000000000000000000000000000005\
        00000008000000000b0000000600000200000003000000080000000600010100\
        0000000800000006000101000000010800000006000101000000020b00000006\
        00020c00000000000000070000000600030d0000000700000006000400100000\
        0b00000006000501000000000000000900000006010300000061636c0a000000\
        06020400000072c3a967060000000603000000000400000006042c0104000000\
        060504000400000006060e0103000000060704";

    /// The byte layout itself, not only that the two directions agree: a
    /// change both the encoder and the decoder make — a field moved, a
    /// tag renumbered, a width changed — alters these frames.
    #[test]
    fn every_variant_encodes_to_the_pinned_bytes() {
        let ops = every_op();
        assert_eq!(ops.len(), 19);
        let request = encode_request_frame(0x0102_0304_0506_0708, &ops);
        let response = encode_response_frame(9, &every_response());
        assert_eq!(hex(&request), EVERY_OP_HEX);
        assert_eq!(hex(&response), EVERY_RESPONSE_HEX);
        assert_eq!(
            decode_frame(&request).unwrap().body,
            FrameBody::Request(ops)
        );
        assert_eq!(
            decode_frame(&response).unwrap().body,
            FrameBody::Response(every_response())
        );
    }

    /// A width no field can have is refused, not handed to `Value::new`
    /// (which panics on it).
    #[test]
    fn out_of_range_widths_are_refused() {
        let op = DriverOp::RegisterWrite {
            reg: RegisterId(1),
            index: 2,
            value: Value::new(3, 8),
        };
        // Item body: tag, register, index, the value's bits, its width.
        let at = ITEMS_AT + 4 + 1 + 4 + 4 + 16;
        for width in [0, MAX_WIDTH + 1, u16::MAX] {
            let mut bytes = encode_request_frame(1, std::slice::from_ref(&op));
            assert_eq!(bytes[at..at + 2], 8u16.to_le_bytes());
            bytes[at..at + 2].copy_from_slice(&width.to_le_bytes());
            assert_eq!(decode_frame(&bytes), Err(WireError::BadWidth(width)));
        }
    }

    /// A count read off the wire is only a claim: set to `u32::MAX` in an
    /// otherwise well-formed frame, each is refused as truncated, without
    /// reserving toward it.
    #[test]
    fn hostile_counts_are_truncations() {
        // Item bodies start after the header, the item count and the
        // first item's length.
        const BODY: usize = ITEMS_AT + 4;
        let v = Value::new(1, 8);
        let cases: [(&str, Vec<u8>, usize); 4] = [
            (
                // tag, table, handle, action, then the data's count
                "value count",
                encode_request_frame(
                    1,
                    &[DriverOp::TableMod {
                        table: TableId(1),
                        handle: EntryHandle(2),
                        action: ActionId(3),
                        data: vec![v],
                    }],
                ),
                BODY + 1 + 4 + 8 + 4,
            ),
            (
                // tag, table, then the key's arity
                "key arity",
                encode_request_frame(
                    1,
                    &[DriverOp::TableAdd {
                        table: TableId(1),
                        key: vec![KeyField::Exact(v)],
                        priority: 0,
                        action: ActionId(0),
                        data: vec![],
                    }],
                ),
                BODY + 1 + 4,
            ),
            (
                // response tag, then the entry count
                "entry count",
                encode_response_frame(1, &sample_resps()[8..]),
                BODY + 1,
            ),
            (
                // response tag, error tag, then the string's length
                "string length",
                encode_response_frame(
                    1,
                    &[DriverResponse::Err(DriverError::UnknownTable("t".into()))],
                ),
                BODY + 2,
            ),
        ];
        for (what, mut bytes, at) in cases {
            assert_eq!(
                bytes[at..at + 4],
                1u32.to_le_bytes(),
                "{what}: the count is not at {at}"
            );
            bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let got = decode_frame(&bytes);
            assert!(
                matches!(got, Err(WireError::Truncated { .. })),
                "{what}: {got:?}"
            );
            let mut scratch = DecodeScratch::default();
            let got = scratch.decode(&bytes).map(|_| ());
            assert!(
                matches!(got, Err(WireError::Truncated { .. })),
                "{what}: {got:?}"
            );
        }
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
