//! Packet Header Vector: the per-packet field containers the pipeline
//! operates on.

use crate::spec::{DataPlaneSpec, FieldId, PortId, INTR};
use p4_ast::Value;
use std::rc::Rc;

/// A packet's header vector plus per-packet flags.
///
/// Each field is a container of bits masked to the field's width; the
/// widths live once per program (the spec's PHV image) and every PHV laid
/// out for it points at them.
#[derive(Clone, Debug)]
pub struct Phv {
    bits: Box<[u128]>,
    widths: Rc<[u16]>,
    /// Validity of each header instance (metadata is always valid).
    valid: Box<[bool]>,
    /// Set by the `drop()` primitive.
    pub dropped: bool,
    /// Bytes of payload beyond the parsed headers (used for queueing byte
    /// counts).
    pub payload_len: u32,
}

// Queued and transmitted packets carry their PHV by value: the layout
// pointer must not make them bigger than the two buffers it replaced.
const _: () = assert!(std::mem::size_of::<Phv>() <= 56);

impl Phv {
    /// A fresh PHV with metadata initialized and headers invalid.
    pub fn new(spec: &DataPlaneSpec) -> Self {
        let image = spec.image();
        Phv {
            bits: image.bits.clone(),
            widths: image.widths.clone(),
            valid: image.valid.clone(),
            dropped: false,
            payload_len: 0,
        }
    }

    #[inline]
    pub fn get(&self, id: FieldId) -> Value {
        let i = id.0 as usize;
        Value::new(self.bits[i], self.widths[i])
    }

    /// Store `v`, truncating/extending to the container width.
    #[inline]
    pub fn set(&mut self, id: FieldId, v: Value) {
        self.set_bits(id, v.bits());
    }

    /// Raw bits of a field (the width lives in the layout).
    #[inline]
    pub(crate) fn bits(&self, id: FieldId) -> u128 {
        self.bits[id.0 as usize]
    }

    /// Store `bits` truncated to the container width: the one mask of a
    /// PHV write.
    #[inline]
    pub(crate) fn set_bits(&mut self, id: FieldId, bits: u128) {
        let i = id.0 as usize;
        self.bits[i] = bits & Value::mask_for(self.widths[i]);
    }

    /// Store bits resolved to the container's width ahead of time (a
    /// pre-masked constant, a template field): a plain copy, no mask.
    #[inline]
    pub(crate) fn store(&mut self, id: FieldId, bits: u128) {
        let i = id.0 as usize;
        debug_assert_eq!(bits & Value::mask_for(self.widths[i]), bits);
        self.bits[i] = bits;
    }

    #[inline]
    pub fn is_valid(&self, header_idx: usize) -> bool {
        self.valid[header_idx]
    }

    #[inline]
    pub fn set_valid(&mut self, header_idx: usize, valid: bool) {
        self.valid[header_idx] = valid;
    }

    /// Read a field as `u64` (hot-path form of `get(..).as_u64()`).
    #[inline]
    pub fn get_u64(&self, id: FieldId) -> u64 {
        self.bits[id.0 as usize] as u64
    }

    /// Write a `u64`, truncating to the container width.
    #[inline]
    pub fn set_u64(&mut self, id: FieldId, v: u64) {
        self.set_bits(id, u128::from(v));
    }

    /// Convenience: read an intrinsic field by name.
    pub fn intr(&self, spec: &DataPlaneSpec, name: &str) -> Value {
        self.get(spec.field_id(INTR, name).expect("intrinsic field"))
    }

    pub fn ingress_port(&self, spec: &DataPlaneSpec) -> PortId {
        self.intr(spec, "ingress_port").as_u64() as PortId
    }

    pub fn egress_spec(&self, spec: &DataPlaneSpec) -> PortId {
        self.intr(spec, "egress_spec").as_u64() as PortId
    }

    /// Describe this PHV spec-independently: every field of every valid
    /// non-metadata header as `(instance, field, value)` assignments, plus
    /// the payload length. The result can be re-materialized against a
    /// *different* spec with [`PacketDesc::build_lossy`] — what carrying a
    /// packet from one switch's program to its peer's means; fabric links
    /// do it through a precompiled [`TransferMap`]. Intrinsic metadata
    /// (ports, timestamps) deliberately does not survive the wire; the
    /// caller sets the new ingress port.
    pub fn describe(&self, spec: &DataPlaneSpec) -> PacketDesc {
        let mut desc = PacketDesc::new(0).payload(self.payload_len);
        for (i, h) in spec.headers.iter().enumerate() {
            if h.is_metadata || !self.valid[i] {
                continue;
            }
            for f in &h.fields {
                let info = &spec.fields[f.0 as usize];
                desc = desc.field(&info.instance, &info.field, self.bits(*f));
            }
        }
        desc
    }

    /// Restore this PHV to the state [`Phv::new`] produces, reusing its
    /// buffers. A PHV laid out for another program of the same field and
    /// header counts (a fabric's switches of one shape share a freelist)
    /// takes `spec`'s widths; one of another shape is refused — recycling
    /// it would silently corrupt field layout, so that is a hard invariant.
    #[inline]
    pub fn reset(&mut self, spec: &DataPlaneSpec) {
        let image = spec.image();
        if !Rc::ptr_eq(&self.widths, &image.widths) {
            if self.bits.len() != image.bits.len() || self.valid.len() != image.valid.len() {
                self.shape_mismatch(spec);
            }
            self.widths = image.widths.clone();
        }
        self.bits.copy_from_slice(&image.bits);
        self.valid.copy_from_slice(&image.valid);
        self.dropped = false;
        self.payload_len = 0;
    }

    #[cold]
    #[inline(never)]
    fn shape_mismatch(&self, spec: &DataPlaneSpec) -> ! {
        panic!(
            "phv-pool/spec-shape: recycled PHV ({}f/{}h) does not match spec ({}f/{}h)",
            self.bits.len(),
            self.valid.len(),
            spec.fields.len(),
            spec.headers.len(),
        );
    }

    /// Make a PHV that crossed a wire the receiver's: metadata and invalid
    /// wire headers take `spec`'s image, the PHV takes `spec`'s width
    /// layout, and the arrival is stamped. Between programs of one wire layout
    /// ([`TransferMap::is_identity`]) that is the state
    /// [`TransferMap::apply`] into a fresh PHV produces, without the copy.
    #[inline]
    pub fn rebase(&mut self, port: PortId, spec: &DataPlaneSpec) {
        let image = spec.image();
        for (h, &(start, end)) in image.header_runs.iter().enumerate() {
            // Metadata is valid in the image, so it is always rewritten.
            if image.valid[h] || !self.valid[h] {
                self.bits[start..end].copy_from_slice(&image.bits[start..end]);
                self.valid[h] = image.valid[h];
            }
        }
        if !Rc::ptr_eq(&self.widths, &image.widths) {
            self.widths = image.widths.clone();
        }
        self.dropped = false;
        self.stamp_arrival(port, spec);
    }

    /// Stamp the receiver-side intrinsics of a packet whose headers are in
    /// place: the port it arrives on and its frame length.
    #[inline]
    pub fn stamp_arrival(&mut self, port: PortId, spec: &DataPlaneSpec) {
        let intr = spec.intr_ids().expect("intrinsic field");
        self.set_u64(intr.ingress_port, u64::from(port));
        let len = self.frame_len(spec);
        self.set_u64(intr.pkt_len, u64::from(len));
    }

    /// Heap bytes held by this PHV's buffers (arena accounting; the
    /// shared layout is the program's, not the packet's).
    pub fn heap_bytes(&self) -> u64 {
        (self.bits.len() * std::mem::size_of::<u128>() + self.valid.len()) as u64
    }

    /// Total frame length in bytes: parsed+valid headers plus payload.
    #[inline]
    pub fn frame_len(&self, spec: &DataPlaneSpec) -> u32 {
        let mut bits = 0u32;
        for (i, &hb) in spec.wire_bits().iter().enumerate() {
            if hb != 0 && self.valid[i] {
                bits += hb;
            }
        }
        bits / 8 + self.payload_len
    }
}

/// A builder for injecting packets without going through byte parsing.
///
/// Network-simulator components construct packets directly as field
/// assignments; the byte-level parser path ([`crate::parse`]) exists for
/// raw-frame examples and tests.
#[derive(Clone, Debug, Default)]
pub struct PacketDesc {
    pub port: PortId,
    /// `(instance, field, value)` assignments; the named headers become
    /// valid.
    pub fields: Vec<(String, String, u128)>,
    pub payload_len: u32,
}

impl PacketDesc {
    pub fn new(port: PortId) -> Self {
        PacketDesc {
            port,
            ..Default::default()
        }
    }

    pub fn field(mut self, instance: &str, field: &str, value: u128) -> Self {
        self.fields
            .push((instance.to_string(), field.to_string(), value));
        self
    }

    pub fn payload(mut self, len: u32) -> Self {
        self.payload_len = len;
        self
    }

    /// Materialize a PHV for this packet.
    pub fn build(&self, spec: &DataPlaneSpec) -> Phv {
        self.materialize(spec, false)
    }

    /// Like [`build`](PacketDesc::build), but fields the spec does not
    /// know are silently skipped instead of panicking: a packet described
    /// against the sender's program lands in a receiver running a
    /// *different* program — the shared headers transfer, the rest is
    /// payload the receiver's parser cannot see.
    pub fn build_lossy(&self, spec: &DataPlaneSpec) -> Phv {
        self.materialize(spec, true)
    }

    fn materialize(&self, spec: &DataPlaneSpec, lossy: bool) -> Phv {
        let mut phv = Phv::new(spec);
        phv.payload_len = self.payload_len;
        for (inst, field, value) in &self.fields {
            let Some(id) = spec.field_id(inst, field) else {
                if lossy {
                    continue;
                }
                panic!("unknown field {inst}.{field}");
            };
            phv.set_bits(id, *value);
            if let Some(h) = spec.header_idx(inst) {
                phv.set_valid(h, true);
            }
        }
        phv.stamp_arrival(self.port, spec);
        phv
    }
}

/// Upper bound on PHVs parked per switch: large enough to absorb a full
/// queue burst, small enough to bound idle memory. A [`PhvPool`] shared by
/// `n` switches is capped at `n` times this.
pub const PHV_POOL_CAP: usize = 4096;

/// A bounded freelist of PHVs shaped for one spec.
///
/// Steady-state packet churn reuses buffers through one instead of
/// allocating: `take` pops and [`Phv::reset`]s a recycled PHV (allocating
/// only while the pool warms up), `put` returns one once its packet is
/// done. A standalone switch owns a private one; in a fabric, the
/// switches of one PHV shape share one (`Switch::share_phv_pool`), so a
/// buffer parked where a packet exits serves the next injection anywhere.
/// The capacity bound keeps a burst from pinning unbounded memory.
#[derive(Debug, Default)]
pub struct PhvPool {
    free: Vec<Phv>,
    cap: usize,
}

impl PhvPool {
    pub fn new(cap: usize) -> Self {
        PhvPool {
            free: Vec::new(),
            cap,
        }
    }

    /// A fresh PHV for `spec`, recycled when possible.
    #[inline]
    pub fn take(&mut self, spec: &DataPlaneSpec) -> Phv {
        match self.free.pop() {
            Some(mut phv) => {
                phv.reset(spec);
                phv
            }
            None => Phv::new(spec),
        }
    }

    /// Return a PHV to the freelist (dropped if the pool is full).
    #[inline]
    pub fn put(&mut self, phv: Phv) {
        if self.free.len() < self.cap {
            self.free.push(phv);
        }
    }

    /// Move every buffer parked in `other` into this freelist (those past
    /// its cap are dropped).
    pub fn absorb(&mut self, other: &mut PhvPool) {
        for phv in other.free.drain(..) {
            self.put(phv);
        }
    }

    /// Heap bytes parked in the freelist (the "arena bytes" gauge).
    pub fn arena_bytes(&self) -> u64 {
        self.free.iter().map(Phv::heap_bytes).sum()
    }
}

/// A [`PacketDesc`] pre-resolved against one spec: `(FieldId, value)`
/// pairs with every value already truncated to its container's width,
/// plus the header-validity set. Compiled once per flow at spawn, then
/// written into pooled PHVs per packet as plain copies of bits — zero name
/// lookups, masks or heap allocation.
#[derive(Clone, Debug)]
pub struct PacketTemplate {
    port: PortId,
    fields: Vec<(FieldId, Value)>,
    valid_headers: Vec<usize>,
    payload_len: u32,
}

impl PacketTemplate {
    /// Resolve every field of `desc` against `spec`, in order.
    pub fn compile(desc: &PacketDesc, spec: &DataPlaneSpec) -> Result<Self, String> {
        let mut fields = Vec::with_capacity(desc.fields.len());
        let mut valid_headers = Vec::new();
        for (inst, field, value) in &desc.fields {
            let Some(id) = spec.field_id(inst, field) else {
                return Err(format!("unknown field {inst}.{field}"));
            };
            fields.push((id, Value::new(*value, spec.field_width(id))));
            if let Some(h) = spec.header_idx(inst) {
                if !valid_headers.contains(&h) {
                    valid_headers.push(h);
                }
            }
        }
        Ok(PacketTemplate {
            port: desc.port,
            fields,
            valid_headers,
            payload_len: desc.payload_len,
        })
    }

    pub fn port(&self) -> PortId {
        self.port
    }

    pub fn set_port(&mut self, port: PortId) {
        self.port = port;
    }

    /// Overwrite the value of the `slot`-th compiled field (slots follow
    /// the order fields were added to the source [`PacketDesc`]).
    #[inline]
    pub fn set_value(&mut self, slot: usize, value: u128) {
        let v = &mut self.fields[slot].1;
        *v = v.with_bits(value);
    }

    /// Write this template into a fresh PHV, mirroring
    /// [`PacketDesc::build`] exactly.
    #[inline]
    pub fn write_into(&self, phv: &mut Phv, spec: &DataPlaneSpec) {
        phv.payload_len = self.payload_len;
        for &(id, value) in &self.fields {
            phv.store(id, value.bits());
        }
        for h in &self.valid_headers {
            phv.set_valid(*h, true);
        }
        phv.stamp_arrival(self.port, spec);
    }
}

/// Pre-compiled cross-spec wire transfer.
///
/// Semantically identical to `describe(src_spec)` →
/// `build_lossy(dst_spec)` — every field of every valid non-metadata
/// sender header that the receiver's program also declares carries over,
/// and those receiver headers become valid — but resolved once per
/// (sender spec, receiver spec) to slice copies, so per-hop delivery does
/// no String work and masks only where the receiver's field is narrower.
#[derive(Clone, Debug, Default)]
pub struct TransferMap {
    headers: Vec<HeaderXfer>,
    /// True when the two specs share one wire layout ([`same_wire_layout`]),
    /// so the receiver may *move* the source PHV and [`Phv::rebase`] it
    /// instead of copying it field by field into a fresh buffer.
    identity: bool,
}

#[derive(Clone, Debug)]
struct HeaderXfer {
    src_header: usize,
    dst_header: usize,
    /// `(src_start, dst_start, len)` runs of consecutive fields declared
    /// at equal widths on both ends: the bits copy over as they are.
    runs: Vec<(usize, usize, usize)>,
    /// `(src, dst)` pairs whose widths differ: the bits are re-truncated
    /// to the receiver's container.
    resized: Vec<(FieldId, FieldId)>,
}

/// Whether a PHV laid out for `a` can become `b`'s by [`Phv::rebase`]:
/// same field and header counts, wire headers identical (name, fields,
/// widths, inits) at the same indices, metadata fields at the same
/// indices. Metadata may differ otherwise: the rebase rewrites all of it.
fn same_wire_layout(a: &DataPlaneSpec, b: &DataPlaneSpec) -> bool {
    let same_field = |f: &FieldId| {
        let (x, y) = (&a.fields[f.0 as usize], &b.fields[f.0 as usize]);
        x.field == y.field && x.width == y.width && x.init == y.init
    };
    a.fields.len() == b.fields.len()
        && a.headers.len() == b.headers.len()
        && a.headers.iter().zip(&b.headers).all(|(x, y)| {
            x.is_metadata == y.is_metadata
                && x.fields == y.fields
                && (x.is_metadata || x.name == y.name && x.fields.iter().all(same_field))
        })
}

impl TransferMap {
    pub fn build(src: &DataPlaneSpec, dst: &DataPlaneSpec) -> Self {
        let mut headers = Vec::new();
        for (i, h) in src.headers.iter().enumerate() {
            if h.is_metadata {
                continue;
            }
            let mut runs: Vec<(usize, usize, usize)> = Vec::new();
            let mut resized = Vec::new();
            for f in &h.fields {
                let info = &src.fields[f.0 as usize];
                let Some(d) = dst.field_id(&info.instance, &info.field) else {
                    continue;
                };
                if info.width != dst.field_width(d) {
                    resized.push((*f, d));
                    continue;
                }
                let (s, d) = (f.0 as usize, d.0 as usize);
                match runs.last_mut() {
                    Some((rs, rd, len)) if *rs + *len == s && *rd + *len == d => *len += 1,
                    _ => runs.push((s, d, 1)),
                }
            }
            if !runs.is_empty() || !resized.is_empty() {
                let dst_header = dst
                    .header_idx(&h.name)
                    .expect("resolved field implies instance");
                headers.push(HeaderXfer {
                    src_header: i,
                    dst_header,
                    runs,
                    resized,
                });
            }
        }
        TransferMap {
            headers,
            identity: same_wire_layout(src, dst),
        }
    }

    /// Whether this transfer is between programs of one wire layout (see
    /// the `identity` field).
    #[inline]
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// Copy the transferable headers of `src` into the fresh PHV `dst`,
    /// then stamp the receiver-side intrinsics (`ingress_port`,
    /// `pkt_len`) exactly as [`PacketDesc::build_lossy`] would.
    #[inline]
    pub fn apply(&self, src: &Phv, dst: &mut Phv, port: PortId, dst_spec: &DataPlaneSpec) {
        dst.payload_len = src.payload_len;
        for hx in &self.headers {
            if !src.is_valid(hx.src_header) {
                continue;
            }
            for &(s, d, len) in &hx.runs {
                dst.bits[d..d + len].copy_from_slice(&src.bits[s..s + len]);
            }
            for &(s, d) in &hx.resized {
                dst.set_bits(d, src.bits(s));
            }
            dst.set_valid(hx.dst_header, true);
        }
        dst.stamp_arrival(port, dst_spec);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::load;
    use p4r_lang::parse_program;
    use proptest::prelude::*;

    fn spec() -> DataPlaneSpec {
        let prog = parse_program(
            r#"
header_type eth_t { fields { dst : 48; src : 48; etype : 16; } }
header eth_t eth;
header_type m_t { fields { x : 8; } }
metadata m_t m { x : 5; }
"#,
        )
        .unwrap();
        load(&prog).unwrap()
    }

    #[test]
    fn metadata_initialized_headers_invalid() {
        let s = spec();
        let phv = Phv::new(&s);
        assert_eq!(phv.get(s.field_id("m", "x").unwrap()).bits(), 5);
        assert!(phv.is_valid(s.header_idx("m").unwrap()));
        assert!(!phv.is_valid(s.header_idx("eth").unwrap()));
    }

    #[test]
    fn set_truncates_to_width() {
        let s = spec();
        let mut phv = Phv::new(&s);
        let id = s.field_id("m", "x").unwrap();
        phv.set(id, Value::new(0x1ff, 16));
        assert_eq!(phv.get(id).bits(), 0xff);
        assert_eq!(phv.get(id).width(), 8);
    }

    #[test]
    fn packet_desc_builds_phv() {
        let s = spec();
        let phv = PacketDesc::new(3)
            .field("eth", "dst", 0xaabb)
            .payload(100)
            .build(&s);
        assert!(phv.is_valid(s.header_idx("eth").unwrap()));
        assert_eq!(phv.get(s.field_id("eth", "dst").unwrap()).bits(), 0xaabb);
        assert_eq!(phv.ingress_port(&s), 3);
        // eth = 14 bytes + 100 payload
        assert_eq!(phv.frame_len(&s), 114);
        assert_eq!(phv.intr(&s, "pkt_len").as_u64(), 114);
    }

    #[test]
    #[should_panic(expected = "unknown field")]
    fn packet_desc_unknown_field_panics() {
        let s = spec();
        let _ = PacketDesc::new(0).field("nope", "f", 1).build(&s);
    }

    #[test]
    fn build_lossy_skips_unknown_fields() {
        let s = spec();
        let phv = PacketDesc::new(2)
            .field("nope", "f", 1)
            .field("eth", "dst", 0xaabb)
            .payload(10)
            .build_lossy(&s);
        assert!(phv.is_valid(s.header_idx("eth").unwrap()));
        assert_eq!(phv.get(s.field_id("eth", "dst").unwrap()).bits(), 0xaabb);
        assert_eq!(phv.ingress_port(&s), 2);
    }

    #[test]
    fn describe_round_trips_valid_headers() {
        let s = spec();
        let phv = PacketDesc::new(3)
            .field("eth", "dst", 0xaabb)
            .field("eth", "etype", 0x0800)
            .payload(100)
            .build(&s);
        let mut desc = phv.describe(&s);
        desc.port = 5;
        // Metadata never crosses the wire.
        assert!(desc.fields.iter().all(|(i, _, _)| i == "eth"));
        let back = desc.build_lossy(&s);
        assert_eq!(back.get(s.field_id("eth", "dst").unwrap()).bits(), 0xaabb);
        assert_eq!(back.get(s.field_id("eth", "etype").unwrap()).bits(), 0x0800);
        assert_eq!(back.ingress_port(&s), 5);
        assert_eq!(back.frame_len(&s), phv.frame_len(&s));
    }

    fn phv_eq(a: &Phv, b: &Phv) -> bool {
        a.bits == b.bits
            && a.widths == b.widths
            && a.valid == b.valid
            && a.dropped == b.dropped
            && a.payload_len == b.payload_len
    }

    #[test]
    fn reset_restores_fresh_state() {
        let s = spec();
        let mut phv = PacketDesc::new(3)
            .field("eth", "dst", 0xaabb)
            .payload(77)
            .build(&s);
        phv.dropped = true;
        phv.reset(&s);
        assert!(phv_eq(&phv, &Phv::new(&s)));
    }

    #[test]
    #[should_panic(expected = "phv-pool/spec-shape")]
    fn reset_rejects_mismatched_spec() {
        let s = spec();
        let other =
            load(&parse_program("header_type a_t { fields { x : 8; } } header a_t a;").unwrap())
                .unwrap();
        let mut phv = Phv::new(&other);
        phv.reset(&s);
    }

    /// Two programs of equal field and header counts but different widths
    /// share a freelist in a fabric, which keys freelists by those counts:
    /// a PHV recycled from one and taken by the other reads, and masks to,
    /// the receiver's widths.
    #[test]
    fn a_recycled_phv_takes_the_receivers_widths() {
        let spec = |widths: &str| {
            let src = format!("header_type h_t {{ fields {{ {widths} }} }} header h_t h;");
            load(&parse_program(&src).unwrap()).unwrap()
        };
        let (narrow, wide) = (spec("a : 8; b : 16;"), spec("a : 32; b : 4;"));
        let (a, b) = (
            wide.field_id("h", "a").unwrap(),
            wide.field_id("h", "b").unwrap(),
        );
        assert_eq!(
            (narrow.field_id("h", "a"), narrow.field_id("h", "b")),
            (Some(a), Some(b))
        );
        let mut pool = PhvPool::new(1);
        let mut parked = Phv::new(&narrow);
        parked.set_u64(a, 0xff);
        pool.put(parked);
        let mut got = pool.take(&wide);
        assert!(phv_eq(&got, &Phv::new(&wide)));
        assert_eq!((got.get(a).width(), got.get(b).width()), (32, 4));
        got.set_u64(a, 0x1_ff);
        got.set_u64(b, 0xff);
        assert_eq!((got.get_u64(a), got.get_u64(b)), (0x1_ff, 0xf));
        // And back: the narrow program's widths again.
        pool.put(got);
        let mut back = pool.take(&narrow);
        back.set_u64(a, 0x1_ff);
        assert_eq!((back.get(a).width(), back.get_u64(a)), (8, 0xff));
    }

    #[test]
    fn pool_recycles_up_to_cap() {
        let s = spec();
        let one = Phv::new(&s).heap_bytes();
        let (mut pool, mut other) = (PhvPool::new(2), PhvPool::new(3));
        for _ in 0..3 {
            other.put(Phv::new(&s));
        }
        pool.absorb(&mut other);
        assert_eq!((pool.arena_bytes(), other.arena_bytes()), (2 * one, 0));
        let phv = pool.take(&s);
        assert!(phv_eq(&phv, &Phv::new(&s)));
        assert_eq!(pool.arena_bytes(), one);
    }

    #[test]
    fn template_matches_desc_build() {
        let s = spec();
        let desc = PacketDesc::new(3)
            .field("eth", "dst", 0xaabb)
            .field("eth", "etype", 0x0800)
            .payload(64);
        let tmpl = PacketTemplate::compile(&desc, &s).unwrap();
        let mut got = Phv::new(&s);
        tmpl.write_into(&mut got, &s);
        assert!(phv_eq(&got, &desc.build(&s)));
    }

    #[test]
    fn template_set_value_rewrites_slot() {
        let s = spec();
        let desc = PacketDesc::new(1)
            .field("eth", "dst", 1)
            .field("eth", "src", 2);
        let mut tmpl = PacketTemplate::compile(&desc, &s).unwrap();
        tmpl.set_value(1, 99);
        tmpl.set_port(7);
        let mut got = Phv::new(&s);
        tmpl.write_into(&mut got, &s);
        assert_eq!(got.get(s.field_id("eth", "src").unwrap()).bits(), 99);
        assert_eq!(got.ingress_port(&s), 7);
    }

    #[test]
    fn template_unknown_field_errors() {
        let s = spec();
        let desc = PacketDesc::new(0).field("nope", "f", 1);
        assert!(PacketTemplate::compile(&desc, &s).is_err());
    }

    #[test]
    fn transfer_map_matches_describe_build_lossy() {
        let src = spec();
        let dst = load(
            &parse_program(
                r#"
header_type eth_t { fields { dst : 48; etype : 16; } }
header eth_t eth;
header_type v_t { fields { q : 4; } }
header v_t v;
"#,
            )
            .unwrap(),
        )
        .unwrap();
        let phv = PacketDesc::new(3)
            .field("eth", "dst", 0xaabb)
            .field("eth", "src", 0xcc)
            .field("eth", "etype", 0x0800)
            .payload(42)
            .build(&src);
        let mut desc = phv.describe(&src);
        desc.port = 5;
        let want = desc.build_lossy(&dst);
        let map = TransferMap::build(&src, &dst);
        let mut got = Phv::new(&dst);
        map.apply(&phv, &mut got, 5, &dst);
        assert!(phv_eq(&got, &want));
        // Invalid sender headers must not transfer.
        let empty = Phv::new(&src);
        let mut got2 = Phv::new(&dst);
        map.apply(&empty, &mut got2, 1, &dst);
        assert!(!got2.is_valid(dst.header_idx("eth").unwrap()));
    }

    /// What [`Phv::frame_len`] means, without the spec's precomputed
    /// per-header totals: walk every valid wire header's field list and
    /// sum the widths.
    fn frame_len_walk(phv: &Phv, spec: &DataPlaneSpec) -> u32 {
        let mut bits = 0u32;
        for (i, h) in spec.headers.iter().enumerate() {
            if !h.is_metadata && phv.valid[i] {
                for f in &h.fields {
                    bits += u32::from(spec.field_width(*f));
                }
            }
        }
        bits / 8 + phv.payload_len
    }

    /// Headers `h0..`, each a `(is_metadata, field widths)` pair. Two
    /// generated specs share header and field names, so a transfer
    /// between them carries some fields, resizes others and drops the
    /// rest.
    fn spec_of(headers: &[(bool, Vec<u16>)]) -> DataPlaneSpec {
        use std::fmt::Write;
        let mut src = String::new();
        for (i, (is_metadata, widths)) in headers.iter().enumerate() {
            write!(src, "header_type h{i}_t {{ fields {{").unwrap();
            for (f, w) in widths.iter().enumerate() {
                write!(src, " f{f} : {w};").unwrap();
            }
            if !is_metadata {
                writeln!(src, " }} }}\nheader h{i}_t h{i};").unwrap();
                continue;
            }
            // Inits that depend on the widths, so two programs whose
            // metadata differs in width differ in init too.
            write!(src, " }} }}\nmetadata h{i}_t h{i} {{").unwrap();
            for (f, w) in widths.iter().enumerate() {
                write!(src, " f{f} : {};", (i * 7 + f * 3) as u32 + u32::from(*w)).unwrap();
            }
            writeln!(src, " }}").unwrap();
        }
        load(&parse_program(&src).unwrap()).unwrap()
    }

    fn headers() -> impl Strategy<Value = Vec<(bool, Vec<u16>)>> {
        prop::collection::vec(
            (any::<bool>(), prop::collection::vec(1u16..=128, 1..5)),
            1..6,
        )
    }

    /// A write into an invalid wire header (`modify_field` on a packet
    /// without it) does not cross the wire: the copy path lands the
    /// receiver's init bits, and so must the move path.
    #[test]
    fn a_moved_phv_drops_bits_of_invalid_headers() {
        let prog = r#"
header_type eth_t { fields { dst : 48; src : 48; etype : 16; } }
header eth_t eth;
header_type v_t { fields { q : 8; } }
header v_t v;
header_type m_t { fields { x : 8; } }
metadata m_t m { x : 5; }
"#;
        let s = load(&parse_program(prog).unwrap()).unwrap();
        let map = TransferMap::build(&s, &s);
        assert!(map.is_identity());
        let mut phv = PacketDesc::new(1).field("eth", "dst", 0xaabb).build(&s);
        let q = s.field_id("v", "q").unwrap();
        phv.set(q, Value::new(0xab, 8));
        let mut copied = Phv::new(&s);
        map.apply(&phv, &mut copied, 4, &s);
        assert_eq!(copied.get_u64(q), 0);
        phv.rebase(4, &s);
        assert!(phv_eq(&phv, &copied));
    }

    /// `(is_metadata, field widths)` per header, as [`spec_of`] takes.
    type Headers = Vec<(bool, Vec<u16>)>;

    /// Header lists that differ only in their metadata's widths (and so
    /// inits): one wire layout, two programs.
    fn same_wire_layout_pair() -> impl Strategy<Value = (Headers, Headers)> {
        let widths = prop::collection::vec(1u16..=128, 20);
        (headers(), widths).prop_map(|(src, mut widths)| {
            let dst = src
                .iter()
                .map(|(is_metadata, w)| {
                    let w = if *is_metadata {
                        widths.drain(..w.len()).collect()
                    } else {
                        w.clone()
                    };
                    (*is_metadata, w)
                })
                .collect();
            (src, dst)
        })
    }

    proptest! {
        #[test]
        fn a_moved_phv_equals_the_copied_one(
            pair in same_wire_layout_pair(),
            bits in prop::collection::vec(any::<u128>(), 1..64),
            valid in prop::collection::vec(any::<bool>(), 6),
            payload in 0u32..(1 << 20),
            dropped in any::<bool>(),
        ) {
            let (src, dst) = (spec_of(&pair.0), spec_of(&pair.1));
            let map = TransferMap::build(&src, &dst);
            prop_assert!(map.is_identity());
            // Arbitrary bits everywhere — in invalid headers too — and
            // arbitrary wire-header validity.
            let mut phv = Phv::new(&src);
            for i in 0..src.fields.len() {
                phv.set_bits(FieldId(i as u32), bits[i % bits.len()]);
            }
            for (h, info) in src.headers.iter().enumerate() {
                if !info.is_metadata {
                    phv.set_valid(h, valid[h % valid.len()]);
                }
            }
            (phv.payload_len, phv.dropped) = (payload, dropped);
            let mut copied = Phv::new(&dst);
            map.apply(&phv, &mut copied, 3, &dst);
            phv.rebase(3, &dst);
            prop_assert!(phv_eq(&phv, &copied));
        }

        #[test]
        fn frame_len_matches_the_header_walk(
            src_headers in headers(),
            dst_headers in headers(),
            valid in prop::collection::vec(any::<bool>(), 5),
            payload in 0u32..(1 << 20),
        ) {
            let src = spec_of(&src_headers);
            let mut phv = Phv::new(&src);
            phv.payload_len = payload;
            for (i, (is_metadata, _)) in src_headers.iter().enumerate() {
                if !is_metadata {
                    phv.set_valid(src.header_idx(&format!("h{i}")).unwrap(), valid[i]);
                }
            }
            prop_assert_eq!(phv.frame_len(&src), frame_len_walk(&phv, &src));

            let dst = spec_of(&dst_headers);
            let mut got = Phv::new(&dst);
            TransferMap::build(&src, &dst).apply(&phv, &mut got, 3, &dst);
            prop_assert_eq!(got.frame_len(&dst), frame_len_walk(&got, &dst));
        }
    }
}
