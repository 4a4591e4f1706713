//! Byte-level packet parsing and deparsing through the program's parser
//! states.
//!
//! Most simulation traffic is injected as [`crate::PacketDesc`] field
//! assignments, but raw-frame parsing exists for examples and to keep the
//! parser states of loaded programs meaningful.

use crate::phv::Phv;
use crate::spec::{DataPlaneSpec, PortId, RParserNext};
use p4_ast::Value;

/// Errors from byte parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParsePktError {
    NoStartState,
    Truncated {
        header: String,
        need: usize,
        have: usize,
    },
    /// Cycle guard tripped (malformed parser graph).
    TooManyStates,
}

impl std::fmt::Display for ParsePktError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParsePktError::NoStartState => write!(f, "program has no `start` parser state"),
            ParsePktError::Truncated { header, need, have } => write!(
                f,
                "packet truncated while extracting `{header}`: need {need} bytes, have {have}"
            ),
            ParsePktError::TooManyStates => write!(f, "parser state limit exceeded"),
        }
    }
}

impl std::error::Error for ParsePktError {}

/// Parse raw bytes into a PHV, starting from the `start` state.
pub fn parse_packet(
    spec: &DataPlaneSpec,
    bytes: &[u8],
    port: PortId,
) -> Result<Phv, ParsePktError> {
    let mut phv = Phv::new(spec);
    let Some(start) = spec.parser_start else {
        return Err(ParsePktError::NoStartState);
    };
    let mut offset_bits = 0usize;
    let mut state = start;
    let mut steps = 0;
    loop {
        steps += 1;
        if steps > 64 {
            return Err(ParsePktError::TooManyStates);
        }
        let st = &spec.parser_states[state];
        for &h in &st.extracts {
            let hdr = &spec.headers[h];
            for &fid in &hdr.fields {
                let w = usize::from(spec.field_width(fid));
                let v =
                    read_bits(bytes, offset_bits, w).ok_or_else(|| ParsePktError::Truncated {
                        header: hdr.name.clone(),
                        need: (offset_bits + w).div_ceil(8),
                        have: bytes.len(),
                    })?;
                phv.set(fid, Value::new(v, w as u16));
                offset_bits += w;
            }
            phv.set_valid(h, true);
        }
        match &st.next {
            RParserNext::Ingress => break,
            RParserNext::State(n) => state = *n,
            RParserNext::Select {
                field,
                cases,
                default,
            } => {
                let v = phv.get(*field).bits();
                match cases.iter().find(|(c, _)| *c == v) {
                    Some((_, n)) => state = *n,
                    None => match default {
                        Some(n) => state = *n,
                        None => break,
                    },
                }
            }
        }
    }
    phv.payload_len = (bytes.len() - offset_bits / 8) as u32;
    phv.stamp_arrival(port, spec);
    Ok(phv)
}

/// Deparse the valid headers of a PHV back into bytes (headers in
/// declaration order; payload rendered as zeros).
pub fn deparse_packet(spec: &DataPlaneSpec, phv: &Phv) -> Vec<u8> {
    let mut bits: Vec<bool> = Vec::new();
    for (i, hdr) in spec.headers.iter().enumerate() {
        if hdr.is_metadata || !phv.is_valid(i) {
            continue;
        }
        for &fid in &hdr.fields {
            let w = usize::from(spec.field_width(fid));
            let v = phv.get(fid).bits();
            for b in (0..w).rev() {
                bits.push((v >> b) & 1 == 1);
            }
        }
    }
    let mut out = Vec::with_capacity(bits.len() / 8 + phv.payload_len as usize);
    for chunk in bits.chunks(8) {
        let mut byte = 0u8;
        for (i, &b) in chunk.iter().enumerate() {
            if b {
                byte |= 1 << (7 - i);
            }
        }
        out.push(byte);
    }
    out.extend(std::iter::repeat_n(0u8, phv.payload_len as usize));
    out
}

/// Read `width` bits starting at bit `offset` (big-endian bit order).
fn read_bits(bytes: &[u8], offset: usize, width: usize) -> Option<u128> {
    if offset + width > bytes.len() * 8 {
        return None;
    }
    let mut v: u128 = 0;
    for i in 0..width {
        let bit_index = offset + i;
        let byte = bytes[bit_index / 8];
        let bit = (byte >> (7 - (bit_index % 8))) & 1;
        v = (v << 1) | u128::from(bit);
    }
    Some(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::load;
    use p4r_lang::parse_program;

    const ETH_IP: &str = r#"
header_type eth_t { fields { dst : 48; src : 48; etype : 16; } }
header_type ipv4_t { fields { ver_ihl : 8; tos : 8; len : 16; id : 16; flags : 16; ttl : 8; proto : 8; csum : 16; src : 32; dst : 32; } }
header eth_t eth;
header_type m_t { fields { x : 8; } }
metadata m_t m;
header ipv4_t ipv4;
parser start {
    extract(eth);
    return select(eth.etype) {
        0x0800 : parse_ipv4;
        default : done;
    };
}
parser parse_ipv4 { extract(ipv4); return ingress; }
parser done { return ingress; }
"#;

    fn mk_frame() -> Vec<u8> {
        let mut f = Vec::new();
        f.extend_from_slice(&[0xAA; 6]); // dst
        f.extend_from_slice(&[0xBB; 6]); // src
        f.extend_from_slice(&[0x08, 0x00]); // IPv4
                                            // minimal ipv4: 20 bytes
        f.extend_from_slice(&[0x45, 0x00, 0x00, 0x28]);
        f.extend_from_slice(&[0x00, 0x01, 0x00, 0x00]);
        f.extend_from_slice(&[64, 6, 0x00, 0x00]); // ttl=64 proto=6
        f.extend_from_slice(&[10, 0, 0, 1]); // src
        f.extend_from_slice(&[10, 0, 0, 2]); // dst
        f.extend_from_slice(&[0u8; 26]); // payload
        f
    }

    #[test]
    fn parses_eth_ipv4() {
        let spec = load(&parse_program(ETH_IP).unwrap()).unwrap();
        let frame = mk_frame();
        let phv = parse_packet(&spec, &frame, 7).unwrap();
        assert!(phv.is_valid(spec.header_idx("eth").unwrap()));
        assert!(phv.is_valid(spec.header_idx("ipv4").unwrap()));
        assert_eq!(
            phv.get(spec.field_id("eth", "etype").unwrap()).bits(),
            0x0800
        );
        assert_eq!(phv.get(spec.field_id("ipv4", "ttl").unwrap()).bits(), 64);
        assert_eq!(
            phv.get(spec.field_id("ipv4", "src").unwrap()).bits(),
            0x0a000001
        );
        assert_eq!(phv.ingress_port(&spec), 7);
        assert_eq!(phv.payload_len, 26);
        assert_eq!(phv.frame_len(&spec), frame.len() as u32);
    }

    #[test]
    fn select_default_skips_ipv4() {
        let spec = load(&parse_program(ETH_IP).unwrap()).unwrap();
        let mut frame = mk_frame();
        frame[12] = 0x86; // not IPv4
        frame[13] = 0xDD;
        let phv = parse_packet(&spec, &frame, 0).unwrap();
        assert!(!phv.is_valid(spec.header_idx("ipv4").unwrap()));
        assert_eq!(phv.payload_len as usize, frame.len() - 14);
    }

    #[test]
    fn truncated_packet_errors() {
        let spec = load(&parse_program(ETH_IP).unwrap()).unwrap();
        let err = parse_packet(&spec, &[0u8; 10], 0).unwrap_err();
        assert!(matches!(err, ParsePktError::Truncated { .. }));
    }

    #[test]
    fn roundtrip_parse_deparse() {
        let spec = load(&parse_program(ETH_IP).unwrap()).unwrap();
        let frame = mk_frame();
        let phv = parse_packet(&spec, &frame, 0).unwrap();
        let out = deparse_packet(&spec, &phv);
        assert_eq!(out.len(), frame.len());
        // Headers match exactly; payload is zeroed (ours was zeros anyway).
        assert_eq!(&out[..34], &frame[..34]);
    }

    #[test]
    fn no_start_state_errors() {
        let spec = load(&parse_program("header_type h { fields { a : 8; } }").unwrap()).unwrap();
        assert_eq!(
            parse_packet(&spec, &[0u8; 8], 0).unwrap_err(),
            ParsePktError::NoStartState
        );
    }

    #[test]
    fn read_bits_crosses_bytes() {
        // 0b1010_1010, 0b1100_0011 — read 4 bits at offset 6 = 0b1011
        let bytes = [0b1010_1010, 0b1100_0011];
        assert_eq!(read_bits(&bytes, 6, 4), Some(0b1011));
        assert_eq!(read_bits(&bytes, 0, 16), Some(0xAAC3));
        assert_eq!(read_bits(&bytes, 12, 8), None);
    }
}
