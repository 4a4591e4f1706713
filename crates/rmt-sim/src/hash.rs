//! Hash units for `field_list_calculation`s (ECMP et al.).

use p4_ast::{HashAlgorithm, Value};

/// The byte string a hardware hash unit would see (each field big-endian,
/// padded to whole bytes), streamed so that hashing allocates nothing.
pub fn field_bytes(inputs: &[Value]) -> impl Iterator<Item = u8> + '_ {
    inputs
        .iter()
        .flat_map(|v| v.bits().to_be_bytes().into_iter().skip(16 - v.byte_width()))
}

/// CRC-16/ARC (poly 0x8005 reflected = 0xA001), the P4-14 `crc16` default.
pub fn crc16(data: impl IntoIterator<Item = u8>) -> u16 {
    let mut crc: u16 = 0;
    for b in data {
        crc ^= u16::from(b);
        for _ in 0..8 {
            if crc & 1 != 0 {
                crc = (crc >> 1) ^ 0xA001;
            } else {
                crc >>= 1;
            }
        }
    }
    crc
}

/// CRC-32 (IEEE 802.3, reflected poly 0xEDB88320).
pub fn crc32(data: impl IntoIterator<Item = u8>) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            if crc & 1 != 0 {
                crc = (crc >> 1) ^ 0xEDB8_8320;
            } else {
                crc >>= 1;
            }
        }
    }
    !crc
}

/// A xorshift-style mixer — models an alternative, differently-polarizing
/// hash strategy for the ECMP use case.
pub fn xor_mix(data: impl IntoIterator<Item = u8>) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for b in data {
        h ^= u64::from(b);
        h ^= h << 13;
        h ^= h >> 7;
        h ^= h << 17;
    }
    h
}

/// Identity: concatenates the low bits of the inputs.
pub fn identity(inputs: &[Value]) -> u128 {
    let mut acc: u128 = 0;
    for v in inputs {
        acc = (acc << v.width().min(64)) | (v.bits() & Value::mask_for(v.width().min(64)));
    }
    acc
}

/// Evaluate a hash over field values, truncated to `output_width` bits.
pub fn compute(alg: HashAlgorithm, inputs: &[Value], output_width: u16) -> Value {
    let raw: u128 = match alg {
        HashAlgorithm::Crc16 => u128::from(crc16(field_bytes(inputs))),
        HashAlgorithm::Crc32 => u128::from(crc32(field_bytes(inputs))),
        HashAlgorithm::XorMix => u128::from(xor_mix(field_bytes(inputs))),
        HashAlgorithm::Identity => identity(inputs),
    };
    Value::new(raw, output_width.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc16_known_vector() {
        // CRC-16/ARC("123456789") = 0xBB3D
        assert_eq!(crc16(*b"123456789"), 0xBB3D);
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") = 0xCBF43926
        assert_eq!(crc32(*b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn field_bytes_big_endian_padded() {
        let v = vec![Value::new(0x0102, 16), Value::new(0x3, 4)];
        assert_eq!(field_bytes(&v).collect::<Vec<_>>(), vec![0x01, 0x02, 0x03]);
    }

    #[test]
    fn compute_truncates_to_width() {
        let v = vec![Value::new(12345, 32)];
        let h = compute(HashAlgorithm::Crc32, &v, 8);
        assert_eq!(h.width(), 8);
        assert!(h.bits() < 256);
    }

    #[test]
    fn identity_concatenates() {
        let v = vec![Value::new(0xA, 4), Value::new(0xB, 4)];
        assert_eq!(identity(&v), 0xAB);
    }

    #[test]
    fn different_algorithms_differ() {
        let v = vec![Value::new(0xDEADBEEF, 32)];
        let a = compute(HashAlgorithm::Crc16, &v, 16).bits();
        let b = compute(HashAlgorithm::XorMix, &v, 16).bits();
        let c = compute(HashAlgorithm::Crc32, &v, 16).bits();
        // Not a strong property, but these specific constants do differ.
        assert!(a != b || b != c);
    }

    #[test]
    fn xor_mix_is_deterministic() {
        assert_eq!(xor_mix(*b"abc"), xor_mix(*b"abc"));
        assert_ne!(xor_mix(*b"abc"), xor_mix(*b"abd"));
    }
}
