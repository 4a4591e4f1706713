//! Arbitrary-width unsigned integer values as they appear in P4 programs and
//! in the simulated packet header vector (PHV).
//!
//! P4-14 fields are declared with a bit width between 1 and 128 (the widest
//! common field is an IPv6 address). All arithmetic is modular in the field
//! width, matching the behaviour of RMT action ALUs.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum supported field width in bits.
pub const MAX_WIDTH: u16 = 128;

/// An unsigned integer with an explicit bit width `1..=128`.
///
/// All operations truncate to the width of the *destination* operand, which
/// mirrors how RMT action units behave: the result of an ALU op is written
/// into a fixed-width PHV container.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Value {
    bits: u128,
    width: u16,
}

impl Value {
    /// Create a value, truncating `bits` to `width` bits.
    ///
    /// # Panics
    /// Panics if `width` is 0 or greater than [`MAX_WIDTH`].
    #[inline]
    pub fn new(bits: u128, width: u16) -> Self {
        if !(1..=MAX_WIDTH).contains(&width) {
            width_out_of_range(width);
        }
        Value {
            bits: bits & Self::mask_for(width),
            width,
        }
    }

    /// The all-zeros value of the given width.
    #[inline]
    pub fn zero(width: u16) -> Self {
        Value::new(0, width)
    }

    /// The all-ones value of the given width.
    #[inline]
    pub fn ones(width: u16) -> Self {
        Value::new(u128::MAX, width)
    }

    /// Bit mask selecting the low `width` bits.
    #[inline]
    pub fn mask_for(width: u16) -> u128 {
        if width >= 128 {
            u128::MAX
        } else {
            (1u128 << width) - 1
        }
    }

    /// Raw bits (already truncated to the width).
    #[inline]
    pub fn bits(&self) -> u128 {
        self.bits
    }

    /// Declared width in bits.
    #[inline]
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Width in whole bytes, rounded up.
    #[inline]
    pub fn byte_width(&self) -> usize {
        usize::from(self.width).div_ceil(8)
    }

    /// Reinterpret this value at a different width, truncating or
    /// zero-extending as needed.
    #[inline]
    pub fn resize(&self, width: u16) -> Self {
        Value::new(self.bits, width)
    }

    /// This container holding `bits` instead, truncated to its width — a
    /// PHV or register-cell write. One mask and no width check: the width
    /// was validated when `self` was built.
    #[inline]
    pub fn with_bits(self, bits: u128) -> Self {
        Value {
            bits: bits & Self::mask_for(self.width),
            width: self.width,
        }
    }

    /// Wrapping addition modulo `2^width` (width of `self`).
    #[inline]
    pub fn wrapping_add(&self, rhs: Value) -> Self {
        Value::new(self.bits.wrapping_add(rhs.bits), self.width)
    }

    /// Wrapping subtraction modulo `2^width` (width of `self`).
    #[inline]
    pub fn wrapping_sub(&self, rhs: Value) -> Self {
        Value::new(self.bits.wrapping_sub(rhs.bits), self.width)
    }

    /// Bitwise AND; result takes the width of `self`.
    #[inline]
    pub fn and(&self, rhs: Value) -> Self {
        Value::new(self.bits & rhs.bits, self.width)
    }

    /// Bitwise OR; result takes the width of `self`.
    #[inline]
    pub fn or(&self, rhs: Value) -> Self {
        Value::new(self.bits | rhs.bits, self.width)
    }

    /// Bitwise XOR; result takes the width of `self`.
    #[inline]
    pub fn xor(&self, rhs: Value) -> Self {
        Value::new(self.bits ^ rhs.bits, self.width)
    }

    /// Bitwise NOT within the width.
    #[inline]
    pub fn not(&self) -> Self {
        Value::new(!self.bits, self.width)
    }

    /// Logical shift left within the width.
    #[inline]
    pub fn shl(&self, amount: u32) -> Self {
        if amount >= 128 {
            Value::zero(self.width)
        } else {
            Value::new(self.bits << amount, self.width)
        }
    }

    /// Logical shift right.
    #[inline]
    pub fn shr(&self, amount: u32) -> Self {
        if amount >= 128 {
            Value::zero(self.width)
        } else {
            Value::new(self.bits >> amount, self.width)
        }
    }

    /// Ternary match: does `self` match `pattern` under `mask`?
    /// A set bit in `mask` means the corresponding bit must match exactly.
    #[inline]
    pub fn matches_ternary(&self, pattern: Value, mask: Value) -> bool {
        (self.bits & mask.bits) == (pattern.bits & mask.bits)
    }

    /// Longest-prefix match: does `self` match `pattern` in the top
    /// `prefix_len` bits of the field?
    #[inline]
    pub fn matches_prefix(&self, pattern: Value, prefix_len: u16) -> bool {
        debug_assert!(prefix_len <= self.width);
        if prefix_len == 0 {
            return true;
        }
        let shift = u32::from(self.width - prefix_len);
        (self.bits >> shift) == (pattern.bits >> shift)
    }

    /// Convert to `u64`, truncating high bits if the value is wider.
    #[inline]
    pub fn as_u64(&self) -> u64 {
        self.bits as u64
    }

    /// Convert to `usize`, truncating high bits if the value is wider.
    #[inline]
    pub fn as_usize(&self) -> usize {
        self.bits as usize
    }
}

/// The width check's failure arm, kept out of line so the constructors
/// and ALU ops above inline to a compare and a mask.
#[cold]
#[inline(never)]
fn width_out_of_range(width: u16) -> ! {
    panic!("field width {width} out of range 1..={MAX_WIDTH}");
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}w{}", self.bits, self.width)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bits > 255 {
            write!(f, "0x{:x}", self.bits)
        } else {
            write!(f, "{}", self.bits)
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::new(u128::from(b), 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_truncates_to_width() {
        assert_eq!(Value::new(0x1ff, 8).bits(), 0xff);
        assert_eq!(Value::new(0x100, 8).bits(), 0);
        assert_eq!(Value::new(u128::MAX, 128).bits(), u128::MAX);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_panics() {
        let _ = Value::new(0, 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn over_width_panics() {
        let _ = Value::new(0, 129);
    }

    #[test]
    fn wrapping_add_wraps_at_width() {
        let a = Value::new(0xff, 8);
        let b = Value::new(1, 8);
        assert_eq!(a.wrapping_add(b), Value::zero(8));
    }

    #[test]
    fn wrapping_sub_wraps_at_width() {
        let a = Value::zero(16);
        let b = Value::new(1, 16);
        assert_eq!(a.wrapping_sub(b), Value::ones(16));
    }

    #[test]
    fn shifts_saturate() {
        let a = Value::new(0b1010, 4);
        assert_eq!(a.shl(200), Value::zero(4));
        assert_eq!(a.shr(200), Value::zero(4));
        assert_eq!(a.shl(1).bits(), 0b0100);
        assert_eq!(a.shr(1).bits(), 0b0101);
    }

    #[test]
    fn ternary_matching() {
        let v = Value::new(0b1010_1010, 8);
        let pat = Value::new(0b1010_0000, 8);
        let mask_hi = Value::new(0b1111_0000, 8);
        assert!(v.matches_ternary(pat, mask_hi));
        assert!(!v.matches_ternary(pat, Value::ones(8)));
        // Zero mask matches anything.
        assert!(v.matches_ternary(Value::zero(8), Value::zero(8)));
    }

    #[test]
    fn prefix_matching() {
        let ip = Value::new(0x0a00_0001, 32); // 10.0.0.1
        let net = Value::new(0x0a00_0000, 32); // 10.0.0.0/8
        assert!(ip.matches_prefix(net, 8));
        assert!(ip.matches_prefix(net, 24));
        assert!(!ip.matches_prefix(net, 32));
        assert!(ip.matches_prefix(Value::zero(32), 0));
    }

    #[test]
    fn byte_width_rounds_up() {
        assert_eq!(Value::zero(1).byte_width(), 1);
        assert_eq!(Value::zero(8).byte_width(), 1);
        assert_eq!(Value::zero(9).byte_width(), 2);
        assert_eq!(Value::zero(128).byte_width(), 16);
    }

    #[test]
    fn resize_truncates_and_extends() {
        let v = Value::new(0x1234, 16);
        assert_eq!(v.resize(8).bits(), 0x34);
        assert_eq!(v.resize(32).bits(), 0x1234);
    }

    #[test]
    fn with_bits_keeps_width_and_truncates() {
        let v = Value::new(0x12, 8).with_bits(0x1ff);
        assert_eq!(v, Value::new(0xff, 8));
        assert_eq!(Value::zero(128).with_bits(u128::MAX), Value::ones(128));
    }

    proptest! {
        #[test]
        fn add_is_commutative(a in any::<u64>(), b in any::<u64>(), w in 1u16..=64) {
            let va = Value::new(u128::from(a), w);
            let vb = Value::new(u128::from(b), w);
            prop_assert_eq!(va.wrapping_add(vb), vb.wrapping_add(va).resize(w));
        }

        #[test]
        fn sub_inverts_add(a in any::<u64>(), b in any::<u64>(), w in 1u16..=64) {
            let va = Value::new(u128::from(a), w);
            let vb = Value::new(u128::from(b), w);
            prop_assert_eq!(va.wrapping_add(vb).wrapping_sub(vb), va);
        }

        #[test]
        fn value_never_exceeds_mask(bits in any::<u128>(), w in 1u16..=128) {
            let v = Value::new(bits, w);
            prop_assert_eq!(v.bits() & !Value::mask_for(w), 0);
        }

        #[test]
        fn full_mask_ternary_equals_exact(a in any::<u64>(), b in any::<u64>(), w in 1u16..=64) {
            let va = Value::new(u128::from(a), w);
            let vb = Value::new(u128::from(b), w);
            prop_assert_eq!(va.matches_ternary(vb, Value::ones(w)), va == vb);
        }

        #[test]
        fn full_prefix_equals_exact(a in any::<u32>(), b in any::<u32>()) {
            let va = Value::new(u128::from(a), 32);
            let vb = Value::new(u128::from(b), 32);
            prop_assert_eq!(va.matches_prefix(vb, 32), va == vb);
        }
    }
}
