//! Stateful register arrays.
//!
//! Data-plane accesses hit a single cell per packet (the RMT constraint);
//! the control plane may read arbitrary ranges through the driver.

use crate::spec::RegisterSpec;
use p4_ast::Value;

/// A runtime register array.
#[derive(Clone, Debug)]
pub struct RegisterArray {
    pub name: String,
    width: u16,
    cells: Vec<Value>,
}

impl RegisterArray {
    pub fn new(spec: &RegisterSpec) -> Self {
        RegisterArray {
            name: spec.name.clone(),
            width: spec.width,
            cells: vec![Value::zero(spec.width); spec.count as usize],
        }
    }

    pub fn len(&self) -> usize {
        self.cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    pub fn width(&self) -> u16 {
        self.width
    }

    /// The cell a data-plane `index` addresses: out-of-range indexes wrap
    /// (hardware masks the index); one in range costs no division.
    #[inline]
    fn cell(&self, index: usize) -> Option<usize> {
        (index < self.cells.len())
            .then_some(index)
            .or_else(|| index.checked_rem(self.cells.len()))
    }

    /// Data-plane read; the index wraps.
    #[inline]
    pub fn read(&self, index: usize) -> Value {
        self.cell(index)
            .map_or(Value::zero(self.width), |i| self.cells[i])
    }

    /// Data-plane write; the value is truncated to the register width and
    /// the index wraps.
    #[inline]
    pub fn write(&mut self, index: usize, v: Value) {
        self.write_bits(index, v.bits());
    }

    /// [`write`](RegisterArray::write) from raw bits: one mask to the
    /// cell width, the index wraps.
    #[inline]
    pub(crate) fn write_bits(&mut self, index: usize, bits: u128) {
        if let Some(i) = self.cell(index) {
            let cell = &mut self.cells[i];
            *cell = cell.with_bits(bits);
        }
    }

    /// Data-plane read-modify-write increment (`count` primitive and
    /// timestamp registers).
    #[inline]
    pub fn increment(&mut self, index: usize, by: u64) {
        let bits = self.read(index).bits().wrapping_add(u128::from(by));
        self.write_bits(index, bits);
    }

    /// The cells `lo..=hi` (clamped to the array; empty when inverted).
    pub fn range(&self, lo: u32, hi: u32) -> &[Value] {
        let n = self.cells.len() as u32;
        if n == 0 || lo >= n || lo > hi {
            return &[];
        }
        let hi = hi.min(n - 1);
        &self.cells[lo as usize..=hi as usize]
    }

    /// Control-plane range read (inclusive bounds, clamped to the array).
    pub fn read_range(&self, lo: u32, hi: u32) -> Vec<Value> {
        self.range(lo, hi).to_vec()
    }

    /// Control-plane bulk write (prologue initialization).
    pub fn write_range(&mut self, lo: u32, values: &[Value]) {
        for (i, v) in values.iter().enumerate() {
            let idx = lo as usize + i;
            if idx < self.cells.len() {
                self.cells[idx] = v.resize(self.width);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4_ast::Pipeline;

    fn reg(width: u16, count: u32) -> RegisterArray {
        RegisterArray::new(&RegisterSpec {
            name: "r".into(),
            width,
            count,
            pipeline: Pipeline::Ingress,
        })
    }

    #[test]
    fn read_write_roundtrip() {
        let mut r = reg(32, 8);
        r.write(3, Value::new(42, 64));
        assert_eq!(r.read(3), Value::new(42, 32));
        assert_eq!(r.read(0), Value::zero(32));
    }

    #[test]
    fn index_wraps() {
        let mut r = reg(16, 4);
        r.write(5, Value::new(7, 16)); // 5 % 4 == 1
        assert_eq!(r.read(1).bits(), 7);
        assert_eq!(r.read(9).bits(), 7);
    }

    #[test]
    fn increment_wraps_at_width() {
        let mut r = reg(8, 1);
        r.write(0, Value::new(0xff, 8));
        r.increment(0, 1);
        assert_eq!(r.read(0).bits(), 0);
        r.increment(0, 300); // 300 % 256 == 44
        assert_eq!(r.read(0).bits(), 44);
    }

    #[test]
    fn range_reads_clamp() {
        let mut r = reg(32, 4);
        for i in 0..4 {
            r.write(i, Value::new(i as u128, 32));
        }
        assert_eq!(r.read_range(1, 2).len(), 2);
        assert_eq!(r.read_range(0, 100).len(), 4);
        assert!(r.read_range(10, 20).is_empty());
        assert_eq!(r.read_range(2, 2)[0].bits(), 2);
    }

    #[test]
    fn write_range_clamps() {
        let mut r = reg(32, 4);
        r.write_range(
            2,
            &[Value::new(9, 32), Value::new(8, 32), Value::new(7, 32)],
        );
        assert_eq!(r.read(2).bits(), 9);
        assert_eq!(r.read(3).bits(), 8);
        // index 4 silently ignored
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn zero_sized_register_is_inert() {
        let mut r = reg(32, 0);
        r.write(0, Value::new(1, 32));
        assert_eq!(r.read(0), Value::zero(32));
        assert!(r.read_range(0, 10).is_empty());
    }
}
