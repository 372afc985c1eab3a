//! Bit-level reader and writer for the synthetic MP3-like stream.
//!
//! The synchronization/bit-unpacking front end of the decoder is not a
//! mapping target in the paper (it is control-dominated, not arithmetic), but
//! the Huffman stage needs a real bit stream to decode, so the synthetic frame
//! generator serializes quantized spectra through these.

/// Writes bits most-significant-first into a byte vector.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bit_pos: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        BitWriter::default()
    }

    /// Appends the lowest `count` bits of `value`, most significant first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn write_bits(&mut self, value: u32, count: u8) {
        assert!(count <= 32, "cannot write more than 32 bits at once");
        for i in (0..count).rev() {
            let bit = (value >> i) & 1;
            if self.bit_pos == 0 {
                self.bytes.push(0);
            }
            let last = self.bytes.last_mut().expect("byte pushed above");
            *last |= (bit as u8) << (7 - self.bit_pos);
            self.bit_pos = (self.bit_pos + 1) % 8;
        }
    }

    /// Finishes writing and returns the bytes (final partial byte zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// Reads bits most-significant-first from a byte slice.
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, pos: 0 }
    }

    /// Reads one bit; `None` at end of stream.
    pub fn read_bit(&mut self) -> Option<u8> {
        let byte = self.bytes.get(self.pos / 8)?;
        let bit = (byte >> (7 - (self.pos % 8))) & 1;
        self.pos += 1;
        Some(bit)
    }

    /// Reads `count` bits as an unsigned integer; `None` if the stream ends.
    ///
    /// # Panics
    ///
    /// Panics if `count > 32`.
    pub fn read_bits(&mut self, count: u8) -> Option<u32> {
        assert!(count <= 32, "cannot read more than 32 bits at once");
        let mut v = 0_u32;
        for _ in 0..count {
            v = (v << 1) | self.read_bit()? as u32;
        }
        Some(v)
    }

    /// Bits consumed so far.
    pub fn position(&self) -> usize {
        self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn write_then_read_round_trips() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFF, 8);
        w.write_bits(0, 1);
        w.write_bits(0b110011, 6);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3), Some(0b101));
        assert_eq!(r.read_bits(8), Some(0xFF));
        assert_eq!(r.read_bits(1), Some(0));
        assert_eq!(r.read_bits(6), Some(0b110011));
    }

    #[test]
    fn reading_past_end_returns_none() {
        let bytes = [0xAB];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8), Some(0xAB));
        assert_eq!(r.read_bit(), None);
        assert_eq!(r.read_bits(4), None);
    }

    #[test]
    fn position_counts_bits_read() {
        let bytes = [0u8; 4];
        let mut r = BitReader::new(&bytes);
        r.read_bits(10);
        assert_eq!(r.position(), 10);
    }

    #[test]
    fn empty_writer() {
        let w = BitWriter::new();
        assert!(w.into_bytes().is_empty());
    }

    proptest! {
        #[test]
        fn prop_values_round_trip(values in proptest::collection::vec((0u32..1u32<<16, 1u8..=16u8), 1..50)) {
            let mut w = BitWriter::new();
            for &(v, bits) in &values {
                let v = v & ((1u32 << bits) - 1).max(1);
                w.write_bits(v, bits);
            }
            let expected: Vec<u32> = values
                .iter()
                .map(|&(v, bits)| v & ((1u32 << bits) - 1).max(1))
                .collect();
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for (i, &(_, bits)) in values.iter().enumerate() {
                prop_assert_eq!(r.read_bits(bits), Some(expected[i]));
            }
        }
    }
}
