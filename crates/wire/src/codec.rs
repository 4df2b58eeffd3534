//! Minimal little-endian binary codec shared by the wire message
//! vocabulary (and by `oddci-live`'s image payloads).
//!
//! Hand-rolled on purpose: payload encoding must be byte-deterministic
//! (the envelope checksums it), compact (wakeup images dominate traffic)
//! and free of external parser dependencies. Every reader method is
//! length-checked and returns [`WireError::Malformed`] instead of
//! panicking — decoded bytes come straight off a socket.

use crate::WireError;
use oddci_types::varint::{self, VarintError};

/// Append-only little-endian byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// A writer pre-sized for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16` (LE).
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32` (LE).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` (LE).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i32` (LE, two's complement).
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern (exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a length-prefixed (`u32`) byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Writes raw bytes with no length prefix.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a `u64` as an LEB128 varint ([`oddci_types::varint`]).
    #[inline]
    pub fn varint(&mut self, v: u64) {
        varint::put_varint(&mut self.buf, v);
    }

    /// Writes an `i64` zigzag-mapped onto a varint, so small magnitudes
    /// of either sign stay short.
    #[inline]
    pub fn zigzag(&mut self, v: i64) {
        varint::put_zigzag(&mut self.buf, v);
    }
}

/// Cursor-based little-endian byte reader, mirror of [`Writer`].
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed (catches trailing garbage).
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after message"))
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Malformed("message ends mid-field"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16` (LE).
    pub fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32` (LE).
    pub fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64` (LE).
    pub fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `i32` (LE, two's complement).
    pub fn i32(&mut self) -> Result<i32, WireError> {
        let b = self.take(4)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte (strictly 0 or 1).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool byte out of range")),
        }
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads `n` raw bytes (mirror of [`Writer::raw`]).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Reads an LEB128 varint. Refuses one longer than 10 bytes, one past
    /// `u64::MAX` and one with a needless trailing zero group, so every
    /// value has exactly one accepted encoding.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        varint::read_varint(self.buf, &mut self.pos).map_err(malformed)
    }

    /// Reads a zigzag-mapped `i64` (mirror of [`Writer::zigzag`]).
    #[inline]
    pub fn zigzag(&mut self) -> Result<i64, WireError> {
        varint::read_zigzag(self.buf, &mut self.pos).map_err(malformed)
    }
}

/// A varint that does not decode is a malformed message, cut short or not.
#[inline]
fn malformed(e: VarintError) -> WireError {
    WireError::Malformed(match e {
        VarintError::Truncated => "message ends mid-field",
        VarintError::Malformed(why) => why,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_every_type() {
        let mut w = Writer::new();
        w.u8(7);
        w.u16(65_000);
        w.u32(4_000_000_000);
        w.u64(u64::MAX - 3);
        w.i32(-123_456);
        w.f64(0.1 + 0.2);
        w.bool(true);
        w.bytes(b"payload");
        let enc = w.into_bytes();
        let mut r = Reader::new(&enc);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 65_000);
        assert_eq!(r.u32().unwrap(), 4_000_000_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i32().unwrap(), -123_456);
        assert_eq!(r.f64().unwrap(), 0.1 + 0.2);
        assert!(r.bool().unwrap());
        assert_eq!(r.bytes().unwrap(), b"payload");
        assert!(r.finish().is_ok());
    }

    #[test]
    fn short_reads_error_instead_of_panicking() {
        let mut r = Reader::new(&[1, 2]);
        assert!(r.u64().is_err());
        let mut r = Reader::new(&[255, 255, 255, 255]); // length prefix 4 GiB
        assert!(r.bytes().is_err());
    }

    #[test]
    fn varints_and_zigzags_round_trip_at_every_width() {
        let mut w = Writer::new();
        let unsigned = [0, 1, 127, 128, 300, 1 << 35, u64::MAX - 1, u64::MAX];
        let signed = [0, -1, 1, -64, 64, i64::MIN, i64::MAX];
        for &v in &unsigned {
            w.varint(v);
        }
        for &v in &signed {
            w.zigzag(v);
        }
        let enc = w.into_bytes();
        let mut r = Reader::new(&enc);
        for &v in &unsigned {
            assert_eq!(r.varint().unwrap(), v);
        }
        for &v in &signed {
            assert_eq!(r.zigzag().unwrap(), v);
        }
        assert!(r.finish().is_ok());

        let mut w = Writer::new();
        w.varint(u64::MAX);
        assert_eq!(w.into_bytes().len(), 10, "u64::MAX takes the widest form");
        let mut w = Writer::new();
        w.zigzag(-1);
        w.zigzag(63);
        assert_eq!(w.into_bytes(), [1, 126], "small magnitudes stay one byte");
    }

    #[test]
    fn hostile_varints_are_malformed() {
        let eleven = [
            0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00,
        ];
        let overflow = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02];
        let overlong = [0x81, 0x00];
        let cut = [0x80, 0x80];
        for bytes in [&eleven[..], &overflow[..], &overlong[..], &cut[..]] {
            assert!(
                Reader::new(bytes).varint().is_err(),
                "{bytes:02x?} must not decode"
            );
        }
    }

    #[test]
    fn finish_catches_trailing_garbage() {
        let mut w = Writer::new();
        w.u8(1);
        w.u8(2);
        let enc = w.into_bytes();
        let mut r = Reader::new(&enc);
        assert_eq!(r.u8().unwrap(), 1);
        assert!(r.finish().is_err());
    }
}
