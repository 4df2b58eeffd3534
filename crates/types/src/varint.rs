//! LEB128 varints and their zigzag mapping: the one integer codec of the
//! wire messages, the headend snapshot and the binary trace format.
//!
//! A varint holds 7 bits per byte, low group first, with the high bit set
//! on every byte but the last. The decoder is strict: it refuses a varint
//! longer than 10 bytes, one past `u64::MAX` and one with a needless
//! trailing zero group, so every value has exactly one accepted encoding.

/// Why a varint failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarintError {
    /// The input ended before the varint's last byte.
    Truncated,
    /// The bytes are no varint's one accepted encoding.
    Malformed(&'static str),
}

/// Appends `v` as an LEB128 varint.
#[inline]
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Appends `v` zigzag-mapped onto a varint, so small magnitudes of either
/// sign stay short.
#[inline]
pub fn put_zigzag(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

/// Reads the varint at `buf[*pos..]` and advances `pos` past it.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, VarintError> {
    let mut v = 0u64;
    let mut shift = 0;
    while let Some(&b) = buf.get(*pos) {
        *pos += 1;
        if shift == 63 && b > 1 {
            return Err(VarintError::Malformed(if b & 0x80 != 0 {
                "varint longer than 10 bytes"
            } else {
                "varint overflows u64"
            }));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return if b == 0 && shift > 0 {
                Err(VarintError::Malformed("varint not minimally encoded"))
            } else {
                Ok(v)
            };
        }
        shift += 7;
    }
    Err(VarintError::Truncated)
}

/// Reads a zigzag-mapped `i64` (mirror of [`put_zigzag`]).
#[inline]
pub fn read_zigzag(buf: &[u8], pos: &mut usize) -> Result<i64, VarintError> {
    let v = read_varint(buf, pos)?;
    Ok((v >> 1) as i64 ^ -((v & 1) as i64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncation_is_told_from_malformation() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 300);
        assert_eq!(read_varint(&buf[..1], &mut 0), Err(VarintError::Truncated));
        assert!(matches!(
            read_varint(&[0x80, 0x00], &mut 0),
            Err(VarintError::Malformed(_))
        ));
    }
}
