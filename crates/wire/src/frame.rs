//! The frame layer: a fixed 36-byte header, an integrity check, and a
//! resynchronizing stream decoder.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     4  magic "ODWF"
//!      4     1  version (currently 1)
//!      5     1  kind (message kind, shared by all chunks of a message)
//!      6     2  reserved (zero)
//!      8     8  seq (per-connection monotonic message number)
//!     16     4  chunk_index
//!     20     4  chunk_count (>= 1)
//!     24     4  payload_len
//!     28     8  check (CRC32 zero-extended, or truncated HMAC-SHA256)
//!     36     …  payload
//! ```
//!
//! The check covers bytes `4..28` of the header (everything after the
//! magic, before the check itself) plus the payload, so a flipped bit
//! anywhere a fault can reach is caught. The decoder treats the magic as
//! a resynchronization point: after a corrupt or truncated frame it
//! scans forward for the next magic and resumes — one bad frame never
//! desynchronizes the connection.

use oddci_crypto::MessageAuthenticator;

/// Frame magic: the four bytes every frame starts with.
pub const MAGIC: [u8; 4] = *b"ODWF";
/// Protocol version carried in every header.
pub const VERSION: u8 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 36;
/// Default chunk payload size used by the transports.
pub const DEFAULT_CHUNK: usize = 16 * 1024;
/// Largest per-frame payload the decoder accepts (a header claiming more
/// is treated as corrupt).
pub const MAX_FRAME_PAYLOAD: usize = 256 * 1024;

/// How frames are checksummed.
///
/// `Crc32` detects accidental corruption; `Hmac` additionally
/// authenticates every frame with the controller key (the live plane
/// default — transport integrity rides the same key that signs control
/// messages).
#[derive(Clone)]
pub enum Integrity {
    /// IEEE CRC-32, zero-extended into the 8-byte check field.
    Crc32,
    /// HMAC-SHA256 truncated to 8 bytes, keyed via `oddci-crypto`.
    Hmac(MessageAuthenticator),
}

impl std::fmt::Debug for Integrity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Integrity::Crc32 => f.write_str("Integrity::Crc32"),
            Integrity::Hmac(_) => f.write_str("Integrity::Hmac(..)"),
        }
    }
}

impl Integrity {
    /// The HMAC flavour, keyed with `key` (use the controller key).
    pub fn hmac(key: &[u8]) -> Integrity {
        Integrity::Hmac(MessageAuthenticator::from_key(key))
    }

    /// The 8-byte check over a header core (bytes `4..28`) and payload.
    fn check(&self, header_core: &[u8], payload: &[u8]) -> u64 {
        match self {
            Integrity::Crc32 => u64::from(crc32_parts(&[header_core, payload])),
            Integrity::Hmac(auth) => {
                let mut mac = auth.begin();
                mac.update(header_core);
                mac.update(payload);
                let tag = mac.finalize();
                u64::from_le_bytes([
                    tag[0], tag[1], tag[2], tag[3], tag[4], tag[5], tag[6], tag[7],
                ])
            }
        }
    }
}

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

/// IEEE CRC-32 over the concatenation of `parts`.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        for &b in *part {
            c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

/// One decoded frame: a chunk of a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message kind (shared by every chunk of the message).
    pub kind: u8,
    /// Per-connection monotonic message number.
    pub seq: u64,
    /// This chunk's index within the message.
    pub chunk_index: u32,
    /// Total chunks in the message (>= 1).
    pub chunk_count: u32,
    /// The chunk payload.
    pub payload: Vec<u8>,
}

/// Encodes one frame into its wire bytes.
pub fn encode_frame(
    integrity: &Integrity,
    kind: u8,
    seq: u64,
    chunk_index: u32,
    chunk_count: u32,
    payload: &[u8],
) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    encode_frame_into(
        &mut out,
        integrity,
        kind,
        seq,
        chunk_index,
        chunk_count,
        payload,
    );
    out
}

/// Appends one frame's wire bytes to `out` — what a transport calls to
/// build a burst of frames in one output buffer.
pub fn encode_frame_into(
    out: &mut Vec<u8>,
    integrity: &Integrity,
    kind: u8,
    seq: u64,
    chunk_index: u32,
    chunk_count: u32,
    payload: &[u8],
) {
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD);
    debug_assert!(chunk_count >= 1 && chunk_index < chunk_count);
    let start = out.len();
    out.reserve(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
    out.extend_from_slice(&[0, 0]);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&chunk_index.to_le_bytes());
    out.extend_from_slice(&chunk_count.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let check = integrity.check(&out[start + 4..start + 28], payload);
    out.extend_from_slice(&check.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Counters the decoder keeps about one byte stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Frames decoded and checksum-verified.
    pub frames: u64,
    /// Frames rejected on a failed check or malformed header.
    pub rejected: u64,
    /// Times the decoder had to scan forward for the next magic.
    pub resyncs: u64,
}

/// Incremental frame decoder over a byte stream.
///
/// Feed raw socket bytes with [`extend`](FrameDecoder::extend), then
/// drain frames with [`next_frame`](FrameDecoder::next_frame). Corrupt,
/// truncated or malformed input is counted and skipped: the decoder
/// resynchronizes on the next [`MAGIC`].
#[derive(Debug)]
pub struct FrameDecoder {
    integrity: Integrity,
    buf: Vec<u8>,
    stats: DecodeStats,
}

impl FrameDecoder {
    /// A decoder validating frames with `integrity`.
    pub fn new(integrity: Integrity) -> FrameDecoder {
        FrameDecoder {
            integrity,
            buf: Vec::new(),
            stats: DecodeStats::default(),
        }
    }

    /// Appends raw stream bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Stream counters so far.
    pub fn stats(&self) -> DecodeStats {
        self.stats
    }

    /// Bytes buffered but not yet consumed.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Drops `n` bytes from the front of the buffer.
    fn skip(&mut self, n: usize) {
        self.buf.drain(..n.min(self.buf.len()));
    }

    /// Aligns the buffer start on the next magic. Returns `false` when no
    /// magic is in the buffer (all but a potential magic prefix dropped).
    fn align_to_magic(&mut self) -> bool {
        if self.buf.len() >= 4 && self.buf[..4] == MAGIC {
            return true;
        }
        match self
            .buf
            .windows(4)
            .skip(1)
            .position(|w| w == MAGIC)
            .map(|p| p + 1)
        {
            Some(p) => {
                self.skip(p);
                self.stats.resyncs += 1;
                true
            }
            None => {
                // Keep a potential partial magic at the tail.
                let keep = self.buf.len().min(3);
                let dropped = self.buf.len() - keep;
                if dropped > 0 {
                    self.skip(dropped);
                    self.stats.resyncs += 1;
                }
                false
            }
        }
    }

    /// The next verified frame, if one is complete in the buffer.
    pub fn next_frame(&mut self) -> Option<Frame> {
        loop {
            if !self.align_to_magic() || self.buf.len() < HEADER_LEN {
                return None;
            }
            let h = &self.buf[..HEADER_LEN];
            let version = h[4];
            let kind = h[5];
            let seq = u64::from_le_bytes([h[8], h[9], h[10], h[11], h[12], h[13], h[14], h[15]]);
            let chunk_index = u32::from_le_bytes([h[16], h[17], h[18], h[19]]);
            let chunk_count = u32::from_le_bytes([h[20], h[21], h[22], h[23]]);
            let payload_len = u32::from_le_bytes([h[24], h[25], h[26], h[27]]) as usize;
            let check =
                u64::from_le_bytes([h[28], h[29], h[30], h[31], h[32], h[33], h[34], h[35]]);
            let sane = version == VERSION
                && payload_len <= MAX_FRAME_PAYLOAD
                && chunk_count >= 1
                && chunk_index < chunk_count;
            if !sane {
                // Malformed header: reject and rescan one byte in (the
                // real next frame may start inside what we just read).
                self.stats.rejected += 1;
                self.skip(1);
                continue;
            }
            if self.buf.len() < HEADER_LEN + payload_len {
                return None;
            }
            let payload = &self.buf[HEADER_LEN..HEADER_LEN + payload_len];
            if self.integrity.check(&self.buf[4..28], payload) != check {
                self.stats.rejected += 1;
                self.skip(1);
                continue;
            }
            let frame = Frame {
                kind,
                seq,
                chunk_index,
                chunk_count,
                payload: payload.to_vec(),
            };
            self.skip(HEADER_LEN + payload_len);
            self.stats.frames += 1;
            return Some(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(dec: &mut FrameDecoder) -> Vec<Frame> {
        let mut out = Vec::new();
        while let Some(f) = dec.next_frame() {
            out.push(f);
        }
        out
    }

    #[test]
    fn round_trip_both_integrities() {
        for integrity in [Integrity::Crc32, Integrity::hmac(b"key")] {
            let bytes = encode_frame(&integrity, 3, 7, 0, 1, b"hello wire");
            let mut dec = FrameDecoder::new(integrity);
            dec.extend(&bytes);
            let frames = decode_all(&mut dec);
            assert_eq!(frames.len(), 1);
            assert_eq!(frames[0].kind, 3);
            assert_eq!(frames[0].seq, 7);
            assert_eq!(frames[0].payload, b"hello wire");
            assert_eq!(dec.stats().rejected, 0);
        }
    }

    #[test]
    fn empty_payload_round_trips() {
        let bytes = encode_frame(&Integrity::Crc32, 9, 0, 0, 1, b"");
        let mut dec = FrameDecoder::new(Integrity::Crc32);
        dec.extend(&bytes);
        let frames = decode_all(&mut dec);
        assert_eq!(frames.len(), 1);
        assert!(frames[0].payload.is_empty());
    }

    #[test]
    fn byte_at_a_time_feeding_works() {
        let bytes = encode_frame(&Integrity::Crc32, 1, 1, 0, 1, &[0xAB; 100]);
        let mut dec = FrameDecoder::new(Integrity::Crc32);
        let mut got = Vec::new();
        for b in &bytes {
            dec.extend(std::slice::from_ref(b));
            got.extend(decode_all(&mut dec));
        }
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, vec![0xAB; 100]);
    }

    #[test]
    fn flipped_bit_is_rejected_and_next_frame_survives() {
        let good = encode_frame(&Integrity::hmac(b"k"), 1, 1, 0, 1, &[1, 2, 3, 4]);
        let mut bad = encode_frame(&Integrity::hmac(b"k"), 1, 0, 0, 1, &[9, 9, 9, 9]);
        bad[HEADER_LEN + 2] ^= 0x10; // corrupt the payload
        let mut dec = FrameDecoder::new(Integrity::hmac(b"k"));
        dec.extend(&bad);
        dec.extend(&good);
        let frames = decode_all(&mut dec);
        assert_eq!(frames.len(), 1, "only the good frame is delivered");
        assert_eq!(frames[0].payload, vec![1, 2, 3, 4]);
        assert!(dec.stats().rejected >= 1);
    }

    #[test]
    fn truncated_frame_resyncs_on_next_magic() {
        // A truncated frame is indistinguishable from a partial arrival
        // until enough later bytes land to cover its claimed length, so
        // follow it with more traffic than it is missing — the steady
        // heartbeat stream plays that role on a real connection.
        let mut truncated = encode_frame(&Integrity::Crc32, 1, 0, 0, 1, &[7; 100]);
        truncated.truncate(truncated.len() / 2);
        let good = encode_frame(&Integrity::Crc32, 2, 1, 0, 1, &[8; 500]);
        let mut dec = FrameDecoder::new(Integrity::Crc32);
        dec.extend(&truncated);
        dec.extend(&good);
        let frames = decode_all(&mut dec);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].kind, 2);
        assert_eq!(frames[0].payload, vec![8; 500]);
        assert!(dec.stats().rejected >= 1);
    }

    #[test]
    fn garbage_prefix_is_skipped() {
        let good = encode_frame(&Integrity::Crc32, 5, 3, 0, 1, b"x");
        let mut dec = FrameDecoder::new(Integrity::Crc32);
        dec.extend(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x42]);
        dec.extend(&good);
        let frames = decode_all(&mut dec);
        assert_eq!(frames.len(), 1);
        assert!(dec.stats().resyncs >= 1);
    }

    #[test]
    fn wrong_key_rejects_everything() {
        let bytes = encode_frame(&Integrity::hmac(b"alice"), 1, 0, 0, 1, b"secret");
        let mut dec = FrameDecoder::new(Integrity::hmac(b"mallory"));
        dec.extend(&bytes);
        assert!(decode_all(&mut dec).is_empty());
        assert!(dec.stats().rejected >= 1);
    }

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE CRC-32 of "123456789".
        assert_eq!(crc32_parts(&[b"123456789"]), 0xCBF4_3926);
        assert_eq!(crc32_parts(&[b"1234", b"56789"]), 0xCBF4_3926);
    }

    #[test]
    fn hmac_check_equals_the_tag_over_the_joined_bytes() {
        let integrity = Integrity::hmac(b"controller-key");
        let Integrity::Hmac(auth) = &integrity else {
            unreachable!("Integrity::hmac builds the Hmac flavour");
        };
        for payload_len in [0usize, 1, 24, 39, 40, 100, 5_000] {
            let payload: Vec<u8> = (0..payload_len).map(|i| (i * 31 % 251) as u8).collect();
            let frame = encode_frame(&integrity, 4, 9, 0, 1, &payload);
            let core = &frame[4..28];
            let joined = [core, &payload[..]].concat();
            let tag = auth.sign(&joined);
            assert_eq!(frame[28..36], tag[..8], "payload of {payload_len} bytes");
            assert_eq!(
                integrity.check(core, &payload),
                u64::from_le_bytes(tag[..8].try_into().expect("8 bytes"))
            );
        }
    }
}
