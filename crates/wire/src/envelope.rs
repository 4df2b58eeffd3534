//! The envelope layer: chunking a message into frames and reassembling
//! frames — possibly duplicated or out of order — back into messages.
//!
//! A message is `(kind, seq, payload)`. [`encode_chunks`] splits the
//! payload into `ceil(len / max_chunk)` frames sharing the same `kind`
//! and `seq` (a zero-length payload still produces one frame, so every
//! message is observable on the wire). The [`Reassembler`] is the
//! receiving half: it tolerates chunks arriving out of order, drops
//! duplicates (both duplicate chunks and whole replayed messages), and
//! bounds its memory by evicting the oldest partial message when a peer
//! starts too many at once.

use crate::frame::{encode_frame, encode_frame_into, Frame, Integrity};
use std::collections::{BTreeMap, BTreeSet};

/// Most partially-reassembled messages kept per connection before the
/// oldest is evicted.
pub const MAX_PARTIAL: usize = 64;
/// Largest reassembled message accepted (chunk_count × chunk size is
/// bounded by this).
pub const MAX_MESSAGE: usize = 64 * 1024 * 1024;
/// Completed-seq window remembered for duplicate suppression.
const DONE_WINDOW: usize = 1024;

/// The payload ranges `(index, count, lo..hi)` a message of `len` bytes
/// splits into; an empty message is one empty chunk.
///
/// # Panics
/// If `max_chunk` is zero or `len` exceeds [`MAX_MESSAGE`].
fn chunk_ranges(
    len: usize,
    max_chunk: usize,
) -> impl Iterator<Item = (u32, u32, std::ops::Range<usize>)> {
    assert!(max_chunk > 0, "chunk size must be positive");
    assert!(len <= MAX_MESSAGE, "message too large for the wire");
    let count = len.div_ceil(max_chunk).max(1);
    (0..count).map(move |i| {
        let lo = i * max_chunk;
        (i as u32, count as u32, lo..(lo + max_chunk).min(len))
    })
}

/// Splits `(kind, seq, payload)` into encoded frames of at most
/// `max_chunk` payload bytes each.
///
/// # Panics
/// If `max_chunk` is zero or the payload exceeds [`MAX_MESSAGE`].
pub fn encode_chunks(
    integrity: &Integrity,
    kind: u8,
    seq: u64,
    payload: &[u8],
    max_chunk: usize,
) -> Vec<Vec<u8>> {
    chunk_ranges(payload.len(), max_chunk)
        .map(|(i, count, range)| encode_frame(integrity, kind, seq, i, count, &payload[range]))
        .collect()
}

/// Like [`encode_chunks`], but appends the frames back to back to `out`
/// and returns how many there are — no allocation per frame.
///
/// # Panics
/// If `max_chunk` is zero or the payload exceeds [`MAX_MESSAGE`].
pub(crate) fn encode_chunks_into(
    out: &mut Vec<u8>,
    integrity: &Integrity,
    kind: u8,
    seq: u64,
    payload: &[u8],
    max_chunk: usize,
) -> usize {
    let mut frames = 0;
    for (i, count, range) in chunk_ranges(payload.len(), max_chunk) {
        encode_frame_into(out, integrity, kind, seq, i, count, &payload[range]);
        frames += 1;
    }
    frames
}

/// One fully reassembled message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assembled {
    /// Message kind (routes decoding).
    pub kind: u8,
    /// The sender's message number.
    pub seq: u64,
    /// The complete payload.
    pub payload: Vec<u8>,
    /// How many chunks carried it.
    pub chunks: u32,
}

/// Counters the reassembler keeps about one connection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReassemblyStats {
    /// Messages fully reassembled.
    pub messages: u64,
    /// Of those, messages that arrived in more than one chunk.
    pub multi_chunk: u64,
    /// Duplicate chunks (or whole replayed messages) dropped.
    pub duplicates: u64,
    /// Messages dropped because their chunks disagreed on kind/count or
    /// exceeded [`MAX_MESSAGE`].
    pub rejected: u64,
    /// Partial messages evicted under memory pressure.
    pub evicted: u64,
}

#[derive(Debug)]
struct Partial {
    kind: u8,
    chunks: Vec<Option<Vec<u8>>>,
    received: usize,
    bytes: usize,
}

/// Reorders, deduplicates and reassembles a connection's frames into
/// messages. One instance per inbound stream (state is keyed on `seq`,
/// which is only unique per sender).
#[derive(Debug, Default)]
pub struct Reassembler {
    partial: BTreeMap<u64, Partial>,
    done: BTreeSet<u64>,
    stats: ReassemblyStats,
}

impl Reassembler {
    /// An empty reassembler.
    pub fn new() -> Reassembler {
        Reassembler::default()
    }

    /// Connection counters so far.
    pub fn stats(&self) -> ReassemblyStats {
        self.stats
    }

    /// Feeds one verified frame; returns the message it completed, if any.
    pub fn push(&mut self, frame: Frame) -> Option<Assembled> {
        if self.done.contains(&frame.seq) {
            self.stats.duplicates += 1;
            return None;
        }
        let count = frame.chunk_count as usize;
        let idx = frame.chunk_index as usize;
        if idx >= count || count == 0 || count > MAX_MESSAGE / 1024 + 1 {
            self.stats.rejected += 1;
            return None;
        }
        let entry = self.partial.entry(frame.seq).or_insert_with(|| Partial {
            kind: frame.kind,
            chunks: {
                let mut v = Vec::with_capacity(count);
                v.resize_with(count, || None);
                v
            },
            received: 0,
            bytes: 0,
        });
        if entry.kind != frame.kind || entry.chunks.len() != count {
            // Chunks of one seq disagree: poisoned message, drop it all.
            self.partial.remove(&frame.seq);
            self.stats.rejected += 1;
            return None;
        }
        if entry.chunks[idx].is_some() {
            self.stats.duplicates += 1;
            return None;
        }
        entry.bytes += frame.payload.len();
        if entry.bytes > MAX_MESSAGE {
            self.partial.remove(&frame.seq);
            self.stats.rejected += 1;
            return None;
        }
        entry.chunks[idx] = Some(frame.payload);
        entry.received += 1;
        if entry.received < count {
            if self.partial.len() > MAX_PARTIAL {
                // Oldest (smallest seq) partial gives way.
                if let Some((&oldest, _)) = self.partial.iter().next() {
                    self.partial.remove(&oldest);
                    self.stats.evicted += 1;
                }
            }
            return None;
        }
        let done = self.partial.remove(&frame.seq)?;
        let mut payload = Vec::with_capacity(done.bytes);
        for chunk in done.chunks.into_iter().flatten() {
            payload.extend_from_slice(&chunk);
        }
        self.done.insert(frame.seq);
        while self.done.len() > DONE_WINDOW {
            self.done.pop_first();
        }
        self.stats.messages += 1;
        if count > 1 {
            self.stats.multi_chunk += 1;
        }
        Some(Assembled {
            kind: done.kind,
            seq: frame.seq,
            payload,
            chunks: count as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{FrameDecoder, Integrity};

    fn frames_of(bytes: Vec<Vec<u8>>) -> Vec<Frame> {
        let mut dec = FrameDecoder::new(Integrity::Crc32);
        for b in &bytes {
            dec.extend(b);
        }
        let mut out = Vec::new();
        while let Some(f) = dec.next_frame() {
            out.push(f);
        }
        out
    }

    #[test]
    fn single_chunk_round_trip() {
        let frames = frames_of(encode_chunks(&Integrity::Crc32, 4, 10, b"small", 1024));
        assert_eq!(frames.len(), 1);
        let mut r = Reassembler::new();
        let m = r
            .push(frames.into_iter().next().expect("one frame"))
            .expect("complete");
        assert_eq!(m.payload, b"small");
        assert_eq!(m.chunks, 1);
        assert_eq!(r.stats().multi_chunk, 0);
    }

    #[test]
    fn multi_chunk_out_of_order_and_duplicated() {
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let frames = frames_of(encode_chunks(&Integrity::Crc32, 2, 77, &payload, 1000));
        assert_eq!(frames.len(), 10);
        let mut shuffled = frames.clone();
        shuffled.reverse();
        shuffled.push(frames[3].clone()); // duplicate chunk
        let mut r = Reassembler::new();
        let mut delivered = Vec::new();
        for f in shuffled {
            if let Some(m) = r.push(f) {
                delivered.push(m);
            }
        }
        assert_eq!(delivered.len(), 1, "exactly once");
        assert_eq!(delivered[0].payload, payload);
        assert_eq!(delivered[0].chunks, 10);
        assert_eq!(r.stats().duplicates, 1);
        assert_eq!(r.stats().multi_chunk, 1);
    }

    #[test]
    fn replayed_message_is_suppressed() {
        let bytes = encode_chunks(&Integrity::Crc32, 1, 5, b"once", 64);
        let mut frames = frames_of(bytes.clone());
        frames.extend(frames_of(bytes)); // replay the whole message
        let mut r = Reassembler::new();
        let delivered: Vec<_> = frames.into_iter().filter_map(|f| r.push(f)).collect();
        assert_eq!(delivered.len(), 1);
        assert_eq!(r.stats().duplicates, 1);
    }

    #[test]
    fn zero_length_message_still_delivers() {
        let frames = frames_of(encode_chunks(&Integrity::Crc32, 8, 0, b"", 512));
        assert_eq!(frames.len(), 1);
        let mut r = Reassembler::new();
        let m = r
            .push(frames.into_iter().next().expect("frame"))
            .expect("message");
        assert!(m.payload.is_empty());
    }

    #[test]
    fn interleaved_messages_reassemble_independently() {
        let a = encode_chunks(&Integrity::Crc32, 1, 1, &[0xAA; 3000], 1000);
        let b = encode_chunks(&Integrity::Crc32, 1, 2, &[0xBB; 3000], 1000);
        let mut interleaved = Vec::new();
        for (fa, fb) in a.iter().zip(b.iter()) {
            interleaved.push(fa.clone());
            interleaved.push(fb.clone());
        }
        let mut r = Reassembler::new();
        let delivered: Vec<_> = frames_of(interleaved)
            .into_iter()
            .filter_map(|f| r.push(f))
            .collect();
        assert_eq!(delivered.len(), 2);
        assert!(delivered.iter().any(|m| m.payload == [0xAA; 3000]));
        assert!(delivered.iter().any(|m| m.payload == [0xBB; 3000]));
    }

    #[test]
    fn partial_flood_is_bounded() {
        let mut r = Reassembler::new();
        // Start MAX_PARTIAL + 40 two-chunk messages, never finishing them.
        for seq in 0..(MAX_PARTIAL as u64 + 40) {
            let frames = frames_of(encode_chunks(&Integrity::Crc32, 1, seq, &[1; 100], 50));
            let first = frames.into_iter().next().expect("first chunk");
            assert!(r.push(first).is_none());
        }
        assert!(r.partial.len() <= MAX_PARTIAL + 1);
        assert!(r.stats().evicted >= 39);
    }
}
