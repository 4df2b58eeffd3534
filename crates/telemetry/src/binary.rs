//! Compact self-describing binary trace format — what the streaming
//! sink writes, and the only thing it writes.
//!
//! Streaming JSONL/Chrome text costs ~100 bytes of serde serialization
//! per event on one writer thread; at the million-receiver sweep scale
//! that single serializer *was* the bottleneck and the sink dropped half
//! the run (EXPERIMENTS.md X9), which is why the text lane was removed
//! and text artifacts are now derived offline by [`convert`]. The binary
//! format attacks both costs at once:
//!
//! * **Compact records.** A span/instant record is a 1-byte tag (event
//!   kind + interned phase index), a zigzag-varint timestamp delta
//!   against the previous record in its block, and varint track/scope —
//!   typically 4–8 bytes instead of ~100.
//! * **Self-describing.** The header carries the phase *label table*
//!   (interned strings, record tags index into it), the run metadata and
//!   the lane count, so a reader needs nothing but the file — phases
//!   added or reordered later decode by label, not by enum ordinal.
//! * **Per-lane blocks.** The body is a sequence of independent lane
//!   blocks, each self-contained (own timestamp base, declared payload
//!   length). Writers append whole blocks, so one writer thread per lane
//!   can encode privately and serialize only on the file append — see
//!   [`crate::sink::StreamingSink`].
//!
//! A truncated file (crash mid-run, full disk) decodes to every complete
//! block plus a [`BinaryTrace::truncated`] report describing the partial
//! tail — never a panic, never silent data loss.
//!
//! ```text
//! file   := magic "ODCB" | version u16 LE | phase-table | meta | lanes | block*
//! phase-table := varint count | (varint len | utf8 bytes)*
//! meta   := varint count | (string key | string value)*
//! block  := varint lane | varint records | varint payload-len | record*
//! record := tag u8 (kind << 6 | phase-index) | zigzag-varint ts-delta
//!           | varint track | varint scope
//! ```

use crate::event::{Event, EventKind, Phase};
use crate::export::{Output, TextFormat};
use crate::sink::OutputSummary;
use std::io;
use std::path::Path;

/// First four bytes of every binary trace file.
pub const MAGIC: [u8; 4] = *b"ODCB";

/// Format version stamped after the magic.
pub const BINARY_VERSION: u16 = 1;

// ------------------------------------------------------------- varints

/// Append `v` as an LEB128 varint (7 bits per byte, high bit = more).
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Append `v` zigzag-mapped (small magnitudes of either sign stay short).
fn put_zigzag(buf: &mut Vec<u8>, v: i64) {
    put_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Byte cursor over a decoded file. Every accessor returns `None` at end
/// of input so callers can distinguish truncation from corruption.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    fn varint(&mut self) -> Option<u64> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = *self.bytes.get(self.pos)?;
            self.pos += 1;
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Some(v);
            }
        }
        None
    }

    fn zigzag(&mut self) -> Option<i64> {
        let v = self.varint()?;
        Some(((v >> 1) as i64) ^ -((v & 1) as i64))
    }

    fn string(&mut self) -> Option<String> {
        let len = self.varint()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

// ------------------------------------------------------------- encoding

fn kind_code(kind: EventKind) -> u8 {
    match kind {
        EventKind::Begin => 0,
        EventKind::End => 1,
        EventKind::Instant => 2,
    }
}

fn kind_from_code(code: u8) -> Option<EventKind> {
    match code {
        0 => Some(EventKind::Begin),
        1 => Some(EventKind::End),
        2 => Some(EventKind::Instant),
        _ => None,
    }
}

/// Serialize the file header: magic, version, the interned phase-label
/// table (record tags index into it, in [`Phase::ALL`] order at write
/// time), the run metadata and the writer lane count.
pub fn encode_header(meta: &[(String, String)], lanes: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(256);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&BINARY_VERSION.to_le_bytes());
    put_varint(&mut buf, Phase::ALL.len() as u64);
    for phase in Phase::ALL {
        put_str(&mut buf, phase.label());
    }
    put_varint(&mut buf, meta.len() as u64);
    for (k, v) in meta {
        put_str(&mut buf, k);
        put_str(&mut buf, v);
    }
    put_varint(&mut buf, lanes as u64);
    buf
}

/// Serialize one self-contained lane block. Timestamps are delta-encoded
/// inside the block (first record is a delta against 0), so blocks can be
/// appended by independent writers in any interleaving.
pub fn encode_block(lane: u64, events: &[Event]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(events.len() * 8);
    let mut prev_ts: u64 = 0;
    for ev in events {
        let phase_idx = ev.phase.index() as u8;
        debug_assert!(phase_idx < 64, "phase index must fit the 6-bit tag");
        payload.push((kind_code(ev.kind) << 6) | (phase_idx & 0x3f));
        put_zigzag(&mut payload, (ev.ts_us as i64).wrapping_sub(prev_ts as i64));
        prev_ts = ev.ts_us;
        put_varint(&mut payload, ev.track);
        put_varint(&mut payload, ev.scope);
    }
    let mut block = Vec::with_capacity(payload.len() + 16);
    put_varint(&mut block, lane);
    put_varint(&mut block, events.len() as u64);
    put_varint(&mut block, payload.len() as u64);
    block.extend_from_slice(&payload);
    block
}

// ------------------------------------------------------------- decoding

/// Why a binary trace failed to decode. Truncation of the *body* is not
/// an error — see [`BinaryTrace::truncated`] — but a header too short to
/// describe the file, or garbage inside a complete block, is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinaryError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's version is newer than this reader.
    UnsupportedVersion(u16),
    /// The header ended early or contained malformed tables.
    Header(String),
    /// A phase label in the file matches no phase this build knows.
    UnknownPhase(String),
    /// A block declared complete contains malformed records.
    Corrupt(String),
}

impl std::fmt::Display for BinaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinaryError::BadMagic => write!(f, "not a binary trace (bad magic)"),
            BinaryError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported binary trace version {v} (reader speaks {BINARY_VERSION})"
                )
            }
            BinaryError::Header(msg) => write!(f, "malformed header: {msg}"),
            BinaryError::UnknownPhase(label) => write!(f, "unknown phase label `{label}`"),
            BinaryError::Corrupt(msg) => write!(f, "corrupt block: {msg}"),
        }
    }
}

impl std::error::Error for BinaryError {}

/// Decoded file header: everything before the first lane block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryHeader {
    /// Format version the writer stamped.
    pub version: u16,
    /// Phase label table, in file order; record tags index into it.
    pub labels: Vec<String>,
    /// Run metadata key/value pairs (scenario, seed, ...).
    pub meta: Vec<(String, String)>,
    /// Writer lanes the producer ran.
    pub lanes: u64,
}

/// A fully decoded binary trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryTrace {
    /// The file header.
    pub header: BinaryHeader,
    /// Every event from every complete block, in file order.
    pub events: Vec<Event>,
    /// `Some(description)` when the file ends mid-block (crash, full
    /// disk): all complete blocks still decoded, the partial tail did
    /// not.
    pub truncated: Option<String>,
}

/// Decode just the header; returns it plus the byte offset of the first
/// block. Used by `schema_check` to validate magic/version without
/// loading a multi-gigabyte sweep body.
pub fn decode_header(bytes: &[u8]) -> Result<(BinaryHeader, usize), BinaryError> {
    let mut c = Cursor::new(bytes);
    let magic = c.take(4).ok_or(BinaryError::BadMagic)?;
    if magic != MAGIC {
        return Err(BinaryError::BadMagic);
    }
    let version_bytes = c
        .take(2)
        .ok_or_else(|| BinaryError::Header("version cut off".into()))?;
    let version = u16::from_le_bytes([version_bytes[0], version_bytes[1]]);
    if version > BINARY_VERSION {
        return Err(BinaryError::UnsupportedVersion(version));
    }
    let n_labels = c
        .varint()
        .ok_or_else(|| BinaryError::Header("phase table count cut off".into()))?;
    if n_labels > 64 {
        return Err(BinaryError::Header(format!(
            "phase table has {n_labels} entries, tag byte indexes at most 64"
        )));
    }
    let mut labels = Vec::with_capacity(n_labels as usize);
    for i in 0..n_labels {
        labels.push(
            c.string()
                .ok_or_else(|| BinaryError::Header(format!("phase label {i} cut off")))?,
        );
    }
    let n_meta = c
        .varint()
        .ok_or_else(|| BinaryError::Header("meta count cut off".into()))?;
    let mut meta = Vec::with_capacity(n_meta.min(1024) as usize);
    for i in 0..n_meta {
        let k = c
            .string()
            .ok_or_else(|| BinaryError::Header(format!("meta key {i} cut off")))?;
        let v = c
            .string()
            .ok_or_else(|| BinaryError::Header(format!("meta value {i} cut off")))?;
        meta.push((k, v));
    }
    let lanes = c
        .varint()
        .ok_or_else(|| BinaryError::Header("lane count cut off".into()))?;
    Ok((
        BinaryHeader {
            version,
            labels,
            meta,
            lanes,
        },
        c.pos,
    ))
}

/// Decode a whole binary trace. Complete blocks always decode; a file cut
/// off mid-block yields the prefix plus a [`BinaryTrace::truncated`]
/// report instead of an error.
pub fn decode(bytes: &[u8]) -> Result<BinaryTrace, BinaryError> {
    let (header, body_start) = decode_header(bytes)?;
    let phases: Vec<Phase> = header
        .labels
        .iter()
        .map(|label| {
            Phase::ALL
                .iter()
                .copied()
                .find(|p| p.label() == label)
                .ok_or_else(|| BinaryError::UnknownPhase(label.clone()))
        })
        .collect::<Result<_, _>>()?;

    let mut c = Cursor::new(bytes);
    c.pos = body_start;
    let mut events = Vec::new();
    let mut truncated = None;

    while c.remaining() > 0 {
        let block_start = c.pos;
        let (Some(lane), Some(count), Some(payload_len)) = (c.varint(), c.varint(), c.varint())
        else {
            truncated = Some(format!(
                "file ends inside a block header ({} trailing byte(s) at offset {block_start})",
                bytes.len() - block_start
            ));
            break;
        };
        let Some(payload) = c.take(payload_len as usize) else {
            truncated = Some(format!(
                "lane {lane} block at offset {block_start} declares {payload_len} payload \
                 byte(s) but only {} remain — partial tail record(s) dropped",
                c.remaining()
            ));
            break;
        };
        let mut pc = Cursor::new(payload);
        let mut prev_ts: u64 = 0;
        for i in 0..count {
            let (Some(tag), Some(delta), Some(track), Some(scope)) = (
                pc.take(1).map(|b| b[0]),
                pc.zigzag(),
                pc.varint(),
                pc.varint(),
            ) else {
                return Err(BinaryError::Corrupt(format!(
                    "lane {lane} block at offset {block_start}: record {i} of {count} cut off \
                     inside a complete payload"
                )));
            };
            let kind = kind_from_code(tag >> 6).ok_or_else(|| {
                BinaryError::Corrupt(format!(
                    "lane {lane} block at offset {block_start}: record {i} has invalid kind bits"
                ))
            })?;
            let phase_idx = (tag & 0x3f) as usize;
            let phase = *phases.get(phase_idx).ok_or_else(|| {
                BinaryError::Corrupt(format!(
                    "lane {lane} block at offset {block_start}: record {i} indexes phase \
                     {phase_idx} outside the {}-entry table",
                    phases.len()
                ))
            })?;
            let ts_us = (prev_ts as i64).wrapping_add(delta) as u64;
            prev_ts = ts_us;
            events.push(Event {
                ts_us,
                phase,
                kind,
                track,
                scope,
            });
        }
        if pc.remaining() > 0 {
            return Err(BinaryError::Corrupt(format!(
                "lane {lane} block at offset {block_start}: {} byte(s) left after {count} \
                 record(s)",
                pc.remaining()
            )));
        }
    }

    Ok(BinaryTrace {
        header,
        events,
        truncated,
    })
}

/// Read and decode a binary trace file.
pub fn read_file(path: &Path) -> io::Result<BinaryTrace> {
    let bytes = std::fs::read(path)?;
    decode(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// Losslessly re-emit a decoded binary trace as the text stream formats
/// (`oddci trace convert`): every event, stamped `converted_from:
/// binary`. This is the only producer of JSONL and Chrome stream
/// artifacts.
///
/// Events come out in time order, ties broken by track and then by file
/// order. The sink's lanes interleave their blocks by timing but never
/// reorder one track, so the text depends on the events alone: the same
/// run converts to the same bytes.
pub fn convert(
    trace: &BinaryTrace,
    jsonl: Option<&Path>,
    chrome: Option<&Path>,
) -> io::Result<Vec<OutputSummary>> {
    let mut meta = trace.header.meta.clone();
    meta.push(("converted_from".to_string(), "binary".to_string()));
    let mut events: Vec<&Event> = trace.events.iter().collect();
    events.sort_by_key(|ev| (ev.ts_us, ev.track));
    let mut summaries = Vec::new();
    for (path, format) in [(jsonl, TextFormat::Jsonl), (chrome, TextFormat::Chrome)] {
        let Some(path) = path else { continue };
        let mut out = Output::create(path, format, &meta)?;
        for ev in &events {
            out.write_event(ev)?;
        }
        summaries.push(out.seal()?);
    }
    Ok(summaries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CONTROL_TRACK;

    fn ev(ts: u64, phase: Phase, kind: EventKind, track: u64, scope: u64) -> Event {
        Event {
            ts_us: ts,
            phase,
            kind,
            track,
            scope,
        }
    }

    fn sample() -> Vec<Event> {
        vec![
            ev(
                5,
                Phase::CarouselPublish,
                EventKind::Instant,
                CONTROL_TRACK,
                1,
            ),
            ev(10, Phase::WakeupWait, EventKind::Begin, 3, 1),
            ev(1_500_000, Phase::WakeupWait, EventKind::End, 3, 1),
            ev(1_500_000, Phase::DveBoot, EventKind::Begin, 3, 1),
            // Deliberately out of order: deltas must go negative cleanly.
            ev(200, Phase::Heartbeat, EventKind::Instant, 4, 2),
        ]
    }

    fn file_bytes(events: &[Event]) -> Vec<u8> {
        let meta = vec![("scenario".to_string(), "unit".to_string())];
        let mut bytes = encode_header(&meta, 2);
        bytes.extend_from_slice(&encode_block(0, &events[..3]));
        bytes.extend_from_slice(&encode_block(1, &events[3..]));
        bytes
    }

    #[test]
    fn round_trips_exactly() {
        let events = sample();
        let trace = decode(&file_bytes(&events)).unwrap();
        assert_eq!(trace.header.version, BINARY_VERSION);
        assert_eq!(trace.header.lanes, 2);
        assert_eq!(trace.header.meta[0], ("scenario".into(), "unit".into()));
        assert_eq!(trace.header.labels.len(), Phase::ALL.len());
        assert_eq!(trace.events, events);
        assert!(trace.truncated.is_none());
    }

    #[test]
    fn truncated_tail_is_reported_not_fatal() {
        let events = sample();
        let bytes = file_bytes(&events);
        // Cut inside the second block's payload: first block survives.
        let cut = bytes.len() - 3;
        let trace = decode(&bytes[..cut]).unwrap();
        assert_eq!(trace.events, events[..3].to_vec());
        let report = trace.truncated.expect("partial tail must be reported");
        assert!(report.contains("partial tail"), "{report}");
        // Cut inside a block header varint.
        let header_len = decode_header(&bytes).unwrap().1;
        let trace = decode(&bytes[..header_len + 1]).unwrap();
        assert!(trace.events.is_empty());
        assert!(trace.truncated.is_some());
    }

    #[test]
    fn bad_magic_and_future_version_error() {
        assert_eq!(decode(b"NOPE").unwrap_err(), BinaryError::BadMagic);
        let mut bytes = file_bytes(&sample());
        bytes[4] = 0xff;
        bytes[5] = 0xff;
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            BinaryError::UnsupportedVersion(_)
        ));
    }

    #[test]
    fn garbage_in_a_complete_block_is_corrupt() {
        let events = sample();
        let mut bytes = file_bytes(&events);
        // Invalid kind bits (0b11) in the first record's tag byte.
        let header_len = decode_header(&bytes).unwrap().1;
        // Skip the 3 block-header varints (lane/count/len, all < 128 here).
        bytes[header_len + 3] = 0xc0 | (bytes[header_len + 3] & 0x3f);
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            BinaryError::Corrupt(_)
        ));
    }

    #[test]
    fn converts_to_both_text_formats_in_time_order() {
        use crate::export::{read_jsonl_events, STREAM_VERSION};
        let dir = std::env::temp_dir();
        let stem = format!("oddci-binary-convert-{}", std::process::id());
        let jsonl_path = dir.join(format!("{stem}.trace.jsonl"));
        let chrome_path = dir.join(format!("{stem}.trace.stream.json"));
        let events = sample();
        let trace = decode(&file_bytes(&events)).unwrap();
        let outputs = convert(&trace, Some(&jsonl_path), Some(&chrome_path)).unwrap();
        assert_eq!(outputs.len(), 2);

        let text = std::fs::read_to_string(&jsonl_path).unwrap();
        assert_eq!(outputs[0].bytes, text.len() as u64);
        let (header, read_back) = read_jsonl_events(&text).unwrap();
        assert_eq!(header.version, STREAM_VERSION);
        assert_eq!(
            header.meta,
            vec![
                ("scenario".to_string(), "unit".to_string()),
                ("converted_from".to_string(), "binary".to_string()),
            ]
        );
        // The out-of-order heartbeat moves up to its timestamp.
        let mut timed = events.clone();
        timed.sort_by_key(|ev| (ev.ts_us, ev.track));
        assert_ne!(timed, events);
        assert_eq!(read_back, timed);

        let chrome_text = std::fs::read_to_string(&chrome_path).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&chrome_text).unwrap();
        let rows = doc["traceEvents"].as_array().unwrap();
        assert_eq!(rows.len(), 8, "3 thread_name meta rows + 5 events");
        assert_eq!(rows[0]["ph"].as_str(), Some("M"));
        assert_eq!(rows[1]["name"].as_str(), Some("carousel.publish"));
        assert!(doc["otherData"]["oddci_stream"].as_str().is_some());
        assert_eq!(doc["otherData"]["converted_from"].as_str(), Some("binary"));
        for p in [&jsonl_path, &chrome_path] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn varints_cover_the_edges() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(Cursor::new(&buf).varint(), Some(v));
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            put_zigzag(&mut buf, v);
            assert_eq!(Cursor::new(&buf).zigzag(), Some(v));
        }
    }
}
