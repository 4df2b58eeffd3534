// `unsafe` lives only in the poller's foreign calls, each under a
// `// SAFETY:` comment; panicking `unwrap`/`expect` stay out of the
// transport, whose failures must reach the shutdown accounting.
#![deny(unsafe_code)]
#![warn(
    clippy::undocumented_unsafe_blocks,
    clippy::unwrap_used,
    clippy::expect_used
)]

//! `oddci-wire`: the framed, checksummed wire protocol that carries the
//! OddCI live plane over real sockets.
//!
//! The in-process live runtime (`oddci-live`) exchanges control traffic
//! over channels; this crate gives the same vocabulary a byte-level
//! existence so a headend and its PNAs can live in separate processes.
//! It is layered bottom-up:
//!
//! * [`frame`] — a fixed 36-byte header (magic, version, kind, seq,
//!   chunk index/count, payload length) followed by the payload, sealed
//!   by either a CRC-32 or a truncated HMAC-SHA256 ([`Integrity`]). The
//!   [`FrameDecoder`] resynchronizes on the next magic after corruption
//!   or truncation instead of wedging the stream.
//! * [`envelope`] — chunking and reassembly, so a multi-hundred-kilobyte
//!   wakeup image streams as many small frames and survives duplication
//!   and reordering ([`encode_chunks`], [`Reassembler`]).
//! * [`codec`] / [`message`] — a deterministic little-endian binary
//!   codec and the [`WireMsg`] vocabulary (hello, heartbeat, task fetch,
//!   result upload, signed broadcast, shutdown).
//! * [`tcp`] — a `std::net` transport: a single-threaded, readiness-driven
//!   (epoll + wake fd) serving loop on the headend side ([`WireServer`],
//!   woken from other threads through a [`Waker`]) and a blocking
//!   direct-channel client per PNA ([`WireClient`]).
//! * [`fault`] — deterministic frame mangling driven by the shared
//!   fault injector, for rehearsing corruption on loopback.
//!
//! ```
//! use oddci_wire::{encode_chunks, FrameDecoder, Integrity, Reassembler};
//!
//! let image = vec![7u8; 40_000]; // a payload big enough to chunk
//! let frames = encode_chunks(&Integrity::Crc32, 8, 1, &image, 16 * 1024);
//! assert!(frames.len() > 1, "large payloads stream in several frames");
//!
//! let mut decoder = FrameDecoder::new(Integrity::Crc32);
//! for frame in &frames {
//!     decoder.extend(frame);
//! }
//! let mut reassembler = Reassembler::new();
//! let mut delivered = Vec::new();
//! while let Some(frame) = decoder.next_frame() {
//!     if let Some(message) = reassembler.push(frame) {
//!         delivered.push(message);
//!     }
//! }
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].payload, image);
//! ```

pub mod codec;
pub mod envelope;
pub mod fault;
pub mod frame;
pub mod message;
#[allow(unsafe_code)]
mod poller;
pub mod tcp;

pub use envelope::{encode_chunks, Assembled, Reassembler, ReassemblyStats, MAX_MESSAGE};
pub use fault::MangleReport;
pub use frame::{
    encode_frame, Frame, FrameDecoder, Integrity, DEFAULT_CHUNK, HEADER_LEN, MAX_FRAME_PAYLOAD,
};
pub use message::{WireBatch, WireMsg, PROTO_VERSION};
pub use poller::Waker;
pub use tcp::{
    ClientConfig, ConnId, ConnStatsHub, ConnTraffic, Outbox, ServerConfig, WireClient, WireServer,
    WireService, WireStats, WireStatsSnapshot,
};

use std::fmt;

/// Everything that can go wrong between two wire endpoints.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// Bytes decoded fine at the frame layer but the message inside is
    /// structurally invalid.
    Malformed(&'static str),
    /// The peer violated the protocol (bad version, unexpected message).
    Protocol(String),
    /// A blocking operation ran out of time.
    Timeout(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Malformed(what) => write!(f, "malformed wire message: {what}"),
            WireError::Protocol(what) => write!(f, "wire protocol violation: {what}"),
            WireError::Timeout(what) => write!(f, "wire timeout: {what}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}
