//! MPEG-2 transport-stream multiplex model.
//!
//! A DTV service multiplexes audio, video and data elementary streams into
//! fixed 188-byte TS packets. The OddCI carousel rides in the *spare*
//! capacity β left over by the A/V programme (§4.1: "excess bandwidth in
//! the broadcast channel"). Framing costs bits, so the payload rate seen by
//! the carousel is lower than the nominal β; this module computes that
//! derating instead of hand-waving it.

use oddci_types::{Bandwidth, DataSize};
use serde::{Deserialize, Serialize};

/// Size of one MPEG-2 TS packet on the wire.
pub const TS_PACKET_BYTES: u64 = 188;
/// TS packet header (sync byte, PID, continuity counter, ...).
pub const TS_HEADER_BYTES: u64 = 4;
/// DSM-CC section overhead per section (table id, length, CRC32, ...).
pub const SECTION_HEADER_BYTES: u64 = 12;
/// Maximum payload carried by one DSM-CC section (DDB block).
pub const SECTION_PAYLOAD_BYTES: u64 = 4066;

/// The multiplex: nominal spare capacity plus framing accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransportMux {
    /// Nominal spare capacity β dedicated to the data stream.
    pub nominal: Bandwidth,
}

impl TransportMux {
    /// Creates a multiplex with nominal spare capacity `beta`.
    pub fn new(beta: Bandwidth) -> Self {
        assert!(beta.bps() > 0.0, "spare capacity must be positive");
        TransportMux { nominal: beta }
    }

    /// Bytes on the wire needed to carry `payload` bytes of carousel data.
    pub(crate) fn wire_size(&self, payload: DataSize) -> DataSize {
        let payload_bytes = payload.bytes_ceil();
        let sections = payload_bytes.div_ceil(SECTION_PAYLOAD_BYTES).max(1);
        let sectioned = payload_bytes + sections * SECTION_HEADER_BYTES;
        let ts_packets = sectioned.div_ceil(TS_PACKET_BYTES - TS_HEADER_BYTES);
        DataSize::from_bytes(ts_packets * TS_PACKET_BYTES)
    }
}

impl Default for TransportMux {
    fn default() -> Self {
        TransportMux::new(Bandwidth::from_mbps(1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_size_exceeds_payload_by_framing() {
        let mux = TransportMux::default();
        let payload = DataSize::from_megabytes(1);
        let wire = mux.wire_size(payload);
        assert!(wire > payload);
        // Overhead bounded by the inverse of the framing efficiency (TS
        // headers times section headers) plus one packet.
        let eff = (TS_PACKET_BYTES - TS_HEADER_BYTES) as f64 / TS_PACKET_BYTES as f64
            * SECTION_PAYLOAD_BYTES as f64
            / (SECTION_PAYLOAD_BYTES + SECTION_HEADER_BYTES) as f64;
        let max = payload.bits() as f64 / eff + (TS_PACKET_BYTES * 8) as f64;
        assert!((wire.bits() as f64) <= max, "wire={wire} max={max}");
    }

    #[test]
    fn tiny_payload_occupies_at_least_one_packet() {
        let mux = TransportMux::default();
        assert_eq!(
            mux.wire_size(DataSize::from_bytes(1)),
            DataSize::from_bytes(188)
        );
        assert_eq!(
            mux.wire_size(DataSize::from_bits(1)),
            DataSize::from_bytes(188)
        );
    }

    #[test]
    fn wire_size_is_monotone() {
        let mux = TransportMux::default();
        let mut prev = DataSize::ZERO;
        for kb in [1u64, 2, 4, 100, 1000, 10_000] {
            let w = mux.wire_size(DataSize::from_kilobytes(kb));
            assert!(w >= prev);
            prev = w;
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_beta_rejected() {
        let _ = TransportMux::new(Bandwidth::from_mbps(0.0));
    }
}
