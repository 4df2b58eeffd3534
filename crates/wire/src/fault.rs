//! Wire-level fault injection: mangles encoded frames on their way out.
//!
//! The transports call `mangle_frames` right before bytes hit the
//! socket, so the *receiving* side's frame decoder and reassembler do
//! the recovering — exactly the paths the fault classes exist to
//! exercise:
//!
//! * [`FaultClass::FrameCorrupt`](oddci_faults::FaultClass::FrameCorrupt)
//!   flips one bit; the checksum must reject the frame.
//! * [`FaultClass::FrameTruncate`](oddci_faults::FaultClass::FrameTruncate)
//!   cuts the frame short; the decoder must resynchronize on the next
//!   magic.
//! * [`FaultClass::FrameReorder`](oddci_faults::FaultClass::FrameReorder)
//!   swaps adjacent frames of a multi-frame send, or duplicates a
//!   single-frame send; the reassembler must still deliver exactly once.
//!
//! Like every injector decision, mangling is a pure function of
//! `(seed, class, node, instant)` — replaying the same frames at the
//! same instants mangles them identically, which is what the seeded-plan
//! envelope tests assert.

use oddci_faults::FaultInjector;
use oddci_types::{NodeId, SimTime};

/// What `mangle_frames` did to one send.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MangleReport {
    /// Frames with a bit flipped.
    pub corrupted: u64,
    /// Frames cut short.
    pub truncated: u64,
    /// Sends duplicated / reordered.
    pub reordered: u64,
}

impl MangleReport {
    /// Total manglings applied.
    pub fn total(&self) -> u64 {
        self.corrupted + self.truncated + self.reordered
    }
}

/// Deterministic position scrambler (splitmix64 tail).
fn scramble(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 27)
}

/// Applies the wire fault classes of `injector` to the encoded frames of
/// one send by `node` at `now`. Returns what was done.
pub(crate) fn mangle_frames(
    injector: &FaultInjector,
    node: NodeId,
    now: SimTime,
    frames: &mut Vec<Vec<u8>>,
) -> MangleReport {
    let mut report = MangleReport::default();
    if injector.is_disabled() || frames.is_empty() {
        return report;
    }
    for (i, frame) in frames.iter_mut().enumerate() {
        // Distinct per-frame instants so each frame rolls independently.
        let at = SimTime::from_micros(now.as_micros().wrapping_add(i as u64 * 7919));
        if injector.frame_corrupted(node, at) {
            if !frame.is_empty() {
                let h = scramble(at.as_micros() ^ node.raw());
                let pos = (h % frame.len() as u64) as usize;
                frame[pos] ^= 1 << (h >> 32 & 7);
                report.corrupted += 1;
            }
        } else if injector.frame_truncated(node, at) {
            frame.truncate((frame.len() / 2).max(1));
            report.truncated += 1;
        }
    }
    // One reorder decision per send.
    let at = SimTime::from_micros(now.as_micros().wrapping_add(104_729));
    if injector.frame_reordered(node, at) {
        if frames.len() >= 2 {
            frames.swap(0, 1);
        } else {
            frames.push(frames[0].clone());
        }
        report.reordered += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{encode_chunks, Reassembler};
    use crate::frame::{FrameDecoder, Integrity};
    use oddci_faults::{FaultClass, FaultPlan, FaultSpec};

    fn frames_for(seq: u64, payload: &[u8]) -> Vec<Vec<u8>> {
        encode_chunks(&Integrity::Crc32, 1, seq, payload, 256)
    }

    fn injector(class: FaultClass, rate: f64) -> FaultInjector {
        FaultInjector::new(FaultPlan::none().with(FaultSpec::new(class, rate)), 7)
    }

    #[test]
    fn mangling_is_deterministic() {
        let inj = injector(FaultClass::FrameCorrupt, 0.5);
        let node = NodeId::new(3);
        let mut a = frames_for(1, &[0x5A; 2000]);
        let mut b = frames_for(1, &[0x5A; 2000]);
        let ra = mangle_frames(&inj, node, SimTime::from_micros(1234), &mut a);
        let rb = mangle_frames(&inj, node, SimTime::from_micros(1234), &mut b);
        assert_eq!(ra, rb);
        assert_eq!(a, b, "same seed, node and instant ⇒ identical bytes");
        assert!(ra.corrupted > 0, "rate 0.5 over 8 frames should fire");
    }

    #[test]
    fn corrupted_frames_never_deliver_wrong_bytes() {
        let inj = injector(FaultClass::FrameCorrupt, 1.0);
        let node = NodeId::new(0);
        let payload = vec![0xC3; 5000];
        let mut frames = frames_for(9, &payload);
        let report = mangle_frames(&inj, node, SimTime::from_micros(55), &mut frames);
        assert_eq!(report.corrupted, frames.len() as u64);
        let mut dec = FrameDecoder::new(Integrity::Crc32);
        let mut re = Reassembler::new();
        for f in &frames {
            dec.extend(f);
        }
        while let Some(f) = dec.next_frame() {
            assert!(re.push(f).is_none(), "no corrupted chunk may survive");
        }
        assert_eq!(dec.stats().rejected as usize, frames.len());
    }

    #[test]
    fn truncation_recovers_on_later_frames() {
        let inj = injector(FaultClass::FrameTruncate, 1.0);
        let node = NodeId::new(1);
        let mut lost = frames_for(0, &[1; 100]);
        mangle_frames(&inj, node, SimTime::from_micros(10), &mut lost);
        let clean = frames_for(1, &[2; 100]);
        let mut dec = FrameDecoder::new(Integrity::Crc32);
        for f in lost.iter().chain(clean.iter()) {
            dec.extend(f);
        }
        let mut re = Reassembler::new();
        let mut delivered = Vec::new();
        while let Some(f) = dec.next_frame() {
            if let Some(m) = re.push(f) {
                delivered.push(m);
            }
        }
        assert_eq!(delivered.len(), 1, "the clean message still arrives");
        assert_eq!(delivered[0].seq, 1);
    }

    #[test]
    fn reorder_and_duplicate_still_deliver_exactly_once() {
        let inj = injector(FaultClass::FrameReorder, 1.0);
        let node = NodeId::new(2);
        for payload_len in [10usize, 2000] {
            let payload = vec![0xEE; payload_len];
            let mut frames = frames_for(3, &payload);
            let report = mangle_frames(&inj, node, SimTime::from_micros(77), &mut frames);
            assert_eq!(report.reordered, 1);
            let mut dec = FrameDecoder::new(Integrity::Crc32);
            for f in &frames {
                dec.extend(f);
            }
            let mut re = Reassembler::new();
            let mut delivered = Vec::new();
            while let Some(f) = dec.next_frame() {
                if let Some(m) = re.push(f) {
                    delivered.push(m);
                }
            }
            assert_eq!(delivered.len(), 1);
            assert_eq!(delivered[0].payload, payload);
        }
    }

    #[test]
    fn disabled_injector_is_a_no_op() {
        let inj = FaultInjector::disabled();
        let mut frames = frames_for(0, &[9; 512]);
        let before = frames.clone();
        let report = mangle_frames(&inj, NodeId::new(0), SimTime::from_micros(1), &mut frames);
        assert_eq!(report.total(), 0);
        assert_eq!(frames, before);
    }
}
