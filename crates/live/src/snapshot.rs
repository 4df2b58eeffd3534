//! Durability snapshots of headend state.
//!
//! A snapshot is everything a standby headend needs to adopt a crashed
//! primary's fleet mid-job: the Controller's state (membership,
//! heartbeat ledger, next message id), the Backend's task ledgers,
//! the Provider's request table, the hub's job bookkeeping, the carousel's
//! image recipes and the wire plane's node-id namespace. Timestamps are
//! stored as *ages* relative to the snapshot instant — the standby runs
//! its own clock, so absolute instants from the primary would be
//! meaningless there (see `SimTime::saturating_sub`).
//!
//! On disk a snapshot is a small self-describing container:
//!
//! ```text
//! magic "OSNP" | version u16 | epoch u64 | payload len u32 | payload | crc32 u32
//! ```
//!
//! (all integers little-endian; the checksum covers version..payload).
//! The payload is the serde_json encoding of [`SnapshotState`] — the
//! format is versioned so a future layout change bumps
//! [`SNAPSHOT_VERSION`] instead of silently misreading old files, and
//! checksummed so a torn write (crash mid-snapshot) is *detected* rather
//! than adopted. [`write_file`] writes to a temporary sibling and renames
//! into place, so the published path always holds a complete snapshot.

use crate::image::AlignmentImage;
use oddci_core::autoscale::AutoscaleExport;
use oddci_core::backend::BackendState;
use oddci_core::controller::ControllerState;
use oddci_core::provider::ProviderState;
use oddci_types::{InstanceId, JobId, TaskId};
use oddci_wire::frame::crc32_parts;
use oddci_workload::alignment::Scoring;
use serde::{Deserialize, Serialize};
use std::io;
use std::path::Path;

/// File magic identifying a headend snapshot container.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"OSNP";
/// Container layout version this build writes and reads.
pub const SNAPSHOT_VERSION: u16 = 1;
/// Conventional file name inside a `--snapshot-dir`.
pub const SNAPSHOT_FILE: &str = "headend.snap";

/// Fixed container overhead: magic + version + epoch + length + checksum.
const CONTAINER_OVERHEAD: usize = 4 + 2 + 8 + 4 + 4;

/// An [`AlignmentImage`] recipe in serializable form. The materialized
/// database is *not* exported — every field needed to regenerate it
/// deterministically is, so adopted wakeups rebuild the identical bytes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageExport {
    /// Seed regenerating the reference database.
    pub db_seed: u64,
    /// Database length in bases.
    pub db_len: u64,
    /// Seed word length for the index.
    pub k: u64,
    /// Alignment match score.
    pub matched: i32,
    /// Alignment mismatch penalty.
    pub mismatch: i32,
    /// Alignment gap penalty.
    pub gap: i32,
    /// Window for seed extension.
    pub window: u64,
    /// Minimum reported score.
    pub min_score: i32,
}

impl ImageExport {
    /// Captures a recipe (dropping any prefetched database bytes — they
    /// regenerate from the seed).
    pub fn from_image(image: &AlignmentImage) -> ImageExport {
        ImageExport {
            db_seed: image.db_seed,
            db_len: image.db_len as u64,
            k: image.k as u64,
            matched: image.scoring.matched,
            mismatch: image.scoring.mismatch,
            gap: image.scoring.gap,
            window: image.window as u64,
            min_score: image.min_score,
        }
    }

    /// Rebuilds the runnable recipe.
    pub fn to_image(&self) -> AlignmentImage {
        AlignmentImage {
            db_seed: self.db_seed,
            db_len: self.db_len as usize,
            k: self.k as usize,
            scoring: Scoring {
                matched: self.matched,
                mismatch: self.mismatch,
                gap: self.gap,
            },
            window: self.window as usize,
            min_score: self.min_score,
            prefetched: None,
        }
    }
}

/// Complete exported headend state — the payload of one snapshot.
///
/// Maps are exported as sorted pair vectors (not JSON objects) because
/// their keys are numeric newtypes, and so the encoding is byte-stable
/// for the round-trip property tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotState {
    /// The writing headend's fencing epoch.
    pub epoch: u64,
    /// Microseconds on the writing headend's clock when the snapshot was
    /// cut — the replay boundary for trailing trace events.
    pub taken_at_us: u64,
    /// Controller state: one entry as written here. A snapshot of a
    /// headend that split its fleet between several Controllers carries
    /// one each; adoption folds them into one
    /// ([`ControllerState::fold`]).
    pub shards: Vec<ControllerState>,
    /// The shared Backend's task ledgers.
    pub backend: BackendState,
    /// The Provider's request table.
    pub provider: ProviderState,
    /// Instance → job routing.
    pub instance_job: Vec<(InstanceId, JobId)>,
    /// Per-job query payloads (task index → query bytes).
    pub job_queries: Vec<(JobId, Vec<Vec<u8>>)>,
    /// Per-job best scores reported so far.
    pub job_scores: Vec<(JobId, Vec<(TaskId, i32)>)>,
    /// Wakeup broadcasts published per instance (Provider report input).
    pub wakeups: Vec<(InstanceId, u32)>,
    /// Image recipes the carousel attaches to wakeups.
    pub images: Vec<(InstanceId, ImageExport)>,
    /// Next node id the wire plane would assign — adopted so fresh
    /// connections never collide with resumed ones.
    pub wire_next_node: u64,
    /// Node ids the wire plane has handed out (resume validation).
    pub wire_nodes: Vec<u64>,
    /// Autoscale reconciler state, when elastic sizing is on: the
    /// desired-state record a standby resumes scaling from without
    /// double-provisioning. Cooldowns are stored as *remaining*
    /// durations (the standby's clock starts at adoption). Absent in
    /// snapshots cut before elastic sizing existed.
    #[serde(default)]
    pub autoscale: Option<AutoscaleExport>,
}

/// Why a snapshot failed to decode. Every variant is a clean error — a
/// truncated or corrupt file must never panic the adopting headend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Fewer bytes than the fixed container overhead.
    TooShort,
    /// The magic bytes are not `OSNP`.
    BadMagic,
    /// A container version this build does not read.
    UnsupportedVersion(u16),
    /// The declared payload extends past the available bytes (torn write).
    Truncated,
    /// The checksum does not match (bit rot or torn write).
    ChecksumMismatch,
    /// The payload is not a valid [`SnapshotState`] encoding.
    Payload(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::TooShort => write!(f, "snapshot shorter than its container header"),
            SnapshotError::BadMagic => write!(f, "not a headend snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated mid-payload"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Payload(e) => write!(f, "snapshot payload invalid: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Encodes a snapshot into its on-disk container form.
pub fn encode(state: &SnapshotState) -> Vec<u8> {
    let payload = serde_json::to_string(state)
        .map(String::into_bytes)
        .unwrap_or_default();
    let mut out = Vec::with_capacity(CONTAINER_OVERHEAD + payload.len());
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&state.epoch.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    let crc = crc32_parts(&[&out[4..]]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes a container. Any malformed input — truncation at any byte,
/// flipped bits, wrong magic — comes back as a [`SnapshotError`].
pub fn decode(bytes: &[u8]) -> Result<SnapshotState, SnapshotError> {
    if bytes.len() < CONTAINER_OVERHEAD {
        return Err(SnapshotError::TooShort);
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let len = u32::from_le_bytes([bytes[14], bytes[15], bytes[16], bytes[17]]) as usize;
    let payload_end = CONTAINER_OVERHEAD - 4 + len;
    if bytes.len() < payload_end + 4 {
        return Err(SnapshotError::Truncated);
    }
    let crc = u32::from_le_bytes([
        bytes[payload_end],
        bytes[payload_end + 1],
        bytes[payload_end + 2],
        bytes[payload_end + 3],
    ]);
    if crc32_parts(&[&bytes[4..payload_end]]) != crc {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let payload = &bytes[CONTAINER_OVERHEAD - 4..payload_end];
    let text = std::str::from_utf8(payload)
        .map_err(|e| SnapshotError::Payload(format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| SnapshotError::Payload(e.to_string()))
}

/// Reads just the epoch from a container header, without decoding the
/// payload (the standby CLI prints it before adopting).
pub fn peek_epoch(bytes: &[u8]) -> Result<u64, SnapshotError> {
    if bytes.len() < CONTAINER_OVERHEAD {
        return Err(SnapshotError::TooShort);
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    Ok(u64::from_le_bytes([
        bytes[6], bytes[7], bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13],
    ]))
}

/// Writes `state` to `path` atomically: the bytes land in a `.tmp`
/// sibling first and are renamed into place, so a reader never observes
/// a half-written snapshot at the published path.
pub fn write_file(path: &Path, state: &SnapshotState) -> io::Result<()> {
    let bytes = encode(state);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)
}

/// Reads and decodes a snapshot file. Decode failures surface as
/// `InvalidData` I/O errors with the [`SnapshotError`] as the message.
pub fn read_file(path: &Path) -> io::Result<SnapshotState> {
    let bytes = std::fs::read(path)?;
    decode(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SnapshotState {
        SnapshotState {
            epoch: 3,
            taken_at_us: 1_234_567,
            shards: Vec::new(),
            backend: BackendState { jobs: Vec::new() },
            provider: ProviderState {
                requests: Vec::new(),
                next: 7,
            },
            instance_job: vec![(InstanceId::new(1), JobId::new(9))],
            job_queries: vec![(JobId::new(9), vec![vec![1, 2, 3], vec![4]])],
            job_scores: vec![(JobId::new(9), vec![(TaskId::new(0), 42)])],
            wakeups: vec![(InstanceId::new(1), 2)],
            images: vec![(
                InstanceId::new(1),
                ImageExport::from_image(&AlignmentImage::small_demo()),
            )],
            wire_next_node: 5,
            wire_nodes: vec![0, 1, 2, 3, 4],
            autoscale: None,
        }
    }

    #[test]
    fn pre_autoscale_payload_still_decodes() {
        // A version-1 payload without the `autoscale` key (written before
        // elastic sizing existed) must decode with the field defaulted.
        let mut snap = sample();
        snap.autoscale = Some(AutoscaleExport {
            desired: 3,
            cooldown_remaining_micros: 0,
            pending_replace: false,
            ticks: 1,
            scale_ups: 0,
            scale_downs: 0,
            replacements: 0,
        });
        let json = serde_json::to_string(&snap).expect("encodes");
        let stripped: serde_json::Value = {
            let mut v: serde_json::Value = serde_json::from_str(&json).expect("parses");
            match &mut v {
                serde_json::Value::Object(entries) => {
                    entries.retain(|(key, _)| key != "autoscale");
                }
                other => panic!("snapshot payload is not an object: {other:?}"),
            }
            v
        };
        let back: SnapshotState = serde_json::from_value(stripped).expect("old payload decodes");
        assert_eq!(back.autoscale, None);
        assert_eq!(back.epoch, snap.epoch);
    }

    #[test]
    fn container_round_trips() {
        let snap = sample();
        let bytes = encode(&snap);
        assert_eq!(decode(&bytes), Ok(snap.clone()));
        assert_eq!(peek_epoch(&bytes), Ok(3));
    }

    #[test]
    fn truncation_at_every_length_is_a_clean_error() {
        let bytes = encode(&sample());
        for n in 0..bytes.len() {
            assert!(
                decode(&bytes[..n]).is_err(),
                "a {n}-byte prefix of a {}-byte snapshot must not decode",
                bytes.len()
            );
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = encode(&sample());
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        assert!(matches!(
            decode(&bytes),
            Err(SnapshotError::ChecksumMismatch) | Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        assert_eq!(decode(&bytes), Err(SnapshotError::BadMagic));
        let mut bytes = encode(&sample());
        bytes[4] = 0xEE; // version 0xEE??
        assert!(matches!(
            decode(&bytes),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn image_recipe_round_trips() {
        let img = AlignmentImage::small_demo();
        let back = ImageExport::from_image(&img).to_image();
        assert_eq!(back, img);
    }

    #[test]
    fn atomic_write_then_read() {
        let dir = std::env::temp_dir().join(format!("oddci-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join(SNAPSHOT_FILE);
        let snap = sample();
        write_file(&path, &snap).expect("write");
        assert_eq!(read_file(&path).expect("read"), snap);
        assert!(
            !path.with_extension("tmp").exists(),
            "the temporary is renamed away"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
