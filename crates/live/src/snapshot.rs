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
//! (container integers little-endian; the checksum covers
//! version..payload). The format is versioned so a layout change bumps
//! [`SNAPSHOT_VERSION`] instead of silently misreading old files, and
//! checksummed so a torn write (crash mid-snapshot) is *detected* rather
//! than adopted. [`write_file`] writes to a temporary sibling and renames
//! into place, so the published path always holds a complete snapshot.
//!
//! The version-2 payload is [`SnapshotState`]'s fields in declaration
//! order, minus the epoch (the header carries it), in a byte-deterministic
//! binary encoding: integers are LEB128 varints, `i32`s zigzag varints,
//! each enum, `Option` and bool one tag byte, and a vector its varint
//! count followed by its items. Id sequences — instance members, a job's
//! task ids, `pending` and `completed`, the registry's node ids and
//! `wire_nodes` — are zigzag deltas from the previous id (the first from
//! 0), so sorted ids cost about a byte each and unsorted ones still round
//! trip. Query bytes are a varint length and the bytes. The decoder
//! accepts exactly the bytes the encoder writes: a count larger than the
//! bytes left, a varint longer than 10 bytes or not minimal, an `i32` or
//! `u32` out of range, an unknown tag byte and trailing bytes are each a
//! [`SnapshotError::Payload`], raised before anything is allocated for
//! them.

use crate::image::AlignmentImage;
use oddci_core::autoscale::AutoscaleExport;
use oddci_core::backend::{BackendState, JobExport};
use oddci_core::controller::{ControllerState, InstanceExport, NodeExport};
use oddci_core::provider::{ProviderState, RequestExport, RequestState};
use oddci_core::{
    InstanceRequest, InstanceStatus, JobReport, NodeRequirements, PnaStateKind, ProviderRequest,
};
use oddci_types::{DataSize, ImageId, InstanceId, JobId, NodeId, SimDuration, TaskId};
use oddci_wire::codec::{Reader, Writer};
use oddci_wire::frame::crc32_parts;
use oddci_wire::WireError;
use oddci_workload::alignment::Scoring;
use oddci_workload::{Job, Task};
use std::io;
use std::path::Path;

/// File magic identifying a headend snapshot container.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"OSNP";
/// Container layout version this build writes and reads.
pub const SNAPSHOT_VERSION: u16 = 2;
/// Conventional file name inside a `--snapshot-dir`.
pub const SNAPSHOT_FILE: &str = "headend.snap";

/// Container header: magic + version + epoch + length.
const HEADER: usize = 4 + 2 + 8 + 4;
/// Fixed container overhead: the header plus the trailing checksum.
const CONTAINER_OVERHEAD: usize = HEADER + 4;

/// An [`AlignmentImage`] recipe in exportable form. The materialized
/// database is *not* exported — every field needed to regenerate it
/// deterministically is, so adopted wakeups rebuild the identical bytes.
#[derive(Debug, Clone, PartialEq)]
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
    pub(crate) fn to_image(&self) -> AlignmentImage {
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
/// Maps are exported as sorted pair vectors because their keys are
/// numeric newtypes, and so the encoding is byte-stable for the
/// round-trip property tests.
#[derive(Debug, Clone, PartialEq)]
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
    /// durations (the standby's clock starts at adoption).
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
    let mut w = Writer::new();
    w.raw(&SNAPSHOT_MAGIC);
    w.u16(SNAPSHOT_VERSION);
    w.u64(state.epoch);
    w.u32(0); // the payload length, patched by `seal`
    put_payload(&mut w, state);
    seal(w.into_bytes())
}

/// Patches the payload length into a header-plus-payload buffer and
/// appends the checksum over version..payload.
fn seal(mut out: Vec<u8>) -> Vec<u8> {
    let len = (out.len() - HEADER) as u32;
    out[HEADER - 4..HEADER].copy_from_slice(&len.to_le_bytes());
    let crc = crc32_parts(&[&out[4..]]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes a container. Any malformed input — truncation at any byte,
/// flipped bits, wrong magic — comes back as a [`SnapshotError`].
pub fn decode(bytes: &[u8]) -> Result<SnapshotState, SnapshotError> {
    let epoch = peek_epoch(bytes)?;
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let len = u32::from_le_bytes([bytes[14], bytes[15], bytes[16], bytes[17]]) as usize;
    let payload_end = HEADER + len;
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
    let mut r = Reader::new(&bytes[HEADER..payload_end]);
    get_payload(&mut r, epoch)
        .and_then(|state| r.finish().map(|()| state))
        .map_err(|e| match e {
            WireError::Malformed(what) => SnapshotError::Payload(what.to_string()),
            other => SnapshotError::Payload(other.to_string()),
        })
}

/// Reads just the epoch from a container header, without decoding the
/// payload (the standby CLI prints it before adopting).
pub(crate) fn peek_epoch(bytes: &[u8]) -> Result<u64, SnapshotError> {
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

// ------------------------------------------------------------- payload

type Decoded<T> = Result<T, WireError>;

fn bad_tag() -> WireError {
    WireError::Malformed("unknown tag byte")
}

/// Writes a varint count, then each item.
fn put_seq<T>(w: &mut Writer, items: &[T], mut put: impl FnMut(&mut Writer, &T)) {
    w.varint(items.len() as u64);
    for item in items {
        put(w, item);
    }
}

/// Reads a count or a length, refusing one larger than the bytes left
/// (every item takes at least a byte), so a hostile count fails here and
/// not in an allocation.
fn get_len(r: &mut Reader<'_>) -> Decoded<usize> {
    let n = r.varint()?;
    if n > r.remaining() as u64 {
        return Err(WireError::Malformed("count exceeds the bytes left"));
    }
    Ok(n as usize)
}

/// Reads a sequence written by [`put_seq`].
fn get_seq<'a, T>(
    r: &mut Reader<'a>,
    mut get: impl FnMut(&mut Reader<'a>) -> Decoded<T>,
) -> Decoded<Vec<T>> {
    let n = get_len(r)?;
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(get(r)?);
    }
    Ok(items)
}

fn put_opt<T>(w: &mut Writer, v: &Option<T>, put: impl FnOnce(&mut Writer, &T)) {
    match v {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            put(w, v);
        }
    }
}

fn get_opt<'a, T>(
    r: &mut Reader<'a>,
    get: impl FnOnce(&mut Reader<'a>) -> Decoded<T>,
) -> Decoded<Option<T>> {
    match r.u8()? {
        0 => Ok(None),
        1 => get(r).map(Some),
        _ => Err(bad_tag()),
    }
}

fn get_u32(r: &mut Reader<'_>) -> Decoded<u32> {
    u32::try_from(r.varint()?).map_err(|_| WireError::Malformed("u32 out of range"))
}

fn get_i32(r: &mut Reader<'_>) -> Decoded<i32> {
    i32::try_from(r.zigzag()?).map_err(|_| WireError::Malformed("i32 out of range"))
}

/// The previous id of a delta-coded id sequence.
#[derive(Default)]
struct Delta(u64);

impl Delta {
    fn put(&mut self, w: &mut Writer, id: u64) {
        w.zigzag(id.wrapping_sub(self.0) as i64);
        self.0 = id;
    }

    fn get(&mut self, r: &mut Reader<'_>) -> Decoded<u64> {
        self.0 = self.0.wrapping_add(r.zigzag()? as u64);
        Ok(self.0)
    }
}

fn put_payload(w: &mut Writer, s: &SnapshotState) {
    w.varint(s.taken_at_us);
    put_seq(w, &s.shards, put_controller);
    put_seq(w, &s.backend.jobs, put_job);
    put_seq(w, &s.provider.requests, put_request);
    w.varint(s.provider.next);
    put_seq(w, &s.instance_job, |w, &(instance, job)| {
        w.varint(instance.raw());
        w.varint(job.raw());
    });
    put_seq(w, &s.job_queries, |w, (job, queries)| {
        w.varint(job.raw());
        put_seq(w, queries, |w, query| {
            w.varint(query.len() as u64);
            w.raw(query);
        });
    });
    put_seq(w, &s.job_scores, |w, (job, scores)| {
        w.varint(job.raw());
        let mut prev = Delta::default();
        put_seq(w, scores, |w, &(task, score)| {
            prev.put(w, task.raw());
            w.zigzag(i64::from(score));
        });
    });
    put_seq(w, &s.wakeups, |w, &(instance, n)| {
        w.varint(instance.raw());
        w.varint(u64::from(n));
    });
    put_seq(w, &s.images, |w, (instance, image)| {
        w.varint(instance.raw());
        put_image(w, image);
    });
    w.varint(s.wire_next_node);
    let mut prev = Delta::default();
    put_seq(w, &s.wire_nodes, |w, &node| prev.put(w, node));
    put_opt(w, &s.autoscale, put_autoscale);
}

fn get_payload(r: &mut Reader<'_>, epoch: u64) -> Decoded<SnapshotState> {
    // Struct fields are evaluated in the order written: the layout order.
    Ok(SnapshotState {
        epoch,
        taken_at_us: r.varint()?,
        shards: get_seq(r, get_controller)?,
        backend: BackendState {
            jobs: get_seq(r, get_job)?,
        },
        provider: ProviderState {
            requests: get_seq(r, get_request)?,
            next: r.varint()?,
        },
        instance_job: get_seq(r, |r| {
            Ok((InstanceId::new(r.varint()?), JobId::new(r.varint()?)))
        })?,
        job_queries: get_seq(r, |r| {
            let job = JobId::new(r.varint()?);
            let queries = get_seq(r, |r| {
                let len = get_len(r)?;
                Ok(r.raw(len)?.to_vec())
            })?;
            Ok((job, queries))
        })?,
        job_scores: get_seq(r, |r| {
            let job = JobId::new(r.varint()?);
            let mut prev = Delta::default();
            let scores = get_seq(r, |r| Ok((TaskId::new(prev.get(r)?), get_i32(r)?)))?;
            Ok((job, scores))
        })?,
        wakeups: get_seq(r, |r| Ok((InstanceId::new(r.varint()?), get_u32(r)?)))?,
        images: get_seq(r, |r| Ok((InstanceId::new(r.varint()?), get_image(r)?)))?,
        wire_next_node: r.varint()?,
        wire_nodes: {
            let mut prev = Delta::default();
            get_seq(r, |r| prev.get(r))?
        },
        autoscale: get_opt(r, get_autoscale)?,
    })
}

fn put_controller(w: &mut Writer, c: &ControllerState) {
    put_seq(w, &c.instances, |w, i| {
        w.varint(i.id.raw());
        w.varint(i.request.image.raw());
        w.varint(i.request.image_size.bits());
        w.varint(i.request.target);
        w.varint(i.request.requirements.min_memory.bits());
        w.bool(i.request.requirements.standby_only);
        w.u8(match i.status {
            InstanceStatus::Forming => 0,
            InstanceStatus::Active => 1,
            InstanceStatus::Dismantled => 2,
        });
        let mut prev = Delta::default();
        put_seq(w, &i.members, |w, node| prev.put(w, node.raw()));
        w.varint(u64::from(i.wakeups_sent));
    });
    let mut prev = Delta::default();
    put_seq(w, &c.registry, |w, n| {
        prev.put(w, n.node.raw());
        w.varint(n.heartbeat_age.as_micros());
        w.u8(match n.state {
            PnaStateKind::Idle => 0,
            PnaStateKind::Busy => 1,
        });
        put_opt(w, &n.instance, |w, instance| w.varint(instance.raw()));
    });
    w.varint(c.next_instance);
    w.varint(c.next_message);
    w.varint(c.message_stride);
    w.varint(c.heartbeats_received);
}

fn get_controller(r: &mut Reader<'_>) -> Decoded<ControllerState> {
    let instances = get_seq(r, |r| {
        Ok(InstanceExport {
            id: InstanceId::new(r.varint()?),
            request: InstanceRequest {
                image: ImageId::new(r.varint()?),
                image_size: DataSize::from_bits(r.varint()?),
                target: r.varint()?,
                requirements: NodeRequirements {
                    min_memory: DataSize::from_bits(r.varint()?),
                    standby_only: r.bool()?,
                },
            },
            status: match r.u8()? {
                0 => InstanceStatus::Forming,
                1 => InstanceStatus::Active,
                2 => InstanceStatus::Dismantled,
                _ => return Err(bad_tag()),
            },
            members: {
                let mut prev = Delta::default();
                get_seq(r, |r| prev.get(r).map(NodeId::new))?
            },
            wakeups_sent: get_u32(r)?,
        })
    })?;
    let mut prev = Delta::default();
    let registry = get_seq(r, |r| {
        Ok(NodeExport {
            node: NodeId::new(prev.get(r)?),
            heartbeat_age: SimDuration::from_micros(r.varint()?),
            state: match r.u8()? {
                0 => PnaStateKind::Idle,
                1 => PnaStateKind::Busy,
                _ => return Err(bad_tag()),
            },
            instance: get_opt(r, |r| r.varint().map(InstanceId::new))?,
        })
    })?;
    Ok(ControllerState {
        instances,
        registry,
        next_instance: r.varint()?,
        next_message: r.varint()?,
        message_stride: r.varint()?,
        heartbeats_received: r.varint()?,
    })
}

fn put_job(w: &mut Writer, j: &JobExport) {
    w.varint(j.job.id.raw());
    w.varint(j.job.image.raw());
    w.varint(j.job.image_size.bits());
    let mut prev = Delta::default();
    put_seq(w, &j.job.tasks, |w, t| {
        prev.put(w, t.id.raw());
        w.varint(t.input_size.bits());
        w.varint(t.cost.as_micros());
        w.varint(t.result_size.bits());
    });
    let mut prev = Delta::default();
    put_seq(w, &j.pending, |w, task| prev.put(w, task.raw()));
    let mut prev = Delta::default();
    put_seq(w, &j.assigned, |w, &(task, node)| {
        prev.put(w, task.raw());
        w.varint(node.raw());
    });
    let mut prev = Delta::default();
    put_seq(w, &j.completed, |w, task| prev.put(w, task.raw()));
    w.varint(j.submitted_age.as_micros());
    put_opt(w, &j.completed_age, |w, age| w.varint(age.as_micros()));
    w.varint(j.requeues);
}

fn get_job(r: &mut Reader<'_>) -> Decoded<JobExport> {
    let id = JobId::new(r.varint()?);
    let image = ImageId::new(r.varint()?);
    let image_size = DataSize::from_bits(r.varint()?);
    let mut prev = Delta::default();
    let tasks = get_seq(r, |r| {
        Ok(Task {
            id: TaskId::new(prev.get(r)?),
            input_size: DataSize::from_bits(r.varint()?),
            cost: SimDuration::from_micros(r.varint()?),
            result_size: DataSize::from_bits(r.varint()?),
        })
    })?;
    let mut prev = Delta::default();
    let pending = get_seq(r, |r| prev.get(r).map(TaskId::new))?;
    let mut prev = Delta::default();
    let assigned = get_seq(r, |r| {
        Ok((TaskId::new(prev.get(r)?), NodeId::new(r.varint()?)))
    })?;
    let mut prev = Delta::default();
    let completed = get_seq(r, |r| prev.get(r).map(TaskId::new))?;
    Ok(JobExport {
        job: Job {
            id,
            image,
            image_size,
            tasks,
        },
        pending,
        assigned,
        completed,
        submitted_age: SimDuration::from_micros(r.varint()?),
        completed_age: get_opt(r, |r| r.varint().map(SimDuration::from_micros))?,
        requeues: r.varint()?,
    })
}

fn put_request(w: &mut Writer, q: &RequestExport) {
    w.varint(q.request.0);
    w.varint(q.job.raw());
    w.varint(q.instance.raw());
    w.varint(q.target);
    w.varint(q.submitted_age.as_micros());
    w.u8(match q.state {
        RequestState::Running => 0,
        RequestState::Complete => 1,
    });
    put_opt(w, &q.report, |w, report| {
        w.varint(report.job.raw());
        w.varint(report.instance.raw());
        w.varint(report.target_nodes);
        w.varint(report.makespan.as_micros());
        w.varint(report.tasks_completed);
        w.varint(report.requeues);
        w.varint(u64::from(report.wakeup_broadcasts));
    });
}

fn get_request(r: &mut Reader<'_>) -> Decoded<RequestExport> {
    Ok(RequestExport {
        request: ProviderRequest(r.varint()?),
        job: JobId::new(r.varint()?),
        instance: InstanceId::new(r.varint()?),
        target: r.varint()?,
        submitted_age: SimDuration::from_micros(r.varint()?),
        state: match r.u8()? {
            0 => RequestState::Running,
            1 => RequestState::Complete,
            _ => return Err(bad_tag()),
        },
        report: get_opt(r, |r| {
            Ok(JobReport {
                job: JobId::new(r.varint()?),
                instance: InstanceId::new(r.varint()?),
                target_nodes: r.varint()?,
                makespan: SimDuration::from_micros(r.varint()?),
                tasks_completed: r.varint()?,
                requeues: r.varint()?,
                wakeup_broadcasts: get_u32(r)?,
            })
        })?,
    })
}

fn put_image(w: &mut Writer, i: &ImageExport) {
    w.varint(i.db_seed);
    w.varint(i.db_len);
    w.varint(i.k);
    w.zigzag(i64::from(i.matched));
    w.zigzag(i64::from(i.mismatch));
    w.zigzag(i64::from(i.gap));
    w.varint(i.window);
    w.zigzag(i64::from(i.min_score));
}

fn get_image(r: &mut Reader<'_>) -> Decoded<ImageExport> {
    Ok(ImageExport {
        db_seed: r.varint()?,
        db_len: r.varint()?,
        k: r.varint()?,
        matched: get_i32(r)?,
        mismatch: get_i32(r)?,
        gap: get_i32(r)?,
        window: r.varint()?,
        min_score: get_i32(r)?,
    })
}

fn put_autoscale(w: &mut Writer, a: &AutoscaleExport) {
    w.varint(a.desired as u64);
    w.varint(a.cooldown_remaining_micros);
    w.bool(a.pending_replace);
    w.varint(a.ticks);
    w.varint(a.scale_ups);
    w.varint(a.scale_downs);
    w.varint(a.replacements);
}

fn get_autoscale(r: &mut Reader<'_>) -> Decoded<AutoscaleExport> {
    Ok(AutoscaleExport {
        desired: usize::try_from(r.varint()?)
            .map_err(|_| WireError::Malformed("usize out of range"))?,
        cooldown_remaining_micros: r.varint()?,
        pending_replace: r.bool()?,
        ticks: r.varint()?,
        scale_ups: r.varint()?,
        scale_downs: r.varint()?,
        replacements: r.varint()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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

    /// `payload` in a container of `version`, epoch 3, with a valid
    /// checksum.
    fn sealed(version: u16, payload: &[u8]) -> Vec<u8> {
        let mut out = SNAPSHOT_MAGIC.to_vec();
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&3u64.to_le_bytes());
        out.extend_from_slice(&[0; 4]);
        out.extend_from_slice(payload);
        seal(out)
    }

    fn payload_of(state: &SnapshotState) -> Vec<u8> {
        let bytes = encode(state);
        bytes[HEADER..bytes.len() - 4].to_vec()
    }

    // ------------------------------------------------------- generator

    /// An id from a pool heavy in both ends of `u64` and in repeats, so
    /// id sequences come out unsorted and duplicated and their deltas go
    /// negative.
    fn id(rng: &mut SmallRng) -> u64 {
        match rng.random_range(0..4u32) {
            0 => rng.random_range(0..4u64),
            1 => u64::MAX - rng.random_range(0..2u64),
            2 => rng.random_range(0..1_000u64),
            _ => rng.random(),
        }
    }

    fn small_i32(rng: &mut SmallRng) -> i32 {
        match rng.random_range(0..4u32) {
            0 => i32::MIN,
            1 => i32::MAX,
            _ => rng.random_range(-100..100i32),
        }
    }

    /// Zero to three items, so empty vectors are common.
    fn few<T>(rng: &mut SmallRng, mut item: impl FnMut(&mut SmallRng) -> T) -> Vec<T> {
        let n = rng.random_range(0..4usize);
        (0..n).map(|_| item(rng)).collect()
    }

    fn maybe<T>(rng: &mut SmallRng, item: impl FnOnce(&mut SmallRng) -> T) -> Option<T> {
        if rng.random_bool(0.5) {
            Some(item(rng))
        } else {
            None
        }
    }

    fn pick<T: Copy>(rng: &mut SmallRng, choices: &[T]) -> T {
        choices[rng.random_range(0..choices.len())]
    }

    fn controller(rng: &mut SmallRng) -> ControllerState {
        ControllerState {
            instances: few(rng, |rng| InstanceExport {
                id: InstanceId::new(id(rng)),
                request: InstanceRequest {
                    image: ImageId::new(id(rng)),
                    image_size: DataSize::from_bits(id(rng)),
                    target: id(rng),
                    requirements: NodeRequirements {
                        min_memory: DataSize::from_bits(id(rng)),
                        standby_only: rng.random(),
                    },
                },
                status: pick(
                    rng,
                    &[
                        InstanceStatus::Forming,
                        InstanceStatus::Active,
                        InstanceStatus::Dismantled,
                    ],
                ),
                members: few(rng, |rng| NodeId::new(id(rng))),
                wakeups_sent: rng.random(),
            }),
            registry: few(rng, |rng| NodeExport {
                node: NodeId::new(id(rng)),
                heartbeat_age: SimDuration::from_micros(id(rng)),
                state: pick(rng, &[PnaStateKind::Idle, PnaStateKind::Busy]),
                instance: maybe(rng, |rng| InstanceId::new(id(rng))),
            }),
            next_instance: id(rng),
            next_message: id(rng),
            message_stride: id(rng),
            heartbeats_received: id(rng),
        }
    }

    fn job(rng: &mut SmallRng) -> JobExport {
        JobExport {
            job: Job {
                id: JobId::new(id(rng)),
                image: ImageId::new(id(rng)),
                image_size: DataSize::from_bits(id(rng)),
                tasks: few(rng, |rng| Task {
                    id: TaskId::new(id(rng)),
                    input_size: DataSize::from_bits(id(rng)),
                    cost: SimDuration::from_micros(id(rng)),
                    result_size: DataSize::from_bits(id(rng)),
                }),
            },
            pending: few(rng, |rng| TaskId::new(id(rng))),
            assigned: few(rng, |rng| (TaskId::new(id(rng)), NodeId::new(id(rng)))),
            completed: few(rng, |rng| TaskId::new(id(rng))),
            submitted_age: SimDuration::from_micros(id(rng)),
            completed_age: maybe(rng, |rng| SimDuration::from_micros(id(rng))),
            requeues: id(rng),
        }
    }

    fn request(rng: &mut SmallRng) -> RequestExport {
        RequestExport {
            request: ProviderRequest(id(rng)),
            job: JobId::new(id(rng)),
            instance: InstanceId::new(id(rng)),
            target: id(rng),
            submitted_age: SimDuration::from_micros(id(rng)),
            state: pick(rng, &[RequestState::Running, RequestState::Complete]),
            report: maybe(rng, |rng| JobReport {
                job: JobId::new(id(rng)),
                instance: InstanceId::new(id(rng)),
                target_nodes: id(rng),
                makespan: SimDuration::from_micros(id(rng)),
                tasks_completed: id(rng),
                requeues: id(rng),
                wakeup_broadcasts: rng.random(),
            }),
        }
    }

    fn generated(seed: u64) -> SnapshotState {
        let rng = &mut SmallRng::seed_from_u64(seed);
        SnapshotState {
            epoch: id(rng),
            taken_at_us: id(rng),
            shards: few(rng, controller),
            backend: BackendState {
                jobs: few(rng, job),
            },
            provider: ProviderState {
                requests: few(rng, request),
                next: id(rng),
            },
            instance_job: few(rng, |rng| (InstanceId::new(id(rng)), JobId::new(id(rng)))),
            job_queries: few(rng, |rng| {
                let queries = few(rng, |rng| few(rng, |rng| rng.random::<u8>()));
                (JobId::new(id(rng)), queries)
            }),
            job_scores: few(rng, |rng| {
                let scores = few(rng, |rng| (TaskId::new(id(rng)), small_i32(rng)));
                (JobId::new(id(rng)), scores)
            }),
            wakeups: few(rng, |rng| (InstanceId::new(id(rng)), rng.random())),
            images: few(rng, |rng| {
                let image = ImageExport {
                    db_seed: id(rng),
                    db_len: id(rng),
                    k: id(rng),
                    matched: small_i32(rng),
                    mismatch: small_i32(rng),
                    gap: small_i32(rng),
                    window: id(rng),
                    min_score: small_i32(rng),
                };
                (InstanceId::new(id(rng)), image)
            }),
            wire_next_node: id(rng),
            wire_nodes: few(rng, id),
            autoscale: maybe(rng, |rng| AutoscaleExport {
                desired: id(rng) as usize,
                cooldown_remaining_micros: id(rng),
                pending_replace: rng.random(),
                ticks: id(rng),
                scale_ups: id(rng),
                scale_downs: id(rng),
                replacements: id(rng),
            }),
        }
    }

    #[test]
    fn generated_states_round_trip_byte_for_byte() {
        let states: Vec<SnapshotState> = (0..400).map(generated).collect();
        for (seed, state) in states.iter().enumerate() {
            let bytes = encode(state);
            let back = decode(&bytes).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(&back, state, "seed {seed}");
            assert_eq!(encode(&back), bytes, "seed {seed} re-encodes identically");
        }
        // The generator reached every variant, both `Option` arms of every
        // optional field, empty vectors and the top of `u64`.
        let seen = format!("{states:?}");
        for needle in [
            "Forming",
            "Active",
            "Dismantled",
            "Idle",
            "Busy",
            "Running",
            "Complete",
            "report: Some",
            "report: None",
            "completed_age: Some",
            "completed_age: None",
            "instance: Some",
            "instance: None",
            "autoscale: Some",
            "autoscale: None",
            "[]",
            &u64::MAX.to_string(),
        ] {
            assert!(seen.contains(needle), "no generated state has {needle}");
        }
    }

    #[test]
    fn every_truncation_and_bit_flip_of_a_small_state_fails() {
        let bytes = encode(&generated(7));
        assert!(bytes.len() < 1_500, "a small state: {} bytes", bytes.len());
        for n in 0..bytes.len() {
            assert!(decode(&bytes[..n]).is_err(), "{n}-byte prefix decoded");
        }
        let mut flipped = bytes.clone();
        for bit in 0..8 * bytes.len() {
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(decode(&flipped).is_err(), "flip of bit {bit} decoded");
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn hostile_payloads_are_clean_errors() {
        let mut w = Writer::new();
        w.varint(0); // taken_at_us
        w.varint(1); // one Controller
        w.varint(0); // no instances
        w.varint(1 << 40); // registry entries
        let huge_count = w.into_bytes();
        let long_varint = [0x80; 11].to_vec();
        let mut bad_tag = payload_of(&sample());
        *bad_tag
            .last_mut()
            .expect("payload ends in the autoscale tag") = 7;
        let mut trailing = payload_of(&sample());
        trailing.push(0);
        for (what, payload) in [
            ("a registry count of 2^40", huge_count),
            ("an 11-byte varint", long_varint),
            ("a tag byte of 7", bad_tag),
            ("a trailing byte", trailing),
        ] {
            match decode(&sealed(SNAPSHOT_VERSION, &payload)) {
                Err(SnapshotError::Payload(e)) => assert!(!e.is_empty()),
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn version_1_is_refused_by_name() {
        let v1 = sealed(1, br#"{"epoch":3,"taken_at_us":0}"#);
        assert_eq!(peek_epoch(&v1), Ok(3));
        let err = decode(&v1).expect_err("version 1 is not read");
        assert_eq!(err, SnapshotError::UnsupportedVersion(1));
        let message = err.to_string();
        assert!(
            message.contains("version 1") && message.contains("reads 2"),
            "{message}"
        );
    }

    #[test]
    fn dense_ids_cost_about_a_byte_each() {
        let mut state = sample();
        let before = encode(&state).len();
        state.wire_nodes = (0..10_000).collect();
        let after = encode(&state).len();
        assert!(
            after - before <= 10_000 + 8,
            "10,000 dense ids took {} bytes",
            after - before
        );
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
