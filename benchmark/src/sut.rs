//! The system under test, as the benchmark sees it.
//!
//! This is the only file that names a workspace crate. The `pub use`
//! lists below are therefore the complete set of public symbols the
//! benchmark pins: a later change that renames or removes one of them
//! breaks this file and nothing else. Everything is a `pub` item of its
//! crate; the benchmark reaches into no private module.

use std::sync::Arc;
use std::time::Duration;

// oddci-types: ids, simulated time, sizes.
pub use oddci_types::{
    Bandwidth, DataSize, ImageId, InstanceId, JobId, MessageId, NodeId, Probability, SimDuration,
    SimTime, TaskId,
};
// oddci-crypto: the hashes behind frame integrity and signed control messages.
pub use oddci_crypto::{HmacSha256, MessageAuthenticator, Sha256};
// oddci-sim: the DES event queue.
pub use oddci_sim::queue::EventQueue;
// oddci-broadcast: the object carousel.
pub use oddci_broadcast::carousel::{CarouselFile, ObjectCarousel};
pub use oddci_broadcast::tsmux::TransportMux;
// oddci-receiver: host facts a PNA checks wakeups against.
pub use oddci_receiver::compute::UsageMode;
// oddci-core: the §3.2 state machines and the simulated world.
pub use oddci_core::backend::BackendState;
pub use oddci_core::controller::{ControllerState, InstanceExport, NodeExport};
pub use oddci_core::messages::HeartbeatReply;
pub use oddci_core::pna::HostInfo;
pub use oddci_core::provider::{ProviderState, RequestExport, RequestState};
pub use oddci_core::{
    Backend, ControlMessage, Controller, ControllerPolicy, Heartbeat, InstanceRequest,
    InstanceStatus, JobReport, NodeRequirements, Pna, PnaAction, PnaStateKind, ProviderRequest,
    SignedMessage, WakeupMessage, World, WorldConfig,
};
// oddci-workload: jobs, tasks and the alignment kernel.
pub use oddci_workload::alignment::random_sequence;
pub use oddci_workload::{Job, JobGenerator, Task};
// oddci-telemetry: the trace recorder that a traced run switches on.
pub use oddci_telemetry::{Phase, Telemetry};
// oddci-live: the real-thread plane, its socket PNA and its snapshots.
pub use oddci_live::snapshot::{self, ImageExport};
pub use oddci_live::{
    run_wire_pna, AlignmentImage, HeadendMode, JobOutcome, LiveConfig, LiveOddci, ShutdownReport,
    SnapshotState, WirePnaConfig, WirePnaReport, SNAPSHOT_FILE,
};
// oddci-wire: codec, framing and the TCP transport.
pub use oddci_wire::frame::crc32_parts;
pub use oddci_wire::{
    encode_chunks, encode_frame, ClientConfig, ConnId, FrameDecoder, Integrity, Outbox,
    Reassembler, ServerConfig, WireBatch, WireClient, WireError, WireMsg, WireServer, WireService,
    WireStatsSnapshot, DEFAULT_CHUNK, PROTO_VERSION,
};

/// Loopback with an ephemeral port: every socket workload binds here.
pub fn loopback() -> std::net::SocketAddr {
    std::net::SocketAddr::from(([127, 0, 0, 1], 0))
}

/// The live configuration every live workload starts from: the crate's
/// defaults (150 ms heartbeats, 200 ms controller tick, no faults, no
/// snapshots, no autoscale) with the audience, seed, mode and telemetry
/// the workload chose.
pub fn live_config(nodes: u64, seed: u64, mode: HeadendMode, telemetry: Telemetry) -> LiveConfig {
    LiveConfig {
        nodes,
        seed,
        mode,
        telemetry,
        ..Default::default()
    }
}

/// The default in-process mode, spelled out so a change of the crate's
/// default shows up as a diff here and not as a silent shift of the
/// baseline.
pub const INPROC_MODE: HeadendMode = HeadendMode::Sharded {
    shards: 2,
    dispatch: 2,
    batch: 8,
};

/// A socket headend on loopback with the given shard/dispatch/batch shape.
pub fn socket_mode(shards: usize, dispatch: usize, batch: usize) -> HeadendMode {
    HeadendMode::Socket {
        listen: loopback(),
        shards,
        dispatch,
        batch,
    }
}

/// One `run_wire_pna` thread against `addr`, default heartbeats.
pub fn spawn_wire_pna(
    addr: std::net::SocketAddr,
    seed: u64,
    telemetry: Telemetry,
) -> std::thread::JoinHandle<Result<WirePnaReport, WireError>> {
    std::thread::spawn(move || {
        let mut cfg = WirePnaConfig::new(addr);
        cfg.seed = seed;
        cfg.telemetry = telemetry;
        run_wire_pna(cfg)
    })
}

/// The alignment image of the light workloads: the demo recipe with a
/// seeded database of `db_len` bases.
pub fn light_image(db_seed: u64, db_len: usize) -> AlignmentImage {
    AlignmentImage {
        db_seed,
        db_len,
        ..AlignmentImage::small_demo()
    }
}

/// `n` short random queries — each task is a cheap index scan, so the
/// headend round trip dominates (the shape X8/X10 use).
pub fn light_queries(seed: u64, n: u64, len: usize) -> Vec<Arc<Vec<u8>>> {
    (0..n)
        .map(|i| Arc::new(random_sequence(len, crate::gen::mix(seed, i))))
        .collect()
}

/// A snapshot the size a fleet-scale headend would cut: one active
/// instance at `members` nodes over two shards, a full heartbeat
/// registry, one running request with 64 seeded queries, and the wire
/// plane's identity ledger. Same shape as the X12 bench's synthetic
/// snapshot, with the payload bytes drawn from `seed`.
pub fn synthetic_snapshot(seed: u64, members: u64) -> SnapshotState {
    const SHARDS: u64 = 2;
    let request = InstanceRequest {
        image: ImageId::new(1),
        image_size: DataSize(50_000),
        target: members,
        requirements: NodeRequirements::default(),
    };
    let shards = (0..SHARDS)
        .map(|s| {
            let ids: Vec<NodeId> = (s..members)
                .step_by(SHARDS as usize)
                .map(NodeId::new)
                .collect();
            let registry = ids
                .iter()
                .map(|&node| NodeExport {
                    node,
                    heartbeat_age: SimDuration::from_secs_f64(0.05),
                    state: PnaStateKind::Busy,
                    instance: Some(InstanceId::new(0)),
                })
                .collect();
            ControllerState {
                instances: vec![InstanceExport {
                    id: InstanceId::new(0),
                    request,
                    status: InstanceStatus::Active,
                    members: ids,
                    wakeups_sent: 1,
                }],
                registry,
                next_instance: 1,
                next_message: s,
                message_stride: SHARDS,
                heartbeats_received: members.saturating_mul(10),
            }
        })
        .collect();
    SnapshotState {
        epoch: 0,
        taken_at_us: 1_000_000,
        shards,
        backend: BackendState { jobs: Vec::new() },
        provider: ProviderState {
            requests: vec![RequestExport {
                request: ProviderRequest(0),
                job: JobId::new(0),
                instance: InstanceId::new(0),
                target: members,
                submitted_age: SimDuration::from_secs_f64(1.0),
                state: RequestState::Running,
                report: None,
            }],
            next: 1,
        },
        instance_job: vec![(InstanceId::new(0), JobId::new(0))],
        job_queries: vec![(
            JobId::new(0),
            (0..64u64)
                .map(|i| random_sequence(64, crate::gen::mix(seed, i)))
                .collect(),
        )],
        job_scores: vec![(JobId::new(0), vec![(TaskId::new(0), 42)])],
        wakeups: vec![(InstanceId::new(0), 1)],
        images: vec![(
            InstanceId::new(0),
            ImageExport::from_image(&AlignmentImage::small_demo()),
        )],
        wire_next_node: members,
        wire_nodes: (0..members).collect(),
        autoscale: None,
    }
}

/// The sweep the paper's evaluation path runs, scaled by the caller: an
/// always-on audience of `receivers`, one homogeneous bag of `tasks`
/// 5-second tasks behind a 2 MB image.
pub fn sweep_inputs(
    seed: u64,
    receivers: u64,
    tasks: u64,
    telemetry: Telemetry,
) -> (WorldConfig, Job) {
    let config = WorldConfig {
        nodes: receivers,
        telemetry,
        ..Default::default()
    };
    let job = JobGenerator::homogeneous(
        DataSize::from_megabytes(2),
        DataSize::from_bytes(500),
        DataSize::from_bytes(500),
        SimDuration::from_secs(5),
        seed,
    )
    .generate(tasks);
    (config, job)
}

/// Far enough that no sweep hits it: one simulated year.
pub fn sweep_horizon() -> SimTime {
    SimTime::from_secs(365 * 24 * 3600)
}

/// Host facts of a set-top box on standby with room for any image here.
pub fn standby_host() -> HostInfo {
    HostInfo {
        free_memory: DataSize::from_megabytes(128),
        usage: UsageMode::Standby,
    }
}

/// How long a job may take before the benchmark calls it failed.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(60);
