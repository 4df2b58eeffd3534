//! The live runtime: a headend (Provider + Controller + Backend) and one
//! OS thread per receiver, all speaking the §3.2 protocol over real
//! channels.
//!
//! There is one headend: the multi-threaded [`headend`](crate::headend)
//! — a carousel thread, N controller shards (disjoint node-membership
//! slices) and a dispatch pool serving task *batches* in front of the
//! shared Backend. [`HeadendMode`] picks its pool geometry and whether a
//! socket front (`oddci-wire` listener) stands before it, in which case
//! the nodes are separate PNA processes instead of in-process threads. A
//! standby is the same bring-up with a snapshot adopted before the
//! listener binds.
//!
//! Wall-clock time is mapped onto [`SimTime`] (microseconds since runtime
//! start) so the *identical* Controller/Backend/Provider code from
//! `oddci-core` runs unmodified on this plane.

use crate::bus::BroadcastBus;
use crate::headend::{DispatchMsg, ReplyTo, ShardMsg, ShardedHeadend, SnapshotHandle};
use crate::image::{AlignmentImage, LiveBroadcast, WakeupImage};
use crate::snapshot::{self, SnapshotState};
use crate::wire::WireMembership;
use oddci_check::sync::{bounded, Mutex, Receiver, RecvTimeoutError, Sender};
use oddci_core::autoscale::{AutoscaleExport, AutoscalePolicy, Reconciler};
use oddci_core::messages::{Heartbeat, HeartbeatReply};
use oddci_core::pna::{HostInfo, Pna, PnaAction};
use oddci_core::provider::{JobReport, ProviderRequest};
use oddci_core::sharded::shard_of;
use oddci_faults::{Backoff, FaultInjector, FaultPlan};
use oddci_receiver::compute::UsageMode;
use oddci_telemetry::{Phase, Telemetry, CONTROL_TRACK};
use oddci_types::{DataSize, ImageId, InstanceId, JobId, NodeId, SimDuration, SimTime, TaskId};
use oddci_workload::alignment::{mutate, random_sequence};
use oddci_workload::{Job, Task};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The headend's pool geometry, and whether nodes reach it over
/// in-process channels or a TCP socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadendMode {
    /// In-process plane: one receiver thread per node, linked to the
    /// headend by channels.
    Sharded {
        /// Controller shards (disjoint node-membership slices), 1..=64.
        shards: usize,
        /// Dispatch workers in front of the Backend, 1..=64.
        dispatch: usize,
        /// Tasks served per fetch round trip, 1..=1024.
        batch: usize,
    },
    /// The same headend behind a real TCP socket: nodes are *separate
    /// PNA processes* (or threads) dialing in over `oddci-wire` instead
    /// of in-process receiver threads. [`LiveConfig::nodes`] becomes the
    /// expected audience size (controller sizing), not a thread count —
    /// no local receivers are spawned.
    Socket {
        /// Address to listen on (port 0 picks an ephemeral port;
        /// [`LiveOddci::wire_addr`] reports the bound address).
        listen: std::net::SocketAddr,
        /// Controller shards, 1..=64.
        shards: usize,
        /// Dispatch workers, 1..=64.
        dispatch: usize,
        /// Tasks served per fetch round trip, 1..=1024.
        batch: usize,
    },
}

impl HeadendMode {
    /// Most controller shards a live system will run.
    pub const MAX_SHARDS: usize = 64;
    /// Most dispatch workers a live system will run.
    pub const MAX_DISPATCH: usize = 64;
    /// Largest task batch a node may fetch in one round trip.
    pub const MAX_BATCH: usize = 1024;

    /// `(listen, shards, dispatch, batch)`: the address of the socket
    /// front, when one is asked for, and the pool geometry behind it.
    fn parts(&self) -> (Option<std::net::SocketAddr>, usize, usize, usize) {
        match *self {
            HeadendMode::Sharded {
                shards,
                dispatch,
                batch,
            } => (None, shards, dispatch, batch),
            HeadendMode::Socket {
                listen,
                shards,
                dispatch,
                batch,
            } => (Some(listen), shards, dispatch, batch),
        }
    }

    /// Rejects degenerate configurations (`shards == 0`, oversized
    /// pools, …) with a human-readable explanation instead of letting
    /// the runtime panic on a zero-length shard vector.
    pub fn validate(&self) -> Result<(), String> {
        let (_, shards, dispatch, batch) = self.parts();
        if shards == 0 || shards > Self::MAX_SHARDS {
            return Err(format!(
                "shards must be within 1..={} (got {shards})",
                Self::MAX_SHARDS
            ));
        }
        if dispatch == 0 || dispatch > Self::MAX_DISPATCH {
            return Err(format!(
                "dispatch workers must be within 1..={} (got {dispatch})",
                Self::MAX_DISPATCH
            ));
        }
        if batch == 0 || batch > Self::MAX_BATCH {
            return Err(format!(
                "batch must be within 1..={} (got {batch})",
                Self::MAX_BATCH
            ));
        }
        Ok(())
    }
}

impl Default for HeadendMode {
    fn default() -> Self {
        HeadendMode::Sharded {
            shards: 2,
            dispatch: 2,
            batch: 8,
        }
    }
}

/// Live runtime parameters.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Receiver threads to spawn.
    pub nodes: u64,
    /// Controller↔PNA shared key.
    pub key: Vec<u8>,
    /// PNA heartbeat period.
    pub heartbeat_interval: Duration,
    /// Controller maintenance period (loss detection, recomposition).
    pub controller_tick: Duration,
    /// Master seed for per-node randomness.
    pub seed: u64,
    /// Faults to inject (none by default). Decisions are keyed on runtime
    /// micros, so live injection is *statistically* faithful to the plan
    /// rather than replay-deterministic like the simulated plane.
    pub faults: FaultPlan,
    /// Observability sink shared by the headend and every node thread.
    /// Timestamps are wall-clock microseconds since runtime start, so live
    /// traces open in the same viewers as simulated ones.
    pub telemetry: Telemetry,
    /// Headend geometry and node transport (in-process by default).
    pub mode: HeadendMode,
    /// Where to publish durability snapshots (`headend.snap`, written
    /// atomically every [`snapshot_interval`](LiveConfig::snapshot_interval)).
    /// `None` (the default) disables snapshotting.
    pub snapshot_dir: Option<std::path::PathBuf>,
    /// Snapshot cadence. Shorter intervals shrink the replay window a
    /// standby must cover but cost one state export per tick.
    pub snapshot_interval: Duration,
    /// Elastic sizing: when set, a reconciler thread continuously
    /// re-sizes every running instance against this SLO (see
    /// [`AutoscalePolicy`]). `None` (the default) keeps the paper's
    /// size-once behavior.
    pub autoscale: Option<AutoscalePolicy>,
    /// Reconciliation cadence for the autoscale loop.
    pub autoscale_interval: Duration,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            nodes: 4,
            key: b"live-oddci-key".to_vec(),
            heartbeat_interval: Duration::from_millis(150),
            controller_tick: Duration::from_millis(200),
            seed: 42,
            faults: FaultPlan::none(),
            telemetry: Telemetry::disabled(),
            mode: HeadendMode::default(),
            snapshot_dir: None,
            snapshot_interval: Duration::from_millis(500),
            autoscale: None,
            autoscale_interval: Duration::from_millis(200),
        }
    }
}

/// What rides the bus.
#[derive(Debug, Clone)]
pub(crate) enum BusMsg {
    Control(LiveBroadcast),
    Shutdown,
}

/// Reply to a node's task request: a batch of (task, query) pairs.
#[derive(Debug, Clone)]
pub(crate) enum TaskBatchReply {
    Assigned {
        job: JobId,
        tasks: Vec<(Task, Arc<Vec<u8>>)>,
    },
    Drained,
}

/// How a node reaches the headend: the shard/dispatch fan-in channels
/// (routed by node-id hash) in process, or a framed TCP connection when
/// the node is a separate PNA process.
#[derive(Clone)]
pub(crate) enum NodeLink {
    Sharded {
        shards: Arc<Vec<Sender<ShardMsg>>>,
        dispatch: Arc<Vec<Sender<DispatchMsg>>>,
        batch: usize,
    },
    Remote(Arc<crate::wire::RemoteLink>),
}

impl NodeLink {
    pub(crate) fn send_heartbeat(&self, hb: Heartbeat, reply: Sender<HeartbeatReply>) -> bool {
        match self {
            NodeLink::Sharded { shards, .. } => {
                let s = shard_of(hb.node, shards.len());
                shards[s]
                    .send(ShardMsg::Heartbeat {
                        hb,
                        reply: ReplyTo::Local(reply),
                    })
                    .is_ok()
            }
            NodeLink::Remote(link) => link.send_heartbeat(hb, reply),
        }
    }

    pub(crate) fn request_tasks(
        &self,
        instance: InstanceId,
        node: NodeId,
        reply: Sender<TaskBatchReply>,
    ) -> bool {
        match self {
            NodeLink::Sharded {
                dispatch, batch, ..
            } => {
                let d = shard_of(node, dispatch.len());
                dispatch[d]
                    .send(DispatchMsg::Request {
                        instance,
                        node,
                        max: *batch,
                        reply: ReplyTo::Local(reply),
                    })
                    .is_ok()
            }
            NodeLink::Remote(link) => link.request_tasks(instance, node, reply),
        }
    }

    pub(crate) fn send_results(
        &self,
        job: JobId,
        node: NodeId,
        results: Vec<(TaskId, i32)>,
    ) -> bool {
        match self {
            NodeLink::Sharded { dispatch, .. } => {
                let d = shard_of(node, dispatch.len());
                dispatch[d]
                    .send(DispatchMsg::Results { job, node, results })
                    .is_ok()
            }
            NodeLink::Remote(link) => link.send_results(job, node, results),
        }
    }
}

/// Result of a completed live job.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The Provider's report (makespan in runtime microseconds, etc.).
    pub report: JobReport,
    /// Best alignment score per task.
    pub scores: BTreeMap<TaskId, i32>,
}

/// Final accounting returned by [`LiveOddci::shutdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShutdownReport {
    /// Tasks in no Backend ledger (pending / assigned / completed) at
    /// shutdown. Always 0 unless bookkeeping broke — the
    /// `headend_shards` integration tests assert on it.
    pub tasks_unaccounted: u64,
    /// Threads (headend or node) that exited by panic instead of a clean
    /// return. When this is nonzero, `tasks_unaccounted` may undercount:
    /// a panicked thread's ledger contribution is unknown. Always 0 in a
    /// healthy run — joins used to be silently swallowed here, which hid
    /// exactly this failure mode.
    pub threads_failed: u64,
}

/// The optional socket front of a headend: the `oddci-wire` listener,
/// its per-connection counters and the wire node-id namespace.
struct SocketFront {
    server: oddci_wire::WireServer,
    conn_stats: Arc<oddci_wire::ConnStatsHub>,
    membership: Arc<Mutex<WireMembership>>,
}

impl SocketFront {
    /// Binds the listener in front of a running headend. A primary
    /// (`adopt` is `None`) fails on the first bind error; a standby
    /// retries `AddrInUse` for a few seconds, because the dead primary's
    /// listener can linger briefly after a kill, and seeds the node-id
    /// namespace from the snapshot.
    fn bind(
        listen: std::net::SocketAddr,
        batch: usize,
        config: &LiveConfig,
        headend: &ShardedHeadend,
        bus: &BroadcastBus<BusMsg>,
        epoch: u64,
        adopt: Option<&SnapshotState>,
    ) -> Result<SocketFront, String> {
        let membership = match adopt {
            Some(snap) => WireMembership::adopted(snap.wire_next_node, &snap.wire_nodes),
            None => WireMembership::new(),
        };
        let membership = Arc::new(Mutex::named(membership, "live.wire.membership"));
        let (shard_txs, dispatch_txs) = headend.node_links();
        let (shard_txs, dispatch_txs) = (Arc::new(shard_txs), Arc::new(dispatch_txs));
        let conn_stats = Arc::new(oddci_wire::ConnStatsHub::new());
        let bind_deadline = Instant::now() + Duration::from_secs(5);
        let server = loop {
            let service = crate::wire::LiveWireService::new(
                Arc::clone(&shard_txs),
                Arc::clone(&dispatch_txs),
                batch,
                bus,
                config.telemetry.clone(),
                Arc::clone(&conn_stats),
                epoch,
                Arc::clone(&membership),
            );
            let mut scfg = oddci_wire::ServerConfig::new(oddci_wire::Integrity::hmac(&config.key));
            scfg.injector = FaultInjector::new(config.faults.clone(), config.seed ^ 0xFA17_FA17);
            scfg.telemetry = config.telemetry.clone();
            scfg.conn_stats = Some(Arc::clone(&conn_stats));
            match oddci_wire::WireServer::bind(listen, scfg, service) {
                Ok(server) => break server,
                Err(oddci_wire::WireError::Io(e))
                    if adopt.is_some()
                        && e.kind() == std::io::ErrorKind::AddrInUse
                        && Instant::now() < bind_deadline =>
                {
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => {
                    let role = if adopt.is_some() {
                        "standby"
                    } else {
                        "socket headend"
                    };
                    return Err(format!("{role} cannot bind {listen}: {e}"));
                }
            }
        };
        Ok(SocketFront {
            server,
            conn_stats,
            membership,
        })
    }
}

/// A background loop (reconciler, snapshot writer) and the sender whose
/// drop stops it.
type Worker = (Sender<()>, JoinHandle<()>);

/// Stops a background loop and joins it; 1 if it had panicked.
fn stop_worker(worker: Option<Worker>) -> u64 {
    worker.map_or(0, |(stop, thread)| {
        drop(stop);
        u64::from(thread.join().is_err())
    })
}

/// The live OddCI system.
pub struct LiveOddci {
    headend: ShardedHeadend,
    /// `Some` in [`HeadendMode::Socket`].
    socket: Option<SocketFront>,
    bus: Arc<BroadcastBus<BusMsg>>,
    nodes: Vec<JoinHandle<()>>,
    next_job: AtomicU64,
    config: LiveConfig,
    /// Fencing epoch this headend acks hellos with (0 for a primary;
    /// snapshot epoch + 1 for a standby).
    epoch: u64,
    snapshot_writer: Option<Worker>,
    /// The shared elastic-sizing loop state, when autoscale is on.
    autoscale: Option<Arc<Mutex<Reconciler>>>,
    reconciler: Option<Worker>,
}

impl LiveOddci {
    /// Spawns the headend (per [`LiveConfig::mode`]) and, in process,
    /// all receiver threads.
    ///
    /// # Panics
    /// On `nodes == 0`, a [`HeadendMode`] that fails
    /// [`HeadendMode::validate`] (callers wanting an error instead of a
    /// panic — e.g. CLIs — validate first), or a
    /// [`HeadendMode::Socket`] listen address that cannot be bound.
    pub fn start(config: LiveConfig) -> Self {
        Self::bring_up(config, None).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Boots a **standby** headend from a durability snapshot: the same
    /// socket architecture as [`LiveOddci::start`], but every shard's
    /// Controller, the carousel's image table, the hub's job state and
    /// the wire node-id namespace are adopted from `snap` *before* the
    /// listener binds — so the first PNA to redial finds its membership,
    /// its instance and its task ledger already in place. The standby
    /// acks hellos with `snap.epoch + 1`, which is what lets PNAs fence
    /// off the dead primary, and resumes elastic sizing from the
    /// snapshot's desired-state record when [`LiveConfig::autoscale`] is
    /// set.
    ///
    /// Only [`HeadendMode::Socket`] makes sense here (a standby adopts
    /// *remote* PNAs; in-process node threads die with their runtime), and
    /// the shard count must match the snapshot's — message-id namespaces
    /// are per-shard.
    pub fn start_standby(config: LiveConfig, snap: &SnapshotState) -> Result<LiveOddci, String> {
        if !matches!(config.mode, HeadendMode::Socket { .. }) {
            return Err("a standby headend adopts remote PNAs: use HeadendMode::Socket".into());
        }
        Self::bring_up(config, Some(snap))
    }

    /// The one bring-up path: headend threads, adoption of `adopt` (a
    /// standby), the socket front, local receivers (in process), the
    /// reconciler and the snapshot writer — in that order, so the
    /// listener never accepts a PNA before the state it resumes is in
    /// place and snapshots can embed the desired-state record.
    fn bring_up(config: LiveConfig, adopt: Option<&SnapshotState>) -> Result<LiveOddci, String> {
        if config.nodes == 0 {
            return Err("a live system needs at least one node".into());
        }
        config
            .mode
            .validate()
            .map_err(|e| format!("invalid headend mode: {e}"))?;
        let (listen, shards, dispatch, batch) = config.mode.parts();
        let bus = Arc::new(BroadcastBus::new());
        let start = Instant::now();
        let injector = Arc::new(FaultInjector::new(
            config.faults.clone(),
            config.seed ^ 0xFA17_FA17,
        ));
        let headend = ShardedHeadend::start(
            &config,
            shards,
            dispatch,
            Arc::clone(&bus),
            start,
            Arc::clone(&injector),
        );
        if let Some(snap) = adopt {
            if let Err(e) = headend.import_state(snap) {
                let _ = headend.shutdown();
                return Err(e);
            }
        }
        let epoch = adopt.map_or(0, |snap| snap.epoch + 1);
        let socket = listen
            .map(|listen| SocketFront::bind(listen, batch, &config, &headend, &bus, epoch, adopt))
            .transpose();
        let socket = match socket {
            Ok(socket) => socket,
            Err(e) => {
                let _ = headend.shutdown();
                return Err(e);
            }
        };
        if adopt.is_some() {
            config.telemetry.span(
                0,
                wall_now(&start).as_micros(),
                Phase::HeadendAdopt,
                CONTROL_TRACK,
                epoch,
            );
        }

        // Behind a socket the fleet lives in other processes: `nodes` is
        // the expected audience, not a local thread count.
        let local_nodes = if socket.is_some() { 0 } else { config.nodes };
        let (shard_txs, dispatch_txs) = headend.node_links();
        let link = NodeLink::Sharded {
            shards: Arc::new(shard_txs),
            dispatch: Arc::new(dispatch_txs),
            batch,
        };
        let nodes = (0..local_nodes)
            .map(|i| {
                let bus_rx = bus.subscribe();
                let link = link.clone();
                let key = config.key.clone();
                let hb = config.heartbeat_interval;
                let seed = config.seed ^ (i.wrapping_mul(0x9e3779b97f4a7c15));
                let inj = Arc::clone(&injector);
                let tele = config.telemetry.clone();
                std::thread::spawn(move || {
                    node_main(
                        NodeId::new(i),
                        key,
                        bus_rx,
                        link,
                        hb,
                        seed,
                        start,
                        inj,
                        tele,
                    )
                })
            })
            .collect();

        // Elastic sizing: the reconciler thread steers every running
        // instance toward the policy's SLO. A standby resumes from the
        // snapshot's desired-state record — the primary's desired size
        // and unserved cooldown — so it never re-provisions capacity the
        // primary already requested.
        let autoscale = config.autoscale.map(|policy| {
            let reconciler = match adopt.and_then(|snap| snap.autoscale.as_ref()) {
                Some(export) => Reconciler::from_export(policy, export, wall_now(&start)),
                None => Reconciler::new(policy, policy.min_size),
            };
            Arc::new(Mutex::named(reconciler, "live.autoscale"))
        });
        let reconciler = autoscale.as_ref().map(|shared| {
            crate::headend::spawn_reconciler(
                headend.reconciler_links(),
                Arc::clone(shared),
                config.autoscale_interval,
                Arc::clone(&injector),
                config.telemetry.clone(),
            )
        });

        let snapshot_writer = config.snapshot_dir.clone().map(|dir| {
            spawn_snapshot_writer(
                headend.snapshot_handle(),
                socket.as_ref().map(|s| Arc::clone(&s.membership)),
                autoscale.clone(),
                epoch,
                dir,
                config.snapshot_interval,
                start,
                config.telemetry.clone(),
            )
        });

        // Job ids must keep climbing past everything an adopted primary
        // issued.
        let next_job = adopt.map_or(0, |snap| {
            snap.job_queries
                .iter()
                .map(|(job, _)| job.raw() + 1)
                .chain(snap.job_scores.iter().map(|(job, _)| job.raw() + 1))
                .max()
                .unwrap_or(0)
        });
        Ok(LiveOddci {
            headend,
            socket,
            bus,
            nodes,
            next_job: AtomicU64::new(next_job),
            config,
            epoch,
            snapshot_writer,
            autoscale,
            reconciler,
        })
    }

    /// The configuration this runtime started with.
    pub fn config(&self) -> &LiveConfig {
        &self.config
    }

    /// The runtime's telemetry bundle (all threads report into it).
    pub fn telemetry(&self) -> &Telemetry {
        &self.config.telemetry
    }

    /// The socket the headend listens on, in [`HeadendMode::Socket`] only
    /// (reports the ephemeral port when the config asked for port 0).
    pub fn wire_addr(&self) -> Option<std::net::SocketAddr> {
        self.socket.as_ref().map(|s| s.server.local_addr())
    }

    /// Wire transport counters, in [`HeadendMode::Socket`] only.
    pub fn wire_stats(&self) -> Option<oddci_wire::WireStatsSnapshot> {
        self.socket.as_ref().map(|s| s.server.stats().snapshot())
    }

    /// Per-connection wire counters, in [`HeadendMode::Socket`] only.
    /// Disconnected peers stay listed with their final counters.
    pub fn wire_conn_stats(&self) -> Option<Vec<oddci_wire::ConnTraffic>> {
        self.socket.as_ref().map(|s| s.conn_stats.snapshot())
    }

    /// Submits an alignment job with `n_queries` queries against `image`'s
    /// database on an instance of `target` nodes, waits up to `timeout`
    /// and returns the outcome if the job completed in time.
    ///
    /// Half the queries are homologs planted in the database (they should
    /// score high), half are random noise (they should score ~0) — so the
    /// caller can verify that the distributed computation really ran.
    pub fn run_alignment_job(
        &self,
        image: AlignmentImage,
        n_queries: u64,
        target: u64,
        timeout: Duration,
    ) -> Option<JobOutcome> {
        assert!(n_queries > 0, "a job needs at least one query");
        let db = random_sequence(image.db_len, image.db_seed);
        let queries: Vec<Arc<Vec<u8>>> = (0..n_queries)
            .map(|i| {
                let q = if i % 2 == 0 {
                    // Planted homolog: a mutated slice of the database.
                    let start = (i as usize * 131) % db.len().saturating_sub(200);
                    mutate(&db[start..start + 150], 0.05, image.db_seed ^ i)
                } else {
                    random_sequence(150, image.db_seed ^ (i | 1 << 60))
                };
                Arc::new(q)
            })
            .collect();
        self.run_query_job(image, queries, target, timeout)
    }

    /// Submits a job of caller-supplied queries against `image`'s database
    /// (one task per query) and waits for it like
    /// [`run_alignment_job`](LiveOddci::run_alignment_job) — which is a
    /// wrapper around this that plants verifiable homologs. Callers that
    /// want throughput-shaped work (e.g. the `soak` benchmark) pass short
    /// random queries so each task is a cheap index scan and the headend
    /// round trip dominates.
    pub fn run_query_job(
        &self,
        image: AlignmentImage,
        queries: Vec<Arc<Vec<u8>>>,
        target: u64,
        timeout: Duration,
    ) -> Option<JobOutcome> {
        let req = self.submit_query_job(image, queries, target)?;
        self.wait_job(req, timeout)
    }

    /// Submits a job of caller-supplied queries without waiting: the
    /// split half of [`run_query_job`](LiveOddci::run_query_job), for
    /// callers who outlive the headend serving the job — the failover
    /// path submits on the primary, crashes it, and [`wait_job`]s the
    /// *standby's* matching request. `None` when `image` fails
    /// [`AlignmentImage::validate`]: the headend refuses a recipe no node
    /// could materialize instead of broadcasting it.
    ///
    /// [`wait_job`]: LiveOddci::wait_job
    pub fn submit_query_job(
        &self,
        image: AlignmentImage,
        queries: Vec<Arc<Vec<u8>>>,
        target: u64,
    ) -> Option<ProviderRequest> {
        assert!(!queries.is_empty(), "a job needs at least one query");
        image.validate().ok()?;
        let n_queries = queries.len() as u64;
        let job_id = JobId::new(self.next_job.fetch_add(1, Ordering::Relaxed));
        let tasks = (0..n_queries)
            .map(|i| {
                Task::new(
                    TaskId::new(i),
                    DataSize::from_bytes(150),
                    SimDuration::from_millis(10),
                    DataSize::from_bytes(8),
                )
            })
            .collect();
        let job = Job::new(
            job_id,
            ImageId::new(job_id.raw()),
            DataSize::from_megabytes(1),
            tasks,
        );
        Some(self.headend.submit(job, queries, Arc::new(image), target))
    }

    /// Blocks until a submitted request completes or `timeout` passes;
    /// the thread that lands the job's last result wakes the caller.
    pub fn wait_job(&self, req: ProviderRequest, timeout: Duration) -> Option<JobOutcome> {
        let (report, scores) = self.headend.wait_report(req, Instant::now() + timeout)?;
        Some(JobOutcome { report, scores })
    }

    /// Provider requests still running — what a standby must keep
    /// waiting on after adoption.
    pub fn running_jobs(&self) -> Vec<ProviderRequest> {
        self.headend.running_jobs()
    }

    /// The fencing epoch this headend acks hellos with: 0 for a primary,
    /// snapshot epoch + 1 for a standby.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cuts a snapshot right now, bypassing the periodic writer. `None`
    /// when a headend thread fails to answer the export.
    pub fn snapshot_now(&self) -> Option<SnapshotState> {
        let wire = self
            .socket
            .as_ref()
            .map_or((0, Vec::new()), |s| s.membership.lock().export());
        let mut snap = self.headend.snapshot_handle().export(self.epoch, wire)?;
        snap.autoscale = self.autoscale_state();
        Some(snap)
    }

    /// The elastic-sizing loop's current state — desired size, unserved
    /// cooldown, action counters. `None` when autoscale is off.
    pub fn autoscale_state(&self) -> Option<AutoscaleExport> {
        let shared = self.autoscale.as_ref()?;
        let now = SimTime::from_micros(self.headend.now_us());
        Some(shared.lock().export(now))
    }

    /// Re-applies `NodeLost` instants recorded after `since_us` (a
    /// snapshot's `taken_at_us`) from a recovered trace-event suffix: the
    /// dead primary may have re-queued a lost node's assignments *after*
    /// the snapshot was cut, and replaying those losses lets the standby
    /// re-queue immediately instead of waiting out its own miss-threshold
    /// window. Returns how many losses changed the ledger.
    pub fn replay_trace(&self, events: &[oddci_telemetry::Event], since_us: u64) -> u64 {
        let sh = &self.headend;
        let begin = sh.now_us();
        let mut nodes: Vec<NodeId> = events
            .iter()
            .filter(|e| {
                e.phase == Phase::NodeLost
                    && e.kind == oddci_telemetry::EventKind::Instant
                    && e.ts_us > since_us
            })
            .map(|e| NodeId::new(e.track))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        let applied = sh.replay_node_losses(&nodes);
        self.config.telemetry.span(
            begin,
            sh.now_us(),
            Phase::HeadendReplay,
            CONTROL_TRACK,
            applied,
        );
        applied
    }

    /// Kills a socket headend the way SIGKILL would: the listener and its
    /// service drop (PNAs see a dead connection, not a goodbye), the
    /// headend threads are abandoned to exit on channel disconnect, and
    /// nothing is drained or accounted. The telemetry sink is flushed
    /// only because in-process "processes" share a sink — bytes already
    /// written to the fd would survive a real kill anyway.
    ///
    /// # Panics
    /// Outside [`HeadendMode::Socket`]: in-process node threads share
    /// channels with the headend and would loop forever against a
    /// dropped one.
    pub fn crash(self) {
        let Some(mut socket) = self.socket else {
            panic!("crash() models a dead socket headend; use HeadendMode::Socket");
        };
        stop_worker(self.reconciler);
        stop_worker(self.snapshot_writer);
        let _ = socket.server.stop();
        drop(self.headend);
        self.config.telemetry.flush_sink();
    }

    /// Stops the headend and all nodes, joining every thread.
    ///
    /// The shutdown barrier: `Shutdown` goes out on the bus first, the
    /// socket front (if any) and every node thread are joined, so no node
    /// can still be sending; then the headend winds down (dispatch pool,
    /// controller shards, carousel — receivers strictly outlive
    /// senders). The returned report carries the Backend's final task
    /// accounting.
    ///
    /// When a streaming trace sink is attached, every thread has exited
    /// — and therefore emitted its last event — before the sink is
    /// flushed, and the flush completes before `tasks_unaccounted` is
    /// computed: the streamed artifact always covers the full run the
    /// report describes.
    pub fn shutdown(self) -> ShutdownReport {
        // The reconciler and snapshot writer both talk to the shard
        // channels, so they must stop before those receivers wind down.
        let mut threads_failed = stop_worker(self.reconciler) + stop_worker(self.snapshot_writer);
        self.bus.publish(&BusMsg::Shutdown);
        // The Shutdown bus message reaches the wire service, which
        // broadcasts it to every PNA and asks the serving loop to drain
        // and stop; joining the server here guarantees the service (a
        // shard/dispatch sender) is gone before the headend tears its
        // receivers down.
        if let Some(mut socket) = self.socket {
            threads_failed += u64::from(!socket.server.stop());
        }
        for node in self.nodes {
            threads_failed += u64::from(node.join().is_err());
        }
        let (tasks_unaccounted, failed) = self.headend.shutdown();
        threads_failed += failed;
        self.config.telemetry.flush_sink();
        ShutdownReport {
            tasks_unaccounted,
            threads_failed,
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot writer
// ---------------------------------------------------------------------

/// Spawns the periodic snapshot writer: every `interval` it cuts a state
/// export and atomically replaces `dir/headend.snap`. Dropping the
/// returned sender (or sending on it) stops the thread.
#[allow(clippy::too_many_arguments)]
fn spawn_snapshot_writer(
    handle: SnapshotHandle,
    membership: Option<Arc<Mutex<WireMembership>>>,
    autoscale: Option<Arc<Mutex<Reconciler>>>,
    epoch: u64,
    dir: std::path::PathBuf,
    interval: Duration,
    start: Instant,
    tele: Telemetry,
) -> (Sender<()>, JoinHandle<()>) {
    let (tx, rx) = bounded::<()>(1);
    let thread = std::thread::spawn(move || {
        if std::fs::create_dir_all(&dir).is_err() {
            return; // nowhere to write; durability is best-effort
        }
        let path = dir.join(snapshot::SNAPSHOT_FILE);
        loop {
            match rx.recv_timeout(interval) {
                Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {}
            }
            let begin = wall_now(&start).as_micros();
            let wire = membership
                .as_ref()
                .map(|m| m.lock().export())
                .unwrap_or((0, Vec::new()));
            let Some(mut snap) = handle.export(epoch, wire) else {
                return; // headend winding down mid-export
            };
            snap.autoscale = autoscale
                .as_ref()
                .map(|r| r.lock().export(wall_now(&start)));
            let _ = snapshot::write_file(&path, &snap);
            tele.span(
                begin,
                wall_now(&start).as_micros(),
                Phase::HeadendSnapshot,
                CONTROL_TRACK,
                epoch,
            );
        }
    });
    (tx, thread)
}

// ---------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
pub(crate) fn node_main(
    id: NodeId,
    key: Vec<u8>,
    bus_rx: Receiver<BusMsg>,
    link: NodeLink,
    hb_interval: Duration,
    seed: u64,
    start: Instant,
    injector: Arc<FaultInjector>,
    tele: Telemetry,
) {
    let mut pna = Pna::new(id, &key);
    let mut rng = SmallRng::seed_from_u64(seed);
    let host = HostInfo {
        free_memory: DataSize::from_megabytes(128),
        usage: UsageMode::Standby,
    };
    loop {
        // Idle: listen to the bus, heartbeat on the side.
        match bus_rx.recv_timeout(hb_interval) {
            Ok(BusMsg::Shutdown) => return,
            Ok(BusMsg::Control(b)) => {
                if let PnaAction::BeginAcquisition { instance, .. } =
                    pna.on_control_message(&b.signed, host, &mut rng)
                {
                    tele.instant(
                        wall_now(&start).as_micros(),
                        Phase::PnaAccept,
                        id.raw(),
                        instance.raw(),
                    );
                    if let Some(image) = b.image.and_then(WakeupImage::into_recipe) {
                        if !run_instance(
                            &mut pna,
                            &mut rng,
                            host,
                            instance,
                            &image,
                            &bus_rx,
                            &link,
                            hb_interval,
                            seed,
                            &start,
                            &injector,
                            &tele,
                        ) {
                            return; // shutdown observed while busy
                        }
                    } else {
                        // Wakeup without an image (race with reset), or
                        // with one that does not decode to a valid recipe:
                        // decline; the next carousel pass retries.
                        pna.on_direct_reset(instance);
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                // Fault hook: the PNA software crashes at its own timer; a
                // reboot later it comes back idle and resumes listening
                // (restart = this same loop — the carousel repeats).
                if maybe_crash(&mut pna, &injector, &start) {
                    continue;
                }
                if !heartbeat(&mut pna, &link, seed, &start, &injector, &tele) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// How long a node waits for a heartbeat reply before backing off.
const HB_REPLY_TIMEOUT: Duration = Duration::from_secs(2);
/// How long a node waits for a task-fetch reply before backing off.
const TASK_REPLY_TIMEOUT: Duration = Duration::from_secs(1);

/// Wall-clock runtime instant as [`SimTime`].
pub(crate) fn wall_now(start: &Instant) -> SimTime {
    SimTime::from_micros(start.elapsed().as_micros() as u64)
}

/// Rolls the PNA-crash fault. On a crash the agent loses all state and
/// sleeps out the reboot; returns `true` if one happened.
fn maybe_crash(pna: &mut Pna, injector: &FaultInjector, start: &Instant) -> bool {
    let Some(downtime) = injector.pna_crash(pna.node(), wall_now(start)) else {
        return false;
    };
    pna.power_off();
    std::thread::sleep(Duration::from_micros(downtime.as_micros()));
    true
}

/// Sends one heartbeat and applies the reply. A beat swallowed by an
/// injected drop or partition is simply skipped (the miss-threshold
/// machinery is the Controller's problem); a reply timeout is retried a
/// few times and then given up on *without* killing the node, and a
/// reply channel dropped by the link (shutdown, lost connection) ends the
/// beat at once so the caller gets back to its bus. Returns false only
/// when the headend is gone.
fn heartbeat(
    pna: &mut Pna,
    link: &NodeLink,
    seed: u64,
    start: &Instant,
    injector: &FaultInjector,
    tele: &Telemetry,
) -> bool {
    let id = pna.node();
    let backoff = Backoff::live();
    let mut attempt = 0;
    loop {
        let now = wall_now(start);
        if injector.partitioned(id, now) || injector.heartbeat_dropped(id, now) {
            return true;
        }
        let hb = pna.heartbeat(now);
        let (rtx, rrx) = bounded(1);
        if !link.send_heartbeat(hb, rtx) {
            return false;
        }
        match rrx.recv_timeout(HB_REPLY_TIMEOUT) {
            Ok(HeartbeatReply::Reset(inst)) => {
                tele.instant(wall_now(start).as_micros(), Phase::Heartbeat, id.raw(), 1);
                pna.on_direct_reset(inst);
                return true;
            }
            Ok(HeartbeatReply::Ack) => {
                tele.instant(wall_now(start).as_micros(), Phase::Heartbeat, id.raw(), 0);
                return true;
            }
            // Nobody will answer this beat: the bus says why.
            Err(RecvTimeoutError::Disconnected) => return true,
            Err(RecvTimeoutError::Timeout) => match backoff.delay_std(attempt, seed ^ 0xbea7) {
                Some(d) => {
                    tele.instant(
                        wall_now(start).as_micros(),
                        Phase::Retry,
                        id.raw(),
                        u64::from(attempt),
                    );
                    attempt += 1;
                    std::thread::sleep(d);
                }
                // Give up on this beat, not on the node.
                None => return true,
            },
        }
    }
}

/// Runs the busy phase: materialize the image, then pull batches of
/// tasks, compute them, and upload results until reset. Returns false
/// only on shutdown.
#[allow(clippy::too_many_arguments)]
fn run_instance(
    pna: &mut Pna,
    rng: &mut SmallRng,
    host: HostInfo,
    instance: InstanceId,
    image: &AlignmentImage,
    bus_rx: &Receiver<BusMsg>,
    link: &NodeLink,
    hb_interval: Duration,
    seed: u64,
    start: &Instant,
    injector: &FaultInjector,
    tele: &Telemetry,
) -> bool {
    let _ = pna.image_ready();
    // Real work: regenerate and index the database — the live plane's
    // DVE boot. The span runs accept → database ready.
    let boot_begin = wall_now(start).as_micros();
    let db = image.materialize();
    tele.span(
        boot_begin,
        wall_now(start).as_micros(),
        Phase::DveBoot,
        pna.node().raw(),
        instance.raw(),
    );
    if !heartbeat(pna, link, seed, start, injector, tele) {
        return true;
    }
    let backoff = Backoff::live();
    let mut fetch_attempt: u32 = 0;
    let mut fetch_began: Option<u64> = None;
    while !pna.is_idle() {
        // Drain broadcast traffic (resets, other instances' wakeups).
        while let Ok(msg) = bus_rx.try_recv() {
            match msg {
                BusMsg::Shutdown => return false,
                BusMsg::Control(b) => {
                    if let PnaAction::DveDestroyed { .. } =
                        pna.on_control_message(&b.signed, host, rng)
                    {
                        let _ = heartbeat(pna, link, seed, start, injector, tele);
                        return true;
                    }
                }
            }
        }
        if pna.is_idle() {
            break;
        }

        // Fault hook: a direct-channel loss episode eats the request on
        // the wire; the reply timeout below treats a stalled Backend the
        // same way. Both paths retry with backoff.
        let now = wall_now(start);
        let lost =
            injector.partitioned(pna.node(), now) || injector.direct_dropped(pna.node(), now);
        fetch_began.get_or_insert(now.as_micros());
        let reply = if lost {
            None
        } else {
            let (rtx, rrx) = bounded(1);
            if !link.request_tasks(instance, pna.node(), rtx) {
                return true;
            }
            rrx.recv_timeout(TASK_REPLY_TIMEOUT).ok()
        };
        // Every pause is spent listening to the bus, not asleep: when a
        // reply is missing because the plane is shutting down (the link
        // drops the parked channel at once), the bus is where the node
        // hears it.
        let pause = match reply {
            Some(TaskBatchReply::Assigned { job, tasks }) => {
                fetch_attempt = 0;
                let track = pna.node().raw();
                if let Some(begin) = fetch_began.take() {
                    tele.span(
                        begin,
                        wall_now(start).as_micros(),
                        Phase::TaskFetch,
                        track,
                        tasks[0].0.id.raw(),
                    );
                }
                let mut results: Vec<(TaskId, i32)> = Vec::with_capacity(tasks.len());
                let mut destroyed = false;
                for (task, query) in tasks {
                    // Between tasks, drain control traffic: a reset
                    // mid-batch abandons the remainder (the Backend
                    // re-queues it via the NodeLost membership
                    // transition at this node's next idle heartbeat).
                    while let Ok(msg) = bus_rx.try_recv() {
                        match msg {
                            BusMsg::Shutdown => return false,
                            BusMsg::Control(b) => {
                                if let PnaAction::DveDestroyed { .. } =
                                    pna.on_control_message(&b.signed, host, rng)
                                {
                                    destroyed = true;
                                    // Idle now: what is still queued on
                                    // the bus is `node_main`'s to read.
                                    break;
                                }
                            }
                        }
                    }
                    if destroyed {
                        break;
                    }
                    let compute_begin = wall_now(start).as_micros();
                    let score = image.score(&db, &query);
                    let computed = wall_now(start).as_micros();
                    tele.span(
                        compute_begin,
                        computed,
                        Phase::Compute,
                        track,
                        task.id.raw(),
                    );
                    tele.duration(
                        (computed.saturating_sub(compute_begin)) as f64 / 1e6,
                        Phase::Kernel,
                    );
                    let _ = pna.task_done();
                    results.push((task.id, score));
                }
                if !results.is_empty() {
                    send_results(pna, link, job, results, seed, start, injector, tele);
                }
                if destroyed {
                    let _ = heartbeat(pna, link, seed, start, injector, tele);
                    return true;
                }
                None
            }
            Some(TaskBatchReply::Drained) => {
                fetch_attempt = 0;
                fetch_began = None;
                if maybe_crash(pna, injector, start) {
                    return true;
                }
                if !heartbeat(pna, link, seed, start, injector, tele) {
                    return true;
                }
                Some(hb_interval)
            }
            None => match backoff.delay_std(fetch_attempt, seed ^ 0xfe7c) {
                Some(d) => {
                    tele.instant(
                        wall_now(start).as_micros(),
                        Phase::Retry,
                        pna.node().raw(),
                        u64::from(fetch_attempt),
                    );
                    fetch_attempt += 1;
                    Some(d)
                }
                None => {
                    // Exhausted: give up on this chain but not on the node —
                    // heartbeat (so the Controller still sees us) and start
                    // a fresh chain. Pre-hardening this killed the worker.
                    fetch_attempt = 0;
                    fetch_began = None;
                    if !heartbeat(pna, link, seed, start, injector, tele) {
                        return true;
                    }
                    None
                }
            },
        };
        // A heartbeat reply above may have reset this node directly. Idle,
        // it must be back in `node_main` before it reads the bus again: a
        // wakeup read here would be accepted by the state machine and
        // booted by nobody.
        if pna.is_idle() {
            break;
        }
        if let Some(pause) = pause {
            match bus_rx.recv_timeout(pause) {
                Ok(BusMsg::Shutdown) => return false,
                Ok(BusMsg::Control(b)) => {
                    if let PnaAction::DveDestroyed { .. } =
                        pna.on_control_message(&b.signed, host, rng)
                    {
                        let _ = heartbeat(pna, link, seed, start, injector, tele);
                        return true;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return true,
            }
        }
    }
    true
}

/// Uploads a batch of results, retrying through loss episodes. An
/// exhausted chain abandons the local copies: the Backend still holds
/// the assignments and recycles them into the queue at this node's next
/// fetch.
#[allow(clippy::too_many_arguments)]
fn send_results(
    pna: &Pna,
    link: &NodeLink,
    job: JobId,
    results: Vec<(TaskId, i32)>,
    seed: u64,
    start: &Instant,
    injector: &FaultInjector,
    tele: &Telemetry,
) {
    let backoff = Backoff::live();
    let mut attempt = 0;
    let began = wall_now(start).as_micros();
    let count = results.len() as u64;
    loop {
        let now = wall_now(start);
        if !(injector.partitioned(pna.node(), now) || injector.direct_dropped(pna.node(), now)) {
            let _ = link.send_results(job, pna.node(), results);
            tele.span(
                began,
                wall_now(start).as_micros(),
                Phase::ResultUpload,
                pna.node().raw(),
                count,
            );
            return;
        }
        match backoff.delay_std(attempt, seed ^ 0x5e9d) {
            Some(d) => {
                tele.instant(
                    wall_now(start).as_micros(),
                    Phase::Retry,
                    pna.node().raw(),
                    u64::from(attempt),
                );
                attempt += 1;
                std::thread::sleep(d);
            }
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{run_wire_pna, WirePnaConfig};

    #[test]
    fn snapshot_now_round_trips_through_encode_decode() {
        let live = LiveOddci::start(LiveConfig {
            nodes: 2,
            ..Default::default()
        });
        let image = AlignmentImage::small_demo();
        let outcome = live
            .run_alignment_job(image, 4, 2, Duration::from_secs(30))
            .expect("job completes");
        assert_eq!(outcome.scores.len(), 4);
        let snap = live.snapshot_now().expect("sharded headends can snapshot");
        let decoded =
            crate::snapshot::decode(&crate::snapshot::encode(&snap)).expect("container decodes");
        assert_eq!(decoded.epoch, snap.epoch);
        assert_eq!(decoded.taken_at_us, snap.taken_at_us);
        assert_eq!(decoded.instance_job, snap.instance_job);
        assert_eq!(decoded.job_scores, snap.job_scores);
        assert_eq!(decoded.wire_next_node, snap.wire_next_node);
        let report = live.shutdown();
        assert_eq!(report.tasks_unaccounted, 0);
    }

    #[test]
    fn wait_job_returns_when_the_last_result_lands() {
        // Back to back, so each submission races the previous job's
        // dismantle; short ticks so a dropped wakeup is re-aired quickly.
        let live = LiveOddci::start(LiveConfig {
            nodes: 2,
            heartbeat_interval: Duration::from_millis(20),
            controller_tick: Duration::from_millis(20),
            ..Default::default()
        });
        let image = AlignmentImage {
            db_len: 2000,
            ..AlignmentImage::small_demo()
        };
        const JOBS: u32 = 20;
        let mut lag = Duration::ZERO;
        for job in 0..u64::from(JOBS) {
            let queries = (0..4)
                .map(|i| Arc::new(random_sequence(16, job * 4 + i)))
                .collect();
            let submitted = Instant::now();
            let req = live
                .submit_query_job(image.clone(), queries, 2)
                .expect("a valid recipe is accepted");
            let outcome = live
                .wait_job(req, Duration::from_secs(30))
                .expect("job completes");
            // The report's makespan runs submission → last result on the
            // headend's clock; whatever the caller waited beyond it is lag.
            let makespan = Duration::from_micros(outcome.report.makespan.as_micros());
            lag += submitted.elapsed().saturating_sub(makespan);
        }
        let mean = lag / JOBS;
        assert!(
            mean < Duration::from_millis(1),
            "wait_job returned {mean:?} after the last result, on average"
        );
        assert_eq!(live.shutdown().threads_failed, 0);
    }

    #[test]
    fn wait_job_times_out_on_a_job_nobody_runs() {
        // A socket headend no PNA dials: the job never starts.
        let live = LiveOddci::start(LiveConfig {
            nodes: 1,
            mode: HeadendMode::Socket {
                listen: "127.0.0.1:0".parse().expect("addr"),
                shards: 1,
                dispatch: 1,
                batch: 1,
            },
            ..Default::default()
        });
        let req = live
            .submit_query_job(
                AlignmentImage::small_demo(),
                vec![Arc::new(random_sequence(16, 1))],
                1,
            )
            .expect("a valid recipe is accepted");
        let began = Instant::now();
        assert!(live.wait_job(req, Duration::from_millis(60)).is_none());
        let waited = began.elapsed();
        assert!(
            (Duration::from_millis(60)..Duration::from_secs(2)).contains(&waited),
            "waited {waited:?}"
        );
        live.shutdown();
    }

    #[test]
    fn a_recipe_no_node_could_index_is_refused_at_the_headend() {
        let live = LiveOddci::start(LiveConfig {
            nodes: 2,
            ..Default::default()
        });
        let demo = AlignmentImage::small_demo();
        let bad = [
            AlignmentImage {
                k: 0,
                ..demo.clone()
            },
            AlignmentImage {
                k: 3,
                ..demo.clone()
            },
            AlignmentImage {
                k: 32,
                ..demo.clone()
            },
            AlignmentImage {
                prefetched: Some(Arc::new(random_sequence(demo.db_len + 1, 1))),
                ..demo.clone()
            },
        ];
        for image in bad {
            let queries = vec![Arc::new(random_sequence(16, 1))];
            assert!(live.submit_query_job(image, queries, 2).is_none());
        }
        // Nothing was broadcast, so both nodes are alive and free to run
        // a good job.
        let outcome = live
            .run_alignment_job(demo, 4, 2, Duration::from_secs(30))
            .expect("job completes");
        assert_eq!(outcome.scores.len(), 4);
        let report = live.shutdown();
        assert_eq!(report.threads_failed, 0);
        assert_eq!(report.tasks_unaccounted, 0);
    }

    #[test]
    fn standby_refuses_a_snapshot_whose_image_cannot_be_indexed() {
        let primary = LiveOddci::start(LiveConfig {
            nodes: 1,
            ..Default::default()
        });
        let mut snap = primary.snapshot_now().expect("headends snapshot");
        primary.shutdown();
        let mut recipe = snapshot::ImageExport::from_image(&AlignmentImage::small_demo());
        recipe.k = 0;
        snap.images.push((InstanceId::new(0), recipe));
        let config = LiveConfig {
            nodes: 1,
            mode: HeadendMode::Socket {
                listen: "127.0.0.1:0".parse().expect("addr"),
                shards: 2,
                dispatch: 1,
                batch: 1,
            },
            ..Default::default()
        };
        let refused = LiveOddci::start_standby(config, &snap).err();
        assert!(
            refused
                .as_deref()
                .is_some_and(|e| e.contains("word length")),
            "{refused:?}"
        );
    }

    /// The full failover story, in-process: a socket headend snapshots
    /// while three reconnecting PNAs chew on a job, dies the way SIGKILL
    /// would, and a standby adopts its snapshot on the same port. The
    /// job must complete on the standby with every task accounted for
    /// and every PNA fenced up to the new epoch.
    #[test]
    fn standby_adopts_a_killed_socket_headend_mid_job() {
        let dir = std::env::temp_dir().join(format!(
            "oddci-failover-test-{}-{:x}",
            std::process::id(),
            std::ptr::from_ref(&()) as usize
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mk_config = |listen: std::net::SocketAddr| LiveConfig {
            nodes: 3,
            heartbeat_interval: Duration::from_millis(60),
            mode: HeadendMode::Socket {
                listen,
                shards: 2,
                dispatch: 2,
                batch: 4,
            },
            snapshot_dir: Some(dir.clone()),
            snapshot_interval: Duration::from_millis(50),
            ..Default::default()
        };
        let primary = LiveOddci::start(mk_config("127.0.0.1:0".parse().expect("addr")));
        let addr = primary.wire_addr().expect("socket headends listen");

        let pnas: Vec<_> = (0..3u64)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut cfg = WirePnaConfig::new(addr);
                    cfg.seed = 100 + i;
                    cfg.heartbeat_interval = Duration::from_millis(60);
                    cfg.reconnect = Some(Duration::from_secs(30));
                    run_wire_pna(cfg)
                })
            })
            .collect();

        // Enough work that the kill lands mid-job: planted homologs
        // against a larger library are genuinely expensive to score, so
        // the job cannot outrun the snapshot cadence even on a loaded
        // test machine.
        let image = AlignmentImage {
            db_len: 200_000,
            ..AlignmentImage::small_demo()
        };
        let db = random_sequence(image.db_len, image.db_seed);
        let queries: Vec<Arc<Vec<u8>>> = (0..64u64)
            .map(|i| {
                let start = (i as usize * 199) % (db.len() - 200);
                Arc::new(mutate(&db[start..start + 200], 0.05, 7 ^ i))
            })
            .collect();
        let req = primary
            .submit_query_job(image, queries, 3)
            .expect("submit succeeds");

        // Wait for a snapshot whose Provider still shows the request in
        // flight, then pull the plug — adopting a finished job would
        // make the running_jobs assertion below vacuous.
        let snap_path = dir.join(crate::snapshot::SNAPSHOT_FILE);
        let deadline = Instant::now() + Duration::from_secs(10);
        let snap = loop {
            if let Ok(s) = crate::snapshot::read_file(&snap_path) {
                let mid_job = !s.job_queries.is_empty()
                    && s.provider.requests.iter().any(|r| {
                        r.request == req
                            && matches!(r.state, oddci_core::provider::RequestState::Running)
                    });
                if mid_job {
                    break s;
                }
            }
            assert!(
                Instant::now() < deadline,
                "no snapshot caught the job in flight"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        primary.crash();

        let standby =
            LiveOddci::start_standby(mk_config(addr), &snap).expect("standby adopts the snapshot");
        assert_eq!(standby.epoch(), snap.epoch + 1);
        assert!(
            standby.running_jobs().contains(&req),
            "the adopted Provider still tracks the in-flight request"
        );
        let outcome = standby
            .wait_job(req, Duration::from_secs(120))
            .expect("job completes on the standby");
        assert_eq!(outcome.scores.len(), 64);

        let report = standby.shutdown();
        assert_eq!(report.tasks_unaccounted, 0, "no task lost across failover");
        assert_eq!(report.threads_failed, 0);
        for h in pnas {
            let rep = h
                .join()
                .expect("pna thread joins")
                .expect("pna survives the failover");
            assert_eq!(rep.epoch, 1, "every PNA re-acked at the standby's epoch");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Failover mid-scale-up: the primary's reconciler grows the instance
    /// from the floor, a snapshot captures the desired-state record, the
    /// primary dies, and the standby must resume from that record — same
    /// desired size, same action counters, inherited cooldown — instead
    /// of re-provisioning capacity the primary already requested.
    #[test]
    fn standby_resumes_autoscale_desired_state_from_snapshot() {
        let dir = std::env::temp_dir().join(format!(
            "oddci-autoscale-failover-test-{}-{:x}",
            std::process::id(),
            std::ptr::from_ref(&()) as usize
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = AutoscalePolicy {
            min_size: 1,
            max_size: 4,
            slo_queue_depth: 4,
            // Long cooldown: the scale-up the primary took must fence the
            // standby's loop for the rest of the test.
            cooldown: SimDuration::from_secs(30),
            ..AutoscalePolicy::default()
        };
        let mk_config = |listen: std::net::SocketAddr| LiveConfig {
            nodes: 4,
            heartbeat_interval: Duration::from_millis(60),
            mode: HeadendMode::Socket {
                listen,
                shards: 2,
                dispatch: 2,
                batch: 4,
            },
            snapshot_dir: Some(dir.clone()),
            snapshot_interval: Duration::from_millis(50),
            autoscale: Some(policy),
            autoscale_interval: Duration::from_millis(25),
            ..Default::default()
        };
        let primary = LiveOddci::start(mk_config("127.0.0.1:0".parse().expect("addr")));
        let addr = primary.wire_addr().expect("socket headends listen");

        let pnas: Vec<_> = (0..4u64)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut cfg = WirePnaConfig::new(addr);
                    cfg.seed = 200 + i;
                    cfg.heartbeat_interval = Duration::from_millis(60);
                    cfg.reconnect = Some(Duration::from_secs(30));
                    run_wire_pna(cfg)
                })
            })
            .collect();

        // Submit at the policy floor: 64 queued tasks against
        // slo_queue_depth=4 force the reconciler off the floor on its
        // first tick, so the kill lands mid-scale-up. Planted homolog
        // queries against a bigger database keep the job busy well past
        // the snapshot cut even in release builds.
        let image = AlignmentImage {
            db_len: 300_000,
            ..AlignmentImage::small_demo()
        };
        let db = random_sequence(image.db_len, image.db_seed);
        let queries: Vec<Arc<Vec<u8>>> = (0..64u64)
            .map(|i| {
                let start = (i as usize * 211) % (db.len() - 200);
                Arc::new(mutate(&db[start..start + 200], 0.05, 900 + i))
            })
            .collect();
        let req = primary
            .submit_query_job(image, queries, policy.min_size as u64)
            .expect("submit succeeds");

        // Wait for the reconciler's first scale-up, cut a snapshot that
        // carries the desired-state record, then pull the plug.
        let deadline = Instant::now() + Duration::from_secs(10);
        while primary.autoscale_state().is_none_or(|a| a.scale_ups < 1) {
            assert!(
                Instant::now() < deadline,
                "the reconciler never scaled up off the floor"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let snap = primary.snapshot_now().expect("socket headends snapshot");
        assert!(
            !snap.job_queries.is_empty(),
            "the job must outlive the snapshot cut"
        );
        let pre = snap.autoscale.expect("snapshot carries the record");
        assert!(pre.scale_ups >= 1);
        assert!(pre.desired > policy.min_size, "scale-up left the floor");
        primary.crash();

        let standby =
            LiveOddci::start_standby(mk_config(addr), &snap).expect("standby adopts the snapshot");
        let adopted = standby
            .autoscale_state()
            .expect("autoscale config revives the reconciler");
        assert_eq!(
            adopted.desired, pre.desired,
            "desired state carries over verbatim"
        );
        assert!(adopted.scale_ups >= pre.scale_ups);

        // Let several reconcile ticks pass: the inherited cooldown must
        // fence any further action, so the standby cannot double-provision
        // the capacity the primary already requested.
        std::thread::sleep(Duration::from_millis(150));
        let later = standby
            .autoscale_state()
            .expect("reconciler still running on the standby");
        assert_eq!(
            later.scale_ups, pre.scale_ups,
            "standby re-provisioned capacity the primary already requested"
        );
        assert_eq!(later.desired, pre.desired);
        assert!(
            later.ticks > adopted.ticks,
            "the standby's reconciler is actually ticking"
        );

        let outcome = standby
            .wait_job(req, Duration::from_secs(120))
            .expect("job completes on the standby");
        assert_eq!(outcome.scores.len(), 64);

        let report = standby.shutdown();
        assert_eq!(report.tasks_unaccounted, 0, "no task lost across failover");
        assert_eq!(report.threads_failed, 0);
        for h in pnas {
            let rep = h
                .join()
                .expect("pna thread joins")
                .expect("pna survives the failover");
            assert_eq!(rep.epoch, 1, "every PNA re-acked at the standby's epoch");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
