//! The live runtime: a headend (Provider + Controller + Backend) and one
//! OS thread per receiver, all speaking the §3.2 protocol.
//!
//! There is one [`headend`](crate::headend): one Controller with the
//! carousel, and the shared Backend, each behind its own lock, which
//! every node reaches without a thread hop — its heartbeats, task fetches
//! (batches) and results run on the thread that asks. One control thread
//! ticks the Controller. [`HeadendMode`] picks the batch size and whether a
//! socket front (`oddci-wire` listener) stands before the headend, in
//! which case the nodes are separate PNA processes instead of in-process
//! threads. A standby is the same bring-up with a snapshot adopted
//! before the listener binds.
//!
//! A node's thread owns its `NodeLink`, its whole view of the plane: in
//! process, the headend plus a bus subscription; for a PNA process, one
//! socket whose inbound channel it reads itself, for control messages
//! and for the reply to each request alike.
//!
//! Wall-clock time is mapped onto [`SimTime`] (microseconds since runtime
//! start) so the *identical* Controller/Backend/Provider code from
//! `oddci-core` runs unmodified on this plane.

use crate::bus::BroadcastBus;
use crate::headend::{spawn_control, spawn_reconciler, Headend};
use crate::image::{AlignmentImage, LiveBroadcast, WakeupImage};
use crate::snapshot::{self, SnapshotState};
use crate::wire::WireMembership;
use oddci_check::sync::{bounded, Mutex, Receiver, RecvTimeoutError, Sender};
use oddci_core::autoscale::{AutoscaleExport, AutoscalePolicy, Reconciler};
use oddci_core::messages::{Heartbeat, HeartbeatReply};
use oddci_core::pna::{HostInfo, Pna, PnaAction};
use oddci_core::provider::{JobReport, ProviderRequest};
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

/// The headend's geometry, and whether nodes reach it over in-process
/// channels or a TCP socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadendMode {
    /// In-process plane: one receiver thread per node, each calling into
    /// the headend directly.
    Sharded {
        /// Ignored: the headend runs one Controller. Still validated
        /// (1..=64); kept only until the benchmark stops setting it.
        shards: usize,
        /// Ignored: fetches and results run on the asking node's thread,
        /// so there is no dispatch pool to size. Still validated
        /// (1..=64); kept only until the benchmark stops setting it.
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
        /// Ignored, as in [`HeadendMode::Sharded`].
        shards: usize,
        /// Ignored: fetches and results run on the serving thread, so
        /// there is no dispatch pool to size. Still validated (1..=64);
        /// kept only until the benchmark stops setting it.
        dispatch: usize,
        /// Tasks served per fetch round trip, 1..=1024.
        batch: usize,
    },
}

impl HeadendMode {
    /// Largest value [`HeadendMode`]'s ignored `shards` field accepts.
    pub const MAX_SHARDS: usize = 64;
    /// Largest value [`HeadendMode`]'s ignored `dispatch` field accepts.
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

    /// Rejects degenerate configurations (`batch == 0`, oversized
    /// batches, …) with a human-readable explanation instead of letting
    /// the runtime misbehave on them.
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
                "dispatch must be within 1..={} (got {dispatch})",
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
            shards: 1,
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

/// A node's whole view of the plane, owned by its thread: the control
/// stream it hears and the requests it makes. In process that is the
/// headend itself (heartbeats, fetches and results all run on the node's
/// own thread) plus a bus subscription; for a separate PNA process, one
/// framed TCP connection carrying both.
pub(crate) enum NodeLink {
    Local {
        headend: Arc<Headend>,
        batch: usize,
        bus: Receiver<BusMsg>,
    },
    Remote(Box<crate::wire::RemoteLink>),
}

/// A request nobody will answer: a `Shutdown` or a lost connection ended
/// its wait, and the node's next read says which.
pub(crate) struct Abandoned;

impl NodeLink {
    /// The next control message, waiting up to `timeout`.
    pub(crate) fn recv(&mut self, timeout: Duration) -> Result<BusMsg, RecvTimeoutError> {
        match self {
            NodeLink::Local { bus, .. } => bus.recv_timeout(timeout),
            NodeLink::Remote(link) => link.recv(timeout),
        }
    }

    /// The next control message, if one is already here.
    pub(crate) fn try_recv(&mut self) -> Option<BusMsg> {
        match self {
            NodeLink::Local { bus, .. } => bus.try_recv().ok(),
            NodeLink::Remote(link) => link.recv(Duration::ZERO).ok(),
        }
    }

    /// Sends a heartbeat and waits for the reply; `Ok(None)` when it
    /// timed out.
    pub(crate) fn heartbeat(&mut self, hb: Heartbeat) -> Result<Option<HeartbeatReply>, Abandoned> {
        match self {
            NodeLink::Local { headend, .. } => Ok(Some(headend.heartbeat(hb))),
            NodeLink::Remote(link) => link.heartbeat(hb, HB_REPLY_TIMEOUT),
        }
    }

    /// Asks for a batch of `instance`'s tasks. `None` is a request nobody
    /// answered (a stalled Backend, a reply that timed out, a wait ended
    /// by a `Shutdown` or a dead connection): the caller backs off,
    /// listening, and retries.
    pub(crate) fn fetch_tasks(
        &mut self,
        instance: InstanceId,
        node: NodeId,
    ) -> Option<TaskBatchReply> {
        match self {
            NodeLink::Local { headend, batch, .. } => headend.fetch(instance, node, *batch),
            NodeLink::Remote(link) => link.fetch_tasks(instance, node, TASK_REPLY_TIMEOUT),
        }
    }

    pub(crate) fn send_results(&self, job: JobId, node: NodeId, results: Vec<(TaskId, i32)>) {
        match self {
            NodeLink::Local { headend, .. } => headend.results(job, node, results),
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
        headend: &Arc<Headend>,
        bus: &BroadcastBus<BusMsg>,
        epoch: u64,
        adopt: Option<&SnapshotState>,
    ) -> Result<SocketFront, String> {
        let membership = match adopt {
            Some(snap) => WireMembership::adopted(snap.wire_next_node, &snap.wire_nodes),
            None => WireMembership::new(),
        };
        let membership = Arc::new(Mutex::named(membership, "live.wire.membership"));
        let conn_stats = Arc::new(oddci_wire::ConnStatsHub::new());
        let bind_deadline = Instant::now() + Duration::from_secs(5);
        let server = loop {
            let service = crate::wire::LiveWireService::new(
                Arc::clone(headend),
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

/// A background loop (control thread, reconciler, snapshot writer) and
/// the sender whose drop stops it.
pub(crate) type Worker = (Sender<()>, JoinHandle<()>);

/// Runs `turn` every `interval` on a thread of its own until the
/// returned worker is stopped.
pub(crate) fn every(interval: Duration, mut turn: impl FnMut() + Send + 'static) -> Worker {
    let (stop, stopped) = bounded::<()>(1);
    let thread = std::thread::spawn(move || {
        while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
            turn();
        }
    });
    (stop, thread)
}

/// Stops a background loop and joins it; 1 if it had panicked.
fn stop_worker(worker: Option<Worker>) -> u64 {
    worker.map_or(0, |(stop, thread)| {
        drop(stop);
        u64::from(thread.join().is_err())
    })
}

/// The live OddCI system.
pub struct LiveOddci {
    headend: Arc<Headend>,
    /// The thread that ticks the Controller.
    control: Worker,
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
    /// socket architecture as [`LiveOddci::start`], but the Controller
    /// (every state in `snap.shards` folded into one), its image table,
    /// the hub's job state and
    /// the wire node-id namespace are adopted from `snap` *before* the
    /// listener binds — so the first PNA to redial finds its membership,
    /// its instance and its task ledger already in place. The standby
    /// acks hellos with `snap.epoch + 1`, which is what lets PNAs fence
    /// off the dead primary, and resumes elastic sizing from the
    /// snapshot's desired-state record when [`LiveConfig::autoscale`] is
    /// set.
    ///
    /// Only [`HeadendMode::Socket`] makes sense here (a standby adopts
    /// *remote* PNAs; in-process node threads die with their runtime).
    pub fn start_standby(config: LiveConfig, snap: &SnapshotState) -> Result<LiveOddci, String> {
        if !matches!(config.mode, HeadendMode::Socket { .. }) {
            return Err("a standby headend adopts remote PNAs: use HeadendMode::Socket".into());
        }
        Self::bring_up(config, Some(snap))
    }

    /// The one bring-up path: the headend, adoption of `adopt` (a
    /// standby), the control thread, the socket front, local receivers
    /// (in process), the reconciler and the snapshot writer — in that
    /// order, so the listener never accepts a PNA before the state it
    /// resumes is in place and snapshots can embed the desired-state
    /// record.
    fn bring_up(config: LiveConfig, adopt: Option<&SnapshotState>) -> Result<LiveOddci, String> {
        if config.nodes == 0 {
            return Err("a live system needs at least one node".into());
        }
        config
            .mode
            .validate()
            .map_err(|e| format!("invalid headend mode: {e}"))?;
        let (listen, _, _, batch) = config.mode.parts();
        let bus = Arc::new(BroadcastBus::new());
        let start = Instant::now();
        let injector = Arc::new(FaultInjector::new(
            config.faults.clone(),
            config.seed ^ 0xFA17_FA17,
        ));
        let headend = Arc::new(Headend::new(
            &config,
            Arc::clone(&bus),
            start,
            Arc::clone(&injector),
        ));
        if let Some(snap) = adopt {
            headend.import_state(snap)?;
        }
        // Spawned before the serving thread, as the shard threads it
        // replaces were. Spawned after it, `socket_idle` fetches ran ~8 %
        // slower on a 2-vCPU box: the shard-thread headend won 8 of 8
        // alternated runs against that order and 4 of 8 against this one.
        let control = spawn_control(&headend, config.controller_tick);
        let epoch = adopt.map_or(0, |snap| snap.epoch + 1);
        let socket = listen
            .map(|listen| SocketFront::bind(listen, batch, &config, &headend, &bus, epoch, adopt))
            .transpose();
        let socket = match socket {
            Ok(socket) => socket,
            Err(e) => {
                stop_worker(Some(control));
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
        let nodes = (0..local_nodes)
            .map(|i| {
                let mut link = NodeLink::Local {
                    headend: Arc::clone(&headend),
                    batch,
                    bus: bus.subscribe(),
                };
                let key = config.key.clone();
                let hb = config.heartbeat_interval;
                let seed = config.seed ^ (i.wrapping_mul(0x9e3779b97f4a7c15));
                let inj = Arc::clone(&injector);
                let tele = config.telemetry.clone();
                std::thread::spawn(move || {
                    node_main(NodeId::new(i), key, &mut link, hb, seed, start, inj, tele)
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
            spawn_reconciler(
                Arc::clone(&headend),
                Arc::clone(shared),
                config.autoscale_interval,
            )
        });

        // Durability is best-effort: with nowhere to write, no writer.
        let snapshot_writer = config
            .snapshot_dir
            .as_ref()
            .filter(|dir| std::fs::create_dir_all(dir).is_ok())
            .map(|dir| {
                spawn_snapshot_writer(
                    Arc::clone(&headend),
                    socket.as_ref().map(|s| Arc::clone(&s.membership)),
                    autoscale.clone(),
                    epoch,
                    dir.join(snapshot::SNAPSHOT_FILE),
                    config.snapshot_interval,
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
            control,
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
    /// want throughput-shaped work (e.g. `oddci soak`) pass short
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

    /// Cuts a snapshot right now, on the calling thread, bypassing the
    /// periodic writer.
    pub fn snapshot_now(&self) -> SnapshotState {
        cut_snapshot(
            &self.headend,
            self.socket.as_ref().map(|s| &*s.membership),
            self.autoscale.as_deref(),
            self.epoch,
        )
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
    /// control thread stops, and nothing is drained or accounted. The
    /// telemetry sink is flushed only because in-process "processes"
    /// share a sink — bytes already written to the fd would survive a
    /// real kill anyway.
    ///
    /// # Panics
    /// Outside [`HeadendMode::Socket`]: in-process node threads share
    /// the headend and would run on against a dead one.
    pub fn crash(self) {
        let Some(mut socket) = self.socket else {
            panic!("crash() models a dead socket headend; use HeadendMode::Socket");
        };
        stop_worker(self.reconciler);
        stop_worker(self.snapshot_writer);
        let _ = socket.server.stop();
        stop_worker(Some(self.control));
        self.config.telemetry.flush_sink();
    }

    /// Stops the headend and all nodes, joining every thread.
    ///
    /// The shutdown barrier: the reconciler and the snapshot writer stop,
    /// `Shutdown` goes out on the bus, the socket front (if any) and every
    /// node thread are joined, so no node can still be calling into the
    /// headend; then the control thread stops. The returned report
    /// carries the Backend's final task accounting.
    ///
    /// When a streaming trace sink is attached, every thread has exited
    /// — and therefore emitted its last event — before the sink is
    /// flushed, and the flush completes before `tasks_unaccounted` is
    /// computed: the streamed artifact always covers the full run the
    /// report describes.
    pub fn shutdown(self) -> ShutdownReport {
        let mut threads_failed = stop_worker(self.reconciler) + stop_worker(self.snapshot_writer);
        // The Shutdown bus message reaches the wire service, which
        // broadcasts it to every PNA and asks the serving loop to drain
        // and stop.
        self.bus.publish(&BusMsg::Shutdown);
        if let Some(mut socket) = self.socket {
            threads_failed += u64::from(!socket.server.stop());
        }
        for node in self.nodes {
            threads_failed += u64::from(node.join().is_err());
        }
        threads_failed += stop_worker(Some(self.control));
        self.config.telemetry.flush_sink();
        ShutdownReport {
            tasks_unaccounted: self.headend.unaccounted(),
            threads_failed,
        }
    }
}

// ---------------------------------------------------------------------
// Snapshot writer
// ---------------------------------------------------------------------

/// Cuts one snapshot of `headend`, with the wire identity ledger and the
/// reconciler's desired-state record when the runtime has them.
fn cut_snapshot(
    headend: &Headend,
    membership: Option<&Mutex<WireMembership>>,
    autoscale: Option<&Mutex<Reconciler>>,
    epoch: u64,
) -> SnapshotState {
    let wire = membership.map_or((0, Vec::new()), |m| m.lock().export());
    let mut snap = headend.export(epoch, wire);
    snap.autoscale = autoscale.map(|r| r.lock().export(SimTime::from_micros(headend.now_us())));
    snap
}

/// Spawns the periodic snapshot writer: every `interval` it cuts a state
/// export and atomically replaces the file at `path`.
fn spawn_snapshot_writer(
    headend: Arc<Headend>,
    membership: Option<Arc<Mutex<WireMembership>>>,
    autoscale: Option<Arc<Mutex<Reconciler>>>,
    epoch: u64,
    path: std::path::PathBuf,
    interval: Duration,
    tele: Telemetry,
) -> Worker {
    every(interval, move || {
        let begin = headend.now_us();
        let snap = cut_snapshot(&headend, membership.as_deref(), autoscale.as_deref(), epoch);
        let _ = snapshot::write_file(&path, &snap);
        tele.span(
            begin,
            headend.now_us(),
            Phase::HeadendSnapshot,
            CONTROL_TRACK,
            epoch,
        );
    })
}

// ---------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
pub(crate) fn node_main(
    id: NodeId,
    key: Vec<u8>,
    link: &mut NodeLink,
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
        // Idle: listen to the control stream, heartbeat on the side.
        match link.recv(hb_interval) {
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
                            link,
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
                if !maybe_crash(&mut pna, &injector, &start) {
                    heartbeat(&mut pna, link, seed, &start, &injector, &tele);
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
/// few times and then given up on *without* killing the node, and a wait
/// the link abandons (shutdown, lost connection) ends the beat at once so
/// the caller gets back to its control stream, which says why.
fn heartbeat(
    pna: &mut Pna,
    link: &mut NodeLink,
    seed: u64,
    start: &Instant,
    injector: &FaultInjector,
    tele: &Telemetry,
) {
    let id = pna.node();
    let backoff = Backoff::live();
    let mut attempt = 0;
    loop {
        let now = wall_now(start);
        if injector.partitioned(id, now) || injector.heartbeat_dropped(id, now) {
            return;
        }
        match link.heartbeat(pna.heartbeat(now)) {
            Ok(Some(HeartbeatReply::Reset(inst))) => {
                tele.instant(wall_now(start).as_micros(), Phase::Heartbeat, id.raw(), 1);
                pna.on_direct_reset(inst);
                return;
            }
            Ok(Some(HeartbeatReply::Ack)) => {
                tele.instant(wall_now(start).as_micros(), Phase::Heartbeat, id.raw(), 0);
                return;
            }
            Err(Abandoned) => return,
            Ok(None) => match backoff.delay_std(attempt, seed ^ 0xbea7) {
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
                None => return,
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
    link: &mut NodeLink,
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
    heartbeat(pna, link, seed, start, injector, tele);
    let backoff = Backoff::live();
    let mut fetch_attempt: u32 = 0;
    let mut fetch_began: Option<u64> = None;
    while !pna.is_idle() {
        // Drain broadcast traffic (resets, other instances' wakeups).
        while let Some(msg) = link.try_recv() {
            match msg {
                BusMsg::Shutdown => return false,
                BusMsg::Control(b) => {
                    if let PnaAction::DveDestroyed { .. } =
                        pna.on_control_message(&b.signed, host, rng)
                    {
                        heartbeat(pna, link, seed, start, injector, tele);
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
            link.fetch_tasks(instance, pna.node())
        };
        // Every pause is spent listening to the control stream, not
        // asleep: when a reply is missing because the plane is shutting
        // down (the link ends the wait at once), that is where the node
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
                    while let Some(msg) = link.try_recv() {
                        match msg {
                            BusMsg::Shutdown => return false,
                            BusMsg::Control(b) => {
                                if let PnaAction::DveDestroyed { .. } =
                                    pna.on_control_message(&b.signed, host, rng)
                                {
                                    destroyed = true;
                                    // Idle now: what is still queued on
                                    // the link is `node_main`'s to read.
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
                    heartbeat(pna, link, seed, start, injector, tele);
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
                heartbeat(pna, link, seed, start, injector, tele);
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
                    heartbeat(pna, link, seed, start, injector, tele);
                    None
                }
            },
        };
        // A heartbeat reply above may have reset this node directly. Idle,
        // it must be back in `node_main` before it reads the link again: a
        // wakeup read here would be accepted by the state machine and
        // booted by nobody.
        if pna.is_idle() {
            break;
        }
        if let Some(pause) = pause {
            match link.recv(pause) {
                Ok(BusMsg::Shutdown) => return false,
                Ok(BusMsg::Control(b)) => {
                    if let PnaAction::DveDestroyed { .. } =
                        pna.on_control_message(&b.signed, host, rng)
                    {
                        heartbeat(pna, link, seed, start, injector, tele);
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
            link.send_results(job, pna.node(), results);
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
        let snap = live.snapshot_now();
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

    /// A clean job recycles nothing, in process or over the socket: each
    /// node's results land before its next fetch, which would otherwise
    /// throw the unreported batch back into the queue.
    #[test]
    fn clean_jobs_recycle_nothing() {
        let listen = "127.0.0.1:0".parse().expect("addr");
        for mode in [
            HeadendMode::Sharded {
                shards: 1,
                dispatch: 1,
                batch: 8,
            },
            HeadendMode::Socket {
                listen,
                shards: 1,
                dispatch: 1,
                batch: 8,
            },
        ] {
            let live = LiveOddci::start(LiveConfig {
                nodes: 2,
                mode,
                ..Default::default()
            });
            let pnas: Vec<_> = live
                .wire_addr()
                .into_iter()
                .flat_map(|addr| {
                    (0..2u64).map(move |i| {
                        std::thread::spawn(move || {
                            let mut cfg = WirePnaConfig::new(addr);
                            cfg.seed = 300 + i;
                            run_wire_pna(cfg)
                        })
                    })
                })
                .collect();
            let image = AlignmentImage {
                db_len: 2000,
                ..AlignmentImage::small_demo()
            };
            let queries = (0..400).map(|i| Arc::new(random_sequence(16, i))).collect();
            let outcome = live
                .run_query_job(image, queries, 2, Duration::from_secs(60))
                .expect("job completes");
            assert_eq!(outcome.scores.len(), 400, "{mode:?}");
            assert_eq!(outcome.report.requeues, 0, "{mode:?}");
            let snap = live.snapshot_now();
            let backend_requeues: u64 = snap.backend.jobs.iter().map(|j| j.requeues).sum();
            assert_eq!(backend_requeues, 0, "{mode:?}");
            let report = live.shutdown();
            assert_eq!(report.tasks_unaccounted, 0, "{mode:?}");
            assert_eq!(report.threads_failed, 0, "{mode:?}");
            for pna in pnas {
                pna.join()
                    .expect("pna thread joins")
                    .expect("pna runs to shutdown");
            }
        }
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
        let mut snap = primary.snapshot_now();
        primary.shutdown();
        let mut recipe = snapshot::ImageExport::from_image(&AlignmentImage::small_demo());
        recipe.k = 0;
        snap.images.push((InstanceId::new(0), recipe));
        let config = LiveConfig {
            nodes: 1,
            mode: HeadendMode::Socket {
                listen: "127.0.0.1:0".parse().expect("addr"),
                shards: 1,
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
                shards: 1,
                dispatch: 1,
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
                shards: 1,
                dispatch: 1,
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
        let snap = primary.snapshot_now();
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

    /// A standby of one Controller adopts a snapshot cut by a headend of
    /// two, shaped like the benchmark's synthetic one: one instance split
    /// by node parity, ids `{0, 2, …}` and `{1, 3, …}`. The folded
    /// Controller keeps every member of both entries, airs past every id
    /// either signed, and finishes the job with live PNAs.
    #[test]
    fn standby_of_one_controller_adopts_a_two_controller_snapshot() {
        use oddci_core::controller::{ControllerState, InstanceExport, NodeExport};
        use oddci_core::messages::{ControlMessage, PnaStateKind};
        let mode = |listen| HeadendMode::Socket {
            listen,
            shards: 1,
            dispatch: 1,
            batch: 4,
        };
        let config = |listen| LiveConfig {
            nodes: 2,
            heartbeat_interval: Duration::from_millis(40),
            controller_tick: Duration::from_millis(40),
            mode: mode(listen),
            ..Default::default()
        };
        let loopback = "127.0.0.1:0".parse().expect("addr");
        let primary = LiveOddci::start(config(loopback));
        let queries: Vec<_> = (0..32).map(|i| Arc::new(random_sequence(16, i))).collect();
        let image = AlignmentImage {
            db_len: 2000,
            ..AlignmentImage::small_demo()
        };
        let req = primary.submit_query_job(image, queries, 2).expect("submit");
        let mut snap = primary.snapshot_now();
        primary.shutdown();
        let instance = snap.shards[0].instances[0].clone();
        // Four members no live PNA will ever be; a per-entry target of 3
        // leaves the folded instance 2 short, so the standby re-airs.
        let entry = |s: u64, next_message| {
            let members: Vec<NodeId> = (1000 + s..1004).step_by(2).map(NodeId::new).collect();
            let registry = members.iter().map(|&node| NodeExport {
                node,
                heartbeat_age: SimDuration::from_millis(10),
                state: PnaStateKind::Busy,
                instance: Some(instance.id),
            });
            let mut request = instance.request;
            request.target = 3;
            ControllerState {
                instances: vec![InstanceExport {
                    request,
                    members: members.clone(),
                    ..instance.clone()
                }],
                registry: registry.collect(),
                next_instance: 1,
                next_message,
                message_stride: 2,
                heartbeats_received: 40,
            }
        };
        snap.shards = vec![entry(0, 6), entry(1, 9)];

        let standby = LiveOddci::start_standby(config(loopback), &snap).expect("standby adopts");
        let adopted = standby.snapshot_now().shards;
        assert_eq!(adopted.len(), 1, "one Controller");
        let members = &adopted[0].instances[0].members;
        assert_eq!(members, &(1000..1004).map(NodeId::new).collect::<Vec<_>>());
        let aired = standby.bus.subscribe();
        let addr = standby.wire_addr().expect("socket headends listen");
        let pnas: Vec<_> = (0..2u64)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut cfg = WirePnaConfig::new(addr);
                    cfg.seed = 700 + i;
                    cfg.heartbeat_interval = Duration::from_millis(40);
                    run_wire_pna(cfg)
                })
            })
            .collect();
        let outcome = standby
            .wait_job(req, Duration::from_secs(60))
            .expect("job completes on the standby");
        assert_eq!(outcome.scores.len(), 32);
        let report = standby.shutdown();
        assert_eq!(report.tasks_unaccounted, 0);
        assert_eq!(report.threads_failed, 0);
        for pna in pnas {
            pna.join()
                .expect("pna joins")
                .expect("pna runs to shutdown");
        }
        let first = aired
            .try_iter()
            .find_map(|msg| match msg {
                BusMsg::Control(b) => Some(b.signed.message),
                BusMsg::Shutdown => None,
            })
            .expect("the standby aired a wakeup");
        assert!(matches!(first, ControlMessage::Wakeup(_)), "{first:?}");
        // Entry 1 signed up to #7, entry 0 up to #4: #9 is fresh to both.
        assert!(first.id().raw() >= 9, "first aired id {}", first.id().raw());
    }
}
