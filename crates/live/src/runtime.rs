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
use oddci_check::sync::{unbounded, Mutex, Receiver, RecvTimeoutError, Sender};
use oddci_core::autoscale::{AutoscaleExport, AutoscalePolicy, Reconciler};
use oddci_core::messages::{Heartbeat, HeartbeatReply};
use oddci_core::node::{NodeAction, NodeCore, NodeEnv, NodeInput, RetryTimer};
use oddci_core::pna::{HostInfo, Pna};
use oddci_core::provider::{JobReport, ProviderRequest};
use oddci_faults::{Backoff, FaultInjector, FaultPlan};
use oddci_receiver::compute::UsageMode;
use oddci_telemetry::{Phase, Telemetry, CONTROL_TRACK};
use oddci_types::{DataSize, InstanceId, JobId, NodeId, SimDuration, SimTime, TaskId};
use oddci_workload::alignment::{mutate, random_sequence, BlastSearch};
use oddci_workload::Task;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
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
    /// listening, and retries. A remote link asks, and uploads, under the
    /// id its latest `HelloAck` named rather than `node`.
    pub(crate) fn fetch_tasks(
        &mut self,
        instance: InstanceId,
        node: NodeId,
    ) -> Option<TaskBatchReply> {
        match self {
            NodeLink::Local { headend, batch, .. } => headend.fetch(instance, node, *batch),
            NodeLink::Remote(link) => link.fetch_tasks(instance, TASK_REPLY_TIMEOUT),
        }
    }

    pub(crate) fn send_results(&self, job: JobId, node: NodeId, results: Vec<(TaskId, i32)>) {
        match self {
            NodeLink::Local { headend, .. } => headend.results(job, node, results),
            NodeLink::Remote(link) => link.send_results(job, results),
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
    let (stop, stopped) = unbounded::<()>();
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
            headend.import_state(snap, config.nodes)?;
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

        Ok(LiveOddci {
            headend,
            control,
            socket,
            bus,
            nodes,
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
        self.headend.submit(queries, Arc::new(image), target)
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

/// How long a node waits for a heartbeat reply before giving the beat up.
const HB_REPLY_TIMEOUT: Duration = Duration::from_secs(2);
/// How long a node waits for a task-fetch reply before backing off.
const TASK_REPLY_TIMEOUT: Duration = Duration::from_secs(1);

/// Wall-clock runtime instant as [`SimTime`].
pub(crate) fn wall_now(start: &Instant) -> SimTime {
    SimTime::from_micros(start.elapsed().as_micros() as u64)
}

/// A live node's task: the task and its query.
type LiveTask = (Task, Arc<Vec<u8>>);

/// What every live node offers a wakeup's requirements filter.
const HOST: HostInfo = HostInfo {
    free_memory: DataSize::from_megabytes(128),
    usage: UsageMode::Standby,
};

/// One node thread: the [`NodeCore`] the sim's `World` runs too, and what the
/// thread moves for it.
struct LiveNode {
    core: NodeCore<LiveTask>,
    id: NodeId,
    rng: SmallRng,
    jitter_seed: u64,
    start: Instant,
    injector: Arc<FaultInjector>,
    tele: Telemetry,
    actions: Vec<NodeAction>,
    /// Outcomes fed on the loop's next turn, after the link is polled and
    /// the rest of their input's actions ran: a loaded image (after the
    /// acceptance heartbeat, as the sim's acquisition event comes later),
    /// a computed task whose link had news, and a delivered batch (so a
    /// due heartbeat goes out between batches).
    later: VecDeque<NodeInput<'static, LiveTask>>,
    /// What the link held after a task was computed; read before the link.
    inbox: Option<BusMsg>,
    /// The armed retry timer and when it fires.
    retry: Option<(SimTime, RetryTimer)>,
    /// When a crashed agent reboots.
    restart_at: Option<SimTime>,
    /// The booted image and its indexed database.
    image: Option<(Arc<AlignmentImage>, BlastSearch)>,
    /// Scores of the held batch's computed tasks.
    scores: Vec<(TaskId, i32)>,
}

/// Runs one node until the plane shuts down: one loop waits on `link`
/// until the node's next deadline (heartbeat, retry or reboot), feeds the
/// core what arrived or fell due, and runs each action through `link`.
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
    let mut node = LiveNode {
        core: NodeCore::new(Pna::new(id, key.as_slice())),
        id,
        rng: SmallRng::seed_from_u64(seed),
        jitter_seed: seed ^ 0xfe7c,
        start,
        injector,
        tele,
        actions: Vec::new(),
        later: VecDeque::new(),
        inbox: None,
        retry: None,
        restart_at: None,
        image: None,
        scores: Vec::new(),
    };
    let beat = SimDuration::from_micros(hb_interval.as_micros() as u64);
    let mut next_beat = wall_now(&start) + beat;
    loop {
        let now = wall_now(&start);
        // Heartbeats go out only while the node holds no batch: a trim's
        // direct reset requeues what the node was assigned, so it must
        // never find work the node is still scoring. A crashed agent's
        // timer is dead.
        let beat_at =
            (node.restart_at.is_none() && node.core.held().is_none()).then_some(next_beat);
        let retry_at = node.retry.map(|(at, ..)| at);
        let due = |at: Option<SimTime>| at.is_some_and(|at| now >= at);
        let (beat_due, retry_due, restart_due) =
            (due(beat_at), due(retry_at), due(node.restart_at));
        let msg = if let Some(msg) = node.inbox.take() {
            Ok(msg)
        } else if beat_due || retry_due || restart_due || !node.later.is_empty() {
            link.try_recv().ok_or(RecvTimeoutError::Timeout)
        } else {
            let timers = [beat_at, retry_at, node.restart_at].into_iter().flatten();
            let deadline = timers.min().unwrap_or(now + beat);
            link.recv(Duration::from_micros(deadline.since(now).as_micros()))
        };
        let input = match msg {
            Ok(BusMsg::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
            Ok(BusMsg::Control(LiveBroadcast { signed, mut image })) => {
                node.run(link, NodeInput::Control(&signed, HOST), now, &mut image);
                continue;
            }
            Err(_) if restart_due => {
                (node.restart_at, next_beat) = (None, now + beat);
                NodeInput::Restart
            }
            Err(_) if beat_due => {
                next_beat = now + beat;
                // Fault hook: the PNA software crashes at its own timer;
                // its timers die with it, and it reboots after `downtime`
                // (or sooner, relaunched by the next carousel read).
                if let Some(downtime) = node.injector.pna_crash(id, now) {
                    (node.restart_at, node.retry, node.image) = (Some(now + downtime), None, None);
                    NodeInput::Crash
                } else {
                    node.run(link, NodeInput::HeartbeatTimer, now, &mut None);
                    // A drained node's kick is its heartbeat tick.
                    if !node.core.drained() {
                        continue;
                    }
                    NodeInput::Kick
                }
            }
            Err(_) => match node.later.pop_front() {
                Some(input) => input,
                None => match node.retry.take_if(|_| retry_due) {
                    Some((_, timer)) => NodeInput::RetryDue(timer),
                    None => continue,
                },
            },
        };
        node.run(link, input, now, &mut None);
    }
}

impl LiveNode {
    /// Feeds `input` to the core at `now` and runs the actions it causes.
    /// `image` is what came with a control message.
    fn run(
        &mut self,
        link: &mut NodeLink,
        input: NodeInput<'_, LiveTask>,
        now: SimTime,
        image: &mut Option<WakeupImage>,
    ) {
        let mut actions = std::mem::take(&mut self.actions);
        self.feed(link, input, now, image, &mut actions);
        self.actions = actions;
    }

    /// Feeds one input and runs its actions in order; an action's reply
    /// is fed before the next action runs, as the sim feeds a failed
    /// transfer's. The last action's reply is fed by this loop, not one
    /// level deeper, so a batch's tasks do not stack frames.
    fn feed(
        &mut self,
        link: &mut NodeLink,
        mut input: NodeInput<'_, LiveTask>,
        mut now: SimTime,
        image: &mut Option<WakeupImage>,
        actions: &mut Vec<NodeAction>,
    ) {
        loop {
            let start = actions.len();
            let mut env = NodeEnv {
                now,
                rng: &mut self.rng,
                backoff: &Backoff::live(),
                jitter_seed: self.jitter_seed,
                memo: None,
            };
            self.core.handle(input, &mut env, actions);
            let (mut next, mut tail) = (start, None);
            while let Some(&action) = actions.get(next) {
                next += 1;
                match self.act(link, action, now, image) {
                    Some(reply) if next == actions.len() => tail = Some(reply),
                    Some(reply) => {
                        let now = wall_now(&self.start);
                        self.feed(link, reply, now, image, actions);
                    }
                    None => {}
                }
            }
            actions.truncate(start);
            let Some(reply) = tail else {
                return;
            };
            (input, now) = (reply, wall_now(&self.start));
        }
    }

    /// Runs one action through the link; returns the reply to feed at
    /// once, and queues in `later` what waits a turn.
    fn act(
        &mut self,
        link: &mut NodeLink,
        action: NodeAction,
        now: SimTime,
        image: &mut Option<WakeupImage>,
    ) -> Option<NodeInput<'static, LiveTask>> {
        let (id, us) = (self.id, now.as_micros());
        // Fault hook: a partition or a direct-channel loss episode eats a
        // request on the wire; a reply timeout looks the same.
        let lost = || self.injector.partitioned(id, now) || self.injector.direct_dropped(id, now);
        match action {
            NodeAction::Heartbeat(hb) => {
                if self.injector.partitioned(id, now) || self.injector.heartbeat_dropped(id, now) {
                    return None;
                }
                // A beat nobody answered is lost, like one the network ate.
                let Ok(Some(reply)) = link.heartbeat(hb) else {
                    return None;
                };
                let reset = match reply {
                    HeartbeatReply::Reset(instance) => Some(instance),
                    HeartbeatReply::Ack => None,
                };
                let (us, scope) = (
                    wall_now(&self.start).as_micros(),
                    u64::from(reset.is_some()),
                );
                self.tele.instant(us, Phase::Heartbeat, id.raw(), scope);
                reset.map(NodeInput::DirectReset)
            }
            NodeAction::BeginImage(instance) => {
                self.tele
                    .instant(us, Phase::PnaAccept, id.raw(), instance.raw());
                // A wakeup without an image (a race with its reset), or
                // with one that does not decode to a valid recipe, is
                // declined; the next carousel pass retries.
                let Some(recipe) = image.take().and_then(WakeupImage::into_recipe) else {
                    return Some(NodeInput::DirectReset(instance));
                };
                // Real work: regenerate and index the database — the live
                // plane's DVE boot.
                let db = recipe.materialize();
                self.image = Some((recipe, db));
                self.later.push_back(NodeInput::ImageReady(instance));
                None
            }
            NodeAction::Left(..) => {
                // The timer dies with the DVE (the core drops it as stale).
                (self.retry, self.image) = (None, None);
                self.scores.clear();
                None
            }
            NodeAction::Orphan(_) | NodeAction::GaveUp => {
                self.scores.clear();
                None
            }
            NodeAction::Span(phase, begin, arg) => {
                self.tele.span(begin.as_micros(), us, phase, id.raw(), arg);
                None
            }
            NodeAction::Fetch(attempt) => {
                // A reset applied by an earlier action's reply asks nobody.
                let instance = self.core.instance()?;
                let reply = if lost() {
                    None
                } else {
                    link.fetch_tasks(instance, id)
                };
                Some(match reply {
                    Some(TaskBatchReply::Assigned { job, tasks }) => {
                        self.scores.reserve(tasks.len());
                        NodeInput::Fetched(attempt, job, tasks)
                    }
                    Some(TaskBatchReply::Drained) => NodeInput::Drained,
                    None => NodeInput::FetchLost(attempt),
                })
            }
            // The inputs came with the batch.
            NodeAction::Download(_) => Some(NodeInput::InputsReady),
            NodeAction::Compute(index) => {
                let held = self.core.held().and_then(|(_, tasks)| tasks.get(index));
                if let (Some((task, query)), Some((recipe, db))) = (held, &self.image) {
                    let score = recipe.score(db, query);
                    let took = wall_now(&self.start).since(now);
                    self.tele.duration(took.as_secs_f64(), Phase::Kernel);
                    self.scores.push((task.id, score));
                }
                // Between tasks the link is heard: what it holds goes first.
                match link.try_recv() {
                    None => Some(NodeInput::Computed),
                    Some(msg) => {
                        self.inbox = Some(msg);
                        self.later.push_back(NodeInput::Computed);
                        None
                    }
                }
            }
            NodeAction::Upload(attempt) => match self.core.held() {
                Some((job, _)) if !lost() => {
                    link.send_results(job, id, std::mem::take(&mut self.scores));
                    Some(NodeInput::Uploaded)
                }
                _ => Some(NodeInput::UploadLost(attempt)),
            },
            // A live node cannot know whether the job has work left: its
            // next fetch asks.
            NodeAction::Delivered(..) => {
                self.later.push_back(NodeInput::Next);
                None
            }
            NodeAction::Retry(at, timer) => {
                self.tele
                    .instant(us, Phase::Retry, id.raw(), u64::from(timer.failed));
                self.retry = Some((at, timer));
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{run_wire_pna, WirePnaConfig};
    use oddci_types::SimDuration;

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

    /// A snapshot whose CRC holds but whose tables disagree, or name a
    /// node id its namespace never issued, is refused by the table it
    /// breaks, instead of panicking the first fetch that indexes past them
    /// or sizing the registry for that id; the same snapshot, untouched,
    /// still adopts.
    #[test]
    fn standby_refuses_an_inconsistent_snapshot() {
        let primary = LiveOddci::start(LiveConfig {
            nodes: 2,
            ..Default::default()
        });
        primary
            .run_alignment_job(AlignmentImage::small_demo(), 4, 2, Duration::from_secs(30))
            .expect("job completes");
        let snap = primary.snapshot_now();
        primary.shutdown();
        let job = snap.instance_job[0].1;

        let mut unqueried = snap.clone();
        unqueried.job_queries.retain(|&(j, _)| j != job);
        let mut short = snap.clone();
        for (_, queries) in &mut short.job_queries {
            queries.pop();
        }
        let mut past_end = snap.clone();
        past_end.backend.jobs[0].pending.push(TaskId::new(4));
        let mut assigned_past_end = snap.clone();
        assigned_past_end.backend.jobs[0]
            .assigned
            .push((TaskId::new(9), NodeId::new(0)));
        // Ids no namespace issued: past the two node threads, or past a
        // socket headend's wire sequence.
        let beating = |node| {
            let mut bad = snap.clone();
            let mut beat = bad.shards[0].registry[0].clone();
            beat.node = NodeId::new(node);
            bad.shards[0].registry.push(beat);
            bad
        };
        let unissued = beating(2);
        let mut unissued_member = snap.clone();
        unissued_member.shards[0].instances[0]
            .members
            .push(NodeId::new(u64::MAX));
        let mut past_wire = beating(1);
        (past_wire.wire_next_node, past_wire.wire_nodes) = (1, vec![0]);

        let config = || LiveConfig {
            nodes: 2,
            mode: HeadendMode::Socket {
                listen: "127.0.0.1:0".parse().expect("addr"),
                shards: 1,
                dispatch: 1,
                batch: 1,
            },
            ..Default::default()
        };
        for (bad, table) in [
            (unqueried, "job_queries"),
            (short, "job_queries"),
            (past_end, "backend"),
            (assigned_past_end, "backend"),
            (unissued, "registry"),
            (unissued_member, "instances"),
            (past_wire, "registry"),
        ] {
            let refused = LiveOddci::start_standby(config(), &bad).err();
            assert!(
                refused.as_deref().is_some_and(|e| e.contains(table)),
                "{table}: {refused:?}"
            );
        }
        let standby = LiveOddci::start_standby(config(), &snap).expect("the untouched one adopts");
        assert_eq!(standby.shutdown().tasks_unaccounted, 0);
    }

    /// The full failover story, in-process: a socket headend cuts a
    /// snapshot of a submitted job, three reconnecting PNAs start on it,
    /// and once a result has landed the headend dies the way SIGKILL
    /// would. A standby adopts the snapshot, which is older than the
    /// progress, on the same port. The job must complete on the standby
    /// with every task accounted for and every PNA fenced up to the new
    /// epoch.
    #[test]
    fn standby_adopts_a_killed_socket_headend_mid_job() {
        let dir = std::env::temp_dir().join(format!(
            "oddci-failover-test-{}-{:x}",
            std::process::id(),
            std::ptr::from_ref(&()) as usize
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("snapshot dir");
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
        // The primary's cut is taken by hand below, at a known point of
        // the job, so no periodic writer races it for the file.
        let primary = LiveOddci::start(LiveConfig {
            snapshot_dir: None,
            ..mk_config("127.0.0.1:0".parse().expect("addr"))
        });
        let addr = primary.wire_addr().expect("socket headends listen");

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

        // Cut the snapshot before any PNA dials in, through the file the
        // periodic writer would use, so the job is in flight in it
        // whatever the build's speed — adopting a finished job would make
        // the running_jobs assertion below vacuous.
        let snap_path = dir.join(crate::snapshot::SNAPSHOT_FILE);
        crate::snapshot::write_file(&snap_path, &primary.snapshot_now()).expect("write snapshot");
        let snap = crate::snapshot::read_file(&snap_path).expect("read snapshot");
        let mid_job = !snap.job_queries.is_empty()
            && snap.provider.requests.iter().any(|r| {
                r.request == req && matches!(r.state, oddci_core::provider::RequestState::Running)
            });
        assert!(mid_job, "the snapshot caught the job in flight");

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

        // Pull the plug once the primary holds a result, so the standby
        // adopts a cut older than the progress. A job that finished first
        // counts too: the standby re-runs it from the same cut.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let scored = primary
                .snapshot_now()
                .job_scores
                .iter()
                .any(|(_, scores)| !scores.is_empty());
            if scored || !primary.running_jobs().contains(&req) {
                break;
            }
            assert!(Instant::now() < deadline, "no result landed on the primary");
            std::thread::sleep(Duration::from_millis(5));
        }
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

        // Two PNAs can finish the job before the third has redialed:
        // shut down once the standby has acked all three. None was in
        // the cut, so each holds an id the standby issued.
        let deadline = Instant::now() + Duration::from_secs(10);
        while standby.snapshot_now().wire_nodes.len() < snap.wire_nodes.len() + 3 {
            assert!(
                Instant::now() < deadline,
                "a PNA never redialed the standby"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = standby.shutdown();
        assert_eq!(report.tasks_unaccounted, 0, "no task lost across failover");
        assert_eq!(report.threads_failed, 0);
        let mut nodes = Vec::new();
        for h in pnas {
            let rep = h
                .join()
                .expect("pna thread joins")
                .expect("pna survives the failover");
            assert_eq!(rep.epoch, 1, "every PNA re-acked at the standby's epoch");
            nodes.push(rep.node);
        }
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), 3, "no two PNAs share an id on the standby");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A PNA that joined after the snapshot a standby adopts redials with
    /// an id that snapshot never saw issued, and the standby acks it under
    /// a fresh one. The PNA then speaks, and is served, under the fresh
    /// id; a PNA joining later gets another, and no two share one.
    #[test]
    fn a_pna_resumed_under_a_fresh_id_is_served_under_it() {
        let config = |listen| LiveConfig {
            nodes: 2,
            heartbeat_interval: Duration::from_millis(40),
            controller_tick: Duration::from_millis(40),
            mode: HeadendMode::Socket {
                listen,
                shards: 1,
                dispatch: 1,
                batch: 4,
            },
            ..Default::default()
        };
        let primary = LiveOddci::start(config("127.0.0.1:0".parse().expect("addr")));
        let addr = primary.wire_addr().expect("socket headends listen");
        let pna = move |seed, reconnect| {
            std::thread::spawn(move || {
                let mut cfg = WirePnaConfig::new(addr);
                cfg.seed = seed;
                cfg.heartbeat_interval = Duration::from_millis(40);
                cfg.reconnect = reconnect;
                run_wire_pna(cfg)
            })
        };
        let resumed = pna(800, Some(Duration::from_secs(30)));
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut snap = loop {
            let snap = primary.snapshot_now();
            if !snap.shards[0].registry.is_empty() {
                break snap;
            }
            assert!(Instant::now() < deadline, "the PNA never heartbeated");
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(snap.wire_nodes, [0], "the PNA joined as 0");
        // The namespace the standby adopts issued 1..5 but not 0: a cut
        // that missed the join, taken after other PNAs came and went.
        (snap.wire_next_node, snap.wire_nodes) = (5, (1..5).collect());
        primary.crash();

        let standby = LiveOddci::start_standby(config(addr), &snap).expect("standby adopts");
        // Heartbeats the standby consolidated under `id`, within 10 s.
        let served = |id: NodeId| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !standby.snapshot_now().shards[0]
                .registry
                .iter()
                .any(|e| e.node == id)
            {
                assert!(Instant::now() < deadline, "{id} unserved");
                std::thread::sleep(Duration::from_millis(10));
            }
        };
        let ids = [5, 6].map(NodeId::new);
        served(ids[0]);
        let fresh = pna(801, None);
        served(ids[1]);
        let queries = (0..16).map(|i| Arc::new(random_sequence(16, i))).collect();
        let image = AlignmentImage {
            db_len: 2000,
            ..AlignmentImage::small_demo()
        };
        let req = standby.submit_query_job(image, queries, 2).expect("submit");
        standby
            .wait_job(req, Duration::from_secs(60))
            .expect("job completes on the standby");
        assert_eq!(standby.shutdown().tasks_unaccounted, 0);
        let resumed = resumed
            .join()
            .expect("joins")
            .expect("survives the failover");
        let fresh = fresh.join().expect("joins").expect("runs to shutdown");
        assert_eq!((resumed.node, resumed.epoch), (ids[0], 1));
        assert_eq!(fresh.node, ids[1], "the standby never reissues 5");
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
        // The wire namespace issued them, to PNAs that never come back.
        (snap.wire_next_node, snap.wire_nodes) = (1004, (1000..1004).collect());

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
