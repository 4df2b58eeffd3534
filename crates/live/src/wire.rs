//! Socket transport glue: the live plane over real TCP.
//!
//! Two halves live here, one per side of the wire:
//!
//! * `LiveWireService` — the headend side. It plugs into
//!   [`oddci_wire::WireServer`]'s serving loop, serves heartbeats, task
//!   fetches and results itself by calling into the `Headend` (a reply
//!   goes into the outbox in the same turn), and forwards carousel
//!   broadcasts to every connection (streaming the materialized database
//!   inside the wakeup).
//! * [`run_wire_pna`] — the PNA side. It dials the headend, performs the
//!   hello handshake to learn its node identity, and then runs the
//!   *identical* `node_main` loop every in-process node runs — the
//!   only difference is that its `NodeLink` is a `RemoteLink`
//!   writing framed messages to a socket instead of a channel.
//!
//! Request/reply pairs (heartbeats, task fetches) ride a correlation id.
//! On the PNA side the node thread sends the request and reads the
//! client's inbound channel itself until the reply with its id comes
//! back: broadcasts read meanwhile are queued for the node's next read,
//! a reply to an older request is dropped, and a `Shutdown` or a lost
//! connection ends the wait at once. On the headend side nothing waits
//! either: a heartbeat or a task fetch is answered on the serving thread
//! before it reads its next message.

use crate::bus::BroadcastBus;
use crate::headend::Headend;
use crate::image::{AlignmentImage, LiveBroadcast, WakeupImage};
use crate::runtime::{node_main, Abandoned, BusMsg, NodeLink, TaskBatchReply};
use oddci_check::sync::{Mutex, Receiver, RecvTimeoutError};
use oddci_core::messages::{Heartbeat, HeartbeatReply};
use oddci_faults::{FaultInjector, FaultPlan};
use oddci_telemetry::{Phase, Telemetry};
use oddci_types::{InstanceId, JobId, NodeId, TaskId};
use oddci_wire::codec::{Reader, Writer};
use oddci_wire::{
    ClientConfig, ConnId, ConnStatsHub, Integrity, Outbox, Waker, WireBatch, WireClient, WireError,
    WireMsg, WireService, WireStatsSnapshot, PROTO_VERSION,
};
use oddci_workload::alignment::{random_sequence, Scoring};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::SocketAddr;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How long a PNA waits for its `HelloAck` after connecting.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);
/// Databases the headend keeps encoded for re-broadcast (the carousel
/// repeats wakeups, so the common case is one hot entry).
const MAX_DB_CACHE: usize = 8;

// ---------------------------------------------------------------------
// Image wire form
// ---------------------------------------------------------------------

/// Encodes an image recipe plus its materialized database bytes for the
/// wakeup broadcast. The database rides along so a remote PNA boots from
/// the streamed copy instead of regenerating from the seed — this is the
/// payload that exercises multi-chunk framing.
pub(crate) fn encode_image(image: &AlignmentImage, db: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(64 + db.len());
    w.u64(image.db_seed);
    w.u64(image.db_len as u64);
    w.u64(image.k as u64);
    w.i32(image.scoring.matched);
    w.i32(image.scoring.mismatch);
    w.i32(image.scoring.gap);
    w.u64(image.window as u64);
    w.i32(image.min_score);
    w.bytes(db);
    w.into_bytes()
}

/// Decodes the wire form back into a recipe whose `prefetched` field
/// carries the streamed database, and validates it: the image bytes are
/// covered by frame integrity only, not by the signed control message, so
/// nothing in them is trusted to be what a headend would have sent.
///
/// Takes the buffer by value and keeps it: the database is the buffer's
/// tail, moved to the front in place instead of copied out.
pub(crate) fn decode_image(mut bytes: Vec<u8>) -> Result<AlignmentImage, WireError> {
    // A value no `usize` holds saturates; as `db_len` or `k` it then
    // fails validation below.
    let size = |v: u64| usize::try_from(v).unwrap_or(usize::MAX);
    let mut r = Reader::new(&bytes);
    let db_seed = r.u64()?;
    let db_len = size(r.u64()?);
    let k = size(r.u64()?);
    let scoring = Scoring {
        matched: r.i32()?,
        mismatch: r.i32()?,
        gap: r.i32()?,
    };
    let window = size(r.u64()?);
    let min_score = r.i32()?;
    let shipped = r.bytes()?.len();
    r.finish()?;
    bytes.drain(..bytes.len() - shipped);
    let image = AlignmentImage {
        db_seed,
        db_len,
        k,
        scoring,
        window,
        min_score,
        prefetched: Some(Arc::new(bytes)),
    };
    image.validate().map_err(WireError::Protocol)?;
    Ok(image)
}

// ---------------------------------------------------------------------
// Headend side: the wire service
// ---------------------------------------------------------------------

/// The wire plane's node-id namespace, shared between the serving loop
/// (which assigns ids on hello) and the snapshot writer (which must
/// capture them so a standby never reassigns a live node's identity).
///
/// A standby seeds this from the snapshot: `next_node` continues the
/// primary's sequence and the adopted ids validate `resume` requests — a
/// reconnecting PNA keeps the id it already heartbeats under.
///
/// A PNA that joined the dead primary after the cut claims an id the
/// snapshot never saw, which this headend may since have issued afresh
/// to another PNA. Its hello carries the highest epoch it has seen,
/// which is below this headend's, so a resume of an id issued here is
/// honored only from a PNA that has seen this headend's epoch.
pub(crate) struct WireMembership {
    /// Next fresh node id.
    next_node: u64,
    /// Ids the adopted snapshot records as issued.
    adopted: BTreeSet<u64>,
    /// Ids this headend issued.
    issued: BTreeSet<u64>,
}

impl WireMembership {
    /// An empty namespace (a fresh primary).
    pub(crate) fn new() -> WireMembership {
        WireMembership::adopted(0, &[])
    }

    /// A namespace adopted from a snapshot.
    pub(crate) fn adopted(next_node: u64, nodes: &[u64]) -> WireMembership {
        WireMembership {
            next_node,
            adopted: nodes.iter().copied().collect(),
            issued: BTreeSet::new(),
        }
    }

    /// The id a hello is acked with at `epoch`: the one it resumes if
    /// that id is the PNA's own here — adopted, or issued by this
    /// headend to a PNA that has seen `epoch` — else a fresh one.
    pub(crate) fn admit(&mut self, resume: Option<NodeId>, seen: u64, epoch: u64) -> NodeId {
        match resume {
            Some(node)
                if self.adopted.contains(&node.raw())
                    || (seen >= epoch && self.issued.contains(&node.raw())) =>
            {
                node
            }
            _ => {
                let id = self.next_node;
                self.next_node += 1;
                self.issued.insert(id);
                NodeId::new(id)
            }
        }
    }

    /// Snapshot form: `(next_node, every id issued)`.
    pub(crate) fn export(&self) -> (u64, Vec<u64>) {
        let ids: BTreeSet<u64> = self.adopted.union(&self.issued).copied().collect();
        (self.next_node, ids.into_iter().collect())
    }
}

/// The headend's [`WireService`]: serves heartbeats and task traffic by
/// calling into the [`Headend`] on the serving thread, and turns carousel
/// broadcasts into wire frames.
///
/// It runs single-threaded inside the serving loop, so it holds plain
/// collections — the only synchronization is the headend's own locks,
/// the bus channel, and the serving loop's [`Waker`], which the bus
/// fires after publishing from whatever thread aired the broadcast.
pub(crate) struct LiveWireService {
    headend: Arc<Headend>,
    batch: usize,
    bus_rx: Receiver<BusMsg>,
    tele: Telemetry,
    conn_stats: Arc<ConnStatsHub>,
    start: Instant,
    /// The node each connection's `HelloAck` named: the only node it may
    /// heartbeat, fetch or upload for.
    conn_nodes: BTreeMap<ConnId, NodeId>,
    /// This headend's fencing epoch, echoed in every `HelloAck`. A PNA
    /// that has seen a higher epoch refuses the ack, so a revenant
    /// primary can never reclaim a fleet a standby has adopted.
    epoch: u64,
    membership: Arc<Mutex<WireMembership>>,
    /// Filled by [`attach`](WireService::attach); shared with the bus
    /// subscription, which exists before the serving loop does.
    waker: Arc<OnceLock<Waker>>,
    db_cache: BTreeMap<(u64, u64), Arc<Vec<u8>>>,
}

impl LiveWireService {
    /// Builds the service in front of `headend` and subscribes it to
    /// `bus`.
    pub(crate) fn new(
        headend: Arc<Headend>,
        batch: usize,
        bus: &BroadcastBus<BusMsg>,
        tele: Telemetry,
        conn_stats: Arc<ConnStatsHub>,
        epoch: u64,
        membership: Arc<Mutex<WireMembership>>,
    ) -> LiveWireService {
        let waker: Arc<OnceLock<Waker>> = Arc::new(OnceLock::new());
        // A publish before the loop attaches finds no waker; the loop's
        // first turn, which never waits, drains it.
        let bus_rx = bus.subscribe_with({
            let waker = Arc::clone(&waker);
            move || {
                if let Some(waker) = waker.get() {
                    waker.wake();
                }
            }
        });
        LiveWireService {
            headend,
            batch,
            bus_rx,
            tele,
            conn_stats,
            start: Instant::now(),
            conn_nodes: BTreeMap::new(),
            epoch,
            membership,
            waker,
            db_cache: BTreeMap::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// The encoded wakeup payload for `image`, with the materialized
    /// database cached across the carousel's re-broadcasts.
    fn encoded_image(&mut self, image: &AlignmentImage) -> Vec<u8> {
        let key = (image.db_seed, image.db_len as u64);
        let db = match self.db_cache.get(&key) {
            Some(db) => Arc::clone(db),
            None => {
                let db = match &image.prefetched {
                    Some(bytes) => Arc::clone(bytes),
                    None => Arc::new(random_sequence(image.db_len, image.db_seed)),
                };
                while self.db_cache.len() >= MAX_DB_CACHE {
                    self.db_cache.pop_first();
                }
                self.db_cache.insert(key, Arc::clone(&db));
                db
            }
        };
        encode_image(image, &db)
    }
}

impl WireService for LiveWireService {
    fn attach(&mut self, waker: Waker) {
        let _ = self.waker.set(waker);
    }

    fn on_message(&mut self, conn: ConnId, msg: WireMsg, out: &mut Outbox) {
        match msg {
            WireMsg::Hello {
                proto,
                epoch: seen,
                resume,
            } => {
                // A version we don't speak gets no ack — the client's
                // handshake timeout turns that into a clean error. The
                // client's claimed epoch only tells whose id it resumes
                // (`WireMembership::admit`): fencing is enforced on the
                // PNA side, which refuses any ack whose epoch is below
                // the highest it has seen.
                if proto != PROTO_VERSION {
                    return;
                }
                let node = match self.conn_nodes.get(&conn) {
                    Some(node) => *node,
                    None => {
                        let node = self.membership.lock().admit(resume, seen, self.epoch);
                        self.conn_nodes.insert(conn, node);
                        self.tele.instant(
                            self.now_us(),
                            Phase::WireConnect,
                            node.raw(),
                            conn.raw(),
                        );
                        node
                    }
                };
                out.send(
                    conn,
                    WireMsg::HelloAck {
                        node,
                        epoch: self.epoch,
                    },
                );
            }
            // A connection speaks only for the node its `HelloAck` named:
            // traffic before the hello, or in another node's name, gets no
            // reply and reaches no ledger.
            WireMsg::Heartbeat {
                hb: Heartbeat { node, .. },
                ..
            }
            | WireMsg::TaskRequest { node, .. }
            | WireMsg::Results { node, .. }
                if self.conn_nodes.get(&conn) != Some(&node) => {}
            WireMsg::Heartbeat { corr, hb } => {
                let reply = self.headend.heartbeat(hb);
                out.send(conn, WireMsg::HeartbeatReply { corr, reply });
            }
            // Answered in this turn; a stalled Backend answers nothing and
            // the PNA's reply timeout takes over.
            WireMsg::TaskRequest {
                corr,
                instance,
                node,
            } => {
                if let Some(reply) = self.headend.fetch(instance, node, self.batch) {
                    let batch = to_wire_batch(reply);
                    out.send(conn, WireMsg::TaskBatch { corr, batch });
                }
            }
            WireMsg::Results { job, node, results } => self.headend.results(job, node, results),
            // Answered without a handshake: a monitoring client (`oddci
            // top`) must not consume a node identity just to look.
            WireMsg::StatsQuery { corr } => {
                out.send(
                    conn,
                    WireMsg::StatsReply {
                        corr,
                        registry: self.tele.metrics_snapshot(),
                        connections: self.conn_stats.snapshot(),
                    },
                );
            }
            // Server-to-client vocabulary arriving at the server: noise.
            WireMsg::HelloAck { .. }
            | WireMsg::HeartbeatReply { .. }
            | WireMsg::TaskBatch { .. }
            | WireMsg::Broadcast { .. }
            | WireMsg::StatsReply { .. }
            | WireMsg::Shutdown => {}
        }
    }

    fn on_disconnect(&mut self, conn: ConnId, _out: &mut Outbox) {
        self.conn_nodes.remove(&conn);
    }

    fn poll(&mut self, out: &mut Outbox) {
        while let Ok(msg) = self.bus_rx.try_recv() {
            match msg {
                BusMsg::Control(b) => {
                    let image = b.image.map(|image| match image {
                        WakeupImage::Recipe(recipe) => self.encoded_image(&recipe),
                        WakeupImage::Encoded(bytes) => bytes,
                    });
                    out.broadcast(WireMsg::Broadcast {
                        signed: b.signed,
                        image,
                    });
                }
                BusMsg::Shutdown => {
                    out.broadcast(WireMsg::Shutdown);
                    out.request_stop();
                }
            }
        }
    }
}

fn to_wire_batch(reply: TaskBatchReply) -> WireBatch {
    match reply {
        TaskBatchReply::Drained => WireBatch::Drained,
        TaskBatchReply::Assigned { job, tasks } => WireBatch::Assigned {
            job,
            tasks: tasks
                .into_iter()
                .map(|(task, query)| (task, query.as_ref().clone()))
                .collect(),
        },
    }
}

fn from_wire_batch(batch: WireBatch) -> TaskBatchReply {
    match batch {
        WireBatch::Drained => TaskBatchReply::Drained,
        WireBatch::Assigned { job, tasks } => TaskBatchReply::Assigned {
            job,
            tasks: tasks
                .into_iter()
                .map(|(task, query)| (task, Arc::new(query)))
                .collect(),
        },
    }
}

// ---------------------------------------------------------------------
// PNA side: the remote link and the process entry point
// ---------------------------------------------------------------------

/// A `NodeLink` backed by one TCP connection, owned and read by the node
/// thread alone: a request waits for its reply on the channel the
/// `WireClient` reader feeds, and what the node must hear meanwhile waits
/// in `queued` for its next read.
pub(crate) struct RemoteLink {
    client: WireClient,
    /// Broadcasts and the end of the plane read while a request waited
    /// (or during a handshake), oldest first.
    queued: VecDeque<BusMsg>,
    next_corr: u64,
    /// The node this link speaks for: the id its latest `HelloAck` named.
    /// A standby may ack a redial under a fresh id (one the snapshot it
    /// adopted never saw issued); every heartbeat, task request and
    /// upload then goes out under that id, and the next redial resumes it.
    node: NodeId,
    /// Highest epoch any `HelloAck` has carried. A redial refuses acks
    /// below it — the fencing rule that keeps a revenant primary from
    /// reclaiming the node.
    epoch: u64,
    /// Where and how to redial, and for how long.
    config: WirePnaConfig,
}

impl RemoteLink {
    /// Dials the headend and performs the hello handshake.
    fn connect(config: WirePnaConfig) -> Result<RemoteLink, WireError> {
        let client = WireClient::connect(config.addr, client_config(&config))?;
        let (node, epoch, queued) = hello_handshake(&client, 0, None)?;
        Ok(RemoteLink {
            client,
            queued,
            next_corr: 0,
            node,
            epoch,
            config,
        })
    }

    /// The next control message within `timeout`, queued ones first. A
    /// dead connection is redialed here, on the node's thread, when
    /// [`WirePnaConfig::reconnect`] is set; without it, or once an outage
    /// outlives the window, it reads as `Shutdown`.
    pub(crate) fn recv(&mut self, timeout: Duration) -> Result<BusMsg, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(msg) = self.queued.pop_front() {
                return Ok(msg);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            match self.client.receiver().recv_timeout(left) {
                Ok(msg) => {
                    queue(&mut self.queued, msg);
                }
                Err(RecvTimeoutError::Timeout) => return Err(RecvTimeoutError::Timeout),
                Err(RecvTimeoutError::Disconnected) => {
                    match redial(&self.config, self.node, self.epoch) {
                        Some((client, node, epoch, stashed)) => {
                            self.client = client;
                            self.node = node;
                            self.epoch = epoch;
                            self.queued.extend(stashed);
                        }
                        None => self.queued.push_back(BusMsg::Shutdown),
                    }
                }
            }
        }
    }

    /// Sends the request `ask(corr)` and reads the connection until the
    /// reply carrying `corr`: `Ok(None)` once `timeout` passes,
    /// `Err(Abandoned)` once a `Shutdown` or a dead connection ends the
    /// wait. A failed send is a message lost on the wire; the read then
    /// finds the dead connection.
    fn request(
        &mut self,
        ask: impl FnOnce(u64) -> WireMsg,
        timeout: Duration,
    ) -> Result<Option<WireMsg>, Abandoned> {
        let corr = self.next_corr;
        self.next_corr += 1;
        let _ = self.client.send(&ask(corr));
        let is_reply = |msg: &WireMsg| {
            matches!(msg, WireMsg::HeartbeatReply { corr: c, .. }
                | WireMsg::TaskBatch { corr: c, .. } if *c == corr)
        };
        let deadline = Instant::now() + timeout;
        match await_reply(&self.client, &mut self.queued, deadline, is_reply) {
            Ok(reply) => Ok(Some(reply)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(Abandoned),
        }
    }

    pub(crate) fn heartbeat(
        &mut self,
        hb: Heartbeat,
        timeout: Duration,
    ) -> Result<Option<HeartbeatReply>, Abandoned> {
        let hb = Heartbeat {
            node: self.node,
            ..hb
        };
        match self.request(|corr| WireMsg::Heartbeat { corr, hb }, timeout)? {
            Some(WireMsg::HeartbeatReply { reply, .. }) => Ok(Some(reply)),
            _ => Ok(None),
        }
    }

    /// `None` when nothing answered, for whatever reason: the caller's
    /// next read says whether the plane ended.
    pub(crate) fn fetch_tasks(
        &mut self,
        instance: InstanceId,
        timeout: Duration,
    ) -> Option<TaskBatchReply> {
        let node = self.node;
        let ask = |corr| WireMsg::TaskRequest {
            corr,
            instance,
            node,
        };
        match self.request(ask, timeout) {
            Ok(Some(WireMsg::TaskBatch { batch, .. })) => Some(from_wire_batch(batch)),
            _ => None,
        }
    }

    /// Uploads results, fire and forget: a lost upload leaves the tasks
    /// assigned, and the Backend recycles them at this node's next fetch.
    pub(crate) fn send_results(&self, job: JobId, results: Vec<(TaskId, i32)>) {
        let node = self.node;
        let _ = self.client.send(&WireMsg::Results { job, node, results });
    }
}

/// Queues what a node must hear — a broadcast, its image still encoded,
/// or the end of the plane — and says whether it was the end. Anything
/// else is a reply nobody waits for any more, or noise, and is dropped.
fn queue(queued: &mut VecDeque<BusMsg>, msg: WireMsg) -> bool {
    match msg {
        WireMsg::Broadcast { signed, image } => {
            let image = image.map(WakeupImage::Encoded);
            queued.push_back(BusMsg::Control(LiveBroadcast { signed, image }));
            false
        }
        WireMsg::Shutdown => {
            queued.push_back(BusMsg::Shutdown);
            true
        }
        _ => false,
    }
}

/// Reads `client` until `deadline` for the message `is_reply` picks out:
/// the read-and-stash loop of the hello handshake and of every request.
/// What the node must hear meanwhile joins `queued`, in order, and a
/// `Shutdown` ends the wait like a closed connection
/// (`Err(Disconnected)`): nothing is answered after it.
fn await_reply(
    client: &WireClient,
    queued: &mut VecDeque<BusMsg>,
    deadline: Instant,
    is_reply: impl Fn(&WireMsg) -> bool,
) -> Result<WireMsg, RecvTimeoutError> {
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        let msg = client.receiver().recv_timeout(left)?;
        if is_reply(&msg) {
            return Ok(msg);
        }
        if queue(queued, msg) {
            return Err(RecvTimeoutError::Disconnected);
        }
    }
}

/// Parameters for one PNA process (or thread) joining a socket headend.
#[derive(Debug, Clone)]
pub struct WirePnaConfig {
    /// The headend's listen address.
    pub addr: SocketAddr,
    /// Controller↔PNA shared key (must match the headend's).
    pub key: Vec<u8>,
    /// Heartbeat period.
    pub heartbeat_interval: Duration,
    /// Seed for this PNA's randomness (vary it per process).
    pub seed: u64,
    /// Faults to inject, protocol- and wire-level.
    pub faults: FaultPlan,
    /// Observability sink for this process.
    pub telemetry: Telemetry,
    /// How long to keep redialing the headend before giving up.
    pub connect_timeout: Duration,
    /// When set, a dead connection is not fatal: the PNA keeps redialing
    /// for this long (per outage), resuming its node identity at
    /// whatever headend answers — the standby-failover path. Each
    /// re-handshake enforces epoch fencing: an ack carrying a lower
    /// epoch than the highest seen is refused. `None` (the default)
    /// keeps the original behavior: disconnect means shutdown.
    pub reconnect: Option<Duration>,
}

impl WirePnaConfig {
    /// Defaults matching [`LiveConfig::default`](crate::LiveConfig).
    pub fn new(addr: SocketAddr) -> WirePnaConfig {
        WirePnaConfig {
            addr,
            key: b"live-oddci-key".to_vec(),
            heartbeat_interval: Duration::from_millis(150),
            seed: 42,
            faults: FaultPlan::none(),
            telemetry: Telemetry::disabled(),
            connect_timeout: Duration::from_secs(5),
            reconnect: None,
        }
    }
}

/// What a finished PNA reports back to its process wrapper.
#[derive(Debug, Clone)]
pub struct WirePnaReport {
    /// The node identity the last headend acked: the one it first
    /// joined under, or the fresh one a standby issued on a redial.
    pub node: NodeId,
    /// Final wire-transport counters for the connection.
    pub stats: WireStatsSnapshot,
    /// Highest fencing epoch any headend acked with (0 until a failover
    /// bumps it).
    pub epoch: u64,
}

/// Performs the hello handshake on a fresh connection: announces the
/// protocol version, the highest epoch seen so far and (on reconnect)
/// the node identity to resume, then waits for the ack.
///
/// The carousel broadcasts to every connection, so wakeups can land
/// before the ack — they come back in the returned stash for the node's
/// first reads. The hello itself is re-sent on a short timer: a single
/// mangled frame (fault injection, hostile networks) must not strand the
/// handshake, and a duplicate hello just gets the same ack again. An ack
/// whose epoch is *below* `min_epoch` is a fencing violation (a revenant
/// primary) and fails the handshake.
fn hello_handshake(
    client: &WireClient,
    min_epoch: u64,
    resume: Option<NodeId>,
) -> Result<(NodeId, u64, VecDeque<BusMsg>), WireError> {
    let hello = WireMsg::Hello {
        proto: PROTO_VERSION,
        epoch: min_epoch,
        resume,
    };
    let closed = || WireError::Protocol("connection closed during hello".into());
    if !client.send(&hello) {
        return Err(closed());
    }
    let mut stashed = VecDeque::new();
    let deadline = Instant::now() + HELLO_TIMEOUT;
    loop {
        let now = Instant::now();
        if now >= deadline {
            return Err(WireError::Timeout("no HelloAck from headend"));
        }
        let tick = deadline.min(now + Duration::from_millis(100));
        let is_ack = |msg: &WireMsg| matches!(msg, WireMsg::HelloAck { .. });
        match await_reply(client, &mut stashed, tick, is_ack) {
            Ok(WireMsg::HelloAck { node, epoch }) => {
                if epoch < min_epoch {
                    return Err(WireError::Protocol(format!(
                        "headend acked with stale epoch {epoch} (this node has seen {min_epoch})"
                    )));
                }
                return Ok((node, epoch, stashed));
            }
            _ if client.is_closed() => return Err(closed()),
            _ => {
                let _ = client.send(&hello);
            }
        }
    }
}

/// The connection settings of every dial one PNA makes.
fn client_config(config: &WirePnaConfig) -> ClientConfig {
    let mut ccfg = ClientConfig::new(Integrity::hmac(&config.key));
    ccfg.connect_timeout = config.connect_timeout;
    ccfg.telemetry = config.telemetry.clone();
    // Wire-level faults roll under a seed distinct from the protocol
    // injector's so the fault streams don't correlate.
    ccfg.injector = FaultInjector::new(config.faults.clone(), config.seed ^ 0x3D1E_C7A1);
    ccfg
}

/// Redials the headend until the [`WirePnaConfig::reconnect`] window
/// expires (at once without one), re-running the handshake with the
/// node's identity and epoch floor. Returns the new connection, the node
/// id it acked (the resumed one, or a fresh one from a headend that never
/// issued it), the (possibly higher) epoch it acked with and the
/// handshake's stash.
fn redial(
    config: &WirePnaConfig,
    node: NodeId,
    min_epoch: u64,
) -> Option<(WireClient, NodeId, u64, VecDeque<BusMsg>)> {
    let deadline = Instant::now() + config.reconnect?;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return None;
        }
        let mut cfg = client_config(config);
        cfg.connect_timeout = left.min(Duration::from_millis(500));
        match WireClient::connect(config.addr, cfg) {
            Ok(client) => match hello_handshake(&client, min_epoch, Some(node)) {
                Ok((node, epoch, stashed)) => return Some((client, node, epoch, stashed)),
                // Stale epoch or a connection that died mid-handshake:
                // drop it and keep dialing inside the window.
                Err(_) => std::thread::sleep(Duration::from_millis(50)),
            },
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Runs one PNA against a socket headend until the plane shuts down:
/// dial, handshake, then the standard `node_main` loop over a
/// `RemoteLink`, on the calling thread; the `WireClient` reader is the
/// only other thread. Blocks until the headend broadcasts `Shutdown` or
/// the connection dies — unless [`WirePnaConfig::reconnect`] is set, in
/// which case a dead connection triggers redial-and-resume (failover).
pub fn run_wire_pna(config: WirePnaConfig) -> Result<WirePnaReport, WireError> {
    let start = Instant::now();
    let injector = Arc::new(FaultInjector::new(
        config.faults.clone(),
        config.seed ^ 0xFA17_FA17,
    ));
    let link = RemoteLink::connect(config.clone())?;
    let node = link.node;
    let mut link = NodeLink::Remote(Box::new(link));
    let (key, hb, tele) = (config.key, config.heartbeat_interval, config.telemetry);
    node_main(node, key, &mut link, hb, config.seed, start, injector, tele);
    let NodeLink::Remote(mut link) = link else {
        unreachable!("the link was built remote")
    };
    // Joins the reader, so the counters include its exit.
    link.client.close();
    Ok(WirePnaReport {
        node: link.node,
        stats: link.client.stats().snapshot(),
        epoch: link.epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_resume_keeps_only_an_id_that_is_the_pnas_own() {
        let id = NodeId::new;
        // A standby at epoch 1 adopted ids 0 and 1, next fresh id 2.
        let mut m = WireMembership::adopted(2, &[0, 1]);
        // Adopted ids resume whatever epoch the PNA has seen.
        assert_eq!(m.admit(Some(id(1)), 0, 1), id(1));
        // Ids 2 and 3 joined the dead primary after the cut: both are
        // new here, and the first of them gets 2 afresh.
        assert_eq!(m.admit(Some(id(3)), 0, 1), id(2));
        // The PNA that held 2 at the primary must not share it.
        assert_eq!(m.admit(Some(id(2)), 0, 1), id(3));
        // A PNA acked here at epoch 1 keeps its id on a redial.
        assert_eq!(m.admit(Some(id(2)), 1, 1), id(2));
        assert_eq!(m.admit(None, 0, 1), id(4));
        assert_eq!(m.export(), (5, vec![0, 1, 2, 3, 4]));
        // On a primary every id is its own issue, resumed at epoch 0.
        let mut m = WireMembership::new();
        assert_eq!(m.admit(None, 0, 0), id(0));
        assert_eq!(m.admit(Some(id(0)), 0, 0), id(0));
        assert_eq!(m.admit(Some(id(7)), 0, 0), id(1));
    }

    #[test]
    fn image_round_trips_with_database_attached() {
        let img = AlignmentImage::small_demo();
        let db = random_sequence(img.db_len, img.db_seed);
        let back = decode_image(encode_image(&img, &db)).expect("decodes");
        assert_eq!(back.db_seed, img.db_seed);
        assert_eq!(back.k, img.k);
        assert_eq!(back.scoring, img.scoring);
        assert_eq!(back.min_score, img.min_score);
        assert_eq!(
            back.prefetched.as_deref().map(|b| b.as_slice()),
            Some(db.as_slice()),
            "the streamed database rides in `prefetched`"
        );
        // The decoded recipe materializes from the streamed bytes, so a
        // remote node and a local one index the identical database.
        assert_eq!(back.materialize().db(), img.materialize().db());
    }

    #[test]
    fn truncated_image_bytes_error_out() {
        let img = AlignmentImage::small_demo();
        let db = random_sequence(1000, 7);
        let mut bytes = encode_image(&img, &db);
        bytes.truncate(bytes.len() / 2);
        assert!(decode_image(bytes).is_err());
    }

    /// Recipes no node could index, each with a 1 000-base database
    /// attached: word lengths outside 4..=31, and a `db_len` that is not
    /// the shipped byte count.
    fn unindexable_images() -> Vec<Vec<u8>> {
        let db = random_sequence(1000, 7);
        let recipe = |k: usize, db_len: usize| AlignmentImage {
            k,
            db_len,
            ..AlignmentImage::small_demo()
        };
        [
            recipe(0, 1000),
            recipe(3, 1000),
            recipe(32, 1000),
            recipe(11, 999),
        ]
        .iter()
        .map(|image| encode_image(image, &db))
        .collect()
    }

    #[test]
    fn decode_refuses_a_recipe_no_node_could_index() {
        for bytes in unindexable_images() {
            assert!(matches!(decode_image(bytes), Err(WireError::Protocol(_))));
        }
    }

    fn hello_ack(conn: ConnId, out: &mut Outbox) {
        let node = NodeId::new(0);
        out.send(conn, WireMsg::HelloAck { node, epoch: 0 });
    }

    /// A headend that acks hellos and heartbeats, airs `wakeups` at the
    /// PNA's first heartbeat — after its reply, or before it when
    /// `before_reply`, so that they arrive while the PNA waits for the
    /// reply — and ends the plane when a task request shows the PNA
    /// booted an instance.
    struct AirWakeups {
        wakeups: Vec<WireMsg>,
        before_reply: bool,
        booted: oddci_check::sync::Sender<(InstanceId, Instant)>,
    }

    impl WireService for AirWakeups {
        fn on_message(&mut self, conn: ConnId, msg: WireMsg, out: &mut Outbox) {
            match msg {
                WireMsg::Hello { .. } => hello_ack(conn, out),
                WireMsg::Heartbeat { corr, .. } => {
                    let reply = HeartbeatReply::Ack;
                    let mut aired: Vec<_> = self.wakeups.drain(..).collect();
                    let at = if self.before_reply { aired.len() } else { 0 };
                    aired.insert(at, WireMsg::HeartbeatReply { corr, reply });
                    for msg in aired {
                        out.send(conn, msg);
                    }
                }
                WireMsg::TaskRequest { instance, .. } => {
                    let _ = self.booted.send((instance, Instant::now()));
                    out.broadcast(WireMsg::Shutdown);
                    out.request_stop();
                }
                _ => {}
            }
        }
    }

    /// Every bad recipe first, then a good one: the PNA must still be
    /// there to boot it, whether the wakeups come after a heartbeat reply
    /// or are read (and queued, in order) while the PNA waits for it. Its
    /// task request then meets the plane's end, which must end its wait
    /// at once.
    #[test]
    fn wakeup_with_an_unindexable_recipe_leaves_the_pna_alive() {
        use oddci_core::messages::{ControlMessage, SignedMessage, WakeupMessage};
        use oddci_types::{DataSize, ImageId, MessageId, Probability};

        let key = b"live-oddci-key";
        let auth = oddci_crypto::MessageAuthenticator::from_key(key);
        let wakeup = |n: u64, image: Vec<u8>| WireMsg::Broadcast {
            signed: SignedMessage::sign(
                ControlMessage::Wakeup(WakeupMessage {
                    id: MessageId::new(n),
                    instance: InstanceId::new(n),
                    image: ImageId::new(n),
                    image_size: DataSize::from_bytes(1000),
                    probability: Probability::ALWAYS,
                    requirements: Default::default(),
                }),
                &auth,
            ),
            image: Some(image),
        };
        let good = AlignmentImage {
            db_len: 1000,
            ..AlignmentImage::small_demo()
        };
        let mut images = unindexable_images();
        let bad = images.len() as u64;
        images.push(encode_image(&good, &random_sequence(1000, 7)));
        for before_reply in [false, true] {
            let wakeups = (0u64..).zip(images.clone()).map(|(n, i)| wakeup(n, i));
            let (booted, booted_rx) = oddci_check::sync::unbounded();
            let service = AirWakeups {
                wakeups: wakeups.collect(),
                before_reply,
                booted,
            };
            let scfg = oddci_wire::ServerConfig::new(Integrity::hmac(key));
            let mut server =
                oddci_wire::WireServer::bind("127.0.0.1:0".parse().expect("addr"), scfg, service)
                    .expect("bind");
            let mut cfg = WirePnaConfig::new(server.local_addr());
            cfg.heartbeat_interval = Duration::from_millis(20);
            cfg.telemetry = Telemetry::recording();
            let tele = cfg.telemetry.clone();
            let pna = std::thread::spawn(move || run_wire_pna(cfg));

            let (instance, asked) = booted_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("the PNA survived the bad wakeups and booted the good one");
            assert_eq!(
                instance,
                InstanceId::new(bad),
                "before_reply={before_reply}"
            );
            pna.join()
                .expect("the node thread did not panic")
                .expect("the PNA ran to shutdown");
            let took = asked.elapsed();
            assert!(
                took < Duration::from_millis(500),
                "exited {took:?} after the Shutdown"
            );
            assert!(server.stop());
            assert_eq!(
                tele.phase_events(Phase::PnaAccept),
                bad + 1,
                "every wakeup passed the signature and probability gates, in order"
            );
            assert_eq!(tele.phase_events(Phase::DveBoot), 1, "only one was booted");
        }
    }

    /// A headend that answers heartbeat `corr` only at the next one:
    /// with `Reset` under the old id, then a broadcast carrying bytes that
    /// are no image at all, then `Ack` under the new id.
    struct LateReplies;

    impl WireService for LateReplies {
        fn on_message(&mut self, conn: ConnId, msg: WireMsg, out: &mut Outbox) {
            use oddci_core::messages::{ControlMessage, ResetMessage, SignedMessage};
            let WireMsg::Heartbeat {
                corr: corr @ 1.., ..
            } = msg
            else {
                return hello_ack(conn, out);
            };
            let instance = InstanceId::new(1);
            let reply = HeartbeatReply::Reset(instance);
            out.send(
                conn,
                WireMsg::HeartbeatReply {
                    corr: corr - 1,
                    reply,
                },
            );
            let id = oddci_types::MessageId::new(1);
            let auth = oddci_crypto::MessageAuthenticator::from_key(b"k");
            let signed =
                SignedMessage::sign(ControlMessage::Reset(ResetMessage { id, instance }), &auth);
            out.send(
                conn,
                WireMsg::Broadcast {
                    signed,
                    image: Some(vec![0xAB; 100]),
                },
            );
            let reply = HeartbeatReply::Ack;
            out.send(conn, WireMsg::HeartbeatReply { corr, reply });
        }
    }

    #[test]
    fn a_request_takes_only_its_own_reply() {
        let key: &[u8] = b"live-oddci-key";
        let scfg = oddci_wire::ServerConfig::new(Integrity::hmac(key));
        let mut server =
            oddci_wire::WireServer::bind("127.0.0.1:0".parse().expect("addr"), scfg, LateReplies)
                .expect("bind");
        let mut link =
            RemoteLink::connect(WirePnaConfig::new(server.local_addr())).expect("connects");
        let hb =
            || oddci_core::pna::Pna::new(NodeId::new(0), key).heartbeat(oddci_types::SimTime::ZERO);
        let first = link.heartbeat(hb(), Duration::from_millis(50));
        assert!(matches!(first, Ok(None)), "the first beat times out");
        let second = link.heartbeat(hb(), Duration::from_secs(5));
        assert!(
            matches!(second, Ok(Some(HeartbeatReply::Ack))),
            "the first beat's late Reset is dropped, not taken for the second's reply"
        );
        // Read while the second beat waited, and handed on undecoded: were
        // the link to decode it, the image would be gone.
        match link.recv(Duration::ZERO) {
            Ok(BusMsg::Control(LiveBroadcast {
                image: Some(WakeupImage::Encoded(bytes)),
                ..
            })) => assert_eq!(bytes, vec![0xAB; 100]),
            other => panic!("expected the queued broadcast, got {other:?}"),
        }
        drop(link);
        assert!(server.stop());
    }

    /// A connection speaks only for the node its `HelloAck` named. A
    /// heartbeat, task request or upload sent before the hello, or in
    /// another node's name, gets no reply and reaches no ledger; the
    /// same connection speaking as itself is served.
    #[test]
    fn a_connection_speaks_only_for_its_acked_node() {
        use crate::{HeadendMode, LiveConfig, LiveOddci};
        let live = LiveOddci::start(LiveConfig {
            nodes: 2,
            mode: HeadendMode::Socket {
                listen: "127.0.0.1:0".parse().expect("addr"),
                shards: 1,
                dispatch: 1,
                batch: 4,
            },
            ..Default::default()
        });
        let queries = (0..8).map(|i| Arc::new(random_sequence(16, i))).collect();
        live.submit_query_job(AlignmentImage::small_demo(), queries, 1)
            .expect("submit");
        let (instance, job) = (InstanceId::new(0), JobId::new(0));
        let addr = live.wire_addr().expect("socket headends listen");
        let dial = || {
            let key = LiveConfig::default().key;
            WireClient::connect(addr, ClientConfig::new(Integrity::hmac(&key))).expect("dials")
        };
        let hello = |client: &WireClient| {
            let hello = WireMsg::Hello {
                proto: PROTO_VERSION,
                epoch: 0,
                resume: None,
            };
            assert!(client.send(&hello));
            let deadline = Instant::now() + Duration::from_secs(5);
            let is_ack = |msg: &WireMsg| matches!(msg, WireMsg::HelloAck { .. });
            match await_reply(client, &mut VecDeque::new(), deadline, is_ack) {
                Ok(WireMsg::HelloAck { node, .. }) => node,
                other => panic!("no ack: {other:?}"),
            }
        };
        let beat = |corr, node| WireMsg::Heartbeat {
            corr,
            hb: Heartbeat {
                node,
                state: oddci_core::messages::PnaStateKind::Idle,
                instance: None,
                sent_at: oddci_types::SimTime::ZERO,
            },
        };
        let ask = |corr, node| WireMsg::TaskRequest {
            corr,
            instance,
            node,
        };
        // Replies `client` gets up to and including the one to `corr`.
        let replies_until = |client: &WireClient, corr: u64| {
            let mut seen = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                let left = deadline.saturating_duration_since(Instant::now());
                match client.receiver().recv_timeout(left) {
                    Ok(
                        WireMsg::HeartbeatReply { corr: c, .. }
                        | WireMsg::TaskBatch { corr: c, .. },
                    ) => {
                        seen.push(c);
                        if c == corr {
                            return seen;
                        }
                    }
                    Ok(_) => {}
                    Err(e) => panic!("no reply to {corr}: {e:?}"),
                }
            }
        };

        let a = dial();
        let stranger = NodeId::new(u64::MAX);
        assert!(a.send(&beat(1, stranger)) && a.send(&ask(2, stranger)));
        let me = hello(&a);
        let b = dial();
        let other = hello(&b);
        assert_ne!(me, other);
        assert!(b.send(&ask(1, other)));
        assert_eq!(replies_until(&b, 1), [1], "b fetches as itself");
        let held: Vec<(TaskId, NodeId)> = live.snapshot_now().backend.jobs[0].assigned.clone();
        assert!(!held.is_empty() && held.iter().all(|&(_, n)| n == other));
        let results = held.iter().map(|&(task, _)| (task, 1)).collect();
        for msg in [
            beat(3, other),
            ask(4, other),
            WireMsg::Results {
                job,
                node: other,
                results,
            },
            beat(5, NodeId::new(me.raw() + 100)),
            beat(6, me),
        ] {
            assert!(a.send(&msg));
        }
        assert_eq!(
            replies_until(&a, 6),
            [6],
            "only the beat a sent as itself is answered"
        );
        let snap = live.snapshot_now();
        let known: Vec<NodeId> = snap.shards[0].registry.iter().map(|e| e.node).collect();
        assert_eq!(
            known,
            [me],
            "no beat in another's name reached the registry"
        );
        let backend = &snap.backend.jobs[0];
        assert_eq!(backend.assigned, held, "b's batch is still b's");
        assert!(backend.completed.is_empty(), "a's upload as b was dropped");
        drop((a, b));
        assert_eq!(live.shutdown().tasks_unaccounted, 0);
    }

    #[test]
    fn wire_batch_conversion_round_trips() {
        use oddci_types::{DataSize, JobId, SimDuration, TaskId};
        use oddci_workload::Task;
        let task = Task::new(
            TaskId::new(3),
            DataSize::from_bytes(100),
            SimDuration::from_millis(5),
            DataSize::from_bytes(8),
        );
        let reply = TaskBatchReply::Assigned {
            job: JobId::new(9),
            tasks: vec![(task, Arc::new(vec![1, 2, 3]))],
        };
        match from_wire_batch(to_wire_batch(reply)) {
            TaskBatchReply::Assigned { job, tasks } => {
                assert_eq!(job, JobId::new(9));
                assert_eq!(tasks.len(), 1);
                assert_eq!(*tasks[0].1, vec![1, 2, 3]);
            }
            TaskBatchReply::Drained => panic!("batch survived the round trip"),
        }
        assert!(matches!(
            from_wire_batch(to_wire_batch(TaskBatchReply::Drained)),
            TaskBatchReply::Drained
        ));
    }
}
