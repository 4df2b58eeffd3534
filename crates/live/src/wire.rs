//! Socket transport glue: the live plane over real TCP.
//!
//! Two halves live here, one per side of the wire:
//!
//! * `LiveWireService` — the headend side. It plugs into
//!   [`oddci_wire::WireServer`]'s serving loop and translates wire
//!   messages into the sharded headend's channel vocabulary
//!   (`ShardMsg` / `DispatchMsg`), forwards carousel broadcasts to
//!   every connection (streaming the materialized database inside the
//!   wakeup), and relays replies back once the shards answer.
//! * [`run_wire_pna`] — the PNA side. It dials the headend, performs the
//!   hello handshake to learn its node identity, and then runs the
//!   *identical* `node_main` loop every in-process node runs — the
//!   only difference is that its `NodeLink` is a `RemoteLink`
//!   writing framed messages to a socket instead of a channel.
//!
//! Request/reply pairs (heartbeats, task fetches) ride a correlation id.
//! On the PNA side the caller parks a one-shot channel under the id, the
//! headend echoes the id, and a demultiplexer completes the matching
//! channel; a reply that never comes is dropped by `node_main`'s reply
//! timeouts, and a shutdown or a lost connection drops every parked
//! channel at once so nobody waits out a timeout for a reply that cannot
//! come. On the headend side nothing is parked: the request travels to
//! its shard or dispatch worker with a `WireSink` naming the connection
//! and the id, and the worker *pushes* the finished reply onto the
//! service's reply channel and wakes the serving loop.

use crate::bus::BroadcastBus;
use crate::headend::{DispatchMsg, ReplyTo, ShardMsg};
use crate::image::{AlignmentImage, LiveBroadcast, WakeupImage};
use crate::runtime::{node_main, BusMsg, NodeLink, TaskBatchReply};
use oddci_check::sync::{unbounded, Mutex, Receiver, Sender};
use oddci_core::messages::{Heartbeat, HeartbeatReply};
use oddci_core::sharded::shard_of;
use oddci_faults::{FaultInjector, FaultPlan};
use oddci_telemetry::{Phase, Telemetry};
use oddci_types::NodeId;
use oddci_wire::codec::{Reader, Writer};
use oddci_wire::{
    ClientConfig, ConnId, ConnStatsHub, Integrity, Outbox, Waker, WireBatch, WireClient, WireError,
    WireMsg, WireService, WireStatsSnapshot, PROTO_VERSION,
};
use oddci_workload::alignment::{random_sequence, Scoring};
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How long a PNA waits for its `HelloAck` after connecting.
const HELLO_TIMEOUT: Duration = Duration::from_secs(5);
/// Correlation entries a `RemoteLink` keeps before evicting the oldest
/// (a reply that outlives this many successors is long since timed out).
const MAX_PENDING_CORR: usize = 64;
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
/// primary's sequence and `assigned` validates `resume` requests — a
/// reconnecting PNA keeps the id it already heartbeats under.
pub(crate) struct WireMembership {
    /// Next fresh node id.
    pub(crate) next_node: u64,
    /// Every node id handed out so far (primary's plus this headend's).
    pub(crate) assigned: BTreeSet<u64>,
}

impl WireMembership {
    /// An empty namespace (a fresh primary).
    pub(crate) fn new() -> WireMembership {
        WireMembership {
            next_node: 0,
            assigned: BTreeSet::new(),
        }
    }

    /// A namespace adopted from a snapshot.
    pub(crate) fn adopted(next_node: u64, nodes: &[u64]) -> WireMembership {
        WireMembership {
            next_node,
            assigned: nodes.iter().copied().collect(),
        }
    }

    /// Snapshot form: `(next_node, assigned ids)`.
    pub(crate) fn export(&self) -> (u64, Vec<u64>) {
        (self.next_node, self.assigned.iter().copied().collect())
    }
}

/// The return address of a wire-origin request: the connection and
/// correlation id to answer, the serving loop's reply channel, and the
/// loop's waker. The shard or dispatch worker that computes the answer
/// [`push`](WireSink::push)es it — the serving loop never polls for it.
pub(crate) struct WireSink {
    conn: ConnId,
    corr: u64,
    replies: Sender<(ConnId, WireMsg)>,
    waker: Waker,
}

impl WireSink {
    /// Publishes `reply` for the connection, then wakes the serving loop
    /// — in that order, which is the loop's contract with its wakers.
    /// Both steps count as sends: never call this with the hub lock held.
    pub(crate) fn push(self, reply: impl IntoWireReply) {
        let msg = reply.into_wire_reply(self.corr);
        if self.replies.send((self.conn, msg)).is_ok() {
            self.waker.wake();
        }
    }
}

/// A headend reply that has a wire form, so a worker thread can encode it
/// for the socket itself instead of leaving that to the serving thread.
pub(crate) trait IntoWireReply {
    fn into_wire_reply(self, corr: u64) -> WireMsg;
}

impl IntoWireReply for HeartbeatReply {
    fn into_wire_reply(self, corr: u64) -> WireMsg {
        WireMsg::HeartbeatReply { corr, reply: self }
    }
}

impl IntoWireReply for TaskBatchReply {
    fn into_wire_reply(self, corr: u64) -> WireMsg {
        WireMsg::TaskBatch {
            corr,
            batch: to_wire_batch(self),
        }
    }
}

/// The headend's [`WireService`]: translates wire traffic into the
/// sharded headend's channels and carousel broadcasts into wire frames.
///
/// It runs single-threaded inside the serving loop, so it holds plain
/// collections — the only synchronization is the channels themselves,
/// and the serving loop's [`Waker`], which everything that feeds those
/// channels from another thread (the carousel's bus, the reply sinks)
/// fires after publishing.
pub(crate) struct LiveWireService {
    shards: Arc<Vec<Sender<ShardMsg>>>,
    dispatch: Arc<Vec<Sender<DispatchMsg>>>,
    batch: usize,
    bus_rx: Receiver<BusMsg>,
    tele: Telemetry,
    conn_stats: Arc<ConnStatsHub>,
    start: Instant,
    conn_nodes: BTreeMap<ConnId, NodeId>,
    /// This headend's fencing epoch, echoed in every `HelloAck`. A PNA
    /// that has seen a higher epoch refuses the ack, so a revenant
    /// primary can never reclaim a fleet a standby has adopted.
    epoch: u64,
    membership: Arc<Mutex<WireMembership>>,
    /// Filled by [`attach`](WireService::attach); shared with the bus
    /// subscription, which exists before the serving loop does.
    waker: Arc<OnceLock<Waker>>,
    /// Finished replies, pushed by shard and dispatch threads through
    /// the [`WireSink`]s handed out in `on_message`.
    replies_tx: Sender<(ConnId, WireMsg)>,
    replies_rx: Receiver<(ConnId, WireMsg)>,
    db_cache: BTreeMap<(u64, u64), Arc<Vec<u8>>>,
}

impl LiveWireService {
    /// Builds the service in front of an already-running sharded headend
    /// and subscribes it to `bus`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        shards: Arc<Vec<Sender<ShardMsg>>>,
        dispatch: Arc<Vec<Sender<DispatchMsg>>>,
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
        let (replies_tx, replies_rx) = unbounded();
        LiveWireService {
            shards,
            dispatch,
            batch,
            bus_rx,
            tele,
            conn_stats,
            start: Instant::now(),
            conn_nodes: BTreeMap::new(),
            epoch,
            membership,
            waker,
            replies_tx,
            replies_rx,
            db_cache: BTreeMap::new(),
        }
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// The return address for a request from `conn`. `None` before the
    /// serving loop attached its waker, i.e. never while serving.
    fn sink<T>(&self, conn: ConnId, corr: u64) -> Option<ReplyTo<T>> {
        Some(ReplyTo::Wire(WireSink {
            conn,
            corr,
            replies: self.replies_tx.clone(),
            waker: self.waker.get()?.clone(),
        }))
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
            WireMsg::Hello { proto, resume, .. } => {
                // A version we don't speak gets no ack — the client's
                // handshake timeout turns that into a clean error. The
                // client's claimed epoch is ignored here: fencing is
                // enforced on the PNA side, which refuses any ack whose
                // epoch is below the highest it has seen.
                if proto != PROTO_VERSION {
                    return;
                }
                let node = match self.conn_nodes.get(&conn) {
                    Some(node) => *node,
                    None => {
                        let node = {
                            let mut m = self.membership.lock();
                            match resume {
                                // A reconnecting node keeps its identity if
                                // this headend (or the snapshot it adopted)
                                // ever issued it; an unknown claim gets a
                                // fresh id like any newcomer.
                                Some(node) if m.assigned.contains(&node.raw()) => node,
                                _ => {
                                    let id = m.next_node;
                                    m.next_node += 1;
                                    m.assigned.insert(id);
                                    NodeId::new(id)
                                }
                            }
                        };
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
            WireMsg::Heartbeat { corr, hb } => {
                if let Some(reply) = self.sink(conn, corr) {
                    let s = shard_of(hb.node, self.shards.len());
                    let _ = self.shards[s].send(ShardMsg::Heartbeat { hb, reply });
                }
            }
            WireMsg::TaskRequest {
                corr,
                instance,
                node,
            } => {
                if let Some(reply) = self.sink(conn, corr) {
                    let d = shard_of(node, self.dispatch.len());
                    let _ = self.dispatch[d].send(DispatchMsg::Request {
                        instance,
                        node,
                        max: self.batch,
                        reply,
                    });
                }
            }
            WireMsg::Results { job, node, results } => {
                let d = shard_of(node, self.dispatch.len());
                let _ = self.dispatch[d].send(DispatchMsg::Results { job, node, results });
            }
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
        // A reply still on its way to `conn` is dropped by the serving
        // loop: connection ids are never reused.
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
        while let Ok((conn, msg)) = self.replies_rx.try_recv() {
            out.send(conn, msg);
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

/// A `NodeLink` backed by one TCP connection: requests go out with a
/// correlation id, the demultiplexer thread completes the parked reply
/// channel when the echo comes back.
///
/// The client sits behind a swappable `Arc` so the demultiplexer can
/// replace a dead connection with a freshly dialed one (headend
/// failover) while senders keep working: they clone the current handle
/// under a short lock and send outside it.
pub(crate) struct RemoteLink {
    client: Mutex<Arc<WireClient>>,
    pending_hb: Mutex<BTreeMap<u64, Sender<HeartbeatReply>>>,
    pending_tasks: Mutex<BTreeMap<u64, Sender<TaskBatchReply>>>,
    next_corr: AtomicU64,
    /// With reconnect enabled, a failed socket send is reported as
    /// *success* to the node loop: the message is treated like one lost
    /// on the wire (the reply timeout and backoff machinery absorb it)
    /// while the demultiplexer redials in the background. Without it, a
    /// failed send means the headend is gone for good.
    tolerate_disconnect: bool,
    /// Set once the node loop is done and the link is closing for real —
    /// tells the demultiplexer not to redial a deliberate teardown.
    closing: AtomicBool,
    /// Highest epoch any `HelloAck` has carried. Reconnect handshakes
    /// refuse acks below this — the fencing rule that keeps a revenant
    /// primary from reclaiming the node.
    epoch_seen: AtomicU64,
}

impl RemoteLink {
    fn new(client: WireClient, tolerate_disconnect: bool, epoch: u64) -> RemoteLink {
        RemoteLink {
            client: Mutex::named(Arc::new(client), "live.wire.client"),
            // `named_send_sensitive`: no channel send may happen while
            // either map's lock is held — callers park the reply sender,
            // release, then write to the socket.
            pending_hb: Mutex::named_send_sensitive(BTreeMap::new(), "live.wire.pending_hb"),
            pending_tasks: Mutex::named_send_sensitive(BTreeMap::new(), "live.wire.pending_tasks"),
            next_corr: AtomicU64::new(0),
            tolerate_disconnect,
            closing: AtomicBool::new(false),
            epoch_seen: AtomicU64::new(epoch),
        }
    }

    /// The current connection handle.
    fn client(&self) -> Arc<WireClient> {
        Arc::clone(&self.client.lock())
    }

    /// Drops every parked reply channel: the replies cannot come any
    /// more (the connection died, or the plane is shutting down), and a
    /// dropped channel tells the waiting node so at once instead of
    /// leaving it to its reply timeout.
    fn abandon_pending(&self) {
        self.pending_hb.lock().clear();
        self.pending_tasks.lock().clear();
    }

    /// Installs a freshly dialed connection; replies to requests sent on
    /// the dead socket will never arrive.
    fn swap_client(&self, client: WireClient) {
        *self.client.lock() = Arc::new(client);
        self.abandon_pending();
    }

    /// Parks `reply` under a fresh correlation id. `None` once the link
    /// is closing: `closing` is set before the parked channels are
    /// dropped, so a request that missed that sweep sees the flag here.
    fn park<T>(&self, pending: &Mutex<BTreeMap<u64, Sender<T>>>, reply: Sender<T>) -> Option<u64> {
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        {
            let mut map = pending.lock();
            map.insert(corr, reply);
            while map.len() > MAX_PENDING_CORR {
                map.pop_first();
            }
        }
        if self.closing.load(Ordering::SeqCst) {
            pending.lock().remove(&corr);
            return None;
        }
        Some(corr)
    }

    /// Sends on the current connection; see `tolerate_disconnect` for
    /// how a dead socket is reported.
    fn send(&self, msg: &WireMsg) -> bool {
        self.client().send(msg)
            || (self.tolerate_disconnect && !self.closing.load(Ordering::SeqCst))
    }

    pub(crate) fn send_heartbeat(&self, hb: Heartbeat, reply: Sender<HeartbeatReply>) -> bool {
        match self.park(&self.pending_hb, reply) {
            Some(corr) => self.send(&WireMsg::Heartbeat { corr, hb }),
            None => false,
        }
    }

    pub(crate) fn request_tasks(
        &self,
        instance: oddci_types::InstanceId,
        node: NodeId,
        reply: Sender<TaskBatchReply>,
    ) -> bool {
        match self.park(&self.pending_tasks, reply) {
            Some(corr) => self.send(&WireMsg::TaskRequest {
                corr,
                instance,
                node,
            }),
            None => false,
        }
    }

    pub(crate) fn send_results(
        &self,
        job: oddci_types::JobId,
        node: NodeId,
        results: Vec<(oddci_types::TaskId, i32)>,
    ) -> bool {
        self.send(&WireMsg::Results { job, node, results })
    }
}

/// Routes one inbound message: replies complete their parked channel,
/// broadcasts and shutdowns go onto the node's bus.
fn demux(link: &RemoteLink, bus_tx: &Sender<BusMsg>, msg: WireMsg) {
    match msg {
        WireMsg::HeartbeatReply { corr, reply } => {
            let parked = link.pending_hb.lock().remove(&corr);
            if let Some(tx) = parked {
                let _ = tx.send(reply);
            }
        }
        WireMsg::TaskBatch { corr, batch } => {
            let parked = link.pending_tasks.lock().remove(&corr);
            if let Some(tx) = parked {
                let _ = tx.send(from_wire_batch(batch));
            }
        }
        WireMsg::Broadcast { signed, image } => {
            let image = image.map(WakeupImage::Encoded);
            let _ = bus_tx.send(BusMsg::Control(LiveBroadcast { signed, image }));
        }
        WireMsg::Shutdown => {
            // Nothing the node still waits for will be answered.
            link.abandon_pending();
            let _ = bus_tx.send(BusMsg::Shutdown);
        }
        // Client-to-server vocabulary arriving at a client: noise. Stats
        // replies only matter to a polling monitor, which reads the
        // receiver directly instead of running a node loop.
        WireMsg::Hello { .. }
        | WireMsg::HelloAck { .. }
        | WireMsg::Heartbeat { .. }
        | WireMsg::TaskRequest { .. }
        | WireMsg::Results { .. }
        | WireMsg::StatsQuery { .. }
        | WireMsg::StatsReply { .. } => {}
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
    /// The node identity the headend assigned.
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
/// before the ack — they come back in the returned stash for replay.
/// The hello itself is re-sent on a short timer: a single mangled frame
/// (fault injection, hostile networks) must not strand the handshake,
/// and a duplicate hello just gets the same ack again. An ack whose
/// epoch is *below* `min_epoch` is a fencing violation (a revenant
/// primary) and fails the handshake.
fn hello_handshake(
    client: &WireClient,
    min_epoch: u64,
    resume: Option<NodeId>,
) -> Result<(NodeId, u64, Vec<WireMsg>), WireError> {
    let hello = WireMsg::Hello {
        proto: PROTO_VERSION,
        epoch: min_epoch,
        resume,
    };
    if !client.send(&hello) {
        return Err(WireError::Protocol("connection closed during hello".into()));
    }
    let mut stashed = Vec::new();
    let deadline = Instant::now() + HELLO_TIMEOUT;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(WireError::Timeout("no HelloAck from headend"));
        }
        match client
            .receiver()
            .recv_timeout(left.min(Duration::from_millis(100)))
        {
            Ok(WireMsg::HelloAck { node, epoch }) => {
                if epoch < min_epoch {
                    return Err(WireError::Protocol(format!(
                        "headend acked with stale epoch {epoch} (this node has seen {min_epoch})"
                    )));
                }
                return Ok((node, epoch, stashed));
            }
            Ok(other) => stashed.push(other),
            Err(_) => {
                if client.is_closed() {
                    return Err(WireError::Protocol("connection closed during hello".into()));
                }
                let _ = client.send(&hello);
            }
        }
    }
}

/// Redials the headend until `window` expires, re-running the handshake
/// with the node's identity and epoch floor. Returns the new connection
/// plus the (possibly higher) epoch it acked with. Bails out early when
/// `closing` flips — the node loop finished mid-outage and nobody wants
/// the connection anymore.
fn redial(
    addr: SocketAddr,
    mkcfg: &dyn Fn() -> ClientConfig,
    node: NodeId,
    min_epoch: u64,
    window: Duration,
    closing: &AtomicBool,
) -> Option<(WireClient, u64, Vec<WireMsg>)> {
    let deadline = Instant::now() + window;
    loop {
        if closing.load(Ordering::SeqCst) {
            return None;
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return None;
        }
        let mut cfg = mkcfg();
        cfg.connect_timeout = left.min(Duration::from_millis(500));
        match WireClient::connect(addr, cfg) {
            Ok(client) => match hello_handshake(&client, min_epoch, Some(node)) {
                Ok((_, epoch, stashed)) => return Some((client, epoch, stashed)),
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
/// `RemoteLink`. Blocks until the headend broadcasts `Shutdown` or the
/// connection dies — unless [`WirePnaConfig::reconnect`] is set, in
/// which case a dead connection triggers redial-and-resume (failover).
pub fn run_wire_pna(config: WirePnaConfig) -> Result<WirePnaReport, WireError> {
    let start = Instant::now();
    let injector = Arc::new(FaultInjector::new(
        config.faults.clone(),
        config.seed ^ 0xFA17_FA17,
    ));
    let mkcfg = {
        let key = config.key.clone();
        let telemetry = config.telemetry.clone();
        let faults = config.faults.clone();
        let seed = config.seed;
        let connect_timeout = config.connect_timeout;
        move || {
            let mut ccfg = ClientConfig::new(Integrity::hmac(&key));
            ccfg.connect_timeout = connect_timeout;
            ccfg.telemetry = telemetry.clone();
            // Wire-level faults roll under a seed distinct from the
            // protocol injector's so the fault streams don't correlate.
            ccfg.injector = FaultInjector::new(faults.clone(), seed ^ 0x3D1E_C7A1);
            ccfg
        }
    };
    let client = WireClient::connect(config.addr, mkcfg())?;
    let (node, epoch, stashed) = hello_handshake(&client, 0, None)?;

    let link = Arc::new(RemoteLink::new(client, config.reconnect.is_some(), epoch));
    let (bus_tx, bus_rx) = unbounded();
    for msg in stashed {
        demux(&link, &bus_tx, msg);
    }
    let demux_thread = std::thread::Builder::new()
        .name("wire-pna-demux".into())
        .spawn({
            let link = Arc::clone(&link);
            let bus_tx = bus_tx.clone();
            let addr = config.addr;
            let reconnect = config.reconnect;
            move || loop {
                let client = link.client();
                match client.receiver().recv() {
                    Ok(msg) => {
                        // A broadcast Shutdown ends the plane: flip
                        // `closing` so in-flight sends fail fast instead
                        // of masking as wire drops (the node loop would
                        // ride its full retry backoff otherwise), deliver
                        // it, and exit before the headend closes the
                        // socket — a disconnect that must not read as an
                        // outage worth redialing through.
                        if matches!(msg, WireMsg::Shutdown) {
                            link.closing.store(true, Ordering::SeqCst);
                            demux(&link, &bus_tx, msg);
                            break;
                        }
                        demux(&link, &bus_tx, msg);
                    }
                    Err(_) => {
                        drop(client);
                        // Deliberate teardown (node loop finished) or no
                        // reconnect window: the node sees Shutdown and
                        // winds down like any other plane teardown.
                        let window = match reconnect {
                            Some(w) if !link.closing.load(Ordering::SeqCst) => w,
                            _ => {
                                link.closing.store(true, Ordering::SeqCst);
                                link.abandon_pending();
                                let _ = bus_tx.send(BusMsg::Shutdown);
                                break;
                            }
                        };
                        let floor = link.epoch_seen.load(Ordering::SeqCst);
                        match redial(addr, &mkcfg, node, floor, window, &link.closing) {
                            Some((new_client, epoch, stashed)) => {
                                link.epoch_seen.store(epoch, Ordering::SeqCst);
                                link.swap_client(new_client);
                                // The node loop may have finished while we
                                // were redialing; don't serve a link that
                                // is tearing down.
                                if link.closing.load(Ordering::SeqCst) {
                                    link.client().request_close();
                                    break;
                                }
                                for msg in stashed {
                                    demux(&link, &bus_tx, msg);
                                }
                            }
                            None => {
                                // Same deal: the outage outlived the
                                // window, so stop masking send failures.
                                link.closing.store(true, Ordering::SeqCst);
                                link.abandon_pending();
                                let _ = bus_tx.send(BusMsg::Shutdown);
                                break;
                            }
                        }
                    }
                }
            }
        })
        .map_err(WireError::Io)?;

    node_main(
        node,
        config.key.clone(),
        bus_rx,
        NodeLink::Remote(Arc::clone(&link)),
        config.heartbeat_interval,
        config.seed,
        start,
        injector,
        config.telemetry.clone(),
    );

    // Unblock the demultiplexer (its recv fails once the reader stops,
    // and `closing` keeps it from redialing a deliberate teardown), then
    // let the link's last owner join the reader thread on drop.
    link.closing.store(true, Ordering::SeqCst);
    link.client().request_close();
    let _ = demux_thread.join();
    let stats = link.client().stats().snapshot();
    let epoch = link.epoch_seen.load(Ordering::SeqCst);
    Ok(WirePnaReport { node, stats, epoch })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A headend that acks hellos and heartbeats, airs `wakeups` once the
    /// PNA has heartbeaten, and ends the plane when a task request shows
    /// the PNA booted an instance.
    struct AirWakeups {
        wakeups: Vec<WireMsg>,
        booted: Sender<oddci_types::InstanceId>,
    }

    impl WireService for AirWakeups {
        fn on_message(&mut self, conn: ConnId, msg: WireMsg, out: &mut Outbox) {
            match msg {
                WireMsg::Hello { .. } => out.send(
                    conn,
                    WireMsg::HelloAck {
                        node: NodeId::new(0),
                        epoch: 0,
                    },
                ),
                WireMsg::Heartbeat { corr, .. } => {
                    out.send(
                        conn,
                        WireMsg::HeartbeatReply {
                            corr,
                            reply: HeartbeatReply::Ack,
                        },
                    );
                    for wakeup in self.wakeups.drain(..) {
                        out.broadcast(wakeup);
                    }
                }
                WireMsg::TaskRequest { instance, .. } => {
                    let _ = self.booted.send(instance);
                    out.broadcast(WireMsg::Shutdown);
                    out.request_stop();
                }
                _ => {}
            }
        }
    }

    #[test]
    fn wakeup_with_an_unindexable_recipe_leaves_the_pna_alive() {
        use oddci_core::messages::{ControlMessage, SignedMessage, WakeupMessage};
        use oddci_types::{DataSize, ImageId, InstanceId, MessageId, Probability};

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
        // Every bad recipe first, then a good one: the PNA must still be
        // there to boot it.
        let good = AlignmentImage {
            db_len: 1000,
            ..AlignmentImage::small_demo()
        };
        let mut images = unindexable_images();
        let bad = images.len() as u64;
        images.push(encode_image(&good, &random_sequence(1000, 7)));
        let wakeups = (0u64..).zip(images).map(|(n, i)| wakeup(n, i)).collect();

        let (booted, booted_rx) = unbounded();
        let mut server = oddci_wire::WireServer::bind(
            "127.0.0.1:0".parse().expect("addr"),
            oddci_wire::ServerConfig::new(Integrity::hmac(key)),
            AirWakeups { wakeups, booted },
        )
        .expect("bind");
        let mut cfg = WirePnaConfig::new(server.local_addr());
        cfg.heartbeat_interval = Duration::from_millis(20);
        cfg.telemetry = Telemetry::recording();
        let tele = cfg.telemetry.clone();
        let pna = std::thread::spawn(move || run_wire_pna(cfg));

        let instance = booted_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the PNA survived the bad wakeups and booted the good one");
        assert_eq!(instance, InstanceId::new(bad));
        pna.join()
            .expect("the node thread did not panic")
            .expect("the PNA ran to shutdown");
        assert!(server.stop());
        assert_eq!(
            tele.phase_events(Phase::PnaAccept),
            bad + 1,
            "every wakeup passed the signature and probability gates"
        );
        assert_eq!(tele.phase_events(Phase::DveBoot), 1, "only one was booted");
    }

    #[test]
    fn reader_thread_hands_the_image_on_undecoded() {
        use oddci_core::messages::{ControlMessage, ResetMessage, SignedMessage};
        // Not an image at all: were the demultiplexer to decode it, the
        // image would be gone from what the node receives.
        let garbage = vec![0xAB; 100];
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = WireClient::connect(
            listener.local_addr().expect("addr"),
            ClientConfig::new(Integrity::Crc32),
        )
        .expect("connects");
        let link = RemoteLink::new(client, false, 0);
        let (bus_tx, bus_rx) = unbounded();
        let signed = SignedMessage::sign(
            ControlMessage::Reset(ResetMessage {
                id: oddci_types::MessageId::new(1),
                instance: oddci_types::InstanceId::new(1),
            }),
            &oddci_crypto::MessageAuthenticator::from_key(b"k"),
        );
        demux(
            &link,
            &bus_tx,
            WireMsg::Broadcast {
                signed,
                image: Some(garbage.clone()),
            },
        );
        match bus_rx.try_recv() {
            Ok(BusMsg::Control(LiveBroadcast {
                image: Some(WakeupImage::Encoded(bytes)),
                ..
            })) => assert_eq!(bytes, garbage),
            other => panic!("expected the encoded image on the bus, got {other:?}"),
        }
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
