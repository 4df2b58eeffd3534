//! The `std::net` TCP transport: a readiness-driven serving loop for the
//! headend and a blocking direct-channel client for each PNA.
//!
//! # Serving-loop thread model
//!
//! [`WireServer::bind`] spawns **one** serving thread that owns the
//! listener, every accepted connection and the [`WireService`]. The
//! thread blocks in `epoll_wait` (see the `poller` module) on three
//! kinds of descriptor: the listener, each connection — read interest
//! always, write interest only while that connection has unsent output —
//! and one wake fd. It wakes for exactly three reasons: a socket is
//! ready, somebody called [`Waker::wake`], or the housekeeping ceiling
//! (100 ms, a constant) passed. An idle server therefore makes about ten
//! loop turns a second and no other syscalls, and neither a request nor
//! a reply ever waits on a timer. Each turn it
//!
//! 1. re-arms the waker if it fired, accepts pending connections, and
//!    reads the connections that are ready (a new one right away: its
//!    first message usually rides behind the connect) into their
//!    [`FrameDecoder`] and [`Reassembler`], handing each completed
//!    message to the service;
//! 2. calls [`WireService::poll`], where the service drains whatever
//!    other threads published for it (replies, broadcasts);
//! 3. encodes the [`Outbox`] straight into per-connection output buffers
//!    (chunking large payloads, through the fault injector when one is
//!    armed);
//! 4. writes those buffers — one `write` per connection per burst — until
//!    the sockets would block, asks for write readiness where output is
//!    left over, publishes each touched connection's counters to the
//!    [`ConnStatsHub`] under one lock, and reaps closed connections.
//!
//! Only connections that were ready, or that the outbox addressed, are
//! touched in a turn. Every connection that is ready when the loop wakes
//! is served in that one turn, so under load the number of turns follows
//! the bursts of requests, not the number of connections.
//!
//! ## Who may wake the loop, and the arm-before-drain rule
//!
//! Any thread may hold a [`Waker`] (the service gets one through
//! [`WireService::attach`]; [`WireServer::stop`] uses one too). The
//! contract is *publish, then wake*: push the reply onto the channel the
//! service drains in `poll`, then call `wake()`. Wakes coalesce — a flag
//! makes a burst cost one eventfd write — and the loop clears that flag
//! **before** it calls `poll`, never after. A reply that lands after the
//! drain therefore finds the flag clear, writes the fd, and the next
//! `epoll_wait` returns at once; a reply that lands before the flag is
//! cleared is picked up by the drain that follows. Clearing the flag
//! after the drain would strand a reply that lands in between until the
//! housekeeping ceiling (the `wake-vs-wait` model in `oddci-check`
//! explores exactly this pair). A wake is a send for the purposes of the
//! send-sensitive lock rule: never wake while holding the hub lock.
//!
//! ## Stopping, and a listener that cannot accept
//!
//! A stop request (from [`WireServer::stop`] or [`Outbox::request_stop`])
//! takes the listener out of the poll set and keeps the loop alive until
//! every output buffer drains or `drain_grace` expires, so a final
//! shutdown broadcast actually reaches the peers; a peer that does not
//! read is waited for on write readiness, not spun on. The loop leaves
//! only on a stop request it saw *before* a turn's `poll`, so whatever the
//! stopper published first (push, then stop) is relayed. An `accept` that
//! fails for a reason other than "nothing pending" (`EMFILE`, say) leaves
//! the connection queued, so the listener is taken out of the poll set
//! for 10 ms before the next try instead of reporting ready forever.
//!
//! Single-threaded connection ownership means the service never needs a
//! lock around connection state — the serving loop *is* the serialization
//! point, mirroring the polling-loop shape used by the in-process headend
//! carousel.
//!
//! The [`WireClient`] is the PNA half: a blocking connect (with retry
//! until a deadline, since the headend may still be binding), a reader
//! thread blocked in `read` that turns socket bytes into decoded
//! [`WireMsg`]s on a channel, and a mutex-guarded writer usable from any
//! node thread, one `write` per message.

use crate::envelope::{encode_chunks, encode_chunks_into, Reassembler, ReassemblyStats};
use crate::fault::mangle_frames;
use crate::frame::{DecodeStats, FrameDecoder, Integrity, DEFAULT_CHUNK};
use crate::message::WireMsg;
use crate::poller::{Poller, Ready, Waker, WAKE_TOKEN};
use crate::WireError;
use oddci_check::sync::{self, Mutex, Receiver};
use oddci_faults::FaultInjector;
use oddci_telemetry::{Phase, Telemetry};
use oddci_types::{NodeId, SimTime};
use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Identifies one accepted connection for the lifetime of a server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(u64);

impl ConnId {
    /// The raw connection number (monotonic per server, starting at 1).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for ConnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn-{}", self.0)
    }
}

/// Per-connection traffic counters, maintained by the serving loop in a
/// [`ConnStatsHub`]. The aggregate [`WireStats`] answers "how busy is
/// the plane"; this answers "which peer is misbehaving" — a PNA behind a
/// corrupting link shows up as one row with climbing `checksum_rejects`
/// while the fleet's totals stay healthy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnTraffic {
    /// The connection's id ([`ConnId::raw`]).
    pub conn: u64,
    /// Still connected? Closed rows keep their final counters.
    pub open: bool,
    /// Frames queued to this peer.
    pub tx_frames: u64,
    /// Frames read and checksum-verified from this peer.
    pub rx_frames: u64,
    /// Bytes written to this peer's socket.
    pub tx_bytes: u64,
    /// Bytes read from this peer's socket.
    pub rx_bytes: u64,
    /// This peer's frames rejected on a failed check.
    pub checksum_rejects: u64,
    /// Times this peer's decoder scanned forward for the next magic.
    pub resyncs: u64,
}

/// Shared ledger of [`ConnTraffic`] rows, keyed by connection id. Hand
/// one `Arc` to [`ServerConfig::conn_stats`] (the serving loop updates
/// it) and keep a clone wherever the numbers are served from — the live
/// wire service answers `StatsQuery` out of it, and the headend CLI
/// prints it in the shutdown summary. Disconnected peers stay listed
/// with their final counters and `open: false`.
#[derive(Debug)]
pub struct ConnStatsHub {
    inner: Mutex<BTreeMap<u64, ConnTraffic>>,
}

impl Default for ConnStatsHub {
    fn default() -> Self {
        ConnStatsHub {
            inner: Mutex::named(BTreeMap::new(), "wire.conn_stats"),
        }
    }
}

impl ConnStatsHub {
    /// An empty ledger.
    pub fn new() -> ConnStatsHub {
        ConnStatsHub::default()
    }

    /// Adds one loop turn's worth of `delta` counters to `conn`'s row
    /// (created open on first sight) and records whether it is still
    /// connected — one lock however much traffic the turn moved.
    fn absorb(&self, conn: u64, delta: &ConnTraffic, open: bool) {
        let mut rows = self.inner.lock();
        let row = rows.entry(conn).or_insert_with(|| ConnTraffic {
            conn,
            ..ConnTraffic::default()
        });
        row.open = open;
        row.tx_frames += delta.tx_frames;
        row.rx_frames += delta.rx_frames;
        row.tx_bytes += delta.tx_bytes;
        row.rx_bytes += delta.rx_bytes;
        row.checksum_rejects += delta.checksum_rejects;
        row.resyncs += delta.resyncs;
    }

    /// All rows, ordered by connection id.
    pub fn snapshot(&self) -> Vec<ConnTraffic> {
        self.inner.lock().values().copied().collect()
    }
}

#[derive(Debug, Default)]
struct StatsInner {
    accepted: AtomicU64,
    open: AtomicU64,
    tx_frames: AtomicU64,
    rx_frames: AtomicU64,
    tx_bytes: AtomicU64,
    rx_bytes: AtomicU64,
    tx_messages: AtomicU64,
    rx_messages: AtomicU64,
    multi_chunk_tx: AtomicU64,
    multi_chunk_rx: AtomicU64,
    checksum_rejects: AtomicU64,
    resyncs: AtomicU64,
    duplicates: AtomicU64,
    reassembly_rejects: AtomicU64,
    mangled_corrupt: AtomicU64,
    mangled_truncate: AtomicU64,
    mangled_reorder: AtomicU64,
    loop_turns: AtomicU64,
}

/// Shared traffic counters of one transport endpoint (server or client).
/// Cheap to clone; all methods are lock-free reads.
#[derive(Debug, Clone, Default)]
pub struct WireStats {
    inner: Arc<StatsInner>,
}

/// A point-in-time copy of every [`WireStats`] counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStatsSnapshot {
    /// Connections accepted (server) or established (client).
    pub accepted: u64,
    /// Connections currently open.
    pub open: u64,
    /// Frames written to sockets.
    pub tx_frames: u64,
    /// Frames read and checksum-verified.
    pub rx_frames: u64,
    /// Bytes written to sockets.
    pub tx_bytes: u64,
    /// Bytes read from sockets.
    pub rx_bytes: u64,
    /// Messages sent (before chunking).
    pub tx_messages: u64,
    /// Messages fully reassembled and delivered.
    pub rx_messages: u64,
    /// Sent messages that needed more than one frame.
    pub multi_chunk_tx: u64,
    /// Delivered messages that arrived in more than one frame.
    pub multi_chunk_rx: u64,
    /// Frames rejected on a failed check or malformed header.
    pub checksum_rejects: u64,
    /// Times a decoder scanned forward for the next magic.
    pub resyncs: u64,
    /// Duplicate chunks or replayed messages dropped.
    pub duplicates: u64,
    /// Messages dropped by the reassembler (inconsistent chunks).
    pub reassembly_rejects: u64,
    /// Frames deliberately corrupted by the fault injector.
    pub mangled_corrupt: u64,
    /// Frames deliberately truncated by the fault injector.
    pub mangled_truncate: u64,
    /// Sends deliberately reordered/duplicated by the fault injector.
    pub mangled_reorder: u64,
    /// Turns of the serving loop, i.e. returns from its readiness wait
    /// (always 0 on a client). An idle server adds about ten a second.
    pub loop_turns: u64,
}

impl WireStats {
    /// Fresh zeroed counters.
    pub fn new() -> WireStats {
        WireStats::default()
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> WireStatsSnapshot {
        let i = &self.inner;
        WireStatsSnapshot {
            accepted: i.accepted.load(Ordering::Relaxed),
            open: i.open.load(Ordering::Relaxed),
            tx_frames: i.tx_frames.load(Ordering::Relaxed),
            rx_frames: i.rx_frames.load(Ordering::Relaxed),
            tx_bytes: i.tx_bytes.load(Ordering::Relaxed),
            rx_bytes: i.rx_bytes.load(Ordering::Relaxed),
            tx_messages: i.tx_messages.load(Ordering::Relaxed),
            rx_messages: i.rx_messages.load(Ordering::Relaxed),
            multi_chunk_tx: i.multi_chunk_tx.load(Ordering::Relaxed),
            multi_chunk_rx: i.multi_chunk_rx.load(Ordering::Relaxed),
            checksum_rejects: i.checksum_rejects.load(Ordering::Relaxed),
            resyncs: i.resyncs.load(Ordering::Relaxed),
            duplicates: i.duplicates.load(Ordering::Relaxed),
            reassembly_rejects: i.reassembly_rejects.load(Ordering::Relaxed),
            mangled_corrupt: i.mangled_corrupt.load(Ordering::Relaxed),
            mangled_truncate: i.mangled_truncate.load(Ordering::Relaxed),
            mangled_reorder: i.mangled_reorder.load(Ordering::Relaxed),
            loop_turns: i.loop_turns.load(Ordering::Relaxed),
        }
    }

    fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    fn absorb_decode_delta(&self, prev: &mut DecodeStats, now: DecodeStats) {
        Self::add(&self.inner.rx_frames, now.frames - prev.frames);
        Self::add(&self.inner.checksum_rejects, now.rejected - prev.rejected);
        Self::add(&self.inner.resyncs, now.resyncs - prev.resyncs);
        *prev = now;
    }

    fn absorb_reassembly_delta(&self, prev: &mut ReassemblyStats, now: ReassemblyStats) {
        Self::add(&self.inner.rx_messages, now.messages - prev.messages);
        Self::add(
            &self.inner.multi_chunk_rx,
            now.multi_chunk - prev.multi_chunk,
        );
        Self::add(&self.inner.duplicates, now.duplicates - prev.duplicates);
        Self::add(&self.inner.reassembly_rejects, now.rejected - prev.rejected);
        *prev = now;
    }

    fn record_send(&self, frames: usize) {
        Self::add(&self.inner.tx_messages, 1);
        Self::add(&self.inner.tx_frames, frames as u64);
        if frames > 1 {
            Self::add(&self.inner.multi_chunk_tx, 1);
        }
    }

    fn record_mangle(&self, report: crate::fault::MangleReport) {
        Self::add(&self.inner.mangled_corrupt, report.corrupted);
        Self::add(&self.inner.mangled_truncate, report.truncated);
        Self::add(&self.inner.mangled_reorder, report.reordered);
    }
}

/// Mirrors endpoint traffic into the shared telemetry registry and, when
/// recording, the event stream.
#[derive(Clone)]
struct TeleMirror {
    telemetry: Telemetry,
    start: Instant,
    tx_bytes: oddci_telemetry::Counter,
    rx_bytes: oddci_telemetry::Counter,
    tx_frames: oddci_telemetry::Counter,
    rx_frames: oddci_telemetry::Counter,
    /// Open server connections; only the serving loop writes it.
    connections: oddci_telemetry::Gauge,
}

impl TeleMirror {
    fn new(telemetry: Telemetry, start: Instant) -> TeleMirror {
        let reg = telemetry.registry();
        TeleMirror {
            tx_bytes: reg.counter("wire.tx.bytes"),
            rx_bytes: reg.counter("wire.rx.bytes"),
            tx_frames: reg.counter("wire.tx.frames"),
            rx_frames: reg.counter("wire.rx.frames"),
            connections: reg.gauge("wire.connections"),
            telemetry,
            start,
        }
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn instant(&self, phase: Phase, track: u64, scope: u64) {
        self.telemetry.instant(self.now_us(), phase, track, scope);
    }
}

/// What a [`WireService`] hands back to the serving loop: messages to
/// write and, possibly, a request to wind the server down.
#[derive(Debug, Default)]
pub struct Outbox {
    queue: Vec<(Option<ConnId>, WireMsg)>,
    stop: bool,
}

impl Outbox {
    /// An empty outbox (exposed so service implementations can be unit
    /// tested without a socket).
    pub fn new() -> Outbox {
        Outbox::default()
    }

    /// Queues `msg` for one connection.
    pub fn send(&mut self, conn: ConnId, msg: WireMsg) {
        self.queue.push((Some(conn), msg));
    }

    /// Queues `msg` for every open connection.
    pub fn broadcast(&mut self, msg: WireMsg) {
        self.queue.push((None, msg));
    }

    /// Asks the serving loop to drain its buffers and exit.
    pub fn request_stop(&mut self) {
        self.stop = true;
    }

    /// Messages queued so far (for service unit tests).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }
}

/// The application half of a [`WireServer`]: the serving loop owns the
/// sockets, the service owns the protocol. All callbacks run on the
/// serving thread, so implementations need no internal locking for
/// per-connection state.
pub trait WireService: Send {
    /// Called once, on the serving thread, before anything else: `waker`
    /// is how other threads tell the loop that [`poll`](WireService::poll)
    /// has something to drain. A service whose output is all produced
    /// inside its callbacks can ignore it.
    fn attach(&mut self, _waker: Waker) {}

    /// A connection was accepted.
    fn on_connect(&mut self, _conn: ConnId, _out: &mut Outbox) {}

    /// A complete message arrived on `conn`.
    fn on_message(&mut self, conn: ConnId, msg: WireMsg, out: &mut Outbox);

    /// `conn` closed (EOF or error). Queued output for it is dropped.
    fn on_disconnect(&mut self, _conn: ConnId, _out: &mut Outbox) {}

    /// Called once per wake-up of the serving loop — socket readiness, a
    /// [`Waker::wake`], or the 100 ms housekeeping timeout — after the
    /// ready sockets were read and before output is written: the place to
    /// surface replies other threads pushed onto internal channels. It is
    /// **not** a periodic tick: with no traffic and no wake it runs about
    /// ten times a second, so whoever pushes a reply must wake the loop
    /// (push first, wake second) or the reply waits for the timeout.
    fn poll(&mut self, _out: &mut Outbox) {}
}

/// Configuration of a [`WireServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Frame checksum flavour (HMAC in the live plane).
    pub integrity: Integrity,
    /// Chunk payload size for outbound messages.
    pub max_chunk: usize,
    /// How long a stopping server keeps flushing unsent output.
    pub drain_grace: Duration,
    /// Wire fault injector (disabled by default); outbound frames to
    /// connection *n* mangle under `NodeId(n)`.
    pub injector: FaultInjector,
    /// Telemetry handle for counters and `wire.*` instants.
    pub telemetry: Telemetry,
    /// Per-connection counter ledger (off by default). The serving loop
    /// writes it; keep a clone of the `Arc` to read it elsewhere.
    pub conn_stats: Option<Arc<ConnStatsHub>>,
}

impl ServerConfig {
    /// Defaults: 16 KiB chunks, 2 s drain grace, no faults, telemetry
    /// off, no per-connection ledger.
    pub fn new(integrity: Integrity) -> ServerConfig {
        ServerConfig {
            integrity,
            max_chunk: DEFAULT_CHUNK,
            drain_grace: Duration::from_secs(2),
            injector: FaultInjector::disabled(),
            telemetry: Telemetry::disabled(),
            conn_stats: None,
        }
    }
}

/// Longest the loop blocks with nothing ready. It bounds how stale the
/// loop's view of the world can get if a wake were ever missed; nothing
/// relies on it for latency, which is why it is a constant and not a
/// [`ServerConfig`] field.
const HOUSEKEEPING: Duration = Duration::from_millis(100);
/// How long the listener stays out of the poll set after a failed
/// `accept`.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);
/// The listener's poll token; connection tokens are [`ConnId`]s, from 1.
const LISTENER_TOKEN: u64 = 0;

struct ServerConn {
    stream: TcpStream,
    decoder: FrameDecoder,
    reassembler: Reassembler,
    prev_decode: DecodeStats,
    prev_reassembly: ReassemblyStats,
    outbuf: Vec<u8>,
    out_pos: usize,
    next_seq: u64,
    open: bool,
    /// Whether the poller reports write readiness for this connection.
    polling_write: bool,
    /// Already on this turn's touched list.
    touched: bool,
    /// Counters not yet published to the [`ConnStatsHub`].
    unpublished: ConnTraffic,
}

impl ServerConn {
    fn pending_out(&self) -> usize {
        self.outbuf.len() - self.out_pos
    }
}

/// Appends the frames of one message to `out`, through the fault
/// injector, and records the send. Returns how many frames were queued
/// (a reorder fault can duplicate one).
#[allow(clippy::too_many_arguments)]
fn encode_message(
    out: &mut Vec<u8>,
    integrity: &Integrity,
    max_chunk: usize,
    injector: &FaultInjector,
    node: NodeId,
    now: SimTime,
    stats: &WireStats,
    kind: u8,
    seq: u64,
    payload: &[u8],
) -> usize {
    if injector.is_disabled() {
        // `mangle_frames` is the identity without an armed injector, so
        // the frames are built in place instead of one `Vec` each.
        let frames = encode_chunks_into(out, integrity, kind, seq, payload, max_chunk);
        stats.record_send(frames);
        return frames;
    }
    let mut frames = encode_chunks(integrity, kind, seq, payload, max_chunk);
    stats.record_send(frames.len());
    stats.record_mangle(mangle_frames(injector, node, now, &mut frames));
    for frame in &frames {
        out.extend_from_slice(frame);
    }
    frames.len()
}

/// A headend-side socket endpoint: binds, accepts, and runs a
/// [`WireService`] on a single serving thread until stopped.
pub struct WireServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    handle: Option<JoinHandle<()>>,
    stats: WireStats,
}

impl WireServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// serving loop with `service`.
    pub fn bind<S: WireService + 'static>(
        addr: SocketAddr,
        config: ServerConfig,
        service: S,
    ) -> Result<WireServer, WireError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), LISTENER_TOKEN, false)?;
        let waker = poller.waker();
        let stop = Arc::new(AtomicBool::new(false));
        let stats = WireStats::new();
        let serving = ServeLoop {
            listener,
            listening: true,
            accept_retry: None,
            poller,
            shared: LoopShared {
                mirror: TeleMirror::new(config.telemetry.clone(), Instant::now()),
                config,
                stats: stats.clone(),
            },
            service,
            stop: Arc::clone(&stop),
            stopping: false,
            conns: BTreeMap::new(),
            next_conn: 1,
            read_buf: vec![0u8; 64 * 1024],
            delivered: Vec::new(),
            outbox: Outbox::new(),
            touched: Vec::new(),
        };
        let handle = thread::Builder::new()
            .name("wire-server".into())
            .spawn(move || serving.run())
            .map_err(WireError::Io)?;
        Ok(WireServer {
            local_addr,
            stop,
            waker,
            handle: Some(handle),
            stats,
        })
    }

    /// The bound address (reports the ephemeral port when bound to 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The server's traffic counters.
    pub fn stats(&self) -> WireStats {
        self.stats.clone()
    }

    /// Stops the serving loop (after its drain grace) and joins it.
    /// Returns `false` if the serving thread had panicked.
    pub fn stop(&mut self) -> bool {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        match self.handle.take() {
            Some(h) => h.join().is_ok(),
            None => true,
        }
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// What queueing and flushing need besides the connection itself, kept
/// apart from the connection map so both can be borrowed at once.
struct LoopShared {
    config: ServerConfig,
    stats: WireStats,
    mirror: TeleMirror,
}

impl LoopShared {
    /// Frames `payload` for `conn` into its output buffer.
    fn queue(&self, id: ConnId, conn: &mut ServerConn, kind: u8, payload: &[u8]) {
        let seq = conn.next_seq;
        conn.next_seq += 1;
        let frames = encode_message(
            &mut conn.outbuf,
            &self.config.integrity,
            self.config.max_chunk,
            &self.config.injector,
            NodeId::new(id.raw()),
            SimTime::from_micros(self.mirror.now_us()),
            &self.stats,
            kind,
            seq,
            payload,
        );
        self.mirror.instant(Phase::WireTx, id.raw(), seq);
        self.mirror.tx_frames.add(frames as u64);
        conn.unpublished.tx_frames += frames as u64;
    }

    /// Writes `conn`'s pending output until the socket would block.
    fn flush(&self, conn: &mut ServerConn) {
        while conn.open && conn.pending_out() > 0 {
            match conn.stream.write(&conn.outbuf[conn.out_pos..]) {
                Ok(0) => conn.open = false,
                Ok(n) => {
                    conn.out_pos += n;
                    WireStats::add(&self.stats.inner.tx_bytes, n as u64);
                    self.mirror.tx_bytes.add(n as u64);
                    conn.unpublished.tx_bytes += n as u64;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => conn.open = false,
            }
        }
        if conn.out_pos == conn.outbuf.len() {
            conn.outbuf.clear();
            conn.out_pos = 0;
        } else if conn.out_pos > 64 * 1024 {
            conn.outbuf.drain(..conn.out_pos);
            conn.out_pos = 0;
        }
    }
}

/// Puts `conn` on this turn's touched list, once.
fn mark_touched(id: ConnId, conn: &mut ServerConn, touched: &mut Vec<ConnId>) {
    if !conn.touched {
        conn.touched = true;
        touched.push(id);
    }
}

/// The serving loop's state; [`ServeLoop::run`] is the thread body.
struct ServeLoop<S> {
    listener: TcpListener,
    /// Whether the listener is in the poll set (not while stopping, nor
    /// while backing off after a failed accept).
    listening: bool,
    /// When a listener that failed to accept goes back into the poll set.
    accept_retry: Option<Instant>,
    poller: Poller,
    shared: LoopShared,
    service: S,
    /// The stop request as [`WireServer::stop`] publishes it.
    stop: Arc<AtomicBool>,
    /// The stop request as the loop acts on it: seen *before* this turn's
    /// `poll`, or made by the service itself. Whoever sets `stop` from
    /// outside publishes its last words first (the plane's `Shutdown`
    /// broadcast), so the loop must not leave on a flag that was raised
    /// after the poll that would have relayed them.
    stopping: bool,
    conns: BTreeMap<ConnId, ServerConn>,
    next_conn: u64,
    read_buf: Vec<u8>,
    /// Scratch: messages decoded from one connection's read, with seqs.
    delivered: Vec<(WireMsg, u64)>,
    outbox: Outbox,
    /// Connections read, queued for or writable this turn: the only ones
    /// [`settle`](ServeLoop::settle) looks at.
    touched: Vec<ConnId>,
}

impl<S: WireService> ServeLoop<S> {
    fn run(mut self) {
        let waker = self.poller.waker();
        self.service.attach(waker.clone());
        // Anything published before the service had its waker is drained
        // by a first turn that does not wait.
        waker.wake();
        let mut ready: Vec<Ready> = Vec::new();
        let mut drain_deadline: Option<Instant> = None;
        loop {
            let now = Instant::now();
            let timeout = [self.accept_retry, drain_deadline]
                .into_iter()
                .flatten()
                .map(|at| at.saturating_duration_since(now))
                .fold(HOUSEKEEPING, Duration::min);
            if self.poller.wait(timeout, &mut ready).is_err() {
                // The epoll descriptor itself is broken; there is nothing
                // left to wait on.
                break;
            }
            WireStats::add(&self.shared.stats.inner.loop_turns, 1);
            self.stopping |= self.stop.load(Ordering::SeqCst);

            // 1. Whatever is ready. The waker is re-armed before `poll`
            //    drains (the arm-before-drain rule, see the module docs).
            for r in &ready {
                match r.token {
                    WAKE_TOKEN => self.poller.rearm(),
                    LISTENER_TOKEN => self.accept_ready(),
                    token => self.conn_ready(ConnId(token), r.readable),
                }
            }
            if self.accept_retry.is_some_and(|at| Instant::now() >= at) {
                self.accept_retry = None;
                self.listen();
                self.accept_ready();
            }

            // 2. The service's turn, 3. its output framed, 4. written. A
            //    disconnect callback may queue more, hence the loop.
            self.service.poll(&mut self.outbox);
            loop {
                self.queue_outbox();
                self.settle();
                if self.outbox.queue.is_empty() {
                    break;
                }
            }

            // 5. Stop once drained (or when the grace period expires).
            //    Connections with output left are waited for on write
            //    readiness, like any other turn.
            if self.stopping {
                self.unlisten();
                self.accept_retry = None;
                let deadline = *drain_deadline
                    .get_or_insert_with(|| Instant::now() + self.shared.config.drain_grace);
                let drained = self.conns.values().all(|c| c.pending_out() == 0);
                if drained || Instant::now() >= deadline {
                    break;
                }
            }
        }
        for conn in self.conns.values() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    /// Puts the listener (back) into the poll set; a failure is retried
    /// like a failed accept.
    fn listen(&mut self) {
        self.listening = self
            .poller
            .add(self.listener.as_raw_fd(), LISTENER_TOKEN, false)
            .is_ok();
        if !self.listening {
            self.accept_retry = Some(Instant::now() + ACCEPT_BACKOFF);
        }
    }

    /// Takes the listener out of the poll set, if it is in it.
    fn unlisten(&mut self) {
        if self.listening {
            let _ = self.poller.remove(self.listener.as_raw_fd());
            self.listening = false;
        }
    }

    /// Accepts every pending connection.
    fn accept_ready(&mut self) {
        while self.listening {
            let stream = match accept(&self.listener) {
                Ok((stream, _peer)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Out of descriptors or memory: the connection stays
                    // queued and a level-triggered listener would report
                    // ready forever, so back off instead of spinning.
                    self.unlisten();
                    self.accept_retry = Some(Instant::now() + ACCEPT_BACKOFF);
                    break;
                }
            };
            let id = ConnId(self.next_conn);
            if stream.set_nonblocking(true).is_err()
                || self
                    .poller
                    .add(stream.as_raw_fd(), id.raw(), false)
                    .is_err()
            {
                continue;
            }
            self.next_conn += 1;
            let _ = stream.set_nodelay(true);
            self.conns.insert(
                id,
                ServerConn {
                    stream,
                    decoder: FrameDecoder::new(self.shared.config.integrity.clone()),
                    reassembler: Reassembler::new(),
                    prev_decode: DecodeStats::default(),
                    prev_reassembly: ReassemblyStats::default(),
                    outbuf: Vec::new(),
                    out_pos: 0,
                    next_seq: 0,
                    open: true,
                    polling_write: false,
                    touched: false,
                    unpublished: ConnTraffic::default(),
                },
            );
            let stats = &self.shared.stats.inner;
            WireStats::add(&stats.accepted, 1);
            WireStats::add(&stats.open, 1);
            if let Some(hub) = &self.shared.config.conn_stats {
                hub.absorb(id.raw(), &ConnTraffic::default(), true);
            }
            self.shared.mirror.connections.set(self.conns.len() as f64);
            self.shared.mirror.instant(Phase::WireConnect, id.raw(), 0);
            self.service.on_connect(id, &mut self.outbox);
            // A client's first message usually rides right behind its
            // connect: read it now, so its reply is queued ahead of
            // whatever this turn's `poll` broadcasts.
            self.conn_ready(id, true);
        }
    }

    /// A connection the poller reported: marked for this turn's
    /// [`settle`](ServeLoop::settle) (which flushes it) and, if
    /// `readable`, read dry with its completed messages delivered.
    fn conn_ready(&mut self, id: ConnId, readable: bool) {
        // Reaped earlier this turn: nothing to do.
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        mark_touched(id, conn, &mut self.touched);
        let shared = &self.shared;
        while readable && conn.open {
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) => conn.open = false,
                Ok(n) => {
                    WireStats::add(&shared.stats.inner.rx_bytes, n as u64);
                    shared.mirror.rx_bytes.add(n as u64);
                    conn.unpublished.rx_bytes += n as u64;
                    conn.decoder.extend(&self.read_buf[..n]);
                    // A short read emptied the socket; if more arrives the
                    // (level-triggered) poller says so, which saves the
                    // read that would only return `WouldBlock`.
                    if n < self.read_buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => conn.open = false,
            }
        }
        while let Some(frame) = conn.decoder.next_frame() {
            if let Some(msg) = conn.reassembler.push(frame) {
                if let Ok(decoded) = WireMsg::decode(msg.kind, &msg.payload) {
                    self.delivered.push((decoded, msg.seq));
                }
            }
        }
        let decode_now = conn.decoder.stats();
        let rx_frames = decode_now.frames - conn.prev_decode.frames;
        conn.unpublished.rx_frames += rx_frames;
        conn.unpublished.checksum_rejects += decode_now.rejected - conn.prev_decode.rejected;
        conn.unpublished.resyncs += decode_now.resyncs - conn.prev_decode.resyncs;
        shared
            .stats
            .absorb_decode_delta(&mut conn.prev_decode, decode_now);
        shared
            .stats
            .absorb_reassembly_delta(&mut conn.prev_reassembly, conn.reassembler.stats());
        // The registry may be shared with clients that count their own
        // frames in, so this turn's frames are added, never set.
        shared.mirror.rx_frames.add(rx_frames);
        for (msg, seq) in self.delivered.drain(..) {
            shared.mirror.instant(Phase::WireRx, id.raw(), seq);
            self.service.on_message(id, msg, &mut self.outbox);
        }
    }

    /// Frames everything in the outbox into connection output buffers.
    fn queue_outbox(&mut self) {
        if std::mem::take(&mut self.outbox.stop) {
            self.stopping = true;
        }
        // Taken and handed back so the outbox keeps its capacity.
        let mut queue = std::mem::take(&mut self.outbox.queue);
        for (target, msg) in queue.drain(..) {
            let payload = msg.encode();
            let kind = msg.kind();
            let targets = match target {
                Some(id) => self.conns.range_mut(id..=id),
                None => self.conns.range_mut(..),
            };
            for (&id, conn) in targets {
                if !conn.open {
                    continue;
                }
                self.shared.queue(id, conn, kind, &payload);
                mark_touched(id, conn, &mut self.touched);
            }
        }
        self.outbox.queue = queue;
    }

    /// Flushes, re-registers, accounts for and, if closed, reaps every
    /// connection touched this turn.
    fn settle(&mut self) {
        // Taken and handed back for the same reason as the outbox queue;
        // nothing touches a connection while this runs.
        let mut touched = std::mem::take(&mut self.touched);
        for id in touched.drain(..) {
            let Some(conn) = self.conns.get_mut(&id) else {
                continue;
            };
            conn.touched = false;
            self.shared.flush(conn);
            let want_write = conn.pending_out() > 0;
            if conn.open && want_write != conn.polling_write {
                conn.polling_write = want_write;
                if self
                    .poller
                    .modify(conn.stream.as_raw_fd(), id.raw(), want_write)
                    .is_err()
                {
                    conn.open = false;
                }
            }
            let open = conn.open;
            if let Some(hub) = &self.shared.config.conn_stats {
                if !open || conn.unpublished != ConnTraffic::default() {
                    hub.absorb(id.raw(), &conn.unpublished, open);
                    conn.unpublished = ConnTraffic::default();
                }
            }
            if !open {
                // Dropping the stream closes it, which also takes it out
                // of the poll set.
                self.conns.remove(&id);
                let stats = &self.shared.stats.inner;
                let open_now = stats.open.load(Ordering::Relaxed).saturating_sub(1);
                stats.open.store(open_now, Ordering::Relaxed);
                self.shared.mirror.connections.set(self.conns.len() as f64);
                self.service.on_disconnect(id, &mut self.outbox);
            }
        }
        self.touched = touched;
    }
}

/// Configuration of a [`WireClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Frame checksum flavour — must match the server's.
    pub integrity: Integrity,
    /// Chunk payload size for outbound messages.
    pub max_chunk: usize,
    /// How long [`WireClient::connect`] keeps retrying the dial.
    pub connect_timeout: Duration,
    /// Wire fault injector for outbound frames (disabled by default).
    pub injector: FaultInjector,
    /// Node identity used for fault rolls and telemetry tracks.
    pub node: NodeId,
    /// Telemetry handle for counters and `wire.*` instants.
    pub telemetry: Telemetry,
}

impl ClientConfig {
    /// Defaults: 16 KiB chunks, 5 s connect timeout, no faults,
    /// telemetry off, node 0.
    pub fn new(integrity: Integrity) -> ClientConfig {
        ClientConfig {
            integrity,
            max_chunk: DEFAULT_CHUNK,
            connect_timeout: Duration::from_secs(5),
            injector: FaultInjector::disabled(),
            node: NodeId::new(0),
            telemetry: Telemetry::disabled(),
        }
    }
}

struct ClientWriter {
    stream: TcpStream,
    next_seq: u64,
    /// Scratch: the frames of the message being sent, back to back.
    buf: Vec<u8>,
}

/// A PNA-side direct channel: one TCP connection to the headend with a
/// background reader thread decoding inbound messages onto a channel.
pub struct WireClient {
    writer: Mutex<ClientWriter>,
    rx: Receiver<WireMsg>,
    stop: Arc<AtomicBool>,
    reader: Option<JoinHandle<()>>,
    stats: WireStats,
    config: ClientConfig,
    start: Instant,
    mirror: TeleMirror,
}

impl WireClient {
    /// Dials `addr`, retrying until `config.connect_timeout` expires
    /// (the headend may still be binding when a PNA process starts).
    pub fn connect(addr: SocketAddr, config: ClientConfig) -> Result<WireClient, WireError> {
        let start = Instant::now();
        let deadline = start + config.connect_timeout;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) => {
                    if Instant::now() >= deadline {
                        return Err(WireError::Io(e));
                    }
                    thread::sleep(Duration::from_millis(20));
                }
            }
        };
        let _ = stream.set_nodelay(true);
        let reader_stream = stream.try_clone()?;
        let stats = WireStats::new();
        WireStats::add(&stats.inner.accepted, 1);
        WireStats::add(&stats.inner.open, 1);
        let mirror = TeleMirror::new(config.telemetry.clone(), start);
        mirror.instant(Phase::WireConnect, config.node.raw(), 0);
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = sync::unbounded();
        let reader = {
            let stop = Arc::clone(&stop);
            let stats = stats.clone();
            let mirror = mirror.clone();
            let integrity = config.integrity.clone();
            let node = config.node;
            thread::Builder::new()
                .name("wire-client-reader".into())
                .spawn(move || {
                    read_loop(reader_stream, integrity, node, tx, stop, stats, mirror);
                })
                .map_err(WireError::Io)?
        };
        Ok(WireClient {
            writer: Mutex::named(
                ClientWriter {
                    stream,
                    next_seq: 0,
                    buf: Vec::new(),
                },
                "wire.client.writer",
            ),
            rx,
            stop,
            reader: Some(reader),
            stats,
            config,
            start,
            mirror,
        })
    }

    /// Encodes and writes `msg`. Returns `false` once the connection is
    /// gone (callers treat that like a dropped channel).
    pub fn send(&self, msg: &WireMsg) -> bool {
        if self.stop.load(Ordering::SeqCst) {
            return false;
        }
        let payload = msg.encode();
        let mut guard = self.writer.lock();
        let w = &mut *guard;
        let seq = w.next_seq;
        w.next_seq += 1;
        w.buf.clear();
        let frames = encode_message(
            &mut w.buf,
            &self.config.integrity,
            self.config.max_chunk,
            &self.config.injector,
            self.config.node,
            SimTime::from_micros(self.start.elapsed().as_micros() as u64),
            &self.stats,
            msg.kind(),
            seq,
            &payload,
        );
        self.mirror
            .instant(Phase::WireTx, self.config.node.raw(), seq);
        if w.stream.write_all(&w.buf).is_err() {
            return false;
        }
        WireStats::add(&self.stats.inner.tx_bytes, w.buf.len() as u64);
        self.mirror.tx_bytes.add(w.buf.len() as u64);
        self.mirror.tx_frames.add(frames as u64);
        true
    }

    /// The inbound message channel (fed by the reader thread; closes
    /// when the connection dies). The receiver is std's `mpsc` one, which
    /// is not `Sync`, so neither is a `WireClient`: one thread at a time
    /// reads a connection's replies.
    pub fn receiver(&self) -> &Receiver<WireMsg> {
        &self.rx
    }

    /// The client's traffic counters.
    pub fn stats(&self) -> WireStats {
        self.stats.clone()
    }

    /// True once the reader thread has observed EOF or a socket error.
    pub fn is_closed(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Signals the connection to wind down from a shared (`&self`)
    /// handle: stops new sends, shuts the socket so the reader thread's
    /// pending read fails fast, and lets the inbound channel close. Use
    /// when the client sits behind an `Arc`; [`close`](WireClient::close)
    /// (or drop) still joins the reader afterwards.
    pub fn request_close(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let w = self.writer.lock();
        let _ = w.stream.shutdown(Shutdown::Both);
    }

    /// Shuts the socket down and joins the reader thread.
    pub fn close(&mut self) {
        self.request_close();
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WireClient {
    fn drop(&mut self) {
        self.close();
    }
}

/// The client reader thread: socket bytes → frames → messages → channel.
/// It blocks in `read` with no timeout; [`WireClient::request_close`]
/// shuts the socket down, which is what ends a read on an idle link.
fn read_loop(
    mut stream: TcpStream,
    integrity: Integrity,
    node: NodeId,
    tx: sync::Sender<WireMsg>,
    stop: Arc<AtomicBool>,
    stats: WireStats,
    mirror: TeleMirror,
) {
    let mut decoder = FrameDecoder::new(integrity);
    let mut reassembler = Reassembler::new();
    let mut prev_decode = DecodeStats::default();
    let mut prev_reassembly = ReassemblyStats::default();
    let mut buf = vec![0u8; 64 * 1024];
    while !stop.load(Ordering::SeqCst) {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                WireStats::add(&stats.inner.rx_bytes, n as u64);
                mirror.rx_bytes.add(n as u64);
                decoder.extend(&buf[..n]);
                let mut delivered = Vec::new();
                while let Some(frame) = decoder.next_frame() {
                    mirror.rx_frames.inc();
                    if let Some(msg) = reassembler.push(frame) {
                        if let Ok(decoded) = WireMsg::decode(msg.kind, &msg.payload) {
                            delivered.push((decoded, msg.seq));
                        }
                    }
                }
                // Publish counters before handing messages out, so a
                // receiver that reads stats right after a recv sees them.
                stats.absorb_decode_delta(&mut prev_decode, decoder.stats());
                stats.absorb_reassembly_delta(&mut prev_reassembly, reassembler.stats());
                for (decoded, seq) in delivered {
                    mirror.instant(Phase::WireRx, node.raw(), seq);
                    if tx.send(decoded).is_err() {
                        stop.store(true, Ordering::SeqCst);
                        break;
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    stop.store(true, Ordering::SeqCst);
    let open = stats.inner.open.load(Ordering::Relaxed).saturating_sub(1);
    stats.inner.open.store(open, Ordering::Relaxed);
}

/// Accepts one pending connection. Unit tests can make it fail on their
/// own server's serving thread (`tests::FAIL_ACCEPT`), which is how the
/// loop's back-off is exercised without exhausting descriptors.
fn accept(listener: &TcpListener) -> io::Result<(TcpStream, SocketAddr)> {
    #[cfg(test)]
    if tests::FAIL_ACCEPT.with(std::cell::Cell::get) {
        const EMFILE: i32 = 24;
        return Err(io::Error::from_raw_os_error(EMFILE));
    }
    listener.accept()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::WireMsg;
    use std::net::{IpAddr, Ipv4Addr};

    thread_local! {
        /// Set on a serving thread (by a test service's callback) to make
        /// that server's `accept` fail from then on.
        pub(super) static FAIL_ACCEPT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    fn loopback() -> SocketAddr {
        SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)
    }

    /// Echoes every message back to its sender.
    struct Echo;
    impl WireService for Echo {
        fn on_message(&mut self, conn: ConnId, msg: WireMsg, out: &mut Outbox) {
            out.send(conn, msg);
        }
    }

    fn client(addr: SocketAddr, integrity: Integrity) -> WireClient {
        WireClient::connect(addr, ClientConfig::new(integrity)).expect("connect")
    }

    #[test]
    fn echo_round_trip_over_loopback() {
        let mut server = WireServer::bind(
            loopback(),
            ServerConfig::new(Integrity::hmac(b"test-key")),
            Echo,
        )
        .expect("bind");
        let mut c = client(server.local_addr(), Integrity::hmac(b"test-key"));
        assert!(c.send(&WireMsg::Hello {
            proto: crate::message::PROTO_VERSION,
            epoch: 0,
            resume: None,
        }));
        let back = c
            .receiver()
            .recv_timeout(Duration::from_secs(5))
            .expect("echo");
        assert!(
            matches!(back, WireMsg::Hello { proto, .. } if proto == crate::message::PROTO_VERSION)
        );
        c.close();
        assert!(server.stop(), "serving thread exited cleanly");
    }

    /// A headend and its nodes on one telemetry handle, as in-process
    /// planes run them: `wire.rx.frames` sums the server's and the
    /// clients' frames in, and `wire.connections` is the server's count.
    #[test]
    fn a_shared_registry_sums_both_sides_and_counts_server_connections() {
        let tele = Telemetry::disabled();
        let integrity = Integrity::hmac(b"test-key");
        let mut config = ServerConfig::new(integrity.clone());
        config.telemetry = tele.clone();
        let mut server = WireServer::bind(loopback(), config, Echo).expect("bind");
        let mut clients: Vec<WireClient> = (0..2)
            .map(|_| {
                let mut config = ClientConfig::new(integrity.clone());
                config.telemetry = tele.clone();
                WireClient::connect(server.local_addr(), config).expect("connect")
            })
            .collect();
        let hello = WireMsg::Hello {
            proto: crate::message::PROTO_VERSION,
            epoch: 0,
            resume: None,
        };
        for c in &clients {
            for _ in 0..5 {
                assert!(c.send(&hello));
                c.receiver()
                    .recv_timeout(Duration::from_secs(5))
                    .expect("echo");
            }
        }
        let server_rx = server.stats().snapshot().rx_frames;
        let client_rx: u64 = clients.iter().map(|c| c.stats().snapshot().rx_frames).sum();
        assert_eq!((server_rx, client_rx), (10, 10));
        let reg = tele.registry();
        assert_eq!(reg.counter("wire.rx.frames").get(), server_rx + client_rx);
        assert_eq!(reg.gauge("wire.connections").get(), 2.0);

        // A closing client leaves the gauge to the server's reap.
        clients.pop().expect("two clients").close();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.stats().snapshot().open > 1 || reg.gauge("wire.connections").get() != 1.0 {
            assert!(
                Instant::now() < deadline,
                "gauge {} after one of two clients closed",
                reg.gauge("wire.connections").get()
            );
            thread::sleep(Duration::from_millis(5));
        }
        drop(clients);
        assert!(server.stop(), "serving thread exited cleanly");
    }

    fn signed_reset() -> oddci_core::messages::SignedMessage {
        use oddci_core::messages::{ControlMessage, ResetMessage, SignedMessage};
        use oddci_crypto::MessageAuthenticator;
        use oddci_types::{InstanceId, MessageId};
        SignedMessage::sign(
            ControlMessage::Reset(ResetMessage {
                id: MessageId::new(1),
                instance: InstanceId::new(1),
            }),
            &MessageAuthenticator::from_key(b"test-key"),
        )
    }

    #[test]
    fn large_broadcast_streams_in_many_chunks() {
        /// Broadcasts one big image blob at the first connection.
        struct Blast {
            sent: bool,
        }
        impl WireService for Blast {
            fn on_message(&mut self, _conn: ConnId, _msg: WireMsg, _out: &mut Outbox) {}
            fn on_connect(&mut self, _conn: ConnId, out: &mut Outbox) {
                if !self.sent {
                    self.sent = true;
                    out.broadcast(WireMsg::Broadcast {
                        signed: signed_reset(),
                        image: Some(vec![0xAB; 100_000]),
                    });
                }
            }
        }
        let mut config = ServerConfig::new(Integrity::Crc32);
        config.max_chunk = 4096;
        let mut server = WireServer::bind(loopback(), config, Blast { sent: false }).expect("bind");
        let mut c = client(server.local_addr(), Integrity::Crc32);
        let msg = c
            .receiver()
            .recv_timeout(Duration::from_secs(5))
            .expect("broadcast arrives");
        match msg {
            WireMsg::Broadcast { image, .. } => {
                assert_eq!(image.map(|i| i.len()), Some(100_000));
            }
            other => panic!("unexpected {other:?}"),
        }
        let snap = c.stats().snapshot();
        assert!(snap.multi_chunk_rx >= 1, "blob arrived in many frames");
        let server_snap = server.stats().snapshot();
        assert!(server_snap.multi_chunk_tx >= 1);
        c.close();
        server.stop();
    }

    #[test]
    fn several_clients_multiplex_one_server() {
        /// Replies to each hello with the sender's connection number.
        struct Who;
        impl WireService for Who {
            fn on_message(&mut self, conn: ConnId, _msg: WireMsg, out: &mut Outbox) {
                out.send(
                    conn,
                    WireMsg::HelloAck {
                        node: NodeId::new(conn.raw()),
                        epoch: 1,
                    },
                );
            }
        }
        let mut server =
            WireServer::bind(loopback(), ServerConfig::new(Integrity::Crc32), Who).expect("bind");
        let addr = server.local_addr();
        let mut clients: Vec<WireClient> = (0..4).map(|_| client(addr, Integrity::Crc32)).collect();
        let mut seen = std::collections::BTreeSet::new();
        for c in &clients {
            assert!(c.send(&WireMsg::Hello {
                proto: crate::message::PROTO_VERSION,
                epoch: 0,
                resume: None,
            }));
            match c
                .receiver()
                .recv_timeout(Duration::from_secs(5))
                .expect("ack")
            {
                WireMsg::HelloAck { node, .. } => {
                    seen.insert(node.raw());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(seen.len(), 4, "each client got a distinct identity");
        for c in &mut clients {
            c.close();
        }
        assert!(server.stop());
    }

    #[test]
    fn shutdown_broadcast_drains_before_exit() {
        /// Broadcasts shutdown and stops the server from inside poll.
        struct OneShot {
            fired: bool,
            conns: usize,
        }
        impl WireService for OneShot {
            fn on_connect(&mut self, _conn: ConnId, _out: &mut Outbox) {
                self.conns += 1;
            }
            fn on_message(&mut self, _conn: ConnId, _msg: WireMsg, _out: &mut Outbox) {}
            fn poll(&mut self, out: &mut Outbox) {
                if self.conns >= 2 && !self.fired {
                    self.fired = true;
                    out.broadcast(WireMsg::Shutdown);
                    out.request_stop();
                }
            }
        }
        let mut server = WireServer::bind(
            loopback(),
            ServerConfig::new(Integrity::Crc32),
            OneShot {
                fired: false,
                conns: 0,
            },
        )
        .expect("bind");
        let addr = server.local_addr();
        let mut a = client(addr, Integrity::Crc32);
        let mut b = client(addr, Integrity::Crc32);
        for c in [&a, &b] {
            let msg = c
                .receiver()
                .recv_timeout(Duration::from_secs(5))
                .expect("shutdown reaches the client even as the server exits");
            assert!(matches!(msg, WireMsg::Shutdown));
        }
        assert!(server.stop());
        a.close();
        b.close();
    }

    #[test]
    fn corrupting_injector_on_loopback_is_survivable() {
        use oddci_faults::{FaultClass, FaultPlan, FaultSpec};
        let mut config = ServerConfig::new(Integrity::Crc32);
        config.injector = FaultInjector::new(
            FaultPlan::none().with(FaultSpec::new(FaultClass::FrameReorder, 1.0)),
            11,
        );
        config.max_chunk = 64;
        struct Echo2;
        impl WireService for Echo2 {
            fn on_message(&mut self, conn: ConnId, msg: WireMsg, out: &mut Outbox) {
                out.send(conn, msg);
            }
        }
        let mut server = WireServer::bind(loopback(), config, Echo2).expect("bind");
        let mut c = client(server.local_addr(), Integrity::Crc32);
        // A message spanning several chunks gets its first frames swapped
        // by the injector on every send; reassembly must still deliver.
        let big = WireMsg::Broadcast {
            signed: signed_reset(),
            image: Some(vec![0x5A; 400]),
        };
        assert!(c.send(&big));
        let echoed = c
            .receiver()
            .recv_timeout(Duration::from_secs(5))
            .expect("reordered frames still reassemble");
        match echoed {
            WireMsg::Broadcast { image, .. } => assert_eq!(image, Some(vec![0x5A; 400])),
            other => panic!("unexpected {other:?}"),
        }
        assert!(server.stats().snapshot().mangled_reorder >= 1);
        c.close();
        server.stop();
    }

    // ------------------------------------------------------------------
    // The readiness-driven loop: idleness, wakes, stopping, accept errors
    // ------------------------------------------------------------------

    fn hello() -> WireMsg {
        WireMsg::Hello {
            proto: crate::message::PROTO_VERSION,
            epoch: 0,
            resume: None,
        }
    }

    /// Polls `cond` until it holds (5 s at most).
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// A service whose replies are made by other threads: they push onto
    /// `replies` and wake; `poll` relays to the connection that said
    /// hello. The test learns the waker and each hello through channels.
    struct Relay {
        replies: Receiver<WireMsg>,
        waker_out: sync::Sender<Waker>,
        seen: sync::Sender<()>,
        conn: Option<ConnId>,
    }

    impl WireService for Relay {
        fn attach(&mut self, waker: Waker) {
            let _ = self.waker_out.send(waker);
        }
        fn on_message(&mut self, conn: ConnId, _msg: WireMsg, _out: &mut Outbox) {
            self.conn = Some(conn);
            let _ = self.seen.send(());
        }
        fn poll(&mut self, out: &mut Outbox) {
            let Some(conn) = self.conn else { return };
            while let Ok(msg) = self.replies.try_recv() {
                out.send(conn, msg);
            }
        }
    }

    /// A relay server, one client that has said hello, the reply channel
    /// and the loop's waker.
    fn relay() -> (WireServer, WireClient, sync::Sender<WireMsg>, Waker) {
        let (reply_tx, replies) = sync::unbounded();
        let (waker_out, waker_in) = sync::unbounded();
        let (seen, seen_in) = sync::unbounded();
        let server = WireServer::bind(
            loopback(),
            ServerConfig::new(Integrity::Crc32),
            Relay {
                replies,
                waker_out,
                seen,
                conn: None,
            },
        )
        .expect("bind");
        let c = client(server.local_addr(), Integrity::Crc32);
        assert!(c.send(&hello()));
        seen_in
            .recv_timeout(Duration::from_secs(5))
            .expect("the service saw the hello");
        let waker = waker_in
            .recv_timeout(Duration::from_secs(5))
            .expect("the service was attached");
        (server, c, reply_tx, waker)
    }

    #[test]
    fn idle_server_with_open_connections_barely_turns() {
        let mut server =
            WireServer::bind(loopback(), ServerConfig::new(Integrity::Crc32), Echo).expect("bind");
        let mut clients: Vec<WireClient> = (0..4)
            .map(|_| client(server.local_addr(), Integrity::Crc32))
            .collect();
        let stats = server.stats();
        wait_until("4 accepts", || stats.snapshot().accepted == 4);
        let before = stats.snapshot().loop_turns;
        thread::sleep(Duration::from_secs(1));
        let turns = stats.snapshot().loop_turns - before;
        assert!(
            turns <= 30,
            "an idle loop wakes for housekeeping only, not {turns} times a second"
        );
        for c in &mut clients {
            c.close();
        }
        assert!(server.stop());
    }

    #[test]
    fn a_reply_made_by_another_thread_leaves_as_soon_as_it_wakes_the_loop() {
        let (mut server, mut c, reply_tx, waker) = relay();
        // A lost wake would cost the housekeeping ceiling (100 ms) every
        // time; a late-scheduled thread on a loaded box costs one round.
        let mut best = Duration::MAX;
        for round in 0..5u64 {
            // No socket traffic while the "worker" makes its reply.
            thread::sleep(Duration::from_millis(20));
            reply_tx
                .send(WireMsg::HelloAck {
                    node: NodeId::new(round),
                    epoch: 0,
                })
                .expect("service alive");
            let woke = Instant::now();
            waker.wake();
            let msg = c
                .receiver()
                .recv_timeout(Duration::from_secs(5))
                .expect("reply arrives");
            best = best.min(woke.elapsed());
            assert!(matches!(msg, WireMsg::HelloAck { node, .. } if node.raw() == round));
        }
        assert!(
            best < Duration::from_millis(5),
            "fastest of 5 pushed replies took {best:?} after the wake"
        );
        c.close();
        assert!(server.stop());
    }

    #[test]
    fn back_to_back_requests_are_not_paced() {
        const ROUNDS: usize = 200;
        let mut server =
            WireServer::bind(loopback(), ServerConfig::new(Integrity::Crc32), Echo).expect("bind");
        let mut c = client(server.local_addr(), Integrity::Crc32);
        let mut trips = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let sent = Instant::now();
            assert!(c.send(&hello()));
            c.receiver()
                .recv_timeout(Duration::from_secs(5))
                .expect("echo");
            trips.push(sent.elapsed());
        }
        // The first trip waits for the accept; the rest are back to back.
        // A low percentile, so that other tests running beside this one on
        // a small box cannot fail it; any pace or timer in the intake path
        // shows in every trip.
        let mut trips = trips.split_off(1);
        trips.sort();
        let p10 = trips[trips.len() / 10];
        assert!(
            p10 < Duration::from_micros(150),
            "10th-percentile closed-loop round trip took {p10:?}: intake is paced"
        );
        let turns = server.stats().snapshot().loop_turns;
        assert!(
            turns < ROUNDS as u64 * 4,
            "the loop spins: {turns} turns for {ROUNDS} requests"
        );
        c.close();
        assert!(server.stop());
    }

    #[test]
    fn sixteen_closed_loop_clients_cost_at_most_a_turn_per_request() {
        const CLIENTS: u64 = 16;
        const ROUNDS: u64 = 50;
        let mut server =
            WireServer::bind(loopback(), ServerConfig::new(Integrity::Crc32), Echo).expect("bind");
        let addr = server.local_addr();
        let start = std::sync::Barrier::new(CLIENTS as usize);
        let start = &start;
        // Each client runs a closed loop of its own; they start together.
        let mut clients: Vec<WireClient> = thread::scope(|s| {
            let loops: Vec<_> = (0..CLIENTS)
                .map(|i| {
                    s.spawn(move || {
                        let c = client(addr, Integrity::Crc32);
                        start.wait();
                        for round in 0..ROUNDS {
                            let id = i * ROUNDS + round;
                            assert!(c.send(&WireMsg::HelloAck {
                                node: NodeId::new(id),
                                epoch: 0,
                            }));
                            match c.receiver().recv_timeout(Duration::from_secs(5)) {
                                Ok(WireMsg::HelloAck { node, .. }) => assert_eq!(node.raw(), id),
                                other => panic!("client {i}, round {round}: {other:?}"),
                            }
                        }
                        c
                    })
                })
                .collect();
            loops
                .into_iter()
                .map(|l| l.join().expect("client loop"))
                .collect()
        });
        let snap = server.stats().snapshot();
        let requests = CLIENTS * ROUNDS;
        assert_eq!(snap.rx_messages, requests);
        // A turn per request at worst, plus the accepts and housekeeping.
        assert!(
            snap.loop_turns <= requests + 50,
            "{} turns for {requests} requests",
            snap.loop_turns
        );
        for c in &mut clients {
            c.close();
        }
        assert!(server.stop());
    }

    /// 4 threads push 2 500 replies each, waking after every push, while
    /// the loop drains: every reply must reach the client.
    fn racing_wakes_deliver_every_reply() {
        const THREADS: u64 = 4;
        const EACH: u64 = 2_500;
        let (mut server, mut c, reply_tx, waker) = relay();
        let pushers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (reply_tx, waker) = (reply_tx.clone(), waker.clone());
                thread::spawn(move || {
                    for i in 0..EACH {
                        reply_tx
                            .send(WireMsg::HelloAck {
                                node: NodeId::new(t * EACH + i),
                                epoch: 0,
                            })
                            .expect("service alive");
                        waker.wake();
                    }
                })
            })
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        while seen.len() < (THREADS * EACH) as usize {
            match c.receiver().recv_timeout(Duration::from_secs(10)) {
                Ok(WireMsg::HelloAck { node, .. }) => assert!(seen.insert(node.raw())),
                other => panic!(
                    "{} of {} replies arrived, then {other:?}",
                    seen.len(),
                    THREADS * EACH
                ),
            }
        }
        for p in pushers {
            p.join().expect("pusher");
        }
        c.close();
        assert!(server.stop());
    }

    #[test]
    fn ten_thousand_racing_wakes_lose_no_reply() {
        racing_wakes_deliver_every_reply();
    }

    #[test]
    fn ten_thousand_racing_wakes_lose_no_reply_under_check() {
        // What ODDCI_CHECK=1 turns on: every wake and send is checked
        // against held locks, which shifts the timing of the race.
        oddci_check::enable();
        racing_wakes_deliver_every_reply();
        oddci_check::disable();
    }

    #[test]
    fn last_words_published_before_a_stop_still_go_out() {
        /// Relays `words` in `poll`. At the end of its first poll it plays
        /// the outside world at the worst moment — right after this turn's
        /// drain: publish the last words, raise the server's stop flag,
        /// wake (what `LiveOddci::shutdown` does with its `Shutdown`
        /// broadcast and `WireServer::stop`).
        struct LastWords {
            words: Receiver<WireMsg>,
            words_tx: sync::Sender<WireMsg>,
            stop_flag: Receiver<Arc<AtomicBool>>,
            waker: Option<Waker>,
        }
        impl WireService for LastWords {
            fn attach(&mut self, waker: Waker) {
                self.waker = Some(waker);
            }
            fn on_message(&mut self, _conn: ConnId, _msg: WireMsg, _out: &mut Outbox) {}
            fn poll(&mut self, out: &mut Outbox) {
                while let Ok(msg) = self.words.try_recv() {
                    out.broadcast(msg);
                }
                if let Ok(stop) = self.stop_flag.try_recv() {
                    let _ = self.words_tx.send(WireMsg::Shutdown);
                    stop.store(true, Ordering::SeqCst);
                    if let Some(waker) = &self.waker {
                        waker.wake();
                    }
                }
            }
        }
        let (words_tx, words) = sync::unbounded();
        let (stop_flag_tx, stop_flag) = sync::unbounded();
        let mut server = WireServer::bind(
            loopback(),
            ServerConfig::new(Integrity::Crc32),
            LastWords {
                words,
                words_tx,
                stop_flag,
                waker: None,
            },
        )
        .expect("bind");
        let mut c = client(server.local_addr(), Integrity::Crc32);
        let stats = server.stats();
        wait_until("the accept", || stats.snapshot().accepted == 1);
        stop_flag_tx
            .send(Arc::clone(&server.stop))
            .expect("service alive");
        server.waker.wake();
        let msg = c
            .receiver()
            .recv_timeout(Duration::from_secs(5))
            .expect("the goodbye precedes the close");
        assert!(matches!(msg, WireMsg::Shutdown));
        assert!(server.stop());
        c.close();
    }

    #[test]
    fn stop_on_an_idle_server_returns_at_once() {
        let mut server =
            WireServer::bind(loopback(), ServerConfig::new(Integrity::Crc32), Echo).expect("bind");
        let mut c = client(server.local_addr(), Integrity::Crc32);
        let stats = server.stats();
        wait_until("the accept", || stats.snapshot().accepted == 1);
        let begin = Instant::now();
        assert!(server.stop());
        let took = begin.elapsed();
        assert!(took < Duration::from_millis(50), "stop took {took:?}");
        c.close();
    }

    /// CPU time this thread has used so far, from `/proc` (10 ms ticks).
    fn thread_cpu() -> Duration {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("procfs");
        let after_comm = &stat[stat.rfind(')').expect("comm field") + 2..];
        let ticks: u64 = after_comm
            .split(' ')
            .skip(11)
            .take(2)
            .map(|f| f.parse::<u64>().expect("utime/stime"))
            .sum();
        Duration::from_millis(ticks * 10)
    }

    #[test]
    fn stop_with_unsent_output_waits_out_the_grace_without_spinning() {
        const GRACE: Duration = Duration::from_millis(300);
        /// Floods the first connection, and reports the serving thread's
        /// CPU time from the stop request to the end of the loop.
        struct Flood {
            stopping: Arc<AtomicBool>,
            cpu_at_stop: Option<Duration>,
            cpu_spent: sync::Sender<Duration>,
        }
        impl WireService for Flood {
            fn on_connect(&mut self, _conn: ConnId, out: &mut Outbox) {
                // Far more than loopback's socket buffers absorb, so well
                // over 1 MB stays in the connection's output buffer.
                out.broadcast(WireMsg::Broadcast {
                    signed: signed_reset(),
                    image: Some(vec![0xCD; 16 << 20]),
                });
            }
            fn on_message(&mut self, _conn: ConnId, _msg: WireMsg, _out: &mut Outbox) {}
            fn poll(&mut self, _out: &mut Outbox) {
                if self.cpu_at_stop.is_none() && self.stopping.load(Ordering::SeqCst) {
                    self.cpu_at_stop = Some(thread_cpu());
                }
            }
        }
        impl Drop for Flood {
            // Runs on the serving thread, when the loop returns.
            fn drop(&mut self) {
                if let Some(at_stop) = self.cpu_at_stop {
                    let _ = self.cpu_spent.send(thread_cpu() - at_stop);
                }
            }
        }
        let stopping = Arc::new(AtomicBool::new(false));
        let (cpu_spent, cpu_spent_in) = sync::unbounded();
        let mut config = ServerConfig::new(Integrity::Crc32);
        config.drain_grace = GRACE;
        let mut server = WireServer::bind(
            loopback(),
            config,
            Flood {
                stopping: Arc::clone(&stopping),
                cpu_at_stop: None,
                cpu_spent,
            },
        )
        .expect("bind");
        // A peer that connects and never reads.
        let peer = TcpStream::connect(server.local_addr()).expect("connect");
        let stats = server.stats();
        wait_until("the flood to hit the socket buffers", || {
            let before = stats.snapshot().tx_bytes;
            thread::sleep(Duration::from_millis(20));
            before > 0 && stats.snapshot().tx_bytes == before
        });
        let turns_before = stats.snapshot().loop_turns;
        stopping.store(true, Ordering::SeqCst);
        let begin = Instant::now();
        assert!(server.stop());
        let took = begin.elapsed();
        assert!(took >= GRACE, "gave up on the peer after only {took:?}");
        assert!(
            took < GRACE + Duration::from_millis(150),
            "outlived the grace: {took:?}"
        );
        let turns = stats.snapshot().loop_turns - turns_before;
        assert!(turns <= 20, "{turns} loop turns while waiting for EPOLLOUT");
        let cpu = cpu_spent_in
            .recv_timeout(Duration::from_secs(5))
            .expect("the service was dropped by the serving thread");
        assert!(
            cpu < Duration::from_millis(20),
            "the serving thread burned {cpu:?} waiting"
        );
        drop(peer);
    }

    #[test]
    fn a_failing_accept_backs_off_instead_of_spinning() {
        /// Breaks its own server's accept as soon as the loop starts.
        struct Jammed;
        impl WireService for Jammed {
            fn attach(&mut self, _waker: Waker) {
                FAIL_ACCEPT.with(|f| f.set(true));
            }
            fn on_message(&mut self, _conn: ConnId, _msg: WireMsg, _out: &mut Outbox) {}
        }
        let mut server = WireServer::bind(loopback(), ServerConfig::new(Integrity::Crc32), Jammed)
            .expect("bind");
        // The connection completes in the kernel and stays in the accept
        // queue, so the listener reads ready for as long as it is polled.
        let peer = TcpStream::connect(server.local_addr()).expect("connect");
        let stats = server.stats();
        wait_until("the first failed accepts", || {
            stats.snapshot().loop_turns >= 3
        });
        let before = stats.snapshot().loop_turns;
        thread::sleep(Duration::from_secs(1));
        let turns = stats.snapshot().loop_turns - before;
        assert_eq!(stats.snapshot().accepted, 0);
        assert!(
            (10..=1_000).contains(&turns),
            "a failing accept is retried, at a bounded rate: {turns} turns in 1 s"
        );
        let begin = Instant::now();
        assert!(server.stop());
        assert!(begin.elapsed() < Duration::from_millis(50));
        drop(peer);
    }

    #[test]
    fn closing_an_idle_client_does_not_wait_for_a_read_timeout() {
        let mut server =
            WireServer::bind(loopback(), ServerConfig::new(Integrity::Crc32), Echo).expect("bind");
        let mut c = client(server.local_addr(), Integrity::Crc32);
        let stats = server.stats();
        wait_until("the accept", || stats.snapshot().accepted == 1);
        // The reader thread is parked in a read with no timeout by now.
        thread::sleep(Duration::from_millis(20));
        let begin = Instant::now();
        c.close();
        let took = begin.elapsed();
        assert!(took < Duration::from_millis(50), "close took {took:?}");
        assert!(c.reader.is_none(), "close joined the reader thread");
        assert!(c.is_closed());
        assert!(server.stop());
    }
}
