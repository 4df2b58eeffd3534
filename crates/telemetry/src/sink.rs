//! The streaming trace sink: events flow to disk *while the run executes*.
//!
//! The ring [`crate::Recorder`] keeps only the newest window of events,
//! which is exactly wrong for million-node sweeps: the early wakeup/boot
//! phases the `W = 1.5·I/β` model check needs are the first to be
//! overwritten. A [`TraceSink`] receives every event at emission time and
//! persists it out-of-band, with three hard rules:
//!
//! 1. **Hot paths never block.** [`TraceSink::offer`] is a bounded,
//!    non-blocking enqueue: when the sink's lane is full the event is
//!    *dropped and counted*, never waited on. Backpressure is expressed
//!    as loss accounting, not latency.
//! 2. **Loss is exact.** After a flush (or [`StreamingSink::finish`]),
//!    `emitted == persisted + dropped` holds as an identity, and drops
//!    are broken down per [`Phase`].
//! 3. **Writers don't contend.** Events are spread over independent
//!    lanes (per-shard handles pin a lane via
//!    [`crate::Telemetry::with_sink_lane`]), so two headend shards never
//!    touch the same queue mutex, and every lane has its own writer
//!    thread, which encodes its blocks privately and contends only on
//!    the brief file append.
//!
//! [`StreamingSink`] is the concrete implementation and writes exactly
//! one thing: the compact [`crate::binary`] block format, the only one
//! measured to keep up with a million-node sweep (EXPERIMENTS.md X9/X11).
//! JSONL and Chrome `trace_event` artifacts are derived from that file
//! offline (`oddci trace convert`, [`crate::binary::convert`]); this
//! module knows lanes and binary blocks and no text format.

use crate::binary;
use crate::event::{Event, EventKind, Phase};
use oddci_check::sync::{Monitor, Mutex};
use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Default per-lane queue capacity (events, not bytes).
pub const DEFAULT_LANE_CAPACITY: usize = 1 << 16;

/// Monotone counters describing a sink's traffic so far. The invariant
/// `emitted == persisted + dropped` holds exactly once the sink is idle
/// (after [`TraceSink::flush`] or [`StreamingSink::finish`]); mid-run,
/// `emitted - persisted - dropped` is the number of events still queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SinkStats {
    /// Events handed to [`TraceSink::offer`].
    pub emitted: u64,
    /// Events rejected because a lane was full (or the sink was closed).
    pub dropped: u64,
    /// Events written through every output.
    pub persisted: u64,
    /// Completed flush cycles (file buffers pushed to the OS).
    pub flushes: u64,
}

impl SinkStats {
    /// Events currently buffered in lanes (0 once the sink is idle).
    ///
    /// Saturating: the three counters are loaded independently (relaxed),
    /// so a mid-run snapshot can observe `persisted` bumps whose matching
    /// `emitted` bump it predates. Plain subtraction underflows on such a
    /// torn snapshot — the `sink-stats-snapshot-torn` scenario in
    /// `oddci-check` reproduces it deterministically.
    pub fn in_flight(&self) -> u64 {
        self.emitted
            .saturating_sub(self.persisted)
            .saturating_sub(self.dropped)
    }
}

/// A destination for live trace events. Implementations must be cheap and
/// non-blocking on [`offer`](TraceSink::offer) — the caller may be a
/// simulation inner loop or a headend shard thread.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Enqueue one event. `lane_hint` pins the event to a lane (shard
    /// handles use this so writers don't contend); `None` spreads by
    /// track. Returns `false` — and counts a drop — instead of blocking
    /// when the lane is full.
    fn offer(&self, ev: Event, lane_hint: Option<usize>) -> bool;

    /// Block until everything offered *before this call* is durably
    /// handed to the OS (written + file-flushed). Safe to call from any
    /// thread; returns immediately once the writer has exited.
    fn flush(&self);

    /// Current traffic counters.
    fn stats(&self) -> SinkStats;

    /// Per-phase drop breakdown `(label, count)`, non-zero entries only.
    fn dropped_by_phase(&self) -> Vec<(&'static str, u64)>;
}

/// One finished artifact file: the sink's own `.trace.bin`, or a text
/// file [`crate::binary::convert`] derived from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputSummary {
    /// Where the artifact was written.
    pub path: PathBuf,
    /// Bytes written (header + body + footer).
    pub bytes: u64,
}

/// Final report of a finished sink: closing traffic counters plus the
/// one file it wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SinkSummary {
    /// Counters at close; `emitted == persisted + dropped` holds exactly.
    pub stats: SinkStats,
    /// The binary trace file.
    pub output: OutputSummary,
}

// ---------------------------------------------------------------- lanes

#[derive(Debug)]
struct LaneState {
    queue: VecDeque<Event>,
    /// Set by the writer's final drain pass, under the lane lock: any
    /// offer that locks the lane afterwards sees it and counts a drop,
    /// so `emitted == persisted + dropped` stays exact across shutdown.
    closed: bool,
}

#[derive(Debug)]
struct Lane {
    state: Mutex<LaneState>,
}

/// The output file. Lane writers encode blocks privately and hold this
/// lock only for the append itself.
#[derive(Debug)]
struct OutFile {
    file: BufWriter<File>,
    bytes: u64,
}

/// What the first [`StreamingSink::finish`] ended in; an `io::Error` is
/// kept as kind + text because it cannot be cloned to later callers.
type Outcome = Result<SinkSummary, (io::ErrorKind, String)>;

/// Flush/close rendezvous of the lane writers. `flush()` bumps `epoch`;
/// every live writer drains, file-flushes and records the epoch in its
/// `acked` slot. A writer that already exited (`exited`) has drained its
/// closed lane completely — or died on an I/O error — so it satisfies
/// any epoch and a flush can never hang on it.
#[derive(Debug)]
struct WriterCtl {
    epoch: u64,
    /// Highest epoch whose completion already bumped the `flushes`
    /// counter (guards against two writers double-counting one cycle).
    flushed_epoch: u64,
    acked: Vec<u64>,
    exited: Vec<bool>,
    /// Stored once by the `finish()` that joined the writers, success or
    /// not; every later or concurrent `finish()` waits for it here.
    outcome: Option<Outcome>,
}

#[derive(Debug)]
struct SinkShared {
    lanes: Vec<Lane>,
    lane_capacity: usize,
    /// Relaxed everywhere: an independent monotone counter, bumped by the
    /// emitter *before* it touches the lane. The exactness identity
    /// `emitted == persisted + dropped` needs no inter-counter ordering —
    /// each event is classified exactly once under its lane lock, and
    /// `finish()` reads the totals only after joining the writers.
    emitted: AtomicU64,
    /// Relaxed: same regime as `emitted`; bumped by whichever thread
    /// classified the event as a drop (emitter under the lane lock).
    dropped: AtomicU64,
    /// Relaxed: bumped by a lane's writer after its block is appended;
    /// readers that need it exact synchronize via the flush rendezvous
    /// or the writer join, not via this atomic.
    persisted: AtomicU64,
    /// Relaxed: writer-only monotone counter; `flush()` callers observe
    /// completion through the `ctl` monitor, not this count.
    flushes: AtomicU64,
    /// Relaxed: per-phase shards of `dropped`, same single-classification
    /// regime.
    dropped_by_phase: [AtomicU64; Phase::COUNT],
    path: PathBuf,
    file: Mutex<OutFile>,
    /// Writer wake-up, flush rendezvous and `finish()` outcome (mutex +
    /// condvar behind one shim type).
    ctl: Monitor<WriterCtl>,
    /// Tells the writers to run their final drain and exit. Release store
    /// in `finish()` / Acquire load in the writer: a writer's final drain
    /// must observe everything the finishing thread did first. (The lane
    /// locks already order the queues themselves; the pairing covers the
    /// flag-to-drain edge without relying on that.)
    close_requested: AtomicU64,
}

impl SinkShared {
    fn note_drop(&self, phase: Phase) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        self.dropped_by_phase[phase.index()].fetch_add(1, Ordering::Relaxed);
    }

    fn stats(&self) -> SinkStats {
        SinkStats {
            emitted: self.emitted.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            persisted: self.persisted.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------- sink

/// Builder for a [`StreamingSink`]; see [`StreamingSink::builder`].
#[derive(Debug)]
pub struct StreamBuilder {
    path: PathBuf,
    lanes: usize,
    lane_capacity: usize,
    meta: Vec<(String, String)>,
}

impl StreamBuilder {
    /// Number of independent lanes, each with its own writer thread
    /// (default 4). Per-shard handles pin a lane with
    /// [`crate::Telemetry::with_sink_lane`]; unpinned emitters spread by
    /// track id.
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes.max(1);
        self
    }

    /// Per-lane queue capacity in events (default
    /// [`DEFAULT_LANE_CAPACITY`]). A full lane drops — it never blocks.
    pub fn lane_capacity(mut self, capacity: usize) -> Self {
        self.lane_capacity = capacity.max(1);
        self
    }

    /// Stamp a key/value pair into the file header.
    pub fn meta(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.meta.push((key.into(), value.into()));
        self
    }

    /// Create the file, write its header, and start one writer thread
    /// per lane. Fails fast on I/O errors (unwritable path, etc.).
    pub fn start(self) -> io::Result<Arc<StreamingSink>> {
        let lanes = self.lanes;
        let mut file = BufWriter::new(File::create(&self.path)?);
        let header = binary::encode_header(&self.meta, lanes);
        file.write_all(&header)?;

        let shared = Arc::new(SinkShared {
            lanes: (0..lanes)
                .map(|_| Lane {
                    state: Mutex::named(
                        LaneState {
                            queue: VecDeque::new(),
                            closed: false,
                        },
                        "sink.lane",
                    ),
                })
                .collect(),
            lane_capacity: self.lane_capacity,
            emitted: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            persisted: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            dropped_by_phase: std::array::from_fn(|_| AtomicU64::new(0)),
            path: self.path,
            file: Mutex::named(
                OutFile {
                    file,
                    bytes: header.len() as u64,
                },
                "sink.file",
            ),
            ctl: Monitor::named(
                WriterCtl {
                    epoch: 0,
                    flushed_epoch: 0,
                    acked: vec![0; lanes],
                    exited: vec![false; lanes],
                    outcome: None,
                },
                "sink.ctl",
            ),
            close_requested: AtomicU64::new(0),
        });

        let mut writers = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let writer_shared = Arc::clone(&shared);
            writers.push(
                std::thread::Builder::new()
                    .name(format!("oddci-trace-bin-{lane}"))
                    .spawn(move || lane_writer_main(&writer_shared, lane))?,
            );
        }
        Ok(Arc::new(StreamingSink {
            shared,
            writers: Mutex::named(writers, "sink.writer_handles"),
        }))
    }
}

/// The bounded-lane, writer-thread-per-lane [`TraceSink`].
///
/// Construct with [`StreamingSink::builder`], attach to a
/// [`crate::Telemetry`] via [`crate::Telemetry::with_sink`], and call
/// [`finish`](StreamingSink::finish) when the run is over to close the
/// file and collect the [`SinkSummary`].
#[derive(Debug)]
pub struct StreamingSink {
    shared: Arc<SinkShared>,
    /// One handle per lane, taken by the first `finish()` — an empty vec
    /// means that call owns (or owned) the join.
    writers: Mutex<Vec<JoinHandle<io::Result<()>>>>,
}

impl StreamingSink {
    /// Start describing a new sink that writes the binary trace `path`.
    pub fn builder(path: impl Into<PathBuf>) -> StreamBuilder {
        StreamBuilder {
            path: path.into(),
            lanes: 4,
            lane_capacity: DEFAULT_LANE_CAPACITY,
            meta: Vec::new(),
        }
    }

    /// Close the sink: drain every lane, flush the file, and join the
    /// writer threads. Events offered after this point are counted as
    /// dropped. Idempotent — later and concurrent calls return what the
    /// first one ended in, summary or error.
    pub fn finish(&self) -> io::Result<SinkSummary> {
        let ctl = &self.shared.ctl;
        let handles = std::mem::take(&mut *self.writers.lock());
        if !handles.is_empty() {
            let outcome = self.close(handles).map_err(|e| (e.kind(), e.to_string()));
            ctl.lock().outcome = Some(outcome);
            ctl.notify_all();
        }
        let mut guard = ctl.lock();
        loop {
            if let Some(outcome) = &guard.outcome {
                return outcome
                    .clone()
                    .map_err(|(kind, text)| io::Error::new(kind, text));
            }
            guard = ctl.wait_timeout(guard, Duration::from_millis(50)).0;
        }
    }

    fn close(&self, handles: Vec<JoinHandle<io::Result<()>>>) -> io::Result<SinkSummary> {
        let shared = &self.shared;
        shared.close_requested.store(1, Ordering::Release);
        shared.ctl.notify_all();
        // Join everything before surfacing any error, so no writer leaks.
        let mut first_err = None;
        for handle in handles {
            let result = handle
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("trace writer panicked")));
            if let Err(e) = result {
                first_err.get_or_insert(e);
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }
        let mut f = shared.file.lock();
        f.file.flush()?;
        Ok(SinkSummary {
            stats: shared.stats(),
            output: OutputSummary {
                path: shared.path.clone(),
                bytes: f.bytes,
            },
        })
    }
}

impl TraceSink for StreamingSink {
    fn offer(&self, ev: Event, lane_hint: Option<usize>) -> bool {
        let shared = &self.shared;
        shared.emitted.fetch_add(1, Ordering::Relaxed);
        let lane = match lane_hint {
            Some(lane) => lane % shared.lanes.len(),
            None => (ev.track as usize) % shared.lanes.len(),
        };
        let mut state = shared.lanes[lane].state.lock();
        if state.closed || state.queue.len() >= shared.lane_capacity {
            drop(state);
            shared.note_drop(ev.phase);
            return false;
        }
        state.queue.push_back(ev);
        true
    }

    fn flush(&self) {
        // Bump the epoch and wait until every live lane writer has
        // drained + file-flushed it. Exited writers satisfy any epoch,
        // so a flush can never hang on a finished or failed sink.
        let monitor = &self.shared.ctl;
        let mut ctl = monitor.lock();
        ctl.epoch += 1;
        let target = ctl.epoch;
        monitor.notify_all();
        while ctl
            .acked
            .iter()
            .zip(&ctl.exited)
            .any(|(acked, exited)| !exited && *acked < target)
        {
            ctl = monitor.wait_timeout(ctl, Duration::from_millis(50)).0;
        }
    }

    fn stats(&self) -> SinkStats {
        self.shared.stats()
    }

    fn dropped_by_phase(&self) -> Vec<(&'static str, u64)> {
        Phase::ALL
            .iter()
            .map(|p| {
                (
                    p.label(),
                    self.shared.dropped_by_phase[p.index()].load(Ordering::Relaxed),
                )
            })
            .filter(|(_, n)| *n > 0)
            .collect()
    }
}

impl Drop for StreamingSink {
    fn drop(&mut self) {
        // Best-effort close so an un-finished sink still leaves valid
        // artifacts behind; errors are unobservable here.
        let _ = self.finish();
    }
}

// ---------------------------------------------------------------- writers

fn drain_lane(shared: &SinkShared, lane: usize, batch: &mut Vec<Event>, close: bool) {
    let mut state = shared.lanes[lane].state.lock();
    if close {
        state.closed = true;
    }
    batch.extend(state.queue.drain(..));
}

/// Encode `batch` as one lane block (privately, off-lock), append it to
/// the file under the brief file lock, and count it persisted.
fn append_block(shared: &SinkShared, lane: usize, batch: &[Event]) -> io::Result<()> {
    let block = binary::encode_block(lane as u64, batch);
    let mut f = shared.file.lock();
    f.file.write_all(&block)?;
    f.bytes += block.len() as u64;
    drop(f);
    shared
        .persisted
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    Ok(())
}

/// Entry point of the per-lane writer threads. Wraps the loop so the
/// writer *always* marks itself exited (waking `flush()` callers and the
/// close rendezvous) even when it dies on an I/O error.
fn lane_writer_main(shared: &SinkShared, lane: usize) -> io::Result<()> {
    let result = lane_writer_loop(shared, lane);
    let mut ctl = shared.ctl.lock();
    ctl.exited[lane] = true;
    if ctl.exited.iter().all(|e| *e) {
        // Last writer out: the whole close cycle counts as one flush.
        shared.flushes.fetch_add(1, Ordering::Relaxed);
    }
    shared.ctl.notify_all();
    result
}

fn lane_writer_loop(shared: &SinkShared, lane: usize) -> io::Result<()> {
    let mut batch: Vec<Event> = Vec::with_capacity(4096);
    let mut acked: u64 = 0;
    loop {
        batch.clear();
        drain_lane(shared, lane, &mut batch, false);
        if !batch.is_empty() {
            append_block(shared, lane, &batch)?;
            continue;
        }

        if shared.close_requested.load(Ordering::Acquire) != 0 {
            // Final pass: close the lane under its lock, drain racers,
            // then flush the shared file so finish() reads it complete.
            drain_lane(shared, lane, &mut batch, true);
            if !batch.is_empty() {
                append_block(shared, lane, &batch)?;
            }
            shared.file.lock().file.flush()?;
            return Ok(());
        }

        let ctl = shared.ctl.lock();
        if ctl.epoch > acked {
            let target = ctl.epoch;
            drop(ctl);
            // Events offered before flush() bumped the epoch are already
            // in the lane; one more drain pass picks up any racers.
            drain_lane(shared, lane, &mut batch, false);
            if !batch.is_empty() {
                append_block(shared, lane, &batch)?;
                continue;
            }
            shared.file.lock().file.flush()?;
            acked = target;
            let mut ctl = shared.ctl.lock();
            ctl.acked[lane] = ctl.acked[lane].max(target);
            let cycle_done = ctl
                .acked
                .iter()
                .zip(&ctl.exited)
                .all(|(a, e)| *e || *a >= target);
            if cycle_done && ctl.flushed_epoch < target {
                ctl.flushed_epoch = target;
                shared.flushes.fetch_add(1, Ordering::Relaxed);
            }
            shared.ctl.notify_all();
            continue;
        }
        let (_guard, _) = shared.ctl.wait_timeout(ctl, Duration::from_millis(1));
    }
}

// ---------------------------------------------------------------- reading

/// Reconstruct the durations (µs) of every completed span of `phase`
/// from a streamed event sequence, matching Begin/End per
/// `(track, scope)` in file order. Lanes preserve per-track FIFO order,
/// so pairs always match even though the global order is not sorted.
pub fn span_durations_us(events: &[Event], phase: Phase) -> Vec<u64> {
    use std::collections::HashMap;
    let mut open: HashMap<(u64, u64), Vec<u64>> = HashMap::new();
    let mut durations = Vec::new();
    for ev in events {
        if ev.phase != phase {
            continue;
        }
        match ev.kind {
            EventKind::Begin => open.entry((ev.track, ev.scope)).or_default().push(ev.ts_us),
            EventKind::End => {
                if let Some(begin) = open.get_mut(&(ev.track, ev.scope)).and_then(Vec::pop) {
                    durations.push(ev.ts_us.saturating_sub(begin));
                }
            }
            EventKind::Instant => {}
        }
    }
    durations
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    static NEXT: TestCounter = TestCounter::new(0);

    fn temp(name: &str) -> PathBuf {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("oddci-sink-{}-{n}-{name}", std::process::id()))
    }

    fn ev(ts: u64, phase: Phase, kind: EventKind, track: u64) -> Event {
        Event {
            ts_us: ts,
            phase,
            kind,
            track,
            scope: 7,
        }
    }

    #[test]
    fn stream_round_trips_with_per_lane_writers() {
        let path = temp("round.trace.bin");
        let sink = StreamingSink::builder(&path)
            .lanes(3)
            .meta("scenario", "unit")
            .start()
            .unwrap();
        let mut offered = Vec::new();
        for i in 0..300u64 {
            let e = ev(i, Phase::Heartbeat, EventKind::Instant, i % 5);
            assert!(sink.offer(e, Some((i % 3) as usize)));
            offered.push(e);
        }
        let summary = sink.finish().unwrap();
        assert_eq!(summary.stats.emitted, 300);
        assert_eq!(summary.stats.persisted, 300);
        assert_eq!(summary.stats.dropped, 0);
        assert_eq!(summary.output.path, path);
        let on_disk = std::fs::metadata(&path).unwrap().len();
        assert_eq!(summary.output.bytes, on_disk);
        assert_eq!(sink.finish().unwrap(), summary, "finish is idempotent");

        let trace = crate::binary::read_file(&path).unwrap();
        assert!(trace.truncated.is_none());
        assert_eq!(trace.header.lanes, 3);
        assert_eq!(trace.header.meta, vec![("scenario".into(), "unit".into())]);
        // Lane blocks interleave, so compare as multisets.
        let mut got = trace.events;
        let mut want = offered;
        let key = |e: &Event| (e.ts_us, e.phase.index(), e.track, e.scope);
        got.sort_by_key(key);
        want.sort_by_key(key);
        assert_eq!(got, want);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flush_makes_events_durable_mid_run() {
        let path = temp("flush.trace.bin");
        let sink = StreamingSink::builder(&path).lanes(4).start().unwrap();
        for i in 0..500u64 {
            sink.offer(ev(i, Phase::TaskFetch, EventKind::Instant, i), None);
        }
        sink.flush();
        let stats = sink.stats();
        assert_eq!(stats.persisted, 500, "flush persists everything offered");
        assert!(stats.flushes >= 1);
        let trace = crate::binary::read_file(&path).unwrap();
        assert_eq!(trace.events.len(), 500);
        sink.finish().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn accounting_stays_exact_under_pressure_and_after_finish() {
        let path = temp("drops.trace.bin");
        let sink = StreamingSink::builder(&path)
            .lanes(1)
            .lane_capacity(8)
            .start()
            .unwrap();
        // How many of the burst the writer keeps up with is up to the
        // scheduler; the identity must hold regardless.
        for i in 0..10_000u64 {
            sink.offer(ev(i, Phase::Compute, EventKind::Instant, 0), Some(0));
        }
        let summary = sink.finish().unwrap();
        assert_eq!(summary.stats.emitted, 10_000);
        assert_eq!(
            summary.stats.persisted + summary.stats.dropped,
            summary.stats.emitted
        );
        if summary.stats.dropped > 0 {
            assert_eq!(
                sink.dropped_by_phase(),
                vec![("task.compute", summary.stats.dropped)]
            );
        }
        // An offer after finish is a counted drop and never reaches the file.
        assert!(!sink.offer(ev(0, Phase::Compute, EventKind::Instant, 0), None));
        let stats = sink.stats();
        assert_eq!(stats.emitted, 10_001);
        assert_eq!(stats.persisted + stats.dropped, stats.emitted);
        let trace = crate::binary::read_file(&path).unwrap();
        assert_eq!(trace.events.len() as u64, summary.stats.persisted);
        std::fs::remove_file(&path).unwrap();
    }

    /// A sink whose disk fills up: the first `finish()` reports the
    /// error, and so does every later one — including the one in `Drop`,
    /// which at the parent of this test spun forever waiting for a
    /// summary that was never stored.
    #[cfg(target_os = "linux")]
    #[test]
    fn failed_finish_is_reported_to_every_caller_and_never_hangs() {
        let (done_tx, done_rx) = oddci_check::sync::bounded(1);
        let probe = std::thread::spawn(move || {
            let sink = StreamingSink::builder("/dev/full")
                .lanes(2)
                .start()
                .unwrap();
            for i in 0..5_000u64 {
                sink.offer(ev(i, Phase::Compute, EventKind::Instant, i), None);
            }
            let first = sink.finish().unwrap_err();
            let second = sink.finish().unwrap_err();
            sink.flush();
            drop(sink);
            done_tx.send((first, second)).unwrap();
        });
        let (first, second) = done_rx
            .recv_timeout(Duration::from_secs(1))
            .expect("finish, finish, flush and drop on a dead sink return within 1 s");
        probe.join().unwrap();
        assert_eq!(first.kind(), io::ErrorKind::StorageFull, "{first}");
        assert_eq!(second.kind(), first.kind());
        assert_eq!(second.to_string(), first.to_string());
    }

    #[test]
    fn span_durations_match_pairs_per_track() {
        let events = vec![
            ev(10, Phase::DveBoot, EventKind::Begin, 1),
            ev(12, Phase::DveBoot, EventKind::Begin, 2),
            ev(30, Phase::DveBoot, EventKind::End, 1),
            ev(50, Phase::DveBoot, EventKind::End, 2),
            ev(60, Phase::Heartbeat, EventKind::Instant, 1),
        ];
        let mut durs = span_durations_us(&events, Phase::DveBoot);
        durs.sort_unstable();
        assert_eq!(durs, vec![20, 38]);
    }
}
