//! # oddci-telemetry — end-to-end observability for the OddCI stack
//!
//! This crate is the measurement substrate every other layer threads
//! through: the discrete-event world, the broadcast carousel, the direct
//! channel, receivers, and the live runtime all report into the same
//! small vocabulary of [`Phase`]s.
//!
//! Two halves, deliberately decoupled:
//!
//! * **Metrics** ([`Registry`]: [`Counter`], [`Gauge`],
//!   [`LatencyHistogram`]) are *always on*. They back the public
//!   `MetricsSnapshot`, so toggling tracing can never change a reported
//!   number.
//! * **Tracing** is *opt-in*, and a handle sends each event exactly one
//!   way: nowhere ([`Telemetry::disabled`]), into an in-memory ring
//!   ([`Telemetry::recording`], a [`Recorder`] that overwrites oldest
//!   first), or to a streaming [`TraceSink`] ([`Telemetry::streaming`])
//!   that persists every event to disk *during* the run with
//!   non-blocking, drop-with-counter semantics — see the [`sink`]
//!   module. The sink writes the [`binary`] format, and
//!   [`binary::convert`] is the one writer of JSONL and Chrome
//!   `trace_event` text (`oddci trace convert`).
//!   [`export::prometheus`] renders the metrics half.
//!
//! The [`Telemetry`] bundle ties both together and pre-caches a
//! per-[`Phase`] histogram and counter, so the hot path is one branch +
//! one atomic (counters) or one short mutex hold (histograms) — never a
//! name lookup.
//!
//! Timestamps are plain `u64` microseconds: sim-time in the
//! discrete-event world (`SimTime` is µs already), wall-clock since run
//! start in the live runtime. Telemetry is strictly *write-only* with
//! respect to the system under observation — nothing reads it back
//! during a run — which is what keeps deterministic simulations
//! deterministic with tracing on.
//!
//! # Example
//!
//! ```
//! use oddci_telemetry::{Phase, Telemetry};
//!
//! let tele = Telemetry::recording();
//! tele.span(0, 1_500, Phase::DveBoot, 7, 1); // µs timestamps, track = node 7
//! tele.instant(2_000, Phase::Heartbeat, 7, 0);
//!
//! assert_eq!(tele.phase_events(Phase::DveBoot), 1);
//! let summary = tele.phase_summary(Phase::DveBoot);
//! assert!((summary.mean - 1.5e-3).abs() < 1e-9); // 1 500 µs in seconds
//! ```

#![forbid(unsafe_code)]

pub mod binary;
pub mod event;
pub mod export;
pub mod recorder;
pub mod registry;
pub mod sink;

pub use event::{Event, EventKind, Phase, CONTROL_TRACK};
pub use recorder::Recorder;
pub use registry::{
    Counter, Gauge, HistogramSummary, LatencyHistogram, Registry, RegistrySnapshot,
};
pub use sink::{SinkStats, SinkSummary, StreamingSink, TraceSink};

use std::sync::Arc;

/// The bundle call sites hold: a shared registry, where trace events
/// go, and pre-resolved per-phase handles. Cloning is cheap and all
/// clones observe the same underlying state.
#[derive(Debug, Clone)]
pub struct Telemetry {
    trace: Trace,
    registry: Arc<Registry>,
    phase_hist: Arc<[LatencyHistogram; Phase::COUNT]>,
    phase_count: Arc<[Counter; Phase::COUNT]>,
    /// Total events the sink rejected (`telemetry.events_dropped`).
    sink_dropped: Counter,
    /// Per-phase sink drops (`telemetry.events_dropped.<phase>`).
    sink_dropped_phase: Arc<[Counter; Phase::COUNT]>,
}

/// The one route a handle's span/instant events take.
#[derive(Debug, Clone)]
enum Trace {
    Off,
    Ring(Recorder),
    Stream(Arc<dyn TraceSink>),
}

/// What [`Telemetry::recorder`] lends a handle without a ring.
static NO_RING: Recorder = Recorder::disabled();

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::disabled()
    }
}

fn phase_handles(
    registry: &Registry,
) -> ([LatencyHistogram; Phase::COUNT], [Counter; Phase::COUNT]) {
    let hist = Phase::ALL.map(|p| registry.histogram(p.label()));
    let count = Phase::ALL.map(|p| registry.counter(&format!("{}.events", p.label())));
    (hist, count)
}

impl Telemetry {
    fn with_trace(trace: Trace) -> Self {
        let registry = Arc::new(Registry::new());
        let (hist, count) = phase_handles(&registry);
        let sink_dropped = registry.counter("telemetry.events_dropped");
        let sink_dropped_phase = Phase::ALL
            .map(|p| registry.counter(&format!("telemetry.events_dropped.{}", p.label())));
        Telemetry {
            trace,
            registry,
            phase_hist: Arc::new(hist),
            phase_count: Arc::new(count),
            sink_dropped,
            sink_dropped_phase: Arc::new(sink_dropped_phase),
        }
    }

    /// Metrics on, tracing off (the default for tests and sweeps).
    pub fn disabled() -> Self {
        Telemetry::with_trace(Trace::Off)
    }

    /// Metrics on, events kept in an in-memory ring of the default
    /// capacity (read back with [`Telemetry::events`]).
    pub fn recording() -> Self {
        Telemetry::with_trace(Trace::Ring(Recorder::enabled()))
    }

    /// Metrics on, every event offered to `sink` as it happens and kept
    /// nowhere else:
    ///
    /// ```no_run
    /// use oddci_telemetry::{sink::StreamingSink, Telemetry};
    /// let sink = StreamingSink::builder("run.trace.bin").start().unwrap();
    /// let tele = Telemetry::streaming(sink);
    /// ```
    pub fn streaming(sink: Arc<dyn TraceSink>) -> Self {
        Telemetry::with_trace(Trace::Stream(sink))
    }

    /// Block until every event offered so far is handed to the OS. No-op
    /// without a sink. Call after joining worker threads and *before*
    /// reading accounting derived from the stream.
    pub fn flush_sink(&self) {
        if let Trace::Stream(sink) = &self.trace {
            sink.flush();
        }
    }

    /// Total events the sink rejected (the `telemetry.events_dropped`
    /// counter). Zero without a sink.
    pub fn events_dropped(&self) -> u64 {
        self.sink_dropped.get()
    }

    fn offer(&self, sink: &Arc<dyn TraceSink>, ev: Event) {
        if !sink.offer(ev) {
            self.sink_dropped.inc();
            self.sink_dropped_phase[ev.phase.index()].inc();
        }
    }

    /// The shared metrics registry (for ad-hoc named metrics beyond the
    /// per-phase set, e.g. `backend.queue_depth`).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The event ring; a disabled one unless built by
    /// [`Telemetry::recording`].
    pub fn recorder(&self) -> &Recorder {
        match &self.trace {
            Trace::Ring(recorder) => recorder,
            _ => &NO_RING,
        }
    }

    /// Record a completed span: feeds the phase's latency histogram and
    /// emits a Begin/End pair down the handle's trace route.
    pub fn span(&self, begin_us: u64, end_us: u64, phase: Phase, track: u64, scope: u64) {
        let end_us = end_us.max(begin_us);
        self.phase_hist[phase.index()].record_us(end_us - begin_us);
        self.phase_count[phase.index()].inc();
        match &self.trace {
            Trace::Off => {}
            Trace::Ring(recorder) => recorder.span(begin_us, end_us, phase, track, scope),
            Trace::Stream(sink) => {
                for (ts_us, kind) in [(begin_us, EventKind::Begin), (end_us, EventKind::End)] {
                    self.offer(
                        sink,
                        Event {
                            ts_us,
                            phase,
                            kind,
                            track,
                            scope,
                        },
                    );
                }
            }
        }
    }

    /// Record a point-in-time mark: bumps the phase counter and emits an
    /// instant event down the handle's trace route.
    pub fn instant(&self, ts_us: u64, phase: Phase, track: u64, scope: u64) {
        self.phase_count[phase.index()].inc();
        match &self.trace {
            Trace::Off => {}
            Trace::Ring(recorder) => recorder.instant(ts_us, phase, track, scope),
            Trace::Stream(sink) => self.offer(
                sink,
                Event {
                    ts_us,
                    phase,
                    kind: EventKind::Instant,
                    track,
                    scope,
                },
            ),
        }
    }

    /// Record a bare duration into a phase's histogram without emitting
    /// trace events — for callers that know how long something took but
    /// not where it sits on the timeline (e.g. a sampled kernel cost).
    pub fn duration(&self, seconds: f64, phase: Phase) {
        self.phase_hist[phase.index()].record(seconds);
        self.phase_count[phase.index()].inc();
    }

    /// Latency summary for one phase (durations in seconds).
    pub fn phase_summary(&self, phase: Phase) -> HistogramSummary {
        self.phase_hist[phase.index()].summary()
    }

    /// How many events (spans + instants) a phase has recorded.
    pub fn phase_events(&self, phase: Phase) -> u64 {
        self.phase_count[phase.index()].get()
    }

    /// Snapshot of the recorded event ring (oldest first; empty unless
    /// built by [`Telemetry::recording`]).
    pub fn events(&self) -> Vec<Event> {
        self.recorder().events()
    }

    /// Snapshot of every registered metric.
    pub fn metrics_snapshot(&self) -> RegistrySnapshot {
        self.registry.snapshot()
    }

    /// Per-phase breakdown rows `(label, summary)` for phases that saw at
    /// least one event, in lifecycle order — the table benches print.
    pub fn phase_breakdown(&self) -> Vec<(&'static str, HistogramSummary)> {
        Phase::ALL
            .iter()
            .filter(|p| p.is_span())
            .map(|p| (p.label(), self.phase_summary(*p)))
            .filter(|(_, s)| s.count > 0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_still_counts_metrics() {
        let tele = Telemetry::disabled();
        tele.span(0, 2_000_000, Phase::DveBoot, 1, 9);
        tele.instant(5, Phase::Heartbeat, 1, 9);
        assert!(tele.events().is_empty(), "no tracing when disabled");
        assert_eq!(tele.phase_summary(Phase::DveBoot).count, 1);
        assert!((tele.phase_summary(Phase::DveBoot).mean - 2.0).abs() < 1e-9);
        assert_eq!(tele.phase_events(Phase::Heartbeat), 1);
    }

    #[test]
    fn recording_and_disabled_agree_on_metrics() {
        let feed = |tele: &Telemetry| {
            for i in 0..100u64 {
                tele.span(i * 10, i * 10 + 7, Phase::TaskFetch, i % 4, i);
                tele.instant(i * 10, Phase::Heartbeat, i % 4, i);
            }
        };
        let on = Telemetry::recording();
        let off = Telemetry::disabled();
        feed(&on);
        feed(&off);
        assert_eq!(on.metrics_snapshot(), off.metrics_snapshot());
        assert_eq!(on.events().len(), 300, "100 B/E pairs + 100 instants");
        assert!(off.events().is_empty());
    }

    fn temp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "oddci-tele-{name}-{}.trace.bin",
            std::process::id()
        ))
    }

    #[test]
    fn span_nesting_survives_export() {
        let path = temp("nesting");
        let chrome_path = path.with_extension("json");
        let sink = StreamingSink::builder(&path).start().unwrap();
        let tele = Telemetry::streaming(sink.clone());
        // Outer JobRun span containing a DveBoot + Compute sequence, plus
        // an unrelated overlapping span on another track.
        tele.span(100, 150, Phase::DveBoot, 0, 1);
        tele.span(150, 400, Phase::Compute, 0, 1);
        tele.span(0, 500, Phase::JobRun, CONTROL_TRACK, 1);
        tele.span(120, 480, Phase::Compute, 1, 2);
        sink.finish().unwrap();
        let trace = binary::read_file(&path).unwrap();
        binary::convert(&trace, None, Some(&chrome_path)).unwrap();
        let text = std::fs::read_to_string(&chrome_path).unwrap();
        for p in [&path, &chrome_path] {
            std::fs::remove_file(p).unwrap();
        }
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let rows = doc["traceEvents"].as_array().unwrap();
        // Per (tid, name), in file order: an E never precedes its B, and
        // Begin and End counts match.
        use std::collections::BTreeMap;
        let mut balance: BTreeMap<(u64, String), i64> = BTreeMap::new();
        for row in rows {
            let delta = match row["ph"].as_str().unwrap() {
                "B" => 1,
                "E" => -1,
                _ => continue,
            };
            let key = (
                row["tid"].as_u64().unwrap(),
                row["name"].as_str().unwrap().to_string(),
            );
            let open = balance.entry(key).or_default();
            *open += delta;
            assert!(*open >= 0, "E before its B: {row:?}");
        }
        assert!(
            balance.values().all(|v| *v == 0),
            "unmatched spans: {balance:?}"
        );
    }

    #[test]
    fn streaming_sends_every_event_to_the_sink_and_none_to_the_ring() {
        let path = temp("stream");
        let sink = StreamingSink::builder(&path).lanes(1).start().unwrap();
        let tele = Telemetry::streaming(sink.clone());
        let clone = tele.clone();
        tele.span(10, 25, Phase::Compute, 4, 2);
        clone.instant(30, Phase::Heartbeat, 5, 2);
        tele.flush_sink();
        let stats = sink.stats();
        assert_eq!(stats.emitted, 3, "B + E + instant, from both clones");
        assert_eq!(stats.persisted, 3);
        assert_eq!(clone.events_dropped(), 0);
        assert!(tele.events().is_empty(), "a streaming handle keeps no ring");
        assert_eq!(tele.recorder().dropped(), 0);
        sink.finish().unwrap();
        let events = binary::read_file(&path).unwrap().events;
        assert_eq!(events.len(), 3);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn phase_breakdown_lists_only_active_span_phases() {
        let tele = Telemetry::disabled();
        tele.span(0, 10, Phase::DveBoot, 0, 0);
        tele.instant(0, Phase::Heartbeat, 0, 0);
        let rows = tele.phase_breakdown();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0, "dve.boot");
    }
}
