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
//! * **Tracing** ([`Recorder`]) is *opt-in*: a ring buffer of
//!   [`Event`]s, overwritten oldest-first, cheap enough to leave enabled
//!   in benches. Exporters ([`export::chrome_trace`],
//!   [`export::prometheus`]) turn recordings into viewer-ready text.
//!   For runs whose event count dwarfs any ring (million-node sweeps), a
//!   streaming [`TraceSink`] ([`Telemetry::with_sink`]) tees every event
//!   to disk *during* the run with non-blocking, drop-with-counter
//!   semantics — see the [`sink`] module. It writes the [`binary`]
//!   format; `oddci trace convert` derives JSONL/Chrome text offline.
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

/// The bundle call sites hold: a shared registry, an optional event
/// recorder, an optional streaming [`TraceSink`], and pre-resolved
/// per-phase handles. Cloning is cheap and all clones observe the same
/// underlying state.
#[derive(Debug, Clone)]
pub struct Telemetry {
    recorder: Recorder,
    registry: Arc<Registry>,
    phase_hist: Arc<[LatencyHistogram; Phase::COUNT]>,
    phase_count: Arc<[Counter; Phase::COUNT]>,
    /// Streaming tee: every recorded event is also offered here. `None`
    /// (the default) keeps the ring as the only consumer.
    sink: Option<Arc<dyn TraceSink>>,
    /// Lane this handle pins its offers to (see
    /// [`Telemetry::with_sink_lane`]); `None` spreads by track.
    sink_lane: Option<usize>,
    /// Total events the sink rejected (`telemetry.events_dropped`).
    sink_dropped: Counter,
    /// Per-phase sink drops (`telemetry.events_dropped.<phase>`).
    sink_dropped_phase: Arc<[Counter; Phase::COUNT]>,
}

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
    fn with_recorder(recorder: Recorder) -> Self {
        let registry = Arc::new(Registry::new());
        let (hist, count) = phase_handles(&registry);
        let sink_dropped = registry.counter("telemetry.events_dropped");
        let sink_dropped_phase = Phase::ALL
            .map(|p| registry.counter(&format!("telemetry.events_dropped.{}", p.label())));
        Telemetry {
            recorder,
            registry,
            phase_hist: Arc::new(hist),
            phase_count: Arc::new(count),
            sink: None,
            sink_lane: None,
            sink_dropped,
            sink_dropped_phase: Arc::new(sink_dropped_phase),
        }
    }

    /// Metrics on, tracing off (the default for tests and sweeps).
    pub fn disabled() -> Self {
        Telemetry::with_recorder(Recorder::disabled())
    }

    /// Metrics on, tracing on with the default ring capacity.
    pub fn recording() -> Self {
        Telemetry::with_recorder(Recorder::enabled())
    }

    /// Metrics on, tracing on with an explicit ring capacity. A capacity
    /// of zero is metrics-only mode (no ring), not a degenerate one-slot
    /// ring — attach a [`TraceSink`] if you still want the event stream.
    pub fn recording_with_capacity(capacity: usize) -> Self {
        Telemetry::with_recorder(Recorder::with_capacity(capacity))
    }

    /// Attach a streaming sink: every event recorded from now on is also
    /// offered to `sink`. Builder-style — call before handing clones out
    /// so all of them share the sink:
    ///
    /// ```no_run
    /// use oddci_telemetry::{sink::StreamingSink, Telemetry};
    /// let sink = StreamingSink::builder("run.trace.bin").start().unwrap();
    /// let tele = Telemetry::recording().with_sink(sink);
    /// ```
    pub fn with_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// A clone of this handle whose offers are pinned to sink lane
    /// `lane`. Hand one to each headend shard / dispatch worker so their
    /// hot paths enqueue into disjoint lanes and never contend on a
    /// queue mutex. No-op when no sink is attached.
    pub fn with_sink_lane(&self, lane: usize) -> Telemetry {
        let mut clone = self.clone();
        clone.sink_lane = Some(lane);
        clone
    }

    /// The attached streaming sink, if any.
    pub fn sink(&self) -> Option<&Arc<dyn TraceSink>> {
        self.sink.as_ref()
    }

    /// Block until every event offered so far is handed to the OS. No-op
    /// without a sink. Call after joining worker threads and *before*
    /// reading accounting derived from the stream.
    pub fn flush_sink(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }

    /// Traffic counters of the attached sink, if any.
    pub fn sink_stats(&self) -> Option<SinkStats> {
        self.sink.as_ref().map(|s| s.stats())
    }

    /// Total events the sink rejected (the `telemetry.events_dropped`
    /// counter). Zero without a sink.
    pub fn events_dropped(&self) -> u64 {
        self.sink_dropped.get()
    }

    fn offer_to_sink(&self, ev: Event) {
        if let Some(sink) = &self.sink {
            if !sink.offer(ev, self.sink_lane) {
                self.sink_dropped.inc();
                self.sink_dropped_phase[ev.phase.index()].inc();
            }
        }
    }

    /// True when span/instant events are being kept.
    pub fn is_recording(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// The shared metrics registry (for ad-hoc named metrics beyond the
    /// per-phase set, e.g. `backend.queue_depth`).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The underlying event recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Record a completed span: feeds the phase's latency histogram and,
    /// when recording, emits a Begin/End pair (tee'd to the streaming
    /// sink when one is attached).
    pub fn span(&self, begin_us: u64, end_us: u64, phase: Phase, track: u64, scope: u64) {
        let end_us = end_us.max(begin_us);
        self.phase_hist[phase.index()].record_us(end_us - begin_us);
        self.phase_count[phase.index()].inc();
        self.recorder.span(begin_us, end_us, phase, track, scope);
        if self.sink.is_some() {
            self.offer_to_sink(Event {
                ts_us: begin_us,
                phase,
                kind: EventKind::Begin,
                track,
                scope,
            });
            self.offer_to_sink(Event {
                ts_us: end_us,
                phase,
                kind: EventKind::End,
                track,
                scope,
            });
        }
    }

    /// Record a point-in-time mark: bumps the phase counter and, when
    /// recording, emits an instant event (tee'd to the streaming sink
    /// when one is attached).
    pub fn instant(&self, ts_us: u64, phase: Phase, track: u64, scope: u64) {
        self.phase_count[phase.index()].inc();
        self.recorder.instant(ts_us, phase, track, scope);
        if self.sink.is_some() {
            self.offer_to_sink(Event {
                ts_us,
                phase,
                kind: EventKind::Instant,
                track,
                scope,
            });
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

    /// Snapshot of the recorded event ring (oldest first; empty when
    /// tracing is off).
    pub fn events(&self) -> Vec<Event> {
        self.recorder.events()
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

    #[test]
    fn span_nesting_survives_export() {
        let tele = Telemetry::recording();
        // Outer JobRun span containing a DveBoot + Compute sequence, plus
        // an unrelated overlapping span on another track.
        tele.span(100, 150, Phase::DveBoot, 0, 1);
        tele.span(150, 400, Phase::Compute, 0, 1);
        tele.span(0, 500, Phase::JobRun, CONTROL_TRACK, 1);
        tele.span(120, 480, Phase::Compute, 1, 2);
        let text = export::chrome_trace(&tele.events());
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let rows = doc["traceEvents"].as_array().unwrap();
        // Per (tid, name): Begin and End counts must match, and per tid
        // the open-span stack never goes negative when sorted by ts.
        use std::collections::BTreeMap;
        let mut balance: BTreeMap<(u64, String), i64> = BTreeMap::new();
        for row in rows {
            match row["ph"].as_str().unwrap() {
                "B" => {
                    *balance
                        .entry((
                            row["tid"].as_u64().unwrap(),
                            row["name"].as_str().unwrap().to_string(),
                        ))
                        .or_default() += 1
                }
                "E" => {
                    *balance
                        .entry((
                            row["tid"].as_u64().unwrap(),
                            row["name"].as_str().unwrap().to_string(),
                        ))
                        .or_default() -= 1
                }
                _ => {}
            }
        }
        assert!(
            balance.values().all(|v| *v == 0),
            "unmatched spans: {balance:?}"
        );
    }

    #[test]
    fn zero_capacity_recording_is_metrics_only() {
        let tele = Telemetry::recording_with_capacity(0);
        assert!(!tele.is_recording(), "capacity 0 must mean metrics-only");
        tele.span(0, 1_000, Phase::DveBoot, 3, 1);
        tele.instant(2, Phase::Heartbeat, 3, 1);
        assert!(tele.events().is_empty());
        // Metrics still flow exactly as with any other capacity.
        assert_eq!(tele.phase_summary(Phase::DveBoot).count, 1);
        assert_eq!(tele.phase_events(Phase::Heartbeat), 1);
        assert_eq!(tele.events_dropped(), 0);
    }

    #[test]
    fn sink_tee_sees_every_event_even_without_ring() {
        let path =
            std::env::temp_dir().join(format!("oddci-tele-tee-{}.trace.bin", std::process::id()));
        let sink = StreamingSink::builder(&path).lanes(1).start().unwrap();
        let tele = Telemetry::recording_with_capacity(0).with_sink(sink.clone());
        tele.span(10, 25, Phase::Compute, 4, 2);
        tele.instant(30, Phase::Heartbeat, 4, 2);
        tele.flush_sink();
        let stats = tele.sink_stats().unwrap();
        assert_eq!(stats.emitted, 3, "B + E + instant");
        assert_eq!(stats.persisted, 3);
        assert_eq!(tele.events_dropped(), 0);
        sink.finish().unwrap();
        let events = binary::read_file(&path).unwrap().events;
        assert_eq!(events.len(), 3);
        assert!(tele.events().is_empty(), "ring stays off at capacity 0");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn lane_pinned_clones_share_sink_and_counters() {
        let path =
            std::env::temp_dir().join(format!("oddci-tele-lane-{}.trace.bin", std::process::id()));
        let sink = StreamingSink::builder(&path).lanes(3).start().unwrap();
        let tele = Telemetry::recording().with_sink(sink.clone());
        let shard0 = tele.with_sink_lane(0);
        let shard1 = tele.with_sink_lane(1);
        shard0.instant(1, Phase::Heartbeat, 7, 0);
        shard1.instant(2, Phase::Heartbeat, 8, 0);
        tele.flush_sink();
        assert_eq!(tele.sink_stats().unwrap().persisted, 2);
        assert_eq!(shard0.events_dropped(), 0);
        sink.finish().unwrap();
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
