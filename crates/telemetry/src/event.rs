//! The span/event vocabulary.
//!
//! Every observable moment in an OddCI run is an [`Event`]: a fixed-size,
//! copyable record of *what* happened ([`Phase`]), *how* it relates to a
//! duration ([`EventKind`]), *when* (microseconds on the plane's clock —
//! sim-time in the discrete-event world, wall-clock in the live runtime),
//! *where* (a track: one per node, plus the control plane) and *about
//! what* (a scope: instance, job or zero).
//!
//! Phases are a closed enum rather than free-form strings so recording is
//! allocation-free and the per-phase latency histograms can be cached as a
//! dense array.

use serde::{Deserialize, Serialize};

/// Track id used for control-plane (non-node) events.
pub const CONTROL_TRACK: u64 = u64::MAX;

/// The lifecycle phases the stack instruments, in causal order of a task's
/// life: a wakeup hits the carousel, a node reads the config and accepts,
/// boots its DVE, then loops fetch → compute → upload under a heartbeat
/// drumbeat until reset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// A control message (wakeup or reset) starts cycling on the carousel.
    CarouselPublish,
    /// Publish → the node's config read completes (half a carousel cycle
    /// on average): the paper's wakeup *waiting* component.
    WakeupWait,
    /// The PNA passed the probability gate and requirements check.
    PnaAccept,
    /// Acceptance → image acquired and DVE running: the paper's image
    /// *transfer* component (`I/β` with carousel framing).
    DveBoot,
    /// Task request sent → task input fully on the node.
    TaskFetch,
    /// Task input on the node → computation finished.
    Compute,
    /// Result upload started → result accepted by the Backend.
    ResultUpload,
    /// One heartbeat left a node.
    Heartbeat,
    /// A fetch or upload retry was scheduled (bounded backoff).
    Retry,
    /// The Controller declared a node lost (missed-heartbeat budget).
    NodeLost,
    /// A direct reset reached a node.
    DirectReset,
    /// One direct-channel message delivery (RTT histogram feeder).
    DirectTransfer,
    /// Device-level kernel execution time (sampled in the sim, measured
    /// on the wall clock in the live runtime).
    Kernel,
    /// Job submit → Provider report complete.
    JobRun,
    /// A socket transport accepted or established one connection.
    WireConnect,
    /// One wire frame left a socket transport.
    WireTx,
    /// One wire frame arrived and passed its checksum.
    WireRx,
    /// One durability snapshot of headend state was cut and persisted.
    HeadendSnapshot,
    /// A standby headend adopted a snapshot: state import + re-bind.
    HeadendAdopt,
    /// Emitted by nothing. Every binary trace header writes the full
    /// label table, so dropping the label would make older traces fail
    /// to decode.
    HeadendReplay,
    /// One autoscale reconciliation pass: sample gauges, compute the
    /// desired size, apply the decision.
    ProviderReconcile,
    /// The reconciler raised the instance's desired size.
    ProviderScaleUp,
    /// The reconciler lowered the instance's desired size.
    ProviderScaleDown,
}

impl Phase {
    /// Every phase, in declaration order (dense indexing).
    pub const ALL: [Phase; 23] = [
        Phase::CarouselPublish,
        Phase::WakeupWait,
        Phase::PnaAccept,
        Phase::DveBoot,
        Phase::TaskFetch,
        Phase::Compute,
        Phase::ResultUpload,
        Phase::Heartbeat,
        Phase::Retry,
        Phase::NodeLost,
        Phase::DirectReset,
        Phase::DirectTransfer,
        Phase::Kernel,
        Phase::JobRun,
        Phase::WireConnect,
        Phase::WireTx,
        Phase::WireRx,
        Phase::HeadendSnapshot,
        Phase::HeadendAdopt,
        Phase::HeadendReplay,
        Phase::ProviderReconcile,
        Phase::ProviderScaleUp,
        Phase::ProviderScaleDown,
    ];

    /// Number of phases (size of dense per-phase arrays).
    pub const COUNT: usize = Phase::ALL.len();

    /// Dense index of this phase within [`Phase::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable dotted name used in exports and metric names.
    pub fn label(self) -> &'static str {
        match self {
            Phase::CarouselPublish => "carousel.publish",
            Phase::WakeupWait => "wakeup.wait",
            Phase::PnaAccept => "pna.accept",
            Phase::DveBoot => "dve.boot",
            Phase::TaskFetch => "task.fetch",
            Phase::Compute => "task.compute",
            Phase::ResultUpload => "task.upload",
            Phase::Heartbeat => "heartbeat",
            Phase::Retry => "retry",
            Phase::NodeLost => "node.lost",
            Phase::DirectReset => "direct.reset",
            Phase::DirectTransfer => "net.transfer",
            Phase::Kernel => "receiver.kernel",
            Phase::JobRun => "job.run",
            Phase::WireConnect => "wire.connect",
            Phase::WireTx => "wire.tx",
            Phase::WireRx => "wire.rx",
            Phase::HeadendSnapshot => "headend.snapshot",
            Phase::HeadendAdopt => "headend.adopt",
            Phase::HeadendReplay => "headend.replay",
            Phase::ProviderReconcile => "provider.reconcile",
            Phase::ProviderScaleUp => "provider.scale_up",
            Phase::ProviderScaleDown => "provider.scale_down",
        }
    }

    /// True for phases that describe durations (Begin/End pairs); false
    /// for point-in-time marks.
    pub fn is_span(self) -> bool {
        matches!(
            self,
            Phase::WakeupWait
                | Phase::DveBoot
                | Phase::TaskFetch
                | Phase::Compute
                | Phase::ResultUpload
                | Phase::DirectTransfer
                | Phase::Kernel
                | Phase::JobRun
                | Phase::HeadendSnapshot
                | Phase::HeadendAdopt
                | Phase::HeadendReplay
                | Phase::ProviderReconcile
        )
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// How an event relates to a duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// A span opens.
    Begin,
    /// A span closes.
    End,
    /// A point-in-time mark.
    Instant,
}

/// One recorded event. Fixed-size and `Copy`, so the recorder's ring is a
/// flat memcpy-friendly buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Event {
    /// Microseconds on the producing plane's clock.
    pub ts_us: u64,
    /// What happened.
    pub phase: Phase,
    /// Span begin/end or instant mark.
    pub kind: EventKind,
    /// Node id, or [`CONTROL_TRACK`] for control-plane events.
    pub track: u64,
    /// Instance/job/task the event is about (`0` when not applicable).
    pub scope: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_dense_and_labels_unique() {
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        let mut labels: Vec<&str> = Phase::ALL.iter().map(|p| p.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Phase::COUNT);
    }

    #[test]
    fn span_phases_are_marked() {
        assert!(Phase::DveBoot.is_span());
        assert!(Phase::JobRun.is_span());
        assert!(Phase::HeadendSnapshot.is_span());
        assert!(Phase::HeadendAdopt.is_span());
        assert!(Phase::HeadendReplay.is_span());
        assert!(Phase::ProviderReconcile.is_span());
        assert!(!Phase::Heartbeat.is_span());
        assert!(!Phase::CarouselPublish.is_span());
        assert!(!Phase::ProviderScaleUp.is_span());
        assert!(!Phase::ProviderScaleDown.is_span());
    }
}
