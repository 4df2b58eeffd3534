//! Ring-buffered event recorder.
//!
//! The recorder is the *tracing* half of telemetry: an append-only ring of
//! [`Event`]s that overwrites its oldest entries when full, so it can stay
//! on during long benches with bounded memory. A disabled recorder is a
//! `None` inside and costs one branch per call — cheap enough that call
//! sites never need `if telemetry.enabled()` guards.
//!
//! Recording is write-only with respect to simulation state: nothing in
//! the sim ever reads the ring, so enabling it cannot perturb a
//! deterministic run.

use crate::event::{Event, EventKind, Phase};
use oddci_check::sync::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// Default ring capacity when none is given (events, not bytes).
pub const DEFAULT_CAPACITY: usize = 1 << 18;

#[derive(Debug)]
struct Ring {
    buf: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ev: Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(ev);
    }
}

#[derive(Debug)]
struct Shared {
    ring: Mutex<Ring>,
}

/// Handle to a shared event ring. Cloning is cheap (an `Arc` bump); all
/// clones feed the same ring. A [`Recorder::disabled`] recorder drops
/// every event on the floor.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    shared: Option<Arc<Shared>>,
}

impl Recorder {
    /// A recorder that discards everything (the default).
    pub const fn disabled() -> Self {
        Recorder { shared: None }
    }

    /// A live recorder keeping at most `capacity` most-recent events.
    ///
    /// A `capacity` of zero is an alias for [`Recorder::disabled`].
    pub fn with_capacity(capacity: usize) -> Self {
        if capacity == 0 {
            return Recorder::disabled();
        }
        Recorder {
            shared: Some(Arc::new(Shared {
                ring: Mutex::named(
                    Ring {
                        // Start small and let the deque grow toward
                        // `capacity`: pre-touching the full ring (10 MB at
                        // the default capacity) would dwarf short runs.
                        buf: VecDeque::with_capacity(capacity.min(1 << 12)),
                        capacity,
                        dropped: 0,
                    },
                    "telemetry.ring",
                ),
            })),
        }
    }

    /// A live recorder with [`DEFAULT_CAPACITY`].
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// True when events are being kept.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Record a point-in-time mark.
    pub fn instant(&self, ts_us: u64, phase: Phase, track: u64, scope: u64) {
        if let Some(shared) = &self.shared {
            shared.ring.lock().push(Event {
                ts_us,
                phase,
                kind: EventKind::Instant,
                track,
                scope,
            });
        }
    }

    /// Record a completed span as a Begin/End pair. Spans are emitted
    /// retroactively — at completion time, with the earlier begin
    /// timestamp — because in an event-driven world the cheapest correct
    /// moment to know a span's extent is when it closes. Exporters sort
    /// by timestamp, so retro-emission is invisible downstream.
    pub fn span(&self, begin_us: u64, end_us: u64, phase: Phase, track: u64, scope: u64) {
        if let Some(shared) = &self.shared {
            let end_us = end_us.max(begin_us);
            let mut ring = shared.ring.lock();
            ring.push(Event {
                ts_us: begin_us,
                phase,
                kind: EventKind::Begin,
                track,
                scope,
            });
            ring.push(Event {
                ts_us: end_us,
                phase,
                kind: EventKind::End,
                track,
                scope,
            });
        }
    }

    /// Snapshot of the ring's current contents, oldest first.
    pub fn events(&self) -> Vec<Event> {
        match &self.shared {
            Some(shared) => shared.ring.lock().buf.iter().copied().collect(),
            None => Vec::new(),
        }
    }

    /// How many events were overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        match &self.shared {
            Some(shared) => shared.ring.lock().dropped,
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_drops_everything() {
        let r = Recorder::disabled();
        r.instant(1, Phase::Heartbeat, 0, 0);
        r.span(1, 2, Phase::Compute, 0, 0);
        assert!(r.events().is_empty());
        assert_eq!(r.dropped(), 0);
        assert!(!r.is_enabled());
    }

    #[test]
    fn ring_overwrites_oldest() {
        let r = Recorder::with_capacity(4);
        for i in 0..10u64 {
            r.instant(i, Phase::Heartbeat, 0, i);
        }
        let evs = r.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].scope, 6);
        assert_eq!(evs[3].scope, 9);
        assert_eq!(r.dropped(), 6);
    }

    #[test]
    fn span_emits_matched_pair_with_clamped_end() {
        let r = Recorder::with_capacity(16);
        r.span(10, 5, Phase::DveBoot, 3, 42);
        let evs = r.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, EventKind::Begin);
        assert_eq!(evs[1].kind, EventKind::End);
        assert_eq!(evs[0].ts_us, 10);
        assert_eq!(evs[1].ts_us, 10, "end clamps to begin");
        assert_eq!(evs[0].track, 3);
        assert_eq!(evs[0].scope, 42);
    }

    #[test]
    fn zero_capacity_is_metrics_only() {
        let r = Recorder::with_capacity(0);
        assert!(!r.is_enabled(), "zero capacity must disable tracing");
        r.instant(1, Phase::Heartbeat, 0, 0);
        r.span(1, 2, Phase::Compute, 0, 0);
        assert!(r.events().is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn clones_share_one_ring() {
        let r = Recorder::with_capacity(8);
        let r2 = r.clone();
        r.instant(1, Phase::PnaAccept, 0, 0);
        r2.instant(2, Phase::PnaAccept, 1, 0);
        assert_eq!(r.events().len(), 2);
        assert_eq!(r2.events().len(), 2);
    }
}
