//! Vector-clock happens-before race detection.
//!
//! A [`RaceDetector`] tracks a vector clock per logical thread, per sync
//! object (lock or channel) and per memory location. The rules are the
//! textbook ones:
//!
//! * `fork(parent, child)` — child inherits parent's knowledge;
//! * `acquire(t, sync)` / `release(t, sync)` — release publishes the
//!   thread's clock into the sync object, acquire joins it back, so two
//!   critical sections on the same lock are ordered;
//! * `send`/`recv` on a channel id use the same publish/join pair (a
//!   message carries the sender's clock to the receiver);
//! * `write(t, loc)` / `read(t, loc)` — a write must happen-after every
//!   prior read and write of the location; a read must happen-after every
//!   prior write. Anything else is a data race, reported as a [`Race`].
//!
//! Accesses performed through atomics are *not* fed to `read`/`write` —
//! model them as `acquire`/`release` pairs on a sync id instead, which is
//! exactly what Acquire/Release orderings mean. The schedule explorer's
//! model primitives ([`crate::scenarios`]) wire themselves to a detector
//! automatically; it is also usable standalone, as the telemetry-protocol
//! tests in this module do: model the ring-cursor and lane-drop-counter
//! protocols, feed the detector the access pattern, assert race-freedom.

use std::collections::BTreeMap;
use std::fmt;

/// One logical thread's knowledge: `clock[t]` = latest event of thread
/// `t` this thread has observed.
type Clock = BTreeMap<usize, u64>;

fn join(into: &mut Clock, other: &Clock) {
    for (&t, &v) in other {
        let e = into.entry(t).or_insert(0);
        *e = (*e).max(v);
    }
}

/// `a ≤ b` pointwise — every event in `a` is known to `b`.
fn le(a: &Clock, b: &Clock) -> bool {
    a.iter()
        .all(|(&t, &v)| b.get(&t).copied().unwrap_or(0) >= v)
}

/// A detected data race: two accesses to the same location, at least one
/// a write, with no happens-before edge between them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// Location name as given to `read`/`write`.
    pub location: String,
    /// Thread performing the racing access.
    pub thread: usize,
    /// Thread that performed the earlier conflicting access.
    pub other_thread: usize,
    /// `"write-write"`, `"read-write"` or `"write-read"`.
    pub kind: &'static str,
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "data race ({}) on `{}` between thread {} and thread {}",
            self.kind, self.location, self.thread, self.other_thread
        )
    }
}

#[derive(Debug, Default, Clone)]
struct Location {
    /// Clock of the last write and the thread that made it.
    last_write: Option<(usize, Clock)>,
    /// Per-thread clock at its latest read since the last write.
    reads: BTreeMap<usize, Clock>,
}

/// Happens-before race detector over named locations and sync objects.
#[derive(Debug, Default)]
pub struct RaceDetector {
    threads: BTreeMap<usize, Clock>,
    syncs: BTreeMap<String, Clock>,
    locations: BTreeMap<String, Location>,
    races: Vec<Race>,
}

impl RaceDetector {
    /// A fresh detector with no threads registered; threads register
    /// implicitly on first use, or via [`fork`](Self::fork).
    pub fn new() -> Self {
        Self::default()
    }

    fn tick(&mut self, t: usize) {
        let clock = self.threads.entry(t).or_default();
        *clock.entry(t).or_insert(0) += 1;
    }

    fn clock(&mut self, t: usize) -> Clock {
        self.threads.entry(t).or_default().clone()
    }

    /// `child` starts knowing everything `parent` knows.
    pub fn fork(&mut self, parent: usize, child: usize) {
        self.tick(parent);
        let pc = self.clock(parent);
        let cc = self.threads.entry(child).or_default();
        join(cc, &pc);
        self.tick(child);
    }

    /// Thread `t` acquires sync object `sync` — joins the clock the last
    /// releaser published.
    pub fn acquire(&mut self, t: usize, sync: &str) {
        self.tick(t);
        if let Some(sc) = self.syncs.get(sync).cloned() {
            let tc = self.threads.entry(t).or_default();
            join(tc, &sc);
        }
    }

    /// Thread `t` releases `sync` — publishes its clock for the next
    /// acquirer.
    pub fn release(&mut self, t: usize, sync: &str) {
        self.tick(t);
        let tc = self.clock(t);
        let sc = self.syncs.entry(sync.to_string()).or_default();
        join(sc, &tc);
    }

    /// A channel send is a release on the channel's sync id.
    pub fn send(&mut self, t: usize, channel: &str) {
        self.release(t, channel);
    }

    /// A channel receive is an acquire on the channel's sync id.
    pub fn recv(&mut self, t: usize, channel: &str) {
        self.acquire(t, channel);
    }

    /// Thread `t` performs a plain (non-atomic) read of `location`.
    pub fn read(&mut self, t: usize, location: &str) {
        self.tick(t);
        let tc = self.clock(t);
        let loc = self.locations.entry(location.to_string()).or_default();
        if let Some((wt, wc)) = &loc.last_write {
            if *wt != t && !le(wc, &tc) {
                self.races.push(Race {
                    location: location.to_string(),
                    thread: t,
                    other_thread: *wt,
                    kind: "write-read",
                });
            }
        }
        loc.reads.insert(t, tc);
    }

    /// Thread `t` performs a plain (non-atomic) write to `location`.
    pub fn write(&mut self, t: usize, location: &str) {
        self.tick(t);
        let tc = self.clock(t);
        let loc = self.locations.entry(location.to_string()).or_default();
        if let Some((wt, wc)) = &loc.last_write {
            if *wt != t && !le(wc, &tc) {
                self.races.push(Race {
                    location: location.to_string(),
                    thread: t,
                    other_thread: *wt,
                    kind: "write-write",
                });
            }
        }
        for (&rt, rc) in &loc.reads {
            if rt != t && !le(rc, &tc) {
                self.races.push(Race {
                    location: location.to_string(),
                    thread: t,
                    other_thread: rt,
                    kind: "read-write",
                });
            }
        }
        loc.reads.clear();
        loc.last_write = Some((t, tc));
    }

    /// Races found so far, in discovery order.
    pub fn races(&self) -> &[Race] {
        &self.races
    }

    /// Drain the recorded races.
    pub fn take_races(&mut self) -> Vec<Race> {
        std::mem::take(&mut self.races)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsynchronized_write_write_races() {
        let mut d = RaceDetector::new();
        d.fork(0, 1);
        d.write(0, "x");
        d.write(1, "x");
        assert_eq!(d.races().len(), 1);
        assert_eq!(d.races()[0].kind, "write-write");
    }

    #[test]
    fn lock_ordered_accesses_are_clean() {
        let mut d = RaceDetector::new();
        d.fork(0, 1);
        d.acquire(0, "m");
        d.write(0, "x");
        d.release(0, "m");
        d.acquire(1, "m");
        d.write(1, "x");
        d.read(1, "x");
        d.release(1, "m");
        assert!(d.races().is_empty(), "{:?}", d.races());
    }

    #[test]
    fn channel_transfer_orders_the_handoff() {
        let mut d = RaceDetector::new();
        d.fork(0, 1);
        d.write(0, "payload");
        d.send(0, "ch");
        d.recv(1, "ch");
        d.read(1, "payload");
        assert!(d.races().is_empty(), "{:?}", d.races());
        // Reading without the recv edge would race:
        let mut d = RaceDetector::new();
        d.fork(0, 1);
        d.write(0, "payload");
        d.send(0, "ch");
        d.read(1, "payload");
        assert_eq!(d.races().len(), 1);
        assert_eq!(d.races()[0].kind, "write-read");
    }

    /// Model of the telemetry ring's cursor protocol: the recorder
    /// publishes events under the ring mutex; readers snapshot under the
    /// same mutex. Mutual exclusion alone orders every access.
    #[test]
    fn telemetry_ring_cursor_protocol_is_race_free() {
        let mut d = RaceDetector::new();
        d.fork(0, 1); // recorder thread
        d.fork(0, 2); // snapshot reader
        for _ in 0..3 {
            d.acquire(1, "ring.mutex");
            d.write(1, "ring.cursor");
            d.write(1, "ring.slots");
            d.release(1, "ring.mutex");
        }
        d.acquire(2, "ring.mutex");
        d.read(2, "ring.cursor");
        d.read(2, "ring.slots");
        d.release(2, "ring.mutex");
        assert!(d.races().is_empty(), "{:?}", d.races());
    }

    /// Model of the sink's lane drop counters: producers bump an atomic
    /// drop counter (modeled as release on the counter's sync id), the
    /// stats reader joins via acquire. The *non-atomic* lane queue is
    /// protected by the lane mutex. Dropping the lane mutex edge races.
    #[test]
    fn sink_lane_drop_counter_protocol() {
        let mut d = RaceDetector::new();
        d.fork(0, 1); // producer
        d.fork(0, 2); // writer thread
        d.acquire(1, "lane.mutex");
        d.write(1, "lane.queue");
        d.release(1, "lane.mutex");
        d.send(1, "atomic:lane.dropped");
        d.acquire(2, "lane.mutex");
        d.read(2, "lane.queue");
        d.release(2, "lane.mutex");
        d.recv(2, "atomic:lane.dropped");
        assert!(d.races().is_empty(), "{:?}", d.races());
        // Same pattern without the lane mutex: queue access races.
        let mut d = RaceDetector::new();
        d.fork(0, 1);
        d.fork(0, 2);
        d.write(1, "lane.queue");
        d.read(2, "lane.queue");
        assert_eq!(d.races().len(), 1);
    }
}
