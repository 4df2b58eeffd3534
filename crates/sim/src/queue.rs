//! The pending-event set: a monotone radix heap keyed on (time, sequence).
//!
//! Simulated time never runs backwards, so every pending event is at or
//! after the last popped time `last`. The queue files each event by the
//! highest bit where its time differs from `last`: bucket 0 holds the
//! events due at `last` itself, bucket `b` (1..=64) those whose time first
//! differs at bit `b - 1`. A pop takes the front of bucket 0. When that is
//! empty, the lowest non-empty bucket is re-filed against its own earliest
//! time, which becomes `last`; its events all land in lower buckets, so an
//! event moves at most 64 times in its life and is never sifted.
//!
//! The sequence number is implicit. A push appends, and re-filing keeps
//! each bucket's order, so two events scheduled for the same instant (which
//! always share a bucket) pop in the order they were pushed. The ordering
//! is therefore **total** and equal to a (time, push order) heap's, which
//! is what makes whole-simulation determinism possible.
//!
//! A push earlier than `last` can only come from a caller outside the
//! simulator; the queue then re-files its whole pending set against the
//! new time, so the order stays exact there too.

use oddci_types::SimTime;
use std::collections::VecDeque;

/// Buckets above the same-instant one: one per bit of a `SimTime`.
const RADIX: usize = 64;

/// A time-ordered queue of simulation events.
pub struct EventQueue<E> {
    /// Bucket 0: the events due at `last`, in push order.
    due: VecDeque<E>,
    /// Bucket `b + 1`: events whose time first differs from `last` at
    /// bit `b`, each with its time.
    buckets: [Vec<(SimTime, E)>; RADIX],
    /// Bit `b` set when `buckets[b]` is non-empty.
    occupied: u64,
    /// The last popped (or peeked) time; no pending event is earlier.
    last: SimTime,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `cap` events due at one
    /// instant (the other buckets grow as events reach them).
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            due: VecDeque::with_capacity(cap),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            last: SimTime::ZERO,
            len: 0,
        }
    }

    /// Enqueues `event` to fire at `at`.
    #[inline]
    pub fn push(&mut self, at: SimTime, event: E) {
        if at < self.last {
            self.refile_from(at);
        }
        self.file(at, event);
        self.len += 1;
    }

    /// Removes and returns the earliest event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.due.is_empty() && !self.advance() {
            return None;
        }
        let event = self.due.pop_front()?;
        self.len -= 1;
        Some((self.last, event))
    }

    /// Timestamp of the earliest pending event. Takes `&mut self` because
    /// finding it may re-file a bucket.
    #[inline]
    pub(crate) fn peek_time(&mut self) -> Option<&SimTime> {
        if self.due.is_empty() && !self.advance() {
            return None;
        }
        Some(&self.last)
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Discards all pending events. Events pushed afterwards still pop in
    /// (time, push order).
    pub fn clear(&mut self) {
        self.due.clear();
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.occupied = 0;
        self.len = 0;
    }

    /// Puts `event` in the bucket its time selects relative to `last`.
    #[inline]
    fn file(&mut self, at: SimTime, event: E) {
        let diff = (at.as_micros() ^ self.last.as_micros()).leading_zeros();
        if diff == u64::BITS {
            self.due.push_back(event);
        } else {
            let b = (u64::BITS - 1 - diff) as usize;
            self.buckets[b].push((at, event));
            self.occupied |= 1 << b;
        }
    }

    /// Refills the empty bucket 0 from the lowest non-empty bucket: its
    /// earliest time becomes `last` and each of its events moves to a
    /// lower bucket, keeping their order. False when nothing is pending.
    fn advance(&mut self) -> bool {
        if self.occupied == 0 {
            return false;
        }
        let b = self.occupied.trailing_zeros() as usize;
        self.occupied &= !(1 << b);
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        self.last = bucket
            .iter()
            .map(|&(at, _)| at)
            .min()
            .expect("an occupied bucket is non-empty");
        for (at, event) in bucket.drain(..) {
            self.file(at, event);
        }
        // Hand the emptied vector back so its capacity is reused.
        self.buckets[b] = bucket;
        true
    }

    /// Re-files every pending event against a new, earlier `last`.
    #[cold]
    fn refile_from(&mut self, at: SimTime) {
        let mut pending = Vec::with_capacity(self.len);
        let old = self.last;
        pending.extend(self.due.drain(..).map(|event| (old, event)));
        for bucket in &mut self.buckets {
            pending.append(bucket);
        }
        self.occupied = 0;
        self.last = at;
        for (t, event) in pending {
            self.file(t, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(3), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(5), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), 2);
        q.push(SimTime::from_secs(4), 4);
        assert_eq!(q.pop().unwrap().1, 2);
        q.push(SimTime::from_secs(3), 3);
        q.push(SimTime::from_secs(1), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), ());
        assert_eq!(q.peek_time(), Some(&SimTime::from_secs(1)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties_but_preserves_sequencing() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), 1);
        q.clear();
        assert!(q.is_empty());
        q.push(SimTime::from_secs(1), 2);
        q.push(SimTime::from_secs(1), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn large_volume_stays_sorted() {
        // Pseudo-random insertion order, verify monotone pop times.
        let mut q = EventQueue::new();
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.push(SimTime::from_micros(x % 1_000_000), x);
        }
        let mut prev = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= prev);
            prev = t;
        }
    }
}

/// The queue against a `BinaryHeap` over (time, push sequence): the order
/// the radix heap must reproduce exactly.
#[cfg(test)]
mod model {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The benchmark's one-year horizon, in microseconds.
    const YEAR_US: u64 = 365 * 24 * 3600 * 1_000_000;
    /// Events pushed by one burst at a single instant.
    const BURST: u64 = 10_000;

    #[derive(Default)]
    struct Model {
        heap: BinaryHeap<Reverse<(SimTime, u64)>>,
        seq: u64,
    }

    impl Model {
        /// Pushes into both and returns the payload (its sequence).
        fn push(&mut self, q: &mut EventQueue<u64>, at: SimTime) {
            self.heap.push(Reverse((at, self.seq)));
            q.push(at, self.seq);
            self.seq += 1;
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            self.heap.pop().map(|Reverse(e)| e)
        }
    }

    /// A time at or after `base`: the same instant, a near one or anywhere
    /// up to the one-year horizon.
    fn later(base: SimTime, pick: u64, r: u64) -> SimTime {
        let delta = match pick % 4 {
            0 => 0,
            1 => r % 1_000,
            2 => r % 60_000_000,
            _ => r % YEAR_US,
        };
        SimTime::from_micros((base.as_micros() + delta).min(YEAR_US))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random interleavings of pushes (same-instant, near, far and
        /// before the last pop), one 10k burst, peeks, pops and clears pop
        /// exactly what the model pops.
        #[test]
        fn matches_a_binary_heap_model(ops in proptest::collection::vec((0u8..32, any::<u64>()), 1..400)) {
            let mut q = EventQueue::new();
            let mut m = Model::default();
            let mut last = SimTime::ZERO;
            let mut burst_done = false;
            for (op, r) in ops {
                match op {
                    0..=13 => m.push(&mut q, later(last, r >> 60, r)),
                    14..=23 => {
                        let got = q.pop();
                        prop_assert_eq!(got, m.pop());
                        if let Some((t, _)) = got {
                            last = t;
                        }
                    }
                    24..=26 => {
                        let want = m.heap.peek().map(|Reverse((t, _))| *t);
                        prop_assert_eq!(q.peek_time().copied(), want);
                    }
                    27..=28 => {
                        // Earlier than the last pop: a caller outside the
                        // simulator rewinding the clock.
                        let back = last.as_micros().saturating_sub(r % 5_000_000);
                        m.push(&mut q, SimTime::from_micros(back));
                    }
                    29 if !burst_done => {
                        burst_done = true;
                        let at = later(last, r >> 60, r);
                        for _ in 0..BURST {
                            m.push(&mut q, at);
                        }
                    }
                    30 => {
                        q.clear();
                        m.heap.clear();
                    }
                    _ => {}
                }
                prop_assert_eq!(q.len(), m.heap.len());
            }
            while let Some(want) = m.pop() {
                prop_assert_eq!(q.pop(), Some(want));
            }
            prop_assert!(q.pop().is_none());
            prop_assert!(q.is_empty());
        }
    }

    #[test]
    fn ten_thousand_pushes_at_one_instant_pop_in_push_order() {
        let mut q = EventQueue::new();
        let mut m = Model::default();
        m.push(&mut q, SimTime::from_secs(9));
        let at = SimTime::from_micros(YEAR_US);
        for _ in 0..BURST {
            m.push(&mut q, at);
        }
        m.push(&mut q, SimTime::from_secs(3));
        while let Some(want) = m.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert!(q.is_empty());
    }
}
