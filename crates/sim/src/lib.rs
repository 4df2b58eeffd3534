#![forbid(unsafe_code)]

//! Deterministic discrete-event simulation engine.
//!
//! This is the substrate on which the whole OddCI-DTV emulation runs: the
//! broadcast carousel, the set-top-box population, the direct channels and
//! the control plane are all actors exchanging timestamped events through
//! the [`Simulator`] defined here.
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** Two runs with the same seed produce byte-identical
//!    traces. Event ordering is total: ties on the timestamp are broken by
//!    insertion order, and all randomness flows from a single master seed
//!    through [`rng::SeedForge`].
//! 2. **Scale.** A million simulated PNAs must be cheap. Events are small
//!    POD values in a monotone radix heap ([`queue`]), which files them by
//!    time instead of sifting them; actors are dense `Vec`-indexed state,
//!    not boxed objects.
//! 3. **Ergonomics.** A [`Model`] implements one `handle` method; the
//!    [`Context`] passed in can schedule follow-up events, sample
//!    randomness, and record statistics.
//!
//! # Example
//!
//! ```
//! use oddci_sim::{Context, Model, Simulator};
//! use oddci_types::{SimDuration, SimTime};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! #[derive(Debug)]
//! struct Tick;
//!
//! impl Model for Counter {
//!     type Event = Tick;
//!     fn handle(&mut self, _ev: Tick, ctx: &mut Context<'_, Tick>) {
//!         self.fired += 1;
//!         if self.fired < 5 {
//!             ctx.schedule_at(ctx.now() + SimDuration::from_secs(1), Tick);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new(Counter { fired: 0 }, 42);
//! sim.schedule_at(SimTime::ZERO, Tick);
//! sim.run();
//! assert_eq!(sim.model().fired, 5);
//! assert_eq!(sim.now(), SimTime::from_secs(4));
//! ```

pub mod churn;
pub mod queue;
pub mod rng;
pub mod stats;

pub use churn::{ChurnProcess, OnOffState};
pub use queue::EventQueue;
pub use rng::SeedForge;
pub use stats::{Histogram, Summary, Welford};

use oddci_types::SimTime;
use rand::rngs::SmallRng;

/// A simulation model: one type of event, one handler.
///
/// Large models (like the full OddCI world) use an event *enum* and
/// dispatch internally; this keeps the engine monomorphic and fast.
pub trait Model {
    /// The event payload type routed through the queue.
    type Event;

    /// Handles one event at the current simulation time.
    fn handle(&mut self, event: Self::Event, ctx: &mut Context<'_, Self::Event>);
}

/// Everything a handler may touch besides its own state: the clock, the
/// event queue and the model's deterministic RNG.
pub struct Context<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    rng: &'a mut SmallRng,
    stop: &'a mut bool,
}

impl<'a, E> Context<'a, E> {
    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute instant `at` (must not be in the past).
    #[inline]
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event);
    }

    /// The model's deterministic random source.
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// Requests that the simulation stop after this handler returns,
    /// leaving any queued events unprocessed.
    #[inline]
    pub fn stop(&mut self) {
        *self.stop = true;
    }
}

/// The discrete-event simulator: an event queue, a clock and a [`Model`].
pub struct Simulator<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    rng: SmallRng,
    now: SimTime,
    processed: u64,
}

impl<M: Model> Simulator<M> {
    /// Creates a simulator over `model`, seeding all randomness from `seed`.
    pub fn new(model: M, seed: u64) -> Self {
        Simulator {
            model,
            queue: EventQueue::new(),
            rng: SeedForge::new(seed).rng("simulator"),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Schedules an initial event (before or between runs).
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event);
    }

    /// Runs until the event queue drains or a handler calls [`Context::stop`].
    /// Returns the number of events processed during this call.
    pub fn run(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Runs until the queue drains, a handler stops the run, or the next
    /// event would be strictly later than `horizon` (events *at* the horizon
    /// are processed). Returns the number of events processed.
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        let mut stop = false;
        let mut processed_now = 0;
        while let Some(&at) = self.queue.peek_time() {
            if at > horizon {
                break;
            }
            let (at, event) = self.queue.pop().expect("peeked event exists");
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            let mut ctx = Context {
                now: self.now,
                queue: &mut self.queue,
                rng: &mut self.rng,
                stop: &mut stop,
            };
            self.model.handle(event, &mut ctx);
            processed_now += 1;
            if stop {
                break;
            }
        }
        // If we stopped on the horizon with events still pending, advance
        // the clock to the horizon so repeated run_until calls are seamless.
        if !stop && self.now < horizon && horizon != SimTime::MAX {
            self.now = horizon;
        }
        self.processed += processed_now;
        processed_now
    }

    /// Processes exactly one event, if any is pending. Returns its timestamp.
    pub fn step(&mut self) -> Option<SimTime> {
        let (at, event) = self.queue.pop()?;
        self.now = at;
        let mut stop = false;
        let mut ctx = Context {
            now: self.now,
            queue: &mut self.queue,
            rng: &mut self.rng,
            stop: &mut stop,
        };
        self.model.handle(event, &mut ctx);
        self.processed += 1;
        Some(at)
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed since construction.
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Immutable access to the model.
    #[inline]
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model (for out-of-band inspection/injection in
    /// tests and harnesses).
    #[inline]
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oddci_types::SimDuration;

    /// Model that records (time, tag) pairs to verify ordering.
    struct Recorder {
        log: Vec<(SimTime, u32)>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, ev: u32, ctx: &mut Context<'_, u32>) {
            self.log.push((ctx.now(), ev));
        }
    }

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Simulator::new(Recorder { log: vec![] }, 1);
        sim.schedule_at(SimTime::from_secs(3), 3);
        sim.schedule_at(SimTime::from_secs(1), 1);
        sim.schedule_at(SimTime::from_secs(2), 2);
        sim.run();
        let tags: Vec<u32> = sim.model().log.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim = Simulator::new(Recorder { log: vec![] }, 1);
        for tag in 0..10 {
            sim.schedule_at(SimTime::from_secs(5), tag);
        }
        sim.run();
        let tags: Vec<u32> = sim.model().log.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_respects_horizon_inclusive() {
        let mut sim = Simulator::new(Recorder { log: vec![] }, 1);
        sim.schedule_at(SimTime::from_secs(1), 1);
        sim.schedule_at(SimTime::from_secs(2), 2);
        sim.schedule_at(SimTime::from_secs(3), 3);
        let n = sim.run_until(SimTime::from_secs(2));
        assert_eq!(n, 2);
        assert_eq!(sim.now(), SimTime::from_secs(2));
        // Continue seamlessly.
        assert_eq!(sim.run(), 1);
        assert_eq!(sim.model().log.len(), 3);
    }

    #[test]
    fn run_until_advances_clock_to_horizon_when_idle() {
        let mut sim = Simulator::new(Recorder { log: vec![] }, 1);
        sim.run_until(SimTime::from_secs(100));
        assert_eq!(sim.now(), SimTime::from_secs(100));
    }

    struct Stopper {
        handled: u32,
    }
    impl Model for Stopper {
        type Event = ();
        fn handle(&mut self, _: (), ctx: &mut Context<'_, ()>) {
            self.handled += 1;
            if self.handled == 2 {
                ctx.stop();
            }
        }
    }

    #[test]
    fn stop_halts_mid_queue() {
        let mut sim = Simulator::new(Stopper { handled: 0 }, 1);
        for i in 0..5 {
            sim.schedule_at(SimTime::from_secs(i), ());
        }
        sim.run();
        assert_eq!(sim.model().handled, 2);
        // The rest stayed queued.
        assert_eq!(sim.run(), 3);
    }

    struct Chainer {
        hops: u32,
    }
    impl Model for Chainer {
        type Event = ();
        fn handle(&mut self, _: (), ctx: &mut Context<'_, ()>) {
            self.hops += 1;
            if self.hops < 100 {
                ctx.schedule_at(ctx.now() + SimDuration::from_millis(10), ());
            }
        }
    }

    #[test]
    fn handlers_can_schedule_follow_ups() {
        let mut sim = Simulator::new(Chainer { hops: 0 }, 1);
        sim.schedule_at(SimTime::ZERO, ());
        let n = sim.run();
        assert_eq!(n, 100);
        assert_eq!(sim.now(), SimTime::from_micros(99 * 10_000));
    }

    struct RngUser {
        draws: Vec<u64>,
    }
    impl Model for RngUser {
        type Event = ();
        fn handle(&mut self, _: (), ctx: &mut Context<'_, ()>) {
            use rand::Rng;
            let v = ctx.rng().random::<u64>();
            self.draws.push(v);
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let run = |seed| {
            let mut sim = Simulator::new(RngUser { draws: vec![] }, seed);
            for i in 0..50 {
                sim.schedule_at(SimTime::from_secs(i), ());
            }
            sim.run();
            sim.model().draws.clone()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn step_processes_single_events() {
        let mut sim = Simulator::new(Recorder { log: vec![] }, 1);
        sim.schedule_at(SimTime::from_secs(1), 10);
        sim.schedule_at(SimTime::from_secs(2), 20);
        assert_eq!(sim.step(), Some(SimTime::from_secs(1)));
        assert_eq!(sim.model().log.len(), 1);
        assert_eq!(sim.step(), Some(SimTime::from_secs(2)));
        assert_eq!(sim.step(), None);
        assert_eq!(sim.events_processed(), 2);
    }
}
