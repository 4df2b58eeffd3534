//! Deterministic schedule explorer: bounded DFS over thread interleavings.
//!
//! A scenario registers a handful of *virtual threads* (each backed by a
//! real OS thread) that interact only through the model primitives below
//! ([`ModelMutex`], [`ModelAtomic`], [`ModelChannel`]).
//! Every primitive operation is a **yield point**: the thread parks and
//! the explorer picks who runs next. Because only one virtual thread runs
//! at a time, the set of behaviours is exactly the set of yield-point
//! interleavings — which the explorer enumerates by depth-first search,
//! bounded by [`Explorer::max_schedules`]. The seed permutes the order in
//! which choices are tried at each step, so different seeds probe
//! different corners of the schedule space first.
//!
//! Every run produces a **replayable schedule string** of the form
//! `s<seed>:<tid>.<tid>.…` — the sequence of thread ids scheduled at each
//! step. [`Explorer::replay`] re-executes exactly that interleaving, which
//! is how an explorer-discovered failure becomes a deterministic
//! regression test (see `tests/check_schedules.rs`).
//!
//! Failures come from two sources: a scenario assertion panicking, or a
//! deadlock (no virtual thread runnable but not all done). After a
//! failure the run switches to *free-run* mode so the remaining OS
//! threads can drain and be joined; a blocked thread that can never make
//! progress in free-run bails out with a sentinel panic that is swallowed.
//!
//! The scheduler below uses `std::sync` directly: it IS the instrument,
//! and routing its own turnstile through [`crate::sync`] would feed the
//! lock-order graph with scheduler-internal edges.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Panic payload used by free-run bail-out; never reported as a failure.
const FREE_RUN_BAIL: &str = "oddci-check free-run bail-out";

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order in which the DFS tries runnable threads at `step`:
/// ascending thread id, rotated by a seed-and-step-derived amount.
fn try_order(runnable: &[usize], seed: u64, step: usize) -> Vec<usize> {
    let mut order: Vec<usize> = runnable.to_vec();
    order.sort_unstable();
    if !order.is_empty() {
        let r = (splitmix64(seed ^ (step as u64)) as usize) % order.len();
        order.rotate_left(r);
    }
    order
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum VState {
    Ready,
    Running,
    Blocked(u64),
    Done,
}

/// One scheduling decision: which thread ran, out of which runnable set.
#[derive(Debug, Clone)]
struct Step {
    chosen: usize,
    runnable: Vec<usize>,
}

#[derive(Debug, Default)]
struct Sched {
    states: Vec<VState>,
    names: Vec<String>,
    running: Option<usize>,
    free_run: bool,
    failure: Option<String>,
    steps: Vec<Step>,
}

/// Turnstile shared by the explorer thread and every virtual thread.
#[derive(Debug, Default)]
struct Controller {
    sched: Mutex<Sched>,
    cv: Condvar,
}

impl Controller {
    fn lock(&self) -> MutexGuard<'_, Sched> {
        self.sched
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Park until scheduled (or free-run). Returns false in free-run.
    fn wait_turn(&self, me: usize) -> bool {
        let mut s = self.lock();
        loop {
            if s.free_run {
                return false;
            }
            if s.running == Some(me) {
                return true;
            }
            s = self
                .cv
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Hand the turn back as Ready and park for the next one.
    fn yield_now(&self, me: usize) {
        {
            let mut s = self.lock();
            if s.free_run {
                return;
            }
            if s.running == Some(me) {
                s.states[me] = VState::Ready;
                s.running = None;
                self.cv.notify_all();
            }
        }
        self.wait_turn(me);
    }

    /// Park as Blocked(resource) until some thread unblocks the resource
    /// and the scheduler picks us again.
    fn block_on(&self, me: usize, resource: u64) {
        {
            let mut s = self.lock();
            if s.free_run {
                drop(s);
                std::thread::sleep(Duration::from_millis(1));
                return;
            }
            s.states[me] = VState::Blocked(resource);
            s.running = None;
            self.cv.notify_all();
        }
        self.wait_turn(me);
    }

    /// Move every thread blocked on `resource` back to Ready.
    fn unblock(&self, resource: u64) {
        let mut s = self.lock();
        for st in &mut s.states {
            if *st == VState::Blocked(resource) {
                *st = VState::Ready;
            }
        }
        self.cv.notify_all();
    }

    /// Record a failure (first one wins) — the drive loop reacts.
    fn fail(&self, msg: String) {
        let mut s = self.lock();
        if s.failure.is_none() {
            s.failure = Some(msg);
        }
        self.cv.notify_all();
    }

    /// Mark a virtual thread finished and hand the turn back.
    fn finish(&self, me: usize) {
        let mut s = self.lock();
        s.states[me] = VState::Done;
        if s.running == Some(me) {
            s.running = None;
        }
        self.cv.notify_all();
    }

    /// The scheduler loop: pick runnable threads one step at a time until
    /// every thread is done, a failure is recorded, or a deadlock /
    /// step-budget exhaustion is detected.
    fn drive(&self, seed: u64, replay: &[usize]) {
        loop {
            let mut s = self.lock();
            while s.running.is_some() && s.failure.is_none() && !s.free_run {
                s = self
                    .cv
                    .wait(s)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            if s.failure.is_some() || s.free_run {
                s.free_run = true;
                self.cv.notify_all();
                return;
            }
            if s.states.iter().all(|st| *st == VState::Done) {
                return;
            }
            let runnable: Vec<usize> = s
                .states
                .iter()
                .enumerate()
                .filter(|(_, st)| **st == VState::Ready)
                .map(|(i, _)| i)
                .collect();
            if runnable.is_empty() {
                let stuck: Vec<String> = s
                    .states
                    .iter()
                    .enumerate()
                    .filter(|(_, st)| matches!(st, VState::Blocked(_)))
                    .map(|(i, _)| s.names[i].clone())
                    .collect();
                s.failure = Some(format!(
                    "deadlock: all live threads blocked ({})",
                    stuck.join(", ")
                ));
                s.free_run = true;
                self.cv.notify_all();
                return;
            }
            let step = s.steps.len();
            if step >= MAX_STEPS {
                s.failure = Some(format!(
                    "step budget exceeded ({MAX_STEPS} steps) — livelock?"
                ));
                s.free_run = true;
                self.cv.notify_all();
                return;
            }
            let order = try_order(&runnable, seed, step);
            let chosen = if let Some(&want) = replay.get(step) {
                if runnable.contains(&want) {
                    want
                } else {
                    s.failure = Some(format!(
                        "replay diverged at step {step}: thread {want} not runnable (runnable: {runnable:?})"
                    ));
                    s.free_run = true;
                    self.cv.notify_all();
                    return;
                }
            } else {
                order[0]
            };
            s.steps.push(Step {
                chosen,
                runnable: runnable.clone(),
            });
            s.states[chosen] = VState::Running;
            s.running = Some(chosen);
            self.cv.notify_all();
        }
    }
}

/// Handle a virtual-thread body uses to interact with the scheduler.
#[derive(Clone)]
pub struct Ctx {
    ctrl: Arc<Controller>,
    id: usize,
    /// Free-run retry counter: once a run has failed, a thread that still
    /// can't make progress after ~300 sleep-retries bails out with the
    /// swallowed sentinel panic instead of spinning forever.
    bail: std::cell::Cell<u32>,
}

impl Ctx {
    /// This virtual thread's id (what schedule strings refer to).
    pub fn id(&self) -> usize {
        self.id
    }

    /// An explicit interleaving point: park and let the scheduler choose.
    pub(crate) fn yield_point(&self) {
        self.ctrl.yield_now(self.id);
    }

    fn block_on(&self, resource: u64) {
        if self.ctrl.lock().free_run {
            let n = self.bail.get() + 1;
            self.bail.set(n);
            if n > 300 {
                panic!("{FREE_RUN_BAIL}");
            }
            std::thread::sleep(Duration::from_millis(1));
            return;
        }
        self.ctrl.block_on(self.id, resource);
    }

    fn unblock(&self, resource: u64) {
        self.ctrl.unblock(resource);
    }

    /// Record a scenario-level failure without panicking.
    pub fn fail(&self, msg: impl Into<String>) {
        self.ctrl.fail(msg.into());
    }
}

/// Registers virtual threads during scenario setup.
pub struct Spawner {
    ctrl: Arc<Controller>,
    #[allow(clippy::type_complexity)]
    bodies: Vec<(String, Box<dyn FnOnce(Ctx) + Send + 'static>)>,
}

impl Spawner {
    /// Register a virtual thread. Bodies start parked; nothing runs until
    /// setup returns and the explorer starts scheduling.
    pub fn spawn(&mut self, name: &str, body: impl FnOnce(Ctx) + Send + 'static) -> usize {
        let id = {
            let mut s = self.ctrl.lock();
            let id = s.states.len();
            s.states.push(VState::Ready);
            s.names.push(name.to_string());
            id
        };
        self.bodies.push((name.to_string(), Box::new(body)));
        id
    }
}

/// A failing interleaving: what went wrong and the schedule to replay it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Panic message or deadlock description.
    pub message: String,
    /// Replayable schedule string (`s<seed>:0.1.0.…`).
    pub schedule: String,
}

/// Outcome of [`Explorer::explore`].
#[derive(Debug, Clone)]
pub struct ExploreResult {
    /// Number of complete interleavings executed.
    pub schedules: usize,
    /// True when the bounded DFS covered the whole schedule space.
    pub exhausted: bool,
    /// First failing interleaving, if any.
    pub failure: Option<Failure>,
    /// Replayable schedule string of the last run (a witness that the
    /// scenario completes — printed by `oddci check`).
    pub last_schedule: String,
}

/// Outcome of [`Explorer::replay`].
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Failure message if the replayed interleaving fails.
    pub failure: Option<String>,
    /// Full schedule string actually executed (replay prefix plus any
    /// default-choice continuation).
    pub schedule: String,
    /// Steps executed.
    pub steps: usize,
}

struct RunRecord {
    steps: Vec<Step>,
    failure: Option<String>,
}

fn schedule_string(seed: u64, steps: &[Step]) -> String {
    let mut out = format!("s{seed}:");
    for (i, st) in steps.iter().enumerate() {
        if i > 0 {
            out.push('.');
        }
        let _ = write!(out, "{}", st.chosen);
    }
    out
}

/// Parse a `s<seed>:a.b.c` schedule string back into seed + thread ids.
pub(crate) fn parse_schedule(s: &str) -> Option<(u64, Vec<usize>)> {
    let rest = s.strip_prefix('s')?;
    let (seed, tids) = rest.split_once(':')?;
    let seed = seed.parse().ok()?;
    if tids.is_empty() {
        return Some((seed, Vec::new()));
    }
    let tids = tids
        .split('.')
        .map(str::parse)
        .collect::<Result<Vec<usize>, _>>()
        .ok()?;
    Some((seed, tids))
}

/// Bound on scheduling steps per interleaving (livelock guard).
const MAX_STEPS: usize = 10_000;

/// Bounded depth-first schedule explorer. Scenario setup must be
/// deterministic (same spawns, same yield structure) for replay and DFS
/// backtracking to be meaningful.
#[derive(Debug, Clone)]
pub struct Explorer {
    seed: u64,
    max_schedules: usize,
}

impl Explorer {
    /// An explorer trying up to 256 schedules of up to 10 000 steps.
    pub fn new(seed: u64) -> Self {
        Explorer {
            seed,
            max_schedules: 256,
        }
    }

    /// Bound on complete interleavings to execute.
    pub fn max_schedules(mut self, n: usize) -> Self {
        self.max_schedules = n.max(1);
        self
    }

    fn run_once(
        &self,
        setup: &dyn Fn(&mut Spawner),
        replay: &[usize],
        drive_seed: u64,
    ) -> RunRecord {
        let ctrl = Arc::new(Controller::default());
        let mut spawner = Spawner {
            ctrl: Arc::clone(&ctrl),
            bodies: Vec::new(),
        };
        setup(&mut spawner);
        let mut handles = Vec::new();
        for (id, (name, body)) in spawner.bodies.into_iter().enumerate() {
            let ctrl2 = Arc::clone(&ctrl);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("vthread-{id}-{name}"))
                    .spawn(move || {
                        let ctx = Ctx {
                            ctrl: Arc::clone(&ctrl2),
                            id,
                            bail: std::cell::Cell::new(0),
                        };
                        ctrl2.wait_turn(id);
                        let result = catch_unwind(AssertUnwindSafe(|| body(ctx)));
                        if let Err(payload) = result {
                            let msg = payload
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "virtual thread panicked".to_string());
                            if msg != FREE_RUN_BAIL {
                                ctrl2.fail(format!("[{name}] {msg}"));
                            }
                        }
                        ctrl2.finish(id);
                    })
                    .expect("spawn virtual thread"),
            );
        }
        ctrl.drive(drive_seed, replay);
        for h in handles {
            let _ = h.join();
        }
        let mut s = ctrl.lock();
        RunRecord {
            steps: std::mem::take(&mut s.steps),
            failure: s.failure.take(),
        }
    }

    /// Search over interleavings of `setup`'s virtual threads, stopping
    /// at the first failure or the schedule bound. Two phases:
    ///
    /// 1. **Seeded random sampling** (a quarter of the budget, up to
    ///    128 runs): each run drives scheduling decisions from a
    ///    per-run derived seed. This is what catches bugs needing a
    ///    couple of context switches *early* in the run — a divergence
    ///    the deepest-first DFS would take exponentially long to reach
    ///    back to.
    /// 2. **Bounded DFS** from the deepest untried alternative, which
    ///    systematically covers (and can exhaust) small schedule
    ///    spaces.
    ///
    /// Both phases are fully deterministic in the explorer seed, and
    /// every failing run yields a replayable schedule string.
    pub fn explore(&self, setup: impl Fn(&mut Spawner)) -> ExploreResult {
        let mut schedules = 0;
        let samples = if self.max_schedules > 8 {
            (self.max_schedules / 4).min(128)
        } else {
            0
        };
        for i in 0..samples {
            let drive_seed = splitmix64(self.seed ^ 0xA11C_E5ED ^ (i as u64) << 32);
            let run = self.run_once(&setup, &[], drive_seed);
            schedules += 1;
            // The schedule string records every decision explicitly, so
            // it replays under the *explorer* seed regardless of the
            // per-run sampling seed.
            let schedule = schedule_string(self.seed, &run.steps);
            if let Some(message) = run.failure {
                return ExploreResult {
                    schedules,
                    exhausted: false,
                    failure: Some(Failure {
                        message,
                        schedule: schedule.clone(),
                    }),
                    last_schedule: schedule,
                };
            }
        }
        // The sampling budget is always a strict fraction of the total,
        // so the DFS below runs at least once and owns `last_schedule`.
        let mut replay: Vec<usize> = Vec::new();
        loop {
            let run = self.run_once(&setup, &replay, self.seed);
            schedules += 1;
            let schedule = schedule_string(self.seed, &run.steps);
            if let Some(message) = run.failure {
                return ExploreResult {
                    schedules,
                    exhausted: false,
                    failure: Some(Failure {
                        message,
                        schedule: schedule.clone(),
                    }),
                    last_schedule: schedule,
                };
            }
            // Deepest step with an untried alternative becomes the next
            // divergence point; choices before it are replayed verbatim.
            let mut next: Option<Vec<usize>> = None;
            for i in (0..run.steps.len()).rev() {
                let order = try_order(&run.steps[i].runnable, self.seed, i);
                let pos = order
                    .iter()
                    .position(|&t| t == run.steps[i].chosen)
                    .unwrap_or(order.len());
                if pos + 1 < order.len() {
                    let mut r: Vec<usize> = run.steps[..i].iter().map(|st| st.chosen).collect();
                    r.push(order[pos + 1]);
                    next = Some(r);
                    break;
                }
            }
            match next {
                None => {
                    return ExploreResult {
                        schedules,
                        exhausted: true,
                        failure: None,
                        last_schedule: schedule,
                    }
                }
                Some(_) if schedules >= self.max_schedules => {
                    return ExploreResult {
                        schedules,
                        exhausted: false,
                        failure: None,
                        last_schedule: schedule,
                    }
                }
                Some(r) => replay = r,
            }
        }
    }

    /// Re-execute one specific interleaving from its schedule string.
    /// The seed embedded in the string wins over this explorer's seed.
    pub fn replay(&self, schedule: &str, setup: impl Fn(&mut Spawner)) -> ReplayOutcome {
        let (seed, tids) = match parse_schedule(schedule) {
            Some(p) => p,
            None => {
                return ReplayOutcome {
                    failure: Some(format!("unparseable schedule string `{schedule}`")),
                    schedule: schedule.to_string(),
                    steps: 0,
                }
            }
        };
        let ex = Explorer {
            seed,
            max_schedules: 1,
        };
        let run = ex.run_once(&setup, &tids, seed);
        ReplayOutcome {
            failure: run.failure,
            schedule: schedule_string(seed, &run.steps),
            steps: run.steps.len(),
        }
    }
}

// ------------------------------------------------------- model primitives

static NEXT_RESOURCE: AtomicU64 = AtomicU64::new(1);

fn fresh_resource() -> u64 {
    NEXT_RESOURCE.fetch_add(1, Ordering::Relaxed)
}

/// A modeled mutex: mutual exclusion at the schedule level.
#[derive(Debug)]
pub struct ModelMutex<T> {
    resource: u64,
    state: Mutex<MmState<T>>,
}

#[derive(Debug)]
struct MmState<T> {
    locked: bool,
    value: T,
}

/// Guard for [`ModelMutex::lock`]; access the value via
/// [`with`](ModelMutexGuard::with) (short real critical sections so other
/// virtual threads parked at yield points never hold the backing lock).
pub struct ModelMutexGuard<'a, T> {
    m: &'a ModelMutex<T>,
    ctx: Ctx,
}

impl<T> ModelMutex<T> {
    /// A model mutex holding `value`.
    pub fn new(value: T) -> Self {
        ModelMutex {
            resource: fresh_resource(),
            state: Mutex::new(MmState {
                locked: false,
                value,
            }),
        }
    }

    fn state(&self) -> MutexGuard<'_, MmState<T>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Acquire (a yield point; blocks the virtual thread while held
    /// elsewhere).
    pub fn lock<'a>(&'a self, ctx: &Ctx) -> ModelMutexGuard<'a, T> {
        let mut bail = 0u32;
        loop {
            ctx.yield_point();
            {
                let mut st = self.state();
                if !st.locked {
                    st.locked = true;
                    drop(st);
                    return ModelMutexGuard {
                        m: self,
                        ctx: ctx.clone(),
                    };
                }
            }
            bail += 1;
            if bail > 5_000 {
                panic!("{FREE_RUN_BAIL}");
            }
            ctx.block_on(self.resource);
        }
    }
}

impl<T> ModelMutexGuard<'_, T> {
    /// Run `f` against the protected value.
    pub fn with<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        f(&mut self.m.state().value)
    }
}

impl<T> Drop for ModelMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.m.state().locked = false;
        self.ctx.unblock(self.m.resource);
    }
}

/// A modeled atomic counter: each operation is one indivisible step.
#[derive(Debug)]
pub struct ModelAtomic {
    state: Mutex<u64>,
}

impl ModelAtomic {
    /// An atomic starting at `value`.
    pub fn new(value: u64) -> Self {
        ModelAtomic {
            state: Mutex::new(value),
        }
    }

    fn state(&self) -> MutexGuard<'_, u64> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Atomic load (a yield point).
    pub fn load(&self, ctx: &Ctx) -> u64 {
        ctx.yield_point();
        *self.state()
    }

    /// Atomic store (a yield point).
    pub fn store(&self, ctx: &Ctx, value: u64) {
        ctx.yield_point();
        *self.state() = value;
    }

    /// Atomic swap, returning the previous value (a yield point).
    pub fn swap(&self, ctx: &Ctx, value: u64) -> u64 {
        ctx.yield_point();
        std::mem::replace(&mut *self.state(), value)
    }

    /// Atomic fetch-add, returning the previous value (a yield point).
    pub fn fetch_add(&self, ctx: &Ctx, delta: u64) -> u64 {
        ctx.yield_point();
        let mut v = self.state();
        let prev = *v;
        *v = v.wrapping_add(delta);
        prev
    }
}

/// Error returned by model-channel operations on a closed channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

/// A modeled MPMC channel: a bounded channel blocks full senders, every
/// channel blocks empty
/// receivers until [`close`](ModelChannel::close).
#[derive(Debug)]
pub struct ModelChannel<T> {
    cap: usize,
    space: u64,
    items: u64,
    state: Mutex<ChState<T>>,
}

#[derive(Debug)]
struct ChState<T> {
    queue: VecDeque<T>,
    closed: bool,
}

impl<T> ModelChannel<T> {
    /// A channel; `cap == 0` means unbounded.
    pub fn new(cap: usize) -> Self {
        ModelChannel {
            cap,
            space: fresh_resource(),
            items: fresh_resource(),
            state: Mutex::new(ChState {
                queue: VecDeque::new(),
                closed: false,
            }),
        }
    }

    fn state(&self) -> MutexGuard<'_, ChState<T>> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Blocking send (a yield point; fails once the channel is closed).
    pub fn send(&self, ctx: &Ctx, value: T) -> Result<(), Closed> {
        let mut slot = Some(value);
        let mut bail = 0u32;
        loop {
            ctx.yield_point();
            {
                let mut st = self.state();
                if st.closed {
                    return Err(Closed);
                }
                if self.cap == 0 || st.queue.len() < self.cap {
                    st.queue
                        .push_back(slot.take().expect("send payload present"));
                    drop(st);
                    ctx.unblock(self.items);
                    return Ok(());
                }
            }
            bail += 1;
            if bail > 5_000 {
                panic!("{FREE_RUN_BAIL}");
            }
            ctx.block_on(self.space);
        }
    }

    /// Blocking receive (a yield point; fails once closed *and* drained).
    pub fn recv(&self, ctx: &Ctx) -> Result<T, Closed> {
        let mut bail = 0u32;
        loop {
            ctx.yield_point();
            {
                let mut st = self.state();
                if let Some(v) = st.queue.pop_front() {
                    drop(st);
                    ctx.unblock(self.space);
                    return Ok(v);
                }
                if st.closed {
                    return Err(Closed);
                }
            }
            bail += 1;
            if bail > 5_000 {
                panic!("{FREE_RUN_BAIL}");
            }
            ctx.block_on(self.items);
        }
    }

    /// Non-blocking receive (a yield point): `Ok(None)` when empty.
    pub fn try_recv(&self, ctx: &Ctx) -> Result<Option<T>, Closed> {
        ctx.yield_point();
        let mut st = self.state();
        if let Some(v) = st.queue.pop_front() {
            drop(st);
            ctx.unblock(self.space);
            return Ok(Some(v));
        }
        if st.closed {
            return Err(Closed);
        }
        Ok(None)
    }

    /// Close the channel, waking every blocked sender and receiver.
    pub fn close(&self, ctx: &Ctx) {
        ctx.yield_point();
        self.state().closed = true;
        ctx.unblock(self.items);
        ctx.unblock(self.space);
    }

    /// Queued message count (a yield point).
    pub fn len(&self, ctx: &Ctx) -> usize {
        ctx.yield_point();
        self.state().queue.len()
    }

    /// Whether the queue is empty (a yield point).
    pub fn is_empty(&self, ctx: &Ctx) -> bool {
        self.len(ctx) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_string_round_trips() {
        assert_eq!(parse_schedule("s42:0.1.0"), Some((42, vec![0, 1, 0])));
        assert_eq!(parse_schedule("s7:"), Some((7, vec![])));
        assert_eq!(parse_schedule("nope"), None);
    }

    #[test]
    fn lock_protected_counter_is_clean_and_exhausts() {
        let result = Explorer::new(7).max_schedules(512).explore(|sp| {
            let m = Arc::new(ModelMutex::new(0u32));
            let total = Arc::new(ModelMutex::new(0u32));
            for t in 0..2 {
                let m = Arc::clone(&m);
                let total = Arc::clone(&total);
                sp.spawn(&format!("incr-{t}"), move |ctx| {
                    let mut g = m.lock(&ctx);
                    g.with(|v| *v += 1);
                    drop(g);
                    let mut g = total.lock(&ctx);
                    g.with(|v| *v += 1);
                });
            }
        });
        assert!(result.failure.is_none(), "{:?}", result.failure);
        assert!(result.exhausted, "small space should exhaust: {result:?}");
        assert!(result.last_schedule.starts_with("s7:"));
    }

    #[test]
    fn detects_two_lock_deadlock() {
        let result = Explorer::new(3).max_schedules(256).explore(|sp| {
            let a = Arc::new(ModelMutex::new(()));
            let b = Arc::new(ModelMutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            sp.spawn("ab", move |ctx| {
                let _ga = a.lock(&ctx);
                let _gb = b.lock(&ctx);
            });
            sp.spawn("ba", move |ctx| {
                let _gb = b2.lock(&ctx);
                let _ga = a2.lock(&ctx);
            });
        });
        let failure = result
            .failure
            .expect("AB/BA must deadlock in some schedule");
        assert!(failure.message.contains("deadlock"), "{}", failure.message);
    }
}
