#![forbid(unsafe_code)]

//! Deterministic, seed-driven fault injection for the OddCI stack.
//!
//! A declarative [`FaultPlan`] lists *which* fault ([`FaultClass`]), *when*
//! (an optional activity window), *how often* (a per-opportunity rate or a
//! burst-episode rate) and *how hard* (a class-specific magnitude). The plan
//! compiles into a [`FaultInjector`] whose every decision is a **pure
//! function** of `(master seed, fault class, node, instant)` — no mutable
//! state, no RNG stream to perturb. Two consequences the rest of the stack
//! relies on:
//!
//! * **Determinism:** the same seed and plan yield bit-identical injection
//!   decisions, so a faulted simulation replays exactly (tested by the
//!   workspace's property suite).
//! * **Order independence:** adding a query site (or reordering event
//!   handling) never shifts decisions made elsewhere, because there is no
//!   shared stream to advance.
//!
//! Two decision shapes cover all fault classes:
//!
//! * **Per-opportunity rolls** (`CarouselCorruption`, `HeartbeatDrop`, …):
//!   each opportunity (a completed carousel read, a heartbeat send) is
//!   independently faulted with probability `rate`.
//! * **Episodes** (`DirectLoss`, `Partition`, `BackendStall`, …): time is
//!   cut into windows of `magnitude` length per `(class, node)`, and each
//!   window is *entirely* faulty with probability `rate`. This yields the
//!   bursty losses and stalls real networks produce, still statelessly.
//!
//! The crate also ships the control-plane hardening primitives the fault
//! classes make necessary: [`Backoff`] (bounded retries, exponential delay,
//! deterministic jitter) and [`FaultCounters`] (per-class accounting that
//! the world metrics surface).
//!
//! # Example
//!
//! ```
//! use oddci_faults::{FaultClass, FaultInjector, FaultPlan, FaultSpec};
//! use oddci_types::{NodeId, SimTime};
//!
//! let plan = FaultPlan::none().with(FaultSpec::new(FaultClass::HeartbeatDrop, 0.5));
//! let injector = FaultInjector::new(plan, 42);
//!
//! // Every decision is a pure function of (seed, class, node, instant):
//! let now = SimTime::from_secs(10);
//! let first = injector.heartbeat_dropped(NodeId::new(3), now);
//! assert_eq!(first, injector.heartbeat_dropped(NodeId::new(3), now));
//! ```

use oddci_sim::rng::splitmix64;
use oddci_types::{NodeId, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------
// Fault classes
// ---------------------------------------------------------------------

/// Everything the injector knows how to break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum FaultClass {
    /// A completed carousel module read fails its digest check; the
    /// receiver must re-read the file on a later cycle.
    CarouselCorruption,
    /// A carousel read ends early (signal glitch); same recovery as
    /// corruption but counted separately.
    CarouselTruncation,
    /// Direct-channel messages vanish in bursts of `magnitude` seconds.
    DirectLoss,
    /// Direct-channel transfers take `magnitude`× their nominal time
    /// during spike episodes.
    LatencySpike,
    /// A node's direct channel is fully cut (both directions, heartbeats
    /// included) for episodes of `magnitude` seconds.
    Partition,
    /// Individual heartbeats are silently dropped.
    HeartbeatDrop,
    /// Carousel control deliveries reach the PNA `magnitude` seconds late.
    ControlDelay,
    /// The PNA process crashes and restarts after `magnitude` seconds,
    /// losing its DVE and any task in flight.
    PnaCrash,
    /// The Backend stops answering task fetches for episodes of
    /// `magnitude` seconds; nodes must retry with backoff.
    BackendStall,
    /// A wire frame is corrupted in flight (one bit flipped); the
    /// receiving envelope layer must reject it on its checksum.
    FrameCorrupt,
    /// A wire frame is cut short on the wire; the receiving decoder must
    /// resynchronize on the next frame boundary.
    FrameTruncate,
    /// Wire frames of one send are duplicated / reordered; the
    /// reassembler must still deliver each message exactly once.
    FrameReorder,
    /// The headend process is killed outright (no shutdown handshake);
    /// the `oddci failover` scenario uses the roll to time the SIGKILL,
    /// after which a standby must adopt the last snapshot.
    HeadendCrash,
    /// The broadcaster reclaims the channel mid-job (spot-style): every
    /// member of the running instance is evicted at once, their in-flight
    /// tasks requeued, and the autoscale reconciler must re-request
    /// replacement capacity.
    AirtimeRevoked,
}

impl FaultClass {
    /// All classes, in declaration order.
    pub const ALL: [FaultClass; 14] = [
        FaultClass::CarouselCorruption,
        FaultClass::CarouselTruncation,
        FaultClass::DirectLoss,
        FaultClass::LatencySpike,
        FaultClass::Partition,
        FaultClass::HeartbeatDrop,
        FaultClass::ControlDelay,
        FaultClass::PnaCrash,
        FaultClass::BackendStall,
        FaultClass::FrameCorrupt,
        FaultClass::FrameTruncate,
        FaultClass::FrameReorder,
        FaultClass::HeadendCrash,
        FaultClass::AirtimeRevoked,
    ];

    /// Stable kebab-case name (CLI syntax and seed derivation).
    pub fn label(self) -> &'static str {
        match self {
            FaultClass::CarouselCorruption => "carousel-corruption",
            FaultClass::CarouselTruncation => "carousel-truncation",
            FaultClass::DirectLoss => "direct-loss",
            FaultClass::LatencySpike => "latency-spike",
            FaultClass::Partition => "partition",
            FaultClass::HeartbeatDrop => "heartbeat-drop",
            FaultClass::ControlDelay => "control-delay",
            FaultClass::PnaCrash => "pna-crash",
            FaultClass::BackendStall => "backend-stall",
            FaultClass::FrameCorrupt => "frame-corrupt",
            FaultClass::FrameTruncate => "frame-truncate",
            FaultClass::FrameReorder => "frame-reorder",
            FaultClass::HeadendCrash => "headend-crash",
            FaultClass::AirtimeRevoked => "airtime-revoked",
        }
    }

    /// Parses a [`label`](Self::label).
    pub(crate) fn from_label(s: &str) -> Option<FaultClass> {
        FaultClass::ALL.iter().copied().find(|c| c.label() == s)
    }

    /// Default magnitude when a spec does not override it: seconds for
    /// durations, a multiplier for [`LatencySpike`](FaultClass::LatencySpike).
    pub(crate) fn default_magnitude(self) -> f64 {
        match self {
            FaultClass::CarouselCorruption | FaultClass::CarouselTruncation => 0.0,
            FaultClass::DirectLoss => 20.0,
            FaultClass::LatencySpike => 8.0,
            FaultClass::Partition => 120.0,
            FaultClass::HeartbeatDrop => 0.0,
            FaultClass::ControlDelay => 30.0,
            FaultClass::PnaCrash => 60.0,
            FaultClass::BackendStall => 45.0,
            FaultClass::FrameCorrupt | FaultClass::FrameTruncate | FaultClass::FrameReorder => 0.0,
            FaultClass::HeadendCrash => 0.0,
            FaultClass::AirtimeRevoked => 0.0,
        }
    }

    /// Whether the class is decided per *episode* (time window) rather
    /// than per opportunity.
    fn episodic(self) -> bool {
        matches!(
            self,
            FaultClass::DirectLoss
                | FaultClass::LatencySpike
                | FaultClass::Partition
                | FaultClass::BackendStall
        )
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// ---------------------------------------------------------------------
// Plan
// ---------------------------------------------------------------------

/// One injected fault: class, rate, magnitude and optional activity window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// What to break.
    pub class: FaultClass,
    /// Probability per opportunity (point faults) or per episode window
    /// (episodic faults), in `[0, 1]`.
    pub rate: f64,
    /// Class-specific intensity: episode/outage length in seconds, delay
    /// in seconds, or the latency multiplier.
    pub magnitude: f64,
    /// Inject only within `[from, until)`; `None` means always active.
    pub window: Option<(SimTime, SimTime)>,
}

impl FaultSpec {
    /// A spec with the class's default magnitude and no window.
    pub fn new(class: FaultClass, rate: f64) -> FaultSpec {
        FaultSpec {
            class,
            rate,
            magnitude: class.default_magnitude(),
            window: None,
        }
    }

    /// Overrides the magnitude.
    pub fn magnitude(mut self, magnitude: f64) -> FaultSpec {
        self.magnitude = magnitude;
        self
    }

    /// Restricts injection to `[from, until)`.
    pub fn window(mut self, from: SimTime, until: SimTime) -> FaultSpec {
        self.window = Some((from, until));
        self
    }

    fn active_at(&self, now: SimTime) -> bool {
        match self.window {
            None => true,
            Some((from, until)) => now >= from && now < until,
        }
    }

    fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.rate) || !self.rate.is_finite() {
            return Err(format!("{}: rate {} outside [0, 1]", self.class, self.rate));
        }
        if !self.magnitude.is_finite() || self.magnitude < 0.0 {
            return Err(format!(
                "{}: magnitude {} invalid",
                self.class, self.magnitude
            ));
        }
        if self.class.episodic() && self.rate > 0.0 && self.magnitude <= 0.0 {
            return Err(format!(
                "{}: episodic fault needs a positive magnitude",
                self.class
            ));
        }
        if let Some((from, until)) = self.window {
            if from >= until {
                return Err(format!("{}: empty window {from}..{until}", self.class));
            }
        }
        Ok(())
    }
}

/// The declarative list of faults to inject into a run.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The injected faults. Multiple specs of the same class compose
    /// (first active spec wins per query).
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan: nothing is injected.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a spec (builder style).
    pub fn with(mut self, spec: FaultSpec) -> FaultPlan {
        self.specs.push(spec);
        self
    }

    /// True when no spec can ever fire.
    pub fn is_empty(&self) -> bool {
        self.specs.iter().all(|s| s.rate <= 0.0)
    }

    /// A copy with every rate multiplied by `factor` (clamped to 1) —
    /// the intensity knob the X7 sweep turns.
    pub fn scaled(&self, factor: f64) -> FaultPlan {
        FaultPlan {
            specs: self
                .specs
                .iter()
                .map(|s| FaultSpec {
                    rate: (s.rate * factor).clamp(0.0, 1.0),
                    ..s.clone()
                })
                .collect(),
        }
    }

    /// Checks every spec; returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        for spec in &self.specs {
            spec.validate()?;
        }
        Ok(())
    }

    /// Parses the CLI syntax: a comma-separated list of
    /// `class=rate[:magnitude][@start..end]`, e.g.
    /// `heartbeat-drop=0.2,pna-crash=0.01:90,partition=0.05@600..1800`.
    /// The optional `@start..end` suffix limits the fault to an activity
    /// window given in seconds of run time.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (name, value) = part
                .split_once('=')
                .ok_or_else(|| format!("`{part}`: expected class=rate[:magnitude][@start..end]"))?;
            let class = FaultClass::from_label(name.trim())
                .ok_or_else(|| format!("unknown fault class `{}`", name.trim()))?;
            let (value, window) = match value.split_once('@') {
                Some((v, w)) => (v, Some(w)),
                None => (value, None),
            };
            let (rate_s, mag) = match value.split_once(':') {
                Some((r, m)) => (r, Some(m)),
                None => (value, None),
            };
            let rate: f64 = rate_s
                .trim()
                .parse()
                .map_err(|_| format!("{class}: `{rate_s}` is not a rate"))?;
            let mut spec = FaultSpec::new(class, rate);
            if let Some(m) = mag {
                let magnitude: f64 = m
                    .trim()
                    .parse()
                    .map_err(|_| format!("{class}: `{m}` is not a magnitude"))?;
                spec = spec.magnitude(magnitude);
            }
            if let Some(w) = window {
                let (from_s, until_s) = w
                    .split_once("..")
                    .ok_or_else(|| format!("{class}: `@{w}` is not a start..end window"))?;
                let from: f64 = from_s
                    .trim()
                    .parse()
                    .map_err(|_| format!("{class}: `{from_s}` is not a window start (seconds)"))?;
                let until: f64 = until_s
                    .trim()
                    .parse()
                    .map_err(|_| format!("{class}: `{until_s}` is not a window end (seconds)"))?;
                if from < 0.0 || until < 0.0 {
                    return Err(format!("{class}: window bounds must be non-negative"));
                }
                spec = spec.window(
                    SimTime::from_micros((from * 1e6) as u64),
                    SimTime::from_micros((until * 1e6) as u64),
                );
            }
            plan.specs.push(spec);
        }
        plan.validate()?;
        Ok(plan)
    }

    /// A moderate-intensity plan exercising several classes at once — the
    /// default scenario of the `oddci chaos` command and the X7 sweep.
    pub fn standard_mix() -> FaultPlan {
        FaultPlan::none()
            .with(FaultSpec::new(FaultClass::CarouselCorruption, 0.10))
            .with(FaultSpec::new(FaultClass::DirectLoss, 0.05).magnitude(20.0))
            .with(FaultSpec::new(FaultClass::HeartbeatDrop, 0.10))
            .with(FaultSpec::new(FaultClass::PnaCrash, 0.005).magnitude(60.0))
            .with(FaultSpec::new(FaultClass::BackendStall, 0.02).magnitude(45.0))
    }
}

// ---------------------------------------------------------------------
// Injector
// ---------------------------------------------------------------------

/// FNV-1a over `label`, with `seed` XORed into the offset basis; an
/// injector's class seed is this, finished by [`splitmix64`]. It is not
/// [`SeedForge::seed`](oddci_sim::SeedForge::seed)'s construction, which
/// XORs the master into the finished hash: the two derive different
/// seeds, and fault decisions and the chaos goldens are pinned to this one.
#[inline]
fn fnv1a(seed: u64, label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Sentinel node for global (node-independent) faults like
/// [`FaultClass::BackendStall`].
const GLOBAL: u64 = u64::MAX;

/// The compiled plan: answers "does fault X hit node N at instant T?"
/// with pure, replayable decisions.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Per-class derived seeds, parallel to [`FaultClass::ALL`].
    class_seeds: [u64; 14],
}

impl FaultInjector {
    /// Compiles `plan` under `seed` (derive it from the world's
    /// [`SeedForge`](oddci_sim::SeedForge) so plans don't perturb other
    /// streams).
    pub fn new(plan: FaultPlan, seed: u64) -> FaultInjector {
        plan.validate().expect("valid fault plan");
        let mut class_seeds = [0u64; 14];
        for (i, class) in FaultClass::ALL.iter().enumerate() {
            class_seeds[i] = splitmix64(fnv1a(seed, class.label()));
        }
        FaultInjector { plan, class_seeds }
    }

    /// An injector that never fires (cheap: empty plan short-circuits).
    pub fn disabled() -> FaultInjector {
        FaultInjector::new(FaultPlan::none(), 0)
    }

    /// The plan this injector was compiled from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True when no fault can ever fire.
    pub fn is_disabled(&self) -> bool {
        self.plan.is_empty()
    }

    fn class_seed(&self, class: FaultClass) -> u64 {
        let idx = FaultClass::ALL
            .iter()
            .position(|c| *c == class)
            .expect("known class");
        self.class_seeds[idx]
    }

    /// Uniform `[0, 1)` from the pure inputs.
    fn unit(&self, class: FaultClass, node: u64, nonce: u64) -> f64 {
        let h =
            splitmix64(self.class_seed(class) ^ node.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ nonce);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// First active spec of `class` at `now`.
    fn spec(&self, class: FaultClass, now: SimTime) -> Option<&FaultSpec> {
        self.plan
            .specs
            .iter()
            .find(|s| s.class == class && s.rate > 0.0 && s.active_at(now))
    }

    /// Per-opportunity roll: fault with probability `rate`, independently
    /// per `(node, instant)`.
    fn roll(&self, class: FaultClass, node: u64, now: SimTime) -> Option<&FaultSpec> {
        let spec = self.spec(class, now)?;
        (self.unit(class, node, now.as_micros()) < spec.rate).then_some(spec)
    }

    /// Episode decision: the window of `magnitude` seconds containing
    /// `now` is faulty (for this node) with probability `rate`.
    fn episode(&self, class: FaultClass, node: u64, now: SimTime) -> Option<&FaultSpec> {
        let spec = self.spec(class, now)?;
        let len = SimDuration::from_secs_f64(spec.magnitude)
            .as_micros()
            .max(1);
        let bucket = now.as_micros() / len;
        (self.unit(class, node, bucket) < spec.rate).then_some(spec)
    }

    // --- query API, one entry point per hook site -------------------

    /// A carousel module read completing at `now`: corrupted or truncated?
    pub fn carousel_fault(&self, node: NodeId, now: SimTime) -> Option<FaultClass> {
        if self
            .roll(FaultClass::CarouselCorruption, node.raw(), now)
            .is_some()
        {
            return Some(FaultClass::CarouselCorruption);
        }
        if self
            .roll(FaultClass::CarouselTruncation, node.raw(), now)
            .is_some()
        {
            return Some(FaultClass::CarouselTruncation);
        }
        None
    }

    /// Is `node`'s direct channel fully cut at `now`?
    pub fn partitioned(&self, node: NodeId, now: SimTime) -> bool {
        self.episode(FaultClass::Partition, node.raw(), now)
            .is_some()
    }

    /// Does a direct-channel message from/to `node` vanish at `now`?
    /// (Loss burst or partition.)
    pub fn direct_dropped(&self, node: NodeId, now: SimTime) -> bool {
        self.episode(FaultClass::DirectLoss, node.raw(), now)
            .is_some()
            || self.partitioned(node, now)
    }

    /// Latency multiplier for `node`'s transfers at `now` (1.0 = nominal).
    pub fn latency_multiplier(&self, node: NodeId, now: SimTime) -> f64 {
        match self.episode(FaultClass::LatencySpike, node.raw(), now) {
            Some(spec) => spec.magnitude.max(1.0),
            None => 1.0,
        }
    }

    /// Is the heartbeat `node` sends at `now` lost? (Individual drop or
    /// partition.)
    pub fn heartbeat_dropped(&self, node: NodeId, now: SimTime) -> bool {
        self.roll(FaultClass::HeartbeatDrop, node.raw(), now)
            .is_some()
            || self.partitioned(node, now)
    }

    /// Extra delay before the control message delivered to `node` at
    /// `now` actually reaches its PNA.
    pub fn control_delay(&self, node: NodeId, now: SimTime) -> Option<SimDuration> {
        self.roll(FaultClass::ControlDelay, node.raw(), now)
            .map(|s| SimDuration::from_secs_f64(s.magnitude))
    }

    /// Does `node`'s PNA crash at this opportunity? Returns the downtime
    /// before it restarts.
    pub fn pna_crash(&self, node: NodeId, now: SimTime) -> Option<SimDuration> {
        self.roll(FaultClass::PnaCrash, node.raw(), now)
            .map(|s| SimDuration::from_secs_f64(s.magnitude))
    }

    /// Is the Backend inside a stall episode at `now`? Returns the episode
    /// length (callers retry with backoff; re-rolling later re-queries).
    pub fn backend_stalled(&self, now: SimTime) -> Option<SimDuration> {
        self.episode(FaultClass::BackendStall, GLOBAL, now)
            .map(|s| SimDuration::from_secs_f64(s.magnitude))
    }

    /// Is the wire frame `node` puts on the socket at `now` corrupted in
    /// flight (a flipped bit the receiver's checksum must catch)?
    pub fn frame_corrupted(&self, node: NodeId, now: SimTime) -> bool {
        self.roll(FaultClass::FrameCorrupt, node.raw(), now)
            .is_some()
    }

    /// Is the wire frame `node` puts on the socket at `now` cut short
    /// (the receiver's decoder must resynchronize)?
    pub fn frame_truncated(&self, node: NodeId, now: SimTime) -> bool {
        self.roll(FaultClass::FrameTruncate, node.raw(), now)
            .is_some()
    }

    /// Are the frames of the send `node` performs at `now` duplicated /
    /// reordered on the wire?
    pub fn frame_reordered(&self, node: NodeId, now: SimTime) -> bool {
        self.roll(FaultClass::FrameReorder, node.raw(), now)
            .is_some()
    }

    /// Does the headend crash at this opportunity? Global (node-free) roll;
    /// the `oddci failover` scenario polls it each tick and SIGKILLs the
    /// primary on the first hit.
    pub fn headend_crashed(&self, now: SimTime) -> bool {
        self.roll(FaultClass::HeadendCrash, GLOBAL, now).is_some()
    }

    /// Does the broadcaster reclaim the channel at this opportunity?
    /// Global (node-free) roll: when it fires, the *whole* instance loses
    /// its membership at once — the spot-reclamation event the autoscale
    /// reconciler absorbs by re-requesting capacity.
    pub fn airtime_revoked(&self, now: SimTime) -> bool {
        self.roll(FaultClass::AirtimeRevoked, GLOBAL, now).is_some()
    }
}

// ---------------------------------------------------------------------
// Backoff
// ---------------------------------------------------------------------

/// Bounded exponential backoff with deterministic jitter, shared by the
/// simulated world and the live runtime (both retry through the node
/// core's [`SimDuration`] timers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Backoff {
    /// First retry delay, microseconds.
    pub base_micros: u64,
    /// Multiplier between attempts (integer; 2 doubles each retry).
    pub factor: u32,
    /// Delay ceiling, microseconds.
    pub max_micros: u64,
    /// Retries before giving up.
    pub max_attempts: u32,
}

impl Default for Backoff {
    fn default() -> Self {
        // 500 ms, 1 s, 2 s, ... capped at 60 s; 8 tries ≈ 2 min of patience.
        Backoff {
            base_micros: 500_000,
            factor: 2,
            max_micros: 60_000_000,
            max_attempts: 8,
        }
    }
}

impl Backoff {
    /// A backoff suited to wall-clock (live-runtime) retries.
    pub fn live() -> Backoff {
        Backoff {
            base_micros: 50_000,
            factor: 2,
            max_micros: 2_000_000,
            max_attempts: 6,
        }
    }

    /// Raw delay before retry number `attempt` (0-based), with ±25%
    /// deterministic jitter derived from `jitter_seed`. `None` once
    /// `max_attempts` is exhausted.
    pub(crate) fn delay_micros(&self, attempt: u32, jitter_seed: u64) -> Option<u64> {
        if attempt >= self.max_attempts {
            return None;
        }
        let factor = u64::from(self.factor.max(1));
        let mut d = self.base_micros.max(1);
        for _ in 0..attempt {
            d = d.saturating_mul(factor);
            if d >= self.max_micros {
                d = self.max_micros;
                break;
            }
        }
        d = d.min(self.max_micros);
        // Jitter in [-25%, +25%), deterministic in (seed, attempt).
        let h = splitmix64(jitter_seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let unit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let jittered = d as f64 * (0.75 + 0.5 * unit);
        Some((jittered as u64).max(1))
    }

    /// `delay_micros` as a [`SimDuration`].
    pub fn delay(&self, attempt: u32, jitter_seed: u64) -> Option<SimDuration> {
        self.delay_micros(attempt, jitter_seed)
            .map(SimDuration::from_micros)
    }
}

// ---------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------

/// Per-class injection counts, surfaced through the world metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Carousel reads failing their digest check.
    pub carousel_corruptions: u64,
    /// Carousel reads cut short.
    pub carousel_truncations: u64,
    /// Direct-channel messages lost to loss bursts.
    pub direct_losses: u64,
    /// Transfers slowed by latency spikes.
    pub latency_spikes: u64,
    /// Messages swallowed by partitions.
    pub partitions: u64,
    /// Heartbeats dropped.
    pub heartbeat_drops: u64,
    /// Control deliveries delayed.
    pub control_delays: u64,
    /// PNA crash/restart cycles.
    pub pna_crashes: u64,
    /// Task fetches bounced off a stalled Backend.
    pub backend_stalls: u64,
    /// Wire frames corrupted in flight.
    pub frame_corruptions: u64,
    /// Wire frames truncated in flight.
    pub frame_truncations: u64,
    /// Wire sends duplicated / reordered in flight.
    pub frame_reorders: u64,
    /// Headend kills injected (failover drills).
    pub headend_crashes: u64,
    /// Broadcast channels reclaimed mid-job (spot-style instance kills).
    pub airtime_revocations: u64,
}

impl FaultCounters {
    /// Bumps the counter of `class`.
    pub fn record(&mut self, class: FaultClass) {
        match class {
            FaultClass::CarouselCorruption => self.carousel_corruptions += 1,
            FaultClass::CarouselTruncation => self.carousel_truncations += 1,
            FaultClass::DirectLoss => self.direct_losses += 1,
            FaultClass::LatencySpike => self.latency_spikes += 1,
            FaultClass::Partition => self.partitions += 1,
            FaultClass::HeartbeatDrop => self.heartbeat_drops += 1,
            FaultClass::ControlDelay => self.control_delays += 1,
            FaultClass::PnaCrash => self.pna_crashes += 1,
            FaultClass::BackendStall => self.backend_stalls += 1,
            FaultClass::FrameCorrupt => self.frame_corruptions += 1,
            FaultClass::FrameTruncate => self.frame_truncations += 1,
            FaultClass::FrameReorder => self.frame_reorders += 1,
            FaultClass::HeadendCrash => self.headend_crashes += 1,
            FaultClass::AirtimeRevoked => self.airtime_revocations += 1,
        }
    }

    /// The count for `class`.
    pub fn get(&self, class: FaultClass) -> u64 {
        match class {
            FaultClass::CarouselCorruption => self.carousel_corruptions,
            FaultClass::CarouselTruncation => self.carousel_truncations,
            FaultClass::DirectLoss => self.direct_losses,
            FaultClass::LatencySpike => self.latency_spikes,
            FaultClass::Partition => self.partitions,
            FaultClass::HeartbeatDrop => self.heartbeat_drops,
            FaultClass::ControlDelay => self.control_delays,
            FaultClass::PnaCrash => self.pna_crashes,
            FaultClass::BackendStall => self.backend_stalls,
            FaultClass::FrameCorrupt => self.frame_corruptions,
            FaultClass::FrameTruncate => self.frame_truncations,
            FaultClass::FrameReorder => self.frame_reorders,
            FaultClass::HeadendCrash => self.headend_crashes,
            FaultClass::AirtimeRevoked => self.airtime_revocations,
        }
    }

    /// Total injections across all classes.
    pub fn total(&self) -> u64 {
        FaultClass::ALL.iter().map(|&c| self.get(c)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let plan = FaultPlan::standard_mix();
        let a = FaultInjector::new(plan.clone(), 7);
        let b = FaultInjector::new(plan.clone(), 7);
        let c = FaultInjector::new(plan, 8);
        let mut diverged = false;
        for node in 0..200u64 {
            for s in 0..50u64 {
                let n = NodeId::new(node);
                let at = t(s * 13);
                assert_eq!(a.heartbeat_dropped(n, at), b.heartbeat_dropped(n, at));
                assert_eq!(a.carousel_fault(n, at), b.carousel_fault(n, at));
                assert_eq!(a.pna_crash(n, at), b.pna_crash(n, at));
                if a.heartbeat_dropped(n, at) != c.heartbeat_dropped(n, at) {
                    diverged = true;
                }
            }
        }
        assert!(
            diverged,
            "different seeds must decide differently somewhere"
        );
    }

    #[test]
    fn roll_rate_is_statistically_honest() {
        let plan = FaultPlan::none().with(FaultSpec::new(FaultClass::HeartbeatDrop, 0.25));
        let inj = FaultInjector::new(plan, 99);
        let n = 40_000;
        let hits = (0..n)
            .filter(|&i| inj.heartbeat_dropped(NodeId::new(i % 100), t(i * 7 + 1)))
            .count();
        let p = hits as f64 / n as f64;
        assert!((0.22..0.28).contains(&p), "observed rate {p}");
    }

    #[test]
    fn episodes_are_contiguous_and_rate_bound() {
        let plan =
            FaultPlan::none().with(FaultSpec::new(FaultClass::DirectLoss, 0.3).magnitude(10.0));
        let inj = FaultInjector::new(plan, 5);
        let node = NodeId::new(3);
        // Within one 10 s bucket the decision never changes.
        for base in [0u64, 40, 130] {
            let first = inj.direct_dropped(node, SimTime::from_micros(base * 10_000_000 + 1));
            for off in 1..10u64 {
                let inside = SimTime::from_micros(base * 10_000_000 + off * 999_999);
                assert_eq!(inj.direct_dropped(node, inside), first);
            }
        }
        // Across many buckets, roughly `rate` are faulty.
        let buckets = 4000u64;
        let faulty = (0..buckets)
            .filter(|&b| inj.direct_dropped(node, SimTime::from_micros(b * 10_000_000 + 5)))
            .count();
        let p = faulty as f64 / buckets as f64;
        assert!((0.25..0.35).contains(&p), "episode rate {p}");
    }

    #[test]
    fn windows_gate_injection() {
        let plan = FaultPlan::none()
            .with(FaultSpec::new(FaultClass::HeartbeatDrop, 1.0).window(t(100), t(200)));
        let inj = FaultInjector::new(plan, 1);
        let n = NodeId::new(0);
        assert!(!inj.heartbeat_dropped(n, t(99)));
        assert!(inj.heartbeat_dropped(n, t(100)));
        assert!(inj.heartbeat_dropped(n, t(199)));
        assert!(!inj.heartbeat_dropped(n, t(200)));
    }

    #[test]
    fn disabled_injector_never_fires() {
        let inj = FaultInjector::disabled();
        assert!(inj.is_disabled());
        for i in 0..1000u64 {
            let n = NodeId::new(i);
            assert!(!inj.direct_dropped(n, t(i)));
            assert!(!inj.heartbeat_dropped(n, t(i)));
            assert!(inj.carousel_fault(n, t(i)).is_none());
            assert!(inj.pna_crash(n, t(i)).is_none());
            assert!(inj.backend_stalled(t(i)).is_none());
            assert_eq!(inj.latency_multiplier(n, t(i)), 1.0);
        }
    }

    #[test]
    fn backoff_grows_caps_and_bounds() {
        let b = Backoff {
            base_micros: 1_000,
            factor: 2,
            max_micros: 10_000,
            max_attempts: 5,
        };
        let d: Vec<u64> = (0..5).map(|a| b.delay_micros(a, 42).unwrap()).collect();
        // Jitter is ±25%, so consecutive nominal doublings still order.
        assert!(d[0] >= 750 && d[0] < 1_250, "{d:?}");
        assert!(d[1] > d[0], "{d:?}");
        assert!(d[4] <= 12_500, "cap + jitter ceiling: {d:?}");
        assert_eq!(b.delay_micros(5, 42), None, "bounded retries");
        // Deterministic.
        assert_eq!(b.delay_micros(3, 42), b.delay_micros(3, 42));
        assert_ne!(
            b.delay_micros(3, 1),
            b.delay_micros(3, 2),
            "jitter uses the seed"
        );
    }

    #[test]
    fn plan_parse_round_trip_and_errors() {
        let plan =
            FaultPlan::parse("heartbeat-drop=0.2, pna-crash=0.01:90,partition=0.05").unwrap();
        assert_eq!(plan.specs.len(), 3);
        assert_eq!(plan.specs[0].class, FaultClass::HeartbeatDrop);
        assert_eq!(plan.specs[1].magnitude, 90.0);
        assert_eq!(
            plan.specs[2].magnitude,
            FaultClass::Partition.default_magnitude()
        );
        assert!(FaultPlan::parse("bogus=0.5").is_err());
        assert!(FaultPlan::parse("heartbeat-drop=1.5").is_err());
        assert!(FaultPlan::parse("heartbeat-drop").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn plan_parse_window_suffix() {
        let plan = FaultPlan::parse("partition=0.05@600..1800").unwrap();
        assert_eq!(
            plan.specs[0].window,
            Some((SimTime::from_secs(600), SimTime::from_secs(1800)))
        );
        // Window composes with an explicit magnitude.
        let plan = FaultPlan::parse("pna-crash=0.01:90@0..3600").unwrap();
        assert_eq!(plan.specs[0].magnitude, 90.0);
        assert_eq!(
            plan.specs[0].window,
            Some((SimTime::ZERO, SimTime::from_secs(3600)))
        );
        // Fractional seconds are honoured at micro resolution.
        let plan = FaultPlan::parse("heartbeat-drop=1.0@0.5..1.25").unwrap();
        assert_eq!(
            plan.specs[0].window,
            Some((
                SimTime::from_micros(500_000),
                SimTime::from_micros(1_250_000)
            ))
        );
        // Malformed or empty windows are rejected.
        assert!(FaultPlan::parse("partition=0.05@600").is_err());
        assert!(FaultPlan::parse("partition=0.05@x..y").is_err());
        assert!(FaultPlan::parse("partition=0.05@1800..600").is_err());
        assert!(FaultPlan::parse("partition=0.05@-5..600").is_err());
    }

    #[test]
    fn scaling_clamps_rates() {
        let plan = FaultPlan::standard_mix().scaled(100.0);
        assert!(plan.specs.iter().all(|s| s.rate <= 1.0));
        assert!(FaultPlan::standard_mix().scaled(0.0).is_empty());
    }

    #[test]
    fn counters_account_per_class() {
        let mut c = FaultCounters::default();
        c.record(FaultClass::PnaCrash);
        c.record(FaultClass::PnaCrash);
        c.record(FaultClass::BackendStall);
        assert_eq!(c.pna_crashes, 2);
        assert_eq!(c.get(FaultClass::BackendStall), 1);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn headend_crash_rolls_inside_its_window() {
        let plan = FaultPlan::parse("headend-crash=1.0@1.5..2").unwrap();
        let inj = FaultInjector::new(plan, 3);
        assert!(!inj.headend_crashed(SimTime::from_secs_f64(1.0)));
        assert!(inj.headend_crashed(SimTime::from_secs_f64(1.5)));
        assert!(!inj.headend_crashed(SimTime::from_secs_f64(2.0)));
        let mut c = FaultCounters::default();
        c.record(FaultClass::HeadendCrash);
        assert_eq!(c.get(FaultClass::HeadendCrash), 1);
    }

    #[test]
    fn airtime_revocation_rolls_inside_its_window() {
        let plan = FaultPlan::parse("airtime-revoked=1.0@2..2.5").unwrap();
        let inj = FaultInjector::new(plan, 17);
        assert!(!inj.airtime_revoked(SimTime::from_secs_f64(1.9)));
        assert!(inj.airtime_revoked(SimTime::from_secs_f64(2.0)));
        assert!(!inj.airtime_revoked(SimTime::from_secs_f64(2.5)));
        let mut c = FaultCounters::default();
        c.record(FaultClass::AirtimeRevoked);
        assert_eq!(c.get(FaultClass::AirtimeRevoked), 1);
        assert_eq!(c.airtime_revocations, 1);
    }

    #[test]
    fn plan_serializes() {
        let plan = FaultPlan::standard_mix();
        let json = serde_json::to_string(&plan).unwrap();
        assert!(json.contains("CarouselCorruption"), "{json}");
    }

    #[test]
    fn backend_stall_is_global_and_episodic() {
        let plan =
            FaultPlan::none().with(FaultSpec::new(FaultClass::BackendStall, 0.4).magnitude(30.0));
        let inj = FaultInjector::new(plan, 11);
        let episodes = 2000u64;
        let stalled = (0..episodes)
            .filter(|&b| {
                inj.backend_stalled(SimTime::from_micros(b * 30_000_000 + 9))
                    .is_some()
            })
            .count();
        let p = stalled as f64 / episodes as f64;
        assert!((0.34..0.46).contains(&p), "stall rate {p}");
    }
}
