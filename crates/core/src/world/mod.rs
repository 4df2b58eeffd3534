//! The complete OddCI-DTV world: broadcast channel, receiver population,
//! direct channels, churn, and the four control-plane components, wired
//! into one deterministic discrete-event simulation.
//!
//! # Modelling notes
//!
//! * **Carousel geometry drives wakeup latency.** Every published control
//!   message occupies the carousel as a small `config-<instance>` file
//!   followed by its `image-<instance>` file. A node reads the config at
//!   its next pass (expected half a cycle), decides, and — if it accepts —
//!   reads the image (a further full image-transfer). The paper's
//!   `W = 1.5·I/β` emerges from this geometry; it is nowhere assumed.
//! * **Control messages are delivered out-of-band.** The carousel model
//!   computes *when* a node finishes reading a file; the `SignedMessage`
//!   bytes themselves are handed to the PNA directly at that instant
//!   (serializing them into the simulated file would change nothing).
//! * **Simplification:** a carousel re-publication restarts the cycle for
//!   *new* acquisitions but does not disturb acquisitions already in
//!   flight (their completion instants were computed against the previous
//!   epoch). Re-publications are rare (job arrival, recomposition), so the
//!   distortion is bounded by one cycle per re-publication.
//! * **Churn is adversarial but honest:** a powered-off node silently
//!   orphans its task; the Backend only learns through the Controller's
//!   heartbeat-timeout machinery, exactly as §3.2 prescribes.

mod events;
mod metrics;
mod node;

pub use events::{NodeStep, WorldEvent};
pub use metrics::{MetricsSnapshot, WorldMetrics};
pub use node::NodeRuntime;

use crate::backend::Backend;
use crate::controller::{Controller, ControllerOutput, ControllerPolicy};
use crate::ledger::JobLedger;
use crate::messages::{ControlMessage, Heartbeat, SignedMessage, VerifyMemo};
use crate::node::{NodeAction, NodeCore, NodeEnv, NodeInput};
use crate::pna::{HostInfo, Pna, PnaState};
use crate::provider::{JobReport, Provider, ProviderRequest};
use oddci_broadcast::ait::{AitEntry, AppControlCode};
use oddci_broadcast::carousel::CarouselFile;
use oddci_broadcast::BroadcastChannel;
use oddci_crypto::MessageAuthenticator;
use oddci_faults::{Backoff, FaultClass, FaultInjector, FaultPlan};
use oddci_net::link::{DirectLink, Direction};
use oddci_receiver::compute::{ComputeModel, UsageMode};
use oddci_receiver::dve::DveState;
use oddci_receiver::SetTopBox;
use oddci_sim::{ChurnProcess, Context, Model, SeedForge, Simulator};
use oddci_telemetry::{Phase, Telemetry, CONTROL_TRACK};
use oddci_types::{
    ChannelId, DataSize, DirectChannelConfig, DtvSystemConfig, InstanceId, JobId, NodeId,
    SimDuration, SimTime,
};
use oddci_workload::{Job, Task};
use rand::Rng;
use std::collections::BTreeMap;

/// Viewer churn parameters (exponential on/off sojourns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnConfig {
    /// Mean powered-on sojourn.
    pub mean_on: SimDuration,
    /// Mean powered-off sojourn.
    pub mean_off: SimDuration,
}

/// Full parameterization of a world.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Receiver population (the channel's audience).
    pub nodes: u64,
    /// Broadcast-side parameters (β, module size, AUTOSTART latency).
    pub dtv: DtvSystemConfig,
    /// Direct-channel parameters (δ, latency, loss).
    pub direct: DirectChannelConfig,
    /// Controller policy (heartbeats, sizing, recomposition).
    pub policy: ControllerPolicy,
    /// Execution-time model (paper-calibrated by default).
    pub compute: ComputeModel,
    /// Churn process, or `None` for an always-on population.
    pub churn: Option<ChurnConfig>,
    /// Fraction of powered nodes actively watching TV (in-use mode).
    pub in_use_fraction: f64,
    /// Controller maintenance interval.
    pub controller_tick: SimDuration,
    /// Controller↔PNA shared authentication key.
    pub key: Vec<u8>,
    /// Faults to inject (empty by default — a fault-free world).
    pub faults: FaultPlan,
    /// Retry policy for task fetches and result uploads that hit injected
    /// losses or Backend stalls.
    pub fetch_backoff: Backoff,
    /// Observability: the metrics registry is always on; pass
    /// [`Telemetry::recording`] (a ring) or [`Telemetry::streaming`] (a
    /// trace file) to also capture span/instant events. Recording is
    /// write-only and never perturbs the deterministic simulation.
    pub telemetry: Telemetry,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            nodes: 1_000,
            dtv: DtvSystemConfig::default(),
            direct: DirectChannelConfig::default(),
            policy: ControllerPolicy::default(),
            compute: ComputeModel::paper(),
            churn: None,
            in_use_fraction: 0.5,
            controller_tick: SimDuration::from_secs(60),
            key: b"oddci-dtv-controller".to_vec(),
            faults: FaultPlan::none(),
            fetch_backoff: Backoff::default(),
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Size of small control-plane messages on the direct channel (requests).
const REQUEST_BYTES: u64 = 128;
/// Size of the resident PNA Xlet in the carousel.
const PNA_XLET_BYTES: u64 = 256 * 1024;
/// Size of a `config-<instance>` carousel file.
const CONFIG_BYTES: u64 = 512;
/// AIT application id of the PNA trigger application.
const PNA_APP_ID: u32 = 0x1001;

struct BroadcastEntry {
    msg: SignedMessage,
    /// `Some(size)` while the wakeup image is on air; `None` after reset.
    image_size: Option<DataSize>,
    /// First publish instant (wakeup-latency baseline for joins).
    first_publish: SimTime,
}

/// The world model (implements [`Model`]); drive it through [`OddciSim`].
pub struct World {
    config: WorldConfig,
    channel: BroadcastChannel,
    controller: Controller,
    /// The Backend, the Provider and the job each instance runs.
    ledger: JobLedger,
    nodes: Vec<NodeRuntime>,
    entries: BTreeMap<InstanceId, BroadcastEntry>,
    metrics: WorldMetrics,
    /// Compiled fault plan; pure per-query decisions (see `oddci-faults`).
    injector: FaultInjector,
    /// Seed for deterministic backoff jitter (per-node mixing).
    jitter_seed: u64,
    /// The aired messages the population has verified: every node reads
    /// the same signed bytes, so each is verified once per world.
    memo: VerifyMemo,
    /// Shared telemetry handle (clone of `config.telemetry`), cached for
    /// hot-path span/instant recording.
    tele: Telemetry,
    /// Backend queue-depth gauge (pending tasks across open jobs),
    /// refreshed on every controller tick.
    queue_depth: oddci_telemetry::Gauge,
    /// Reused across events; see [`Scratch`].
    scratch: Scratch,
    /// The instance of the request [`OddciSim::run_request`] waits for,
    /// while it runs.
    awaited: Option<InstanceId>,
    /// The event being handled completed the awaited request: the run
    /// stops after it.
    halt: bool,
}

/// The follow-up events and node actions of the event being handled. One
/// lives on the [`World`] and is reused, so handling an event allocates
/// neither list.
#[derive(Default)]
struct Scratch {
    events: Vec<(SimTime, WorldEvent)>,
    actions: Vec<NodeAction>,
}

impl Scratch {
    fn at(&mut self, at: SimTime, event: WorldEvent) {
        self.events.push((at, event));
    }
}

fn config_file(inst: InstanceId) -> String {
    format!("config-{}", inst.raw())
}

fn image_file(inst: InstanceId) -> String {
    format!("image-{}", inst.raw())
}

impl World {
    /// Builds a world and wraps it in a ready-to-run [`OddciSim`].
    pub fn simulation(config: WorldConfig, seed: u64) -> OddciSim {
        OddciSim::new(config, seed)
    }

    fn new(mut config: WorldConfig, seed: u64) -> World {
        config.dtv.validate().expect("valid DTV config");
        config
            .direct
            .validate()
            .expect("valid direct-channel config");
        config
            .policy
            .heartbeat
            .validate()
            .expect("valid heartbeat config");
        assert!(
            (0.0..=1.0).contains(&config.in_use_fraction),
            "in_use_fraction must be in [0,1]"
        );
        // The Controller's audience estimate is the channel population.
        config.policy.assumed_audience = config.nodes;

        let forge = SeedForge::new(seed);
        let chan_id = ChannelId::new(1);
        let channel = BroadcastChannel::new(
            chan_id,
            config.dtv.beta,
            vec![CarouselFile::sized(
                "pna.xlet",
                DataSize::from_bytes(PNA_XLET_BYTES),
            )],
            SimTime::ZERO,
        );
        let controller = Controller::new(&config.key, config.policy.clone());
        // One keyed MAC state for the whole population: each PNA's copy is
        // a refcount, not a key schedule.
        let auth = MessageAuthenticator::from_key(&config.key);

        let mut nodes = Vec::with_capacity(config.nodes as usize);
        for i in 0..config.nodes {
            let mut usage_rng = forge.indexed_rng("usage", i);
            let usage = if usage_rng.random::<f64>() < config.in_use_fraction {
                UsageMode::InUse
            } else {
                UsageMode::Standby
            };
            let churn = match config.churn {
                Some(c) => ChurnProcess::steady_state_init(
                    c.mean_on,
                    c.mean_off,
                    forge.indexed_seed("churn", i),
                ),
                None => ChurnProcess::always_on(forge.indexed_seed("churn", i)),
            };
            let mut stb = SetTopBox::new(NodeId::new(i));
            if churn.state() == oddci_sim::OnOffState::On {
                stb.power_on(chan_id, usage);
            }
            nodes.push(NodeRuntime {
                stb,
                core: NodeCore::new(Pna::new(NodeId::new(i), auth.clone())),
                link: DirectLink::new(config.direct.clone()),
                churn,
                usage,
                rng: forge.indexed_rng("node", i),
                epoch: 0,
            });
        }

        // Own labelled child seeds: the fault plan and the backoff jitter
        // never perturb the node/churn/usage streams above.
        let injector = FaultInjector::new(config.faults.clone(), forge.seed("faults"));
        let jitter_seed = forge.seed("fetch-jitter");

        let tele = config.telemetry.clone();
        let metrics = WorldMetrics::registered(&tele);
        let queue_depth = tele.registry().gauge("backend.queue_depth");
        let channel = channel.attach_telemetry(tele.clone());

        World {
            config,
            channel,
            controller,
            ledger: JobLedger::new(tele.clone()),
            nodes,
            entries: BTreeMap::new(),
            metrics,
            injector,
            jitter_seed,
            memo: VerifyMemo::new(auth),
            tele,
            queue_depth,
            scratch: Scratch::default(),
            awaited: None,
            halt: false,
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The Controller.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// The Backend.
    pub fn backend(&self) -> &Backend {
        self.ledger.backend()
    }

    /// The Provider.
    pub fn provider(&self) -> &Provider {
        self.ledger.provider()
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &WorldMetrics {
        &self.metrics
    }

    /// The world's telemetry handle (registry + recorder).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele
    }

    /// One node's runtime state (tests and harnesses).
    pub fn node(&self, id: NodeId) -> &NodeRuntime {
        &self.nodes[id.index()]
    }

    /// Number of nodes whose DVE is currently running `inst`'s image.
    pub fn running_members(&self, inst: InstanceId) -> u64 {
        self.nodes
            .iter()
            .filter(|n| match n.core.pna().state() {
                PnaState::Busy(dve) => dve.instance == inst && dve.state() == DveState::Running,
                PnaState::Idle => false,
            })
            .count() as u64
    }

    /// The world configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn host_info(node: &NodeRuntime) -> HostInfo {
        HostInfo {
            free_memory: DataSize::from_bits(node.stb.hardware.ram.bits() / 2),
            usage: node.usage,
        }
    }

    /// Feeds `input` to node `id`'s core and carries out the actions it
    /// causes, in order. An action that fails at once (a lost transfer)
    /// feeds its outcome back before the next action runs.
    fn feed(&mut self, id: NodeId, input: NodeInput<'_, Task>, now: SimTime, out: &mut Scratch) {
        let start = out.actions.len();
        let node = &mut self.nodes[id.index()];
        let mut env = NodeEnv {
            now,
            rng: &mut node.rng,
            backoff: &self.config.fetch_backoff,
            jitter_seed: self.jitter_seed ^ id.raw(),
            memo: Some(&mut self.memo),
        };
        node.core.handle(input, &mut env, &mut out.actions);
        let mut next = start;
        while let Some(&action) = out.actions.get(next) {
            next += 1;
            self.act(id, action, now, out);
        }
        out.actions.truncate(start);
    }

    /// Carries out one action of node `id`: a transfer on its link that
    /// schedules the event feeding the outcome back, or bookkeeping.
    fn act(&mut self, id: NodeId, action: NodeAction, now: SimTime, out: &mut Scratch) {
        if let NodeAction::Heartbeat(hb) = action {
            return self.send_heartbeat(id, hb, now, out);
        }
        let node = &mut self.nodes[id.index()];
        let us = now.as_micros();
        let held = node.core.held().map(|(_, tasks)| &tasks[0]);
        let (input, result) =
            held.map_or((None, None), |t| (Some(t.input_size), Some(t.result_size)));
        match action {
            NodeAction::BeginImage(instance) => {
                let Some(entry) = self.entries.get(&instance) else {
                    return;
                };
                // Publish → config read: the paper's wakeup *waiting*
                // component. The acceptance decision happens here too.
                let (track, published) = (id.raw(), entry.first_publish.as_micros());
                self.tele
                    .span(published, us, Phase::WakeupWait, track, instance.raw());
                self.tele
                    .instant(us, Phase::PnaAccept, track, instance.raw());
                let image = entry.image_size.map(|_| image_file(instance));
                if let Some(done) = image.and_then(|f| self.channel.acquisition_complete(&f, now)) {
                    out.at(done, self.step(id, NodeStep::ImageAcquired(instance)));
                }
            }
            NodeAction::Left(instance, true) => {
                self.metrics.direct_resets.inc();
                self.tele
                    .instant(us, Phase::DirectReset, id.raw(), instance.raw());
            }
            NodeAction::Orphan(requeue) => {
                self.metrics.tasks_orphaned.inc();
                // The headend requeues at once what its own reset orphaned;
                // a crash or power-off it learns through heartbeat loss.
                if requeue {
                    self.node_lost(id, now, out);
                }
            }
            NodeAction::Span(phase, begin, arg) => {
                self.tele.span(begin.as_micros(), us, phase, id.raw(), arg);
            }
            NodeAction::Fetch(attempt) => {
                let request = DataSize::from_bytes(REQUEST_BYTES);
                match self.transfer(id, request, Direction::Up, now) {
                    Some(done) => out.at(done, self.step(id, NodeStep::TaskRequest(attempt))),
                    None => self.feed(id, NodeInput::FetchLost(attempt), now, out),
                }
            }
            NodeAction::Download(attempt) => {
                let done = match input {
                    Some(size) if size.is_zero() => Some(now + node.link.config().latency),
                    Some(size) => self.transfer(id, size, Direction::Down, now),
                    None => return,
                };
                match done {
                    Some(done) => out.at(done, self.step(id, NodeStep::InputArrived)),
                    None => self.feed(id, NodeInput::FetchLost(attempt), now, out),
                }
            }
            NodeAction::Compute(index) => {
                let Some(cost) = node.core.held().map(|(_, tasks)| tasks[index].cost) else {
                    return;
                };
                let compute = &self.config.compute;
                let dur = compute.sample_instrumented(cost, node.usage, &mut node.rng, &self.tele);
                out.at(now + dur, self.step(id, NodeStep::Computed));
            }
            NodeAction::Upload(attempt) => {
                let Some(size) = result else {
                    return;
                };
                match self.transfer(id, size, Direction::Up, now) {
                    Some(done) => out.at(done, self.step(id, NodeStep::ResultArrived)),
                    None => self.feed(id, NodeInput::UploadLost(attempt), now, out),
                }
            }
            NodeAction::Delivered(job, task) => {
                let Ok(dismantle) = self.ledger.complete(job, task, id, now) else {
                    return;
                };
                self.metrics.tasks_completed.inc();
                if let Some(inst) = dismantle {
                    self.halt |= self.awaited == Some(inst);
                    if let Ok(outputs) = self.controller.dismantle(inst) {
                        self.process_outputs(outputs, now, out);
                    }
                } else if !self.ledger.backend().is_complete(job) {
                    self.feed(id, NodeInput::Next, now, out);
                }
            }
            NodeAction::Retry(at, timer) => {
                self.metrics.task_fetch_retries.inc();
                self.tele
                    .instant(us, Phase::Retry, id.raw(), u64::from(timer.failed));
                out.at(at, self.step(id, NodeStep::Retry(timer)));
            }
            NodeAction::GaveUp => self.metrics.fetch_aborts.inc(),
            NodeAction::Heartbeat(_) | NodeAction::Left(_, false) => {}
        }
    }

    /// Moves `size` over node `id`'s direct link under the fault plan:
    /// when it lands, or `None` when it is lost.
    fn transfer(
        &mut self,
        id: NodeId,
        size: DataSize,
        dir: Direction,
        now: SimTime,
    ) -> Option<SimTime> {
        let node = &mut self.nodes[id.index()];
        let (injector, faults) = (&self.injector, &mut self.metrics.faults);
        node.link.transfer_faulted_telemetered(
            now,
            size,
            dir,
            &mut node.rng,
            injector,
            id,
            faults,
            &self.tele,
        )
    }

    fn send_heartbeat(&mut self, id: NodeId, hb: Heartbeat, now: SimTime, out: &mut Scratch) {
        // Fault hooks: a partition swallows the beat wholesale; the
        // heartbeat-drop class loses individual messages. Either way the
        // Controller's miss-threshold machinery is what notices.
        if self.injector.partitioned(id, now) {
            self.metrics.faults.record(FaultClass::Partition);
            return;
        }
        if self.injector.heartbeat_dropped(id, now) {
            self.metrics.faults.record(FaultClass::HeartbeatDrop);
            return;
        }
        let size = DataSize::from_bytes(u64::from(self.config.policy.heartbeat.message_bytes));
        let node = &mut self.nodes[id.index()];
        let done = node.link.transfer_telemetered(
            now,
            size,
            Direction::Up,
            &mut node.rng,
            &self.tele,
            id.raw(),
        );
        self.tele
            .instant(now.as_micros(), Phase::Heartbeat, id.raw(), 0);
        out.at(done, WorldEvent::HeartbeatArrive(hb));
    }

    /// Re-kick drained members of `job`'s instance after tasks reappeared.
    fn kick_drained(&mut self, job: JobId, now: SimTime, out: &mut Scratch) {
        let Some(inst) = self.ledger.instance_of(job) else {
            return;
        };
        let members: Vec<NodeId> = self
            .controller
            .instance(inst)
            .map(|r| r.members.iter().copied().collect())
            .unwrap_or_default();
        for m in members {
            let node = &self.nodes[m.index()];
            let core = &node.core;
            if node.is_on() && core.drained() && core.instance() == Some(inst) {
                self.feed(m, NodeInput::Kick, now, out);
            }
        }
    }

    /// Re-queues whatever `id` held and re-kicks the drained members of
    /// every job whose queue that refilled.
    fn node_lost(&mut self, id: NodeId, now: SimTime, out: &mut Scratch) {
        let affected = self.ledger.node_lost(id);
        self.metrics
            .requeues
            .set(self.ledger.backend().total_requeues());
        for job in affected {
            self.kick_drained(job, now, out);
        }
    }

    fn rebuild_carousel(&mut self, now: SimTime) {
        let mut files = vec![CarouselFile::sized(
            "pna.xlet",
            DataSize::from_bytes(PNA_XLET_BYTES),
        )];
        for (&inst, entry) in &self.entries {
            files.push(CarouselFile::sized(
                config_file(inst),
                DataSize::from_bytes(CONFIG_BYTES),
            ));
            if let Some(size) = entry.image_size {
                files.push(CarouselFile::sized(image_file(inst), size));
            }
        }
        let ait = vec![AitEntry {
            app_id: PNA_APP_ID,
            name: "pna-xlet".into(),
            base_file: "pna.xlet".into(),
            control_code: AppControlCode::Autostart,
        }];
        self.channel.publish(files, ait, now);
    }

    /// Publishes a signed control message through the carousel and
    /// schedules its delivery to every powered node.
    fn publish(&mut self, signed: SignedMessage, now: SimTime, out: &mut Scratch) {
        let inst = signed.message.instance();
        match signed.message {
            ControlMessage::Wakeup(w) => {
                self.ledger.aired(inst);
                let first = self.entries.get(&inst).map_or(now, |e| e.first_publish);
                self.entries.insert(
                    inst,
                    BroadcastEntry {
                        msg: signed,
                        image_size: Some(w.image_size),
                        first_publish: first,
                    },
                );
            }
            ControlMessage::Reset(_) => {
                let first = self.entries.get(&inst).map_or(now, |e| e.first_publish);
                self.entries.insert(
                    inst,
                    BroadcastEntry {
                        msg: signed,
                        image_size: None,
                        first_publish: first,
                    },
                );
            }
        }
        self.tele.instant(
            now.as_micros(),
            Phase::CarouselPublish,
            CONTROL_TRACK,
            inst.raw(),
        );
        self.rebuild_carousel(now);
        self.schedule_deliveries_for(inst, now, out);
    }

    fn schedule_deliveries_for(&mut self, inst: InstanceId, now: SimTime, out: &mut Scratch) {
        let attach = now + self.config.dtv.autostart_latency;
        let cfg = config_file(inst);
        let Some(done) = self.channel.acquisition_complete(&cfg, attach) else {
            return;
        };
        // All powered nodes share the attach instant here, but their
        // *config read* completes at the same carousel pass; the per-node
        // phase spread happens on the image read, whose offset in the
        // cycle they hit at different times only when they power on at
        // different instants. To retain the per-node spread the carousel
        // pass is the same for everyone — which is physically exact:
        // broadcast is simultaneous.
        for i in 0..self.nodes.len() {
            let node = &self.nodes[i];
            if !node.is_on() {
                continue;
            }
            let id = NodeId::new(i as u64);
            let at = self.delayed_control(id, done);
            out.at(at, self.step(id, NodeStep::ControlDelivery(inst)));
        }
    }

    fn schedule_deliveries_to(&mut self, id: NodeId, now: SimTime, out: &mut Scratch) {
        let attach = now + self.config.dtv.autostart_latency;
        let insts: Vec<InstanceId> = self.entries.keys().copied().collect();
        for inst in insts {
            if let Some(done) = self
                .channel
                .acquisition_complete(&config_file(inst), attach)
            {
                let at = self.delayed_control(id, done);
                out.at(at, self.step(id, NodeStep::ControlDelivery(inst)));
            }
        }
    }

    /// Applies the control-delay fault class to a delivery instant: a
    /// middleware hiccup postpones the PNA's reaction to a control message
    /// without losing it (the carousel repeats; the bits are not gone).
    fn delayed_control(&mut self, id: NodeId, done: SimTime) -> SimTime {
        match self.injector.control_delay(id, done) {
            Some(d) => {
                self.metrics.faults.record(FaultClass::ControlDelay);
                done + d
            }
            None => done,
        }
    }

    fn process_outputs(&mut self, outputs: Vec<ControllerOutput>, now: SimTime, out: &mut Scratch) {
        for output in outputs {
            match output {
                ControllerOutput::Broadcast(msg) => self.publish(msg, now, out),
                ControllerOutput::DirectReset { node, instance }
                    if self.nodes[node.index()].is_on() =>
                {
                    let size = DataSize::from_bytes(REQUEST_BYTES);
                    // A reset lost to a fault episode self-heals: the
                    // Controller re-issues it on the node's next
                    // out-of-instance heartbeat.
                    if let Some(done) = self.transfer(node, size, Direction::Down, now) {
                        out.at(done, self.step(node, NodeStep::DirectReset(instance)));
                    }
                }
                ControllerOutput::DirectReset { .. } => {}
                ControllerOutput::NodeLost { node, instance } => {
                    self.tele
                        .instant(now.as_micros(), Phase::NodeLost, node.raw(), instance.raw());
                    self.node_lost(node, now, out);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Event handlers: each node step maps to one input of the node core
    // ------------------------------------------------------------------

    /// A step of node `id`'s current power cycle.
    fn step(&self, id: NodeId, step: NodeStep) -> WorldEvent {
        let epoch = self.nodes[id.index()].epoch;
        WorldEvent::Node {
            node: id,
            epoch,
            step,
        }
    }

    fn on_event(&mut self, event: WorldEvent, now: SimTime, out: &mut Scratch) {
        match event {
            WorldEvent::NodeToggle(id) => self.on_node_toggle(id, now, out),
            WorldEvent::Node { node, epoch, step } => {
                // A stale continuation: its node powered off or crashed since.
                let n = &self.nodes[node.index()];
                if n.is_on() && n.epoch == epoch {
                    self.on_step(node, step, now, out);
                }
            }
            WorldEvent::HeartbeatArrive(hb) => {
                self.metrics.heartbeats_delivered.inc();
                let outputs = self.controller.on_heartbeat(hb, now);
                self.process_outputs(outputs, now, out);
            }
            WorldEvent::ControllerTick => {
                // Sample instance sizes for the timeline metric.
                let samples: Vec<(u64, u64)> = self
                    .ledger
                    .instances()
                    .map(|(inst, _)| (inst.raw(), self.controller.instance_size(inst)))
                    .collect();
                for (inst_raw, size) in samples {
                    self.metrics
                        .sample_instance_size(inst_raw, now.as_secs_f64(), size);
                }
                // Backend queue depth (pending tasks over open jobs).
                self.queue_depth
                    .set(self.ledger.backend().pending_total() as f64);
                let outputs = self.controller.tick(now);
                self.process_outputs(outputs, now, out);
                // Liveness safety net: members parked as drained (by a
                // dry queue or an exhausted retry chain) get a fresh
                // kick while their job is open. The kick also lets a
                // node with a stale Backend assignment reclaim it —
                // only the assignee's own fetch recycles that record,
                // so waiting for `pending > 0` could deadlock.
                for job in self.ledger.backend().open_jobs() {
                    self.kick_drained(job, now, out);
                }
                out.at(
                    now + self.config.controller_tick,
                    WorldEvent::ControllerTick,
                );
            }
        }
    }

    /// One step of a powered node still in the cycle that scheduled it.
    fn on_step(&mut self, id: NodeId, step: NodeStep, now: SimTime, out: &mut Scratch) {
        let input = match step {
            NodeStep::ControlDelivery(inst) => {
                let Some(entry) = self.entries.get(&inst) else {
                    return;
                };
                let msg = entry.msg;
                self.metrics.control_deliveries.inc();
                // Middleware: the AIT AUTOSTART (re)launches the PNA Xlet.
                let node = &mut self.nodes[id.index()];
                node.stb.apps.apply_ait(self.channel.ait());
                let host = Self::host_info(node);
                return self.feed(id, NodeInput::Control(&msg, host), now, out);
            }
            NodeStep::ImageAcquired(inst) => return self.on_image_acquired(id, inst, now, out),
            NodeStep::HeartbeatSend => {
                // Fault hook: the PNA software crashes (rolled at its own
                // timer so crashes pace with heartbeats). The STB stays
                // powered — only the agent reboots — but all in-flight work
                // and timers of this epoch die.
                if let Some(downtime) = self.injector.pna_crash(id, now) {
                    self.metrics.faults.record(FaultClass::PnaCrash);
                    let node = &mut self.nodes[id.index()];
                    node.epoch += 1;
                    node.link.reset(now);
                    // The Backend learns of an orphaned task through
                    // heartbeat loss.
                    self.feed(id, NodeInput::Crash, now, out);
                    return out.at(now + downtime, self.step(id, NodeStep::PnaRestart));
                }
                let interval = self.config.policy.heartbeat.interval;
                self.feed(id, NodeInput::HeartbeatTimer, now, out);
                return out.at(now + interval, self.step(id, NodeStep::HeartbeatSend));
            }
            NodeStep::PnaRestart => {
                self.feed(id, NodeInput::Restart, now, out);
                let interval = self.config.policy.heartbeat.interval;
                return self.start_heartbeats(id, interval, now, out);
            }
            NodeStep::TaskRequest(attempt) => return self.on_task_request(id, attempt, now, out),
            NodeStep::DirectReset(inst) => NodeInput::DirectReset(inst),
            NodeStep::Retry(timer) => NodeInput::RetryDue(timer),
            NodeStep::InputArrived => NodeInput::InputsReady,
            NodeStep::Computed => NodeInput::Computed,
            NodeStep::ResultArrived => NodeInput::Uploaded,
        };
        self.feed(id, input, now, out);
    }

    fn on_image_acquired(&mut self, id: NodeId, inst: InstanceId, now: SimTime, out: &mut Scratch) {
        let Some(first_publish) = self.entries.get(&inst).map(|e| e.first_publish) else {
            return;
        };
        // The PNA may have been reset (or re-targeted) while loading.
        if !self.nodes[id.index()].core.loading(inst) {
            return;
        }
        // Fault hook: a corrupted or truncated module fails its checksum at
        // the end of the read. DSM-CC recovery is stateless — the receiver
        // simply re-reads the file from the (still-cycling) carousel, which
        // costs up to one more full pass.
        if let Some(class) = self.injector.carousel_fault(id, now) {
            self.metrics.faults.record(class);
            if let Some(done) = self.channel.reacquisition_complete(&image_file(inst), now) {
                out.at(done, self.step(id, NodeStep::ImageAcquired(inst)));
            }
            return;
        }
        self.metrics.joins.inc();
        self.metrics
            .wakeup_latency
            .add((now - first_publish).as_secs_f64());
        self.feed(id, NodeInput::ImageReady(inst), now, out);
    }

    /// The Backend's side of a task request that reached it.
    fn on_task_request(&mut self, id: NodeId, attempt: u32, now: SimTime, out: &mut Scratch) {
        let core = &self.nodes[id.index()].core;
        let Some(instance) = core.running().filter(|_| core.held().is_none()) else {
            return;
        };
        // Fault hook: a stalled Backend leaves the request unanswered; the
        // node's fetch timeout fires and it retries with backoff.
        if self.injector.backend_stalled(now).is_some() {
            self.metrics.faults.record(FaultClass::BackendStall);
            self.feed(id, NodeInput::FetchLost(attempt), now, out);
            return;
        }
        let fetched = self.ledger.fetch(instance, id, 1);
        // A fetch recycles stale assignments (idempotent re-assignment),
        // which shows up as requeues.
        self.metrics
            .requeues
            .set(self.ledger.backend().total_requeues());
        let reply = match fetched {
            Some((job, tasks)) => NodeInput::Fetched(attempt, job, tasks),
            None => NodeInput::Drained,
        };
        self.feed(id, reply, now, out);
    }

    fn on_node_toggle(&mut self, id: NodeId, now: SimTime, out: &mut Scratch) {
        let chan = self.channel.id();
        let hb_interval = self.config.policy.heartbeat.interval;
        let node = &mut self.nodes[id.index()];
        node.epoch += 1;
        let new_state = node.churn.toggle();
        let next = node.churn.next_toggle();
        if next != SimTime::MAX {
            out.at(next, WorldEvent::NodeToggle(id));
        }
        match new_state {
            oddci_sim::OnOffState::Off => {
                node.stb.power_off();
                node.link.reset(now);
                // The Backend learns of an orphaned task through heartbeat loss.
                self.feed(id, NodeInput::Crash, now, out);
            }
            oddci_sim::OnOffState::On => {
                node.stb.power_on(chan, node.usage);
                self.feed(id, NodeInput::Restart, now, out);
                self.start_heartbeats(id, hb_interval, now, out);
            }
        }
    }

    /// A node whose agent (re)starts: its heartbeat chain at a random
    /// phase, and a read of every control message on air.
    fn start_heartbeats(
        &mut self,
        id: NodeId,
        interval: SimDuration,
        now: SimTime,
        out: &mut Scratch,
    ) {
        let phase = self.nodes[id.index()]
            .rng
            .random_range(0..interval.as_micros().max(1));
        let beat = self.step(id, NodeStep::HeartbeatSend);
        out.at(now + SimDuration::from_micros(phase), beat);
        self.schedule_deliveries_to(id, now, out);
    }
}

impl Model for World {
    type Event = WorldEvent;

    fn handle(&mut self, event: WorldEvent, ctx: &mut Context<'_, WorldEvent>) {
        let now = ctx.now();
        // Follow-ups collect in the reused scratch buffer, then enqueue:
        // keeps handler borrows simple.
        let mut out = std::mem::take(&mut self.scratch);
        self.on_event(event, now, &mut out);
        for (at, ev) in out.events.drain(..) {
            ctx.schedule_at(at.max(now), ev);
        }
        self.scratch = out;
        if std::mem::take(&mut self.halt) {
            ctx.stop();
        }
    }
}

/// A [`World`] mounted on the discrete-event engine, with the user-facing
/// operations (submit jobs, run, read reports).
pub struct OddciSim {
    sim: Simulator<World>,
}

impl OddciSim {
    /// Builds the world and schedules its initial events.
    pub fn new(config: WorldConfig, seed: u64) -> Self {
        let tick = config.controller_tick;
        let hb_interval = config.policy.heartbeat.interval;
        let world = World::new(config, seed);
        let mut sim = Simulator::new(world, seed);

        // Heartbeat chains for initially-on nodes (random phases) and churn
        // toggles for everyone.
        let n = sim.model().nodes.len();
        for i in 0..n {
            let id = NodeId::new(i as u64);
            let world = sim.model_mut();
            let node = &mut world.nodes[i];
            let next_toggle = node.churn.next_toggle();
            if node.is_on() {
                let phase = node.rng.random_range(0..hb_interval.as_micros().max(1));
                let beat = world.step(id, NodeStep::HeartbeatSend);
                sim.schedule_at(SimTime::from_micros(phase), beat);
            }
            if next_toggle != SimTime::MAX {
                sim.schedule_at(next_toggle, WorldEvent::NodeToggle(id));
            }
        }
        sim.schedule_at(SimTime::ZERO + tick, WorldEvent::ControllerTick);
        OddciSim { sim }
    }

    /// Submits `job` to run on a fresh instance of `target` nodes. Returns
    /// the request handle for later [`report`](Self::report) retrieval.
    pub fn submit_job(&mut self, job: Job, target: u64) -> ProviderRequest {
        self.submit_job_with(job, target, Default::default())
    }

    /// Like [`submit_job`](Self::submit_job) with explicit node
    /// requirements (memory floor, standby-only).
    pub fn submit_job_with(
        &mut self,
        job: Job,
        target: u64,
        requirements: crate::messages::NodeRequirements,
    ) -> ProviderRequest {
        let now = self.sim.now();
        let world = self.sim.model_mut();
        let (inst, req, request) = world
            .ledger
            .submit(job, target, requirements, now)
            .unwrap_or_else(|e| panic!("job ids must be unique within a world: {e}"));
        let outputs = world.controller.admit_instance(inst, req, now);

        let mut out = std::mem::take(&mut world.scratch);
        world.process_outputs(outputs, now, &mut out);
        for (at, ev) in out.events.drain(..) {
            self.sim.schedule_at(at.max(now), ev);
        }
        self.sim.model_mut().scratch = out;
        request
    }

    /// Resizes a running request's instance (§3.2: the Provider may command
    /// "creation, dismantle and resizing of several OddCI"). Growth is
    /// fulfilled by the Controller's next recomposition tick; shrinkage is
    /// enforced lazily through heartbeat-reply resets.
    pub fn resize_request(
        &mut self,
        req: ProviderRequest,
        new_target: u64,
    ) -> oddci_types::Result<()> {
        let world = self.sim.model_mut();
        let inst =
            world
                .provider()
                .instance_of(req)
                .ok_or(oddci_types::OddciError::UnknownInstance(InstanceId::new(
                    u64::MAX,
                )))?;
        world.controller.resize(inst, new_target)
    }

    /// Runs the simulation up to `horizon` (the controller tick keeps the
    /// queue alive, so an explicit horizon is required).
    pub fn run_until(&mut self, horizon: SimTime) -> u64 {
        self.sim.run_until(horizon)
    }

    /// Runs until `req` completes or `horizon` passes. Returns the report
    /// if the job finished. The run stops on the event that completes
    /// `req`: the clock stays at that instant and any other events due
    /// then stay queued, so a later [`run_until`](Self::run_until) goes on
    /// exactly as one uninterrupted run would. When the world's telemetry
    /// streams to a [`TraceSink`], its buffers are flushed before
    /// returning, so the on-disk trace covers the whole request either way.
    ///
    /// [`TraceSink`]: oddci_telemetry::TraceSink
    pub fn run_request(&mut self, req: ProviderRequest, horizon: SimTime) -> Option<JobReport> {
        if self.report(req).is_none() {
            let world = self.sim.model_mut();
            world.awaited = world.provider().instance_of(req);
            self.sim.run_until(horizon);
            self.sim.model_mut().awaited = None;
        }
        self.sim.model().telemetry().flush_sink();
        self.report(req)
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The world.
    pub fn world(&self) -> &World {
        self.sim.model()
    }

    /// Final report of a request, if complete.
    pub fn report(&self, req: ProviderRequest) -> Option<JobReport> {
        self.sim.model().provider().report(req)
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::InstanceStatus;
    use oddci_types::{Bandwidth, HeartbeatConfig};
    use oddci_workload::JobGenerator;

    fn quick_config(nodes: u64) -> WorldConfig {
        WorldConfig {
            nodes,
            policy: ControllerPolicy {
                heartbeat: HeartbeatConfig {
                    interval: SimDuration::from_secs(30),
                    miss_threshold: 3,
                    message_bytes: 128,
                },
                ..Default::default()
            },
            controller_tick: SimDuration::from_secs(30),
            ..Default::default()
        }
    }

    fn small_job(n_tasks: u64, cost_secs: u64, seed: u64) -> Job {
        JobGenerator::homogeneous(
            DataSize::from_megabytes(1),
            DataSize::from_bytes(500),
            DataSize::from_bytes(500),
            SimDuration::from_secs(cost_secs),
            seed,
        )
        .generate(n_tasks)
    }

    #[test]
    fn job_runs_to_completion_without_churn() {
        let mut sim = World::simulation(quick_config(100), 1);
        let req = sim.submit_job(small_job(200, 30, 2), 50);
        let report = sim
            .run_request(req, SimTime::from_secs(48 * 3600))
            .expect("job completes");
        assert_eq!(report.tasks_completed, 200);
        assert_eq!(report.target_nodes, 50);
        assert!(
            report.makespan > SimDuration::from_secs(60),
            "wakeup alone takes ~13s+"
        );
        assert_eq!(report.requeues, 0);
    }

    #[test]
    fn instance_forms_near_target_size() {
        let mut sim = World::simulation(quick_config(1000), 3);
        // Long job so the instance is stable while we measure.
        let req = sim.submit_job(small_job(100_000, 600, 4), 200);
        sim.run_until(SimTime::from_secs(3600));
        let world = sim.world();
        let inst = world.provider().instance_of(req).unwrap();
        let size = world.controller.instance_size(inst);
        // Probability sizing + recomposition should land near 200.
        assert!(
            (180..=220).contains(&size),
            "instance size {size} not within 10% of target 200"
        );
        // And the members' DVEs actually run.
        assert!(world.running_members(inst) >= 150);
    }

    #[test]
    fn wakeup_latency_matches_carousel_law() {
        // A 100-node, no-churn world; image 8 MB over (framed) 1 Mbps.
        let mut cfg = quick_config(100);
        cfg.dtv.beta = Bandwidth::from_mbps(1.0);
        let mut sim = World::simulation(cfg, 5);
        let mut gen = JobGenerator::homogeneous(
            DataSize::from_megabytes(8),
            DataSize::ZERO,
            DataSize::from_bytes(100),
            SimDuration::from_secs(600),
            6,
        );
        let req = sim.submit_job(gen.generate(10_000), 100);
        sim.run_until(SimTime::from_secs(2 * 3600));
        let world = sim.world();
        assert!(world.metrics().joins.get() > 0, "nodes joined");
        let mean = world.metrics().wakeup_latency.stats().mean();
        // All initially-on nodes attach at the same publish instant, so
        // they all see the config at its first pass and then read the
        // image: total ≈ wait-to-config + image read ≈ 1 cycle of the
        // image-dominated carousel (plus framing). The envelope is
        // [1, 2]× the image cycle; the simultaneous-attach case sits at
        // the low end.
        let cycle = DataSize::from_megabytes(8)
            .transfer_time(Bandwidth::from_mbps(1.0))
            .as_secs_f64();
        assert!(
            mean > 0.9 * cycle && mean < 2.2 * cycle,
            "mean wakeup {mean:.1}s vs cycle {cycle:.1}s"
        );
        let _ = req;
    }

    #[test]
    fn churn_orphans_tasks_but_job_still_completes() {
        let mut cfg = quick_config(300);
        cfg.churn = Some(ChurnConfig {
            mean_on: SimDuration::from_mins(40),
            mean_off: SimDuration::from_mins(20),
        });
        let mut sim = World::simulation(cfg, 7);
        let req = sim.submit_job(small_job(300, 60, 8), 60);
        let report = sim
            .run_request(req, SimTime::from_secs(7 * 24 * 3600))
            .expect("job completes despite churn");
        assert_eq!(report.tasks_completed, 300);
        // With 33% off-fraction churn, some loss and recomposition is
        // overwhelmingly likely over the run.
        assert!(
            report.requeues > 0 || report.wakeup_broadcasts > 1,
            "expected churn effects: {report:?}"
        );
    }

    #[test]
    fn dismantle_frees_all_nodes() {
        let mut sim = World::simulation(quick_config(100), 9);
        let req = sim.submit_job(small_job(100, 10, 10), 30);
        let report = sim.run_request(req, SimTime::from_secs(24 * 3600)).unwrap();
        let inst = report.instance;
        // Give the reset broadcast time to propagate (config cycle is short).
        let end = sim.now() + SimDuration::from_mins(30);
        sim.run_until(end);
        assert_eq!(sim.world().running_members(inst), 0, "all DVEs destroyed");
        assert_eq!(
            sim.world().controller.instance(inst).unwrap().status,
            InstanceStatus::Dismantled
        );
    }

    #[test]
    fn same_seed_same_outcome() {
        let run = |seed| {
            let mut sim = World::simulation(quick_config(150), seed);
            let req = sim.submit_job(small_job(150, 20, 99), 40);
            let report = sim.run_request(req, SimTime::from_secs(24 * 3600)).unwrap();
            (
                report.makespan,
                sim.events_processed(),
                sim.world().metrics().snapshot(),
            )
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut sim = World::simulation(quick_config(150), seed);
            let req = sim.submit_job(small_job(150, 20, 99), 40);
            let makespan = sim
                .run_request(req, SimTime::from_secs(24 * 3600))
                .unwrap()
                .makespan;
            (makespan, sim.events_processed())
        };
        // Probability gates, usage draws and heartbeat phases differ, so the
        // pair (makespan, event count) must too. Makespan alone can collide
        // between seeds: compute is jitter-free and broadcast joins are
        // simultaneous, so two seeds whose critical path is "an in-use
        // member with the longest task chain" finish at the same microsecond.
        assert_ne!(run(21), run(22));
    }

    #[test]
    fn two_concurrent_jobs_share_the_channel() {
        let mut sim = World::simulation(quick_config(400), 13);
        let req_a = sim.submit_job(small_job(100, 30, 14), 100);
        // Second job arrives 10 minutes later.
        sim.run_until(SimTime::from_secs(600));
        let mut gen = JobGenerator::homogeneous(
            DataSize::from_megabytes(2),
            DataSize::from_bytes(200),
            DataSize::from_bytes(200),
            SimDuration::from_secs(15),
            15,
        );
        let mut job_b = gen.generate(100);
        job_b.id = oddci_types::JobId::new(1); // distinct id space per submit
        let req_b = sim.submit_job(job_b, 100);

        let a = sim
            .run_request(req_a, SimTime::from_secs(48 * 3600))
            .expect("job A");
        let b = sim
            .run_request(req_b, SimTime::from_secs(48 * 3600))
            .expect("job B");
        assert_eq!(a.tasks_completed, 100);
        assert_eq!(b.tasks_completed, 100);
        assert_ne!(a.instance, b.instance);
    }

    #[test]
    fn oversubscribed_target_still_completes_with_available_nodes() {
        // Ask for 10x more nodes than exist.
        let mut sim = World::simulation(quick_config(50), 17);
        let req = sim.submit_job(small_job(100, 5, 18), 500);
        let report = sim
            .run_request(req, SimTime::from_secs(72 * 3600))
            .expect("completes with what it has");
        assert_eq!(report.tasks_completed, 100);
        // Controller had to recompose (it never reaches 500).
        assert!(report.wakeup_broadcasts >= 1);
    }

    #[test]
    fn each_aired_message_is_verified_once_per_world() {
        let mut sim = World::simulation(quick_config(1_000), 23);
        let req = sim.submit_job(small_job(200, 30, 24), 100);
        let report = sim.run_request(req, SimTime::from_secs(24 * 3600)).unwrap();
        // Let the dismantle's reset air and reach every node.
        let end = sim.now() + SimDuration::from_mins(30);
        sim.run_until(end);
        let world = sim.world();
        assert_eq!(world.running_members(report.instance), 0);
        let aired = u64::from(report.wakeup_broadcasts) + 1;
        let reads = world.metrics().control_deliveries.get();
        assert!(reads >= 1_000 * aired, "{reads} reads of {aired} messages");
        assert_eq!(world.memo.verifies(), aired, "{reads} reads");
    }

    #[test]
    fn heartbeats_flow_and_are_counted() {
        let mut sim = World::simulation(quick_config(50), 19);
        sim.run_until(SimTime::from_secs(120));
        let m = sim.world().metrics().snapshot();
        // 50 nodes, 30 s interval, 120 s: ≥ 150 heartbeats (plus joins).
        assert!(m.heartbeats_delivered >= 150, "{}", m.heartbeats_delivered);
        assert_eq!(sim.world().controller().known_nodes(), 50);
    }
}
