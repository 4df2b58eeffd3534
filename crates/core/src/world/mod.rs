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

pub use events::WorldEvent;
pub use metrics::{MetricsSnapshot, WorldMetrics};
pub use node::NodeRuntime;

use crate::backend::{Backend, TaskOutcome};
use crate::controller::{Controller, ControllerOutput, ControllerPolicy, InstanceRequest};
use crate::messages::{ControlMessage, SignedMessage};
use crate::pna::{HostInfo, Pna, PnaAction, PnaState};
use crate::provider::{JobReport, Provider, ProviderRequest};
use oddci_broadcast::ait::{AitEntry, AppControlCode};
use oddci_broadcast::carousel::CarouselFile;
use oddci_broadcast::BroadcastChannel;
use oddci_faults::{Backoff, FaultClass, FaultInjector, FaultPlan};
use oddci_net::link::{DirectLink, Direction};
use oddci_receiver::compute::{ComputeModel, UsageMode};
use oddci_receiver::dve::DveState;
use oddci_receiver::SetTopBox;
use oddci_sim::{ChurnProcess, Context, Model, SeedForge, Simulator, TraceLog};
use oddci_telemetry::{Phase, Telemetry, CONTROL_TRACK};
use oddci_types::{
    ChannelId, DataSize, DirectChannelConfig, DtvSystemConfig, InstanceId, JobId, NodeId,
    SimDuration, SimTime,
};
use oddci_workload::Job;
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
    /// When `Some(n)`, record up to `n` timeline milestones (publishes,
    /// joins, losses, job completions) retrievable via [`World::trace`].
    pub trace_capacity: Option<usize>,
    /// Faults to inject (empty by default — a fault-free world).
    pub faults: FaultPlan,
    /// Retry policy for task fetches and result uploads that hit injected
    /// losses or Backend stalls.
    pub fetch_backoff: Backoff,
    /// Observability: the metrics registry is always on; pass
    /// [`Telemetry::recording`] to also capture span/instant events for
    /// trace export. Recording is write-only and never perturbs the
    /// deterministic simulation.
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
            trace_capacity: None,
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
    backend: Backend,
    provider: Provider,
    nodes: Vec<NodeRuntime>,
    entries: BTreeMap<InstanceId, BroadcastEntry>,
    instance_job: BTreeMap<InstanceId, JobId>,
    job_instance: BTreeMap<JobId, InstanceId>,
    metrics: WorldMetrics,
    trace: TraceLog,
    /// Compiled fault plan; pure per-query decisions (see `oddci-faults`).
    injector: FaultInjector,
    /// Seed for deterministic backoff jitter (per-node mixing).
    jitter_seed: u64,
    /// Shared telemetry handle (clone of `config.telemetry`), cached for
    /// hot-path span/instant recording.
    tele: Telemetry,
    /// Backend queue-depth gauge (pending tasks across open jobs),
    /// refreshed on every controller tick.
    queue_depth: oddci_telemetry::Gauge,
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
        let trace_capacity = config.trace_capacity;

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
                pna: Pna::new(NodeId::new(i), &config.key),
                link: DirectLink::new(config.direct.clone()),
                churn,
                usage,
                rng: forge.indexed_rng("node", i),
                job: None,
                current_task: None,
                drained: false,
                epoch: 0,
                accept_at: None,
                fetch_started: None,
                compute_started: None,
                upload_started: None,
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
            backend: Backend::new(),
            provider: Provider::new(),
            nodes,
            entries: BTreeMap::new(),
            instance_job: BTreeMap::new(),
            job_instance: BTreeMap::new(),
            metrics,
            trace: match trace_capacity {
                Some(n) => TraceLog::new(n),
                None => TraceLog::disabled(),
            },
            injector,
            jitter_seed,
            tele,
            queue_depth,
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
        &self.backend
    }

    /// The Provider.
    pub fn provider(&self) -> &Provider {
        &self.provider
    }

    /// Collected metrics.
    pub fn metrics(&self) -> &WorldMetrics {
        &self.metrics
    }

    /// The world's telemetry handle (registry + recorder).
    pub fn telemetry(&self) -> &Telemetry {
        &self.tele
    }

    /// The milestone timeline (empty unless `trace_capacity` was set).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// One node's runtime state (tests and harnesses).
    pub fn node(&self, id: NodeId) -> &NodeRuntime {
        &self.nodes[id.index()]
    }

    /// Number of nodes currently powered on.
    pub fn powered_on(&self) -> u64 {
        self.nodes.iter().filter(|n| n.is_on()).count() as u64
    }

    /// Number of nodes whose DVE is currently running `inst`'s image.
    pub fn running_members(&self, inst: InstanceId) -> u64 {
        self.nodes
            .iter()
            .filter(|n| match n.pna.state() {
                PnaState::Busy(dve) => dve.instance == inst && dve.state() == DveState::Running,
                PnaState::Idle => false,
            })
            .count() as u64
    }

    /// Final report of a request, if complete.
    pub fn job_report(&self, req: ProviderRequest) -> Option<JobReport> {
        self.provider.report(req)
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

    fn heartbeat_size(&self) -> DataSize {
        DataSize::from_bytes(u64::from(self.config.policy.heartbeat.message_bytes))
    }

    fn send_heartbeat(
        &mut self,
        id: NodeId,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        let size = self.heartbeat_size();
        if !self.nodes[id.index()].is_on() {
            return;
        }
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
        let node = &mut self.nodes[id.index()];
        let hb = node.pna.heartbeat(now);
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
        sched(done, WorldEvent::HeartbeatArrive(hb));
    }

    fn request_task(
        &mut self,
        id: NodeId,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        self.request_task_attempt(id, 0, now, sched);
    }

    /// Sends (or re-sends) a task request upstream. A request lost to a
    /// fault episode is retried after a backoff delay, so a transient
    /// outage costs time, never liveness.
    fn request_task_attempt(
        &mut self,
        id: NodeId,
        attempt: u32,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        let node = &mut self.nodes[id.index()];
        // Anchor the task.fetch span at the first attempt; retries extend
        // the same span rather than restarting it.
        if node.fetch_started.is_none() {
            node.fetch_started = Some(now);
        }
        let done = node.link.transfer_faulted_telemetered(
            now,
            DataSize::from_bytes(REQUEST_BYTES),
            Direction::Up,
            &mut node.rng,
            &self.injector,
            id,
            &mut self.metrics.faults,
            &self.tele,
        );
        match done {
            Some(done) => {
                let epoch = self.nodes[id.index()].epoch;
                sched(
                    done,
                    WorldEvent::TaskRequest {
                        node: id,
                        epoch,
                        attempt,
                    },
                );
            }
            None => self.schedule_fetch_retry(id, attempt, now, sched),
        }
    }

    /// Books the next fetch retry (exponential backoff, deterministic
    /// jitter); after `max_attempts` the node parks as drained and waits
    /// for the Controller-tick re-kick.
    fn schedule_fetch_retry(
        &mut self,
        id: NodeId,
        attempt: u32,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        match self
            .config
            .fetch_backoff
            .delay(attempt, self.jitter_seed ^ id.raw())
        {
            Some(delay) => {
                self.metrics.task_fetch_retries.inc();
                self.tele
                    .instant(now.as_micros(), Phase::Retry, id.raw(), u64::from(attempt));
                let epoch = self.nodes[id.index()].epoch;
                sched(
                    now + delay,
                    WorldEvent::TaskRequestRetry {
                        node: id,
                        epoch,
                        attempt: attempt + 1,
                    },
                );
            }
            None => {
                self.metrics.fetch_aborts.inc();
                self.nodes[id.index()].drained = true;
            }
        }
    }

    /// Re-kick drained members of `job`'s instance after tasks reappeared.
    fn kick_drained(
        &mut self,
        job: JobId,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        let Some(&inst) = self.job_instance.get(&job) else {
            return;
        };
        let members: Vec<NodeId> = self
            .controller
            .instance(inst)
            .map(|r| r.members.iter().copied().collect())
            .unwrap_or_default();
        for m in members {
            let node = &self.nodes[m.index()];
            let runnable = node.is_on()
                && node.drained
                && node.current_task.is_none()
                && node.pna.instance() == Some(inst);
            if runnable {
                self.nodes[m.index()].drained = false;
                self.request_task(m, now, sched);
            }
        }
    }

    /// A node left its instance while possibly holding a task.
    fn orphan_task_of(
        &mut self,
        id: NodeId,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        if self.nodes[id.index()].current_task.is_some() {
            self.metrics.tasks_orphaned.inc();
            let affected = self.backend.node_lost(id);
            self.metrics.requeues.set(self.backend.total_requeues());
            self.nodes[id.index()].current_task = None;
            for job in affected {
                self.kick_drained(job, now, sched);
            }
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
    fn publish(
        &mut self,
        signed: SignedMessage,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        let inst = signed.message.instance();
        match signed.message {
            ControlMessage::Wakeup(w) => {
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
        self.trace.record(now, || match signed.message {
            ControlMessage::Wakeup(w) => format!(
                "broadcast wakeup for {inst} (image {}, p={})",
                w.image_size, w.probability
            ),
            ControlMessage::Reset(_) => format!("broadcast reset for {inst}"),
        });
        self.tele.instant(
            now.as_micros(),
            Phase::CarouselPublish,
            CONTROL_TRACK,
            inst.raw(),
        );
        self.rebuild_carousel(now);
        self.schedule_deliveries_for(inst, now, sched);
    }

    fn schedule_deliveries_for(
        &mut self,
        inst: InstanceId,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
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
            let (id, epoch) = (node.pna.node(), node.epoch);
            let at = self.delayed_control(id, done);
            sched(
                at,
                WorldEvent::ControlDelivery {
                    node: id,
                    instance: inst,
                    epoch,
                },
            );
        }
    }

    fn schedule_deliveries_to(
        &mut self,
        id: NodeId,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        let attach = now + self.config.dtv.autostart_latency;
        let epoch = self.nodes[id.index()].epoch;
        let insts: Vec<InstanceId> = self.entries.keys().copied().collect();
        for inst in insts {
            if let Some(done) = self
                .channel
                .acquisition_complete(&config_file(inst), attach)
            {
                let at = self.delayed_control(id, done);
                sched(
                    at,
                    WorldEvent::ControlDelivery {
                        node: id,
                        instance: inst,
                        epoch,
                    },
                );
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

    fn process_outputs(
        &mut self,
        outputs: Vec<ControllerOutput>,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        for out in outputs {
            match out {
                ControllerOutput::Broadcast(msg) => self.publish(msg, now, sched),
                ControllerOutput::DirectReset { node, instance } => {
                    let n = &mut self.nodes[node.index()];
                    if n.is_on() {
                        let done = n.link.transfer_faulted_telemetered(
                            now,
                            DataSize::from_bytes(REQUEST_BYTES),
                            Direction::Down,
                            &mut n.rng,
                            &self.injector,
                            node,
                            &mut self.metrics.faults,
                            &self.tele,
                        );
                        // A reset lost to a fault episode self-heals: the
                        // Controller re-issues it on the node's next
                        // out-of-instance heartbeat.
                        if let Some(done) = done {
                            let epoch = self.nodes[node.index()].epoch;
                            sched(
                                done,
                                WorldEvent::DirectResetArrive {
                                    node,
                                    instance,
                                    epoch,
                                },
                            );
                        }
                    }
                }
                ControllerOutput::NodeLost { node, instance } => {
                    self.trace
                        .record(now, || format!("{node} lost from {instance}"));
                    self.tele
                        .instant(now.as_micros(), Phase::NodeLost, node.raw(), instance.raw());
                    let affected = self.backend.node_lost(node);
                    self.metrics.requeues.set(self.backend.total_requeues());
                    for job in affected {
                        self.kick_drained(job, now, sched);
                    }
                }
            }
        }
    }

    fn job_finished(
        &mut self,
        job: JobId,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        let Some(req) = self.provider.request_for_job(job) else {
            return;
        };
        let Some(&inst) = self.job_instance.get(&job) else {
            return;
        };
        let wakeups = self.controller.instance(inst).map_or(0, |r| r.wakeups_sent);
        let completed = self.backend.completed_count(job);
        let requeues = self.backend.requeue_count(job);
        if self
            .provider
            .complete(req, now, completed, requeues, wakeups)
            .is_some()
        {
            self.trace.record(now, || {
                format!("{job} complete: {completed} tasks, {requeues} requeues")
            });
            if let Some(report) = self.provider.report(req) {
                let begin = now.as_micros().saturating_sub(report.makespan.as_micros());
                self.tele.span(
                    begin,
                    now.as_micros(),
                    Phase::JobRun,
                    CONTROL_TRACK,
                    job.raw(),
                );
            }
            if let Ok(outputs) = self.controller.dismantle(inst) {
                self.process_outputs(outputs, now, sched);
            }
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_control_delivery(
        &mut self,
        id: NodeId,
        inst: InstanceId,
        epoch: u64,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        let Some(entry) = self.entries.get(&inst) else {
            return;
        };
        let msg = entry.msg;
        let has_image = entry.image_size.is_some();
        let first_publish = entry.first_publish;
        if !self.nodes[id.index()].is_on() || self.nodes[id.index()].epoch != epoch {
            return;
        }
        self.metrics.control_deliveries.inc();
        // Middleware: the AIT AUTOSTART (re)launches the PNA Xlet.
        let ait = self.channel.ait().clone();
        let host = Self::host_info(&self.nodes[id.index()]);
        let node = &mut self.nodes[id.index()];
        node.stb.apps.apply_ait(&ait);
        let action = node.pna.on_control_message(&msg, host, &mut node.rng);
        match action {
            PnaAction::BeginAcquisition { instance, .. } => {
                // Publish → config read: the paper's wakeup *waiting*
                // component. The acceptance decision happens here too.
                self.tele.span(
                    first_publish.as_micros(),
                    now.as_micros(),
                    Phase::WakeupWait,
                    id.raw(),
                    instance.raw(),
                );
                self.tele
                    .instant(now.as_micros(), Phase::PnaAccept, id.raw(), instance.raw());
                self.nodes[id.index()].accept_at = Some(now);
                if has_image {
                    if let Some(done) = self
                        .channel
                        .acquisition_complete(&image_file(instance), now)
                    {
                        let epoch = self.nodes[id.index()].epoch;
                        sched(
                            done,
                            WorldEvent::ImageAcquired {
                                node: id,
                                instance,
                                epoch,
                            },
                        );
                    }
                }
                // State-change heartbeat: the Controller learns of the join
                // without waiting a full heartbeat interval.
                self.send_heartbeat(id, now, sched);
            }
            PnaAction::DveDestroyed { .. } => {
                self.orphan_task_of(id, now, sched);
                self.nodes[id.index()].clear_work();
                self.send_heartbeat(id, now, sched);
            }
            PnaAction::None => {}
        }
    }

    fn on_image_acquired(
        &mut self,
        id: NodeId,
        inst: InstanceId,
        epoch: u64,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        let first_publish = match self.entries.get(&inst) {
            Some(e) => e.first_publish,
            None => return,
        };
        let job = self.instance_job.get(&inst).copied();
        {
            let node = &mut self.nodes[id.index()];
            if !node.is_on() || node.epoch != epoch {
                return;
            }
            // The PNA may have been reset (or re-targeted) while loading.
            let loading = matches!(
                node.pna.state(),
                PnaState::Busy(dve) if dve.instance == inst && dve.state() == DveState::Loading
            );
            if !loading {
                return;
            }
        }
        // Fault hook: a corrupted or truncated module fails its checksum at
        // the end of the read. DSM-CC recovery is stateless — the receiver
        // simply re-reads the file from the (still-cycling) carousel, which
        // costs up to one more full pass.
        if let Some(class) = self.injector.carousel_fault(id, now) {
            self.metrics.faults.record(class);
            if let Some(done) = self.channel.reacquisition_complete(&image_file(inst), now) {
                sched(
                    done,
                    WorldEvent::ImageAcquired {
                        node: id,
                        instance: inst,
                        epoch,
                    },
                );
            }
            return;
        }
        let accept_at = {
            let node = &mut self.nodes[id.index()];
            node.pna.image_ready().expect("loading DVE starts");
            node.job = job;
            node.accept_at.unwrap_or(first_publish)
        };
        self.metrics.joins.inc();
        self.metrics
            .wakeup_latency
            .add((now - first_publish).as_secs_f64());
        // Acceptance → image running: the paper's image-transfer component
        // of wakeup (`I/β` under carousel framing).
        self.tele.span(
            accept_at.as_micros(),
            now.as_micros(),
            Phase::DveBoot,
            id.raw(),
            inst.raw(),
        );
        self.trace.record(now, || {
            format!(
                "{id} joined {inst} ({:.1}s after publish)",
                (now - first_publish).as_secs_f64()
            )
        });
        self.send_heartbeat(id, now, sched);
        if job.is_some() {
            self.request_task(id, now, sched);
        }
    }

    fn on_task_request(
        &mut self,
        id: NodeId,
        epoch: u64,
        attempt: u32,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        let node = &mut self.nodes[id.index()];
        if !node.is_on() || node.epoch != epoch || node.current_task.is_some() {
            return;
        }
        let running = matches!(
            node.pna.state(),
            PnaState::Busy(dve) if dve.state() == DveState::Running
        );
        let Some(job) = node.job else { return };
        if !running {
            return;
        }
        // Fault hook: a stalled Backend leaves the request unanswered; the
        // node's fetch timeout fires and it retries with backoff.
        if self.injector.backend_stalled(now).is_some() {
            self.metrics.faults.record(FaultClass::BackendStall);
            self.schedule_fetch_retry(id, attempt, now, sched);
            return;
        }
        let outcome = self.backend.fetch_task(job, id);
        // fetch_task recycles stale assignments (idempotent re-assignment),
        // which shows up as requeues.
        self.metrics.requeues.set(self.backend.total_requeues());
        match outcome {
            Ok(TaskOutcome::Assigned(task)) => {
                let node = &mut self.nodes[id.index()];
                let done = if task.input_size.is_zero() {
                    Some(now + node.link.config().latency)
                } else {
                    node.link.transfer_faulted_telemetered(
                        now,
                        task.input_size,
                        Direction::Down,
                        &mut node.rng,
                        &self.injector,
                        id,
                        &mut self.metrics.faults,
                        &self.tele,
                    )
                };
                match done {
                    Some(done) => {
                        self.nodes[id.index()].current_task = Some(task);
                        sched(done, WorldEvent::TaskInputArrived { node: id, epoch });
                    }
                    // Input lost in flight: leave `current_task` empty so
                    // the Backend's stale-assignment recycling hands the
                    // task back out; this node just asks again later.
                    None => self.schedule_fetch_retry(id, attempt, now, sched),
                }
            }
            Ok(TaskOutcome::Drained) => {
                self.nodes[id.index()].drained = true;
            }
            Err(_) => {}
        }
    }

    fn on_task_input(
        &mut self,
        id: NodeId,
        epoch: u64,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        let compute = self.config.compute.clone();
        let node = &mut self.nodes[id.index()];
        if !node.is_on() || node.epoch != epoch {
            return;
        }
        let Some(task) = &node.current_task else {
            return;
        };
        let task_id = task.id.raw();
        let cost = task.cost;
        let usage = node.usage;
        // Request sent → input fully here: the task.fetch span closes.
        let fetch_started = node.fetch_started.take().unwrap_or(now);
        node.compute_started = Some(now);
        self.tele.span(
            fetch_started.as_micros(),
            now.as_micros(),
            Phase::TaskFetch,
            id.raw(),
            task_id,
        );
        let dur = compute.sample_instrumented(cost, usage, &mut node.rng, &self.tele);
        sched(now + dur, WorldEvent::TaskComputed { node: id, epoch });
    }

    fn on_task_computed(
        &mut self,
        id: NodeId,
        epoch: u64,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        let node = &mut self.nodes[id.index()];
        if !node.is_on() || node.epoch != epoch {
            return;
        }
        if node.current_task.is_none() || node.pna.task_done().is_err() {
            return;
        }
        // Input here → computation done: the task.compute span closes.
        let compute_started = node.compute_started.take().unwrap_or(now);
        let task_id = node.current_task.as_ref().map_or(0, |t| t.id.raw());
        node.upload_started = Some(now);
        self.tele.span(
            compute_started.as_micros(),
            now.as_micros(),
            Phase::Compute,
            id.raw(),
            task_id,
        );
        self.upload_result_attempt(id, 0, now, sched);
    }

    /// Uploads (or re-uploads) the held result. Lost uploads retry with the
    /// same backoff as fetches; an exhausted chain abandons the local copy
    /// and re-requests work — the Backend re-issues the task elsewhere.
    fn upload_result_attempt(
        &mut self,
        id: NodeId,
        attempt: u32,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        let node = &mut self.nodes[id.index()];
        let Some(result) = node.current_task.as_ref().map(|t| t.result_size) else {
            return;
        };
        if node.upload_started.is_none() {
            node.upload_started = Some(now);
        }
        let done = node.link.transfer_faulted_telemetered(
            now,
            result,
            Direction::Up,
            &mut node.rng,
            &self.injector,
            id,
            &mut self.metrics.faults,
            &self.tele,
        );
        match done {
            Some(done) => {
                let epoch = self.nodes[id.index()].epoch;
                sched(done, WorldEvent::ResultArrived { node: id, epoch });
            }
            None => {
                match self
                    .config
                    .fetch_backoff
                    .delay(attempt, self.jitter_seed ^ id.raw() ^ 1)
                {
                    Some(delay) => {
                        self.metrics.task_fetch_retries.inc();
                        self.tele.instant(
                            now.as_micros(),
                            Phase::Retry,
                            id.raw(),
                            u64::from(attempt),
                        );
                        let epoch = self.nodes[id.index()].epoch;
                        sched(
                            now + delay,
                            WorldEvent::ResultRetry {
                                node: id,
                                epoch,
                                attempt: attempt + 1,
                            },
                        );
                    }
                    None => {
                        // Give up on this copy; the Backend will treat the
                        // task as stale and re-issue it.
                        self.metrics.fetch_aborts.inc();
                        let n = &mut self.nodes[id.index()];
                        n.current_task = None;
                        n.upload_started = None;
                        n.fetch_started = None;
                        self.request_task(id, now, sched);
                    }
                }
            }
        }
    }

    fn on_result_arrived(
        &mut self,
        id: NodeId,
        epoch: u64,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        let node = &mut self.nodes[id.index()];
        if !node.is_on() || node.epoch != epoch {
            return;
        }
        let Some(task) = node.current_task.take() else {
            return;
        };
        let Some(job) = node.job else { return };
        // Upload started → result accepted: the task.upload span closes.
        let upload_started = node.upload_started.take().unwrap_or(now);
        self.tele.span(
            upload_started.as_micros(),
            now.as_micros(),
            Phase::ResultUpload,
            id.raw(),
            task.id.raw(),
        );
        match self.backend.complete_task(job, task.id, id, now) {
            Ok(true) => {
                self.metrics.tasks_completed.inc();
                self.job_finished(job, now, sched);
            }
            Ok(false) => {
                self.metrics.tasks_completed.inc();
                self.request_task(id, now, sched);
            }
            Err(_) => {}
        }
    }

    fn on_node_toggle(
        &mut self,
        id: NodeId,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        let chan = self.channel.id();
        let hb_interval = self.config.policy.heartbeat.interval;
        let node = &mut self.nodes[id.index()];
        node.epoch += 1;
        let new_state = node.churn.toggle();
        let next = node.churn.next_toggle();
        if next != SimTime::MAX {
            sched(next, WorldEvent::NodeToggle(id));
        }
        match new_state {
            oddci_sim::OnOffState::Off => {
                let had_task = node.current_task.is_some();
                node.stb.power_off();
                node.pna.power_off();
                node.link.reset(now);
                node.clear_work();
                if had_task {
                    // The Backend only learns through heartbeat loss.
                    self.metrics.tasks_orphaned.inc();
                }
            }
            oddci_sim::OnOffState::On => {
                node.stb.power_on(chan, node.usage);
                let phase = node.rng.random_range(0..hb_interval.as_micros().max(1));
                let epoch = node.epoch;
                sched(
                    now + SimDuration::from_micros(phase),
                    WorldEvent::HeartbeatSend { node: id, epoch },
                );
                self.schedule_deliveries_to(id, now, sched);
            }
        }
    }

    fn on_direct_reset(
        &mut self,
        id: NodeId,
        inst: InstanceId,
        epoch: u64,
        now: SimTime,
        sched: &mut dyn FnMut(SimTime, WorldEvent),
    ) {
        let node = &mut self.nodes[id.index()];
        if !node.is_on() || node.epoch != epoch {
            return;
        }
        if node.pna.on_direct_reset(inst) {
            self.metrics.direct_resets.inc();
            self.tele
                .instant(now.as_micros(), Phase::DirectReset, id.raw(), inst.raw());
            self.orphan_task_of(id, now, sched);
            self.nodes[id.index()].clear_work();
            self.send_heartbeat(id, now, sched);
        }
    }
}

impl Model for World {
    type Event = WorldEvent;

    fn handle(&mut self, event: WorldEvent, ctx: &mut Context<'_, WorldEvent>) {
        let now = ctx.now();
        // Collect follow-ups locally, then enqueue: keeps handler borrows simple.
        let mut outbox: Vec<(SimTime, WorldEvent)> = Vec::new();
        {
            let mut sched = |at: SimTime, ev: WorldEvent| outbox.push((at, ev));
            match event {
                WorldEvent::NodeToggle(id) => self.on_node_toggle(id, now, &mut sched),
                WorldEvent::ControlDelivery {
                    node,
                    instance,
                    epoch,
                } => self.on_control_delivery(node, instance, epoch, now, &mut sched),
                WorldEvent::ImageAcquired {
                    node,
                    instance,
                    epoch,
                } => self.on_image_acquired(node, instance, epoch, now, &mut sched),
                WorldEvent::HeartbeatSend { node, epoch } => {
                    let interval = self.config.policy.heartbeat.interval;
                    let alive = {
                        let n = &self.nodes[node.index()];
                        n.is_on() && n.epoch == epoch
                    };
                    if alive {
                        // Fault hook: the PNA software crashes (rolled at its
                        // own timer so crashes pace with heartbeats). The STB
                        // stays powered — only the agent reboots — but all
                        // in-flight work and timers of this epoch die.
                        if let Some(downtime) = self.injector.pna_crash(node, now) {
                            self.metrics.faults.record(FaultClass::PnaCrash);
                            let n = &mut self.nodes[node.index()];
                            n.epoch += 1;
                            let had_task = n.current_task.is_some();
                            n.pna.power_off();
                            n.link.reset(now);
                            n.clear_work();
                            if had_task {
                                // The Backend learns through heartbeat loss.
                                self.metrics.tasks_orphaned.inc();
                            }
                            let new_epoch = n.epoch;
                            self.trace.record(now, || format!("{node} PNA crashed"));
                            sched(
                                now + downtime,
                                WorldEvent::PnaRestart {
                                    node,
                                    epoch: new_epoch,
                                },
                            );
                        } else {
                            self.send_heartbeat(node, now, &mut sched);
                            sched(now + interval, WorldEvent::HeartbeatSend { node, epoch });
                        }
                    }
                }
                WorldEvent::PnaRestart { node, epoch } => {
                    let hb_interval = self.config.policy.heartbeat.interval;
                    let n = &mut self.nodes[node.index()];
                    // A power-off during the reboot cancels the restart.
                    if n.is_on() && n.epoch == epoch {
                        let phase = n.rng.random_range(0..hb_interval.as_micros().max(1));
                        sched(
                            now + SimDuration::from_micros(phase),
                            WorldEvent::HeartbeatSend { node, epoch },
                        );
                        self.schedule_deliveries_to(node, now, &mut sched);
                    }
                }
                WorldEvent::HeartbeatArrive(hb) => {
                    self.metrics.heartbeats_delivered.inc();
                    let outputs = self.controller.on_heartbeat(hb, now);
                    self.process_outputs(outputs, now, &mut sched);
                }
                WorldEvent::DirectResetArrive {
                    node,
                    instance,
                    epoch,
                } => self.on_direct_reset(node, instance, epoch, now, &mut sched),
                WorldEvent::TaskRequest {
                    node,
                    epoch,
                    attempt,
                } => self.on_task_request(node, epoch, attempt, now, &mut sched),
                WorldEvent::TaskRequestRetry {
                    node,
                    epoch,
                    attempt,
                } => {
                    let n = &self.nodes[node.index()];
                    if n.is_on() && n.epoch == epoch && n.current_task.is_none() {
                        self.request_task_attempt(node, attempt, now, &mut sched);
                    }
                }
                WorldEvent::ResultRetry {
                    node,
                    epoch,
                    attempt,
                } => {
                    let n = &self.nodes[node.index()];
                    if n.is_on() && n.epoch == epoch {
                        self.upload_result_attempt(node, attempt, now, &mut sched);
                    }
                }
                WorldEvent::TaskInputArrived { node, epoch } => {
                    self.on_task_input(node, epoch, now, &mut sched)
                }
                WorldEvent::TaskComputed { node, epoch } => {
                    self.on_task_computed(node, epoch, now, &mut sched)
                }
                WorldEvent::ResultArrived { node, epoch } => {
                    self.on_result_arrived(node, epoch, now, &mut sched)
                }
                WorldEvent::ControllerTick => {
                    // Sample instance sizes for the timeline metric.
                    let samples: Vec<(u64, u64)> = self
                        .instance_job
                        .keys()
                        .map(|&inst| (inst.raw(), self.controller.instance_size(inst)))
                        .collect();
                    for (inst_raw, size) in samples {
                        self.metrics
                            .sample_instance_size(inst_raw, now.as_secs_f64(), size);
                    }
                    // Backend queue depth (pending tasks over open jobs).
                    self.queue_depth.set(self.backend.pending_total() as f64);
                    let outputs = self.controller.tick(now);
                    self.process_outputs(outputs, now, &mut sched);
                    // Liveness safety net: members parked as drained (by a
                    // dry queue or an exhausted retry chain) get a fresh
                    // kick while their job is open. The kick also lets a
                    // node with a stale Backend assignment reclaim it —
                    // only the assignee's own fetch recycles that record,
                    // so waiting for `pending > 0` could deadlock.
                    for job in self.backend.open_jobs() {
                        self.kick_drained(job, now, &mut sched);
                    }
                    sched(
                        now + self.config.controller_tick,
                        WorldEvent::ControllerTick,
                    );
                }
            }
        }
        for (at, ev) in outbox {
            ctx.schedule_at(at.max(now), ev);
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
            let (on, next_toggle, epoch) = {
                let node = &sim.model().nodes[i];
                (node.is_on(), node.churn.next_toggle(), node.epoch)
            };
            if on {
                let phase = {
                    let node = &mut sim.model_mut().nodes[i];
                    node.rng.random_range(0..hb_interval.as_micros().max(1))
                };
                sim.schedule_at(
                    SimTime::from_micros(phase),
                    WorldEvent::HeartbeatSend {
                        node: NodeId::new(i as u64),
                        epoch,
                    },
                );
            }
            if next_toggle != SimTime::MAX {
                sim.schedule_at(next_toggle, WorldEvent::NodeToggle(NodeId::new(i as u64)));
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
        let job_id = job.id;
        let req = InstanceRequest {
            image: job.image,
            image_size: job.image_size,
            target,
            requirements,
        };
        let world = self.sim.model_mut();
        assert!(
            world.backend.job(job_id).is_none(),
            "job ids must be unique within a world; {job_id} was already submitted"
        );
        world.backend.register_job(job, now);
        let (inst, outputs) = world.controller.create_instance(req, now);
        world.instance_job.insert(inst, job_id);
        world.job_instance.insert(job_id, inst);
        let request = world.provider.open_request(job_id, inst, target, now);

        let mut outbox: Vec<(SimTime, WorldEvent)> = Vec::new();
        {
            let mut sched = |at: SimTime, ev: WorldEvent| outbox.push((at, ev));
            world.process_outputs(outputs, now, &mut sched);
        }
        for (at, ev) in outbox {
            self.sim.schedule_at(at.max(now), ev);
        }
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
                .provider
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
    /// if the job finished. When a streaming [`TraceSink`] is attached to
    /// the world's telemetry, its buffers are flushed before returning,
    /// so the on-disk trace covers the whole request either way.
    ///
    /// [`TraceSink`]: oddci_telemetry::TraceSink
    pub fn run_request(&mut self, req: ProviderRequest, horizon: SimTime) -> Option<JobReport> {
        // Chunked advance: check completion between slices.
        let slice = SimDuration::from_secs(60);
        let report = loop {
            if self.sim.now() >= horizon {
                break self.sim.model().provider.report(req);
            }
            if let Some(r) = self.sim.model().provider.report(req) {
                break Some(r);
            }
            let next = (self.sim.now() + slice).min(horizon);
            self.sim.run_until(next);
        };
        self.sim.model().telemetry().flush_sink();
        report
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The world.
    pub fn world(&self) -> &World {
        self.sim.model()
    }

    /// Mutable world access (tests and harnesses).
    pub fn world_mut(&mut self) -> &mut World {
        self.sim.model_mut()
    }

    /// Final report of a request, if complete.
    pub fn report(&self, req: ProviderRequest) -> Option<JobReport> {
        self.sim.model().provider.report(req)
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
        let inst = world.provider.instance_of(req).unwrap();
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
    fn heartbeats_flow_and_are_counted() {
        let mut sim = World::simulation(quick_config(50), 19);
        sim.run_until(SimTime::from_secs(120));
        let m = sim.world().metrics().snapshot();
        // 50 nodes, 30 s interval, 120 s: ≥ 150 heartbeats (plus joins).
        assert!(m.heartbeats_delivered >= 150, "{}", m.heartbeats_delivered);
        assert_eq!(sim.world().controller().known_nodes(), 50);
    }
}
