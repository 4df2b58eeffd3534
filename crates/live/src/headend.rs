//! The live headend: the Provider, Controller and Backend as state behind
//! locks, driven by whichever thread calls.
//!
//! The paper's Controller must "serve millions of tuned devices" over
//! individual direct channels (§3.2). The headend keeps no thread per
//! role and no queue between roles; each piece of state sits behind its
//! own lock and a request runs on the thread that made it:
//!
//! * **the Controller** — one [`oddci_core::Controller`] with the
//!   instance→image map and the broadcast bus, behind one lock that is
//!   held while its outputs are applied, so everything that reaches the
//!   §3.1 broadcast channel leaves in the order the Controller emitted
//!   it. A heartbeat is consolidated and answered on the thread that
//!   carries it: the node's own thread in process, the socket front's
//!   serving thread for a PNA;
//! * **dispatch on the caller** — a node's task fetch and its result
//!   upload run on the thread that asked. Fetches cut *batches*
//!   ([`Backend::fetch_batch`](oddci_core::Backend::fetch_batch)), so one
//!   hub-lock round trip amortizes across `batch` tasks. With no queue
//!   between a node and the Backend, a node's results land ahead of its
//!   next fetch: the Backend recycles whatever a fetching node still
//!   holds, so a result queued behind that fetch would be thrown back;
//! * **one control thread** runs the Controller's periodic `tick` (loss
//!   detection, recomposition wakeups).
//!
//! Shared job state — the [`JobLedger`] (Backend, Provider, instance
//! routing, wakeup counts) and the per-job queries/scores — lives in a
//! `Hub` behind one mutex. Lock order: the Controller may be held
//! while taking the hub or publishing on the bus, never the reverse. The
//! hub lock is a leaf, and **nothing is sent while it is held** — every
//! handler computes under it, drops it, then publishes.

use crate::bus::BroadcastBus;
use crate::image::{AlignmentImage, LiveBroadcast, WakeupImage};
use crate::runtime::{every, wall_now, BusMsg, LiveConfig, TaskBatchReply, Worker};
use crate::snapshot::{ImageExport, SnapshotState};
use oddci_check::sync::{Monitor, Mutex};
use oddci_core::autoscale::{Reconciler, ScaleDecision, ScaleInputs};
use oddci_core::controller::{Controller, ControllerOutput, ControllerPolicy, ControllerState};
use oddci_core::ledger::{JobLedger, LedgerState};
use oddci_core::messages::{ControlMessage, Heartbeat, HeartbeatReply, SignedMessage};
use oddci_core::provider::{JobReport, ProviderRequest};
use oddci_faults::FaultInjector;
use oddci_telemetry::{Gauge, Phase, Telemetry, CONTROL_TRACK};
use oddci_types::{
    DataSize, HeartbeatConfig, ImageId, InstanceId, JobId, NodeId, SimDuration, SimTime, TaskId,
};
use oddci_workload::{Job, Task};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One job's scores, a slot per task indexed by [`TaskId::index`]. It
/// grows with the job, so it is a vector and not a tree; the Backend's
/// completed ledger counts the filled slots.
type Scores = Vec<Option<i32>>;

/// The filled slots of `scores` in ascending task order: the form the
/// report and the snapshot carry.
fn scored(scores: &Scores) -> impl Iterator<Item = (TaskId, i32)> + '_ {
    (0u64..)
        .zip(scores)
        .filter_map(|(i, slot)| slot.map(|score| (TaskId::new(i), score)))
}

/// Job state shared by the dispatching threads, the Controller and the
/// submitter: the ledger, and each job's queries and scores.
struct Hub {
    ledger: JobLedger,
    job_queries: BTreeMap<JobId, Vec<Arc<Vec<u8>>>>,
    job_scores: BTreeMap<JobId, Scores>,
}

/// The Controller, the image each instance's wakeups carry, the bus they
/// air on, and the two gauges it keeps current.
struct Control {
    controller: Controller,
    images: BTreeMap<InstanceId, Arc<AlignmentImage>>,
    bus: Arc<BroadcastBus<BusMsg>>,
    /// `controller.heartbeat_lag`.
    lag: Gauge,
    /// `controller.members`.
    members: Gauge,
}

impl Control {
    /// Airs `signed`: a wakeup with its instance's image attached, a reset
    /// after forgetting that image, so no wakeup aired later carries it.
    fn publish(&mut self, signed: SignedMessage, now_us: u64, tele: &Telemetry) {
        let (instance, image) = match signed.message {
            ControlMessage::Wakeup(w) => (w.instance, self.images.get(&w.instance).cloned()),
            ControlMessage::Reset(r) => {
                self.images.remove(&r.instance);
                (r.instance, None)
            }
        };
        tele.instant(
            now_us,
            Phase::CarouselPublish,
            CONTROL_TRACK,
            instance.raw(),
        );
        let image = image.map(WakeupImage::Recipe);
        self.bus
            .publish(&BusMsg::Control(LiveBroadcast { signed, image }));
    }
}

/// The headend's state, shared by every thread that drives it: node
/// threads and the serving thread (heartbeats, fetches, results), the
/// submitter, the control thread, the reconciler and the snapshot writer.
pub(crate) struct Headend {
    hub: Mutex<Hub>,
    control: Mutex<Control>,
    /// Jobs finished so far. The thread that completes a job bumps it and
    /// notifies — after dropping the hub guard — so
    /// [`wait_report`](Headend::wait_report) sleeps until a completion
    /// instead of polling the hub.
    jobs_finished: Monitor<u64>,
    injector: Arc<FaultInjector>,
    start: Instant,
    tele: Telemetry,
    backend_depth: Gauge,
}

impl Headend {
    /// A headend airing on `bus`. It runs nothing until [`spawn_control`]
    /// starts its control thread.
    pub(crate) fn new(
        config: &LiveConfig,
        bus: Arc<BroadcastBus<BusMsg>>,
        start: Instant,
        injector: Arc<FaultInjector>,
    ) -> Headend {
        let tele = config.telemetry.clone();
        // The assumed audience is the configured fleet, and recomposition
        // waits for a live idle node (a saturated or empty fleet must not
        // spam the carousel every tick).
        let policy = ControllerPolicy {
            heartbeat: HeartbeatConfig {
                interval: SimDuration::from_micros(config.heartbeat_interval.as_micros() as u64),
                // Generous: live nodes block while computing batches.
                miss_threshold: 50,
                message_bytes: 128,
            },
            sizing_slack: 1.0,
            recompose_threshold: 0.99,
            assumed_audience: config.nodes,
            recompose_requires_idle: true,
        };
        let registry = tele.registry();
        let control = Control {
            controller: Controller::new(&config.key, policy),
            images: BTreeMap::new(),
            bus,
            lag: registry.gauge("controller.heartbeat_lag"),
            members: registry.gauge("controller.members"),
        };
        Headend {
            // Send-sensitive: the module-level rule ("nothing is sent while
            // the hub lock is held") is enforced at runtime — under
            // ODDCI_CHECK=1 any `Sender::send` or wake on a thread holding
            // this lock is reported as a violation.
            hub: Mutex::named_send_sensitive(
                Hub {
                    ledger: JobLedger::new(tele.clone()),
                    job_queries: BTreeMap::new(),
                    job_scores: BTreeMap::new(),
                },
                "live.hub",
            ),
            control: Mutex::named(control, "live.controller"),
            jobs_finished: Monitor::named(0, "live.jobs_finished"),
            injector,
            start,
            backend_depth: registry.gauge("backend.queue_depth"),
            tele,
        }
    }

    /// Runs `call` under the Controller lock and applies the Controller
    /// outputs it returns before unlocking. Returns the reply for a
    /// heartbeat the call consolidated, if the Controller reset the node.
    fn drive(
        &self,
        tele: &Telemetry,
        call: impl FnOnce(&mut Control, SimTime) -> Vec<ControllerOutput>,
    ) -> Option<HeartbeatReply> {
        let mut control = self.control.lock();
        let outputs = call(&mut control, wall_now(&self.start));
        let mut reply = None;
        for out in outputs {
            let now_us = wall_now(&self.start).as_micros();
            match out {
                ControllerOutput::Broadcast(signed) => {
                    if let ControlMessage::Wakeup(w) = signed.message {
                        self.hub.lock().ledger.aired(w.instance);
                    }
                    control.publish(signed, now_us, tele);
                }
                // The reset orphans whatever the node still holds, so it
                // goes back into the queue now, as the sim's node core
                // requeues a reset's orphan; left assigned, it would wait
                // for this node to fetch the same job again.
                ControllerOutput::DirectReset { node, instance } => {
                    tele.instant(now_us, Phase::DirectReset, node.raw(), instance.raw());
                    let _ = self.hub.lock().ledger.node_lost(node);
                    reply = Some(HeartbeatReply::Reset(instance));
                }
                ControllerOutput::NodeLost { node, .. } => {
                    tele.instant(now_us, Phase::NodeLost, node.raw(), 0);
                    let _ = self.hub.lock().ledger.node_lost(node);
                }
            }
        }
        control
            .members
            .set(control.controller.total_members() as f64);
        reply
    }

    /// Consolidates `hb` and answers it — a direct reset when the
    /// Controller trims the node, else an ack — on the calling thread.
    pub(crate) fn heartbeat(&self, hb: Heartbeat) -> HeartbeatReply {
        self.drive(&self.tele, |control, now| {
            // Lag: emission → the Controller's lock, so it counts the wait
            // behind a tick or another caller.
            control.lag.set(now.since(hb.sent_at).as_secs_f64());
            control.controller.on_heartbeat(hb, now)
        })
        .unwrap_or(HeartbeatReply::Ack)
    }

    /// Up to `max` tasks of `instance`'s job for `node`. `None` when an
    /// injected Backend stall swallows the request: the asker's reply
    /// timeout fires and it retries with backoff.
    pub(crate) fn fetch(
        &self,
        instance: InstanceId,
        node: NodeId,
        max: usize,
    ) -> Option<TaskBatchReply> {
        if self
            .injector
            .backend_stalled(wall_now(&self.start))
            .is_some()
        {
            return None;
        }
        let mut guard = self.hub.lock();
        let hub = &mut *guard;
        let Some((job, batch)) = hub.ledger.fetch(instance, node, max) else {
            return Some(TaskBatchReply::Drained);
        };
        let queries = &hub.job_queries[&job];
        let tasks = batch
            .into_iter()
            .map(|task| {
                let query = queries[task.id.index()].clone();
                (task, query)
            })
            .collect();
        Some(TaskBatchReply::Assigned { job, tasks })
    }

    /// Lands a batch of `node`'s results. The call that completes the job
    /// closes its Provider request, dismantles the instance and wakes
    /// [`wait_report`](Headend::wait_report).
    pub(crate) fn results(&self, job: JobId, node: NodeId, results: Vec<(TaskId, i32)>) {
        let dismantle = {
            let mut guard = self.hub.lock();
            let hub = &mut *guard;
            let now = wall_now(&self.start);
            let mut scores = hub.job_scores.get_mut(&job);
            let mut dismantle = None;
            for (task, score) in results {
                let Ok(done) = hub.ledger.complete(job, task, node, now) else {
                    continue;
                };
                dismantle = dismantle.or(done);
                if let Some(slot) = scores.as_mut().and_then(|s| s.get_mut(task.index())) {
                    *slot = Some(score);
                }
            }
            self.backend_depth
                .set(hub.ledger.backend().pending_total() as f64);
            dismantle
        };
        // The hub guard is dropped. The wake comes last, so a caller who
        // submits its next job at once admits it after this dismantle.
        if let Some(instance) = dismantle {
            self.drive(&self.tele, |control, _| {
                control.controller.dismantle(instance).unwrap_or_default()
            });
            *self.jobs_finished.lock() += 1;
            self.jobs_finished.notify_all();
        }
    }

    /// Submits a job of one task per query under the ledger's next job
    /// id, then admits its instance. Runs on the caller's thread — the
    /// coordinator is whoever submits.
    pub(crate) fn submit(
        &self,
        queries: Vec<Arc<Vec<u8>>>,
        image: Arc<AlignmentImage>,
        target: u64,
    ) -> Option<ProviderRequest> {
        let task = |i| {
            let (input, cost) = (DataSize::from_bytes(150), SimDuration::from_millis(10));
            Task::new(TaskId::new(i), input, cost, DataSize::from_bytes(8))
        };
        let tasks = (0..queries.len() as u64).map(task).collect();
        let (instance, req, request) = {
            let mut hub = self.hub.lock();
            let id = JobId::new(hub.ledger.next_job());
            let job = Job::new(
                id,
                ImageId::new(id.raw()),
                DataSize::from_megabytes(1),
                tasks,
            );
            let now = wall_now(&self.start);
            let submitted = hub
                .ledger
                .submit(job, target, Default::default(), now)
                .ok()?;
            hub.job_scores.insert(id, vec![None; queries.len()]);
            hub.job_queries.insert(id, queries);
            submitted
        };
        // Image first, then the admission: its wakeup finds it.
        self.drive(&self.tele, |control, now| {
            control.images.insert(instance, image);
            control.controller.admit_instance(instance, req, now)
        });
        Some(request)
    }

    /// The Provider's report (with per-task scores), once complete.
    fn report(&self, req: ProviderRequest) -> Option<(JobReport, BTreeMap<TaskId, i32>)> {
        let hub = self.hub.lock();
        hub.ledger.provider().report(req).map(|r| {
            let scores = hub
                .job_scores
                .get(&r.job)
                .map(|s| scored(s).collect())
                .unwrap_or_default();
            (r, scores)
        })
    }

    /// Blocks until `req` has a report or `deadline` passes. Woken by the
    /// thread that lands the job's last result, not by a timer.
    pub(crate) fn wait_report(
        &self,
        req: ProviderRequest,
        deadline: Instant,
    ) -> Option<(JobReport, BTreeMap<TaskId, i32>)> {
        loop {
            // Read the count before looking: a job that finishes after
            // the look has then moved it, and the wait below falls through.
            let seen = *self.jobs_finished.lock();
            if let Some(done) = self.report(req) {
                return Some(done);
            }
            let mut finished = self.jobs_finished.lock();
            while *finished == seen {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return None;
                }
                finished = self.jobs_finished.wait_timeout(finished, left).0;
            }
        }
    }

    /// Tasks in no Backend ledger: always 0 unless bookkeeping broke.
    pub(crate) fn unaccounted(&self) -> u64 {
        let hub = self.hub.lock();
        let backend = hub.ledger.backend();
        let jobs = hub.ledger.instances().map(|(_, job)| job);
        jobs.map(|job| backend.unaccounted_tasks(job)).sum()
    }

    /// Cuts one snapshot at the current instant, on the calling thread.
    ///
    /// Consistency: the Backend/Provider/job tables are read atomically
    /// under the hub lock — that is the task-accounting ground truth. The
    /// Controller state is read just before, so it can trail the hub by
    /// the export's own latency; membership and heartbeat ledgers
    /// re-converge from live traffic after adoption, so that skew is
    /// harmless (and the task ledger never is skewed). Queries never
    /// change after submit: the hub hold clones their `Arc`s, and their
    /// bytes are copied after it ends.
    pub(crate) fn export(&self, epoch: u64, wire: (u64, Vec<u64>)) -> SnapshotState {
        let (controller, images) = {
            let control = self.control.lock();
            let images = control
                .images
                .iter()
                .map(|(&instance, image)| (instance, ImageExport::from_image(image)))
                .collect();
            (
                control.controller.export_state(wall_now(&self.start)),
                images,
            )
        };
        let now = wall_now(&self.start);
        let hub = self.hub.lock();
        let queries: Vec<(JobId, Vec<Arc<Vec<u8>>>)> = hub
            .job_queries
            .iter()
            .map(|(&job, queries)| (job, queries.clone()))
            .collect();
        let ledger = hub.ledger.export_state(now);
        let mut snap = SnapshotState {
            epoch,
            taken_at_us: now.as_micros(),
            shards: vec![controller],
            backend: ledger.backend,
            provider: ledger.provider,
            instance_job: ledger.instance_job,
            job_queries: Vec::new(),
            job_scores: hub
                .job_scores
                .iter()
                .map(|(&job, scores)| (job, scored(scores).collect()))
                .collect(),
            wakeups: ledger.wakeups,
            images,
            wire_next_node: wire.0,
            wire_nodes: wire.1,
            // Filled in by the runtime, which owns the shared reconciler.
            autoscale: None,
        };
        drop(hub);
        snap.job_queries = queries
            .into_iter()
            .map(|(job, queries)| (job, queries.iter().map(|q| q.to_vec()).collect()))
            .collect();
        snap
    }

    /// Replaces this headend's state from a snapshot: the Controller
    /// (every entry of `snap.shards` folded into one), the image table
    /// and the hub's job state. Must run before node traffic arrives
    /// (standby adoption happens before the wire server binds).
    ///
    /// Node ids must be ones the snapshot's namespace issued: below
    /// `wire_next_node` when a socket headend cut it, below `nodes` (the
    /// fleet of node threads) when its wire namespace issued none.
    pub(crate) fn import_state(&self, snap: &SnapshotState, nodes: u64) -> Result<(), String> {
        let mut images = BTreeMap::new();
        for (instance, recipe) in &snap.images {
            let image = recipe.to_image();
            image
                .validate()
                .map_err(|e| format!("snapshot image of instance {}: {e}", instance.raw()))?;
            images.insert(*instance, Arc::new(image));
        }
        {
            let mut control = self.control.lock();
            let state = ControllerState::fold(snap.shards.iter().cloned());
            let issued = match snap.wire_next_node {
                0 => nodes,
                wire => wire,
            };
            control
                .controller
                .import_state(state, issued, wall_now(&self.start))?;
            control.images = images;
        }
        let mut hub = self.hub.lock();
        let ledger = LedgerState {
            backend: snap.backend.clone(),
            provider: snap.provider.clone(),
            instance_job: snap.instance_job.clone(),
            wakeups: snap.wakeups.clone(),
        };
        hub.ledger.import_state(ledger, wall_now(&self.start))?;
        hub.job_queries = snap
            .job_queries
            .iter()
            .map(|(job, queries)| (*job, queries.iter().map(|q| Arc::new(q.clone())).collect()))
            .collect();
        for (instance, job) in hub.ledger.instances() {
            let tasks = hub.ledger.backend().job(job).map_or(0, |j| j.tasks.len());
            let have = hub.job_queries.get(&job).map_or(0, Vec::len);
            if have < tasks {
                return Err(format!(
                    "snapshot job_queries: {job} on {instance} has {have} queries for {tasks} tasks"
                ));
            }
        }
        hub.job_scores = snap
            .job_scores
            .iter()
            .map(|(job, pairs)| {
                let tasks = hub.ledger.backend().job(*job).map_or(0, |j| j.tasks.len());
                let mut scores: Scores = vec![None; tasks];
                for &(task, score) in pairs {
                    if let Some(slot) = scores.get_mut(task.index()) {
                        *slot = Some(score);
                    }
                }
                (*job, scores)
            })
            .collect();
        Ok(())
    }

    /// Wall-clock runtime instant, in microseconds on this headend's
    /// clock (a standby's clock starts at adoption, not at the primary's
    /// boot — snapshot import rebases ages accordingly).
    pub(crate) fn now_us(&self) -> u64 {
        wall_now(&self.start).as_micros()
    }

    /// Provider requests still running. A standby uses this right after
    /// adoption to find the jobs it must keep waiting on.
    pub(crate) fn running_jobs(&self) -> Vec<ProviderRequest> {
        self.hub.lock().ledger.provider().running().collect()
    }
}

/// Starts the headend's one control thread: every `tick`, the
/// Controller's loss detection and recomposition.
pub(crate) fn spawn_control(headend: &Arc<Headend>, tick: Duration) -> Worker {
    let headend = Arc::clone(headend);
    let tele = headend.tele.clone();
    every(tick, move || {
        headend.drive(&tele, |control, now| control.controller.tick(now));
    })
}

// ---------------------------------------------------------------------
// Autoscale reconciler thread
// ---------------------------------------------------------------------

/// Spawns the elastic-sizing control loop. Every `interval` it samples
/// the Backend queue depth, the Controller's heartbeat-lag and
/// membership gauges and the task-fetch p99, feeds them to the shared
/// [`Reconciler`], and applies the decision by resizing every running
/// instance. An `airtime-revoked` fault roll first evicts every member;
/// the reconciler then restores the lost capacity as a
/// [`ScaleDecision::Replace`], bypassing its cooldown.
/// Dropping the returned sender stops the thread.
///
/// Locking rule: the hub lock and the reconciler lock are each dropped
/// before the Controller is driven.
pub(crate) fn spawn_reconciler(
    headend: Arc<Headend>,
    shared: Arc<Mutex<Reconciler>>,
    interval: Duration,
) -> Worker {
    let tele = headend.tele.clone();
    let registry = tele.registry();
    let lag_gauge = registry.gauge("controller.heartbeat_lag");
    let member_gauge = registry.gauge("controller.members");
    let desired_gauge = registry.gauge("provider.desired_size");
    let queue_gauge = registry.gauge("backend.queue_depth");
    let revocations = registry.counter("faults.airtime_revoked");
    let cooldown = shared.lock().policy().cooldown;
    let mut last_sample = (wall_now(&headend.start), 0u64);
    // At most one revocation per cooldown window: the fault plan rolls
    // per reconcile tick, and a 100%-rate window would otherwise evict
    // the replacement capacity as fast as it forms.
    let mut revoke_gate = SimTime::ZERO;
    every(interval, move || {
        let begin = wall_now(&headend.start);
        let (instances, queue_depth, completed) = {
            let ledger = &headend.hub.lock().ledger;
            let backend = ledger.backend();
            let done: u64 = ledger
                .instances()
                .map(|(_, job)| backend.completed_count(job))
                .sum();
            let instances: Vec<InstanceId> = backend
                .open_jobs()
                .into_iter()
                .filter_map(|job| ledger.instance_of(job))
                .collect();
            (instances, backend.pending_total(), done)
        };

        // Spot-like reclamation: the broadcaster reclaimed the channel, so
        // every member is evicted at once and its in-flight tasks are
        // re-queued (NodeLost); the Replace decision below restores them.
        // The evicted members' direct resets have no heartbeat reply to
        // ride, so they are only telemetered.
        if !instances.is_empty() && begin >= revoke_gate && headend.injector.airtime_revoked(begin)
        {
            headend.drive(&tele, |control, _| {
                let c = &mut control.controller;
                instances
                    .iter()
                    .flat_map(|&instance| c.revoke_members(instance).unwrap_or_default())
                    .collect()
            });
            revocations.inc();
            shared.lock().observe_revocation();
            revoke_gate = begin + cooldown;
        }

        let elapsed = begin.since(last_sample.0).as_secs_f64();
        let tasks_per_sec = if elapsed > 0.0 {
            completed.saturating_sub(last_sample.1) as f64 / elapsed
        } else {
            0.0
        };
        last_sample = (begin, completed);
        let inputs = ScaleInputs {
            queue_depth: queue_depth as usize,
            heartbeat_lag: lag_gauge.get(),
            tasks_per_sec,
            fetch_p99: tele.phase_summary(Phase::TaskFetch).p99,
            current_size: member_gauge.get() as usize,
        };
        let (decision, desired) = {
            let mut r = shared.lock();
            let d = r.tick(begin, &inputs);
            (d, r.desired())
        };
        desired_gauge.set(desired as f64);
        queue_gauge.set(queue_depth as f64);

        if decision.acted() {
            // Growth rides the next tick's recomposition wakeup; shrinking
            // trims lazily via heartbeat replies. Unknown or dismantled
            // instances are fine to skip: the reconciler races job
            // completion by design.
            headend.drive(&tele, |control, _| {
                for &instance in &instances {
                    let _ = control.controller.resize(instance, desired as u64);
                }
                Vec::new()
            });
        }
        let end = wall_now(&headend.start);
        match decision {
            ScaleDecision::ScaleUp { to, .. } => {
                tele.instant(
                    end.as_micros(),
                    Phase::ProviderScaleUp,
                    CONTROL_TRACK,
                    to as u64,
                );
            }
            ScaleDecision::ScaleDown { to, .. } => {
                tele.instant(
                    end.as_micros(),
                    Phase::ProviderScaleDown,
                    CONTROL_TRACK,
                    to as u64,
                );
            }
            ScaleDecision::Replace { .. } | ScaleDecision::Hold => {}
        }
        tele.span(
            begin.as_micros(),
            end.as_micros(),
            Phase::ProviderReconcile,
            CONTROL_TRACK,
            desired as u64,
        );
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oddci_check::sync::Receiver;
    use oddci_core::messages::PnaStateKind;

    /// A headend with one submitted job of `tasks` tasks on instance 0,
    /// and a subscription to everything it airs.
    fn headend_with_job(tasks: u64) -> (Headend, JobId, Receiver<BusMsg>) {
        let bus = Arc::new(BroadcastBus::new());
        let aired = bus.subscribe();
        let headend = Headend::new(
            &LiveConfig::default(),
            bus,
            Instant::now(),
            Arc::new(FaultInjector::new(oddci_faults::FaultPlan::none(), 0)),
        );
        headend
            .submit(
                (0..tasks).map(|_| Arc::new(vec![b'A'; 16])).collect(),
                Arc::new(AlignmentImage::small_demo()),
                1,
            )
            .expect("a fresh job id");
        (headend, JobId::new(0), aired)
    }

    fn task_ids(reply: Option<TaskBatchReply>) -> Vec<TaskId> {
        match reply {
            Some(TaskBatchReply::Assigned { tasks, .. }) => {
                tasks.iter().map(|(task, _)| task.id).collect()
            }
            _ => Vec::new(),
        }
    }

    /// The order the node loop keeps — a batch's results, then the next
    /// fetch, on one thread — recycles nothing, and the call that lands
    /// the last result completes the job. Fetching first is what a result
    /// left on a queue would amount to: the Backend's stale-assignment
    /// rule throws the unreported batch back.
    #[test]
    fn results_then_fetch_from_one_node_never_recycle_a_task() {
        let (headend, job, _) = headend_with_job(10);
        let (instance, node) = (InstanceId::new(0), NodeId::new(3));
        let mut served = 0;
        loop {
            let batch = task_ids(headend.fetch(instance, node, 4));
            if batch.is_empty() {
                break;
            }
            served += batch.len();
            headend.results(job, node, batch.iter().map(|&t| (t, 7)).collect());
        }
        assert_eq!(served, 10);
        {
            let hub = headend.hub.lock();
            assert_eq!(hub.ledger.backend().requeue_count(job), 0);
            assert!(hub.ledger.backend().is_complete(job));
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let req = ProviderRequest(0);
        let (report, scores) = headend.wait_report(req, deadline).expect("job finished");
        assert_eq!(report.requeues, 0);
        assert_eq!(scores.len(), 10);
        assert_eq!(headend.unaccounted(), 0);

        let (headend, _, _) = headend_with_job(10);
        let first = task_ids(headend.fetch(instance, node, 4));
        let mut again = task_ids(headend.fetch(instance, node, 4));
        again.sort_unstable();
        assert_eq!(first, again, "the unreported batch came straight back");
        assert_eq!(headend.hub.lock().ledger.backend().requeue_count(job), 4);
        assert_eq!(headend.unaccounted(), 0);
    }

    /// A member holding a batch that a shrink trims gets its reset in the
    /// heartbeat reply, and the batch goes back into the queue at once
    /// instead of waiting for the node to fetch the same job again.
    #[test]
    fn a_trimmed_member_holding_a_batch_is_requeued() {
        let (headend, job, _) = headend_with_job(10);
        let (instance, node) = (InstanceId::new(0), NodeId::new(3));
        let busy = Heartbeat {
            node,
            state: PnaStateKind::Busy,
            instance: Some(instance),
            sent_at: SimTime::ZERO,
        };
        assert_eq!(headend.heartbeat(busy), HeartbeatReply::Ack, "joins");
        assert_eq!(task_ids(headend.fetch(instance, node, 4)).len(), 4);
        let pending = |h: &Headend| h.hub.lock().ledger.backend().pending_total();
        assert_eq!(pending(&headend), 6);
        headend.drive(&headend.tele, |c, _| {
            c.controller
                .resize(instance, 0)
                .expect("a running instance");
            Vec::new()
        });
        assert_eq!(headend.heartbeat(busy), HeartbeatReply::Reset(instance));
        assert_eq!(pending(&headend), 10, "the trimmed batch is pending again");
        assert_eq!(headend.hub.lock().ledger.backend().requeue_count(job), 4);
        assert_eq!(headend.unaccounted(), 0);
    }

    /// A reset is the last thing its instance airs: the wakeup and its
    /// re-air carry the image, the reset forgets it, and a tick after the
    /// dismantle re-airs nothing.
    #[test]
    fn a_reset_is_the_last_thing_its_instance_airs() {
        let (headend, _, aired) = headend_with_job(1);
        // An idle node, so the tick re-airs the still-short instance.
        headend.heartbeat(Heartbeat {
            node: NodeId::new(0),
            state: PnaStateKind::Idle,
            instance: None,
            sent_at: SimTime::ZERO,
        });
        let tick = |h: &Headend| h.drive(&h.tele, |c, now| c.controller.tick(now));
        tick(&headend);
        headend.drive(&headend.tele, |c, _| {
            c.controller
                .dismantle(InstanceId::new(0))
                .unwrap_or_default()
        });
        tick(&headend);
        // (is a reset, carries the image), in airing order.
        let aired: Vec<(bool, bool)> = aired
            .try_iter()
            .filter_map(|msg| match msg {
                BusMsg::Control(b) => Some((
                    matches!(b.signed.message, ControlMessage::Reset(_)),
                    b.image.is_some(),
                )),
                BusMsg::Shutdown => None,
            })
            .collect();
        let wakeup = (false, true);
        assert_eq!(
            aired,
            [wakeup, wakeup, (true, false)],
            "admission, re-air, reset"
        );
    }
}
