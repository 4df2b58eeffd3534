//! The sharded multi-threaded live headend.
//!
//! The paper's Controller must "serve millions of tuned devices" over
//! individual direct channels (§3.2); one sequential loop would
//! serialize carousel publishing, heartbeat consolidation and task
//! dispatch behind one thread. This module splits the headend into
//! cooperating threads over bounded channels, and runs task dispatch on
//! no thread of its own:
//!
//! * **carousel thread** — owns the broadcast bus and the instance→image
//!   map; everything that reaches the §3.1 broadcast channel goes through
//!   it (one publisher, exactly like a real carousel injector);
//! * **N controller shards** — each owns a private
//!   [`oddci_core::Controller`] covering a disjoint slice of
//!   node membership ([`shard_of`](oddci_core::sharded::shard_of) of the
//!   node id), with its own heartbeat ledger, loss detection and
//!   recomposition. Shards sign from disjoint message-id namespaces so
//!   PNA carousel-repeat dedup never drops a sibling shard's message;
//! * **dispatch on the caller** — a node's task fetch and its result
//!   upload run on the thread that asked, through a cloneable `Dispatch`
//!   handle: the node's own thread in process, the socket front's
//!   serving thread for a PNA. Fetches cut *batches*
//!   ([`Backend::fetch_batch`](oddci_core::Backend::fetch_batch)), so one
//!   hub-lock round trip amortizes across `batch` tasks. There is no
//!   queue between a node and the Backend, which also keeps a node's
//!   results ahead of its next fetch: the Backend recycles whatever a
//!   fetching node still holds, so a result queued behind that fetch
//!   would be thrown back into the queue.
//!
//! Shared job state (Backend, Provider, per-job queries/scores) lives in
//! a `Hub` behind one mutex. The locking rule that keeps this
//! deadlock-free: **never send on a channel while holding the hub lock**
//! — every handler computes under the lock, drops it, then sends.
//!
//! Shutdown order (the barrier): the runtime publishes `Shutdown` on the
//! bus and joins every node and the socket front first — the only
//! callers of `Dispatch` — then shards, then the carousel, so every
//! thread that might still *receive* from a channel outlives every
//! thread that might still *send* on it.

use crate::bus::BroadcastBus;
use crate::image::{AlignmentImage, LiveBroadcast, WakeupImage};
use crate::runtime::{wall_now, BusMsg, LiveConfig, TaskBatchReply};
use crate::snapshot::{ImageExport, SnapshotState};
use crate::wire::WireSink;
use oddci_check::sync::{bounded, Monitor, Mutex, Receiver, RecvTimeoutError, Sender};
use oddci_core::autoscale::{Reconciler, ScaleDecision, ScaleInputs};
use oddci_core::backend::Backend;
use oddci_core::controller::{
    Controller, ControllerOutput, ControllerPolicy, ControllerState, InstanceRequest,
};
use oddci_core::messages::{ControlMessage, Heartbeat, HeartbeatReply};
use oddci_core::provider::{JobReport, Provider, ProviderRequest};
use oddci_core::sharded::split_target;
use oddci_faults::FaultInjector;
use oddci_telemetry::{Gauge, Phase, Telemetry, CONTROL_TRACK};
use oddci_types::{HeartbeatConfig, InstanceId, JobId, NodeId, SimDuration, SimTime, TaskId};
use oddci_workload::Job;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Capacity of each shard's inbox. Senders block when a queue is full —
/// backpressure, not unbounded memory.
const QUEUE_CAP: usize = 1024;
/// Capacity of the carousel thread's inbox (control traffic is sparse).
const CAROUSEL_CAP: usize = 256;
/// How long a snapshot export/import waits for a shard or the carousel
/// to answer before declaring the headend unhealthy.
const EXPORT_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// Where a shard puts the answer to a node's heartbeat.
pub(crate) enum ReplyTo {
    /// An in-process node thread, blocked on its one-shot channel.
    Local(Sender<HeartbeatReply>),
    /// A PNA behind the socket front: the reply goes onto the serving
    /// loop's reply channel, and the loop is woken to relay it.
    Wire(WireSink),
}

impl ReplyTo {
    /// Delivers `reply`. Like every send here it must happen with the hub
    /// lock released — for a wire sink the wake is a send too.
    pub(crate) fn send(self, reply: HeartbeatReply) {
        match self {
            ReplyTo::Local(tx) => {
                let _ = tx.send(reply);
            }
            ReplyTo::Wire(sink) => sink.push(reply),
        }
    }
}

/// Traffic into the carousel thread.
pub(crate) enum CarouselMsg {
    /// Remember the image to attach to this instance's wakeups.
    Register {
        instance: InstanceId,
        image: Arc<AlignmentImage>,
    },
    /// Publish a signed control message (from any shard).
    Publish(oddci_core::messages::SignedMessage),
    /// Export the registered image recipes for a durability snapshot.
    Export {
        reply: Sender<Vec<(InstanceId, ImageExport)>>,
    },
    Shutdown,
}

/// Traffic into one controller shard.
pub(crate) enum ShardMsg {
    /// A heartbeat from a node this shard owns.
    Heartbeat {
        hb: Heartbeat,
        reply: ReplyTo,
    },
    /// Admit an instance (coordinator-allocated id, per-shard target).
    Admit {
        instance: InstanceId,
        request: InstanceRequest,
    },
    /// Dismantle an instance; only the home shard publishes the reset.
    Dismantle {
        instance: InstanceId,
        publish: bool,
    },
    /// Steer this shard's slice of an instance to a new per-shard target
    /// (autoscale reconciliation). Growth rides the next tick's
    /// recomposition wakeup; shrinking trims lazily via heartbeat
    /// replies.
    Resize {
        instance: InstanceId,
        target: u64,
    },
    /// Spot-style airtime revocation: the broadcaster reclaimed the
    /// channel, so every member of the instance is evicted at once and
    /// their in-flight tasks re-queued.
    Revoke {
        instance: InstanceId,
    },
    /// Export this shard's Controller state for a durability snapshot.
    Export {
        reply: Sender<ControllerState>,
    },
    /// Replace this shard's Controller state from a snapshot (standby
    /// adoption); the reply is the completion barrier.
    Import {
        state: ControllerState,
        reply: Sender<()>,
    },
    Shutdown,
}

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

/// Job state shared by the dispatching threads, shards and the
/// coordinator.
struct Hub {
    backend: Backend,
    provider: Provider,
    instance_job: BTreeMap<InstanceId, JobId>,
    job_instance: BTreeMap<JobId, InstanceId>,
    job_queries: BTreeMap<JobId, Vec<Arc<Vec<u8>>>>,
    job_scores: BTreeMap<JobId, Scores>,
    /// Wakeup broadcasts published per instance (sum over shards), for
    /// the Provider's report.
    wakeups: BTreeMap<InstanceId, u32>,
}

/// Handles to the sharded headend's threads and channels.
pub(crate) struct ShardedHeadend {
    hub: Arc<Mutex<Hub>>,
    carousel_tx: Sender<CarouselMsg>,
    shard_txs: Vec<Sender<ShardMsg>>,
    /// The handle node links and the socket front clone.
    dispatch: Dispatch,
    carousel: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
    next_instance: AtomicU64,
    start: Instant,
}

impl ShardedHeadend {
    /// Spawns the carousel thread and `shards` controller shards.
    pub(crate) fn start(
        config: &LiveConfig,
        shards: usize,
        bus: Arc<BroadcastBus<BusMsg>>,
        start: Instant,
        injector: Arc<FaultInjector>,
    ) -> ShardedHeadend {
        assert!(shards > 0, "validated by LiveConfig");
        let tele = config.telemetry.clone();
        // Send-sensitive: the module-level locking rule ("never send on a
        // channel while holding the hub lock") is enforced at runtime —
        // under ODDCI_CHECK=1 any `Sender::send` on a thread holding this
        // lock is reported as a violation.
        let hub = Arc::new(Mutex::named_send_sensitive(
            Hub {
                backend: Backend::new(),
                provider: Provider::new(),
                instance_job: BTreeMap::new(),
                job_instance: BTreeMap::new(),
                job_queries: BTreeMap::new(),
                job_scores: BTreeMap::new(),
                wakeups: BTreeMap::new(),
            },
            "live.hub",
        ));

        let (carousel_tx, carousel_rx) = bounded(CAROUSEL_CAP);
        // Streaming-sink lane layout: carousel on lane 0, controller
        // shard `i` on lane `1 + i`. Every headend thread gets a
        // lane-pinned telemetry handle, so their trace offers enqueue into
        // disjoint queues and never contend on a sink mutex (no-op without
        // a sink). Node threads — and with them dispatch, which runs on
        // the asker's thread — keep the unpinned handle and spread by
        // track id.
        let carousel = {
            let hub = Arc::clone(&hub);
            let tele = tele.with_sink_lane(0);
            std::thread::spawn(move || carousel_main(carousel_rx, bus, hub, start, tele))
        };

        // Per-shard Controller policy: the assumed audience is this
        // shard's expected slice and recomposition waits for a live idle
        // node (a saturated or empty slice must not spam the carousel
        // every tick).
        let policy = ControllerPolicy {
            heartbeat: HeartbeatConfig {
                interval: SimDuration::from_micros(config.heartbeat_interval.as_micros() as u64),
                // Generous: live nodes block while computing batches.
                miss_threshold: 50,
                message_bytes: 128,
            },
            sizing_slack: 1.0,
            recompose_threshold: 0.99,
            assumed_audience: (config.nodes / shards as u64).max(1),
            recompose_requires_idle: true,
        };

        let mut shard_txs = Vec::with_capacity(shards);
        let mut shard_threads = Vec::with_capacity(shards);
        for index in 0..shards {
            let (tx, rx) = bounded(QUEUE_CAP);
            shard_txs.push(tx);
            let key = config.key.clone();
            let policy = policy.clone();
            let tick = config.controller_tick;
            let carousel_tx = carousel_tx.clone();
            let hub = Arc::clone(&hub);
            let tele = tele.with_sink_lane(1 + index);
            shard_threads.push(std::thread::spawn(move || {
                shard_main(
                    index,
                    shards,
                    key,
                    policy,
                    tick,
                    rx,
                    carousel_tx,
                    hub,
                    start,
                    tele,
                )
            }));
        }

        let dispatch = Dispatch {
            hub: Arc::clone(&hub),
            jobs_finished: Arc::new(Monitor::named(0, "live.jobs_finished")),
            shard_txs: shard_txs.clone(),
            injector,
            start,
            backend_depth: tele.registry().gauge("backend.queue_depth"),
            tele,
        };

        ShardedHeadend {
            hub,
            carousel_tx,
            shard_txs,
            dispatch,
            carousel: Some(carousel),
            shard_threads,
            next_instance: AtomicU64::new(0),
            start,
        }
    }

    /// What node traffic is routed through: the shard senders (heartbeats,
    /// by [`shard_of`](oddci_core::sharded::shard_of) the node) and the
    /// dispatch handle (task fetches and results).
    pub(crate) fn node_links(&self) -> (Vec<Sender<ShardMsg>>, Dispatch) {
        (self.shard_txs.clone(), self.dispatch.clone())
    }

    /// A detached handle the snapshot writer thread exports through.
    pub(crate) fn snapshot_handle(&self) -> SnapshotHandle {
        SnapshotHandle {
            hub: Arc::clone(&self.hub),
            carousel_tx: self.carousel_tx.clone(),
            shard_txs: self.shard_txs.clone(),
            start: self.start,
        }
    }

    /// Replaces this headend's state from a snapshot: every shard's
    /// Controller, the carousel's image table and the hub's job state.
    /// Must run before node traffic arrives (standby adoption happens
    /// before the wire server binds).
    pub(crate) fn import_state(&self, snap: &SnapshotState) -> Result<(), String> {
        if snap.shards.len() != self.shard_txs.len() {
            return Err(format!(
                "snapshot has {} controller shards but this headend runs {} — \
                 message-id namespaces are per-shard, so the counts must match",
                snap.shards.len(),
                self.shard_txs.len()
            ));
        }
        for (tx, state) in self.shard_txs.iter().zip(&snap.shards) {
            let (rtx, rrx) = bounded(1);
            tx.send(ShardMsg::Import {
                state: state.clone(),
                reply: rtx,
            })
            .map_err(|_| "controller shard gone during import".to_string())?;
            rrx.recv_timeout(EXPORT_TIMEOUT)
                .map_err(|_| "controller shard did not acknowledge import".to_string())?;
        }
        for (instance, recipe) in &snap.images {
            let image = recipe.to_image();
            image
                .validate()
                .map_err(|e| format!("snapshot image of instance {}: {e}", instance.raw()))?;
            self.carousel_tx
                .send(CarouselMsg::Register {
                    instance: *instance,
                    image: Arc::new(image),
                })
                .map_err(|_| "carousel gone during import".to_string())?;
        }
        let now = wall_now(&self.start);
        {
            let mut hub = self.hub.lock();
            hub.backend.import_state(snap.backend.clone(), now);
            hub.provider.import_state(snap.provider.clone(), now);
            hub.instance_job = snap.instance_job.iter().copied().collect();
            hub.job_instance = snap
                .instance_job
                .iter()
                .map(|&(instance, job)| (job, instance))
                .collect();
            hub.job_queries = snap
                .job_queries
                .iter()
                .map(|(job, queries)| (*job, queries.iter().map(|q| Arc::new(q.clone())).collect()))
                .collect();
            hub.job_scores = snap
                .job_scores
                .iter()
                .map(|(job, pairs)| {
                    let tasks = hub.backend.job(*job).map_or(0, |j| j.tasks.len());
                    let mut scores: Scores = vec![None; tasks];
                    for &(task, score) in pairs {
                        if let Some(slot) = scores.get_mut(task.index()) {
                            *slot = Some(score);
                        }
                    }
                    (*job, scores)
                })
                .collect();
            hub.wakeups = snap.wakeups.iter().copied().collect();
        }
        let next_instance = snap
            .instance_job
            .iter()
            .map(|&(instance, _)| instance.raw() + 1)
            .max()
            .unwrap_or(0);
        self.next_instance.store(next_instance, Ordering::Relaxed);
        Ok(())
    }

    /// Re-applies `NodeLost` events recorded after a snapshot was cut:
    /// the crashed primary may have detected losses (re-queuing their
    /// assignments) that the snapshot predates. Replaying them means the
    /// standby re-queues immediately instead of waiting out its own
    /// miss-threshold window. Returns how many losses were applied.
    pub(crate) fn replay_node_losses(&self, nodes: &[NodeId]) -> u64 {
        let mut hub = self.hub.lock();
        let mut applied = 0u64;
        for &node in nodes {
            applied += u64::from(!hub.backend.node_lost(node).is_empty());
        }
        applied
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
        self.hub.lock().provider.running().collect()
    }

    /// Registers a job, admits its instance on every shard (split
    /// targets) and opens the Provider request. Runs on the caller's
    /// thread — the coordinator is whoever submits.
    pub(crate) fn submit(
        &self,
        job: Job,
        queries: Vec<Arc<Vec<u8>>>,
        image: Arc<AlignmentImage>,
        target: u64,
    ) -> ProviderRequest {
        let now = wall_now(&self.start);
        let job_id = job.id;
        let instance = InstanceId::new(self.next_instance.fetch_add(1, Ordering::Relaxed));
        let req = InstanceRequest {
            image: job.image,
            image_size: job.image_size,
            target,
            requirements: Default::default(),
        };
        let request = {
            let mut hub = self.hub.lock();
            hub.job_scores.insert(job_id, vec![None; job.tasks.len()]);
            hub.backend.register_job(job, now);
            hub.job_queries.insert(job_id, queries);
            hub.instance_job.insert(instance, job_id);
            hub.job_instance.insert(job_id, instance);
            hub.provider.open_request(job_id, instance, target, now)
        };
        // Image first, then admissions: the carousel channel preserves
        // causal order, so every shard's wakeup finds the image mapped.
        let _ = self
            .carousel_tx
            .send(CarouselMsg::Register { instance, image });
        let targets = split_target(target, self.shard_txs.len());
        for (tx, shard_target) in self.shard_txs.iter().zip(targets) {
            let _ = tx.send(ShardMsg::Admit {
                instance,
                request: InstanceRequest {
                    target: shard_target,
                    ..req
                },
            });
        }
        request
    }

    /// The Provider's report (with per-task scores), once complete.
    fn report(&self, req: ProviderRequest) -> Option<(JobReport, BTreeMap<TaskId, i32>)> {
        let hub = self.hub.lock();
        hub.provider.report(req).map(|r| {
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
        let jobs_finished = &self.dispatch.jobs_finished;
        loop {
            // Read the count before looking: a job that finishes after
            // the look has then moved it, and the wait below falls through.
            let seen = *jobs_finished.lock();
            if let Some(done) = self.report(req) {
                return Some(done);
            }
            let mut finished = jobs_finished.lock();
            while *finished == seen {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return None;
                }
                finished = jobs_finished.wait_timeout(finished, left).0;
            }
        }
    }

    /// Stops the shards, then the carousel — so receivers outlive
    /// senders — joining every thread. Returns the number of tasks in no
    /// ledger (always 0 unless bookkeeping broke) and how many headend
    /// threads exited by panic instead of a clean return (a panicked
    /// thread's ledger contribution is unknown, so the first number may
    /// undercount when the second is nonzero).
    ///
    /// The runtime must have joined every node thread and stopped the
    /// socket front first: they are the threads that dispatch.
    pub(crate) fn shutdown(mut self) -> (u64, u64) {
        let mut failed = 0u64;
        for tx in &self.shard_txs {
            let _ = tx.send(ShardMsg::Shutdown);
        }
        for h in self.shard_threads.drain(..) {
            failed += u64::from(h.join().is_err());
        }
        let _ = self.carousel_tx.send(CarouselMsg::Shutdown);
        if let Some(h) = self.carousel.take() {
            failed += u64::from(h.join().is_err());
        }
        let hub = self.hub.lock();
        let unaccounted = hub
            .job_instance
            .keys()
            .map(|&job| hub.backend.unaccounted_tasks(job))
            .sum();
        (unaccounted, failed)
    }
}

// ---------------------------------------------------------------------
// Snapshot export
// ---------------------------------------------------------------------

/// Channels and shared state a snapshot writer needs to cut a consistent
/// export without owning the headend. Cloned senders keep the export path
/// off the headend's own threads: the writer asks each shard and the
/// carousel over their inboxes and reads the hub under its lock.
pub(crate) struct SnapshotHandle {
    hub: Arc<Mutex<Hub>>,
    carousel_tx: Sender<CarouselMsg>,
    shard_txs: Vec<Sender<ShardMsg>>,
    start: Instant,
}

impl SnapshotHandle {
    /// Cuts one snapshot at the current instant. Returns `None` when the
    /// headend is winding down (a channel closed mid-export) — callers
    /// just skip that cycle.
    ///
    /// Consistency: the Backend/Provider/job tables are read atomically
    /// under the hub lock — that is the task-accounting ground truth. The
    /// per-shard Controller states are collected just before, so they can
    /// trail the hub by the export's own latency; membership and
    /// heartbeat ledgers re-converge from live traffic after adoption, so
    /// that skew is harmless (and the task ledger never is skewed).
    pub(crate) fn export(&self, epoch: u64, wire: (u64, Vec<u64>)) -> Option<SnapshotState> {
        let mut shards = Vec::with_capacity(self.shard_txs.len());
        for tx in &self.shard_txs {
            let (rtx, rrx) = bounded(1);
            tx.send(ShardMsg::Export { reply: rtx }).ok()?;
            shards.push(rrx.recv_timeout(EXPORT_TIMEOUT).ok()?);
        }
        let (rtx, rrx) = bounded(1);
        self.carousel_tx
            .send(CarouselMsg::Export { reply: rtx })
            .ok()?;
        let images = rrx.recv_timeout(EXPORT_TIMEOUT).ok()?;

        let now = wall_now(&self.start);
        let hub = self.hub.lock();
        let snap = SnapshotState {
            epoch,
            taken_at_us: now.as_micros(),
            shards,
            backend: hub.backend.export_state(now),
            provider: hub.provider.export_state(now),
            instance_job: hub.instance_job.iter().map(|(&i, &j)| (i, j)).collect(),
            job_queries: hub
                .job_queries
                .iter()
                .map(|(&job, queries)| (job, queries.iter().map(|q| q.as_ref().clone()).collect()))
                .collect(),
            job_scores: hub
                .job_scores
                .iter()
                .map(|(&job, scores)| (job, scored(scores).collect()))
                .collect(),
            wakeups: hub.wakeups.iter().map(|(&i, &w)| (i, w)).collect(),
            images,
            wire_next_node: wire.0,
            wire_nodes: wire.1,
            // Filled in by the runtime, which owns the shared reconciler.
            autoscale: None,
        };
        Some(snap)
    }
}

// ---------------------------------------------------------------------
// Autoscale reconciler thread
// ---------------------------------------------------------------------

/// What the reconciler thread needs to observe and steer the headend:
/// the hub (queue depth, throughput, running instances) and the shard
/// inboxes (resize / revoke commands).
pub(crate) struct ReconcilerLinks {
    hub: Arc<Mutex<Hub>>,
    shard_txs: Vec<Sender<ShardMsg>>,
    start: Instant,
}

impl ShardedHeadend {
    /// Handles for [`spawn_reconciler`].
    pub(crate) fn reconciler_links(&self) -> ReconcilerLinks {
        ReconcilerLinks {
            hub: Arc::clone(&self.hub),
            shard_txs: self.shard_txs.clone(),
            start: self.start,
        }
    }
}

/// Spawns the elastic-sizing control loop. Every `interval` it samples
/// the Backend queue depth, the per-shard heartbeat-lag and membership
/// gauges and the task-fetch p99, feeds them to the shared
/// [`Reconciler`], and applies the decision by resizing every running
/// instance (per-shard split targets). An `airtime-revoked` fault roll
/// first evicts every member ([`ShardMsg::Revoke`]); the reconciler then
/// restores the lost capacity as a [`ScaleDecision::Replace`], bypassing
/// its cooldown. Dropping the returned sender stops the thread.
///
/// Locking rule: the hub lock and the reconciler lock are each dropped
/// before any channel send.
pub(crate) fn spawn_reconciler(
    links: ReconcilerLinks,
    shared: Arc<Mutex<Reconciler>>,
    interval: std::time::Duration,
    injector: Arc<FaultInjector>,
    tele: Telemetry,
) -> (Sender<()>, JoinHandle<()>) {
    let (tx, rx) = bounded::<()>(1);
    let thread = std::thread::spawn(move || {
        let shards = links.shard_txs.len();
        let lag_gauges: Vec<_> = (0..shards)
            .map(|i| {
                tele.registry()
                    .gauge(&format!("controller.heartbeat_lag.shard{i}"))
            })
            .collect();
        let member_gauges: Vec<_> = (0..shards)
            .map(|i| {
                tele.registry()
                    .gauge(&format!("controller.members.shard{i}"))
            })
            .collect();
        let desired_gauge = tele.registry().gauge("provider.desired_size");
        let queue_gauge = tele.registry().gauge("backend.queue_depth");
        let revocations = tele.registry().counter("faults.airtime_revoked");
        let cooldown = shared.lock().policy().cooldown;
        let mut last_sample = (wall_now(&links.start), 0u64);
        // At most one revocation per cooldown window: the fault plan rolls
        // per reconcile tick, and a 100%-rate window would otherwise evict
        // the replacement capacity as fast as it forms.
        let mut revoke_gate = SimTime::ZERO;
        loop {
            match rx.recv_timeout(interval) {
                Ok(()) | Err(RecvTimeoutError::Disconnected) => return,
                Err(RecvTimeoutError::Timeout) => {}
            }
            let begin = wall_now(&links.start);
            let (instances, queue_depth, completed) = {
                let hub = links.hub.lock();
                let done: u64 = hub
                    .job_scores
                    .keys()
                    .map(|&job| hub.backend.completed_count(job))
                    .sum();
                let instances: Vec<InstanceId> = hub
                    .backend
                    .open_jobs()
                    .iter()
                    .filter_map(|j| hub.job_instance.get(j).copied())
                    .collect();
                (instances, hub.backend.pending_total(), done)
            };

            // Spot-like reclamation: evict the whole membership, then let
            // the reconciler's Replace decision restore it.
            if !instances.is_empty() && begin >= revoke_gate && injector.airtime_revoked(begin) {
                for &instance in &instances {
                    for stx in &links.shard_txs {
                        let _ = stx.send(ShardMsg::Revoke { instance });
                    }
                }
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
                heartbeat_lag: lag_gauges.iter().map(|g| g.get()).fold(0.0, f64::max),
                tasks_per_sec,
                fetch_p99: tele.phase_summary(Phase::TaskFetch).p99,
                current_size: member_gauges.iter().map(|g| g.get()).sum::<f64>() as usize,
            };
            let (decision, desired) = {
                let mut r = shared.lock();
                let d = r.tick(begin, &inputs);
                (d, r.desired())
            };
            desired_gauge.set(desired as f64);
            queue_gauge.set(queue_depth as f64);

            if decision.acted() {
                let targets = split_target(desired as u64, shards);
                for &instance in &instances {
                    for (stx, &target) in links.shard_txs.iter().zip(&targets) {
                        let _ = stx.send(ShardMsg::Resize { instance, target });
                    }
                }
            }
            let end = wall_now(&links.start);
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
        }
    });
    (tx, thread)
}

// ---------------------------------------------------------------------
// Carousel thread
// ---------------------------------------------------------------------

fn carousel_main(
    rx: Receiver<CarouselMsg>,
    bus: Arc<BroadcastBus<BusMsg>>,
    hub: Arc<Mutex<Hub>>,
    start: Instant,
    tele: Telemetry,
) {
    let mut images: BTreeMap<InstanceId, Arc<AlignmentImage>> = BTreeMap::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            CarouselMsg::Register { instance, image } => {
                images.insert(instance, image);
            }
            CarouselMsg::Publish(signed) => {
                let (image, instance) = match signed.message {
                    ControlMessage::Wakeup(w) => {
                        *hub.lock().wakeups.entry(w.instance).or_insert(0) += 1;
                        (
                            images.get(&w.instance).cloned().map(WakeupImage::Recipe),
                            w.instance,
                        )
                    }
                    ControlMessage::Reset(r) => {
                        images.remove(&r.instance);
                        (None, r.instance)
                    }
                };
                tele.instant(
                    wall_now(&start).as_micros(),
                    Phase::CarouselPublish,
                    CONTROL_TRACK,
                    instance.raw(),
                );
                bus.publish(&BusMsg::Control(LiveBroadcast { signed, image }));
            }
            CarouselMsg::Export { reply } => {
                let recipes = images
                    .iter()
                    .map(|(&instance, image)| (instance, ImageExport::from_image(image)))
                    .collect();
                let _ = reply.send(recipes);
            }
            CarouselMsg::Shutdown => return,
        }
    }
}

// ---------------------------------------------------------------------
// Controller shards
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn shard_main(
    index: usize,
    shards: usize,
    key: Vec<u8>,
    policy: ControllerPolicy,
    tick: std::time::Duration,
    rx: Receiver<ShardMsg>,
    carousel_tx: Sender<CarouselMsg>,
    hub: Arc<Mutex<Hub>>,
    start: Instant,
    tele: Telemetry,
) {
    // Disjoint message-id namespace: ids ≡ index (mod shards).
    let mut controller = Controller::with_id_namespace(&key, policy, index as u64, shards as u64);
    let lag_gauge = tele
        .registry()
        .gauge(&format!("controller.heartbeat_lag.shard{index}"));
    let members_gauge = tele
        .registry()
        .gauge(&format!("controller.members.shard{index}"));
    let mut last_tick = Instant::now();
    loop {
        match rx.recv_timeout(tick) {
            Ok(ShardMsg::Heartbeat { hb, reply }) => {
                let now = wall_now(&start);
                // Heartbeat lag: emission → consolidation, i.e. this
                // shard's backlog as seen by its nodes.
                lag_gauge.set(now.since(hb.sent_at).as_secs_f64());
                let outputs = controller.on_heartbeat(hb, now);
                let mut replies = apply_outputs(outputs, &carousel_tx, &hub, &start, &tele);
                reply.send(replies.pop().unwrap_or(HeartbeatReply::Ack));
            }
            Ok(ShardMsg::Admit { instance, request }) => {
                let outputs = controller.admit_instance(instance, request, wall_now(&start));
                apply_outputs(outputs, &carousel_tx, &hub, &start, &tele);
            }
            Ok(ShardMsg::Dismantle { instance, publish }) => {
                if let Ok(outputs) = controller.dismantle(instance) {
                    if publish {
                        // One carousel reset reaches every shard's nodes;
                        // the other shards just flip to Dismantled and trim
                        // their own stragglers via heartbeat replies.
                        apply_outputs(outputs, &carousel_tx, &hub, &start, &tele);
                    }
                }
            }
            Ok(ShardMsg::Resize { instance, target }) => {
                // Unknown or dismantled instances are fine to skip: the
                // reconciler races job completion by design.
                let _ = controller.resize(instance, target);
            }
            Ok(ShardMsg::Revoke { instance }) => {
                if let Ok(outputs) = controller.revoke_members(instance) {
                    // The evicted members' DirectResets have no in-flight
                    // heartbeat reply to ride, so they are telemetered and
                    // dropped here; NodeLost still re-queues every
                    // assignment, and the next tick's recomposition wakeup
                    // re-forms the membership.
                    apply_outputs(outputs, &carousel_tx, &hub, &start, &tele);
                }
            }
            Ok(ShardMsg::Export { reply }) => {
                let _ = reply.send(controller.export_state(wall_now(&start)));
            }
            Ok(ShardMsg::Import { state, reply }) => {
                controller.import_state(state, wall_now(&start));
                let _ = reply.send(());
            }
            Ok(ShardMsg::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {}
        }
        members_gauge.set(controller.total_members() as f64);
        if last_tick.elapsed() >= tick {
            last_tick = Instant::now();
            let outputs = controller.tick(wall_now(&start));
            apply_outputs(outputs, &carousel_tx, &hub, &start, &tele);
        }
    }
}

/// Executes a shard Controller's side effects: broadcasts go to the
/// carousel thread, `NodeLost` re-queues via the shared Backend, direct
/// resets become heartbeat replies (returned to the caller).
fn apply_outputs(
    outputs: Vec<ControllerOutput>,
    carousel_tx: &Sender<CarouselMsg>,
    hub: &Arc<Mutex<Hub>>,
    start: &Instant,
    tele: &Telemetry,
) -> Vec<HeartbeatReply> {
    let mut replies = Vec::new();
    for out in outputs {
        match out {
            ControllerOutput::Broadcast(signed) => {
                let _ = carousel_tx.send(CarouselMsg::Publish(signed));
            }
            ControllerOutput::DirectReset { node, instance } => {
                tele.instant(
                    wall_now(start).as_micros(),
                    Phase::DirectReset,
                    node.raw(),
                    instance.raw(),
                );
                replies.push(HeartbeatReply::Reset(instance));
            }
            ControllerOutput::NodeLost { node, .. } => {
                tele.instant(wall_now(start).as_micros(), Phase::NodeLost, node.raw(), 0);
                let _ = hub.lock().backend.node_lost(node);
            }
        }
    }
    replies
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// A node's way to the Backend: task fetches and result uploads, run on
/// the thread that asks — the node's own thread in process, the serving
/// thread for a PNA — under the hub lock. Cloned into every node link
/// and the socket front; there is no dispatch thread and no queue.
#[derive(Clone)]
pub(crate) struct Dispatch {
    hub: Arc<Mutex<Hub>>,
    /// Jobs finished so far. The thread that completes a job bumps it and
    /// notifies — after dropping the hub guard — so
    /// [`wait_report`](ShardedHeadend::wait_report) sleeps until a
    /// completion instead of polling the hub.
    jobs_finished: Arc<Monitor<u64>>,
    shard_txs: Vec<Sender<ShardMsg>>,
    injector: Arc<FaultInjector>,
    start: Instant,
    tele: Telemetry,
    backend_depth: Gauge,
}

impl Dispatch {
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
        Some(fetch_batch_reply(&mut self.hub.lock(), instance, node, max))
    }

    /// Lands a batch of `node`'s results. The call that completes the job
    /// closes its Provider request, tells every shard to dismantle the
    /// instance and wakes [`wait_report`](ShardedHeadend::wait_report).
    pub(crate) fn results(&self, job: JobId, node: NodeId, results: Vec<(TaskId, i32)>) {
        let dismantle = {
            let mut guard = self.hub.lock();
            let hub = &mut *guard;
            let now = wall_now(&self.start);
            let mut scores = hub.job_scores.get_mut(&job);
            for (task, score) in results {
                let landed = hub.backend.complete_task(job, task, node, now).is_ok();
                let slot = scores.as_mut().and_then(|s| s.get_mut(task.index()));
                if let (true, Some(slot)) = (landed, slot) {
                    *slot = Some(score);
                }
            }
            self.backend_depth.set(hub.backend.pending_total() as f64);
            if hub.backend.is_complete(job) {
                finish_job(hub, job, now, &self.tele)
            } else {
                None
            }
        };
        // Locking rule: the hub guard is dropped before these sends and
        // the wake. The wake comes last, so a caller who submits its next
        // job at once queues that admission behind this dismantle in
        // every shard's inbox.
        if let Some(instance) = dismantle {
            for (i, tx) in self.shard_txs.iter().enumerate() {
                let _ = tx.send(ShardMsg::Dismantle {
                    instance,
                    publish: i == 0,
                });
            }
            *self.jobs_finished.lock() += 1;
            self.jobs_finished.notify_all();
        }
    }
}

/// Cuts a batch for `node` under the hub lock.
fn fetch_batch_reply(
    hub: &mut Hub,
    instance: InstanceId,
    node: NodeId,
    max: usize,
) -> TaskBatchReply {
    let Some(&job) = hub.instance_job.get(&instance) else {
        return TaskBatchReply::Drained;
    };
    let batch = match hub.backend.fetch_batch(job, node, max) {
        Ok(batch) if !batch.is_empty() => batch,
        _ => return TaskBatchReply::Drained,
    };
    let queries = &hub.job_queries[&job];
    let tasks = batch
        .into_iter()
        .map(|task| {
            let query = queries[task.id.index()].clone();
            (task, query)
        })
        .collect();
    TaskBatchReply::Assigned { job, tasks }
}

/// Completes the Provider request for a finished job and reports which
/// instance to dismantle. Runs under the hub lock; the caller sends the
/// per-shard dismantles after dropping it.
fn finish_job(hub: &mut Hub, job: JobId, now: SimTime, tele: &Telemetry) -> Option<InstanceId> {
    let req = hub.provider.request_for_job(job)?;
    let instance = *hub.job_instance.get(&job)?;
    let wakeups = hub.wakeups.get(&instance).copied().unwrap_or(0);
    let completed = hub.backend.completed_count(job);
    let requeues = hub.backend.requeue_count(job);
    hub.provider
        .complete(req, now, completed, requeues, wakeups)?;
    if let Some(report) = hub.provider.report(req) {
        let end = now.as_micros();
        tele.span(
            end.saturating_sub(report.makespan.as_micros()),
            end,
            Phase::JobRun,
            CONTROL_TRACK,
            job.raw(),
        );
    }
    Some(instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oddci_types::{DataSize, ImageId};
    use oddci_workload::Task;

    /// A one-shard headend with one submitted job of `tasks` tasks on
    /// instance 0, and the dispatch handle a node would use.
    fn headend_with_job(tasks: u64) -> (ShardedHeadend, Dispatch, JobId) {
        let headend = ShardedHeadend::start(
            &LiveConfig::default(),
            1,
            Arc::new(BroadcastBus::new()),
            Instant::now(),
            Arc::new(FaultInjector::new(oddci_faults::FaultPlan::none(), 0)),
        );
        let job = JobId::new(0);
        let work = (0..tasks)
            .map(|i| {
                Task::new(
                    TaskId::new(i),
                    DataSize::from_bytes(16),
                    SimDuration::from_millis(1),
                    DataSize::from_bytes(8),
                )
            })
            .collect();
        headend.submit(
            Job::new(job, ImageId::new(0), DataSize::from_bytes(1), work),
            (0..tasks).map(|_| Arc::new(vec![b'A'; 16])).collect(),
            Arc::new(AlignmentImage::small_demo()),
            1,
        );
        let (_, dispatch) = headend.node_links();
        (headend, dispatch, job)
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
        let (headend, dispatch, job) = headend_with_job(10);
        let (instance, node) = (InstanceId::new(0), NodeId::new(3));
        let mut served = 0;
        loop {
            let batch = task_ids(dispatch.fetch(instance, node, 4));
            if batch.is_empty() {
                break;
            }
            served += batch.len();
            dispatch.results(job, node, batch.iter().map(|&t| (t, 7)).collect());
        }
        assert_eq!(served, 10);
        {
            let hub = headend.hub.lock();
            assert_eq!(hub.backend.requeue_count(job), 0);
            assert!(hub.backend.is_complete(job));
        }
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        let req = ProviderRequest(0);
        let (report, scores) = headend.wait_report(req, deadline).expect("job finished");
        assert_eq!(report.requeues, 0);
        assert_eq!(scores.len(), 10);
        assert_eq!(headend.shutdown(), (0, 0));

        let (headend, dispatch, _) = headend_with_job(10);
        let first = task_ids(dispatch.fetch(instance, node, 4));
        let mut again = task_ids(dispatch.fetch(instance, node, 4));
        again.sort_unstable();
        assert_eq!(first, again, "the unreported batch came straight back");
        assert_eq!(headend.hub.lock().backend.requeue_count(job), 4);
        assert_eq!(headend.shutdown(), (0, 0));
    }
}
