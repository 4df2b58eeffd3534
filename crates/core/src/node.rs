//! The node core: one receiver's agent and every rule around it, as a
//! sans-I/O state machine that both clocks drive.
//!
//! A [`NodeCore`] owns a node's [`Pna`] and what used to be kept beside
//! it: the held task batch, the drained flag, the crash state and the
//! span anchors of the accept → boot, fetch, compute and upload phases.
//! Its caller, one loop per clock, feeds it [`NodeInput`]s and carries out
//! the [`NodeAction`]s it writes into a buffer the caller owns:
//!
//! * the discrete-event [`World`](crate::world::World) maps each event to
//!   one input and each action to one event;
//! * the live runtime's node thread waits on its link until its next
//!   deadline, feeds what arrives, and runs each action through the link.
//!
//! | input | when | actions |
//! |---|---|---|
//! | `Control` | a carousel read | accept: `BeginImage`, `Heartbeat`; reset: `Left`, `Orphan`?, `Heartbeat` |
//! | `ImageReady` | the accepted image loaded | `Span(DveBoot)`, `Heartbeat`, `Fetch` |
//! | `HeartbeatTimer` | the heartbeat timer fired | `Heartbeat` |
//! | `DirectReset` | a reset over the direct channel | `Left`, `Orphan`?, `Heartbeat` |
//! | `Fetched` / `Drained` / `FetchLost` | the fetch reply | `Download` / none / `Retry` or `GaveUp` |
//! | `InputsReady` | the batch's inputs are here | `Span(TaskFetch)`, `Compute` |
//! | `Computed` | a task computed | `Span(Compute)`, then `Compute` or `Upload` |
//! | `Uploaded` / `UploadLost` | the upload's fate | `Span(ResultUpload)`, `Delivered` / `Retry`, or `GaveUp` and `Fetch` |
//! | `RetryDue` | a retry timer fired | `Fetch` or `Upload`; none once stale |
//! | `Kick` / `Next` | the caller asks for work | `Fetch` |
//! | `Crash` / `Restart` | the agent died / came back | `Orphan`? / none |
//!
//! The rules:
//!
//! * acceptance, a reset and a loaded image each send a state-change
//!   heartbeat;
//! * a node holds at most one batch, fetched while its DVE runs;
//! * a drained node — its queue was dry, or its fetch retries ran out —
//!   asks for nothing until a `Kick`;
//! * a retry carries its attempt number with its timer, and a timer
//!   armed before a reset or a crash is stale: it fires into nothing;
//! * a reset or a crash drops the held batch once (`Orphan`);
//! * a crashed agent ignores every input until a `Restart`, except a
//!   carousel read: the AIT's AUTOSTART relaunches the Xlet.

use crate::messages::{Heartbeat, SignedMessage, VerifyMemo};
use crate::pna::{HostInfo, Pna, PnaAction, PnaState};
use oddci_faults::Backoff;
use oddci_receiver::dve::DveState;
use oddci_telemetry::Phase;
use oddci_types::{InstanceId, JobId, SimTime, TaskId};
use oddci_workload::Task;
use rand::Rng;

/// A task as its caller holds it: the sim holds the bare [`Task`], the live
/// plane the task with its query.
pub trait HeldTask {
    /// The task's id.
    fn task_id(&self) -> TaskId;
}

impl HeldTask for Task {
    fn task_id(&self) -> TaskId {
        self.id
    }
}

impl<P> HeldTask for (Task, P) {
    fn task_id(&self) -> TaskId {
        self.0.id
    }
}

/// Which retry chain a timer belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetryKind {
    /// A task request, its reply or the inputs it brought were lost.
    Fetch,
    /// A result upload was lost.
    Upload,
}

/// A retry timer as [`NodeAction::Retry`] arms it and
/// [`NodeInput::RetryDue`] hands it back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryTimer {
    /// The chain it belongs to.
    pub kind: RetryKind,
    /// The attempt that failed; the timer makes the next one.
    pub failed: u32,
    /// The core's work generation when it was armed. A reset or a crash
    /// since has moved it on, and the timer is stale.
    pub chain: u32,
}

/// What a caller feeds the core. Attempt numbers are a retry chain's:
/// 0 starts it.
#[derive(Debug)]
pub enum NodeInput<'a, W> {
    /// A control message read from the carousel, and the host facts its
    /// requirements filter checks.
    Control(&'a SignedMessage, HostInfo),
    /// The image of this instance finished loading.
    ImageReady(InstanceId),
    /// The periodic heartbeat timer fired.
    HeartbeatTimer,
    /// A single-node reset arrived over the direct channel.
    DirectReset(InstanceId),
    /// `Fetched(attempt, job, tasks)`: the fetch was answered with a batch
    /// of `job`'s tasks; an empty batch is a dry queue.
    Fetched(u32, JobId, Vec<W>),
    /// The fetch was answered: the queue is dry.
    Drained,
    /// `FetchLost(attempt)`: the request, its reply or the batch's inputs
    /// were lost, or the Backend stalled.
    FetchLost(u32),
    /// The held batch's inputs are here.
    InputsReady,
    /// The task being computed is done.
    Computed,
    /// The held batch's results reached the Backend.
    Uploaded,
    /// `UploadLost(attempt)`: the upload was lost.
    UploadLost(u32),
    /// A timer asked for with [`NodeAction::Retry`] fired.
    RetryDue(RetryTimer),
    /// The caller re-kicks a drained node: it asks for work again.
    Kick,
    /// The delivered batch's job has work left: fetch the next batch.
    Next,
    /// The agent crashed or lost power: its volatile state is gone.
    Crash,
    /// The agent is back after a crash or a power cycle.
    Restart,
}

/// What the core asks its caller to do, in order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeAction {
    /// Send this heartbeat.
    Heartbeat(Heartbeat),
    /// A wakeup for this instance was accepted: acquire its image, then
    /// feed [`NodeInput::ImageReady`].
    BeginImage(InstanceId),
    /// `Left(instance, direct)`: the node left `instance`, reset over the
    /// direct channel when `direct`, else by a broadcast.
    Left(InstanceId, bool),
    /// `Orphan(requeue)`: the held batch was abandoned. `requeue` when the
    /// headend issued the reset and can requeue it now; a crash is learned
    /// through heartbeat loss instead.
    Orphan(bool),
    /// `Span(phase, begin, arg)`: record `phase` from `begin` to now, with
    /// `arg` (a task or an instance id).
    Span(Phase, SimTime, u64),
    /// `Fetch(attempt)`: send a task request; feed its reply.
    Fetch(u32),
    /// `Download(attempt)`: bring in the held batch's inputs, then feed
    /// [`NodeInput::InputsReady`], or [`NodeInput::FetchLost`] with
    /// `attempt` when they are lost.
    Download(u32),
    /// `Compute(index)`: compute the held batch's task `index`, then feed
    /// [`NodeInput::Computed`].
    Compute(usize),
    /// `Upload(attempt)`: upload the held batch's results.
    Upload(u32),
    /// `Delivered(job, task)`: the batch whose first task is `task` landed
    /// at `job`'s Backend.
    Delivered(JobId, TaskId),
    /// `Retry(at, timer)`: an attempt failed; at `at`, feed
    /// [`NodeInput::RetryDue`] with `timer`.
    Retry(SimTime, RetryTimer),
    /// A retry chain ran out of attempts.
    GaveUp,
}

/// The clock, randomness and retry policy a caller lends for one input.
pub struct NodeEnv<'a, R: ?Sized> {
    /// The caller's current time.
    pub now: SimTime,
    /// The node's random stream (the probability gate draws from it).
    pub rng: &'a mut R,
    /// The retry policy of fetches and uploads.
    pub backoff: &'a Backoff,
    /// Jitter seed of the fetch chain; uploads use it `^ 1`.
    pub jitter_seed: u64,
    /// Control messages this caller's agents already verified, or `None`
    /// to verify every read.
    pub memo: Option<&'a mut VerifyMemo>,
}

/// One node's agent and the rules around it. See the module docs.
///
/// Laid out in field order: what a heartbeat reads (the flags, the held
/// batch and the head of the agent) comes first.
#[derive(Debug)]
#[repr(C)]
pub struct NodeCore<W> {
    crashed: bool,
    drained: bool,
    /// The held batch's inputs are here.
    ready: bool,
    /// The held batch's task being computed, or its last once all are.
    next: u32,
    /// Bumped each time a reset or a crash drops the node's work, so the
    /// retry timers armed before it are stale.
    chain: u32,
    /// The batch held and its job.
    held: Option<(JobId, Vec<W>)>,
    pna: Pna,
    accept_at: Option<SimTime>,
    fetch_started: Option<SimTime>,
    compute_started: Option<SimTime>,
    upload_started: Option<SimTime>,
}

impl<W: HeldTask> NodeCore<W> {
    /// A core around an idle `pna`.
    pub fn new(pna: Pna) -> Self {
        NodeCore {
            pna,
            held: None,
            next: 0,
            ready: false,
            drained: false,
            crashed: false,
            chain: 0,
            accept_at: None,
            fetch_started: None,
            compute_started: None,
            upload_started: None,
        }
    }

    /// The agent.
    pub fn pna(&self) -> &Pna {
        &self.pna
    }

    /// The instance the node belongs to.
    pub fn instance(&self) -> Option<InstanceId> {
        self.pna.instance()
    }

    /// The instance whose image runs here, if one does.
    pub fn running(&self) -> Option<InstanceId> {
        match self.pna.state() {
            PnaState::Busy(dve) if dve.state() == DveState::Running => Some(dve.instance),
            _ => None,
        }
    }

    /// True while `instance`'s image is loading here.
    pub fn loading(&self, instance: InstanceId) -> bool {
        matches!(self.pna.state(),
            PnaState::Busy(dve) if dve.instance == instance && dve.state() == DveState::Loading)
    }

    /// True once the node waits for a [`NodeInput::Kick`].
    pub fn drained(&self) -> bool {
        self.drained
    }

    /// True between a crash and the agent's relaunch.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// The held batch and its job.
    pub fn held(&self) -> Option<(JobId, &[W])> {
        let (job, tasks) = self.held.as_ref()?;
        Some((*job, tasks))
    }

    /// Feeds one input; the actions it causes are appended to `out`.
    pub fn handle<R: Rng + ?Sized>(
        &mut self,
        input: NodeInput<'_, W>,
        env: &mut NodeEnv<'_, R>,
        out: &mut Vec<NodeAction>,
    ) {
        let now = env.now;
        if self.crashed {
            // The AIT's AUTOSTART relaunches the Xlet at its next read.
            self.crashed = !matches!(input, NodeInput::Control(..) | NodeInput::Restart);
            if !matches!(input, NodeInput::Control(..)) {
                return;
            }
        }
        let held = self.held.is_some();
        match input {
            NodeInput::Control(msg, host) => {
                let memo = env.memo.as_deref_mut();
                match self.pna.on_control_message_with(msg, host, env.rng, memo) {
                    PnaAction::BeginAcquisition { instance, .. } => {
                        self.accept_at = Some(now);
                        out.push(NodeAction::BeginImage(instance));
                        self.heartbeat(now, out);
                    }
                    PnaAction::DveDestroyed { instance } => self.left(instance, false, now, out),
                    PnaAction::None => {}
                }
            }
            NodeInput::DirectReset(instance) if self.pna.on_direct_reset(instance) => {
                self.left(instance, true, now, out);
            }
            NodeInput::ImageReady(instance)
                if self.loading(instance) && self.pna.image_ready().is_ok() =>
            {
                let begin = self.accept_at.unwrap_or(now);
                out.push(NodeAction::Span(Phase::DveBoot, begin, instance.raw()));
                self.heartbeat(now, out);
                self.fetch(0, now, out);
            }
            NodeInput::HeartbeatTimer => self.heartbeat(now, out),
            NodeInput::Fetched(..) | NodeInput::Drained if held || self.running().is_none() => {}
            NodeInput::Fetched(attempt, job, tasks) if !tasks.is_empty() => {
                (self.held, self.next, self.ready) = (Some((job, tasks)), 0, false);
                out.push(NodeAction::Download(attempt));
            }
            NodeInput::Fetched(..) | NodeInput::Drained => self.drained = true,
            NodeInput::FetchLost(attempt) => {
                // Inputs lost in flight: the Backend recycles the batch.
                if !self.ready {
                    self.held = None;
                }
                self.drained |= !self.retry(RetryKind::Fetch, attempt, env, out);
            }
            NodeInput::InputsReady if held => {
                self.ready = true;
                let begin = self.fetch_started.take().unwrap_or(now);
                out.push(NodeAction::Span(Phase::TaskFetch, begin, self.task(0)));
                self.compute_started = Some(now);
                out.push(NodeAction::Compute(self.next as usize));
            }
            NodeInput::Computed if held => {
                if self.pna.task_done().is_err() {
                    return;
                }
                let index = self.next as usize;
                let begin = self.compute_started.take().unwrap_or(now);
                out.push(NodeAction::Span(Phase::Compute, begin, self.task(index)));
                if index + 1 < self.held.as_ref().map_or(0, |(_, tasks)| tasks.len()) {
                    self.next += 1;
                    self.compute_started = Some(now);
                    out.push(NodeAction::Compute(index + 1));
                } else {
                    self.upload_started = Some(now);
                    out.push(NodeAction::Upload(0));
                }
            }
            NodeInput::Uploaded if held => {
                let (task, begin) = (self.task(0), self.upload_started.take());
                out.push(NodeAction::Span(
                    Phase::ResultUpload,
                    begin.unwrap_or(now),
                    task,
                ));
                if let Some((job, tasks)) = self.held.take() {
                    out.push(NodeAction::Delivered(job, tasks[0].task_id()));
                }
            }
            // Out of retries: give up on this copy; the Backend re-issues it.
            NodeInput::UploadLost(attempt)
                if held && !self.retry(RetryKind::Upload, attempt, env, out) =>
            {
                (self.held, self.upload_started, self.fetch_started) = (None, None, None);
                self.fetch(0, now, out);
            }
            // Armed before a reset or a crash dropped the work it retries.
            NodeInput::RetryDue(timer) if timer.chain != self.chain => {}
            NodeInput::RetryDue(RetryTimer {
                kind: RetryKind::Fetch,
                failed,
                ..
            }) if !held => self.fetch(failed + 1, now, out),
            NodeInput::RetryDue(RetryTimer {
                kind: RetryKind::Upload,
                failed,
                ..
            }) if held => {
                self.upload_started.get_or_insert(now);
                out.push(NodeAction::Upload(failed + 1));
            }
            NodeInput::Kick if !held && self.instance().is_some() => {
                self.drained = false;
                self.fetch(0, now, out);
            }
            NodeInput::Next if !held && self.running().is_some() => self.fetch(0, now, out),
            NodeInput::Crash => {
                self.pna.power_off();
                self.drop_work(false, out);
                self.crashed = true;
            }
            // Stale: a reply, timer or kick the node's state has moved past.
            _ => {}
        }
    }

    /// The raw id of the held batch's task `index`.
    fn task(&self, index: usize) -> u64 {
        self.held
            .as_ref()
            .map_or(0, |(_, t)| t[index].task_id().raw())
    }

    fn heartbeat(&self, now: SimTime, out: &mut Vec<NodeAction>) {
        out.push(NodeAction::Heartbeat(self.pna.heartbeat(now)));
    }

    fn fetch(&mut self, attempt: u32, now: SimTime, out: &mut Vec<NodeAction>) {
        // Retries extend the span of the chain's first attempt.
        self.fetch_started.get_or_insert(now);
        out.push(NodeAction::Fetch(attempt));
    }

    /// Arms the retry after `attempt` of a `kind` chain; `false` (and
    /// [`NodeAction::GaveUp`]) once the chain has run out.
    fn retry<R: ?Sized>(
        &self,
        kind: RetryKind,
        attempt: u32,
        env: &NodeEnv<'_, R>,
        out: &mut Vec<NodeAction>,
    ) -> bool {
        let seed = env.jitter_seed ^ u64::from(kind == RetryKind::Upload);
        let delay = env.backoff.delay(attempt, seed);
        let timer = RetryTimer {
            kind,
            failed: attempt,
            chain: self.chain,
        };
        out.push(delay.map_or(NodeAction::GaveUp, |d| {
            NodeAction::Retry(env.now + d, timer)
        }));
        delay.is_some()
    }

    /// The DVE of `instance` was destroyed.
    fn left(
        &mut self,
        instance: InstanceId,
        direct: bool,
        now: SimTime,
        out: &mut Vec<NodeAction>,
    ) {
        out.push(NodeAction::Left(instance, direct));
        self.drop_work(true, out);
        self.heartbeat(now, out);
    }

    /// Drops the held batch, the drained flag, the span anchors and every
    /// armed retry timer.
    fn drop_work(&mut self, requeue: bool, out: &mut Vec<NodeAction>) {
        if self.held.take().is_some() {
            out.push(NodeAction::Orphan(requeue));
        }
        self.drained = false;
        self.chain = self.chain.wrapping_add(1);
        self.accept_at = None;
        (
            self.fetch_started,
            self.compute_started,
            self.upload_started,
        ) = (None, None, None);
    }
}

#[cfg(test)]
impl NodeCore<Task> {
    /// Where the fields a heartbeat reads lie in a core: (offset, size).
    pub(crate) fn heartbeat_fields() -> Vec<(usize, usize)> {
        use std::mem::{offset_of, size_of};
        let pna = offset_of!(Self, pna);
        let held = size_of::<Option<(JobId, Vec<Task>)>>();
        let mut fields = vec![
            (offset_of!(Self, crashed), 1),
            (offset_of!(Self, held), held),
        ];
        fields.extend(Pna::heartbeat_fields().map(|(at, len)| (pna + at, len)));
        fields
    }
}
