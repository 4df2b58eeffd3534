//! The node core under random input sequences, and one test per rule the
//! sim and the live loop used to disagree on.
//!
//! The property harness drives a [`NodeCore`] the way the live node
//! thread does: an action's reply is fed at once, depth first; a loaded
//! image, a computed task and a delivered batch are fed later,
//! interleaved with random outside events. Retry timers outlive a reset
//! or a crash, as the sim's events do: the core must drop them itself.

use oddci_core::messages::{ControlMessage, ResetMessage, SignedMessage, WakeupMessage};
use oddci_core::node::{NodeAction, NodeCore, NodeEnv, NodeInput, RetryKind, RetryTimer};
use oddci_core::pna::{HostInfo, Pna};
use oddci_crypto::MessageAuthenticator;
use oddci_faults::Backoff;
use oddci_receiver::compute::UsageMode;
use oddci_types::{
    DataSize, ImageId, InstanceId, JobId, MessageId, NodeId, Probability, SimDuration, SimTime,
    TaskId,
};
use oddci_workload::Task;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};

const KEY: &[u8] = b"node-props-key";

fn host() -> HostInfo {
    HostInfo {
        free_memory: DataSize::from_megabytes(128),
        usage: UsageMode::Standby,
    }
}

fn wakeup(id: u64, instance: u64) -> SignedMessage {
    let message = ControlMessage::Wakeup(WakeupMessage {
        id: MessageId::new(id),
        instance: InstanceId::new(instance),
        image: ImageId::new(instance),
        image_size: DataSize::from_megabytes(1),
        probability: Probability::ALWAYS,
        requirements: Default::default(),
    });
    SignedMessage::sign(message, &MessageAuthenticator::from_key(KEY))
}

fn reset(id: u64, instance: u64) -> SignedMessage {
    let message = ControlMessage::Reset(ResetMessage {
        id: MessageId::new(id),
        instance: InstanceId::new(instance),
    });
    SignedMessage::sign(message, &MessageAuthenticator::from_key(KEY))
}

fn task(id: u64) -> Task {
    let bytes = DataSize::from_bytes(100);
    Task::new(TaskId::new(id), bytes, SimDuration::from_secs(1), bytes)
}

/// A core plus the clock, randomness and retry policy a caller lends it.
struct Node {
    core: NodeCore<Task>,
    rng: SmallRng,
    backoff: Backoff,
    now: SimTime,
}

impl Node {
    fn new() -> Self {
        Node {
            core: NodeCore::new(Pna::new(NodeId::new(1), KEY)),
            rng: SmallRng::seed_from_u64(1),
            backoff: Backoff::default(),
            now: SimTime::ZERO,
        }
    }

    fn feed(&mut self, input: NodeInput<'_, Task>) -> Vec<NodeAction> {
        self.now += SimDuration::from_millis(10);
        let mut env = NodeEnv {
            now: self.now,
            rng: &mut self.rng,
            backoff: &self.backoff,
            jitter_seed: 7,
            memo: None,
        };
        let mut out = Vec::new();
        self.core.handle(input, &mut env, &mut out);
        out
    }

    /// Accepts a wakeup for `instance` and boots its image.
    fn boot(&mut self, instance: u64) -> Vec<NodeAction> {
        let msg = wakeup(instance, instance);
        self.feed(NodeInput::Control(&msg, host()));
        self.feed(NodeInput::ImageReady(InstanceId::new(instance)))
    }

    /// Boots instance 1 and gets a one-task batch to hold.
    fn holding(&mut self) {
        self.boot(1);
        let tasks = vec![task(0)];
        let job = JobId::new(0);
        let got = self.feed(NodeInput::Fetched(0, job, tasks));
        assert_eq!(got, [NodeAction::Download(0)]);
    }
}

fn fetches(actions: &[NodeAction]) -> Vec<u32> {
    let attempts = actions.iter().filter_map(|a| match a {
        NodeAction::Fetch(attempt) => Some(*attempt),
        _ => None,
    });
    attempts.collect()
}

fn is_heartbeat(action: &NodeAction) -> bool {
    matches!(action, NodeAction::Heartbeat(_))
}

/// The live node thread's view: outside events, replies and timers.
struct Harness {
    node: Node,
    choices: SmallRng,
    later: VecDeque<NodeInput<'static, Task>>,
    timers: Vec<RetryTimer>,
    /// Every task any fetch reply handed the node.
    fetched: BTreeSet<TaskId>,
    next_task: u64,
    /// Set by a crash; cleared by a restart or a carousel read.
    crashed: bool,
}

impl Harness {
    /// Feeds `input`, checks every invariant on what it caused, and runs
    /// the actions the way the live node loop does.
    fn feed(&mut self, input: NodeInput<'_, Task>) -> Result<(), String> {
        let held_before = self.node.core.held().map(|(job, t)| (job, t[0].id));
        let control = matches!(input, NodeInput::Control(..));
        let restart = matches!(input, NodeInput::Restart);
        let (crash, fetched) = match &input {
            NodeInput::Crash => (true, false),
            NodeInput::Fetched(..) => (false, true),
            _ => (false, false),
        };
        let shown = format!("{input:?}");
        let actions = self.node.feed(input);
        let core = &self.node.core;

        // No action after a crash until a restart or a carousel read (the
        // AIT's AUTOSTART relaunches the agent).
        if self.crashed && !control && !restart {
            prop_assert!(actions.is_empty(), "crashed agent acted: {actions:?}");
        }
        self.crashed = (self.crashed || crash) && !control && !restart;
        // At most one batch: a second reply never replaces the first.
        if fetched && held_before.is_some() {
            let held_after = core.held().map(|(job, t)| (job, t[0].id));
            prop_assert_eq!(held_before, held_after);
        }
        // A destroy or a crash drops a held batch exactly once.
        let orphans = actions
            .iter()
            .filter(|a| matches!(a, NodeAction::Orphan(_)))
            .count();
        let destroyed = crash || actions.iter().any(|a| matches!(a, NodeAction::Left(..)));
        let dropped = usize::from(destroyed && held_before.is_some());
        prop_assert_eq!(orphans, dropped, "{:?}", actions);
        if destroyed {
            prop_assert!(core.held().is_none());
        }
        for action in &actions {
            match *action {
                // No fetch while idle, loading or crashed.
                NodeAction::Fetch(_) => {
                    prop_assert!(core.running().is_some(), "fetch while not running: {shown}");
                    prop_assert!(!core.crashed());
                }
                // Every upload is for tasks it fetched.
                NodeAction::Upload(_) => {
                    let (_, tasks) = core.held().ok_or("upload with nothing held")?;
                    prop_assert!(tasks.iter().all(|t| self.fetched.contains(&t.id)));
                }
                NodeAction::Delivered(_, task) => {
                    prop_assert!(self.fetched.contains(&task));
                }
                _ => {}
            }
        }
        for action in actions {
            self.act(action)?;
        }
        Ok(())
    }

    /// Runs one action: the reply at once, or later, or a timer.
    fn act(&mut self, action: NodeAction) -> Result<(), String> {
        let coin = |h: &mut Harness, n: u32| h.choices.random_range(0..n);
        match action {
            NodeAction::Heartbeat(hb) => {
                // Now and then the Controller trims the node.
                if let (Some(instance), 0) = (hb.instance, coin(self, 4)) {
                    self.feed(NodeInput::DirectReset(instance))?;
                }
            }
            NodeAction::BeginImage(instance) => match coin(self, 5) {
                0 => self.feed(NodeInput::DirectReset(instance))?,
                _ => self.later.push_back(NodeInput::ImageReady(instance)),
            },
            // A reset applied by an earlier action's reply asks nobody.
            NodeAction::Fetch(_) if self.node.core.instance().is_none() => {}
            NodeAction::Fetch(attempt) => match coin(self, 4) {
                0 => self.feed(NodeInput::Drained)?,
                1 => self.feed(NodeInput::FetchLost(attempt))?,
                _ => {
                    let n = u64::from(coin(self, 3)) + 1;
                    let tasks: Vec<Task> = (self.next_task..self.next_task + n).map(task).collect();
                    self.next_task += n;
                    self.fetched.extend(tasks.iter().map(|t| t.id));
                    let job = JobId::new(0);
                    self.feed(NodeInput::Fetched(attempt, job, tasks))?;
                }
            },
            NodeAction::Download(attempt) => match coin(self, 5) {
                0 => self.feed(NodeInput::FetchLost(attempt))?,
                _ => self.feed(NodeInput::InputsReady)?,
            },
            NodeAction::Compute { .. } => self.later.push_back(NodeInput::Computed),
            NodeAction::Upload(attempt) => match coin(self, 3) {
                0 => self.feed(NodeInput::UploadLost(attempt))?,
                _ => self.feed(NodeInput::Uploaded)?,
            },
            NodeAction::Delivered(..) => self.later.push_back(NodeInput::Next),
            NodeAction::Retry(_, timer) => self.timers.push(timer),
            NodeAction::Left(..)
            | NodeAction::Orphan(_)
            | NodeAction::Span(..)
            | NodeAction::GaveUp => {}
        }
        Ok(())
    }

    /// One outside event.
    fn event(&mut self, op: u8, id: u64) -> Result<(), String> {
        let instance = 1 + id % 2;
        match op % 10 {
            0 | 1 => {
                let msg = wakeup(id, instance);
                self.feed(NodeInput::Control(&msg, host()))
            }
            2 => {
                let msg = reset(id, instance);
                self.feed(NodeInput::Control(&msg, host()))
            }
            3 => self.feed(NodeInput::DirectReset(InstanceId::new(instance))),
            4 => self.feed(NodeInput::HeartbeatTimer),
            // Both loops kick only a drained node.
            5 if self.node.core.drained() => self.feed(NodeInput::Kick),
            5 => Ok(()),
            6 => self.feed(NodeInput::Crash),
            7 => self.feed(NodeInput::Restart),
            8 => match self.timers.pop() {
                Some(timer) => self.feed(NodeInput::RetryDue(timer)),
                None => Ok(()),
            },
            _ => match self.later.pop_front() {
                Some(input) => self.feed(input),
                None => Ok(()),
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn node_core_invariants_hold_under_random_inputs(
        seed in 0u64..u64::MAX,
        script in proptest::collection::vec((0u8..20, 0u64..12), 1..300),
    ) {
        let mut h = Harness {
            node: Node::new(),
            choices: SmallRng::seed_from_u64(seed),
            later: VecDeque::new(),
            timers: Vec::new(),
            fetched: BTreeSet::new(),
            next_task: 0,
            crashed: false,
        };
        for (op, id) in script {
            h.event(op, id)?;
        }
    }
}

#[test]
fn a_drained_node_waits_for_a_kick() {
    let mut node = Node::new();
    node.boot(1);
    assert!(node.feed(NodeInput::Drained).is_empty());
    assert!(node.core.drained());
    let tick = node.feed(NodeInput::HeartbeatTimer);
    assert!(tick.len() == 1 && is_heartbeat(&tick[0]), "{tick:?}");
    assert_eq!(fetches(&node.feed(NodeInput::Kick)), [0]);
    assert!(!node.core.drained());
}

#[test]
fn an_exhausted_fetch_chain_parks_the_node_as_drained() {
    let mut node = Node::new();
    assert_eq!(fetches(&node.boot(1)), [0]);
    let mut attempt = 0;
    loop {
        let got = node.feed(NodeInput::FetchLost(attempt));
        match got.as_slice() {
            [NodeAction::Retry(_, timer)] => {
                assert_eq!((timer.kind, timer.failed), (RetryKind::Fetch, attempt));
                let due = NodeInput::RetryDue(*timer);
                assert_eq!(fetches(&node.feed(due)), [attempt + 1]);
                attempt += 1;
            }
            [NodeAction::GaveUp] => break,
            other => panic!("{other:?}"),
        }
    }
    assert_eq!(attempt, Backoff::default().max_attempts);
    assert!(node.core.drained());
    assert!(node
        .feed(NodeInput::HeartbeatTimer)
        .iter()
        .all(is_heartbeat));
    assert_eq!(fetches(&node.feed(NodeInput::Kick)), [0]);
}

#[test]
fn acceptance_and_a_loaded_image_each_send_a_heartbeat() {
    let mut node = Node::new();
    let msg = wakeup(1, 1);
    let accepted = node.feed(NodeInput::Control(&msg, host()));
    let instance = InstanceId::new(1);
    assert_eq!(accepted[0], NodeAction::BeginImage(instance));
    assert!(matches!(accepted[1], NodeAction::Heartbeat(hb) if hb.instance == Some(instance)));
    let booted = node.feed(NodeInput::ImageReady(instance));
    assert!(matches!(booted[0], NodeAction::Span(..)));
    assert!(is_heartbeat(&booted[1]));
    assert_eq!(booted[2], NodeAction::Fetch(0));
}

#[test]
fn a_reset_drops_the_held_batch_without_uploading_it() {
    let mut node = Node::new();
    node.holding();
    node.feed(NodeInput::InputsReady);
    let msg = reset(9, 1);
    let got = node.feed(NodeInput::Control(&msg, host()));
    let instance = InstanceId::new(1);
    let left = NodeAction::Left(instance, false);
    assert_eq!(got[..2], [left, NodeAction::Orphan(true)]);
    assert!(is_heartbeat(&got[2]) && got.len() == 3, "{got:?}");
    // The computation finishing afterwards uploads nothing.
    assert!(node.feed(NodeInput::Computed).is_empty());
}

#[test]
fn a_carousel_read_relaunches_a_crashed_agent() {
    let mut node = Node::new();
    node.holding();
    let crash = node.feed(NodeInput::Crash);
    assert_eq!(crash, [NodeAction::Orphan(false)]);
    assert!(node.core.crashed());
    assert!(node.feed(NodeInput::HeartbeatTimer).is_empty());
    assert!(node.feed(NodeInput::Kick).is_empty());
    let msg = wakeup(2, 2);
    let got = node.feed(NodeInput::Control(&msg, host()));
    assert!(!node.core.crashed());
    let instance = InstanceId::new(2);
    assert_eq!(got[0], NodeAction::BeginImage(instance));
}

/// Arms a fetch retry on a node running instance 1 and returns its timer.
fn armed_fetch_retry(node: &mut Node) -> RetryTimer {
    node.boot(1);
    match node.feed(NodeInput::FetchLost(0))[..] {
        [NodeAction::Retry(_, timer)] => timer,
        ref other => panic!("{other:?}"),
    }
}

#[test]
fn a_retry_armed_before_a_reset_is_dropped() {
    // The sim's retry timers are events that a reset does not cancel.
    for reset in [
        NodeInput::DirectReset(InstanceId::new(1)),
        NodeInput::Control(&reset(9, 1), host()),
    ] {
        let mut node = Node::new();
        let timer = armed_fetch_retry(&mut node);
        node.feed(reset);
        assert!(node.feed(NodeInput::RetryDue(timer)).is_empty());
        assert!(!node.core.drained());
    }
}

#[test]
fn a_stale_retry_does_not_fire_into_the_next_instance() {
    let mut node = Node::new();
    let timer = armed_fetch_retry(&mut node);
    node.feed(NodeInput::DirectReset(InstanceId::new(1)));
    assert_eq!(fetches(&node.boot(2)), [0]);
    assert!(node.feed(NodeInput::RetryDue(timer)).is_empty());
}

#[test]
fn a_retry_armed_before_a_crash_is_dropped() {
    let mut node = Node::new();
    let timer = armed_fetch_retry(&mut node);
    node.feed(NodeInput::Crash);
    node.feed(NodeInput::Restart);
    assert!(node.feed(NodeInput::RetryDue(timer)).is_empty());
}

#[test]
fn an_exhausted_upload_abandons_the_batch_and_fetches_afresh() {
    let mut node = Node::new();
    node.holding();
    node.feed(NodeInput::InputsReady);
    let computed = node.feed(NodeInput::Computed);
    assert_eq!(computed[1], NodeAction::Upload(0));
    let max = Backoff::default().max_attempts;
    for attempt in 0..max {
        let got = node.feed(NodeInput::UploadLost(attempt));
        assert!(matches!(got[..], [NodeAction::Retry(_, t)] if t.kind == RetryKind::Upload));
    }
    let got = node.feed(NodeInput::UploadLost(max));
    assert_eq!(got, [NodeAction::GaveUp, NodeAction::Fetch(0)]);
    assert!(node.core.held().is_none());
}

#[test]
fn an_empty_batch_is_a_dry_queue() {
    let mut node = Node::new();
    node.boot(1);
    let job = JobId::new(0);
    let got = node.feed(NodeInput::Fetched(0, job, Vec::new()));
    assert!(got.is_empty());
    assert!(node.core.drained() && node.core.held().is_none());
}
