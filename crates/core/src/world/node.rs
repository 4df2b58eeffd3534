//! Per-node runtime state: the set-top box, its PNA, link, churn process
//! and in-flight task.

use crate::pna::Pna;
use oddci_net::DirectLink;
use oddci_receiver::{SetTopBox, UsageMode};
use oddci_sim::ChurnProcess;
use oddci_types::SimTime;
use oddci_workload::Task;
use rand::rngs::SmallRng;

/// One simulated processing node (dense `Vec` entry, indexed by `NodeId`).
pub struct NodeRuntime {
    /// The receiver hardware + middleware.
    pub stb: SetTopBox,
    /// The resident agent.
    pub pna: Pna,
    /// The node's direct channel.
    pub link: DirectLink,
    /// The viewer's on/off behaviour.
    pub churn: ChurnProcess,
    /// Usage mode while powered (drawn once; a box whose owner watches TV
    /// is modelled as in-use for the whole session).
    pub usage: UsageMode,
    /// The node's private random stream.
    pub rng: SmallRng,
    /// Task currently being fetched/computed/uploaded.
    pub current_task: Option<Task>,
    /// True once the Backend told this node the job queue is empty.
    pub drained: bool,
    /// Monotonic power-cycle counter; stale in-flight events from before
    /// the last toggle are recognized and dropped by comparing epochs.
    pub epoch: u64,
    /// When this node accepted the current instance's wakeup (telemetry
    /// anchor for the DVE-boot span).
    pub accept_at: Option<SimTime>,
    /// When the current task fetch started (telemetry anchor).
    pub fetch_started: Option<SimTime>,
    /// When the current task's compute started (telemetry anchor).
    pub compute_started: Option<SimTime>,
    /// When the current result upload started (telemetry anchor).
    pub upload_started: Option<SimTime>,
}

impl NodeRuntime {
    /// True when the node is powered and can process events.
    pub fn is_on(&self) -> bool {
        self.stb.is_on()
    }

    /// Clears job-execution state (reset, power-off or job end).
    pub fn clear_work(&mut self) {
        self.current_task = None;
        self.drained = false;
        self.accept_at = None;
        self.fetch_started = None;
        self.compute_started = None;
        self.upload_started = None;
    }
}
