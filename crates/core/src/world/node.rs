//! Per-node runtime state: the set-top box, its agent's core, link and
//! churn process.

use crate::node::NodeCore;
use oddci_net::DirectLink;
use oddci_receiver::{SetTopBox, UsageMode};
use oddci_sim::ChurnProcess;
use oddci_workload::Task;
use rand::rngs::SmallRng;

/// One simulated processing node (dense `Vec` entry, indexed by `NodeId`).
pub struct NodeRuntime {
    /// The receiver hardware + middleware.
    pub stb: SetTopBox,
    /// The resident agent, its held task and its span anchors.
    pub core: NodeCore<Task>,
    /// The node's direct channel.
    pub link: DirectLink,
    /// The viewer's on/off behaviour.
    pub churn: ChurnProcess,
    /// Usage mode while powered (drawn once; a box whose owner watches TV
    /// is modelled as in-use for the whole session).
    pub usage: UsageMode,
    /// The node's private random stream.
    pub rng: SmallRng,
    /// Monotonic power-cycle counter; stale in-flight events from before
    /// the last toggle are recognized and dropped by comparing epochs.
    pub epoch: u64,
}

impl NodeRuntime {
    /// True when the node is powered and can process events.
    pub fn is_on(&self) -> bool {
        self.stb.is_on()
    }
}
