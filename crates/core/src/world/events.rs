//! Event vocabulary of the OddCI-DTV world simulation.
//!
//! Node continuations carry the node's **power-cycle epoch** at
//! scheduling time: a receiver that was switched off (and possibly on
//! again), or whose agent crashed, must not be affected by continuations
//! of its previous life (an image acquisition, a compute completion, a
//! heartbeat timer). The handler drops any continuation whose epoch no
//! longer matches.

use crate::messages::Heartbeat;
use crate::node::RetryTimer;
use oddci_types::{InstanceId, NodeId};

/// Every event the world reacts to. Task payloads live in per-node state,
/// not in the queue, so events stay small.
#[derive(Debug, Clone, PartialEq)]
pub enum WorldEvent {
    /// A node's churn process fires (power on ↔ off).
    NodeToggle(NodeId),
    /// A step of `node`'s power cycle `epoch`.
    Node {
        /// The node.
        node: NodeId,
        /// Power-cycle epoch at scheduling time.
        epoch: u64,
        /// What happens.
        step: NodeStep,
    },
    /// A heartbeat reaches the Controller (valid even if the sender died
    /// in flight — the bits are already on the wire).
    HeartbeatArrive(Heartbeat),
    /// The Controller's periodic maintenance timer.
    ControllerTick,
}

/// What a node continuation does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStep {
    /// The node finishes acquiring the *configuration* of this instance
    /// from the carousel; its PNA now considers the control message.
    ControlDelivery(InstanceId),
    /// The node finishes acquiring the *image* of this instance; its DVE
    /// starts.
    ImageAcquired(InstanceId),
    /// The node's periodic heartbeat timer fires (the message leaves the
    /// node).
    HeartbeatSend,
    /// A crashed PNA finishes rebooting (fault injection): it re-reads the
    /// carousel and resumes heartbeating. Its epoch is the one assigned at
    /// crash time.
    PnaRestart,
    /// A direct-channel reset of this instance reaches the node.
    DirectReset(InstanceId),
    /// The node's task request (this retry attempt; 0 = first try)
    /// reaches the Backend.
    TaskRequest(u32),
    /// A retry timer expires after a lost or stalled task request or a
    /// lost result upload; the node makes the next attempt unless a reset
    /// or a crash has made the timer stale.
    Retry(RetryTimer),
    /// The task's input data finishes downloading to the node.
    InputArrived,
    /// The node finishes computing its current task.
    Computed,
    /// The task's result finishes uploading to the Backend.
    ResultArrived,
}
