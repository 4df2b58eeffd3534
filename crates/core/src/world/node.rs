//! Per-node runtime state: the set-top box, its agent's core, link and
//! churn process.

use crate::node::NodeCore;
use oddci_net::DirectLink;
use oddci_receiver::{SetTopBox, UsageMode};
use oddci_sim::ChurnProcess;
use oddci_workload::Task;
use rand::rngs::SmallRng;

/// One simulated processing node (dense `Vec` entry, indexed by `NodeId`).
///
/// Laid out in field order on cache-line boundaries, so that what every
/// heartbeat reads sits on three adjacent lines: the tuner at the end of
/// the box, the epoch, the link and the head of the core (its flags, the
/// held batch and the agent's id and state).
#[repr(C, align(64))]
pub struct NodeRuntime {
    /// The receiver hardware + middleware.
    pub stb: SetTopBox,
    /// Monotonic power-cycle counter; stale in-flight events from before
    /// the last toggle are recognized and dropped by comparing epochs.
    pub epoch: u64,
    /// The node's direct channel.
    pub link: DirectLink,
    /// The resident agent, its held task and its span anchors.
    pub core: NodeCore<Task>,
    /// The viewer's on/off behaviour.
    pub churn: ChurnProcess,
    /// Usage mode while powered (drawn once; a box whose owner watches TV
    /// is modelled as in-use for the whole session).
    pub usage: UsageMode,
    /// The node's private random stream.
    pub rng: SmallRng,
}

impl NodeRuntime {
    /// True when the node is powered and can process events.
    pub fn is_on(&self) -> bool {
        self.stb.is_on()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oddci_receiver::TunerState;
    use std::collections::BTreeSet;
    use std::mem::{align_of, offset_of, size_of};

    /// A `HeartbeatSend` reads the node's power state and epoch, the core's
    /// flags, held batch and agent, and the link it sends on. In a
    /// 100k-node world each line of the record it touches is a cache miss.
    #[test]
    fn a_heartbeat_reads_three_cache_lines_of_its_node() {
        let core = offset_of!(NodeRuntime, core);
        let mut fields = vec![
            (offset_of!(NodeRuntime, stb.tuner), size_of::<TunerState>()),
            (offset_of!(NodeRuntime, epoch), size_of::<u64>()),
            (offset_of!(NodeRuntime, link), size_of::<DirectLink>()),
        ];
        let core_fields = NodeCore::heartbeat_fields().into_iter();
        fields.extend(core_fields.map(|(at, len)| (core + at, len)));
        let lines: BTreeSet<usize> = fields
            .iter()
            .flat_map(|&(at, len)| at / 64..=(at + len - 1) / 64)
            .collect();
        assert_eq!(align_of::<NodeRuntime>(), 64);
        assert!(lines.len() <= 3, "lines {lines:?} for fields {fields:?}");
        assert!(
            size_of::<NodeRuntime>() <= 448,
            "{}",
            size_of::<NodeRuntime>()
        );
    }
}
