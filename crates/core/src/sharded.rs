//! Sharded Controller state: N [`Controller`](crate::controller::Controller)s,
//! each owning a disjoint slice of node membership.
//!
//! The paper's Controller must "serve millions of tuned devices" over
//! individual direct channels (§3.2). A single sequential Controller
//! serializes every heartbeat behind one ledger; the live headend splits
//! that ledger by a stable hash of the node id into controller stripes,
//! each behind its own lock and driven by whichever thread carries the
//! heartbeat, so heartbeat consolidation, loss detection and membership
//! trimming parallelize while every per-shard transition (including the
//! `NodeLost` emitted on instance-transition heartbeats) behaves exactly
//! like the unsharded Controller's.
//!
//! Sharding contract:
//!
//! * **Partition** — [`shard_of`] assigns every node to exactly one shard;
//!   all traffic about a node (heartbeats, loss declarations, resets) is
//!   handled by that shard alone.
//! * **Shared carousel** — shards broadcast over one channel. Each shard
//!   signs from a disjoint [`MessageId`](oddci_types::MessageId) namespace
//!   (`shard_index + k·shard_count`, see
//!   [`Controller::with_id_namespace`](crate::controller::Controller::with_id_namespace))
//!   so PNA carousel-repeat deduplication never drops another shard's
//!   message.
//! * **Split targets** — an instance of target `T` over `S` shards is
//!   admitted to every shard with per-shard target `ceil(T/S)`
//!   ([`split_target`]). The sum slightly over-admits (at most `S − 1`
//!   extra members, trimmed by the usual §3.2 heartbeat-reply resets) and
//!   never under-admits.

use oddci_types::NodeId;

/// The shard owning `node` out of `shards` total: a Fibonacci-hash of the
/// node id, stable across the process and identical in every plane (the
/// in-process and socket headends, tests).
pub fn shard_of(node: NodeId, shards: usize) -> usize {
    assert!(shards > 0, "a sharded controller needs at least one shard");
    // Fibonacci hashing: multiply by 2^64/φ and take the top bits. Node
    // ids are typically dense (0..N), which raw modulo would map onto a
    // correlated stripe pattern; the multiply decorrelates them.
    let h = node.raw().wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h >> 32) as usize % shards
}

/// Splits an instance target across shards: every shard gets
/// `ceil(target/shards)`, so the total over-admits by at most
/// `shards − 1` members. Never under-admits: the per-shard sum ≥ target.
pub fn split_target(target: u64, shards: usize) -> Vec<u64> {
    assert!(shards > 0, "a sharded controller needs at least one shard");
    let per = target.div_ceil(shards as u64);
    vec![per; shards]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Controller, ControllerOutput, ControllerPolicy, InstanceRequest};
    use crate::messages::{ControlMessage, NodeRequirements, SignedMessage};
    use oddci_types::{DataSize, ImageId, InstanceId, SimTime};
    use std::collections::BTreeSet;

    const KEY: &[u8] = b"shard-key";
    const SHARDS: u64 = 4;

    /// `SHARDS` Controllers in the headend's namespaces, each admitted to
    /// one instance at its split target. Returns them with every shard's
    /// wakeup broadcast.
    fn admitted_shards(id: InstanceId) -> (Vec<Controller>, Vec<ControllerOutput>) {
        let targets = split_target(100, SHARDS as usize);
        let mut outputs = Vec::new();
        let shards = (0..SHARDS)
            .zip(targets)
            .map(|(i, target)| {
                let mut c =
                    Controller::with_id_namespace(KEY, ControllerPolicy::default(), i, SHARDS);
                let req = InstanceRequest {
                    image: ImageId::new(1),
                    image_size: DataSize::from_megabytes(10),
                    target,
                    requirements: NodeRequirements::default(),
                };
                outputs.extend(c.admit_instance(id, req, SimTime::ZERO));
                c
            })
            .collect();
        (shards, outputs)
    }

    /// `(message id, is a reset)` of every broadcast in `outputs`.
    fn broadcasts(outputs: &[ControllerOutput]) -> Vec<(u64, bool)> {
        outputs
            .iter()
            .filter_map(|o| match o {
                ControllerOutput::Broadcast(SignedMessage { message, .. }) => Some((
                    message.id().raw(),
                    matches!(message, ControlMessage::Reset(_)),
                )),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn split_target_never_under_admits() {
        for target in [0u64, 1, 3, 7, 100, 1001] {
            for shards in [1usize, 2, 4, 8] {
                let split = split_target(target, shards);
                assert_eq!(split.len(), shards);
                let sum: u64 = split.iter().sum();
                assert!(sum >= target, "target {target} over {shards}: {split:?}");
                assert!(
                    sum < target + shards as u64,
                    "over-admits by {} at target {target} over {shards}",
                    sum - target
                );
            }
        }
    }

    #[test]
    fn message_ids_are_disjoint_across_shards() {
        let (_, outputs) = admitted_shards(InstanceId::new(0));
        let ids: BTreeSet<u64> = broadcasts(&outputs).iter().map(|&(id, _)| id).collect();
        assert_eq!(ids.len(), 4, "one wakeup per shard, all distinct ids");
        let residues: BTreeSet<u64> = ids.iter().map(|id| id % SHARDS).collect();
        assert_eq!(residues.len(), 4, "each shard owns its own id residue");
    }

    #[test]
    fn dismantle_emits_one_reset_per_shard_in_its_namespace() {
        let id = InstanceId::new(0);
        let (mut shards, _) = admitted_shards(id);
        for (i, shard) in shards.iter_mut().enumerate() {
            // The headend airs one shard's output, so each dismantle must
            // be exactly one reset and nothing else.
            let out = shard.dismantle(id).unwrap();
            assert_eq!(out.len(), 1, "shard {i}: {out:?}");
            let (msg_id, is_reset) = broadcasts(&out)[0];
            assert!(is_reset, "shard {i} dismantle is not a reset");
            assert_eq!(msg_id % SHARDS, i as u64, "shard {i} left its namespace");
        }
    }
}
