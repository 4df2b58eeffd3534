//! The Controller (§3.1–3.2): sets up instances on the broadcast channel,
//! consolidates heartbeats, keeps instances at their target size.
//!
//! The Controller is **transport-agnostic**: it never touches the carousel
//! or the direct channels itself. Instead its methods return
//! [`ControllerOutput`] values (broadcast this signed message, reset that
//! node, tell the Backend this node died) that the surrounding runtime —
//! the discrete-event [`world`](crate::world) or the live thread runtime —
//! executes. That keeps the control logic identical across both planes and
//! directly unit-testable.

use crate::messages::{
    ControlMessage, Heartbeat, NodeRequirements, PnaStateKind, ResetMessage, SignedMessage,
    WakeupMessage,
};
use oddci_crypto::MessageAuthenticator;
use oddci_types::{
    DataSize, HeartbeatConfig, ImageId, InstanceId, MessageId, NodeId, OddciError, Probability,
    Result, SimDuration, SimTime,
};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// A Provider's request for a new instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InstanceRequest {
    /// Image to distribute.
    pub image: ImageId,
    /// Image size (the carousel payload).
    pub image_size: DataSize,
    /// Desired number of member nodes.
    pub target: u64,
    /// Node filter to embed in the wakeup message.
    pub requirements: NodeRequirements,
}

/// Where an instance is in its lifecycle, ordered from first to last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum InstanceStatus {
    /// Wakeup broadcast, members still joining.
    Forming,
    /// At (or near) target size.
    Active,
    /// Reset broadcast; stragglers are reset via heartbeat replies.
    Dismantled,
}

/// Controller-side bookkeeping for one instance.
#[derive(Debug, Clone)]
pub struct InstanceRecord {
    /// The original request.
    pub request: InstanceRequest,
    /// Lifecycle status.
    pub status: InstanceStatus,
    /// Nodes whose most recent heartbeat claimed membership.
    pub members: BTreeSet<NodeId>,
    /// Wakeup (re)broadcasts issued for this instance.
    pub wakeups_sent: u32,
}

/// Tunable Controller behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerPolicy {
    /// Heartbeat interval / loss threshold the PNAs are configured with.
    pub heartbeat: HeartbeatConfig,
    /// Multiplier on the sizing probability (`p = slack·target/pool`);
    /// values slightly above 1 over-admit and rely on heartbeat-reply
    /// trimming, trading broadcast round-trips for precision.
    pub sizing_slack: f64,
    /// Fraction of the target below which a Forming/Active instance is
    /// recomposed with a fresh wakeup broadcast.
    pub recompose_threshold: f64,
    /// Idle-pool estimate used before any heartbeat has been consolidated
    /// (the expected audience of the channel).
    pub assumed_audience: u64,
    /// Defer recomposition wakeups until at least one **live idle** node is
    /// in the registry. Off by default (the simulated plane must recompose
    /// to recruit churned-in receivers it has never heard from); the live
    /// headend turns it on so a fleet that is fully busy — or empty — does
    /// not rebroadcast wakeups every tick that nobody can accept.
    #[serde(default)]
    pub recompose_requires_idle: bool,
}

impl Default for ControllerPolicy {
    fn default() -> Self {
        ControllerPolicy {
            heartbeat: HeartbeatConfig::default(),
            sizing_slack: 1.0,
            recompose_threshold: 0.95,
            assumed_audience: 10_000,
            recompose_requires_idle: false,
        }
    }
}

/// Side effects the runtime must carry out for the Controller.
#[derive(Debug, Clone, PartialEq)]
pub enum ControllerOutput {
    /// Publish this signed control message (and, for wakeups, the image)
    /// through the carousel.
    Broadcast(SignedMessage),
    /// Send a direct-channel reset to one node (downsizing / stragglers).
    DirectReset {
        /// Target node.
        node: NodeId,
        /// Instance it must leave.
        instance: InstanceId,
    },
    /// A busy node was declared lost; the Backend must re-queue its task.
    NodeLost {
        /// The node that timed out.
        node: NodeId,
        /// Instance it belonged to.
        instance: InstanceId,
    },
}

#[derive(Debug, Clone, Copy)]
struct NodeRecord {
    last_heartbeat: SimTime,
    state: PnaStateKind,
    instance: Option<InstanceId>,
}

/// Serializable snapshot of one instance's controller-side bookkeeping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceExport {
    /// Instance identity.
    pub id: InstanceId,
    /// The original Provider request (target, image, requirements).
    pub request: InstanceRequest,
    /// Lifecycle status at snapshot time.
    pub status: InstanceStatus,
    /// Member nodes at snapshot time.
    pub members: Vec<NodeId>,
    /// Wakeup (re)broadcasts issued so far.
    pub wakeups_sent: u32,
}

/// Serializable snapshot of one heartbeat-registry entry.
///
/// Heartbeat recency is stored as an **age** relative to the snapshot
/// instant rather than an absolute [`SimTime`]: the primary and a standby
/// headend run separate clocks (each starts at its own process launch), so
/// absolute instants from one are meaningless on the other. Ages rebase
/// cleanly via [`SimTime::saturating_sub`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeExport {
    /// The node.
    pub node: NodeId,
    /// How long before the snapshot its last heartbeat arrived.
    pub heartbeat_age: SimDuration,
    /// Last reported PNA state.
    pub state: PnaStateKind,
    /// Instance membership claimed by that heartbeat.
    pub instance: Option<InstanceId>,
}

/// Complete exported Controller state: membership, heartbeat ledger, and —
/// critically — the next message id. An adopting Controller must keep
/// signing past it, because PNAs deduplicate carousel repetitions by
/// [`MessageId`] and would drop a restarted id sequence as already-seen.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerState {
    /// All instances and their membership.
    pub instances: Vec<InstanceExport>,
    /// The heartbeat registry, ages relative to the snapshot instant.
    pub registry: Vec<NodeExport>,
    /// Next locally allocated instance id.
    pub next_instance: u64,
    /// Next control-message id to sign with.
    pub next_message: u64,
    /// Always 1 when written. Snapshots cut by a headend of several
    /// Controllers, each signing every `message_stride`-th id, carry more;
    /// [`fold`](ControllerState::fold) merges those into one state.
    pub message_stride: u64,
    /// Heartbeats processed so far.
    pub heartbeats_received: u64,
}

impl ControllerState {
    /// Merges the states of Controllers that split one fleet between them
    /// into the state of one Controller over all of it. Registries are
    /// concatenated. Instances merge by id: members united, targets and
    /// wakeup counts summed, the most advanced status kept. The id
    /// counters take the maximum, so the next message id is past every
    /// id any of them signed; heartbeat counts are summed.
    pub fn fold(states: impl IntoIterator<Item = ControllerState>) -> ControllerState {
        let mut instances: BTreeMap<InstanceId, InstanceExport> = BTreeMap::new();
        let mut folded = ControllerState {
            instances: Vec::new(),
            registry: Vec::new(),
            next_instance: 0,
            next_message: 0,
            message_stride: 1,
            heartbeats_received: 0,
        };
        for state in states {
            for inst in state.instances {
                match instances.entry(inst.id) {
                    Entry::Vacant(slot) => {
                        slot.insert(inst);
                    }
                    Entry::Occupied(mut slot) => {
                        let have = slot.get_mut();
                        have.members.extend(inst.members);
                        have.request.target =
                            have.request.target.saturating_add(inst.request.target);
                        have.wakeups_sent = have.wakeups_sent.saturating_add(inst.wakeups_sent);
                        have.status = have.status.max(inst.status);
                    }
                }
            }
            folded.registry.extend(state.registry);
            folded.next_instance = folded.next_instance.max(state.next_instance);
            folded.next_message = folded.next_message.max(state.next_message);
            folded.heartbeats_received = folded
                .heartbeats_received
                .saturating_add(state.heartbeats_received);
        }
        folded.instances = instances
            .into_values()
            .map(|mut inst| {
                inst.members.sort_unstable();
                inst.members.dedup();
                inst
            })
            .collect();
        folded
    }
}

/// The Controller.
pub struct Controller {
    auth: MessageAuthenticator,
    policy: ControllerPolicy,
    instances: BTreeMap<InstanceId, InstanceRecord>,
    registry: BTreeMap<NodeId, NodeRecord>,
    next_instance: u64,
    next_message: u64,
    /// Heartbeats processed (experiment X2 accounting).
    pub heartbeats_received: u64,
}

impl Controller {
    /// Creates a Controller signing with `key` under `policy`.
    pub fn new(key: &[u8], policy: ControllerPolicy) -> Self {
        Controller {
            auth: MessageAuthenticator::from_key(key),
            policy,
            instances: BTreeMap::new(),
            registry: BTreeMap::new(),
            next_instance: 0,
            next_message: 0,
            heartbeats_received: 0,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> &ControllerPolicy {
        &self.policy
    }

    fn next_message_id(&mut self) -> MessageId {
        let id = MessageId::new(self.next_message);
        self.next_message += 1;
        id
    }

    /// Nodes currently believed idle (alive and not in any instance).
    pub fn idle_pool_estimate(&self, now: SimTime) -> u64 {
        let deadline = self.policy.heartbeat.loss_deadline();
        let live_idle = self
            .registry
            .values()
            .filter(|r| r.state == PnaStateKind::Idle && now.since(r.last_heartbeat) <= deadline)
            .count() as u64;
        if self.registry.is_empty() {
            self.policy.assumed_audience
        } else {
            live_idle
        }
    }

    /// Creates an instance: allocates an id and returns it along with the
    /// wakeup broadcast to publish.
    pub fn create_instance(
        &mut self,
        req: InstanceRequest,
        now: SimTime,
    ) -> (InstanceId, Vec<ControllerOutput>) {
        let id = InstanceId::new(self.next_instance);
        self.next_instance += 1;
        let outputs = self.admit_instance(id, req, now);
        (id, outputs)
    }

    /// Creates an instance under an **externally allocated** id, returning
    /// the wakeup broadcast to publish. Used when a coordinator (the live
    /// headend) numbers instances itself, beside the jobs they run.
    pub fn admit_instance(
        &mut self,
        id: InstanceId,
        req: InstanceRequest,
        now: SimTime,
    ) -> Vec<ControllerOutput> {
        let mut record = InstanceRecord {
            request: req,
            status: InstanceStatus::Forming,
            members: BTreeSet::new(),
            wakeups_sent: 0,
        };
        let wakeup = self.wakeup_message(id, &req, req.target, now);
        record.wakeups_sent = 1;
        self.instances.insert(id, record);
        self.next_instance = self.next_instance.max(id.raw() + 1);
        vec![ControllerOutput::Broadcast(wakeup)]
    }

    fn wakeup_message(
        &mut self,
        id: InstanceId,
        req: &InstanceRequest,
        deficit: u64,
        now: SimTime,
    ) -> SignedMessage {
        let pool = self.idle_pool_estimate(now).max(1);
        let p = Probability::new(self.policy.sizing_slack * deficit as f64 / pool as f64);
        SignedMessage::sign(
            ControlMessage::Wakeup(WakeupMessage {
                id: self.next_message_id(),
                instance: id,
                image: req.image,
                image_size: req.image_size,
                probability: p,
                requirements: req.requirements,
            }),
            &self.auth,
        )
    }

    /// Dismantles an instance: broadcasts a reset; stragglers that heartbeat
    /// later are trimmed via heartbeat replies.
    pub fn dismantle(&mut self, id: InstanceId) -> Result<Vec<ControllerOutput>> {
        let record = self
            .instances
            .get_mut(&id)
            .ok_or(OddciError::UnknownInstance(id))?;
        record.status = InstanceStatus::Dismantled;
        record.members.clear();
        let msg_id = self.next_message_id();
        let msg = SignedMessage::sign(
            ControlMessage::Reset(ResetMessage {
                id: msg_id,
                instance: id,
            }),
            &self.auth,
        );
        Ok(vec![ControllerOutput::Broadcast(msg)])
    }

    /// Adjusts the target size of a live instance. Growing may trigger a
    /// recomposition wakeup on the next [`tick`](Self::tick); shrinking is
    /// enforced lazily through heartbeat replies.
    pub fn resize(&mut self, id: InstanceId, new_target: u64) -> Result<()> {
        let record = self
            .instances
            .get_mut(&id)
            .ok_or(OddciError::UnknownInstance(id))?;
        if record.status == InstanceStatus::Dismantled {
            return Err(OddciError::InvalidState {
                operation: "resize",
                state: "Dismantled".into(),
            });
        }
        record.request.target = new_target;
        Ok(())
    }

    /// Evicts every member of an instance at once — the broadcaster
    /// reclaimed the channel (spot-style `airtime-revoked` fault). Each
    /// member produces a [`ControllerOutput::NodeLost`] so the Backend
    /// requeues its in-flight task, plus a [`ControllerOutput::DirectReset`]
    /// so the PNA returns to idle. The instance itself stays alive at its
    /// target (status back to Forming) so the next [`tick`](Self::tick)
    /// recomposes it with fresh wakeups once the reconciler re-requests
    /// capacity.
    pub fn revoke_members(&mut self, id: InstanceId) -> Result<Vec<ControllerOutput>> {
        let record = self
            .instances
            .get_mut(&id)
            .ok_or(OddciError::UnknownInstance(id))?;
        if record.status == InstanceStatus::Dismantled {
            return Err(OddciError::InvalidState {
                operation: "revoke_members",
                state: "Dismantled".into(),
            });
        }
        let members: Vec<NodeId> = std::mem::take(&mut record.members).into_iter().collect();
        if !members.is_empty() {
            record.status = InstanceStatus::Forming;
        }
        let mut out = Vec::with_capacity(members.len() * 2);
        for node in members {
            out.push(ControllerOutput::NodeLost { node, instance: id });
            out.push(ControllerOutput::DirectReset { node, instance: id });
            if let Entry::Occupied(mut e) = self.registry.entry(node) {
                e.get_mut().state = PnaStateKind::Idle;
                e.get_mut().instance = None;
            }
        }
        Ok(out)
    }

    /// Consolidated view of one instance.
    pub fn instance(&self, id: InstanceId) -> Option<&InstanceRecord> {
        self.instances.get(&id)
    }

    /// Current member count of an instance (0 if unknown).
    pub fn instance_size(&self, id: InstanceId) -> u64 {
        self.instances
            .get(&id)
            .map_or(0, |r| r.members.len() as u64)
    }

    /// Total live members across every instance this controller tracks —
    /// what the autoscale reconciler samples as the current capacity.
    pub fn total_members(&self) -> u64 {
        self.instances
            .values()
            .map(|r| r.members.len() as u64)
            .sum()
    }

    /// Processes one heartbeat, returning the reply plus any side effects.
    ///
    /// Membership bookkeeping happens here: a Busy heartbeat adds the node
    /// to its instance (unless the instance is over target or dismantled, in
    /// which case the node is reset); an Idle heartbeat removes it.
    pub fn on_heartbeat(&mut self, hb: Heartbeat, now: SimTime) -> Vec<ControllerOutput> {
        self.heartbeats_received += 1;
        let mut out = Vec::new();

        // Membership transition bookkeeping needs the previous record.
        let prev = self.registry.insert(
            hb.node,
            NodeRecord {
                last_heartbeat: now,
                state: hb.state,
                instance: hb.instance,
            },
        );
        if let Some(prev) = prev {
            if let Some(prev_inst) = prev.instance {
                if prev.instance != hb.instance {
                    if let Some(rec) = self.instances.get_mut(&prev_inst) {
                        if rec.members.remove(&hb.node) {
                            // The node left its instance without a reset
                            // from us (PNA crash and reboot, viewer
                            // action). Whatever task it held must go back
                            // into the Backend's queue *now* — waiting for
                            // the node to re-join on a later wakeup can
                            // stall a job's tail indefinitely.
                            out.push(ControllerOutput::NodeLost {
                                node: hb.node,
                                instance: prev_inst,
                            });
                        }
                    }
                }
            }
        }

        if let (PnaStateKind::Busy, Some(inst)) = (hb.state, hb.instance) {
            match self.instances.get_mut(&inst) {
                Some(rec) if rec.status == InstanceStatus::Dismantled => {
                    // Straggler that missed the broadcast reset.
                    out.push(ControllerOutput::DirectReset {
                        node: hb.node,
                        instance: inst,
                    });
                    if let Entry::Occupied(mut e) = self.registry.entry(hb.node) {
                        e.get_mut().state = PnaStateKind::Idle;
                        e.get_mut().instance = None;
                    }
                }
                Some(rec) => {
                    let is_member = rec.members.contains(&hb.node);
                    let size = rec.members.len() as u64;
                    // §3.2: adjust exceeding size by replying with reset —
                    // both for non-members knocking on a full instance and
                    // for existing members after a shrink lowered the target.
                    let trim =
                        (!is_member && size >= rec.request.target) || size > rec.request.target;
                    if trim {
                        rec.members.remove(&hb.node);
                        out.push(ControllerOutput::DirectReset {
                            node: hb.node,
                            instance: inst,
                        });
                        if let Entry::Occupied(mut e) = self.registry.entry(hb.node) {
                            e.get_mut().state = PnaStateKind::Idle;
                            e.get_mut().instance = None;
                        }
                    } else {
                        rec.members.insert(hb.node);
                        if rec.members.len() as u64 >= rec.request.target {
                            rec.status = InstanceStatus::Active;
                        }
                    }
                }
                None => {
                    // Unknown instance (e.g. Controller restart): reset.
                    out.push(ControllerOutput::DirectReset {
                        node: hb.node,
                        instance: inst,
                    });
                }
            }
        }
        out
    }

    /// Periodic maintenance: declares nodes lost after missed heartbeats
    /// (producing [`ControllerOutput::NodeLost`]) and recomposes
    /// under-target instances with fresh wakeup broadcasts (§3.2: *"from
    /// time to time the Controller may need to retransmit wakeup control
    /// messages to recompose OddCI instances"*).
    pub fn tick(&mut self, now: SimTime) -> Vec<ControllerOutput> {
        let mut out = Vec::new();
        let deadline = self.policy.heartbeat.loss_deadline();

        // Loss detection.
        let mut lost = Vec::new();
        for (&node, rec) in &self.registry {
            if now.since(rec.last_heartbeat) > deadline {
                lost.push((node, rec.instance));
            }
        }
        for (node, instance) in lost {
            self.registry.remove(&node);
            if let Some(inst) = instance {
                if let Some(rec) = self.instances.get_mut(&inst) {
                    if rec.members.remove(&node) {
                        out.push(ControllerOutput::NodeLost {
                            node,
                            instance: inst,
                        });
                    }
                }
            }
        }

        // Recomposition. Optionally gated on the registry actually holding
        // a live idle node: a wakeup nobody can accept is pure carousel
        // noise, and a saturated live fleet would otherwise get one per
        // tick.
        if self.policy.recompose_requires_idle {
            let deadline = self.policy.heartbeat.loss_deadline();
            let live_idle = self
                .registry
                .values()
                .any(|r| r.state == PnaStateKind::Idle && now.since(r.last_heartbeat) <= deadline);
            if !live_idle {
                return out;
            }
        }
        let mut rebroadcasts = Vec::new();
        for (&id, rec) in &self.instances {
            if rec.status == InstanceStatus::Dismantled {
                continue;
            }
            let have = rec.members.len() as u64;
            let target = rec.request.target;
            if (have as f64) < target as f64 * self.policy.recompose_threshold {
                rebroadcasts.push((id, rec.request, target - have));
            }
        }
        for (id, req, deficit) in rebroadcasts {
            let msg = self.wakeup_message(id, &req, deficit, now);
            if let Some(rec) = self.instances.get_mut(&id) {
                rec.wakeups_sent += 1;
                rec.status = InstanceStatus::Forming;
            }
            out.push(ControllerOutput::Broadcast(msg));
        }
        out
    }

    /// Number of nodes the Controller currently tracks.
    pub fn known_nodes(&self) -> usize {
        self.registry.len()
    }

    /// Exports all mutable state for a snapshot taken at `now`.
    ///
    /// The signing key and policy are *not* exported — they are deployment
    /// configuration the standby already holds; only the dynamic ledger
    /// travels in the snapshot.
    pub fn export_state(&self, now: SimTime) -> ControllerState {
        ControllerState {
            instances: self
                .instances
                .iter()
                .map(|(&id, rec)| InstanceExport {
                    id,
                    request: rec.request,
                    status: rec.status,
                    members: rec.members.iter().copied().collect(),
                    wakeups_sent: rec.wakeups_sent,
                })
                .collect(),
            registry: self
                .registry
                .iter()
                .map(|(&node, rec)| NodeExport {
                    node,
                    heartbeat_age: now.since(rec.last_heartbeat),
                    state: rec.state,
                    instance: rec.instance,
                })
                .collect(),
            next_instance: self.next_instance,
            next_message: self.next_message,
            message_stride: 1,
            heartbeats_received: self.heartbeats_received,
        }
    }

    /// Replaces all mutable state from an exported snapshot, rebasing
    /// heartbeat ages onto `now` (the adopting headend's clock).
    pub fn import_state(&mut self, state: ControllerState, now: SimTime) {
        self.instances = state
            .instances
            .into_iter()
            .map(|e| {
                (
                    e.id,
                    InstanceRecord {
                        request: e.request,
                        status: e.status,
                        members: e.members.into_iter().collect(),
                        wakeups_sent: e.wakeups_sent,
                    },
                )
            })
            .collect();
        self.registry = state
            .registry
            .into_iter()
            .map(|e| {
                (
                    e.node,
                    NodeRecord {
                        last_heartbeat: now.saturating_sub(e.heartbeat_age),
                        state: e.state,
                        instance: e.instance,
                    },
                )
            })
            .collect();
        self.next_instance = state.next_instance;
        self.next_message = state.next_message;
        self.heartbeats_received = state.heartbeats_received;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEY: &[u8] = b"ctl-key";

    fn request(target: u64) -> InstanceRequest {
        InstanceRequest {
            image: ImageId::new(1),
            image_size: DataSize::from_megabytes(10),
            target,
            requirements: NodeRequirements::default(),
        }
    }

    fn busy_hb(node: u64, inst: InstanceId, t: u64) -> Heartbeat {
        Heartbeat {
            node: NodeId::new(node),
            state: PnaStateKind::Busy,
            instance: Some(inst),
            sent_at: SimTime::from_secs(t),
        }
    }

    fn idle_hb(node: u64, t: u64) -> Heartbeat {
        Heartbeat {
            node: NodeId::new(node),
            state: PnaStateKind::Idle,
            instance: None,
            sent_at: SimTime::from_secs(t),
        }
    }

    #[test]
    fn create_instance_broadcasts_signed_wakeup() {
        let mut c = Controller::new(KEY, ControllerPolicy::default());
        let (id, out) = c.create_instance(request(100), SimTime::ZERO);
        assert_eq!(out.len(), 1);
        let ControllerOutput::Broadcast(signed) = &out[0] else {
            panic!("expected broadcast")
        };
        signed.verify(&MessageAuthenticator::from_key(KEY)).unwrap();
        let ControlMessage::Wakeup(w) = signed.message else {
            panic!("expected wakeup")
        };
        assert_eq!(w.instance, id);
        // Pool estimate falls back to assumed audience (10k): p = 100/10k.
        assert!((w.probability.value() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn membership_tracks_heartbeats() {
        let mut c = Controller::new(KEY, ControllerPolicy::default());
        let (id, _) = c.create_instance(request(2), SimTime::ZERO);
        assert!(c
            .on_heartbeat(busy_hb(1, id, 1), SimTime::from_secs(1))
            .is_empty());
        assert_eq!(c.instance_size(id), 1);
        assert_eq!(c.instance(id).unwrap().status, InstanceStatus::Forming);
        c.on_heartbeat(busy_hb(2, id, 1), SimTime::from_secs(1));
        assert_eq!(c.instance_size(id), 2);
        assert_eq!(c.instance(id).unwrap().status, InstanceStatus::Active);
    }

    #[test]
    fn excess_members_are_reset() {
        let mut c = Controller::new(KEY, ControllerPolicy::default());
        let (id, _) = c.create_instance(request(1), SimTime::ZERO);
        c.on_heartbeat(busy_hb(1, id, 1), SimTime::from_secs(1));
        let out = c.on_heartbeat(busy_hb(2, id, 1), SimTime::from_secs(1));
        assert_eq!(
            out,
            vec![ControllerOutput::DirectReset {
                node: NodeId::new(2),
                instance: id
            }]
        );
        assert_eq!(c.instance_size(id), 1);
        // An existing member is NOT reset.
        assert!(c
            .on_heartbeat(busy_hb(1, id, 2), SimTime::from_secs(2))
            .is_empty());
    }

    #[test]
    fn instance_transition_heartbeat_fires_node_lost() {
        let mut c = Controller::new(KEY, ControllerPolicy::default());
        let (a, _) = c.create_instance(request(8), SimTime::ZERO);
        let (b, _) = c.create_instance(request(8), SimTime::ZERO);
        c.on_heartbeat(busy_hb(5, a, 1), SimTime::from_secs(1));
        // The node reappears claiming a different instance (PNA crash and
        // reboot inside the miss budget): its task in `a` must be
        // requeued now, not when the loss deadline expires.
        let out = c.on_heartbeat(busy_hb(5, b, 2), SimTime::from_secs(2));
        assert_eq!(
            out,
            vec![ControllerOutput::NodeLost {
                node: NodeId::new(5),
                instance: a
            }]
        );
        assert_eq!(c.instance_size(a), 0);
        assert_eq!(c.instance_size(b), 1);
    }

    #[test]
    fn dismantle_then_straggler_reset() {
        let mut c = Controller::new(KEY, ControllerPolicy::default());
        let (id, _) = c.create_instance(request(1), SimTime::ZERO);
        c.on_heartbeat(busy_hb(1, id, 1), SimTime::from_secs(1));
        let out = c.dismantle(id).unwrap();
        assert!(matches!(
            &out[0],
            ControllerOutput::Broadcast(SignedMessage {
                message: ControlMessage::Reset(_),
                ..
            })
        ));
        // A straggler still claiming membership gets a direct reset.
        let out = c.on_heartbeat(busy_hb(1, id, 10), SimTime::from_secs(10));
        assert_eq!(
            out,
            vec![ControllerOutput::DirectReset {
                node: NodeId::new(1),
                instance: id
            }]
        );
    }

    #[test]
    fn dismantle_unknown_instance_errors() {
        let mut c = Controller::new(KEY, ControllerPolicy::default());
        assert!(matches!(
            c.dismantle(InstanceId::new(42)),
            Err(OddciError::UnknownInstance(_))
        ));
    }

    #[test]
    fn lost_nodes_are_detected_and_reported() {
        let mut c = Controller::new(KEY, ControllerPolicy::default());
        let (id, _) = c.create_instance(request(5), SimTime::ZERO);
        c.on_heartbeat(busy_hb(1, id, 0), SimTime::ZERO);
        // Default policy: 60 s interval × 3 misses = 180 s deadline.
        let out = c.tick(SimTime::from_secs(181));
        assert!(out.contains(&ControllerOutput::NodeLost {
            node: NodeId::new(1),
            instance: id
        }));
        assert_eq!(c.instance_size(id), 0);
        assert_eq!(c.known_nodes(), 0);
    }

    #[test]
    fn under_target_instances_are_recomposed() {
        let mut c = Controller::new(KEY, ControllerPolicy::default());
        let (id, _) = c.create_instance(request(10), SimTime::ZERO);
        // Only 5 of 10 joined.
        for n in 0..5 {
            c.on_heartbeat(busy_hb(n, id, 1), SimTime::from_secs(1));
        }
        // Some idle listeners are known too.
        for n in 100..200 {
            c.on_heartbeat(idle_hb(n, 1), SimTime::from_secs(1));
        }
        let out = c.tick(SimTime::from_secs(2));
        let wakeups: Vec<_> = out
            .iter()
            .filter_map(|o| match o {
                ControllerOutput::Broadcast(SignedMessage {
                    message: ControlMessage::Wakeup(w),
                    ..
                }) => Some(w),
                _ => None,
            })
            .collect();
        assert_eq!(wakeups.len(), 1);
        // Deficit 5 over an idle pool of 100 → p = 0.05.
        assert!((wakeups[0].probability.value() - 0.05).abs() < 1e-9);
        assert_eq!(c.instance(id).unwrap().wakeups_sent, 2);
    }

    #[test]
    fn recompose_gate_waits_for_live_idle_nodes() {
        let policy = ControllerPolicy {
            recompose_requires_idle: true,
            ..Default::default()
        };
        let mut c = Controller::new(KEY, policy);
        let (id, _) = c.create_instance(request(4), SimTime::ZERO);
        // Under target, but no idle node has ever heartbeated: deferred.
        c.on_heartbeat(busy_hb(1, id, 1), SimTime::from_secs(1));
        assert!(c.tick(SimTime::from_secs(2)).is_empty());
        // An idle listener appears: recomposition resumes.
        c.on_heartbeat(idle_hb(7, 3), SimTime::from_secs(3));
        let out = c.tick(SimTime::from_secs(4));
        assert!(
            out.iter().any(|o| matches!(
                o,
                ControllerOutput::Broadcast(SignedMessage {
                    message: ControlMessage::Wakeup(_),
                    ..
                })
            )),
            "{out:?}"
        );
    }

    #[test]
    fn at_target_instances_are_left_alone() {
        let mut c = Controller::new(KEY, ControllerPolicy::default());
        let (id, _) = c.create_instance(request(2), SimTime::ZERO);
        c.on_heartbeat(busy_hb(1, id, 1), SimTime::from_secs(1));
        c.on_heartbeat(busy_hb(2, id, 1), SimTime::from_secs(1));
        let out = c.tick(SimTime::from_secs(2));
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn dismantled_instances_are_never_recomposed() {
        let mut c = Controller::new(KEY, ControllerPolicy::default());
        let (id, _) = c.create_instance(request(10), SimTime::ZERO);
        c.dismantle(id).unwrap();
        assert!(c.tick(SimTime::from_secs(5)).is_empty());
    }

    #[test]
    fn resize_updates_target() {
        let mut c = Controller::new(KEY, ControllerPolicy::default());
        let (id, _) = c.create_instance(request(1), SimTime::ZERO);
        c.on_heartbeat(busy_hb(1, id, 1), SimTime::from_secs(1));
        c.resize(id, 2).unwrap();
        // A second member is now admitted instead of reset.
        assert!(c
            .on_heartbeat(busy_hb(2, id, 2), SimTime::from_secs(2))
            .is_empty());
        assert_eq!(c.instance_size(id), 2);
        // Resizing a dismantled instance fails.
        c.dismantle(id).unwrap();
        assert!(c.resize(id, 5).is_err());
    }

    #[test]
    fn shrink_trims_existing_members_via_heartbeats() {
        let mut c = Controller::new(KEY, ControllerPolicy::default());
        let (id, _) = c.create_instance(request(3), SimTime::ZERO);
        for n in 1..=3 {
            c.on_heartbeat(busy_hb(n, id, 1), SimTime::from_secs(1));
        }
        assert_eq!(c.instance_size(id), 3);
        c.resize(id, 1).unwrap();
        // Next heartbeats from members trim the excess one by one.
        let out = c.on_heartbeat(busy_hb(1, id, 2), SimTime::from_secs(2));
        assert_eq!(
            out,
            vec![ControllerOutput::DirectReset {
                node: NodeId::new(1),
                instance: id
            }]
        );
        let out = c.on_heartbeat(busy_hb(2, id, 2), SimTime::from_secs(2));
        assert_eq!(out.len(), 1);
        assert_eq!(c.instance_size(id), 1);
        // The survivor is left alone at exactly the target.
        assert!(c
            .on_heartbeat(busy_hb(3, id, 3), SimTime::from_secs(3))
            .is_empty());
        assert_eq!(c.instance_size(id), 1);
    }

    #[test]
    fn revoke_members_evicts_everyone_and_recomposes() {
        let mut c = Controller::new(KEY, ControllerPolicy::default());
        let (id, _) = c.create_instance(request(3), SimTime::ZERO);
        for n in 1..=3 {
            c.on_heartbeat(busy_hb(n, id, 1), SimTime::from_secs(1));
        }
        assert_eq!(c.instance(id).unwrap().status, InstanceStatus::Active);
        let out = c.revoke_members(id).unwrap();
        // Every member is reported lost (task requeue) and reset (to idle).
        for n in 1..=3u64 {
            assert!(out.contains(&ControllerOutput::NodeLost {
                node: NodeId::new(n),
                instance: id
            }));
            assert!(out.contains(&ControllerOutput::DirectReset {
                node: NodeId::new(n),
                instance: id
            }));
        }
        assert_eq!(c.instance_size(id), 0);
        assert_eq!(c.instance(id).unwrap().status, InstanceStatus::Forming);
        // The evicted nodes are idle again, so the next tick recomposes.
        let out = c.tick(SimTime::from_secs(2));
        assert!(
            out.iter().any(|o| matches!(
                o,
                ControllerOutput::Broadcast(SignedMessage {
                    message: ControlMessage::Wakeup(_),
                    ..
                })
            )),
            "{out:?}"
        );
        // Revoking a dismantled instance is an error, as is an unknown id.
        c.dismantle(id).unwrap();
        assert!(c.revoke_members(id).is_err());
        assert!(c.revoke_members(InstanceId::new(99)).is_err());
    }

    #[test]
    fn idle_heartbeat_clears_membership() {
        let mut c = Controller::new(KEY, ControllerPolicy::default());
        let (id, _) = c.create_instance(request(5), SimTime::ZERO);
        c.on_heartbeat(busy_hb(1, id, 1), SimTime::from_secs(1));
        assert_eq!(c.instance_size(id), 1);
        c.on_heartbeat(idle_hb(1, 2), SimTime::from_secs(2));
        assert_eq!(c.instance_size(id), 0);
    }

    #[test]
    fn idle_pool_estimate_uses_live_idle_nodes() {
        let mut c = Controller::new(KEY, ControllerPolicy::default());
        assert_eq!(
            c.idle_pool_estimate(SimTime::ZERO),
            10_000,
            "assumed audience fallback"
        );
        for n in 0..50 {
            c.on_heartbeat(idle_hb(n, 1), SimTime::from_secs(1));
        }
        assert_eq!(c.idle_pool_estimate(SimTime::from_secs(2)), 50);
        // Stale nodes fall out of the estimate.
        assert_eq!(c.idle_pool_estimate(SimTime::from_secs(10_000)), 0);
    }

    #[test]
    fn heartbeat_counter_increments() {
        let mut c = Controller::new(KEY, ControllerPolicy::default());
        c.on_heartbeat(idle_hb(1, 1), SimTime::from_secs(1));
        c.on_heartbeat(idle_hb(2, 1), SimTime::from_secs(1));
        assert_eq!(c.heartbeats_received, 2);
    }

    #[test]
    fn export_import_round_trips_state() {
        let mut c = Controller::new(KEY, ControllerPolicy::default());
        let (id, _) = c.create_instance(request(2), SimTime::ZERO);
        c.on_heartbeat(busy_hb(1, id, 1), SimTime::from_secs(1));
        c.on_heartbeat(busy_hb(2, id, 1), SimTime::from_secs(1));
        c.on_heartbeat(idle_hb(9, 2), SimTime::from_secs(2));
        let now = SimTime::from_secs(3);
        let state = c.export_state(now);

        let mut adopted = Controller::new(KEY, ControllerPolicy::default());
        adopted.import_state(state.clone(), now);
        // Same snapshot instant → byte-identical re-export.
        assert_eq!(adopted.export_state(now), state);
        assert_eq!(adopted.instance_size(id), 2);
        assert_eq!(adopted.known_nodes(), 3);
        assert_eq!(adopted.heartbeats_received, 3);
        // Message ids continue where the primary stopped: the first
        // post-adoption broadcast carries a *fresh* id, after the wakeup
        // (#0) the primary signed at create.
        let (_, out) = adopted.create_instance(request(1), now);
        let ControllerOutput::Broadcast(signed) = &out[0] else {
            panic!("expected broadcast")
        };
        let ControlMessage::Wakeup(w) = signed.message else {
            panic!("expected wakeup")
        };
        assert_eq!(w.id, MessageId::new(1));
    }

    /// Two Controllers that split a fleet — ids `{0, 2, 4}` and
    /// `{1, 3, 5, 7}`, half the target each — fold into one Controller
    /// over all of it that signs past every id either signed.
    #[test]
    fn fold_merges_split_controllers_into_one() {
        let id = InstanceId::new(0);
        let half = |first: u64, next_message: u64, status| ControllerState {
            instances: vec![InstanceExport {
                id,
                request: request(3),
                status,
                members: vec![NodeId::new(first), NodeId::new(first + 2)],
                wakeups_sent: 2,
            }],
            registry: [first, first + 2]
                .map(|n| NodeExport {
                    node: NodeId::new(n),
                    heartbeat_age: SimDuration::from_secs(1),
                    state: PnaStateKind::Busy,
                    instance: Some(id),
                })
                .to_vec(),
            next_instance: 1,
            next_message,
            message_stride: 2,
            heartbeats_received: 10,
        };
        let folded = ControllerState::fold([
            half(0, 6, InstanceStatus::Active),
            half(1, 9, InstanceStatus::Forming),
        ]);
        assert_eq!(folded.instances.len(), 1);
        let inst = &folded.instances[0];
        assert_eq!(inst.members, (0..4).map(NodeId::new).collect::<Vec<_>>());
        assert_eq!(inst.request.target, 6);
        assert_eq!(inst.wakeups_sent, 4);
        assert_eq!(inst.status, InstanceStatus::Active);
        assert_eq!(folded.registry.len(), 4);
        assert_eq!((folded.next_instance, folded.next_message), (1, 9));
        assert_eq!((folded.message_stride, folded.heartbeats_received), (1, 20));

        let mut c = Controller::new(KEY, ControllerPolicy::default());
        c.import_state(folded, SimTime::from_secs(2));
        assert_eq!(c.instance_size(id), 4);
        let (_, out) = c.create_instance(request(1), SimTime::from_secs(2));
        let ControllerOutput::Broadcast(signed) = &out[0] else {
            panic!("expected broadcast")
        };
        assert_eq!(signed.message.id(), MessageId::new(9));
    }

    #[test]
    fn import_rebases_heartbeat_ages_onto_new_clock() {
        let mut c = Controller::new(KEY, ControllerPolicy::default());
        let (id, _) = c.create_instance(request(1), SimTime::ZERO);
        // Heartbeat at t=100s, snapshot at t=150s: age 50s.
        c.on_heartbeat(busy_hb(1, id, 100), SimTime::from_secs(100));
        let state = c.export_state(SimTime::from_secs(150));

        // Standby's clock reads only 60s when it adopts.
        let mut adopted = Controller::new(KEY, ControllerPolicy::default());
        adopted.import_state(state, SimTime::from_secs(60));
        // Node is 50s stale on the standby clock — inside the default 180s
        // deadline, so it survives the first tick...
        assert!(adopted.tick(SimTime::from_secs(61)).is_empty());
        assert_eq!(adopted.instance_size(id), 1);
        // ...and is lost once the rebased age crosses the deadline.
        let out = adopted.tick(SimTime::from_secs(191));
        assert!(out.contains(&ControllerOutput::NodeLost {
            node: NodeId::new(1),
            instance: id
        }));
    }
}
