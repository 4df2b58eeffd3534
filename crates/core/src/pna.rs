//! The Processing Node Agent — the resident trigger application (§3.2,
//! Figure 2; implemented as an Xlet in §4.3).
//!
//! The PNA is a small state machine: **idle** (listening) or **busy**
//! (hosting a DVE that executes an instance's image). It
//!
//! * verifies that control messages come from its associated Controller,
//! * deduplicates them (the carousel repeats the same message every cycle),
//! * applies the probability gate and the node-requirements filter to
//!   wakeup messages,
//! * creates/destroys the DVE, and
//! * produces heartbeats.
//!
//! It is deliberately independent of the event loop driving it: the same
//! type runs inside the discrete-event [`world`](crate::world) and inside
//! the thread-per-node live runtime.

use crate::messages::{
    ControlMessage, Heartbeat, NodeRequirements, PnaStateKind, SignedMessage, VerifyMemo,
    WakeupMessage,
};
use oddci_crypto::MessageAuthenticator;
use oddci_receiver::compute::UsageMode;
use oddci_receiver::dve::Dve;
use oddci_types::{DataSize, InstanceId, MessageId, NodeId, OddciError, Result, SimTime};
use rand::Rng;

/// Idle or hosting a DVE.
#[derive(Debug, Clone, PartialEq)]
pub enum PnaState {
    /// Listening for wakeup messages.
    Idle,
    /// Member of an instance, hosting its DVE.
    Busy(Dve),
}

/// What the host environment must do after the PNA handled an input.
#[derive(Debug, Clone, PartialEq)]
pub enum PnaAction {
    /// Nothing — message dropped (gate, busy, duplicate, bad signature,
    /// unmet requirements, or reset for someone else's instance).
    None,
    /// Wakeup accepted: start acquiring the image from the carousel and
    /// call [`Pna::image_ready`] when the acquisition completes.
    BeginAcquisition {
        /// Instance joined.
        instance: InstanceId,
        /// Image to fetch from the carousel.
        image: oddci_types::ImageId,
        /// Its size (determines acquisition latency).
        image_size: DataSize,
    },
    /// Reset handled: the DVE of `instance` was destroyed; the node is idle
    /// again.
    DveDestroyed {
        /// The instance that was dismantled.
        instance: InstanceId,
    },
}

/// Host facts the PNA checks wakeup requirements against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostInfo {
    /// Memory available for a DVE + image.
    pub free_memory: DataSize,
    /// Whether the box is actively rendering TV.
    pub usage: UsageMode,
}

/// Drop/accept counters, exposed for experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PnaCounters {
    /// Wakeups accepted (DVE created).
    pub accepted: u64,
    /// Wakeups dropped by the probability gate.
    pub gated: u64,
    /// Messages dropped because the PNA was busy.
    pub busy_drops: u64,
    /// Wakeups dropped because requirements were unmet.
    pub requirement_drops: u64,
    /// Messages with invalid signatures.
    pub bad_signatures: u64,
    /// Duplicate carousel passes ignored.
    pub duplicates: u64,
    /// Resets handled.
    pub resets: u64,
}

/// The agent itself. Laid out in field order: the id and state a
/// heartbeat reads come first.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct Pna {
    node: NodeId,
    state: PnaState,
    auth: MessageAuthenticator,
    /// Control-message ids already handled or consciously dropped this
    /// power cycle, for carousel-repeat deduplication.
    seen: std::collections::BTreeSet<MessageId>,
    /// Event counters.
    pub counters: PnaCounters,
}

impl Pna {
    /// Creates an idle PNA bound to `node`, trusting messages signed with
    /// `auth`'s key (the association with its Controller). Pass the key
    /// itself, or an authenticator that a whole population shares.
    pub fn new(node: NodeId, auth: impl Into<MessageAuthenticator>) -> Self {
        Pna {
            node,
            auth: auth.into(),
            state: PnaState::Idle,
            seen: std::collections::BTreeSet::new(),
            counters: PnaCounters::default(),
        }
    }

    /// Node identity.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current state.
    pub fn state(&self) -> &PnaState {
        &self.state
    }

    /// True when listening.
    pub fn is_idle(&self) -> bool {
        matches!(self.state, PnaState::Idle)
    }

    /// Instance this node currently belongs to.
    pub fn instance(&self) -> Option<InstanceId> {
        match &self.state {
            PnaState::Idle => None,
            PnaState::Busy(dve) => Some(dve.instance),
        }
    }

    /// Handles one control message read from the carousel.
    pub fn on_control_message<R: Rng + ?Sized>(
        &mut self,
        signed: &SignedMessage,
        host: HostInfo,
        rng: &mut R,
    ) -> PnaAction {
        self.on_control_message_with(signed, host, rng, None)
    }

    /// [`on_control_message`](Self::on_control_message), checking the tag
    /// through `memo` when one is given.
    pub fn on_control_message_with<R: Rng + ?Sized>(
        &mut self,
        signed: &SignedMessage,
        host: HostInfo,
        rng: &mut R,
        memo: Option<&mut VerifyMemo>,
    ) -> PnaAction {
        let verdict = match memo {
            Some(memo) => memo.verify(signed, &self.auth),
            None => signed.verify(&self.auth),
        };
        if verdict.is_err() {
            self.counters.bad_signatures += 1;
            return PnaAction::None;
        }
        // Carousel repetition: each message is considered exactly once per
        // power cycle.
        if !self.seen.insert(signed.message.id()) {
            self.counters.duplicates += 1;
            return PnaAction::None;
        }

        match signed.message {
            ControlMessage::Wakeup(w) => self.on_wakeup(w, host, rng),
            ControlMessage::Reset(r) => self.on_reset(r.instance),
        }
    }

    fn on_wakeup<R: Rng + ?Sized>(
        &mut self,
        w: WakeupMessage,
        host: HostInfo,
        rng: &mut R,
    ) -> PnaAction {
        // §3.2: "if the PNA is not idle, the message is simply dropped".
        if !self.is_idle() {
            self.counters.busy_drops += 1;
            return PnaAction::None;
        }
        if !meets(&w.requirements, host) {
            self.counters.requirement_drops += 1;
            return PnaAction::None;
        }
        // The probability gate.
        if !w.probability.sample(rng) {
            self.counters.gated += 1;
            return PnaAction::None;
        }
        self.counters.accepted += 1;
        self.state = PnaState::Busy(Dve::create(w.instance, w.image, w.image_size));
        PnaAction::BeginAcquisition {
            instance: w.instance,
            image: w.image,
            image_size: w.image_size,
        }
    }

    fn on_reset(&mut self, instance: InstanceId) -> PnaAction {
        match &mut self.state {
            PnaState::Busy(dve) if dve.instance == instance => {
                dve.destroy();
                self.state = PnaState::Idle;
                self.counters.resets += 1;
                PnaAction::DveDestroyed { instance }
            }
            // Idle PNAs and members of other instances ignore resets.
            _ => PnaAction::None,
        }
    }

    /// A single-node reset delivered over the direct channel (heartbeat
    /// reply). Returns true if the DVE was destroyed.
    pub fn on_direct_reset(&mut self, instance: InstanceId) -> bool {
        matches!(self.on_reset(instance), PnaAction::DveDestroyed { .. })
    }

    /// Marks the image acquisition complete; the DVE starts running.
    pub fn image_ready(&mut self) -> Result<()> {
        match &mut self.state {
            PnaState::Busy(dve) => dve.image_loaded(),
            PnaState::Idle => Err(OddciError::InvalidState {
                operation: "image_ready",
                state: "Idle".into(),
            }),
        }
    }

    /// Records a completed task in the DVE.
    pub fn task_done(&mut self) -> Result<()> {
        match &mut self.state {
            PnaState::Busy(dve) => dve.task_done(),
            PnaState::Idle => Err(OddciError::InvalidState {
                operation: "task_done",
                state: "Idle".into(),
            }),
        }
    }

    /// The receiver was switched off: the DVE dies with it and the
    /// dedup memory clears (a fresh power cycle re-reads the carousel).
    pub fn power_off(&mut self) {
        if let PnaState::Busy(dve) = &mut self.state {
            dve.destroy();
        }
        self.state = PnaState::Idle;
        self.seen.clear();
    }

    /// Builds the periodic heartbeat (§3.2: state + instance membership).
    pub fn heartbeat(&self, now: SimTime) -> Heartbeat {
        Heartbeat {
            node: self.node,
            state: if self.is_idle() {
                PnaStateKind::Idle
            } else {
                PnaStateKind::Busy
            },
            instance: self.instance(),
            sent_at: now,
        }
    }
}

#[cfg(test)]
impl Pna {
    /// Where the fields a heartbeat reads lie in an agent: (offset, size).
    pub(crate) fn heartbeat_fields() -> [(usize, usize); 2] {
        use std::mem::{offset_of, size_of};
        [
            (offset_of!(Pna, node), size_of::<NodeId>()),
            (offset_of!(Pna, state), size_of::<PnaState>()),
        ]
    }
}

fn meets(req: &NodeRequirements, host: HostInfo) -> bool {
    if host.free_memory < req.min_memory {
        return false;
    }
    if req.standby_only && host.usage == UsageMode::InUse {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use oddci_types::{ImageId, Probability};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const KEY: &[u8] = b"test-controller-key";

    fn auth() -> MessageAuthenticator {
        MessageAuthenticator::from_key(KEY)
    }

    fn host() -> HostInfo {
        HostInfo {
            free_memory: DataSize::from_megabytes(128),
            usage: UsageMode::Standby,
        }
    }

    fn wakeup(id: u64, p: f64) -> SignedMessage {
        SignedMessage::sign(
            ControlMessage::Wakeup(WakeupMessage {
                id: MessageId::new(id),
                instance: InstanceId::new(1),
                image: ImageId::new(1),
                image_size: DataSize::from_megabytes(10),
                probability: Probability::new(p),
                requirements: NodeRequirements::default(),
            }),
            &auth(),
        )
    }

    fn reset(id: u64, instance: u64) -> SignedMessage {
        SignedMessage::sign(
            ControlMessage::Reset(crate::messages::ResetMessage {
                id: MessageId::new(id),
                instance: InstanceId::new(instance),
            }),
            &auth(),
        )
    }

    #[test]
    fn accepts_wakeup_and_runs_lifecycle() {
        let mut pna = Pna::new(NodeId::new(1), KEY);
        let mut rng = SmallRng::seed_from_u64(1);
        let action = pna.on_control_message(&wakeup(1, 1.0), host(), &mut rng);
        assert!(matches!(action, PnaAction::BeginAcquisition { .. }));
        assert!(!pna.is_idle());
        pna.image_ready().unwrap();
        pna.task_done().unwrap();
        assert_eq!(pna.counters.accepted, 1);
    }

    #[test]
    fn rejects_foreign_signature() {
        let mut pna = Pna::new(NodeId::new(1), KEY);
        let mut rng = SmallRng::seed_from_u64(1);
        let rogue = MessageAuthenticator::from_key(b"rogue");
        let msg = SignedMessage::sign(
            ControlMessage::Reset(crate::messages::ResetMessage {
                id: MessageId::new(9),
                instance: InstanceId::new(1),
            }),
            &rogue,
        );
        assert_eq!(
            pna.on_control_message(&msg, host(), &mut rng),
            PnaAction::None
        );
        assert_eq!(pna.counters.bad_signatures, 1);
    }

    #[test]
    fn the_memo_passes_only_what_the_real_verify_passes() {
        let mut memo = VerifyMemo::new(auth());
        let mut rng = SmallRng::seed_from_u64(1);
        let valid = wakeup(1, 1.0);
        for node in 0..3 {
            let mut pna = Pna::new(NodeId::new(node), KEY);
            let action = pna.on_control_message_with(&valid, host(), &mut rng, Some(&mut memo));
            assert!(matches!(action, PnaAction::BeginAcquisition { .. }));
        }
        assert_eq!(memo.verifies(), 1, "one verify for the valid bytes");
        // Forgeries of the same message after it passed: a memo keyed by
        // message id alone would pass them too.
        let mut flipped = valid;
        flipped.tag[31] ^= 0x01;
        let foreign = SignedMessage::sign(valid.message, &MessageAuthenticator::from_key(b"rogue"));
        for (i, forged) in [flipped, foreign, flipped].iter().enumerate() {
            let mut pna = Pna::new(NodeId::new(10 + i as u64), KEY);
            let action = pna.on_control_message_with(forged, host(), &mut rng, Some(&mut memo));
            assert_eq!(action, PnaAction::None);
            assert_eq!(pna.counters.bad_signatures, 1);
            assert_eq!(memo.verifies(), i as u64 + 2, "each forgery reaches verify");
        }
        // An agent under another key gets no verdict from this key's memo.
        let mut rogue = Pna::new(NodeId::new(20), b"rogue".as_slice());
        let action = rogue.on_control_message_with(&valid, host(), &mut rng, Some(&mut memo));
        assert_eq!(action, PnaAction::None);
        assert_eq!(rogue.counters.bad_signatures, 1);
        assert_eq!(memo.verifies(), 5);
    }

    #[test]
    fn busy_pna_drops_wakeups() {
        let mut pna = Pna::new(NodeId::new(1), KEY);
        let mut rng = SmallRng::seed_from_u64(1);
        pna.on_control_message(&wakeup(1, 1.0), host(), &mut rng);
        let action = pna.on_control_message(&wakeup(2, 1.0), host(), &mut rng);
        assert_eq!(action, PnaAction::None);
        assert_eq!(pna.counters.busy_drops, 1);
    }

    #[test]
    fn duplicate_carousel_passes_are_ignored() {
        let mut pna = Pna::new(NodeId::new(1), KEY);
        let mut rng = SmallRng::seed_from_u64(1);
        // Gate p=0 drops the message...
        let w = wakeup(5, 0.0);
        assert_eq!(
            pna.on_control_message(&w, host(), &mut rng),
            PnaAction::None
        );
        assert_eq!(pna.counters.gated, 1);
        // ...and the next pass of the SAME message id is not re-sampled.
        assert_eq!(
            pna.on_control_message(&w, host(), &mut rng),
            PnaAction::None
        );
        assert_eq!(pna.counters.duplicates, 1);
        assert_eq!(pna.counters.gated, 1);
    }

    #[test]
    fn probability_gate_rate() {
        let mut accepted = 0;
        for node in 0..4000 {
            let mut pna = Pna::new(NodeId::new(node), KEY);
            let mut rng = SmallRng::seed_from_u64(node ^ 0xabcdef);
            if !matches!(
                pna.on_control_message(&wakeup(1, 0.25), host(), &mut rng),
                PnaAction::None
            ) {
                accepted += 1;
            }
        }
        // 4000 nodes at p = 0.25: expect ~1000, allow ±4 sigma (~110).
        assert!((890..1110).contains(&accepted), "accepted={accepted}");
    }

    #[test]
    fn requirements_filter() {
        let mut rng = SmallRng::seed_from_u64(1);
        let msg = SignedMessage::sign(
            ControlMessage::Wakeup(WakeupMessage {
                id: MessageId::new(1),
                instance: InstanceId::new(1),
                image: ImageId::new(1),
                image_size: DataSize::from_megabytes(10),
                probability: Probability::ALWAYS,
                requirements: NodeRequirements {
                    min_memory: DataSize::from_megabytes(64),
                    standby_only: true,
                },
            }),
            &auth(),
        );

        // Too little memory.
        let mut pna = Pna::new(NodeId::new(1), KEY);
        let poor = HostInfo {
            free_memory: DataSize::from_megabytes(16),
            usage: UsageMode::Standby,
        };
        assert_eq!(
            pna.on_control_message(&msg, poor, &mut rng),
            PnaAction::None
        );
        assert_eq!(pna.counters.requirement_drops, 1);

        // In use when standby-only was demanded.
        let mut pna = Pna::new(NodeId::new(2), KEY);
        let watching = HostInfo {
            free_memory: DataSize::from_megabytes(128),
            usage: UsageMode::InUse,
        };
        assert_eq!(
            pna.on_control_message(&msg, watching, &mut rng),
            PnaAction::None
        );

        // Compliant.
        let mut pna = Pna::new(NodeId::new(3), KEY);
        assert!(matches!(
            pna.on_control_message(&msg, host(), &mut rng),
            PnaAction::BeginAcquisition { .. }
        ));
    }

    #[test]
    fn reset_destroys_only_matching_instance() {
        let mut pna = Pna::new(NodeId::new(1), KEY);
        let mut rng = SmallRng::seed_from_u64(1);
        pna.on_control_message(&wakeup(1, 1.0), host(), &mut rng);
        // Reset for a different instance: ignored.
        assert_eq!(
            pna.on_control_message(&reset(2, 99), host(), &mut rng),
            PnaAction::None
        );
        assert!(!pna.is_idle());
        // Reset for ours: DVE destroyed.
        let action = pna.on_control_message(&reset(3, 1), host(), &mut rng);
        assert_eq!(
            action,
            PnaAction::DveDestroyed {
                instance: InstanceId::new(1)
            }
        );
        assert!(pna.is_idle());
    }

    #[test]
    fn direct_reset_path() {
        let mut pna = Pna::new(NodeId::new(1), KEY);
        let mut rng = SmallRng::seed_from_u64(1);
        pna.on_control_message(&wakeup(1, 1.0), host(), &mut rng);
        assert!(!pna.on_direct_reset(InstanceId::new(5)));
        assert!(pna.on_direct_reset(InstanceId::new(1)));
        assert!(pna.is_idle());
    }

    #[test]
    fn power_off_clears_state_and_dedup() {
        let mut pna = Pna::new(NodeId::new(1), KEY);
        let mut rng = SmallRng::seed_from_u64(1);
        pna.on_control_message(&wakeup(1, 1.0), host(), &mut rng);
        pna.power_off();
        assert!(pna.is_idle());
        // The same message id is reconsidered after a power cycle.
        assert!(matches!(
            pna.on_control_message(&wakeup(1, 1.0), host(), &mut rng),
            PnaAction::BeginAcquisition { .. }
        ));
    }

    #[test]
    fn heartbeat_reflects_state() {
        let mut pna = Pna::new(NodeId::new(7), KEY);
        let mut rng = SmallRng::seed_from_u64(1);
        let hb = pna.heartbeat(SimTime::from_secs(1));
        assert_eq!(hb.state, PnaStateKind::Idle);
        assert_eq!(hb.instance, None);
        assert_eq!(hb.node, NodeId::new(7));

        pna.on_control_message(&wakeup(1, 1.0), host(), &mut rng);
        let hb = pna.heartbeat(SimTime::from_secs(2));
        assert_eq!(hb.state, PnaStateKind::Busy);
        assert_eq!(hb.instance, Some(InstanceId::new(1)));
    }

    #[test]
    fn lifecycle_errors() {
        let mut pna = Pna::new(NodeId::new(1), KEY);
        assert!(pna.image_ready().is_err());
        assert!(pna.task_done().is_err());
    }

    #[test]
    fn debug_does_not_print_the_controller_key() {
        let shared = auth();
        let pna = Pna::new(NodeId::new(1), shared.clone());
        let shown = format!("{pna:?}");
        assert!(shown.contains(&format!("{shared:?}")), "{shown}");
        assert!(!shown.contains("test-controller-key"), "{shown}");
        assert!(!shown.contains(&format!("{KEY:?}")), "{shown}");
        let by_key = format!("{:?}", Pna::new(NodeId::new(1), KEY));
        assert_eq!(by_key, shown);
    }
}
