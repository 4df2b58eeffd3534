//! Control-plane message types and their authenticated envelope.
//!
//! §3.2: the Controller broadcasts *wakeup* messages (carrying the image,
//! a node-requirements filter and the probability gate) and *reset*
//! messages (destroying an instance). PNAs accept only messages signed by
//! their associated Controller. Heartbeats flow the other way over the
//! direct channels.

use oddci_crypto::{MessageAuthenticator, Tag};
use oddci_types::{
    DataSize, ImageId, InstanceId, MessageId, NodeId, OddciError, Probability, Result, SimTime,
};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Capability requirements a node must meet to join an instance (§3.2:
/// *"the PNA assesses its own compliance with the requirements present in
/// the message"*).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct NodeRequirements {
    /// Minimum free memory for the DVE + image.
    pub min_memory: DataSize,
    /// Whether nodes currently in active TV use may join (standby-only
    /// instances avoid degrading the viewer experience and run 1.65×
    /// faster).
    pub standby_only: bool,
}

/// The wakeup control message creating or growing an instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WakeupMessage {
    /// Unique message id (deduplication and tracing).
    pub id: MessageId,
    /// Instance being created or recomposed.
    pub instance: InstanceId,
    /// Application image carried in the carousel alongside this message.
    pub image: ImageId,
    /// Size of that image (drives acquisition latency).
    pub image_size: DataSize,
    /// Probability with which an idle, compliant PNA handles the message.
    pub probability: Probability,
    /// Node filter.
    pub requirements: NodeRequirements,
}

/// The reset control message destroying an instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResetMessage {
    /// Unique message id.
    pub id: MessageId,
    /// Instance to dismantle. PNAs not in this instance ignore the message.
    pub instance: InstanceId,
}

/// Any broadcast control message.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ControlMessage {
    /// Create/grow an instance.
    Wakeup(WakeupMessage),
    /// Destroy an instance.
    Reset(ResetMessage),
}

impl ControlMessage {
    /// The message id.
    pub fn id(&self) -> MessageId {
        match self {
            ControlMessage::Wakeup(w) => w.id,
            ControlMessage::Reset(r) => r.id,
        }
    }

    /// The instance this message concerns.
    pub fn instance(&self) -> InstanceId {
        match self {
            ControlMessage::Wakeup(w) => w.instance,
            ControlMessage::Reset(r) => r.instance,
        }
    }

    /// Canonical byte encoding for signing. Field order is fixed and all
    /// integers are little-endian, so Controller and PNA always agree. The
    /// bytes are built on the stack: signing and verifying allocate nothing.
    pub(crate) fn canonical_bytes(&self) -> CanonicalBytes {
        let mut out = CanonicalBytes {
            buf: [0; CanonicalBytes::MAX_LEN],
            len: 0,
        };
        match self {
            ControlMessage::Wakeup(w) => {
                out.put(&[0x01]);
                out.put(&w.id.raw().to_le_bytes());
                out.put(&w.instance.raw().to_le_bytes());
                out.put(&w.image.raw().to_le_bytes());
                out.put(&w.image_size.bits().to_le_bytes());
                out.put(&w.probability.value().to_le_bytes());
                out.put(&w.requirements.min_memory.bits().to_le_bytes());
                out.put(&[w.requirements.standby_only as u8]);
            }
            ControlMessage::Reset(r) => {
                out.put(&[0x02]);
                out.put(&r.id.raw().to_le_bytes());
                out.put(&r.instance.raw().to_le_bytes());
            }
        }
        out
    }
}

/// A control message's canonical bytes (`ControlMessage::canonical_bytes`),
/// held inline; dereferences to the encoded slice. Bytes past the end
/// stay zero, so the derived equality and hash are the slices'.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CanonicalBytes {
    buf: [u8; CanonicalBytes::MAX_LEN],
    len: usize,
}

impl CanonicalBytes {
    /// The longest encoding, a wakeup's: a kind byte, six 8-byte fields
    /// and a flag byte.
    const MAX_LEN: usize = 50;

    fn put(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }
}

impl std::ops::Deref for CanonicalBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

/// A control message plus its authentication tag — what actually rides the
/// carousel's `configuration` file.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SignedMessage {
    /// The message.
    pub message: ControlMessage,
    /// HMAC tag over `ControlMessage::canonical_bytes`.
    pub tag: Tag,
}

impl SignedMessage {
    /// Signs `message` with the Controller's authenticator.
    pub fn sign(message: ControlMessage, auth: &MessageAuthenticator) -> Self {
        let tag = auth.sign(&message.canonical_bytes());
        SignedMessage { message, tag }
    }

    /// Verifies the tag with the PNA's authenticator.
    pub fn verify(&self, auth: &MessageAuthenticator) -> Result<()> {
        if auth.verify(&self.message.canonical_bytes(), &self.tag) {
            Ok(())
        } else {
            Err(OddciError::BadSignature {
                context: format!("control message {}", self.message.id()),
            })
        }
    }
}

/// The messages that passed [`SignedMessage::verify`] under one key, for
/// a population of agents that all read the same aired messages.
///
/// Verifying is a pure function of the key, the canonical bytes and the
/// tag. So each distinct valid (bytes, tag) is verified once, by a real
/// `verify` call, and every later read of the same bytes and tag under the
/// same key passes at once. Anything else goes to the real `verify`: a
/// message with any other byte or tag bit, a read under another key, and
/// every read of a message that failed. Only valid messages are kept, so
/// hostile bytes cannot grow the memo.
#[derive(Debug)]
pub struct VerifyMemo {
    auth: MessageAuthenticator,
    valid: HashSet<(CanonicalBytes, Tag)>,
    verifies: u64,
}

impl VerifyMemo {
    /// An empty memo for messages checked under `auth`'s key.
    pub fn new(auth: MessageAuthenticator) -> Self {
        VerifyMemo {
            auth,
            valid: HashSet::new(),
            verifies: 0,
        }
    }

    /// [`SignedMessage::verify`] of `signed` under `auth`.
    pub fn verify(&mut self, signed: &SignedMessage, auth: &MessageAuthenticator) -> Result<()> {
        let key = (signed.message.canonical_bytes(), signed.tag);
        let ours = auth.same_key(&self.auth);
        if ours && self.valid.contains(&key) {
            return Ok(());
        }
        self.verifies += 1;
        signed.verify(auth)?;
        if ours {
            self.valid.insert(key);
        }
        Ok(())
    }

    /// The real `verify` calls made so far (the memo's tests count them).
    #[cfg(test)]
    pub(crate) fn verifies(&self) -> u64 {
        self.verifies
    }
}

/// The PNA state carried inside heartbeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PnaStateKind {
    /// Listening, not part of any instance.
    Idle,
    /// Executing the image of the carried instance.
    Busy,
}

/// A heartbeat message (§3.2): PNA state and current instance membership,
/// sent periodically over the direct channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Heartbeat {
    /// Sender.
    pub node: NodeId,
    /// Idle or busy.
    pub state: PnaStateKind,
    /// Instance the node currently belongs to, if busy.
    pub instance: Option<InstanceId>,
    /// Send timestamp (sender clock; the simulation has one global clock).
    pub sent_at: SimTime,
}

/// The Controller's possible reply to a heartbeat: a direct-channel reset
/// for a single node (§3.2: instance downsizing "replying heartbeat
/// messages with a reset command").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HeartbeatReply {
    /// Nothing to do.
    Ack,
    /// Leave `instance` and destroy the DVE.
    Reset(InstanceId),
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wakeup() -> ControlMessage {
        ControlMessage::Wakeup(WakeupMessage {
            id: MessageId::new(1),
            instance: InstanceId::new(2),
            image: ImageId::new(3),
            image_size: DataSize::from_megabytes(10),
            probability: Probability::new(0.25),
            requirements: NodeRequirements {
                min_memory: DataSize::from_megabytes(32),
                standby_only: true,
            },
        })
    }

    #[test]
    fn sign_verify_round_trip() {
        let auth = MessageAuthenticator::from_key(b"controller-key");
        let signed = SignedMessage::sign(wakeup(), &auth);
        assert!(signed.verify(&auth).is_ok());
    }

    #[test]
    fn foreign_controller_is_rejected() {
        let ours = MessageAuthenticator::from_key(b"controller-key");
        let theirs = MessageAuthenticator::from_key(b"rogue-key");
        let signed = SignedMessage::sign(wakeup(), &theirs);
        let err = signed.verify(&ours).unwrap_err();
        assert!(err.to_string().contains("msg-000001"));
    }

    #[test]
    fn tampering_any_field_breaks_the_tag() {
        let auth = MessageAuthenticator::from_key(b"controller-key");
        let mut signed = SignedMessage::sign(wakeup(), &auth);
        if let ControlMessage::Wakeup(w) = &mut signed.message {
            w.probability = Probability::new(1.0); // boost acceptance
        }
        assert!(signed.verify(&auth).is_err());
    }

    #[test]
    fn canonical_bytes_distinguish_message_kinds() {
        let reset = ControlMessage::Reset(ResetMessage {
            id: MessageId::new(1),
            instance: InstanceId::new(2),
        });
        assert_ne!(wakeup().canonical_bytes(), reset.canonical_bytes());
        assert_eq!(reset.canonical_bytes()[0], 0x02);
    }

    #[test]
    fn canonical_bytes_are_deterministic() {
        assert_eq!(wakeup().canonical_bytes(), wakeup().canonical_bytes());
    }

    #[test]
    fn accessors() {
        let m = wakeup();
        assert_eq!(m.id(), MessageId::new(1));
        assert_eq!(m.instance(), InstanceId::new(2));
    }

    #[test]
    fn canonical_bytes_and_tags_are_pinned() {
        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }
        // A change to the encoding or to the MAC shows here.
        let auth = MessageAuthenticator::from_key(b"controller-key");
        let wakeup_bytes = concat!(
            "01",               // kind
            "0100000000000000", // id
            "0200000000000000", // instance
            "0300000000000000", // image
            "0000000500000000", // image size, bits
            "000000000000d03f", // probability 0.25
            "0000001000000000", // min memory, bits
            "01",               // standby only
        );
        let reset = ControlMessage::Reset(ResetMessage {
            id: MessageId::new(7),
            instance: InstanceId::new(2),
        });
        let reset_bytes = concat!("02", "0700000000000000", "0200000000000000");
        for (message, bytes, tag) in [
            (
                wakeup(),
                wakeup_bytes,
                "c56be1d99caa0609f3f2bf31e459cbf337ad4fabab88586ff3242691a684cb34",
            ),
            (
                reset,
                reset_bytes,
                "cd25b9ba20a47b545824ebead871650787191fd951eeeb65901b56575d8e10a6",
            ),
        ] {
            assert_eq!(hex(&message.canonical_bytes()), bytes);
            assert_eq!(hex(&SignedMessage::sign(message, &auth).tag), tag);
        }
    }
}
