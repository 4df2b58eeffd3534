// One `unsafe` block, allowed on the function that holds it: the call of
// the SHA-256 hardware kernel after the CPU has been checked for it.
#![deny(unsafe_code)]

//! Message authentication for OddCI control messages.
//!
//! §3.2 of the paper: *"The PNA are configured to only accept messages
//! broadcast by their associated Controller (this can be easily achieved
//! through a digital signature mechanism)."* The paper does not prescribe a
//! scheme; this reproduction uses **HMAC-SHA-256** with a key shared between
//! the Controller and the PNA firmware. Both primitives are implemented
//! from scratch (no external crypto crates are in the approved dependency
//! set) and validated against the published FIPS 180-4 / RFC 4231 vectors.
//!
//! The MAC gives the property the architecture relies on — a PNA drops any
//! control message not produced by its associated Controller — which is all
//! the simulation and the live runtime need. A production deployment would
//! use an asymmetric signature so that receivers hold no signing capability;
//! the API (`sign` / `verify` on [`MessageAuthenticator`]) is shaped so that
//! swap is a drop-in.
//!
//! # Example
//!
//! ```
//! use oddci_crypto::MessageAuthenticator;
//!
//! let controller = MessageAuthenticator::from_key(b"shared-controller-key");
//! let tag = controller.sign(b"wakeup:inst-000001");
//!
//! let pna = MessageAuthenticator::from_key(b"shared-controller-key");
//! assert!(pna.verify(b"wakeup:inst-000001", &tag));
//! assert!(!pna.verify(b"wakeup:inst-000002", &tag));
//! ```

pub mod hmac;
pub mod sha256;

pub use hmac::HmacSha256;
pub use sha256::Sha256;

use std::sync::Arc;

/// Length in bytes of an authentication tag ([`Sha256`] digest length).
pub const TAG_LEN: usize = 32;

/// An authentication tag attached to every OddCI control message.
pub type Tag = [u8; TAG_LEN];

/// Signs and verifies control messages on behalf of a Controller / PNA pair.
///
/// It keeps the key only as its keyed SHA-256 states (an [`HmacSha256`]
/// with both pads absorbed), shared behind one `Arc`: a clone is a
/// refcount bump, so a population of agents can share one authenticator.
/// Its `Debug` output hides the states.
#[derive(Debug, Clone)]
pub struct MessageAuthenticator {
    keyed: Arc<HmacSha256>,
}

impl MessageAuthenticator {
    /// Creates an authenticator from a shared key of any length.
    pub fn from_key(key: &[u8]) -> Self {
        MessageAuthenticator {
            keyed: Arc::new(HmacSha256::new(key)),
        }
    }

    /// A streaming MAC under this key, for a message that arrives in
    /// parts; its tag equals [`sign`](Self::sign) over their concatenation.
    pub fn begin(&self) -> HmacSha256 {
        HmacSha256::clone(&self.keyed)
    }

    /// Computes the tag for `message`.
    pub fn sign(&self, message: &[u8]) -> Tag {
        let mut mac = self.begin();
        mac.update(message);
        mac.finalize()
    }

    /// Checks `tag` against `message` in constant time.
    pub fn verify(&self, message: &[u8], tag: &Tag) -> bool {
        constant_time_eq(&self.sign(message), tag)
    }

    /// True when `other` holds the same key: its keyed states are equal.
    pub fn same_key(&self, other: &MessageAuthenticator) -> bool {
        self.keyed == other.keyed
    }
}

impl From<&[u8]> for MessageAuthenticator {
    fn from(key: &[u8]) -> Self {
        MessageAuthenticator::from_key(key)
    }
}

/// Constant-time byte-slice comparison (no early exit on mismatch).
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let auth = MessageAuthenticator::from_key(b"k");
        let tag = auth.sign(b"hello");
        assert!(auth.verify(b"hello", &tag));
    }

    #[test]
    fn same_key_compares_keys_not_handles() {
        let a = MessageAuthenticator::from_key(b"key-a");
        assert!(a.same_key(&a.clone()));
        assert!(a.same_key(&MessageAuthenticator::from_key(b"key-a")));
        assert!(!a.same_key(&MessageAuthenticator::from_key(b"key-b")));
    }

    #[test]
    fn different_key_fails() {
        let a = MessageAuthenticator::from_key(b"key-a");
        let b = MessageAuthenticator::from_key(b"key-b");
        let tag = a.sign(b"msg");
        assert!(!b.verify(b"msg", &tag));
    }

    #[test]
    fn tampered_message_fails() {
        let auth = MessageAuthenticator::from_key(b"k");
        let tag = auth.sign(b"msg");
        assert!(!auth.verify(b"msg!", &tag));
    }

    #[test]
    fn tampered_tag_fails() {
        let auth = MessageAuthenticator::from_key(b"k");
        let mut tag = auth.sign(b"msg");
        tag[0] ^= 0x01;
        assert!(!auth.verify(b"msg", &tag));
    }

    #[test]
    fn constant_time_eq_basics() {
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
        assert!(constant_time_eq(b"", b""));
    }
}
