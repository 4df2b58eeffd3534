//! HMAC-SHA-256 (RFC 2104), implemented from scratch over [`Sha256`].
//!
//! Validated against the RFC 4231 test vectors.

use crate::sha256::Sha256;

/// SHA-256 block size in bytes.
const BLOCK_LEN: usize = 64;

/// Keyed MAC over SHA-256.
///
/// A fresh instance holds the two keyed states: SHA-256 with the key's
/// inner pad absorbed, and with its outer pad absorbed. Cloning one is how
/// the pads are computed once per key and reused (RFC 2104 §4): a message
/// that fits one block then costs two compressions, not four.
#[derive(Clone, PartialEq, Eq)]
pub struct HmacSha256 {
    /// Key XOR ipad, then the message so far.
    inner: Sha256,
    /// Key XOR opad; the inner digest is absorbed at finalize time.
    outer: Sha256,
}

/// The keyed states are as secret as the key, so they are not printed.
impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HmacSha256 { .. }")
    }
}

impl HmacSha256 {
    /// Creates a MAC instance for `key` (any length; long keys are hashed
    /// down per RFC 2104).
    pub fn new(key: &[u8]) -> Self {
        let mut norm = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            norm[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            norm[..key.len()].copy_from_slice(key);
        }

        let mut ipad_key = [0u8; BLOCK_LEN];
        let mut opad_key = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad_key[i] = norm[i] ^ 0x36;
            opad_key[i] = norm[i] ^ 0x5c;
        }

        let mut inner = Sha256::new();
        inner.update(&ipad_key);
        let mut outer = Sha256::new();
        outer.update(&opad_key);
        HmacSha256 { inner, outer }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Completes the MAC and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; 32] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// One-shot MAC of `message` under `key`.
    pub fn mac(key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut h = HmacSha256::new(key);
        h.update(message);
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = HmacSha256::mac(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        let tag = HmacSha256::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 0xaa*20 key, 0xdd*50 data.
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = HmacSha256::mac(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let tag = HmacSha256::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    // RFC 4231 test case 7: long key AND long data.
    #[test]
    fn rfc4231_case7_long_key_and_data() {
        let key = [0xaau8; 131];
        let data = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        let tag = HmacSha256::mac(&key, data);
        assert_eq!(
            hex(&tag),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let one_shot = HmacSha256::mac(b"key", b"hello world");
        let mut h = HmacSha256::new(b"key");
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finalize(), one_shot);
    }

    #[test]
    fn exactly_block_sized_key_is_used_verbatim() {
        let key = [0x11u8; 64];
        let a = HmacSha256::mac(&key, b"m");
        // A 64-byte key is NOT hashed; a 65-byte key is. They must differ
        // from each other and from the zero-padded 63-byte key.
        let b = HmacSha256::mac(&key[..63], b"m");
        assert_ne!(a, b);
    }

    #[test]
    fn debug_hides_the_key_and_the_keyed_states() {
        let key = b"shared-controller-key";
        let mac = HmacSha256::new(key);
        let words: Vec<u32> = mac
            .inner
            .state
            .iter()
            .chain(&mac.outer.state)
            .copied()
            .collect();
        let auth = crate::MessageAuthenticator::from_key(key);
        for shown in [
            format!("{mac:?}"),
            format!("{auth:?}"),
            format!("{auth:#?}"),
        ] {
            assert!(!shown.contains("shared-controller-key"), "{shown}");
            assert!(!shown.contains(&format!("{:?}", key.as_slice())), "{shown}");
            for w in &words {
                for form in [format!("{w}"), format!("{w:x}"), format!("{w:X}")] {
                    assert!(!shown.contains(&form), "{shown} shows state word {form}");
                }
            }
        }
    }
}

/// The precomputed-pad path against the one-shot MAC, over keys on both
/// sides of the block size (a key over 64 bytes is hashed first).
#[cfg(test)]
mod props {
    use super::*;
    use crate::MessageAuthenticator;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn authenticator_sign_equals_one_shot_mac(
            key in proptest::collection::vec(any::<u8>(), 0..201),
            msg in proptest::collection::vec(any::<u8>(), 0..301),
            split in 0usize..301,
        ) {
            let auth = MessageAuthenticator::from_key(&key);
            let tag = HmacSha256::mac(&key, &msg);
            prop_assert_eq!(auth.sign(&msg), tag);
            prop_assert_eq!(auth.clone().sign(&msg), tag);
            let split = split.min(msg.len());
            let mut parts = auth.begin();
            parts.update(&msg[..split]);
            parts.update(&msg[split..]);
            prop_assert_eq!(parts.finalize(), tag);
        }
    }
}
