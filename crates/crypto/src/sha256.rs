//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Streaming API (`update`/`finalize`) plus a one-shot [`Sha256::digest`].
//! Validated against the NIST example vectors and the classic
//! one-million-`a` stress vector.
//!
//! On an x86-64 CPU with the SHA extensions (and SSSE3 and SSE4.1) the
//! blocks go through a hardware kernel, `x86::compress_blocks`, chosen by
//! the CPU alone: there is no option to pick a path. The scalar
//! `compress` is the portable fallback and the oracle the kernel is
//! tested against. Both give the same bytes.

/// SHA-256 round constants (first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sha256 {
    pub(crate) state: [u32; 8],
    /// Total message length in bytes processed so far (including buffered).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// One-shot digest of `data`.
    pub fn digest(data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        // Top up a partially filled buffer first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                // Everything fit in the buffer; the tail code below must
                // not run, or it would clobber `buf_len`.
                return;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        // Whole blocks straight from the input, in one run.
        let whole = data.len() - data.len() % 64;
        let (blocks, rest) = data.split_at(whole);
        compress_blocks(&mut self.state, blocks);
        // Stash the tail.
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Completes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length,
        // which spills into a second block when fewer than 9 bytes are
        // left in this one (`buf_len` is always below 64 here).
        let used = self.buf_len;
        let mut pad = [0u8; 128];
        pad[..used].copy_from_slice(&self.buf[..used]);
        pad[used] = 0x80;
        let end = if used < 56 { 64 } else { 128 };
        pad[end - 8..end].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &pad[..end]);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Compresses each 64-byte block of `blocks` (a whole number of them)
/// into `state`, on the hardware kernel when the CPU has one.
#[allow(unsafe_code)]
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    #[cfg(target_arch = "x86_64")]
    if x86::detected() {
        // SAFETY: `detected` found every feature the kernel's
        // `target_feature` list enables on the CPU this process runs on.
        unsafe { x86::compress_blocks(state, blocks) };
        return;
    }
    for block in blocks.chunks_exact(64) {
        compress(state, block.try_into().expect("chunk is 64 bytes"));
    }
}

/// The FIPS 180-4 compression function over one 512-bit block.
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// The SHA-NI kernel: the SHA extensions run two rounds per instruction
/// on the state held as two vectors, `abef` and `cdgh`. It reads bytes
/// and state only through value intrinsics, so it has no pointer to get
/// wrong; the one precondition of calling it is the CPU features.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8,
    };

    /// True when this CPU runs [`compress_blocks`]. The standard library
    /// detects the features once per process and caches the answer.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Bytes `at..at + 16` of `block` as four big-endian message words,
    /// the first in the lowest lane.
    #[target_feature(enable = "sse2,ssse3")]
    fn words(block: &[u8], at: usize) -> __m128i {
        let half = |i: usize| i64::from_le_bytes(block[i..i + 8].try_into().expect("8-byte slice"));
        // Reverses the bytes of each 32-bit lane.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        _mm_shuffle_epi8(_mm_set_epi64x(half(at + 8), half(at)), bswap)
    }

    /// The next four schedule words from the sixteen before them.
    #[target_feature(enable = "sha,sse2,ssse3")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let sum = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(sum, w3)
    }

    /// Compresses each 64-byte block of `blocks` into `state`, keeping the
    /// state in registers from the first block to the last.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        let s = state.map(|x| x as i32);
        // Lanes low to high: f e b a, and h g d c.
        let mut abef = _mm_set_epi32(s[0], s[1], s[4], s[5]);
        let mut cdgh = _mm_set_epi32(s[2], s[3], s[6], s[7]);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let mut w = [
                words(block, 0),
                words(block, 16),
                words(block, 32),
                words(block, 48),
            ];
            for i in 0..16 {
                let k = |j: usize| K[4 * i + j] as i32;
                let wk = _mm_add_epi32(w[0], _mm_set_epi32(k(3), k(2), k(1), k(0)));
                // Rounds 4i and 4i+1 from the low half of `wk`, then 4i+2
                // and 4i+3 from its high half; each pair's new a, b, e, f
                // are the next pair's c, d, g, h.
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                // The last three are never read: the optimiser drops them.
                w = [w[1], w[2], w[3], schedule(w[0], w[1], w[2], w[3])];
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        let lanes = [
            _mm_extract_epi32(abef, 3),
            _mm_extract_epi32(abef, 2),
            _mm_extract_epi32(cdgh, 3),
            _mm_extract_epi32(cdgh, 2),
            _mm_extract_epi32(abef, 1),
            _mm_extract_epi32(abef, 0),
            _mm_extract_epi32(cdgh, 1),
            _mm_extract_epi32(cdgh, 0),
        ];
        *state = lanes.map(|x| x as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_two_block_message() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_one_shot_at_all_split_points() {
        let data = b"The quick brown fox jumps over the lazy dog";
        let expected = Sha256::digest(data);
        for split in 0..=data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expected, "split at {split}");
        }
    }

    #[test]
    fn lengths_straddling_block_boundaries() {
        // Exercise padding around the 55/56/63/64-byte edges.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 127, 128, 129] {
            let data = vec![0xabu8; len];
            let d1 = Sha256::digest(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), d1, "len={len}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(Sha256::digest(b"a"), Sha256::digest(b"b"));
    }

    /// The digest of `data` from the padding rule and the scalar
    /// [`compress`] alone.
    fn scalar_digest(data: &[u8]) -> [u8; 32] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in msg.chunks_exact(64) {
            compress(&mut state, block.try_into().unwrap());
        }
        let bytes: Vec<u8> = state.iter().flat_map(|w| w.to_be_bytes()).collect();
        bytes.try_into().unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// [`compress_blocks`] (the hardware kernel, when this CPU has it)
        /// leaves the state the scalar oracle does, from any start state
        /// and over runs of blocks cut anywhere; and a digest streamed in
        /// 2–4 parts equals the scalar-only digest.
        #[test]
        fn kernel_and_stream_match_the_scalar_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..4097),
            cuts in proptest::collection::vec(any::<usize>(), 1..4),
            seed in any::<u64>(),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();

            let start: [u32; 8] =
                std::array::from_fn(|i| H0[i] ^ seed.rotate_left(8 * i as u32) as u32);
            let (mut kernel, mut scalar) = (start, start);
            let whole = data.len() - data.len() % 64;
            let mut at = 0;
            for end in cuts.iter().map(|c| c - c % 64).chain([whole]) {
                compress_blocks(&mut kernel, &data[at..end]);
                for block in data[at..end].chunks_exact(64) {
                    compress(&mut scalar, block.try_into().unwrap());
                }
                prop_assert_eq!(kernel, scalar);
                at = end;
            }

            let mut h = Sha256::new();
            let mut at = 0;
            for &cut in &cuts {
                h.update(&data[at..cut]);
                at = cut;
            }
            h.update(&data[at..]);
            prop_assert_eq!(h.finalize(), scalar_digest(&data));
        }
    }
}
