//! A real sequence-alignment kernel: Smith–Waterman and a BLAST-style
//! seed-and-extend search.
//!
//! The paper's application is NCBI BLAST; we cannot ship that binary, so
//! the live runtime executes this kernel instead. It does genuine dynamic
//! programming work with the same computational shape (database scan +
//! local alignment), which is what matters for exercising the end-to-end
//! OddCI path with real CPU load.
//!
//! Loading the database ([`BlastSearch::index`]) is the cheap part, as
//! loading a program should be: one back-to-front pass chains every k-mer
//! position onto its bucket, 4 bytes per window plus 4 per bucket, so a
//! node that has received a 1 MB image computes its index in 6–11 ms on
//! a 2-vCPU Xeon.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Alignment scoring parameters (defaults mirror `blastn`'s +1/−3 with a
/// linear gap penalty of 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Scoring {
    /// Score added per matching base.
    pub matched: i32,
    /// Score added (negative) per mismatching base.
    pub mismatch: i32,
    /// Penalty (positive number subtracted) per gap base.
    pub gap: i32,
}

impl Default for Scoring {
    fn default() -> Self {
        Scoring {
            matched: 1,
            mismatch: -3,
            gap: 5,
        }
    }
}

/// Smith–Waterman local alignment score between `a` and `b` using linear
/// memory (two DP rows).
pub(crate) fn smith_waterman(a: &[u8], b: &[u8], s: Scoring) -> i32 {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let mut prev = vec![0i32; b.len() + 1];
    let mut curr = vec![0i32; b.len() + 1];
    let mut best = 0;
    for &ca in a {
        for j in 1..=b.len() {
            let sub = if ca == b[j - 1] {
                s.matched
            } else {
                s.mismatch
            };
            let diag = prev[j - 1] + sub;
            let up = prev[j] - s.gap;
            let left = curr[j - 1] - s.gap;
            let v = diag.max(up).max(left).max(0);
            curr[j] = v;
            best = best.max(v);
        }
        std::mem::swap(&mut prev, &mut curr);
        curr[0] = 0;
    }
    best
}

/// A hit reported by [`BlastSearch::search`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hit {
    /// Offset of the seed in the database sequence.
    pub db_pos: usize,
    /// Offset of the seed in the query.
    pub query_pos: usize,
    /// Smith–Waterman score of the extended alignment window.
    pub score: i32,
}

/// Word lengths [`BlastSearch::index`] accepts: a k-mer is packed two
/// bits per base into a `u64`, and the rolling coder's mask needs the two
/// top bits free.
pub const WORD_LENGTHS: std::ops::RangeInclusive<usize> = 4..=31;

/// Longest database [`BlastSearch::index`] accepts: positions are stored
/// as `u32`.
pub const MAX_DB_LEN: usize = u32::MAX as usize;

/// Why [`BlastSearch::index`] refused its input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexError {
    /// The word length is outside [`WORD_LENGTHS`].
    WordLength(usize),
    /// The database is longer than [`MAX_DB_LEN`].
    DatabaseTooLong(usize),
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            IndexError::WordLength(k) => write!(
                f,
                "word length must be within {}..={} (got {k})",
                WORD_LENGTHS.start(),
                WORD_LENGTHS.end()
            ),
            IndexError::DatabaseTooLong(len) => write!(
                f,
                "database of {len} bases exceeds the {MAX_DB_LEN} the index can address"
            ),
        }
    }
}

impl std::error::Error for IndexError {}

/// A k-mer indexed database supporting BLAST-style seed-and-extend search.
///
/// The index chains positions by bucket: every position whose k-mer is
/// all-ACGT is filed under a multiplicative hash of its packed code,
/// `head[h]` links to the lowest position in bucket `h` and `next[pos]`
/// to the next higher one, so the positions of one k-mer come out
/// ascending. A link is 1 + the position it names; 0 ends the chain. The
/// keys are not stored: a lookup checks each candidate's bases, in the
/// database the index already holds, against the key. No per-key
/// allocation, 4 bytes per window plus 4 per bucket.
#[derive(Debug, Clone)]
pub struct BlastSearch {
    db: Arc<Vec<u8>>,
    k: usize,
    /// `64 - log2(bucket count)`: the hash keeps the product's top bits.
    shift: u32,
    head: Vec<u32>,
    next: Vec<u32>,
    scoring: Scoring,
}

impl BlastSearch {
    /// What [`index`](BlastSearch::index) checks before it builds, for a
    /// caller who must refuse a recipe before the database exists.
    pub fn check(db_len: usize, k: usize) -> Result<(), IndexError> {
        if !WORD_LENGTHS.contains(&k) {
            return Err(IndexError::WordLength(k));
        }
        if db_len > MAX_DB_LEN {
            return Err(IndexError::DatabaseTooLong(db_len));
        }
        Ok(())
    }

    /// Indexes `db` with word length `k`. The database is shared, not
    /// copied, when the caller already holds it in an `Arc`.
    ///
    /// One pass from the last window to the first pushes each position
    /// onto the front of its bucket's chain, so every chain ends up
    /// ascending. Linear whatever the content: a database that is one
    /// base repeated fills one chain and costs the same as a random one.
    pub fn index(
        db: impl Into<Arc<Vec<u8>>>,
        k: usize,
        scoring: Scoring,
    ) -> Result<Self, IndexError> {
        let db = db.into();
        Self::check(db.len(), k)?;
        // About one bucket per window, so a bucket holds about one key.
        let windows = (db.len() + 1).saturating_sub(k);
        let bits = windows.max(2).next_power_of_two().trailing_zeros();
        let shift = u64::BITS - bits;

        let mut head = vec![0u32; 1usize << bits];
        let mut next = vec![0u32; windows];
        for (pos, key) in kmers_back_to_front(&db, k) {
            let link = &mut head[bucket_of(key, shift)];
            next[pos] = *link;
            // `pos + 1 <= db.len() + 1 - k < MAX_DB_LEN`, checked above.
            *link = pos as u32 + 1;
        }

        Ok(BlastSearch {
            db,
            k,
            shift,
            head,
            next,
            scoring,
        })
    }

    /// The indexed database.
    pub fn db(&self) -> &[u8] {
        &self.db
    }

    /// Database positions whose k-mer packs to `key`, ascending. Each
    /// candidate on the bucket's chain is checked against the database:
    /// every indexed window is all-ACGT, so its bases' codes are exact.
    /// The check starts at the last base, the key's low bits, and stops
    /// at the first base that differs.
    fn positions_of(&self, key: u64) -> impl Iterator<Item = usize> + '_ {
        let mut link = self.head[bucket_of(key, self.shift)];
        std::iter::from_fn(move || {
            let pos = link.checked_sub(1)? as usize;
            link = self.next[pos];
            Some(pos)
        })
        .filter(move |&pos| {
            self.db[pos..pos + self.k]
                .iter()
                .rev()
                .enumerate()
                .all(|(i, &b)| u64::from(BASE_CODE[b as usize]) == (key >> (2 * i)) & 3)
        })
    }

    /// Finds seeds of `query` in the database, extends each in a window of
    /// `window` bases with Smith–Waterman, and returns hits scoring at
    /// least `min_score`, best first.
    pub fn search(&self, query: &[u8], window: usize, min_score: i32) -> Vec<Hit> {
        let mut hits = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for (qpos, key) in kmers(query, self.k) {
            for dpos in self.positions_of(key) {
                // Deduplicate overlapping seeds extending to the same region.
                let region = dpos / window.max(1);
                if !seen.insert((region, qpos / window.max(1))) {
                    continue;
                }
                let dstart = dpos.saturating_sub(window / 2);
                let dend = (dpos + self.k + window / 2).min(self.db.len());
                let qstart = qpos.saturating_sub(window / 2);
                let qend = (qpos + self.k + window / 2).min(query.len());
                let score =
                    smith_waterman(&query[qstart..qend], &self.db[dstart..dend], self.scoring);
                if score >= min_score {
                    hits.push(Hit {
                        db_pos: dpos,
                        query_pos: qpos,
                        score,
                    });
                }
            }
        }
        hits.sort_by(|x, y| y.score.cmp(&x.score).then(x.db_pos.cmp(&y.db_pos)));
        hits
    }
}

/// Bucket of a packed k-mer in a table of `2^(64 - shift)` buckets:
/// multiplicative hashing by 2^64 / φ, whose top bits mix every base.
fn bucket_of(key: u64, shift: u32) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// 2-bit code of a DNA base, either case; [`NOT_A_BASE`] for anything else
/// (`N` and the other ambiguity codes included).
const BASE_CODE: [u8; 256] = {
    let mut table = [NOT_A_BASE; 256];
    let bases = *b"ACGT";
    let mut code = 0;
    while code < 4 {
        table[bases[code] as usize] = code as u8;
        table[bases[code].to_ascii_lowercase() as usize] = code as u8;
        code += 1;
    }
    table
};
const NOT_A_BASE: u8 = 4;

/// Every window of `k` ACGT bases in `seq` as `(start, packed code)`, in
/// order of `start`: a rolling coder shifts one base in per byte, and a
/// non-ACGT byte restarts the run, so a window containing one is skipped.
/// `k` must be within [`WORD_LENGTHS`].
fn kmers(seq: &[u8], k: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
    let mask = (1u64 << (2 * k)) - 1;
    let (mut code, mut run) = (0u64, 0usize);
    seq.iter().enumerate().filter_map(move |(end, &byte)| {
        let base = BASE_CODE[byte as usize];
        if base == NOT_A_BASE {
            run = 0;
            return None;
        }
        code = ((code << 2) | u64::from(base)) & mask;
        run += 1;
        (run >= k).then(|| (end + 1 - k, code))
    })
}

/// The windows of [`kmers`] in reverse, last `start` first: the rolling
/// coder shifts each base in at the top of the code, where a window's
/// first base sits, and drops the base that falls off its end.
fn kmers_back_to_front(seq: &[u8], k: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
    let top = 2 * (k - 1);
    let (mut code, mut run) = (0u64, 0usize);
    seq.iter()
        .enumerate()
        .rev()
        .filter_map(move |(start, &byte)| {
            let base = BASE_CODE[byte as usize];
            if base == NOT_A_BASE {
                run = 0;
                return None;
            }
            code = (code >> 2) | (u64::from(base) << top);
            run += 1;
            (run >= k).then_some((start, code))
        })
}

/// Generates a random DNA sequence of `len` bases (uppercase ACGT).
pub fn random_sequence(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len).map(|_| b"ACGT"[rng.random_range(0..4)]).collect()
}

/// Mutates `seq` with the given per-base substitution rate — used to plant
/// findable homologs in synthetic databases.
pub fn mutate(seq: &[u8], rate: f64, seed: u64) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(seed);
    seq.iter()
        .map(|&b| {
            if rng.random::<f64>() < rate {
                b"ACGT"[rng.random_range(0..4)]
            } else {
                b
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    /// The index this module shipped before the flat one, kept as the
    /// oracle: a `HashMap` from packed k-mer to its positions, built by
    /// re-packing `k` bytes at every offset, and the seed loop over it.
    struct ReferenceSearch {
        db: Vec<u8>,
        k: usize,
        index: HashMap<u64, Vec<u32>>,
        scoring: Scoring,
    }

    impl ReferenceSearch {
        fn index(db: Vec<u8>, k: usize, scoring: Scoring) -> Self {
            let mut index: HashMap<u64, Vec<u32>> = HashMap::new();
            if db.len() >= k {
                for i in 0..=db.len() - k {
                    if let Some(key) = pack(&db[i..i + k]) {
                        index.entry(key).or_default().push(i as u32);
                    }
                }
            }
            ReferenceSearch {
                db,
                k,
                index,
                scoring,
            }
        }

        fn search(&self, query: &[u8], window: usize, min_score: i32) -> Vec<Hit> {
            let mut hits = Vec::new();
            if query.len() < self.k {
                return hits;
            }
            let mut seen = HashSet::new();
            for qpos in 0..=query.len() - self.k {
                let Some(key) = pack(&query[qpos..qpos + self.k]) else {
                    continue;
                };
                let Some(positions) = self.index.get(&key) else {
                    continue;
                };
                for &dpos in positions {
                    let dpos = dpos as usize;
                    let region = dpos / window.max(1);
                    if !seen.insert((region, qpos / window.max(1))) {
                        continue;
                    }
                    let dstart = dpos.saturating_sub(window / 2);
                    let dend = (dpos + self.k + window / 2).min(self.db.len());
                    let qstart = qpos.saturating_sub(window / 2);
                    let qend = (qpos + self.k + window / 2).min(query.len());
                    let score =
                        smith_waterman(&query[qstart..qend], &self.db[dstart..dend], self.scoring);
                    if score >= min_score {
                        hits.push(Hit {
                            db_pos: dpos,
                            query_pos: qpos,
                            score,
                        });
                    }
                }
            }
            hits.sort_by(|x, y| y.score.cmp(&x.score).then(x.db_pos.cmp(&y.db_pos)));
            hits
        }
    }

    /// Packs a DNA k-mer into 2 bits per base; `None` if it contains a
    /// non-ACGT byte.
    fn pack(kmer: &[u8]) -> Option<u64> {
        let mut v = 0u64;
        for &b in kmer {
            let code = match b {
                b'A' | b'a' => 0,
                b'C' | b'c' => 1,
                b'G' | b'g' => 2,
                b'T' | b't' => 3,
                _ => return None,
            };
            v = (v << 2) | code;
        }
        Some(v)
    }

    fn index(db: impl Into<Arc<Vec<u8>>>, k: usize) -> BlastSearch {
        BlastSearch::index(db, k, Scoring::default()).expect("valid word length")
    }

    /// A sequence built from the shapes the index must get right: random
    /// ACGT, lowercase stretches, runs of one base, `N`s and stray bytes.
    fn dna(seed: u64, len: usize) -> Vec<u8> {
        let mut rng = TestRng::new(seed);
        let mut seq = Vec::with_capacity(len);
        while seq.len() < len {
            let stretch = 1 + rng.index(40);
            match rng.index(8) {
                0 => seq.extend((0..stretch).map(|_| b"acgt"[rng.index(4)])),
                1 => seq.extend(std::iter::repeat_n(b"ACGT"[rng.index(4)], stretch)),
                2 => seq.push(b"NnRY-*\0"[rng.index(7)]),
                _ => seq.extend((0..stretch).map(|_| b"ACGT"[rng.index(4)])),
            }
        }
        seq.truncate(len);
        seq
    }

    /// A query that shares seeds with `db`: a slice of it with a few
    /// substitutions (some to `N`), or an unrelated sequence.
    fn query_for(db: &[u8], seed: u64, len: usize) -> Vec<u8> {
        let mut rng = TestRng::new(seed);
        if db.is_empty() || rng.index(4) == 0 {
            return dna(seed, len);
        }
        let start = rng.index(db.len());
        let mut query = db[start..(start + len).min(db.len())].to_vec();
        for _ in 0..query.len() / 24 {
            let at = rng.index(query.len());
            query[at] = b"ACGTN"[rng.index(5)];
        }
        query
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat index answers every search exactly as the `HashMap`
        /// index did: same hits, same order.
        #[test]
        fn search_equals_reference((db_seed, db_len) in (any::<u64>(), 0usize..1500),
                                   (query_seed, query_len) in (any::<u64>(), 0usize..200),
                                   k in WORD_LENGTHS,
                                   window in prop_oneof![0usize..2, 2usize..20, 20usize..200],
                                   min_score in -5i32..60) {
            let db = dna(db_seed, db_len);
            let query = query_for(&db, query_seed, query_len);
            let flat = index(db.clone(), k);
            let reference = ReferenceSearch::index(db, k, Scoring::default());
            prop_assert_eq!(
                flat.search(&query, window, min_score),
                reference.search(&query, window, min_score)
            );
        }

        /// A lookup returns exactly the windows an exhaustive scan packs to
        /// the key, ascending, at every word length: keys drawn from the
        /// database's own windows and at random, so a bucket that also
        /// holds other keys' positions, or holds nothing, is asked too.
        #[test]
        fn positions_of_equals_exhaustive_scan((db_seed, db_len) in (any::<u64>(), 0usize..1500),
                                               picks in proptest::collection::vec(any::<u64>(), 1..8)) {
            let db = dna(db_seed, db_len);
            for k in WORD_LENGTHS {
                let idx = index(db.clone(), k);
                let windows: Vec<Option<u64>> = (0..(db.len() + 1).saturating_sub(k))
                    .map(|i| pack(&db[i..i + k]))
                    .collect();
                let present: Vec<u64> = windows.iter().flatten().copied().collect();
                for &pick in &picks {
                    let key = match pick % 2 {
                        0 if !present.is_empty() => present[(pick / 2) as usize % present.len()],
                        _ => (pick / 2) & ((1u64 << (2 * k)) - 1),
                    };
                    let scanned: Vec<usize> = windows
                        .iter()
                        .enumerate()
                        .filter(|&(_, &w)| w == Some(key))
                        .map(|(i, _)| i)
                        .collect();
                    prop_assert_eq!(idx.positions_of(key).collect::<Vec<_>>(), scanned, "k = {}", k);
                }
            }
        }

        /// The rolling coder yields exactly the windows `pack` accepts,
        /// with `pack`'s codes.
        #[test]
        fn rolling_coder_equals_pack(seed in any::<u64>(), len in 0usize..300, k in WORD_LENGTHS) {
            let seq = dna(seed, len);
            let packed: Vec<(usize, u64)> = (0..(seq.len() + 1).saturating_sub(k))
                .filter_map(|i| pack(&seq[i..i + k]).map(|key| (i, key)))
                .collect();
            prop_assert_eq!(kmers(&seq, k).collect::<Vec<_>>(), packed);
        }

        /// The back-to-front coder yields exactly the front-to-back
        /// coder's windows, with the same codes, in reverse.
        #[test]
        fn back_to_front_coder_reverses_kmers(seed in any::<u64>(), len in 0usize..300, k in WORD_LENGTHS) {
            let seq = dna(seed, len);
            let mut forward: Vec<(usize, u64)> = kmers(&seq, k).collect();
            forward.reverse();
            prop_assert_eq!(kmers_back_to_front(&seq, k).collect::<Vec<_>>(), forward);
        }
    }

    #[test]
    fn sw_identical_sequences_score_full_length() {
        let s = b"ACGTACGTACGT";
        assert_eq!(smith_waterman(s, s, Scoring::default()), s.len() as i32);
    }

    #[test]
    fn sw_known_small_example() {
        // Classic textbook example with match=3, mismatch=-3, gap=2:
        // TGTTACGG vs GGTTGACTA has optimal local score 13.
        let s = Scoring {
            matched: 3,
            mismatch: -3,
            gap: 2,
        };
        assert_eq!(smith_waterman(b"TGTTACGG", b"GGTTGACTA", s), 13);
    }

    #[test]
    fn sw_disjoint_sequences_score_zero() {
        assert_eq!(smith_waterman(b"AAAA", b"CCCC", Scoring::default()), 0);
    }

    #[test]
    fn sw_empty_inputs() {
        assert_eq!(smith_waterman(b"", b"ACGT", Scoring::default()), 0);
        assert_eq!(smith_waterman(b"ACGT", b"", Scoring::default()), 0);
    }

    #[test]
    fn sw_is_symmetric() {
        let a = random_sequence(80, 1);
        let b = random_sequence(60, 2);
        let s = Scoring::default();
        assert_eq!(smith_waterman(&a, &b, s), smith_waterman(&b, &a, s));
    }

    #[test]
    fn sw_substring_scores_its_length() {
        let db = random_sequence(200, 3);
        let query = db[50..90].to_vec();
        assert_eq!(smith_waterman(&query, &db, Scoring::default()), 40);
    }

    #[test]
    fn search_finds_planted_homolog() {
        let db = random_sequence(20_000, 10);
        // Plant a mutated copy of a known query inside the database.
        let query = random_sequence(200, 11);
        let homolog = mutate(&query, 0.05, 12);
        let mut db2 = db.clone();
        db2.splice(5000..5000, homolog.iter().copied());

        let idx = index(db2, 11);
        let hits = idx.search(&query, 100, 25);
        assert!(!hits.is_empty(), "homolog should be found");
        let best = hits[0];
        assert!(
            (4900..5300).contains(&best.db_pos),
            "best hit at {} should be near the planted position",
            best.db_pos
        );
    }

    #[test]
    fn search_on_unrelated_query_finds_nothing_strong() {
        let db = random_sequence(10_000, 20);
        let query = random_sequence(100, 21);
        let idx = index(db, 12);
        // A 12-mer exact seed between unrelated random sequences of this
        // size is vanishingly unlikely (10^4 * 89 / 4^12 ≈ 0.05).
        let hits = idx.search(&query, 64, 30);
        assert!(hits.len() <= 1, "unexpected strong hits: {hits:?}");
    }

    #[test]
    fn short_query_yields_no_hits() {
        let idx = index(random_sequence(1000, 30), 11);
        assert!(idx.search(b"ACGT", 64, 1).is_empty());
    }

    #[test]
    fn word_length_outside_range_is_an_error() {
        for k in [0, 3, 32, usize::MAX] {
            assert_eq!(
                BlastSearch::index(random_sequence(100, 1), k, Scoring::default()).err(),
                Some(IndexError::WordLength(k)),
            );
        }
        for k in [4, 31] {
            assert!(BlastSearch::index(random_sequence(100, 1), k, Scoring::default()).is_ok());
        }
    }

    #[test]
    fn empty_and_short_databases_index_nothing() {
        for db in [Vec::new(), b"ACGTACGTAC".to_vec()] {
            let idx = index(db, 11);
            assert!(idx.head.iter().all(|&link| link == 0));
            assert!(idx.search(&random_sequence(100, 2), 64, 0).is_empty());
        }
    }

    #[test]
    fn longest_word_keeps_every_base_in_the_key() {
        // At k = 31 the mask covers 62 bits: two 31-mers that differ only
        // in their first base must stay distinct keys.
        let tail = random_sequence(30, 40);
        let mut db = b"A".to_vec();
        db.extend(&tail);
        db.push(b'N');
        db.push(b'C');
        db.extend(&tail);
        let idx = index(db, 31);
        let mut query = b"C".to_vec();
        query.extend(&tail);
        let hits = idx.search(&query, 64, 31);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].db_pos, hits[0].score), (32, 31));
    }

    #[test]
    fn ambiguity_code_in_the_query_splits_its_seeds() {
        let db = random_sequence(2000, 50);
        let mut query = db[500..560].to_vec();
        query[30] = b'N';
        let idx = index(db.clone(), 11);
        let hits = idx.search(&query, 0, 0);
        // Windows 0..=19 and 31..=49 are clean; the eleven covering the N
        // seed nothing.
        assert!(hits.iter().all(|h| !(20..=30).contains(&h.query_pos)));
        assert!(hits.iter().any(|h| h.query_pos == 19 && h.db_pos == 519));
        assert!(hits.iter().any(|h| h.query_pos == 31 && h.db_pos == 531));
        let reference = ReferenceSearch::index(db, 11, Scoring::default());
        assert_eq!(hits, reference.search(&query, 0, 0));
    }

    #[test]
    fn one_key_owning_every_position_builds_in_linear_time() {
        // Poly-A: one bucket holds the whole database. Quadratic handling
        // of that bucket would take minutes at this size.
        let started = std::time::Instant::now();
        let idx = index(vec![b'A'; 200_000], 11);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "took {:?}",
            started.elapsed()
        );
        let all: Vec<usize> = idx.positions_of(0).collect();
        assert_eq!(all, (0..=200_000 - 11).collect::<Vec<_>>());
        assert_eq!(idx.positions_of(1).count(), 0);
    }

    #[test]
    fn shared_database_is_not_copied() {
        let db = Arc::new(random_sequence(1000, 60));
        let idx = index(Arc::clone(&db), 11);
        assert!(std::ptr::eq(idx.db().as_ptr(), db.as_ptr()));
    }

    #[test]
    fn rolling_coder_rejects_ambiguity_codes() {
        assert_eq!(kmers(b"ACGN", 4).count(), 0);
        assert_eq!(kmers(b"AAAA", 4).collect::<Vec<_>>(), [(0, 0)]);
        assert_eq!(kmers(b"ACGT", 4).collect::<Vec<_>>(), [(0, 0b00_01_10_11)]);
        // Either case, and the run restarts after the N.
        assert_eq!(
            kmers(b"acNACGTa", 4).collect::<Vec<_>>(),
            [(3, 0b00_01_10_11), (4, 0b01_10_11_00)]
        );
    }

    #[test]
    fn random_sequence_is_deterministic() {
        assert_eq!(random_sequence(64, 5), random_sequence(64, 5));
        assert_ne!(random_sequence(64, 5), random_sequence(64, 6));
    }

    #[test]
    fn mutate_respects_rate_extremes() {
        let s = random_sequence(1000, 7);
        assert_eq!(mutate(&s, 0.0, 8), s);
        let heavy = mutate(&s, 1.0, 9);
        let same = s.iter().zip(&heavy).filter(|(a, b)| a == b).count();
        // With rate 1.0 each base is redrawn uniformly: ~25% stay equal.
        assert!((150..350).contains(&same), "same={same}");
    }
}
