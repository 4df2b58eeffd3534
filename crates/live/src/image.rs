//! The live "application image": a real sequence-alignment workload.
//!
//! In the paper the carousel carries an opaque binary (BLAST). In the live
//! runtime the image is an [`AlignmentImage`]: a recipe from which every
//! node deterministically materializes the same reference database and
//! then serves alignment queries against it — genuine CPU work with the
//! same scan-and-score shape as BLAST.
//!
//! A recipe is outside input twice over — a job submitter hands one to
//! the headend, and a socket PNA reads one off a broadcast whose image
//! bytes the signed control message does not cover — so both entrances
//! ([`LiveOddci::submit_query_job`](crate::LiveOddci::submit_query_job),
//! the wire decoder) run [`AlignmentImage::validate`] and nothing a node
//! thread materializes can fail to index.

use oddci_core::messages::SignedMessage;
use oddci_workload::alignment::{random_sequence, BlastSearch, Scoring};
use std::sync::Arc;

/// Recipe for the workload a wakeup distributes.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignmentImage {
    /// Seed from which every node regenerates the same database.
    pub db_seed: u64,
    /// Database length in bases.
    pub db_len: usize,
    /// Seed word length for the index.
    pub k: usize,
    /// Alignment scoring.
    pub scoring: Scoring,
    /// Window for seed extension.
    pub window: usize,
    /// Minimum reported score.
    pub min_score: i32,
    /// Database bytes that arrived with the image instead of being
    /// regenerated — the socket transport ships the materialized database
    /// inside the wakeup broadcast, so a remote PNA boots from the
    /// streamed bytes rather than from `db_seed`. `None` (the in-process
    /// default) regenerates deterministically.
    pub prefetched: Option<Arc<Vec<u8>>>,
}

impl AlignmentImage {
    /// A small demo image: quick to materialize, still does real work.
    pub fn small_demo() -> Self {
        AlignmentImage {
            db_seed: 0xB10_5EED,
            db_len: 50_000,
            k: 11,
            scoring: Scoring::default(),
            window: 64,
            min_score: 14,
            prefetched: None,
        }
    }

    /// Checks that the recipe can be materialized: a word length the
    /// index accepts, a database it can address, and — when the database
    /// was shipped — exactly `db_len` shipped bytes.
    pub fn validate(&self) -> Result<(), String> {
        BlastSearch::check(self.db_len, self.k).map_err(|e| e.to_string())?;
        match &self.prefetched {
            Some(bytes) if bytes.len() != self.db_len => Err(format!(
                "recipe says {} database bytes but {} were shipped",
                self.db_len,
                bytes.len()
            )),
            _ => Ok(()),
        }
    }

    /// Materializes the executable form: generates the database (or
    /// shares the prefetched copy that streamed in with the wakeup) and
    /// builds the k-mer index (the live equivalent of "loading the image
    /// into the DVE" — two linear passes over the database).
    ///
    /// # Panics
    /// On a recipe [`validate`](AlignmentImage::validate) rejects. The
    /// runtime validates every recipe where it enters, so its node
    /// threads never get here with one.
    pub fn materialize(&self) -> BlastSearch {
        let db = match &self.prefetched {
            Some(bytes) => Arc::clone(bytes),
            None => Arc::new(random_sequence(self.db_len, self.db_seed)),
        };
        BlastSearch::index(db, self.k, self.scoring)
            .unwrap_or_else(|e| panic!("image recipe was not validated: {e}"))
    }

    /// Best alignment score of `query` against the materialized database.
    pub fn score(&self, db: &BlastSearch, query: &[u8]) -> i32 {
        db.search(query, self.window, self.min_score)
            .first()
            .map_or(0, |hit| hit.score)
    }
}

/// The image attached to a wakeup broadcast.
#[derive(Debug, Clone)]
pub enum WakeupImage {
    /// In process: the recipe itself, shared, not copied, across
    /// subscribers.
    Recipe(Arc<AlignmentImage>),
    /// On a socket PNA: the image bytes as they came off the wire. The
    /// carousel repeats every wakeup and a busy node drops the repeats,
    /// so the bytes are decoded only for a wakeup the node accepts.
    Encoded(Vec<u8>),
}

impl WakeupImage {
    /// The recipe to boot from. `None` when wire bytes do not decode to
    /// a valid one — the node then declines the wakeup as it would one
    /// that came without an image.
    pub(crate) fn into_recipe(self) -> Option<Arc<AlignmentImage>> {
        match self {
            WakeupImage::Recipe(image) => Some(image),
            WakeupImage::Encoded(bytes) => crate::wire::decode_image(bytes).ok().map(Arc::new),
        }
    }
}

/// What rides the live broadcast bus: the signed control message plus, for
/// wakeups, the image.
#[derive(Debug, Clone)]
pub struct LiveBroadcast {
    /// The authenticated control message.
    pub signed: SignedMessage,
    /// The image for wakeup messages (`None` for resets).
    pub image: Option<WakeupImage>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use oddci_workload::alignment::mutate;

    #[test]
    fn materialization_is_deterministic() {
        let img = AlignmentImage::small_demo();
        let a = img.materialize();
        let b = img.materialize();
        assert_eq!(a.db(), b.db(), "every node builds the identical database");
    }

    #[test]
    fn scores_planted_queries_higher_than_noise() {
        let img = AlignmentImage::small_demo();
        let db = img.materialize();
        // A query cut from the database scores high...
        let planted = mutate(&db.db()[1000..1200], 0.03, 1);
        let hit_score = img.score(&db, &planted);
        // ...an unrelated random query scores near zero.
        let noise = random_sequence(200, 999);
        let noise_score = img.score(&db, &noise);
        assert!(
            hit_score > noise_score + 50,
            "planted={hit_score} noise={noise_score}"
        );
    }

    #[test]
    fn prefetched_database_bytes_are_adopted() {
        let mut img = AlignmentImage::small_demo();
        let shipped = random_sequence(1000, 77);
        img.prefetched = Some(Arc::new(shipped.clone()));
        assert_eq!(
            img.materialize().db().to_vec(),
            shipped,
            "a shipped database wins over regeneration"
        );
    }

    #[test]
    fn prefetched_database_is_shared_with_the_index() {
        let mut img = AlignmentImage::small_demo();
        let shipped = Arc::new(random_sequence(img.db_len, 78));
        img.prefetched = Some(Arc::clone(&shipped));
        assert!(std::ptr::eq(
            img.materialize().db().as_ptr(),
            shipped.as_ptr()
        ));
    }

    #[test]
    fn validate_rejects_what_the_index_cannot_build() {
        let demo = AlignmentImage::small_demo();
        assert_eq!(demo.validate(), Ok(()));
        for k in [0, 3, 32] {
            assert!(AlignmentImage { k, ..demo.clone() }.validate().is_err());
        }
        for k in [4, 31] {
            assert_eq!(AlignmentImage { k, ..demo.clone() }.validate(), Ok(()));
        }
        let too_long = AlignmentImage {
            db_len: oddci_workload::alignment::MAX_DB_LEN + 1,
            ..demo.clone()
        };
        assert!(too_long.validate().is_err());
        let short_shipment = AlignmentImage {
            prefetched: Some(Arc::new(random_sequence(demo.db_len - 1, 1))),
            ..demo
        };
        assert!(short_shipment.validate().is_err());
    }

    #[test]
    fn different_seeds_different_databases() {
        let a = AlignmentImage {
            db_seed: 1,
            ..AlignmentImage::small_demo()
        };
        let b = AlignmentImage {
            db_seed: 2,
            ..AlignmentImage::small_demo()
        };
        assert_ne!(a.materialize().db(), b.materialize().db());
    }
}
