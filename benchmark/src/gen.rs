//! Seed plumbing. Every input of every workload is a pure function of
//! `--seed`: the workspace generators (`random_sequence`, `JobGenerator`,
//! `World::simulation`) each take a seed, and this module derives the
//! seeds they get.

/// SplitMix64 finalizer over `seed` and a stream index: distinct,
/// well-spread child seeds for sessions, queries and PNAs.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut;

    #[test]
    fn child_seeds_are_stable_and_distinct() {
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(7, 4));
        assert_ne!(mix(7, 3), mix(8, 3));
    }

    #[test]
    fn same_seed_same_queries_and_job() {
        let a = sut::light_queries(11, 500, 16);
        let b = sut::light_queries(11, 500, 16);
        assert_eq!(a, b);
        assert_ne!(a, sut::light_queries(12, 500, 16));

        let (_, job_a) = sut::sweep_inputs(11, 100, 200, sut::Telemetry::disabled());
        let (_, job_b) = sut::sweep_inputs(11, 100, 200, sut::Telemetry::disabled());
        assert_eq!(job_a, job_b);
    }

    #[test]
    fn same_seed_same_snapshot_bytes() {
        let a = sut::snapshot::encode(&sut::synthetic_snapshot(5, 2_000));
        let b = sut::snapshot::encode(&sut::synthetic_snapshot(5, 2_000));
        assert_eq!(a, b);
        assert_ne!(a, sut::snapshot::encode(&sut::synthetic_snapshot(6, 2_000)));
    }
}
