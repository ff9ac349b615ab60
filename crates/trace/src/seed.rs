//! Deterministic replicate-seed derivation.
//!
//! A replicated sweep runs the same `(config, scenario, horizon)` cell under
//! several seeds and reports the distribution instead of a single draw. The
//! per-replicate seeds must be (a) a pure function of the base seed and the
//! replicate index — so a cell replicate is content-addressable and two
//! hosts derive identical streams — and (b) well-spread, so replicate
//! streams are statistically independent even for adjacent indices.
//!
//! [`replicate_seed`] provides both: replicate `0` **is** the base seed
//! (the legacy single-seed path, so every existing golden digest, `.mtr`
//! recording and cache entry keeps its meaning), and replicates `i > 0` are
//! derived with a SplitMix64 finalizer over `base ^ golden-ratio·i`.

/// The SplitMix64 output permutation: a bijective avalanche over `u64`.
#[inline]
#[must_use]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed replicate `index` of a replicated cell runs under.
///
/// Replicate 0 returns `base` unchanged — the legacy single-seed path — so
/// replicated sweeps are a strict superset of the historical behavior and
/// every recorded golden digest stays valid.
///
/// # Example
///
/// ```
/// use malec_trace::replicate_seed;
///
/// assert_eq!(replicate_seed(2013, 0), 2013, "replicate 0 is the base seed");
/// assert_ne!(replicate_seed(2013, 1), replicate_seed(2013, 2));
/// assert_eq!(replicate_seed(2013, 5), replicate_seed(2013, 5), "pure");
/// ```
#[must_use]
pub fn replicate_seed(base: u64, index: u32) -> u64 {
    if index == 0 {
        return base;
    }
    splitmix64(base ^ splitmix64(u64::from(index)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn replicate_zero_is_the_legacy_seed() {
        for base in [0u64, 1, 2013, u64::MAX] {
            assert_eq!(replicate_seed(base, 0), base);
        }
    }

    #[test]
    fn replicates_are_distinct_within_a_base() {
        let base = 2013;
        let seeds: HashSet<u64> = (0..1024).map(|i| replicate_seed(base, i)).collect();
        assert_eq!(seeds.len(), 1024, "no collisions across 1024 replicates");
    }

    #[test]
    fn adjacent_bases_do_not_alias_adjacent_replicates() {
        // The failure mode of naive `base + i` derivation: seed 14 replicate
        // 1 would collide with seed 15 replicate 0.
        for base in 0..64u64 {
            for i in 1..8u32 {
                assert_ne!(
                    replicate_seed(base, i),
                    replicate_seed(base + u64::from(i), 0),
                    "base {base} replicate {i} must not alias base {}",
                    base + u64::from(i)
                );
            }
        }
    }

    #[test]
    fn splitmix_avalanches_low_entropy_inputs() {
        // Consecutive small inputs (the common seed choice) must spread
        // across the whole domain, not cluster in the low bits.
        let outs: Vec<u64> = (0..16).map(splitmix64).collect();
        let distinct: HashSet<&u64> = outs.iter().collect();
        assert_eq!(distinct.len(), outs.len());
        assert!(outs.iter().any(|&v| v > u64::MAX / 2));
    }
}
