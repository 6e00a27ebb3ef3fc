//! Sample statistics and seed derivation used by the benchmark.

/// Percentiles the benchmark may report next to a median, in per mille,
/// highest last.
const TAIL_LADDER: [u64; 3] = [900, 990, 999];

/// Samples a reported percentile must leave beyond it.
const TAIL_MIN_BEYOND: u64 = 10;

/// Median of `samples` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The `p`-th percentile of `samples` by linear interpolation between the
/// closest ranks (`p` in `[0, 100]`); `None` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least ten of
/// `count` samples beyond it, or `None` when even p90 would not.
pub fn tail_percentile(count: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&p| count as u64 * (1000 - p) >= TAIL_MIN_BEYOND * 1000)
        .map(|&p| p as f64 / 10.0)
}

/// SplitMix64 finaliser: a bijective, well-mixing map on `u64`.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Noise seed of FAR stream `stream` for a run with workload seed `seed`.
///
/// The workload seed moves only FAR noise: every `FarExperiment` of a run
/// draws its seed from here, and nothing else in a workload depends on it.
pub fn far_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let samples: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.0), Some(0.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        assert_eq!(percentile(&[0.0, 10.0], 25.0), Some(2.5));
    }

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        // Fewer than 100 samples: p90 would leave fewer than ten beyond.
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(3), None);
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn far_seeds_are_reproducible_and_distinct() {
        assert_eq!(far_seed(7, 3), far_seed(7, 3));
        // Different streams of one run never share noise.
        let streams: Vec<u64> = (0..64).map(|s| far_seed(7, s)).collect();
        let mut unique = streams.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), streams.len());
        // The workload seed moves every stream.
        for s in 0..64 {
            assert_ne!(far_seed(7, s), far_seed(8, s));
        }
        // Stream seeds are far apart: FarExperiment seeds trial `t` with
        // `seed + t`, so neighbouring streams must not overlap in trials.
        for pair in streams.windows(2) {
            assert!(pair[0].abs_diff(pair[1]) > 1_000_000);
        }
    }
}
