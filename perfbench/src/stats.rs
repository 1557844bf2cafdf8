//! Honest order statistics over raw samples.
//!
//! Percentiles use the nearest-rank definition on the sorted samples,
//! never a histogram: the value reported is one that was actually
//! observed, and at least `p`% of the samples are at or below it. A
//! percentile is only *supported* when at least [`MIN_BEYOND`] samples
//! lie above its rank.

/// Samples that must lie beyond a percentile's rank for the sample to
/// support that percentile.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` (0 < p ≤ 100) among `n`
/// samples: `ceil(p/100 · n)`, clamped to `1..=n`.
fn nearest_rank(p: f64, n: usize) -> usize {
    // INVARIANT: p ∈ (0, 100] and n ≥ 1, so the product is finite and
    // non-negative; the ceil is exact for the sample counts used here.
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// A sorted copy of raw samples with nearest-rank percentile queries.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts a copy of `values` (NaNs are rejected by the caller: every
    /// sample here is a measured duration or count).
    pub fn new(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        Self { sorted }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile; `None` on an empty sample.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted[nearest_rank(p, self.sorted.len()) - 1])
    }

    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Whether at least [`MIN_BEYOND`] samples lie above `p`'s rank.
    pub fn supports(&self, p: f64) -> bool {
        let n = self.sorted.len();
        n > 0 && n - nearest_rank(p, n) >= MIN_BEYOND
    }

    /// The highest whole percentile the sample supports (`None` when
    /// even the median is not supported).
    pub fn highest_supported(&self) -> Option<u32> {
        (50..=99).rev().find(|&p| self.supports(f64::from(p)))
    }
}

/// Median of a small set of repeated measurements (e.g. set-up times).
pub fn median(values: &[f64]) -> f64 {
    Samples::new(values).median().unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute force: the smallest observed value `v` with at least
    /// `p`% of the samples at or below it.
    fn brute(values: &[f64], p: f64) -> f64 {
        let n = values.len() as f64;
        let mut candidates = values.to_vec();
        candidates.sort_by(f64::total_cmp);
        candidates
            .into_iter()
            .find(|&v| values.iter().filter(|&&x| x <= v).count() as f64 >= p / 100.0 * n)
            .expect("the maximum always qualifies")
    }

    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        *state >> 33
    }

    #[test]
    fn nearest_rank_matches_brute_force_sort() {
        let mut state = 0x5EED;
        for n in 1..=120usize {
            // Few distinct values force ties at the rank boundary.
            let values: Vec<f64> = (0..n).map(|_| (lcg(&mut state) % 17) as f64).collect();
            let s = Samples::new(&values);
            for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 100.0] {
                assert_eq!(s.percentile(p), Some(brute(&values, p)), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn support_needs_ten_samples_beyond_the_rank() {
        assert!(!Samples::new(&[1.0; 19]).supports(50.0));
        assert!(Samples::new(&[1.0; 20]).supports(50.0));
        assert!(!Samples::new(&[1.0; 99]).supports(90.0));
        assert!(Samples::new(&[1.0; 100]).supports(90.0));
        assert_eq!(Samples::new(&[1.0; 19]).highest_supported(), None);
        assert_eq!(Samples::new(&[1.0; 100]).highest_supported(), Some(90));
        assert_eq!(Samples::new(&[]).percentile(50.0), None);
    }

    #[test]
    fn median_of_odd_and_even_counts_is_an_observed_value() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
