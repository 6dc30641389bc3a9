//! Percentiles that state their own support.
//!
//! A tail percentile is only meaningful when enough samples lie beyond
//! it, so [`Dist::tail`] refuses to report one with fewer than
//! [`MIN_BEYOND`] samples above its rank, and [`Dist::highest_tail`]
//! names the highest percentile the sample count supports.

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Percentiles [`Dist::highest_tail`] considers, highest first.
const LADDER: &[f64] = &[99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    /// Sorts `samples` (NaN-free by construction: every sample is a
    /// measured duration, size or ratio).
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile `p` (0 < p ≤ 100), with the count of
    /// samples strictly beyond its rank. `None` on an empty set.
    fn rank(&self, p: f64) -> Option<(f64, usize)> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        // The epsilon keeps 99.9 % of 10 000 at rank 9 990 despite the
        // binary representation of 99.9.
        let rank = (p * n as f64 / 100.0 - 1e-9).ceil().clamp(1.0, n as f64) as usize;
        Some((self.sorted[rank - 1], n - rank))
    }

    /// The median (nearest rank); `None` on an empty set.
    pub fn p50(&self) -> Option<f64> {
        self.rank(50.0).map(|(v, _)| v)
    }

    /// Percentile `p`, only when at least [`MIN_BEYOND`] samples lie
    /// beyond it.
    pub fn tail(&self, p: f64) -> Option<f64> {
        self.rank(p)
            .filter(|&(_, beyond)| beyond >= MIN_BEYOND)
            .map(|(v, _)| v)
    }

    /// The highest percentile with at least [`MIN_BEYOND`] samples
    /// beyond it, as `(percentile, value)`.
    pub fn highest_tail(&self) -> Option<(f64, f64)> {
        LADDER.iter().find_map(|&p| self.tail(p).map(|v| (p, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Dist {
        Dist::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(ramp(5).p50(), Some(3.0));
        assert_eq!(ramp(4).p50(), Some(2.0));
        assert_eq!(Dist::default().p50(), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 100 samples: p90 is rank 90 with exactly 10 beyond it.
        assert_eq!(ramp(100).tail(90.0), Some(90.0));
        assert_eq!(ramp(100).tail(99.0), None);
        // 99 samples: p90 sits at rank 90 with only 9 beyond.
        assert_eq!(ramp(99).tail(90.0), None);
        assert_eq!(ramp(1000).tail(99.0), Some(990.0));
    }

    #[test]
    fn highest_tail_reports_the_supported_percentile() {
        assert_eq!(ramp(100).highest_tail(), Some((90.0, 90.0)));
        assert_eq!(ramp(1000).highest_tail(), Some((99.0, 990.0)));
        assert_eq!(ramp(10_000).highest_tail(), Some((99.9, 9_990.0)));
        // 15 samples support only the median (8th, with 7 beyond: none).
        assert_eq!(ramp(15).highest_tail(), None);
        assert_eq!(ramp(20).highest_tail(), Some((50.0, 10.0)));
    }
}
