//! Order statistics over measured samples.
//!
//! A tail percentile is only reported when at least [`MIN_BEYOND`] samples
//! lie beyond it; otherwise the helper falls back to the highest percentile
//! the sample count supports and says so, so a p99 read from 200 samples
//! never masquerades as one read from 2000.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One percentile read from a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The percentile asked for, in `(0, 100)`.
    pub asked: f64,
    /// The percentile actually reported: `asked`, or the highest one with
    /// [`MIN_BEYOND`] samples beyond it when the set is too small.
    pub reported: f64,
    /// The value at `reported` (nearest rank); 0 for an empty set.
    pub value: f64,
    /// How many samples the value was read from.
    pub samples: usize,
    /// How many samples lie strictly beyond the reported rank.
    pub beyond: usize,
}

impl Quantile {
    /// Whether the asked percentile had enough samples beyond it.
    pub fn resolved(&self) -> bool {
        self.reported == self.asked
    }
}

/// Nearest-rank percentile `p` (in percent) of `samples`, applying the
/// "at least ten samples beyond" rule.
pub fn percentile(samples: &[f64], p: f64) -> Quantile {
    let n = samples.len();
    if n == 0 {
        return Quantile { asked: p, reported: p, value: 0.0, samples: 0, beyond: 0 };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Rank (1-based) of the nearest-rank percentile.
    let rank_of = |q: f64| ((q / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    let mut reported = p;
    let mut rank = rank_of(p);
    if n - rank < MIN_BEYOND {
        // Highest rank that still leaves MIN_BEYOND samples beyond it.
        rank = n.saturating_sub(MIN_BEYOND).max(1);
        reported = (rank as f64 / n as f64 * 100.0).min(p);
    }
    Quantile { asked: p, reported, value: sorted[rank - 1], samples: n, beyond: n - rank }
}

/// Median (mean of the middle pair for even counts); 0 for an empty set.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Arithmetic mean; 0 for an empty set.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=2000).map(f64::from).collect();
        let q = percentile(&samples, 99.0);
        assert!(q.resolved());
        assert_eq!(q.samples, 2000);
        assert_eq!(q.beyond, 20);
        assert_eq!(q.value, 1980.0);
    }

    #[test]
    fn small_sets_fall_back_and_say_so() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let q = percentile(&samples, 99.0);
        assert!(!q.resolved());
        assert_eq!(q.samples, 200);
        assert_eq!(q.beyond, MIN_BEYOND);
        assert_eq!(q.value, 190.0);
        assert!((q.reported - 95.0).abs() < 1e-9);
    }

    #[test]
    fn exactly_ten_beyond_is_enough() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let q = percentile(&samples, 99.0);
        assert!(q.resolved());
        assert_eq!(q.beyond, 10);
    }

    #[test]
    fn median_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[], 50.0).samples, 0);
    }
}
