//! Order statistics and ratio helpers shared by every reported metric.

/// The median of `samples` (mean of the two middle values for an even count);
/// `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `samples`, provided at least
/// `min_beyond` samples lie strictly beyond its rank; `None` otherwise.
///
/// A tail percentile read from too few samples is a guess, so every reported
/// tail percentile asks for at least ten samples beyond it: a p95 needs at
/// least 200 samples.
pub fn percentile(samples: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "quantile {p} outside (0, 1)");
    let n = samples.len();
    if n == 0 {
        return None;
    }
    // Nearest rank: the smallest value with at least a `p` share of the samples
    // at or below it.
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < min_beyond {
        return None;
    }
    Some(sorted(samples)[rank - 1])
}

/// `numerator / denominator`, or `0.0` when the denominator is zero (an empty
/// run reads as "none of it", never as NaN).
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Relative extra cost of `measured` over `baseline`: `(measured - baseline) /
/// baseline`. Negative when `measured` was cheaper (run-to-run noise).
pub fn overhead(measured: f64, baseline: f64) -> f64 {
    ratio(measured - baseline, baseline)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the helpers must sort.
        (1..=n).rev().map(|v| v as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 200 samples: rank 190, exactly ten beyond — allowed.
        assert_eq!(percentile(&ramp(200), 0.95, 10), Some(190.0));
        // 199 samples: rank 190 (ceil of 189.05), nine beyond — refused.
        assert_eq!(percentile(&ramp(199), 0.95, 10), None);
        assert_eq!(percentile(&ramp(1000), 0.95, 10), Some(950.0));
        assert_eq!(percentile(&[], 0.95, 0), None);
    }

    #[test]
    fn p50_is_the_lower_middle_by_nearest_rank() {
        assert_eq!(percentile(&ramp(4), 0.5, 0), Some(2.0));
        assert_eq!(percentile(&ramp(5), 0.5, 2), Some(3.0));
        assert_eq!(percentile(&ramp(5), 0.5, 3), None);
        assert_eq!(percentile(&[7.0], 0.5, 0), Some(7.0));
    }

    #[test]
    fn ratios_never_divide_by_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(overhead(110.0, 100.0), 0.1);
        assert!(overhead(90.0, 100.0) < 0.0);
        assert_eq!(overhead(1.0, 0.0), 0.0);
    }
}
