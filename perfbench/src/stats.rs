//! Summary statistics for latency samples.

/// A timing distribution: median and tail, with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Samples summarized.
    pub n: usize,
    /// The median (mean of the two middle samples when `n` is even).
    pub p50: f64,
    /// The tail value: the highest percentile with at least
    /// [`TAIL_BEYOND`] samples strictly beyond it (the maximum when there
    /// are too few samples for that).
    pub tail: f64,
    /// Which percentile `tail` is: the share of samples at or below it,
    /// in percent.
    pub tail_pct: f64,
    /// Samples above `tail` (at least [`TAIL_BEYOND`] unless `n` is small).
    pub beyond: usize,
}

/// Samples the tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Summarizes `samples` (any order); `None` when empty.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let p50 = if n % 2 == 1 { sorted[n / 2] } else { (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0 };
    // Nearest rank: the value at index i has n - 1 - i samples after it.
    let i = if n > TAIL_BEYOND { n - 1 - TAIL_BEYOND } else { n - 1 };
    let beyond = n - 1 - i;
    Some(Summary { n, p50, tail: sorted[i], tail_pct: 100.0 * (i + 1) as f64 / n as f64, beyond })
}

/// Median of `samples`, 0.0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.p50)
}

/// Arithmetic mean, 0.0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, 0.0 when the denominator is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.5);
        assert_eq!(s.tail, 90.0);
        assert_eq!(s.beyond, 10);
        assert_eq!(s.tail_pct, 90.0);
        // Exactly ten values are larger than the tail.
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_percentile_rises_with_sample_count() {
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        let s = summarize(&samples).unwrap();
        assert_eq!(s.tail, 989.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.beyond, 10);
    }

    #[test]
    fn few_samples_fall_back_to_the_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.tail, 3.0);
        assert_eq!(s.beyond, 0);
        assert_eq!(s.tail_pct, 100.0);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        let s = summarize(&eleven).unwrap();
        assert_eq!((s.tail, s.beyond), (0.0, 10));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn helpers_handle_empty_input() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
