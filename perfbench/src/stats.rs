//! Exact order statistics over raw samples.
//!
//! Gated percentiles never come from bucketed histograms: bucket edges
//! turn a small shift in the distribution into a jump of a whole bucket.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted`, interpolating linearly
/// between the two closest ranks. Returns `None` on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Percentiles of one sample set, with the count they rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
}

/// Sort `samples` in place and summarize them; `None` when empty.
pub fn summarize(samples: &mut [f64]) -> Option<Summary> {
    samples.sort_by(|a, b| a.total_cmp(b));
    Some(Summary {
        count: samples.len(),
        p50: quantile_sorted(samples, 0.5)?,
        p99: quantile_sorted(samples, 0.99)?,
    })
}

/// Median of `samples` (sorted in place); `None` when empty.
pub fn median(samples: &mut [f64]) -> Option<f64> {
    samples.sort_by(|a, b| a.total_cmp(b));
    quantile_sorted(samples, 0.5)
}

/// Median of the better half of `samples` (the lower half, or the upper
/// one when `higher_is_better`; the middle sample of an odd count counts
/// as better). `samples` is sorted in place; `None` when empty.
pub fn better_half_median(samples: &mut [f64], higher_is_better: bool) -> Option<f64> {
    samples.sort_by(|a, b| a.total_cmp(b));
    if higher_is_better {
        samples.reverse();
    }
    let half = samples.len().div_ceil(2);
    let mut better = samples[..half].to_vec();
    median(&mut better)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), Some(1.0));
        assert_eq!(quantile_sorted(&v, 1.0), Some(4.0));
        assert_eq!(quantile_sorted(&v, 0.5), Some(2.5));
        assert_eq!(quantile_sorted(&v, 0.25), Some(1.75));
    }

    #[test]
    fn single_sample_is_every_quantile() {
        assert_eq!(quantile_sorted(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile_sorted(&[], 0.5), None);
    }

    #[test]
    fn p99_of_a_hundred_and_one_samples_is_exact() {
        // 0..=100: rank 99 of 100 lands exactly on the value 99.
        let mut v: Vec<f64> = (0..=100).rev().map(f64::from).collect();
        let s = summarize(&mut v).unwrap();
        assert_eq!(s.count, 101);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p99, 99.0);
    }

    #[test]
    fn better_half_median_takes_the_better_side() {
        let mut v = vec![9.0, 1.0, 5.0, 3.0, 7.0];
        // Better half, lower is better: 1, 3, 5.
        assert_eq!(better_half_median(&mut v, false), Some(3.0));
        // Higher is better: 9, 7, 5.
        assert_eq!(better_half_median(&mut v, true), Some(7.0));
        assert_eq!(better_half_median(&mut [4.0, 2.0], false), Some(2.0));
        assert_eq!(better_half_median(&mut [], true), None);
    }

    #[test]
    fn median_sorts_its_input() {
        let mut v = vec![9.0, 1.0, 5.0];
        assert_eq!(median(&mut v), Some(5.0));
        assert_eq!(v, vec![1.0, 5.0, 9.0]);
        assert_eq!(median(&mut []), None);
    }
}
