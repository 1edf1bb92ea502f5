//! Coordinate-wise trimmed mean (Yin et al., ICML 2018).

use crate::median::{column_stat, column_stat_parallel};
use crate::{AggScratch, Aggregator};
use hfl_tensor::stats::ColumnStat;

/// Coordinate-wise trimmed mean over `rows`, parallelized over
/// tile-aligned coordinate chunks as
/// [`coordinate_median_parallel`](crate::median::coordinate_median_parallel)
/// is.
pub fn coordinate_trimmed_mean_parallel(
    rows: &[&[f32]],
    trim: usize,
    out: &mut [f32],
    threads: usize,
) {
    column_stat_parallel(ColumnStat::TrimmedMean { trim }, rows, out, threads);
}

/// Coordinate-wise `ratio`-trimmed mean: removes the `⌊ratio·n⌋` smallest
/// and largest values of each coordinate before averaging.
#[derive(Clone, Copy, Debug)]
pub struct TrimmedMean {
    ratio: f64,
}

impl TrimmedMean {
    /// Trimmed mean removing a `ratio` fraction from each tail.
    ///
    /// # Panics
    /// If `ratio` is outside `[0, 0.5)`.
    pub fn new(ratio: f64) -> Self {
        assert!(
            (0.0..0.5).contains(&ratio),
            "trim ratio must be in [0, 0.5)"
        );
        Self { ratio }
    }

    /// The trim fraction per tail.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// Number of values trimmed from each tail for `n` inputs, clamped so
    /// at least one value always remains.
    pub fn trim_count(&self, n: usize) -> usize {
        let t = (self.ratio * n as f64).floor() as usize;
        if 2 * t >= n {
            n.saturating_sub(1) / 2
        } else {
            t
        }
    }
}

impl Aggregator for TrimmedMean {
    fn name(&self) -> &'static str {
        "trimmed-mean"
    }

    fn aggregate(&self, updates: &[&[f32]], weights: Option<&[f32]>) -> Vec<f32> {
        let mut out = Vec::new();
        self.aggregate_into(updates, weights, &mut out, &mut AggScratch::default());
        out
    }

    fn aggregate_into(
        &self,
        updates: &[&[f32]],
        _weights: Option<&[f32]>,
        out: &mut Vec<f32>,
        scratch: &mut AggScratch,
    ) {
        let trim = self.trim_count(updates.len());
        column_stat(
            ColumnStat::TrimmedMean { trim },
            updates,
            out,
            &mut scratch.col,
        );
    }

    fn max_byzantine(&self, n: usize) -> usize {
        self.trim_count(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::cluster_with_outliers;

    #[test]
    fn trims_extremes() {
        let updates = cluster_with_outliers(&[2.0], 0.0, 8, &[1e9], 2);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = TrimmedMean::new(0.2).aggregate(&refs, None);
        assert!((out[0] - 2.0).abs() < 1e-3, "got {}", out[0]);
    }

    /// NaN rows sort to the tails, so a trim that covers their count
    /// discards them (and nothing panics when it does not).
    #[test]
    fn nan_rows_within_the_trim_are_discarded() {
        let mut updates = cluster_with_outliers(&[2.0], 0.1, 8, &[f32::NAN], 2);
        updates[3] = vec![-f32::NAN];
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let rule = TrimmedMean::new(0.2);
        assert_eq!(rule.trim_count(refs.len()), 2);
        let out = rule.aggregate(&refs, None);
        assert!((out[0] - 2.0).abs() < 0.1, "got {}", out[0]);
        assert!(TrimmedMean::new(0.1).aggregate(&refs, None)[0].is_nan());
    }

    #[test]
    fn zero_ratio_is_plain_mean() {
        let a = [0.0f32];
        let b = [4.0f32];
        let out = TrimmedMean::new(0.0).aggregate(&[&a, &b], None);
        assert_eq!(out, vec![2.0]);
    }

    #[test]
    fn trim_count_clamps_for_tiny_n() {
        let tm = TrimmedMean::new(0.4);
        assert_eq!(tm.trim_count(2), 0); // 0.8 of 2 floor = 0
        assert_eq!(tm.trim_count(3), 1);
        assert_eq!(tm.trim_count(10), 4);
    }

    #[test]
    #[should_panic(expected = "trim ratio")]
    fn half_ratio_panics() {
        TrimmedMean::new(0.5);
    }

    #[test]
    fn parallel_trimmed_mean_matches_sequential() {
        // Same result regardless of thread count and chunking.
        let rows: Vec<Vec<f32>> = (0..9)
            .map(|i| {
                (0..1000)
                    .map(|j| ((i * 31 + j * 7) % 17) as f32 - 8.0)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut seq = vec![0.0f32; 1000];
        hfl_tensor::stats::coordinate_trimmed_mean(&refs, 2, &mut seq);
        for threads in [1, 2, 4, 7] {
            let mut par = vec![0.0f32; 1000];
            coordinate_trimmed_mean_parallel(&refs, 2, &mut par, threads);
            assert_eq!(par, seq, "mismatch at {threads} threads");
        }
    }

    #[test]
    fn large_dimension_routes_through_parallel_path() {
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|i| vec![i as f32; crate::median::PARALLEL_MIN_ELEMENTS / 5 + 3])
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let out = TrimmedMean::new(0.2).aggregate(&refs, None);
        assert!(out.iter().all(|x| *x == 2.0));
    }
}
