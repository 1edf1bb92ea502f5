//! Coordinate-wise trimmed mean (Yin et al., ICML 2018).

use crate::median::column_stat;
use hfl_tensor::stats::ColumnStat;

/// Number of values trimmed from each tail of `n` inputs at `ratio`,
/// clamped so at least one value always remains.
pub fn trim_count(ratio: f64, n: usize) -> usize {
    let t = (ratio * n as f64).floor() as usize;
    if 2 * t >= n {
        n.saturating_sub(1) / 2
    } else {
        t
    }
}

/// Coordinate-wise `ratio`-trimmed mean: removes the
/// [`trim_count`] smallest and largest values of each coordinate before
/// averaging.
pub(crate) fn trimmed_mean(updates: &[&[f32]], ratio: f64, out: &mut Vec<f32>, col: &mut Vec<f32>) {
    let trim = trim_count(ratio, updates.len());
    column_stat(ColumnStat::TrimmedMean { trim }, updates, out, col);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::median::column_stat_parallel;
    use crate::tests::cluster_with_outliers;
    use crate::{Aggregator, AggregatorKind};

    fn tm(ratio: f64) -> AggregatorKind {
        AggregatorKind::TrimmedMean { ratio }
    }

    #[test]
    fn trims_extremes() {
        let updates = cluster_with_outliers(&[2.0], 0.0, 8, &[1e9], 2);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = tm(0.2).aggregate(&refs, None);
        assert!((out[0] - 2.0).abs() < 1e-3, "got {}", out[0]);
    }

    /// NaN rows sort to the tails, so a trim that covers their count
    /// discards them (and nothing panics when it does not).
    #[test]
    fn nan_rows_within_the_trim_are_discarded() {
        let mut updates = cluster_with_outliers(&[2.0], 0.1, 8, &[f32::NAN], 2);
        updates[3] = vec![-f32::NAN];
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let rule = tm(0.2);
        assert_eq!(trim_count(0.2, refs.len()), 2);
        let out = rule.aggregate(&refs, None);
        assert!((out[0] - 2.0).abs() < 0.1, "got {}", out[0]);
        assert!(tm(0.1).aggregate(&refs, None)[0].is_nan());
    }

    #[test]
    fn zero_ratio_is_plain_mean() {
        let a = [0.0f32];
        let b = [4.0f32];
        let out = tm(0.0).aggregate(&[&a, &b], None);
        assert_eq!(out, vec![2.0]);
    }

    #[test]
    fn trim_count_clamps_for_tiny_n() {
        assert_eq!(trim_count(0.4, 2), 0); // 0.8 of 2 floor = 0
        assert_eq!(trim_count(0.4, 3), 1);
        assert_eq!(trim_count(0.4, 10), 4);
    }

    #[test]
    #[should_panic(expected = "trimmed-mean ratio")]
    fn half_ratio_panics() {
        tm(0.5).aggregate(&[&[1.0]], None);
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
            hfl_parallel::with_threads(threads, || {
                column_stat_parallel(ColumnStat::TrimmedMean { trim: 2 }, &refs, &mut par)
            });
            assert_eq!(par, seq, "mismatch at {threads} threads");
        }
    }

    #[test]
    fn large_dimension_routes_through_parallel_path() {
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|i| vec![i as f32; crate::median::PARALLEL_MIN_ELEMENTS / 5 + 3])
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let out = tm(0.2).aggregate(&refs, None);
        assert!(out.iter().all(|x| *x == 2.0));
    }
}
