//! Coordinate-wise median (Yin et al., ICML 2018) — the paper's non-IID
//! partial-aggregation rule.

use crate::validate_updates;
use hfl_tensor::ops::{with_width, Width};
use hfl_tensor::stats::{column_stat_into, ColumnStat, NETWORK_MAX_ROWS, TILE_LANES};

/// Input size, `n · d` elements, from which the coordinate loops of the
/// median and the trimmed mean are split across threads while the rows
/// fit the sorting network (`n ≤ NETWORK_MAX_ROWS`). Measured on the
/// parked worker set (2 cores, 2 threads, sequential ÷ parallel time,
/// best and median of nine, two sweeps with the second core free): the
/// network costs 0.55 ns an element at 8 rows and 1.8 ns at 256, so
/// what decides is the sequential time — below ≈ 100 µs every shape
/// lost (8 × 650 → 0.3, 16 × 4 810 → 0.65, 8 × 16 384 → 0.94–0.97),
/// at 130–160 µs it is a toss-up (32 × 4 810 → 1.24 / 1.02 then 1.07 /
/// 0.92; 4 × 65 536 → 1.46 / 1.03 then 0.85 / 0.76), from ≈ 250 µs up
/// every shape won both times (256 × 650 → 1.73 / 1.34, 8 × 65 536 →
/// 1.41 / 1.24, 128 × 4 810 → 1.67 / 1.22). The cut-off is the smallest
/// `n · d` that won at every row count, i.e. at the cheapest rows; a
/// 256-row input of a third that size stays sequential at a cost the
/// network has already paid back. Results are identical on both sides.
pub(crate) const PARALLEL_MIN_ELEMENTS: usize = 524_288;

/// The same for more rows than the network takes, where each column is
/// gathered and sorted (≈ 17 ns an element at 300 rows): the size PR 16
/// fitted to that loop, 300 × 650 → 1.90–1.95.
pub(crate) const PARALLEL_MIN_SORTED_ELEMENTS: usize = 32_768;

/// `stat` of every coordinate of `rows`, the coordinates split into
/// tile-aligned chunks claimed off the work-stealing scheduler by
/// [`hfl_parallel::default_threads`] workers: each runs
/// [`column_stat_into`] on a disjoint slice of `out`, at the caller's
/// [`Width::current`], so per-coordinate values match the sequential
/// kernel exactly at any thread count.
pub fn column_stat_parallel(stat: ColumnStat, rows: &[&[f32]], out: &mut [f32]) {
    let d = out.len();
    assert!(!rows.is_empty(), "column statistic: empty input");
    assert!(
        rows.iter().all(|r| r.len() == d),
        "column statistic: row length mismatch"
    );
    let threads = hfl_parallel::default_threads();
    let chunk = d.div_ceil(threads).max(1).next_multiple_of(TILE_LANES);
    let width = Width::current();
    hfl_parallel::par_chunks_mut(out, chunk, threads, |base, slice| {
        // The column buffer is only grown past the network's row limit.
        with_width(width, || {
            column_stat_into(stat, rows.iter().copied(), base, slice, &mut Vec::new())
        })
        .expect("the caller's width is detected");
    });
}

/// `stat` of every coordinate of `updates` into `out`, in parallel from
/// [`PARALLEL_MIN_ELEMENTS`] (or [`PARALLEL_MIN_SORTED_ELEMENTS`])
/// elements up — the body of every coordinate-wise rule (the median
/// itself, and the trimmed mean's).
pub(crate) fn column_stat(
    stat: ColumnStat,
    updates: &[&[f32]],
    out: &mut Vec<f32>,
    col: &mut Vec<f32>,
) {
    let d = validate_updates(updates);
    out.clear();
    out.resize(d, 0.0);
    let cutoff = if updates.len() <= NETWORK_MAX_ROWS {
        PARALLEL_MIN_ELEMENTS
    } else {
        PARALLEL_MIN_SORTED_ELEMENTS
    };
    if updates.len() * d >= cutoff {
        column_stat_parallel(stat, updates, out);
    } else {
        column_stat_into(stat, updates.iter().copied(), 0, out, col);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::cluster_with_outliers;
    use crate::{Aggregator, AggregatorKind::Median};

    #[test]
    fn median_resists_minority_outliers() {
        let updates = cluster_with_outliers(&[1.0, 2.0], 0.1, 5, &[1e6, -1e6], 2);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = Median.aggregate(&refs, None);
        assert!(hfl_tensor::ops::dist(&out, &[1.0, 2.0]) < 0.5);
    }

    #[test]
    fn median_breaks_at_majority() {
        let updates = cluster_with_outliers(&[0.0], 0.0, 2, &[100.0], 3);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = Median.aggregate(&refs, None);
        assert_eq!(out[0], 100.0);
    }

    #[test]
    fn single_update_is_identity() {
        let u = [3.0f32, -2.0];
        let out = Median.aggregate(&[&u], None);
        assert_eq!(out, vec![3.0, -2.0]);
    }

    #[test]
    fn parallel_median_matches_sequential() {
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
        hfl_tensor::stats::coordinate_median(&refs, &mut seq);
        for threads in [1, 2, 4, 7] {
            let mut par = vec![0.0f32; 1000];
            hfl_parallel::with_threads(threads, || {
                column_stat_parallel(ColumnStat::Median, &refs, &mut par)
            });
            assert_eq!(par, seq, "mismatch at {threads} threads");
        }
    }

    #[test]
    fn large_dimension_routes_through_parallel_path() {
        // Exercise the parallel branch end to end.
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|i| vec![i as f32; super::PARALLEL_MIN_ELEMENTS / 5 + 3])
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let out = Median.aggregate(&refs, None);
        assert!(out.iter().all(|x| *x == 2.0));
    }

    /// An adversarial NaN update must not panic the aggregator (the
    /// contract `krum.rs` states for the Krum family): a NaN minority
    /// sorts to the tails and the median discards it.
    #[test]
    fn nan_minority_leaves_the_median_finite() {
        for n in [3usize, 4, 8, 9] {
            let mut updates = cluster_with_outliers(&[1.0, 2.0], 0.1, n - (n - 1) / 2, &[], 0);
            for i in 0..(n - 1) / 2 {
                updates.insert(i, vec![if i % 2 == 0 { f32::NAN } else { -f32::NAN }; 2]);
            }
            let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
            let out = Median.aggregate(&refs, None);
            assert!(
                hfl_tensor::ops::dist(&out, &[1.0, 2.0]) < 0.5,
                "n={n}: {out:?}"
            );
        }
    }
}
