//! Coordinate-wise median (Yin et al., ICML 2018) — the paper's non-IID
//! partial-aggregation rule.

use crate::{validate_updates, AggScratch, Aggregator};

/// Input size, `n · d` elements, from which the coordinate loops of the
/// median and the trimmed mean are split across threads. Measured on
/// the parked worker set (2 cores, 2 threads, sequential ÷ parallel
/// time): n × d = 4 × 650 → 0.3, 8 × 650 → 0.6–0.8 (25 µs of selection
/// against one helper wake), 16 × 650 → 1.4, 8 × 1 300 → 1.6; 4 × 4 810
/// read 0.8 and 2.2 in two sweeps (a wake takes 10 µs or 60 µs
/// depending on how deeply the other core sleeps); from 32 × 1 024 up
/// — 8 × 4 810, 128 × 650, 4 × 16 384, 128 × 16 384 — every cell read
/// 1.5–2.0. The cut-off is the smallest size that won every time. `d`
/// alone, the old criterion, is the wrong variable: 128 × 4 810 halves
/// (7.9 → 4.2 ms). Results are identical on both sides of it.
pub(crate) const PARALLEL_MIN_ELEMENTS: usize = 32_768;

/// Coordinate-wise median over `rows`, parallelized over coordinate
/// chunks: each worker owns a disjoint slice of `out` plus a private
/// column scratch buffer, so the kernel is data-race-free by construction
/// and scales linearly in the coordinate count.
pub fn coordinate_median_parallel(rows: &[&[f32]], out: &mut [f32], threads: usize) {
    let d = out.len();
    assert!(!rows.is_empty(), "coordinate_median: empty input");
    assert!(
        rows.iter().all(|r| r.len() == d),
        "coordinate_median: row length mismatch"
    );
    let chunk = d.div_ceil(threads.max(1)).max(1);
    hfl_parallel::par_chunks_mut(out, chunk, threads, |base, slice| {
        let mut col = vec![0.0f32; rows.len()];
        for (off, o) in slice.iter_mut().enumerate() {
            let j = base + off;
            for (c, r) in col.iter_mut().zip(rows) {
                *c = r[j];
            }
            *o = hfl_tensor::stats::median_in_place(&mut col);
        }
    });
}

/// Coordinate-wise median over updates.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoordMedian;

impl Aggregator for CoordMedian {
    fn name(&self) -> &'static str {
        "median"
    }

    fn aggregate(&self, updates: &[&[f32]], _weights: Option<&[f32]>) -> Vec<f32> {
        let d = validate_updates(updates);
        let mut out = vec![0.0f32; d];
        if updates.len() * d >= PARALLEL_MIN_ELEMENTS {
            coordinate_median_parallel(updates, &mut out, hfl_parallel::default_threads());
        } else {
            hfl_tensor::stats::coordinate_median(updates, &mut out);
        }
        out
    }

    fn aggregate_into(
        &self,
        updates: &[&[f32]],
        _weights: Option<&[f32]>,
        out: &mut Vec<f32>,
        scratch: &mut AggScratch,
    ) {
        let d = validate_updates(updates);
        out.clear();
        out.resize(d, 0.0);
        if updates.len() * d >= PARALLEL_MIN_ELEMENTS {
            coordinate_median_parallel(updates, out, hfl_parallel::default_threads());
        } else {
            hfl_tensor::stats::coordinate_median_into(updates, out, &mut scratch.col);
        }
    }

    fn max_byzantine(&self, n: usize) -> usize {
        // The median moves outside the honest range once the adversary
        // controls half the inputs.
        n.saturating_sub(1) / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::cluster_with_outliers;

    #[test]
    fn median_resists_minority_outliers() {
        let updates = cluster_with_outliers(&[1.0, 2.0], 0.1, 5, &[1e6, -1e6], 2);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = CoordMedian.aggregate(&refs, None);
        assert!(hfl_tensor::ops::dist(&out, &[1.0, 2.0]) < 0.5);
    }

    #[test]
    fn median_breaks_at_majority() {
        let updates = cluster_with_outliers(&[0.0], 0.0, 2, &[100.0], 3);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = CoordMedian.aggregate(&refs, None);
        assert_eq!(out[0], 100.0);
    }

    #[test]
    fn single_update_is_identity() {
        let u = [3.0f32, -2.0];
        let out = CoordMedian.aggregate(&[&u], None);
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
            coordinate_median_parallel(&refs, &mut par, threads);
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
        let out = CoordMedian.aggregate(&refs, None);
        assert!(out.iter().all(|x| *x == 2.0));
    }

    #[test]
    fn tolerance_is_minority() {
        assert_eq!(CoordMedian.max_byzantine(5), 2);
        assert_eq!(CoordMedian.max_byzantine(4), 1);
        assert_eq!(CoordMedian.max_byzantine(1), 0);
    }
}
