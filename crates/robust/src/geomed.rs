//! Geometric median via Weiszfeld's algorithm (GeoMed; Chen et al. 2017).
//!
//! The geometric median minimizes the sum of Euclidean distances to the
//! inputs and has breakdown point 1/2. Weiszfeld iterates a weighted mean
//! with weights `1/dist`; each iteration is O(n·d) and parallelizes over
//! inputs.

use crate::{validate_updates, AggScratch};

/// Maximum Weiszfeld iterations.
const MAX_ITERS: usize = 100;
/// Convergence threshold on the step length.
const TOL: f64 = 1e-7;

/// Weiszfeld from the coordinate-wise mean: writes the estimate into
/// `est`, reusing `scratch` buffers (distance row, weight row,
/// next-estimate temporary) across iterations *and* across calls, and
/// returns the iteration count. The distance fill forks over
/// [`hfl_parallel::default_threads`] workers, placed by index, so the
/// estimate is identical at any thread count.
///
/// A row with a non-finite coordinate would make the mean start, and so
/// every distance and weight, NaN: the start and the steps then run over
/// the finite rows alone (over every row when none is finite).
pub(crate) fn weiszfeld(updates: &[&[f32]], est: &mut Vec<f32>, scratch: &mut AggScratch) -> usize {
    let d = validate_updates(updates);
    let finite = |u: &&[f32]| u.iter().all(|x| x.is_finite());
    if !updates.iter().all(finite) {
        let rows: Vec<&[f32]> = updates.iter().copied().filter(finite).collect();
        if !rows.is_empty() {
            return weiszfeld(&rows, est, scratch);
        }
    }
    est.clear();
    est.resize(d, 0.0);
    hfl_tensor::ops::mean_of(updates, est);
    if updates.len() == 1 {
        return 0;
    }
    let n = updates.len();
    let AggScratch { row, col, tmp, .. } = scratch;
    let (dists, weights, next) = (row, col, tmp);
    dists.clear();
    dists.resize(n, 0.0);
    next.clear();
    next.resize(d, 0.0);
    let threads = hfl_parallel::default_threads();
    let chunk = n.div_ceil(threads).max(1);
    for it in 0..MAX_ITERS {
        // Weights 1/max(dist, eps); a point sitting exactly on an
        // input gets a huge weight, effectively snapping to it —
        // the standard Weiszfeld regularization. The fill is
        // work-stealing over row chunks but placement is by index,
        // so the row is identical at any thread count.
        let est_ro = &est[..];
        hfl_parallel::par_chunks_mut(dists, chunk, threads, |base, slice| {
            for (off, o) in slice.iter_mut().enumerate() {
                *o = hfl_tensor::ops::dist(est_ro, updates[base + off]).max(1e-12);
            }
        });
        weights.clear();
        weights.extend(dists.iter().map(|d| (1.0 / d) as f32));
        hfl_tensor::ops::weighted_mean_of(updates, weights, next);
        let step = hfl_tensor::ops::dist(est, next);
        est.copy_from_slice(next);
        if step < TOL {
            return it + 1;
        }
    }
    MAX_ITERS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::cluster_with_outliers;
    use crate::{Aggregator, AggregatorKind};

    fn compute(updates: &[&[f32]]) -> (Vec<f32>, usize) {
        let mut est = Vec::new();
        let iters = weiszfeld(updates, &mut est, &mut AggScratch::default());
        (est, iters)
    }

    #[test]
    fn geomed_of_symmetric_points_is_center() {
        let updates = [
            vec![1.0f32, 0.0],
            vec![-1.0f32, 0.0],
            vec![0.0f32, 1.0],
            vec![0.0f32, -1.0],
        ];
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = AggregatorKind::GeoMed.aggregate(&refs, None);
        assert!(hfl_tensor::ops::norm(&out) < 1e-4, "got {out:?}");
    }

    #[test]
    fn geomed_resists_minority_outliers() {
        let updates = cluster_with_outliers(&[1.0, 1.0], 0.05, 7, &[1e4, 1e4], 3);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = AggregatorKind::GeoMed.aggregate(&refs, None);
        assert!(
            hfl_tensor::ops::dist(&out, &[1.0, 1.0]) < 0.5,
            "got {out:?}"
        );
    }

    #[test]
    fn mean_would_fail_where_geomed_holds() {
        let updates = cluster_with_outliers(&[1.0, 1.0], 0.05, 7, &[1e4, 1e4], 3);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let mean = AggregatorKind::FedAvg.aggregate(&refs, None);
        assert!(hfl_tensor::ops::dist(&mean, &[1.0, 1.0]) > 100.0);
    }

    #[test]
    fn single_point_is_identity() {
        let u = [5.0f32, -3.0];
        let (out, iters) = compute(&[&u]);
        assert_eq!(out, vec![5.0, -3.0]);
        assert_eq!(iters, 0);
    }

    #[test]
    fn weiszfeld_reads_the_same_bits_at_every_thread_count() {
        let updates = cluster_with_outliers(&[1.0, 1.0, -0.5], 0.3, 9, &[50.0, -50.0, 2.0], 2);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let (baseline, base_iters) = hfl_parallel::with_threads(1, || compute(&refs));
        let mut scratch = AggScratch::default();
        let mut est = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            let iters =
                hfl_parallel::with_threads(threads, || weiszfeld(&refs, &mut est, &mut scratch));
            assert_eq!(iters, base_iters, "threads={threads}");
            for (a, b) in est.iter().zip(&baseline) {
                assert_eq!(a.to_bits(), b.to_bits(), "threads={threads}");
            }
        }
    }

    #[test]
    fn converges_quickly_on_tight_cluster() {
        let updates = cluster_with_outliers(&[0.0, 0.0], 0.01, 10, &[0.0, 0.0], 0);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let (_, iters) = compute(&refs);
        assert!(iters < MAX_ITERS, "did not converge: {iters}");
    }
}
