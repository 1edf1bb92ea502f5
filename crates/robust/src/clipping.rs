//! Centered Clipping (Karimireddy et al., ICML 2021).
//!
//! Fixed-point iteration `v ← v + (1/n) Σᵢ clip(xᵢ − v, τ)`: each update's
//! influence is bounded by the clipping radius τ, so a minority of
//! arbitrarily-placed updates can move the result by at most `f·τ/n` per
//! iteration. We start from the coordinate-wise median for a robust seed.

use crate::{validate_updates, AggScratch};

/// Centered clipping with radius `tau` and `iters` refinement passes
/// into `v`. The median seed's column buffer and the two
/// dimension-sized temporaries come from `scratch`. A row with a
/// non-finite coordinate has no usable clipped difference (its norm is
/// NaN or ∞), so it is left out of the clipped sum and of its count;
/// all-finite inputs take every row.
pub(crate) fn centered_clip(
    updates: &[&[f32]],
    tau: f64,
    iters: usize,
    v: &mut Vec<f32>,
    scratch: &mut AggScratch,
) {
    let d = validate_updates(updates);
    let AggScratch { idx, col, tmp, .. } = scratch;
    // Robust seed: coordinate-wise median.
    v.clear();
    v.resize(d, 0.0);
    hfl_tensor::stats::coordinate_median_into(updates, v, col);
    idx.clear();
    idx.extend((0..updates.len()).filter(|&i| updates[i].iter().all(|x| x.is_finite())));
    // With no finite row the sum stays zero and `v` the seed.
    let inv_n = 1.0 / idx.len().max(1) as f32;
    let (delta, diff) = (tmp, col);
    delta.clear();
    delta.resize(d, 0.0);
    diff.clear();
    diff.resize(d, 0.0);
    for _ in 0..iters {
        hfl_tensor::ops::zero(delta);
        for &i in idx.iter() {
            diff.copy_from_slice(updates[i]);
            hfl_tensor::ops::sub_assign(v, diff); // diff = u - v
            hfl_tensor::ops::clip_norm(diff, tau);
            hfl_tensor::ops::add_assign(diff, delta);
        }
        hfl_tensor::ops::axpy(inv_n, delta, v);
    }
}

#[cfg(test)]
mod tests {
    use crate::tests::cluster_with_outliers;
    use crate::{Aggregator, AggregatorKind};

    fn cc(tau: f64, iters: usize) -> AggregatorKind {
        AggregatorKind::CenteredClip { tau, iters }
    }

    #[test]
    fn clip_bounds_outlier_influence() {
        let updates = cluster_with_outliers(&[1.0, 1.0], 0.05, 9, &[1e6, 1e6], 1);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = cc(1.0, 5).aggregate(&refs, None);
        // One outlier can shift the estimate by at most iters·τ/n = 0.5.
        assert!(
            hfl_tensor::ops::dist(&out, &[1.0, 1.0]) < 0.8,
            "got {out:?}"
        );
    }

    #[test]
    fn no_attack_converges_to_mean_neighborhood() {
        let updates = [vec![0.0f32, 0.0], vec![2.0f32, 2.0]];
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = cc(10.0, 20).aggregate(&refs, None);
        assert!(
            hfl_tensor::ops::dist(&out, &[1.0, 1.0]) < 1e-3,
            "got {out:?}"
        );
    }

    #[test]
    fn tiny_tau_stays_at_median_seed() {
        let updates = cluster_with_outliers(&[5.0], 0.0, 5, &[5.0], 0);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = cc(1e-6, 1).aggregate(&refs, None);
        assert!((out[0] - 5.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "centered-clip tau")]
    fn zero_tau_panics() {
        cc(0.0, 1).aggregate(&[&[1.0]], None);
    }
}
