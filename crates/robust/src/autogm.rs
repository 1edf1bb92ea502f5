//! AutoGM-style filtered geometric median (after the automated
//! geometric-median scheme surveyed by Li et al., "An experimental study
//! of Byzantine-robust aggregation schemes" — the paper's Table II lists
//! it under both the Euclidean-distance and median strategies).
//!
//! Two passes: (1) compute the geometric median of all updates;
//! (2) discard updates farther from it than `kappa ×` the median
//! update-to-GM distance (a data-driven outlier radius — the "auto" in
//! AutoGM), then average the survivors. Averages every update when
//! filtering would discard them all.

use crate::geomed::weiszfeld;
use crate::{validate_updates, AggScratch};

/// Filtered geometric median: the mean of the updates within `kappa ×`
/// the median distance to the geometric median.
pub(crate) fn autogm(updates: &[&[f32]], kappa: f64, out: &mut Vec<f32>, scratch: &mut AggScratch) {
    let d = validate_updates(updates);
    let kept = survivors(updates, kappa, out, scratch);
    out.clear();
    out.resize(d, 0.0);
    hfl_tensor::ops::mean_of_indexed(updates, &kept, out);
}

/// Indices of the updates that survive the filter, every one when it
/// would keep none; `gm` receives the geometric median.
fn survivors(
    updates: &[&[f32]],
    kappa: f64,
    gm: &mut Vec<f32>,
    scratch: &mut AggScratch,
) -> Vec<usize> {
    weiszfeld(updates, gm, scratch);
    let dists: Vec<f64> = updates
        .iter()
        .map(|u| hfl_tensor::ops::dist(u, gm))
        .collect();
    let mut sorted = dists.clone();
    // total_cmp, not partial_cmp: a NaN update must not panic the rule.
    sorted.sort_by(f64::total_cmp);
    let med = sorted[sorted.len() / 2].max(1e-12);
    let radius = kappa * med;
    let kept: Vec<usize> = (0..updates.len()).filter(|&i| dists[i] <= radius).collect();
    if kept.is_empty() {
        (0..updates.len()).collect()
    } else {
        kept
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::cluster_with_outliers;
    use crate::{Aggregator, AggregatorKind};

    const AUTOGM: AggregatorKind = AggregatorKind::AutoGm { kappa: 3.0 };

    fn kept(updates: &[&[f32]]) -> Vec<usize> {
        survivors(updates, 3.0, &mut Vec::new(), &mut AggScratch::default())
    }

    #[test]
    fn filters_far_outliers() {
        let updates = cluster_with_outliers(&[1.0, 1.0], 0.1, 7, &[1e5, -1e5], 3);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let kept = kept(&refs);
        assert!(
            kept.iter().all(|&i| i < 7),
            "kept adversarial index: {kept:?}"
        );
        let out = AUTOGM.aggregate(&refs, None);
        assert!(hfl_tensor::ops::dist(&out, &[1.0, 1.0]) < 0.5);
    }

    #[test]
    fn no_outliers_keeps_everything() {
        let updates = cluster_with_outliers(&[0.0, 0.0], 0.2, 8, &[0.0, 0.0], 0);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        assert_eq!(kept(&refs).len(), 8);
    }

    #[test]
    fn identical_updates_survive_zero_spread() {
        // All-equal inputs: median distance 0; the 1e-12 floor keeps all.
        let updates = vec![vec![2.0f32, 2.0]; 5];
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = AUTOGM.aggregate(&refs, None);
        assert_eq!(out, vec![2.0, 2.0]);
    }

    #[test]
    fn more_robust_than_plain_mean() {
        let updates = cluster_with_outliers(&[1.0], 0.05, 6, &[1e6], 2);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let auto = AUTOGM.aggregate(&refs, None);
        let mean = AggregatorKind::FedAvg.aggregate(&refs, None);
        assert!((auto[0] - 1.0).abs() < 0.5);
        assert!(mean[0] > 1e5);
    }

    #[test]
    #[should_panic(expected = "autogm kappa")]
    fn zero_kappa_panics() {
        AggregatorKind::AutoGm { kappa: 0.0 }.aggregate(&[&[1.0]], None);
    }
}
