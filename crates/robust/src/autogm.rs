//! AutoGM-style filtered geometric median (after the automated
//! geometric-median scheme surveyed by Li et al., "An experimental study
//! of Byzantine-robust aggregation schemes" — the paper's Table II lists
//! it under both the Euclidean-distance and median strategies).
//!
//! Two passes: (1) compute the geometric median of all updates;
//! (2) discard updates farther from it than `kappa ×` the median
//! update-to-GM distance (a data-driven outlier radius — the "auto" in
//! AutoGM), then average the survivors. Falls back to the plain geometric
//! median when filtering would discard everything.

use crate::geomed::GeoMed;
use crate::{validate_updates, AggScratch, Aggregator};

/// Filtered geometric median.
#[derive(Clone, Copy, Debug)]
pub struct AutoGm {
    /// Outlier radius in units of the median distance to the GM.
    pub kappa: f64,
    /// Inner Weiszfeld settings.
    pub geomed: GeoMed,
}

impl Default for AutoGm {
    fn default() -> Self {
        Self {
            kappa: 3.0,
            geomed: GeoMed::default(),
        }
    }
}

impl AutoGm {
    /// AutoGM with the given outlier multiplier.
    ///
    /// # Panics
    /// If `kappa <= 0`.
    pub fn new(kappa: f64) -> Self {
        assert!(kappa > 0.0, "kappa must be positive");
        Self {
            kappa,
            ..Self::default()
        }
    }

    /// Indices of the updates that survive the filter.
    pub fn survivors(&self, updates: &[&[f32]]) -> Vec<usize> {
        let (gm, _) = self.geomed.compute(updates);
        let mut dists: Vec<f64> = updates
            .iter()
            .map(|u| hfl_tensor::ops::dist(u, &gm))
            .collect();
        let mut sorted = dists.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN distance"));
        let med = sorted[sorted.len() / 2].max(1e-12);
        let radius = self.kappa * med;
        let kept: Vec<usize> = dists
            .iter()
            .enumerate()
            .filter(|(_, d)| **d <= radius)
            .map(|(i, _)| i)
            .collect();
        if kept.is_empty() {
            dists.clear();
            (0..updates.len()).collect()
        } else {
            kept
        }
    }
}

impl Aggregator for AutoGm {
    fn name(&self) -> &'static str {
        "autogm"
    }

    fn aggregate_into(
        &self,
        updates: &[&[f32]],
        _weights: Option<&[f32]>,
        out: &mut Vec<f32>,
        _scratch: &mut AggScratch,
    ) {
        let d = validate_updates(updates);
        let kept = self.survivors(updates);
        let selected: Vec<&[f32]> = kept.iter().map(|&i| updates[i]).collect();
        out.clear();
        out.resize(d, 0.0);
        hfl_tensor::ops::mean_of(&selected, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::cluster_with_outliers;

    #[test]
    fn filters_far_outliers() {
        let updates = cluster_with_outliers(&[1.0, 1.0], 0.1, 7, &[1e5, -1e5], 3);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let agm = AutoGm::default();
        let kept = agm.survivors(&refs);
        assert!(
            kept.iter().all(|&i| i < 7),
            "kept adversarial index: {kept:?}"
        );
        let out = agm.aggregate(&refs, None);
        assert!(hfl_tensor::ops::dist(&out, &[1.0, 1.0]) < 0.5);
    }

    #[test]
    fn no_outliers_keeps_everything() {
        let updates = cluster_with_outliers(&[0.0, 0.0], 0.2, 8, &[0.0, 0.0], 0);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        assert_eq!(AutoGm::default().survivors(&refs).len(), 8);
    }

    #[test]
    fn identical_updates_survive_zero_spread() {
        // All-equal inputs: median distance 0; the 1e-12 floor keeps all.
        let updates = vec![vec![2.0f32, 2.0]; 5];
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = AutoGm::default().aggregate(&refs, None);
        assert_eq!(out, vec![2.0, 2.0]);
    }

    #[test]
    fn more_robust_than_plain_mean() {
        let updates = cluster_with_outliers(&[1.0], 0.05, 6, &[1e6], 2);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let auto = AutoGm::default().aggregate(&refs, None);
        let mean = crate::FedAvg.aggregate(&refs, None);
        assert!((auto[0] - 1.0).abs() < 0.5);
        assert!(mean[0] > 1e5);
    }

    #[test]
    #[should_panic(expected = "kappa must be positive")]
    fn zero_kappa_panics() {
        AutoGm::new(0.0);
    }
}
