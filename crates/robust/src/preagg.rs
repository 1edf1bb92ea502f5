//! Composable pre-aggregation transforms (the ByzFL recipe): reshape the
//! update set *before* any base rule runs, so robustness under
//! heterogeneous (non-IID) clients stops depending on the base rule's
//! distance assumptions.
//!
//! Two transforms, each wrapping **any** [`Aggregator`]:
//!
//! * [`Bucketing`] — partition the inputs into buckets of `s` and hand
//!   the base rule the bucket means. Honest variance shrinks by ~`s`
//!   while at most one bucket per Byzantine input is corrupted, so the
//!   base rule sees a cleaner, smaller cohort (Karimireddy et al.,
//!   "Byzantine-robust learning on heterogeneous datasets via
//!   bucketing").
//! * [`Nnm`] — replace every input by the mean of its `k` nearest
//!   neighbours (itself included). Honest non-IID spread collapses
//!   toward local cluster means, leaving genuinely adversarial vectors
//!   exposed (Allouah et al., "Fixing by mixing").
//!
//! Both transforms are **deterministic**: bucketing chunks the inputs in
//! their given order (which is already a seeded shuffle upstream — the
//! engine's arrival order), and NNM breaks distance ties by input index.
//! `aggregate` therefore stays bit-reproducible with no RNG plumbed
//! through the [`Aggregator`] trait.

use crate::krum::pairwise_dist_sq;
use crate::{validate_updates, Aggregator};

/// Which pre-aggregation transform to apply. See the module docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PreAggregation {
    /// Average disjoint buckets of `s` consecutive inputs (the final
    /// bucket may be smaller). `s = 1` is the identity.
    Bucketing {
        /// Bucket size, ≥ 1.
        s: usize,
    },
    /// Replace each input by the mean of its `k` nearest neighbours in
    /// Euclidean distance, the input itself included. `k = 1` is the
    /// identity; `k` is clamped to the cohort size.
    Nnm {
        /// Neighbourhood size, ≥ 1.
        k: usize,
    },
}

impl PreAggregation {
    /// Stable label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            PreAggregation::Bucketing { .. } => "bucketing",
            PreAggregation::Nnm { .. } => "nnm",
        }
    }

    /// Applies the transform, returning the derived update set the base
    /// rule aggregates. Bucketing returns `⌈n/s⌉` vectors; NNM returns
    /// `n` vectors with `out[i]` derived from input `i` (index
    /// correspondence is preserved, which acceptance evidence relies
    /// on).
    pub fn transform(&self, updates: &[&[f32]]) -> Vec<Vec<f32>> {
        let d = validate_updates(updates);
        match *self {
            PreAggregation::Bucketing { s } => {
                assert!(s >= 1, "bucket size must be >= 1");
                updates
                    .chunks(s)
                    .map(|bucket| {
                        let mut mean = vec![0.0f32; d];
                        hfl_tensor::ops::mean_of(bucket, &mut mean);
                        mean
                    })
                    .collect()
            }
            PreAggregation::Nnm { k } => {
                assert!(k >= 1, "neighbourhood size must be >= 1");
                let n = updates.len();
                let k = k.min(n);
                let mut out = Vec::with_capacity(n);
                // The shared triangle fill; each value is bitwise the
                // per-pair `dist_sq` the original scan computed, in
                // either argument order.
                let mut matrix = Vec::new();
                pairwise_dist_sq(updates, hfl_parallel::default_threads(), &mut matrix);
                let mut dists: Vec<(f64, usize)> = Vec::with_capacity(n);
                let mut idx: Vec<usize> = Vec::with_capacity(k);
                for (i, u) in updates.iter().enumerate() {
                    dists.clear();
                    dists.extend((0..n).map(|j| {
                        // A row's distance to itself is 0, or NaN when it
                        // holds a non-finite coordinate — a poisoned row
                        // sorts itself last.
                        let dv = if i == j {
                            hfl_tensor::ops::dist_sq(u, u)
                        } else {
                            matrix[i.min(j) * n + i.max(j)]
                        };
                        (dv, j)
                    }));
                    // Ties (equal distances) resolve by index — total
                    // order, deterministic across platforms.
                    dists.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    idx.clear();
                    idx.extend(dists.iter().take(k).map(|&(_, j)| j));
                    let mut mean = vec![0.0f32; d];
                    hfl_tensor::ops::mean_of_indexed(updates, &idx, &mut mean);
                    out.push(mean);
                }
                out
            }
        }
    }

    /// How many Byzantine *inputs* the composition tolerates, given the
    /// base rule's own tolerance: `f` Byzantine inputs corrupt at most
    /// `f` buckets (so bucketing defers to the base rule over `⌈n/s⌉`
    /// cohort members), while NNM preserves the cohort size.
    pub fn composed_max_byzantine(&self, base: &dyn Aggregator, n: usize) -> usize {
        match *self {
            PreAggregation::Bucketing { s } => base.max_byzantine(n.div_ceil(s.max(1))),
            PreAggregation::Nnm { .. } => base.max_byzantine(n),
        }
    }
}

/// A base rule behind a pre-aggregation transform — itself an
/// [`Aggregator`], so the composition plugs in anywhere a plain rule
/// does (any hierarchy level, the evidence layer, the bench grids).
pub struct PreAggregated {
    pre: PreAggregation,
    base: Box<dyn Aggregator>,
}

impl PreAggregated {
    /// Composes `pre ∘ base`.
    pub fn new(pre: PreAggregation, base: Box<dyn Aggregator>) -> Self {
        match pre {
            PreAggregation::Bucketing { s } => assert!(s >= 1, "bucket size must be >= 1"),
            PreAggregation::Nnm { k } => assert!(k >= 1, "neighbourhood size must be >= 1"),
        }
        Self { pre, base }
    }

    /// The transform in front of the base rule.
    pub fn pre(&self) -> PreAggregation {
        self.pre
    }

    /// The wrapped base rule.
    pub fn base(&self) -> &dyn Aggregator {
        self.base.as_ref()
    }
}

impl Aggregator for PreAggregated {
    fn name(&self) -> &'static str {
        // The composed name cannot be allocated here (&'static); the
        // transform name is the discriminating part — configuration
        // carries the full structure.
        self.pre.name()
    }

    fn aggregate(&self, updates: &[&[f32]], _weights: Option<&[f32]>) -> Vec<f32> {
        let derived = self.pre.transform(updates);
        let refs: Vec<&[f32]> = derived.iter().map(|v| v.as_slice()).collect();
        // Weights are deliberately dropped: bucket means / NNM mixtures
        // no longer correspond to single datasets, and every robust base
        // rule ignores weights anyway.
        self.base.aggregate(&refs, None)
    }

    fn max_byzantine(&self, n: usize) -> usize {
        self.pre.composed_max_byzantine(self.base.as_ref(), n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::cluster_with_outliers;
    use crate::{AggregatorKind, CoordMedian, FedAvg, Krum};

    fn refs(v: &[Vec<f32>]) -> Vec<&[f32]> {
        v.iter().map(|x| x.as_slice()).collect()
    }

    #[test]
    fn bucketing_identity_at_s1() {
        let updates = cluster_with_outliers(&[1.0, 2.0], 0.2, 5, &[9.0, 9.0], 1);
        let t = PreAggregation::Bucketing { s: 1 }.transform(&refs(&updates));
        assert_eq!(t, updates);
    }

    #[test]
    fn bucketing_counts_and_means() {
        let updates = vec![
            vec![0.0f32, 0.0],
            vec![2.0, 4.0],
            vec![4.0, 8.0],
            vec![6.0, 12.0],
            vec![100.0, 100.0],
        ];
        let t = PreAggregation::Bucketing { s: 2 }.transform(&refs(&updates));
        assert_eq!(t.len(), 3, "ceil(5/2) buckets");
        assert_eq!(t[0], vec![1.0, 2.0]);
        assert_eq!(t[1], vec![5.0, 10.0]);
        assert_eq!(t[2], vec![100.0, 100.0], "ragged final bucket kept");
    }

    #[test]
    fn nnm_identity_at_k1() {
        let updates = cluster_with_outliers(&[0.0, 1.0], 0.3, 4, &[5.0, 5.0], 1);
        let t = PreAggregation::Nnm { k: 1 }.transform(&refs(&updates));
        assert_eq!(t, updates, "nearest neighbour of each input is itself");
    }

    #[test]
    fn nnm_pulls_honest_updates_together() {
        let updates = cluster_with_outliers(&[1.0, 1.0], 1.0, 6, &[40.0, -40.0], 1);
        let t = PreAggregation::Nnm { k: 3 }.transform(&refs(&updates));
        let spread = |rows: &[Vec<f32>], upto: usize| -> f64 {
            let refs: Vec<&[f32]> = rows[..upto].iter().map(|v| v.as_slice()).collect();
            let mut mean = vec![0.0f32; 2];
            hfl_tensor::ops::mean_of(&refs, &mut mean);
            refs.iter()
                .map(|r| hfl_tensor::ops::dist_sq(r, &mean))
                .sum::<f64>()
        };
        assert!(
            spread(&t, 6) < spread(&updates, 6),
            "honest variance must shrink"
        );
        // The outlier's mixture is contaminated toward the honest mass.
        assert!(t[6][0] < updates[6][0]);
    }

    #[test]
    fn bucketing_dilutes_the_outlier_for_krum() {
        // One Byzantine among 8: plain Krum with f=1 already survives,
        // but the composed rule must land near the honest centre too.
        let updates = cluster_with_outliers(&[1.0, -2.0], 0.2, 8, &[80.0, 80.0], 1);
        let composed =
            PreAggregated::new(PreAggregation::Bucketing { s: 3 }, Box::new(Krum::new(1)));
        let out = composed.aggregate(&refs(&updates), None);
        assert!((out[0] - 1.0).abs() < 1.5, "got {out:?}");
        assert!((out[1] + 2.0).abs() < 1.5, "got {out:?}");
    }

    #[test]
    fn nnm_plus_median_holds_under_mimic_style_duplicates() {
        // Mimic-style: duplicates of one honest point, honest spread
        // elsewhere. NNM + median must stay inside the honest hull.
        let mut updates = cluster_with_outliers(&[0.0, 0.0], 2.0, 6, &[0.0, 0.0], 0);
        for _ in 0..3 {
            updates.push(updates[0].clone());
        }
        let composed = PreAggregated::new(PreAggregation::Nnm { k: 3 }, Box::new(CoordMedian));
        let out = composed.aggregate(&refs(&updates), None);
        assert!(out.iter().all(|x| x.abs() < 3.0), "got {out:?}");
    }

    #[test]
    fn composed_tolerance_bucketing_shrinks_cohort() {
        let composed =
            PreAggregated::new(PreAggregation::Bucketing { s: 2 }, Box::new(Krum::new(2)));
        // 10 inputs → 5 buckets; Krum over 5 tolerates (5-3)/2 = 1.
        assert_eq!(composed.max_byzantine(10), 1);
        let nnm = PreAggregated::new(PreAggregation::Nnm { k: 3 }, Box::new(Krum::new(2)));
        assert_eq!(
            nnm.max_byzantine(10),
            Krum::new(2).max_byzantine(10),
            "NNM keeps the cohort size"
        );
    }

    #[test]
    fn transform_is_deterministic_and_order_stable() {
        let updates = cluster_with_outliers(&[3.0, -1.0], 0.7, 7, &[-20.0, 20.0], 2);
        for pre in [
            PreAggregation::Bucketing { s: 3 },
            PreAggregation::Nnm { k: 4 },
        ] {
            let a = pre.transform(&refs(&updates));
            let b = pre.transform(&refs(&updates));
            assert_eq!(a, b, "{pre:?}");
        }
    }

    #[test]
    fn kind_builds_composed_rules() {
        let kinds = [
            AggregatorKind::Bucketing {
                s: 2,
                inner: Box::new(AggregatorKind::Median),
            },
            AggregatorKind::Nnm {
                k: 3,
                inner: Box::new(AggregatorKind::Krum { f: 1 }),
            },
            AggregatorKind::Nnm {
                k: 2,
                inner: Box::new(AggregatorKind::CenteredClip { tau: 1.0, iters: 3 }),
            },
        ];
        let updates = cluster_with_outliers(&[1.0, 1.0], 0.1, 7, &[-9.0, 9.0], 1);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        for k in kinds {
            let agg = k.build();
            let out = agg.aggregate(&refs, None);
            assert_eq!(out.len(), 2);
            assert!(out.iter().all(|x| x.is_finite()));
            assert!((out[0] - 1.0).abs() < 1.0, "{k:?} dragged: {out:?}");
        }
    }

    #[test]
    fn fedavg_behind_bucketing_is_still_fedavg_on_equal_buckets() {
        // With n divisible by s, bucket means average back to the mean.
        let updates = vec![
            vec![1.0f32, 3.0],
            vec![3.0, 5.0],
            vec![5.0, 7.0],
            vec![7.0, 9.0],
        ];
        let composed = PreAggregated::new(PreAggregation::Bucketing { s: 2 }, Box::new(FedAvg));
        let out = composed.aggregate(&refs(&updates), None);
        assert!(hfl_tensor::ops::approx_eq(&out, &[4.0, 6.0], 1e-6));
    }
}
