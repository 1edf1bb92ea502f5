//! Krum and Multi-Krum (Blanchard et al., NeurIPS 2017).
//!
//! Krum scores every update by the sum of its `n − f − 2` smallest squared
//! distances to the other updates and selects the minimizer; Multi-Krum
//! averages the `m` best-scoring updates. Requires `n ≥ 2f + 3`.
//!
//! The O(n²·d) pairwise distance matrix is the hot kernel. It is computed
//! **symmetry-halved** (only the upper triangle, since `dist_sq(a, b)` is
//! bitwise-equal to `dist_sq(b, a)`: `(x−y) = −(y−x)` exactly in IEEE
//! arithmetic, so the squared per-coordinate terms — and their ordered sum
//! — agree), by one **partner-major panel kernel**,
//! [`hfl_tensor::ops::dist_sq_pairs`]: a block of eight partner rows is
//! transposed tile by tile into a feature-major panel, every later row
//! streams past it, and the SIMD lanes are the eight *pairs* — each with
//! its own accumulator, visiting coordinates in index order, so every
//! distance is bitwise `dist_sq`'s at whatever vector width the CPU has
//! (DESIGN.md §15). It is **parallel over partner blocks**, claimed in
//! ascending order: block `b` pairs its rows with every row after them,
//! so the first block is the heaviest and the claim order is
//! heaviest-first; a cluster of up to eight rows is one block and never
//! forks. [`hfl_tensor::ops::pairwise_dist_sq`] is that fill, shared
//! with NNM: it forks its blocks itself, each at the caller's width. A
//! coalition's bit-identical rows are measured once
//! ([`hfl_tensor::ops::RowGroups`], kept in [`AggScratch::groups`]): the
//! blocks run over the distinct rows and the result is expanded, each
//! entry the bits it would have had. The original full-matrix loop is
//! retained in [`reference`](mod@reference) and the differential suite pins
//! the two bitwise-equal.

use crate::{validate_updates, AggScratch};
use hfl_tensor::ops;

/// True when Blanchard et al.'s Byzantine-resilience guarantee
/// (`n ≥ 2f + 3`) holds for `n` inputs.
pub fn guarantee_holds(f: usize, n: usize) -> bool {
    f.checked_mul(2)
        .and_then(|two_f| two_f.checked_add(3))
        .is_some_and(|needed| n >= needed)
}

/// Computes the Krum score of every update into `scratch.scores`:
/// score(i) = Σ of the `n − f − 2` smallest squared distances from
/// update `i` to the others, reusing the scratch's distance matrix, row
/// groups and row buffer. Once the buffers reach their high-water mark,
/// steady-state calls perform no heap allocation at any thread count.
pub fn krum_scores_into(updates: &[&[f32]], f: usize, scratch: &mut AggScratch) {
    let AggScratch {
        dists,
        groups,
        row,
        scores,
        ..
    } = scratch;
    let n = updates.len();
    // The *guarantee* needs n ≥ 2f+3 (see `guarantee_holds`), and scoring
    // needs n − f − 2 ≥ 1 kept distances. The paper itself runs Multi-Krum
    // on clusters of 4 with an assumed 25 % malicious, and quorums can
    // shrink the input set further, so `f` is clamped to the largest value
    // scoring supports rather than rejected: small clusters degrade toward
    // nearest-neighbour scoring.
    let f = f.min(n.saturating_sub(3));
    ops::pairwise_dist_sq(updates, dists, groups);
    // n ≥ 3 keeps n−f−2 ≥ 1 distances; degenerate n ∈ {1, 2} keeps all.
    let keep = if n >= 3 {
        n - f - 2
    } else {
        n.saturating_sub(1)
    };
    scores.clear();
    for i in 0..n {
        row.clear();
        for j in 0..n {
            if j != i {
                let (lo, hi) = if i < j { (i, j) } else { (j, i) };
                row.push(dists[lo * n + hi]);
            }
        }
        // total_cmp, not partial_cmp: an adversarial NaN update must
        // not panic the aggregator. NaN distances order after every
        // finite distance, so a NaN-poisoned row scores worst and the
        // input is never selected. Ties under the total order are
        // bitwise-equal doubles, so the unstable sort cannot perturb
        // the kept-prefix sum.
        row.sort_unstable_by(f64::total_cmp);
        scores.push(row.iter().take(keep).sum());
    }
}

/// Classic Krum: the single lowest-scoring update.
pub(crate) fn krum(updates: &[&[f32]], f: usize, out: &mut Vec<f32>, scratch: &mut AggScratch) {
    validate_updates(updates);
    krum_scores_into(updates, f, scratch);
    let best = scratch
        .scores
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("non-empty scores")
        .0;
    out.clear();
    out.extend_from_slice(updates[best]);
}

/// Multi-Krum: the mean of the `m` best-scoring updates (m = 1
/// degenerates to Krum, m = n to FedAvg). The selection, lowest score
/// first, stays in `scratch.idx` for the evidence step; the stable index
/// sort's scratch is a 4 KiB stack buffer (512 indices), so only a
/// larger cohort sends it to the heap.
pub(crate) fn multi_krum(
    updates: &[&[f32]],
    f: usize,
    m: usize,
    out: &mut Vec<f32>,
    scratch: &mut AggScratch,
) {
    let d = validate_updates(updates);
    krum_scores_into(updates, f, scratch);
    let AggScratch { scores, idx, .. } = scratch;
    idx.clear();
    idx.extend(0..updates.len());
    // Stable sort: equal scores keep input order, matching the
    // original selection semantics the golden manifests pin.
    idx.sort_by(|a, b| scores[*a].total_cmp(&scores[*b]));
    idx.truncate(m.min(updates.len()));
    out.clear();
    out.resize(d, 0.0);
    ops::mean_of_indexed(updates, idx, out);
}

/// The original, unoptimized scoring loop, retained so the
/// differential suite (`tests/kernel_equivalence.rs`) can pin the
/// symmetry-halved/blocked kernel bitwise against it. Not part of the
/// supported API.
#[doc(hidden)]
pub mod reference {
    /// Pre-overhaul `krum_scores`: full (both-triangle) distance matrix,
    /// one `dist_sq` pass per pair, row by row.
    pub fn krum_scores_naive(updates: &[&[f32]], f: usize) -> Vec<f64> {
        let n = updates.len();
        let f = f.min(n.saturating_sub(3));
        let dists: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| {
                        if i == j {
                            0.0
                        } else {
                            hfl_tensor::ops::dist_sq(updates[i], updates[j])
                        }
                    })
                    .collect()
            })
            .collect();
        let keep = if n >= 3 {
            n - f - 2
        } else {
            n.saturating_sub(1)
        };
        (0..n)
            .map(|i| {
                let mut row: Vec<f64> = (0..n).filter(|j| *j != i).map(|j| dists[i][j]).collect();
                row.sort_unstable_by(f64::total_cmp);
                row.iter().take(keep).sum()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::cluster_with_outliers;
    use crate::{Aggregator, AggregatorKind};

    fn scores(updates: &[&[f32]], f: usize) -> Vec<f64> {
        let mut scratch = AggScratch::default();
        krum_scores_into(updates, f, &mut scratch);
        scratch.scores
    }

    /// Multi-Krum's aggregate and its selection.
    fn multi(updates: &[&[f32]], f: usize, m: usize) -> (Vec<f32>, Vec<usize>) {
        let (mut out, mut scratch) = (Vec::new(), AggScratch::default());
        AggregatorKind::MultiKrum { f, m }.aggregate_into(updates, None, &mut out, &mut scratch);
        (out, scratch.idx)
    }

    #[test]
    fn krum_picks_from_honest_cluster() {
        let updates = cluster_with_outliers(&[1.0, 1.0, 1.0], 0.1, 7, &[100.0, 100.0, 100.0], 2);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = AggregatorKind::Krum { f: 2 }.aggregate(&refs, None);
        assert!(hfl_tensor::ops::dist(&out, &[1.0, 1.0, 1.0]) < 0.5);
    }

    #[test]
    fn krum_returns_an_actual_input() {
        let updates = cluster_with_outliers(&[0.0, 0.0], 0.2, 6, &[50.0, 50.0], 1);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = AggregatorKind::Krum { f: 1 }.aggregate(&refs, None);
        assert!(updates.iter().any(|u| u.as_slice() == out.as_slice()));
    }

    #[test]
    fn multikrum_excludes_outliers() {
        let n = 8;
        let f = 2;
        let updates = cluster_with_outliers(&[1.0, -1.0], 0.1, n - f, &[30.0, -30.0], f);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let (out, sel) = multi(&refs, f, n - f);
        // selected indices must all be honest (honest occupy 0..n-f)
        assert!(sel.iter().all(|&i| i < n - f), "selected {sel:?}");
        assert!(hfl_tensor::ops::dist(&out, &[1.0, -1.0]) < 0.5);
    }

    #[test]
    fn multikrum_m_equals_n_is_mean_when_no_attack() {
        let updates = [
            vec![0.0f32, 2.0],
            vec![2.0f32, 0.0],
            vec![1.0f32, 1.0],
            vec![1.0f32, 1.0],
            vec![1.0f32, 1.0],
        ];
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = AggregatorKind::MultiKrum { f: 1, m: 5 }.aggregate(&refs, None);
        assert!(hfl_tensor::ops::approx_eq(&out, &[1.0, 1.0], 1e-6));
    }

    #[test]
    fn scores_are_lower_for_central_updates() {
        let updates = cluster_with_outliers(&[0.0], 0.1, 5, &[10.0], 1);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let scores = scores(&refs, 1);
        let outlier_score = scores[5];
        assert!(scores[..5].iter().all(|s| *s < outlier_score));
    }

    #[test]
    fn tiny_inputs_degrade_gracefully() {
        // f is clamped so scoring always keeps at least one distance;
        // with two honest near-identical updates and f=5, Krum still
        // returns one of them.
        let u = [vec![1.0f32], vec![1.1f32], vec![0.9f32]];
        let refs: Vec<&[f32]> = u.iter().map(|x| x.as_slice()).collect();
        let out = AggregatorKind::Krum { f: 5 }.aggregate(&refs, None);
        assert!((out[0] - 1.0).abs() <= 0.11);
        // Singleton input is returned unchanged.
        let one = [7.0f32];
        let out = AggregatorKind::Krum { f: 1 }.aggregate(&[&one], None);
        assert_eq!(out, vec![7.0]);
    }

    #[test]
    fn paper_cluster_of_four_works() {
        // The paper's partial-aggregation setting: 4 updates, f = 1.
        let updates = cluster_with_outliers(&[1.0], 0.05, 3, &[100.0], 1);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = AggregatorKind::MultiKrum { f: 1, m: 3 }.aggregate(&refs, None);
        assert!((out[0] - 1.0).abs() < 0.5);
        assert!(!guarantee_holds(1, 4));
        assert!(guarantee_holds(1, 5));
        assert!(!guarantee_holds(usize::MAX, usize::MAX));
    }

    #[test]
    fn nan_adversarial_update_cannot_panic_or_win() {
        // A Byzantine client can submit NaN coordinates; every pairwise
        // distance involving it is NaN. The sort/min must not panic
        // (total_cmp orders NaN after all finite scores), and the
        // NaN-scored input must never be selected.
        let mut updates = cluster_with_outliers(&[1.0, 1.0], 0.1, 6, &[0.0, 0.0], 0);
        updates.push(vec![f32::NAN, f32::INFINITY]);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();

        let out = AggregatorKind::Krum { f: 1 }.aggregate(&refs, None);
        assert!(
            out.iter().all(|x| x.is_finite()),
            "Krum picked NaN: {out:?}"
        );
        assert!(hfl_tensor::ops::dist(&out, &[1.0, 1.0]) < 0.5);

        let (out, sel) = multi(&refs, 1, 4);
        assert!(sel.iter().all(|&i| i < 6), "NaN input selected: {sel:?}");
        assert!(out.iter().all(|x| x.is_finite()));

        let scores = scores(&refs, 1);
        assert!(
            scores[..6].iter().all(|s| s.is_finite()),
            "honest scores must exclude the NaN tail: {scores:?}"
        );
    }

    #[test]
    fn optimized_scores_bitwise_match_naive_reference() {
        // The in-crate smoke version of tests/kernel_equivalence.rs:
        // scores over the symmetry-halved, block-parallel panel fill
        // must equal the original loop bit for bit, NaN tail included.
        let mut updates = cluster_with_outliers(&[1.0, -2.0, 0.5], 0.3, 9, &[40.0, -40.0, 7.0], 2);
        updates.push(vec![f32::NAN, f32::INFINITY, -0.0]);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        for f in [0usize, 1, 3] {
            let naive = reference::krum_scores_naive(&refs, f);
            for threads in [1usize, 2, 4, 8] {
                let opt = hfl_parallel::with_threads(threads, || scores(&refs, f));
                assert_eq!(opt.len(), naive.len());
                for (a, b) in opt.iter().zip(&naive) {
                    assert_eq!(a.to_bits(), b.to_bits(), "f={f} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn aggregate_into_matches_aggregate_and_reuses_buffers() {
        let updates = cluster_with_outliers(&[1.0, -1.0], 0.1, 6, &[30.0, -30.0], 2);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let mut scratch = AggScratch::default();
        let mut out = Vec::new();
        for _ in 0..3 {
            for kind in [
                AggregatorKind::MultiKrum { f: 2, m: 4 },
                AggregatorKind::Krum { f: 2 },
            ] {
                kind.aggregate_into(&refs, None, &mut out, &mut scratch);
                assert_eq!(out, kind.aggregate(&refs, None), "{kind:?}");
            }
        }
    }
}
