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
//! forks. [`pairwise_dist_sq`] is that fill, shared with NNM
//! pre-aggregation. The original full-matrix loop is retained verbatim
//! in [`reference`] and the differential suite pins the two
//! bitwise-equal.

use crate::{validate_updates, AggScratch, Aggregator};
use hfl_tensor::ops::{dist_sq_pairs, PAIR_LANES};

/// Computes the Krum score of every update: score(i) = Σ of the
/// `n − f − 2` smallest squared distances from update `i` to the others.
///
/// Exposed for the consensus crate (validated agreement uses Krum scores
/// as an acceptance predicate) and for benchmarks.
pub fn krum_scores(updates: &[&[f32]], f: usize) -> Vec<f64> {
    krum_scores_with_threads(updates, f, hfl_parallel::default_threads())
}

/// [`krum_scores`] with an explicit worker count (the differential suite
/// sweeps 1–8 threads; results are identical at any count).
pub fn krum_scores_with_threads(updates: &[&[f32]], f: usize, threads: usize) -> Vec<f64> {
    let mut dists = Vec::new();
    let mut row = Vec::new();
    let mut scores = Vec::new();
    krum_scores_into(updates, f, threads, &mut dists, &mut row, &mut scores);
    scores
}

/// Upper-triangle pairwise squared distances, `dists[lo * n + hi] =
/// dist_sq(updates[lo], updates[hi])` for `lo < hi`, in a flat n×n
/// buffer (the rest is zero) — the crate's one O(n²·d) fill. Parallel
/// over blocks of [`PAIR_LANES`] partner rows: a block pairs its rows
/// with every row after them, so block 0 is the heaviest and ascending
/// claim order is heaviest-first; up to [`PAIR_LANES`] rows is a single
/// block and forks nothing.
///
/// # Panics
/// With "length mismatch" if the rows are not all one length.
pub(crate) fn pairwise_dist_sq(updates: &[&[f32]], threads: usize, dists: &mut Vec<f64>) {
    let n = updates.len();
    // No `clear`: the kernel overwrites every element of its chunk.
    dists.resize(n * n, 0.0);
    if n > 0 {
        hfl_parallel::par_chunks_mut(dists, PAIR_LANES * n, threads, |base, chunk| {
            dist_sq_pairs(updates, base / n, chunk);
        });
    }
}

/// Allocation-free scoring core: fills `scores`, reusing the caller's
/// `dists` (flat n×n, upper triangle) and `row` buffers. Once the
/// buffers reach their high-water mark, steady-state calls perform no
/// heap allocation at any thread count.
pub fn krum_scores_into(
    updates: &[&[f32]],
    f: usize,
    threads: usize,
    dists: &mut Vec<f64>,
    row: &mut Vec<f64>,
    scores: &mut Vec<f64>,
) {
    let n = updates.len();
    // The *guarantee* needs n ≥ 2f+3 (see `guarantee_holds`), and scoring
    // needs n − f − 2 ≥ 1 kept distances. The paper itself runs Multi-Krum
    // on clusters of 4 with an assumed 25 % malicious, and quorums can
    // shrink the input set further, so `f` is clamped to the largest value
    // scoring supports rather than rejected: small clusters degrade toward
    // nearest-neighbour scoring.
    let f = f.min(n.saturating_sub(3));
    pairwise_dist_sq(updates, threads, dists);
    // n ≥ 3 keeps n−f−2 ≥ 1 distances; degenerate n ∈ {1, 2} keeps all.
    let keep = if n >= 3 { n - f - 2 } else { n.saturating_sub(1) };
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

/// Classic Krum: select the single lowest-scoring update.
#[derive(Clone, Copy, Debug)]
pub struct Krum {
    f: usize,
}

impl Krum {
    /// Krum assuming at most `f` Byzantine inputs.
    pub fn new(f: usize) -> Self {
        Self { f }
    }

    /// The assumed Byzantine count.
    pub fn f(&self) -> usize {
        self.f
    }

    /// True when Blanchard et al.'s Byzantine-resilience guarantee
    /// (`n ≥ 2f + 3`) holds for `n` inputs.
    pub fn guarantee_holds(f: usize, n: usize) -> bool {
        n >= 2 * f + 3
    }
}

impl Aggregator for Krum {
    fn name(&self) -> &'static str {
        "krum"
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
        validate_updates(updates);
        let AggScratch {
            dists, row, scores, ..
        } = scratch;
        krum_scores_into(
            updates,
            self.f,
            hfl_parallel::default_threads(),
            dists,
            row,
            scores,
        );
        let best = scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("non-empty scores")
            .0;
        out.clear();
        out.extend_from_slice(updates[best]);
    }

    fn max_byzantine(&self, n: usize) -> usize {
        // n >= 2f+3  =>  f <= (n-3)/2
        n.saturating_sub(3) / 2
    }
}

/// Multi-Krum: average the `m` best-scoring updates (m=1 degenerates to
/// Krum; m=n degenerates to FedAvg).
#[derive(Clone, Copy, Debug)]
pub struct MultiKrum {
    f: usize,
    m: usize,
}

impl MultiKrum {
    /// Multi-Krum with assumed Byzantine count `f`, averaging the `m`
    /// best updates.
    ///
    /// # Panics
    /// If `m == 0`.
    pub fn new(f: usize, m: usize) -> Self {
        assert!(m > 0, "Multi-Krum must select at least one update");
        Self { f, m }
    }

    /// The paper's evaluation setting: assumed malicious proportion of
    /// 25 %, selecting the complement.
    pub fn paper_default(n: usize) -> Self {
        let f = n / 4;
        Self::new(f, n - f)
    }

    /// Indices of the `m` selected updates, lowest score first.
    pub fn select(&self, updates: &[&[f32]]) -> Vec<usize> {
        let mut scratch = AggScratch::default();
        let mut idx = Vec::new();
        self.select_into(updates, &mut scratch, &mut idx);
        idx
    }

    /// [`MultiKrum::select`] into caller-owned buffers (allocation-free
    /// at steady state for the cohort sizes the engine runs: the stable
    /// index sort's scratch is a 4 KiB stack buffer, 512 indices, and
    /// only a larger cohort sends it to the heap).
    pub fn select_into(&self, updates: &[&[f32]], scratch: &mut AggScratch, idx: &mut Vec<usize>) {
        let AggScratch {
            dists, row, scores, ..
        } = scratch;
        krum_scores_into(
            updates,
            self.f,
            hfl_parallel::default_threads(),
            dists,
            row,
            scores,
        );
        idx.clear();
        idx.extend(0..updates.len());
        // Stable sort: equal scores keep input order, matching the
        // original selection semantics the golden manifests pin.
        idx.sort_by(|a, b| scores[*a].total_cmp(&scores[*b]));
        idx.truncate(self.m.min(updates.len()));
    }
}

impl Aggregator for MultiKrum {
    fn name(&self) -> &'static str {
        "multi-krum"
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
        let d = validate_updates(updates);
        let mut idx = std::mem::take(&mut scratch.idx);
        self.select_into(updates, scratch, &mut idx);
        out.clear();
        out.resize(d, 0.0);
        hfl_tensor::ops::mean_of_indexed(updates, &idx, out);
        scratch.idx = idx;
    }

    fn max_byzantine(&self, n: usize) -> usize {
        n.saturating_sub(3) / 2
    }
}

/// The original, unoptimized scoring loop, retained verbatim so the
/// differential suite (`tests/kernel_equivalence.rs`) can pin the
/// symmetry-halved/blocked kernel bitwise against it. Not part of the
/// supported API.
#[doc(hidden)]
pub mod reference {
    /// Pre-overhaul `krum_scores`: full (both-triangle) distance matrix,
    /// one `dist_sq` pass per pair, statically-placed parallel rows.
    pub fn krum_scores_naive(updates: &[&[f32]], f: usize, threads: usize) -> Vec<f64> {
        let n = updates.len();
        let f = f.min(n.saturating_sub(3));
        let dists: Vec<Vec<f64>> = hfl_parallel::par_map_indexed(n, threads, |i| {
            (0..n)
                .map(|j| {
                    if i == j {
                        0.0
                    } else {
                        hfl_tensor::ops::dist_sq(updates[i], updates[j])
                    }
                })
                .collect()
        });
        let keep = if n >= 3 { n - f - 2 } else { n.saturating_sub(1) };
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

    #[test]
    fn krum_picks_from_honest_cluster() {
        let updates = cluster_with_outliers(&[1.0, 1.0, 1.0], 0.1, 7, &[100.0, 100.0, 100.0], 2);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = Krum::new(2).aggregate(&refs, None);
        assert!(hfl_tensor::ops::dist(&out, &[1.0, 1.0, 1.0]) < 0.5);
    }

    #[test]
    fn krum_returns_an_actual_input() {
        let updates = cluster_with_outliers(&[0.0, 0.0], 0.2, 6, &[50.0, 50.0], 1);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = Krum::new(1).aggregate(&refs, None);
        assert!(updates.iter().any(|u| u.as_slice() == out.as_slice()));
    }

    #[test]
    fn multikrum_excludes_outliers() {
        let n = 8;
        let f = 2;
        let updates = cluster_with_outliers(&[1.0, -1.0], 0.1, n - f, &[30.0, -30.0], f);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let mk = MultiKrum::new(f, n - f);
        let sel = mk.select(&refs);
        // selected indices must all be honest (honest occupy 0..n-f)
        assert!(sel.iter().all(|&i| i < n - f), "selected {sel:?}");
        let out = mk.aggregate(&refs, None);
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
        let out = MultiKrum::new(1, 5).aggregate(&refs, None);
        assert!(hfl_tensor::ops::approx_eq(&out, &[1.0, 1.0], 1e-6));
    }

    #[test]
    fn paper_default_is_quarter() {
        let mk = MultiKrum::paper_default(16);
        assert_eq!(mk.f, 4);
        assert_eq!(mk.m, 12);
    }

    #[test]
    fn scores_are_lower_for_central_updates() {
        let updates = cluster_with_outliers(&[0.0], 0.1, 5, &[10.0], 1);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let scores = krum_scores(&refs, 1);
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
        let out = Krum::new(5).aggregate(&refs, None);
        assert!((out[0] - 1.0).abs() <= 0.11);
        // Singleton input is returned unchanged.
        let one = [7.0f32];
        let out = Krum::new(1).aggregate(&[&one], None);
        assert_eq!(out, vec![7.0]);
    }

    #[test]
    fn paper_cluster_of_four_works() {
        // The paper's partial-aggregation setting: 4 updates, f = 1.
        let updates = cluster_with_outliers(&[1.0], 0.05, 3, &[100.0], 1);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = MultiKrum::new(1, 3).aggregate(&refs, None);
        assert!((out[0] - 1.0).abs() < 0.5);
        assert!(!Krum::guarantee_holds(1, 4));
        assert!(Krum::guarantee_holds(1, 5));
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

        let out = Krum::new(1).aggregate(&refs, None);
        assert!(out.iter().all(|x| x.is_finite()), "Krum picked NaN: {out:?}");
        assert!(hfl_tensor::ops::dist(&out, &[1.0, 1.0]) < 0.5);

        let mk = MultiKrum::new(1, 4);
        let sel = mk.select(&refs);
        assert!(sel.iter().all(|&i| i < 6), "NaN input selected: {sel:?}");
        let out = mk.aggregate(&refs, None);
        assert!(out.iter().all(|x| x.is_finite()));

        let scores = krum_scores(&refs, 1);
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
            for threads in [1usize, 2, 4, 8] {
                let opt = krum_scores_with_threads(&refs, f, threads);
                let naive = reference::krum_scores_naive(&refs, f, threads);
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
            let mk = MultiKrum::new(2, 4);
            mk.aggregate_into(&refs, None, &mut out, &mut scratch);
            assert_eq!(out, mk.aggregate(&refs, None));
            let k = Krum::new(2);
            k.aggregate_into(&refs, None, &mut out, &mut scratch);
            assert_eq!(out, k.aggregate(&refs, None));
        }
    }

    #[test]
    fn tolerance_formula() {
        assert_eq!(Krum::new(1).max_byzantine(16), 6);
        assert_eq!(Krum::new(1).max_byzantine(3), 0);
        assert_eq!(Krum::new(1).max_byzantine(2), 0);
    }
}
