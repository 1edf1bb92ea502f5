//! Coordinate-wise trimmed mean (Yin et al., ICML 2018).

use crate::median::PARALLEL_MIN_ELEMENTS;
use crate::{validate_updates, AggScratch, Aggregator};

/// Coordinate-wise trimmed mean over `rows`, parallelized over
/// coordinate chunks claimed off the work-stealing scheduler: each
/// worker owns a disjoint slice of `out` plus a private column scratch,
/// so placement is deterministic and per-coordinate values match the
/// sequential kernel exactly at any thread count.
pub fn coordinate_trimmed_mean_parallel(
    rows: &[&[f32]],
    trim: usize,
    out: &mut [f32],
    threads: usize,
) {
    let d = out.len();
    assert!(!rows.is_empty(), "coordinate_trimmed_mean: empty input");
    assert!(
        rows.iter().all(|r| r.len() == d),
        "coordinate_trimmed_mean: row length mismatch"
    );
    let chunk = d.div_ceil(threads.max(1)).max(1);
    hfl_parallel::par_chunks_mut(out, chunk, threads, |base, slice| {
        let mut col = vec![0.0f32; rows.len()];
        for (off, o) in slice.iter_mut().enumerate() {
            let j = base + off;
            for (c, r) in col.iter_mut().zip(rows) {
                *c = r[j];
            }
            *o = hfl_tensor::stats::trimmed_mean_in_place(&mut col, trim);
        }
    });
}

/// Coordinate-wise `ratio`-trimmed mean: removes the `⌊ratio·n⌋` smallest
/// and largest values of each coordinate before averaging.
#[derive(Clone, Copy, Debug)]
pub struct TrimmedMean {
    ratio: f64,
}

impl TrimmedMean {
    /// Trimmed mean removing a `ratio` fraction from each tail.
    ///
    /// # Panics
    /// If `ratio` is outside `[0, 0.5)`.
    pub fn new(ratio: f64) -> Self {
        assert!(
            (0.0..0.5).contains(&ratio),
            "trim ratio must be in [0, 0.5)"
        );
        Self { ratio }
    }

    /// The trim fraction per tail.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// Number of values trimmed from each tail for `n` inputs, clamped so
    /// at least one value always remains.
    pub fn trim_count(&self, n: usize) -> usize {
        let t = (self.ratio * n as f64).floor() as usize;
        if 2 * t >= n {
            n.saturating_sub(1) / 2
        } else {
            t
        }
    }
}

impl Aggregator for TrimmedMean {
    fn name(&self) -> &'static str {
        "trimmed-mean"
    }

    fn aggregate(&self, updates: &[&[f32]], _weights: Option<&[f32]>) -> Vec<f32> {
        let d = validate_updates(updates);
        let trim = self.trim_count(updates.len());
        let mut out = vec![0.0f32; d];
        if updates.len() * d >= PARALLEL_MIN_ELEMENTS {
            coordinate_trimmed_mean_parallel(updates, trim, &mut out, hfl_parallel::default_threads());
        } else {
            hfl_tensor::stats::coordinate_trimmed_mean(updates, trim, &mut out);
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
        let trim = self.trim_count(updates.len());
        out.clear();
        out.resize(d, 0.0);
        if updates.len() * d >= PARALLEL_MIN_ELEMENTS {
            coordinate_trimmed_mean_parallel(updates, trim, out, hfl_parallel::default_threads());
        } else {
            hfl_tensor::stats::coordinate_trimmed_mean_into(updates, trim, out, &mut scratch.col);
        }
    }

    fn max_byzantine(&self, n: usize) -> usize {
        self.trim_count(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::cluster_with_outliers;

    #[test]
    fn trims_extremes() {
        let updates = cluster_with_outliers(&[2.0], 0.0, 8, &[1e9], 2);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = TrimmedMean::new(0.2).aggregate(&refs, None);
        assert!((out[0] - 2.0).abs() < 1e-3, "got {}", out[0]);
    }

    #[test]
    fn zero_ratio_is_plain_mean() {
        let a = [0.0f32];
        let b = [4.0f32];
        let out = TrimmedMean::new(0.0).aggregate(&[&a, &b], None);
        assert_eq!(out, vec![2.0]);
    }

    #[test]
    fn trim_count_clamps_for_tiny_n() {
        let tm = TrimmedMean::new(0.4);
        assert_eq!(tm.trim_count(2), 0); // 0.8 of 2 floor = 0
        assert_eq!(tm.trim_count(3), 1);
        assert_eq!(tm.trim_count(10), 4);
    }

    #[test]
    #[should_panic(expected = "trim ratio")]
    fn half_ratio_panics() {
        TrimmedMean::new(0.5);
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
            coordinate_trimmed_mean_parallel(&refs, 2, &mut par, threads);
            assert_eq!(par, seq, "mismatch at {threads} threads");
        }
    }

    #[test]
    fn large_dimension_routes_through_parallel_path() {
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|i| vec![i as f32; super::PARALLEL_MIN_ELEMENTS / 5 + 3])
            .collect();
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let out = TrimmedMean::new(0.2).aggregate(&refs, None);
        assert!(out.iter().all(|x| *x == 2.0));
    }
}
