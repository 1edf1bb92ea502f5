//! # hfl-robust
//!
//! Byzantine-robust aggregation (**BRA**) rules — the paper's Table II,
//! "Byzantine robust aggregation" rows:
//!
//! | Strategy | Rule | Module |
//! |---|---|---|
//! | Mean value | FedAvg (non-robust baseline) | [`mean`] |
//! | Euclidean distance | Krum / Multi-Krum | [`krum`] |
//! | Median | coordinate-wise Median | [`median`] |
//! | Mean value | Trimmed Mean | [`trimmed_mean`] |
//! | Median | geometric median (GeoMed, Weiszfeld) | [`geomed`] |
//! | Clipping | Centered Clipping (CC) | [`clipping`] |
//! | Cosine similarity | largest-cluster aggregation | [`clustering`] |
//!
//! A rule is its [`AggregatorKind`], and the kind aggregates flat `f32`
//! vectors ([`Aggregator`]), so any rule can be plugged into any level of
//! the ABD-HFL hierarchy (Algorithm 3's per-level `BRA` choice).
//!
//! # Example
//!
//! ```
//! use hfl_robust::{Aggregator, AggregatorKind};
//!
//! let honest = [[1.0f32, 2.0], [1.1, 2.1], [0.9, 1.9]];
//! let poisoned = [1e9f32, -1e9];
//! let updates: Vec<&[f32]> = honest
//!     .iter()
//!     .map(|u| u.as_slice())
//!     .chain(std::iter::once(poisoned.as_slice()))
//!     .collect();
//!
//! let robust = AggregatorKind::Median.aggregate(&updates, None);
//! assert!((robust[0] - 1.0).abs() < 0.2); // median ignores the outlier
//!
//! let broken = AggregatorKind::FedAvg.aggregate(&updates, None);
//! assert!(broken[0] > 1e8); // plain averaging does not
//! ```

pub mod autogm;
pub mod clipping;
pub mod clustering;
pub mod evidence;
pub mod geomed;
pub mod krum;
pub mod mean;
pub mod median;
pub mod preagg;
pub mod streaming;
pub mod suspicion;
pub mod trimmed_mean;

pub use evidence::Acceptance;
pub use streaming::DEFAULT_EXACT_THRESHOLD;
pub use suspicion::{SuspicionChange, SuspicionConfig, SuspicionTracker};

use hfl_tensor::ops::RowGroups;
use hfl_tensor::stats::ColumnStat;

/// Reusable scratch buffers for allocation-free aggregation through
/// [`Aggregator::aggregate_into`].
///
/// One instance lives in the engine's round workspace; every buffer
/// grows to its high-water mark on first use and is reused afterwards,
/// so steady-state rounds perform no heap allocation. The fields are
/// deliberately rule-agnostic (a flat `f64` matrix, a few rows) so one
/// scratch serves every rule in the registry.
#[derive(Debug, Default)]
pub struct AggScratch {
    /// Flat n×n squared-distance matrix (Krum family).
    pub dists: Vec<f64>,
    /// Which inputs repeat an earlier one, so the distance fill measures
    /// each distinct row once (Krum family).
    pub groups: RowGroups,
    /// Per-update `f64` row (Krum score rows, Weiszfeld distances).
    pub row: Vec<f64>,
    /// Per-update scores.
    pub scores: Vec<f64>,
    /// Index buffer (Multi-Krum's selection, the streaming trimmed
    /// mean's row reservoir).
    pub idx: Vec<usize>,
    /// Per-update `f32` buffer (Weiszfeld weights, coordinate columns
    /// past the sorting network's row limit).
    pub col: Vec<f32>,
    /// Dimension-sized `f32` temporary (Weiszfeld next estimate).
    pub tmp: Vec<f32>,
}

/// A Byzantine-robust aggregation rule over flat parameter vectors.
/// [`AggregatorKind`] is its one implementation; the trait stays only
/// because `ledger/` holds its rules as `Box<dyn Aggregator>` (see
/// [`AggregatorKind::build`]).
pub trait Aggregator: Send + Sync {
    /// Aggregates `updates` (all the same length) into `out`, replacing
    /// its contents — the rule's one body.
    ///
    /// `weights`, when given, are relative dataset sizes; rules that have
    /// no weighted form (all the robust ones) ignore them. Rules panic
    /// on an empty input — aggregating nothing is a protocol bug
    /// upstream, not a recoverable condition. `scratch` is reused across
    /// calls, so the rules that keep their temporaries there perform no
    /// heap allocation once its buffers reach their high-water mark; the
    /// output never depends on what an earlier call left in it.
    fn aggregate_into(
        &self,
        updates: &[&[f32]],
        weights: Option<&[f32]>,
        out: &mut Vec<f32>,
        scratch: &mut AggScratch,
    );

    /// [`Aggregator::aggregate_into`] into a fresh vector with a fresh
    /// scratch.
    fn aggregate(&self, updates: &[&[f32]], weights: Option<&[f32]>) -> Vec<f32> {
        let mut out = Vec::new();
        self.aggregate_into(updates, weights, &mut out, &mut AggScratch::default());
        out
    }
}

/// A BRA rule: the selector experiment configuration files name, and
/// the rule itself ([`Aggregator`]).
#[derive(Clone, Debug, PartialEq)]
pub enum AggregatorKind {
    /// Plain (weighted) averaging — the FedAvg baseline.
    FedAvg,
    /// Krum with assumed Byzantine count `f`.
    Krum {
        /// Assumed number of Byzantine inputs.
        f: usize,
    },
    /// Multi-Krum: average the `m` best Krum-scored updates.
    MultiKrum {
        /// Assumed number of Byzantine inputs.
        f: usize,
        /// Number of selected updates to average.
        m: usize,
    },
    /// Coordinate-wise median.
    Median,
    /// Coordinate-wise trimmed mean removing a `ratio` fraction from each
    /// tail.
    TrimmedMean {
        /// Fraction trimmed from each tail, in `[0, 0.5)`.
        ratio: f64,
    },
    /// Geometric median via Weiszfeld iterations.
    GeoMed,
    /// Centered clipping with radius `tau` and `iters` refinement steps.
    CenteredClip {
        /// Clipping radius.
        tau: f64,
        /// Number of fixed-point iterations.
        iters: usize,
    },
    /// Cosine-similarity clustering; averages the largest mutually-similar
    /// component at the given similarity threshold.
    CosineClustering {
        /// Minimum cosine similarity for two updates to be linked.
        threshold: f64,
    },
    /// AutoGM: geometric median with data-driven outlier filtering.
    AutoGm {
        /// Outlier radius multiplier.
        kappa: f64,
    },
    /// Pre-aggregation composition: bucket the inputs (groups of `s`
    /// averaged) before running `inner` on the bucket means. See
    /// [`preagg`].
    Bucketing {
        /// Bucket size, ≥ 1.
        s: usize,
        /// The base rule aggregating the bucket means. Must not itself
        /// be a pre-aggregation (composition is single-layer; config
        /// validation enforces this).
        inner: Box<AggregatorKind>,
    },
    /// Pre-aggregation composition: nearest-neighbour mixing (each input
    /// replaced by the mean of its `k` nearest, itself included) before
    /// running `inner`. See [`preagg::nnm`].
    Nnm {
        /// Neighbourhood size, ≥ 1.
        k: usize,
        /// The base rule aggregating the mixed updates. Must not itself
        /// be a pre-aggregation.
        inner: Box<AggregatorKind>,
    },
    /// One-pass coordinate-wise median: exact below `exact_threshold`
    /// inputs, P² quantile markers (one tile's on the stack) above. See
    /// [`streaming`].
    StreamingMedian {
        /// Input count below which the exact batch kernel runs.
        exact_threshold: usize,
    },
    /// One-pass coordinate-wise trimmed mean: exact below
    /// `exact_threshold` inputs, deterministic row reservoir (capacity
    /// `exact_threshold`) plus exact trim above. See [`streaming`].
    StreamingTrimmedMean {
        /// Fraction trimmed from each tail, in `[0, 0.5)`.
        ratio: f64,
        /// Input count below which the exact batch kernel runs (also the
        /// reservoir capacity).
        exact_threshold: usize,
    },
    /// Krum over `m` arrival-order bucket means, bounding the distance
    /// matrix to O(m²·d); exact Krum at or below `m` inputs. See
    /// [`streaming`].
    SampledKrum {
        /// Assumed number of Byzantine inputs.
        f: usize,
        /// Bucket budget (the effective Krum input count at scale).
        m: usize,
    },
}

impl AggregatorKind {
    /// Checks every parameter, a pre-aggregation's inner rule included:
    /// `Err((which parameter, its value))` for the first unusable one.
    /// [`Aggregator::aggregate_into`] panics with this message.
    pub fn validate(&self) -> Result<(), (&'static str, f64)> {
        let usable = |ok: bool, what, value| if ok { Ok(()) } else { Err((what, value)) };
        let positive = |n: usize, what| usable(n >= 1, what, n as f64);
        let trim = |ratio: f64, what| usable((0.0..0.5).contains(&ratio), what, ratio);
        match self {
            AggregatorKind::FedAvg
            | AggregatorKind::Krum { .. }
            | AggregatorKind::Median
            | AggregatorKind::GeoMed => Ok(()),
            AggregatorKind::MultiKrum { m, .. } => positive(*m, "multi-krum m"),
            AggregatorKind::SampledKrum { m, .. } => positive(*m, "sampled-krum m"),
            AggregatorKind::TrimmedMean { ratio } => trim(*ratio, "trimmed-mean ratio"),
            AggregatorKind::CenteredClip { tau, iters } => {
                usable(tau.is_finite() && *tau > 0.0, "centered-clip tau", *tau)?;
                positive(*iters, "centered-clip iters")
            }
            AggregatorKind::CosineClustering { threshold: t } => {
                usable((-1.0..=1.0).contains(t), "cosine-clustering threshold", *t)
            }
            AggregatorKind::AutoGm { kappa } => usable(*kappa > 0.0, "autogm kappa", *kappa),
            AggregatorKind::Bucketing { s, inner } => {
                positive(*s, "bucketing s")?;
                inner.validate()
            }
            AggregatorKind::Nnm { k, inner } => {
                positive(*k, "nnm k")?;
                inner.validate()
            }
            AggregatorKind::StreamingMedian { exact_threshold: n } => {
                positive(*n, "streaming-median exact_threshold")
            }
            AggregatorKind::StreamingTrimmedMean {
                ratio,
                exact_threshold: n,
            } => {
                trim(*ratio, "streaming-trimmed-mean ratio")?;
                positive(*n, "streaming-trimmed-mean exact_threshold")
            }
        }
    }

    /// The rule as a boxed [`Aggregator`] — a clone of the kind, for
    /// `ledger/`, which holds its rules that way.
    pub fn build(&self) -> Box<dyn Aggregator> {
        Box::new(self.clone())
    }
}

impl Aggregator for AggregatorKind {
    fn aggregate_into(
        &self,
        updates: &[&[f32]],
        weights: Option<&[f32]>,
        out: &mut Vec<f32>,
        scratch: &mut AggScratch,
    ) {
        if let Err((what, value)) = self.validate() {
            panic!("unusable {what}: {value}");
        }
        let col = &mut scratch.col;
        match self {
            AggregatorKind::FedAvg => mean::fedavg(updates, weights, out),
            AggregatorKind::Krum { f } => krum::krum(updates, *f, out, scratch),
            AggregatorKind::MultiKrum { f, m } => krum::multi_krum(updates, *f, *m, out, scratch),
            AggregatorKind::Median => median::column_stat(ColumnStat::Median, updates, out, col),
            AggregatorKind::TrimmedMean { ratio } => {
                trimmed_mean::trimmed_mean(updates, *ratio, out, col)
            }
            AggregatorKind::GeoMed => {
                geomed::weiszfeld(updates, out, scratch);
            }
            AggregatorKind::CenteredClip { tau, iters } => {
                clipping::centered_clip(updates, *tau, *iters, out, scratch)
            }
            AggregatorKind::CosineClustering { threshold } => {
                clustering::largest_cluster_mean(updates, *threshold, out)
            }
            AggregatorKind::AutoGm { kappa } => autogm::autogm(updates, *kappa, out, scratch),
            AggregatorKind::Bucketing { s, inner } => {
                preagg::aggregate_derived(&preagg::bucket_means(updates, *s), inner, out, scratch)
            }
            AggregatorKind::Nnm { k, inner } => {
                preagg::aggregate_derived(&preagg::nnm(updates, *k), inner, out, scratch)
            }
            AggregatorKind::StreamingMedian { exact_threshold } => {
                streaming::p2_median(updates, *exact_threshold, out, col)
            }
            AggregatorKind::StreamingTrimmedMean {
                ratio,
                exact_threshold,
            } => streaming::reservoir_trimmed_mean(updates, *ratio, *exact_threshold, out, scratch),
            AggregatorKind::SampledKrum { f, m } => {
                streaming::sampled_krum(updates, *f, *m, out, scratch)
            }
        }
    }
}

/// Shared input validation: non-empty, equal lengths. Returns the common
/// dimension.
pub(crate) fn validate_updates(updates: &[&[f32]]) -> usize {
    assert!(!updates.is_empty(), "aggregation over zero updates");
    let d = updates[0].len();
    assert!(
        updates.iter().all(|u| u.len() == d),
        "update length mismatch"
    );
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Helper shared by rule tests: honest updates clustered at `center`
    /// plus `n_bad` adversarial updates at `bad`.
    pub(crate) fn cluster_with_outliers(
        center: &[f32],
        spread: f32,
        n_good: usize,
        bad: &[f32],
        n_bad: usize,
    ) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        for i in 0..n_good {
            let mut v = center.to_vec();
            // deterministic small perturbation
            for (j, x) in v.iter_mut().enumerate() {
                *x += spread * ((i * 7 + j * 13) % 11) as f32 / 11.0 - spread / 2.0;
            }
            out.push(v);
        }
        for _ in 0..n_bad {
            out.push(bad.to_vec());
        }
        out
    }

    /// One kind of every variant, compositions included.
    fn every_kind() -> [AggregatorKind; 14] {
        [
            AggregatorKind::FedAvg,
            AggregatorKind::Krum { f: 1 },
            AggregatorKind::MultiKrum { f: 1, m: 2 },
            AggregatorKind::Median,
            AggregatorKind::TrimmedMean { ratio: 0.2 },
            AggregatorKind::GeoMed,
            AggregatorKind::CenteredClip { tau: 1.0, iters: 3 },
            AggregatorKind::CosineClustering { threshold: 0.5 },
            AggregatorKind::AutoGm { kappa: 3.0 },
            AggregatorKind::Bucketing {
                s: 2,
                inner: Box::new(AggregatorKind::Median),
            },
            AggregatorKind::Nnm {
                k: 3,
                inner: Box::new(AggregatorKind::Krum { f: 1 }),
            },
            AggregatorKind::StreamingMedian {
                exact_threshold: 256,
            },
            AggregatorKind::StreamingTrimmedMean {
                ratio: 0.2,
                exact_threshold: 256,
            },
            AggregatorKind::SampledKrum { f: 1, m: 4 },
        ]
    }

    #[test]
    fn validate_refuses_what_aggregate_would_panic_on() {
        let median = || Box::new(AggregatorKind::Median);
        let bad = [
            AggregatorKind::MultiKrum { f: 1, m: 0 },
            AggregatorKind::TrimmedMean { ratio: 0.5 },
            AggregatorKind::TrimmedMean { ratio: f64::NAN },
            AggregatorKind::CenteredClip { tau: 0.0, iters: 3 },
            AggregatorKind::CenteredClip { tau: 1.0, iters: 0 },
            AggregatorKind::CosineClustering { threshold: 1.5 },
            AggregatorKind::CosineClustering {
                threshold: f64::NAN,
            },
            AggregatorKind::AutoGm { kappa: 0.0 },
            AggregatorKind::AutoGm { kappa: f64::NAN },
            AggregatorKind::Bucketing {
                s: 0,
                inner: median(),
            },
            AggregatorKind::Nnm {
                k: 0,
                inner: median(),
            },
            AggregatorKind::Nnm {
                k: 2,
                inner: Box::new(AggregatorKind::MultiKrum { f: 1, m: 0 }),
            },
            AggregatorKind::StreamingMedian { exact_threshold: 0 },
            AggregatorKind::StreamingTrimmedMean {
                ratio: -0.1,
                exact_threshold: 256,
            },
            AggregatorKind::StreamingTrimmedMean {
                ratio: 0.2,
                exact_threshold: 0,
            },
            AggregatorKind::SampledKrum { f: 1, m: 0 },
        ];
        let updates = cluster_with_outliers(&[1.0, 1.0], 0.1, 6, &[-9.0, 9.0], 1);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        for kind in bad {
            let (what, _) = kind.validate().expect_err(&format!("{kind:?} accepted"));
            let run = std::panic::catch_unwind(|| kind.aggregate(&refs, None));
            let payload = run.expect_err(&format!("{kind:?} aggregated"));
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.contains(what), "{kind:?}: {message}");
        }
        // The edges of each range aggregate.
        for kind in [
            AggregatorKind::Krum { f: usize::MAX },
            AggregatorKind::MultiKrum { f: 1, m: 1 },
            AggregatorKind::TrimmedMean { ratio: 0.0 },
            AggregatorKind::CosineClustering { threshold: -1.0 },
            AggregatorKind::CosineClustering { threshold: 1.0 },
            AggregatorKind::AutoGm {
                kappa: f64::MIN_POSITIVE,
            },
            AggregatorKind::Bucketing {
                s: 1,
                inner: median(),
            },
            AggregatorKind::StreamingMedian { exact_threshold: 1 },
            AggregatorKind::SampledKrum { f: 0, m: 1 },
        ] {
            assert_eq!(kind.validate(), Ok(()), "{kind:?}");
            assert_eq!(kind.aggregate(&refs, None).len(), 2, "{kind:?}");
        }
    }

    #[test]
    fn kind_builds_every_rule() {
        let updates = cluster_with_outliers(&[1.0, 1.0], 0.1, 6, &[-9.0, 9.0], 1);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        for kind in every_kind() {
            let out = kind.build().aggregate(&refs, None);
            assert_eq!(out.len(), 2, "{kind:?} wrong dim");
            assert!(out.iter().all(|x| x.is_finite()), "{kind:?} non-finite");
        }
    }

    /// An adversarial NaN update panics no rule, and poisons none but
    /// FedAvg: every other kind returns a finite aggregate inside the
    /// honest rows' per-coordinate range.
    #[test]
    fn no_kind_panics_on_a_nan_row() {
        let mut updates = cluster_with_outliers(&[1.0, 1.0], 0.1, 4, &[], 0);
        let range = |j: usize| {
            let column = updates.iter().map(|u| u[j]);
            let lo = column.clone().fold(f32::INFINITY, f32::min);
            (lo, column.fold(f32::NEG_INFINITY, f32::max))
        };
        let ranges = [range(0), range(1)];
        updates.push(vec![f32::NAN, 0.0]);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        for kind in every_kind() {
            let run = std::panic::catch_unwind(|| kind.aggregate(&refs, None));
            let out = run.unwrap_or_else(|_| panic!("{kind:?} panicked"));
            assert_eq!(out.len(), 2, "{kind:?}");
            if kind == AggregatorKind::FedAvg {
                continue;
            }
            for (x, (lo, hi)) in out.iter().zip(ranges) {
                assert!(
                    (lo..=hi).contains(x),
                    "{kind:?}: {out:?} outside {ranges:?}"
                );
            }
        }
    }
}
