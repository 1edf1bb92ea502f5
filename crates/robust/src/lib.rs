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
//! All rules implement [`Aggregator`] over flat `f32` parameter vectors,
//! so any rule can be plugged into any level of the ABD-HFL hierarchy
//! (Algorithm 3's per-level `BRA` choice).
//!
//! # Example
//!
//! ```
//! use hfl_robust::{Aggregator, CoordMedian, FedAvg};
//!
//! let honest = [[1.0f32, 2.0], [1.1, 2.1], [0.9, 1.9]];
//! let poisoned = [1e9f32, -1e9];
//! let updates: Vec<&[f32]> = honest
//!     .iter()
//!     .map(|u| u.as_slice())
//!     .chain(std::iter::once(poisoned.as_slice()))
//!     .collect();
//!
//! let robust = CoordMedian.aggregate(&updates, None);
//! assert!((robust[0] - 1.0).abs() < 0.2); // median ignores the outlier
//!
//! let broken = FedAvg.aggregate(&updates, None);
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

pub use autogm::AutoGm;
pub use clipping::CenteredClip;
pub use clustering::CosineClustering;
pub use evidence::Acceptance;
pub use geomed::GeoMed;
pub use krum::{Krum, MultiKrum};
pub use mean::FedAvg;
pub use median::CoordMedian;
pub use preagg::{PreAggregated, PreAggregation};
pub use streaming::{SampledKrum, StreamingMedian, StreamingTrimmedMean, DEFAULT_EXACT_THRESHOLD};
pub use suspicion::{SuspicionChange, SuspicionConfig, SuspicionTracker};
pub use trimmed_mean::TrimmedMean;

use hfl_tensor::ops::RowGroups;

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
pub trait Aggregator: Send + Sync {
    /// Human-readable rule name (used in experiment reports).
    fn name(&self) -> &'static str;

    /// Aggregates `updates` (all the same length) into `out`, replacing
    /// its contents — the rule's one body.
    ///
    /// `weights`, when given, are relative dataset sizes; rules that have
    /// no weighted form (all the robust ones) may ignore them. Rules must
    /// panic on an empty input — aggregating nothing is a protocol bug
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

    /// The largest number of Byzantine inputs among `n` this rule is
    /// designed to tolerate (`0` for plain averaging).
    fn max_byzantine(&self, n: usize) -> usize;
}

/// Serializable aggregator selector for experiment configuration files.
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
    /// [`preagg::PreAggregation::Bucketing`].
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
    /// running `inner`. See [`preagg::PreAggregation::Nnm`].
    Nnm {
        /// Neighbourhood size, ≥ 1.
        k: usize,
        /// The base rule aggregating the mixed updates. Must not itself
        /// be a pre-aggregation.
        inner: Box<AggregatorKind>,
    },
    /// One-pass coordinate-wise median: exact below `exact_threshold`
    /// inputs, P² quantile markers (one tile's on the stack) above. See
    /// [`streaming::StreamingMedian`].
    StreamingMedian {
        /// Input count below which the exact batch kernel runs.
        exact_threshold: usize,
    },
    /// One-pass coordinate-wise trimmed mean: exact below
    /// `exact_threshold` inputs, deterministic row reservoir (capacity
    /// `exact_threshold`) plus exact trim above. See
    /// [`streaming::StreamingTrimmedMean`].
    StreamingTrimmedMean {
        /// Fraction trimmed from each tail, in `[0, 0.5)`.
        ratio: f64,
        /// Input count below which the exact batch kernel runs (also the
        /// reservoir capacity).
        exact_threshold: usize,
    },
    /// Krum over `m` arrival-order bucket means, bounding the distance
    /// matrix to O(m²·d); exact Krum at or below `m` inputs. See
    /// [`streaming::SampledKrum`].
    SampledKrum {
        /// Assumed number of Byzantine inputs.
        f: usize,
        /// Bucket budget (the effective Krum input count at scale).
        m: usize,
    },
}

impl AggregatorKind {
    /// Instantiates the rule.
    pub fn build(&self) -> Box<dyn Aggregator> {
        match self {
            AggregatorKind::FedAvg => Box::new(FedAvg),
            AggregatorKind::Krum { f } => Box::new(Krum::new(*f)),
            AggregatorKind::MultiKrum { f, m } => Box::new(MultiKrum::new(*f, *m)),
            AggregatorKind::Median => Box::new(CoordMedian),
            AggregatorKind::TrimmedMean { ratio } => Box::new(TrimmedMean::new(*ratio)),
            AggregatorKind::GeoMed => Box::new(GeoMed::default()),
            AggregatorKind::CenteredClip { tau, iters } => {
                Box::new(CenteredClip::new(*tau, *iters))
            }
            AggregatorKind::CosineClustering { threshold } => {
                Box::new(CosineClustering::new(*threshold))
            }
            AggregatorKind::AutoGm { kappa } => Box::new(AutoGm::new(*kappa)),
            AggregatorKind::Bucketing { s, inner } => Box::new(PreAggregated::new(
                PreAggregation::Bucketing { s: *s },
                inner.build(),
            )),
            AggregatorKind::Nnm { k, inner } => Box::new(PreAggregated::new(
                PreAggregation::Nnm { k: *k },
                inner.build(),
            )),
            AggregatorKind::StreamingMedian { exact_threshold } => {
                Box::new(StreamingMedian::new(*exact_threshold))
            }
            AggregatorKind::StreamingTrimmedMean {
                ratio,
                exact_threshold,
            } => Box::new(StreamingTrimmedMean::new(*ratio, *exact_threshold)),
            AggregatorKind::SampledKrum { f, m } => Box::new(SampledKrum::new(*f, *m)),
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

    #[test]
    fn kind_builds_every_rule() {
        let kinds = [
            AggregatorKind::FedAvg,
            AggregatorKind::Krum { f: 1 },
            AggregatorKind::MultiKrum { f: 1, m: 2 },
            AggregatorKind::Median,
            AggregatorKind::TrimmedMean { ratio: 0.2 },
            AggregatorKind::GeoMed,
            AggregatorKind::CenteredClip { tau: 1.0, iters: 3 },
            AggregatorKind::CosineClustering { threshold: 0.5 },
            AggregatorKind::AutoGm { kappa: 3.0 },
            AggregatorKind::StreamingMedian {
                exact_threshold: 256,
            },
            AggregatorKind::StreamingTrimmedMean {
                ratio: 0.2,
                exact_threshold: 256,
            },
            AggregatorKind::SampledKrum { f: 1, m: 4 },
        ];
        let updates = cluster_with_outliers(&[1.0, 1.0], 0.1, 6, &[-9.0, 9.0], 1);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        for k in kinds {
            let agg = k.build();
            let out = agg.aggregate(&refs, None);
            assert_eq!(out.len(), 2, "{} wrong dim", agg.name());
            assert!(
                out.iter().all(|x| x.is_finite()),
                "{} non-finite",
                agg.name()
            );
        }
    }
}
