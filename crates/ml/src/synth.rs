//! Synthetic "digits": the MNIST stand-in (DESIGN.md §1).
//!
//! Ten Gaussian class clusters in `dim`-dimensional feature space. Class
//! means are drawn once per seed on the unit sphere and scaled by
//! `separation`; samples add isotropic noise of standard deviation
//! `noise_std`. With the default configuration a multinomial logistic
//! regression trained by SGD plateaus near the paper's ~90 % MNIST
//! accuracy, and a fully poisoned model collapses to ~10 % — the two
//! anchors the evaluation's shape depends on.
//!
//! A split is a **plan** ([`SynthPlan`]): the class means, the shuffled
//! labels and a seekable noise stream parked behind the label shuffle.
//! Every coordinate costs exactly two stream words (one Box–Muller
//! draw, sine discarded, no rejection), so sample `i` starts at word
//! `base + 2·dim·i` and [`SynthPlan::sample_into`] is a pure function
//! of `i` — any order, any thread, the bytes a sequential pass over the
//! stream would write (DESIGN.md §14). A dense [`Dataset`] is that
//! function evaluated at every index ([`SynthPlan::materialise`]), and a
//! shard is it evaluated at the shard's indices
//! ([`SynthPlan::push_samples`]); all three read the stream through
//! [`ChaCha12::words`].

use std::ops::Range;

use rand::rngs::StdRng;
use rand::SeedableRng;

use hfl_tensor::init;

use crate::dataset::{Dataset, Labelled};
use crate::rng::{derive_seed, ChaCha12, Words};

/// Configuration for the synthetic digits generator.
#[derive(Clone, Debug)]
pub struct SynthConfig {
    /// Feature dimension (MNIST is 784; 64 keeps experiments fast with the
    /// same qualitative behaviour).
    pub dim: usize,
    /// Number of classes (10, matching digits 0–9).
    pub num_classes: usize,
    /// Training samples (paper: 60 000 → ≈937 per client at 64 clients).
    pub train_samples: usize,
    /// Test samples (paper: 10 000, split over 4 top nodes for voting).
    pub test_samples: usize,
    /// Norm of each class mean.
    pub separation: f32,
    /// Isotropic noise standard deviation.
    pub noise_std: f32,
    /// Master seed for the generator.
    pub seed: u64,
}

/// The most feature values a task may hold between its two splits
/// (`dim × (train_samples + test_samples)`): the test split is
/// materialized, the training split is drawn on demand. Far above any
/// task that trains (10⁶ samples of 64 features is 2²⁶), far below what
/// materializing a split would exhaust.
const MAX_TASK_VALUES: usize = 1 << 30;

impl SynthConfig {
    /// Checks every size [`SynthTask::plan`] asserts on, and the spreads
    /// it would silently draw NaN from: `Err((which parameter, its
    /// value))` for the first unusable one. A task over 2³⁰ feature
    /// values (`dim × (train_samples + test_samples)`) is refused too.
    pub fn validate(&self) -> Result<(), (&'static str, f64)> {
        let usable = |ok: bool, what, value| if ok { Ok(()) } else { Err((what, value)) };
        let (train, test, dim) = (self.train_samples, self.test_samples, self.dim);
        usable(train >= 1, "train_samples", train as f64)?;
        usable(test >= 1, "test_samples", test as f64)?;
        usable(dim >= 1, "dim", dim as f64)?;
        let values = train.checked_add(test).and_then(|n| n.checked_mul(dim));
        let size = values.map_or(f64::INFINITY, |v| v as f64);
        usable(size <= MAX_TASK_VALUES as f64, "dim x samples", size)?;
        let classes = self.num_classes;
        let what = "num_classes (labels are u8: 2..=256)";
        usable((2..=256).contains(&classes), what, classes as f64)?;
        let (noise, separation) = (self.noise_std, self.separation);
        let noise_ok = noise.is_finite() && noise >= 0.0;
        usable(noise_ok, "noise_std", f64::from(noise))?;
        usable(separation.is_finite(), "separation", f64::from(separation))
    }
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            num_classes: 10,
            train_samples: 60_000,
            test_samples: 10_000,
            // separation/noise tuned so a linear model plateaus near 90 %
            // clean accuracy — the paper's MNIST operating point. Random
            // unit means in 64-dim are near-orthogonal, so pairwise mean
            // distance ≈ separation·√2 and the per-pair Bayes error is
            // Φ(−separation/√2): 3.2 → ≈ 94 % Bayes, ≈ 90 % trained.
            separation: 3.2,
            noise_std: 1.0,
            seed: 0xD161_7501,
        }
    }
}

impl SynthConfig {
    /// A small configuration for unit tests (fast, still 10 classes).
    pub fn tiny() -> Self {
        Self {
            train_samples: 2_000,
            test_samples: 500,
            ..Self::default()
        }
    }
}

/// One split of the task as a function of the sample index.
#[derive(Clone, Debug)]
pub struct SynthPlan {
    dim: usize,
    noise_std: f32,
    class_means: Vec<Vec<f32>>,
    /// Balanced, then shuffled (the paper shuffles before distributing
    /// to clients).
    labels: Vec<u8>,
    /// The split's stream where the label shuffle left it: its word
    /// position is sample 0's first noise word.
    noise: ChaCha12,
}

/// Rows one worker claims at a time in [`SynthPlan::materialise`].
const ROWS_PER_CLAIM: usize = 64;

/// Coordinates one lane-wise Box–Muller pass of [`SynthPlan::draw`]
/// transforms: the default 64-wide row in one pass, its words 1 KB on
/// the stack.
const DRAW_COORDS: usize = 128;

impl SynthPlan {
    /// Plans `n` points with a balanced label distribution in shuffled
    /// order. O(n) bytes: one label per sample.
    fn new(cfg: &SynthConfig, class_means: Vec<Vec<f32>>, n: usize, seed: u64) -> Self {
        let mut noise = ChaCha12::seed_from_u64(seed);
        let k = cfg.num_classes;
        // Balanced labels: n/k each, remainder spread over the first n%k.
        let mut labels: Vec<u8> = (0..n).map(|i| (i % k) as u8).collect();
        noise.shuffle(&mut labels);
        Self {
            dim: cfg.dim,
            noise_std: cfg.noise_std,
            class_means,
            labels,
            noise,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the split holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Ground-truth class means, row `c` = mean of class `c`.
    pub fn class_means(&self) -> &[Vec<f32>] {
        &self.class_means
    }

    /// The noise words of samples `samples`: two per coordinate, from
    /// word `base + 2·dim·samples.start`.
    fn noise_words(&self, samples: Range<usize>) -> Range<u64> {
        let word = |i: usize| self.noise.word_pos() + 2 * (self.dim * i) as u64;
        word(samples.start)..word(samples.end)
    }

    /// Writes sample `i`'s features — its class mean plus one Box–Muller
    /// draw a coordinate — reading its noise words off `words`, which
    /// stands at the sample's first: up to [`DRAW_COORDS`] coordinates'
    /// words at a time into a buffer on the stack, then one lane-wise
    /// pass ([`init::gaussians_from_words`]) over them.
    #[inline]
    fn draw<R: Iterator<Item = Range<u64>>>(
        &self,
        i: usize,
        out: &mut [f32],
        words: &mut Words<R>,
    ) {
        let mean = &self.class_means[self.labels[i] as usize];
        let mut buf = [0u32; 2 * DRAW_COORDS];
        for (out, mean) in out.chunks_mut(DRAW_COORDS).zip(mean.chunks(DRAW_COORDS)) {
            let buf = &mut buf[..2 * out.len()];
            assert!(words.read_into(buf), "a sample's range holds its words");
            init::gaussians_from_words(buf, mean, self.noise_std, out);
        }
    }

    /// Writes sample `i`'s features: its class mean plus noise read from
    /// the stream at word `base + 2·dim·i`, two words per coordinate.
    pub fn sample_into(&self, i: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "sample buffer has wrong dimension");
        self.draw(i, out, &mut self.noise.words([self.noise_words(i..i + 1)]));
    }

    /// Appends samples `indices`, drawn in place, to `out` in order. The
    /// blocks their noise spans are generated packed, sixteen to a pass,
    /// whatever the indices; nothing is allocated beyond `out`'s growth.
    pub fn push_samples<I>(&self, indices: I, out: &mut Dataset)
    where
        I: Iterator<Item = usize> + Clone,
    {
        let mut words = self
            .noise
            .words(indices.clone().map(|i| self.noise_words(i..i + 1)));
        for i in indices {
            self.draw(i, out.push_row(self.labels[i]), &mut words);
        }
    }

    /// The split as a dense dataset: every sample drawn once, in
    /// parallel, straight into its row — one read of the stream per
    /// claim of rows, whose noise words are contiguous.
    pub fn materialise(&self) -> Dataset {
        let mut xs = vec![0.0f32; self.len() * self.dim];
        hfl_parallel::par_chunks_mut(
            &mut xs,
            ROWS_PER_CLAIM * self.dim,
            hfl_parallel::default_threads(),
            |base, rows| {
                let first = base / self.dim;
                let claim = first..first + rows.len() / self.dim;
                let mut words = self.noise.words([self.noise_words(claim)]);
                for (r, row) in rows.chunks_exact_mut(self.dim).enumerate() {
                    self.draw(first + r, row, &mut words);
                }
            },
        );
        Dataset::from_parts(self.dim, self.num_classes(), xs, self.labels.clone())
    }
}

impl Labelled for SynthPlan {
    fn labels(&self) -> &[u8] {
        &self.labels
    }

    fn num_classes(&self) -> usize {
        self.class_means.len()
    }
}

/// The task with its training split left as a plan — what a run holds,
/// so memory and set-up time follow the samples it trains on, not the
/// samples that exist. The test split is dense: every evaluation reads
/// all of it.
#[derive(Clone, Debug)]
pub struct SynthTask {
    /// Training split, drawn on demand.
    pub train: SynthPlan,
    /// Test split.
    pub test: Dataset,
}

impl SynthTask {
    /// Plans the task from a configuration. Deterministic in
    /// `cfg.seed`; train and test use independent derived streams.
    pub fn plan(cfg: &SynthConfig) -> Self {
        assert!(
            (2..=256).contains(&cfg.num_classes),
            "need 2..=256 classes (labels are u8)"
        );
        assert!(cfg.dim > 0 && cfg.train_samples > 0 && cfg.test_samples > 0);

        let mut mean_rng = StdRng::seed_from_u64(derive_seed(cfg.seed, 0xA11C));
        let class_means: Vec<Vec<f32>> = (0..cfg.num_classes)
            .map(|_| {
                let mut m = vec![0.0f32; cfg.dim];
                init::gaussian(&mut mean_rng, 0.0, 1.0, &mut m);
                let norm = hfl_tensor::ops::norm(&m).max(1e-12);
                for v in m.iter_mut() {
                    *v = *v / norm as f32 * cfg.separation;
                }
                m
            })
            .collect();

        let test = SynthPlan::new(
            cfg,
            class_means.clone(),
            cfg.test_samples,
            derive_seed(cfg.seed, 0x7E57),
        )
        .materialise();
        let train = SynthPlan::new(
            cfg,
            class_means,
            cfg.train_samples,
            derive_seed(cfg.seed, 0x7124),
        );
        Self { train, test }
    }
}

/// The generated task, dense: train set, test set, and the true class
/// means (kept for diagnostics; the learners never see them).
#[derive(Clone, Debug)]
pub struct SyntheticDigits {
    /// Training split.
    pub train: Dataset,
    /// Test split.
    pub test: Dataset,
    /// Ground-truth class means, row `c` = mean of class `c`.
    pub class_means: Vec<Vec<f32>>,
}

impl SyntheticDigits {
    /// Generates the task from a configuration: [`SynthTask::plan`],
    /// then the training split materialised too.
    pub fn generate(cfg: &SynthConfig) -> Self {
        let SynthTask { train, test } = SynthTask::plan(cfg);
        Self {
            train: train.materialise(),
            test,
            class_means: train.class_means,
        }
    }

    /// Bayes-optimal prediction (nearest class mean) — an upper bound on
    /// achievable accuracy, used in tests to sanity-check the task.
    pub fn bayes_predict(&self, x: &[f32]) -> u8 {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (c, m) in self.class_means.iter().enumerate() {
            let d = hfl_tensor::ops::dist_sq(x, m);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        best as u8
    }

    /// Accuracy of the Bayes-optimal classifier on the test split.
    pub fn bayes_test_accuracy(&self) -> f64 {
        let mut hit = 0usize;
        for i in 0..self.test.len() {
            if self.bayes_predict(self.test.x(i)) == self.test.y(i) {
                hit += 1;
            }
        }
        hit as f64 / self.test.len() as f64
    }
}

/// The default paper-scale task, dense; deterministic in `seed`.
pub fn paper_task(seed: u64) -> SyntheticDigits {
    SyntheticDigits::generate(&SynthConfig {
        seed,
        ..SynthConfig::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_sizes() {
        let t = SyntheticDigits::generate(&SynthConfig::tiny());
        assert_eq!(t.train.len(), 2_000);
        assert_eq!(t.test.len(), 500);
        assert_eq!(t.train.dim(), 64);
    }

    #[test]
    fn labels_are_balanced() {
        let t = SyntheticDigits::generate(&SynthConfig::tiny());
        let counts = t.train.class_counts();
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "unbalanced counts: {counts:?}");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = SyntheticDigits::generate(&SynthConfig::tiny());
        let b = SyntheticDigits::generate(&SynthConfig::tiny());
        assert_eq!(a.train.x(0), b.train.x(0));
        assert_eq!(a.train.labels(), b.train.labels());
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticDigits::generate(&SynthConfig::tiny());
        let b = SyntheticDigits::generate(&SynthConfig {
            seed: 99,
            ..SynthConfig::tiny()
        });
        assert_ne!(a.train.x(0), b.train.x(0));
    }

    #[test]
    fn task_is_learnable_but_not_trivial() {
        let t = SyntheticDigits::generate(&SynthConfig::tiny());
        let acc = t.bayes_test_accuracy();
        // The operating point: hard enough to be interesting, easy enough
        // that a linear model reaches the paper's ~90 % plateau.
        assert!(acc > 0.80, "Bayes accuracy too low: {acc}");
        assert!(acc < 1.0, "task degenerately easy: {acc}");
    }

    #[test]
    fn class_means_have_requested_norm() {
        let cfg = SynthConfig::tiny();
        let t = SyntheticDigits::generate(&cfg);
        for m in &t.class_means {
            let n = hfl_tensor::ops::norm(m);
            assert!((n - cfg.separation as f64).abs() < 1e-3);
        }
    }

    #[test]
    fn validate_refuses_what_plan_would_panic_on() {
        type Break = fn(&mut SynthConfig);
        let cases: [(&str, Break); 9] = [
            ("train_samples", |c| c.train_samples = 0),
            ("test_samples", |c| c.test_samples = 0),
            ("dim", |c| c.dim = 0),
            ("dim x samples", |c| c.dim = usize::MAX),
            ("dim x samples", |c| c.train_samples = usize::MAX),
            ("num_classes", |c| c.num_classes = 1),
            ("num_classes", |c| c.num_classes = 257),
            ("noise_std", |c| c.noise_std = -1.0),
            ("separation", |c| c.separation = f32::NAN),
        ];
        for (field, break_it) in cases {
            let mut cfg = SynthConfig::default();
            break_it(&mut cfg);
            let (what, _) = cfg.validate().unwrap_err();
            assert!(what.starts_with(field), "{field}: blamed {what}");
        }
        let cfg = SynthConfig {
            train_samples: 1,
            test_samples: 1,
            dim: 1,
            num_classes: 256,
            noise_std: 0.0,
            ..SynthConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
        SynthTask::plan(&cfg);
    }
}
