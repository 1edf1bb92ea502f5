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
//! function evaluated at every index ([`SynthPlan::materialise`]);
//! nothing else in the module draws a sample.

use rand::rngs::StdRng;
use rand::SeedableRng;

use hfl_tensor::init;

use crate::dataset::{Dataset, Labelled};
use crate::rng::{derive_seed, ChaCha12};

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

    /// Writes sample `i`'s features: its class mean plus noise read from
    /// the stream at word `base + 2·dim·i`, two words per coordinate.
    pub fn sample_into(&self, i: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "sample buffer has wrong dimension");
        let mean = &self.class_means[self.labels[i] as usize];
        let mut noise = self.noise.clone();
        noise.set_word_pos(self.noise.word_pos() + 2 * (self.dim * i) as u64);
        for (x, m) in out.iter_mut().zip(mean) {
            let w1 = noise.next_u32();
            let w2 = noise.next_u32();
            *x = *m + self.noise_std * init::standard_normal_from_words(w1, w2);
        }
    }

    /// Appends sample `i`, drawn in place, to `out`.
    pub fn push_sample(&self, i: usize, out: &mut Dataset) {
        self.sample_into(i, out.push_row(self.labels[i]));
    }

    /// The split as a dense dataset: every sample drawn once, in
    /// parallel, straight into its row.
    pub fn materialise(&self) -> Dataset {
        let mut xs = vec![0.0f32; self.len() * self.dim];
        hfl_parallel::par_chunks_mut(
            &mut xs,
            ROWS_PER_CLAIM * self.dim,
            hfl_parallel::default_threads(),
            |base, rows| {
                for (r, row) in rows.chunks_exact_mut(self.dim).enumerate() {
                    self.sample_into(base / self.dim + r, row);
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
}
