//! Synthetic "digits": the MNIST stand-in (DESIGN.md §1).
//!
//! Ten Gaussian class clusters in `dim`-dimensional feature space. Class
//! means are drawn once per seed on the unit sphere and scaled by
//! `separation`; samples add isotropic noise of standard deviation
//! `noise_std`. With the default configuration a multinomial logistic
//! regression trained by SGD plateaus near the paper's ~90 % MNIST
//! accuracy, and a fully poisoned model collapses to ~10 % — the two
//! anchors the evaluation's shape depends on.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use hfl_tensor::init;

use crate::dataset::Dataset;
use crate::rng::derive_seed;

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

/// The generated task: train set, test set, and the true class means
/// (kept for diagnostics; the learners never see them).
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
    /// Generates the task from a configuration. Deterministic in
    /// `cfg.seed`; train and test use independent derived streams.
    pub fn generate(cfg: &SynthConfig) -> Self {
        assert!(cfg.num_classes >= 2, "need at least two classes");
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

        let train = Self::sample_split(
            cfg,
            &class_means,
            cfg.train_samples,
            derive_seed(cfg.seed, 0x7124),
        );
        let test = Self::sample_split(
            cfg,
            &class_means,
            cfg.test_samples,
            derive_seed(cfg.seed, 0x7E57),
        );
        Self {
            train,
            test,
            class_means,
        }
    }

    /// Samples `n` points with a balanced label distribution, then
    /// shuffles sample order (the paper shuffles before distributing to
    /// clients).
    fn sample_split(
        cfg: &SynthConfig,
        means: &[Vec<f32>],
        n: usize,
        seed: u64,
    ) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = cfg.num_classes;
        // Balanced labels: n/k each, remainder spread over the first n%k.
        let mut labels: Vec<u8> = (0..n).map(|i| (i % k) as u8).collect();
        labels.shuffle(&mut rng);

        let mut ds = Dataset::empty(cfg.dim, k);
        let mut x = vec![0.0f32; cfg.dim];
        for y in labels {
            let m = &means[y as usize];
            for (xi, mi) in x.iter_mut().zip(m) {
                xi.clone_from(mi);
            }
            // add noise
            for xi in x.iter_mut() {
                *xi += cfg.noise_std * init::standard_normal(&mut rng);
            }
            ds.push(&x, y);
        }
        ds
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

/// Non-deterministic convenience: generate the default paper-scale task.
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
