//! Mini-batch SGD — the local training loop of Algorithm 2.

use rand::rngs::StdRng;
use rand::Rng;

use crate::dataset::Dataset;
use crate::model::{BatchScratch, Model};

/// Reusable buffers for the local training loop. One per worker lane is
/// enough: capacity grows to the largest model trained through it and is
/// then reused, so steady-state rounds allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct TrainScratch {
    grad: Vec<f32>,
    indices: Vec<usize>,
    batch: BatchScratch,
}

/// Learning-rate schedule across global rounds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum LrSchedule {
    /// η constant across rounds (the paper's setting).
    #[default]
    Constant,
    /// η multiplied by `factor` every `every` global rounds.
    Step {
        /// Rounds between decays (≥ 1).
        every: usize,
        /// Multiplicative decay factor in `(0, 1]`.
        factor: f32,
    },
    /// η / √(1 + round) — the classical SGD schedule.
    InvSqrt,
}

/// SGD hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct SgdConfig {
    /// Base learning rate η.
    pub lr: f32,
    /// Mini-batch size (clamped to the dataset size).
    pub batch_size: usize,
    /// Round-indexed decay of η.
    pub schedule: LrSchedule,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            lr: 0.5,
            batch_size: 32,
            schedule: LrSchedule::Constant,
        }
    }
}

impl SgdConfig {
    /// The effective learning rate at a global round.
    pub fn lr_at(&self, round: usize) -> f32 {
        match self.schedule {
            LrSchedule::Constant => self.lr,
            LrSchedule::Step { every, factor } => {
                assert!(every >= 1, "step schedule needs every >= 1");
                assert!(
                    factor > 0.0 && factor <= 1.0,
                    "step factor must be in (0, 1]"
                );
                self.lr * factor.powi((round / every) as i32)
            }
            LrSchedule::InvSqrt => self.lr / ((1 + round) as f32).sqrt(),
        }
    }

    /// A copy with the effective rate for `round` substituted in — what
    /// the per-round training loop hands to [`train_local`].
    pub fn at_round(&self, round: usize) -> Self {
        Self {
            lr: self.lr_at(round),
            ..*self
        }
    }
}

/// Performs `iters` SGD steps on `model` over `data` (Algorithm 2's inner
/// `while t < T` loop): sample a batch, compute the mean gradient, take a
/// step `θ ← θ − η∇ℓ`. Returns the mean loss across the performed steps.
///
/// # Panics
/// If the dataset is empty — a client with no data cannot train.
pub fn train_local(
    model: &mut dyn Model,
    data: &Dataset,
    cfg: &SgdConfig,
    iters: usize,
    rng: &mut StdRng,
) -> f64 {
    train_local_scratch(model, data, cfg, iters, rng, &mut TrainScratch::default())
}

/// [`train_local`] with caller-owned scratch — the allocation-free entry
/// point the round runner uses. Numerically identical to `train_local`
/// (same RNG draws, same arithmetic); the scratch only recycles the
/// gradient, index, and forward/backward buffers.
pub fn train_local_scratch(
    model: &mut dyn Model,
    data: &Dataset,
    cfg: &SgdConfig,
    iters: usize,
    rng: &mut StdRng,
    scratch: &mut TrainScratch,
) -> f64 {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    assert!(cfg.lr > 0.0, "learning rate must be positive");
    assert!(cfg.batch_size > 0, "batch size must be positive");
    let batch = cfg.batch_size.min(data.len());
    let TrainScratch {
        grad,
        indices,
        batch: batch_scratch,
    } = scratch;
    grad.clear();
    grad.resize(model.param_len(), 0.0);
    indices.clear();
    indices.resize(batch, 0);
    let mut total_loss = 0.0;
    for _ in 0..iters {
        for slot in indices.iter_mut() {
            *slot = rng.gen_range(0..data.len());
        }
        hfl_tensor::ops::zero(grad);
        total_loss += model.loss_grad_batch_with(data, indices, grad, batch_scratch);
        // θ ← θ − η ∇ℓ
        hfl_tensor::ops::axpy(-cfg.lr, grad, model.params_mut());
    }
    if iters == 0 {
        0.0
    } else {
        total_loss / iters as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearSoftmax;
    use rand::SeedableRng;

    fn two_blob_data() -> Dataset {
        let mut d = Dataset::empty(2, 2);
        for i in 0..50 {
            let t = i as f32 * 0.01;
            d.push(&[1.0 + t, 1.0 - t], 0);
            d.push(&[-1.0 - t, -1.0 + t], 1);
        }
        d
    }

    #[test]
    fn schedules_compute_expected_rates() {
        let base = SgdConfig {
            lr: 1.0,
            ..SgdConfig::default()
        };
        assert_eq!(base.lr_at(0), 1.0);
        assert_eq!(base.lr_at(100), 1.0);

        let step = SgdConfig {
            lr: 1.0,
            schedule: LrSchedule::Step {
                every: 10,
                factor: 0.5,
            },
            ..SgdConfig::default()
        };
        assert_eq!(step.lr_at(0), 1.0);
        assert_eq!(step.lr_at(9), 1.0);
        assert_eq!(step.lr_at(10), 0.5);
        assert_eq!(step.lr_at(25), 0.25);

        let inv = SgdConfig {
            lr: 1.0,
            schedule: LrSchedule::InvSqrt,
            ..SgdConfig::default()
        };
        assert_eq!(inv.lr_at(0), 1.0);
        assert!((inv.lr_at(3) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn at_round_substitutes_rate() {
        let step = SgdConfig {
            lr: 0.8,
            schedule: LrSchedule::Step {
                every: 5,
                factor: 0.1,
            },
            ..SgdConfig::default()
        };
        let r5 = step.at_round(5);
        assert!((r5.lr - 0.08).abs() < 1e-6);
        assert_eq!(r5.batch_size, step.batch_size);
    }

    #[test]
    #[should_panic(expected = "every >= 1")]
    fn zero_step_interval_panics() {
        SgdConfig {
            lr: 1.0,
            schedule: LrSchedule::Step {
                every: 0,
                factor: 0.5,
            },
            ..SgdConfig::default()
        }
        .lr_at(1);
    }

    /// Mean loss of `model` over all of `data`: one whole-set batch
    /// through the gradient entry point, gradient discarded.
    fn mean_loss(model: &dyn Model, data: &Dataset) -> f64 {
        let indices: Vec<usize> = (0..data.len()).collect();
        let mut grad = vec![0.0f32; model.param_len()];
        model.loss_grad_batch_with(data, &indices, &mut grad, &mut BatchScratch::default())
    }

    #[test]
    fn loss_decreases() {
        let data = two_blob_data();
        let mut m = LinearSoftmax::new(2, 2);
        let before = mean_loss(&m, &data);
        let mut rng = StdRng::seed_from_u64(5);
        train_local(&mut m, &data, &SgdConfig::default(), 50, &mut rng);
        let after = mean_loss(&m, &data);
        assert!(after < before, "loss {before} -> {after}");
    }

    #[test]
    fn zero_iters_changes_nothing() {
        let data = two_blob_data();
        let mut m = LinearSoftmax::new(2, 2);
        let p0 = m.params().to_vec();
        let mut rng = StdRng::seed_from_u64(5);
        let loss = train_local(&mut m, &data, &SgdConfig::default(), 0, &mut rng);
        assert_eq!(loss, 0.0);
        assert_eq!(m.params(), p0.as_slice());
    }

    #[test]
    fn training_is_deterministic_in_seed() {
        let data = two_blob_data();
        let run = |seed| {
            let mut m = LinearSoftmax::new(2, 2);
            let mut rng = StdRng::seed_from_u64(seed);
            train_local(&mut m, &data, &SgdConfig::default(), 20, &mut rng);
            m.params().to_vec()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn batch_larger_than_dataset_is_clamped() {
        let data = two_blob_data();
        let mut m = LinearSoftmax::new(2, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = SgdConfig {
            lr: 0.1,
            batch_size: 10_000,
            ..SgdConfig::default()
        };
        // must not panic
        train_local(&mut m, &data, &cfg, 3, &mut rng);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        let data = Dataset::empty(2, 2);
        let mut m = LinearSoftmax::new(2, 2);
        let mut rng = StdRng::seed_from_u64(1);
        train_local(&mut m, &data, &SgdConfig::default(), 1, &mut rng);
    }
}
