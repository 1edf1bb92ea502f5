//! The flat-parameter model abstraction every FL component works against.

use std::ops::Range;

use rand::rngs::StdRng;

use crate::dataset::Dataset;

/// Reusable forward/backward buffers, so steady-state training rounds
/// and per-sample scoring perform no heap allocation. Implementations
/// resize what they need, which is free once capacity has grown.
#[derive(Clone, Debug, Default)]
pub struct BatchScratch {
    /// Class-probability / logit buffer (`classes` long).
    pub probs: Vec<f32>,
    /// Hidden activations (MLP only).
    pub hidden: Vec<f32>,
    /// Hidden-layer gradient (MLP only).
    pub dhidden: Vec<f32>,
}

/// A classification model whose parameters live in one contiguous buffer.
///
/// Federated learning, Byzantine-robust aggregation and consensus all
/// exchange *flat parameter vectors*; a `Model` is the bridge between
/// those vectors and forward/backward computation. Implementations keep
/// their parameters in a single `Vec<f32>` so `params()` is a zero-copy
/// borrow.
pub trait Model: Send + Sync {
    /// Total number of scalar parameters.
    fn param_len(&self) -> usize;

    /// Borrow the flat parameter vector.
    fn params(&self) -> &[f32];

    /// Overwrite the parameters from a flat vector of exactly
    /// [`Model::param_len`] elements.
    fn set_params(&mut self, p: &[f32]);

    /// Predicted class for one feature row. The forward pass runs in
    /// `scratch`, so scoring many rows through one scratch allocates
    /// only while its buffers grow.
    fn predict(&self, x: &[f32], scratch: &mut BatchScratch) -> u8;

    /// Number of samples in `data[rows]` the model classifies correctly
    /// — the scoring entry point of the accuracy metrics and the
    /// validation vote: one virtual call and one scratch per row range,
    /// not per sample.
    fn count_correct(&self, data: &Dataset, rows: Range<usize>) -> usize {
        let mut scratch = BatchScratch::default();
        rows.filter(|&i| self.predict(data.x(i), &mut scratch) == data.y(i))
            .count()
    }

    /// Computes the mean cross-entropy loss over the batch `indices` of
    /// `data` and *accumulates* the mean gradient into `grad` (callers
    /// zero `grad` first). Returns the mean loss.
    fn loss_grad_batch(&self, data: &Dataset, indices: &[usize], grad: &mut [f32]) -> f64;

    /// [`Model::loss_grad_batch`] with caller-owned scratch buffers —
    /// the allocation-free entry point the hot training loop uses.
    /// Numerically identical to `loss_grad_batch`; the default ignores
    /// the scratch and delegates.
    fn loss_grad_batch_with(
        &self,
        data: &Dataset,
        indices: &[usize],
        grad: &mut [f32],
        scratch: &mut BatchScratch,
    ) -> f64 {
        let _ = scratch;
        self.loss_grad_batch(data, indices, grad)
    }

    /// Re-initializes the parameters from an RNG (fresh model, same
    /// architecture).
    fn reinit(&mut self, rng: &mut StdRng);

    /// Clones the model behind the trait object.
    fn clone_box(&self) -> Box<dyn Model>;
}

impl Clone for Box<dyn Model> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Mean loss of a model over an entire dataset (no gradient) — used for
/// monitoring and by validation-vote consensus variants that score by
/// loss instead of accuracy.
pub fn mean_loss(model: &dyn Model, data: &Dataset) -> f64 {
    assert!(!data.is_empty(), "mean_loss over empty dataset");
    let mut grad = vec![0.0f32; model.param_len()];
    let mut scratch = BatchScratch::default();
    // One-sample batches return each sample's loss exactly (a mean over
    // one), so this is the same left-to-right f64 sum a single batch
    // over every index would take.
    let mut total = 0.0f64;
    for i in 0..data.len() {
        total += model.loss_grad_batch_with(data, &[i], &mut grad, &mut scratch);
    }
    total / data.len() as f64
}
