//! The flat-parameter model abstraction every FL component works against.

use std::ops::Range;

use hfl_tensor::ops::{self, Panel};
use rand::rngs::StdRng;

use crate::dataset::Dataset;

/// Most inputs the models carry through a dense layer at once — the
/// paper's batch (Table V). Larger batches and row ranges go block by
/// block, in order.
pub(crate) const BLOCK: usize = 32;

/// Reusable forward/backward buffers, so steady-state training rounds
/// and scoring perform no heap allocation. Each holds one block of at
/// most [`BLOCK`] inputs; implementations resize what they need, which
/// is free once capacity has grown.
#[derive(Clone, Debug, Default)]
pub struct BatchScratch {
    /// Logits of a block, then its class probabilities and output
    /// errors in place (`BLOCK × classes`; scoring several θ at once,
    /// their stacked logits, with the stacked biases behind the block).
    pub probs: Vec<f32>,
    /// Hidden activations of a block (MLP only).
    pub hidden: Vec<f32>,
    /// Hidden-layer gradient of a block (MLP only).
    pub dhidden: Vec<f32>,
    /// Output errors of a block, class-major (MLP only).
    pub(crate) errors_t: Vec<f32>,
    /// The model's weight matrices as [`Panel`]s, first layer first (the
    /// second is the MLP's output layer). Refilled by every call that
    /// applies one θ to more than one input and never read across
    /// calls, so whatever an earlier call — or another model — left
    /// here is never seen.
    pub(crate) panels: [Panel; 2],
}

/// One dense layer `out = W x + bias` bound to the inputs of one call:
/// `panel` is filled from `w` when the call applies the weights to more
/// than one input, and left alone for a single input — a refill costs
/// more than the one forward pass it would speed up. Both kernels
/// produce the same bits.
pub(crate) struct Dense<'a> {
    w: &'a [f32],
    bias: &'a [f32],
    panel: &'a Panel,
    filled: bool,
}

impl<'a> Dense<'a> {
    pub(crate) fn new(w: &'a [f32], bias: &'a [f32], panel: &'a mut Panel, inputs: usize) -> Self {
        let filled = inputs > 1;
        if filled {
            panel.fill([w], bias.len(), w.len() / bias.len());
        }
        Self {
            w,
            bias,
            panel,
            filled,
        }
    }

    /// `out[s * rows + r] = dot(w_r, xs[s]) as f32 + bias[r]` for one
    /// block of the call's inputs.
    pub(crate) fn forward(&self, xs: &[&[f32]], out: &mut [f32]) {
        if self.filled {
            ops::forward_block(self.panel, self.bias, xs, out);
        } else {
            ops::affine_rows(self.w, self.bias, xs[0], out);
        }
    }
}

/// Calls `f(features, labels)` for each block of at most [`BLOCK`] of
/// the samples `ids` names, in order.
pub(crate) fn for_each_block<'a>(
    data: &'a Dataset,
    ids: impl IntoIterator<Item = usize>,
    mut f: impl FnMut(&[&'a [f32]], &[u8]),
) {
    let (mut xs, mut ys, mut n) = ([&[][..]; BLOCK], [0u8; BLOCK], 0);
    for i in ids {
        (xs[n], ys[n]) = (data.x(i), data.y(i));
        n += 1;
        if n == BLOCK {
            f(&xs, &ys);
            n = 0;
        }
    }
    if n > 0 {
        f(&xs[..n], &ys[..n]);
    }
}

/// The `width`-long rows of `flat`, at most [`BLOCK`] of them, as the
/// inputs of a block kernel; the caller slices off the rows it has.
pub(crate) fn rows_of(flat: &[f32], width: usize) -> [&[f32]; BLOCK] {
    let mut rows = [&[][..]; BLOCK];
    for (slot, row) in rows.iter_mut().zip(flat.chunks_exact(width)) {
        *slot = row;
    }
    rows
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

    /// Borrow the flat parameter vector for an in-place update (the
    /// SGD step).
    fn params_mut(&mut self) -> &mut [f32];

    /// Overwrite the parameters from a flat vector of exactly
    /// [`Model::param_len`] elements.
    fn set_params(&mut self, p: &[f32]);

    /// Predicted class for one feature row. The forward pass runs in
    /// `scratch`, so scoring many rows through one scratch allocates
    /// only while its buffers grow.
    fn predict(&self, x: &[f32], scratch: &mut BatchScratch) -> u8;

    /// Number of samples in `data[rows]` the model classifies correctly
    /// — the scoring entry point of the accuracy metrics and the
    /// validation vote: one virtual call per row range, not per sample,
    /// in the caller's `scratch`, so scoring many models over one
    /// scratch allocates only while its buffers grow.
    fn count_correct(
        &self,
        data: &Dataset,
        rows: Range<usize>,
        scratch: &mut BatchScratch,
    ) -> usize;

    /// [`Model::count_correct`] under each of several parameter vectors
    /// of this architecture — a validation voter's whole ballot:
    /// `hits[p]` becomes the count under `thetas[p]`. The provided body
    /// loads one vector after another into a clone; a model whose first
    /// layer stacks into one [`Panel`] streams `data[rows]` past it once.
    fn count_correct_each(
        &self,
        thetas: &[&[f32]],
        data: &Dataset,
        rows: Range<usize>,
        scratch: &mut BatchScratch,
        hits: &mut [usize],
    ) {
        assert_eq!(thetas.len(), hits.len(), "thetas/hits length mismatch");
        let mut model = self.clone_box();
        for (h, theta) in hits.iter_mut().zip(thetas) {
            model.set_params(theta);
            *h = model.count_correct(data, rows.clone(), scratch);
        }
    }

    /// Computes the mean cross-entropy loss over the batch `indices` of
    /// `data` and *accumulates* the mean gradient into `grad` (callers
    /// zero `grad` first). Returns the mean loss. The forward and
    /// backward passes run in `scratch`, so the hot training loop
    /// allocates nothing once its buffers have grown.
    fn loss_grad_batch_with(
        &self,
        data: &Dataset,
        indices: &[usize],
        grad: &mut [f32],
        scratch: &mut BatchScratch,
    ) -> f64;

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

#[cfg(test)]
mod tests {
    //! The panel path of both models pinned, bit for bit, against a
    //! per-sample reference that computes every dense layer as one
    //! sequential `dot` per output row — seeded loops, so the pin runs
    //! wherever `cargo test` does.

    use super::*;
    use crate::linear::LinearSoftmax;
    use crate::loss::{argmax, ce_grad_in_place, cross_entropy, softmax_in_place};
    use crate::mlp::Mlp;
    use hfl_tensor::ops::reference::affine_naive;

    /// Batch sizes on both sides of the kernel selection: 1 takes the
    /// single-input kernel, the rest refill a panel.
    const BATCHES: [usize; 4] = [1, 2, 8, 32];

    /// `n` deterministic values in `[-3, 3.67)`; with `adversarial`,
    /// about one in twelve is NaN, ±∞, a subnormal or a signed zero.
    fn values(seed: u64, n: usize, adversarial: bool) -> Vec<f32> {
        (0..n as u64)
            .map(|j| {
                let mut x = (seed << 32 | j).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                x ^= x >> 31;
                match x % 73 {
                    0 if adversarial => f32::NAN,
                    1 if adversarial => f32::INFINITY,
                    2 if adversarial => f32::NEG_INFINITY,
                    3 if adversarial => f32::MIN_POSITIVE / 2.0,
                    4 if adversarial => -0.0,
                    5 if adversarial => 0.0,
                    _ => ((x % 2_000) as f32 / 300.0) - 3.0,
                }
            })
            .collect()
    }

    fn dataset(seed: u64, n: usize, d: usize, classes: usize, adversarial: bool) -> Dataset {
        let ys = (0..n)
            .map(|i| ((i * 7 + seed as usize) % classes) as u8)
            .collect();
        Dataset::from_parts(d, classes, values(seed, n * d, adversarial), ys)
    }

    /// A model recomputed over naive dense layers: `[W (k×d) | b]`
    /// without a hidden width, `[W1 (h×d) | b1 | W2 (k×h) | b2]` with.
    struct Naive<'a> {
        theta: &'a [f32],
        hidden: Option<usize>,
        classes: usize,
    }

    impl Naive<'_> {
        /// `(hidden activations, class probabilities)` for one input;
        /// the linear model has no hidden activations.
        fn forward(&self, x: &[f32]) -> (Vec<f32>, Vec<f32>) {
            let (h, mut probs) = match self.hidden {
                None => {
                    let (w, b) = self.theta.split_at(self.classes * x.len());
                    (Vec::new(), affine_naive(w, b, x))
                }
                Some(hidden) => {
                    let (w1, rest) = self.theta.split_at(hidden * x.len());
                    let (b1, rest) = rest.split_at(hidden);
                    let (w2, b2) = rest.split_at(self.classes * hidden);
                    let mut h = affine_naive(w1, b1, x);
                    h.iter_mut().for_each(|z| *z = z.max(0.0));
                    let probs = affine_naive(w2, b2, &h);
                    (h, probs)
                }
            };
            softmax_in_place(&mut probs);
            (h, probs)
        }

        fn predict(&self, x: &[f32]) -> u8 {
            argmax(&self.forward(x).1) as u8
        }

        /// Mean loss and mean gradient of the batch: the models' own
        /// backward arithmetic over the naive forward.
        fn loss_grad(&self, data: &Dataset, indices: &[usize]) -> (f64, Vec<f32>) {
            let (d, k) = (data.dim(), self.classes);
            let inv_n = 1.0 / indices.len() as f32;
            let axpy = |a: f32, x: &[f32], y: &mut [f32]| {
                y.iter_mut().zip(x).for_each(|(yi, xi)| *yi += a * *xi);
            };
            let mut loss = 0.0f64;
            let mut grad = vec![0.0f32; self.theta.len()];
            for &i in indices {
                let (x, y) = (data.x(i), data.y(i));
                let (h, mut err) = self.forward(x);
                loss += cross_entropy(&err, y);
                ce_grad_in_place(&mut err, y);
                let Some(hidden) = self.hidden else {
                    for (c, e) in err.iter().enumerate() {
                        let coeff = inv_n * *e;
                        if coeff != 0.0 {
                            axpy(coeff, x, &mut grad[c * d..(c + 1) * d]);
                        }
                        grad[k * d + c] += coeff;
                    }
                    continue;
                };
                let (off_b1, off_w2) = (hidden * d, hidden * d + hidden);
                let off_b2 = off_w2 + k * hidden;
                let mut dh = vec![0.0f32; hidden];
                for (c, e) in err.iter().enumerate() {
                    let row = off_w2 + c * hidden..off_w2 + (c + 1) * hidden;
                    let coeff = inv_n * *e;
                    axpy(coeff, &h, &mut grad[row.clone()]);
                    grad[off_b2 + c] += coeff;
                    axpy(*e, &self.theta[row], &mut dh);
                }
                for (j, (dj, hj)) in dh.iter().zip(&h).enumerate() {
                    let coeff = inv_n * if *hj <= 0.0 { 0.0 } else { *dj };
                    if coeff != 0.0 {
                        axpy(coeff, x, &mut grad[j * d..(j + 1) * d]);
                    }
                    grad[off_b1 + j] += coeff;
                }
            }
            (loss / indices.len() as f64, grad)
        }
    }

    /// A linear model at the paper's output width and an MLP whose
    /// hidden layer spans two uneven panel tiles, with seeded parameters.
    fn models(seed: u64, d: usize) -> (LinearSoftmax, Mlp) {
        use rand::SeedableRng;
        let mut linear = LinearSoftmax::new(d, 10);
        linear.set_params(&values(seed, linear.param_len(), false));
        let mut mlp = Mlp::new(d, 19, 10, &mut StdRng::seed_from_u64(seed));
        let theta: Vec<f32> = values(seed + 1, mlp.param_len(), false)
            .iter()
            .map(|v| v * 0.25)
            .collect();
        mlp.set_params(&theta);
        (linear, mlp)
    }

    fn naive_of<'a>(linear: &'a LinearSoftmax, mlp: &'a Mlp) -> [(&'a dyn Model, Naive<'a>); 2] {
        let naive = |theta, hidden, classes| Naive {
            theta,
            hidden,
            classes,
        };
        [
            (linear, naive(linear.params(), None, linear.classes())),
            (mlp, naive(mlp.params(), Some(mlp.hidden()), mlp.classes())),
        ]
    }

    fn grad_of(
        model: &dyn Model,
        data: &Dataset,
        indices: &[usize],
        scratch: &mut BatchScratch,
    ) -> (u64, Vec<u32>) {
        let mut grad = vec![0.0f32; model.param_len()];
        let loss = model.loss_grad_batch_with(data, indices, &mut grad, scratch);
        (loss.to_bits(), grad.iter().map(|g| g.to_bits()).collect())
    }

    #[test]
    fn loss_and_gradient_bits_match_the_per_row_reference_at_every_batch_size() {
        for (seed, d) in [(1u64, 7usize), (2, 64)] {
            let (linear, mlp) = models(seed, d);
            let data = dataset(seed, 48, d, 10, false);
            let mut scratch = BatchScratch::default();
            for (model, naive) in naive_of(&linear, &mlp) {
                for batch in BATCHES {
                    // Repeats included: a batch is a sample with replacement.
                    let indices: Vec<usize> = (0..batch).map(|k| (k * 5 + batch) % 37).collect();
                    let (loss, grad) = naive.loss_grad(&data, &indices);
                    let want = (loss.to_bits(), grad.iter().map(|g| g.to_bits()).collect());
                    let got = grad_of(model, &data, &indices, &mut scratch);
                    assert!(got == want, "seed {seed} d {d} batch {batch}");
                }
            }
        }
    }

    #[test]
    fn count_correct_matches_per_sample_predict_on_the_set_and_on_sub_ranges() {
        for (seed, d) in [(3u64, 5usize), (4, 64)] {
            let (linear, mlp) = models(seed, d);
            let data = dataset(seed, 41, d, 10, true);
            let mut scratch = BatchScratch::default();
            for (model, naive) in naive_of(&linear, &mlp) {
                let want: Vec<u8> = (0..data.len()).map(|i| naive.predict(data.x(i))).collect();
                for (i, w) in want.iter().enumerate() {
                    assert_eq!(model.predict(data.x(i), &mut scratch), *w, "sample {i}");
                }
                // Whole set, empty, one row (single-input kernel), and
                // ranges that start and end mid-set.
                for rows in [0..41, 0..0, 9..9, 9..10, 40..41, 3..29, 17..41] {
                    let hits = rows.clone().filter(|&i| want[i] == data.y(i)).count();
                    assert_eq!(
                        model.count_correct(&data, rows.clone(), &mut scratch),
                        hits,
                        "rows {rows:?}"
                    );
                }
            }
        }
    }

    /// A panel is refilled by every call that reads one, so a scratch
    /// carries nothing from one θ — or one model — to the next.
    #[test]
    fn a_reused_scratch_never_serves_a_stale_or_foreign_panel() {
        let (mut linear, mlp) = models(5, 12);
        let data = dataset(5, 16, 12, 10, false);
        let indices: Vec<usize> = (0..8).collect();
        let fresh = |m: &dyn Model| grad_of(m, &data, &indices, &mut BatchScratch::default());
        let mut scratch = BatchScratch::default();

        // Two steps of one model with its parameters replaced in between.
        assert!(grad_of(&linear, &data, &indices, &mut scratch) == fresh(&linear));
        let moved: Vec<f32> = linear.params().iter().map(|p| 0.5 - p).collect();
        linear.set_params(&moved);
        assert!(grad_of(&linear, &data, &indices, &mut scratch) == fresh(&linear));

        // Two models of different shapes through the same scratch.
        for _ in 0..2 {
            assert!(grad_of(&mlp, &data, &indices, &mut scratch) == fresh(&mlp));
            assert!(grad_of(&linear, &data, &indices, &mut scratch) == fresh(&linear));
        }
    }
}
