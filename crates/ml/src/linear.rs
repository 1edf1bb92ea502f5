//! Multinomial logistic regression (softmax regression).
//!
//! The workhorse model of the reproduction: convex, so SGD dynamics are
//! clean, and small enough (`(dim+1) × classes` parameters) that robust
//! aggregation over 64 clients runs in microseconds.

use std::ops::Range;

use hfl_tensor::ops::{self, Panel};
use rand::rngs::StdRng;

use crate::dataset::Dataset;
use crate::loss::{ce_grad_in_place, cross_entropy, predict, softmax_in_place};
use crate::model::{for_each_block, BatchScratch, Dense, Model, BLOCK};

/// Softmax regression with weights `W (k×d)` and bias `b (k)`, stored
/// flat as `[W row 0, W row 1, ..., b]`.
#[derive(Clone, Debug)]
pub struct LinearSoftmax {
    dim: usize,
    classes: usize,
    /// Flat parameters, length `classes * dim + classes`.
    theta: Vec<f32>,
}

impl LinearSoftmax {
    /// A zero-initialized model (a valid, symmetric starting point for
    /// softmax regression).
    pub fn new(dim: usize, classes: usize) -> Self {
        assert!(dim > 0 && classes >= 2);
        Self {
            dim,
            classes,
            theta: vec![0.0; classes * dim + classes],
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Writes class probabilities for `x` into `probs`.
    pub fn forward(&self, x: &[f32], probs: &mut [f32]) {
        self.layer(&mut Panel::default(), 1).forward(&[x], probs);
        softmax_in_place(probs);
    }

    /// The model's one layer, bound to a call over `inputs` inputs.
    fn layer<'a>(&'a self, panel: &'a mut Panel, inputs: usize) -> Dense<'a> {
        let (w, bias) = self.theta.split_at(self.classes * self.dim);
        Dense::new(w, bias, panel, inputs)
    }
}

impl Model for LinearSoftmax {
    fn param_len(&self) -> usize {
        self.theta.len()
    }

    fn params(&self) -> &[f32] {
        &self.theta
    }

    fn params_mut(&mut self) -> &mut [f32] {
        &mut self.theta
    }

    fn set_params(&mut self, p: &[f32]) {
        assert_eq!(p.len(), self.theta.len(), "parameter length mismatch");
        self.theta.copy_from_slice(p);
    }

    fn predict(&self, x: &[f32], scratch: &mut BatchScratch) -> u8 {
        let BatchScratch { probs, panels, .. } = scratch;
        probs.resize(self.classes, 0.0);
        self.layer(&mut panels[0], 1).forward(&[x], probs);
        predict(probs) as u8
    }

    fn count_correct(
        &self,
        data: &Dataset,
        rows: Range<usize>,
        scratch: &mut BatchScratch,
    ) -> usize {
        let mut hits = [0];
        self.count_correct_each(&[&self.theta], data, rows, scratch, &mut hits);
        hits[0]
    }

    /// One panel of all the weight matrices stacked (four proposals of
    /// ten classes: 40 rows) and one forward pass per block of rows.
    fn count_correct_each(
        &self,
        thetas: &[&[f32]],
        data: &Dataset,
        rows: Range<usize>,
        scratch: &mut BatchScratch,
        hits: &mut [usize],
    ) {
        assert_eq!(thetas.len(), hits.len(), "thetas/hits length mismatch");
        if thetas.is_empty() {
            return;
        }
        let (classes, weights) = (self.classes, self.classes * self.dim);
        let stacked = thetas.len() * classes;
        let BatchScratch { probs, panels, .. } = scratch;
        probs.resize((BLOCK + 1) * stacked, 0.0);
        let (logits, bias) = probs.split_at_mut(BLOCK * stacked);
        for (b, theta) in bias.chunks_exact_mut(classes).zip(thetas) {
            assert_eq!(theta.len(), self.theta.len(), "parameter length mismatch");
            b.copy_from_slice(&theta[weights..]);
        }
        panels[0].fill(thetas.iter().map(|t| &t[..weights]), classes, self.dim);
        hits.fill(0);
        for_each_block(data, rows, |xs, ys| {
            let logits = &mut logits[..xs.len() * stacked];
            ops::forward_block(&panels[0], bias, xs, logits);
            for (sample, y) in logits.chunks_exact_mut(stacked).zip(ys) {
                for (h, logits) in hits.iter_mut().zip(sample.chunks_exact_mut(classes)) {
                    *h += usize::from(predict(logits) as u8 == *y);
                }
            }
        });
    }

    fn loss_grad_batch_with(
        &self,
        data: &Dataset,
        indices: &[usize],
        grad: &mut [f32],
        scratch: &mut BatchScratch,
    ) -> f64 {
        assert_eq!(grad.len(), self.theta.len(), "gradient buffer mismatch");
        assert!(!indices.is_empty(), "empty batch");
        assert_eq!(data.dim(), self.dim, "dataset dimension mismatch");
        let inv_n = 1.0 / indices.len() as f32;
        let BatchScratch { probs, panels, .. } = scratch;
        probs.resize(BLOCK * self.classes, 0.0);
        let layer = self.layer(&mut panels[0], indices.len());
        let (grad_w, grad_b) = grad.split_at_mut(self.classes * self.dim);
        let mut loss = 0.0f64;
        for_each_block(data, indices.iter().copied(), |xs, ys| {
            let coeff = &mut probs[..xs.len() * self.classes];
            layer.forward(xs, coeff);
            for (err, y) in coeff.chunks_exact_mut(self.classes).zip(ys) {
                softmax_in_place(err);
                loss += cross_entropy(err, *y);
                ce_grad_in_place(err, *y);
                // dL/dW_c = err_c * x ; dL/db_c = err_c
                for (e, b) in err.iter_mut().zip(grad_b.iter_mut()) {
                    *e *= inv_n;
                    *b += *e;
                }
            }
            // A class whose error is exactly zero leaves its row alone.
            ops::rank_update(grad_w, coeff, xs, true);
        });
        loss / indices.len() as f64
    }

    fn reinit(&mut self, _rng: &mut StdRng) {
        // Zero init is canonical (and symmetric) for softmax regression.
        self.theta.iter_mut().for_each(|t| *t = 0.0);
    }

    fn clone_box(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgd::{train_local, SgdConfig};
    use crate::synth::{SynthConfig, SyntheticDigits};
    use rand::SeedableRng;

    #[test]
    fn param_roundtrip() {
        let mut m = LinearSoftmax::new(3, 2);
        let p: Vec<f32> = (0..m.param_len()).map(|i| i as f32).collect();
        m.set_params(&p);
        assert_eq!(m.params(), p.as_slice());
    }

    #[test]
    fn zero_model_uniform_probs() {
        let m = LinearSoftmax::new(4, 5);
        let mut probs = vec![0.0f32; 5];
        m.forward(&[1.0, -1.0, 2.0, 0.5], &mut probs);
        for p in probs {
            assert!((p - 0.2).abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut m = LinearSoftmax::new(3, 3);
        let mut ds = Dataset::empty(3, 3);
        ds.push(&[1.0, 0.5, -0.5], 0);
        ds.push(&[-1.0, 0.2, 0.3], 2);
        let p0: Vec<f32> = (0..m.param_len())
            .map(|i| 0.05 * (i as f32 - 5.0))
            .collect();
        m.set_params(&p0);

        let idx = [0usize, 1];
        let mut grad = vec![0.0f32; m.param_len()];
        let mut scratch = BatchScratch::default();
        let loss0 = m.loss_grad_batch_with(&ds, &idx, &mut grad, &mut scratch);

        let eps = 1e-3f32;
        for j in [0usize, 4, 9, m.param_len() - 1] {
            let mut p = p0.clone();
            p[j] += eps;
            let mut mp = LinearSoftmax::new(3, 3);
            mp.set_params(&p);
            let mut unused = vec![0.0f32; m.param_len()];
            let loss1 = mp.loss_grad_batch_with(&ds, &idx, &mut unused, &mut scratch);
            let fd = (loss1 - loss0) / eps as f64;
            assert!(
                (fd - grad[j] as f64).abs() < 2e-3,
                "coord {j}: fd {fd} vs analytic {}",
                grad[j]
            );
        }
    }

    #[test]
    fn learns_the_synthetic_task() {
        let task = SyntheticDigits::generate(&SynthConfig::tiny());
        let mut m = LinearSoftmax::new(task.train.dim(), task.train.num_classes());
        let cfg = SgdConfig {
            lr: 0.5,
            batch_size: 32,
            ..SgdConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            train_local(&mut m, &task.train, &cfg, 5, &mut rng);
        }
        let acc = crate::metrics::accuracy(&m, &task.test);
        assert!(acc > 0.8, "accuracy only {acc}");
    }
}
