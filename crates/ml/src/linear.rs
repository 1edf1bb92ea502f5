//! Multinomial logistic regression (softmax regression).
//!
//! The workhorse model of the reproduction: convex, so SGD dynamics are
//! clean, and small enough (`(dim+1) × classes` parameters) that robust
//! aggregation over 64 clients runs in microseconds.

use std::ops::Range;

use hfl_tensor::ops::Panel;
use rand::rngs::StdRng;

use crate::dataset::Dataset;
use crate::loss::{argmax, ce_grad_in_place, cross_entropy, softmax_in_place};
use crate::model::{dense, BatchScratch, Model};

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
        self.forward_through(None, x, probs);
    }

    /// `panel` filled from this model's weights when a call applies
    /// them to more than one input, `None` for a single input: a refill
    /// costs more than the one forward pass it would speed up.
    fn panel_for<'a>(&self, inputs: usize, panel: &'a mut Panel) -> Option<&'a Panel> {
        (inputs > 1).then(|| {
            panel.fill(
                &self.theta[..self.classes * self.dim],
                self.classes,
                self.dim,
            );
            &*panel
        })
    }

    /// The forward pass through [`Self::panel_for`]'s choice of kernel.
    fn forward_through(&self, panel: Option<&Panel>, x: &[f32], probs: &mut [f32]) {
        assert_eq!(x.len(), self.dim);
        assert_eq!(probs.len(), self.classes);
        let (w, bias) = self.theta.split_at(self.classes * self.dim);
        dense(panel, w, bias, x, probs);
        softmax_in_place(probs);
    }
}

impl Model for LinearSoftmax {
    fn param_len(&self) -> usize {
        self.theta.len()
    }

    fn params(&self) -> &[f32] {
        &self.theta
    }

    fn set_params(&mut self, p: &[f32]) {
        assert_eq!(p.len(), self.theta.len(), "parameter length mismatch");
        self.theta.copy_from_slice(p);
    }

    fn predict(&self, x: &[f32], scratch: &mut BatchScratch) -> u8 {
        let probs = &mut scratch.probs;
        probs.resize(self.classes, 0.0);
        self.forward(x, probs);
        argmax(probs) as u8
    }

    fn count_correct(&self, data: &Dataset, rows: Range<usize>) -> usize {
        let mut panel = Panel::default();
        let panel = self.panel_for(rows.len(), &mut panel);
        let mut probs = vec![0.0f32; self.classes];
        rows.filter(|&i| {
            self.forward_through(panel, data.x(i), &mut probs);
            argmax(&probs) as u8 == data.y(i)
        })
        .count()
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
        let bias_off = self.classes * self.dim;
        let BatchScratch { probs, panels, .. } = scratch;
        probs.clear();
        probs.resize(self.classes, 0.0);
        let panel = self.panel_for(indices.len(), &mut panels[0]);
        let mut loss = 0.0f64;
        for &i in indices {
            let x = data.x(i);
            let y = data.y(i);
            self.forward_through(panel, x, probs);
            loss += cross_entropy(probs, y);
            ce_grad_in_place(probs, y);
            // dL/dW_c = err_c * x ; dL/db_c = err_c
            for (c, err) in probs.iter().enumerate() {
                let coeff = inv_n * *err;
                if coeff != 0.0 {
                    hfl_tensor::ops::axpy(coeff, x, &mut grad[c * self.dim..(c + 1) * self.dim]);
                }
                grad[bias_off + c] += coeff;
            }
        }
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
