//! One-hidden-layer perceptron with ReLU — the "DNN model" of the paper's
//! evaluation, sized for a synthetic-digits workload.

use std::ops::Range;

use rand::rngs::StdRng;

use hfl_tensor::init;
use hfl_tensor::ops::Panel;

use crate::dataset::Dataset;
use crate::loss::{argmax, ce_grad_in_place, cross_entropy, softmax_in_place};
use crate::model::{dense, BatchScratch, Model};

/// MLP `dim → hidden (ReLU) → classes (softmax)`.
///
/// Flat parameter layout: `[W1 (h×d) | b1 (h) | W2 (k×h) | b2 (k)]`.
#[derive(Clone, Debug)]
pub struct Mlp {
    dim: usize,
    hidden: usize,
    classes: usize,
    theta: Vec<f32>,
}

impl Mlp {
    /// A new MLP with Xavier-initialized weights and zero biases.
    pub fn new(dim: usize, hidden: usize, classes: usize, rng: &mut StdRng) -> Self {
        assert!(dim > 0 && hidden > 0 && classes >= 2);
        let mut m = Self {
            dim,
            hidden,
            classes,
            theta: vec![0.0; hidden * dim + hidden + classes * hidden + classes],
        };
        m.reinit(rng);
        m
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    // --- flat layout offsets -------------------------------------------
    #[inline]
    fn off_b1(&self) -> usize {
        self.hidden * self.dim
    }
    #[inline]
    fn off_w2(&self) -> usize {
        self.off_b1() + self.hidden
    }
    #[inline]
    fn off_b2(&self) -> usize {
        self.off_w2() + self.classes * self.hidden
    }

    /// `panels` filled from this model's two weight matrices when a
    /// call applies them to more than one input, `None` for a single
    /// input: a refill costs more than the one forward pass it would
    /// speed up.
    fn panels_for<'a>(&self, inputs: usize, panels: &'a mut [Panel; 2]) -> Option<&'a [Panel; 2]> {
        (inputs > 1).then(|| {
            let t = &self.theta;
            panels[0].fill(&t[..self.off_b1()], self.hidden, self.dim);
            panels[1].fill(&t[self.off_w2()..self.off_b2()], self.classes, self.hidden);
            &*panels
        })
    }

    /// Forward pass through [`Self::panels_for`]'s choice of kernel.
    /// Writes hidden activations (post-ReLU) and class probabilities
    /// into the provided buffers.
    fn forward_through(
        &self,
        panels: Option<&[Panel; 2]>,
        x: &[f32],
        h: &mut [f32],
        probs: &mut [f32],
    ) {
        let (w1, rest) = self.theta.split_at(self.off_b1());
        let (b1, rest) = rest.split_at(self.hidden);
        let (w2, b2) = rest.split_at(self.classes * self.hidden);
        // h = relu(W1 x + b1)
        dense(panels.map(|p| &p[0]), w1, b1, x, h);
        for z in h.iter_mut() {
            *z = z.max(0.0);
        }
        // logits = W2 h + b2
        dense(panels.map(|p| &p[1]), w2, b2, h, probs);
        softmax_in_place(probs);
    }
}

impl Model for Mlp {
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
        let BatchScratch { probs, hidden, .. } = scratch;
        hidden.resize(self.hidden, 0.0);
        probs.resize(self.classes, 0.0);
        self.forward_through(None, x, hidden, probs);
        argmax(probs) as u8
    }

    fn count_correct(&self, data: &Dataset, rows: Range<usize>) -> usize {
        let mut panels = <[Panel; 2]>::default();
        let panels = self.panels_for(rows.len(), &mut panels);
        let mut h = vec![0.0f32; self.hidden];
        let mut probs = vec![0.0f32; self.classes];
        rows.filter(|&i| {
            self.forward_through(panels, data.x(i), &mut h, &mut probs);
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
        let (off_b1, off_w2, off_b2) = (self.off_b1(), self.off_w2(), self.off_b2());
        let BatchScratch {
            probs,
            hidden,
            dhidden,
            panels,
        } = scratch;
        let (h, dh) = (hidden, dhidden);
        h.clear();
        h.resize(self.hidden, 0.0);
        probs.clear();
        probs.resize(self.classes, 0.0);
        dh.clear();
        dh.resize(self.hidden, 0.0);
        let panels = self.panels_for(indices.len(), panels);
        let mut loss = 0.0f64;
        for &i in indices {
            let x = data.x(i);
            let y = data.y(i);
            self.forward_through(panels, x, h, probs);
            loss += cross_entropy(probs, y);
            ce_grad_in_place(probs, y); // probs now holds dL/dlogits

            // dL/dW2_c = err_c ⊗ h ; dL/db2_c = err_c
            for (c, err) in probs.iter().enumerate() {
                let coeff = inv_n * *err;
                hfl_tensor::ops::axpy(
                    coeff,
                    h,
                    &mut grad[off_w2 + c * self.hidden..off_w2 + (c + 1) * self.hidden],
                );
                grad[off_b2 + c] += coeff;
            }
            // dh = W2ᵀ err, gated by ReLU
            hfl_tensor::ops::zero(dh);
            for (c, err) in probs.iter().enumerate() {
                let row =
                    &self.theta[off_w2 + c * self.hidden..off_w2 + (c + 1) * self.hidden];
                hfl_tensor::ops::axpy(*err, row, dh);
            }
            for (dj, hj) in dh.iter_mut().zip(h.iter()) {
                if *hj <= 0.0 {
                    *dj = 0.0;
                }
            }
            // dL/dW1_j = dh_j ⊗ x ; dL/db1_j = dh_j
            for (j, dj) in dh.iter().enumerate() {
                let coeff = inv_n * *dj;
                if coeff != 0.0 {
                    hfl_tensor::ops::axpy(
                        coeff,
                        x,
                        &mut grad[j * self.dim..(j + 1) * self.dim],
                    );
                }
                grad[off_b1 + j] += coeff;
            }
        }
        loss / indices.len() as f64
    }

    fn reinit(&mut self, rng: &mut StdRng) {
        let (dim, hidden, classes) = (self.dim, self.hidden, self.classes);
        let (off_b1, off_w2, off_b2) = (self.off_b1(), self.off_w2(), self.off_b2());
        init::xavier_uniform(rng, dim, hidden, &mut self.theta[..off_b1]);
        self.theta[off_b1..off_w2].iter_mut().for_each(|t| *t = 0.0);
        let end_w2 = off_b2;
        init::xavier_uniform(rng, hidden, classes, &mut self.theta[off_w2..end_w2]);
        self.theta[off_b2..].iter_mut().for_each(|t| *t = 0.0);
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

    fn small_mlp(seed: u64) -> Mlp {
        let mut rng = StdRng::seed_from_u64(seed);
        Mlp::new(3, 4, 3, &mut rng)
    }

    #[test]
    fn param_len_layout() {
        let m = small_mlp(1);
        assert_eq!(m.param_len(), 4 * 3 + 4 + 3 * 4 + 3);
    }

    #[test]
    fn param_roundtrip() {
        let mut m = small_mlp(1);
        let p: Vec<f32> = (0..m.param_len()).map(|i| i as f32 * 0.01).collect();
        m.set_params(&p);
        assert_eq!(m.params(), p.as_slice());
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let m = small_mlp(2);
        let mut ds = Dataset::empty(3, 3);
        ds.push(&[0.8, -0.3, 0.1], 1);
        ds.push(&[-0.5, 0.9, 0.4], 0);
        ds.push(&[0.2, 0.2, -0.9], 2);
        let idx = [0usize, 1, 2];
        let p0 = m.params().to_vec();
        let mut grad = vec![0.0f32; m.param_len()];
        let mut scratch = BatchScratch::default();
        let loss0 = m.loss_grad_batch_with(&ds, &idx, &mut grad, &mut scratch);

        let eps = 1e-3f32;
        // Sample coordinates across all four parameter blocks.
        for j in [0usize, 5, 12, 13, 16, 20, m.param_len() - 1] {
            let mut p = p0.clone();
            p[j] += eps;
            let mut mp = small_mlp(2);
            mp.set_params(&p);
            let mut unused = vec![0.0f32; m.param_len()];
            let loss1 = mp.loss_grad_batch_with(&ds, &idx, &mut unused, &mut scratch);
            let fd = (loss1 - loss0) / eps as f64;
            assert!(
                (fd - grad[j] as f64).abs() < 5e-3,
                "coord {j}: fd {fd} vs analytic {}",
                grad[j]
            );
        }
    }

    #[test]
    fn reinit_is_deterministic_and_nonzero() {
        let a = small_mlp(3);
        let b = small_mlp(3);
        assert_eq!(a.params(), b.params());
        assert!(a.params().iter().any(|p| *p != 0.0));
        let c = small_mlp(4);
        assert_ne!(a.params(), c.params());
    }

    #[test]
    fn learns_the_synthetic_task() {
        let task = SyntheticDigits::generate(&SynthConfig::tiny());
        let mut rng = StdRng::seed_from_u64(11);
        let mut m = Mlp::new(task.train.dim(), 32, task.train.num_classes(), &mut rng);
        let cfg = SgdConfig {
            lr: 0.3,
            batch_size: 32,
            ..SgdConfig::default()
        };
        for _ in 0..200 {
            train_local(&mut m, &task.train, &cfg, 5, &mut rng);
        }
        let acc = crate::metrics::accuracy(&m, &task.test);
        assert!(acc > 0.8, "accuracy only {acc}");
    }
}
