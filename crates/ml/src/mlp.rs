//! One-hidden-layer perceptron with ReLU — the "DNN model" of the paper's
//! evaluation, sized for a synthetic-digits workload.

use std::ops::Range;

use rand::rngs::StdRng;

use hfl_tensor::init;
use hfl_tensor::ops::{self, Panel};

use crate::dataset::Dataset;
use crate::loss::{ce_grad_in_place, cross_entropy, predict, softmax_in_place};
use crate::model::{for_each_block, rows_of, BatchScratch, Dense, Model, BLOCK};

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

    /// The model's two layers, bound to a call over `inputs` inputs.
    fn layers<'a>(&'a self, panels: &'a mut [Panel; 2], inputs: usize) -> [Dense<'a>; 2] {
        let (w1, rest) = self.theta.split_at(self.off_b1());
        let (b1, rest) = rest.split_at(self.hidden);
        let (w2, b2) = rest.split_at(self.classes * self.hidden);
        let [p1, p2] = panels;
        [
            Dense::new(w1, b1, p1, inputs),
            Dense::new(w2, b2, p2, inputs),
        ]
    }
}

/// Forward pass of one block: hidden activations (post-ReLU) into `h`,
/// logits into `logits`.
fn forward(layers: &[Dense; 2], xs: &[&[f32]], h: &mut [f32], logits: &mut [f32]) {
    // h = relu(W1 x + b1)
    layers[0].forward(xs, h);
    for z in h.iter_mut() {
        *z = z.max(0.0);
    }
    // logits = W2 h + b2
    let hs = rows_of(h, h.len() / xs.len());
    layers[1].forward(&hs[..xs.len()], logits);
}

impl Model for Mlp {
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
        let BatchScratch {
            probs,
            hidden,
            panels,
            ..
        } = scratch;
        hidden.resize(self.hidden, 0.0);
        probs.resize(self.classes, 0.0);
        forward(&self.layers(panels, 1), &[x], hidden, probs);
        predict(probs) as u8
    }

    fn count_correct(
        &self,
        data: &Dataset,
        rows: Range<usize>,
        scratch: &mut BatchScratch,
    ) -> usize {
        let BatchScratch {
            probs,
            hidden,
            panels,
            ..
        } = scratch;
        hidden.resize(BLOCK * self.hidden, 0.0);
        probs.resize(BLOCK * self.classes, 0.0);
        let layers = self.layers(panels, rows.len());
        let mut hits = 0;
        for_each_block(data, rows, |xs, ys| {
            let logits = &mut probs[..xs.len() * self.classes];
            forward(&layers, xs, &mut hidden[..xs.len() * self.hidden], logits);
            let classes = logits.chunks_exact_mut(self.classes).map(predict);
            hits += classes.zip(ys).filter(|(c, y)| *c as u8 == **y).count();
        });
        hits
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
        let (hid, classes) = (self.hidden, self.classes);
        let BatchScratch {
            probs,
            hidden,
            dhidden,
            errors_t,
            panels,
        } = scratch;
        probs.resize(BLOCK * classes, 0.0);
        hidden.resize(BLOCK * hid, 0.0);
        dhidden.resize(BLOCK * hid, 0.0);
        errors_t.resize(BLOCK * classes, 0.0);
        let layers = self.layers(panels, indices.len());
        let w2 = &self.theta[self.off_w2()..self.off_b2()];
        let (grad_w1, rest) = grad.split_at_mut(self.off_b1());
        let (grad_b1, rest) = rest.split_at_mut(hid);
        let (grad_w2, grad_b2) = rest.split_at_mut(classes * hid);
        let mut loss = 0.0f64;
        for_each_block(data, indices.iter().copied(), |xs, ys| {
            let n = xs.len();
            let (h, coeff) = (&mut hidden[..n * hid], &mut probs[..n * classes]);
            forward(&layers, xs, h, coeff);
            let errors_t = &mut errors_t[..n * classes];
            for (s, (err, y)) in coeff.chunks_exact_mut(classes).zip(ys).enumerate() {
                softmax_in_place(err);
                loss += cross_entropy(err, *y);
                // err becomes dL/dlogits; dL/dW2_c = err_c ⊗ h, dL/db2_c = err_c
                ce_grad_in_place(err, *y);
                for (c, (e, b)) in err.iter_mut().zip(grad_b2.iter_mut()).enumerate() {
                    errors_t[c * n + s] = *e;
                    *e *= inv_n;
                    *b += *e;
                }
            }
            ops::rank_update(grad_w2, coeff, &rows_of(h, hid)[..n], false);
            // dh = W2ᵀ err — sample s is row s, class c the c-th input —
            // gated by ReLU
            let dh = &mut dhidden[..n * hid];
            ops::zero(dh);
            for (w2, errors_t) in w2.chunks(BLOCK * hid).zip(errors_t.chunks(BLOCK * n)) {
                ops::rank_update(dh, errors_t, &rows_of(w2, hid)[..w2.len() / hid], false);
            }
            // dL/dW1_j = dh_j ⊗ x ; dL/db1_j = dh_j
            for (dh, h) in dh.chunks_exact_mut(hid).zip(h.chunks_exact(hid)) {
                for ((dj, hj), b) in dh.iter_mut().zip(h).zip(grad_b1.iter_mut()) {
                    *dj = inv_n * if *hj <= 0.0 { 0.0 } else { *dj };
                    *b += *dj;
                }
            }
            // A unit the gate closed leaves its row alone.
            ops::rank_update(grad_w1, dh, xs, true);
        });
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
