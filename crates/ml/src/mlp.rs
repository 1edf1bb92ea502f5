//! One-hidden-layer perceptron with ReLU — the "DNN model" of the paper's
//! evaluation, sized for a synthetic-digits workload.

use std::ops::Range;

use rand::rngs::StdRng;

use hfl_tensor::init;
use hfl_tensor::ops;

use crate::dataset::Dataset;
use crate::loss::{
    ce_grad_columns, cross_entropy, predict, scale_into_bias, softmax_columns, softmax_rows,
};
use crate::model::{for_each_block, rows_of, sample_rows, BatchScratch, Model, BLOCK};

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

    /// Xavier-initializes both weight matrices from `rng`, first layer
    /// first; the biases keep the zeros [`Mlp::new`] gave them.
    fn reinit(&mut self, rng: &mut StdRng) {
        let (dim, hidden, classes) = (self.dim, self.hidden, self.classes);
        let (off_b1, off_w2, off_b2) = (self.off_b1(), self.off_w2(), self.off_b2());
        init::xavier_uniform(rng, dim, hidden, &mut self.theta[..off_b1]);
        init::xavier_uniform(rng, hidden, classes, &mut self.theta[off_w2..off_b2]);
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

    /// `[W1, b1, W2, b2]`.
    fn parts(&self) -> [&[f32]; 4] {
        let (w1, rest) = self.theta.split_at(self.off_b1());
        let (b1, rest) = rest.split_at(self.hidden);
        let (w2, b2) = rest.split_at(self.classes * self.hidden);
        [w1, b1, w2, b2]
    }

    /// Forward pass of one block: the hidden layer class-major into
    /// `units`, its activations (post-ReLU) gathered into sample rows
    /// `h`, and the logits class-major into `logits`.
    fn forward(&self, xs: &[&[f32]], units: &mut [f32], h: &mut [f32], logits: &mut [f32]) {
        let [w1, b1, w2, b2] = self.parts();
        // h = relu(W1 x + b1)
        ops::forward_class_major(w1, b1, xs, units);
        for z in units.iter_mut() {
            *z = z.max(0.0);
        }
        sample_rows(units, xs.len(), h);
        // logits = W2 h + b2
        let hs = rows_of(h, self.hidden);
        ops::forward_class_major(w2, b2, &hs[..xs.len()], logits);
    }
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
            dhidden,
            ..
        } = scratch;
        hidden.resize(self.hidden, 0.0);
        dhidden.resize(self.hidden, 0.0);
        probs.resize(self.classes, 0.0);
        self.forward(&[x], dhidden, hidden, probs);
        predict(probs) as u8
    }

    fn count_correct(
        &self,
        data: &Dataset,
        rows: Range<usize>,
        scratch: &mut BatchScratch,
    ) -> usize {
        let (hid, classes) = (self.hidden, self.classes);
        let BatchScratch {
            probs,
            hidden,
            dhidden,
            ..
        } = scratch;
        hidden.resize(BLOCK * hid, 0.0);
        dhidden.resize(BLOCK * hid, 0.0);
        probs.resize(2 * BLOCK * classes, 0.0);
        let (logits, by_sample) = probs.split_at_mut(BLOCK * classes);
        let mut hits = 0;
        for_each_block(data, rows, |xs, ys| {
            let n = xs.len();
            let (logits, by_sample) = (&mut logits[..n * classes], &mut by_sample[..n * classes]);
            self.forward(xs, &mut dhidden[..n * hid], &mut hidden[..n * hid], logits);
            sample_rows(logits, n, by_sample);
            let predicted = by_sample.chunks_exact_mut(classes).map(predict);
            hits += predicted.zip(ys).filter(|(c, y)| *c as u8 == **y).count();
        });
        hits
    }

    /// Both layers through [`ops::forward_class_major`], the hidden
    /// activations gathered into sample rows once per block; the output
    /// layer class-major from its logits to its rank update
    /// ([`softmax_columns`], the errors and bias gradient in place,
    /// [`ops::rank_update_class_major`]); `dh = W2ᵀ·err` reads the same
    /// class-major errors as the coefficients of a rank update with
    /// samples as rows.
    fn grad_batch_with(
        &self,
        data: &Dataset,
        indices: &[usize],
        grad: &mut [f32],
        scratch: &mut BatchScratch,
    ) {
        assert_eq!(grad.len(), self.theta.len(), "gradient buffer mismatch");
        assert!(!indices.is_empty(), "empty batch");
        assert_eq!(data.dim(), self.dim, "dataset dimension mismatch");
        let inv_n = 1.0 / indices.len() as f32;
        let (hid, classes) = (self.hidden, self.classes);
        let BatchScratch {
            probs,
            hidden,
            dhidden,
            ..
        } = scratch;
        probs.resize(BLOCK * classes, 0.0);
        hidden.resize(BLOCK * hid, 0.0);
        dhidden.resize(BLOCK * hid, 0.0);
        let w2 = self.parts()[2];
        let (grad_w1, rest) = grad.split_at_mut(self.off_b1());
        let (grad_b1, rest) = rest.split_at_mut(hid);
        let (grad_w2, grad_b2) = rest.split_at_mut(classes * hid);
        for_each_block(data, indices.iter().copied(), |xs, ys| {
            let n = xs.len();
            let (h, dh) = (&mut hidden[..n * hid], &mut dhidden[..n * hid]);
            let err = &mut probs[..n * classes];
            self.forward(xs, dh, h, err);
            softmax_columns(err, n);
            // err becomes dL/dlogits
            ce_grad_columns(err, ys);
            // dh = W2ᵀ err — sample s is row s, class c the c-th input —
            // gated by ReLU
            ops::zero(dh);
            for (w2, err) in w2.chunks(BLOCK * hid).zip(err.chunks(BLOCK * n)) {
                ops::rank_update(dh, err, &rows_of(w2, hid)[..w2.len() / hid], false);
            }
            // dL/dW2_c = err_c ⊗ h, dL/db2_c = err_c
            scale_into_bias(err, n, inv_n, grad_b2);
            ops::rank_update_class_major(grad_w2, err, &rows_of(h, hid)[..n], false);
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
    }

    fn mean_loss(&self, data: &Dataset, indices: &[usize], scratch: &mut BatchScratch) -> f64 {
        let (hid, classes) = (self.hidden, self.classes);
        let BatchScratch {
            probs,
            hidden,
            dhidden,
            ..
        } = scratch;
        hidden.resize(BLOCK * hid, 0.0);
        dhidden.resize(BLOCK * hid, 0.0);
        probs.resize(2 * BLOCK * classes, 0.0);
        let (logits, by_sample) = probs.split_at_mut(BLOCK * classes);
        let mut loss = 0.0f64;
        for_each_block(data, indices.iter().copied(), |xs, ys| {
            let n = xs.len();
            let (logits, probs) = (&mut logits[..n * classes], &mut by_sample[..n * classes]);
            self.forward(xs, &mut dhidden[..n * hid], &mut hidden[..n * hid], logits);
            sample_rows(logits, n, probs);
            softmax_rows(probs, classes);
            for (p, y) in probs.chunks_exact(classes).zip(ys) {
                loss += cross_entropy(p, *y);
            }
        });
        loss / indices.len() as f64
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
        m.grad_batch_with(&ds, &idx, &mut grad, &mut scratch);
        let loss0 = m.mean_loss(&ds, &idx, &mut scratch);

        let eps = 1e-3f32;
        // Sample coordinates across all four parameter blocks.
        for j in [0usize, 5, 12, 13, 16, 20, m.param_len() - 1] {
            let mut p = p0.clone();
            p[j] += eps;
            let mut mp = small_mlp(2);
            mp.set_params(&p);
            let loss1 = mp.mean_loss(&ds, &idx, &mut scratch);
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
