//! Multinomial logistic regression (softmax regression).
//!
//! The workhorse model of the reproduction: convex, so SGD dynamics are
//! clean, and small enough (`(dim+1) × classes` parameters) that robust
//! aggregation over 64 clients runs in microseconds.

use std::ops::Range;

use hfl_tensor::ops::{self, Panel, Width};
use rand::rngs::StdRng;

use crate::dataset::Dataset;
use crate::loss::{
    ce_grad_columns, cross_entropy, decide, norm, predict, scale_into_bias, softmax_columns,
    softmax_in_place, softmax_rows, Certificate,
};
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

    /// [`Model::count_correct_each`] with every kernel at `width` and
    /// every panel tiled for it, or `None` when the CPU lacks it — for
    /// the differential tests.
    /// `certified[i * thetas.len() + p]` becomes the class the `f32`
    /// pass certified for row `rows.start + i` under `thetas[p]`, or
    /// `None` where it fell back; returns how many pairs fell back.
    /// Which pairs fall back depends on the width; no hit does.
    #[doc(hidden)]
    pub fn count_correct_each_at(
        &self,
        width: Width,
        thetas: &[&[f32]],
        data: &Dataset,
        rows: Range<usize>,
        hits: &mut [usize],
        certified: &mut [Option<u8>],
    ) -> Option<usize> {
        assert_eq!(
            certified.len(),
            rows.len() * thetas.len(),
            "certified length mismatch"
        );
        let mut scratch = BatchScratch::default();
        self.score_ballot(
            width,
            thetas,
            data,
            rows,
            &mut scratch,
            hits,
            Some(certified),
        )
    }

    /// The ballot: stage 1, the stacked `f32` panel's approximate dot
    /// products ([`ops::forward_approx`]); stage 2, [`decide`] per
    /// proposal; then the block's samples with a pair left open through
    /// the exact forward over the same panel (the `f32` weights widened
    /// as they are loaded, bit for bit the `f64` panel's logits) and
    /// [`predict`] on each open pair.
    #[allow(clippy::too_many_arguments)]
    fn score_ballot(
        &self,
        width: Width,
        thetas: &[&[f32]],
        data: &Dataset,
        rows: Range<usize>,
        scratch: &mut BatchScratch,
        hits: &mut [usize],
        mut certified: Option<&mut [Option<u8>]>,
    ) -> Option<usize> {
        assert_eq!(thetas.len(), hits.len(), "thetas/hits length mismatch");
        if !width.detected() {
            return None;
        }
        hits.fill(0);
        let k = thetas.len();
        if k == 0 {
            return Some(0);
        }
        let (classes, weights) = (self.classes, self.classes * self.dim);
        let stacked = k * classes;
        let BatchScratch { probs, ballot, .. } = scratch;
        // The block's approximate dots, the exact logits of its samples
        // with an open pair, the stacked biases, each proposal's largest
        // row norm.
        probs.resize(2 * BLOCK * stacked + stacked + k, 0.0);
        let (dots, rest) = probs.split_at_mut(BLOCK * stacked);
        let (exact, rest) = rest.split_at_mut(BLOCK * stacked);
        let (bias, w_norms) = rest.split_at_mut(stacked);
        for ((b, w_norm), theta) in bias
            .chunks_exact_mut(classes)
            .zip(&mut *w_norms)
            .zip(thetas)
        {
            assert_eq!(theta.len(), self.theta.len(), "parameter length mismatch");
            b.copy_from_slice(&theta[weights..]);
            *w_norm = row_norm_bound(&theta[..weights], self.dim);
        }
        ballot.fill_at(
            width,
            thetas.iter().map(|t| &t[..weights]),
            classes,
            self.dim,
        );
        let cert = Certificate::new(self.dim);
        let (mut fallbacks, mut done) = (0, 0);
        for_each_block(data, rows, |xs, ys| {
            let n = xs.len();
            let dots = &mut dots[..n * stacked];
            ops::forward_approx_at(width, ballot, xs, dots).expect("the width is detected");
            let x_norms = width
                .run(
                    #[inline(always)]
                    |xs: &[&[f32]], (), (), _| {
                        let mut x_norms = [0.0f64; BLOCK];
                        for (v, x) in x_norms.iter_mut().zip(xs) {
                            *v = norm(x);
                        }
                        x_norms
                    },
                    xs,
                    (),
                    (),
                )
                .expect("the width is detected");
            let decide_at = |p: usize| {
                width
                    .run(
                        #[inline(always)]
                        |(dots, bias, w_norm), (x_norms, ys), cert, _| {
                            decide(dots, bias, w_norm, cert, x_norms, ys)
                        },
                        (
                            &dots[p * classes * n..][..classes * n],
                            &bias[p * classes..][..classes],
                            w_norms[p],
                        ),
                        (&x_norms, ys),
                        cert,
                    )
                    .expect("the width is detected")
            };
            // Samples with a pair the certificate leaves open.
            let mut open = 0;
            for (p, h) in hits.iter_mut().enumerate() {
                let decided = decide_at(p);
                *h += decided.hits;
                open |= decided.undecided;
                if let Some(certified) = certified.as_deref_mut() {
                    for s in 0..n {
                        certified[(done + s) * k + p] =
                            (decided.undecided >> s & 1 == 0).then_some(decided.class[s] as u8);
                    }
                }
            }
            done += n;
            if open == 0 {
                return;
            }
            let (mut some, mut at, mut m) = ([&[][..]; BLOCK], [0; BLOCK], 0);
            for (s, x) in xs.iter().enumerate() {
                if open >> s & 1 == 1 {
                    (some[m], at[m]) = (*x, s);
                    m += 1;
                }
            }
            let exact = &mut exact[..m * stacked];
            ops::forward_block_at(width, ballot, bias, &some[..m], exact)
                .expect("the width is detected");
            // Which of a sample's pairs are open is decided again, not
            // kept: a block with an open pair is rare, and the masks of
            // every proposal would need a buffer of the ballot's length.
            for (p, h) in hits.iter_mut().enumerate() {
                let undecided = decide_at(p).undecided;
                for (sample, s) in exact.chunks_exact_mut(stacked).zip(&at[..m]) {
                    if undecided >> s & 1 == 1 {
                        let logits = &mut sample[p * classes..(p + 1) * classes];
                        *h += usize::from(predict(logits) as u8 == ys[*s]);
                        fallbacks += 1;
                    }
                }
            }
        });
        Some(fallbacks)
    }
}

/// The largest Euclidean norm of the `dim`-long rows of `w`, summed in
/// `f64` and rounded up to an `f32`; NaN when a row's is.
fn row_norm_bound(w: &[f32], dim: usize) -> f32 {
    let largest =
        w.chunks_exact(dim)
            .map(norm)
            .fold(0.0f64, |m, r| if r > m || r.is_nan() { r } else { m });
    let bound = largest as f32;
    if (bound as f64) < largest {
        bound.next_up()
    } else {
        bound
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

    /// One `f32` panel of all the weight matrices stacked (four
    /// proposals of ten classes: 40 rows) and one approximate pass per
    /// block of rows, which decides nearly every prediction; the rest
    /// are made exactly, over the same panel (DESIGN.md §15, "A ballot
    /// is decided in f32").
    fn count_correct_each(
        &self,
        thetas: &[&[f32]],
        data: &Dataset,
        rows: Range<usize>,
        scratch: &mut BatchScratch,
        hits: &mut [usize],
    ) {
        self.score_ballot(Width::widest(), thetas, data, rows, scratch, hits, None)
            .expect("the width was just detected");
    }

    /// One block at a time, class-major from the logits to the rank
    /// update ([`ops::forward_class_major`], [`softmax_columns`], the
    /// errors and bias gradient in place,
    /// [`ops::rank_update_class_major`]); a block of one input takes
    /// [`ops::affine_rows`], whose single output row is the same layout.
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
        let classes = self.classes;
        let probs = &mut scratch.probs;
        probs.resize(BLOCK * classes, 0.0);
        let (w, bias) = self.theta.split_at(classes * self.dim);
        let (grad_w, grad_b) = grad.split_at_mut(classes * self.dim);
        for_each_block(data, indices.iter().copied(), |xs, ys| {
            let n = xs.len();
            let err = &mut probs[..n * classes];
            match xs {
                [x] => ops::affine_rows(w, bias, x, err),
                _ => ops::forward_class_major(w, bias, xs, err),
            }
            softmax_columns(err, n);
            ce_grad_columns(err, ys);
            // dL/dW_c = err_c * x ; dL/db_c = err_c
            scale_into_bias(err, n, inv_n, grad_b);
            // A class whose error is exactly zero leaves its row alone.
            ops::rank_update_class_major(grad_w, err, xs, true);
        });
    }

    fn mean_loss(&self, data: &Dataset, indices: &[usize], scratch: &mut BatchScratch) -> f64 {
        let BatchScratch { probs, panels, .. } = scratch;
        probs.resize(BLOCK * self.classes, 0.0);
        let layer = self.layer(&mut panels[0], indices.len());
        let mut loss = 0.0f64;
        for_each_block(data, indices.iter().copied(), |xs, ys| {
            let probs = &mut probs[..xs.len() * self.classes];
            layer.forward(xs, probs);
            softmax_rows(probs, self.classes);
            for (p, y) in probs.chunks_exact(self.classes).zip(ys) {
                loss += cross_entropy(p, *y);
            }
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
        m.grad_batch_with(&ds, &idx, &mut grad, &mut scratch);
        let loss0 = m.mean_loss(&ds, &idx, &mut scratch);

        let eps = 1e-3f32;
        for j in [0usize, 4, 9, m.param_len() - 1] {
            let mut p = p0.clone();
            p[j] += eps;
            let mut mp = LinearSoftmax::new(3, 3);
            mp.set_params(&p);
            let loss1 = mp.mean_loss(&ds, &idx, &mut scratch);
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
