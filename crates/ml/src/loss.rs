//! Softmax and cross-entropy primitives shared by the models, and the
//! prediction a ballot certifies from `f32` logits.

use hfl_tensor::{math, ops};

use crate::model::BLOCK;

// A block's undecided samples are the bits of one `u32`.
const _: () = assert!(BLOCK <= 32);

/// Numerically-stable in-place softmax: `logits` becomes a probability
/// vector. [`softmax_rows`] over one row.
pub fn softmax_in_place(logits: &mut [f32]) {
    assert!(!logits.is_empty(), "softmax of empty vector");
    softmax_rows(logits, logits.len());
}

/// [`softmax_in_place`] on each `classes`-long row of `logits`, in three
/// passes over the block: each row's maximum taken off it, one
/// lane-wise [`math::exp_in_place`] over every logit, then each row
/// summed in class order and divided by its sum. A lane computes the
/// scalar [`math::exp`]'s bits, so every row reads as if it were run
/// alone.
///
/// # Panics
/// If `classes` is 0 or does not divide `logits.len()`.
pub fn softmax_rows(logits: &mut [f32], classes: usize) {
    assert!(
        classes > 0 && logits.len().is_multiple_of(classes),
        "softmax rows of {classes} over {} logits",
        logits.len()
    );
    for row in logits.chunks_exact_mut(classes) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        row.iter_mut().for_each(|l| *l -= max);
    }
    math::exp_in_place(logits);
    for row in logits.chunks_exact_mut(classes) {
        // sum >= 1 because one exponent is exp(0) = 1.
        let sum = row.iter().fold(0.0f32, |sum, e| sum + *e);
        row.iter_mut().for_each(|l| *l /= sum);
    }
}

/// [`softmax_rows`] on a class-major block: `logits[r * n + s]` is
/// class `r` of input `s`, so a class's values for the whole block are
/// adjacent. One pass at the widest [`ops::Width`], lane-wise over the
/// inputs: each input's maximum (folded in class order from `−∞` with
/// `f32::max`, whose NaN rule it keeps), the subtraction, [`math::exp`],
/// the sum in class order and the division — each input reads its
/// `softmax_rows` bits. One input is one row either way, and takes
/// `softmax_rows`, whose `exp` runs lane-wise over the classes.
///
/// # Panics
/// If `n` is 0 or more than a block, or does not divide `logits.len()`.
pub fn softmax_columns(logits: &mut [f32], n: usize) {
    assert!(
        n > 0 && n <= BLOCK && logits.len().is_multiple_of(n),
        "softmax columns of {n} inputs over {} logits",
        logits.len()
    );
    if n == 1 {
        return softmax_rows(logits, logits.len());
    }
    ops::at_widest(
        #[inline(always)]
        |n, logits: &mut [f32], (), _| {
            let (mut max, mut sum) = ([f32::NEG_INFINITY; BLOCK], [0.0f32; BLOCK]);
            let (max, sum) = (&mut max[..n], &mut sum[..n]);
            for class in logits.chunks_exact(n) {
                for (m, l) in max.iter_mut().zip(class) {
                    *m = m.max(*l);
                }
            }
            for class in logits.chunks_exact_mut(n) {
                for ((l, m), sum) in class.iter_mut().zip(&*max).zip(&mut *sum) {
                    *l = math::exp(*l - *m);
                    // sum >= 1 because one exponent is exp(0) = 1.
                    *sum += *l;
                }
            }
            for class in logits.chunks_exact_mut(n) {
                for (l, sum) in class.iter_mut().zip(&*sum) {
                    *l /= *sum;
                }
            }
        },
        n,
        logits,
        (),
    )
}

/// [`ce_grad_in_place`] on each input of a class-major block of
/// probabilities (`probs[r * ys.len() + s]`): the output errors
/// `p − onehot(y)`, in place.
pub(crate) fn ce_grad_columns(probs: &mut [f32], ys: &[u8]) {
    let n = ys.len();
    for (s, y) in ys.iter().enumerate() {
        probs[*y as usize * n + s] -= 1.0;
    }
}

/// Scales a class-major block of output errors by `inv_n` in place and
/// adds each class's to its bias gradient, inputs in order — the
/// additions a per-input loop makes, in the order it makes them. Inputs
/// outermost: every class's chain of additions then advances a step per
/// input, side by side, where a class at a time waits on each addition
/// before the next.
pub(crate) fn scale_into_bias(err: &mut [f32], n: usize, inv_n: f32, grad_b: &mut [f32]) {
    for e in err.iter_mut() {
        *e *= inv_n;
    }
    for s in 0..n {
        for (b, class) in grad_b.iter_mut().zip(err.chunks_exact(n)) {
            *b += class[s];
        }
    }
}

/// Cross-entropy loss of a probability vector against an integer label.
/// Probabilities are clamped away from zero to avoid infinities.
#[inline]
pub fn cross_entropy(probs: &[f32], y: u8) -> f64 {
    let p = probs[y as usize].max(1e-12);
    -math::ln_f64(p as f64)
}

/// Writes the softmax-cross-entropy output gradient `p − onehot(y)` into
/// `probs` in place (the standard fused backward step).
#[inline]
pub fn ce_grad_in_place(probs: &mut [f32], y: u8) {
    probs[y as usize] -= 1.0;
}

/// Index of the maximum element (argmax prediction). Ties resolve to the
/// first maximum, which keeps predictions deterministic.
#[inline]
pub fn argmax(xs: &[f32]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty vector");
    let mut best = 0usize;
    let mut best_v = xs[0];
    for (i, v) in xs.iter().enumerate().skip(1) {
        if *v > best_v {
            best_v = *v;
            best = i;
        }
    }
    best
}

/// How close an earlier logit may come to the maximum before
/// [`predict`] computes the softmax: far more than the few ulps within
/// which two probabilities can round to the same value. A logit exactly
/// this far below the maximum is near.
pub const NEAR_TIE: f32 = 1e-5;

/// The class `argmax(softmax(logits))` names, mostly without the
/// softmax: `logits` may be left as they are or turned into the
/// probabilities.
///
/// [`softmax_in_place`] maps the first maximum `m` of finite logits to
/// `exp(0) / sum = 1 / sum` and every other logit to `exp(≤ 0) / sum`,
/// which is no larger: `exp` of a non-positive argument is at most 1
/// and dividing by the one positive `sum` is monotone. So `m` is a
/// maximum of the probabilities, and [`argmax`] — first maximum wins —
/// names another class only if an *earlier* logit's probability rounds
/// to the very same value, which takes a logit within a few ulps of
/// the maximum. Only then, or when a logit is not finite (the softmax
/// of `NaN` / `±∞` has rules of its own), are the probabilities
/// computed and asked.
pub fn predict(logits: &mut [f32]) -> usize {
    assert!(!logits.is_empty(), "prediction from an empty vector");
    // Three short loops without a data-dependent branch: the class is
    // as good as random to a branch predictor.
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let finite = logits.iter().fold(true, |ok, l| ok & l.is_finite());
    // The first logit within the guard of the maximum: the first
    // maximum itself unless an earlier logit comes that close.
    let mut near = 0;
    for (i, l) in logits.iter().enumerate().rev() {
        if max - *l <= NEAR_TIE {
            near = i;
        }
    }
    if finite && logits[near] == max {
        return near;
    }
    softmax_in_place(logits);
    argmax(logits)
}

/// `u`, the unit roundoff of `f32`: a correctly rounded `f32` operation
/// errs by at most `u` of its result, or by half a subnormal.
const U: f64 = f32::EPSILON as f64 / 2.0;

/// The smallest positive `f32`, `2⁻¹⁴⁹`.
const SUBNORMAL: f64 = f32::from_bits(1) as f64;

/// Past this `max|â| + max|b| + E` the certificate decides nothing:
/// below it the exact path's `f64 → f32` conversion and bias add cannot
/// overflow (DESIGN.md §15, "A ballot is decided in f32").
const LIMIT: f64 = (f32::MAX / 4.0) as f64;

/// The constants of [`decide`]'s error bound for inputs of `n`
/// coordinates, from `n` and IEEE-754 alone.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Certificate {
    /// `γ₂ₙ = 2nu / (1 − 2nu)`, `∞` once `2nu ≥ 1`: the two dot chains
    /// (`γₙ` in `f32`, fused or not, and `γₙ` at `f64`'s unit roundoff)
    /// and the norm estimates, with room to spare.
    gamma: f64,
    /// `(n + 2) · 2⁻¹⁴⁹`: the `f32` chain's underflow (half a subnormal
    /// a step, `n` steps) and the exact path's conversion.
    tiny: f64,
}

impl Certificate {
    pub(crate) fn new(n: usize) -> Self {
        let nu = 2.0 * n as f64 * U;
        Self {
            gamma: if nu < 1.0 {
                nu / (1.0 - nu)
            } else {
                f64::INFINITY
            },
            tiny: (n as f64 + 2.0) * SUBNORMAL,
        }
    }
}

/// What a block's approximate logits decide for one proposal.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Decided {
    /// Hits among the decided samples.
    pub hits: usize,
    /// Bit `s` is set when sample `s` is not decided.
    pub undecided: u32,
    /// The class a decided sample is predicted as.
    pub class: [u32; BLOCK],
}

/// One proposal's [`predict`] over a block of samples, from the
/// approximate dot products of [`hfl_tensor::ops::forward_approx`]
/// (`dots`: one row of `ys.len()` samples per class) where a bound says
/// the exact logits cannot name another class: lane-wise over the
/// samples, no branch on the data.
///
/// Per sample, with `â_r = dots_r + b_r` in `f32`: the first maximum
/// `t1` and its class, the runner-up `t2` (`t1` again on a tie), `M =
/// max|â|`, and `E = γ₂ₙ·w_norm·‖x‖ + 4u·(max|b| + M) + tiny`, which
/// bounds `|ℓ_r − â_r|` for the exact logits `ℓ_r = dot(w_r, x) as f32 +
/// b_r` of every row (DESIGN.md §15 has the derivation). The sample is
/// decided when every `â_r` is finite (`f32::max` passes NaN over, so
/// nothing else would notice one), `M + max|b| + E ≤ LIMIT` (which also
/// fails for a non-finite `E` or `‖x‖`), and `(t1 − t2)(1 − 4u) > 2E +
/// NEAR_TIE`. Then the exact logits have one maximum, `t1`'s class, and
/// every other logit lies `ℓ_c − ℓ_r ≥ t1 − t2 − 2E > (2E + NEAR_TIE)/(1
/// − 4u) − 2E ≥ NEAR_TIE·(1 + 4u)` below it, less the few `f64`
/// roundings of this test (parts in 2⁵³). `predict`'s own `f32`
/// subtraction keeps at least `(1 − u)` of that normal difference, so
/// it reads more than `NEAR_TIE·(1 + 3u − 4u²) > NEAR_TIE`: no other
/// logit is near, and [`predict`] names that class without the softmax.
/// (The margin's `(1 − 4u)` is what covers that subtraction; a further
/// factor on `NEAR_TIE` would be redundant.) `w_norm` and `x_norms[s]`
/// are the proposal's largest `‖w_r‖` and `‖x_s‖` within a relative
/// `(n + 2)·2⁻⁵³` ([`norm`]; `γ₂ₙ` is
/// twice what the two chains need, which absorbs that), and the bound's
/// own arithmetic runs in `f64`.
#[inline(always)]
pub(crate) fn decide(
    dots: &[f32],
    bias: &[f32],
    w_norm: f32,
    cert: Certificate,
    x_norms: &[f64; BLOCK],
    ys: &[u8],
) -> Decided {
    let n = ys.len();
    // Lanes are samples; every lane array is cut to the block's length
    // first, so the loops below carry no bounds check.
    let (mut t1, mut t2) = ([f32::NEG_INFINITY; BLOCK], [f32::NEG_INFINITY; BLOCK]);
    let (mut class, mut max_abs, mut finite) = ([0u32; BLOCK], [0.0f32; BLOCK], [1u32; BLOCK]);
    for (r, (row, b)) in dots.chunks_exact(n).zip(bias).enumerate() {
        let lanes = (t1[..n].iter_mut().zip(&mut t2[..n]))
            .zip(class[..n].iter_mut().zip(&mut max_abs[..n]))
            .zip(finite[..n].iter_mut().zip(row));
        for (((t1, t2), (class, max_abs)), (finite, dot)) in lanes {
            let a = *dot + *b;
            let up = a > *t1;
            *t2 = if up { *t1 } else { t2.max(a) };
            *t1 = if up { a } else { *t1 };
            *class = if up { r as u32 } else { *class };
            *max_abs = max_abs.max(a.abs());
            *finite &= u32::from(a.abs() <= f32::MAX);
        }
    }
    let b_max = bias.iter().fold(0.0f32, |m, b| m.max(b.abs())) as f64;
    let (mut hits, mut undecided) = (0, 0);
    let lanes = (t1[..n].iter().zip(&t2[..n]))
        .zip(class[..n].iter().zip(&max_abs[..n]))
        .zip(finite[..n].iter().zip(&x_norms[..n]))
        .zip(ys);
    for (s, ((((t1, t2), (class, m)), (finite, x_norm)), y)) in lanes.enumerate() {
        let m = *m as f64;
        let e = cert.gamma * (w_norm as f64 * x_norm) + 4.0 * U * (b_max + m) + cert.tiny;
        let margin = (*t1 as f64 - *t2 as f64) * (1.0 - 4.0 * U);
        let ok = (*finite == 1) & (m + b_max + e <= LIMIT) & (margin > 2.0 * e + NEAR_TIE as f64);
        hits += usize::from(ok & (*class == u32::from(*y)));
        undecided |= u32::from(!ok) << s;
    }
    Decided {
        hits,
        undecided,
        class,
    }
}

/// `‖x‖`, summed in `f64` over eight partial sums (a square of an `f32`
/// is exact in `f64`; any order of `n` non-negative terms errs by at
/// most `γₙ` at `f64`'s unit roundoff).
#[inline(always)]
pub(crate) fn norm(x: &[f32]) -> f64 {
    let mut acc = [0.0f64; 8];
    let mut chunks = x.chunks_exact(8);
    for chunk in &mut chunks {
        for (a, v) in acc.iter_mut().zip(chunk) {
            *a += *v as f64 * *v as f64;
        }
    }
    for (a, v) in acc.iter_mut().zip(chunks.remainder()) {
        *a += *v as f64 * *v as f64;
    }
    let [a0, a1, a2, a3, a4, a5, a6, a7] = acc;
    (((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let mut l = [1.0, 2.0, 3.0];
        softmax_in_place(&mut l);
        let s: f32 = l.iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
        assert!(l[2] > l[1] && l[1] > l[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = [1.0, 2.0, 3.0];
        let mut b = [101.0, 102.0, 103.0];
        softmax_in_place(&mut a);
        softmax_in_place(&mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_survives_large_logits() {
        let mut l = [1000.0, 0.0];
        softmax_in_place(&mut l);
        assert!(l[0] > 0.999 && l.iter().all(|x| x.is_finite()));
    }

    /// A block's rows read as the retired per-row loop — maximum off,
    /// `exp` as it goes, summed in class order, divided — run on each
    /// row alone, with [`math::exp`] for libm's.
    #[test]
    fn softmax_rows_is_the_per_row_loop() {
        let classes = 10;
        let logits: Vec<f32> = (0..37 * classes)
            .map(|i| ((i * 7_919 % 1_013) as f32 - 506.0) * 0.037 * (1 + i / classes) as f32)
            .chain(
                [f32::NEG_INFINITY, 0.0, f32::NAN, 1.0, f32::INFINITY]
                    .into_iter()
                    .cycle()
                    .take(2 * classes),
            )
            .collect();
        let mut block = logits.clone();
        softmax_rows(&mut block, classes);
        for (got, row) in block
            .chunks_exact(classes)
            .zip(logits.chunks_exact(classes))
        {
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut want = row.to_vec();
            let mut sum = 0.0f32;
            for l in want.iter_mut() {
                *l = math::exp(*l - max);
                sum += *l;
            }
            want.iter_mut().for_each(|l| *l /= sum);
            assert!(
                got.iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits()),
                "{row:?}"
            );
        }
    }

    /// The class-major softmax reads, input by input, what
    /// [`softmax_rows`] does on the same logits laid out row by row:
    /// full-mantissa logits over a wide range, and inputs with NaN, `±∞`
    /// and a row that is all `−∞`, at every block width the models use.
    #[test]
    fn softmax_columns_is_softmax_rows_per_input() {
        for classes in [2usize, 3, 10, 17] {
            for n in [1usize, 2, 7, 8, 9, 31, 32] {
                let rows: Vec<f32> = (0..n * classes)
                    .map(|i| {
                        let (s, c) = (i / classes, i % classes);
                        let mut x = (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                        x ^= x >> 29;
                        let v = f32::from_bits((x >> 40) as u32 & 0x807f_ffff | 127 << 23)
                            * (1 << (x % 7)) as f32;
                        match (s % 5, c) {
                            (3, 1) => f32::NAN,
                            (4, 0) => f32::INFINITY,
                            (4, 2) => f32::NEG_INFINITY,
                            _ if s == 6 => f32::NEG_INFINITY,
                            _ => v,
                        }
                    })
                    .collect();
                let mut want = rows.clone();
                softmax_rows(&mut want, classes);
                let mut got = vec![0.0f32; n * classes];
                for (i, v) in rows.iter().enumerate() {
                    got[(i % classes) * n + i / classes] = *v;
                }
                softmax_columns(&mut got, n);
                for (i, w) in want.iter().enumerate() {
                    let g = got[(i % classes) * n + i / classes];
                    assert!(
                        g.to_bits() == w.to_bits() || g.is_nan() && w.is_nan(),
                        "classes {classes} n {n} input {} class {}: {g} vs {w}",
                        i / classes,
                        i % classes
                    );
                }
            }
        }
    }

    #[test]
    fn cross_entropy_perfect_prediction_is_zero() {
        let ce = cross_entropy(&[0.0, 1.0, 0.0], 1);
        assert!(ce.abs() < 1e-9);
    }

    #[test]
    fn cross_entropy_wrong_prediction_is_large() {
        let ce = cross_entropy(&[1.0, 0.0], 1);
        assert!(ce > 20.0); // -ln(1e-12)
    }

    #[test]
    fn ce_grad_subtracts_onehot() {
        let mut p = [0.2, 0.5, 0.3];
        ce_grad_in_place(&mut p, 1);
        assert!((p[1] - (-0.5)).abs() < 1e-6);
        assert!((p[0] - 0.2).abs() < 1e-6);
    }

    #[test]
    fn predict_names_the_class_of_the_largest_probability() {
        assert_eq!(predict(&mut [0.5, 2.0, -1.0, 2.0]), 1);
        assert_eq!(predict(&mut [-3.0]), 0);
        // Within the guard, and not finite: the softmax decides.
        for logits in [
            [1.0, 1.0 + f32::EPSILON, 0.0],
            [f32::NAN, 1.0, 2.0],
            [0.0, f32::INFINITY, 1.0],
            [f32::NEG_INFINITY, 0.0, 1.0],
        ] {
            let mut probs = logits;
            softmax_in_place(&mut probs);
            assert_eq!(predict(&mut logits.clone()), argmax(&probs), "{logits:?}");
        }
    }

    /// The rule `decide`'s certificate mirrors: an earlier logit exactly
    /// `NEAR_TIE` below the maximum is near, so the softmax is asked (the
    /// logits become probabilities); one ulp further is not, and the
    /// logits are left as they are.
    #[test]
    fn a_logit_exactly_near_tie_below_the_maximum_is_near() {
        assert_eq!(NEAR_TIE - 0.0, NEAR_TIE);
        let mut at = [0.0, NEAR_TIE];
        assert_eq!(predict(&mut at), 1);
        assert!(
            at[0] > 0.49 && at[1] > at[0],
            "the softmax was asked: {at:?}"
        );
        let past = NEAR_TIE.next_up();
        let mut beyond = [0.0, past];
        assert_eq!(predict(&mut beyond), 1);
        assert_eq!(beyond, [0.0, past], "the first maximum was named directly");
        // The same at a maximum where the subtraction rounds.
        let max = 1.0f32;
        let near = (max - NEAR_TIE).next_up();
        let far = (max - NEAR_TIE).next_down();
        assert!(max - near <= NEAR_TIE && max - far > NEAR_TIE);
        let (mut with_near, mut with_far) = ([near, max], [far, max]);
        assert_eq!((predict(&mut with_near), predict(&mut with_far)), (1, 1));
        assert!(with_near[1] < 1.0 && with_far == [far, max]);
    }

    #[test]
    fn argmax_first_tie_wins() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }
}
