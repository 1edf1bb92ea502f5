//! Softmax and cross-entropy primitives shared by the models.

/// Numerically-stable in-place softmax: `logits` becomes a probability
/// vector.
pub fn softmax_in_place(logits: &mut [f32]) {
    assert!(!logits.is_empty(), "softmax of empty vector");
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for l in logits.iter_mut() {
        *l = (*l - max).exp();
        sum += *l;
    }
    // sum >= 1 because one exponent is exp(0) = 1.
    for l in logits.iter_mut() {
        *l /= sum;
    }
}

/// Cross-entropy loss of a probability vector against an integer label.
/// Probabilities are clamped away from zero to avoid infinities.
#[inline]
pub fn cross_entropy(probs: &[f32], y: u8) -> f64 {
    let p = probs[y as usize].max(1e-12);
    -(p as f64).ln()
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
/// which two probabilities can round to the same value.
const NEAR_TIE: f32 = 1e-5;

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

    #[test]
    fn argmax_first_tie_wins() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }
}
