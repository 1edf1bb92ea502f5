//! Evaluation metrics: accuracy and backdoor attack success.

use crate::dataset::Dataset;
use crate::model::{BatchScratch, Model};

/// Fraction of test samples the model classifies correctly.
pub fn accuracy(model: &dyn Model, data: &Dataset) -> f64 {
    assert!(!data.is_empty(), "accuracy over empty dataset");
    let hits = model.count_correct(data, 0..data.len(), &mut BatchScratch::default());
    hits as f64 / data.len() as f64
}

/// Accuracy over one contiguous row range per `default_threads()`
/// thread; identical to [`accuracy`] (integer sum, no float reordering).
pub fn accuracy_parallel(model: &dyn Model, data: &Dataset) -> f64 {
    assert!(!data.is_empty(), "accuracy over empty dataset");
    let n = data.len();
    let chunks = hfl_parallel::default_threads().clamp(1, n);
    let hits = hfl_parallel::par_reduce(
        chunks,
        chunks,
        || 0usize,
        |c| {
            let rows = c * n / chunks..(c + 1) * n / chunks;
            model.count_correct(data, rows, &mut BatchScratch::default())
        },
        |a, b| a + b,
    );
    hits as f64 / n as f64
}

/// Backdoor attack-success rate: the fraction of test samples whose true
/// class is *not* `target` that the model classifies as `target` after
/// the trigger pattern (`value` over `[offset, offset+width)`) is
/// stamped into their features. Clean accuracy alone hides backdoors —
/// this is the metric that exposes them.
pub fn backdoor_success_rate(
    model: &dyn Model,
    data: &Dataset,
    offset: usize,
    width: usize,
    value: f32,
    target: u8,
) -> f64 {
    assert!(offset + width <= data.dim(), "trigger exceeds dimension");
    assert!(
        (target as usize) < data.num_classes(),
        "target out of range"
    );
    let mut x = vec![0.0f32; data.dim()];
    let mut scratch = BatchScratch::default();
    let mut attacked = 0usize;
    let mut hits = 0usize;
    for i in 0..data.len() {
        if data.y(i) == target {
            continue; // already the target class: not an attack success
        }
        attacked += 1;
        x.copy_from_slice(data.x(i));
        for v in &mut x[offset..offset + width] {
            *v = value;
        }
        if model.predict(&x, &mut scratch) == target {
            hits += 1;
        }
    }
    if attacked == 0 {
        0.0
    } else {
        hits as f64 / attacked as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearSoftmax;

    /// A model with hand-set weights that classifies by sign of x[0].
    fn sign_model() -> LinearSoftmax {
        let mut m = LinearSoftmax::new(1, 2);
        // class 0 logit = -5x, class 1 logit = +5x  → predicts 1 iff x > 0
        m.set_params(&[-5.0, 5.0, 0.0, 0.0]);
        m
    }

    fn sign_data() -> Dataset {
        let mut d = Dataset::empty(1, 2);
        d.push(&[-1.0], 0);
        d.push(&[-2.0], 0);
        d.push(&[1.0], 1);
        d.push(&[2.0], 0); // deliberately mislabelled
        d
    }

    #[test]
    fn accuracy_counts_hits() {
        let acc = accuracy(&sign_model(), &sign_data());
        assert!((acc - 0.75).abs() < 1e-9);
    }

    #[test]
    fn parallel_accuracy_matches_sequential() {
        let m = sign_model();
        let d = sign_data();
        let parallel = hfl_parallel::with_threads(4, || accuracy_parallel(&m, &d));
        assert_eq!(accuracy(&m, &d), parallel);
    }

    #[test]
    fn backdoor_rate_on_trigger_sensitive_model() {
        // 1-dim model predicting class 1 iff x > 0; trigger sets x = 5.
        let m = sign_model();
        let mut d = Dataset::empty(1, 2);
        d.push(&[-1.0], 0);
        d.push(&[-2.0], 0);
        d.push(&[3.0], 1); // true target class: not counted
        let rate = backdoor_success_rate(&m, &d, 0, 1, 5.0, 1);
        assert_eq!(rate, 1.0); // both class-0 samples flip to 1
                               // A trigger the model maps away from the target never succeeds.
        let rate = backdoor_success_rate(&m, &d, 0, 1, -5.0, 1);
        assert_eq!(rate, 0.0);
    }

    #[test]
    fn backdoor_rate_empty_attack_set_is_zero() {
        let m = sign_model();
        let mut d = Dataset::empty(1, 2);
        d.push(&[1.0], 1); // only target-class samples
        assert_eq!(backdoor_success_rate(&m, &d, 0, 1, 5.0, 1), 0.0);
    }
}
