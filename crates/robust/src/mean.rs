//! FedAvg: (weighted) linear averaging — the non-robust baseline.
//!
//! Blanchard et al. proved linear aggregation cannot tolerate even one
//! Byzantine worker; it is included as the vanilla-FL baseline and as the
//! final combining step inside Multi-Krum / clustering.

use crate::validate_updates;

/// Plain or dataset-size-weighted averaging into `out`.
pub(crate) fn fedavg(updates: &[&[f32]], weights: Option<&[f32]>, out: &mut Vec<f32>) {
    let d = validate_updates(updates);
    out.clear();
    out.resize(d, 0.0);
    match weights {
        Some(w) => hfl_tensor::ops::weighted_mean_of(updates, w, out),
        None => hfl_tensor::ops::mean_of(updates, out),
    }
}

#[cfg(test)]
mod tests {
    use crate::{Aggregator, AggregatorKind::FedAvg};

    #[test]
    fn unweighted_mean() {
        let a = [0.0f32, 0.0];
        let b = [2.0f32, 4.0];
        let out = FedAvg.aggregate(&[&a, &b], None);
        assert_eq!(out, vec![1.0, 2.0]);
    }

    #[test]
    fn weighted_mean() {
        let a = [0.0f32];
        let b = [8.0f32];
        let out = FedAvg.aggregate(&[&a, &b], Some(&[3.0, 1.0]));
        assert_eq!(out, vec![2.0]);
    }

    #[test]
    fn single_adversary_breaks_mean() {
        // Documents *why* FedAvg is the non-robust baseline.
        let honest = [1.0f32];
        let attacker = [1e9f32];
        let out = FedAvg.aggregate(&[&honest, &honest, &honest, &attacker], None);
        assert!(out[0] > 1e8);
    }

    #[test]
    #[should_panic(expected = "zero updates")]
    fn empty_panics() {
        FedAvg.aggregate(&[], None);
    }
}
