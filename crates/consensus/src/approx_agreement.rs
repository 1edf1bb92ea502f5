//! Multidimensional approximate ε-agreement (Mendes & Herlihy, STOC 2013
//! lineage, in the polynomial trimmed-iteration style of validated
//! Byzantine asynchronous agreement).
//!
//! Nodes repeatedly exchange their current vectors; each honest node
//! replaces its value with the coordinate-wise `trim`-trimmed mean of the
//! received multiset. Byzantine nodes inject extreme values every round.
//! With `n ≥ 3·trim + 1` and per-coordinate trimming, honest values stay
//! inside the honest convex hull per coordinate and the honest diameter
//! contracts geometrically, so the protocol reaches any `ε > 0` in
//! O(log(diam/ε)) rounds.

use rand::rngs::StdRng;

use crate::eval::ProposalEvaluator;
use crate::{model_bytes, validate, Consensus, ConsensusOutcome};

/// Iterated trimmed-mean approximate agreement.
#[derive(Clone, Copy, Debug)]
pub struct ApproxAgreement {
    epsilon: f64,
    trim: usize,
    /// Safety cap on rounds (the contraction argument bounds the true
    /// round count well below this).
    pub max_rounds: usize,
}

impl ApproxAgreement {
    /// Agreement to honest-diameter `epsilon`, trimming `trim` extreme
    /// values per side of every coordinate each round.
    ///
    /// # Panics
    /// If `epsilon <= 0`.
    pub fn new(epsilon: f64, trim: usize) -> Self {
        assert!(epsilon > 0.0, "epsilon must be positive");
        Self {
            epsilon,
            trim,
            max_rounds: 64,
        }
    }

    /// Max coordinate-wise spread among the honest nodes' values.
    fn honest_diameter(values: &[Vec<f32>], byzantine: &[bool]) -> f64 {
        let honest: Vec<&Vec<f32>> = values
            .iter()
            .zip(byzantine)
            .filter(|(_, b)| !**b)
            .map(|(v, _)| v)
            .collect();
        if honest.len() < 2 {
            return 0.0;
        }
        let d = honest[0].len();
        let mut max_spread = 0.0f64;
        for j in 0..d {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for h in &honest {
                lo = lo.min(h[j] as f64);
                hi = hi.max(h[j] as f64);
            }
            max_spread = max_spread.max(hi - lo);
        }
        max_spread
    }
}

impl Consensus for ApproxAgreement {
    fn name(&self) -> &'static str {
        "approx-agreement"
    }

    fn decide(
        &self,
        proposals: &[&[f32]],
        byzantine: &[bool],
        _eval: &dyn ProposalEvaluator,
        rng: &mut StdRng,
    ) -> ConsensusOutcome {
        let (n, d) = validate(proposals, byzantine);
        let honest_count = byzantine.iter().filter(|b| !**b).count();
        assert!(honest_count > 0, "no honest nodes");
        let trim = self.trim.min((n - 1) / 2);
        assert!(
            n > 3 * trim || byzantine.iter().all(|b| !b),
            "approximate agreement needs n > 3·trim with Byzantine nodes (n={n}, trim={trim})"
        );

        let mut values: Vec<Vec<f32>> = proposals.iter().map(|p| p.to_vec()).collect();
        let mut messages = 0u64;
        let mut bytes = 0u64;
        let mut rounds = 0usize;
        while Self::honest_diameter(&values, byzantine) > self.epsilon && rounds < self.max_rounds {
            rounds += 1;
            // Byzantine nodes broadcast adversarial extremes this round.
            let mut sent: Vec<Vec<f32>> = values.clone();
            for (i, b) in byzantine.iter().enumerate() {
                if *b {
                    // Alternate huge positive / negative values to maximize
                    // the chance of dragging trimmed statistics.
                    let sign = if rand::Rng::gen_bool(rng, 0.5) {
                        1.0
                    } else {
                        -1.0
                    };
                    sent[i] = vec![sign * 1e9; d];
                }
            }
            // All-to-all exchange.
            messages += (n * (n - 1)) as u64;
            bytes += (n * (n - 1)) as u64 * model_bytes(d);
            // Honest update: trimmed mean of all received values.
            let refs: Vec<&[f32]> = sent.iter().map(|v| v.as_slice()).collect();
            let mut next = values.clone();
            for (i, b) in byzantine.iter().enumerate() {
                if !*b {
                    hfl_tensor::stats::coordinate_trimmed_mean(&refs, trim, &mut next[i]);
                }
            }
            values = next;
        }
        assert!(
            Self::honest_diameter(&values, byzantine) <= self.epsilon,
            "agreement failed to contract within {} rounds",
            self.max_rounds
        );

        // Decided value: mean of honest final values (all within ε).
        let honest: Vec<&[f32]> = values
            .iter()
            .zip(byzantine)
            .filter(|(_, b)| !**b)
            .map(|(v, _)| v.as_slice())
            .collect();
        let mut decided = vec![0.0f32; d];
        hfl_tensor::ops::mean_of(&honest, &mut decided);
        ConsensusOutcome {
            decided,
            excluded: Vec::new(),
            rounds,
            messages,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::DistanceEvaluator;
    use rand::SeedableRng;

    fn run(proposals: &[Vec<f32>], byz: &[bool], epsilon: f64, trim: usize) -> ConsensusOutcome {
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let eval = DistanceEvaluator::new(proposals);
        let mut rng = StdRng::seed_from_u64(2);
        ApproxAgreement::new(epsilon, trim).decide(&refs, byz, &eval, &mut rng)
    }

    #[test]
    fn all_honest_converges_to_hull() {
        let proposals = vec![
            vec![0.0f32, 0.0],
            vec![1.0f32, 2.0],
            vec![2.0f32, 4.0],
            vec![3.0f32, 6.0],
        ];
        let out = run(&proposals, &[false; 4], 1e-3, 0);
        assert!(out.rounds > 0);
        // decided value inside the hull
        assert!(out.decided[0] >= 0.0 && out.decided[0] <= 3.0);
        assert!(out.decided[1] >= 0.0 && out.decided[1] <= 6.0);
    }

    #[test]
    fn byzantine_extremes_are_trimmed() {
        let proposals = vec![
            vec![1.0f32],
            vec![1.2f32],
            vec![0.8f32],
            vec![1.1f32],
            vec![0.9f32],
            vec![1.0f32],
            vec![5.0f32], // Byzantine (its proposal also garbage)
        ];
        let byz = [false, false, false, false, false, false, true];
        let out = run(&proposals, &byz, 1e-3, 2);
        assert!(
            (out.decided[0] - 1.0).abs() < 0.8,
            "decided {} dragged by adversary",
            out.decided[0]
        );
    }

    #[test]
    fn already_agreed_needs_zero_rounds() {
        let proposals = vec![vec![2.0f32], vec![2.0f32], vec![2.0f32], vec![2.0f32]];
        let out = run(&proposals, &[false; 4], 1e-3, 1);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.messages, 0);
        assert_eq!(out.decided, vec![2.0]);
    }

    #[test]
    fn rounds_grow_with_precision() {
        let proposals = vec![vec![0.0f32], vec![10.0f32], vec![5.0f32], vec![2.0f32]];
        let coarse = run(&proposals, &[false; 4], 1.0, 0);
        let fine = run(&proposals, &[false; 4], 1e-6, 0);
        assert!(fine.rounds >= coarse.rounds);
    }

    #[test]
    #[should_panic(expected = "n > 3·trim")]
    fn too_much_trim_with_byzantine_panics() {
        let proposals = vec![vec![0.0f32], vec![1.0f32], vec![2.0f32]];
        let byz = [false, false, true];
        run(&proposals, &byz, 1e-3, 1);
    }
}
