//! PBFT-style three-phase agreement, simulated at the message-count level.
//!
//! The primary proposes an aggregate of the collected partial models
//! (coordinate-wise median — a robust proposal the replicas can verify);
//! replicas validate the proposal against their own local view and run
//! prepare/commit phases. A Byzantine primary proposes a corrupted value,
//! honest replicas reject it, and a view change rotates the primary —
//! faithfully reproducing PBFT's cost structure (O(n²) per phase, f <
//! n/3) without simulating cryptography.

use rand::rngs::StdRng;

use crate::eval::ProposalEvaluator;
use crate::{model_bytes, validate, Consensus, ConsensusOutcome};

/// PBFT-style consensus on the coordinate-median of proposals.
#[derive(Clone, Copy, Debug)]
pub struct PbftConsensus {
    /// Validation slack: a replica accepts a proposal whose distance to
    /// the coordinate-median of its received set is within `slack` times
    /// the honest proposal spread.
    pub slack: f64,
}

impl Default for PbftConsensus {
    fn default() -> Self {
        Self { slack: 2.0 }
    }
}

impl PbftConsensus {
    /// Maximum Byzantine nodes PBFT tolerates among `n`.
    pub fn max_faulty(n: usize) -> usize {
        n.saturating_sub(1) / 3
    }

    /// The honest reference value: coordinate-median of all proposals.
    fn reference(proposals: &[&[f32]], d: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; d];
        hfl_tensor::stats::coordinate_median(proposals, &mut out);
        out
    }
}

impl Consensus for PbftConsensus {
    fn name(&self) -> &'static str {
        "pbft"
    }

    fn decide(
        &self,
        proposals: &[&[f32]],
        byzantine: &[bool],
        _eval: &dyn ProposalEvaluator,
        _rng: &mut StdRng,
    ) -> ConsensusOutcome {
        let (n, d) = validate(proposals, byzantine);
        let f = Self::max_faulty(n);
        let quorum = 2 * f + 1;
        let honest_count = byzantine.iter().filter(|b| !**b).count();
        assert!(
            honest_count >= quorum.min(n),
            "PBFT cannot reach quorum: {honest_count} honest of {n} (needs {quorum})"
        );

        let reference = Self::reference(proposals, d);
        // Honest proposal spread, for the acceptance predicate.
        let spread = proposals
            .iter()
            .zip(byzantine)
            .filter(|(_, b)| !**b)
            .map(|(p, _)| hfl_tensor::ops::dist(p, &reference))
            .fold(0.0f64, f64::max)
            .max(1e-9);

        let mut messages = 0u64;
        let mut bytes = 0u64;
        let mut rounds = 0usize;
        let mut view = 0usize;
        loop {
            rounds += 1;
            let primary = view % n;
            // Pre-prepare: primary broadcasts its proposal of the agreed
            // value. A Byzantine primary proposes its own (poisoned)
            // vector instead of the median.
            let proposal: Vec<f32> = if byzantine[primary] {
                proposals[primary].to_vec()
            } else {
                reference.clone()
            };
            messages += (n - 1) as u64;
            bytes += (n - 1) as u64 * model_bytes(d);

            // Prepare + commit: all-to-all digests.
            messages += 2 * (n * (n - 1)) as u64;
            bytes += 2 * (n * (n - 1)) as u64 * 8;

            // Honest replicas accept iff the proposal sits within the
            // validation envelope around the robust reference (a proposal
            // indistinguishable from honest is accepted — correct PBFT
            // behaviour: safety comes from the validation predicate).
            let in_envelope = hfl_tensor::ops::dist(&proposal, &reference) <= self.slack * spread;
            let accepts = if in_envelope { honest_count } else { 0 };
            if accepts >= quorum.min(honest_count) {
                return ConsensusOutcome {
                    decided: proposal,
                    excluded: Vec::new(),
                    rounds,
                    messages,
                    bytes,
                };
            }
            // View change: all-to-all view-change messages, rotate primary.
            messages += (n * (n - 1)) as u64;
            bytes += (n * (n - 1)) as u64 * 8;
            view += 1;
            assert!(
                view <= n,
                "no honest primary found after {n} view changes (impossible under f < n/3)"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::DistanceEvaluator;
    use rand::SeedableRng;

    fn proposals_with_one_bad() -> Vec<Vec<f32>> {
        vec![
            vec![1.0f32, 1.0],
            vec![1.1f32, 0.9],
            vec![0.9f32, 1.1],
            vec![99.0f32, -99.0],
        ]
    }

    #[test]
    fn honest_primary_decides_in_one_round() {
        let proposals = proposals_with_one_bad();
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let byz = [false, false, false, true];
        let eval = DistanceEvaluator::new(&proposals);
        let mut rng = StdRng::seed_from_u64(1);
        let out = PbftConsensus::default().decide(&refs, &byz, &eval, &mut rng);
        assert_eq!(out.rounds, 1);
        // decided = coordinate median, inside honest hull
        assert!(hfl_tensor::ops::dist(&out.decided, &[1.0, 1.0]) < 0.5);
    }

    #[test]
    fn byzantine_primary_triggers_view_change() {
        let proposals = proposals_with_one_bad();
        // rotate so the Byzantine node is the first primary
        let rotated = vec![
            proposals[3].clone(),
            proposals[0].clone(),
            proposals[1].clone(),
            proposals[2].clone(),
        ];
        let refs: Vec<&[f32]> = rotated.iter().map(|p| p.as_slice()).collect();
        let byz = [true, false, false, false];
        let eval = DistanceEvaluator::new(&rotated);
        let mut rng = StdRng::seed_from_u64(1);
        let out = PbftConsensus::default().decide(&refs, &byz, &eval, &mut rng);
        assert!(out.rounds >= 2, "expected a view change");
        assert!(hfl_tensor::ops::dist(&out.decided, &[1.0, 1.0]) < 0.5);
    }

    #[test]
    fn max_faulty_formula() {
        assert_eq!(PbftConsensus::max_faulty(4), 1);
        assert_eq!(PbftConsensus::max_faulty(7), 2);
        assert_eq!(PbftConsensus::max_faulty(1), 0);
    }

    #[test]
    fn message_cost_is_quadratic() {
        let n = 7usize;
        let proposals: Vec<Vec<f32>> = (0..n).map(|i| vec![i as f32 * 0.01]).collect();
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let byz = vec![false; n];
        let eval = DistanceEvaluator::new(&proposals);
        let mut rng = StdRng::seed_from_u64(1);
        let out = PbftConsensus::default().decide(&refs, &byz, &eval, &mut rng);
        assert_eq!(out.messages, (n - 1 + 2 * n * (n - 1)) as u64);
    }

    #[test]
    #[should_panic(expected = "cannot reach quorum")]
    fn too_many_byzantine_panics() {
        let proposals: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32]).collect();
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let byz = [true, true, false, false];
        let eval = DistanceEvaluator::new(&proposals);
        let mut rng = StdRng::seed_from_u64(1);
        PbftConsensus::default().decide(&refs, &byz, &eval, &mut rng);
    }
}
