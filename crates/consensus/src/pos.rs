//! Stake-weighted validation voting — the PoS-inspired consensus family
//! of Table II (Chen et al.'s robust blockchained FL votes with
//! stake-proportional weight; here stake generalizes the uniform vote of
//! [`crate::vote`]).
//!
//! Identical voting rule to [`crate::VoteConsensus`] (upvote proposals
//! within a relative tolerance of the voter's best score; Byzantine
//! voters invert), but each voter's vote carries its stake, and a
//! proposal survives only with a strict majority of *total stake*.

use rand::rngs::StdRng;

use crate::eval::{score_rows, ProposalEvaluator};
use crate::{model_bytes, validate, Consensus, ConsensusOutcome};

/// Stake-weighted majority voting.
#[derive(Clone, Debug)]
pub struct StakeVote {
    stakes: Vec<f64>,
    rel_tol: f64,
}

impl StakeVote {
    /// Voting with explicit per-node stakes (any non-negative weights,
    /// not all zero).
    ///
    /// # Panics
    /// If stakes are empty, negative, or sum to zero.
    pub fn new(stakes: Vec<f64>) -> Self {
        assert!(!stakes.is_empty(), "need at least one stake");
        assert!(
            stakes.iter().all(|s| *s >= 0.0),
            "stakes must be non-negative"
        );
        assert!(
            stakes.iter().sum::<f64>() > 0.0,
            "total stake must be positive"
        );
        Self {
            stakes,
            rel_tol: 0.2,
        }
    }

    /// Uniform stakes — degenerates to plain majority voting.
    pub fn uniform(n: usize) -> Self {
        Self::new(vec![1.0; n])
    }

    /// The stake vector.
    pub fn stakes(&self) -> &[f64] {
        &self.stakes
    }
}

impl Consensus for StakeVote {
    fn name(&self) -> &'static str {
        "stake-vote"
    }

    fn decide(
        &self,
        proposals: &[&[f32]],
        byzantine: &[bool],
        eval: &dyn ProposalEvaluator,
        _rng: &mut StdRng,
    ) -> ConsensusOutcome {
        let (n, d) = validate(proposals, byzantine);
        assert_eq!(
            self.stakes.len(),
            n,
            "stake vector length must match node count"
        );
        let total: f64 = self.stakes.iter().sum();

        // Stake-weighted positive vote mass per proposal.
        let mut mass = vec![0.0f64; n];
        let voters: Vec<usize> = (0..n).collect();
        let rows = score_rows(&voters, proposals, eval);
        for ((v, &bad), scores) in byzantine.iter().enumerate().zip(rows.chunks_exact(n)) {
            let best = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let worst = scores.iter().cloned().fold(f64::INFINITY, f64::min);
            let cut = best - self.rel_tol * (best - worst);
            for (p, s) in scores.iter().enumerate() {
                let up = if bad { *s < cut } else { *s >= cut };
                if up {
                    mass[p] += self.stakes[v];
                }
            }
        }

        let mut excluded: Vec<usize> = (0..n).filter(|&p| mass[p] * 2.0 <= total).collect();
        if excluded.len() == n {
            let keep = (0..n)
                .max_by(|&a, &b| {
                    mass[a]
                        .partial_cmp(&mass[b])
                        .expect("NaN vote mass")
                        .then(b.cmp(&a))
                })
                .expect("non-empty proposals");
            excluded.retain(|&p| p != keep);
        }

        let survivors: Vec<&[f32]> = (0..n)
            .filter(|p| !excluded.contains(p))
            .map(|p| proposals[p])
            .collect();
        let mut decided = vec![0.0f32; d];
        hfl_tensor::ops::mean_of(&survivors, &mut decided);

        let messages = (n * (n - 1) * 2) as u64;
        let bytes = (n * (n - 1)) as u64 * model_bytes(d) + (n * (n - 1)) as u64 * 8;
        ConsensusOutcome {
            decided,
            excluded,
            rounds: 2,
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

    fn decide(stakes: Vec<f64>, byz: &[bool]) -> ConsensusOutcome {
        // proposals: 3 honest near origin, 1 poisoned far away.
        let proposals = vec![
            vec![0.0f32, 0.1],
            vec![0.1f32, 0.0],
            vec![0.05f32, 0.05],
            vec![50.0f32, 50.0],
        ];
        let mut own = proposals.clone();
        own[3] = vec![0.0, 0.0];
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let eval = DistanceEvaluator::new(&own);
        let mut rng = StdRng::seed_from_u64(1);
        StakeVote::new(stakes).decide(&refs, byz, &eval, &mut rng)
    }

    #[test]
    fn uniform_stakes_match_majority_vote() {
        let out = decide(vec![1.0; 4], &[false; 4]);
        assert_eq!(out.excluded, vec![3]);
    }

    #[test]
    fn high_stake_honest_voter_dominates() {
        // One honest whale (stake 10) plus three Byzantine voters: the
        // whale's upvotes carry a strict majority of the stake.
        let out = decide(vec![10.0, 1.0, 1.0, 1.0], &[false, true, true, true]);
        assert_eq!(
            out.excluded,
            vec![3],
            "whale should protect honest proposals"
        );
    }

    #[test]
    fn byzantine_whale_forces_fallback_or_damage() {
        // A Byzantine whale inverts votes with majority stake: everything
        // honest fails the majority — the mechanism degrades (documented
        // PoS failure mode when stake concentrates adversarially).
        let out = decide(vec![10.0, 1.0, 1.0, 1.0], &[true, false, false, false]);
        // The poisoned proposal survives the whale's upvote.
        assert!(!out.excluded.contains(&3));
    }

    #[test]
    fn zero_stake_voter_is_ignored() {
        let a = decide(vec![1.0, 1.0, 1.0, 0.0], &[false, false, false, true]);
        let b = decide(vec![1.0, 1.0, 1.0, 0.0], &[false; 4]);
        assert_eq!(
            a.excluded, b.excluded,
            "zero-stake Byzantine flip changed outcome"
        );
    }

    #[test]
    #[should_panic(expected = "stake vector length")]
    fn wrong_stake_length_panics() {
        decide(vec![1.0; 3], &[false; 4]);
    }

    #[test]
    #[should_panic(expected = "total stake")]
    fn all_zero_stakes_rejected() {
        StakeVote::new(vec![0.0; 4]);
    }
}
