//! Validation-vote consensus — the paper's top-level mechanism
//! (Appendix D.B, "inspired by Chen et al. [28]"):
//!
//! 1. every top-level node broadcasts its partial aggregated model;
//! 2. every node tests every received model on its private validation
//!    shard and up/down-votes it;
//! 3. "the partial models that receive the fewest number of positive
//!    votes are considered malicious, and are excluded";
//! 4. the surviving models are averaged into the global model.
//!
//! Voting rule: an honest voter upvotes every proposal whose score is
//! within a relative tolerance of the *best* score it measured (so a
//! poisoned proposal is downvoted by every honest voter no matter how
//! many poisoned proposals there are, and identical proposals are all
//! upvoted). A proposal survives when a strict majority of voters upvote
//! it; if nothing survives, the highest-voted proposal is kept — the
//! degenerate all-suspicious case must still decide.
//!
//! Byzantine voters invert their honest votes — the strongest vote
//! manipulation available inside this protocol. With `γ₁ = 25 %` (one
//! adversarial voter among four) a poisoned proposal still fails the
//! majority and an honest one still passes it.

use rand::rngs::StdRng;

use crate::eval::{score_rows, ProposalEvaluator};
use crate::{model_bytes, validate, Consensus, ConsensusOutcome};

/// Which proposals the vote excludes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExcludePolicy {
    /// Exclude every proposal that fails a strict voter majority — the
    /// paper's "fewest positive votes are considered malicious" read with
    /// honest-majority voting (default).
    BelowMajority,
    /// Exclude exactly the `k` lowest-voted proposals (clamped so at
    /// least one survives). Useful for ablations.
    FewestK(usize),
}

/// Validation voting.
#[derive(Clone, Copy, Debug)]
pub struct VoteConsensus {
    policy: ExcludePolicy,
    /// Relative tolerance for upvoting: a proposal is upvoted when its
    /// score ≥ best − `rel_tol`·(best − worst).
    rel_tol: f64,
}

impl VoteConsensus {
    /// Vote with the given exclusion policy and the default tolerance.
    pub fn with_policy(policy: ExcludePolicy) -> Self {
        Self {
            policy,
            rel_tol: 0.2,
        }
    }

    /// The paper's configuration: majority survival.
    pub fn paper_default() -> Self {
        Self::with_policy(ExcludePolicy::BelowMajority)
    }

    /// Fixed-k exclusion (ablation variant).
    pub fn new(exclude: usize) -> Self {
        Self::with_policy(ExcludePolicy::FewestK(exclude))
    }

    /// Computes the vote matrix: `votes[v][p]` is voter `v`'s vote on
    /// proposal `p` (`true` = upvote). Byzantine voters invert their
    /// honest vote.
    pub fn vote_matrix(
        &self,
        proposals: &[&[f32]],
        byzantine: &[bool],
        eval: &dyn ProposalEvaluator,
    ) -> Vec<Vec<bool>> {
        let voters: Vec<usize> = (0..proposals.len()).collect();
        score_rows(&voters, proposals, eval)
            .chunks_exact(proposals.len())
            .enumerate()
            .map(|(v, scores)| {
                let best = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let worst = scores.iter().cloned().fold(f64::INFINITY, f64::min);
                let cut = best - self.rel_tol * (best - worst);
                scores
                    .iter()
                    .map(|s| {
                        let honest_vote = *s >= cut;
                        if byzantine[v] {
                            !honest_vote
                        } else {
                            honest_vote
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

impl Consensus for VoteConsensus {
    fn name(&self) -> &'static str {
        "validation-vote"
    }

    fn decide(
        &self,
        proposals: &[&[f32]],
        byzantine: &[bool],
        eval: &dyn ProposalEvaluator,
        _rng: &mut StdRng,
    ) -> ConsensusOutcome {
        let (n, d) = validate(proposals, byzantine);
        let votes = self.vote_matrix(proposals, byzantine, eval);
        let positives: Vec<usize> = (0..n)
            .map(|p| (0..n).filter(|&v| votes[v][p]).count())
            .collect();

        let mut excluded: Vec<usize> = match self.policy {
            ExcludePolicy::BelowMajority => {
                let majority = n / 2 + 1;
                (0..n).filter(|&p| positives[p] < majority).collect()
            }
            ExcludePolicy::FewestK(k) => {
                let mut order: Vec<usize> = (0..n).collect();
                // fewest positive votes first; ties exclude the higher
                // index for determinism.
                order.sort_by(|&a, &b| positives[a].cmp(&positives[b]).then(b.cmp(&a)));
                order[..k.min(n - 1)].to_vec()
            }
        };
        if excluded.len() == n {
            // Nothing survived: keep the best-voted proposal (highest
            // positives; ties keep the lowest index).
            let keep = (0..n)
                .max_by(|&a, &b| positives[a].cmp(&positives[b]).then(b.cmp(&a)))
                .expect("non-empty proposals");
            excluded.retain(|&p| p != keep);
        }
        excluded.sort_unstable();

        let survivors: Vec<&[f32]> = (0..n)
            .filter(|p| !excluded.contains(p))
            .map(|p| proposals[p])
            .collect();
        let mut decided = vec![0.0f32; d];
        hfl_tensor::ops::mean_of(&survivors, &mut decided);

        // Cost: each node broadcasts its model to the n−1 others, then
        // broadcasts its vote vector (counted at 8 bytes).
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

    /// Three honest proposals near the origin, one poisoned far away.
    /// Voters score by proximity to honest references.
    fn setup() -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let proposals = vec![
            vec![0.0f32, 0.1],
            vec![0.1f32, 0.0],
            vec![0.05f32, 0.05],
            vec![50.0f32, 50.0],
        ];
        let mut own = proposals.clone();
        own[3] = vec![0.0, 0.0]; // poisoned node's *voter* is honest
        (proposals, own)
    }

    fn decide(
        proposals: &[Vec<f32>],
        own: &[Vec<f32>],
        byz: &[bool],
        vote: VoteConsensus,
    ) -> ConsensusOutcome {
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let eval = DistanceEvaluator::new(own);
        let mut rng = StdRng::seed_from_u64(1);
        vote.decide(&refs, byz, &eval, &mut rng)
    }

    #[test]
    fn excludes_the_poisoned_proposal() {
        let (proposals, own) = setup();
        let out = decide(&proposals, &own, &[false; 4], VoteConsensus::paper_default());
        assert_eq!(out.excluded, vec![3]);
        assert!(hfl_tensor::ops::norm(&out.decided) < 1.0);
    }

    #[test]
    fn excludes_two_poisoned_proposals() {
        // The 57.8 %-malicious regime: half the proposals are poisoned
        // but voters (validation data holders) are honest — majority
        // voting must drop both.
        let proposals = vec![
            vec![0.0f32, 0.1],
            vec![50.0f32, 50.0],
            vec![0.05f32, 0.05],
            vec![51.0f32, 49.0],
        ];
        let own = vec![vec![0.0f32, 0.0]; 4];
        let out = decide(&proposals, &own, &[false; 4], VoteConsensus::paper_default());
        assert_eq!(out.excluded, vec![1, 3]);
        assert!(hfl_tensor::ops::norm(&out.decided) < 1.0);
    }

    #[test]
    fn survives_three_of_four_poisoned() {
        // Even with 3 poisoned proposals the single honest one wins.
        let proposals = vec![
            vec![50.0f32, 50.0],
            vec![49.0f32, 51.0],
            vec![0.05f32, 0.05],
            vec![51.0f32, 49.0],
        ];
        let own = vec![vec![0.0f32, 0.0]; 4];
        let out = decide(&proposals, &own, &[false; 4], VoteConsensus::paper_default());
        assert_eq!(out.excluded, vec![0, 1, 3]);
        assert!(hfl_tensor::ops::norm(&out.decided) < 1.0);
    }

    #[test]
    fn byzantine_minority_voter_cannot_flip_outcome() {
        let (proposals, own) = setup();
        let byz = [false, true, false, false]; // γ1 = 25 %
        let out = decide(&proposals, &own, &byz, VoteConsensus::paper_default());
        assert_eq!(out.excluded, vec![3], "poisoned model must still lose");
    }

    #[test]
    fn all_identical_proposals_all_survive() {
        let proposals = vec![vec![1.0f32, 2.0]; 4];
        let own = proposals.clone();
        let out = decide(&proposals, &own, &[false; 4], VoteConsensus::paper_default());
        assert!(out.excluded.is_empty());
        assert_eq!(out.decided, vec![1.0, 2.0]);
    }

    #[test]
    fn fallback_keeps_best_when_nothing_survives() {
        // All-Byzantine voters invert everything; the fallback must still
        // decide deterministically and keep exactly one proposal.
        let (proposals, own) = setup();
        let byz = [true; 4];
        let out = decide(&proposals, &own, &byz, VoteConsensus::paper_default());
        assert_eq!(out.excluded.len(), 3);
    }

    #[test]
    fn fewest_k_policy_is_exact() {
        let (proposals, own) = setup();
        let out = decide(&proposals, &own, &[false; 4], VoteConsensus::new(2));
        assert_eq!(out.excluded.len(), 2);
        assert!(out.excluded.contains(&3), "worst proposal must be excluded");
        // Clamped to keep one survivor.
        let out = decide(&proposals, &own, &[false; 4], VoteConsensus::new(10));
        assert_eq!(out.excluded.len(), 3);
    }

    #[test]
    fn reports_quadratic_message_cost() {
        let (proposals, own) = setup();
        let out = decide(&proposals, &own, &[false; 4], VoteConsensus::paper_default());
        assert_eq!(out.messages, (4 * 3 * 2) as u64);
        assert!(out.bytes > 4 * 3 * 8);
    }
}
