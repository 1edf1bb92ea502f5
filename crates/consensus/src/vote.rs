//! Validation-vote consensus — the paper's top-level mechanism
//! (Appendix D.B, "inspired by Chen et al. \[28\]"):
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
//!
//! Stake weighting is Table II's PoS-inspired row (Chen et al.'s robust
//! blockchained FL votes with stake-proportional weight): each voter's
//! up-votes add its stake instead of 1 to a proposal's vote mass, and a
//! proposal survives with a strict majority of the *total stake*. At
//! unit stakes the staked vote decides exactly what the plain one does.

use crate::eval::{score_rows, ProposalEvaluator};
use crate::{model_bytes, survivor_mean, validate, ConsensusOutcome};

/// Relative tolerance for upvoting: a proposal is upvoted when its
/// score ≥ best − `REL_TOL`·(best − worst).
const REL_TOL: f64 = 0.2;

/// The one tally of every validation vote. `fewest: None` excludes every
/// proposal that fails a strict majority of the vote mass — the paper's
/// "fewest positive votes are considered malicious" read with
/// honest-majority voting; `Some(k)` excludes exactly the `k`
/// lowest-voted proposals (clamped so at least one survives), the
/// ablation. `stakes` weighs voter `v`'s up-votes `stakes[v]`; `None`
/// weighs every voter 1.
pub(crate) fn vote(
    proposals: &[&[f32]],
    byzantine: &[bool],
    eval: &dyn ProposalEvaluator,
    fewest: Option<usize>,
    stakes: Option<&[f64]>,
) -> ConsensusOutcome {
    let (n, d) = validate(proposals, byzantine);
    let total = stakes.map_or(n as f64, |s| s.iter().sum());

    // The tally: each voter adds its stake to every proposal it
    // upvotes. A Byzantine voter inverts its honest vote, so where
    // a NaN score or cut fails `>=` it upvotes.
    let voters: Vec<usize> = (0..n).collect();
    let mut mass = vec![0.0f64; n];
    let scores = score_rows(&voters, proposals, eval);
    for (v, row) in scores.chunks_exact(n).enumerate() {
        let stake = stakes.map_or(1.0, |s| s[v]);
        let best = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let worst = row.iter().copied().fold(f64::INFINITY, f64::min);
        let cut = best - REL_TOL * (best - worst);
        for (m, s) in mass.iter_mut().zip(row) {
            if (*s >= cut) != byzantine[v] {
                *m += stake;
            }
        }
    }

    // Fewest votes first; ties rank the higher index lower.
    let by_mass = |a: &usize, b: &usize| mass[*a].total_cmp(&mass[*b]).then(b.cmp(a));
    let mut excluded: Vec<usize> = match fewest {
        None => (0..n).filter(|&p| mass[p] * 2.0 <= total).collect(),
        Some(k) => {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(by_mass);
            order.truncate(k.min(n - 1));
            order
        }
    };
    if excluded.len() == n {
        // Nothing survived: keep the best-voted proposal (ties keep
        // the lowest index).
        let keep = (0..n).max_by(by_mass).expect("non-empty proposals");
        excluded.retain(|&p| p != keep);
    }
    excluded.sort_unstable();

    // Cost: each node broadcasts its model to the n−1 others, then
    // broadcasts its vote vector (counted at 8 bytes).
    let messages = (n * (n - 1) * 2) as u64;
    let bytes = (n * (n - 1)) as u64 * model_bytes(d) + (n * (n - 1)) as u64 * 8;
    ConsensusOutcome {
        decided: survivor_mean(proposals, &excluded),
        excluded,
        rounds: 2,
        messages,
        bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::DistanceEvaluator;
    use crate::ConsensusKind;
    use rand::rngs::StdRng;
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
        vote: ConsensusKind,
    ) -> ConsensusOutcome {
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let eval = DistanceEvaluator::new(own);
        let mut rng = StdRng::seed_from_u64(1);
        vote.decide(&refs, byz, &eval, &mut rng)
    }

    #[test]
    fn excludes_the_poisoned_proposal() {
        let (proposals, own) = setup();
        let out = decide(&proposals, &own, &[false; 4], ConsensusKind::VoteMajority);
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
        let out = decide(&proposals, &own, &[false; 4], ConsensusKind::VoteMajority);
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
        let out = decide(&proposals, &own, &[false; 4], ConsensusKind::VoteMajority);
        assert_eq!(out.excluded, vec![0, 1, 3]);
        assert!(hfl_tensor::ops::norm(&out.decided) < 1.0);
    }

    #[test]
    fn byzantine_minority_voter_cannot_flip_outcome() {
        let (proposals, own) = setup();
        let byz = [false, true, false, false]; // γ1 = 25 %
        let out = decide(&proposals, &own, &byz, ConsensusKind::VoteMajority);
        assert_eq!(out.excluded, vec![3], "poisoned model must still lose");
    }

    #[test]
    fn all_identical_proposals_all_survive() {
        let proposals = vec![vec![1.0f32, 2.0]; 4];
        let own = proposals.clone();
        let out = decide(&proposals, &own, &[false; 4], ConsensusKind::VoteMajority);
        assert!(out.excluded.is_empty());
        assert_eq!(out.decided, vec![1.0, 2.0]);
    }

    #[test]
    fn fallback_keeps_best_when_nothing_survives() {
        // All-Byzantine voters invert everything; the fallback must still
        // decide deterministically and keep exactly one proposal.
        let (proposals, own) = setup();
        let byz = [true; 4];
        let out = decide(&proposals, &own, &byz, ConsensusKind::VoteMajority);
        assert_eq!(out.excluded.len(), 3);
    }

    #[test]
    fn fewest_k_policy_is_exact() {
        let (proposals, own) = setup();
        let out = decide(
            &proposals,
            &own,
            &[false; 4],
            ConsensusKind::Vote { exclude: 2 },
        );
        assert_eq!(out.excluded.len(), 2);
        assert!(out.excluded.contains(&3), "worst proposal must be excluded");
        // Clamped to keep one survivor.
        let out = decide(
            &proposals,
            &own,
            &[false; 4],
            ConsensusKind::Vote { exclude: 10 },
        );
        assert_eq!(out.excluded.len(), 3);
    }

    #[test]
    fn reports_quadratic_message_cost() {
        let (proposals, own) = setup();
        let out = decide(&proposals, &own, &[false; 4], ConsensusKind::VoteMajority);
        assert_eq!(out.messages, (4 * 3 * 2) as u64);
        assert!(out.bytes > 4 * 3 * 8);
    }

    fn staked(stakes: Vec<f64>, byz: &[bool]) -> ConsensusOutcome {
        let (proposals, own) = setup();
        decide(&proposals, &own, byz, ConsensusKind::StakeVote { stakes })
    }

    #[test]
    fn high_stake_honest_voter_dominates() {
        // One honest whale (stake 10) plus three Byzantine voters: the
        // whale's upvotes carry a strict majority of the stake.
        let out = staked(vec![10.0, 1.0, 1.0, 1.0], &[false, true, true, true]);
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
        let out = staked(vec![10.0, 1.0, 1.0, 1.0], &[true, false, false, false]);
        // The poisoned proposal survives the whale's upvote.
        assert!(!out.excluded.contains(&3));
    }

    #[test]
    fn zero_stake_voter_is_ignored() {
        let a = staked(vec![1.0, 1.0, 1.0, 0.0], &[false, false, false, true]);
        let b = staked(vec![1.0, 1.0, 1.0, 0.0], &[false; 4]);
        assert_eq!(
            a.excluded, b.excluded,
            "zero-stake Byzantine flip changed outcome"
        );
    }

    /// The one rule for what a comparison cannot decide: an honest voter
    /// upvotes only where `score >= cut` holds, and a Byzantine voter
    /// inverts that, so it upvotes a NaN score — and, when its own
    /// reference is NaN and so is its cut, every proposal.
    #[test]
    fn a_byzantine_voter_inverts_a_nan_score_and_a_nan_cut() {
        let (mut proposals, mut own) = setup();
        own[1] = vec![f32::NAN, f32::NAN];
        let byz = [false, true, false, false];
        let whale = || ConsensusKind::StakeVote {
            stakes: vec![1.0, 10.0, 1.0, 1.0],
        };
        // Voter 1's cut is NaN: it upvotes all four, and with stake 10
        // of 13 carries the poisoned proposal past the majority.
        let out = decide(&proposals, &own, &byz, whale());
        assert!(out.excluded.is_empty(), "{:?}", out.excluded);
        // Unstaked, its one upvote leaves the poisoned proposal at 1 of 4.
        let out = decide(&proposals, &own, &byz, ConsensusKind::VoteMajority);
        assert_eq!(out.excluded, vec![3]);

        // A NaN proposal scores NaN for everyone, under a finite cut:
        // the honest voters downvote it and the Byzantine whale upvotes it.
        own[1] = vec![0.0, 0.0];
        proposals[3] = vec![f32::NAN, 0.0];
        let out = decide(&proposals, &own, &byz, whale());
        assert!(!out.excluded.contains(&3), "{:?}", out.excluded);
        let out = decide(&proposals, &own, &byz, ConsensusKind::VoteMajority);
        assert!(out.excluded.contains(&3), "{:?}", out.excluded);
    }

    #[test]
    #[should_panic(expected = "stake-vote stakes")]
    fn wrong_stake_length_panics() {
        staked(vec![1.0; 3], &[false; 4]);
    }

    #[test]
    #[should_panic(expected = "stake-vote total stake")]
    fn all_zero_stakes_rejected() {
        staked(vec![0.0; 4], &[false; 4]);
    }
}
