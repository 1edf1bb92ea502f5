//! Committee-based consensus (Li et al., IEEE Network 2021 style).
//!
//! A randomly sampled committee of `size` nodes scores every proposal on
//! its validation data; committee scores are combined by median (robust to
//! Byzantine committee members), the `exclude` lowest-median proposals are
//! dropped, and the survivors are averaged. Compared with full validation
//! voting, only committee members evaluate and broadcast — cost scales
//! with `size · n` instead of `n²`.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;

use crate::eval::{score_rows, ProposalEvaluator};
use crate::{model_bytes, survivor_mean, validate, ConsensusOutcome};

/// Committee consensus: a committee of `size` members (clamped to the
/// node count) excludes the `exclude` lowest-scored proposals (clamped so
/// at least one survives).
pub(crate) fn committee(
    proposals: &[&[f32]],
    byzantine: &[bool],
    eval: &dyn ProposalEvaluator,
    size: usize,
    exclude: usize,
    rng: &mut StdRng,
) -> ConsensusOutcome {
    let (n, d) = validate(proposals, byzantine);
    let size = size.min(n);
    // Sample the committee uniformly (stake-weighted selection would
    // slot in here; uniform matches our equal-stake setting).
    let mut ids: Vec<usize> = (0..n).collect();
    ids.shuffle(rng);
    let committee = &ids[..size];

    // Median committee score per proposal; Byzantine members report
    // inverted (negated) scores — the strongest in-protocol lie. A
    // member that cannot measure a proposal (a NaN score: a NaN
    // coordinate in the proposal or in the member's own reference)
    // scores it −∞, and `+ 0.0` makes a −0.0 score +0.0, so
    // `total_cmp` orders the scores as `<` does and no input panics.
    let rows = score_rows(committee, proposals, eval);
    let mut med_scores: Vec<(f64, usize)> = (0..n)
        .map(|p| {
            let mut scores: Vec<f64> = committee
                .iter()
                .zip(rows.chunks_exact(n))
                .map(|(&m, row)| {
                    let s = if row[p].is_nan() {
                        f64::NEG_INFINITY
                    } else {
                        row[p]
                    };
                    (if byzantine[m] { -s } else { s }) + 0.0
                })
                .collect();
            scores.sort_by(f64::total_cmp);
            (scores[scores.len() / 2], p)
        })
        .collect();
    med_scores.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
    let k = exclude.min(n - 1);
    let mut excluded: Vec<usize> = med_scores[..k].iter().map(|(_, p)| *p).collect();
    excluded.sort_unstable();

    // Cost: every node sends its model to each committee member
    // (n·size model transfers), each member broadcasts its score
    // vector to all nodes (size·n scalar messages), and the decided
    // model is broadcast by the committee (size·n transfers at most;
    // we count one representative broadcast of n messages).
    let messages = (n * size + size * n + n) as u64;
    let bytes =
        (n * size) as u64 * model_bytes(d) + (size * n) as u64 * 8 + n as u64 * model_bytes(d);
    ConsensusOutcome {
        decided: survivor_mean(proposals, &excluded),
        excluded,
        rounds: 3,
        messages,
        bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::DistanceEvaluator;
    use crate::ConsensusKind;
    use rand::SeedableRng;

    fn setup() -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let proposals = vec![
            vec![0.0f32, 0.0],
            vec![0.1f32, 0.1],
            vec![-0.1f32, 0.0],
            vec![40.0f32, -40.0],
        ];
        let mut own = proposals.clone();
        own[3] = vec![0.0, 0.0];
        (proposals, own)
    }

    #[test]
    fn committee_excludes_outlier() {
        let (proposals, own) = setup();
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let eval = DistanceEvaluator::new(&own);
        let mut rng = StdRng::seed_from_u64(3);
        let out = ConsensusKind::Committee {
            size: 3,
            exclude: 1,
        }
        .decide(&refs, &[false; 4], &eval, &mut rng);
        assert_eq!(out.excluded, vec![3]);
        assert!(hfl_tensor::ops::norm(&out.decided) < 1.0);
    }

    #[test]
    fn byzantine_committee_minority_tolerated() {
        let (proposals, own) = setup();
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let eval = DistanceEvaluator::new(&own);
        // Whole-committee runs with node 1 Byzantine: median of 3 scores
        // survives one liar regardless of committee draw.
        let byz = [false, true, false, false];
        let mut rng = StdRng::seed_from_u64(4);
        let out = ConsensusKind::Committee {
            size: 3,
            exclude: 1,
        }
        .decide(&refs, &byz, &eval, &mut rng);
        assert_eq!(out.excluded, vec![3]);
    }

    /// A Byzantine NaN proposal cannot be measured by anyone: it scores
    /// −∞ and is the one excluded, at every committee draw.
    #[test]
    fn a_nan_proposal_is_excluded_not_a_panic() {
        let (mut proposals, own) = setup();
        proposals[3] = vec![f32::NAN, 0.0];
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let eval = DistanceEvaluator::new(&own);
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = ConsensusKind::Committee {
                size: 3,
                exclude: 1,
            }
            .decide(&refs, &[false; 4], &eval, &mut rng);
            assert_eq!(out.excluded, vec![3], "seed {seed}");
            assert!(out.decided.iter().all(|v| v.is_finite()));
        }
    }

    /// A member whose own reference holds a NaN measures nothing: its
    /// whole row is −∞, and the median of the others still excludes the
    /// outlier.
    #[test]
    fn a_nan_voter_row_is_outvoted_not_a_panic() {
        let (proposals, mut own) = setup();
        own[1] = vec![f32::NAN, f32::NAN];
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let eval = DistanceEvaluator::new(&own);
        assert!(eval.score(1, refs[0]).is_nan());
        for (seed, byz) in [(0, [false; 4]), (1, [false, true, false, false])] {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = ConsensusKind::Committee {
                size: 4,
                exclude: 1,
            }
            .decide(&refs, &byz, &eval, &mut rng);
            assert_eq!(out.excluded, vec![3], "seed {seed}");
        }
    }

    #[test]
    fn committee_size_clamped() {
        let proposals = vec![vec![1.0f32], vec![1.5f32]];
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let eval = DistanceEvaluator::new(&proposals);
        let mut rng = StdRng::seed_from_u64(5);
        // size 10 > n=2 must not panic
        let out = ConsensusKind::Committee {
            size: 10,
            exclude: 0,
        }
        .decide(&refs, &[false; 2], &eval, &mut rng);
        assert!(out.excluded.is_empty());
        assert!((out.decided[0] - 1.25).abs() < 1e-6);
    }

    #[test]
    fn cheaper_than_full_vote_for_small_committee() {
        let n = 16usize;
        let proposals: Vec<Vec<f32>> = (0..n).map(|i| vec![i as f32 * 0.01; 8]).collect();
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let eval = DistanceEvaluator::new(&proposals);
        let byz = vec![false; n];
        let mut rng = StdRng::seed_from_u64(6);
        let committee = ConsensusKind::Committee {
            size: 4,
            exclude: 1,
        }
        .decide(&refs, &byz, &eval, &mut rng);
        let vote = ConsensusKind::Vote { exclude: 1 }.decide(&refs, &byz, &eval, &mut rng);
        assert!(
            committee.bytes < vote.bytes,
            "committee {} !< vote {}",
            committee.bytes,
            vote.bytes
        );
    }
}
