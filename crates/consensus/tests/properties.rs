//! Property tests for the consensus mechanisms: safety contracts under
//! arbitrary honest inputs and adversarial proposals.
//!
//! Each property runs [`CASES`] cases; case `c` draws its inputs from
//! `StdRng::seed_from_u64(c)`, and every failure names `c`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hfl_consensus::eval::AccuracyEvaluator;
use hfl_consensus::pbft::max_faulty;
use hfl_consensus::{ConsensusKind, DistanceEvaluator, ProposalEvaluator};
use hfl_ml::{Dataset, LinearSoftmax, Model};

const CASES: u64 = 48;

/// Case numbers, each with the generator it seeds.
fn cases() -> impl Iterator<Item = (u64, StdRng)> {
    (0..CASES).map(|case| (case, StdRng::seed_from_u64(case)))
}

/// `n` vectors of dimension `d`, coordinates uniform in `[lo, hi)`.
fn uniform_rows(rng: &mut StdRng, n: usize, d: usize, lo: f32, hi: f32) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(lo..hi)).collect())
        .collect()
}

/// `n` honest proposals near the origin plus `n_bad < n/2` poisoned ones
/// far away, and the poisoned proposals' indices; voters' references are
/// all honest.
fn scenario(rng: &mut StdRng) -> (Vec<Vec<f32>>, Vec<usize>) {
    let n_good = rng.gen_range(3usize..8);
    let n_bad = (n_good - 1) / 2;
    let mut all = uniform_rows(rng, n_good, 3, -1.0, 1.0);
    all.extend(uniform_rows(rng, n_bad, 3, 500.0, 1000.0));
    (all, (n_good..n_good + n_bad).collect())
}

fn honest_refs(proposals: &[Vec<f32>], bad: &[usize]) -> Vec<Vec<f32>> {
    // Voters score by distance to an honest reference (origin-ish).
    proposals
        .iter()
        .enumerate()
        .map(|(i, p)| {
            if bad.contains(&i) {
                vec![0.0f32; p.len()]
            } else {
                p.clone()
            }
        })
        .collect()
}

#[test]
fn vote_excludes_every_poisoned_proposal() {
    for (case, mut rng) in cases() {
        let (proposals, bad) = scenario(&mut rng);
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let own = honest_refs(&proposals, &bad);
        let eval = DistanceEvaluator::new(&own);
        let byz = vec![false; proposals.len()];
        let mut rng = StdRng::seed_from_u64(1);
        let out = ConsensusKind::VoteMajority.decide(&refs, &byz, &eval, &mut rng);
        for b in &bad {
            assert!(
                out.excluded.contains(b),
                "case {case}: poisoned proposal {b} survived (excluded: {:?})",
                out.excluded
            );
        }
        // Decided model stays in the honest region.
        assert!(hfl_tensor::ops::norm(&out.decided) < 10.0, "case {case}");
    }
}

#[test]
fn vote_never_excludes_everything() {
    for (case, mut rng) in cases() {
        let (proposals, bad) = scenario(&mut rng);
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let own = honest_refs(&proposals, &bad);
        let eval = DistanceEvaluator::new(&own);
        // Even with ALL voters Byzantine the vote must decide something.
        let byz = vec![true; proposals.len()];
        let mut rng = StdRng::seed_from_u64(2);
        let out = ConsensusKind::VoteMajority.decide(&refs, &byz, &eval, &mut rng);
        assert!(out.excluded.len() < proposals.len(), "case {case}");
        assert!(out.decided.iter().all(|x| x.is_finite()), "case {case}");
    }
}

#[test]
fn pbft_decides_within_honest_envelope() {
    for (case, mut rng) in cases() {
        let (proposals, bad) = scenario(&mut rng);
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let n = proposals.len();
        // PBFT tolerates f < n/3 protocol-Byzantine nodes; mark at most
        // that many of the *poisoned-proposal* nodes as protocol-Byzantine.
        let f_max = max_faulty(n);
        let mut byz = vec![false; n];
        for b in bad.iter().take(f_max) {
            byz[*b] = true;
        }
        let own = honest_refs(&proposals, &bad);
        let eval = DistanceEvaluator::new(&own);
        let mut rng = StdRng::seed_from_u64(3);
        let out = ConsensusKind::Pbft.decide(&refs, &byz, &eval, &mut rng);
        assert!(out.rounds >= 1, "case {case}");
        assert!(out.decided.iter().all(|x| x.is_finite()), "case {case}");
    }
}

#[test]
fn approx_agreement_decides_in_hull() {
    for (case, mut rng) in cases() {
        let n = rng.gen_range(4usize..10);
        let proposals = uniform_rows(&mut rng, n, 3, -10.0, 10.0);
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let byz = vec![false; proposals.len()];
        let eval = DistanceEvaluator::new(&proposals);
        let mut rng = StdRng::seed_from_u64(4);
        let out = ConsensusKind::Approx {
            epsilon: 1e-3,
            trim: 0,
        }
        .decide(&refs, &byz, &eval, &mut rng);
        // Decision lies inside the per-coordinate hull of the inputs —
        // trimmed-mean iterations are hull-preserving.
        for j in 0..3 {
            let lo = proposals.iter().map(|p| p[j]).fold(f32::INFINITY, f32::min);
            let hi = proposals
                .iter()
                .map(|p| p[j])
                .fold(f32::NEG_INFINITY, f32::max);
            assert!(
                out.decided[j] >= lo - 1e-2 && out.decided[j] <= hi + 1e-2,
                "case {case}: coordinate {j}: {} outside [{lo}, {hi}]",
                out.decided[j]
            );
        }
    }
}

#[test]
fn approx_agreement_message_count_matches_rounds() {
    for (case, mut rng) in cases() {
        let n = rng.gen_range(4usize..8);
        let proposals = uniform_rows(&mut rng, n, 2, -10.0, 10.0);
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let n = n as u64;
        let byz = vec![false; proposals.len()];
        let eval = DistanceEvaluator::new(&proposals);
        let mut rng = StdRng::seed_from_u64(5);
        let out = ConsensusKind::Approx {
            epsilon: 1e-2,
            trim: 0,
        }
        .decide(&refs, &byz, &eval, &mut rng);
        assert_eq!(out.messages, out.rounds as u64 * n * (n - 1), "case {case}");
    }
}

/// Unit stakes are the unstaked vote. Each case draws n ∈ 1..=9
/// proposals, a random Byzantine mask and finite scores — hit rates
/// under the accuracy evaluator, negated distances under the distance
/// evaluator — and the stake vote at one stake per voter must decide the
/// unstaked vote's exact outcome: excluded set, decided bits, rounds,
/// messages and bytes.
#[test]
fn unit_stakes_decide_as_the_unstaked_vote() {
    let (d, classes) = (4usize, 3usize);
    let template = LinearSoftmax::new(d, classes);
    let (mut excluding, mut inverting) = (0, 0);
    for (case, mut rng) in cases() {
        let n = rng.gen_range(1usize..=9);
        let byz: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.3)).collect();
        let mut data = Dataset::empty(d, classes);
        for i in 0..12 * n {
            let x: Vec<f32> = (0..d).map(|_| rng.gen_range(-2.0..2.0)).collect();
            data.push(&x, (i % classes) as u8);
        }
        let proposals = uniform_rows(&mut rng, n, template.param_len(), -1.0, 1.0);
        let own = uniform_rows(&mut rng, n, template.param_len(), -1.0, 1.0);
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let accuracy = AccuracyEvaluator::split_rows(Box::new(template.clone()), &data, n);
        let distance = DistanceEvaluator::new(&own);
        for eval in [&accuracy as &dyn ProposalEvaluator, &distance] {
            let decide = |vote: ConsensusKind| {
                vote.decide(&refs, &byz, eval, &mut StdRng::seed_from_u64(case))
            };
            let plain = decide(ConsensusKind::VoteMajority);
            assert_eq!(
                decide(ConsensusKind::StakeVote {
                    stakes: vec![1.0; n]
                }),
                plain,
                "case {case}: n = {n}, byzantine {byz:?}"
            );
            excluding += usize::from(!plain.excluded.is_empty());
        }
        inverting += usize::from(byz.contains(&true));
    }
    assert!(excluding > CASES as usize && inverting > CASES as usize / 2);
}
