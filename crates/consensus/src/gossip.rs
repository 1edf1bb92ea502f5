//! Gossip / D2D intra-cluster averaging — the device-to-device
//! aggregation family of the related work (MH-FL, FL-EOCD, TT-HF):
//! cluster members repeatedly average with their ring neighbours until
//! the cluster converges on the mean, which the leader then carries
//! upward. No Byzantine filtering — included as the D2D communication
//! baseline the paper contrasts against ("the aggregation procedure is
//! too complex to be implemented in reality"; here it is also fragile:
//! one Byzantine member biases the consensus mean arbitrarily).

use crate::{model_bytes, validate, ConsensusOutcome};

/// Hard cap on gossip rounds.
const MAX_ROUNDS: usize = 128;

/// Ring-gossip averaging until the max pairwise coordinate spread falls
/// below `epsilon`.
pub(crate) fn gossip(proposals: &[&[f32]], byzantine: &[bool], epsilon: f64) -> ConsensusOutcome {
    let (n, d) = validate(proposals, byzantine);
    let mut values: Vec<Vec<f32>> = proposals.iter().map(|p| p.to_vec()).collect();
    let mut messages = 0u64;
    let mut bytes = 0u64;
    let mut rounds = 0usize;
    while n > 1 && diameter(&values) > epsilon && rounds < MAX_ROUNDS {
        rounds += 1;
        // Synchronous ring gossip: node i averages with node (i+1)%n.
        // Byzantine nodes refuse to update (keep broadcasting their
        // own value) — the simplest persistent-bias behaviour.
        let snapshot = values.clone();
        for i in 0..n {
            if byzantine[i] {
                continue;
            }
            let next = (i + 1) % n;
            let prev = (i + n - 1) % n;
            for j in 0..d {
                values[i][j] = (snapshot[prev][j] + snapshot[i][j] + snapshot[next][j]) / 3.0;
            }
        }
        messages += 2 * n as u64; // each node sends to both neighbours
        bytes += 2 * n as u64 * model_bytes(d);
    }
    // Decided value: the mean of final values (all within ε of each
    // other for honest-only runs).
    let refs: Vec<&[f32]> = values.iter().map(|v| v.as_slice()).collect();
    let mut decided = vec![0.0f32; d];
    hfl_tensor::ops::mean_of(&refs, &mut decided);
    ConsensusOutcome {
        decided,
        excluded: Vec::new(),
        rounds,
        messages,
        bytes,
    }
}

/// Max coordinate-wise spread among `values`.
fn diameter(values: &[Vec<f32>]) -> f64 {
    let d = values[0].len();
    let mut max = 0.0f64;
    for j in 0..d {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in values {
            lo = lo.min(v[j] as f64);
            hi = hi.max(v[j] as f64);
        }
        max = max.max(hi - lo);
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::DistanceEvaluator;
    use crate::ConsensusKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(proposals: &[Vec<f32>], byz: &[bool]) -> ConsensusOutcome {
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let eval = DistanceEvaluator::new(proposals);
        let mut rng = StdRng::seed_from_u64(1);
        ConsensusKind::Gossip { epsilon: 1e-4 }.decide(&refs, byz, &eval, &mut rng)
    }

    #[test]
    fn honest_gossip_converges_to_mean() {
        let proposals = vec![vec![0.0f32], vec![4.0f32], vec![8.0f32], vec![4.0f32]];
        let out = run(&proposals, &[false; 4]);
        assert!(
            (out.decided[0] - 4.0).abs() < 1e-2,
            "got {}",
            out.decided[0]
        );
        assert!(out.rounds > 0);
    }

    #[test]
    fn single_node_converges_immediately() {
        let proposals = vec![vec![3.0f32, 1.0]];
        let out = run(&proposals, &[false]);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.decided, vec![3.0, 1.0]);
    }

    #[test]
    fn byzantine_node_biases_the_average() {
        // Documents why gossip averaging is the *non-robust* baseline:
        // a stubborn Byzantine value drags the consensus.
        let honest = vec![vec![0.0f32], vec![0.0f32], vec![0.0f32], vec![100.0f32]];
        let byz = [false, false, false, true];
        let out = run(&honest, &byz);
        assert!(
            out.decided[0] > 10.0,
            "Byzantine bias unexpectedly filtered: {}",
            out.decided[0]
        );
    }

    #[test]
    fn message_cost_is_linear_per_round() {
        let proposals = vec![vec![0.0f32], vec![10.0f32], vec![5.0f32], vec![2.0f32]];
        let out = run(&proposals, &[false; 4]);
        assert_eq!(out.messages, out.rounds as u64 * 8);
    }
}
