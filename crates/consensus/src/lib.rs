//! # hfl-consensus
//!
//! Consensus-based aggregation (**CBA**) mechanisms — the paper's Table II,
//! "Consensus mechanism" rows. In ABD-HFL a cluster (in particular the
//! top-level cluster `C_{0,0}`) agrees on one aggregated model with no
//! leader trusted for correctness:
//!
//! | Strategy | Mechanism | Module |
//! |---|---|---|
//! | Scalar consensus | validation voting (paper Appendix D.B) | [`vote`] |
//! | Scalar consensus | committee-based consensus | [`committee`] |
//! | Scalar consensus | PBFT-style three-phase agreement | [`pbft`] |
//! | Multidimensional | approximate ε-agreement (trimmed-midpoint) | [`approx_agreement`] |
//!
//! Every mechanism implements [`Consensus`], reporting both the decided
//! model *and* its communication cost (message/byte counts) so the
//! scheme-comparison experiments (paper Table III/IV) can weigh
//! robustness against cost.
//!
//! # Example
//!
//! ```
//! use hfl_consensus::{Consensus, DistanceEvaluator, VoteConsensus};
//! use rand::SeedableRng;
//!
//! // Three honest proposals near the origin, one poisoned.
//! let proposals = vec![
//!     vec![0.0f32, 0.1],
//!     vec![0.1, 0.0],
//!     vec![0.05, 0.05],
//!     vec![50.0, 50.0],
//! ];
//! let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
//! let honest_refs = vec![vec![0.0f32, 0.0]; 4];
//! let eval = DistanceEvaluator::new(&honest_refs);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//!
//! let out = VoteConsensus::paper_default()
//!     .decide(&refs, &[false; 4], &eval, &mut rng);
//! assert_eq!(out.excluded, vec![3]); // the poisoned proposal is voted out
//! ```

pub mod approx_agreement;
pub mod committee;
pub mod echo;
pub mod eval;
pub mod gossip;
pub mod pbft;
pub mod pos;
pub mod quorum;
pub mod telemetry;
pub mod vote;

use rand::rngs::StdRng;

pub use approx_agreement::ApproxAgreement;
pub use committee::CommitteeConsensus;
pub use echo::{hash_update, EchoReport};
pub use eval::{DistanceEvaluator, ProposalEvaluator};
pub use gossip::GossipAverage;
pub use pbft::PbftConsensus;
pub use pos::StakeVote;
pub use quorum::quorum_size;
pub use vote::VoteConsensus;

/// Result of one consensus instance.
#[derive(Clone, Debug, PartialEq)]
pub struct ConsensusOutcome {
    /// The agreed model parameters.
    pub decided: Vec<f32>,
    /// Proposal indices the mechanism excluded as suspicious (empty for
    /// mechanisms that blend rather than filter).
    pub excluded: Vec<usize>,
    /// Protocol rounds executed.
    pub rounds: usize,
    /// Total point-to-point messages exchanged.
    pub messages: u64,
    /// Total payload bytes exchanged (model vectors dominate; votes and
    /// digests are counted at 8 bytes each).
    pub bytes: u64,
}

/// A consensus mechanism deciding one model from per-node proposals.
///
/// `proposals[i]` is node `i`'s input (its partial aggregated model);
/// `byzantine[i]` marks nodes that misbehave *inside the protocol*
/// (adversarial votes/values). The evaluator lets honest nodes score
/// proposals against local validation data.
pub trait Consensus: Send + Sync {
    /// Mechanism name for reports.
    fn name(&self) -> &'static str;

    /// Runs the mechanism and returns the agreed model plus cost counters.
    ///
    /// # Panics
    /// If `proposals` is empty or lengths mismatch.
    fn decide(
        &self,
        proposals: &[&[f32]],
        byzantine: &[bool],
        eval: &dyn ProposalEvaluator,
        rng: &mut StdRng,
    ) -> ConsensusOutcome;
}

/// Serializable mechanism selector for experiment configs.
#[derive(Clone, Debug, PartialEq)]
pub enum ConsensusKind {
    /// Validation voting with majority survival — the paper's top-level
    /// mechanism ("fewest positive votes are considered malicious").
    VoteMajority,
    /// Validation voting excluding exactly the `exclude` lowest-voted
    /// proposals (ablation variant).
    Vote {
        /// Number of proposals to exclude.
        exclude: usize,
    },
    /// Committee consensus with a committee of the given size.
    Committee {
        /// Committee size (must be ≤ node count at run time).
        size: usize,
        /// Number of proposals the committee excludes.
        exclude: usize,
    },
    /// PBFT-style agreement on the coordinate-median of proposals.
    Pbft,
    /// Approximate agreement to diameter `epsilon` trimming `trim` values
    /// per side per round.
    Approx {
        /// Target diameter.
        epsilon: f64,
        /// Per-side trim count.
        trim: usize,
    },
    /// Stake-weighted majority voting (PoS-inspired). Stakes must match
    /// the node count at run time.
    StakeVote {
        /// Per-node stakes.
        stakes: Vec<f64>,
    },
    /// Ring-gossip averaging to diameter `epsilon` (D2D baseline, not
    /// Byzantine-robust).
    Gossip {
        /// Convergence diameter.
        epsilon: f64,
    },
}

impl ConsensusKind {
    /// Instantiates the mechanism.
    pub fn build(&self) -> Box<dyn Consensus> {
        match self.clone() {
            ConsensusKind::VoteMajority => Box::new(VoteConsensus::paper_default()),
            ConsensusKind::Vote { exclude } => Box::new(VoteConsensus::new(exclude)),
            ConsensusKind::Committee { size, exclude } => {
                Box::new(CommitteeConsensus::new(size, exclude))
            }
            ConsensusKind::Pbft => Box::new(PbftConsensus::default()),
            ConsensusKind::Approx { epsilon, trim } => {
                Box::new(ApproxAgreement::new(epsilon, trim))
            }
            ConsensusKind::StakeVote { stakes } => Box::new(StakeVote::new(stakes)),
            ConsensusKind::Gossip { epsilon } => Box::new(GossipAverage::new(epsilon)),
        }
    }
}

/// Shared validation helper. Returns `(n, d)`.
pub(crate) fn validate(proposals: &[&[f32]], byzantine: &[bool]) -> (usize, usize) {
    assert!(!proposals.is_empty(), "consensus over zero proposals");
    let d = proposals[0].len();
    assert!(
        proposals.iter().all(|p| p.len() == d),
        "proposal length mismatch"
    );
    assert_eq!(
        byzantine.len(),
        proposals.len(),
        "byzantine mask length mismatch"
    );
    (proposals.len(), d)
}

/// Payload size in bytes of one model vector of dimension `d`.
#[inline]
pub(crate) fn model_bytes(d: usize) -> u64 {
    (d * std::mem::size_of::<f32>()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn kind_builds_every_mechanism() {
        let kinds = [
            ConsensusKind::VoteMajority,
            ConsensusKind::Vote { exclude: 1 },
            ConsensusKind::Committee {
                size: 3,
                exclude: 1,
            },
            ConsensusKind::Pbft,
            ConsensusKind::Approx {
                epsilon: 1e-3,
                trim: 1,
            },
            ConsensusKind::StakeVote {
                stakes: vec![1.0; 4],
            },
            ConsensusKind::Gossip { epsilon: 1e-3 },
        ];
        let proposals: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32 * 0.1, 1.0]).collect();
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let byz = vec![false; 4];
        let eval = DistanceEvaluator::new(&proposals);
        let mut rng = StdRng::seed_from_u64(1);
        for k in kinds {
            let mech = k.build();
            let out = mech.decide(&refs, &byz, &eval, &mut rng);
            assert_eq!(out.decided.len(), 2, "{}", mech.name());
            assert!(out.messages > 0, "{} reported no messages", mech.name());
        }
    }
}
