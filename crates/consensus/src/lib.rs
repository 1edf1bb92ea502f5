//! # hfl-consensus
//!
//! Consensus-based aggregation (**CBA**) mechanisms — the paper's Table II,
//! "Consensus mechanism" rows. In ABD-HFL a cluster (in particular the
//! top-level cluster `C_{0,0}`) agrees on one aggregated model with no
//! leader trusted for correctness:
//!
//! | Strategy | Mechanism | [`ConsensusKind`] | Module |
//! |---|---|---|---|
//! | Scalar consensus | validation voting, majority survival (paper Appendix D.B) | `VoteMajority` | [`vote`] |
//! | Scalar consensus | validation voting excluding the `k` fewest-voted (ablation) | `Vote` | [`vote`] |
//! | Scalar consensus | validation voting weighted by stake (PoS-inspired) | `StakeVote` | [`vote`] |
//! | Scalar consensus | committee-based consensus | `Committee` | [`committee`] |
//! | Scalar consensus | PBFT-style three-phase agreement | `Pbft` | [`pbft`] |
//! | Multidimensional | approximate ε-agreement (trimmed-midpoint) | `Approx` | [`approx_agreement`] |
//! | Multidimensional | ring-gossip averaging (D2D baseline, not Byzantine-robust) | `Gossip` | [`gossip`] |
//!
//! [`ConsensusKind`] is the mechanism: the selector a config names is
//! what [`ConsensusKind::decide`] runs, reporting both the decided model
//! *and* its communication cost (message/byte counts) so the
//! scheme-comparison experiments (paper Table III/IV) can weigh
//! robustness against cost.
//!
//! # Example
//!
//! ```
//! use hfl_consensus::{ConsensusKind, DistanceEvaluator};
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
//! let out = ConsensusKind::VoteMajority.decide(&refs, &[false; 4], &eval, &mut rng);
//! assert_eq!(out.excluded, vec![3]); // the poisoned proposal is voted out
//! ```

pub mod approx_agreement;
pub mod committee;
pub mod echo;
pub mod eval;
pub mod gossip;
pub mod pbft;
pub mod quorum;
pub mod vote;

use rand::rngs::StdRng;

pub use echo::{hash_update, EchoReport};
pub use eval::{DistanceEvaluator, ProposalEvaluator};
pub use quorum::quorum_size;

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

/// A CBA mechanism: the selector experiment configs name, and the
/// mechanism itself ([`ConsensusKind::decide`]).
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
        /// Committee size (clamped to the node count at run time).
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
    /// Checks every parameter [`ConsensusKind::decide`] asserts on
    /// entry, for a cluster of `members` nodes (stake voting holds one
    /// stake per member): `Err((which parameter, its value))` for the
    /// first unusable one. A non-finite ε is refused too.
    pub fn validate(&self, members: usize) -> Result<(), (&'static str, f64)> {
        let usable = |ok: bool, what, value| if ok { Ok(()) } else { Err((what, value)) };
        let epsilon = |e: f64, what| usable(e.is_finite() && e > 0.0, what, e);
        match self {
            ConsensusKind::VoteMajority | ConsensusKind::Vote { .. } | ConsensusKind::Pbft => {
                Ok(())
            }
            ConsensusKind::Committee { size, .. } => {
                usable(*size >= 1, "committee size", *size as f64)
            }
            ConsensusKind::Approx { epsilon: e, .. } => epsilon(*e, "approx epsilon"),
            ConsensusKind::Gossip { epsilon: e } => epsilon(*e, "gossip epsilon"),
            ConsensusKind::StakeVote { stakes } => {
                let n = stakes.len();
                usable(n == members, "stake-vote stakes (one per member)", n as f64)?;
                if let Some(bad) = stakes.iter().find(|s| s.is_nan() || **s < 0.0) {
                    return Err(("stake-vote stake", *bad));
                }
                let total: f64 = stakes.iter().sum();
                usable(total > 0.0, "stake-vote total stake", total)
            }
        }
    }

    /// The mechanism's name for reports: the `mechanism` label on the
    /// consensus counters of every manifest. The plain and the fixed-k
    /// vote share `validation-vote`.
    pub fn name(&self) -> &'static str {
        match self {
            ConsensusKind::VoteMajority | ConsensusKind::Vote { .. } => "validation-vote",
            ConsensusKind::StakeVote { .. } => "stake-vote",
            ConsensusKind::Committee { .. } => "committee",
            ConsensusKind::Pbft => "pbft",
            ConsensusKind::Approx { .. } => "approx-agreement",
            ConsensusKind::Gossip { .. } => "gossip-average",
        }
    }

    /// Runs the mechanism and returns the agreed model plus cost
    /// counters — the mechanism's one body.
    ///
    /// `proposals[i]` is node `i`'s input (its partial aggregated model);
    /// `byzantine[i]` marks nodes that misbehave *inside the protocol*
    /// (adversarial votes/values). The evaluator lets honest nodes score
    /// proposals against local validation data.
    ///
    /// # Panics
    /// On a parameter [`ConsensusKind::validate`] refuses for
    /// `proposals.len()` members (`unusable <parameter>: <value>`), if
    /// `proposals` is empty or lengths mismatch, and where a mechanism's
    /// own bound fails this round (PBFT's quorum, approximate
    /// agreement's `n > 3·trim` and contraction).
    pub fn decide(
        &self,
        proposals: &[&[f32]],
        byzantine: &[bool],
        eval: &dyn ProposalEvaluator,
        rng: &mut StdRng,
    ) -> ConsensusOutcome {
        if let Err((what, value)) = self.validate(proposals.len()) {
            panic!("unusable {what}: {value}");
        }
        match self {
            ConsensusKind::VoteMajority => vote::vote(proposals, byzantine, eval, None, None),
            ConsensusKind::Vote { exclude } => {
                vote::vote(proposals, byzantine, eval, Some(*exclude), None)
            }
            ConsensusKind::StakeVote { stakes } => {
                vote::vote(proposals, byzantine, eval, None, Some(stakes))
            }
            ConsensusKind::Committee { size, exclude } => {
                committee::committee(proposals, byzantine, eval, *size, *exclude, rng)
            }
            ConsensusKind::Pbft => pbft::pbft(proposals, byzantine),
            ConsensusKind::Approx { epsilon, trim } => {
                approx_agreement::approx_agreement(proposals, byzantine, *epsilon, *trim, rng)
            }
            ConsensusKind::Gossip { epsilon } => gossip::gossip(proposals, byzantine, *epsilon),
        }
    }

    /// The kind itself: `ledger/` calls `kind.build().decide(..)`, and
    /// this stays only for it (ROADMAP item 2's façade).
    pub fn build(&self) -> &Self {
        self
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

/// The mean of the proposals not in `excluded` (sorted, and leaving at
/// least one).
pub(crate) fn survivor_mean(proposals: &[&[f32]], excluded: &[usize]) -> Vec<f32> {
    let survivors: Vec<&[f32]> = (0..proposals.len())
        .filter(|p| excluded.binary_search(p).is_err())
        .map(|p| proposals[p])
        .collect();
    let mut decided = vec![0.0f32; proposals[0].len()];
    hfl_tensor::ops::mean_of(&survivors, &mut decided);
    decided
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

    fn every_kind(n: usize) -> [ConsensusKind; 7] {
        [
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
                stakes: vec![1.0; n],
            },
            ConsensusKind::Gossip { epsilon: 1e-3 },
        ]
    }

    #[test]
    fn validate_refuses_what_decide_would_panic_on() {
        let stakes = |stakes: Vec<f64>| ConsensusKind::StakeVote { stakes };
        let proposals: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32 * 0.1, 1.0]).collect();
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let eval = DistanceEvaluator::new(&proposals);
        let decide = |kind: &ConsensusKind| {
            kind.decide(&refs, &[false; 4], &eval, &mut StdRng::seed_from_u64(1))
        };
        for kind in [
            ConsensusKind::Committee {
                size: 0,
                exclude: 1,
            },
            ConsensusKind::Approx {
                epsilon: 0.0,
                trim: 1,
            },
            ConsensusKind::Approx {
                epsilon: f64::NAN,
                trim: 1,
            },
            ConsensusKind::Approx {
                epsilon: f64::INFINITY,
                trim: 1,
            },
            ConsensusKind::Gossip { epsilon: -1.0 },
            ConsensusKind::Gossip {
                epsilon: f64::INFINITY,
            },
            stakes(Vec::new()),
            stakes(vec![1.0; 2]),
            stakes(vec![-1.0, 1.0, 1.0, 1.0]),
            stakes(vec![f64::NAN, 1.0, 1.0, 1.0]),
            stakes(vec![0.0; 4]),
        ] {
            let (what, _) = kind.validate(4).expect_err(&format!("{kind:?} accepted"));
            let run = std::panic::catch_unwind(|| decide(&kind));
            let payload = run.expect_err(&format!("{kind:?} decided"));
            let message = payload.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.contains(what), "{kind:?}: {message}");
        }
        // The edges of each range decide.
        for kind in [
            ConsensusKind::Committee {
                size: 1,
                exclude: 0,
            },
            ConsensusKind::Approx {
                epsilon: f64::MIN_POSITIVE,
                trim: 1,
            },
            ConsensusKind::Gossip { epsilon: f64::MAX },
            stakes(vec![0.0, 0.0, 0.0, 1.0]),
        ] {
            assert_eq!(kind.validate(4), Ok(()), "{kind:?}");
            assert_eq!(decide(&kind).decided.len(), 2, "{kind:?}");
        }
    }

    #[test]
    fn every_kind_decides() {
        let proposals: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32 * 0.1, 1.0]).collect();
        let refs: Vec<&[f32]> = proposals.iter().map(|p| p.as_slice()).collect();
        let byz = vec![false; 4];
        let eval = DistanceEvaluator::new(&proposals);
        let mut rng = StdRng::seed_from_u64(1);
        for kind in every_kind(4) {
            let out = kind.decide(&refs, &byz, &eval, &mut rng);
            assert_eq!(out.decided.len(), 2, "{}", kind.name());
            assert!(out.messages > 0, "{} reported no messages", kind.name());
        }
    }

    /// The names are the `mechanism` label of every manifest's consensus
    /// counters; the plain and the fixed-k vote share one.
    #[test]
    fn the_name_is_the_manifest_label() {
        let names = every_kind(4).map(|kind| kind.name());
        assert_eq!(
            names,
            [
                "validation-vote",
                "validation-vote",
                "committee",
                "pbft",
                "approx-agreement",
                "stake-vote",
                "gossip-average",
            ]
        );
    }
}
