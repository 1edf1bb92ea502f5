//! The four Byzantine-setting combinations of Table III, with the
//! applicability guidance of Table IV.

use hfl_consensus::ConsensusKind;
use hfl_robust::AggregatorKind;

use crate::config::LevelAgg;

/// Table III: which family (BRA / CBA) runs at the partial- and
/// global-aggregation phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// BRA partials + consensus global — "suitable for FL with mass
    /// devices" (the paper's evaluated configuration).
    Scheme1,
    /// Consensus partials + BRA global — small, sensitive deployments.
    Scheme2,
    /// BRA everywhere — fastest, intermediate robustness.
    Scheme3,
    /// Consensus everywhere — highest robustness, highest cost.
    Scheme4,
}

impl Scheme {
    /// All four schemes, for sweeps.
    pub const ALL: [Scheme; 4] = [
        Scheme::Scheme1,
        Scheme::Scheme2,
        Scheme::Scheme3,
        Scheme::Scheme4,
    ];

    /// Builds the per-level aggregation vector for a hierarchy of
    /// `total_levels` levels, using `bra` for the Byzantine-robust slots
    /// and `cba` for the consensus slots.
    pub fn level_aggs(
        &self,
        total_levels: usize,
        bra: AggregatorKind,
        cba: ConsensusKind,
    ) -> Vec<LevelAgg> {
        assert!(total_levels >= 2, "need at least top + bottom levels");
        let (partial, global) = match self {
            Scheme::Scheme1 => (LevelAgg::Bra(bra), LevelAgg::Cba(cba)),
            Scheme::Scheme2 => (LevelAgg::Cba(cba), LevelAgg::Bra(bra)),
            Scheme::Scheme3 => (LevelAgg::Bra(bra.clone()), LevelAgg::Bra(bra)),
            Scheme::Scheme4 => (LevelAgg::Cba(cba.clone()), LevelAgg::Cba(cba)),
        };
        let mut out = vec![global];
        out.extend(std::iter::repeat_n(partial, total_levels - 1));
        out
    }

    /// Table IV's qualitative robustness ranking (higher = more robust).
    pub fn robustness_rank(&self) -> u8 {
        match self {
            Scheme::Scheme3 => 1,
            Scheme::Scheme1 | Scheme::Scheme2 => 2,
            Scheme::Scheme4 => 3,
        }
    }

    /// Table IV's qualitative communication-cost ranking (higher = more
    /// expensive).
    pub fn cost_rank(&self) -> u8 {
        match self {
            Scheme::Scheme3 => 1,
            Scheme::Scheme1 | Scheme::Scheme2 => 2,
            Scheme::Scheme4 => 3,
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Scheme1 => "scheme-1 (BRA partial / CBA global)",
            Scheme::Scheme2 => "scheme-2 (CBA partial / BRA global)",
            Scheme::Scheme3 => "scheme-3 (BRA everywhere)",
            Scheme::Scheme4 => "scheme-4 (CBA everywhere)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bra() -> AggregatorKind {
        AggregatorKind::MultiKrum { f: 1, m: 3 }
    }

    fn cba() -> ConsensusKind {
        ConsensusKind::VoteMajority
    }

    #[test]
    fn scheme1_matches_paper_evaluation() {
        let aggs = Scheme::Scheme1.level_aggs(3, bra(), cba());
        assert_eq!(aggs.len(), 3);
        assert!(matches!(aggs[0], LevelAgg::Cba(_)));
        assert!(matches!(aggs[1], LevelAgg::Bra(_)));
        assert!(matches!(aggs[2], LevelAgg::Bra(_)));
    }

    #[test]
    fn scheme2_swaps_phases() {
        let aggs = Scheme::Scheme2.level_aggs(3, bra(), cba());
        assert!(matches!(aggs[0], LevelAgg::Bra(_)));
        assert!(matches!(aggs[1], LevelAgg::Cba(_)));
    }

    #[test]
    fn scheme3_is_bra_everywhere() {
        let aggs = Scheme::Scheme3.level_aggs(4, bra(), cba());
        assert!(aggs.iter().all(|a| matches!(a, LevelAgg::Bra(_))));
    }

    #[test]
    fn scheme4_is_cba_everywhere() {
        let aggs = Scheme::Scheme4.level_aggs(4, bra(), cba());
        assert!(aggs.iter().all(|a| matches!(a, LevelAgg::Cba(_))));
    }

    #[test]
    fn table_iv_rankings() {
        // Scheme 4 most robust and most expensive; Scheme 3 cheapest and
        // least robust.
        assert!(Scheme::Scheme4.robustness_rank() > Scheme::Scheme1.robustness_rank());
        assert!(Scheme::Scheme1.robustness_rank() > Scheme::Scheme3.robustness_rank());
        assert!(Scheme::Scheme4.cost_rank() > Scheme::Scheme3.cost_rank());
    }
}
