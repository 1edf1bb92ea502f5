//! Vanilla FL: the star-topology baseline the paper compares against —
//! one central server aggregating all clients directly with a single
//! (possibly Byzantine-robust) rule. The star is the degenerate
//! hierarchy ([`HflConfig::star`]), so it runs on the round engine like
//! any other config.

use hfl_robust::AggregatorKind;

use crate::config::{HflConfig, LevelAgg, TopologyCfg};

impl HflConfig {
    /// Vanilla FL as the degenerate hierarchy: one server over one
    /// cluster of every client, aggregating with `rule` — the paper's
    /// star baseline (Table V, Fig. 3) on the round engine.
    ///
    /// Rewrites the topology (two levels: a one-node top over a bottom
    /// cluster of `self.topology`'s client count), the per-level rules
    /// (`rule` at the bottom, FedAvg of the one partial at the top) and
    /// the flag level; every other field — data, attack, faults,
    /// defenses, schedule — is `self`'s, so the comparison isolates the
    /// topology. A client count that overflows becomes `usize::MAX`,
    /// which [`crate::runner::Experiment::try_prepare`] refuses.
    pub fn star(&self, rule: AggregatorKind) -> HflConfig {
        HflConfig {
            topology: TopologyCfg::Ecsm {
                total_levels: 2,
                m: self.topology.clients().unwrap_or(usize::MAX),
                n_top: 1,
            },
            levels: vec![LevelAgg::Bra(AggregatorKind::FedAvg), LevelAgg::Bra(rule)],
            flag_level: 1,
            ..self.clone()
        }
    }
}

/// The paper's vanilla aggregation choices: Multi-Krum with an assumed
/// 25 % malicious for IID runs, Median for non-IID.
pub fn paper_vanilla_aggregator(iid: bool, n_clients: usize) -> AggregatorKind {
    if iid {
        let f = n_clients / 4;
        AggregatorKind::MultiKrum {
            f,
            m: n_clients - f,
        }
    } else {
        AggregatorKind::Median
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AttackCfg;
    use crate::run::RunOptions;
    use crate::runner::RunResult;
    use hfl_attacks::{DataAttack, Placement};

    fn run(cfg: &HflConfig) -> RunResult {
        RunOptions::new()
            .try_run(cfg)
            .expect("a valid config")
            .result
    }

    fn quick(attack: AttackCfg, seed: u64) -> HflConfig {
        let mut cfg = HflConfig::quick(attack, seed);
        cfg.rounds = 25;
        cfg.eval_every = 25;
        cfg
    }

    #[test]
    fn vanilla_learns_when_honest() {
        let cfg = quick(AttackCfg::None, 1);
        let r = run(&cfg.star(paper_vanilla_aggregator(true, 64)));
        assert!(r.final_accuracy > 0.75, "got {}", r.final_accuracy);
    }

    #[test]
    fn vanilla_mean_collapses_under_type_i_majority() {
        let attack = AttackCfg::Data {
            attack: DataAttack::type_i(),
            proportion: 0.6,
            placement: Placement::Prefix,
        };
        let cfg = quick(attack, 2);
        let r = run(&cfg.star(AggregatorKind::FedAvg));
        assert!(
            r.final_accuracy < 0.5,
            "plain mean should collapse: {}",
            r.final_accuracy
        );
    }

    #[test]
    fn vanilla_multikrum_breaks_above_its_tolerance() {
        // 50 % malicious > Multi-Krum's assumed 25 % ⇒ vanilla collapses
        // (the paper's headline contrast at 50 %: 10.1 % vs ABD-HFL 89.9 %).
        let attack = AttackCfg::Data {
            attack: DataAttack::type_i(),
            proportion: 0.5,
            placement: Placement::Prefix,
        };
        let cfg = quick(attack, 3);
        let r = run(&cfg.star(paper_vanilla_aggregator(true, 64)));
        assert!(
            r.final_accuracy < 0.6,
            "vanilla Multi-Krum should degrade at 50 %: {}",
            r.final_accuracy
        );
    }

    #[test]
    fn paper_aggregator_choices() {
        assert_eq!(
            paper_vanilla_aggregator(true, 64),
            AggregatorKind::MultiKrum { f: 16, m: 48 }
        );
        assert_eq!(paper_vanilla_aggregator(false, 64), AggregatorKind::Median);
    }

    /// Algorithms 3–5 over one cluster of n under a one-node top: n
    /// uploads (the leader's own included), n broadcasts of the partial,
    /// 2 transfers at the top and n dissemination transfers — 3n + 2.
    #[test]
    fn message_cost_is_linear_in_clients() {
        let cfg = quick(AttackCfg::None, 4);
        let r = run(&cfg.star(AggregatorKind::FedAvg));
        assert_eq!(r.messages, (cfg.rounds * (3 * 64 + 2)) as u64);
    }

    #[test]
    fn vanilla_manifest_is_deterministic_and_labelled() {
        let mut cfg = quick(AttackCfg::None, 5);
        cfg.rounds = 3;
        cfg.eval_every = 3;
        let star = cfg.star(AggregatorKind::FedAvg);
        let run = || RunOptions::new().try_run(&star).expect("a valid config");
        let (a, b) = (run(), run());
        assert_eq!(a.manifest.to_json(), b.manifest.to_json());
        assert_eq!(a.manifest.totals.messages, a.result.messages);
        assert_eq!(a.manifest.rounds.len(), 3);
    }
}
