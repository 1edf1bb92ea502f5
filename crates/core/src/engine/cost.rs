//! The round cost ledger: the `CostCounters` accumulators, the registry
//! counters they feed, and the one shared set of charging helpers every
//! transfer in a round goes through. Before the engine, the
//! BRA/CBA/dissemination accounting blocks were copied into each of the
//! three round paths; now a message is counted (and its `MessagesSent`
//! event emitted) in exactly one place per kind.

use hfl_consensus::ConsensusOutcome;
use hfl_simnet::topology::Hierarchy;
use hfl_telemetry::{Event, MetricSample, MetricValue, Registry};

pub use hfl_telemetry::CostCounters;

use super::defense::EQUIVOCATIONS;
use super::layer::RoundCtx;
use super::step::{BUFFER_COUNTERS, OCCUPANCY_GAUGE};
use crate::config::{HflConfig, LevelAgg};
use crate::runner::ACCURACY_GAUGE;

/// The per-mechanism registry counters `RoundCtx::charge_consensus`
/// keeps, each labelled `mechanism=<ConsensusKind::name>`: decided
/// instances, proposals excluded as suspicious, protocol rounds,
/// messages and bytes. A snapshot's counters are restored by these names.
pub(crate) const CONSENSUS_COUNTERS: [&str; 5] = [
    "consensus_instances_total",
    "consensus_excluded_total",
    "consensus_rounds_total",
    "consensus_messages_total",
    "consensus_bytes_total",
];

/// The plain registry counter each [`CostCounters`] field feeds, with
/// the field it reads: `run_loop` adds every round's delta to them, and
/// a snapshot's counters are restored by these names.
pub(crate) const COST_COUNTERS: [(&str, CostField); 7] = [
    ("hfl_messages_total", |c| c.messages),
    ("hfl_bytes_total", |c| c.bytes),
    ("hfl_excluded_total", |c| c.excluded),
    ("hfl_absent_total", |c| c.absent),
    ("hfl_faulted_total", |c| c.faulted),
    ("hfl_quarantined_total", |c| c.quarantined),
    ("hfl_withheld_total", |c| c.withheld),
];

/// Reads one field of a [`CostCounters`].
type CostField = fn(&CostCounters) -> u64;

/// Seeds a fresh registry from a snapshot's metric samples. Counter and
/// gauge names are interned back to the `&'static str` the engine
/// registers them under; an unknown name (or a histogram, which cannot
/// be reconstructed from its stats) rejects the snapshot rather than
/// silently dropping totals.
pub(crate) fn restore_registry(reg: &Registry, samples: &[MetricSample]) -> Result<(), String> {
    let plain: Vec<&'static str> = COST_COUNTERS.iter().map(|c| c.0).collect();
    let plain = [&plain[..], &BUFFER_COUNTERS, &[EQUIVOCATIONS]].concat();
    let intern = |names: &[&'static str], name: &str| names.iter().copied().find(|n| *n == name);
    for s in samples {
        match (&s.value, s.labels.as_slice()) {
            (MetricValue::Counter(v), []) => {
                let name = intern(&plain, &s.name)
                    .ok_or_else(|| format!("unknown counter '{}' in snapshot", s.name))?;
                reg.counter(name, &[]).inc(*v);
            }
            (MetricValue::Counter(v), [(key, mechanism)]) if key == "mechanism" => {
                let name = intern(&CONSENSUS_COUNTERS, &s.name).ok_or_else(|| {
                    format!("unknown per-mechanism counter '{}' in snapshot", s.name)
                })?;
                reg.counter(name, &[("mechanism", mechanism)]).inc(*v);
            }
            (MetricValue::Counter(_), _) => {
                return Err(format!(
                    "counter '{}' carries labels this engine never writes",
                    s.name
                ))
            }
            (MetricValue::Gauge(v), []) => {
                let name = intern(&[ACCURACY_GAUGE, OCCUPANCY_GAUGE], &s.name)
                    .ok_or_else(|| format!("unknown gauge '{}' in snapshot", s.name))?;
                reg.gauge(name, &[]).set(*v);
            }
            (MetricValue::Gauge(_), _) => {
                return Err(format!("unknown gauge '{}' in snapshot", s.name))
            }
            (MetricValue::Histogram(_), _) => {
                return Err(format!(
                    "histogram '{}' cannot be restored into a registry",
                    s.name
                ))
            }
        }
    }
    Ok(())
}

/// Closed-form message count of one fault-free round (Algorithms 3–5):
/// what the ledger must report when nothing removes contributors — no
/// faults, no churn, no quarantine, no withholding. Per BRA cluster at
/// levels `1..=bottom` the leader collects `⌈φ·|C|⌉` uploads and
/// broadcasts the partial to the whole cluster; the top aggregation
/// charges an upload and a broadcast per proposal; dissemination then
/// pays one transfer per node per level on the way down.
///
/// Every one of these transfers is a model payload, so the matching
/// byte count is `messages × 4·d`. Returns `None` when any level uses
/// CBA: consensus rounds have outcome-dependent costs (vote traffic,
/// exclusions) with no config-only closed form.
///
/// This is the predictor behind `hfl-oracle`'s accounting-conservation
/// invariant: the fuzzer holds every eligible generated scenario to
/// this count exactly.
pub fn clean_round_messages(cfg: &HflConfig, h: &Hierarchy) -> Option<u64> {
    if cfg.levels.iter().any(|l| matches!(l, LevelAgg::Cba(_))) {
        return None;
    }
    let bottom = h.bottom_level();
    let mut messages = 0u64;
    for l in 1..=bottom {
        for c in &h.level(l).clusters {
            let quorum = hfl_consensus::quorum_size(cfg.quorum, c.len());
            messages += quorum as u64 + c.len() as u64;
        }
    }
    messages += 2 * h.level(0).num_nodes() as u64;
    for l in 1..=bottom {
        messages += h.level(l).num_nodes() as u64;
    }
    Some(messages)
}

impl RoundCtx<'_> {
    /// Charges `count` model-bearing transfers at `level` (each
    /// `model_bytes` on the wire) and emits the `MessagesSent` event.
    /// Used for BRA collect+broadcast and for dissemination.
    pub(crate) fn charge_transfers(&mut self, level: usize, count: u64) {
        let bytes = count * self.model_bytes;
        self.cost.messages += count;
        self.cost.bytes += bytes;
        self.telem.emit_with(|| Event::MessagesSent {
            round: self.round,
            level,
            count,
            bytes,
        });
    }

    /// Charges a consensus instance's own accounting (messages, bytes,
    /// exclusions), records its per-mechanism registry metrics, and
    /// emits the `MessagesSent` / `ProposalExcluded` events.
    pub(crate) fn charge_consensus(
        &mut self,
        level: usize,
        cluster: usize,
        mechanism: &'static str,
        out: &ConsensusOutcome,
    ) {
        let labels = [("mechanism", mechanism)];
        let counts = [
            1,
            out.excluded.len() as u64,
            out.rounds as u64,
            out.messages,
            out.bytes,
        ];
        for (name, count) in CONSENSUS_COUNTERS.into_iter().zip(counts) {
            self.telem.registry().counter(name, &labels).inc(count);
        }
        let round = self.round;
        self.telem.emit_with(|| Event::MessagesSent {
            round,
            level,
            count: out.messages,
            bytes: out.bytes,
        });
        for &proposal in &out.excluded {
            self.telem.emit_with(|| Event::ProposalExcluded {
                round,
                level,
                cluster,
                proposal,
            });
        }
        self.cost.messages += out.messages;
        self.cost.bytes += out.bytes;
        self.cost.excluded += out.excluded.len() as u64;
    }

    /// Charges a bottom cluster's echo-audit digests (8 bytes per
    /// member; cost-only, no event — digests ride on existing links).
    pub(crate) fn charge_echo(&mut self, members: usize) {
        let (messages, bytes) = hfl_consensus::echo::echo_cost(members);
        self.cost.messages += messages;
        self.cost.bytes += bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AttackCfg, HflConfig, LevelAgg, TopologyCfg};
    use crate::engine::RoundEngine;
    use crate::runner::Experiment;
    use hfl_robust::AggregatorKind;

    /// Every transfer in an all-BRA round goes through
    /// `charge_transfers`, so the ledger must match the closed form of
    /// Algorithms 3–5 exactly, full quorum, no churn. Two bottom
    /// clusters of 3 under a top cluster of 2:
    ///
    /// ```text
    /// bottom:        2 clusters × (3 uploads + 3 broadcasts) = 12
    /// top:           2 proposals × (upload + broadcast)      =  4
    /// dissemination: 6 bottom nodes                          =  6
    /// ```
    ///
    /// And vanilla FL's star, one cluster of 64 under a one-node top:
    /// 64 uploads + 64 broadcasts + 2 at the top + 64 dissemination
    /// transfers, 3n + 2.
    #[test]
    fn ledger_pins_the_closed_form_for_a_two_cluster_round() {
        let mut two = HflConfig::quick(AttackCfg::None, 9);
        two.topology = TopologyCfg::Ecsm {
            total_levels: 2,
            m: 3,
            n_top: 2,
        };
        two.levels = vec![LevelAgg::Bra(AggregatorKind::FedAvg); 2];
        two.flag_level = 1;
        let star = HflConfig::quick(AttackCfg::None, 9).star(AggregatorKind::Median);
        for (mut cfg, n, want) in [(two, 6, 12 + 4 + 6), (star, 64, 3 * 64 + 2)] {
            cfg.quorum = 1.0;
            cfg.churn_leave_prob = 0.0;
            let exp = Experiment::try_prepare(&cfg).expect("a valid fixture");
            let mut engine = RoundEngine::for_experiment(&exp);

            let dim = 10;
            let updates = vec![vec![0.5f32; dim]; n];
            let telem = hfl_telemetry::Telemetry::disabled();
            let mut cost = CostCounters::default();
            let (faults, suspicion, out) = (&mut Vec::new(), &mut Vec::new(), &mut Vec::new());
            engine.aggregate_round_into(&updates, 0, &mut cost, &telem, faults, suspicion, out);

            assert_eq!(cost.messages, want);
            assert_eq!(
                clean_round_messages(&cfg, &exp.hierarchy),
                Some(cost.messages),
                "the closed-form predictor must match the ledger"
            );
            assert_eq!(cost.bytes, cost.messages * (dim as u64 * 4));
            assert_eq!(cost.excluded, 0);
            assert_eq!(cost.absent, 0);
            assert_eq!(cost.faulted, 0);
            assert_eq!(cost.quarantined, 0);
            assert_eq!(cost.withheld, 0);
        }
    }

    /// The predictor follows the quorum fraction and refuses CBA levels.
    #[test]
    fn clean_round_predictor_tracks_quorum_and_rejects_cba() {
        let mut cfg = HflConfig::quick(AttackCfg::None, 9);
        cfg.topology = TopologyCfg::Ecsm {
            total_levels: 2,
            m: 4,
            n_top: 2,
        };
        cfg.levels = vec![LevelAgg::Bra(AggregatorKind::FedAvg); 2];
        cfg.flag_level = 1;
        cfg.quorum = 0.5;
        let h = cfg.topology.build(cfg.seed);
        // 2 clusters × (⌈0.5·4⌉ + 4) + 2·2 top + 8 dissemination.
        assert_eq!(clean_round_messages(&cfg, &h), Some(2 * (2 + 4) + 4 + 8));

        cfg.levels[1] = LevelAgg::Cba(hfl_consensus::ConsensusKind::VoteMajority);
        assert_eq!(clean_round_messages(&cfg, &h), None);
    }
}
