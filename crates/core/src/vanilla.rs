//! Vanilla FL: the star-topology baseline the paper compares against —
//! one central server aggregating all clients directly with a single
//! (possibly Byzantine-robust) rule.

use hfl_robust::AggregatorKind;
use hfl_telemetry::{fnv1a_hex, Event, RoundRecord, RunManifest, RunTotals, Telemetry};

use crate::config::{ConfigError, HflConfig};
use crate::runner::{Experiment, InstrumentedRun, RunResult};

/// Runs vanilla FL with the same task, clients, attack and training
/// hyper-parameters as `cfg`, but a central server applying `aggregator`
/// to all client updates each round.
///
/// Reuses [`Experiment::try_prepare`], so the data, poisoning and
/// per-round client updates are *identical* to the ABD-HFL run with the
/// same seed — the comparison isolates the topology. Panics on an
/// inconsistent config, as [`crate::run::run`] does.
pub fn run_vanilla(cfg: &HflConfig, aggregator: AggregatorKind) -> RunResult {
    match run_vanilla_with(cfg, aggregator, &Telemetry::disabled()) {
        Ok(run) => run.result,
        Err(e) => panic!("{e}"),
    }
}

/// [`run_vanilla`] with telemetry: returns the result together with the
/// run's [`RunManifest`] (label `"vanilla"`), so the baseline reports
/// through the same manifest pipeline as ABD-HFL, or the config
/// inconsistency instead of panicking.
pub fn run_vanilla_with(
    cfg: &HflConfig,
    aggregator: AggregatorKind,
    telem: &Telemetry,
) -> Result<InstrumentedRun, ConfigError> {
    let exp = Experiment::try_prepare(cfg)?;
    let agg = aggregator.build();
    let n = exp.hierarchy.num_clients();
    let mut global = exp.template.params().to_vec();
    let d = global.len();
    let model_bytes = (d * 4) as u64;
    let mut messages = 0u64;
    let mut bytes = 0u64;
    let mut accuracy = Vec::new();
    let mut manifest = RunManifest::new(
        "vanilla",
        cfg.seed,
        fnv1a_hex(format!("{cfg:?}").as_bytes()),
    );
    let messages_c = telem.registry().counter("hfl_messages_total", &[]);
    let bytes_c = telem.registry().counter("hfl_bytes_total", &[]);
    let absent_c = telem.registry().counter("hfl_absent_total", &[]);
    let accuracy_g = telem.registry().gauge("hfl_accuracy", &[]);

    let mut absent_total = 0u64;
    for round in 0..cfg.rounds {
        telem.emit_with(|| Event::RoundStarted { round });
        let updates = exp.train_round(&global, round);
        // Churn applies identically: absent clients' updates never reach
        // the server.
        let active = exp.active_mask(round);
        let absent = active.iter().filter(|a| !**a).count() as u64;
        absent_total += absent;
        absent_c.inc(absent);
        let refs: Vec<&[f32]> = updates
            .iter()
            .zip(&active)
            .filter(|(_, a)| **a)
            .map(|(u, _)| u.as_slice())
            .collect();
        global = agg.aggregate(&refs, None);
        // n uploads + n downloads through the central server.
        let round_messages = 2 * n as u64;
        let round_bytes = round_messages * model_bytes;
        messages += round_messages;
        bytes += round_bytes;
        messages_c.inc(round_messages);
        bytes_c.inc(round_bytes);
        let mut round_accuracy = None;
        if (round + 1) % cfg.eval_every == 0 || round + 1 == cfg.rounds {
            let a = exp.evaluate(&global);
            accuracy.push((round + 1, a));
            accuracy_g.set(a);
            round_accuracy = Some(a);
            telem.emit_with(|| Event::Evaluated { round, accuracy: a });
        }
        telem.emit_with(|| Event::MessagesSent {
            round,
            level: 0,
            count: round_messages,
            bytes: round_bytes,
        });
        telem.emit_with(|| Event::RoundFinished {
            round,
            messages: round_messages,
            bytes: round_bytes,
            excluded: 0,
            absent,
        });
        manifest.rounds.push(RoundRecord {
            round: round + 1,
            accuracy: round_accuracy,
            messages: round_messages,
            bytes: round_bytes,
            excluded: 0,
            absent,
        });
    }
    let final_accuracy = accuracy.last().map(|(_, a)| *a).unwrap_or(0.0);
    manifest.totals = RunTotals {
        messages,
        bytes,
        excluded: 0,
        absent: absent_total,
    };
    manifest.final_accuracy = final_accuracy;
    manifest.metrics = telem.registry().snapshot();

    Ok(InstrumentedRun {
        result: RunResult {
            accuracy,
            final_accuracy,
            messages,
            bytes,
            excluded_total: 0,
            absent_total,
            faulted_total: 0,
            quarantined_total: 0,
            withheld_total: 0,
        },
        manifest,
    })
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
    use hfl_attacks::{DataAttack, Placement};

    fn quick(attack: AttackCfg, seed: u64) -> HflConfig {
        let mut cfg = HflConfig::quick(attack, seed);
        cfg.rounds = 25;
        cfg.eval_every = 25;
        cfg
    }

    #[test]
    fn vanilla_learns_when_honest() {
        let cfg = quick(AttackCfg::None, 1);
        let r = run_vanilla(&cfg, paper_vanilla_aggregator(true, 64));
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
        let r = run_vanilla(&cfg, AggregatorKind::FedAvg);
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
        let r = run_vanilla(&cfg, paper_vanilla_aggregator(true, 64));
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

    #[test]
    fn message_cost_is_linear_in_clients() {
        let cfg = quick(AttackCfg::None, 4);
        let r = run_vanilla(&cfg, AggregatorKind::FedAvg);
        assert_eq!(r.messages, (cfg.rounds * 2 * 64) as u64);
    }

    #[test]
    fn vanilla_manifest_is_deterministic_and_labelled() {
        let mut cfg = quick(AttackCfg::None, 5);
        cfg.rounds = 3;
        cfg.eval_every = 3;
        let run =
            || run_vanilla_with(&cfg, AggregatorKind::FedAvg, &Telemetry::disabled()).unwrap();
        let (a, b) = (run(), run());
        assert_eq!(a.manifest.to_json(), b.manifest.to_json());
        assert_eq!(a.manifest.label, "vanilla");
        assert_eq!(a.manifest.totals.messages, a.result.messages);
        assert_eq!(a.manifest.rounds.len(), 3);
    }
}
