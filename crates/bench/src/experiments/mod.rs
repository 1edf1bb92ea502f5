//! The experiment registry: one module per `repro` experiment, each a
//! [`Repro`] declaring its cells, their run options and columns over
//! the shared [`crate::sweep`], plus the config and fault-plan builders
//! several of them share.

use abd_hfl_core::config::{AttackCfg, HflConfig};
use abd_hfl_core::pipeline::PipelineConfig;
use abd_hfl_core::run::RunOptions;
use abd_hfl_core::runner::RunOutput;
use hfl_attacks::{DataAttack, Placement};
use hfl_faults::FaultPlan;
use hfl_ml::synth::SynthConfig;
use hfl_simnet::Hierarchy;

use crate::report::pct;
use crate::sweep::Repro;

mod acsm;
mod adaptive;
mod asynchrony;
mod attacks;
mod combined;
mod defenses;
mod efficiency;
mod faults;
mod fig3;
mod gallery;
mod robustness_ablation;
mod scale;
mod schemes;
mod table5;
mod tolerance;

/// Every experiment, in the order `repro all` runs them and `repro list`
/// prints them.
pub const ALL: [&Repro; 15] = [
    &table5::REPRO,
    &fig3::REPRO,
    &tolerance::REPRO,
    &schemes::REPRO,
    &attacks::REPRO,
    &defenses::REPRO,
    &efficiency::REPRO,
    &robustness_ablation::REPRO,
    &asynchrony::REPRO,
    &acsm::REPRO,
    &faults::REPRO,
    &adaptive::REPRO,
    &combined::REPRO,
    &gallery::REPRO,
    &scale::REPRO,
];

/// The experiment called `name`.
pub fn find(name: &str) -> Option<&'static Repro> {
    ALL.into_iter().find(|r| r.name == name)
}

/// A synthetic task of `train` / `test` samples.
fn data(train: usize, test: usize) -> SynthConfig {
    SynthConfig {
        train_samples: train,
        test_samples: test,
        ..SynthConfig::default()
    }
}

/// The paper's IID setting on the 19,200 / 4,000-sample task, evaluated
/// once, after `rounds` rounds.
fn paper(attack: AttackCfg, seed: u64, rounds: usize) -> HflConfig {
    HflConfig {
        rounds,
        eval_every: rounds,
        data: data(19_200, 4_000),
        ..HflConfig::paper_iid(attack, seed)
    }
}

/// Type I (or Type II) label flipping at `proportion`, prefix placement;
/// no attack at 0.
fn label_flip(type_i: bool, proportion: f64) -> AttackCfg {
    if proportion == 0.0 {
        return AttackCfg::None;
    }
    AttackCfg::Data {
        attack: match type_i {
            true => DataAttack::type_i(),
            false => DataAttack::type_ii(),
        },
        proportion,
        placement: Placement::Prefix,
    }
}

/// The crash scenarios `faults` and `combined` sweep, striking at
/// `round`: `none`; `crash-f` / `crash-2f`, the first one / two
/// followers of every bottom cluster crash-stopped; `leader+f`, bottom
/// cluster `leader`'s leader killed (its deputy takes over) on top of
/// `crash-f`; `partition`, the last bottom cluster cut off for three
/// rounds.
fn crash_plan(scenario: &str, h: &Hierarchy, round: usize, leader: usize) -> Option<FaultPlan> {
    let bottom = h.level(h.bottom_level());
    let crash = |plan: FaultPlan, count: usize| {
        let followers = bottom
            .clusters
            .iter()
            .flat_map(|c| c.members.iter().skip(1).take(count));
        followers.fold(plan, |plan, &m| plan.crash_stop(round, m))
    };
    match scenario {
        "none" => None,
        "crash-f" => Some(crash(FaultPlan::new(), 1)),
        "crash-2f" => Some(crash(FaultPlan::new(), 2)),
        "leader+f" => Some(crash(
            FaultPlan::new().kill_leader(round, h.bottom_level(), leader, None),
            1,
        )),
        "partition" => {
            let last = bottom.clusters.last().expect("bottom level has clusters");
            Some(FaultPlan::new().partition(round, vec![last.members.clone()], round + 3))
        }
        other => unreachable!("unknown scenario {other}"),
    }
}

/// The fraction of expected bottom-level updates that reached their
/// aggregation: `1 − faulted / (clients · rounds)`.
fn availability(o: &RunOutput, clients: usize, rounds: usize) -> f64 {
    1.0 - o.result.faulted_total as f64 / (clients * rounds) as f64
}

/// The most common rendering: the CSV line `<key>,<accuracy>` and the
/// accuracy as one column.
fn accuracy(key: String) -> impl FnOnce(&RunOutput) -> (String, [String; 1]) {
    move |o| {
        (
            format!("{key},{:.4}", o.result.final_accuracy),
            [pct(o.result.final_accuracy)],
        )
    }
}

/// Arithmetic mean (0 for no values).
fn mean(xs: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = xs.len().max(1);
    xs.sum::<f64>() / n as f64
}

/// CSV lines joined into one cell's CSV text.
fn lines(rows: impl IntoIterator<Item = String>) -> String {
    rows.into_iter().collect::<Vec<_>>().join("\n")
}

/// The pipelined schedule under the default timing model, for `rounds`.
fn pipeline(rounds: usize) -> RunOptions<'static> {
    RunOptions::pipeline(&PipelineConfig {
        rounds,
        ..PipelineConfig::default()
    })
}

/// Seconds as the tables print them ("12.3 ms").
fn ms(secs: f64) -> String {
    format!("{:.1} ms", secs * 1e3)
}
