//! **Table I** quantitatively: the damage each Byzantine attack type
//! inflicts on an *undefended* (plain-FedAvg) vanilla FL run at 30 %
//! malicious — every attack implementation actually attacks. A backdoor
//! deep-dive follows: clean accuracy hides the backdoor, the
//! attack-success rate exposes it, and the hierarchy suppresses it.

use abd_hfl_core::config::AttackCfg;
use abd_hfl_core::run::RunOptions;
use abd_hfl_core::runner::{run_prepared_with, Experiment};
use hfl_attacks::{DataAttack, ModelAttack, Placement};
use hfl_ml::metrics::backdoor_success_rate;
use hfl_ml::rng::derive_seed;
use hfl_robust::AggregatorKind;
use hfl_telemetry::Telemetry;

use super::{accuracy, label_flip, paper};
use crate::report::{csv, pct, write_or_exit};
use crate::sweep::{Repro, Sweep};

pub(super) const REPRO: Repro = Repro {
    name: "attacks",
    reproduces: "Table I — per-attack damage under plain averaging",
    csv: Some(("attacks", "attack,final_accuracy")),
    manifests: None,
    recording: false,
    body,
};

/// The backdoor trigger both tables plant: (offset, width, value,
/// target class).
const TRIGGER: (usize, usize, f32, u8) = (0, 8, 6.0, 7);

/// The trigger on half of each malicious client's samples.
fn backdoor() -> DataAttack {
    let (offset, width, value, target) = TRIGGER;
    DataAttack::BackdoorTrigger {
        offset,
        width,
        value,
        target,
        fraction: 0.5,
    }
}

fn attacks() -> Vec<(&'static str, AttackCfg)> {
    let data = |attack| AttackCfg::Data {
        attack,
        proportion: 0.3,
        placement: Placement::Prefix,
    };
    let model = |attack| AttackCfg::Model {
        attack,
        proportion: 0.3,
        placement: Placement::Prefix,
    };
    vec![
        ("none", AttackCfg::None),
        ("label-flip-all-9 (Type I)", label_flip(true, 0.3)),
        ("label-flip-random (Type II)", label_flip(false, 0.3)),
        ("feature-noise", data(DataAttack::FeatureNoise { std: 4.0 })),
        ("backdoor-trigger", data(backdoor())),
        ("sign-flip", model(ModelAttack::SignFlip { scale: 4.0 })),
        (
            "gaussian-noise",
            model(ModelAttack::GaussianNoise { std: 2.0 }),
        ),
        ("ALIE", model(ModelAttack::Alie { z: 2.0 })),
        ("IPM", model(ModelAttack::Ipm { epsilon: 0.8 })),
    ]
}

fn body(s: &mut Sweep) {
    let rounds = s.args.effective_rounds(100, 30);
    s.table(
        "\n## Table I attacks — damage to undefended FedAvg (30 % malicious)\n",
        &["attack", "final accuracy"],
    );
    for (name, attack) in attacks() {
        let cfg = paper(attack, derive_seed(s.args.seed, 0xA77C), rounds);
        s.row([name]);
        let fedavg = cfg.star(AggregatorKind::FedAvg);
        s.cell(name, fedavg, RunOptions::new(), accuracy(name.to_string()));
    }
    backdoor_deep_dive(s, rounds);
}

/// Clean accuracy vs attack-success rate of a run's final global model,
/// vanilla FedAvg (the star) against ABD-HFL.
fn backdoor_deep_dive(s: &mut Sweep, rounds: usize) {
    let (offset, width, value, target) = TRIGGER;
    let attack = AttackCfg::Data {
        attack: backdoor(),
        proportion: 0.3,
        placement: Placement::Prefix,
    };
    let cfg = paper(attack, derive_seed(s.args.seed, 0xBD02), rounds);
    s.table(
        "\n## Backdoor deep-dive — clean accuracy vs attack-success rate\n",
        &["model", "clean accuracy", "attack-success rate"],
    );
    let mut rows = Vec::new();
    let star = cfg.star(AggregatorKind::FedAvg);
    for (name, cfg) in [("vanilla FedAvg", star), ("ABD-HFL (scheme 1)", cfg)] {
        if !s.args.matches(&format!("backdoor/{name}")) {
            continue;
        }
        let exp = Experiment::try_prepare(&cfg).expect("a valid config");
        let run = run_prepared_with(&exp, &Telemetry::disabled());
        let clean = run.result.final_accuracy;
        let mut model = exp.template.clone_box();
        model.set_params(&run.model);
        let asr =
            backdoor_success_rate(model.as_ref(), &exp.task.test, offset, width, value, target);
        eprintln!("  backdoor/{name}: clean {} ASR {}", pct(clean), pct(asr));
        s.row([name.to_string(), pct(clean), pct(asr)]);
        rows.push(format!("{name},{clean:.4},{asr:.4}"));
    }
    if !rows.is_empty() {
        let header = "model,clean_accuracy,attack_success_rate";
        write_or_exit(s.args.out_dir(), "backdoor.csv", &csv(header, &rows));
    }
}
