//! **Table II** quantitatively: every Byzantine-robust aggregation rule
//! head-to-head on vanilla FL under the two headline attacks (Type I
//! data poisoning and sign-flip model poisoning) and ALIE at 30 %
//! malicious, plus the clean baseline.

use abd_hfl_core::config::AttackCfg;
use abd_hfl_core::run::RunOptions;
use hfl_attacks::{ModelAttack, Placement};
use hfl_ml::rng::derive_seed;
use hfl_robust::AggregatorKind;

use super::{accuracy, label_flip, paper};
use crate::sweep::{Repro, Sweep};

pub(super) const REPRO: Repro = Repro {
    name: "defenses",
    reproduces: "Table II — per-defense robustness head-to-head",
    csv: Some(("defenses", "defense,scenario,final_accuracy")),
    manifests: None,
    recording: false,
    body,
};

fn defenses(n: usize) -> Vec<(&'static str, AggregatorKind)> {
    let f = n / 4;
    vec![
        ("fedavg (no defense)", AggregatorKind::FedAvg),
        ("krum", AggregatorKind::Krum { f }),
        ("multi-krum", AggregatorKind::MultiKrum { f, m: n - f }),
        ("median", AggregatorKind::Median),
        ("trimmed-mean", AggregatorKind::TrimmedMean { ratio: 0.3 }),
        ("geomed", AggregatorKind::GeoMed),
        (
            "centered-clip",
            AggregatorKind::CenteredClip { tau: 1.0, iters: 3 },
        ),
        (
            "cosine-clustering",
            AggregatorKind::CosineClustering { threshold: 0.0 },
        ),
    ]
}

fn body(s: &mut Sweep) {
    let rounds = s.args.effective_rounds(100, 30);
    let model = |attack| AttackCfg::Model {
        attack,
        proportion: 0.3,
        placement: Placement::Prefix,
    };
    let scenarios = [
        ("clean", AttackCfg::None),
        ("type1", label_flip(true, 0.3)),
        ("sign-flip", model(ModelAttack::SignFlip { scale: 4.0 })),
        ("ALIE", model(ModelAttack::Alie { z: 2.0 })),
    ];
    s.table(
        "\n## Table II defenses — vanilla FL at 30 % malicious\n",
        &["defense", "clean", "type1", "sign-flip", "ALIE"],
    );
    for (defense, kind) in defenses(64) {
        s.row([defense]);
        for (scenario, attack) in &scenarios {
            let cfg = paper(attack.clone(), derive_seed(s.args.seed, 0xDEFE), rounds);
            let label = format!("{defense}/{scenario}");
            s.cell(
                &label,
                cfg.star(kind.clone()),
                RunOptions::new(),
                accuracy(format!("{defense},{scenario}")),
            );
        }
    }
}
