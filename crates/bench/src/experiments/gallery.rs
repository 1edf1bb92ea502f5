//! Attack–defense gallery: the full static-attack × composed-defense ×
//! data-distribution accuracy grid (DESIGN.md §13).
//!
//! Rows pair every gallery attack family (mimic, scaling, min-max,
//! min-sum, plus the clean baseline) with undefended averaging, the
//! centered-clipping rule, and the two pre-aggregation compositions
//! (bucketing → median, NNM → Krum), each under IID and Dirichlet-α
//! partitions. Two invocations with the same `--seed` produce
//! byte-identical manifest logs (`gallery.manifests.jsonl`) — the
//! determinism contract CI diffs.

use abd_hfl_core::config::{AttackCfg, DataDistribution, HflConfig, LevelAgg};
use abd_hfl_core::run::RunOptions;
use hfl_attacks::{ModelAttack, Placement};
use hfl_robust::AggregatorKind;

use super::{accuracy, data};
use crate::sweep::{Labels, Repro, Sweep};

pub(super) const REPRO: Repro = Repro {
    name: "gallery",
    reproduces: "Attack × composed-defense × distribution accuracy grid",
    csv: Some(("gallery", "attack,defense,distribution,final_accuracy")),
    manifests: Some(Labels::AsRun),
    recording: true,
    body,
};

/// The Dirichlet concentration of the heterogeneous grid half.
const ALPHA: f64 = 0.5;

fn attacks() -> Vec<(&'static str, AttackCfg)> {
    let model = |attack: ModelAttack| AttackCfg::Model {
        attack,
        proportion: 0.25,
        placement: Placement::Prefix,
    };
    vec![
        ("none", AttackCfg::None),
        ("mimic", model(ModelAttack::Mimic { victim: 0 })),
        ("scaling", model(ModelAttack::Scaling { factor: -10.0 })),
        ("minmax", model(ModelAttack::MinMax)),
        ("minsum", model(ModelAttack::MinSum)),
    ]
}

fn defenses() -> Vec<(&'static str, AggregatorKind)> {
    vec![
        ("fedavg", AggregatorKind::FedAvg),
        (
            "centered_clip",
            AggregatorKind::CenteredClip { tau: 2.0, iters: 3 },
        ),
        (
            "bucket2+median",
            AggregatorKind::Bucketing {
                s: 2,
                inner: Box::new(AggregatorKind::Median),
            },
        ),
        (
            "nnm3+krum",
            AggregatorKind::Nnm {
                k: 3,
                inner: Box::new(AggregatorKind::Krum { f: 1 }),
            },
        ),
    ]
}

fn body(s: &mut Sweep) {
    let rounds = s.args.effective_rounds(8, 3);
    let defenses = defenses();
    let mut headers = vec!["distribution", "attack"];
    headers.extend(defenses.iter().map(|(name, _)| *name));
    s.table(
        "## Attack–defense gallery — attack × defense × distribution\n",
        &headers,
    );
    for (dist_name, dist) in [
        ("iid", DataDistribution::Iid),
        ("dirichlet", DataDistribution::Dirichlet { alpha: ALPHA }),
    ] {
        for (attack_name, attack) in attacks() {
            s.row([dist_name, attack_name]);
            for (defense_name, kind) in &defenses {
                let mut cfg = HflConfig::quick(attack.clone(), s.args.seed);
                cfg.rounds = rounds;
                cfg.eval_every = rounds;
                cfg.data = data(3_200, 800);
                cfg.distribution = dist.clone();
                // All-BRA levels: the paper's top-level consensus vote
                // would exclude poisoned proposals outright and mask
                // the aggregation-level arms race this grid measures.
                cfg.levels = vec![LevelAgg::Bra(kind.clone()); 3];
                let key = format!("{attack_name},{defense_name},{dist_name}");
                let label = format!("{attack_name}/{defense_name}/{dist_name}");
                s.cell(&label, cfg, RunOptions::new(), accuracy(key));
            }
        }
    }
}
