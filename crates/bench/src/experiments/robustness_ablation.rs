//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Vote policy** — the paper's "fewest positive votes" read as
//!    majority-survival vs a fixed exclude-1 top consensus, across the
//!    malicious sweep (why the top level must exclude *all* suspicious
//!    proposals once two subtrees are compromised).
//! 2. **Quorum φ** — accuracy and per-round cost as leaders wait for a
//!    smaller fraction of their cluster (straggler mitigation knob of
//!    Algorithm 4).
//! 3. **Churn** — Assumption 3 stress: rising leave probability.
//! 4. **Partial-aggregation rule** — Multi-Krum vs Median vs GeoMed vs
//!    Trimmed-Mean vs AutoGM inside the hierarchy at a fixed attack.
//! 5. **Model poisoning** — sign-flip ×4, ABD-HFL vs vanilla (an
//!    extension of Table V).

use abd_hfl_core::config::{AttackCfg, HflConfig, LevelAgg};
use abd_hfl_core::run::RunOptions;
use abd_hfl_core::vanilla::paper_vanilla_aggregator;
use hfl_attacks::{ModelAttack, Placement};
use hfl_consensus::ConsensusKind;
use hfl_ml::rng::derive_seed;
use hfl_robust::AggregatorKind;

use super::{accuracy, label_flip, paper};
use crate::report::pct;
use crate::sweep::{Repro, Sweep};

pub(super) const REPRO: Repro = Repro {
    name: "robustness_ablation",
    reproduces: "Vote policy, quorum φ, churn, partial-BRA and model-attack ablations",
    csv: Some((
        "ablations",
        "ablation,setting,attack_proportion,final_accuracy",
    )),
    manifests: None,
    recording: false,
    body,
};

fn body(s: &mut Sweep) {
    let rounds = s.args.effective_rounds(80, 25);
    let seed = s.args.seed;
    let cfg = |p: f64, stream: u64| paper(label_flip(true, p), derive_seed(seed, stream), rounds);

    s.table(
        "## Ablation 1 — top-level vote policy (Type I sweep)\n",
        &["vote policy", "30%", "45%", "57.8%"],
    );
    for (name, kind) in [
        (
            "majority-survival (paper reading)",
            ConsensusKind::VoteMajority,
        ),
        ("fixed exclude-1", ConsensusKind::Vote { exclude: 1 }),
    ] {
        s.row([name]);
        for p in [0.3, 0.45, 0.578] {
            let mut c = cfg(p, 0xAB1);
            c.levels[0] = LevelAgg::Cba(kind.clone());
            s.cell(
                &format!("vote/{name}/p{p}"),
                c,
                RunOptions::new(),
                accuracy(format!("vote,{name},{p}")),
            );
        }
    }

    s.table(
        "\n## Ablation 2 — collection quorum φ (clean + 30 % Type I)\n",
        &["quorum", "clean", "30% Type I"],
    );
    for quorum in [1.0, 0.75, 0.5] {
        s.row([format!("φ = {quorum}")]);
        for p in [0.0, 0.3] {
            let c = HflConfig {
                quorum,
                ..cfg(p, 0xAB2)
            };
            s.cell(
                &format!("quorum/{quorum}/p{p}"),
                c,
                RunOptions::new(),
                accuracy(format!("quorum,{quorum},{p}")),
            );
        }
    }

    s.table(
        "\n## Ablation 3 — client churn (Assumption 3), clean runs\n",
        &["leave prob", "accuracy", "total absences"],
    );
    for leave in [0.0, 0.1, 0.3, 0.5] {
        let c = HflConfig {
            churn_leave_prob: leave,
            ..cfg(0.0, 0xAB3)
        };
        s.row([format!("{:.0}%", leave * 100.0)]);
        s.cell(&format!("churn/{leave}"), c, RunOptions::new(), |o| {
            let csv = format!("churn,{leave},0.0,{:.4}", o.result.final_accuracy);
            (
                csv,
                [
                    pct(o.result.final_accuracy),
                    o.result.absent_total.to_string(),
                ],
            )
        });
    }

    s.table(
        "\n## Ablation 4 — partial-aggregation BRA rule (30 % Type I)\n",
        &["partial rule", "accuracy"],
    );
    for (name, kind) in [
        ("multi-krum f=1", AggregatorKind::MultiKrum { f: 1, m: 3 }),
        ("median", AggregatorKind::Median),
        (
            "trimmed-mean 25%",
            AggregatorKind::TrimmedMean { ratio: 0.25 },
        ),
        ("geomed", AggregatorKind::GeoMed),
        ("autogm", AggregatorKind::AutoGm { kappa: 3.0 }),
        (
            "centered-clip",
            AggregatorKind::CenteredClip { tau: 1.0, iters: 3 },
        ),
        ("fedavg (none)", AggregatorKind::FedAvg),
    ] {
        let mut c = cfg(0.3, 0xAB4);
        c.levels[1] = LevelAgg::Bra(kind.clone());
        c.levels[2] = LevelAgg::Bra(kind);
        s.row([name]);
        s.cell(
            &format!("bra/{name}"),
            c,
            RunOptions::new(),
            accuracy(format!("bra,{name},0.3")),
        );
    }

    s.table(
        "\n## Ablation 5 — model poisoning (sign-flip ×4), ABD-HFL vs vanilla\n",
        &["malicious", "ABD-HFL", "vanilla multi-krum"],
    );
    for p in [0.1, 0.25, 0.4, 0.5] {
        let c = HflConfig {
            attack: AttackCfg::Model {
                attack: ModelAttack::SignFlip { scale: 4.0 },
                proportion: p,
                placement: Placement::Spread,
            },
            ..cfg(0.0, 0xAB5)
        };
        s.row([format!("{:.0}%", p * 100.0)]);
        let vanilla = c.star(paper_vanilla_aggregator(true, 64));
        for (model, cfg) in [("abd", c), ("vanilla", vanilla)] {
            let label = format!("modelattack/{model}/p{p}");
            let csv = format!("modelattack,{model},{p}");
            s.cell(&label, cfg, RunOptions::new(), accuracy(csv));
        }
    }
}
