//! The **Theorem 2 tolerance analysis** (§IV-B, §V-A) and
//! **Corollary 3** (more levels ⇒ more tolerance), and the 57.8125 %
//! bound verified empirically: accuracy as the malicious proportion
//! crosses the bound, for 2/3/4-level hierarchies over the same 64
//! clients.

use abd_hfl_core::config::{AttackCfg, LevelAgg, TopologyCfg};
use abd_hfl_core::run::RunOptions;
use abd_hfl_core::theory;
use hfl_attacks::{DataAttack, Placement};
use hfl_ml::rng::derive_seed;
use hfl_robust::AggregatorKind;

use super::{lines, mean, paper};
use crate::report::pct;
use crate::sweep::{Repro, Sweep};

pub(super) const REPRO: Repro = Repro {
    name: "tolerance",
    reproduces: "Theorem 2 / Corollary 3 — tolerance bounds vs. empirical",
    csv: Some((
        "tolerance",
        "levels,m,n_top,case,proportion,rep,final_accuracy",
    )),
    manifests: None,
    recording: false,
    body,
};

fn body(s: &mut Sweep) {
    let rounds = s.args.effective_rounds(100, 30);
    let reps = s.args.effective_reps(3, 1);

    // --- Analytic table: Theorem 2 across levels -----------------------
    s.table(
        "## Theorem 2 — maximum tolerated Byzantine proportion (γ1 = γ2 = 25 %)\n",
        &[
            "level ℓ",
            "max ratio",
            "max count (Nt=4, m=4)",
            "level size",
        ],
    );
    for level in 0..5usize {
        s.row([
            level.to_string(),
            format!(
                "{:.4}%",
                theory::theorem2_max_byzantine_ratio(0.25, 0.25, level) * 100.0
            ),
            format!(
                "{:.1}",
                theory::theorem2_max_byzantine_count(4, 4, 0.25, 0.25, level)
            ),
            theory::corollary1_level_size(4, 4, level).to_string(),
        ]);
    }
    s.say(format!(
        "Paper's §V-A bound at the bottom (ℓ = 2): {:.4} %\n",
        theory::paper_tolerance_bound() * 100.0
    ));

    // --- Theorem 2 / Corollary 3, empirically --------------------------
    // Same 64 clients in shapes (levels, m, n_top) with n_top·m^L = 64.
    // Adversaries are placed per Definition 4 (p-ratio trees): γ1·Nt top
    // subtrees fully Byzantine, ⌊γ2·m⌋ Byzantine members per honest
    // cluster. "At bound" saturates Theorem 2 exactly; "beyond" pushes
    // one extra Byzantine member into every honest cluster, violating γ2
    // (every shape has m > ⌊m/4⌋ + 1, so "beyond" is always placeable).
    // The top level uses BRA too (Scheme 3): a validation-vote top with
    // clean test shards would rescue any topology and mask the structure.
    s.table(
        "## Theorem 2 / Corollary 3 — Definition 4 placement, Type I attack\n",
        &[
            "structure",
            "at-bound proportion",
            "at-bound accuracy",
            "beyond proportion",
            "beyond accuracy",
        ],
    );
    for (levels, m, n_top) in [(2usize, 16usize, 4usize), (3, 4, 4), (4, 2, 8)] {
        let topology = TopologyCfg::Ecsm {
            total_levels: levels,
            m,
            n_top,
        };
        let h = topology.build(0);
        s.row([format!("{levels}-level")]);
        for (case, per_cluster) in [("at-bound", m / 4), ("beyond", m / 4 + 1)] {
            let mask = theory::definition4_placement(&h, n_top / 4, per_cluster);
            let proportion = mask.iter().filter(|b| **b).count() as f64 / mask.len() as f64;
            let runs = (0..reps).map(|rep| {
                let seed = derive_seed(s.args.seed, 0x701 + ((rep as u64) << 16) + levels as u64);
                let attack = AttackCfg::Data {
                    attack: DataAttack::type_i(),
                    proportion,
                    placement: Placement::Prefix,
                };
                let mut cfg = paper(attack, seed, rounds);
                cfg.malicious_override = Some(mask.clone());
                cfg.topology = topology.clone();
                let top_f = (n_top / 4).max(1);
                let f = (m / 4).max(1);
                cfg.levels = std::iter::once(AggregatorKind::MultiKrum {
                    f: top_f,
                    m: n_top - top_f,
                })
                .chain(std::iter::repeat_n(
                    AggregatorKind::MultiKrum { f, m: m - f },
                    levels - 1,
                ))
                .map(LevelAgg::Bra)
                .collect();
                cfg.flag_level = 1;
                (cfg, RunOptions::new())
            });
            let runs = runs.collect();
            s.repeated(&format!("{levels}-level/{case}"), runs, |o| {
                let csv = o.iter().enumerate().map(|(rep, o)| {
                    format!(
                        "{levels},{m},{n_top},{case},{proportion:.4},{rep},{:.4}",
                        o.result.final_accuracy
                    )
                });
                let accuracy = pct(mean(o.iter().map(|o| o.result.final_accuracy)));
                (
                    lines(csv),
                    [format!("{:.1}%", proportion * 100.0), accuracy],
                )
            });
        }
    }
}
