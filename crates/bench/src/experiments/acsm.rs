//! The **ACSM analysis** (Appendix C, Theorem 3): on random
//! arbitrary-cluster-size hierarchies, the tolerated Byzantine share of a
//! level is governed by the *relative reliable number* ψ — the fraction
//! of the level's nodes living in honest clusters.
//!
//! The experiment poisons whole bottom clusters (making them Byzantine
//! clusters per Definition 5) to sweep ψ, and measures final accuracy.
//! The transition should track `1 − (1−γ₂)·ψ` qualitatively: accuracy
//! holds while the realized Byzantine share stays below the bound and
//! collapses beyond it.

use abd_hfl_core::config::{AttackCfg, LevelAgg, TopologyCfg};
use abd_hfl_core::run::RunOptions;
use abd_hfl_core::theory;
use hfl_attacks::{DataAttack, Placement};
use hfl_consensus::ConsensusKind;
use hfl_ml::rng::derive_seed;
use hfl_robust::AggregatorKind;

use super::{lines, mean, paper};
use crate::report::pct;
use crate::sweep::{Repro, Sweep};

pub(super) const REPRO: Repro = Repro {
    name: "acsm",
    reproduces: "Appendix C / Theorem 3 — arbitrary cluster sizes, accuracy vs ψ",
    csv: Some((
        "acsm",
        "honest_cluster_frac,psi,proportion,rep,final_accuracy",
    )),
    manifests: None,
    recording: false,
    body,
};

fn body(s: &mut Sweep) {
    let rounds = s.args.effective_rounds(80, 25);
    let reps = s.args.effective_reps(3, 1);
    s.table(
        "\n## ACSM / Theorem 3 — random hierarchies, whole-cluster poisoning\n",
        &[
            "honest clusters",
            "ψ (bottom)",
            "Thm-3 bound (γ2=50%)",
            "realized Byzantine share",
            "accuracy",
        ],
    );
    // ψ sweep: fraction of bottom clusters kept honest.
    for honest_cluster_frac in [1.0f64, 0.8, 0.6, 0.4] {
        let (mut psis, mut props, mut runs) = (Vec::new(), Vec::new(), Vec::new());
        for rep in 0..reps {
            let seed = derive_seed(s.args.seed, 0xAC5 + ((rep as u64) << 8));
            let topology = TopologyCfg::AcsmRandom {
                n_bottom: 64,
                total_levels: 3,
                min_size: 3,
                max_size: 8,
            };
            let h = topology.build(seed);
            let clusters = &h.level(h.bottom_level()).clusters;
            // Poison the trailing clusters wholesale.
            let n_honest = ((clusters.len() as f64) * honest_cluster_frac).round() as usize;
            let mut mask = vec![false; h.num_clients()];
            for c in clusters.iter().skip(n_honest) {
                for &m in &c.members {
                    mask[m] = true;
                }
            }
            let sizes: Vec<usize> = clusters.iter().map(|c| c.len()).collect();
            let honest_flags: Vec<bool> = (0..clusters.len()).map(|i| i < n_honest).collect();
            psis.push(theory::relative_reliable_number(&sizes, &honest_flags));
            let proportion = mask.iter().filter(|b| **b).count() as f64 / mask.len() as f64;
            props.push(proportion);

            let attack = AttackCfg::Data {
                attack: DataAttack::type_i(),
                proportion,
                placement: Placement::Prefix,
            };
            let mut cfg = paper(attack, seed, rounds);
            cfg.malicious_override = Some(mask);
            cfg.topology = topology;
            cfg.levels = vec![
                LevelAgg::Cba(ConsensusKind::VoteMajority),
                LevelAgg::Bra(AggregatorKind::Median),
                LevelAgg::Bra(AggregatorKind::Median),
            ];
            runs.push((cfg, RunOptions::new()));
        }
        s.row([format!("{:.0}%", honest_cluster_frac * 100.0)]);
        s.repeated(&format!("honest{honest_cluster_frac}"), runs, |o| {
            let csv = o.iter().enumerate().map(|(rep, o)| {
                let (psi, proportion) = (psis[rep], props[rep]);
                format!(
                    "{honest_cluster_frac},{psi:.4},{proportion:.4},{rep},{:.4}",
                    o.result.final_accuracy
                )
            });
            let psi = mean(psis.iter().copied());
            let bound = theory::theorem3_max_byzantine_ratio(0.5, psi, false);
            let columns = [
                format!("{psi:.3}"),
                format!("{:.1}%", bound * 100.0),
                format!("{:.1}%", mean(props.iter().copied()) * 100.0),
                pct(mean(o.iter().map(|o| o.result.final_accuracy))),
            ];
            (lines(csv), columns)
        });
    }
}
