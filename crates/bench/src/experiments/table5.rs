//! **Table V** — final testing accuracy of ABD-HFL vs vanilla FL under
//! data-poisoning attacks.
//!
//! Grid: {IID, non-IID} × {Type I, Type II} × {ABD-HFL, Vanilla} ×
//! malicious proportion ∈ {0, 5, 10, 20, 30, 40, 50, 57.8, 65} %, five
//! repetitions each (the paper's protocol).

use abd_hfl_core::config::HflConfig;
use abd_hfl_core::run::RunOptions;
use abd_hfl_core::vanilla::paper_vanilla_aggregator;
use hfl_ml::rng::derive_seed;

use super::{label_flip, lines, mean};
use crate::report::pct;
use crate::sweep::{Labels, Repro, Sweep};

pub(super) const REPRO: Repro = Repro {
    name: "table5",
    reproduces: "Table V — final test accuracy grid",
    csv: Some((
        "table5",
        "distribution,attack,model,proportion,rep,final_accuracy",
    )),
    manifests: Some(Labels::Cell),
    recording: false,
    body,
};

/// The paper's malicious-proportion grid.
const PROPORTIONS: [f64; 9] = [0.0, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50, 0.578, 0.65];

fn body(s: &mut Sweep) {
    let rounds = s.args.effective_rounds(200, 40);
    let reps = s.args.effective_reps(5, 2);
    let seed = s.args.seed;
    let proportions = PROPORTIONS.map(|p| format!("{:.1}%", p * 100.0));
    let mut headers = vec!["dist", "attack", "model"];
    headers.extend(proportions.iter().map(String::as_str));
    s.table(
        "\n## Table V — final testing accuracy on global models\n",
        &headers,
    );
    for iid in [true, false] {
        for type_i in [true, false] {
            let dist = if iid { "iid" } else { "noniid" };
            let atk = if type_i { "type1" } else { "type2" };
            for abd in [true, false] {
                let model = if abd { "abd-hfl" } else { "vanilla" };
                s.row([dist, atk, model]);
                for p in PROPORTIONS {
                    let runs = (0..reps).map(|rep| {
                        let seed = derive_seed(
                            seed,
                            (rep as u64) << 32
                                | (p * 1000.0) as u64
                                | u64::from(iid) << 20
                                | u64::from(type_i) << 21,
                        );
                        let base = match iid {
                            true => HflConfig::paper_iid(label_flip(type_i, p), seed),
                            false => HflConfig::paper_noniid(label_flip(type_i, p), seed),
                        };
                        let cfg = HflConfig {
                            rounds,
                            eval_every: rounds, // final accuracy only
                            ..base
                        };
                        let cfg = match abd {
                            true => cfg,
                            false => cfg.star(paper_vanilla_aggregator(iid, 64)),
                        };
                        (cfg, RunOptions::new())
                    });
                    s.repeated(&format!("{dist}/{atk}/{model}/p{p}"), runs.collect(), |o| {
                        let csv = o.iter().enumerate().map(|(rep, o)| {
                            format!(
                                "{dist},{atk},{model},{p},{rep},{:.4}",
                                o.result.final_accuracy
                            )
                        });
                        (
                            lines(csv),
                            [pct(mean(o.iter().map(|o| o.result.final_accuracy)))],
                        )
                    });
                }
            }
        }
    }
}
