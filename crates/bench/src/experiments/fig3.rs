//! **Figure 3** — convergence curves (test accuracy vs global round)
//! with 5-run confidence bands, ABD-HFL vs vanilla FL, for the
//! data-poisoning scenarios of the paper.
//!
//! Writes one CSV per scenario, `fig3_<dist>_<attack>_p<percent>.csv`,
//! with columns
//! `round,abd_mean,abd_lo,abd_hi,vanilla_mean,vanilla_lo,vanilla_hi`.

use abd_hfl_core::config::HflConfig;
use abd_hfl_core::run::RunOptions;
use abd_hfl_core::runner::RunOutput;
use abd_hfl_core::vanilla::paper_vanilla_aggregator;
use hfl_ml::rng::derive_seed;

use super::label_flip;
use crate::ci::summarize_series;
use crate::report::{csv, write_or_exit};
use crate::sweep::{Repro, Sweep};

pub(super) const REPRO: Repro = Repro {
    name: "fig3",
    reproduces: "Figure 3 — convergence curves with confidence bands",
    csv: None,
    manifests: None,
    recording: false,
    body,
};

/// The scenarios Figure 3 plots (proportions of malicious clients).
const SCENARIOS: [f64; 4] = [0.0, 0.30, 0.50, 0.65];

fn body(s: &mut Sweep) {
    let rounds = s.args.effective_rounds(200, 40);
    let reps = s.args.effective_reps(5, 2);
    let eval_every = if rounds >= 100 { 5 } else { 1 };
    for iid in [true, false] {
        for type_i in [true, false] {
            let dist = if iid { "iid" } else { "noniid" };
            let atk = if type_i { "type1" } else { "type2" };
            for p in SCENARIOS {
                let label = format!("{dist}/{atk}/p{}", (p * 100.0) as u32);
                let cfgs: Vec<HflConfig> = (0..reps)
                    .map(|rep| {
                        let seed = derive_seed(s.args.seed, 0xF163 + ((rep as u64) << 8));
                        let base = match iid {
                            true => HflConfig::paper_iid(label_flip(type_i, p), seed),
                            false => HflConfig::paper_noniid(label_flip(type_i, p), seed),
                        };
                        HflConfig {
                            rounds,
                            eval_every,
                            ..base
                        }
                    })
                    .collect();
                let rule = paper_vanilla_aggregator(iid, 64);
                let abd_runs = cfgs.iter().map(|c| (c.clone(), RunOptions::new()));
                let van_runs = cfgs
                    .iter()
                    .map(|c| (c.star(rule.clone()), RunOptions::new()));
                let (Some(abd), Some(van)) = (
                    s.outcomes(&format!("{label}/abd-hfl"), abd_runs.collect(), false),
                    s.outcomes(&format!("{label}/vanilla"), van_runs.collect(), false),
                ) else {
                    continue;
                };
                let curves = |runs: &[RunOutput]| -> Vec<Vec<f64>> {
                    let curve = |o: &RunOutput| o.result.accuracy.iter().map(|(_, a)| *a).collect();
                    runs.iter().map(curve).collect()
                };
                let (abd_band, van_band) = (
                    summarize_series(&curves(&abd)),
                    summarize_series(&curves(&van)),
                );
                let rows: Vec<String> = abd[0]
                    .result
                    .accuracy
                    .iter()
                    .zip(abd_band.iter().zip(&van_band))
                    .map(|((r, _), (a, v))| {
                        format!(
                            "{r},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
                            a.mean,
                            a.lo(),
                            a.hi(),
                            v.mean,
                            v.lo(),
                            v.hi()
                        )
                    })
                    .collect();
                let header = "round,abd_mean,abd_lo,abd_hi,vanilla_mean,vanilla_lo,vanilla_hi";
                let file = format!("fig3_{dist}_{atk}_p{}.csv", (p * 100.0) as u32);
                write_or_exit(s.args.out_dir(), &file, &csv(header, &rows));
            }
        }
    }
}
