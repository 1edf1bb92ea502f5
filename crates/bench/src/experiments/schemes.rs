//! **Tables III / IV** — the four BRA/CBA scheme combinations, measured
//! on the same workload: final accuracy under a fixed Type I attack
//! (robustness) and total communication cost (messages / bytes).
//!
//! The paper gives these qualitatively; this experiment quantifies them
//! so the ranking can be checked (Scheme 4 most robust & most expensive,
//! Scheme 3 cheapest).

use abd_hfl_core::run::RunOptions;
use abd_hfl_core::scheme::Scheme;
use hfl_consensus::ConsensusKind;
use hfl_ml::rng::derive_seed;
use hfl_robust::AggregatorKind;

use super::{label_flip, lines, mean, paper};
use crate::report::pct;
use crate::sweep::{Repro, Sweep};

pub(super) const REPRO: Repro = Repro {
    name: "schemes",
    reproduces: "Tables III–IV — the four scheme combinations",
    csv: Some(("schemes", "scheme,rep,final_accuracy,messages,bytes")),
    manifests: None,
    recording: false,
    body,
};

fn body(s: &mut Sweep) {
    let rounds = s.args.effective_rounds(100, 30);
    let reps = s.args.effective_reps(3, 1);
    s.table(
        "\n## Tables III/IV — scheme combinations (Type I @ 40 % malicious)\n",
        &[
            "scheme",
            "accuracy",
            "messages",
            "bytes",
            "robustness rank (Table IV)",
            "cost rank (Table IV)",
        ],
    );
    for scheme in Scheme::ALL {
        let label = format!("{scheme:?}");
        let runs = (0..reps).map(|rep| {
            let seed = derive_seed(s.args.seed, 0x5C4E + ((rep as u64) << 8));
            let mut cfg = paper(label_flip(true, 0.4), seed, rounds);
            cfg.levels = scheme.level_aggs(
                3,
                AggregatorKind::MultiKrum { f: 1, m: 3 },
                ConsensusKind::VoteMajority,
            );
            (cfg, RunOptions::new())
        });
        let runs = runs.collect();
        s.row([scheme.name()]);
        s.repeated(&label, runs, |o| {
            let csv = o.iter().enumerate().map(|(rep, o)| {
                let r = &o.result;
                format!(
                    "{label},{rep},{:.4},{},{}",
                    r.final_accuracy, r.messages, r.bytes
                )
            });
            let accuracy = pct(mean(o.iter().map(|o| o.result.final_accuracy)));
            let messages = mean(o.iter().map(|o| o.result.messages as f64));
            let bytes = mean(o.iter().map(|o| o.result.bytes as f64));
            let columns = [
                accuracy,
                format!("{messages:.0}"),
                format!("{:.1} MiB", bytes / (1024.0 * 1024.0)),
                scheme.robustness_rank().to_string(),
                scheme.cost_rank().to_string(),
            ];
            (lines(csv), columns)
        });
    }
}
