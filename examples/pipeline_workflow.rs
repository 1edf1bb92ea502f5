//! The asynchronous pipeline learning workflow: run ABD-HFL on the
//! round engine's pipelined schedule and print the per-round timing
//! decomposition (σw, σ, ν) for two flag-level choices — the trade-off
//! of paper §III-D2.
//!
//! ```text
//! cargo run --release --example pipeline_workflow
//! ```

use abd_hfl::core::config::{AttackCfg, HflConfig};
use abd_hfl::core::pipeline::PipelineConfig;
use abd_hfl::core::run::RunOptions;
use abd_hfl::ml::synth::SynthConfig;

fn main() {
    let mut cfg = HflConfig::quick(AttackCfg::None, 3);
    cfg.data = SynthConfig {
        train_samples: 6_400,
        test_samples: 1_000,
        ..SynthConfig::default()
    };
    let pcfg = PipelineConfig {
        rounds: 6,
        ..PipelineConfig::default()
    };

    for flag_level in [1usize, 2] {
        cfg.flag_level = flag_level;
        let res = RunOptions::pipeline(&pcfg).run(&cfg).into_pipeline().0;
        println!(
            "\n=== flag level ℓF = {flag_level} ({} the top) ===",
            if flag_level == 1 {
                "next to"
            } else {
                "far from"
            }
        );
        println!(
            "{:>5}  {:>10}  {:>10}  {:>8}",
            "round", "σw (ms)", "σ (ms)", "ν"
        );
        for r in &res.rounds {
            println!(
                "{:>5}  {:>10.1}  {:>10.1}  {:>8.3}",
                r.round,
                r.sigma_w * 1e3,
                r.sigma * 1e3,
                r.nu
            );
        }
        println!(
            "round period {:.1} ms | total sim time {:.1} ms | messages {} | final accuracy {:.1}%",
            res.mean_period * 1e3,
            res.sim_time_secs * 1e3,
            res.messages,
            res.final_accuracy * 100.0
        );
    }
    println!("\nν = (σp + σg)/σ — the share of aggregation time the pipeline hides");
    println!("(Eq. 3). A flag level closer to the bottom waits less (smaller σw) but");
    println!("relies more on the correction factor when the global model arrives.");
}
