//! Byzantine-resilience sweep: ABD-HFL vs vanilla FL as the malicious
//! proportion climbs through the theoretical tolerance bound — a
//! miniature of the paper's Table V.
//!
//! ```text
//! cargo run --release --example byzantine_resilience
//! ```

use abd_hfl::attacks::{DataAttack, Placement};
use abd_hfl::core::config::{AttackCfg, ConfigError, HflConfig};
use abd_hfl::core::run::RunOptions;
use abd_hfl::core::theory;
use abd_hfl::core::vanilla::paper_vanilla_aggregator;

fn main() -> Result<(), ConfigError> {
    let proportions = [0.0, 0.2, 0.4, 0.578, 0.65];
    let bound = theory::paper_tolerance_bound();

    println!("Type I label-flip attack, 64 clients, 40 rounds (reduced for the example)");
    println!("Theorem 2 tolerance bound: {:.2}%\n", bound * 100.0);
    println!("{:>10}  {:>10}  {:>10}", "malicious", "ABD-HFL", "vanilla");

    for p in proportions {
        let attack = if p == 0.0 {
            AttackCfg::None
        } else {
            AttackCfg::Data {
                attack: DataAttack::type_i(),
                proportion: p,
                placement: Placement::Prefix,
            }
        };
        let mut cfg = HflConfig::quick(attack, 7);
        cfg.rounds = 40;
        cfg.eval_every = 40;
        let abd = RunOptions::new().try_run(&cfg)?.result;
        let vanilla = RunOptions::new().try_run(&cfg.star(paper_vanilla_aggregator(true, 64)))?;
        let marker = if p > bound { " (beyond bound)" } else { "" };
        println!(
            "{:>9.1}%  {:>9.1}%  {:>9.1}%{marker}",
            p * 100.0,
            abd.final_accuracy * 100.0,
            vanilla.result.final_accuracy * 100.0
        );
    }
    println!("\nVanilla Multi-Krum assumes 25% malicious and collapses past it;");
    println!("ABD-HFL's layer-by-layer filtering plus top-level voting holds to the bound.");
    Ok(())
}
