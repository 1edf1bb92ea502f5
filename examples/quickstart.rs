//! Quickstart: train an ABD-HFL hierarchy under a 30 % label-flipping
//! attack and watch it hold while plain averaging would collapse.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use abd_hfl::attacks::{DataAttack, Placement};
use abd_hfl::core::config::{AttackCfg, ConfigError, HflConfig};
use abd_hfl::core::run::RunOptions;
use abd_hfl::core::theory;

fn main() -> Result<(), ConfigError> {
    // The paper's topology: 3 levels, clusters of 4, 4 top nodes, 64
    // clients — with 30 % of clients flipping all their labels to "9".
    let attack = AttackCfg::Data {
        attack: DataAttack::type_i(),
        proportion: 0.30,
        placement: Placement::Prefix,
    };
    // `quick` shrinks the dataset and round count so this example runs in
    // seconds; `HflConfig::paper_iid` is the full Table V configuration.
    let mut cfg = HflConfig::quick(attack, 42);
    cfg.rounds = 40;
    cfg.eval_every = 10;

    println!("ABD-HFL quickstart — 64 clients, 30% Byzantine (Type I label flip)");
    println!(
        "theoretical tolerance of this structure: {:.2}% (Theorem 2)",
        theory::paper_tolerance_bound() * 100.0
    );

    let result = RunOptions::new().try_run(&cfg)?.result;
    println!("\nround  test-accuracy");
    for (round, acc) in &result.accuracy {
        println!("{round:>5}  {:.1}%", acc * 100.0);
    }
    println!(
        "\nfinal accuracy: {:.1}%  (messages: {}, payload: {:.1} MiB, proposals excluded by consensus: {})",
        result.final_accuracy * 100.0,
        result.messages,
        result.bytes as f64 / (1024.0 * 1024.0),
        result.excluded_total,
    );
    Ok(())
}
