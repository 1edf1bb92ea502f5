//! The four Byzantine-setting combinations of Table III, quantified:
//! accuracy under attack and communication cost per scheme.
//!
//! ```text
//! cargo run --release --example scheme_comparison
//! ```

use abd_hfl::attacks::{DataAttack, Placement};
use abd_hfl::consensus::ConsensusKind;
use abd_hfl::core::config::{AttackCfg, ConfigError, HflConfig};
use abd_hfl::core::run::RunOptions;
use abd_hfl::core::scheme::Scheme;
use abd_hfl::robust::AggregatorKind;

fn main() -> Result<(), ConfigError> {
    let attack = AttackCfg::Data {
        attack: DataAttack::type_i(),
        proportion: 0.4,
        placement: Placement::Prefix,
    };

    println!("Type I attack @ 40% malicious, 30 rounds (reduced for the example)\n");
    println!(
        "{:<38}  {:>9}  {:>10}  {:>10}",
        "scheme", "accuracy", "messages", "MiB"
    );

    for scheme in Scheme::ALL {
        let mut cfg = HflConfig::quick(attack.clone(), 11);
        cfg.rounds = 30;
        cfg.eval_every = 30;
        cfg.levels = scheme.level_aggs(
            3,
            AggregatorKind::MultiKrum { f: 1, m: 3 },
            ConsensusKind::VoteMajority,
        );
        let r = RunOptions::new().try_run(&cfg)?.result;
        println!(
            "{:<38}  {:>8.1}%  {:>10}  {:>10.1}",
            scheme.name(),
            r.final_accuracy * 100.0,
            r.messages,
            r.bytes as f64 / (1024.0 * 1024.0)
        );
    }
    println!("\nTable IV's qualitative ranking: scheme 4 most robust & most expensive,");
    println!("scheme 3 cheapest; schemes 1/2 balance the two (the paper evaluates 1).");
    Ok(())
}
