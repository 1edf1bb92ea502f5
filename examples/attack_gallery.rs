//! A gallery of every Byzantine attack in Table I, each run briefly
//! against (a) undefended vanilla averaging and (b) ABD-HFL — a compact
//! tour of the threat model and the defense.
//!
//! ```text
//! cargo run --release --example attack_gallery
//! ```

use abd_hfl::attacks::{DataAttack, ModelAttack, Placement};
use abd_hfl::core::config::{AttackCfg, ConfigError, HflConfig};
use abd_hfl::core::run::RunOptions;
use abd_hfl::robust::AggregatorKind;

fn main() -> Result<(), ConfigError> {
    let p = 0.3;
    let place = Placement::Prefix;
    let attacks: Vec<(&str, AttackCfg)> = vec![
        ("none (baseline)", AttackCfg::None),
        (
            "label flip → 9 (Type I)",
            AttackCfg::Data {
                attack: DataAttack::type_i(),
                proportion: p,
                placement: place,
            },
        ),
        (
            "random labels (Type II)",
            AttackCfg::Data {
                attack: DataAttack::type_ii(),
                proportion: p,
                placement: place,
            },
        ),
        (
            "feature noise σ=4",
            AttackCfg::Data {
                attack: DataAttack::FeatureNoise { std: 4.0 },
                proportion: p,
                placement: place,
            },
        ),
        (
            "backdoor trigger",
            AttackCfg::Data {
                attack: DataAttack::BackdoorTrigger {
                    offset: 0,
                    width: 8,
                    value: 6.0,
                    target: 7,
                    fraction: 0.5,
                },
                proportion: p,
                placement: place,
            },
        ),
        (
            "sign flip ×4",
            AttackCfg::Model {
                attack: ModelAttack::SignFlip { scale: 4.0 },
                proportion: p,
                placement: place,
            },
        ),
        (
            "Gaussian noise σ=2",
            AttackCfg::Model {
                attack: ModelAttack::GaussianNoise { std: 2.0 },
                proportion: p,
                placement: place,
            },
        ),
        (
            "ALIE z=2",
            AttackCfg::Model {
                attack: ModelAttack::Alie { z: 2.0 },
                proportion: p,
                placement: place,
            },
        ),
        (
            "IPM ε=0.8",
            AttackCfg::Model {
                attack: ModelAttack::Ipm { epsilon: 0.8 },
                proportion: p,
                placement: place,
            },
        ),
    ];

    println!("Every Table I attack at 30% malicious, 20 rounds (reduced for the example)\n");
    println!(
        "{:<26}  {:>16}  {:>10}",
        "attack", "vanilla (FedAvg)", "ABD-HFL"
    );
    for (name, attack) in attacks {
        let mut cfg = HflConfig::quick(attack, 31);
        cfg.rounds = 20;
        cfg.eval_every = 20;
        let vanilla = RunOptions::new().try_run(&cfg.star(AggregatorKind::FedAvg))?;
        let abd = RunOptions::new().try_run(&cfg)?;
        println!(
            "{:<26}  {:>15.1}%  {:>9.1}%",
            name,
            vanilla.result.final_accuracy * 100.0,
            abd.result.final_accuracy * 100.0
        );
    }
    println!("\nUndefended averaging is the damage meter; ABD-HFL's hierarchy");
    println!("(Multi-Krum clusters + validation-vote top) absorbs each attack.");
    Ok(())
}
