//! Integration tests for the Scheme 1–4 presets and model variants
//! running through the synchronous driver.

use abd_hfl_core::config::{AttackCfg, HflConfig, ModelCfg};
use abd_hfl_core::run::RunOptions;
use abd_hfl_core::runner::RunResult;
use abd_hfl_core::scheme::Scheme;
use hfl_attacks::{DataAttack, Placement};
use hfl_consensus::ConsensusKind;
use hfl_ml::synth::SynthConfig;
use hfl_robust::AggregatorKind;

fn run(cfg: &HflConfig) -> RunResult {
    RunOptions::new()
        .try_run(cfg)
        .expect("a valid config")
        .result
}

fn fast(attack: AttackCfg, seed: u64) -> HflConfig {
    let mut cfg = HflConfig::quick(attack, seed);
    cfg.rounds = 15;
    cfg.eval_every = 15;
    cfg.data = SynthConfig {
        train_samples: 3_200,
        test_samples: 500,
        ..SynthConfig::default()
    };
    cfg
}

#[test]
fn every_scheme_trains_cleanly() {
    for scheme in Scheme::ALL {
        let mut cfg = fast(AttackCfg::None, 21);
        cfg.levels = scheme.level_aggs(
            3,
            AggregatorKind::MultiKrum { f: 1, m: 3 },
            ConsensusKind::VoteMajority,
        );
        let r = run(&cfg);
        assert!(
            r.final_accuracy > 0.6,
            "{} clean run failed: {}",
            scheme.name(),
            r.final_accuracy
        );
    }
}

#[test]
fn scheme1_beats_scheme3_under_heavy_attack() {
    // Table IV: Scheme 3 (BRA everywhere) offers only intermediate
    // robustness; Scheme 1's consensus top rescues the heavy-attack case.
    let attack = AttackCfg::Data {
        attack: DataAttack::type_i(),
        proportion: 0.45,
        placement: Placement::Prefix,
    };
    let run_scheme = |scheme: Scheme| {
        let mut cfg = fast(attack.clone(), 22);
        cfg.levels = scheme.level_aggs(
            3,
            AggregatorKind::MultiKrum { f: 1, m: 3 },
            ConsensusKind::VoteMajority,
        );
        run(&cfg).final_accuracy
    };
    let s1 = run_scheme(Scheme::Scheme1);
    let s3 = run_scheme(Scheme::Scheme3);
    assert!(s1 > s3 + 0.15, "scheme1 {} vs scheme3 {}", s1, s3);
}

#[test]
fn scheme4_pays_more_messages_than_scheme3() {
    let bytes_of = |scheme: Scheme| {
        let mut cfg = fast(AttackCfg::None, 23);
        cfg.rounds = 3;
        cfg.eval_every = 3;
        cfg.levels = scheme.level_aggs(
            3,
            AggregatorKind::MultiKrum { f: 1, m: 3 },
            ConsensusKind::VoteMajority,
        );
        run(&cfg).bytes
    };
    assert!(
        bytes_of(Scheme::Scheme4) > bytes_of(Scheme::Scheme3),
        "Table IV cost ranking violated"
    );
}

#[test]
fn mlp_model_runs_through_the_full_stack() {
    let mut cfg = fast(AttackCfg::None, 24);
    cfg.model = ModelCfg::Mlp { hidden: 16 };
    cfg.sgd.lr = 0.3;
    let r = run(&cfg);
    assert!(r.final_accuracy > 0.5, "MLP run: {}", r.final_accuracy);
}

#[test]
fn mlp_survives_type_i_attack() {
    let attack = AttackCfg::Data {
        attack: DataAttack::type_i(),
        proportion: 0.3,
        placement: Placement::Prefix,
    };
    let mut cfg = fast(attack, 25);
    cfg.rounds = 20;
    cfg.eval_every = 20;
    cfg.model = ModelCfg::Mlp { hidden: 16 };
    cfg.sgd.lr = 0.3;
    let r = run(&cfg);
    assert!(
        r.final_accuracy > 0.5,
        "MLP attacked run: {}",
        r.final_accuracy
    );
}

#[test]
fn stake_vote_top_level_works() {
    let mut cfg = fast(AttackCfg::None, 26);
    cfg.levels[0] = abd_hfl_core::config::LevelAgg::Cba(ConsensusKind::StakeVote {
        stakes: vec![1.0, 2.0, 3.0, 4.0],
    });
    let r = run(&cfg);
    assert!(
        r.final_accuracy > 0.6,
        "stake-vote run: {}",
        r.final_accuracy
    );
}

#[test]
fn autogm_partials_work_under_attack() {
    let attack = AttackCfg::Data {
        attack: DataAttack::type_i(),
        proportion: 0.25,
        placement: Placement::Spread,
    };
    let mut cfg = fast(attack, 27);
    cfg.levels[1] = abd_hfl_core::config::LevelAgg::Bra(AggregatorKind::AutoGm { kappa: 3.0 });
    cfg.levels[2] = abd_hfl_core::config::LevelAgg::Bra(AggregatorKind::AutoGm { kappa: 3.0 });
    let r = run(&cfg);
    assert!(r.final_accuracy > 0.6, "AutoGM run: {}", r.final_accuracy);
}
