//! Cross-crate integration tests: the full ABD-HFL stack end to end,
//! exercising every subsystem together (data generation → partitioning →
//! attacks → local SGD → hierarchical robust aggregation → consensus →
//! evaluation).

use abd_hfl::attacks::{DataAttack, ModelAttack, Placement};
use abd_hfl::consensus::ConsensusKind;
use abd_hfl::core::config::{AttackCfg, HflConfig, LevelAgg, TopologyCfg};
use abd_hfl::core::run::RunOptions;
use abd_hfl::core::runner::{run_prepared_with, Experiment, RunResult};
use abd_hfl::core::theory;
use abd_hfl::core::vanilla::paper_vanilla_aggregator;
use abd_hfl::ml::synth::SynthConfig;
use abd_hfl::robust::AggregatorKind;
use abd_hfl::telemetry::Telemetry;

fn run(cfg: &HflConfig) -> RunResult {
    RunOptions::new()
        .try_run(cfg)
        .expect("a valid config")
        .result
}

fn fast(attack: AttackCfg, seed: u64) -> HflConfig {
    let mut cfg = HflConfig::quick(attack, seed);
    cfg.rounds = 25;
    cfg.eval_every = 25;
    cfg
}

#[test]
fn headline_result_abd_beats_vanilla_beyond_its_tolerance() {
    // The paper's headline contrast at 50 % Type I (Table V): ABD-HFL
    // ~90 %, vanilla Multi-Krum ~10 %.
    let attack = AttackCfg::Data {
        attack: DataAttack::type_i(),
        proportion: 0.5,
        placement: Placement::Prefix,
    };
    let cfg = fast(attack, 101);
    let abd = run(&cfg);
    let vanilla = run(&cfg.star(paper_vanilla_aggregator(true, 64)));
    assert!(
        abd.final_accuracy > 0.8,
        "ABD-HFL degraded: {}",
        abd.final_accuracy
    );
    assert!(
        vanilla.final_accuracy < 0.6,
        "vanilla should collapse: {}",
        vanilla.final_accuracy
    );
    assert!(abd.final_accuracy > vanilla.final_accuracy + 0.3);
}

#[test]
fn clean_runs_match_between_topologies() {
    // Paper Table V at 0 %: ABD-HFL ≈ vanilla (hierarchy costs nothing).
    let cfg = fast(AttackCfg::None, 102);
    let abd = run(&cfg);
    let vanilla = run(&cfg.star(paper_vanilla_aggregator(true, 64)));
    assert!(
        (abd.final_accuracy - vanilla.final_accuracy).abs() < 0.05,
        "clean accuracies diverge: {} vs {}",
        abd.final_accuracy,
        vanilla.final_accuracy
    );
}

#[test]
fn noniid_pipeline_works_end_to_end() {
    let attack = AttackCfg::Data {
        attack: DataAttack::type_ii(),
        proportion: 0.3,
        placement: Placement::Prefix,
    };
    let mut cfg = HflConfig::paper_noniid(attack, 103);
    cfg.rounds = 30;
    cfg.eval_every = 30;
    cfg.data = SynthConfig {
        train_samples: 6_400,
        test_samples: 1_000,
        ..SynthConfig::default()
    };
    let r = run(&cfg);
    assert!(
        r.final_accuracy > 0.5,
        "non-IID run too weak: {}",
        r.final_accuracy
    );
}

#[test]
fn model_poisoning_is_filtered_by_the_hierarchy() {
    // Sign-flip from 25 % of clients: Multi-Krum clusters + vote top must
    // keep the model training.
    let attack = AttackCfg::Model {
        attack: ModelAttack::SignFlip { scale: 4.0 },
        proportion: 0.25,
        placement: Placement::Spread,
    };
    let cfg = fast(attack, 104);
    let r = run(&cfg);
    assert!(
        r.final_accuracy > 0.75,
        "sign-flip broke ABD-HFL: {}",
        r.final_accuracy
    );
}

#[test]
fn definition4_at_bound_holds_beyond_breaks() {
    // Theorem 2 empirically, at integration scope: Scheme-3 (BRA
    // everywhere) on the paper topology with Definition 4 placement.
    let h = abd_hfl::simnet::Hierarchy::ecsm(3, 4, 4);
    let scheme3_levels = vec![
        LevelAgg::Bra(AggregatorKind::MultiKrum { f: 1, m: 3 }),
        LevelAgg::Bra(AggregatorKind::MultiKrum { f: 1, m: 3 }),
        LevelAgg::Bra(AggregatorKind::MultiKrum { f: 1, m: 3 }),
    ];

    let run_with = |per_cluster: usize, seed: u64| {
        let mask = theory::definition4_placement(&h, 1, per_cluster);
        let proportion = mask.iter().filter(|b| **b).count() as f64 / mask.len() as f64;
        let mut cfg = fast(
            AttackCfg::Data {
                attack: DataAttack::type_i(),
                proportion,
                placement: Placement::Prefix,
            },
            seed,
        );
        cfg.malicious_override = Some(mask);
        cfg.levels = scheme3_levels.clone();
        run(&cfg).final_accuracy
    };

    let at_bound = run_with(1, 105); // 57.8 % Byzantine, γ2 respected
    let beyond = run_with(2, 105); // 81 % Byzantine, γ2 violated
    assert!(at_bound > 0.8, "at-bound run collapsed: {at_bound}");
    assert!(beyond < 0.4, "beyond-bound run survived: {beyond}");
}

#[test]
fn acsm_topology_trains() {
    let mut cfg = fast(AttackCfg::None, 106);
    cfg.topology = TopologyCfg::AcsmRandom {
        n_bottom: 60,
        total_levels: 3,
        min_size: 3,
        max_size: 8,
    };
    cfg.levels = vec![
        LevelAgg::Cba(ConsensusKind::VoteMajority),
        LevelAgg::Bra(AggregatorKind::Median),
        LevelAgg::Bra(AggregatorKind::Median),
    ];
    let r = run(&cfg);
    assert!(r.final_accuracy > 0.7, "ACSM run: {}", r.final_accuracy);
}

#[test]
fn experiment_reuse_is_equivalent_to_fresh_runs() {
    let cfg = fast(AttackCfg::None, 107);
    let exp = Experiment::try_prepare(&cfg).expect("a valid config");
    let a = run_prepared_with(&exp, &Telemetry::disabled()).result;
    let b = run(&cfg);
    assert_eq!(a.final_accuracy, b.final_accuracy);
    assert_eq!(a.messages, b.messages);
}

#[test]
fn all_consensus_backends_complete_a_round() {
    for kind in [
        ConsensusKind::VoteMajority,
        ConsensusKind::Vote { exclude: 1 },
        ConsensusKind::Committee {
            size: 3,
            exclude: 1,
        },
        ConsensusKind::Pbft,
        ConsensusKind::Approx {
            epsilon: 1e-3,
            trim: 1,
        },
        ConsensusKind::StakeVote {
            stakes: vec![1.0, 2.0, 3.0, 4.0],
        },
        ConsensusKind::Gossip { epsilon: 1e-4 },
    ] {
        let mut cfg = fast(AttackCfg::None, 108);
        cfg.rounds = 5;
        cfg.eval_every = 5;
        cfg.levels[0] = LevelAgg::Cba(kind.clone());
        let r = run(&cfg);
        assert!(
            r.final_accuracy > 0.3,
            "{kind:?} run failed: {}",
            r.final_accuracy
        );
    }
}

#[test]
fn all_bra_rules_complete_a_round() {
    for kind in [
        AggregatorKind::FedAvg,
        AggregatorKind::Krum { f: 1 },
        AggregatorKind::MultiKrum { f: 1, m: 3 },
        AggregatorKind::Median,
        AggregatorKind::TrimmedMean { ratio: 0.25 },
        AggregatorKind::GeoMed,
        AggregatorKind::CenteredClip { tau: 2.0, iters: 3 },
        AggregatorKind::CosineClustering { threshold: 0.0 },
    ] {
        let mut cfg = fast(AttackCfg::None, 109);
        cfg.rounds = 5;
        cfg.eval_every = 5;
        cfg.levels[1] = LevelAgg::Bra(kind.clone());
        cfg.levels[2] = LevelAgg::Bra(kind.clone());
        let r = run(&cfg);
        assert!(
            r.final_accuracy > 0.3,
            "{kind:?} run failed: {}",
            r.final_accuracy
        );
    }
}

#[test]
fn message_accounting_scales_with_rounds() {
    let mut cfg = fast(AttackCfg::None, 110);
    cfg.rounds = 4;
    let four = run(&cfg);
    cfg.rounds = 8;
    let eight = run(&cfg);
    assert_eq!(eight.messages, 2 * four.messages);
    assert_eq!(eight.bytes, 2 * four.bytes);
}
