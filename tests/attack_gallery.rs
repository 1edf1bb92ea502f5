//! Attack–defense gallery containment tests (DESIGN.md §13).
//!
//! Every attack family the gallery ships must be *contained* — final
//! accuracy within ε = 0.25 of the same-defense clean run — by at
//! least one composed (pre-aggregation + base rule) defense, under
//! both IID and Dirichlet-α partitions. The flip side is asserted too:
//! a documented failure pairing where the attack blows past ε, so the
//! containment claims stay falsifiable (a grid where nothing can fail
//! measures nothing).
//!
//! All levels aggregate with the BRA under test: the paper's top-level
//! consensus vote would exclude poisoned proposals outright and mask
//! the aggregation-level arms race these bounds measure.

use abd_hfl::attacks::{ModelAttack, Placement};
use abd_hfl::core::config::{AttackCfg, DataDistribution, HflConfig, LevelAgg};
use abd_hfl::core::runner::{run_prepared_with, Experiment};
use abd_hfl::ml::synth::SynthConfig;
use abd_hfl::robust::AggregatorKind;
use abd_hfl::telemetry::Telemetry;

/// The containment budget, mirroring the oracle's Byzantine ε.
const EPSILON: f64 = 0.25;

fn final_accuracy(attack: AttackCfg, kind: AggregatorKind, dist: DataDistribution) -> f64 {
    let mut cfg = HflConfig::quick(attack, 42);
    cfg.rounds = 3;
    cfg.eval_every = 3;
    cfg.data = SynthConfig {
        train_samples: 1_600,
        test_samples: 400,
        ..SynthConfig::default()
    };
    cfg.distribution = dist;
    cfg.levels = vec![LevelAgg::Bra(kind); 3];
    let exp = Experiment::try_prepare(&cfg).expect("a valid config");
    let (telem, _rec) = Telemetry::recording();
    run_prepared_with(&exp, &telem).result.final_accuracy
}

fn attack(model: ModelAttack) -> AttackCfg {
    AttackCfg::Model {
        attack: model,
        proportion: 0.25,
        placement: Placement::Prefix,
    }
}

/// NNM (k = 3) in front of Krum: the composed defense that contains
/// every gallery attack family.
fn nnm_krum() -> AggregatorKind {
    AggregatorKind::Nnm {
        k: 3,
        inner: Box::new(AggregatorKind::Krum { f: 1 }),
    }
}

fn assert_contained(name: &str, model: ModelAttack, kind: AggregatorKind, dist: DataDistribution) {
    let clean = final_accuracy(AttackCfg::None, kind.clone(), dist.clone());
    let attacked = final_accuracy(attack(model), kind, dist);
    assert!(
        (clean - attacked).abs() <= EPSILON,
        "{name}: clean {clean:.3} vs attacked {attacked:.3} exceeds ε = {EPSILON}"
    );
}

#[test]
fn mimic_is_contained_by_nnm_krum() {
    assert_contained(
        "mimic/nnm3+krum/iid",
        ModelAttack::Mimic { victim: 0 },
        nnm_krum(),
        DataDistribution::Iid,
    );
}

#[test]
fn scaling_is_contained_by_centered_clip() {
    assert_contained(
        "scaling/centered_clip/iid",
        ModelAttack::Scaling { factor: -10.0 },
        AggregatorKind::CenteredClip { tau: 2.0, iters: 3 },
        DataDistribution::Iid,
    );
}

#[test]
fn scaling_is_contained_by_nnm_krum_under_dirichlet() {
    assert_contained(
        "scaling/nnm3+krum/dirichlet",
        ModelAttack::Scaling { factor: -10.0 },
        nnm_krum(),
        DataDistribution::Dirichlet { alpha: 0.5 },
    );
}

#[test]
fn minmax_is_contained_by_nnm_krum() {
    assert_contained(
        "minmax/nnm3+krum/iid",
        ModelAttack::MinMax,
        nnm_krum(),
        DataDistribution::Iid,
    );
}

#[test]
fn minsum_is_contained_by_nnm_krum_under_dirichlet() {
    assert_contained(
        "minsum/nnm3+krum/dirichlet",
        ModelAttack::MinSum,
        nnm_krum(),
        DataDistribution::Dirichlet { alpha: 0.5 },
    );
}

/// The documented failure pairing: a −10× reflection by 25 % malicious
/// against plain averaging destroys the model — FedAvg tolerates zero
/// Byzantine inputs, and the gallery must show it.
#[test]
fn scaling_against_fedavg_exceeds_epsilon() {
    let clean = final_accuracy(
        AttackCfg::None,
        AggregatorKind::FedAvg,
        DataDistribution::Iid,
    );
    let attacked = final_accuracy(
        attack(ModelAttack::Scaling { factor: -10.0 }),
        AggregatorKind::FedAvg,
        DataDistribution::Iid,
    );
    assert!(
        (clean - attacked).abs() > EPSILON,
        "the failure pairing must fail: clean {clean:.3} vs attacked {attacked:.3}"
    );
}

/// A composition can *degenerate*: bucketing s = 2 over a 4-member
/// cluster leaves two bucket means, and the median of two points is
/// their mean — exactly FedAvg, so the composed tolerance is 0 and the
/// scaling attack sails through. The composed-tolerance arithmetic
/// (`PreAggSpec::composed_tolerance`) predicts this pairing is
/// ineligible for any containment bound; assert the prediction holds.
#[test]
fn scaling_against_degenerate_bucketed_median_exceeds_epsilon() {
    let bucketed_median = AggregatorKind::Bucketing {
        s: 2,
        inner: Box::new(AggregatorKind::Median),
    };
    let clean = final_accuracy(
        AttackCfg::None,
        bucketed_median.clone(),
        DataDistribution::Iid,
    );
    let attacked = final_accuracy(
        attack(ModelAttack::Scaling { factor: -10.0 }),
        bucketed_median,
        DataDistribution::Iid,
    );
    assert!(
        (clean - attacked).abs() > EPSILON,
        "the degenerate composition must fail open: clean {clean:.3} vs attacked {attacked:.3}"
    );
}
