//! Resume-at-round-k integration tests for the snapshot subsystem.
//!
//! For the golden fixture classes of `tests/golden_manifests.rs`
//! (clean, faulted, armed, withholding, combined) the engine is run straight through,
//! then re-run as capture-at-round-k + resume, and the two final
//! manifests must be **byte-identical** — same RNG stream order, same
//! cost accounting, same metric export — at two horizons: 4 rounds
//! resumed from round 2, and 20 rounds resumed from round 10
//! (DESIGN.md §11). The snapshot also crosses the
//! binary and JSON codecs on the way, so the persisted form is what is
//! proven, and the error paths (`version`, `base_hash`, truncation, a
//! layer list of another config) are pinned.

use abd_hfl::attacks::{AdaptiveAttack, ModelAttack, Placement, ProtocolAttack};
use abd_hfl::core::config::{AsyncRoundCfg, AttackCfg, HflConfig, LevelAgg};
use abd_hfl::core::runner::{
    base_config_hash, resume_prepared_with, run_prepared_snapshotting, run_prepared_with,
    Experiment, ResumeError, RunOutput,
};
use abd_hfl::faults::FaultPlan;
use abd_hfl::ml::synth::SynthConfig;
use abd_hfl::robust::{AggregatorKind, SuspicionConfig};
use abd_hfl::snapshot::{EngineSnapshot, LayerState, SNAPSHOT_VERSION};
use abd_hfl::telemetry::Telemetry;

/// The shared small task (mirrors the golden fixtures' base).
fn base(attack: AttackCfg, seed: u64) -> HflConfig {
    let mut cfg = HflConfig::quick(attack, seed);
    cfg.rounds = 4;
    cfg.eval_every = 2;
    cfg.data = SynthConfig {
        train_samples: 3_200,
        test_samples: 800,
        ..SynthConfig::default()
    };
    cfg
}

fn clean_fixture() -> HflConfig {
    let mut cfg = base(AttackCfg::None, 2024);
    cfg.quorum = 0.75;
    cfg.churn_leave_prob = 0.1;
    cfg
}

fn faulted_fixture() -> HflConfig {
    let mut cfg = base(AttackCfg::None, 2025);
    cfg.quorum = 0.75;
    cfg.faults = Some(fault_plan());
    cfg
}

fn fault_plan() -> FaultPlan {
    let split: Vec<usize> = (0..24).collect();
    let rest: Vec<usize> = (24..64).collect();
    FaultPlan::new()
        .crash_stop(1, 2)
        .kill_leader(1, 2, 1, None)
        .partition(2, vec![split, rest], 3)
        .straggler(1, 6, 8.0, None)
}

fn armed_fixture() -> HflConfig {
    let mut cfg = base(
        AttackCfg::Adaptive {
            attack: AdaptiveAttack::alie_default(),
            proportion: 0.25,
            placement: Placement::Prefix,
        },
        2026,
    );
    cfg.suspicion = Some(SuspicionConfig::default());
    cfg.protocol_attack = Some(ProtocolAttack::Equivocate { flip_scale: 1.0 });
    cfg
}

fn withhold_fixture() -> HflConfig {
    let mut cfg = base(
        AttackCfg::Model {
            attack: ModelAttack::SignFlip { scale: 2.0 },
            proportion: 0.25,
            placement: Placement::Random,
        },
        2027,
    );
    cfg.quorum = 0.75;
    cfg.levels[2] = LevelAgg::Cba(abd_hfl::consensus::ConsensusKind::VoteMajority);
    cfg.suspicion = Some(SuspicionConfig::default());
    cfg.protocol_attack = Some(ProtocolAttack::Withhold);
    cfg
}

/// All three engine layers at once (the golden `combined` fixture).
fn combined_fixture() -> HflConfig {
    let mut cfg = base(
        AttackCfg::Adaptive {
            attack: AdaptiveAttack::alie_default(),
            proportion: 0.25,
            placement: Placement::Prefix,
        },
        2030,
    );
    cfg.levels = vec![LevelAgg::Bra(AggregatorKind::MultiKrum { f: 1, m: 3 }); 3];
    cfg.async_rounds = Some(AsyncRoundCfg::lan());
    cfg.quorum = 0.75;
    cfg.protocol_attack = Some(ProtocolAttack::Equivocate { flip_scale: 1.0 });
    cfg.suspicion = Some(SuspicionConfig::default());
    cfg.faults = Some(fault_plan());
    cfg
}

/// The (rounds, capture round) horizons every fixture resumes at.
const HORIZONS: [(usize, usize); 2] = [(4, 2), (20, 10)];

/// Straight-through run + the snapshot captured at round `at`.
fn run_and_capture(cfg: &HflConfig, at: usize) -> (String, EngineSnapshot) {
    let exp = Experiment::try_prepare(cfg).expect("a valid fixture");
    let (telem, _rec) = Telemetry::recording();
    let (straight, snapshots) = run_prepared_snapshotting(&exp, &telem, at);
    let snap = snapshots
        .into_iter()
        .find(|s| s.round == at)
        .unwrap_or_else(|| panic!("snapshot at round {at}"));
    (straight.manifest.to_json(), snap)
}

/// Resumes `snap` under `cfg` (fresh preparation, fresh telemetry) and
/// returns the final manifest JSON.
fn resume_manifest(cfg: &HflConfig, snap: &EngineSnapshot) -> String {
    let exp = Experiment::try_prepare(cfg).expect("a valid fixture");
    let (telem, _rec) = Telemetry::recording();
    let run = resume_prepared_with(&exp, &telem, snap).expect("resume must be accepted");
    run.manifest.to_json()
}

/// Resumes `snap` under a fresh preparation of `cfg`, telemetry off.
fn resume_under(cfg: &HflConfig, snap: &EngineSnapshot) -> Result<RunOutput, ResumeError> {
    let exp = Experiment::try_prepare(cfg).expect("a valid fixture");
    resume_prepared_with(&exp, &Telemetry::disabled(), snap)
}

fn assert_resume_identical(name: &str, cfg: &HflConfig) {
    for (rounds, at) in HORIZONS {
        let cfg = &HflConfig {
            rounds,
            ..cfg.clone()
        };
        let (straight, snap) = run_and_capture(cfg, at);

        // Through the binary codec (the on-disk format).
        let snap = EngineSnapshot::from_bytes(&snap.to_bytes())
            .unwrap_or_else(|e| panic!("{name}: binary round-trip failed: {e}"));
        // And through its JSON envelope.
        let snap = EngineSnapshot::from_json(&snap.to_json())
            .unwrap_or_else(|e| panic!("{name}: json round-trip failed: {e}"));

        let resumed = resume_manifest(cfg, &snap);
        assert_eq!(
            straight, resumed,
            "{name}: {rounds} rounds resumed at round {at} differs from straight-through"
        );
    }
}

#[test]
fn clean_resume_is_byte_identical() {
    assert_resume_identical("clean", &clean_fixture());
}

#[test]
fn faulted_resume_is_byte_identical() {
    assert_resume_identical("faulted", &faulted_fixture());
}

#[test]
fn armed_resume_is_byte_identical() {
    assert_resume_identical("armed", &armed_fixture());
}

#[test]
fn withholding_resume_is_byte_identical() {
    assert_resume_identical("withhold", &withhold_fixture());
}

#[test]
fn combined_resume_is_byte_identical() {
    assert_resume_identical("combined", &combined_fixture());
}

/// The `layers` section must pair with the engine's layers one to one,
/// in the order fault, defense, adversary: every other list is a
/// snapshot of another config and is refused, never half-applied.
#[test]
fn resume_rejects_a_mismatched_layer_list() {
    let cfg = combined_fixture();
    let (_, snap) = run_and_capture(&cfg, 2);
    let kinds: Vec<&str> = snap.layers.iter().map(LayerState::layer_name).collect();
    assert_eq!(kinds, ["faults", "defense", "adversary"]);

    let mut dropped = snap.layers.clone();
    dropped.remove(1);
    let mut duplicated = snap.layers.clone();
    duplicated.push(snap.layers[2].clone());
    let mut swapped = snap.layers.clone();
    swapped.swap(1, 2);
    let mut refaulted = snap.layers.clone();
    refaulted[0] = LayerState::Defense { tracker: None };

    for (what, layers) in [
        ("a dropped state", dropped),
        ("a duplicate state", duplicated),
        ("defense and adversary swapped", swapped),
        ("another variant in the fault slot", refaulted),
    ] {
        let bad = EngineSnapshot {
            layers,
            ..snap.clone()
        };
        match resume_under(&cfg, &bad) {
            Err(ResumeError::ConfigMismatch { .. }) => {}
            other => panic!("{what}: expected a config mismatch, got {other:?}"),
        }
    }
}

/// Resume continues a checkpoint under a horizon-*extended* config: only `rounds`/`eval_every` may differ
/// from the capture config (same `base_config_hash`).
#[test]
fn resume_extends_the_horizon() {
    let cfg = clean_fixture();
    let (_, snap) = run_and_capture(&cfg, 2);

    let mut longer = cfg.clone();
    longer.rounds = 6;
    assert_eq!(base_config_hash(&cfg), base_config_hash(&longer));

    let extended = resume_under(&longer, &snap).expect("horizon extension must resume");
    let (telem, _rec) = Telemetry::recording();
    let exp = Experiment::try_prepare(&longer).expect("a valid fixture");
    let straight = run_prepared_with(&exp, &telem).result;
    let extended = extended.result;
    assert_eq!(
        extended.final_accuracy, straight.final_accuracy,
        "extended resume must land where the straight 6-round run lands"
    );
    assert_eq!(extended.messages, straight.messages);
    assert_eq!(extended.bytes, straight.bytes);
}

#[test]
fn resume_rejects_a_version_skew() {
    let cfg = clean_fixture();
    let (_, mut snap) = run_and_capture(&cfg, 2);
    snap.version = SNAPSHOT_VERSION + 1;
    match resume_under(&cfg, &snap) {
        Err(ResumeError::Version { found }) => assert_eq!(found, SNAPSHOT_VERSION + 1),
        other => panic!("expected a version error, got {other:?}"),
    }
}

#[test]
fn resume_rejects_a_foreign_config() {
    let cfg = clean_fixture();
    let (_, snap) = run_and_capture(&cfg, 2);
    // A different seed is a different base config, not a horizon change.
    let mut other = cfg.clone();
    other.seed = 999;
    assert!(matches!(
        resume_under(&other, &snap),
        Err(ResumeError::ConfigMismatch { .. })
    ));
}

#[test]
fn resume_rejects_a_truncated_model() {
    let cfg = clean_fixture();
    let (_, mut snap) = run_and_capture(&cfg, 2);
    snap.model.truncate(snap.model.len() / 2);
    assert!(matches!(
        resume_under(&cfg, &snap),
        Err(ResumeError::Corrupt { .. })
    ));
}

/// Resume seeds the snapshot's metric accumulators into a fresh
/// registry: the resumed manifest's metric rows equal the straight
/// run's, not just the model/accounting fields.
#[test]
fn resumed_metrics_match_straight_through() {
    let cfg = armed_fixture();
    let (straight_json, snap) = run_and_capture(&cfg, 2);
    assert_eq!(straight_json, resume_manifest(&cfg, &snap));
}
