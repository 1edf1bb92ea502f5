//! Golden-manifest regression tests for the round engine.
//!
//! Each fixture freezes one round path — clean, faulted, armed,
//! withholding, deadline-driven, sampled, all three engine layers at
//! once (combined), the MLP's training and scoring (mlp), and every
//! consensus mechanism at the top and below it (cba_a, cba_b): the
//! committed files under
//! `tests/golden/` hold the manifest JSON, the structured-event
//! stream and the final model's fingerprint (parameter count and the
//! FNV-1a hash of the parameters' bits) of a small same-seed run, and
//! the test asserts the engine still reproduces them
//! **byte-identically** — same RNG stream order, same cost accounting,
//! same event sequence, same model bits.
//!
//! The fixtures are a function of the seeded streams (SGD, shuffles and
//! consensus votes draw from them), which come from the in-tree `rand`
//! stand-in every build links, so every build compares bytes.
//!
//! `GOLDEN_UPDATE=1` writes only the golden files that are missing and
//! still compares every file that exists, so adding a fixture never
//! rewrites another one. To regenerate a fixture — only after an
//! *intentional* change to round semantics, said so in CHANGES.md —
//! delete its three files first:
//!
//! ```sh
//! rm tests/golden/faulted.*
//! GOLDEN_UPDATE=1 cargo test --test golden_manifests
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use abd_hfl::attacks::{AdaptiveAttack, ModelAttack, Placement, ProtocolAttack};
use abd_hfl::consensus::ConsensusKind;
use abd_hfl::core::config::{AsyncRoundCfg, AttackCfg, HflConfig, LevelAgg, ModelCfg, SamplingCfg};
use abd_hfl::core::runner::{run_prepared_with, Experiment, RunOutput};
use abd_hfl::faults::FaultPlan;
use abd_hfl::ml::synth::SynthConfig;
use abd_hfl::robust::{AggregatorKind, SuspicionConfig};
use abd_hfl::simnet::DelayModel;
use abd_hfl::telemetry::{fnv1a_hex, Telemetry};

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn update_mode() -> bool {
    std::env::var_os("GOLDEN_UPDATE").is_some()
}

/// The shared small task every fixture runs (quick config, smaller
/// synthetic task so four fixtures stay cheap).
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

/// The fault-free path: churn and a sub-unit quorum exercised.
fn clean_fixture() -> HflConfig {
    let mut cfg = base(AttackCfg::None, 2024);
    cfg.quorum = 0.75;
    cfg.churn_leave_prob = 0.1;
    cfg
}

/// The fault-injected path: a follower crash, a leader kill (deputy
/// promotion), a healing partition and a straggler, under φ = 0.75.
fn faulted_fixture() -> HflConfig {
    let mut cfg = base(AttackCfg::None, 2025);
    cfg.quorum = 0.75;
    cfg.faults = Some(fault_plan());
    cfg
}

/// The faulted fixture's plan, shared with the combined fixture.
fn fault_plan() -> FaultPlan {
    let split: Vec<usize> = (0..24).collect();
    let rest: Vec<usize> = (24..64).collect();
    FaultPlan::new()
        .crash_stop(1, 2)
        .kill_leader(1, 2, 1, None)
        .partition(2, vec![split, rest], 3)
        .straggler(1, 6, 8.0, None)
}

/// The arms-race path: adaptive ALIE coalition, suspicion/quarantine
/// defense, equivocating leaders audited by echo digests.
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

/// Arms race, CBA-at-the-bottom variant: a static sign-flip coalition
/// withholding pivotally below full quorum, consensus exclusions
/// feeding the suspicion strikes.
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
    cfg.levels[2] = LevelAgg::Cba(ConsensusKind::VoteMajority);
    cfg.suspicion = Some(SuspicionConfig::default());
    cfg.protocol_attack = Some(ProtocolAttack::Withhold);
    cfg
}

/// The deadline-driven path promoted to golden coverage: link delays
/// straddling the buffer deadline under φ = 0.75, so deadline closes,
/// discounted late admissions and lateness bookkeeping all land in the
/// frozen stream.
fn async_fixture() -> HflConfig {
    let mut cfg = base(AttackCfg::None, 2028);
    cfg.quorum = 0.75;
    cfg.async_rounds = Some(AsyncRoundCfg {
        deadline_us: 3_000,
        staleness_bound_us: 2_000,
        link_delay: DelayModel::Uniform { lo: 500, hi: 5_000 },
        tier_deadlines: Vec::new(),
    });
    cfg
}

/// The cross-device path promoted to golden coverage: a 64-slot cohort
/// sampled uniformly from a 128-client population each round, with an
/// identity-bound sign-flip coalition so the malicious mask exercises
/// the cohort→global mapping.
fn sampled_fixture() -> HflConfig {
    let mut cfg = base(
        AttackCfg::Model {
            attack: ModelAttack::SignFlip { scale: 2.0 },
            proportion: 0.25,
            placement: Placement::Random,
        },
        2029,
    );
    cfg.quorum = 0.75;
    cfg.sampling = Some(SamplingCfg::uniform(128, 64));
    cfg
}

/// All three engine layers in one round — faults, then the defense,
/// then the adversary — on the benchmark's `async_armed` shape at this
/// file's size: adaptive ALIE with equivocating leaders against
/// suspicion, all-Multi-Krum levels, deadline buffers at φ = 0.75, and
/// the faulted fixture's plan. The only fixture that pins the order in
/// which the layers filter members, observe verdicts and close rounds.
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

/// The "DNN model" path: `agg_wide`'s one-hidden-layer MLP (64 units),
/// all-Multi-Krum levels and ALIE at 20 %, at this file's size. The only
/// fixture whose `model.txt` pins the hidden layer's forward, the
/// output layer's and the backward pass through both.
fn mlp_fixture() -> HflConfig {
    let mut cfg = base(
        AttackCfg::Model {
            attack: ModelAttack::Alie { z: 1.0 },
            proportion: 0.2,
            placement: Placement::Prefix,
        },
        2031,
    );
    cfg.model = ModelCfg::Mlp { hidden: 64 };
    cfg.levels = vec![LevelAgg::Bra(AggregatorKind::MultiKrum { f: 1, m: 3 }); 3];
    cfg.sgd.lr = 0.25;
    cfg
}

/// Three consensus mechanisms on the round path: PBFT at the top
/// (scored by validation accuracy), a committee at level 1 and the
/// fixed-k vote at the bottom (scored by distance), under a sign-flip
/// coalition that stays inside PBFT's f < n/3, so the committee's and
/// the vote's exclusions land in the event stream.
fn cba_a_fixture() -> HflConfig {
    let mut cfg = base(
        AttackCfg::Model {
            attack: ModelAttack::SignFlip { scale: 2.0 },
            proportion: 0.25,
            placement: Placement::Random,
        },
        2032,
    );
    cfg.levels = vec![
        LevelAgg::Cba(ConsensusKind::Pbft),
        LevelAgg::Cba(ConsensusKind::Committee {
            size: 3,
            exclude: 1,
        }),
        LevelAgg::Cba(ConsensusKind::Vote { exclude: 1 }),
    ];
    cfg
}

/// The other three: the stake vote at the top, approximate agreement at
/// level 1 and ring gossip at the bottom, under the same kind of
/// coalition, so Byzantine members vote, inject extremes and refuse to
/// average.
fn cba_b_fixture() -> HflConfig {
    let mut cfg = base(
        AttackCfg::Model {
            attack: ModelAttack::SignFlip { scale: 2.0 },
            proportion: 0.25,
            placement: Placement::Random,
        },
        2033,
    );
    cfg.levels = vec![
        LevelAgg::Cba(ConsensusKind::StakeVote {
            stakes: vec![1.0, 2.0, 3.0, 4.0],
        }),
        LevelAgg::Cba(ConsensusKind::Approx {
            epsilon: 1e-3,
            trim: 1,
        }),
        LevelAgg::Cba(ConsensusKind::Gossip { epsilon: 1e-4 }),
    ];
    cfg
}

/// Runs a fixture with a recording telemetry bundle, returning the run
/// plus the rendered event stream (one debug-formatted event per line).
fn run_fixture(cfg: &HflConfig) -> (RunOutput, String) {
    let exp = Experiment::try_prepare(cfg).expect("a valid config");
    let (telem, rec) = Telemetry::recording();
    let run = run_prepared_with(&exp, &telem);
    let events: String = rec.events().iter().map(|e| format!("{e:?}\n")).collect();
    (run, events)
}

/// Compares `got` with the golden file at `path` byte for byte; under
/// `GOLDEN_UPDATE` a missing file is written instead.
fn check_file(name: &str, path: &Path, got: &str) {
    if update_mode() && !path.exists() {
        fs::create_dir_all(golden_dir()).unwrap();
        fs::write(path, got).unwrap();
        return;
    }
    let want = fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "{name}: missing golden {} ({e}); run GOLDEN_UPDATE=1",
            path.display()
        )
    });
    assert_eq!(
        got,
        want,
        "{name}: {} diverged from the golden",
        path.display()
    );
}

/// The final model's fingerprint: its parameter count and the FNV-1a
/// hash of the parameters' bit patterns, so a manifest that records only
/// outcomes still pins every bit training produced.
fn model_fingerprint(model: &[f32]) -> String {
    let bits: Vec<u8> = model
        .iter()
        .flat_map(|p| p.to_bits().to_le_bytes())
        .collect();
    format!("params {}\nfnv1a {}\n", model.len(), fnv1a_hex(&bits))
}

/// Runs a fixture twice and returns its event stream, after checking
/// that both runs agree and match the fixture's golden files.
fn check_golden(name: &str, cfg: &HflConfig) -> String {
    let (run, events) = run_fixture(cfg);
    let manifest = run.manifest.to_json();
    let model = model_fingerprint(&run.model);

    // A second in-process run must agree byte-for-byte.
    let (rerun, reevents) = run_fixture(cfg);
    assert_eq!(
        manifest,
        rerun.manifest.to_json(),
        "{name}: same-seed manifests differ within one build"
    );
    assert_eq!(
        events, reevents,
        "{name}: same-seed event streams differ within one build"
    );
    assert_eq!(
        model,
        model_fingerprint(&rerun.model),
        "{name}: same-seed models differ within one build"
    );

    let dir = golden_dir();
    check_file(
        name,
        &dir.join(format!("{name}.manifest.json")),
        &(manifest + "\n"),
    );
    check_file(name, &dir.join(format!("{name}.events.txt")), &events);
    check_file(name, &dir.join(format!("{name}.model.txt")), &model);
    events
}

#[test]
fn clean_round_path_matches_golden() {
    check_golden("clean", &clean_fixture());
}

#[test]
fn faulted_round_path_matches_golden() {
    check_golden("faulted", &faulted_fixture());
}

#[test]
fn armed_round_path_matches_golden() {
    check_golden("armed", &armed_fixture());
}

#[test]
fn withholding_round_path_matches_golden() {
    check_golden("withhold", &withhold_fixture());
}

#[test]
fn async_round_path_matches_golden() {
    check_golden("async", &async_fixture());
}

#[test]
fn sampled_round_path_matches_golden() {
    check_golden("sampled", &sampled_fixture());
}

#[test]
fn mlp_round_path_matches_golden() {
    check_golden("mlp", &mlp_fixture());
}

#[test]
fn consensus_round_paths_match_golden() {
    let events = check_golden("cba_a", &cba_a_fixture());
    assert!(
        events.lines().any(|e| e.starts_with("ProposalExcluded")),
        "cba_a: no ProposalExcluded event, so no mechanism excluded an input"
    );
    check_golden("cba_b", &cba_b_fixture());
}

#[test]
fn combined_round_path_matches_golden() {
    let events = check_golden("combined", &combined_fixture());
    for kind in ["FaultInjected", "BufferClosed", "EquivocationDetected"] {
        assert!(
            events.lines().any(|e| e.starts_with(kind)),
            "combined: no {kind} event, so the fixture no longer runs all three layers"
        );
    }
}
