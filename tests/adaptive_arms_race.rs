//! Arms-race integration tests: the full stack under the adaptive
//! adversary, the suspicion/quarantine layer, and the protocol-level
//! attacks (leader equivocation, selective withholding).

use abd_hfl::attacks::{AdaptiveAttack, ModelAttack, Placement, ProtocolAttack};
use abd_hfl::core::config::{AsyncRoundCfg, AttackCfg, HflConfig, LevelAgg};
use abd_hfl::core::pipeline::PipelineConfig;
use abd_hfl::core::run::RunOptions;
use abd_hfl::faults::FaultPlan;
use abd_hfl::robust::{AggregatorKind, SuspicionConfig};
use abd_hfl::telemetry::{Event, Telemetry};

fn run_abd_hfl_with(cfg: &abd_hfl::core::HflConfig, telem: &Telemetry) -> abd_hfl::core::RunOutput {
    RunOptions::new()
        .telemetry(telem)
        .try_run(cfg)
        .expect("a valid config")
}

/// The quick topology (64 clients, bottom clusters of 4) with Multi-Krum
/// at every level — BRA everywhere so the evidence path, not consensus,
/// is what the tests exercise.
fn arms_cfg(attack: AttackCfg, seed: u64, rounds: usize) -> HflConfig {
    let mut cfg = HflConfig::quick(attack, seed);
    cfg.rounds = rounds;
    cfg.eval_every = rounds;
    let mk = AggregatorKind::MultiKrum { f: 1, m: 3 };
    cfg.levels = vec![
        LevelAgg::Bra(mk.clone()),
        LevelAgg::Bra(mk.clone()),
        LevelAgg::Bra(mk),
    ];
    cfg
}

/// One malicious *follower* per bottom cluster (clients 1, 5, 9, …):
/// exactly the f = 1 the aggregator assumes, spread so every cluster has
/// honest members to observe.
fn one_follower_per_cluster_mask(n: usize) -> Vec<bool> {
    (0..n).map(|c| c % 4 == 1).collect()
}

#[test]
fn adaptive_adversary_emits_bounded_magnitudes_and_moves() {
    let attack = AttackCfg::Adaptive {
        attack: AdaptiveAttack::alie_default(),
        proportion: 0.25,
        placement: Placement::Prefix,
    };
    let cfg = arms_cfg(attack, 301, 10);
    let (telem, rec) = Telemetry::recording();
    let run = run_abd_hfl_with(&cfg, &telem);
    let magnitudes: Vec<f64> = rec
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::AttackAdapted {
                magnitude,
                submitted,
                ..
            } => {
                assert!(*submitted > 0, "malicious inputs must reach aggregation");
                Some(*magnitude)
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        magnitudes.len(),
        cfg.rounds,
        "one adaptation step per round"
    );
    let (_, z_max) = AdaptiveAttack::alie_default().bounds();
    assert!(
        magnitudes
            .iter()
            .all(|m| *m > 0.0 && *m <= f64::from(z_max) + 1e-9),
        "magnitudes must stay inside the attack's bounds: {magnitudes:?}"
    );
    assert!(
        magnitudes.windows(2).any(|w| w[0] != w[1]),
        "bisection must actually move the magnitude: {magnitudes:?}"
    );
    assert!(run.result.final_accuracy.is_finite());
}

#[test]
fn suspicion_quarantines_the_coalition_not_the_honest() {
    // One sign-flipping follower per cluster at scale 10: the outlier's
    // Krum score separates from the honest cohort by far more than the
    // evidence gate's 4 × median, so it collects the 1.0 worst-rank
    // strike every pre-quarantine round, while honest members — inside
    // the gate — collect none. With threshold 3.0 the attacker crosses
    // within 4 rounds and quarantines are provably ⊆ malicious.
    let mut cfg = arms_cfg(
        AttackCfg::Model {
            attack: ModelAttack::SignFlip { scale: 10.0 },
            proportion: 0.25,
            placement: Placement::Prefix,
        },
        302,
        7,
    );
    let n = cfg.topology.build(cfg.seed).num_clients();
    cfg.malicious_override = Some(one_follower_per_cluster_mask(n));
    cfg.suspicion = Some(SuspicionConfig {
        decay: 0.8,
        quarantine_threshold: 3.0,
        release_threshold: 0.8,
    });
    let run = run_abd_hfl_with(&cfg, &Telemetry::disabled());
    assert!(
        run.result.quarantined_total > 0,
        "the coalition must lose client-rounds to quarantine"
    );
    let suspicion = run
        .manifest
        .suspicion
        .as_ref()
        .expect("suspicion section must be in the manifest when the layer runs");
    let quarantined: Vec<usize> = suspicion
        .events
        .iter()
        .filter(|e| e.kind == "quarantined")
        .map(|e| e.client)
        .collect();
    assert!(
        quarantined.len() >= n / 8,
        "expected most of the 16 attackers quarantined, got {quarantined:?}"
    );
    assert!(
        quarantined.iter().all(|c| c % 4 == 1),
        "every quarantined client must be malicious: {quarantined:?}"
    );
    assert!(
        suspicion
            .final_scores
            .iter()
            .filter(|s| s.quarantined)
            .all(|s| s.client % 4 == 1),
        "final quarantine flags must only mark malicious clients"
    );
}

#[test]
fn equivocating_leaders_are_convicted_by_the_echo_audit() {
    // Prefix placement at 25 % makes bottom clusters 0–3 fully malicious
    // — leaders included. Under Equivocate each of those leaders sends a
    // flipped partial upward exactly once: the member echo catches the
    // digest mismatch in the same round and the leader is repaired.
    let mut cfg = arms_cfg(
        AttackCfg::Model {
            attack: ModelAttack::Alie { z: 1.5 },
            proportion: 0.25,
            placement: Placement::Prefix,
        },
        303,
        8,
    );
    cfg.protocol_attack = Some(ProtocolAttack::Equivocate { flip_scale: 1.0 });
    cfg.suspicion = Some(SuspicionConfig::default());
    let (telem, rec) = Telemetry::recording();
    let run = run_abd_hfl_with(&cfg, &telem);
    let detections: Vec<(usize, usize)> = rec
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::EquivocationDetected { round, leader, .. } => Some((*round, *leader)),
            _ => None,
        })
        .collect();
    assert_eq!(
        detections.len(),
        4,
        "each of the 4 malicious leaders is convicted exactly once: {detections:?}"
    );
    for (round, leader) in &detections {
        assert!(
            *round <= 1,
            "detection latency must be within 2 rounds, got round {round}"
        );
        assert!(
            leader % 4 == 0 && *leader < 16,
            "convicted node {leader} is not a malicious bottom leader"
        );
    }
    assert!(
        run.result.final_accuracy.is_finite(),
        "the run must survive equivocation"
    );
}

#[test]
fn withholding_is_pivotal_only_below_full_quorum() {
    let base = |quorum: f64| {
        let mut cfg = arms_cfg(
            AttackCfg::Model {
                attack: ModelAttack::SignFlip { scale: 2.0 },
                proportion: 0.25,
                placement: Placement::Prefix,
            },
            304,
            5,
        );
        let n = cfg.topology.build(cfg.seed).num_clients();
        cfg.malicious_override = Some(one_follower_per_cluster_mask(n));
        cfg.protocol_attack = Some(ProtocolAttack::Withhold);
        cfg.quorum = quorum;
        cfg
    };
    // φ = 0.75 of a 4-cluster needs 3 models: the single malicious
    // follower can withhold and the quorum still forms.
    let (telem, rec) = Telemetry::recording();
    let degraded = run_abd_hfl_with(&base(0.75), &telem);
    assert!(
        degraded.result.withheld_total > 0,
        "withholding must fire at φ = 0.75"
    );
    assert!(
        rec.events()
            .iter()
            .any(|e| matches!(e, Event::UpdateWithheld { .. })),
        "withheld updates must be visible as events"
    );
    // φ = 1 needs every present member: withholding would break the
    // quorum, so the pivotal rule never fires.
    let full = run_abd_hfl_with(&base(1.0), &Telemetry::disabled());
    assert_eq!(
        full.result.withheld_total, 0,
        "withholding must never fire at φ = 1"
    );
}

#[test]
fn all_malicious_population_degrades_instead_of_panicking() {
    let mut cfg = arms_cfg(
        AttackCfg::Model {
            attack: ModelAttack::SignFlip { scale: 1.0 },
            proportion: 1.0,
            placement: Placement::Prefix,
        },
        305,
        3,
    );
    cfg.suspicion = Some(SuspicionConfig::default());
    let (telem, rec) = Telemetry::recording();
    let run = run_abd_hfl_with(&cfg, &telem);
    assert!(run.result.final_accuracy.is_finite());
    assert!(
        rec.events().iter().any(|e| matches!(
            e,
            Event::Anomaly { kind, .. } if kind == "attack_no_honest_updates"
        )),
        "crafting with no honest updates must be recorded as an anomaly"
    );
}

#[test]
fn same_seed_arms_race_runs_have_byte_identical_manifests() {
    let build = || {
        let mut cfg = arms_cfg(
            AttackCfg::Adaptive {
                attack: AdaptiveAttack::ipm_default(),
                proportion: 0.25,
                placement: Placement::Prefix,
            },
            306,
            8,
        );
        cfg.protocol_attack = Some(ProtocolAttack::Equivocate { flip_scale: 1.0 });
        cfg.suspicion = Some(SuspicionConfig::default());
        cfg
    };
    let a = run_abd_hfl_with(&build(), &Telemetry::disabled());
    let b = run_abd_hfl_with(&build(), &Telemetry::disabled());
    assert_eq!(
        a.manifest.to_json(),
        b.manifest.to_json(),
        "identical seeds must give byte-identical manifests under the full arms race"
    );
    assert!(
        a.manifest.suspicion.is_some(),
        "the suspicion section must be present when the layer is enabled"
    );
}

#[test]
fn suspicion_off_keeps_the_manifest_schema_lean() {
    let cfg = arms_cfg(AttackCfg::None, 307, 3);
    let run = run_abd_hfl_with(&cfg, &Telemetry::disabled());
    assert!(
        run.manifest.suspicion.is_none(),
        "plain runs must not grow a suspicion section"
    );
    assert_eq!(run.result.quarantined_total, 0);
    assert_eq!(run.result.withheld_total, 0);
}

#[test]
fn the_full_stack_runs_on_the_pipelined_schedule() {
    // The `async_armed` shape — deadline buffers at φ = 0.75, a crash /
    // leader-kill / partition / churn plan, the adaptive ALIE coalition
    // with equivocating leaders, the suspicion layer — on the pipelined
    // schedule: the one place ν could not be measured while the
    // pipeline was a driver of its own.
    let build = || {
        let mut cfg = arms_cfg(
            AttackCfg::Adaptive {
                attack: AdaptiveAttack::alie_default(),
                proportion: 0.25,
                placement: Placement::Prefix,
            },
            308,
            30,
        );
        cfg.async_rounds = Some(AsyncRoundCfg::lan());
        cfg.quorum = 0.75;
        cfg.protocol_attack = Some(ProtocolAttack::Equivocate { flip_scale: 1.0 });
        cfg.suspicion = Some(SuspicionConfig::default());
        let h = cfg.topology.build(cfg.seed);
        let clusters = &h.level(h.bottom_level()).clusters;
        let last = clusters.len() - 1;
        let crashes = clusters.iter().fold(FaultPlan::new(), |plan, c| {
            plan.crash_recover(5, c.members[1], 15)
        });
        cfg.faults = Some(
            crashes
                .kill_leader(8, h.bottom_level(), last, None)
                .partition(10, vec![clusters[last].members.clone()], 14)
                .churn(20, 0.1, None),
        );
        cfg
    };
    let pcfg = PipelineConfig {
        rounds: 30,
        ..PipelineConfig::default()
    };
    let run = || {
        RunOptions::pipeline(&pcfg)
            .try_run(&build())
            .expect("a valid config")
            .into_pipeline()
    };
    let (res, manifest) = run();
    assert_eq!(res.rounds.len(), 30, "a round never closed");
    for rt in &res.rounds {
        assert!(
            rt.nu > 0.0 && rt.nu < 1.0,
            "round {}: ν = {}",
            rt.round,
            rt.nu
        );
    }
    let suspicion = manifest.suspicion.as_ref().expect("the layer ran");
    let quarantined: Vec<usize> = suspicion
        .events
        .iter()
        .filter(|e| e.kind == "quarantined")
        .map(|e| e.client)
        .collect();
    // Prefix placement at 25 % of 64: the coalition is clients 0..16.
    assert!(
        quarantined.iter().any(|&c| c < 16),
        "no malicious client was quarantined: {quarantined:?}"
    );
    assert!(manifest.faults.iter().any(|f| f.kind == "leader_failover"));
    assert_eq!(
        manifest.to_json(),
        run().1.to_json(),
        "same seed, same bytes"
    );
}
