//! Fault-tolerance integration tests: the full stack under injected
//! crashes, leader kills and partitions (ISSUE acceptance criteria for
//! the `hfl-faults` subsystem).

use abd_hfl::attacks::{ModelAttack, Placement};
use abd_hfl::core::config::{AttackCfg, HflConfig, LevelAgg, SamplingCfg};
use abd_hfl::core::engine::cost::clean_round_messages;
use abd_hfl::core::run::RunOptions;
use abd_hfl::core::runner::{run_prepared_with, Experiment};
use abd_hfl::faults::FaultPlan;
use abd_hfl::robust::{AggregatorKind, SuspicionConfig};
use abd_hfl::telemetry::Telemetry;

fn run_abd_hfl_with(cfg: &abd_hfl::core::HflConfig, telem: &Telemetry) -> abd_hfl::core::RunOutput {
    RunOptions::new()
        .telemetry(telem)
        .try_run(cfg)
        .expect("a valid config")
}

fn fast(seed: u64) -> HflConfig {
    let mut cfg = HflConfig::quick(AttackCfg::None, seed);
    cfg.rounds = 25;
    cfg.eval_every = 25;
    cfg
}

/// Crash-stops the first `count` followers of every bottom cluster at
/// `round`.
fn crash_followers(mut plan: FaultPlan, cfg: &HflConfig, round: usize, count: usize) -> FaultPlan {
    let h = cfg.topology.build(cfg.seed);
    for cluster in &h.level(h.bottom_level()).clusters {
        for &m in cluster.members.iter().skip(1).take(count) {
            plan = plan.crash_stop(round, m);
        }
    }
    plan
}

#[test]
fn f_follower_crashes_cost_little_accuracy() {
    // The ISSUE acceptance criterion: one leader killed plus ≤ f = 1
    // followers crashed per cluster at round 5 completes, with accuracy
    // within 2 points of the fault-free run.
    let clean_cfg = fast(201);
    let clean = run_abd_hfl_with(&clean_cfg, &Telemetry::disabled());

    let mut cfg = fast(201);
    let h = cfg.topology.build(cfg.seed);
    let plan = crash_followers(
        FaultPlan::new().kill_leader(5, h.bottom_level(), 1, None),
        &cfg,
        5,
        1,
    );
    cfg.faults = Some(plan);
    let faulted = run_abd_hfl_with(&cfg, &Telemetry::disabled());

    assert!(
        faulted.result.faulted_total > 0,
        "crashes must cost bottom-level updates"
    );
    assert!(
        (clean.result.final_accuracy - faulted.result.final_accuracy).abs() < 0.02,
        "accuracy degraded beyond 2 points: clean {} vs faulted {}",
        clean.result.final_accuracy,
        faulted.result.final_accuracy
    );
    // Every scheduled fault and every recovery action is in the manifest.
    assert!(
        faulted
            .manifest
            .faults
            .iter()
            .any(|f| f.kind == "crash_stop"),
        "scheduled crashes missing from the manifest fault log"
    );
    assert!(
        faulted
            .manifest
            .faults
            .iter()
            .any(|f| f.kind == "degraded_quorum"),
        "degraded-quorum recovery missing from the manifest fault log"
    );
}

#[test]
fn leader_kill_promotes_a_deputy_and_terminates() {
    let mut cfg = fast(202);
    let h = cfg.topology.build(cfg.seed);
    // Kill bottom cluster 2's leader for good at round 3.
    cfg.faults = Some(FaultPlan::new().kill_leader(3, h.bottom_level(), 2, None));
    let run = run_abd_hfl_with(&cfg, &Telemetry::disabled());
    let failovers: Vec<_> = run
        .manifest
        .faults
        .iter()
        .filter(|f| f.kind == "leader_failover")
        .collect();
    assert!(
        !failovers.is_empty(),
        "killing a leader must record deputy promotions; log: {:?}",
        run.manifest.faults
    );
    // Failover persists: the deputy collects every round after the kill.
    assert!(
        failovers.len() >= cfg.rounds - 3,
        "expected a promotion per post-kill round, got {}",
        failovers.len()
    );
    // The run still learns (one cluster degraded out of 16).
    assert!(
        run.result.final_accuracy > 0.7,
        "leader kill wrecked the run: {}",
        run.result.final_accuracy
    );
}

#[test]
fn healed_partition_converges() {
    let mut cfg = fast(203);
    // Rounds 4–8: bottom cluster 1's followers (devices 17–19) are cut
    // off from everyone else, then the partition heals.
    cfg.faults = Some(FaultPlan::new().partition(4, vec![vec![17, 18, 19]], 8));
    let run = run_abd_hfl_with(&cfg, &Telemetry::disabled());
    assert!(
        run.result.faulted_total > 0,
        "partition should cost updates while active"
    );
    assert!(
        run.manifest.faults.iter().any(|f| f.kind == "partition"),
        "partition activation missing from the fault log"
    );
    assert!(
        run.manifest
            .faults
            .iter()
            .any(|f| f.kind == "partition_heal"),
        "partition heal missing from the fault log"
    );
    assert!(
        run.result.final_accuracy > 0.75,
        "run did not converge after the partition healed: {}",
        run.result.final_accuracy
    );
}

#[test]
fn same_seed_fault_runs_have_byte_identical_manifests() {
    let build = || {
        let mut cfg = fast(204);
        let h = cfg.topology.build(cfg.seed);
        cfg.faults = Some(crash_followers(
            FaultPlan::new()
                .kill_leader(5, h.bottom_level(), 1, Some(15))
                .loss_burst(8, 0.2, 11)
                .straggler(2, 30, 4.0, Some(20)),
            &cfg,
            5,
            1,
        ));
        cfg
    };
    let a = run_abd_hfl_with(&build(), &Telemetry::disabled());
    let b = run_abd_hfl_with(&build(), &Telemetry::disabled());
    assert_eq!(
        a.manifest.to_json(),
        b.manifest.to_json(),
        "identical seeds must give byte-identical manifests under faults"
    );
    assert!(
        !a.manifest.faults.is_empty(),
        "fault log should not be empty in this scenario"
    );
}

#[test]
fn recovering_crash_rejoins() {
    let mut cfg = fast(205);
    // Devices 33 and 34 crash at round 3 and recover at round 10.
    cfg.faults = Some(
        FaultPlan::new()
            .crash_recover(3, 33, 10)
            .crash_recover(3, 34, 10),
    );
    let exp = Experiment::try_prepare(&cfg).expect("valid config");
    let inj = exp.injector().expect("injector compiled");
    assert!(inj.crashed(33, 5));
    assert!(!inj.crashed(33, 10));
    let run = run_prepared_with(&exp, &Telemetry::disabled());
    // 2 devices × 7 rounds of downtime.
    assert_eq!(run.result.faulted_total, 14);
    assert!(
        run.manifest
            .faults
            .iter()
            .any(|f| f.kind == "crash_recover"),
        "recovery missing from the fault log"
    );
    assert!(run.result.final_accuracy > 0.75);
}

// ---- cross-device sampling × fault/churn/suspicion composition ------
// (DESIGN.md §14: absence, quarantine and sampling must compose; a
// sampled-out client is simply not there — never charged, never struck.)

#[test]
fn identity_sampling_is_byte_identical_to_no_sampling() {
    // An m-of-m draw binds slot i to client i under both schemes, so
    // turning sampling on without a larger population must not perturb
    // a single stream — training, churn, eval or accounting.
    let run = |sampling: Option<SamplingCfg>| {
        let mut cfg = fast(206);
        cfg.sampling = sampling;
        let mut m = run_abd_hfl_with(&cfg, &Telemetry::disabled()).manifest;
        // The config hash legitimately differs (the sampling key is in
        // the hashed Debug rendering); everything the run *did* must not.
        m.config_hash = String::new();
        m.to_json()
    };
    let baseline = run(None);
    assert_eq!(
        baseline,
        run(Some(SamplingCfg::uniform(64, 64))),
        "uniform 64-of-64 sampling must match the unsampled run byte for byte"
    );
    assert_eq!(
        baseline,
        run(Some(SamplingCfg::stratified(64, 64))),
        "stratified 64-of-64 sampling must match the unsampled run byte for byte"
    );
}

#[test]
fn sampled_out_clients_are_never_charged_messages() {
    // 1024 clients, 64 sampled per round: the message ledger must stay
    // exactly the cohort topology's closed form every round — the other
    // 960 clients are not throttled or skipped, they simply do not
    // exist on the wire.
    let mut cfg = fast(207);
    cfg.levels = vec![LevelAgg::Bra(AggregatorKind::FedAvg); 3];
    cfg.sampling = Some(SamplingCfg::uniform(1024, 64));
    let exp = Experiment::try_prepare(&cfg).expect("valid sampled config");
    let expected = clean_round_messages(&cfg, &exp.hierarchy)
        .expect("an all-BRA stack has a closed-form message count");
    let run = run_prepared_with(&exp, &Telemetry::disabled());
    for r in &run.manifest.rounds {
        assert_eq!(
            r.messages, expected,
            "round {}: message count depends on the population, not the cohort",
            r.round
        );
    }
    assert_eq!(run.manifest.totals.messages, expected * cfg.rounds as u64);
}

#[test]
fn suspicion_strikes_only_sampled_cohort_members() {
    // A sign-flipping coalition of every 8th client in a 128-client
    // population, half sampled each round — the sorted cohort maps ~8
    // consecutive global ids onto each 4-slot cluster, so the spacing
    // keeps clusters near the f = 1 the aggregator assumes. Strike
    // evidence only exists for clients that aggregated this round, so
    // every quarantine (and any equivocation conviction) must name a
    // member of that round's cohort — and scores are identity-bound,
    // so the quarantines track the coalition across re-sampled cohorts.
    let mut cfg = fast(208);
    cfg.attack = AttackCfg::Model {
        attack: ModelAttack::SignFlip { scale: 10.0 },
        proportion: 0.125,
        placement: Placement::Prefix,
    };
    cfg.malicious_override = Some((0..128).map(|c| c % 8 == 1).collect());
    let mk = AggregatorKind::MultiKrum { f: 1, m: 3 };
    cfg.levels = vec![
        LevelAgg::Bra(mk.clone()),
        LevelAgg::Bra(mk.clone()),
        LevelAgg::Bra(mk),
    ];
    // Sampled clients are only present (and thus only strikeable) about
    // half the rounds, so a slower decay than the always-present
    // arms-race setting is needed for intermittent strikes to accumulate.
    cfg.suspicion = Some(SuspicionConfig {
        decay: 0.95,
        quarantine_threshold: 3.0,
        release_threshold: 0.8,
    });
    cfg.sampling = Some(SamplingCfg::uniform(128, 64));
    let exp = Experiment::try_prepare(&cfg).expect("valid sampled config");
    let run = run_prepared_with(&exp, &Telemetry::disabled());
    assert!(
        run.result.quarantined_total > 0,
        "the coalition must lose client-rounds to quarantine"
    );
    let suspicion = run
        .manifest
        .suspicion
        .as_ref()
        .expect("suspicion section must be in the manifest when the layer runs");
    let strikes: Vec<_> = suspicion
        .events
        .iter()
        .filter(|e| e.kind == "quarantined" || e.kind == "equivocation")
        .collect();
    assert!(!strikes.is_empty(), "the attack must produce quarantines");
    let mut cohort = Vec::new();
    for e in &strikes {
        exp.cohort_into(e.round, &mut cohort);
        assert!(
            cohort.binary_search(&e.client).is_ok(),
            "round {}: client {} was {} without being in the sampled cohort {:?}",
            e.round,
            e.client,
            e.kind,
            cohort
        );
    }
    // Unlike the fixed-placement arms-race test, per-round sampling can
    // hand a cluster a malicious majority, making its honest outlier
    // collect strikes — so demand the coalition dominates the
    // quarantine log rather than owning it outright.
    let (malicious, honest): (Vec<usize>, Vec<usize>) = suspicion
        .events
        .iter()
        .filter(|e| e.kind == "quarantined")
        .map(|e| e.client)
        .partition(|&c| exp.malicious[c]);
    assert!(
        malicious.len() > honest.len(),
        "quarantines must concentrate on the coalition: malicious {malicious:?} vs honest {honest:?}"
    );
}

#[test]
fn churn_absence_is_bounded_by_the_cohort_not_the_population() {
    // Churn rolls once per bound cohort slot, so even with a population
    // four times the cohort no round can lose more clients than it
    // sampled.
    let mut cfg = fast(209);
    cfg.sampling = Some(SamplingCfg::uniform(256, 64));
    cfg.churn_leave_prob = 0.2;
    let run = run_abd_hfl_with(&cfg, &Telemetry::disabled());
    assert!(
        run.manifest.totals.absent > 0,
        "20% churn over 25 rounds must register absences"
    );
    for r in &run.manifest.rounds {
        assert!(
            r.absent <= 64,
            "round {}: {} absences exceed the 64-slot cohort",
            r.round,
            r.absent
        );
    }
    assert!(run.result.final_accuracy.is_finite());
}
