//! Deadline-driven asynchronous round integration tests (DESIGN.md
//! §12): quorum-vs-deadline close boundaries, bounded-staleness
//! admission, straggler-forced deadline closes without loss of
//! liveness, staleness-attack containment, and same-seed determinism
//! of the whole async path across the clean / faulted / armed fixture
//! classes.

use abd_hfl::attacks::{AdaptiveAttack, Placement, ProtocolAttack};
use abd_hfl::core::config::{AsyncRoundCfg, AttackCfg, HflConfig};
use abd_hfl::core::runner::{
    resume_prepared_with, run_prepared_snapshotting, run_prepared_with, Experiment, RunOutput,
};
use abd_hfl::faults::FaultPlan;
use abd_hfl::ml::synth::SynthConfig;
use abd_hfl::robust::SuspicionConfig;
use abd_hfl::simnet::DelayModel;
use abd_hfl::telemetry::{Event, Telemetry};

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

fn with_async(mut cfg: HflConfig, deadline_us: u64, staleness_bound_us: u64) -> HflConfig {
    cfg.async_rounds = Some(AsyncRoundCfg {
        deadline_us,
        staleness_bound_us,
        link_delay: DelayModel::Uniform { lo: 500, hi: 5_000 },
        tier_deadlines: Vec::new(),
    });
    cfg
}

fn run_recording(cfg: &HflConfig) -> (RunOutput, Vec<Event>, String) {
    let exp = Experiment::try_prepare(cfg).expect("a valid config");
    let (telem, rec) = Telemetry::recording();
    let run = run_prepared_with(&exp, &telem);
    let events = rec.events().to_vec();
    let rendered: String = events.iter().map(|e| format!("{e:?}\n")).collect();
    (run, events, rendered)
}

/// Every `BufferClosed` in the stream as `(cause, close_us, occupancy,
/// expected, round, level, cluster)`.
fn buffer_closes(events: &[Event]) -> Vec<(String, u64, usize, usize, usize, usize, usize)> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::BufferClosed {
                round,
                level,
                cluster,
                cause,
                close_us,
                occupancy,
                expected,
            } => Some((
                cause.clone(),
                *close_us,
                *occupancy,
                *expected,
                *round,
                *level,
                *cluster,
            )),
            _ => None,
        })
        .collect()
}

#[test]
fn same_seed_async_runs_are_deterministic() {
    // The async close path draws from its own RNG stream; two runs of
    // the same (config, seed) must stay byte-identical across all three
    // fixture classes with a finite deadline.
    let clean = {
        let mut cfg = base(AttackCfg::None, 3024);
        cfg.quorum = 0.75;
        cfg.churn_leave_prob = 0.1;
        with_async(cfg, 4_000, 2_000)
    };
    let faulted = {
        let mut cfg = base(AttackCfg::None, 3025);
        cfg.quorum = 0.75;
        cfg.faults = Some(FaultPlan::new().crash_stop(1, 2).straggler(1, 6, 8.0, None));
        with_async(cfg, 4_000, 2_000)
    };
    let armed = {
        let mut cfg = base(
            AttackCfg::Adaptive {
                attack: AdaptiveAttack::alie_default(),
                proportion: 0.25,
                placement: Placement::Prefix,
            },
            3026,
        );
        cfg.suspicion = Some(SuspicionConfig::default());
        cfg.protocol_attack = Some(ProtocolAttack::StalenessExploit);
        with_async(cfg, 4_000, 2_000)
    };
    for (name, cfg) in [("clean", clean), ("faulted", faulted), ("armed", armed)] {
        let (a, _, ev_a) = run_recording(&cfg);
        let (b, _, ev_b) = run_recording(&cfg);
        assert_eq!(
            a.manifest.to_json(),
            b.manifest.to_json(),
            "{name}: same-seed async manifests differ"
        );
        assert_eq!(ev_a, ev_b, "{name}: same-seed async event streams differ");
        assert!(
            ev_a.contains("BufferClosed"),
            "{name}: async run never closed a buffer"
        );
    }
}

#[test]
fn quorum_close_wins_when_quorum_arrives_by_the_deadline() {
    // Constant 2 ms links, deadline exactly 2 ms: the quorum's arrival
    // ties the deadline and the tie goes to the quorum. Everyone lands
    // at the close instant, so every buffer is full and nothing is
    // stale.
    let mut cfg = base(AttackCfg::None, 3100);
    cfg.async_rounds = Some(AsyncRoundCfg {
        deadline_us: 2_000,
        staleness_bound_us: 1_000,
        link_delay: DelayModel::Constant { micros: 2_000 },
        tier_deadlines: Vec::new(),
    });
    let (_, events, _) = run_recording(&cfg);
    let closes = buffer_closes(&events);
    assert!(!closes.is_empty(), "no buffers closed");
    for (cause, close_us, occupancy, expected, ..) in &closes {
        assert_eq!(cause, "quorum", "tie must close as a quorum close");
        assert_eq!(*close_us, 2_000);
        assert_eq!(
            occupancy, expected,
            "constant delay admits everyone on time"
        );
    }
    assert!(
        !events.iter().any(|e| matches!(
            e,
            Event::StaleUpdateAdmitted { .. } | Event::StaleUpdateDropped { .. }
        )),
        "nothing can be stale when all arrivals are at the close"
    );
}

#[test]
fn deadline_close_admits_late_arrivals_within_tau() {
    // Constant 2 ms links, deadline 1999 µs: every arrival misses the
    // deadline by exactly 1 µs and is admitted as τ-late evidence.
    let mut cfg = base(AttackCfg::None, 3101);
    cfg.async_rounds = Some(AsyncRoundCfg {
        deadline_us: 1_999,
        staleness_bound_us: 1_000,
        link_delay: DelayModel::Constant { micros: 2_000 },
        tier_deadlines: Vec::new(),
    });
    let (_, events, _) = run_recording(&cfg);
    let closes = buffer_closes(&events);
    assert!(!closes.is_empty());
    for (cause, close_us, occupancy, ..) in &closes {
        assert_eq!(cause, "deadline");
        assert_eq!(*close_us, 1_999);
        assert_eq!(*occupancy, 0, "nobody arrives before a 1999 µs close");
    }
    let mut admitted = 0usize;
    for e in &events {
        if let Event::StaleUpdateAdmitted {
            lateness_us,
            weight,
            ..
        } = e
        {
            admitted += 1;
            assert_eq!(*lateness_us, 1);
            assert!(*weight > 0.99, "1 µs of lateness is a negligible discount");
        }
        assert!(
            !matches!(e, Event::StaleUpdateDropped { .. }),
            "1 µs late is inside τ = 1000 µs, nothing may drop"
        );
    }
    assert!(admitted > 0, "late arrivals within τ must be admitted");
}

#[test]
fn empty_buffer_extends_to_first_arrival_with_tau_zero() {
    // τ = 0 with every arrival past the deadline: the liveness floor
    // extends the close to the first arrival instead of closing empty,
    // and the boundary arrival counts as on-time (no stale events).
    let mut cfg = base(AttackCfg::None, 3102);
    cfg.async_rounds = Some(AsyncRoundCfg {
        deadline_us: 1_999,
        staleness_bound_us: 0,
        link_delay: DelayModel::Constant { micros: 2_000 },
        tier_deadlines: Vec::new(),
    });
    let (_, events, _) = run_recording(&cfg);
    let closes = buffer_closes(&events);
    assert!(!closes.is_empty());
    for (cause, close_us, occupancy, expected, ..) in &closes {
        assert_eq!(cause, "deadline");
        assert_eq!(*close_us, 2_000, "close extends to the first arrival");
        assert_eq!(occupancy, expected);
    }
    assert!(!events.iter().any(|e| matches!(
        e,
        Event::StaleUpdateAdmitted { .. } | Event::StaleUpdateDropped { .. }
    )),);
}

#[test]
fn straggler_plan_forces_deadline_closes_without_losing_liveness() {
    // φ = 1 with one member of cluster 0 straggling 1000×: its quorum
    // can never form by the deadline, so its buffers deadline-close,
    // drop the straggler beyond τ, and sanction the degraded quorum —
    // while every round still completes within deadline + max link
    // delay.
    let mut cfg = base(AttackCfg::None, 3103);
    cfg.quorum = 1.0;
    cfg.faults = Some(FaultPlan::new().straggler(0, 1, 1_000.0, None));
    let link = DelayModel::Uniform { lo: 500, hi: 5_000 };
    let deadline_us = 6_000;
    cfg.async_rounds = Some(AsyncRoundCfg {
        deadline_us,
        staleness_bound_us: 2_000,
        link_delay: link.clone(),
        tier_deadlines: Vec::new(),
    });
    let (run, events, _) = run_recording(&cfg);
    assert_eq!(
        run.manifest.rounds.len(),
        cfg.rounds,
        "every round must complete (liveness)"
    );
    let closes = buffer_closes(&events);
    assert!(
        closes.iter().any(|(cause, ..)| cause == "deadline"),
        "a 1000x straggler under φ = 1 must force deadline closes"
    );
    let bound = deadline_us + link.max_micros().expect("uniform link is bounded");
    for (_, close_us, .., round, level, cluster) in &closes {
        assert!(
            *close_us <= bound,
            "round {round} level {level} cluster {cluster} closed at {close_us} µs, \
             past deadline + max link delay = {bound} µs"
        );
    }
    assert!(
        events.iter().any(
            |e| matches!(e, Event::StaleUpdateDropped { lateness_us, .. } if *lateness_us > 2_000)
        ),
        "the straggler's update must eventually fall beyond τ and drop"
    );
    // Every below-quorum close is sanctioned at its own site.
    let degraded: Vec<(usize, usize, usize)> = events
        .iter()
        .filter_map(|e| match e {
            Event::DegradedQuorum {
                round,
                level,
                cluster,
                ..
            } => Some((*round, *level, *cluster)),
            _ => None,
        })
        .collect();
    for e in &events {
        if let Event::ClusterAggregated {
            round,
            level,
            cluster,
            inputs,
            quorum,
        } = e
        {
            if inputs < quorum {
                assert!(
                    degraded.contains(&(*round, *level, *cluster)),
                    "below-quorum close at round {round} level {level} cluster {cluster} \
                     lacks a DegradedQuorum sanction"
                );
            }
        }
    }
}

#[test]
fn staleness_exploit_is_admitted_only_at_the_bound() {
    // The staleness adversary stalls malicious members to just inside
    // τ. The protocol must keep its safety line: every admission within
    // τ (at the worst discount, half weight), never beyond it, and the
    // run keeps closing rounds.
    let mut cfg = base(
        AttackCfg::Adaptive {
            attack: AdaptiveAttack::alie_default(),
            proportion: 0.25,
            placement: Placement::Prefix,
        },
        3104,
    );
    cfg.quorum = 0.5;
    cfg.suspicion = Some(SuspicionConfig::default());
    cfg.protocol_attack = Some(ProtocolAttack::StalenessExploit);
    let tau = 2_000u64;
    let cfg = with_async(cfg, 4_000, tau);
    let (run, events, _) = run_recording(&cfg);
    assert_eq!(
        run.manifest.rounds.len(),
        cfg.rounds,
        "liveness under attack"
    );

    let mut stalled_admissions = 0usize;
    for e in &events {
        match e {
            Event::StaleUpdateAdmitted {
                lateness_us,
                weight,
                ..
            } => {
                assert!(
                    *lateness_us <= tau,
                    "staleness safety: admitted {lateness_us} µs late, bound is {tau}"
                );
                if *lateness_us == tau {
                    stalled_admissions += 1;
                    assert!(
                        (*weight - 0.5).abs() < 1e-6,
                        "an exactly-τ-late admission weighs half, got {weight}"
                    );
                }
            }
            Event::StaleUpdateDropped { lateness_us, .. } => {
                assert!(*lateness_us > tau, "drops happen only beyond τ");
            }
            _ => {}
        }
    }
    assert!(
        stalled_admissions > 0,
        "the coalition's stalled uploads must surface as exactly-τ admissions"
    );
    // The honest quorum keeps beating the stallers to the close: the
    // coalition never forces the deadline at the bottom.
    assert!(
        buffer_closes(&events)
            .iter()
            .any(|(cause, ..)| cause == "quorum"),
        "honest members alone still form quorum closes at φ = 0.5"
    );
}

#[test]
fn async_snapshot_resume_reproduces_the_straight_run() {
    // Capture-at-round-2 + resume must agree byte-for-byte with the
    // straight run under a finite deadline (the new stale counters and
    // the occupancy gauge cross the snapshot codec).
    let mut cfg = base(AttackCfg::None, 3105);
    cfg.quorum = 0.75;
    cfg.faults = Some(FaultPlan::new().straggler(0, 1, 50.0, None));
    let cfg = with_async(cfg, 3_000, 1_500);
    let exp = Experiment::try_prepare(&cfg).expect("a valid config");
    let (telem, _rec) = Telemetry::recording();
    let (straight, snapshots) = run_prepared_snapshotting(&exp, &telem, 2);
    let snap = snapshots
        .iter()
        .find(|s| s.round == 2)
        .expect("round-2 snapshot captured");
    let (resume_telem, _rec2) = Telemetry::recording();
    let resumed =
        resume_prepared_with(&exp, &resume_telem, snap).expect("async snapshot must resume");
    assert_eq!(
        straight.manifest.to_json(),
        resumed.manifest.to_json(),
        "resume diverged from the straight async run"
    );
}

#[test]
fn async_config_validation_rejects_nonsense() {
    let h = |cfg: &HflConfig| cfg.topology.build(cfg.seed);

    let zero_deadline = with_async(base(AttackCfg::None, 1), 0, 1_000);
    assert!(zero_deadline.try_validate(&h(&zero_deadline)).is_err());

    let mut bad_tier = with_async(base(AttackCfg::None, 2), 2_000, 1_000);
    bad_tier.async_rounds.as_mut().unwrap().tier_deadlines = vec![(99, 1_000)];
    assert!(bad_tier.try_validate(&h(&bad_tier)).is_err());

    let mut no_async = base(AttackCfg::None, 3);
    no_async.protocol_attack = Some(ProtocolAttack::StalenessExploit);
    assert!(
        no_async.try_validate(&h(&no_async)).is_err(),
        "StalenessExploit without async_rounds is meaningless"
    );

    let mut zero_tau = with_async(base(AttackCfg::None, 4), 2_000, 0);
    zero_tau.protocol_attack = Some(ProtocolAttack::StalenessExploit);
    assert!(
        zero_tau.try_validate(&h(&zero_tau)).is_err(),
        "stalling to 'just inside τ = 0' is on-time; reject the degenerate exploit"
    );

    let ok = with_async(base(AttackCfg::None, 5), 2_000, 1_000);
    assert!(ok.try_validate(&h(&ok)).is_ok());
}

#[test]
fn heterogeneity_profiles_shift_async_arrivals_only() {
    use abd_hfl::core::config::HeterogeneityCfg;

    // Under async rounds, per-client compute/bandwidth profiles stretch
    // arrival delays, so the event stream must differ from the
    // homogeneous run of the same seed...
    let plain = with_async(base(AttackCfg::None, 21), 2_000, 1_000);
    let mut hetero = plain.clone();
    hetero.heterogeneity = Some(HeterogeneityCfg::mixed_devices());
    let (_, _, plain_events) = run_recording(&plain);
    let (_, _, hetero_events) = run_recording(&hetero);
    assert_ne!(
        plain_events, hetero_events,
        "mixed-device profiles must perturb async arrival timing"
    );

    // ...and deterministically: same seed + same profiles, same stream.
    let (run_a, _, events_a) = run_recording(&hetero);
    let (run_b, _, events_b) = run_recording(&hetero);
    assert_eq!(events_a, events_b);
    assert_eq!(run_a.manifest.to_json(), run_b.manifest.to_json());
}

#[test]
fn heterogeneity_profiles_leave_the_sync_path_untouched() {
    use abd_hfl::core::config::HeterogeneityCfg;

    // Without async rounds there is no arrival synthesis, so profiles
    // are inert: the run must be byte-identical to the homogeneous one.
    let plain = base(AttackCfg::None, 22);
    let mut hetero = plain.clone();
    hetero.heterogeneity = Some(HeterogeneityCfg::mixed_devices());
    let (run_p, _, events_p) = run_recording(&plain);
    let (run_h, _, events_h) = run_recording(&hetero);
    assert_eq!(events_p, events_h, "sync path must ignore profiles");
    assert_eq!(
        run_p.result.accuracy, run_h.result.accuracy,
        "sync accuracy trace must be unchanged by inert profiles"
    );
}
