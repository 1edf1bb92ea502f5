//! Telemetry accounting invariants: the structured `MessagesSent` events,
//! the `hfl_*` metric counters, the `RunManifest` totals and the public
//! `RunResult` cost counters must all agree — and, for all-BRA ECSM
//! topologies with full quorum and no churn, must match the closed-form
//! message count of Algorithms 3–5:
//!
//! ```text
//! per round:  Σ_{ℓ=1..L} 2·N_ℓ   (partial agg: upload + broadcast)
//!           + 2·N_top            (top-cluster aggregation)
//!           + Σ_{ℓ=1..L} N_ℓ     (global-model dissemination)
//! ```

use abd_hfl::core::config::{AttackCfg, HflConfig, LevelAgg, TopologyCfg};
use abd_hfl::core::run::RunOptions;
use abd_hfl::robust::AggregatorKind;
use abd_hfl::telemetry::{Event, Telemetry};

fn run_abd_hfl_with(cfg: &abd_hfl::core::HflConfig, telem: &Telemetry) -> abd_hfl::core::RunOutput {
    RunOptions::new()
        .telemetry(telem)
        .try_run(cfg)
        .expect("a valid config")
}

/// An all-BRA configuration where every message is countable exactly:
/// full quorum, no churn, no attack.
fn countable_cfg(total_levels: usize, m: usize, n_top: usize, seed: u64) -> HflConfig {
    let mut cfg = HflConfig::quick(AttackCfg::None, seed);
    cfg.topology = TopologyCfg::Ecsm {
        total_levels,
        m,
        n_top,
    };
    cfg.levels = vec![LevelAgg::Bra(AggregatorKind::FedAvg); total_levels];
    cfg.quorum = 1.0;
    cfg.churn_leave_prob = 0.0;
    cfg.rounds = 3;
    cfg.eval_every = 3;
    cfg
}

/// The closed-form per-round message count for the all-BRA ECSM run.
fn expected_messages_per_round(cfg: &HflConfig) -> u64 {
    let h = match cfg.topology {
        TopologyCfg::Ecsm {
            total_levels,
            m,
            n_top,
        } => abd_hfl::simnet::Hierarchy::ecsm(total_levels, m, n_top),
        _ => panic!("countable configs are ECSM"),
    };
    let bottom = h.bottom_level();
    let below_top: u64 = (1..=bottom).map(|l| h.level(l).num_nodes() as u64).sum();
    // Partial aggregation (2 per node), top aggregation, dissemination.
    2 * below_top + 2 * h.level(0).num_nodes() as u64 + below_top
}

fn check_conservation(total_levels: usize, m: usize, n_top: usize, seed: u64) {
    let cfg = countable_cfg(total_levels, m, n_top, seed);
    let (telem, recorder) = Telemetry::recording();
    let run = run_abd_hfl_with(&cfg, &telem);

    let expected = expected_messages_per_round(&cfg) * cfg.rounds as u64;
    assert_eq!(
        run.result.messages, expected,
        "RunResult.messages diverges from the closed-form count"
    );

    // Counter ↔ result ↔ manifest agree.
    let counted = telem.registry().counter("hfl_messages_total", &[]).get();
    assert_eq!(counted, run.result.messages, "counter vs RunResult");
    assert_eq!(
        run.manifest.totals.messages, run.result.messages,
        "manifest totals vs RunResult"
    );
    assert_eq!(
        telem.registry().counter("hfl_bytes_total", &[]).get(),
        run.result.bytes,
        "bytes counter vs RunResult"
    );

    // Per-round manifest records sum to the totals.
    let round_sum: u64 = run.manifest.rounds.iter().map(|r| r.messages).sum();
    assert_eq!(round_sum, run.result.messages, "manifest rounds vs totals");

    // Every cost increment was mirrored by a MessagesSent event.
    let events = recorder.events();
    let (event_msgs, event_bytes) = events.iter().fold((0u64, 0u64), |acc, e| match e {
        Event::MessagesSent { count, bytes, .. } => (acc.0 + count, acc.1 + bytes),
        _ => acc,
    });
    assert_eq!(event_msgs, run.result.messages, "MessagesSent event sum");
    assert_eq!(event_bytes, run.result.bytes, "MessagesSent byte sum");

    // Bytes are messages × one fixed per-model payload.
    assert_eq!(run.result.bytes % run.result.messages, 0);
    assert!(run.result.bytes / run.result.messages >= 4);

    // No churn, no attack: nothing absent, nothing excluded.
    assert_eq!(run.result.absent_total, 0);
    assert_eq!(run.result.excluded_total, 0);
}

#[test]
fn messages_and_bytes_are_conserved_in_three_level_ecsm() {
    // The paper's evaluation shape: 3 levels, m = 4, 4 top nodes.
    check_conservation(3, 4, 4, 2024);
}

#[test]
fn messages_and_bytes_are_conserved_in_two_level_ecsm() {
    check_conservation(2, 4, 4, 2025);
}

#[test]
fn recording_and_disabled_telemetry_agree_on_all_costs() {
    let cfg = countable_cfg(3, 4, 4, 77);
    let (telem, _recorder) = Telemetry::recording();
    let recorded = run_abd_hfl_with(&cfg, &telem);
    let silent = run_abd_hfl_with(&cfg, &Telemetry::disabled());
    // Instrumentation only observes: identical numerics either way.
    assert_eq!(recorded.result.final_accuracy, silent.result.final_accuracy);
    assert_eq!(recorded.result.messages, silent.result.messages);
    assert_eq!(recorded.result.bytes, silent.result.bytes);
    assert_eq!(
        recorded.manifest.to_json().to_string(),
        silent.manifest.to_json().to_string(),
        "manifests must not depend on whether events were recorded"
    );
}
