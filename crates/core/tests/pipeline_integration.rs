//! Integration tests for the pipelined schedule of the round engine
//! (`RunOptions::pipeline`): the timing decomposition σ_w / σ / ν, how
//! it moves with the config's links, deadlines, faults and flag level,
//! topology generality, and agreement with the lockstep schedule on
//! what is charged and what is learned.

use abd_hfl_core::config::{
    AsyncRoundCfg, AttackCfg, ConfigError, HflConfig, LevelAgg, SamplingCfg, TopologyCfg,
};
use abd_hfl_core::pipeline::{PipelineConfig, PipelineResult};
use abd_hfl_core::run::{run as run_lockstep, RunOptions};
use hfl_consensus::ConsensusKind;
use hfl_faults::FaultPlan;
use hfl_ml::synth::SynthConfig;
use hfl_robust::AggregatorKind;
use hfl_simnet::DelayModel;
use hfl_telemetry::{Event, RunManifest, Telemetry};

fn run_pipeline(cfg: &HflConfig, pcfg: &PipelineConfig) -> PipelineResult {
    RunOptions::pipeline(pcfg).run(cfg).into_pipeline().0
}

fn small_cfg(seed: u64) -> HflConfig {
    let mut cfg = HflConfig::quick(AttackCfg::None, seed);
    cfg.data = SynthConfig {
        train_samples: 3_200,
        test_samples: 500,
        ..SynthConfig::default()
    };
    cfg
}

fn pcfg(rounds: usize) -> PipelineConfig {
    PipelineConfig {
        rounds,
        ..PipelineConfig::default()
    }
}

/// LAN links with a collection deadline and a τ of a tenth of it.
fn lan_with_deadline(deadline_us: u64) -> AsyncRoundCfg {
    AsyncRoundCfg {
        deadline_us,
        staleness_bound_us: deadline_us / 10,
        link_delay: DelayModel::lan(),
        tier_deadlines: Vec::new(),
    }
}

fn mean(res: &PipelineResult, f: fn(&abd_hfl_core::pipeline::RoundTiming) -> f64) -> f64 {
    res.rounds.iter().map(f).sum::<f64>() / res.rounds.len() as f64
}

fn degraded_quorums(manifest: &RunManifest) -> usize {
    let degraded = |f: &&hfl_telemetry::FaultRecord| f.kind == "degraded_quorum";
    manifest.faults.iter().filter(degraded).count()
}

#[test]
fn every_round_has_complete_timing() {
    let res = run_pipeline(&small_cfg(1), &pcfg(5));
    assert_eq!(res.rounds.len(), 5, "missing round timings");
    assert!(res.messages > 0);
    for (i, rt) in res.rounds.iter().enumerate() {
        assert_eq!(rt.round, i);
        assert!(rt.sigma > 0.0 && rt.sigma_w >= 0.0);
        assert!(rt.sigma >= rt.sigma_w, "σ < σw in round {i}");
        assert!(rt.sigma_pg <= rt.sigma + 1e-12);
        assert!((0.0..=1.0).contains(&rt.nu), "ν out of range: {}", rt.nu);
    }
}

#[test]
fn pipeline_saves_time_vs_sequential() {
    // Sequential workflow: each round costs (training + σ) because
    // devices idle until the global model returns. The pipeline must
    // beat that per-round period.
    let pcfg = pcfg(5);
    let res = run_pipeline(&small_cfg(2), &pcfg);
    let train_secs = pcfg.train_delay.mean_micros() / 1e6;
    let sequential = train_secs + res.mean_sigma;
    assert!(
        res.mean_period < sequential,
        "period {} vs sequential {}",
        res.mean_period,
        sequential
    );
    // And ν is meaningfully positive: aggregation is being hidden.
    let mean_nu = mean(&res, |r| r.nu);
    assert!(mean_nu > 0.05, "no pipelining benefit: ν = {mean_nu}");
}

#[test]
fn same_seed_runs_are_identical() {
    let run = |seed| {
        RunOptions::pipeline(&pcfg(3))
            .run(&small_cfg(seed))
            .into_pipeline()
    };
    let (a, ma) = run(3);
    let (b, mb) = run(3);
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.sim_time_secs, b.sim_time_secs);
    assert_eq!(ma.to_json(), mb.to_json());
    assert_ne!(ma.to_json(), run(4).1.to_json());
}

#[test]
fn corrections_are_applied_in_the_pipeline() {
    let res = run_pipeline(&small_cfg(2), &pcfg(5));
    assert!(
        res.corrections_applied > 0,
        "Eq. (1) merge path never executed"
    );
}

#[test]
fn a_global_model_slower_than_a_round_still_lands() {
    // A top aggregation of 80 ms against ~70 ms rounds: global model r
    // reaches the devices after round r+1's training is over, so it
    // must be merged into a later round's window, not lost.
    let slow_top = PipelineConfig {
        agg_delay: DelayModel::Constant { micros: 1_000 },
        cba_delay_factor: 80.0,
        ..pcfg(6)
    };
    let res = run_pipeline(&small_cfg(9), &slow_top);
    assert!(res.corrections_applied > 0, "late global models were lost");
}

#[test]
fn pipeline_works_on_two_level_hierarchy() {
    let mut cfg = small_cfg(3);
    cfg.topology = TopologyCfg::Ecsm {
        total_levels: 2,
        m: 8,
        n_top: 4,
    };
    cfg.levels = vec![
        LevelAgg::Cba(ConsensusKind::VoteMajority),
        LevelAgg::Bra(AggregatorKind::Median),
    ];
    cfg.flag_level = 1;
    let res = run_pipeline(&cfg, &pcfg(3));
    assert_eq!(res.rounds.len(), 3);
    assert!(res.final_accuracy > 0.3, "acc {}", res.final_accuracy);
}

#[test]
fn pipeline_works_on_four_level_hierarchy() {
    let mut cfg = small_cfg(4);
    cfg.topology = TopologyCfg::Ecsm {
        total_levels: 4,
        m: 2,
        n_top: 8,
    };
    cfg.levels = vec![
        LevelAgg::Cba(ConsensusKind::VoteMajority),
        LevelAgg::Bra(AggregatorKind::Median),
        LevelAgg::Bra(AggregatorKind::Median),
        LevelAgg::Bra(AggregatorKind::Median),
    ];
    cfg.flag_level = 2;
    let res = run_pipeline(&cfg, &pcfg(3));
    assert_eq!(res.rounds.len(), 3);
}

#[test]
fn both_schedules_learn_comparable_models() {
    // The pipeline is a *scheduling* change; what is learned per unit of
    // training should be comparable to the lockstep schedule on the
    // same task (within a generous band — a pipelined round trains from
    // flag partials, so it sees fewer effective global combinations).
    let mut cfg = small_cfg(5);
    cfg.rounds = 12;
    cfg.eval_every = 12;
    let lockstep = run_lockstep(&cfg);
    let pipelined = run_pipeline(&cfg, &pcfg(12));
    assert!(
        pipelined.final_accuracy > 0.5,
        "{}",
        pipelined.final_accuracy
    );
    assert!(
        (lockstep.final_accuracy - pipelined.final_accuracy).abs() < 0.25,
        "schedules diverge: lockstep {} vs pipelined {}",
        lockstep.final_accuracy,
        pipelined.final_accuracy
    );
}

#[test]
fn final_accuracy_is_the_last_global_model_at_the_eval_cadence() {
    let mut cfg = small_cfg(6);
    cfg.eval_every = 2;
    let (res, manifest) = RunOptions::pipeline(&pcfg(5)).run(&cfg).into_pipeline();
    let evaluated: Vec<usize> = manifest
        .rounds
        .iter()
        .filter(|r| r.accuracy.is_some())
        .map(|r| r.round)
        .collect();
    assert_eq!(evaluated, vec![2, 4, 5], "eval_every = 2, plus the last");
    assert_eq!(manifest.rounds[4].accuracy, Some(res.final_accuracy));
    assert_eq!(manifest.final_accuracy, res.final_accuracy);
}

#[test]
fn slow_network_increases_waiting() {
    // When the network dominates, σw — the only time devices really
    // wait — grows. (ν itself need not fall: with *every* link slow the
    // hops above ℓ_F, which the pipeline hides, slow down as well.)
    let with_links = |micros| {
        let mut cfg = small_cfg(6);
        cfg.async_rounds = Some(AsyncRoundCfg {
            link_delay: DelayModel::Constant { micros },
            ..lan_with_deadline(u64::MAX)
        });
        run_pipeline(&cfg, &pcfg(4))
    };
    let (fast, slow) = (with_links(100), with_links(30_000));
    assert!(
        mean(&slow, |r| r.sigma_w) > mean(&fast, |r| r.sigma_w),
        "slow network should increase waiting"
    );
}

#[test]
fn message_volume_scales_with_rounds() {
    let a = run_pipeline(&small_cfg(7), &pcfg(2));
    let b = run_pipeline(&small_cfg(7), &pcfg(6));
    assert!(
        b.messages > 2 * a.messages,
        "messages must grow with rounds: {} vs {}",
        a.messages,
        b.messages
    );
}

#[test]
fn flag_closer_to_bottom_reduces_waiting() {
    // ℓF = bottom (2) → flag is the bottom cluster's own partial:
    // minimal σw. ℓF = 1 → wait for one more level.
    let with_flag = |flag_level| {
        let mut cfg = small_cfg(5);
        cfg.flag_level = flag_level;
        run_pipeline(&cfg, &pcfg(4))
    };
    let (low, high) = (with_flag(2), with_flag(1));
    let (w_low, w_high) = (mean(&low, |r| r.sigma_w), mean(&high, |r| r.sigma_w));
    assert!(
        w_low < w_high,
        "flag at bottom should wait less: {w_low} vs {w_high}"
    );
    assert!(mean(&low, |r| r.nu) > mean(&high, |r| r.nu));
}

#[test]
fn deadline_shortens_straggler_rounds() {
    // Heavy straggler tail: without a deadline the leader waits for the
    // slowest trainer; with one it closes at the deadline, and the
    // stragglers — still training when their next flag model arrives —
    // sit rounds out.
    let straggling = PipelineConfig {
        train_delay: DelayModel::Straggler {
            base: Box::new(DelayModel::Constant { micros: 20_000 }),
            p: 0.1,
            factor: 20.0, // 400 ms stragglers
        },
        ..pcfg(3)
    };
    let cfg = small_cfg(10);
    let (slow, slow_manifest) = RunOptions::pipeline(&straggling).run(&cfg).into_pipeline();
    let mut cut = cfg.clone();
    cut.async_rounds = Some(lan_with_deadline(30_000));
    let (fast, fast_manifest) = RunOptions::pipeline(&straggling).run(&cut).into_pipeline();
    assert!(
        fast.mean_period < slow.mean_period,
        "deadline did not help: {} vs {}",
        fast.mean_period,
        slow.mean_period
    );
    assert_eq!(slow_manifest.totals.absent, 0, "waiting skips nobody");
    assert!(fast_manifest.totals.absent > 0, "nobody sat a round out");
}

#[test]
fn slow_leaf_uplinks_inflate_collection_time() {
    // Appendix E: leaf bandwidth dominates τ_L (the bottom leaders'
    // collection phase), stretching σ. A device's slow uplink is a
    // straggler window of the fault plan.
    let cfg = small_cfg(11);
    let h = cfg.topology.build(cfg.seed);
    let mut slow_leaves = cfg.clone();
    slow_leaves.faults = Some(
        h.level(h.bottom_level())
            .clusters
            .iter()
            .flat_map(|c| c.members[1..].iter())
            .fold(FaultPlan::new(), |plan, &leaf| {
                plan.straggler(0, leaf, 10.0, None)
            }),
    );
    let fast = run_pipeline(&cfg, &pcfg(3));
    let slow = run_pipeline(&slow_leaves, &pcfg(3));
    assert!(
        mean(&slow, |r| r.sigma) > mean(&fast, |r| r.sigma),
        "slow leaf uplinks must stretch σ: {} vs {}",
        mean(&slow, |r| r.sigma),
        mean(&fast, |r| r.sigma)
    );
    // The slowdown sits wholly below ℓ_F, where nothing hides it: the
    // efficiency indicator drops (Eq. 3's qualitative content).
    assert!(mean(&slow, |r| r.nu) < mean(&fast, |r| r.nu));
}

/// All delays constant — training 20 ms, links 1 ms, aggregation 2 ms,
/// consensus 4× that — so every stamp of round 0 has a closed form.
fn constant_delays(top_deadline_us: u64) -> (HflConfig, PipelineConfig) {
    let mut cfg = small_cfg(12);
    cfg.async_rounds = Some(AsyncRoundCfg {
        deadline_us: u64::MAX,
        staleness_bound_us: 10_000,
        link_delay: DelayModel::Constant { micros: 1_000 },
        tier_deadlines: vec![(0, top_deadline_us)],
    });
    let pcfg = PipelineConfig {
        train_delay: DelayModel::Constant { micros: 20_000 },
        agg_delay: DelayModel::Constant { micros: 2_000 },
        cba_delay_factor: 4.0,
        rounds: 1,
    };
    (cfg, pcfg)
}

#[test]
fn deadline_closed_cba_level_takes_the_cba_duration() {
    // Bottom buffers open at 20 ms (training done) and close at 21 ms
    // (one link), level 1 closes at 21 + 2 + 1 = 24 ms and the top's
    // buffer opens at 26 ms. Its four proposals arrive together at
    // 27 ms: a 1 s deadline lets the quorum close there; a 0.5 ms
    // deadline closes at 26.5 ms and admits them τ-late. Either way the
    // (CBA) top then takes `cba_delay_factor × agg_delay` = 8 ms.
    // σ is measured from the first arrival at 21 ms to the global
    // model's arrival at each bottom leader — 0, 1 or 2 hops below the
    // top leader, 1.5 on average over the 16 clusters.
    let sigma = |top_deadline_us| {
        let (cfg, pcfg) = constant_delays(top_deadline_us);
        let (telem, rec) = Telemetry::recording();
        let (res, _) = RunOptions::pipeline(&pcfg)
            .telemetry(&telem)
            .run(&cfg)
            .into_pipeline();
        let top_close = rec.events().into_iter().find_map(|e| match e {
            Event::BufferClosed {
                level: 0,
                cause,
                close_us,
                ..
            } => Some((cause, close_us)),
            _ => None,
        });
        (res.rounds[0].sigma, top_close.unwrap())
    };
    let (by_quorum, close) = sigma(1_000_000);
    assert_eq!(close, ("quorum".to_string(), 27_000));
    assert!((by_quorum - (27.0 + 8.0 + 1.5 - 21.0) / 1e3).abs() < 1e-9);
    let (by_deadline, close) = sigma(500);
    assert_eq!(close, ("deadline".to_string(), 26_500));
    assert!((by_deadline - (26.5 + 8.0 + 1.5 - 21.0) / 1e3).abs() < 1e-9);
}

#[test]
fn pipelined_manifest_carries_the_timing_and_the_round_series() {
    let cfg = small_cfg(20);
    let (telem, rec) = Telemetry::recording();
    let (res, manifest) = RunOptions::pipeline(&pcfg(2))
        .telemetry(&telem)
        .run(&cfg)
        .into_pipeline();
    assert_eq!(manifest.label, "pipeline");
    assert_eq!(manifest.rounds.len(), 2);
    assert_eq!(manifest.totals.messages, res.messages);
    assert_eq!(
        manifest.rounds.iter().map(|r| r.messages).sum::<u64>(),
        res.messages
    );
    assert_eq!(manifest.final_accuracy, res.final_accuracy);
    for name in [
        "pipeline_sigma_w_seconds",
        "pipeline_sigma_seconds",
        "pipeline_nu",
    ] {
        assert!(manifest.metrics.iter().any(|m| m.name == name), "{name}");
    }
    // The buffer clock is absolute: round 1's buffers close after
    // round 0's global model was formed.
    let closes = |round| {
        let at = rec.events().into_iter().filter_map(move |e| match e {
            Event::BufferClosed {
                round: r, close_us, ..
            } if r == round => Some(close_us),
            _ => None,
        });
        at.collect::<Vec<u64>>()
    };
    let first_round_end = closes(0).into_iter().max().unwrap();
    assert!(closes(1).into_iter().max().unwrap() > first_round_end);
    assert!(res.sim_time_secs * 1e6 > first_round_end as f64);
}

#[test]
fn crash_faults_shed_messages_but_rounds_complete() {
    let mut cfg = small_cfg(30);
    cfg.faults = Some(FaultPlan::new().crash_stop(1, 5));
    let faulted = run_pipeline(&cfg, &pcfg(3));
    assert_eq!(faulted.rounds.len(), 3, "rounds lost to a crash");
    cfg.faults = None;
    let clean = run_pipeline(&cfg, &pcfg(3));
    assert!(
        faulted.messages < clean.messages,
        "crashing a device must shed transfers: {} vs {}",
        faulted.messages,
        clean.messages
    );
}

#[test]
fn lost_deliveries_degrade_quorums_instead_of_blocking() {
    // Neither config states a deadline and φ = 1: before the fault
    // layer's degraded quorum ⌈φ·alive⌉ reached the pipeline, both were
    // rejected as unable to progress. Now every round closes over the
    // survivors and says so.
    let lossy = {
        let mut cfg = small_cfg(8);
        cfg.faults = Some(FaultPlan::new().loss_burst(0, 0.10, 4));
        cfg
    };
    let crashing = {
        let mut cfg = small_cfg(8);
        cfg.faults = Some(FaultPlan::new().crash_stop(1, 0));
        cfg
    };
    for cfg in [lossy, crashing] {
        let (res, manifest) = RunOptions::pipeline(&pcfg(4))
            .try_run(&cfg)
            .expect("a fault plan needs no deadline to progress")
            .into_pipeline();
        assert_eq!(res.rounds.len(), 4);
        assert!(degraded_quorums(&manifest) > 0);
    }
}

#[test]
fn malformed_delay_models_are_config_errors_on_both_schedules() {
    let malformed = [
        DelayModel::Uniform { lo: 9, hi: 3 },
        DelayModel::Exponential { mean: 0.0 },
        DelayModel::Exponential { mean: f64::NAN },
        DelayModel::LogNormal {
            mu: 1.0,
            sigma: -0.5,
        },
        DelayModel::Straggler {
            base: Box::new(DelayModel::lan()),
            p: 1.5,
            factor: 2.0,
        },
        DelayModel::Straggler {
            base: Box::new(DelayModel::lan()),
            p: 0.5,
            factor: 0.5,
        },
        DelayModel::Straggler {
            base: Box::new(DelayModel::Exponential { mean: -1.0 }),
            p: 0.5,
            factor: 2.0,
        },
    ];
    let delay_error = |which| {
        move |e: ConfigError| match e {
            ConfigError::DelayOutOfRange { which: w, .. } => assert_eq!(w, which),
            other => panic!("expected a {which} error, got {other}"),
        }
    };
    for bad in malformed {
        // A link model is the config's, read by both schedules.
        let mut cfg = small_cfg(40);
        cfg.async_rounds = Some(AsyncRoundCfg {
            link_delay: bad.clone(),
            ..AsyncRoundCfg::lan()
        });
        let lockstep = RunOptions::new().try_run(&cfg).map(drop);
        lockstep.map_err(delay_error("link_delay")).unwrap_err();
        let pipelined = RunOptions::pipeline(&pcfg(2)).try_run(&cfg).map(drop);
        pipelined.map_err(delay_error("link_delay")).unwrap_err();
        // Training and aggregation durations are the pipelined run's.
        let train = PipelineConfig {
            train_delay: bad.clone(),
            ..pcfg(2)
        };
        let run = RunOptions::pipeline(&train).try_run(&small_cfg(40));
        run.map(drop)
            .map_err(delay_error("train_delay"))
            .unwrap_err();
        let agg = PipelineConfig {
            agg_delay: bad,
            ..pcfg(2)
        };
        let run = RunOptions::pipeline(&agg).try_run(&small_cfg(40));
        run.map(drop).map_err(delay_error("agg_delay")).unwrap_err();
    }
    let factor = PipelineConfig {
        cba_delay_factor: f64::NAN,
        ..pcfg(2)
    };
    let run = RunOptions::pipeline(&factor).try_run(&small_cfg(40));
    run.map(drop)
        .map_err(delay_error("cba_delay_factor"))
        .unwrap_err();
}

#[test]
fn sampled_cohorts_run_on_the_pipelined_schedule() {
    // The clock is topological (slots); shards, training streams and
    // malicious flags follow the client a round binds to the slot.
    let mut cfg = small_cfg(50);
    cfg.sampling = Some(SamplingCfg::uniform(640, 64));
    let (a, ma) = RunOptions::pipeline(&pcfg(6)).run(&cfg).into_pipeline();
    let (_, mb) = RunOptions::pipeline(&pcfg(6)).run(&cfg).into_pipeline();
    assert_eq!(a.rounds.len(), 6);
    assert!(a.final_accuracy > 0.3, "acc {}", a.final_accuracy);
    assert_eq!(ma.to_json(), mb.to_json());
}

#[test]
fn schedules_charge_the_same_transfers_when_the_clock_cannot_reorder() {
    // Constant training time, instantaneous links and aggregation,
    // φ = 1: every candidate of every buffer arrives at the same
    // instant under either schedule, so the pipelined run keeps the
    // same slots in every cluster and charges exactly what the lockstep
    // run of the same config does. (All-BRA: a consensus top's traffic
    // depends on the models, which the two schedules train differently.)
    let mut cfg = small_cfg(60);
    cfg.levels = vec![LevelAgg::Bra(AggregatorKind::MultiKrum { f: 1, m: 3 }); 3];
    cfg.rounds = 4;
    cfg.async_rounds = Some(AsyncRoundCfg {
        link_delay: DelayModel::Constant { micros: 0 },
        ..AsyncRoundCfg::lan()
    });
    let instant = PipelineConfig {
        train_delay: DelayModel::Constant { micros: 30_000 },
        agg_delay: DelayModel::Constant { micros: 0 },
        cba_delay_factor: 1.0,
        rounds: 4,
    };
    let kept = |events: Vec<Event>| -> Vec<(usize, usize, usize, usize)> {
        let aggregated = events.into_iter().filter_map(|e| match e {
            Event::ClusterAggregated {
                round,
                level,
                cluster,
                inputs,
                ..
            } => Some((round, level, cluster, inputs)),
            _ => None,
        });
        aggregated.collect()
    };
    let (telem, rec) = Telemetry::recording();
    let lockstep = RunOptions::new().telemetry(&telem).run(&cfg).into_sync();
    let lockstep_kept = kept(rec.events());
    let (telem, rec) = Telemetry::recording();
    let (_, pipelined) = RunOptions::pipeline(&instant)
        .telemetry(&telem)
        .run(&cfg)
        .into_pipeline();
    assert_eq!(kept(rec.events()), lockstep_kept);
    assert_eq!(pipelined.rounds.len(), 4);
    for (p, l) in pipelined.rounds.iter().zip(&lockstep.manifest.rounds) {
        assert_eq!(
            (p.messages, p.bytes),
            (l.messages, l.bytes),
            "round {}",
            p.round
        );
    }
}
