//! The steady-state allocation gate: after a short warmup, a
//! synchronous BRA round performs **zero heap allocations** — the
//! engine's workspace arena, the aggregator scratch, and the training
//! loop's reusable model/SGD buffers absorb every per-round need — and
//! a round closed by the validation vote performs at most
//! [`CBA_CEILING`].
//!
//! The gate drives [`RoundEngine::run_round_into`] directly (the
//! harness loop in `run_prepared_with` allocates for manifests and metrics
//! by design) under the counting allocator, on six fixtures:
//!
//! * **clean** — the fault-free synchronous path;
//! * **deadline** — the clean fixture under `AsyncRoundCfg::lan()`:
//!   every cluster closes a deadline buffer (arrival synthesis, close
//!   time, τ-window admission, weighted aggregation) out of the
//!   engine's workspace. Fault-free, so no deadline fires and no
//!   `degraded_quorum` record is formed;
//! * **pipelined** — the deadline fixture on the pipelined schedule:
//!   the round clock's per-slot start models, arrival stamps, landing
//!   queue and timing record are all sized during warmup;
//! * **faulted** — a crash (with recovery), a leader kill, a healing
//!   partition and a bounded straggler window, all confined to the
//!   warmup rounds. Steady-state rounds then run the fault layer's
//!   queries (crash masks, partition checks, straggle factors) without
//!   any fault *activity*, which must stay allocation-free too.
//! * **sampled** — `sampled_1m`'s shape at a population of 20,000: a
//!   64-slot cohort drawn per round, `StreamingMedian` (P²) at the
//!   bottom and `StreamingTrimmedMean` (reservoir) on top, both past
//!   their exact threshold. The cohort draw makes a few small vectors a
//!   round by design; what the ceiling keeps out is anything per
//!   coordinate — P²'s markers and the reservoir live on the stack and
//!   in the aggregator scratch ([`SAMPLED_CEILING`]).
//! * **cba** — the paper's shape (`paper_iid`: validation vote on top
//!   of two Multi-Krum levels). The vote builds its mechanism, its
//!   evaluator and the `ConsensusOutcome` per decision by design, a
//!   few dozen small vectors; what the ceiling keeps out is anything
//!   per *sample* — 16 scorings of 200 samples each would add 3 200.
//!
//! Every fixture runs at 1 thread and at 2: a fork-join on
//! `hfl-parallel`'s parked worker set allocates nothing (its helper is
//! created once, during warmup), so the invariant holds for the
//! parallel execution form as well as the sequential one (results are
//! byte-identical at any thread count — the work-stealing determinism
//! contract, DESIGN.md §15).
//!
//! One kernel is gated on its own, at the shape the fixtures are too
//! small to reach: Multi-Krum's `aggregate_into` over 128 rows of 4,810
//! coordinates (`agg_wide`'s cluster — sixteen partner blocks, nineteen
//! panel tiles) allocates nothing once its scratch has grown, at 1
//! thread and at 2, over distinct rows and over a coalition of 51
//! identical ones: the distance kernel's panel is on the stack, its
//! accumulators are `scratch.dists`, and the coalition's group map and
//! distinct-row refs are `scratch.groups`.
//!
//! Set-up memory is gated on the same counters
//! (`prepare_holds_the_plan_not_the_training_set`): a sampled
//! population prepares in O(1 label + 1 deal-order entry) bytes per
//! training sample — no feature is drawn before a client trains — and
//! the identity cohort holds its training rows once, in the shards.
//!
//! The allocation counter is process-global, so a concurrently running
//! test would bleed its allocations into the steady-state window: the
//! `#[test]`s serialize on [`COUNTER`], and each then waits for the
//! test harness to fall quiet (see [`alone`]).

use abd_hfl_core::config::{
    AsyncRoundCfg, AttackCfg, HflConfig, LevelAgg, ModelCfg, SamplingCfg, TopologyCfg,
};
use abd_hfl_core::engine::cost::CostCounters;
use abd_hfl_core::engine::RoundEngine;
use abd_hfl_core::pipeline::PipelineConfig;
use abd_hfl_core::runner::Experiment;
use hfl_bench::memprobe::{alloc_count, peak_since, reset_peak, CountingAlloc};
use hfl_faults::FaultPlan;
use hfl_ml::synth::SynthConfig;
use hfl_robust::{AggScratch, Aggregator, AggregatorKind};
use hfl_telemetry::Telemetry;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const WARMUP: usize = 5;
const STEADY: usize = 20;

/// A small all-BRA fixture. The CBA vote path builds its consensus
/// mechanism per decision by design, so the zero-allocation invariant
/// is pinned on the Byzantine-robust averaging path — the hot loop the
/// paper's experiments spend their time in.
fn bra_fixture(seed: u64) -> HflConfig {
    let mut cfg = HflConfig::quick(AttackCfg::None, seed);
    cfg.rounds = WARMUP + STEADY;
    cfg.data = SynthConfig {
        train_samples: 3_200,
        test_samples: 800,
        ..SynthConfig::default()
    };
    for level in cfg.levels.iter_mut() {
        *level = LevelAgg::Bra(AggregatorKind::MultiKrum { f: 1, m: 3 });
    }
    cfg
}

/// [`bra_fixture`] training and scoring `agg_wide`'s MLP: the hidden
/// layer's class-major block and its gather into sample rows run in the
/// scratch the linear model's step leaves unused.
fn mlp_fixture(seed: u64) -> HflConfig {
    let mut cfg = bra_fixture(seed);
    cfg.model = ModelCfg::Mlp { hidden: 64 };
    cfg
}

/// Most allocations a steady-state round of [`cba_fixture`] may make.
/// Measured: 32 (mechanism box, evaluator, per voter one hit count
/// and one scratch — the ballot's stacked `f32` panel, which its exact
/// pass reads too, and one buffer of approximate dots and exact logits
/// — and no model, the voter list, one flat score matrix, one vote
/// mass per proposal, the survivors and the outcome's vectors), in
/// every steady round at 1 and 2 threads; the ceiling leaves 4 of
/// headroom. A panel per proposal (44) fails this, and so does an
/// `f64` panel per voter beside the `f32` one (36 + the rounds that
/// need it), or a `Vec<bool>` vote row per voter (37).
const CBA_CEILING: u64 = 36;

/// `paper_iid` on a small task: the top level stays the validation
/// vote over four proposals, so every round scores 16 (voter, proposal)
/// pairs on 200-sample shards.
fn cba_fixture(seed: u64) -> HflConfig {
    let mut cfg = HflConfig::paper_iid(AttackCfg::None, seed);
    cfg.rounds = WARMUP + STEADY;
    cfg.data = SynthConfig {
        train_samples: 3_200,
        test_samples: 800,
        ..SynthConfig::default()
    };
    cfg
}

/// Most allocations, and most heap bytes above the round's start, a
/// steady-state round of [`sampled_fixture`] may make. Measured: 2 and
/// 1,168 B (the cohort draw). With P²'s d-long marker array and the
/// reservoir's row vector on the heap it was 21 and 85,800 B (691,416 B
/// allocated over the round).
const SAMPLED_CEILING: (u64, u64) = (4, 8 << 10);

/// The benchmark's `sampled_1m` at a population of 20,000: 8 clusters of
/// 8 slots, both streaming rules past `exact_threshold: 4`.
fn sampled_fixture(seed: u64) -> HflConfig {
    let population = 20_000;
    let mut cfg = HflConfig::quick(AttackCfg::None, seed);
    cfg.topology = TopologyCfg::Ecsm {
        total_levels: 2,
        m: 8,
        n_top: 8,
    };
    cfg.levels = vec![
        LevelAgg::Bra(AggregatorKind::StreamingTrimmedMean {
            ratio: 0.2,
            exact_threshold: 4,
        }),
        LevelAgg::Bra(AggregatorKind::StreamingMedian { exact_threshold: 4 }),
    ];
    cfg.flag_level = 1;
    cfg.rounds = WARMUP + STEADY;
    cfg.data = SynthConfig {
        train_samples: population,
        test_samples: 500,
        ..SynthConfig::default()
    };
    cfg.sampling = Some(SamplingCfg::uniform(population, 64));
    cfg
}

/// The clean fixture with every barrier replaced by a deadline buffer.
fn deadline_fixture(seed: u64) -> HflConfig {
    let mut cfg = bra_fixture(seed);
    cfg.async_rounds = Some(AsyncRoundCfg::lan());
    cfg
}

/// The clean fixture plus a fault schedule whose every window opens
/// *and heals* inside warmup, leaving steady-state rounds with a quiet
/// (but active and querying) fault layer.
fn faulted_fixture(seed: u64) -> HflConfig {
    let mut cfg = bra_fixture(seed);
    let split: Vec<usize> = (0..24).collect();
    let rest: Vec<usize> = (24..64).collect();
    cfg.faults = Some(
        FaultPlan::new()
            .crash_recover(1, 3, 4)
            .kill_leader(2, 2, 1, Some(4))
            .partition(1, vec![split, rest], 3)
            .straggler(1, 6, 8.0, Some(4)),
    );
    cfg
}

/// The pipelined schedule's default timing model over a fixture's
/// horizon.
fn pipelined() -> Option<PipelineConfig> {
    Some(PipelineConfig {
        rounds: WARMUP + STEADY,
        ..PipelineConfig::default()
    })
}

/// One fixture: its name, config, schedule (`None` is lockstep) and
/// per-round ceilings — allocations, and heap bytes above the round's
/// start.
type Fixture = (&'static str, HflConfig, Option<PipelineConfig>, (u64, u64));

/// Ceilings of a fixture whose steady rounds must not allocate.
const NOTHING: (u64, u64) = (0, 0);

/// Runs the fixture round by round and asserts every post-warmup round
/// allocates at most `ceiling` times and peaks at most `bytes` above
/// where it started.
fn assert_steady_rounds_alloc_at_most(name: &str, (_, cfg, timing, (ceiling, bytes)): &Fixture) {
    let exp = Experiment::try_prepare(cfg).expect("a valid config");
    let telem = Telemetry::disabled();
    let mut engine = match timing {
        Some(pcfg) => RoundEngine::pipelined(&exp, pcfg),
        None => RoundEngine::for_experiment(&exp),
    };
    let mut global = exp.template.params().to_vec();
    let mut next_global = Vec::with_capacity(global.len());
    let mut cost = CostCounters::default();
    let mut fault_log = Vec::new();
    let mut susp_log = Vec::new();
    for round in 0..cfg.rounds {
        fault_log.clear();
        let before = alloc_count();
        let live = reset_peak();
        engine.run_round_into(
            &global,
            round,
            &mut cost,
            &telem,
            &mut fault_log,
            &mut susp_log,
            &mut next_global,
        );
        std::mem::swap(&mut global, &mut next_global);
        let (allocs, peak) = (alloc_count() - before, peak_since(live));
        if round >= WARMUP {
            assert!(
                allocs <= *ceiling && peak <= *bytes,
                "{name}: steady-state round {round} performed {allocs} heap \
                 allocations peaking at {peak} B, ceilings {ceiling} and {bytes} B \
                 (warmup = {WARMUP} rounds)"
            );
        }
    }
}

/// Held by each test for its whole run (see the module docs).
static COUNTER: Mutex<()> = Mutex::new(());

/// How long the allocation counter must stand still before a test
/// measures, and how long [`alone`] waits for that at most.
const QUIET: Duration = Duration::from_millis(50);
const QUIET_MAX: Duration = Duration::from_secs(2);

/// Takes [`COUNTER`], then waits until no thread has allocated for
/// [`QUIET`]. When a test finishes, the harness's main thread reports
/// it and spawns the next queued test (a dozen or two allocations),
/// just as the test that took the lock next starts measuring; the
/// wait lets that land before the first fixture instead of inside a
/// measured round.
fn alone() -> MutexGuard<'static, ()> {
    // A failed sibling poisons the lock but leaves nothing half-done.
    let guard = COUNTER.lock().unwrap_or_else(|e| e.into_inner());
    let start = Instant::now();
    let (mut seen, mut still_since) = (alloc_count(), start);
    while still_since.elapsed() < QUIET && start.elapsed() < QUIET_MAX {
        std::thread::sleep(Duration::from_millis(1));
        let now = alloc_count();
        if now != seen {
            (seen, still_since) = (now, Instant::now());
        }
    }
    guard
}

/// Runs `fixtures` one after the other at one thread and at two, alone
/// on the allocation counter.
fn gate(fixtures: &[Fixture]) {
    let _alone = alone();
    for threads in [1, 2] {
        hfl_parallel::set_default_threads(threads);
        for fixture in fixtures {
            let name = format!("{} at {threads} thread(s)", fixture.0);
            assert_steady_rounds_alloc_at_most(&name, fixture);
        }
    }
    hfl_parallel::set_default_threads(0);
}

#[test]
fn steady_state_rounds_allocate_nothing() {
    gate(&[
        ("clean", bra_fixture(11), None, NOTHING),
        ("faulted", faulted_fixture(12), None, NOTHING),
        ("deadline", deadline_fixture(14), None, NOTHING),
        ("pipelined", deadline_fixture(15), pipelined(), NOTHING),
        ("mlp", mlp_fixture(19), None, NOTHING),
    ]);
}

#[test]
fn vote_rounds_stay_under_the_allocation_ceiling() {
    gate(&[("cba", cba_fixture(13), None, (CBA_CEILING, u64::MAX))]);
}

#[test]
fn sampled_streaming_rounds_keep_their_state_off_the_heap() {
    gate(&[("sampled", sampled_fixture(18), None, SAMPLED_CEILING)]);
}

#[test]
fn wide_multikrum_allocates_nothing_once_warm() {
    let _alone = alone();
    let (n, d) = (128usize, 4_810usize);
    let rows: Vec<Vec<f32>> = (0..n)
        .map(|i| {
            (0..d)
                .map(|c| ((i * 31 + c * 7) % 101) as f32 * 0.01)
                .collect()
        })
        .collect();
    // `agg_wide`'s cluster 0: a coalition of 51 bit-identical rows.
    let mut coalition = rows.clone();
    for slot in (0..n).rev().step_by(2).take(51) {
        coalition[slot].clone_from(&rows[0]);
    }
    let rule = AggregatorKind::MultiKrum { f: 31, m: 64 };
    let mut scratch = AggScratch::default();
    let mut out = Vec::new();
    for (name, rows) in [("distinct rows", &rows), ("a coalition of 51", &coalition)] {
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        for threads in [1, 2] {
            let allocs = hfl_parallel::with_threads(threads, || {
                rule.aggregate_into(&refs, None, &mut out, &mut scratch);
                let before = alloc_count();
                rule.aggregate_into(&refs, None, &mut out, &mut scratch);
                alloc_count() - before
            });
            assert_eq!(
                allocs, 0,
                "warm Multi-Krum over {name} at {threads} thread(s)"
            );
        }
    }
}

/// Heap high-water mark of `Experiment::try_prepare(cfg)` above what
/// was live before it, in bytes.
fn prepare_peak_bytes(cfg: &HflConfig) -> u64 {
    let base = reset_peak();
    let exp = Experiment::try_prepare(cfg).expect("valid fixture");
    let peak = peak_since(base);
    drop(exp);
    peak
}

/// Most set-up bytes per training sample a sampled population may peak
/// at. Measured: 23.1 at 200,000 samples (1 B label, 1 B malicious
/// flag, 4 B deal-order entry, and while the deal order is built its
/// `usize` form and the per-label index groups). One feature row is
/// 256 B.
const PLAN_BYTES_PER_SAMPLE: u64 = 32;

#[test]
fn prepare_holds_the_plan_not_the_training_set() {
    let _alone = alone();

    // Sampled: population = training samples, so a client holds one.
    let samples = 200_000usize;
    let mut sampled = bra_fixture(16);
    sampled.data.train_samples = samples;
    sampled.sampling = Some(SamplingCfg::uniform(samples, 64));
    let test_rows = (sampled.data.test_samples * sampled.data.dim * 4) as u64;
    let peak = prepare_peak_bytes(&sampled);
    assert!(
        peak <= test_rows + PLAN_BYTES_PER_SAMPLE * samples as u64,
        "sampled prepare peaked at {peak} B = {:.1} B per training sample beside the test \
         split, ceiling {PLAN_BYTES_PER_SAMPLE}",
        (peak - test_rows) as f64 / samples as f64
    );

    // Identity cohort: every training row lives in its client's shard
    // and nowhere else.
    let dense = bra_fixture(17);
    let rows = |n: usize| (n * dense.data.dim * 4) as u64;
    let (train, test) = (
        rows(dense.data.train_samples),
        rows(dense.data.test_samples),
    );
    let plan = PLAN_BYTES_PER_SAMPLE * dense.data.train_samples as u64;
    for threads in [1, 2] {
        let peak = hfl_parallel::with_threads(threads, || prepare_peak_bytes(&dense));
        assert!(
            peak <= train + test + plan,
            "dense prepare at {threads} thread(s) peaked at {peak} B: more than one copy of \
             the training rows ({train} B) beside the test split ({test} B) and the plan"
        );
    }
}
