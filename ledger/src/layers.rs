//! The traced pass: one extra rep per workload that drives the round by
//! hand under spans, then **replays** each layer on that round's real
//! inputs, so a round's wall time can be attributed to the crates that
//! spent it. Everything is timed from outside, around public calls.
//!
//! Replay is over full cluster membership (no quorum cut, no faults), so
//! `core.engine_self_ms_per_round` — the aggregate phase minus the
//! replayed robust and consensus time — is an attribution *estimate*.

use std::hint::black_box;
use std::time::Instant;

use abd_hfl_core::config::{AttackCfg, HflConfig, LevelAgg};
use abd_hfl_core::engine::{CostCounters, RoundEngine};
use abd_hfl_core::pipeline::PipelineConfig;
use abd_hfl_core::run::RunOptions;
use abd_hfl_core::runner::{
    run_prepared_snapshotting, run_prepared_with, Experiment, RunResult, TrainWorkspace,
};
use hfl_attacks::ModelAttack;
use hfl_bench::memprobe;
use hfl_consensus::eval::AccuracyEvaluator;
use hfl_ml::rng::rng_for_n;
use hfl_ml::sgd::{train_local_scratch, TrainScratch};
use hfl_ml::Model;
use hfl_oracle::harness::{check_cached, SnapshotCache};
use hfl_robust::{AggScratch, Aggregator};
use hfl_snapshot::EngineSnapshot;
use hfl_telemetry::{fnv1a_hex, Event, RunManifest, Telemetry};

use crate::alloc::requested_bytes;
use crate::e2e::{chain, telemetry_for, Prepared, RepOutcome};
use crate::kernels;
use crate::report::{Metric, Metrics};
use crate::stats::Summary;
use crate::trace::{total_ns, Span, SpanId, Tracer};
use crate::workloads::{Scale, Workload};

/// Every per-layer metric with its unit, in reporting order. Each
/// workload's traced pass reports all of them; one that does not apply
/// to a workload (vote consensus on an all-BRA run, ν outside the
/// pipeline) reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.prepare_s", "s"),
    ("core.train_frac", "fraction"),
    ("core.aggregate_frac", "fraction"),
    ("core.evaluate_frac", "fraction"),
    ("core.loop_other_frac", "fraction"),
    ("core.train_ms_per_round", "ms"),
    ("core.aggregate_ms_per_round", "ms"),
    ("core.evaluate_ms_per_call", "ms"),
    ("core.engine_self_ms_per_round", "ms"),
    ("core.cohort_us", "us"),
    ("core.messages_per_round", "count"),
    ("core.bytes_per_round", "B"),
    ("core.allocs_per_round", "count"),
    ("core.alloc_bytes_per_round", "B"),
    ("core.pipeline.nu", "fraction"),
    ("core.pipeline.sim_round_period_ms", "ms"),
    ("core.pipeline.corrections_per_round", "count"),
    ("core.pipeline.messages_per_round", "count"),
    ("ml.train_client_linear650_us", "us"),
    ("ml.train_client_mlp4810_us", "us"),
    ("ml.replay_client_us", "us"),
    ("ml.eval_ns_per_sample", "ns"),
    ("ml.shard_derive_us", "us"),
    ("ml.synth_gen_ms", "ms"),
    ("tensor.dist_sq_block_ns", "ns"),
    ("tensor.mean_of_ns", "ns"),
    ("tensor.weighted_mean_of_ns", "ns"),
    ("tensor.coordinate_median_ns", "ns"),
    ("tensor.dot_d64_ns", "ns"),
    ("tensor.axpy_d64_ns", "ns"),
    ("parallel.fork_join_us", "us"),
    ("parallel.small_task_penalty", "ratio"),
    ("robust.multikrum_n128_d4810_ms", "ms"),
    ("robust.multikrum_n4_d650_us", "us"),
    ("robust.streaming_tmean_n8_d650_us", "us"),
    ("robust.streaming_median_n8_d650_us", "us"),
    ("robust.replay_ms_per_round", "ms"),
    ("attacks.craft_ms_per_round", "ms"),
    ("consensus.vote_decide_ms", "ms"),
    ("consensus.evaluator_build_ms", "ms"),
    ("consensus.messages_per_instance", "count"),
    ("simnet.events_per_s", "1/s"),
    ("simnet.wire_encode_mb_s", "MB/s"),
    ("simnet.wire_decode_mb_s", "MB/s"),
    ("simnet.delay_sample_ns", "ns"),
    ("faults.records_per_run", "count"),
    ("faults.query_ns", "ns"),
    ("telemetry.events_per_round", "count"),
    ("telemetry.emit_ns_per_event", "ns"),
    ("telemetry.overhead_frac", "fraction"),
    ("telemetry.manifest_json_mb_s", "MB/s"),
    ("snapshot.bytes", "B"),
    ("snapshot.encode_bin_mb_s", "MB/s"),
    ("snapshot.decode_bin_mb_s", "MB/s"),
    ("snapshot.encode_json_mb_s", "MB/s"),
    ("snapshot.decode_json_mb_s", "MB/s"),
    ("snapshot.capture_overhead_frac", "fraction"),
    ("oracle.scenarios_per_s", "1/s"),
    ("oracle.check_all_us", "us"),
    ("oracle.prepare_share", "fraction"),
    ("oracle.gen_draw_us", "us"),
    ("oracle.violations", "count"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
];

/// Warm-up rounds before the per-round allocation counters start.
const ALLOC_WARMUP: usize = 5;

/// Rounds of a traced rep that are replayed, spread evenly over it. A
/// replay runs between two traced rounds and leaves the caches and the
/// allocator in a different state than the engine's own round would:
/// replaying every one of `sampled_1m`'s 1 ms rounds made the traced rep
/// 10 % slower than an untraced one, replaying 32 of them does not.
const REPLAYS_PER_REP: usize = 32;

/// The traced pass's result for one workload.
pub struct Traced {
    /// Every [`PER_LAYER`] metric.
    pub metrics: Metrics,
    /// The spans behind them, for `trace.jsonl`.
    pub spans: Vec<Span>,
    /// The traced rep ended where an untraced rep ends: same final
    /// model bytes, messages and bytes (engine workloads), same manifest
    /// (pipeline, oracle sweep).
    pub equivalent: bool,
}

/// Values collected while tracing, reduced to [`PER_LAYER`] at the end.
/// Units come from the declaration, so a metric cannot be reported under
/// a name or unit `BENCHMARK.json` does not list.
#[derive(Default)]
pub(crate) struct Collected(Metrics);

impl Collected {
    pub(crate) fn put(&mut self, name: &str, value: f64) {
        self.put_summary(name, Summary::single(value));
    }

    pub(crate) fn put_exact(&mut self, name: &str, value: f64) {
        self.0
            .push((name.into(), Metric::exact(unit_of(name), value)));
    }

    pub(crate) fn put_summary(&mut self, name: &str, summary: Summary) {
        self.0
            .push((name.into(), Metric::timed(unit_of(name), summary)));
    }
}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .unwrap_or_else(|| panic!("'{name}' is not a declared per-layer metric"))
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Mean span duration in ns (0 when the span never occurred).
fn mean_ns(spans: &[Span], name: &str) -> f64 {
    let (total, count) = total_ns(spans, name);
    if count == 0 {
        0.0
    } else {
        total as f64 / count as f64
    }
}

fn is_eval_round(cfg: &HflConfig, round: usize) -> bool {
    (round + 1).is_multiple_of(cfg.eval_every) || round + 1 == cfg.rounds
}

/// Where a hand-driven run ended.
struct RunEnd {
    model: Vec<f32>,
    cost: CostCounters,
    final_accuracy: f64,
}

impl RunEnd {
    fn same_as(&self, other: &RunEnd) -> bool {
        // Bit patterns, not `==`: a NaN parameter must still compare equal.
        self.model.len() == other.model.len()
            && self
                .model
                .iter()
                .zip(&other.model)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.cost.messages == other.cost.messages
            && self.cost.bytes == other.cost.bytes
            && self.final_accuracy == other.final_accuracy
    }
}

/// Drives every round through `run_round_into`, unsplit — the reference
/// the traced (split) rep must match — counting steady-state
/// allocations around each round on the way.
fn drive_unsplit(exp: &Experiment, recording: bool, out: &mut Collected) -> RunEnd {
    let cfg = exp.config();
    let telem = telemetry_for(recording);
    let mut engine = RoundEngine::for_experiment(exp);
    let mut global = exp.template.params().to_vec();
    let mut next = Vec::with_capacity(global.len());
    let mut cost = CostCounters::default();
    let mut fault_log = Vec::new();
    let mut susp_log = Vec::new();
    let mut final_accuracy = 0.0;
    let (mut allocs, mut bytes, mut counted) = (0u64, 0u64, 0u64);
    for round in 0..cfg.rounds {
        fault_log.clear();
        let before = (memprobe::alloc_count(), requested_bytes());
        engine.run_round_into(
            &global,
            round,
            &mut cost,
            &telem,
            &mut fault_log,
            &mut susp_log,
            &mut next,
        );
        if round >= ALLOC_WARMUP {
            allocs += memprobe::alloc_count() - before.0;
            bytes += requested_bytes() - before.1;
            counted += 1;
        }
        std::mem::swap(&mut global, &mut next);
        if is_eval_round(cfg, round) {
            final_accuracy = exp.evaluate(&global);
        }
    }
    let per_round = |total: u64| total as f64 / counted.max(1) as f64;
    out.put_exact("core.allocs_per_round", per_round(allocs));
    out.put_exact("core.alloc_bytes_per_round", per_round(bytes));
    RunEnd {
        model: global,
        cost,
        final_accuracy,
    }
}

/// Replays single layers on one round's real inputs.
struct Replayer<'e> {
    exp: &'e Experiment,
    /// One prebuilt rule per BRA level (`None` at a CBA level).
    rules: Vec<Option<Box<dyn Aggregator>>>,
    scratch: AggScratch,
    carried: Vec<Vec<f32>>,
    next: Vec<Vec<f32>>,
    top: Vec<f32>,
    cohort: Vec<usize>,
    trainee: Box<dyn Model>,
    train_scratch: TrainScratch,
    consensus_messages: u64,
    consensus_instances: u64,
}

impl<'e> Replayer<'e> {
    fn new(exp: &'e Experiment) -> Self {
        Self {
            exp,
            rules: exp
                .config()
                .levels
                .iter()
                .map(|level| match level {
                    LevelAgg::Bra(kind) => Some(kind.build()),
                    LevelAgg::Cba(_) => None,
                })
                .collect(),
            scratch: AggScratch::default(),
            carried: Vec::new(),
            next: Vec::new(),
            top: Vec::new(),
            cohort: Vec::new(),
            trainee: exp.template.clone_box(),
            train_scratch: TrainScratch::default(),
            consensus_messages: 0,
            consensus_instances: 0,
        }
    }

    /// `start` is the global model the round trained from, `updates` the
    /// per-slot updates it aggregated, `attack` what it crafted with.
    fn replay(
        &mut self,
        tracer: &mut Tracer,
        round: usize,
        start: &[f32],
        updates: &[Vec<f32>],
        attack: Option<&ModelAttack>,
    ) {
        let exp = self.exp;
        let cfg = exp.config();
        let h = &exp.hierarchy;
        let bottom = h.bottom_level();
        let root = tracer.open("replay", None, round);
        let parent = Some(root);

        tracer.time("core.cohort", parent, round, || {
            exp.cohort_into(round, &mut self.cohort)
        });
        let byzantine = |slot: usize| {
            matches!(
                cfg.attack,
                AttackCfg::Model { .. } | AttackCfg::Adaptive { .. }
            ) && exp.malicious[self.cohort[slot]]
        };

        // hfl-robust: every BRA cluster, bottom-up, full membership.
        self.carried.resize_with(updates.len(), Vec::new);
        for (c, u) in self.carried.iter_mut().zip(updates) {
            c.clone_from(u);
        }
        for l in (1..=bottom).rev() {
            self.next.clone_from(&self.carried);
            if let Some(rule) = &self.rules[l] {
                for cluster in &h.level(l).clusters {
                    let inputs: Vec<&[f32]> = cluster
                        .members
                        .iter()
                        .map(|&m| self.carried[m].as_slice())
                        .collect();
                    let span = tracer.open("robust.aggregate", parent, round);
                    rule.aggregate_into(
                        &inputs,
                        None,
                        &mut self.next[cluster.leader()],
                        &mut self.scratch,
                    );
                    tracer.close(span);
                }
            }
            std::mem::swap(&mut self.carried, &mut self.next);
        }
        let top = &h.level(0).clusters[0];
        let proposals: Vec<&[f32]> = top
            .members
            .iter()
            .map(|&m| self.carried[m].as_slice())
            .collect();
        match &cfg.levels[0] {
            LevelAgg::Bra(_) => {
                let rule = self.rules[0].as_deref().expect("BRA level has a rule");
                let span = tracer.open("robust.aggregate", parent, round);
                rule.aggregate_into(&proposals, None, &mut self.top, &mut self.scratch);
                tracer.close(span);
            }
            // hfl-consensus: the top-level validation vote.
            LevelAgg::Cba(kind) => {
                let eval = tracer.time("consensus.evaluator_build", parent, round, || {
                    AccuracyEvaluator::new(
                        exp.template.clone_box(),
                        exp.task.test.split_even(proposals.len()),
                    )
                });
                let byz: Vec<bool> = top.members.iter().map(|&m| byzantine(m)).collect();
                let mut rng = rng_for_n(cfg.seed, &[round as u64, 0x601, 0xA221]);
                let decision = tracer.time("consensus.vote_decide", parent, round, || {
                    kind.build().decide(&proposals, &byz, &eval, &mut rng)
                });
                self.consensus_messages += decision.messages;
                self.consensus_instances += 1;
            }
        }

        // hfl-attacks: the round's crafted update from its honest ones.
        if let Some(attack) = attack {
            let honest: Vec<&[f32]> = updates
                .iter()
                .zip(&self.cohort)
                .filter(|(_, &c)| !exp.malicious[c])
                .map(|(u, _)| u.as_slice())
                .collect();
            let mut rng = rng_for_n(cfg.seed, &[round as u64, 0xE71]);
            tracer.time("attacks.craft", parent, round, || {
                black_box(attack.try_craft(&honest, &mut rng));
            });
        }

        // hfl-ml: one client's shard and local training.
        let client = self.cohort[0];
        let shard = tracer.time("ml.shard", parent, round, || exp.client_shard(client));
        if !shard.is_empty() {
            self.trainee.set_params(start);
            let mut rng = rng_for_n(cfg.seed, &[round as u64, client as u64, 0x7247]);
            tracer.time("ml.train_client", parent, round, || {
                train_local_scratch(
                    self.trainee.as_mut(),
                    &shard,
                    &cfg.sgd.at_round(round),
                    cfg.local_iters,
                    &mut rng,
                    &mut self.train_scratch,
                );
            });
        }
        tracer.close(root);
    }
}

/// The traced rep of an engine workload: each round split into its
/// phases under spans (the split skips `open_round`, a log-only hook),
/// then replayed layer by layer.
fn drive_traced(
    exp: &Experiment,
    recording: bool,
    tracer: &mut Tracer,
    out: &mut Collected,
) -> RunEnd {
    let cfg = exp.config();
    let telem = telemetry_for(recording);
    let mut engine = RoundEngine::for_experiment(exp);
    let mut replayer = Replayer::new(exp);
    let mut global = exp.template.params().to_vec();
    let mut next = Vec::with_capacity(global.len());
    let mut updates = Vec::new();
    let mut train_ws = TrainWorkspace::default();
    let mut cost = CostCounters::default();
    let mut fault_log = Vec::new();
    let mut susp_log = Vec::new();
    let mut final_accuracy = 0.0;
    let replay_every = cfg.rounds.div_ceil(REPLAYS_PER_REP);
    for round in 0..cfg.rounds {
        let span: SpanId = tracer.open("round", None, round);
        if telem.enabled() {
            telem.emit(Event::RoundStarted { round });
        }
        let before = cost;
        fault_log.clear();
        let attack = engine.training_attack();
        tracer.time("core.train", Some(span), round, || {
            exp.train_round_into(
                &global,
                round,
                attack.as_ref(),
                &telem,
                &mut updates,
                &mut train_ws,
            )
        });
        tracer.time("core.aggregate", Some(span), round, || {
            engine.aggregate_round_into(
                &updates,
                round,
                &mut cost,
                &telem,
                &mut fault_log,
                &mut susp_log,
                &mut next,
            )
        });
        std::mem::swap(&mut global, &mut next);
        if is_eval_round(cfg, round) {
            final_accuracy =
                tracer.time("core.evaluate", Some(span), round, || exp.evaluate(&global));
            if telem.enabled() {
                telem.emit(Event::Evaluated {
                    round,
                    accuracy: final_accuracy,
                });
            }
        }
        if telem.enabled() {
            let delta = cost.since(&before);
            telem.emit(Event::RoundFinished {
                round,
                messages: delta.messages,
                bytes: delta.bytes,
                excluded: delta.excluded,
                absent: delta.absent,
            });
        }
        tracer.close(span);
        if round % replay_every == 0 {
            // After the swap `next` holds the model this round started from.
            replayer.replay(tracer, round, &next, &updates, attack.as_ref());
        }
    }
    let instances = replayer.consensus_instances;
    out.put_exact(
        "consensus.messages_per_instance",
        replayer.consensus_messages as f64 / instances.max(1) as f64,
    );
    RunEnd {
        model: global,
        cost,
        final_accuracy,
    }
}

/// MB/s of `f` over `bytes` bytes: median of five samples, each of
/// enough calls to move about 2 MB (a 3 kB snapshot codes in a
/// microsecond, below what one clock read resolves).
pub(crate) fn mb_per_s(bytes: usize, mut f: impl FnMut()) -> Summary {
    let calls = (2_000_000 / bytes.max(1)).max(1);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            (bytes * calls) as f64 / 1e6 / start.elapsed().as_secs_f64()
        })
        .collect();
    Summary::of(&samples)
}

/// Codec rates and size of one snapshot.
fn snapshot_codecs(snapshot: &EngineSnapshot, out: &mut Collected) {
    let bin = snapshot.to_bytes();
    let json = snapshot.to_json();
    out.put_exact("snapshot.bytes", bin.len() as f64);
    out.put_summary(
        "snapshot.encode_bin_mb_s",
        mb_per_s(bin.len(), || {
            black_box(snapshot.to_bytes());
        }),
    );
    out.put_summary(
        "snapshot.decode_bin_mb_s",
        mb_per_s(bin.len(), || {
            black_box(EngineSnapshot::from_bytes(&bin).expect("own bytes decode"));
        }),
    );
    out.put_summary(
        "snapshot.encode_json_mb_s",
        mb_per_s(json.len(), || {
            black_box(snapshot.to_json());
        }),
    );
    out.put_summary(
        "snapshot.decode_json_mb_s",
        mb_per_s(json.len(), || {
            black_box(EngineSnapshot::from_json(&json).expect("own JSON decodes"));
        }),
    );
}

/// One more instrumented run, this one capturing a snapshot every
/// `every` rounds: what capture adds to a plain run, the codecs on the
/// snapshot nearest mid-run, the event count and the manifest. Returns
/// the run's result for the equivalence check.
fn instrumented_run(
    exp: &Experiment,
    recording: bool,
    every: usize,
    plain_wall_s: f64,
    out: &mut Collected,
) -> RunResult {
    let (telem, recorder) = if recording {
        let (telem, recorder) = Telemetry::recording();
        (telem, Some(recorder))
    } else {
        (Telemetry::disabled(), None)
    };
    let rounds = exp.config().rounds;
    let start = Instant::now();
    let (run, snapshots) = run_prepared_snapshotting(exp, &telem, every);
    let wall = start.elapsed().as_secs_f64();
    out.put("snapshot.capture_overhead_frac", wall / plain_wall_s - 1.0);
    if let Some(snapshot) = snapshots.get(snapshots.len() / 2) {
        snapshot_codecs(snapshot, out);
    }
    let events = recorder.map_or(0, |r| r.len());
    out.put_exact("telemetry.events_per_round", events as f64 / rounds as f64);
    manifest_metrics(&run.manifest, out);
    run.result
}

fn manifest_metrics(manifest: &RunManifest, out: &mut Collected) {
    let json = manifest.to_json();
    out.put_summary(
        "telemetry.manifest_json_mb_s",
        mb_per_s(json.len(), || {
            black_box(manifest.to_json());
        }),
    );
    out.put_exact("faults.records_per_run", manifest.faults.len() as f64);
}

/// Recording against disabled telemetry on a fifth of the horizon:
/// 3 + 3 alternating reps, medians compared.
fn telemetry_overhead(cfg: &HflConfig, out: &mut Collected) {
    let mut short = cfg.clone();
    short.rounds = (cfg.rounds / 5).max(1);
    let exp = Experiment::try_prepare(&short).expect("a shorter horizon of a valid config");
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (recording, walls) in [(true, &mut on), (false, &mut off)] {
            let telem = telemetry_for(recording);
            let start = Instant::now();
            black_box(run_prepared_with(&exp, &telem));
            walls.push(start.elapsed().as_secs_f64());
        }
    }
    out.put(
        "telemetry.overhead_frac",
        Summary::of(&on).median / Summary::of(&off).median - 1.0,
    );
}

fn trace_engine(
    exp: &Experiment,
    recording: bool,
    untraced_wall_s: f64,
    tracer: &mut Tracer,
    out: &mut Collected,
) -> bool {
    let cfg = exp.config();
    let rounds = cfg.rounds as f64;

    let unsplit = drive_unsplit(exp, recording, out);
    let traced = drive_traced(exp, recording, tracer, out);
    let spans = tracer.spans();

    let (round_ns, _) = total_ns(spans, "round");
    let (train_ns, _) = total_ns(spans, "core.train");
    let (aggregate_ns, _) = total_ns(spans, "core.aggregate");
    let (evaluate_ns, _) = total_ns(spans, "core.evaluate");
    let (robust_ns, _) = total_ns(spans, "robust.aggregate");
    let (vote_ns, _) = total_ns(spans, "consensus.vote_decide");
    let (build_ns, _) = total_ns(spans, "consensus.evaluator_build");
    let (craft_ns, _) = total_ns(spans, "attacks.craft");
    let replayed = total_ns(spans, "replay").1.max(1) as f64;
    let traced_wall_s = round_ns as f64 / 1e9;
    let share = |ns: u64| ns as f64 / round_ns as f64;
    out.put("core.train_frac", share(train_ns));
    out.put("core.aggregate_frac", share(aggregate_ns));
    out.put("core.evaluate_frac", share(evaluate_ns));
    // What `run_prepared_with` spends outside the three phases, from the
    // untraced wall: the four shares sum to untraced ÷ traced wall.
    let phases_s = (train_ns + aggregate_ns + evaluate_ns) as f64 / 1e9;
    out.put(
        "core.loop_other_frac",
        (untraced_wall_s - phases_s) / traced_wall_s,
    );
    out.put("core.train_ms_per_round", ms(train_ns) / rounds);
    out.put("core.aggregate_ms_per_round", ms(aggregate_ns) / rounds);
    out.put(
        "core.evaluate_ms_per_call",
        mean_ns(spans, "core.evaluate") / 1e6,
    );
    out.put(
        "core.engine_self_ms_per_round",
        (ms(aggregate_ns) / rounds - ms(robust_ns + vote_ns + build_ns) / replayed).max(0.0),
    );
    out.put("core.cohort_us", mean_ns(spans, "core.cohort") / 1e3);
    out.put_exact(
        "core.messages_per_round",
        traced.cost.messages as f64 / rounds,
    );
    out.put_exact("core.bytes_per_round", traced.cost.bytes as f64 / rounds);
    out.put(
        "ml.replay_client_us",
        mean_ns(spans, "ml.train_client") / 1e3,
    );
    out.put("robust.replay_ms_per_round", ms(robust_ns) / replayed);
    out.put("attacks.craft_ms_per_round", ms(craft_ns) / replayed);
    out.put(
        "consensus.vote_decide_ms",
        mean_ns(spans, "consensus.vote_decide") / 1e6,
    );
    out.put(
        "consensus.evaluator_build_ms",
        mean_ns(spans, "consensus.evaluator_build") / 1e6,
    );
    out.put("trace.overhead_frac", traced_wall_s / untraced_wall_s - 1.0);

    let every = 10.min(cfg.rounds.saturating_sub(1)).max(1);
    let result = instrumented_run(exp, recording, every, untraced_wall_s, out);
    if recording {
        telemetry_overhead(cfg, out);
    }

    traced.same_as(&unsplit)
        && traced.cost.messages == result.messages
        && traced.cost.bytes == result.bytes
        && traced.final_accuracy == result.final_accuracy
}

/// The pipeline driver is opaque from outside: one span for the run,
/// then replays of what it does inside (prepare, the top-level vote).
fn trace_pipeline(
    cfg: &HflConfig,
    pcfg: &PipelineConfig,
    reference: &RepOutcome,
    untraced_wall_s: f64,
    tracer: &mut Tracer,
    out: &mut Collected,
) -> bool {
    let rounds = pcfg.rounds as f64;
    let (result, manifest) = tracer.time("pipeline.run", None, 0, || {
        RunOptions::pipeline(pcfg)
            .try_run(cfg)
            .expect("set-up validated this config")
            .into_pipeline()
    });
    let measured = result.rounds.len().max(1) as f64;
    out.put_exact(
        "core.pipeline.nu",
        result.rounds.iter().map(|r| r.nu).sum::<f64>() / measured,
    );
    out.put_exact(
        "core.pipeline.sim_round_period_ms",
        result.mean_period * 1e3,
    );
    out.put_exact(
        "core.pipeline.corrections_per_round",
        result.corrections_applied as f64 / rounds,
    );
    out.put_exact(
        "core.pipeline.messages_per_round",
        result.messages as f64 / rounds,
    );

    let replay = tracer.open("replay", None, 0);
    let exp = tracer.time("core.prepare", Some(replay), 0, || {
        Experiment::try_prepare(cfg).expect("set-up validated this config")
    });
    if let LevelAgg::Cba(kind) = &cfg.levels[0] {
        let n = exp.hierarchy.level(0).clusters[0].len();
        let eval = tracer.time("consensus.evaluator_build", Some(replay), 0, || {
            AccuracyEvaluator::new(exp.template.clone_box(), exp.task.test.split_even(n))
        });
        let proposals = vec![exp.template.params(); n];
        let mut rng = rng_for_n(cfg.seed, &[0, 0x601, 0xA221]);
        let decision = tracer.time("consensus.vote_decide", Some(replay), 0, || {
            kind.build()
                .decide(&proposals, &vec![false; n], &eval, &mut rng)
        });
        out.put_exact("consensus.messages_per_instance", decision.messages as f64);
    }
    tracer.close(replay);
    let spans = tracer.spans();
    out.put("core.prepare_s", mean_ns(spans, "core.prepare") / 1e9);
    out.put(
        "consensus.vote_decide_ms",
        mean_ns(spans, "consensus.vote_decide") / 1e6,
    );
    out.put(
        "consensus.evaluator_build_ms",
        mean_ns(spans, "consensus.evaluator_build") / 1e6,
    );
    out.put(
        "trace.overhead_frac",
        mean_ns(spans, "pipeline.run") / 1e9 / untraced_wall_s - 1.0,
    );
    manifest_metrics(&manifest, out);

    fnv1a_hex(manifest.to_json().as_bytes()) == reference.fingerprint
}

/// The oracle harness is opaque too: one span per scenario, then
/// replays of its parts on that scenario.
fn trace_oracle(
    specs: &[hfl_oracle::ScenarioSpec],
    reference: &RepOutcome,
    untraced_wall_s: f64,
    tracer: &mut Tracer,
    out: &mut Collected,
) -> bool {
    let mut fingerprint = String::new();
    let mut violations = 0usize;
    for (i, spec) in specs.iter().enumerate() {
        let checked = tracer.time("oracle.scenario", None, i, || {
            check_cached(spec, None, &mut SnapshotCache::new())
        });
        let Ok((obs, found)) = checked else {
            return false;
        };
        violations += found.len();
        fingerprint = chain(&fingerprint, &obs.manifest_json);

        let replay = tracer.open("replay", None, i);
        let cfg = spec.to_config();
        // The harness prepares three times per scenario (run, rerun,
        // bookkeeping), so its prepare share is three of these.
        for _ in 0..3 {
            tracer.time("core.prepare", Some(replay), i, || {
                black_box(Experiment::try_prepare(&cfg).expect("the harness prepared this"));
            });
        }
        tracer.time("oracle.check_all", Some(replay), i, || {
            black_box(hfl_oracle::check_all(&obs));
        });
        tracer.time("telemetry.manifest_json", Some(replay), i, || {
            black_box(obs.manifest.to_json());
        });
        tracer.close(replay);
    }
    let spans = tracer.spans();
    let (scenario_ns, _) = total_ns(spans, "oracle.scenario");
    let (prepare_ns, _) = total_ns(spans, "core.prepare");
    let scenario_s = scenario_ns as f64 / 1e9;
    out.put("oracle.scenarios_per_s", specs.len() as f64 / scenario_s);
    out.put(
        "oracle.check_all_us",
        mean_ns(spans, "oracle.check_all") / 1e3,
    );
    out.put(
        "oracle.prepare_share",
        prepare_ns as f64 / scenario_ns as f64,
    );
    out.put_exact("oracle.violations", violations as f64);
    out.put("core.prepare_s", mean_ns(spans, "core.prepare") / 1e9);
    out.put("trace.overhead_frac", scenario_s / untraced_wall_s - 1.0);

    // Snapshot capture as the harness uses it (every round, recording
    // telemetry), on the first scenario.
    let exp = Experiment::try_prepare(&specs[0].to_config()).expect("the harness prepared this");
    let start = Instant::now();
    black_box(run_prepared_with(&exp, &telemetry_for(true)));
    instrumented_run(&exp, true, 1, start.elapsed().as_secs_f64(), out);

    fingerprint == reference.fingerprint
}

/// Runs the traced pass of `workload` on an already set-up instance.
/// `reference`, `setup_s` and `untraced_wall_s` come from the untraced
/// pass.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    scale: Scale,
    prepared: &Prepared,
    reference: &RepOutcome,
    setup_s: f64,
    untraced_wall_s: f64,
) -> Traced {
    let mut tracer = Tracer::new(workload.name());
    let mut out = Collected::default();
    let equivalent = match prepared {
        Prepared::Engine { exp, recording } => {
            // Set-up of an engine workload *is* `try_prepare`; preparing
            // once more here would only time it with a second copy of
            // the task resident.
            out.put("core.prepare_s", setup_s);
            trace_engine(exp, *recording, untraced_wall_s, &mut tracer, &mut out)
        }
        Prepared::Pipeline { cfg, pcfg } => {
            trace_pipeline(cfg, pcfg, reference, untraced_wall_s, &mut tracer, &mut out)
        }
        Prepared::Oracle { specs } => {
            trace_oracle(specs, reference, untraced_wall_s, &mut tracer, &mut out)
        }
    };
    out.put_exact("trace.spans", tracer.spans().len() as f64);
    kernels::measure(seed, scale, &mut out);

    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| {
            let metric = out
                .0
                .iter()
                .find(|(n, _)| n == name)
                .map_or_else(|| Metric::once(unit, 0.0), |(_, m)| m.clone());
            (name.to_string(), metric)
        })
        .collect();
    Traced {
        metrics,
        spans: tracer.into_spans(),
        equivalent,
    }
}
