//! The untraced pass: set a workload up, run identical same-seed reps
//! through the public entry points, check every rep's outputs, and
//! reduce the reps to the five end-to-end metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use abd_hfl_core::config::HflConfig;
use abd_hfl_core::engine::cost::clean_round_messages;
use abd_hfl_core::pipeline::PipelineConfig;
use abd_hfl_core::run::RunOptions;
use abd_hfl_core::runner::{run_prepared_with, Experiment};
use hfl_bench::memprobe;
use hfl_oracle::harness::{check_cached, SnapshotCache};
use hfl_oracle::ScenarioSpec;
use hfl_telemetry::{fnv1a_hex, Telemetry};

use crate::report::Metric;
use crate::stats::Summary;
use crate::workloads::{oracle_specs, Plan, Scale, Workload, THREADS};

/// Set-ups are repeated past the requested count while their total
/// stays under this, up to [`MAX_SETUPS`] samples.
const SHORT_SETUP_BUDGET_S: f64 = 0.5;
const MAX_SETUPS: usize = 51;

/// How many timed reps to run after the warm-up rep.
#[derive(Clone, Copy, Debug)]
pub enum Reps {
    /// Exactly this many.
    Count(usize),
    /// As many as start within this many seconds, and at least three.
    Seconds(f64),
}

/// A workload after set-up, ready to run reps.
pub enum Prepared {
    /// A prepared experiment for the synchronous driver.
    Engine {
        /// The prepared experiment.
        exp: Box<Experiment>,
        /// Run reps with a recording telemetry bundle.
        recording: bool,
    },
    /// The pipeline driver prepares inside its run; set-up only times
    /// the same `try_prepare` the run will repeat.
    Pipeline {
        /// The run's config.
        cfg: Box<HflConfig>,
        /// Simulator timing.
        pcfg: PipelineConfig,
    },
    /// The drawn and lowered scenarios.
    Oracle {
        /// One spec per scenario.
        specs: Vec<ScenarioSpec>,
    },
}

/// Set-up: `Experiment::try_prepare`; for `oracle_sweep`, drawing the
/// scenarios, lowering each with `to_config` and preparing it once.
pub fn set_up(plan: Plan) -> Result<Prepared, String> {
    match plan {
        Plan::Engine { cfg, recording } => Ok(Prepared::Engine {
            exp: Box::new(Experiment::try_prepare(&cfg).map_err(|e| e.to_string())?),
            recording,
        }),
        Plan::Pipeline { cfg, pcfg } => {
            Experiment::try_prepare(&cfg).map_err(|e| e.to_string())?;
            Ok(Prepared::Pipeline { cfg, pcfg })
        }
        Plan::Oracle { seed, scenarios } => {
            let specs = oracle_specs(seed, scenarios);
            // Every scenario must lower and prepare before any is timed;
            // it also puts `try_prepare`, which the harness repeats three
            // times per scenario, into this workload's `setup_s`.
            for spec in &specs {
                Experiment::try_prepare(&spec.to_config())
                    .map_err(|e| format!("scenario {spec:?}: {e}"))?;
            }
            Ok(Prepared::Oracle { specs })
        }
    }
}

/// What one rep did and produced.
#[derive(Clone, Debug, PartialEq)]
pub struct RepOutcome {
    /// Engine rounds completed.
    pub rounds: u64,
    /// Σ rounds × cohort slots.
    pub updates: u64,
    /// Operations that failed a per-op check (oracle violations, a
    /// per-round message count off the closed form).
    pub failed: u64,
    /// Test accuracy of the final global model (mean over scenarios).
    pub final_accuracy: f64,
    /// Hash of the run's manifest JSON: equal across same-seed reps.
    pub fingerprint: String,
}

/// The bundle a workload runs under: recording, or disabled.
pub fn telemetry_for(recording: bool) -> Telemetry {
    if recording {
        Telemetry::recording().0
    } else {
        Telemetry::disabled()
    }
}

/// Folds one more manifest into a sweep's fingerprint.
pub fn chain(fingerprint: &str, manifest_json: &str) -> String {
    fnv1a_hex(format!("{fingerprint}{manifest_json}").as_bytes())
}

impl Prepared {
    /// Runs one rep through the workload's public entry point.
    pub fn rep(&self) -> RepOutcome {
        match self {
            Prepared::Engine { exp, recording } => {
                let run = run_prepared_with(exp, &telemetry_for(*recording));
                let cfg = exp.config();
                let rounds = cfg.rounds as u64;
                // Fault-free all-BRA runs must charge exactly the closed
                // form of Algorithms 3–5 in every round.
                let off_closed_form = if cfg.faults.is_none() && !cfg.arms_race() {
                    clean_round_messages(cfg, &exp.hierarchy).map_or(0, |expected| {
                        run.manifest
                            .rounds
                            .iter()
                            .filter(|r| r.messages != expected)
                            .count() as u64
                    })
                } else {
                    0
                };
                RepOutcome {
                    rounds,
                    updates: rounds * exp.hierarchy.num_clients() as u64,
                    failed: off_closed_form,
                    final_accuracy: run.result.final_accuracy,
                    fingerprint: fnv1a_hex(run.manifest.to_json().as_bytes()),
                }
            }
            Prepared::Pipeline { cfg, pcfg } => {
                let (result, manifest) = RunOptions::pipeline(pcfg)
                    .try_run(cfg)
                    .expect("set-up validated this config")
                    .into_pipeline();
                let rounds = pcfg.rounds as u64;
                let clients = cfg.topology.build(cfg.seed).num_clients() as u64;
                RepOutcome {
                    rounds,
                    updates: rounds * clients,
                    // A round with no complete trace never closed.
                    failed: rounds - result.rounds.len() as u64,
                    final_accuracy: result.final_accuracy,
                    fingerprint: fnv1a_hex(manifest.to_json().as_bytes()),
                }
            }
            Prepared::Oracle { specs } => {
                let mut out = RepOutcome {
                    rounds: 0,
                    updates: 0,
                    failed: 0,
                    final_accuracy: 0.0,
                    fingerprint: String::new(),
                };
                for spec in specs {
                    // A fresh cache per scenario: nothing carries over, so
                    // every rep does the same work, and the heap peak is
                    // the largest scenario's whatever order they run in.
                    let mut cache = SnapshotCache::new();
                    match check_cached(spec, None, &mut cache) {
                        Ok((obs, violations)) => {
                            let rounds = cache.rounds_executed;
                            out.rounds += rounds;
                            out.updates += rounds * spec.num_clients() as u64;
                            out.final_accuracy += obs.result.final_accuracy;
                            out.failed += u64::from(!violations.is_empty());
                            // Chained, not concatenated: a growing string
                            // would make the heap peak depend on where in
                            // the rep the largest scenario falls.
                            out.fingerprint = chain(&out.fingerprint, &obs.manifest_json);
                        }
                        Err(_) => out.failed += 1,
                    }
                }
                out.final_accuracy /= specs.len() as f64;
                out
            }
        }
    }
}

/// The untraced pass's result for one workload.
pub struct EndToEnd {
    /// The five end-to-end metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<(String, Metric)>,
    /// Operations attempted over all reps.
    pub ops_attempted: u64,
    /// Operations that failed any check.
    pub ops_failed: u64,
    /// Timed reps (the untimed warm-up rep comes on top).
    pub reps: usize,
    /// Median wall time of the timed reps: what the traced pass's one
    /// rep is held against (a single rep against the fastest of several
    /// would read as overhead what is only noise).
    pub rep_wall_s: f64,
    /// The `setup_s` metric's value.
    pub setup_s: f64,
    /// The last set-up, for the traced pass to reuse.
    pub prepared: Prepared,
    /// Outcome of the warm-up rep, which every later rep (and the
    /// traced one) must reproduce.
    pub reference: RepOutcome,
}

/// Sets `workload` up `setups` times, runs the reps, checks them.
pub fn run_end_to_end(
    workload: Workload,
    seed: u64,
    scale: Scale,
    setups: usize,
    reps: Reps,
) -> Result<EndToEnd, String> {
    hfl_parallel::set_default_threads(THREADS);
    let heap_base = memprobe::reset_peak();

    // Each set-up is dropped before the next starts, so the heap
    // high-water mark sees one prepared workload, not `setups` of them.
    // A set-up of a few milliseconds is too short for three samples to
    // be steady, so short ones are sampled more often.
    let mut setup_s = Vec::new();
    let mut prepared = None;
    while setup_s.len() < setups.max(1)
        || (setup_s.len() < MAX_SETUPS && setup_s.iter().sum::<f64>() < SHORT_SETUP_BUDGET_S)
    {
        drop(prepared.take());
        let start = Instant::now();
        prepared = Some(set_up(workload.plan(seed, scale))?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let prepared = prepared.expect("at least one set-up ran");

    // Rep 0 is the warm-up: it fills caches, grows every arena to its
    // high-water mark and gives the reference the other reps must
    // reproduce; it is checked like any rep but not timed.
    let mut started = Instant::now();
    let mut timed: Vec<(RepOutcome, f64)> = Vec::new();
    let mut reference: Option<RepOutcome> = None;
    let mut ops_attempted = 0u64;
    let mut ops_failed = 0u64;
    let ops = workload.ops_per_rep(scale) as u64;
    // Counted in attempts, not successes, so a rep that keeps panicking
    // ends the run instead of hanging it.
    let mut attempts = 0;
    loop {
        let more = match reps {
            Reps::Count(n) => attempts < n + 1,
            Reps::Seconds(s) => attempts < 4 || started.elapsed().as_secs_f64() < s,
        };
        if !more {
            break;
        }
        attempts += 1;
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| prepared.rep()));
        let wall = start.elapsed().as_secs_f64();
        ops_attempted += ops;
        let Ok(outcome) = outcome else {
            ops_failed += ops;
            continue;
        };
        // A same-seed rep that diverges from rep 0, or a run that did
        // not learn, fails as a whole.
        let diverged = reference
            .as_ref()
            .is_some_and(|first| first.fingerprint != outcome.fingerprint);
        ops_failed += if diverged || outcome.final_accuracy < scale.min_accuracy() {
            ops
        } else {
            outcome.failed
        };
        if reference.is_none() {
            reference = Some(outcome);
            started = Instant::now();
        } else {
            timed.push((outcome, wall));
        }
    }
    let (Some(reference), false) = (reference, timed.is_empty()) else {
        return Err(format!("{}: too few reps completed", workload.name()));
    };
    let peak_heap_mb = memprobe::peak_since(heap_base) as f64 / 1e6;

    let per_s = |count: fn(&RepOutcome) -> u64| -> Summary {
        let samples: Vec<f64> = timed.iter().map(|(o, w)| count(o) as f64 / w).collect();
        Summary::of(&samples)
    };
    let walls: Vec<f64> = timed.iter().map(|(_, w)| *w).collect();
    let setup = Metric::fastest("s", Summary::of(&setup_s), |s| s.min);
    let setup_s = setup.value;
    let metrics = vec![
        ("setup_s".into(), setup),
        (
            "rounds_per_s".into(),
            Metric::fastest("1/s", per_s(|o| o.rounds), |s| s.max),
        ),
        (
            "updates_per_s".into(),
            Metric::fastest("1/s", per_s(|o| o.updates), |s| s.max),
        ),
        ("peak_heap_mb".into(), Metric::once("MB", peak_heap_mb)),
        (
            "final_accuracy".into(),
            Metric::once("fraction", reference.final_accuracy),
        ),
    ];
    Ok(EndToEnd {
        metrics,
        ops_attempted,
        ops_failed,
        reps: timed.len(),
        rep_wall_s: Summary::of(&walls).median,
        setup_s,
        prepared,
        reference,
    })
}
