//! Experiment preparation, the training step and the run loop — the
//! evaluation mode of the paper's own simulation (Algorithms 1–6
//! executed phase-by-phase each global round). The loop is the same
//! under both schedules: lockstep, or pipelined ([`crate::pipeline`]),
//! where the engine's round clock decides when and from which model
//! each device starts a round.
//!
//! Per round:
//! 1. **LocalModelTraining** (Algorithm 2): every bottom device trains the
//!    current global model for `T` SGD iterations on its (possibly
//!    poisoned) shard — in parallel across clients.
//! 2. Model-poisoning attackers replace their trained update with a
//!    crafted vector (omniscient collusion).
//! 3. **PartialModelAggregation** (Algorithms 3–4): bottom-up per-cluster
//!    aggregation with the per-level BRA/CBA choice and quorum φ.
//! 4. **GlobalModelAggregation** (Algorithm 6): the top cluster forms the
//!    global model by BRA or consensus (validation voting over the test
//!    shards, Appendix D.B).
//! 5. **DisseminateModel** (Algorithm 5): the new global model reaches
//!    every device (message costs accounted level by level).
//!
//! Steps 3–5 (and the fault/defense/adversary semantics layered on
//! them) execute in [`crate::engine::RoundEngine`] — one canonical
//! round with pluggable layers; this module owns experiment
//! preparation, the training step and the run loop around it.

use std::collections::VecDeque;
use std::sync::Mutex;

use hfl_attacks::{malicious_mask, ModelAttack};
use hfl_faults::FaultInjector;
use hfl_ml::rng::rng_for_n;
use hfl_ml::sgd::{train_local_scratch, TrainScratch};
use hfl_ml::synth::SynthTask;
use hfl_ml::{ClientPopulation, Dataset, Labelled, Model};
use hfl_simnet::Hierarchy;
use hfl_snapshot::{EngineSnapshot, SNAPSHOT_VERSION};
use hfl_telemetry::{
    fnv1a_hex, ClientScore, CostCounters, Event, FaultRecord, RoundRecord, RunManifest, RunTotals,
    SuspicionRecord, SuspicionSection, Telemetry,
};

use crate::config::{AttackCfg, ConfigError, DataDistribution, HflConfig, SamplingScheme};
use crate::engine::cost::{restore_registry, COST_COUNTERS};
use crate::engine::{Phase, PhaseTimes, RoundEngine};
use crate::pipeline::PipelineResult;

/// The registry gauge holding the last evaluated test accuracy.
pub(crate) const ACCURACY_GAUGE: &str = "hfl_accuracy";

/// Outcome of one full training run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// `(round, test accuracy)` at each evaluation point (always includes
    /// the final round).
    pub accuracy: Vec<(usize, f64)>,
    /// Test accuracy of the final global model.
    pub final_accuracy: f64,
    /// Total model-bearing messages exchanged.
    pub messages: u64,
    /// Total payload bytes exchanged.
    pub bytes: u64,
    /// Total proposals excluded by consensus across all rounds.
    pub excluded_total: u64,
    /// Total client-round absences caused by churn.
    pub absent_total: u64,
    /// Total bottom-level client-round updates lost to injected faults
    /// (crashes, partitions, loss bursts). Zero for fault-free runs.
    pub faulted_total: u64,
    /// Total client-round updates excluded by the suspicion layer's
    /// quarantine. Zero when the layer is disabled.
    pub quarantined_total: u64,
    /// Total client-round updates a withholding coalition kept back.
    /// Zero without the `Withhold` protocol attack.
    pub withheld_total: u64,
}

/// Reusable buffers for the per-round training step, owned by the
/// engine's round workspace. `parked` holds one trainee per worker
/// thread, built before the first fork-join; each worker checks the
/// oldest one out per cohort slot and parks it again at the back, so
/// every trainee has served (and grown its buffers) within the first
/// round that trains as many slots, whichever thread claimed them, and
/// steady-state training allocates nothing. Which trainee serves a slot
/// cannot show in the result: `set_params` overwrites every parameter,
/// the SGD scratch is fully rewritten before it is read and the shard
/// buffer is cleared before it is refilled, so reuse is
/// indistinguishable from a fresh `clone_box` (DESIGN.md §15).
#[derive(Default)]
pub struct TrainWorkspace {
    /// This round's cohort binding (global client per slot).
    cohort: Vec<usize>,
    /// Idle trainees, oldest first.
    parked: Mutex<VecDeque<Trainee>>,
    /// Pipelined schedule: `starts[slot]` is the model the slot trains
    /// from this round, written by the engine's round clock; an empty
    /// row sits the round out. Empty under lockstep, where every slot
    /// starts from the global model.
    pub starts: Vec<Vec<f32>>,
}

/// What one worker trains a cohort slot with.
struct Trainee {
    /// Cloned from the template.
    model: Box<dyn Model>,
    /// SGD gradient/index/staging buffers.
    scratch: TrainScratch,
    /// Sampled runs: the buffer the slot's client's shard is drawn into
    /// each round. Empty and unused when shards are cached.
    drawn: Dataset,
}

/// What a run produced, on either schedule — what every run entry
/// point ([`crate::run::RunOptions::try_run`], [`run_prepared_with`],
/// [`run_prepared_snapshotting`], [`resume_prepared_with`]) returns.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// The training outcome.
    pub result: RunResult,
    /// The self-describing record of the run: config hash, seed, build
    /// info, per-round time series, totals, metrics snapshot.
    pub manifest: RunManifest,
    /// The final global model's parameters.
    pub model: Vec<f32>,
    /// The pipelined schedule's timing decomposition; `None` under
    /// lockstep.
    pub timing: Option<PipelineResult>,
    /// Host wall time the run loop spent in each round phase. It is
    /// the one part of a run that differs between two runs of a config,
    /// and it is in no manifest, event or registry metric.
    pub phases: PhaseTimes,
}

impl RunOutput {
    /// The pipelined schedule's timing decomposition, with the manifest
    /// (label `"pipeline"`).
    ///
    /// # Panics
    /// When the run was lockstep: there is no timing to decompose.
    pub fn into_pipeline(self) -> (PipelineResult, RunManifest) {
        let timing = self.timing.expect("a lockstep run has no timing");
        (timing, self.manifest)
    }
}

/// Pre-built, reusable experiment state: the hierarchy, the task, the
/// partition plan, the model template and — without sampling — every
/// client's shard, drawn once. Drawing those shards is the expensive
/// step; under sampling nothing is drawn here and set-up is the label
/// shuffle and the deal order.
pub struct Experiment {
    /// The hierarchy.
    pub hierarchy: Hierarchy,
    /// The synthetic task: the test split dense, the training split a
    /// plan whose samples are drawn where a shard needs them.
    pub task: SynthTask,
    /// The lazy per-client shard plan over the whole population: client
    /// `i`'s partition is a pure function of `(seed, i, distribution)`,
    /// derived on demand by [`Experiment::client_shard`]. O(dataset)
    /// state regardless of the population size.
    pub population: ClientPopulation,
    /// Which clients are malicious — indexed by *global* client id over
    /// the whole population (identity-bound state survives across
    /// sampled cohorts).
    pub malicious: Vec<bool>,
    /// The model template (architecture + initial parameters).
    pub template: Box<dyn Model>,
    config: HflConfig,
    /// Compiled fault schedule, when the config carries a `FaultPlan`.
    injector: Option<FaultInjector>,
    /// Per-client arrival-delay multipliers (compute × bandwidth), drawn
    /// once at prepare when the config carries a [`HeterogeneityCfg`]
    /// and no sampling (the identity cohort); under sampling the profile
    /// is derived lazily per global client instead.
    arrival_profiles: Option<Vec<f64>>,
    /// Materialized post-poisoning shards in the identity-cohort case
    /// (`sampling: None`): the only copy of the training rows, each
    /// sample drawn once, straight into its client's shard, so the
    /// dense small-n path pays no per-round derivation. `None` under
    /// sampling: a round then draws only its cohort's shards.
    shard_cache: Option<Vec<Dataset>>,
}

impl Experiment {
    /// Builds everything deterministic-from-seed: hierarchy, task,
    /// malicious mask, partition, data poisoning, model init — or
    /// reports the config inconsistency, so sweep harnesses report the
    /// offending cell and move on.
    pub fn try_prepare(cfg: &HflConfig) -> Result<Self, ConfigError> {
        cfg.topology.try_validate()?;
        let hierarchy = cfg.topology.build(cfg.seed);
        cfg.try_validate(&hierarchy)?;
        let injector = match &cfg.faults {
            Some(plan) if !plan.is_empty() => Some(
                FaultInjector::compile(plan, &hierarchy, cfg.seed).map_err(ConfigError::Faults)?,
            ),
            _ => None,
        };
        let n_clients = hierarchy.num_clients();
        // Without sampling the population *is* the hierarchy's bottom
        // level; with it, identity-bound state spans the whole population.
        let population_n = cfg.sampling.as_ref().map_or(n_clients, |s| s.population);

        let mut data_cfg = cfg.data.clone();
        data_cfg.seed = hfl_ml::rng::derive_seed(cfg.seed, 0xDA7A);
        let task = SynthTask::plan(&data_cfg);

        let malicious = match &cfg.malicious_override {
            Some(mask) => mask.clone(),
            None => malicious_mask(
                population_n,
                cfg.attack.proportion(),
                cfg.attack.placement(),
                hfl_ml::rng::derive_seed(cfg.seed, 0xBAD),
            ),
        };

        // The non-IID deals need honest clients that can hold every
        // label between them; the mask is drawn here, so this is the
        // first place the count is known.
        let honest = malicious.iter().filter(|m| !**m).count();
        let covered = match cfg.distribution {
            DataDistribution::Iid => true,
            DataDistribution::NonIid { labels_per_client } => {
                honest.saturating_mul(labels_per_client) >= task.train.num_classes()
            }
            DataDistribution::Dirichlet { .. } => honest >= 1,
        };
        let what = "honest clients (enough to cover every label under a non-IID partition)";
        crate::config::row("distribution", what, honest as f64, covered)?;

        // The lazy shard plan: O(dataset) state however large the
        // population, consuming exactly the RNG streams the eager
        // partition functions did (the equivalence the ml crate's
        // property tests pin down).
        let population = match &cfg.distribution {
            DataDistribution::Iid => ClientPopulation::iid(&task.train, population_n, cfg.seed),
            DataDistribution::NonIid { labels_per_client } => ClientPopulation::noniid(
                &task.train,
                population_n,
                *labels_per_client,
                &malicious,
                cfg.seed,
            ),
            DataDistribution::Dirichlet { alpha } => {
                ClientPopulation::dirichlet(&task.train, population_n, *alpha, &malicious, cfg.seed)
            }
        };

        let template = cfg.model.build(
            task.train.dim(),
            task.train.num_classes(),
            hfl_ml::rng::derive_seed(cfg.seed, 0x0de1),
        );

        // Device heterogeneity: each client draws a compute factor and a
        // bandwidth factor uniformly from [1, spread]; their product
        // stretches that client's synthesized arrival delay under async
        // rounds. Drawn from a dedicated stream so enabling profiles
        // perturbs nothing else. Under sampling the per-client draw
        // moves to `arrival_profile` (a dedicated stream per global id)
        // so the profile table never materializes at population scale.
        let arrival_profiles = match (&cfg.heterogeneity, &cfg.sampling) {
            (Some(het), None) => {
                use rand::Rng;
                let mut rng = rng_for_n(cfg.seed, &[0x4E70]);
                Some(
                    (0..n_clients)
                        .map(|_| {
                            let compute = 1.0 + rng.gen::<f64>() * (het.compute_spread - 1.0);
                            let bandwidth = 1.0 + rng.gen::<f64>() * (het.bandwidth_spread - 1.0);
                            compute * bandwidth
                        })
                        .collect(),
                )
            }
            _ => None,
        };

        let mut exp = Self {
            hierarchy,
            task,
            population,
            malicious,
            template,
            config: cfg.clone(),
            injector,
            arrival_profiles,
            shard_cache: None,
        };
        // Identity cohort: materialize every shard once (data poisoning
        // happens up front and poisoned devices then train "honestly" on
        // poisoned data for the whole run). Sampled runs instead derive
        // shards per round, cohort-only.
        if cfg.sampling.is_none() {
            exp.shard_cache = Some(hfl_parallel::par_map_indexed(
                population_n,
                hfl_parallel::default_threads(),
                |c| exp.derive_shard(c),
            ));
        }
        Ok(exp)
    }

    /// The configuration this experiment was prepared from.
    pub fn config(&self) -> &HflConfig {
        &self.config
    }

    /// The compiled fault schedule, when the config carries one.
    pub fn injector(&self) -> Option<&FaultInjector> {
        self.injector.as_ref()
    }

    /// The arrival-delay multiplier for global client `client` — 1.0
    /// unless the config carries a
    /// [`crate::config::HeterogeneityCfg`], in which case the client's
    /// compute × bandwidth slowdown product. Table-backed in the
    /// identity-cohort case, derived from a per-client stream under
    /// sampling (O(1) state at any population size).
    pub fn arrival_profile(&self, client: usize) -> f64 {
        if let Some(p) = &self.arrival_profiles {
            return p.get(client).copied().unwrap_or(1.0);
        }
        let Some(het) = &self.config.heterogeneity else {
            return 1.0;
        };
        use rand::Rng;
        let mut rng = rng_for_n(self.config.seed, &[0x4E70, client as u64]);
        let compute = 1.0 + rng.gen::<f64>() * (het.compute_spread - 1.0);
        let bandwidth = 1.0 + rng.gen::<f64>() * (het.bandwidth_spread - 1.0);
        compute * bandwidth
    }

    /// Total client population n — the hierarchy's client count unless
    /// per-round sampling binds the cohort to a larger population.
    pub fn population_size(&self) -> usize {
        self.population.num_clients()
    }

    /// The global client ids bound to the cohort's slots this round, in
    /// ascending order (one per bottom-level hierarchy position), into
    /// a caller-owned buffer. Identity — slot `i` is client `i` —
    /// without sampling, filled without allocating, which keeps the
    /// engine's steady-state rounds heap-free; otherwise a per-round
    /// draw from a dedicated RNG stream, so enabling sampling perturbs
    /// no other stream (the draw reuses the buffer but pays its own
    /// working memory).
    pub fn cohort_into(&self, round: usize, out: &mut Vec<usize>) {
        out.clear();
        let m = self.hierarchy.num_clients();
        let Some(s) = &self.config.sampling else {
            out.extend(0..m);
            return;
        };
        let n = s.population;
        let mut rng = rng_for_n(self.config.seed, &[round as u64, 0x5A3F]);
        let draw = |rng: &mut rand::rngs::StdRng, bound: u64| -> usize {
            (rand::Rng::gen::<u64>(rng) % bound) as usize
        };
        match s.scheme {
            SamplingScheme::Uniform => {
                // Floyd's algorithm: m distinct ids from 0..n in O(m)
                // draws and O(m) memory, independent of n.
                let mut chosen = std::collections::HashSet::with_capacity(m);
                for j in (n - m)..n {
                    let t = draw(&mut rng, j as u64 + 1);
                    if !chosen.insert(t) {
                        chosen.insert(j);
                    }
                }
                out.extend(chosen);
                out.sort_unstable();
            }
            SamplingScheme::Stratified => {
                // One pick per contiguous stratum [i·n/m, (i+1)·n/m):
                // n ≥ m keeps every stratum non-empty, and the picks are
                // strictly increasing (hence distinct and sorted).
                out.extend((0..m).map(|i| {
                    let lo = i * n / m;
                    let hi = (i + 1) * n / m;
                    lo + draw(&mut rng, (hi - lo) as u64)
                }));
            }
        }
    }

    /// Global client `client`'s training shard — derived on demand from
    /// the lazy partition plan, with the client's data poisoning applied
    /// (poisoned devices train "honestly" on poisoned data). A clone of
    /// the materialized shard in the identity-cohort case.
    pub fn client_shard(&self, client: usize) -> Dataset {
        match &self.shard_cache {
            Some(cache) => cache[client].clone(),
            None => self.derive_shard(client),
        }
    }

    /// [`Self::derive_shard_into`] a fresh buffer.
    fn derive_shard(&self, client: usize) -> Dataset {
        let mut shard = self.empty_shard();
        self.derive_shard_into(client, &mut shard);
        shard
    }

    /// A shard of the task's shape holding nothing (and no heap).
    fn empty_shard(&self) -> Dataset {
        Dataset::empty(self.task.train.dim(), self.task.train.num_classes())
    }

    /// Refills `shard` with the post-poisoning shard of global client
    /// `client`, drawn from scratch: a pure function of `(seed, client,
    /// distribution, attack)`. Allocates only if `shard` has never held
    /// as many samples; the samples' noise blocks are generated packed,
    /// sixteen to a pass.
    fn derive_shard_into(&self, client: usize, shard: &mut Dataset) {
        shard.clear();
        shard.reserve(self.population.shard_len(client));
        self.task
            .train
            .push_samples(self.population.shard_indices(client), shard);
        if self.malicious[client] && !shard.is_empty() {
            if let AttackCfg::Data { attack, .. } = &self.config.attack {
                let mut rng = rng_for_n(self.config.seed, &[0x1207, client as u64]);
                attack.apply(shard, &mut rng);
            }
        }
    }

    /// Trains this round's cohort from `global`, in parallel, into
    /// caller-owned buffers: one update per cohort slot (crafted updates
    /// in place of model-poisoning attackers', which do not train),
    /// every client when there is no sampling. An optional
    /// adaptive-attack override (the arms race's current crafted attack
    /// replaces the configured static one) and telemetry for anomalies.
    /// Every slot trains from `global` unless `ws` carries per-slot
    /// start models (the pipelined schedule's round clock writes them).
    /// Numerically identical (same RNG streams, same arithmetic) at any
    /// thread count; the trainees parked in `ws`, one per worker, make
    /// the training step allocation-free once capacities have grown.
    ///
    /// When the round crafts (`adaptive`, else a static model attack), a
    /// malicious slot gets the crafted vector and nothing else: no start
    /// model, no shard, no SGD — its trained update was always
    /// overwritten, never entered the honest set, and its RNG stream,
    /// keyed by `(seed, round, client)`, moves no other.
    ///
    /// With no honest updates to estimate from (malicious proportion
    /// 1.0), crafting degrades to re-sending the round's starting global
    /// model instead of panicking, and the degradation is recorded as an
    /// `attack_no_honest_updates` anomaly event.
    pub fn train_round_into(
        &self,
        global: &[f32],
        round: usize,
        adaptive: Option<&ModelAttack>,
        telem: &Telemetry,
        updates: &mut Vec<Vec<f32>>,
        ws: &mut TrainWorkspace,
    ) {
        let cfg = &self.config;
        self.cohort_into(round, &mut ws.cohort);
        // As many trainees as the fork-join below has workers, built
        // before it: which thread claims a slot cannot decide whether a
        // trainee is built after the first round.
        let threads = hfl_parallel::default_threads();
        let idle = ws.parked.get_mut().expect("a training worker panicked");
        while idle.len() < threads.min(ws.cohort.len()) {
            idle.push_back(Trainee {
                model: self.template.clone_box(),
                scratch: TrainScratch::default(),
                drawn: self.empty_shard(),
            });
        }
        let TrainWorkspace {
            cohort,
            parked,
            starts,
        } = &*ws;
        let start_of = |slot: usize| starts.get(slot).map_or(global, Vec::as_slice);
        let lock = || parked.lock().expect("a training worker panicked");
        let crafting = adaptive.or(match &cfg.attack {
            AttackCfg::Model { attack, .. } => Some(attack),
            _ => None,
        });
        updates.resize_with(cohort.len(), Vec::new);
        // One slot per claim: shard sizes differ per client, so workers
        // steal at the finest grain; one thread is simply one worker.
        hfl_parallel::par_chunks_mut(updates, 1, threads, |slot, update| {
            let c = cohort[slot];
            if crafting.is_some() && self.malicious[c] {
                // The craft below overwrites whatever this slot
                // trained, reads only honest slots, and every
                // client's stream is its own: training it is waste.
                return;
            }
            let start = start_of(slot);
            update[0].clear();
            if start.is_empty() {
                // Sitting the round out: the slot is absent from the
                // aggregation and carries the global model unchanged.
                update[0].extend_from_slice(global);
                return;
            }
            let mut trainee = lock().pop_front().expect("one parked trainee per worker");
            let Trainee {
                model,
                scratch,
                drawn,
            } = &mut trainee;
            model.set_params(start);
            // Borrow the materialized shard when cached (identity
            // cohort); draw just this client's otherwise, into the
            // trainee's buffer — per-round work stays O(cohort),
            // not O(population).
            let shard = match &self.shard_cache {
                Some(cache) => &cache[c],
                None => {
                    self.derive_shard_into(c, drawn);
                    &*drawn
                }
            };
            // Populations larger than the dataset leave tail
            // clients with empty shards; they contribute the
            // round's starting model unchanged.
            if !shard.is_empty() {
                let mut rng = rng_for_n(cfg.seed, &[round as u64, c as u64, 0x7247]);
                train_local_scratch(
                    model.as_mut(),
                    shard,
                    &cfg.sgd.at_round(round),
                    cfg.local_iters,
                    &mut rng,
                    scratch,
                );
            }
            update[0].extend_from_slice(model.params());
            lock().push_back(trainee);
        });

        if let Some(attack) = crafting {
            let honest: Vec<&[f32]> = updates
                .iter()
                .zip(cohort.iter())
                .enumerate()
                .filter(|&(slot, (_, &c))| !self.malicious[c] && !start_of(slot).is_empty())
                .map(|(_, (u, _))| u.as_slice())
                .collect();
            let mut rng = rng_for_n(cfg.seed, &[round as u64, 0xE71]);
            let crafted = match attack.try_craft(&honest, &mut rng) {
                Some(c) => c,
                None => {
                    telem.emit_with(|| Event::Anomaly {
                        kind: "attack_no_honest_updates".into(),
                        detail: format!(
                            "round {round}: no honest updates to craft from, \
                             degrading to the stale global model"
                        ),
                    });
                    global.to_vec()
                }
            };
            for (u, &c) in updates.iter_mut().zip(cohort.iter()) {
                if self.malicious[c] {
                    u.clear();
                    u.extend_from_slice(&crafted);
                }
            }
        }
    }

    /// True when this device misbehaves *inside* aggregation protocols
    /// (only model-poisoning adversaries — static or adaptive — do; data
    /// poisoners follow the protocol honestly — paper Appendix D).
    /// `device` is a *global* client id (callers map cohort slots
    /// through the round's cohort first).
    pub(crate) fn protocol_byzantine(&self, device: usize) -> bool {
        matches!(
            self.config.attack,
            AttackCfg::Model { .. } | AttackCfg::Adaptive { .. }
        ) && self.malicious[device]
    }

    /// Which clients participate this round under churn (Assumption 3),
    /// into a caller-owned buffer. Leaders always participate; others
    /// leave independently with `churn_leave_prob` (or a fault plan's
    /// churn override while one is active). All-present when churn is
    /// disabled — allocation-free then (the fast path the engine's
    /// steady-state rounds take).
    pub fn active_mask_into(&self, round: usize, out: &mut Vec<bool>) {
        let p = self
            .injector
            .as_ref()
            .and_then(|inj| inj.churn_leave_prob(round))
            .unwrap_or(self.config.churn_leave_prob);
        // Churn is topological: it empties cohort *slots* (hierarchy
        // positions), whatever client a sampled round bound to them.
        let n = self.hierarchy.num_clients();
        out.clear();
        if p == 0.0 {
            out.resize(n, true);
            return;
        }
        let bottom = self.hierarchy.bottom_level();
        let mut rng = rng_for_n(self.config.seed, &[round as u64, 0xC842]);
        let leaders: std::collections::HashSet<usize> = self
            .hierarchy
            .level(bottom)
            .clusters
            .iter()
            .map(|c| c.leader())
            .collect();
        out.extend((0..n).map(|c| leaders.contains(&c) || !rand::Rng::gen_bool(&mut rng, p)));
    }

    /// Test accuracy of a parameter vector.
    pub fn evaluate(&self, params: &[f32]) -> f64 {
        let mut model = self.template.clone_box();
        model.set_params(params);
        hfl_ml::metrics::accuracy_parallel(model.as_ref(), &self.task.test)
    }
}

/// Runs a prepared experiment on the lockstep schedule (exposed so
/// harnesses can reuse the preparation across repetitions) with
/// telemetry: emits round lifecycle events, keeps the `hfl_*` counters,
/// and assembles the run's [`RunManifest`] (per-round time series,
/// totals, final registry snapshot).
///
/// Determinism: the manifest is a pure function of the config —
/// identical seeds give byte-identical `manifest.to_json()` output.
pub fn run_prepared_with(exp: &Experiment, telem: &Telemetry) -> RunOutput {
    run_engine(RoundEngine::for_experiment(exp), telem)
}

/// Runs `engine`'s experiment from round 0 on the engine's schedule —
/// lockstep for [`RoundEngine::for_experiment`], pipelined for
/// [`RoundEngine::pipelined`].
pub(crate) fn run_engine(mut engine: RoundEngine<'_>, telem: &Telemetry) -> RunOutput {
    let fresh = run_loop(&mut engine, telem, None, None);
    fresh.expect("a fresh run cannot fail to start").0
}

/// Why a snapshot was refused by the resume entry points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResumeError {
    /// The snapshot was written by a different codec version.
    Version {
        /// The version tag found in the snapshot.
        found: u64,
    },
    /// The snapshot was captured under a config this one is not a
    /// horizon-extension of (only `rounds` / `eval_every` may differ).
    ConfigMismatch {
        /// What differed.
        detail: String,
    },
    /// The snapshot is internally inconsistent (truncated model,
    /// mismatched prefix lengths, unrestorable metrics).
    Corrupt {
        /// What is broken.
        detail: String,
    },
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::Version { found } => write!(
                f,
                "cannot resume: snapshot version {found}, this build reads {SNAPSHOT_VERSION}"
            ),
            ResumeError::ConfigMismatch { detail } => {
                write!(f, "cannot resume under this config: {detail}")
            }
            ResumeError::Corrupt { detail } => write!(f, "corrupt snapshot: {detail}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// Hash of `cfg` with the horizon fields (`rounds`, `eval_every`)
/// normalized away — the compatibility key a snapshot embeds as
/// `base_hash`. Resume accepts any config whose base hash matches the
/// snapshot's, which is what lets a shrink candidate with a shorter
/// horizon reuse its parent's checkpoints.
pub fn base_config_hash(cfg: &HflConfig) -> String {
    let mut c = cfg.clone();
    c.rounds = 0;
    c.eval_every = 1;
    fnv1a_hex(format!("{c:?}").as_bytes())
}

/// [`run_prepared_with`] that also captures an [`EngineSnapshot`] after
/// every `capture_every`-th completed round and after the last one (its
/// snapshot is the run's terminal state; resuming it runs no rounds).
/// The run itself is unaffected: capture only reads state.
///
/// # Panics
/// When `capture_every` is zero.
pub fn run_prepared_snapshotting(
    exp: &Experiment,
    telem: &Telemetry,
    capture_every: usize,
) -> (RunOutput, Vec<EngineSnapshot>) {
    assert!(capture_every > 0, "capture_every must be positive");
    run_loop(
        &mut RoundEngine::for_experiment(exp),
        telem,
        None,
        Some(capture_every),
    )
    .expect("a fresh run cannot fail to start")
}

/// Continues a run from `snapshot` through rounds
/// `snapshot.round..cfg.rounds`, byte-identically to the straight
///-through execution of the same config: same model trajectory, same
/// manifest JSON, same registry totals.
///
/// `exp` must be prepared from a config whose [`base_config_hash`]
/// matches the snapshot's (the full hash may differ in the horizon
/// fields only), and `telem` must be a fresh bundle — the snapshot's
/// metric accumulators are seeded into its registry.
pub fn resume_prepared_with(
    exp: &Experiment,
    telem: &Telemetry,
    snapshot: &EngineSnapshot,
) -> Result<RunOutput, ResumeError> {
    let mut engine = RoundEngine::for_experiment(exp);
    Ok(run_loop(&mut engine, telem, Some(snapshot), None)?.0)
}

/// The one run loop behind [`run_engine`], [`run_prepared_snapshotting`]
/// and [`resume_prepared_with`]: start state comes from round 0 or a
/// snapshot, checkpoints are captured on the way when asked, and the
/// schedule is the engine's, whose timing record it folds into the
/// output.
fn run_loop(
    engine: &mut RoundEngine<'_>,
    telem: &Telemetry,
    start: Option<&EngineSnapshot>,
    capture_every: Option<usize>,
) -> Result<(RunOutput, Vec<EngineSnapshot>), ResumeError> {
    let exp = engine.experiment();
    let cfg = exp.config();
    let config_hash = fnv1a_hex(format!("{cfg:?}").as_bytes());
    let base_hash = base_config_hash(cfg);
    let mut global = exp.template.params().to_vec();
    let mut cost = CostCounters::default();
    let label = if engine.is_pipelined() {
        "pipeline"
    } else {
        "abd-hfl"
    };
    let mut manifest = RunManifest::new(label, cfg.seed, config_hash.clone());
    let mut susp_records: Vec<SuspicionRecord> = Vec::new();
    let mut snapshots: Vec<EngineSnapshot> = Vec::new();

    let first_round = match start {
        None => 0,
        Some(s) => {
            if s.version != SNAPSHOT_VERSION {
                return Err(ResumeError::Version { found: s.version });
            }
            if s.base_hash != base_hash {
                return Err(ResumeError::ConfigMismatch {
                    detail: format!(
                        "snapshot base hash {} vs this config's {}",
                        s.base_hash, base_hash
                    ),
                });
            }
            if s.round > cfg.rounds {
                return Err(ResumeError::ConfigMismatch {
                    detail: format!(
                        "snapshot is at round {} but the config stops at {}",
                        s.round, cfg.rounds
                    ),
                });
            }
            if s.model.len() != global.len() {
                return Err(ResumeError::Corrupt {
                    detail: format!(
                        "snapshot model has {} parameters, the prepared model has {}",
                        s.model.len(),
                        global.len()
                    ),
                });
            }
            if s.rounds.len() != s.round {
                return Err(ResumeError::Corrupt {
                    detail: format!(
                        "snapshot at round {} carries {} round records",
                        s.round,
                        s.rounds.len()
                    ),
                });
            }
            global.copy_from_slice(&s.model);
            cost = s.cost;
            manifest.rounds = s.rounds.clone();
            manifest.faults = s.faults.clone();
            susp_records = s.susp_log.clone();
            engine
                .restore_layers(s.round, &s.layers)
                .map_err(|detail| ResumeError::ConfigMismatch { detail })?;
            restore_registry(telem.registry(), &s.metrics)
                .map_err(|detail| ResumeError::Corrupt { detail })?;
            s.round
        }
    };

    let cost_c = COST_COUNTERS.map(|(name, field)| (telem.registry().counter(name, &[]), field));
    let accuracy_g = telem.registry().gauge(ACCURACY_GAUGE, &[]);

    // Outside strict mode, a Krum/Multi-Krum level whose smallest
    // cluster violates n ≥ 2f + 3 is allowed (the paper's own defaults
    // do this) but flagged once at run start.
    if !cfg.strict_guarantees {
        for (level, f, n_min) in cfg.krum_unsound_levels(&exp.hierarchy) {
            telem.emit_with(|| Event::Anomaly {
                kind: "krum_guarantee_degraded".into(),
                detail: format!(
                    "level {level}: Krum assumes n >= 2f + 3 but the smallest \
                     cluster has n = {n_min} with f = {f}; selection still runs \
                     but its Byzantine guarantee does not hold"
                ),
            });
        }
    }

    // Round-persistent buffers: the engine writes each round's global
    // into `next_global`, then the two swap — no per-round model
    // allocation. The fault log keeps its high-water capacity too.
    let mut next_global: Vec<f32> = Vec::with_capacity(global.len());
    let mut fault_log: Vec<FaultRecord> = Vec::new();
    manifest
        .rounds
        .reserve(cfg.rounds.saturating_sub(first_round));
    engine.lap(Phase::Other);
    for round in first_round..cfg.rounds {
        telem.emit_with(|| Event::RoundStarted { round });
        let before = cost;
        fault_log.clear();
        engine.run_round_into(
            &global,
            round,
            &mut cost,
            telem,
            &mut fault_log,
            &mut susp_records,
            &mut next_global,
        );
        std::mem::swap(&mut global, &mut next_global);
        let delta = cost.since(&before);
        for (counter, field) in &cost_c {
            counter.inc(field(&delta));
        }
        manifest.faults.append(&mut fault_log);

        let mut round_accuracy = None;
        if (round + 1) % cfg.eval_every == 0 || round + 1 == cfg.rounds {
            engine.lap(Phase::Other);
            let a = exp.evaluate(&global);
            engine.lap(Phase::Evaluate);
            accuracy_g.set(a);
            round_accuracy = Some(a);
            telem.emit_with(|| Event::Evaluated { round, accuracy: a });
        }
        telem.emit_with(|| Event::RoundFinished {
            round,
            messages: delta.messages,
            bytes: delta.bytes,
            excluded: delta.excluded,
            absent: delta.absent,
        });
        manifest.rounds.push(RoundRecord {
            round: round + 1,
            accuracy: round_accuracy,
            messages: delta.messages,
            bytes: delta.bytes,
            excluded: delta.excluded,
            absent: delta.absent,
        });

        // Checkpoint the completed round, and always the last one: the
        // terminal state is what a divergence search compares last.
        // Capture only reads state, so the run's own trajectory is
        // unaffected.
        let done = round + 1;
        if let Some(every) = capture_every {
            if done % every == 0 || done == cfg.rounds {
                snapshots.push(EngineSnapshot {
                    version: SNAPSHOT_VERSION,
                    seed: cfg.seed,
                    config_hash: config_hash.clone(),
                    base_hash: base_hash.clone(),
                    round: done,
                    model: global.clone(),
                    cost,
                    rounds: manifest.rounds.clone(),
                    faults: manifest.faults.clone(),
                    susp_log: susp_records.clone(),
                    layers: engine.snapshot_layers(done),
                    metrics: telem.registry().snapshot(),
                });
            }
        }
    }
    engine.lap(Phase::Other);
    let accuracy: Vec<(usize, f64)> = manifest
        .rounds
        .iter()
        .filter_map(|r| r.accuracy.map(|a| (r.round, a)))
        .collect();
    let final_accuracy = accuracy.last().map(|(_, a)| *a).unwrap_or(0.0);
    manifest.totals = RunTotals {
        messages: cost.messages,
        bytes: cost.bytes,
        excluded: cost.excluded,
        absent: cost.absent,
    };
    manifest.final_accuracy = final_accuracy;
    // The suspicion section appears iff the suspicion layer ran (or a
    // protocol attack produced records): absent keys keep pre-v3
    // manifests byte-identical for unchanged configs.
    if engine.suspicion().is_some() || !susp_records.is_empty() {
        let final_scores = engine
            .suspicion()
            .map(|t| {
                t.scores()
                    .iter()
                    .enumerate()
                    .filter(|&(c, &s)| s > 0.0 || t.is_quarantined(c))
                    .map(|(c, &s)| ClientScore {
                        client: c,
                        score: s,
                        quarantined: t.is_quarantined(c),
                    })
                    .collect()
            })
            .unwrap_or_default();
        manifest.suspicion = Some(SuspicionSection {
            events: susp_records,
            final_scores,
        });
    }
    let result = RunResult {
        accuracy,
        final_accuracy,
        messages: cost.messages,
        bytes: cost.bytes,
        excluded_total: cost.excluded,
        absent_total: cost.absent,
        faulted_total: cost.faulted,
        quarantined_total: cost.quarantined,
        withheld_total: cost.withheld,
    };
    let timing = engine.pipeline_result(&result);
    // The pipelined schedule's timing decomposition travels in the
    // manifest as three histograms.
    if let Some(timing) = &timing {
        let sigma_w = telem.registry().histogram("pipeline_sigma_w_seconds", &[]);
        let sigma = telem.registry().histogram("pipeline_sigma_seconds", &[]);
        let nu = telem.registry().histogram("pipeline_nu", &[]);
        for rt in &timing.rounds {
            sigma_w.observe(rt.sigma_w);
            sigma.observe(rt.sigma);
            nu.observe(rt.nu);
        }
    }
    manifest.metrics = telem.registry().snapshot();
    let out = RunOutput {
        result,
        manifest,
        model: global,
        timing,
        phases: engine.take_phases(),
    };
    Ok((out, snapshots))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HflConfig;
    use hfl_attacks::{DataAttack, Placement};

    fn run_with(cfg: &HflConfig, telem: &Telemetry) -> RunOutput {
        let exp = Experiment::try_prepare(cfg).expect("a valid config");
        run_prepared_with(&exp, telem)
    }

    fn run(cfg: &HflConfig) -> RunResult {
        run_with(cfg, &Telemetry::disabled()).result
    }

    fn quick(attack: AttackCfg, seed: u64) -> HflConfig {
        let mut cfg = HflConfig::quick(attack, seed);
        cfg.rounds = 25;
        cfg.eval_every = 25;
        cfg
    }

    /// A malformed `data` block is reported by the reporting entry
    /// point, field by field, before the generator can assert on it (or
    /// wrap 300 classes into `u8` labels, or train on NaN).
    #[test]
    fn malformed_data_config_is_an_err_not_a_panic() {
        type Break = fn(&mut hfl_ml::synth::SynthConfig);
        let cases: [(&str, Break); 11] = [
            ("train_samples", |d| d.train_samples = 0),
            ("test_samples", |d| d.test_samples = 0),
            // One short of a validation shard per top-level voter.
            ("test_samples", |d| d.test_samples = 3),
            ("dim", |d| d.dim = 0),
            ("num_classes", |d| d.num_classes = 1),
            ("num_classes", |d| d.num_classes = 300),
            ("noise_std", |d| d.noise_std = f32::NAN),
            ("noise_std", |d| d.noise_std = f32::INFINITY),
            ("noise_std", |d| d.noise_std = -1.0),
            ("separation", |d| d.separation = f32::NAN),
            ("separation", |d| d.separation = f32::NEG_INFINITY),
        ];
        for (field, break_it) in cases {
            let mut cfg = quick(AttackCfg::None, 1);
            break_it(&mut cfg.data);
            match Experiment::try_prepare(&cfg) {
                Err(ConfigError::OutOfRange {
                    section: "data",
                    what,
                    ..
                }) => {
                    assert!(what.starts_with(field), "{field}: blamed {what}")
                }
                Err(other) => panic!("{field}: wrong error {other}"),
                Ok(_) => panic!("{field}: accepted"),
            }
        }
        // The edges that are legal stay legal.
        let mut cfg = quick(AttackCfg::None, 1);
        cfg.data.noise_std = 0.0;
        cfg.data.num_classes = 2;
        assert!(Experiment::try_prepare(&cfg).is_ok());
    }

    #[test]
    fn honest_run_learns() {
        let r = run(&quick(AttackCfg::None, 1));
        assert!(
            r.final_accuracy > 0.75,
            "clean accuracy only {}",
            r.final_accuracy
        );
        assert!(r.messages > 0 && r.bytes > 0);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = run(&quick(AttackCfg::None, 7));
        let b = run(&quick(AttackCfg::None, 7));
        assert_eq!(a.final_accuracy, b.final_accuracy);
        assert_eq!(a.messages, b.messages);
    }

    #[test]
    fn survives_30_percent_type_i_poisoning() {
        let attack = AttackCfg::Data {
            attack: DataAttack::type_i(),
            proportion: 0.3,
            placement: Placement::Prefix,
        };
        let r = run(&quick(attack, 2));
        assert!(
            r.final_accuracy > 0.7,
            "ABD-HFL collapsed at 30 %: {}",
            r.final_accuracy
        );
    }

    #[test]
    fn consensus_excludes_poisoned_proposals() {
        let attack = AttackCfg::Data {
            attack: DataAttack::type_i(),
            proportion: 0.25,
            placement: Placement::Prefix,
        };
        let r = run(&quick(attack, 3));
        // One proposal excluded per round by the vote.
        assert!(r.excluded_total > 0);
    }

    #[test]
    fn quorum_below_one_still_converges() {
        let mut cfg = quick(AttackCfg::None, 4);
        cfg.quorum = 0.75;
        let r = run(&cfg);
        assert!(r.final_accuracy > 0.7, "quorum run: {}", r.final_accuracy);
    }

    #[test]
    fn repeated_runs_vary_but_agree_roughly() {
        // The paper's repeated-runs protocol: one config, derived seeds.
        let runs: Vec<RunResult> = (0..2)
            .map(|k| hfl_ml::rng::derive_seed(5, 0x2E9 + k))
            .map(|seed| run(&quick(AttackCfg::None, seed)))
            .collect();
        assert_eq!(runs.len(), 2);
        assert_ne!(runs[0].final_accuracy, runs[1].final_accuracy);
        assert!((runs[0].final_accuracy - runs[1].final_accuracy).abs() < 0.15);
    }

    #[test]
    fn churn_is_tolerated() {
        // 20 % of non-leader clients absent per round (Assumption 3):
        // learning still converges and absences are counted.
        let mut cfg = quick(AttackCfg::None, 11);
        cfg.churn_leave_prob = 0.2;
        let r = run(&cfg);
        assert!(r.final_accuracy > 0.7, "churn run: {}", r.final_accuracy);
        // ≈ 0.2 × 48 non-leaders × 25 rounds = 240 expected absences.
        assert!(
            r.absent_total > 120 && r.absent_total < 400,
            "absences: {}",
            r.absent_total
        );
    }

    #[test]
    fn zero_churn_has_zero_absences() {
        let r = run(&quick(AttackCfg::None, 12));
        assert_eq!(r.absent_total, 0);
    }

    #[test]
    fn leaders_never_churn() {
        let mut cfg = quick(AttackCfg::None, 13);
        cfg.churn_leave_prob = 0.9;
        let exp = Experiment::try_prepare(&cfg).expect("a valid config");
        let bottom = exp.hierarchy.bottom_level();
        let mut active = Vec::new();
        for round in 0..5 {
            exp.active_mask_into(round, &mut active);
            for cluster in &exp.hierarchy.level(bottom).clusters {
                assert!(active[cluster.leader()], "leader churned out");
            }
        }
    }

    #[test]
    fn accuracy_series_has_eval_points() {
        let mut cfg = quick(AttackCfg::None, 6);
        cfg.rounds = 10;
        cfg.eval_every = 2;
        let r = run(&cfg);
        assert_eq!(r.accuracy.len(), 5);
        assert_eq!(r.accuracy.last().unwrap().0, 10);
    }

    fn tiny(seed: u64) -> HflConfig {
        let mut cfg = HflConfig::quick(AttackCfg::None, seed);
        cfg.rounds = 3;
        cfg.eval_every = 3;
        cfg
    }

    #[test]
    fn manifest_is_byte_identical_across_equal_seeds() {
        let cfg = tiny(21);
        let a = run_with(&cfg, &Telemetry::disabled());
        let b = run_with(&cfg, &Telemetry::disabled());
        assert_eq!(a.manifest.to_json(), b.manifest.to_json());
        // And a different seed is visible in the manifest.
        let mut other = cfg.clone();
        other.seed = 22;
        let c = run_with(&other, &Telemetry::disabled());
        assert_ne!(a.manifest.to_json(), c.manifest.to_json());
        assert_ne!(a.manifest.config_hash, c.manifest.config_hash);
    }

    #[test]
    fn manifest_roundtrips_and_matches_result() {
        let run = run_with(&tiny(23), &Telemetry::disabled());
        let m = &run.manifest;
        assert_eq!(m.label, "abd-hfl");
        assert_eq!(m.seed, 23);
        assert_eq!(m.rounds.len(), 3);
        assert_eq!(m.totals.messages, run.result.messages);
        assert_eq!(m.totals.bytes, run.result.bytes);
        assert_eq!(
            m.rounds.iter().map(|r| r.messages).sum::<u64>(),
            run.result.messages
        );
        assert_eq!(m.final_accuracy, run.result.final_accuracy);
        // Only the last round is an eval point under eval_every = rounds.
        assert!(m.rounds[0].accuracy.is_none());
        assert!(m.rounds[2].accuracy.is_some());
        let back = hfl_telemetry::RunManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(&back, m);
    }

    #[test]
    fn instrumented_run_matches_uninstrumented() {
        let cfg = tiny(24);
        let plain = run(&cfg);
        let (telem, _rec) = Telemetry::recording();
        let inst = run_with(&cfg, &telem);
        assert_eq!(plain.final_accuracy, inst.result.final_accuracy);
        assert_eq!(plain.messages, inst.result.messages);
        assert_eq!(plain.bytes, inst.result.bytes);
    }

    #[test]
    fn events_cover_the_round_lifecycle() {
        let cfg = tiny(25);
        let (telem, rec) = Telemetry::recording();
        let inst = run_with(&cfg, &telem);
        let events = rec.events();
        let starts = events
            .iter()
            .filter(|e| matches!(e, Event::RoundStarted { .. }))
            .count();
        let finishes = events
            .iter()
            .filter(|e| matches!(e, Event::RoundFinished { .. }))
            .count();
        assert_eq!(starts, cfg.rounds);
        assert_eq!(finishes, cfg.rounds);
        // Every message accounted in the result is also visible as a
        // MessagesSent event.
        let event_messages: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::MessagesSent { count, .. } => Some(*count),
                _ => None,
            })
            .sum();
        assert_eq!(event_messages, inst.result.messages);
        // And the registry counter agrees.
        assert_eq!(
            telem.registry().counter("hfl_messages_total", &[]).get(),
            inst.result.messages
        );
    }

    /// A crafted slot trains nothing: on one thread, a round in which
    /// every slot is crafted leaves its one parked trainee untouched
    /// (and, with no honest update to craft from, every slot re-sends
    /// the global model), while a round with honest slots trains it.
    #[test]
    fn a_round_of_crafted_slots_checks_out_no_trainee() {
        for (proportion, trainees) in [(1.0, 0), (0.5, 1)] {
            let cfg = quick(
                AttackCfg::Model {
                    attack: ModelAttack::Alie { z: 1.0 },
                    proportion,
                    placement: Placement::Prefix,
                },
                31,
            );
            let exp = Experiment::try_prepare(&cfg).expect("a valid config");
            let global = exp.template.params().to_vec();
            let (mut updates, mut ws) = (Vec::new(), TrainWorkspace::default());
            hfl_parallel::with_threads(1, || {
                exp.train_round_into(
                    &global,
                    0,
                    None,
                    &Telemetry::disabled(),
                    &mut updates,
                    &mut ws,
                )
            });
            let parked = ws.parked.lock().expect("no worker panicked");
            assert_eq!(parked.len(), 1, "one trainee per worker");
            let trained = parked.iter().filter(|t| t.model.params() != global).count();
            assert_eq!(trained, trainees, "malicious proportion {proportion}");
            if proportion == 1.0 {
                assert!(updates.iter().all(|u| *u == global));
            }
        }
    }
}
