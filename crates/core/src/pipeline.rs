//! The asynchronous **pipeline learning workflow** (paper §III-D, Fig. 2),
//! executed on the discrete-event simulator.
//!
//! While the synchronous driver ([`crate::runner`]) reproduces accuracy
//! results, this driver reproduces *timing*: local training of round
//! `r+1` (seeded by the flag partial model from level ℓ_F) overlaps with
//! the still-running aggregation of round `r` above ℓ_F, and the global
//! model arrives late and is merged in via the correction factor (Eq. 1).
//!
//! Measured per round and per bottom cluster, straight from the event
//! trace:
//! * `σ_w` — first local model received by the bottom leader → flag model
//!   received (the only time devices actually wait);
//! * `σ` — first local model received → global model received;
//! * `σ_p + σ_g = σ − σ_w` — aggregation time hidden by the pipeline;
//! * `ν = (σ_p + σ_g) / σ` — the efficiency indicator (Eq. 3).
//!
//! Simplification (documented in DESIGN.md): CBA mechanisms inside this
//! driver are decided atomically at the collecting node, with their
//! message/byte cost charged to the statistics and their latency folded
//! into the aggregation delay. The consensus *decision logic* is the real
//! implementation from `hfl-consensus`.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use hfl_consensus::quorum_size;
use hfl_faults::TimelineFaults;
use hfl_ml::rng::derive_seed;
use hfl_ml::sgd::train_local;
use hfl_robust::AggScratch;
use hfl_simnet::engine::{Actor, Ctx, NodeId, Simulation};
use hfl_simnet::trace::{TraceEvent, TraceKind};
use hfl_simnet::{DelayModel, SimTime};
use hfl_telemetry::{fnv1a_hex, RunManifest, RunTotals, Telemetry};

use crate::config::{ConfigError, HflConfig};
use crate::engine::{aggregate, LevelRule, Scoring};
use crate::runner::Experiment;

/// Timing knobs for the pipeline simulation.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Network link delay (all links).
    pub net_delay: DelayModel,
    /// Duration of one full local-training phase (T iterations).
    pub train_delay: DelayModel,
    /// Duration of one aggregation (BRA) at a leader.
    pub agg_delay: DelayModel,
    /// Latency multiplier for CBA aggregations (consensus rounds are
    /// slower than a leader-side BRA pass).
    pub cba_delay_factor: f64,
    /// Number of global rounds to simulate.
    pub rounds: usize,
    /// Collection timeout (Algorithm 4's "until quorum **or Timeout**"):
    /// measured from the first model a leader receives in a round; on
    /// expiry the leader aggregates whatever arrived. `None` waits for
    /// the quorum indefinitely.
    pub collect_timeout: Option<SimTime>,
    /// Per-message drop probability of the network (stragglers /
    /// unreliable channels). Requires a timeout or a quorum < 1 to make
    /// progress when updates go missing.
    pub loss_prob: f64,
    /// Uplink delay override for pure bottom-level devices (Appendix E's
    /// "bandwidth difference of each level": leaf devices often sit on
    /// slower links than the edge servers acting as leaders). `None`
    /// keeps every link on `net_delay`.
    pub leaf_uplink: Option<DelayModel>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            net_delay: DelayModel::lan(),
            train_delay: DelayModel::Uniform {
                lo: 20_000,
                hi: 60_000,
            },
            agg_delay: DelayModel::Constant { micros: 2_000 },
            cba_delay_factor: 4.0,
            rounds: 5,
            collect_timeout: None,
            loss_prob: 0.0,
            leaf_uplink: None,
        }
    }
}

/// Per-round pipeline measurements, averaged over bottom clusters.
#[derive(Clone, Copy, Debug)]
pub struct RoundTiming {
    /// Global round index.
    pub round: usize,
    /// Mean waiting time σ_w (seconds).
    pub sigma_w: f64,
    /// Mean total time σ (seconds).
    pub sigma: f64,
    /// Mean pipelined time σ_p + σ_g (seconds).
    pub sigma_pg: f64,
    /// Mean efficiency indicator ν = (σ_p + σ_g)/σ.
    pub nu: f64,
}

/// Result of a pipeline simulation.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// Per-round timing decomposition (rounds with complete traces).
    pub rounds: Vec<RoundTiming>,
    /// Total simulated wall-clock.
    pub sim_time_secs: f64,
    /// Messages delivered.
    pub messages: u64,
    /// Bytes delivered.
    pub bytes: u64,
    /// Test accuracy of the final global model (training is real).
    pub final_accuracy: f64,
    /// Number of Eq. (1) correction-factor merges applied (global model
    /// arriving while a device was mid-training).
    pub corrections_applied: u64,
    /// Sequential-baseline estimate of one round's duration (seconds):
    /// what a round would cost if devices idled until the global model
    /// returned (σ measured) — compare with the pipelined round period.
    pub mean_sigma: f64,
    /// Mean round period actually achieved by the pipeline (seconds).
    pub mean_period: f64,
}

/// Protocol messages; parameters are shared, not copied, between actors.
#[derive(Clone)]
enum Msg {
    /// A model travelling up to the leader of `(level, cluster)`.
    Update {
        round: usize,
        level: usize,
        cluster: usize,
        params: Arc<Vec<f32>>,
    },
    /// Flag partial model for starting `round`.
    Flag { round: usize, params: Arc<Vec<f32>> },
    /// Completed global model of `round`.
    Global { round: usize, params: Arc<Vec<f32>> },
}

/// Timer-id packing: kind | level | round.
const TIMER_TRAIN: u64 = 0;
const TIMER_AGG: u64 = 1;
const TIMER_COLLECT_TIMEOUT: u64 = 2;

fn pack_timer(kind: u64, level: usize, round: usize) -> u64 {
    kind | ((level as u64) << 8) | ((round as u64) << 16)
}

fn unpack_timer(id: u64) -> (u64, usize, usize) {
    (id & 0xFF, ((id >> 8) & 0xFF) as usize, (id >> 16) as usize)
}

struct Collector {
    inputs: Vec<(usize, Arc<Vec<f32>>)>, // (member slot, params)
    quorum_hit: bool,
}

/// One physical device: a bottom-level client plus every leader role its
/// id holds in the hierarchy.
struct DeviceActor {
    id: usize,
    exp: Arc<Experiment>,
    pcfg: Arc<PipelineConfig>,
    /// Every level's aggregation rule, built once and shared by all
    /// devices.
    rules: Arc<Vec<LevelRule>>,
    /// Clusters this device leads: `(level, cluster index)`.
    led: Vec<(usize, usize)>,
    /// Bottom cluster this device belongs to (cluster index, leader id).
    bottom_cluster: usize,
    bottom_leader: usize,
    /// Fraction of global data the flag model covers (for α).
    flag_fraction: f64,
    params: Vec<f32>,
    training_round: Option<usize>,
    train_started: SimTime,
    collectors: HashMap<(usize, usize), Collector>, // (level, round)
    /// Aggregations already completed — guards against late arrivals
    /// re-opening a collector after a timeout-forced aggregation.
    aggregated: HashSet<(usize, usize)>,
    forwarded_flag: HashSet<usize>,
    forwarded_global: HashSet<usize>,
    corrections_applied: u64,
    rng: StdRng,
}

impl DeviceActor {
    fn start_training(&mut self, ctx: &mut Ctx<Msg>, round: usize) {
        if round >= self.pcfg.rounds {
            return;
        }
        self.training_round = Some(round);
        self.train_started = ctx.now();
        // A device inside an active StragglerWindow trains slower by the
        // window's factor — the same signal the round engine's deadline
        // buffers see — so stragglers miss collection timeouts here too
        // instead of only sorting last.
        let mut dur = self.pcfg.train_delay.sample(&mut self.rng);
        if let Some(inj) = self.exp.injector() {
            dur = dur.saturating_scale(inj.straggle_factor(self.id, round));
        }
        ctx.set_timer(dur, pack_timer(TIMER_TRAIN, 0, round));
    }

    fn finish_training(&mut self, ctx: &mut Ctx<Msg>, round: usize) {
        if self.training_round != Some(round) {
            return; // stale timer (training was re-seeded)
        }
        self.training_round = None;
        // Real SGD, performed at the event boundary.
        let mut model = self.exp.template.clone_box();
        model.set_params(&self.params);
        let cfg = self.exp.config();
        // The pipeline driver predates sampling and models the identity
        // cohort: device id == global client id.
        let shard = self.exp.client_shard(self.id);
        train_local(
            model.as_mut(),
            &shard,
            &cfg.sgd,
            cfg.local_iters,
            &mut self.rng,
        );
        self.params.copy_from_slice(model.params());
        ctx.trace(TraceEvent {
            round,
            level: self.exp.hierarchy.bottom_level(),
            cluster: self.bottom_cluster,
            kind: TraceKind::LocalTrainingDone,
        });
        let bottom = self.exp.hierarchy.bottom_level();
        ctx.send(
            self.bottom_leader,
            Msg::Update {
                round,
                level: bottom,
                cluster: self.bottom_cluster,
                params: Arc::new(self.params.clone()),
            },
        );
    }

    fn on_update(
        &mut self,
        ctx: &mut Ctx<Msg>,
        round: usize,
        level: usize,
        cluster: usize,
        params: Arc<Vec<f32>>,
    ) {
        debug_assert!(
            self.led.contains(&(level, cluster)) || level == 0,
            "update for a cluster this device does not lead"
        );
        let h = &self.exp.hierarchy;
        let size = if level == 0 {
            h.level(0).clusters[0].len()
        } else {
            h.level(level).clusters[cluster].len()
        };
        if self.aggregated.contains(&(level, round)) {
            return; // straggler arriving after a timeout-forced aggregate
        }
        let timeout = self.pcfg.collect_timeout;
        let entry = self
            .collectors
            .entry((level, round))
            .or_insert_with(|| Collector {
                inputs: Vec::new(),
                quorum_hit: false,
            });
        if entry.inputs.is_empty() {
            ctx.trace(TraceEvent {
                round,
                level,
                cluster,
                kind: TraceKind::FirstModelReceived,
            });
            if let Some(t) = timeout {
                ctx.set_timer(t, pack_timer(TIMER_COLLECT_TIMEOUT, level, round));
            }
        }
        entry.inputs.push((entry.inputs.len(), params));
        let quorum = quorum_size(self.exp.config().quorum, size);
        if !entry.quorum_hit && entry.inputs.len() >= quorum {
            entry.quorum_hit = true;
            ctx.trace(TraceEvent {
                round,
                level,
                cluster,
                kind: TraceKind::QuorumReached,
            });
            let dur = self.agg_duration(level);
            ctx.set_timer(dur, pack_timer(TIMER_AGG, level, round));
        }
    }

    /// How long this leader takes to aggregate at `level`, however the
    /// collection closed: one `agg_delay` draw, stretched by
    /// `cba_delay_factor` where the level runs a consensus mechanism.
    fn agg_duration(&mut self, level: usize) -> SimTime {
        let base = self.pcfg.agg_delay.sample(&mut self.rng);
        match self.rules[level] {
            LevelRule::Bra(..) => base,
            LevelRule::Cba(_) => base.saturating_scale(self.pcfg.cba_delay_factor),
        }
    }

    /// Collection timeout fired: aggregate whatever arrived (Algorithm 4's
    /// timeout branch). A no-op when the quorum already triggered.
    fn on_collect_timeout(&mut self, ctx: &mut Ctx<Msg>, level: usize, round: usize) {
        if let Some(entry) = self.collectors.get_mut(&(level, round)) {
            if !entry.quorum_hit && !entry.inputs.is_empty() {
                entry.quorum_hit = true;
                let dur = self.agg_duration(level);
                ctx.set_timer(dur, pack_timer(TIMER_AGG, level, round));
            }
        }
    }

    fn finish_aggregation(&mut self, ctx: &mut Ctx<Msg>, level: usize, round: usize) {
        let Some(collector) = self.collectors.remove(&(level, round)) else {
            return;
        };
        self.aggregated.insert((level, round));
        let refs: Vec<&[f32]> = collector.inputs.iter().map(|(_, p)| p.as_slice()).collect();
        let cfg = self.exp.config();
        // The engine's aggregate step, with every node honest inside
        // the protocol and distance scoring at every level.
        let mut aggregated = Vec::new();
        aggregate(
            &self.rules[level],
            &refs,
            None,
            |_| false,
            Scoring::Distance,
            &mut self.rng,
            &mut aggregated,
            &mut AggScratch::default(),
        );
        let cluster = if level == 0 {
            0
        } else {
            self.led
                .iter()
                .find(|(l, _)| *l == level)
                .map(|(_, c)| *c)
                .expect("aggregating a level this device does not lead")
        };
        ctx.trace(TraceEvent {
            round,
            level,
            cluster,
            kind: TraceKind::AggregateFormed,
        });
        let params = Arc::new(aggregated);
        let flag_level = cfg.flag_level;

        if level == 0 {
            // Global model complete: disseminate downward.
            self.handle_global(ctx, round, params);
        } else {
            // Flag level: disseminate the partial as the flag model for
            // the next round before sending it up (Algorithm 3, l.18–22).
            if level == flag_level {
                self.handle_flag(ctx, round + 1, Arc::clone(&params));
            }
            // Send upward to this device's leader at level−1 (or into the
            // top collection when level == 1).
            let h = &self.exp.hierarchy;
            let (up_level, up_cluster) = {
                let (ci, _) = h
                    .position(level - 1, self.id)
                    .expect("leader must appear one level up");
                (level - 1, ci)
            };
            let up_leader = if up_level == 0 {
                h.level(0).clusters[0].leader()
            } else {
                h.level(up_level).clusters[up_cluster].members[0]
            };
            if up_leader == self.id {
                // Self-delivery without the network.
                self.on_update(ctx, round, up_level, up_cluster, params);
            } else {
                ctx.send(
                    up_leader,
                    Msg::Update {
                        round,
                        level: up_level,
                        cluster: up_cluster,
                        params,
                    },
                );
            }
        }
    }

    /// Flag dissemination (Algorithm 5): forward to every cluster this
    /// device leads below the flag level; when the flag reaches a bottom
    /// device it seeds the next round of training.
    fn handle_flag(&mut self, ctx: &mut Ctx<Msg>, round: usize, params: Arc<Vec<f32>>) {
        if !self.forwarded_flag.insert(round) {
            return;
        }
        let h = &self.exp.hierarchy;
        let bottom = h.bottom_level();
        for &(level, cluster) in &self.led {
            if level >= self.exp.config().flag_level.max(1) && level <= bottom {
                for &m in &h.level(level).clusters[cluster].members {
                    if m != self.id {
                        ctx.send(
                            m,
                            Msg::Flag {
                                round,
                                params: Arc::clone(&params),
                            },
                        );
                    }
                }
            }
        }
        // This device is itself a bottom client: adopt the flag model.
        ctx.trace(TraceEvent {
            round: round.saturating_sub(1),
            level: bottom,
            cluster: self.bottom_cluster,
            kind: TraceKind::FlagModelReceived,
        });
        if self.training_round.is_none() {
            self.params.copy_from_slice(&params);
            self.start_training(ctx, round);
        }
    }

    /// Global-model dissemination plus the correction-factor merge of
    /// Eq. (1) when the device is mid-training.
    fn handle_global(&mut self, ctx: &mut Ctx<Msg>, round: usize, params: Arc<Vec<f32>>) {
        if !self.forwarded_global.insert(round) {
            return;
        }
        let h = &self.exp.hierarchy;
        let bottom = h.bottom_level();
        for &(level, cluster) in &self.led {
            if level <= bottom {
                for &m in &h.level(level).clusters[cluster].members {
                    if m != self.id {
                        ctx.send(
                            m,
                            Msg::Global {
                                round,
                                params: Arc::clone(&params),
                            },
                        );
                    }
                }
            }
        }
        ctx.trace(TraceEvent {
            round,
            level: bottom,
            cluster: self.bottom_cluster,
            kind: TraceKind::GlobalModelReceived,
        });
        let cfg = self.exp.config();
        if self.training_round.is_some() {
            // Mid-training: merge with the correction factor. Staleness is
            // measured in elapsed local-iteration units.
            let elapsed = ctx.now().saturating_sub(self.train_started).as_secs_f64();
            let iter_secs =
                self.pcfg.train_delay.mean_micros() / 1e6 / cfg.local_iters.max(1) as f64;
            let staleness = if iter_secs > 0.0 {
                elapsed / iter_secs
            } else {
                0.0
            };
            let alpha = cfg.correction.alpha(staleness, self.flag_fraction);
            cfg.correction.merge(alpha, &params, &mut self.params);
            self.corrections_applied += 1;
        } else {
            // Idle (round 0 bootstrap or finished): adopt outright.
            self.params.copy_from_slice(&params);
        }
    }
}

impl Actor<Msg> for DeviceActor {
    fn on_start(&mut self, ctx: &mut Ctx<Msg>) {
        // Round 0: every device trains from the initial global model
        // (Algorithm 2, r = 0 branch).
        self.start_training(ctx, 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<Msg>, _src: NodeId, msg: Msg) {
        match msg {
            Msg::Update {
                round,
                level,
                cluster,
                params,
            } => self.on_update(ctx, round, level, cluster, params),
            Msg::Flag { round, params } => self.handle_flag(ctx, round, params),
            Msg::Global { round, params } => self.handle_global(ctx, round, params),
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<Msg>, id: u64) {
        let (kind, level, round) = unpack_timer(id);
        match kind {
            TIMER_TRAIN => self.finish_training(ctx, round),
            TIMER_AGG => self.finish_aggregation(ctx, level, round),
            TIMER_COLLECT_TIMEOUT => self.on_collect_timeout(ctx, level, round),
            _ => unreachable!("unknown timer kind {kind}"),
        }
    }
}

/// The pipeline driver: bridges the simulator's trace stream into the
/// recorder (as `Event::Sim`), records network/timing metrics (`sim_*`
/// counters, `pipeline_*` histograms, trace anomaly count) and returns
/// the run's [`RunManifest`] (label `"pipeline"`; the per-round series
/// is empty — pipeline timing lives in the histograms).
///
/// The arms-race layer (adaptive attacks, suspicion/quarantine,
/// protocol attacks) is a sequential-runner feature: the async driver
/// runs static attacks only. A config carrying any arms-race field is
/// still accepted — the fields are ignored here and an
/// `Event::Anomaly { kind: "arms_race_ignored" }` is emitted once so
/// the omission is visible in the trace.
///
/// Errors before anything runs when the timing model cannot progress:
/// no rounds, or lost deliveries (network loss, injected faults) with
/// neither a collection timeout nor a quorum below 1.
pub(crate) fn pipeline_run(
    cfg: &HflConfig,
    pcfg: &PipelineConfig,
    telem: &Telemetry,
) -> Result<(PipelineResult, RunManifest), ConfigError> {
    if pcfg.rounds == 0 {
        return Err(ConfigError::ZeroRounds);
    }
    let exp = Arc::new(Experiment::try_prepare(cfg)?);
    let can_close_short = pcfg.collect_timeout.is_some() || cfg.quorum < 1.0;
    if pcfg.loss_prob > 0.0 && !can_close_short {
        return Err(ConfigError::PipelineLossNeedsTimeout);
    }
    let delivery_faults = exp.injector().is_some_and(|inj| inj.has_delivery_faults());
    if delivery_faults && !can_close_short {
        return Err(ConfigError::PipelineFaultsNeedTimeout);
    }
    if telem.enabled() && cfg.arms_race() {
        telem.emit(hfl_telemetry::Event::Anomaly {
            kind: "arms_race_ignored".into(),
            detail: "the async pipeline driver ignores adaptive attacks, the \
                     suspicion layer and protocol attacks; use the sequential \
                     runner for arms-race experiments"
                .into(),
        });
    }
    let pcfg = Arc::new(pcfg.clone());
    let rules = Arc::new(LevelRule::build_all(&cfg.levels));
    let h = &exp.hierarchy;
    let bottom = h.bottom_level();
    let n = h.num_clients();
    let d = exp.template.param_len();

    let actors: Vec<DeviceActor> = (0..n)
        .map(|id| {
            let led: Vec<(usize, usize)> = (0..h.num_levels())
                .filter_map(|l| {
                    if l == 0 {
                        // The top cluster's collection role belongs to its
                        // leader; we model it via level-0 updates.
                        (h.level(0).clusters[0].leader() == id).then_some((0, 0))
                    } else {
                        h.level(l)
                            .clusters
                            .iter()
                            .position(|c| c.leader() == id)
                            .map(|ci| (l, ci))
                    }
                })
                .collect();
            let (bottom_cluster, _) = h
                .position(bottom, id)
                .expect("every device is a bottom client");
            let bottom_leader = h.level(bottom).clusters[bottom_cluster].leader();
            // Flag fraction: clients under this device's flag-level
            // ancestor over all clients.
            let flag_cluster = {
                let mut dev = id;
                let mut lvl = bottom;
                while lvl > cfg.flag_level {
                    let (ci, _) = h.position(lvl, dev).expect("device in hierarchy");
                    dev = h.level(lvl).clusters[ci].leader();
                    lvl -= 1;
                }
                let (ci, _) = h.position(lvl, dev).expect("ancestor at flag level");
                ci
            };
            let flag_fraction = h.descendants(cfg.flag_level, flag_cluster).len() as f64 / n as f64;
            DeviceActor {
                id,
                exp: Arc::clone(&exp),
                pcfg: Arc::clone(&pcfg),
                rules: Arc::clone(&rules),
                led,
                bottom_cluster,
                bottom_leader,
                flag_fraction,
                params: exp.template.params().to_vec(),
                training_round: None,
                train_started: SimTime::ZERO,
                collectors: HashMap::new(),
                aggregated: HashSet::new(),
                forwarded_flag: HashSet::new(),
                forwarded_global: HashSet::new(),
                corrections_applied: 0,
                rng: StdRng::seed_from_u64(derive_seed(cfg.seed, 0x51D0 + id as u64)),
            }
        })
        .collect();

    let mut sim = Simulation::new(
        actors,
        pcfg.net_delay.clone(),
        derive_seed(cfg.seed, 0x7E7),
        move |_m: &Msg| (d * 4) as u64,
    );
    if telem.enabled() {
        sim.set_recorder(Arc::clone(telem.recorder()));
    }
    if pcfg.loss_prob > 0.0 {
        sim.set_drop_probability(pcfg.loss_prob);
    }
    if let Some(inj) = exp.injector() {
        // Nominal round period for mapping sim time onto fault-plan
        // rounds: one training phase plus a per-level collect + aggregate
        // exchange. The mapping is approximate (slow rounds drift) but
        // deterministic, which is what reproducibility needs. Crashed
        // devices keep their timers; they are simply unreachable — every
        // message to or from them is dropped at the link layer.
        let levels = h.num_levels() as f64;
        let period_us = pcfg.train_delay.mean_micros()
            + levels * (pcfg.agg_delay.mean_micros() + 2.0 * pcfg.net_delay.mean_micros());
        let period = SimTime::from_micros(period_us.max(1.0) as u64);
        sim.set_link_fault(Box::new(TimelineFaults::new(inj.clone(), period)));
    }
    if let Some(leaf_model) = &pcfg.leaf_uplink {
        // Pure leaves = devices that lead no cluster (every leader also
        // appears at some higher level and gets the default link).
        let bottom_leaders: std::collections::HashSet<usize> = h
            .level(bottom)
            .clusters
            .iter()
            .map(|c| c.leader())
            .collect();
        for dev in 0..n {
            if !bottom_leaders.contains(&dev) {
                sim.set_uplink_delay(dev, leaf_model.clone());
            }
        }
    }
    let stats = sim.run(50_000_000);

    // Extract per-round timings from the trace.
    let trace = sim.trace();
    let n_bottom_clusters = h.level(bottom).num_clusters();
    let mut rounds = Vec::new();
    let mut global_times = Vec::new();
    for r in 0..pcfg.rounds {
        let mut sw = Vec::new();
        let mut sigma = Vec::new();
        for c in 0..n_bottom_clusters {
            let first = trace.first_time(r, bottom, c, TraceKind::FirstModelReceived);
            let flag = trace.first_time(r, bottom, c, TraceKind::FlagModelReceived);
            let global = trace.first_time(r, bottom, c, TraceKind::GlobalModelReceived);
            if let (Some(f), Some(fl), Some(g)) = (first, flag, global) {
                sw.push(fl.saturating_sub(f).as_secs_f64());
                sigma.push(g.saturating_sub(f).as_secs_f64());
            }
        }
        if let Some(g) = trace.first_time(r, 0, 0, TraceKind::AggregateFormed) {
            global_times.push(g.as_secs_f64());
        }
        if !sigma.is_empty() {
            let mw = sw.iter().sum::<f64>() / sw.len() as f64;
            let ms = sigma.iter().sum::<f64>() / sigma.len() as f64;
            let pg = (ms - mw).max(0.0);
            rounds.push(RoundTiming {
                round: r,
                sigma_w: mw,
                sigma: ms,
                sigma_pg: pg,
                nu: if ms > 0.0 { pg / ms } else { 0.0 },
            });
        }
    }

    let mean_sigma = if rounds.is_empty() {
        0.0
    } else {
        rounds.iter().map(|r| r.sigma).sum::<f64>() / rounds.len() as f64
    };
    let mean_period = if global_times.len() >= 2 {
        (global_times.last().unwrap() - global_times[0]) / (global_times.len() - 1) as f64
    } else {
        mean_sigma
    };

    // Final accuracy: the top leader's last formed global lives in its
    // params only implicitly; evaluate the mean of all devices' current
    // params' ancestor — simplest faithful readout: evaluate the last
    // device-held merged model of the top leader.
    let top_leader = h.level(0).clusters[0].leader();
    let final_accuracy = exp.evaluate(&sim.actors()[top_leader].params);
    let corrections_applied = sim.actors().iter().map(|a| a.corrections_applied).sum();

    // Metrics: network totals, timing decomposition, anomaly count.
    let registry = telem.registry();
    registry
        .counter("sim_messages_total", &[])
        .inc(stats.messages);
    registry.counter("sim_bytes_total", &[]).inc(stats.bytes);
    registry.counter("sim_events_total", &[]).inc(stats.events);
    registry
        .counter("sim_dropped_total", &[])
        .inc(stats.dropped);
    registry
        .counter("trace_anomalies_total", &[])
        .inc(trace.anomalies());
    let sigma_w_h = registry.histogram("pipeline_sigma_w_seconds", &[]);
    let sigma_h = registry.histogram("pipeline_sigma_seconds", &[]);
    let nu_h = registry.histogram("pipeline_nu", &[]);
    for rt in &rounds {
        sigma_w_h.observe(rt.sigma_w);
        sigma_h.observe(rt.sigma);
        nu_h.observe(rt.nu);
    }
    registry.gauge("hfl_accuracy", &[]).set(final_accuracy);

    let mut manifest = RunManifest::new(
        "pipeline",
        cfg.seed,
        fnv1a_hex(format!("{cfg:?}|{pcfg:?}").as_bytes()),
    );
    manifest.totals = RunTotals {
        messages: stats.messages,
        bytes: stats.bytes,
        excluded: 0,
        absent: 0,
    };
    manifest.final_accuracy = final_accuracy;
    manifest.metrics = registry.snapshot();

    Ok((
        PipelineResult {
            rounds,
            sim_time_secs: sim.now().as_secs_f64(),
            messages: stats.messages,
            bytes: stats.bytes,
            final_accuracy,
            corrections_applied,
            mean_sigma,
            mean_period,
        },
        manifest,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AttackCfg, HflConfig};

    fn run_pipeline(cfg: &HflConfig, pcfg: &PipelineConfig) -> PipelineResult {
        pipeline_run(cfg, pcfg, &Telemetry::disabled()).unwrap().0
    }

    fn quick_cfg(seed: u64) -> HflConfig {
        let mut cfg = HflConfig::quick(AttackCfg::None, seed);
        cfg.rounds = 4; // pipeline rounds come from PipelineConfig
        cfg
    }

    fn quick_pipeline(rounds: usize) -> PipelineConfig {
        PipelineConfig {
            rounds,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn pipeline_completes_and_measures() {
        let res = run_pipeline(&quick_cfg(1), &quick_pipeline(3));
        assert!(!res.rounds.is_empty(), "no rounds measured");
        assert!(res.messages > 0);
        for rt in &res.rounds {
            assert!(rt.sigma >= rt.sigma_w, "σ < σw in round {}", rt.round);
            assert!((0.0..=1.0).contains(&rt.nu), "ν out of range: {}", rt.nu);
        }
    }

    #[test]
    fn pipeline_saves_time_vs_sequential() {
        // Sequential workflow: each round costs (training + σ) because
        // devices idle until the global model returns. The pipeline must
        // beat that per-round period.
        let pcfg = quick_pipeline(5);
        let res = run_pipeline(&quick_cfg(2), &pcfg);
        let train_secs = pcfg.train_delay.mean_micros() / 1e6;
        let sequential = train_secs + res.mean_sigma;
        assert!(
            res.mean_period < sequential,
            "period {} vs sequential {}",
            res.mean_period,
            sequential
        );
        // And ν is meaningfully positive: aggregation is being hidden.
        let mean_nu: f64 = res.rounds.iter().map(|r| r.nu).sum::<f64>() / res.rounds.len() as f64;
        assert!(mean_nu > 0.05, "no pipelining benefit: ν = {mean_nu}");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = run_pipeline(&quick_cfg(3), &quick_pipeline(3));
        let b = run_pipeline(&quick_cfg(3), &quick_pipeline(3));
        assert_eq!(a.messages, b.messages);
        assert_eq!(a.sim_time_secs, b.sim_time_secs);
    }

    #[test]
    fn training_actually_learns_in_the_pipeline() {
        let mut cfg = quick_cfg(4);
        cfg.rounds = 12;
        let res = run_pipeline(&cfg, &quick_pipeline(12));
        assert!(
            res.final_accuracy > 0.5,
            "pipeline model failed to learn: {}",
            res.final_accuracy
        );
    }

    #[test]
    fn lossy_network_progresses_with_timeout() {
        // 10 % loss: leaders would deadlock waiting for full quorums; the
        // collection timeout (Algorithm 4) keeps rounds completing.
        let cfg = quick_cfg(8);
        let pcfg = PipelineConfig {
            rounds: 4,
            loss_prob: 0.10,
            collect_timeout: Some(SimTime::from_millis(120)),
            ..PipelineConfig::default()
        };
        let res = run_pipeline(&cfg, &pcfg);
        assert!(!res.rounds.is_empty(), "no rounds completed under loss");
        // Drops happened (64 clients × several rounds × 10 %).
        // (messages is deliveries; we can't see drops here, but progress
        // with loss is itself the property.)
        assert!(res.messages > 0);
    }

    #[test]
    fn timeout_shortens_straggler_rounds() {
        // Heavy straggler tail: without a timeout the leader waits for
        // the slowest trainer; with one it proceeds at the timeout.
        let mut cfg = quick_cfg(10);
        cfg.quorum = 1.0;
        let straggler_train = DelayModel::Straggler {
            base: Box::new(DelayModel::Constant { micros: 20_000 }),
            p: 0.1,
            factor: 20.0, // 400 ms stragglers
        };
        let base = PipelineConfig {
            rounds: 3,
            train_delay: straggler_train,
            ..PipelineConfig::default()
        };
        let slow = run_pipeline(&cfg, &base);
        let fast = run_pipeline(
            &cfg,
            &PipelineConfig {
                collect_timeout: Some(SimTime::from_millis(30)),
                ..base
            },
        );
        assert!(
            fast.mean_period < slow.mean_period,
            "timeout did not help: {} vs {}",
            fast.mean_period,
            slow.mean_period
        );
    }

    #[test]
    fn timeout_closed_cba_level_takes_the_cba_duration() {
        // A crashed top member keeps the (CBA) top collection below its
        // full quorum for ever, so every round's top aggregation is
        // started by the collection timeout — and must take exactly
        // `cba_delay_factor × agg_delay`, as a quorum-closed one does.
        use hfl_faults::FaultPlan;
        use hfl_telemetry::Event;
        let mut cfg = quick_cfg(12);
        cfg.faults = Some(FaultPlan::new().crash_stop(0, 16));
        let timeout = SimTime::from_millis(120);
        let pcfg = PipelineConfig {
            rounds: 2,
            agg_delay: DelayModel::Constant { micros: 2_000 },
            cba_delay_factor: 4.0,
            collect_timeout: Some(timeout),
            ..PipelineConfig::default()
        };
        let (telem, rec) = Telemetry::recording();
        pipeline_run(&cfg, &pcfg, &telem).unwrap();
        let top_time = |want: &str| {
            rec.events().into_iter().find_map(|e| match e {
                Event::Sim {
                    time_us,
                    round: 0,
                    level: 0,
                    kind,
                    ..
                } if kind == want => Some(time_us),
                _ => None,
            })
        };
        assert_eq!(top_time("QuorumReached"), None, "the timeout must fire");
        let expiry = top_time("FirstModelReceived").unwrap() + timeout.as_micros();
        assert_eq!(top_time("AggregateFormed").unwrap() - expiry, 4 * 2_000);
    }

    #[test]
    fn slow_leaf_uplinks_inflate_collection_time() {
        // Appendix E: leaf bandwidth dominates τ_L (the bottom leaders'
        // collection phase), stretching σ.
        let cfg = quick_cfg(11);
        let base = quick_pipeline(3);
        let fast = run_pipeline(&cfg, &base);
        let slow = run_pipeline(
            &cfg,
            &PipelineConfig {
                leaf_uplink: Some(DelayModel::Constant { micros: 50_000 }),
                ..base
            },
        );
        let mean_sigma = |r: &PipelineResult| {
            r.rounds.iter().map(|t| t.sigma).sum::<f64>() / r.rounds.len() as f64
        };
        assert!(
            mean_sigma(&slow) > mean_sigma(&fast),
            "slow leaf uplinks must stretch σ: {} vs {}",
            mean_sigma(&slow),
            mean_sigma(&fast)
        );
    }

    #[test]
    fn pipeline_manifest_and_sim_events() {
        use hfl_telemetry::{Event, Telemetry};
        let cfg = quick_cfg(20);
        let (telem, rec) = Telemetry::recording();
        let (res, manifest) = pipeline_run(&cfg, &quick_pipeline(2), &telem).unwrap();
        assert_eq!(manifest.label, "pipeline");
        assert_eq!(manifest.totals.messages, res.messages);
        assert_eq!(manifest.final_accuracy, res.final_accuracy);
        // The simulator's trace stream was bridged into telemetry.
        let sim_events = rec
            .events()
            .into_iter()
            .filter(|e| matches!(e, Event::Sim { .. }))
            .count();
        assert!(sim_events > 0, "no Sim events bridged");
        // Metrics snapshot includes the network counters.
        assert_eq!(
            telem.registry().counter("sim_messages_total", &[]).get(),
            res.messages
        );
        assert!(manifest
            .metrics
            .iter()
            .any(|m| m.name == "pipeline_sigma_seconds"));
    }

    #[test]
    fn pipeline_manifest_is_deterministic() {
        use hfl_telemetry::Telemetry;
        let cfg = quick_cfg(21);
        let (_, a) = pipeline_run(&cfg, &quick_pipeline(2), &Telemetry::disabled()).unwrap();
        let (_, b) = pipeline_run(&cfg, &quick_pipeline(2), &Telemetry::disabled()).unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn crash_faults_drop_messages_but_rounds_complete() {
        use hfl_faults::FaultPlan;
        let mut cfg = quick_cfg(30);
        cfg.faults = Some(FaultPlan::new().crash_stop(1, 5));
        let pcfg = PipelineConfig {
            rounds: 3,
            collect_timeout: Some(SimTime::from_millis(120)),
            ..PipelineConfig::default()
        };
        let faulted = run_pipeline(&cfg, &pcfg);
        assert!(!faulted.rounds.is_empty(), "no rounds under crash faults");
        let mut clean_cfg = cfg.clone();
        clean_cfg.faults = None;
        let clean = run_pipeline(&clean_cfg, &pcfg);
        assert!(
            faulted.messages < clean.messages,
            "crashing a device must shed deliveries: {} vs {}",
            faulted.messages,
            clean.messages
        );
    }

    #[test]
    fn flag_closer_to_bottom_reduces_waiting() {
        // ℓF = bottom (2) → flag is the bottom cluster's own partial:
        // minimal σw. ℓF = 1 → wait for one more level.
        let mut low = quick_cfg(5);
        low.flag_level = 2;
        let mut high = quick_cfg(5);
        high.flag_level = 1;
        let r_low = run_pipeline(&low, &quick_pipeline(4));
        let r_high = run_pipeline(&high, &quick_pipeline(4));
        let w_low: f64 =
            r_low.rounds.iter().map(|r| r.sigma_w).sum::<f64>() / r_low.rounds.len() as f64;
        let w_high: f64 =
            r_high.rounds.iter().map(|r| r.sigma_w).sum::<f64>() / r_high.rounds.len() as f64;
        assert!(
            w_low < w_high,
            "flag at bottom should wait less: {w_low} vs {w_high}"
        );
    }
}
