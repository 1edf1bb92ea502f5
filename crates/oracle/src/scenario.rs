//! Scenario descriptions and the seeded generator.
//!
//! A [`ScenarioSpec`] is deliberately *flat*: every field is a scalar,
//! a small enum, or a list of flat fault events, so specs serialize to
//! a dozen TOML lines ([`crate::toml`]), shrink by simple field edits
//! ([`crate::shrink`]), and diff readably in a corpus directory.

use abd_hfl_core::config::{
    AsyncRoundCfg, AttackCfg, DataDistribution, HeterogeneityCfg, HflConfig, LevelAgg, SamplingCfg,
    TopologyCfg,
};
use hfl_attacks::{AdaptiveAttack, DataAttack, ModelAttack, Placement};
use hfl_faults::FaultPlan;
use hfl_ml::synth::SynthConfig;
use hfl_robust::{AggregatorKind, SuspicionConfig};
use hfl_simnet::DelayModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lower bound (µs) of the uniform link delay every async scenario
/// lowers to. Shared with the liveness oracle, which must know the
/// worst synthesized arrival.
pub const ASYNC_LINK_LO: u64 = 500;
/// Upper bound (µs) of the uniform link delay of async scenarios.
pub const ASYNC_LINK_HI: u64 = 5_000;

/// Aggregation rule used at every BRA level of the scenario.
#[derive(Clone, Debug, PartialEq)]
pub enum AggSpec {
    /// Plain averaging (no robustness).
    FedAvg,
    /// Krum with assumed `f`.
    Krum {
        /// Assumed Byzantine count.
        f: usize,
    },
    /// Multi-Krum selecting `m` of the inputs.
    MultiKrum {
        /// Assumed Byzantine count.
        f: usize,
        /// Selection size.
        m: usize,
    },
    /// Coordinate-wise median.
    Median,
    /// Coordinate-wise trimmed mean.
    TrimmedMean {
        /// Per-tail trim ratio.
        ratio: f64,
    },
    /// Geometric median (Weiszfeld).
    GeoMed,
    /// Centered clipping with radius `tau` and `iters` refinements.
    CenteredClip {
        /// Clipping radius.
        tau: f64,
        /// Fixed-point iterations.
        iters: usize,
    },
}

impl AggSpec {
    /// The rule's one name: its corpus `agg` value and its `agg:` coverage
    /// family.
    pub fn name(&self) -> &'static str {
        match self {
            AggSpec::FedAvg => "fedavg",
            AggSpec::Krum { .. } => "krum",
            AggSpec::MultiKrum { .. } => "multikrum",
            AggSpec::Median => "median",
            AggSpec::TrimmedMean { .. } => "trimmed_mean",
            AggSpec::GeoMed => "geomed",
            AggSpec::CenteredClip { .. } => "centered_clip",
        }
    }

    /// The concrete aggregator.
    pub fn kind(&self) -> AggregatorKind {
        match self {
            AggSpec::FedAvg => AggregatorKind::FedAvg,
            AggSpec::Krum { f } => AggregatorKind::Krum { f: *f },
            AggSpec::MultiKrum { f, m } => AggregatorKind::MultiKrum { f: *f, m: *m },
            AggSpec::Median => AggregatorKind::Median,
            AggSpec::TrimmedMean { ratio } => AggregatorKind::TrimmedMean { ratio: *ratio },
            AggSpec::GeoMed => AggregatorKind::GeoMed,
            AggSpec::CenteredClip { tau, iters } => AggregatorKind::CenteredClip {
                tau: *tau,
                iters: *iters,
            },
        }
    }

    /// How many Byzantine members per cluster the rule tolerates (the
    /// eligibility bound of the Byzantine-degradation oracle) given the
    /// cluster size `n`.
    pub fn tolerance(&self, n: usize) -> usize {
        match self {
            AggSpec::FedAvg => 0,
            AggSpec::Krum { f } | AggSpec::MultiKrum { f, .. } => {
                // The Krum guarantee needs n ≥ 2f + 3.
                (*f).min(n.saturating_sub(3) / 2)
            }
            AggSpec::Median | AggSpec::GeoMed => (n.saturating_sub(1)) / 2,
            AggSpec::TrimmedMean { ratio } => ((n as f64) * ratio).floor() as usize,
            // Centered clipping is robust to a sub-half minority; stay a
            // notch under the breakdown point for eligibility.
            AggSpec::CenteredClip { .. } => n.saturating_sub(1) / 3,
        }
    }
}

/// Optional pre-aggregation transform composed in front of the base
/// rule (single-layer, mirroring the config's composition contract).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PreAggSpec {
    /// No transform — the base rule sees the raw inputs.
    None,
    /// Average consecutive buckets of `s` inputs.
    Bucketing {
        /// Bucket size.
        s: usize,
    },
    /// Replace each input by the mean of its `k` nearest neighbours.
    Nnm {
        /// Neighbourhood size (self included).
        k: usize,
    },
}

impl PreAggSpec {
    /// The transform's one name: its corpus `pre_agg` value and its
    /// `pre_agg:` coverage family.
    pub fn name(&self) -> &'static str {
        match self {
            PreAggSpec::None => "none",
            PreAggSpec::Bucketing { .. } => "bucketing",
            PreAggSpec::Nnm { .. } => "nnm",
        }
    }

    /// Wraps `base` in the concrete composed aggregator kind.
    pub fn wrap(&self, base: AggregatorKind) -> AggregatorKind {
        match self {
            PreAggSpec::None => base,
            PreAggSpec::Bucketing { s } => AggregatorKind::Bucketing {
                s: *s,
                inner: Box::new(base),
            },
            PreAggSpec::Nnm { k } => AggregatorKind::Nnm {
                k: *k,
                inner: Box::new(base),
            },
        }
    }

    /// Byzantine tolerance of the composed rule on a cluster of `n`:
    /// bucketing hands the base rule `⌈n/s⌉` bucket means (each
    /// malicious input can corrupt at most its own bucket), NNM keeps
    /// the cohort size.
    pub fn composed_tolerance(&self, base: &AggSpec, n: usize) -> usize {
        match self {
            PreAggSpec::None | PreAggSpec::Nnm { .. } => base.tolerance(n),
            PreAggSpec::Bucketing { s } => base.tolerance(n.div_ceil(*s)),
        }
    }
}

/// The Byzantine client behaviour of the scenario.
#[derive(Clone, Debug, PartialEq)]
pub enum AttackSpec {
    /// Everybody honest.
    None,
    /// Static sign flip at `scale`.
    SignFlip {
        /// Magnitude multiplier.
        scale: f64,
    },
    /// Static *A Little Is Enough* at `z` standard deviations.
    Alie {
        /// Standard-deviation shift.
        z: f64,
    },
    /// Static inner-product manipulation at `epsilon`.
    Ipm {
        /// Negative-scaling factor.
        epsilon: f64,
    },
    /// Data poisoning: all labels flipped to class 9.
    LabelFlip,
    /// Static mimic: copy the `victim`-th honest update verbatim.
    Mimic {
        /// Honest index copied (modulo the honest count).
        victim: usize,
    },
    /// Static scaled reflection of the honest mean by `factor`.
    Scaling {
        /// Scale factor (negative reflects).
        factor: f64,
    },
    /// AGR-tailored min-max perturbation (deterministic bisection).
    MinMax,
    /// AGR-tailored min-sum perturbation (deterministic bisection).
    MinSum,
    /// The adaptive ALIE adversary (bisecting magnitude).
    AdaptiveAlie,
    /// The adaptive IPM adversary.
    AdaptiveIpm,
    /// The adaptive scaling adversary (bisecting reflection factor).
    AdaptiveScaling,
}

impl AttackSpec {
    /// The attack's one name: its corpus `attack` value and its `attack:`
    /// coverage family.
    pub fn name(&self) -> &'static str {
        match self {
            AttackSpec::None => "none",
            AttackSpec::SignFlip { .. } => "signflip",
            AttackSpec::Alie { .. } => "alie",
            AttackSpec::Ipm { .. } => "ipm",
            AttackSpec::LabelFlip => "labelflip",
            AttackSpec::Mimic { .. } => "mimic",
            AttackSpec::Scaling { .. } => "scaling",
            AttackSpec::MinMax => "minmax",
            AttackSpec::MinSum => "minsum",
            AttackSpec::AdaptiveAlie => "adaptive_alie",
            AttackSpec::AdaptiveIpm => "adaptive_ipm",
            AttackSpec::AdaptiveScaling => "adaptive_scaling",
        }
    }

    /// True for the static (non-adaptive) attack families — the only
    /// ones the Byzantine-degradation oracle covers.
    pub fn is_static(&self) -> bool {
        matches!(
            self,
            AttackSpec::SignFlip { .. }
                | AttackSpec::Alie { .. }
                | AttackSpec::Ipm { .. }
                | AttackSpec::LabelFlip
                | AttackSpec::Mimic { .. }
                | AttackSpec::Scaling { .. }
                | AttackSpec::MinMax
                | AttackSpec::MinSum
        )
    }

    fn to_cfg(&self, proportion: f64, placement: Placement) -> AttackCfg {
        match self {
            AttackSpec::None => AttackCfg::None,
            AttackSpec::SignFlip { scale } => AttackCfg::Model {
                attack: ModelAttack::SignFlip {
                    scale: *scale as f32,
                },
                proportion,
                placement,
            },
            AttackSpec::Alie { z } => AttackCfg::Model {
                attack: ModelAttack::Alie { z: *z as f32 },
                proportion,
                placement,
            },
            AttackSpec::Ipm { epsilon } => AttackCfg::Model {
                attack: ModelAttack::Ipm {
                    epsilon: *epsilon as f32,
                },
                proportion,
                placement,
            },
            AttackSpec::LabelFlip => AttackCfg::Data {
                attack: DataAttack::LabelFlipAll { target: 9 },
                proportion,
                placement,
            },
            AttackSpec::Mimic { victim } => AttackCfg::Model {
                attack: ModelAttack::Mimic { victim: *victim },
                proportion,
                placement,
            },
            AttackSpec::Scaling { factor } => AttackCfg::Model {
                attack: ModelAttack::Scaling {
                    factor: *factor as f32,
                },
                proportion,
                placement,
            },
            AttackSpec::MinMax => AttackCfg::Model {
                attack: ModelAttack::MinMax,
                proportion,
                placement,
            },
            AttackSpec::MinSum => AttackCfg::Model {
                attack: ModelAttack::MinSum,
                proportion,
                placement,
            },
            AttackSpec::AdaptiveAlie => AttackCfg::Adaptive {
                attack: AdaptiveAttack::alie_default(),
                proportion,
                placement,
            },
            AttackSpec::AdaptiveIpm => AttackCfg::Adaptive {
                attack: AdaptiveAttack::ipm_default(),
                proportion,
                placement,
            },
            AttackSpec::AdaptiveScaling => AttackCfg::Adaptive {
                attack: AdaptiveAttack::scaling_default(),
                proportion,
                placement,
            },
        }
    }
}

/// Protocol-level misbehaviour (leader equivocation, withholding).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// No protocol attack.
    None,
    /// Leaders of malicious clusters equivocate.
    Equivocate,
    /// The coalition withholds pivotally.
    Withhold,
    /// Malicious members stall uploads until just inside the staleness
    /// bound τ (requires a deadline-driven scenario with τ > 0).
    StalenessExploit,
}

impl ProtocolSpec {
    /// Every protocol attack, for parsing by name.
    pub const ALL: [ProtocolSpec; 4] = [
        ProtocolSpec::None,
        ProtocolSpec::Equivocate,
        ProtocolSpec::Withhold,
        ProtocolSpec::StalenessExploit,
    ];

    /// The attack's one name: its corpus `protocol` value.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolSpec::None => "none",
            ProtocolSpec::Equivocate => "equivocate",
            ProtocolSpec::Withhold => "withhold",
            ProtocolSpec::StalenessExploit => "staleness_exploit",
        }
    }
}

/// One scheduled fault, flattened for TOML round-tripping.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEvent {
    /// `node` crashes at `at` and never recovers.
    CrashStop {
        /// Activation round.
        at: usize,
        /// Crashing device.
        node: usize,
    },
    /// `node` crashes at `at` and recovers at `recover`.
    CrashRecover {
        /// Activation round.
        at: usize,
        /// Crashing device.
        node: usize,
        /// Recovery round.
        recover: usize,
    },
    /// The bottom-level leader of `cluster` is killed at `at`.
    KillLeader {
        /// Activation round.
        at: usize,
        /// Bottom-level cluster index.
        cluster: usize,
    },
    /// `node`'s uplink slows by `factor` from `at` onward.
    Straggler {
        /// Activation round.
        at: usize,
        /// Straggling device.
        node: usize,
        /// Delay multiplier.
        factor: f64,
    },
    /// Uniform message loss `prob` during `[at, until)`.
    LossBurst {
        /// Activation round.
        at: usize,
        /// Per-message loss probability.
        prob: f64,
        /// Healing round.
        until: usize,
    },
}

impl FaultEvent {
    /// The fault's one name: its corpus `kind` value.
    pub fn name(&self) -> &'static str {
        match self {
            FaultEvent::CrashStop { .. } => "crash_stop",
            FaultEvent::CrashRecover { .. } => "crash_recover",
            FaultEvent::KillLeader { .. } => "kill_leader",
            FaultEvent::Straggler { .. } => "straggler",
            FaultEvent::LossBurst { .. } => "loss_burst",
        }
    }
}

/// A complete, flat description of one fuzzed run.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// The run seed (data, shuffles, SGD, placements).
    pub seed: u64,
    /// Hierarchy depth (2 or 3 levels).
    pub total_levels: usize,
    /// Cluster size below the top.
    pub m: usize,
    /// Top-cluster size.
    pub n_top: usize,
    /// Training rounds.
    pub rounds: usize,
    /// Local SGD iterations per round.
    pub local_iters: usize,
    /// Quorum fraction φ.
    pub phi: f64,
    /// Aggregation rule at every level.
    pub agg: AggSpec,
    /// Pre-aggregation transform composed in front of `agg`.
    pub pre_agg: PreAggSpec,
    /// Byzantine client behaviour.
    pub attack: AttackSpec,
    /// Malicious fraction (ignored for `AttackSpec::None`).
    pub proportion: f64,
    /// Malicious placement: `true` = seeded random, `false` = prefix.
    pub random_placement: bool,
    /// Per-round client churn probability.
    pub churn: f64,
    /// Suspicion/quarantine defense layer on?
    pub suspicion: bool,
    /// Protocol-level attack.
    pub protocol: ProtocolSpec,
    /// Deadline (µs) of the deadline-driven collection buffers; `None`
    /// keeps the synchronous barriers.
    pub deadline_us: Option<u64>,
    /// Staleness bound τ (µs past buffer close); 0 when synchronous.
    pub staleness_bound_us: u64,
    /// Extreme non-IID partition (2 labels per client)?
    pub noniid: bool,
    /// Dirichlet non-IID concentration; `None` keeps IID (or the
    /// 2-label extreme when `noniid` is set — never both).
    pub dirichlet_alpha: Option<f64>,
    /// Mixed-device compute/bandwidth heterogeneity profiles on?
    pub heterogeneity: bool,
    /// Cross-device population the run samples its cohort from each
    /// round; 0 keeps sampling off (the cohort *is* the population).
    pub sampling_population: usize,
    /// Stratified (index-range) sampling instead of uniform?
    pub sampling_stratified: bool,
    /// Synthetic training-set size.
    pub train_samples: usize,
    /// Scheduled faults.
    pub faults: Vec<FaultEvent>,
}

impl ScenarioSpec {
    /// Byzantine tolerance of the composed (pre-agg + base) rule on a
    /// bottom cluster — the Byzantine-degradation eligibility bound.
    pub fn tolerance(&self) -> usize {
        self.pre_agg.composed_tolerance(&self.agg, self.m)
    }

    /// Worst per-client arrival-delay multiplier the heterogeneity
    /// profiles can draw (compute × bandwidth spread) — the liveness
    /// oracle's stretch allowance; 1 when profiles are off.
    pub fn heterogeneity_stretch(&self) -> f64 {
        if self.heterogeneity {
            let het = HeterogeneityCfg::mixed_devices();
            het.compute_spread * het.bandwidth_spread
        } else {
            1.0
        }
    }

    /// Number of clients the spec's topology yields (`usize::MAX` when
    /// that overflows, a topology `try_prepare` refuses).
    pub fn num_clients(&self) -> usize {
        let bottom = match self.total_levels {
            2 => self.m,
            _ => self.m.saturating_mul(self.m),
        };
        bottom.saturating_mul(self.n_top)
    }

    /// Number of bottom-level clusters.
    pub fn num_bottom_clusters(&self) -> usize {
        self.num_clients() / self.m
    }

    /// Lowers the spec to a runnable config.
    pub fn to_config(&self) -> HflConfig {
        let placement = if self.random_placement {
            Placement::Random
        } else {
            Placement::Prefix
        };
        let attack = self.attack.to_cfg(self.proportion, placement);
        let mut cfg = HflConfig::quick(attack, self.seed);
        cfg.topology = TopologyCfg::Ecsm {
            total_levels: self.total_levels,
            m: self.m,
            n_top: self.n_top,
        };
        // A topology `try_prepare` refuses gets no per-level list, so a
        // hand-edited depth allocates nothing before it is refused.
        let depth = match cfg.topology.try_validate() {
            Ok(()) => self.total_levels,
            Err(_) => 0,
        };
        cfg.levels = vec![LevelAgg::Bra(self.pre_agg.wrap(self.agg.kind())); depth];
        cfg.flag_level = 1;
        cfg.rounds = self.rounds;
        cfg.eval_every = self.rounds;
        cfg.local_iters = self.local_iters;
        cfg.quorum = self.phi;
        cfg.churn_leave_prob = self.churn;
        cfg.distribution = if self.noniid {
            DataDistribution::NonIid {
                labels_per_client: 2,
            }
        } else if let Some(alpha) = self.dirichlet_alpha {
            DataDistribution::Dirichlet { alpha }
        } else {
            DataDistribution::Iid
        };
        if self.heterogeneity {
            cfg.heterogeneity = Some(HeterogeneityCfg::mixed_devices());
        }
        if self.sampling_population > 0 {
            cfg.sampling = Some(if self.sampling_stratified {
                SamplingCfg::stratified(self.sampling_population, self.num_clients())
            } else {
                SamplingCfg::uniform(self.sampling_population, self.num_clients())
            });
        }
        cfg.data = SynthConfig {
            train_samples: self.train_samples,
            test_samples: (self.train_samples / 4).max(200),
            ..SynthConfig::default()
        };
        cfg.suspicion = self.suspicion.then(SuspicionConfig::default);
        cfg.protocol_attack = match self.protocol {
            ProtocolSpec::None => None,
            ProtocolSpec::Equivocate => {
                Some(hfl_attacks::ProtocolAttack::Equivocate { flip_scale: 1.0 })
            }
            ProtocolSpec::Withhold => Some(hfl_attacks::ProtocolAttack::Withhold),
            ProtocolSpec::StalenessExploit => Some(hfl_attacks::ProtocolAttack::StalenessExploit),
        };
        if let Some(deadline_us) = self.deadline_us {
            cfg.async_rounds = Some(AsyncRoundCfg {
                deadline_us,
                staleness_bound_us: self.staleness_bound_us,
                link_delay: DelayModel::Uniform {
                    lo: ASYNC_LINK_LO,
                    hi: ASYNC_LINK_HI,
                },
                tier_deadlines: Vec::new(),
            });
        }
        if !self.faults.is_empty() {
            let mut plan = FaultPlan::new();
            for ev in &self.faults {
                plan = match *ev {
                    FaultEvent::CrashStop { at, node } => plan.crash_stop(at, node),
                    FaultEvent::CrashRecover { at, node, recover } => {
                        plan.crash_recover(at, node, recover)
                    }
                    FaultEvent::KillLeader { at, cluster } => {
                        plan.kill_leader(at, self.total_levels.saturating_sub(1), cluster, None)
                    }
                    FaultEvent::Straggler { at, node, factor } => {
                        plan.straggler(at, node, factor, None)
                    }
                    FaultEvent::LossBurst { at, prob, until } => plan.loss_burst(at, prob, until),
                };
            }
            cfg.faults = Some(plan);
        }
        cfg
    }
}

/// The seeded scenario stream: same seed, same sequence of specs.
pub struct ScenarioGen {
    rng: StdRng,
}

impl ScenarioGen {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws the next scenario. Every draw is valid by construction:
    /// fault targets are bounded by the drawn topology, rounds bound
    /// fault schedules, and non-IID partitions only appear on
    /// topologies with enough clients for honest label coverage.
    pub fn draw(&mut self) -> ScenarioSpec {
        let rng = &mut self.rng;
        let total_levels = if rng.gen_bool(0.5) { 2 } else { 3 };
        let m: usize = rng.gen_range(3..=4);
        let n_top = rng.gen_range(2..=3);
        let rounds = rng.gen_range(2..=5);
        let phi = *[1.0, 1.0, 0.75, 0.5, 2.0 / 3.0]
            .get(rng.gen_range(0..5usize))
            .unwrap();
        let agg = match rng.gen_range(0..7usize) {
            0 => AggSpec::FedAvg,
            1 => AggSpec::Krum { f: 1 },
            2 => AggSpec::MultiKrum {
                f: 1,
                m: (m - 1).max(2),
            },
            3 => AggSpec::Median,
            4 => AggSpec::TrimmedMean { ratio: 0.2 },
            5 => AggSpec::GeoMed,
            _ => AggSpec::CenteredClip { tau: 2.0, iters: 3 },
        };
        // Roughly a third of draws compose a pre-aggregation transform
        // in front of the base rule.
        let pre_agg = match rng.gen_range(0..6usize) {
            0 => PreAggSpec::Bucketing { s: 2 },
            1 => PreAggSpec::Nnm { k: m - 1 },
            _ => PreAggSpec::None,
        };
        let attack = match rng.gen_range(0..13usize) {
            0 | 1 => AttackSpec::None,
            2 => AttackSpec::SignFlip {
                scale: [1.0, 2.0, 10.0][rng.gen_range(0..3usize)],
            },
            3 => AttackSpec::Alie {
                z: [0.5, 1.5][rng.gen_range(0..2usize)],
            },
            4 => AttackSpec::Ipm {
                epsilon: [0.1, 1.0][rng.gen_range(0..2usize)],
            },
            5 => AttackSpec::LabelFlip,
            6 => AttackSpec::Mimic {
                victim: rng.gen_range(0..m),
            },
            7 => AttackSpec::Scaling {
                factor: [-1.5, -10.0][rng.gen_range(0..2usize)],
            },
            8 => AttackSpec::MinMax,
            9 => AttackSpec::MinSum,
            10 => AttackSpec::AdaptiveAlie,
            11 => AttackSpec::AdaptiveIpm,
            _ => AttackSpec::AdaptiveScaling,
        };
        let proportion = if matches!(attack, AttackSpec::None) {
            0.0
        } else {
            // ≤ 1 malicious member per bottom cluster under prefix
            // placement keeps most draws inside aggregator tolerance.
            [0.125, 0.25][rng.gen_range(0..2usize)]
        };
        let suspicion = rng.gen_bool(0.4);
        // About a third of the stream runs deadline-driven: the
        // liveness and staleness-safety oracles need real buffer
        // traffic, while the remaining sync draws pin the "no buffer
        // events without a deadline" half of staleness safety.
        let deadline_us = rng
            .gen_bool(1.0 / 3.0)
            .then(|| [2_000u64, 4_000, 8_000][rng.gen_range(0..3usize)]);
        let staleness_bound_us = match deadline_us {
            Some(_) => [500u64, 1_000, 2_000][rng.gen_range(0..3usize)],
            None => 0,
        };
        let protocol = if attack.is_static() && rng.gen_bool(0.2) {
            // The staleness exploit is only defined relative to an
            // async buffer close (τ > 0 holds for every async draw).
            let choices: &[ProtocolSpec] = if deadline_us.is_some() {
                &[
                    ProtocolSpec::Equivocate,
                    ProtocolSpec::Withhold,
                    ProtocolSpec::StalenessExploit,
                ]
            } else {
                &[ProtocolSpec::Equivocate, ProtocolSpec::Withhold]
            };
            choices[rng.gen_range(0..choices.len())]
        } else {
            ProtocolSpec::None
        };
        let churn = if rng.gen_bool(0.25) { 0.15 } else { 0.0 };
        let noniid = total_levels == 3 && rng.gen_bool(0.3);
        // Dirichlet heterogeneity rides on draws the 2-label extreme
        // left IID; α stays ≥ 0.5 so the honest-coverage re-draw budget
        // holds on the smallest fuzz tasks.
        let dirichlet_alpha =
            (!noniid && rng.gen_bool(0.25)).then(|| [0.5, 1.0, 10.0][rng.gen_range(0..3usize)]);
        let heterogeneity = rng.gen_bool(0.25);
        let mut spec = ScenarioSpec {
            seed: rng.gen_range(0..1_000_000),
            total_levels,
            m,
            n_top,
            rounds,
            local_iters: rng.gen_range(1..=2),
            phi,
            agg,
            pre_agg,
            attack,
            proportion,
            random_placement: rng.gen_bool(0.3),
            churn,
            suspicion,
            protocol,
            deadline_us,
            staleness_bound_us,
            noniid,
            dirichlet_alpha,
            heterogeneity,
            sampling_population: 0,
            sampling_stratified: false,
            train_samples: [600, 1_000, 1_600][rng.gen_range(0..3usize)],
            faults: Vec::new(),
        };
        let n_faults = rng.gen_range(0..=2usize);
        let clients = spec.num_clients();
        let clusters = spec.num_bottom_clusters();
        for _ in 0..n_faults {
            let at = rng.gen_range(0..spec.rounds);
            let ev = match rng.gen_range(0..5usize) {
                0 => FaultEvent::CrashStop {
                    at,
                    node: rng.gen_range(0..clients),
                },
                1 => FaultEvent::CrashRecover {
                    at,
                    node: rng.gen_range(0..clients),
                    recover: (at + 1).min(spec.rounds),
                },
                2 => FaultEvent::KillLeader {
                    at,
                    cluster: rng.gen_range(0..clusters),
                },
                3 => FaultEvent::Straggler {
                    at,
                    node: rng.gen_range(0..clients),
                    factor: 4.0,
                },
                _ => FaultEvent::LossBurst {
                    at,
                    prob: 0.2,
                    until: (at + 2).min(spec.rounds),
                },
            };
            spec.faults.push(ev);
        }
        // Cross-device sampling rides at the end of the stream so every
        // earlier field keeps its historical draw position. Dirichlet
        // draws skip it: the partition's usability check needs every
        // population member non-empty, which a fuzz-sized task cannot
        // give a population several times its cohort.
        if rng.gen_bool(0.2) && spec.dirichlet_alpha.is_none() {
            spec.sampling_population = spec.num_clients() * [2usize, 4][rng.gen_range(0..2usize)];
            spec.sampling_stratified = rng.gen_bool(0.5);
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_specs_lower_to_valid_configs() {
        let mut gen = ScenarioGen::new(7);
        for i in 0..50 {
            let spec = gen.draw();
            let cfg = spec.to_config();
            let h = cfg.topology.build(cfg.seed);
            cfg.try_validate(&h)
                .unwrap_or_else(|e| panic!("draw {i} invalid: {e} ({spec:?})"));
            assert_eq!(h.num_clients(), spec.num_clients());
            assert_eq!(
                h.level(h.bottom_level()).num_clusters(),
                spec.num_bottom_clusters()
            );
        }
    }

    #[test]
    fn the_stream_mixes_sync_and_async_draws() {
        let mut gen = ScenarioGen::new(9);
        let specs: Vec<_> = (0..60).map(|_| gen.draw()).collect();
        assert!(specs.iter().any(|s| s.deadline_us.is_some()));
        assert!(specs.iter().any(|s| s.deadline_us.is_none()));
        for s in &specs {
            if s.protocol == ProtocolSpec::StalenessExploit {
                assert!(
                    s.deadline_us.is_some() && s.staleness_bound_us > 0,
                    "the staleness exploit needs an async buffer: {s:?}"
                );
            }
            if s.deadline_us.is_none() {
                assert_eq!(s.staleness_bound_us, 0, "sync draws carry no τ: {s:?}");
            }
        }
    }

    #[test]
    fn same_seed_generators_draw_identical_streams() {
        let mut a = ScenarioGen::new(11);
        let mut b = ScenarioGen::new(11);
        for _ in 0..20 {
            assert_eq!(a.draw(), b.draw());
        }
    }

    #[test]
    fn tolerance_respects_the_krum_guarantee() {
        assert_eq!(AggSpec::Krum { f: 1 }.tolerance(5), 1);
        assert_eq!(AggSpec::Krum { f: 1 }.tolerance(4), 0);
        assert_eq!(AggSpec::Median.tolerance(4), 1);
        assert_eq!(AggSpec::FedAvg.tolerance(8), 0);
        assert_eq!(AggSpec::TrimmedMean { ratio: 0.2 }.tolerance(4), 0);
        assert_eq!(AggSpec::CenteredClip { tau: 2.0, iters: 3 }.tolerance(4), 1);
    }

    #[test]
    fn composed_tolerance_follows_the_preagg_contract() {
        let base = AggSpec::Median;
        assert_eq!(PreAggSpec::None.composed_tolerance(&base, 9), 4);
        // NNM keeps the cohort size, bucketing shrinks it to ⌈n/s⌉.
        assert_eq!(PreAggSpec::Nnm { k: 3 }.composed_tolerance(&base, 9), 4);
        assert_eq!(
            PreAggSpec::Bucketing { s: 2 }.composed_tolerance(&base, 9),
            2
        );
        assert_eq!(
            PreAggSpec::Bucketing { s: 2 }.composed_tolerance(&AggSpec::Krum { f: 1 }, 8),
            0,
            "4 buckets cannot carry the Krum n ≥ 2f + 3 guarantee"
        );
    }

    #[test]
    fn sampled_draws_lower_to_sampling_configs() {
        use abd_hfl_core::config::SamplingScheme;
        let mut gen = ScenarioGen::new(17);
        let specs: Vec<_> = (0..150).map(|_| gen.draw()).collect();
        let sampled: Vec<_> = specs.iter().filter(|s| s.sampling_population > 0).collect();
        assert!(!sampled.is_empty(), "the stream must draw sampled runs");
        assert!(specs.iter().any(|s| s.sampling_population == 0));
        assert!(sampled.iter().any(|s| s.sampling_stratified));
        assert!(sampled.iter().any(|s| !s.sampling_stratified));
        for s in &sampled {
            assert!(
                s.dirichlet_alpha.is_none(),
                "sampling never rides a Dirichlet draw: {s:?}"
            );
            let cfg = s.to_config();
            let sampling = cfg.sampling.expect("sampled spec must set cfg.sampling");
            assert_eq!(sampling.population, s.sampling_population);
            assert_eq!(sampling.cohort_size, s.num_clients());
            assert_eq!(
                sampling.scheme == SamplingScheme::Stratified,
                s.sampling_stratified
            );
        }
    }

    #[test]
    fn the_stream_draws_every_gallery_family() {
        let mut gen = ScenarioGen::new(13);
        let specs: Vec<_> = (0..400).map(|_| gen.draw()).collect();
        let attack = |p: fn(&AttackSpec) -> bool| specs.iter().any(|s| p(&s.attack));
        assert!(attack(|a| matches!(a, AttackSpec::Mimic { .. })));
        assert!(attack(|a| matches!(a, AttackSpec::Scaling { .. })));
        assert!(attack(|a| *a == AttackSpec::MinMax));
        assert!(attack(|a| *a == AttackSpec::MinSum));
        assert!(attack(|a| *a == AttackSpec::AdaptiveScaling));
        assert!(specs
            .iter()
            .any(|s| matches!(s.agg, AggSpec::CenteredClip { .. })));
        assert!(specs
            .iter()
            .any(|s| matches!(s.pre_agg, PreAggSpec::Bucketing { .. })));
        assert!(specs
            .iter()
            .any(|s| matches!(s.pre_agg, PreAggSpec::Nnm { .. })));
        assert!(specs.iter().any(|s| s.dirichlet_alpha.is_some()));
        assert!(specs.iter().any(|s| s.heterogeneity));
        for s in &specs {
            assert!(
                !(s.noniid && s.dirichlet_alpha.is_some()),
                "the 2-label extreme and Dirichlet are mutually exclusive: {s:?}"
            );
        }
    }
}
