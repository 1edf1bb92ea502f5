//! Experiment configuration: everything needed to reproduce a run from a
//! single seed.

use rand::rngs::StdRng;
use rand::SeedableRng;

use hfl_attacks::{AdaptiveAttack, DataAttack, ModelAttack, Placement, ProtocolAttack};
use hfl_consensus::ConsensusKind;
use hfl_faults::{FaultPlan, FaultPlanError};
use hfl_ml::sgd::LrSchedule;
use hfl_ml::synth::SynthConfig;
use hfl_ml::{LinearSoftmax, Mlp, Model, SgdConfig};
use hfl_robust::{AggregatorKind, Krum, SuspicionConfig};
use hfl_simnet::{DelayModel, Hierarchy};

use crate::correction::CorrectionPolicy;

/// The most devices a hierarchy's levels may hold between them (a
/// leader counts once per level it sits at). Far above any round that
/// trains (every client trains a model each round), far below what
/// building the levels would exhaust.
const MAX_TOPOLOGY_NODES: usize = 1 << 20;

/// Which hierarchy to build.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologyCfg {
    /// Equal Cluster Size Model: `total_levels` levels, cluster size `m`,
    /// `n_top` top nodes (the paper's evaluation: 3 / 4 / 4 → 64 clients).
    Ecsm {
        /// Total levels `L + 1`.
        total_levels: usize,
        /// Cluster size `m`.
        m: usize,
        /// Top-level node count `N_t`.
        n_top: usize,
    },
    /// Arbitrary Cluster Size Model with random cluster sizes.
    AcsmRandom {
        /// Bottom-level client count.
        n_bottom: usize,
        /// Total levels.
        total_levels: usize,
        /// Minimum cluster size.
        min_size: usize,
        /// Maximum cluster size.
        max_size: usize,
    },
}

impl TopologyCfg {
    /// The paper's evaluation topology.
    pub fn paper() -> Self {
        TopologyCfg::Ecsm {
            total_levels: 3,
            m: 4,
            n_top: 4,
        }
    }

    /// The bottom level's client count: `n_top·m^L` for ECSM, `n_bottom`
    /// for ACSM. `None` when the ECSM count overflows `usize` or there
    /// is no level to count.
    pub(crate) fn clients(&self) -> Option<usize> {
        match *self {
            TopologyCfg::Ecsm {
                total_levels,
                m,
                n_top,
            } => {
                let depth = u32::try_from(total_levels.checked_sub(1)?).ok()?;
                m.checked_pow(depth)?.checked_mul(n_top)
            }
            TopologyCfg::AcsmRandom { n_bottom, .. } => Some(n_bottom),
        }
    }

    /// Refuses a shape [`TopologyCfg::build`] would panic on, or whose
    /// levels hold more than [`MAX_TOPOLOGY_NODES`] devices between them.
    pub(crate) fn try_validate(&self) -> Result<(), ConfigError> {
        let levels = |n: usize| ("total_levels (below top + bottom)", n, n >= 2);
        let (rows, nodes) = match *self {
            TopologyCfg::Ecsm {
                total_levels,
                m,
                n_top,
            } => (
                vec![
                    levels(total_levels),
                    ("m", m, m >= 1),
                    ("n_top", n_top, n_top >= 1),
                ],
                // n_top·(1 + m + … + m^L): at most twice the clients
                // when m ≥ 2, n_top a level when m = 1.
                match m {
                    1 => n_top.checked_mul(total_levels),
                    _ => self.clients().and_then(|n| n.checked_mul(2)),
                },
            ),
            TopologyCfg::AcsmRandom {
                n_bottom,
                total_levels,
                min_size,
                max_size,
            } => (
                vec![
                    levels(total_levels),
                    ("min_size", min_size, min_size >= 1),
                    ("max_size (below min_size)", max_size, max_size >= min_size),
                    ("n_bottom (below min_size)", n_bottom, n_bottom >= min_size),
                ],
                n_bottom.checked_mul(total_levels),
            ),
        };
        let bad = rows
            .into_iter()
            .find(|row| !row.2)
            .map(|(what, n, _)| (what, n as f64));
        let (what, value) = match (bad, nodes) {
            (Some(bad), _) => bad,
            (None, Some(n)) if n <= MAX_TOPOLOGY_NODES => return Ok(()),
            (None, n) => (
                "devices over all levels",
                n.map_or(f64::INFINITY, |n| n as f64),
            ),
        };
        Err(ConfigError::TopologyOutOfRange { what, value })
    }

    /// Builds the hierarchy (ACSM uses `seed`).
    pub fn build(&self, seed: u64) -> Hierarchy {
        match *self {
            TopologyCfg::Ecsm {
                total_levels,
                m,
                n_top,
            } => Hierarchy::ecsm(total_levels, m, n_top),
            TopologyCfg::AcsmRandom {
                n_bottom,
                total_levels,
                min_size,
                max_size,
            } => Hierarchy::acsm_random(n_bottom, total_levels, min_size, max_size, seed),
        }
    }
}

/// Model architecture.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelCfg {
    /// Multinomial logistic regression.
    Linear,
    /// One-hidden-layer MLP ("DNN" in the paper's terms).
    Mlp {
        /// Hidden width.
        hidden: usize,
    },
}

impl ModelCfg {
    /// Instantiates the model for a `dim`-dimensional `classes`-way task.
    pub fn build(&self, dim: usize, classes: usize, seed: u64) -> Box<dyn Model> {
        match *self {
            ModelCfg::Linear => Box::new(LinearSoftmax::new(dim, classes)),
            ModelCfg::Mlp { hidden } => {
                let mut rng = StdRng::seed_from_u64(seed);
                Box::new(Mlp::new(dim, hidden, classes, &mut rng))
            }
        }
    }
}

/// Client data distribution (paper Appendix D).
#[derive(Clone, Debug, PartialEq)]
pub enum DataDistribution {
    /// IID: label-shuffled equal shards.
    Iid,
    /// Extreme non-IID: `labels_per_client` labels each, with the honest
    /// coverage guarantee.
    NonIid {
        /// Distinct labels per client (the paper uses 2).
        labels_per_client: usize,
    },
    /// Dirichlet-α non-IID (Hsu et al.): per label, client shares drawn
    /// from a symmetric `Dirichlet(alpha)` — the benchmark-suite
    /// heterogeneity dial. Small α (0.1) concentrates labels on few
    /// clients; large α approaches IID.
    Dirichlet {
        /// Concentration parameter, finite and positive.
        alpha: f64,
    },
}

/// Per-client compute/bandwidth heterogeneity profiles: every client
/// draws a compute factor in `[1, compute_spread]` and a bandwidth
/// factor in `[1, bandwidth_spread]` from a dedicated seeded stream at
/// preparation time. Under deadline-driven collection
/// ([`HflConfig::async_rounds`]) a member's synthesized arrival delay is
/// stretched by the product of its two factors — slow compute delays
/// upload readiness, thin bandwidth stretches the transfer — composing
/// multiplicatively with fault-plan straggler windows. The synchronous
/// barrier waits for everyone, so profiles change nothing there (and
/// absent profiles change nothing anywhere).
#[derive(Clone, Debug, PartialEq)]
pub struct HeterogeneityCfg {
    /// Largest compute slowdown, ≥ 1 (1 = homogeneous compute).
    pub compute_spread: f64,
    /// Largest bandwidth slowdown, ≥ 1 (1 = homogeneous links).
    pub bandwidth_spread: f64,
}

impl HeterogeneityCfg {
    /// A moderate mixed-device profile: up to 4× slower compute, up to
    /// 2× thinner links.
    pub fn mixed_devices() -> Self {
        Self {
            compute_spread: 4.0,
            bandwidth_spread: 2.0,
        }
    }
}

/// How a round's cohort is drawn from the client population.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplingScheme {
    /// Uniform without replacement over the whole population.
    Uniform,
    /// One uniform pick per contiguous population stratum: slot `i`
    /// draws from `[i·n/m, (i+1)·n/m)`, so every region of the client
    /// id space is represented every round.
    Stratified,
}

/// Per-round client sampling — the cross-device execution model
/// (DESIGN.md §14). The hierarchy's bottom level describes the *cohort*:
/// the `cohort_size` slots that actually train and aggregate in a round.
/// Each round a dedicated seeded stream binds those slots, in ascending
/// client order, to `cohort_size` distinct clients out of a population
/// of `population ≥ cohort_size`. Identity-bound state (malicious
/// flags, data shards, suspicion scores, detection flags, heterogeneity
/// profiles) lives on *global* client ids and survives across rounds;
/// everything topological (clusters, leaders, churn, fault schedules)
/// stays on cohort slots. `None` (the default) binds slot `i` to client
/// `i` every round and keeps runs byte-identical to configs predating
/// this field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SamplingCfg {
    /// Total client population n, ≥ `cohort_size`.
    pub population: usize,
    /// Clients sampled per round m; must equal the hierarchy's
    /// bottom-level client count (the hierarchy describes the cohort).
    pub cohort_size: usize,
    /// The draw scheme.
    pub scheme: SamplingScheme,
}

impl SamplingCfg {
    /// Uniform sampling of `cohort_size` from `population`.
    pub fn uniform(population: usize, cohort_size: usize) -> Self {
        Self {
            population,
            cohort_size,
            scheme: SamplingScheme::Uniform,
        }
    }

    /// Stratified sampling of `cohort_size` from `population`.
    pub fn stratified(population: usize, cohort_size: usize) -> Self {
        Self {
            population,
            cohort_size,
            scheme: SamplingScheme::Stratified,
        }
    }
}

/// Byzantine attack configuration.
#[derive(Clone, Debug, PartialEq)]
pub enum AttackCfg {
    /// All clients honest.
    None,
    /// Data poisoning: malicious clients train honestly on poisoned data.
    Data {
        /// The poisoning transformation.
        attack: DataAttack,
        /// Fraction of bottom-level clients poisoned.
        proportion: f64,
        /// Which clients are poisoned.
        placement: Placement,
    },
    /// Model poisoning: malicious clients replace their trained update
    /// with a crafted vector (colluding, omniscient within their cluster).
    Model {
        /// The update-crafting attack.
        attack: ModelAttack,
        /// Fraction of bottom-level clients malicious.
        proportion: f64,
        /// Which clients are malicious.
        placement: Placement,
    },
    /// Adaptive model poisoning: the coalition tunes its attack magnitude
    /// each round from defense feedback (`hfl_attacks::adaptive`),
    /// bisecting toward the defense's acceptance boundary.
    Adaptive {
        /// The tunable attack family and its magnitude bounds.
        attack: AdaptiveAttack,
        /// Fraction of bottom-level clients malicious.
        proportion: f64,
        /// Which clients are malicious.
        placement: Placement,
    },
}

impl AttackCfg {
    /// The malicious fraction (0 for `None`).
    pub fn proportion(&self) -> f64 {
        match self {
            AttackCfg::None => 0.0,
            AttackCfg::Data { proportion, .. }
            | AttackCfg::Model { proportion, .. }
            | AttackCfg::Adaptive { proportion, .. } => *proportion,
        }
    }

    /// The placement strategy (`Prefix` for `None`, matching the paper).
    pub fn placement(&self) -> Placement {
        match self {
            AttackCfg::None => Placement::Prefix,
            AttackCfg::Data { placement, .. }
            | AttackCfg::Model { placement, .. }
            | AttackCfg::Adaptive { placement, .. } => *placement,
        }
    }
}

/// Deadline-driven asynchronous collection (DESIGN.md §12): every
/// aggregation point opens a buffer, admits updates as they arrive,
/// and closes on first-of `{quorum reached, deadline fires}`. Late
/// arrivals within the staleness bound τ are admitted at a
/// staleness-discounted weight; later ones are dropped with a
/// `StaleUpdateDropped` event. All decisions are integer sim-time
/// comparisons over seeded arrival draws, so runs stay
/// bit-reproducible; `HflConfig::async_rounds = None` is the
/// synchronous barrier (deadline = ∞), byte-identical to configs
/// predating this field.
#[derive(Clone, Debug, PartialEq)]
pub struct AsyncRoundCfg {
    /// Collection deadline per aggregation buffer, in simulated µs
    /// from buffer open. The buffer closes at
    /// `min(deadline, quorum arrival time)`.
    pub deadline_us: u64,
    /// Staleness bound τ, in µs past buffer close: a late update with
    /// `lateness ≤ τ` is admitted at discounted weight, one with
    /// `lateness > τ` is rejected.
    pub staleness_bound_us: u64,
    /// Link-delay distribution synthesizing each member's arrival
    /// offset (scaled by its straggler factor when a fault plan is
    /// active).
    pub link_delay: DelayModel,
    /// Per-tier deadline overrides as `(level, deadline_us)` pairs
    /// (level 0 = top). Levels not listed use `deadline_us`.
    pub tier_deadlines: Vec<(usize, u64)>,
}

impl AsyncRoundCfg {
    /// A moderate default: LAN-ish uniform link delays with a deadline
    /// that a healthy quorum beats comfortably and τ of half a
    /// deadline.
    pub fn lan() -> Self {
        Self {
            deadline_us: 50_000,
            staleness_bound_us: 25_000,
            link_delay: DelayModel::Uniform { lo: 500, hi: 5_000 },
            tier_deadlines: Vec::new(),
        }
    }

    /// The effective deadline for an aggregation buffer at `level`.
    pub fn deadline_for(&self, level: usize) -> u64 {
        self.tier_deadlines
            .iter()
            .find(|(l, _)| *l == level)
            .map(|(_, d)| *d)
            .unwrap_or(self.deadline_us)
    }
}

/// Per-level aggregation choice (Algorithm 3's `BRA` / `CBA` switch).
#[derive(Clone, Debug, PartialEq)]
pub enum LevelAgg {
    /// Byzantine-robust aggregation: the cluster leader collects and
    /// aggregates.
    Bra(AggregatorKind),
    /// Consensus-based aggregation: cluster members agree with no trusted
    /// leader.
    Cba(ConsensusKind),
}

/// Full experiment configuration.
#[derive(Clone, Debug)]
pub struct HflConfig {
    /// Hierarchy shape.
    pub topology: TopologyCfg,
    /// Global rounds `R` (paper: 200).
    pub rounds: usize,
    /// Local iterations `T` per round (paper: 5).
    pub local_iters: usize,
    /// SGD hyper-parameters.
    pub sgd: SgdConfig,
    /// Model architecture.
    pub model: ModelCfg,
    /// Synthetic-task generator settings.
    pub data: SynthConfig,
    /// Client data distribution.
    pub distribution: DataDistribution,
    /// Aggregation rule per level, index = level (0 = top/global). Length
    /// must equal the hierarchy's level count.
    pub levels: Vec<LevelAgg>,
    /// Collection quorum φ: the fraction of a cluster's models a leader
    /// waits for before aggregating (Algorithm 4); all of them when
    /// φ = 1.
    pub quorum: f64,
    /// Byzantine attack.
    pub attack: AttackCfg,
    /// Correction-factor policy: Eq. (1)'s merge under the pipelined
    /// schedule, and the staleness discount of deadline buffers.
    pub correction: CorrectionPolicy,
    /// Flag level ℓ_F (read by the pipelined schedule): any aggregation
    /// level below the top, `1..=L`.
    pub flag_level: usize,
    /// Evaluate test accuracy every this many rounds (1 = every round).
    pub eval_every: usize,
    /// Master seed.
    pub seed: u64,
    /// Explicit malicious mask overriding `attack`'s proportion/placement
    /// (used by the Theorem 2 / Definition 4 experiments, which place
    /// adversaries structurally). Length must equal the client count.
    pub malicious_override: Option<Vec<bool>>,
    /// Client churn (Assumption 3: nodes join/leave clusters, clusters
    /// never split or merge): per round, each non-leader bottom client is
    /// absent with this probability — its update never reaches its
    /// leader. Leaders stay (they are the cluster's infrastructure role).
    pub churn_leave_prob: f64,
    /// Scheduled fault injection (`hfl-faults`): crashes, leader kills,
    /// stragglers, loss bursts, partitions, churn overrides. `None`
    /// (the default) runs fault-free and leaves the aggregation path
    /// byte-identical to configs predating this field.
    pub faults: Option<FaultPlan>,
    /// Defense-side suspicion layer (`hfl_robust::suspicion`): per-client
    /// decayed scores fed by aggregator evidence, quarantine above a
    /// threshold. `None` (the default) keeps the memoryless defense and
    /// the aggregation path byte-identical to configs predating this
    /// field.
    pub suspicion: Option<SuspicionConfig>,
    /// Protocol-level Byzantine behavior of malicious nodes (leader
    /// equivocation, selective withholding) on top of whatever `attack`
    /// does to updates. `None` (the default) keeps malicious nodes
    /// protocol-honest.
    pub protocol_attack: Option<ProtocolAttack>,
    /// When true, a Krum/Multi-Krum level whose smallest cluster violates
    /// the `n ≥ 2f + 3` guarantee bound is a [`ConfigError::KrumUnsound`]
    /// at validation time. Off by default because the paper's own
    /// evaluation (f = 1 on clusters of 4) violates the strict bound —
    /// default mode records the degradation as a telemetry anomaly
    /// instead.
    pub strict_guarantees: bool,
    /// Deadline-driven asynchronous collection buffers (DESIGN.md §12).
    /// `None` (the default) keeps the synchronous barrier — the
    /// `deadline = ∞` special case — and the aggregation path
    /// byte-identical to configs predating this field.
    pub async_rounds: Option<AsyncRoundCfg>,
    /// Per-client compute/bandwidth heterogeneity profiles feeding the
    /// deadline-buffer arrival synthesis. `None` (the default) keeps
    /// every client homogeneous and the run byte-identical to configs
    /// predating this field.
    pub heterogeneity: Option<HeterogeneityCfg>,
    /// Per-round client sampling over a population larger than the
    /// hierarchy (DESIGN.md §14). `None` (the default) binds cohort slot
    /// `i` to client `i` every round — the `population == cohort` special
    /// case — and keeps the run byte-identical to configs predating this
    /// field.
    pub sampling: Option<SamplingCfg>,
}

impl HflConfig {
    /// The paper's Table V / Figure 3 configuration at a given attack:
    /// 3 levels, m = 4, 4 top nodes, 200 rounds, 5 local iterations,
    /// Scheme 1 (Multi-Krum partials at 25 % assumed malicious,
    /// validation-vote consensus at the top).
    pub fn paper_iid(attack: AttackCfg, seed: u64) -> Self {
        Self {
            topology: TopologyCfg::paper(),
            rounds: 200,
            local_iters: 5,
            sgd: SgdConfig::default(),
            model: ModelCfg::Linear,
            data: SynthConfig::default(),
            distribution: DataDistribution::Iid,
            levels: vec![
                // Top: consensus (Scheme 1).
                LevelAgg::Cba(ConsensusKind::VoteMajority),
                // Intermediate + bottom-cluster aggregation: Multi-Krum
                // with the paper's assumed 25 % malicious (f = 1 of 4,
                // averaging the best 3).
                LevelAgg::Bra(AggregatorKind::MultiKrum { f: 1, m: 3 }),
                LevelAgg::Bra(AggregatorKind::MultiKrum { f: 1, m: 3 }),
            ],
            quorum: 1.0,
            attack,
            correction: CorrectionPolicy::default(),
            flag_level: 1,
            eval_every: 1,
            seed,
            malicious_override: None,
            churn_leave_prob: 0.0,
            faults: None,
            suspicion: None,
            protocol_attack: None,
            strict_guarantees: false,
            async_rounds: None,
            heterogeneity: None,
            sampling: None,
        }
    }

    /// The paper's non-IID configuration: Median partial aggregation.
    pub fn paper_noniid(attack: AttackCfg, seed: u64) -> Self {
        Self {
            distribution: DataDistribution::NonIid {
                labels_per_client: 2,
            },
            levels: vec![
                LevelAgg::Cba(ConsensusKind::VoteMajority),
                LevelAgg::Bra(AggregatorKind::Median),
                LevelAgg::Bra(AggregatorKind::Median),
            ],
            ..Self::paper_iid(attack, seed)
        }
    }

    /// A fast configuration for tests and examples: 3 levels but a small
    /// synthetic task and few rounds.
    pub fn quick(attack: AttackCfg, seed: u64) -> Self {
        Self {
            rounds: 30,
            data: SynthConfig {
                train_samples: 6_400,
                test_samples: 1_000,
                ..SynthConfig::default()
            },
            eval_every: 5,
            ..Self::paper_iid(attack, seed)
        }
    }

    /// Validates internal consistency against the built hierarchy,
    /// reporting the first inconsistency instead of panicking — the
    /// entry point for sweep harnesses where one bad cell must not
    /// abort the whole sweep.
    pub fn try_validate(&self, hierarchy: &Hierarchy) -> Result<(), ConfigError> {
        if self.rounds == 0 {
            return Err(ConfigError::ZeroRounds);
        }
        if self.local_iters == 0 {
            return Err(ConfigError::ZeroLocalIters);
        }
        if self.eval_every == 0 {
            return Err(ConfigError::ZeroEvalEvery);
        }
        if let Some((what, value)) = invalid_data_param(&self.data) {
            return Err(ConfigError::DataOutOfRange { what, value });
        }
        if let Some((what, value)) = invalid_training_param(&self.sgd, &self.model) {
            return Err(ConfigError::TrainingOutOfRange { what, value });
        }
        if !(self.quorum > 0.0 && self.quorum <= 1.0) {
            return Err(ConfigError::QuorumOutOfRange {
                quorum: self.quorum,
            });
        }
        if self.levels.len() != hierarchy.num_levels() {
            return Err(ConfigError::LevelsLengthMismatch {
                got: self.levels.len(),
                expected: hierarchy.num_levels(),
            });
        }
        // A consensus top votes on validation accuracy: every member of
        // the top cluster scores on its own non-empty shard of the test
        // set.
        let top = hierarchy.level(0).clusters.iter().map(|c| c.len()).max();
        if matches!(self.levels[0], LevelAgg::Cba(_)) && Some(self.data.test_samples) < top {
            return Err(ConfigError::DataOutOfRange {
                what: "test_samples (below the top cluster's size: a validation shard per voter)",
                value: self.data.test_samples as f64,
            });
        }
        if !(self.flag_level >= 1 && self.flag_level < hierarchy.num_levels()) {
            return Err(ConfigError::FlagLevelOutOfRange {
                flag_level: self.flag_level,
                levels: hierarchy.num_levels(),
            });
        }
        if self.attack.proportion() > 1.0 {
            return Err(ConfigError::AttackProportionOutOfRange {
                proportion: self.attack.proportion(),
            });
        }
        if let Some(s) = &self.sampling {
            if s.cohort_size == 0 {
                return Err(ConfigError::SamplingOutOfRange {
                    what: "cohort_size",
                    value: 0.0,
                });
            }
            if s.population < s.cohort_size {
                return Err(ConfigError::SamplingOutOfRange {
                    what: "population (below cohort_size)",
                    value: s.population as f64,
                });
            }
            // The hierarchy's bottom level *is* the cohort: every slot
            // must be bound to a sampled client each round.
            if s.cohort_size != hierarchy.num_clients() {
                return Err(ConfigError::SamplingCohortMismatch {
                    cohort_size: s.cohort_size,
                    clients: hierarchy.num_clients(),
                });
            }
        }
        if let Some(mask) = &self.malicious_override {
            // Malicious flags are identity-bound: under sampling the mask
            // covers the whole population, not just one round's cohort.
            let expected = self
                .sampling
                .as_ref()
                .map_or(hierarchy.num_clients(), |s| s.population);
            if mask.len() != expected {
                return Err(ConfigError::MaliciousMaskLengthMismatch {
                    got: mask.len(),
                    expected,
                });
            }
        }
        if !(0.0..1.0).contains(&self.churn_leave_prob) {
            return Err(ConfigError::ChurnOutOfRange {
                prob: self.churn_leave_prob,
            });
        }
        if let AttackCfg::Adaptive { attack, .. } = &self.attack {
            let (init, max) = attack.bounds();
            if !(init > 0.0 && init.is_finite()) {
                return Err(ConfigError::AdaptiveAttackOutOfRange {
                    what: "init magnitude",
                    value: f64::from(init),
                });
            }
            if !(max.is_finite() && max >= init) {
                return Err(ConfigError::AdaptiveAttackOutOfRange {
                    what: "max magnitude",
                    value: f64::from(max),
                });
            }
        }
        if let AttackCfg::Model { attack, .. } = &self.attack {
            if let Some((what, value)) = invalid_model_attack_param(attack) {
                return Err(ConfigError::ModelAttackOutOfRange { what, value });
            }
        }
        if let DataDistribution::Dirichlet { alpha } = self.distribution {
            if !(alpha.is_finite() && alpha > 0.0) {
                return Err(ConfigError::DirichletAlphaOutOfRange { alpha });
            }
        }
        for (level, agg) in self.levels.iter().enumerate() {
            if let LevelAgg::Bra(kind) = agg {
                validate_aggregator(level, kind, false)?;
            }
        }
        if let Some(het) = &self.heterogeneity {
            for (what, value) in [
                ("compute_spread", het.compute_spread),
                ("bandwidth_spread", het.bandwidth_spread),
            ] {
                if !(value.is_finite() && value >= 1.0) {
                    return Err(ConfigError::HeterogeneityOutOfRange { what, value });
                }
            }
        }
        if let Some(s) = &self.suspicion {
            if let Some((what, value)) = s.invalid_param() {
                return Err(ConfigError::SuspicionOutOfRange { what, value });
            }
        }
        if let Some(ProtocolAttack::Equivocate { flip_scale }) = &self.protocol_attack {
            if !(flip_scale.is_finite() && *flip_scale > 0.0) {
                return Err(ConfigError::ProtocolAttackOutOfRange {
                    value: f64::from(*flip_scale),
                });
            }
        }
        if self.strict_guarantees {
            for (level, agg) in self.levels.iter().enumerate() {
                let (f, bucket_cap) = match agg {
                    LevelAgg::Bra(AggregatorKind::Krum { f })
                    | LevelAgg::Bra(AggregatorKind::MultiKrum { f, .. }) => (*f, usize::MAX),
                    // SampledKrum runs Krum over at most `m` bucket
                    // means, so `m` caps the effective input count the
                    // guarantee sees.
                    LevelAgg::Bra(AggregatorKind::SampledKrum { f, m }) => (*f, *m),
                    _ => continue,
                };
                // The inputs a level-l cluster aggregates come from its
                // own members (level-(l+1) leaders or bottom clients), so
                // its own size bounds n.
                let n_min = hierarchy
                    .level(level)
                    .clusters
                    .iter()
                    .map(|c| c.len())
                    .min()
                    .unwrap_or(0)
                    .min(bucket_cap);
                if !Krum::guarantee_holds(f, n_min) {
                    return Err(ConfigError::KrumUnsound { level, f, n_min });
                }
            }
        }
        if let Some(plan) = &self.faults {
            plan.validate(hierarchy).map_err(ConfigError::Faults)?;
        }
        if let Some(a) = &self.async_rounds {
            if a.deadline_us == 0 {
                return Err(ConfigError::AsyncOutOfRange {
                    what: "deadline_us",
                    value: 0.0,
                });
            }
            for &(level, d) in &a.tier_deadlines {
                if level >= hierarchy.num_levels() {
                    return Err(ConfigError::AsyncTierOutOfRange {
                        level,
                        levels: hierarchy.num_levels(),
                    });
                }
                if d == 0 {
                    return Err(ConfigError::AsyncOutOfRange {
                        what: "tier deadline",
                        value: level as f64,
                    });
                }
            }
            a.link_delay
                .validate()
                .map_err(|(what, value)| ConfigError::DelayOutOfRange {
                    which: "link_delay",
                    what,
                    value,
                })?;
            if matches!(self.protocol_attack, Some(ProtocolAttack::StalenessExploit))
                && a.staleness_bound_us == 0
            {
                // A staleness exploit stalls until *just inside* τ;
                // with τ = 0 there is no inside and the attack
                // degenerates to Withhold — reject the ambiguity.
                return Err(ConfigError::AsyncOutOfRange {
                    what: "staleness_bound_us under StalenessExploit",
                    value: 0.0,
                });
            }
        } else if matches!(self.protocol_attack, Some(ProtocolAttack::StalenessExploit)) {
            // The exploit is defined relative to an async close time.
            return Err(ConfigError::StalenessExploitNeedsAsync);
        }
        Ok(())
    }

    /// True when this config engages the arms race: an adaptive attack,
    /// a protocol attack, or the suspicion layer. The round engine
    /// stacks its defense and adversary layers exactly when this holds;
    /// faults compose freely with all of it.
    #[must_use]
    pub fn arms_race(&self) -> bool {
        self.suspicion.is_some()
            || self.protocol_attack.is_some()
            || matches!(self.attack, AttackCfg::Adaptive { .. })
    }

    /// Validates internal consistency against the built hierarchy.
    ///
    /// # Panics
    /// On inconsistency (wrong `levels` length, flag level out of range,
    /// quorum out of `(0, 1]`, zero rounds...). Use
    /// [`HflConfig::try_validate`] where a bad config is recoverable.
    pub fn validate(&self, hierarchy: &Hierarchy) {
        if let Err(e) = self.try_validate(hierarchy) {
            panic!("{e}");
        }
    }
}

/// Validation-time check of the task generator's configuration,
/// mirroring the assertions `SynthTask::plan` makes (sizes, class count
/// within `u8` labels) and adding what it cannot notice: a non-finite
/// spread trains on NaN without a word.
/// The first SGD hyper-parameter or model shape the training loop would
/// assert on (`train_local_scratch`, `SgdConfig::lr_at`, `Mlp::new` —
/// on a pool thread, where a panic takes the run down).
fn invalid_training_param(sgd: &SgdConfig, model: &ModelCfg) -> Option<(&'static str, f64)> {
    if !(sgd.lr.is_finite() && sgd.lr > 0.0) {
        return Some(("sgd.lr (finite, > 0)", f64::from(sgd.lr)));
    }
    if sgd.batch_size == 0 {
        return Some(("sgd.batch_size", 0.0));
    }
    if let LrSchedule::Step { every, factor } = sgd.schedule {
        if every == 0 {
            return Some(("sgd.schedule step interval", 0.0));
        }
        if !(factor > 0.0 && factor <= 1.0) {
            return Some(("sgd.schedule step factor (in (0, 1])", f64::from(factor)));
        }
    }
    if let ModelCfg::Mlp { hidden: 0 } = model {
        return Some(("model hidden width", 0.0));
    }
    None
}

fn invalid_data_param(data: &SynthConfig) -> Option<(&'static str, f64)> {
    for (what, size) in [
        ("train_samples", data.train_samples),
        ("test_samples", data.test_samples),
        ("dim", data.dim),
    ] {
        if size == 0 {
            return Some((what, 0.0));
        }
    }
    if !(2..=256).contains(&data.num_classes) {
        return Some((
            "num_classes (labels are u8: 2..=256)",
            data.num_classes as f64,
        ));
    }
    if !(data.noise_std.is_finite() && data.noise_std >= 0.0) {
        return Some(("noise_std", f64::from(data.noise_std)));
    }
    if !data.separation.is_finite() {
        return Some(("separation", f64::from(data.separation)));
    }
    None
}

/// Validation-time parameter check for static model attacks, mirroring
/// the assertions `ModelAttack::craft` makes at run time so a bad knob
/// fails a sweep cell instead of panicking mid-run.
fn invalid_model_attack_param(attack: &ModelAttack) -> Option<(&'static str, f64)> {
    match attack {
        ModelAttack::SignFlip { scale } if !(scale.is_finite() && *scale > 0.0) => {
            Some(("sign-flip scale", f64::from(*scale)))
        }
        ModelAttack::GaussianNoise { std } if !(std.is_finite() && *std >= 0.0) => {
            Some(("noise std", f64::from(*std)))
        }
        ModelAttack::Alie { z } if !z.is_finite() => Some(("ALIE z", f64::from(*z))),
        ModelAttack::Ipm { epsilon } if !(epsilon.is_finite() && *epsilon > 0.0) => {
            Some(("IPM epsilon", f64::from(*epsilon)))
        }
        ModelAttack::Scaling { factor } if !(factor.is_finite() && *factor != 0.0) => {
            Some(("scaling factor", f64::from(*factor)))
        }
        _ => None,
    }
}

/// Validates one configured aggregation rule's parameters (the checks
/// the rule constructors enforce by panicking, surfaced as
/// [`ConfigError`]s), recursing one layer into pre-aggregation
/// compositions. `nested` marks the recursive call: a pre-aggregation
/// inside a pre-aggregation is rejected — the composition contract is
/// single-layer (DESIGN.md §13).
fn validate_aggregator(
    level: usize,
    kind: &AggregatorKind,
    nested: bool,
) -> Result<(), ConfigError> {
    let bad = |what: &'static str, value: f64| {
        Err(ConfigError::AggregatorOutOfRange { level, what, value })
    };
    match kind {
        AggregatorKind::CenteredClip { tau, iters } => {
            if !(tau.is_finite() && *tau > 0.0) {
                return bad("centered-clip tau", *tau);
            }
            if *iters == 0 {
                return bad("centered-clip iters", 0.0);
            }
        }
        AggregatorKind::TrimmedMean { ratio }
            if !(ratio.is_finite() && (0.0..0.5).contains(ratio)) =>
        {
            return bad("trimmed-mean ratio", *ratio);
        }
        AggregatorKind::Bucketing { s, inner } => {
            if nested {
                return Err(ConfigError::NestedPreAggregation { level });
            }
            if *s == 0 {
                return bad("bucketing s", 0.0);
            }
            validate_aggregator(level, inner, true)?;
        }
        AggregatorKind::Nnm { k, inner } => {
            if nested {
                return Err(ConfigError::NestedPreAggregation { level });
            }
            if *k == 0 {
                return bad("nnm k", 0.0);
            }
            validate_aggregator(level, inner, true)?;
        }
        AggregatorKind::StreamingMedian { exact_threshold } if *exact_threshold == 0 => {
            return bad("streaming-median exact_threshold", 0.0);
        }
        AggregatorKind::StreamingTrimmedMean {
            ratio,
            exact_threshold,
        } => {
            if !(ratio.is_finite() && (0.0..0.5).contains(ratio)) {
                return bad("streaming-trimmed-mean ratio", *ratio);
            }
            if *exact_threshold == 0 {
                return bad("streaming-trimmed-mean exact_threshold", 0.0);
            }
        }
        AggregatorKind::SampledKrum { m, .. } if *m == 0 => {
            return bad("sampled-krum m", 0.0);
        }
        _ => {}
    }
    Ok(())
}

/// Why an [`HflConfig`] is internally inconsistent. `Display` renders
/// the exact invariant messages `validate` panics with.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `rounds` is zero.
    ZeroRounds,
    /// `local_iters` is zero.
    ZeroLocalIters,
    /// `eval_every` is zero.
    ZeroEvalEvery,
    /// `quorum` outside `(0, 1]`.
    QuorumOutOfRange {
        /// The offending quorum.
        quorum: f64,
    },
    /// The topology cannot be built: a zero size, fewer than two levels,
    /// an ACSM size range that holds no cluster, or more devices over
    /// all levels than a hierarchy may hold.
    TopologyOutOfRange {
        /// Which parameter is bad.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `levels` length differs from the hierarchy's level count.
    LevelsLengthMismatch {
        /// Configured length.
        got: usize,
        /// Hierarchy depth.
        expected: usize,
    },
    /// `flag_level` is not an intermediate-or-bottom level.
    FlagLevelOutOfRange {
        /// The offending flag level.
        flag_level: usize,
        /// Hierarchy depth.
        levels: usize,
    },
    /// Attack proportion above 1.
    AttackProportionOutOfRange {
        /// The offending proportion.
        proportion: f64,
    },
    /// `malicious_override` length differs from the client count.
    MaliciousMaskLengthMismatch {
        /// Mask length.
        got: usize,
        /// Client count.
        expected: usize,
    },
    /// A task-generator parameter (`data`) is unusable.
    DataOutOfRange {
        /// Which parameter is bad.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An SGD hyper-parameter (`sgd`) or the model's shape (`model`) is
    /// unusable.
    TrainingOutOfRange {
        /// Which parameter is bad.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Churn leave probability outside `[0, 1)`.
    ChurnOutOfRange {
        /// The offending probability.
        prob: f64,
    },
    /// The fault plan doesn't fit the hierarchy.
    Faults(FaultPlanError),
    /// Adaptive attack magnitude bounds are unusable.
    AdaptiveAttackOutOfRange {
        /// Which bound is bad.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A suspicion-layer parameter is out of range.
    SuspicionOutOfRange {
        /// Which parameter is bad.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Equivocation flip scale must be finite and positive.
    ProtocolAttackOutOfRange {
        /// The offending flip scale.
        value: f64,
    },
    /// An asynchronous-round parameter is unusable.
    AsyncOutOfRange {
        /// Which parameter is bad.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A per-tier deadline override names a level the hierarchy lacks.
    AsyncTierOutOfRange {
        /// The offending level.
        level: usize,
        /// Hierarchy depth.
        levels: usize,
    },
    /// `ProtocolAttack::StalenessExploit` without `async_rounds`: the
    /// attack stalls relative to an async buffer close, which the
    /// synchronous barrier does not have.
    StalenessExploitNeedsAsync,
    /// A static model attack carries an unusable parameter.
    ModelAttackOutOfRange {
        /// Which parameter is bad.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// Dirichlet concentration must be finite and positive.
    DirichletAlphaOutOfRange {
        /// The offending alpha.
        alpha: f64,
    },
    /// A configured aggregation rule carries an unusable parameter.
    AggregatorOutOfRange {
        /// The offending level.
        level: usize,
        /// Which parameter is bad.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A pre-aggregation transform wraps another pre-aggregation — the
    /// composition contract is single-layer.
    NestedPreAggregation {
        /// The offending level.
        level: usize,
    },
    /// A heterogeneity spread is unusable (must be finite and ≥ 1).
    HeterogeneityOutOfRange {
        /// Which spread is bad.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A sampling parameter is unusable.
    SamplingOutOfRange {
        /// Which parameter is bad.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `sampling.cohort_size` differs from the hierarchy's client count —
    /// the hierarchy's bottom level *is* the cohort.
    SamplingCohortMismatch {
        /// Configured cohort size.
        cohort_size: usize,
        /// Hierarchy client count.
        clients: usize,
    },
    /// With `strict_guarantees`, a Krum/Multi-Krum level whose smallest
    /// cluster violates `n ≥ 2f + 3`.
    KrumUnsound {
        /// The offending level.
        level: usize,
        /// Configured Byzantine count.
        f: usize,
        /// Smallest cluster size at that level.
        n_min: usize,
    },
    /// A delay model (a link, or a pipelined run's training or
    /// aggregation duration) carries an unusable parameter.
    DelayOutOfRange {
        /// Which delay model is bad.
        which: &'static str,
        /// Which of its parameters.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroRounds => write!(f, "rounds must be positive"),
            ConfigError::ZeroLocalIters => write!(f, "local_iters must be positive"),
            ConfigError::ZeroEvalEvery => write!(f, "eval_every must be positive"),
            ConfigError::QuorumOutOfRange { quorum } => {
                write!(f, "quorum must be in (0, 1], got {quorum}")
            }
            ConfigError::TopologyOutOfRange { what, value } => {
                write!(f, "topology {what} out of range ({value})")
            }
            ConfigError::LevelsLengthMismatch { got, expected } => write!(
                f,
                "levels config length must match hierarchy depth (config has {got}, hierarchy has {expected})"
            ),
            ConfigError::FlagLevelOutOfRange { flag_level, levels } => write!(
                f,
                "flag level must be an intermediate-or-bottom aggregation level (got {flag_level} of {levels} levels)"
            ),
            ConfigError::AttackProportionOutOfRange { proportion } => {
                write!(f, "attack proportion out of range ({proportion})")
            }
            ConfigError::MaliciousMaskLengthMismatch { got, expected } => write!(
                f,
                "malicious override mask length must equal client count (mask has {got}, hierarchy has {expected})"
            ),
            ConfigError::DataOutOfRange { what, value } => {
                write!(f, "data {what} out of range ({value})")
            }
            ConfigError::TrainingOutOfRange { what, value } => {
                write!(f, "training {what} out of range ({value})")
            }
            ConfigError::ChurnOutOfRange { prob } => {
                write!(f, "churn leave probability must be in [0, 1), got {prob}")
            }
            ConfigError::Faults(e) => write!(f, "{e}"),
            ConfigError::AdaptiveAttackOutOfRange { what, value } => {
                write!(f, "adaptive attack {what} out of range ({value})")
            }
            ConfigError::SuspicionOutOfRange { what, value } => {
                write!(f, "suspicion {what} out of range ({value})")
            }
            ConfigError::ProtocolAttackOutOfRange { value } => {
                write!(f, "equivocation flip scale must be finite and positive, got {value}")
            }
            ConfigError::AsyncOutOfRange { what, value } => {
                write!(f, "async rounds {what} out of range ({value})")
            }
            ConfigError::AsyncTierOutOfRange { level, levels } => write!(
                f,
                "async tier deadline names level {level}, hierarchy has {levels} levels"
            ),
            ConfigError::DelayOutOfRange { which, what, value } => {
                write!(f, "{which} {what} out of range ({value})")
            }
            ConfigError::StalenessExploitNeedsAsync => write!(
                f,
                "StalenessExploit requires async_rounds (it stalls relative to a buffer close)"
            ),
            ConfigError::ModelAttackOutOfRange { what, value } => {
                write!(f, "model attack {what} out of range ({value})")
            }
            ConfigError::DirichletAlphaOutOfRange { alpha } => {
                write!(f, "dirichlet alpha must be finite and positive, got {alpha}")
            }
            ConfigError::AggregatorOutOfRange { level, what, value } => {
                write!(f, "aggregator {what} out of range at level {level} ({value})")
            }
            ConfigError::NestedPreAggregation { level } => write!(
                f,
                "pre-aggregation composition is single-layer: level {level} nests a \
                 bucketing/nnm transform inside another"
            ),
            ConfigError::HeterogeneityOutOfRange { what, value } => {
                write!(f, "heterogeneity {what} must be finite and >= 1, got {value}")
            }
            ConfigError::SamplingOutOfRange { what, value } => {
                write!(f, "sampling {what} out of range ({value})")
            }
            ConfigError::SamplingCohortMismatch { cohort_size, clients } => write!(
                f,
                "sampling cohort_size must equal the hierarchy's client count (cohort is {cohort_size}, hierarchy has {clients})"
            ),
            ConfigError::KrumUnsound { level, f: byz, n_min } => write!(
                f,
                "Krum guarantee n >= 2f + 3 violated at level {level}: f = {byz} needs clusters of at least {}, smallest has {n_min}",
                2 * byz + 3
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_is_consistent() {
        let cfg = HflConfig::paper_iid(AttackCfg::None, 0);
        let h = cfg.topology.build(cfg.seed);
        cfg.validate(&h);
        assert_eq!(h.num_clients(), 64);
        assert_eq!(cfg.rounds, 200);
        assert_eq!(cfg.local_iters, 5);
    }

    #[test]
    fn noniid_uses_median() {
        let cfg = HflConfig::paper_noniid(AttackCfg::None, 0);
        assert!(matches!(
            cfg.levels[1],
            LevelAgg::Bra(AggregatorKind::Median)
        ));
        assert!(matches!(
            cfg.distribution,
            DataDistribution::NonIid {
                labels_per_client: 2
            }
        ));
    }

    #[test]
    fn model_cfg_builds_both_architectures() {
        let lin = ModelCfg::Linear.build(8, 10, 0);
        assert_eq!(lin.param_len(), 8 * 10 + 10);
        let mlp = ModelCfg::Mlp { hidden: 16 }.build(8, 10, 0);
        assert_eq!(mlp.param_len(), 16 * 8 + 16 + 10 * 16 + 10);
    }

    #[test]
    fn attack_cfg_accessors() {
        assert_eq!(AttackCfg::None.proportion(), 0.0);
        let a = AttackCfg::Data {
            attack: DataAttack::type_i(),
            proportion: 0.3,
            placement: Placement::Random,
        };
        assert_eq!(a.proportion(), 0.3);
        assert_eq!(a.placement(), Placement::Random);
    }

    #[test]
    #[should_panic(expected = "levels config length")]
    fn wrong_levels_length_panics() {
        let mut cfg = HflConfig::paper_iid(AttackCfg::None, 0);
        cfg.levels.pop();
        let h = cfg.topology.build(0);
        cfg.validate(&h);
    }

    #[test]
    #[should_panic(expected = "quorum")]
    fn zero_quorum_panics() {
        let mut cfg = HflConfig::paper_iid(AttackCfg::None, 0);
        cfg.quorum = 0.0;
        let h = cfg.topology.build(0);
        cfg.validate(&h);
    }

    /// A topology the hierarchy builders would panic on, or could not
    /// allocate, is an `Err` from `try_prepare`: every field of both
    /// models at 0, 1, 2 and `usize::MAX`, each config and its star.
    #[test]
    fn malformed_topology_is_an_err_not_a_panic() {
        use crate::runner::Experiment;
        const EDGES: [usize; 4] = [0, 1, 2, usize::MAX];
        let mut topologies = Vec::new();
        for a in EDGES {
            for b in EDGES {
                for c in EDGES {
                    topologies.push(TopologyCfg::Ecsm {
                        total_levels: a,
                        m: b,
                        n_top: c,
                    });
                    topologies.extend(EDGES.map(|d| TopologyCfg::AcsmRandom {
                        n_bottom: a,
                        total_levels: b,
                        min_size: c,
                        max_size: d,
                    }));
                }
            }
        }
        let mut base = HflConfig::quick(AttackCfg::None, 0);
        base.data.train_samples = 640;
        base.data.test_samples = 100;
        let prepares = |cfg: &HflConfig| {
            let prepared = std::panic::catch_unwind(|| Experiment::try_prepare(cfg).err());
            prepared.unwrap_or_else(|_| panic!("try_prepare panicked on {:?}", cfg.topology))
        };
        let mut ok = 0;
        for (case, topology) in topologies.into_iter().enumerate() {
            let cfg = HflConfig {
                topology,
                seed: case as u64,
                ..base.clone()
            };
            ok += [prepares(&cfg.star(AggregatorKind::FedAvg)), prepares(&cfg)]
                .iter()
                .filter(|e| e.is_none())
                .count();
        }
        assert!(ok > 0, "no edge topology prepared");

        // The seven shapes that used to panic inside `Hierarchy`.
        let ecsm = |total_levels, m, n_top| TopologyCfg::Ecsm {
            total_levels,
            m,
            n_top,
        };
        let acsm = |total_levels, min_size, max_size, n_bottom| TopologyCfg::AcsmRandom {
            n_bottom,
            total_levels,
            min_size,
            max_size,
        };
        for topology in [
            ecsm(1, 4, 4),
            ecsm(3, 0, 4),
            ecsm(3, 4, 0),
            acsm(1, 2, 4, 64),
            acsm(3, 0, 4, 64),
            acsm(3, 5, 4, 64),
            acsm(3, 4, 8, 3),
        ] {
            let cfg = HflConfig {
                topology,
                ..base.clone()
            };
            assert!(
                matches!(prepares(&cfg), Some(ConfigError::TopologyOutOfRange { .. })),
                "{:?}",
                cfg.topology
            );
        }
    }

    #[test]
    fn try_validate_reports_instead_of_panicking() {
        let mut cfg = HflConfig::paper_iid(AttackCfg::None, 0);
        let h = cfg.topology.build(0);
        assert_eq!(cfg.try_validate(&h), Ok(()));
        cfg.quorum = 2.0;
        let err = cfg.try_validate(&h).unwrap_err();
        assert!(matches!(err, ConfigError::QuorumOutOfRange { .. }));
        assert!(err.to_string().contains("quorum must be in (0, 1]"));
    }

    #[test]
    fn try_validate_rejects_what_the_training_loop_would_assert_on() {
        fn step(every: usize, factor: f32) -> LrSchedule {
            LrSchedule::Step { every, factor }
        }
        let base = HflConfig::paper_iid(AttackCfg::None, 0);
        let h = base.topology.build(0);
        type Spoil = fn(&mut HflConfig);
        let spoiled: [(&str, Spoil); 9] = [
            ("sgd.lr", |c| c.sgd.lr = 0.0),
            ("sgd.lr", |c| c.sgd.lr = -0.5),
            ("sgd.lr", |c| c.sgd.lr = f32::NAN),
            ("sgd.lr", |c| c.sgd.lr = f32::INFINITY),
            ("sgd.batch_size", |c| c.sgd.batch_size = 0),
            ("step interval", |c| c.sgd.schedule = step(0, 0.5)),
            ("step factor", |c| c.sgd.schedule = step(3, 0.0)),
            ("step factor", |c| c.sgd.schedule = step(3, 1.5)),
            ("hidden width", |c| c.model = ModelCfg::Mlp { hidden: 0 }),
        ];
        for (needle, spoil) in spoiled {
            let mut cfg = base.clone();
            spoil(&mut cfg);
            let err = cfg.try_validate(&h).unwrap_err();
            assert!(
                matches!(err, ConfigError::TrainingOutOfRange { .. }),
                "{err}"
            );
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        }
        // The edges of each range are usable.
        let mut cfg = base;
        cfg.sgd.lr = f32::MIN_POSITIVE;
        cfg.sgd.batch_size = 1;
        cfg.sgd.schedule = step(1, 1.0);
        cfg.model = ModelCfg::Mlp { hidden: 1 };
        assert_eq!(cfg.try_validate(&h), Ok(()));
    }

    #[test]
    fn strict_guarantees_rejects_paper_krum_but_default_accepts() {
        // Paper default: Multi-Krum f = 1 on clusters of 4 — violates the
        // strict n >= 2f + 3 bound but is accepted in default mode.
        let mut cfg = HflConfig::paper_iid(AttackCfg::None, 0);
        let h = cfg.topology.build(0);
        assert_eq!(cfg.try_validate(&h), Ok(()));
        cfg.strict_guarantees = true;
        let err = cfg.try_validate(&h).unwrap_err();
        assert!(
            matches!(err, ConfigError::KrumUnsound { f: 1, n_min: 4, .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("2f + 3"), "{err}");
        // A sound configuration passes even strictly: f = 1 needs n >= 5.
        cfg.topology = TopologyCfg::Ecsm {
            total_levels: 3,
            m: 5,
            n_top: 5,
        };
        let h5 = cfg.topology.build(0);
        assert_eq!(cfg.try_validate(&h5), Ok(()));
    }

    #[test]
    fn sampling_cfg_is_validated() {
        let mut cfg = HflConfig::paper_iid(AttackCfg::None, 0);
        let h = cfg.topology.build(0);
        // Well-formed: cohort matches the hierarchy, population above it.
        cfg.sampling = Some(SamplingCfg::uniform(100_000, h.num_clients()));
        assert_eq!(cfg.try_validate(&h), Ok(()));
        cfg.sampling = Some(SamplingCfg::stratified(100_000, h.num_clients()));
        assert_eq!(cfg.try_validate(&h), Ok(()));
        // Cohort must equal the hierarchy's client count.
        cfg.sampling = Some(SamplingCfg::uniform(100_000, 32));
        assert!(matches!(
            cfg.try_validate(&h).unwrap_err(),
            ConfigError::SamplingCohortMismatch {
                cohort_size: 32,
                clients: 64
            }
        ));
        // Population below the cohort cannot fill a round.
        cfg.sampling = Some(SamplingCfg::uniform(10, h.num_clients()));
        assert!(matches!(
            cfg.try_validate(&h).unwrap_err(),
            ConfigError::SamplingOutOfRange { .. }
        ));
        // Empty cohort is rejected before the mismatch check.
        cfg.sampling = Some(SamplingCfg::uniform(100, 0));
        assert!(matches!(
            cfg.try_validate(&h).unwrap_err(),
            ConfigError::SamplingOutOfRange { .. }
        ));
    }

    #[test]
    fn malicious_mask_covers_the_population_under_sampling() {
        let mut cfg = HflConfig::paper_iid(AttackCfg::None, 0);
        let h = cfg.topology.build(0);
        cfg.sampling = Some(SamplingCfg::uniform(1_000, h.num_clients()));
        // A cohort-sized mask is wrong once the population is larger...
        cfg.malicious_override = Some(vec![false; h.num_clients()]);
        assert!(matches!(
            cfg.try_validate(&h).unwrap_err(),
            ConfigError::MaliciousMaskLengthMismatch {
                got: 64,
                expected: 1_000
            }
        ));
        // ...a population-sized mask is right.
        cfg.malicious_override = Some(vec![false; 1_000]);
        assert_eq!(cfg.try_validate(&h), Ok(()));
    }

    #[test]
    fn streaming_aggregator_params_are_range_checked() {
        let mut cfg = HflConfig::paper_iid(AttackCfg::None, 0);
        let h = cfg.topology.build(0);
        for bad in [
            AggregatorKind::StreamingMedian { exact_threshold: 0 },
            AggregatorKind::StreamingTrimmedMean {
                ratio: 0.5,
                exact_threshold: 256,
            },
            AggregatorKind::StreamingTrimmedMean {
                ratio: 0.2,
                exact_threshold: 0,
            },
            AggregatorKind::SampledKrum { f: 1, m: 0 },
        ] {
            cfg.levels[2] = LevelAgg::Bra(bad);
            assert!(matches!(
                cfg.try_validate(&h).unwrap_err(),
                ConfigError::AggregatorOutOfRange { level: 2, .. }
            ));
        }
        cfg.levels[2] = LevelAgg::Bra(AggregatorKind::StreamingTrimmedMean {
            ratio: 0.2,
            exact_threshold: 256,
        });
        assert_eq!(cfg.try_validate(&h), Ok(()));
    }

    #[test]
    fn strict_guarantees_caps_sampled_krum_at_its_bucket_budget() {
        // Clusters of 5 satisfy n >= 2f + 3 for f = 1, but SampledKrum
        // with m = 4 buckets only ever feeds Krum 4 inputs — strict mode
        // must judge the guarantee at min(cluster, m).
        let mut cfg = HflConfig::paper_iid(AttackCfg::None, 0);
        cfg.topology = TopologyCfg::Ecsm {
            total_levels: 3,
            m: 5,
            n_top: 5,
        };
        cfg.levels[2] = LevelAgg::Bra(AggregatorKind::SampledKrum { f: 1, m: 4 });
        cfg.strict_guarantees = true;
        let h = cfg.topology.build(0);
        assert!(matches!(
            cfg.try_validate(&h).unwrap_err(),
            ConfigError::KrumUnsound { f: 1, n_min: 4, .. }
        ));
        cfg.levels[2] = LevelAgg::Bra(AggregatorKind::SampledKrum { f: 1, m: 5 });
        assert_eq!(cfg.try_validate(&h), Ok(()));
    }

    #[test]
    fn adaptive_and_suspicion_params_are_range_checked() {
        let mut cfg = HflConfig::paper_iid(
            AttackCfg::Adaptive {
                attack: AdaptiveAttack::alie_default(),
                proportion: 0.25,
                placement: Placement::Prefix,
            },
            0,
        );
        let h = cfg.topology.build(0);
        assert_eq!(cfg.try_validate(&h), Ok(()));

        cfg.attack = AttackCfg::Adaptive {
            attack: AdaptiveAttack::Alie {
                z_init: 2.0,
                z_max: 1.0, // max below init
            },
            proportion: 0.25,
            placement: Placement::Prefix,
        };
        assert!(matches!(
            cfg.try_validate(&h),
            Err(ConfigError::AdaptiveAttackOutOfRange { .. })
        ));

        cfg.attack = AttackCfg::None;
        cfg.suspicion = Some(SuspicionConfig {
            decay: 1.5,
            ..SuspicionConfig::default()
        });
        assert!(matches!(
            cfg.try_validate(&h),
            Err(ConfigError::SuspicionOutOfRange { what: "decay", .. })
        ));
        cfg.suspicion = Some(SuspicionConfig::default());
        assert_eq!(cfg.try_validate(&h), Ok(()));

        cfg.protocol_attack = Some(ProtocolAttack::Equivocate { flip_scale: 0.0 });
        assert!(matches!(
            cfg.try_validate(&h),
            Err(ConfigError::ProtocolAttackOutOfRange { .. })
        ));
        cfg.protocol_attack = Some(ProtocolAttack::Withhold);
        assert_eq!(cfg.try_validate(&h), Ok(()));
    }

    #[test]
    fn centered_clip_is_reachable_and_range_checked() {
        let mut cfg = HflConfig::paper_iid(AttackCfg::None, 0);
        let h = cfg.topology.build(0);
        cfg.levels[1] = LevelAgg::Bra(AggregatorKind::CenteredClip { tau: 1.0, iters: 3 });
        cfg.levels[2] = LevelAgg::Bra(AggregatorKind::CenteredClip { tau: 1.0, iters: 3 });
        assert_eq!(cfg.try_validate(&h), Ok(()));

        cfg.levels[1] = LevelAgg::Bra(AggregatorKind::CenteredClip { tau: 0.0, iters: 3 });
        let err = cfg.try_validate(&h).unwrap_err();
        assert!(
            matches!(err, ConfigError::AggregatorOutOfRange { level: 1, .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("centered-clip tau"), "{err}");

        cfg.levels[1] = LevelAgg::Bra(AggregatorKind::CenteredClip { tau: 1.0, iters: 0 });
        let err = cfg.try_validate(&h).unwrap_err();
        assert!(err.to_string().contains("centered-clip iters"), "{err}");
    }

    #[test]
    fn pre_aggregation_is_validated_single_layer() {
        let mut cfg = HflConfig::paper_iid(AttackCfg::None, 0);
        let h = cfg.topology.build(0);
        cfg.levels[1] = LevelAgg::Bra(AggregatorKind::Bucketing {
            s: 2,
            inner: Box::new(AggregatorKind::Median),
        });
        cfg.levels[2] = LevelAgg::Bra(AggregatorKind::Nnm {
            k: 2,
            inner: Box::new(AggregatorKind::Krum { f: 1 }),
        });
        assert_eq!(cfg.try_validate(&h), Ok(()));

        cfg.levels[1] = LevelAgg::Bra(AggregatorKind::Bucketing {
            s: 0,
            inner: Box::new(AggregatorKind::Median),
        });
        assert!(matches!(
            cfg.try_validate(&h),
            Err(ConfigError::AggregatorOutOfRange { level: 1, .. })
        ));

        cfg.levels[1] = LevelAgg::Bra(AggregatorKind::Nnm {
            k: 2,
            inner: Box::new(AggregatorKind::Bucketing {
                s: 2,
                inner: Box::new(AggregatorKind::Median),
            }),
        });
        let err = cfg.try_validate(&h).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::NestedPreAggregation { level: 1 }
        ));
        assert!(err.to_string().contains("single-layer"), "{err}");
    }

    #[test]
    fn dirichlet_and_heterogeneity_are_range_checked() {
        let mut cfg = HflConfig::paper_iid(AttackCfg::None, 0);
        let h = cfg.topology.build(0);
        cfg.distribution = DataDistribution::Dirichlet { alpha: 0.3 };
        assert_eq!(cfg.try_validate(&h), Ok(()));
        cfg.distribution = DataDistribution::Dirichlet { alpha: 0.0 };
        assert!(matches!(
            cfg.try_validate(&h),
            Err(ConfigError::DirichletAlphaOutOfRange { .. })
        ));
        cfg.distribution = DataDistribution::Iid;

        cfg.heterogeneity = Some(HeterogeneityCfg::mixed_devices());
        assert_eq!(cfg.try_validate(&h), Ok(()));
        cfg.heterogeneity = Some(HeterogeneityCfg {
            compute_spread: 0.5,
            bandwidth_spread: 2.0,
        });
        let err = cfg.try_validate(&h).unwrap_err();
        assert!(
            matches!(
                err,
                ConfigError::HeterogeneityOutOfRange {
                    what: "compute_spread",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn static_model_attack_params_are_range_checked() {
        let mut cfg = HflConfig::paper_iid(
            AttackCfg::Model {
                attack: ModelAttack::Scaling { factor: -1.5 },
                proportion: 0.25,
                placement: Placement::Prefix,
            },
            0,
        );
        let h = cfg.topology.build(0);
        assert_eq!(cfg.try_validate(&h), Ok(()));
        cfg.attack = AttackCfg::Model {
            attack: ModelAttack::Scaling { factor: 0.0 },
            proportion: 0.25,
            placement: Placement::Prefix,
        };
        let err = cfg.try_validate(&h).unwrap_err();
        assert!(matches!(err, ConfigError::ModelAttackOutOfRange { .. }));
        assert!(err.to_string().contains("scaling factor"), "{err}");
        // The parameterless AGR attacks always validate.
        for attack in [ModelAttack::MinMax, ModelAttack::MinSum] {
            cfg.attack = AttackCfg::Model {
                attack,
                proportion: 0.25,
                placement: Placement::Prefix,
            };
            assert_eq!(cfg.try_validate(&h), Ok(()));
        }
    }

    #[test]
    fn faults_compose_with_arms_race() {
        let mut cfg = HflConfig::paper_iid(AttackCfg::None, 0);
        let h = cfg.topology.build(0);
        assert!(!cfg.arms_race());
        cfg.faults = Some(hfl_faults::FaultPlan::new().crash_stop(5, 3));
        cfg.suspicion = Some(SuspicionConfig::default());
        assert!(cfg.arms_race());
        assert_eq!(cfg.try_validate(&h), Ok(()));
        cfg.protocol_attack = Some(ProtocolAttack::Withhold);
        assert_eq!(cfg.try_validate(&h), Ok(()));
    }

    #[test]
    fn try_validate_checks_fault_plans() {
        let mut cfg = HflConfig::paper_iid(AttackCfg::None, 0);
        let h = cfg.topology.build(0);
        cfg.faults = Some(hfl_faults::FaultPlan::new().crash_stop(5, 3));
        assert_eq!(cfg.try_validate(&h), Ok(()));
        // Node 999 doesn't exist in the 64-client paper topology.
        cfg.faults = Some(hfl_faults::FaultPlan::new().crash_stop(5, 999));
        let err = cfg.try_validate(&h).unwrap_err();
        assert!(matches!(err, ConfigError::Faults(_)));
        assert!(err.to_string().contains("node 999"), "{err}");
    }
}
