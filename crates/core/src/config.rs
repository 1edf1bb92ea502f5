//! Experiment configuration: everything needed to reproduce a run from a
//! single seed.

use rand::rngs::StdRng;
use rand::SeedableRng;

use hfl_attacks::{AdaptiveAttack, DataAttack, ModelAttack, Placement, ProtocolAttack};
use hfl_consensus::ConsensusKind;
use hfl_faults::{FaultPlan, FaultPlanError};
use hfl_ml::synth::SynthConfig;
use hfl_ml::{LinearSoftmax, Mlp, Model, SgdConfig};
use hfl_robust::{krum, AggregatorKind, SuspicionConfig};
use hfl_simnet::{DelayModel, Hierarchy};

use crate::correction::CorrectionPolicy;

/// The most devices a hierarchy's levels may hold between them (a
/// leader counts once per level it sits at). Far above any round that
/// trains (every client trains a model each round), far below what
/// building the levels would exhaust.
const MAX_TOPOLOGY_NODES: usize = 1 << 20;

/// The most parameters a model may hold. Far above any model the
/// experiments train (the largest has 4,810), far below what the
/// per-device copies would exhaust.
const MAX_MODEL_PARAMS: usize = 1 << 24;

/// The largest client population a run may sample from. Far above the
/// 10⁶ of the scale study, far below what the per-client identity state
/// (malicious flags, shard plans) would exhaust.
const MAX_POPULATION: usize = 1 << 28;

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
    /// levels hold more than 2^20 devices between them.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
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
        Err(ConfigError::at("topology", None)((what, value)))
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
    /// The parameter count of the model [`ModelCfg::build`] makes for a
    /// `dim`-dimensional `classes`-way task; `None` on overflow.
    pub(crate) fn params(&self, dim: usize, classes: usize) -> Option<usize> {
        let layer = |inputs: usize, outputs: usize| inputs.checked_add(1)?.checked_mul(outputs);
        match *self {
            ModelCfg::Linear => layer(dim, classes),
            ModelCfg::Mlp { hidden } => layer(dim, hidden)?.checked_add(layer(hidden, classes)?),
        }
    }

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
    ///
    /// One ordered list of rows; the first that fails is the error. A
    /// parameter whose type lives in another crate is checked by that
    /// type's own `validate`, beside the asserts it mirrors; the rows
    /// stated here are this config's own fields and the cross-field
    /// rules only the config can state.
    pub fn try_validate(&self, hierarchy: &Hierarchy) -> Result<(), ConfigError> {
        let (levels, clients) = (hierarchy.num_levels(), hierarchy.num_clients());
        let (data, at) = (&self.data, |section| ConfigError::at(section, None));
        let count = |what, got, expected| match got == expected {
            true => Ok(()),
            false => Err(ConfigError::CountMismatch {
                what,
                got,
                expected,
            }),
        };
        let (rounds, iters, every) = (self.rounds, self.local_iters, self.eval_every);
        let (quorum, flag, churn) = (self.quorum, self.flag_level, self.churn_leave_prob);
        let proportion = self.attack.proportion();
        for (section, what, value, ok) in [
            ("rounds", "count (>= 1)", rounds as f64, rounds >= 1),
            ("local_iters", "count (>= 1)", iters as f64, iters >= 1),
            ("eval_every", "interval (>= 1)", every as f64, every >= 1),
            (
                "quorum",
                "φ (in (0, 1])",
                quorum,
                quorum > 0.0 && quorum <= 1.0,
            ),
            (
                "flag_level",
                "level (in 1..levels)",
                flag as f64,
                (1..levels).contains(&flag),
            ),
            (
                "attack",
                "proportion (in [0, 1])",
                proportion,
                (0.0..=1.0).contains(&proportion),
            ),
            (
                "churn_leave_prob",
                "probability (in [0, 1))",
                churn,
                (0.0..1.0).contains(&churn),
            ),
        ] {
            row(section, what, value, ok)?;
        }
        data.validate().map_err(at("data"))?;
        self.sgd.validate().map_err(at("sgd"))?;
        if let ModelCfg::Mlp { hidden } = self.model {
            row("model", "hidden width (>= 1)", hidden as f64, hidden >= 1)?;
        }
        let params = self.model.params(data.dim, data.num_classes);
        let size = params.map_or(f64::INFINITY, |p| p as f64);
        let what = "parameters (<= 2^24)";
        row("model", what, size, size <= MAX_MODEL_PARAMS as f64)?;
        match &self.attack {
            AttackCfg::None => Ok(()),
            AttackCfg::Data { attack, .. } => attack.validate(data.dim, data.num_classes),
            AttackCfg::Model { attack, .. } => attack.validate(),
            AttackCfg::Adaptive { attack, .. } => attack.validate(),
        }
        .map_err(at("attack"))?;
        match self.distribution {
            DataDistribution::Iid => {}
            DataDistribution::NonIid {
                labels_per_client: n,
            } => {
                let what = "labels_per_client (in 1..=num_classes)";
                row(
                    "distribution",
                    what,
                    n as f64,
                    (1..=data.num_classes).contains(&n),
                )?;
            }
            DataDistribution::Dirichlet { alpha } => {
                let what = "dirichlet alpha (finite, > 0)";
                row(
                    "distribution",
                    what,
                    alpha,
                    alpha.is_finite() && alpha > 0.0,
                )?;
            }
        }
        if let Some(h) = &self.heterogeneity {
            for (what, spread) in [
                ("compute_spread (finite, >= 1)", h.compute_spread),
                ("bandwidth_spread (finite, >= 1)", h.bandwidth_spread),
            ] {
                let ok = spread.is_finite() && spread >= 1.0;
                row("heterogeneity", what, spread, ok)?;
            }
        }
        self.suspicion
            .map_or(Ok(()), |s| s.validate())
            .map_err(at("suspicion"))?;
        self.protocol_attack
            .as_ref()
            .map_or(Ok(()), ProtocolAttack::validate)
            .map_err(at("protocol_attack"))?;
        self.correction.validate().map_err(at("correction"))?;

        // The cross-field rows only the config can state.
        let what = "levels (one per hierarchy level)";
        count(what, self.levels.len(), levels)?;
        // A consensus top votes on validation accuracy: every member of
        // the top cluster scores on its own non-empty shard of the test
        // set.
        let voters = hierarchy.level(0).clusters.iter().map(|c| c.len()).max();
        let test = data.test_samples;
        let shards = matches!(self.levels[0], LevelAgg::Bra(_)) || Some(test) >= voters;
        let what = "test_samples (>= the top cluster's size: a validation shard per voter)";
        row("data", what, test as f64, shards)?;
        if let Some(s) = &self.sampling {
            let (cohort, population) = (s.cohort_size, s.population);
            row("sampling", "cohort_size (>= 1)", cohort as f64, cohort >= 1)?;
            let fills = (cohort..=MAX_POPULATION).contains(&population);
            let what = "population (in cohort_size..=2^28)";
            row("sampling", what, population as f64, fills)?;
            // The hierarchy's bottom level *is* the cohort: every slot
            // must be bound to a sampled client each round.
            count(
                "sampling.cohort_size (the hierarchy's clients)",
                cohort,
                clients,
            )?;
        }
        if let DataDistribution::Dirichlet { .. } = self.distribution {
            // The Dirichlet deal leaves no client empty.
            let population = self.sampling.map_or(clients, |s| s.population);
            let samples = data.train_samples;
            let what = "train_samples (>= the population under a Dirichlet partition)";
            row("data", what, samples as f64, samples >= population)?;
        }
        if let Some(mask) = &self.malicious_override {
            // Malicious flags are identity-bound: under sampling the mask
            // covers the whole population, not just one round's cohort.
            let population = self.sampling.map_or(clients, |s| s.population);
            count(
                "malicious_override (one flag per client)",
                mask.len(),
                population,
            )?;
        }
        for (level, agg) in self.levels.iter().enumerate() {
            let at = ConfigError::at("levels", Some(level));
            match agg {
                LevelAgg::Bra(kind) => {
                    kind.validate().map_err(at)?;
                    // The composition contract is single-layer
                    // (DESIGN.md §13).
                    use AggregatorKind::{Bucketing, Nnm};
                    if let Bucketing { inner, .. } | Nnm { inner, .. } = kind {
                        if let Bucketing { .. } | Nnm { .. } = **inner {
                            return Err(ConfigError::Incompatible {
                                level: Some(level),
                                what: "a pre-aggregation nested in another (composition is single-layer)",
                            });
                        }
                    }
                }
                LevelAgg::Cba(kind) => {
                    for cluster in &hierarchy.level(level).clusters {
                        kind.validate(cluster.len()).map_err(&at)?;
                    }
                }
            }
        }
        if self.strict_guarantees {
            if let Some((level, f, n_min)) = self.krum_unsound_levels(hierarchy).next() {
                return Err(ConfigError::KrumUnsound { level, f, n_min });
            }
        }
        if let Some(plan) = &self.faults {
            plan.validate(hierarchy).map_err(ConfigError::Faults)?;
        }
        let exploit = matches!(self.protocol_attack, Some(ProtocolAttack::StalenessExploit));
        let Some(a) = &self.async_rounds else {
            return match exploit {
                // The exploit is defined relative to an async close time.
                true => Err(ConfigError::Incompatible {
                    level: None,
                    what: "StalenessExploit without async_rounds (it stalls relative to a buffer close)",
                }),
                false => Ok(()),
            };
        };
        let deadline = a.deadline_us;
        row(
            "async_rounds",
            "deadline_us (>= 1)",
            deadline as f64,
            deadline >= 1,
        )?;
        for &(level, d) in &a.tier_deadlines {
            let what = "tier_deadlines level (below the level count)";
            row("async_rounds", what, level as f64, level < levels)?;
            row("async_rounds", "tier deadline (>= 1)", d as f64, d >= 1)?;
        }
        a.link_delay
            .validate()
            .map_err(at("async_rounds.link_delay"))?;
        // A staleness exploit stalls until *just inside* τ; with τ = 0
        // there is no inside and the attack degenerates to Withhold —
        // reject the ambiguity.
        let (tau, what) = (
            a.staleness_bound_us,
            "staleness_bound_us under StalenessExploit (>= 1)",
        );
        row("async_rounds", what, tau as f64, !exploit || tau >= 1)
    }

    /// The Krum-family levels whose `n ≥ 2f + 3` guarantee does not hold,
    /// as `(level, f, n_min)`: the assumed Byzantine count and the fewest
    /// inputs a cluster at that level selects among — its smallest
    /// cluster, capped by `SampledKrum`'s bucket budget. Strict mode
    /// refuses the first; otherwise the run records each as an anomaly.
    pub(crate) fn krum_unsound_levels<'a>(
        &'a self,
        hierarchy: &'a Hierarchy,
    ) -> impl Iterator<Item = (usize, usize, usize)> + 'a {
        self.levels
            .iter()
            .enumerate()
            .filter_map(move |(level, agg)| {
                let (f, cap) = match agg {
                    LevelAgg::Bra(
                        AggregatorKind::Krum { f } | AggregatorKind::MultiKrum { f, .. },
                    ) => (*f, usize::MAX),
                    LevelAgg::Bra(AggregatorKind::SampledKrum { f, m }) => (*f, *m),
                    _ => return None,
                };
                // The inputs a level-l cluster aggregates come from its own
                // members (level-(l+1) leaders or bottom clients), so its own
                // size bounds n.
                let clusters = &hierarchy.level(level).clusters;
                let n_min = clusters.iter().map(|c| c.len()).min().unwrap_or(0).min(cap);
                (!krum::guarantee_holds(f, n_min)).then_some((level, f, n_min))
            })
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
}

/// Why an [`HflConfig`] (or a pipelined run's
/// [`crate::pipeline::PipelineConfig`]) cannot run.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A parameter outside the range its owner accepts.
    OutOfRange {
        /// Where the parameter sits: the config field (`"rounds"`,
        /// `"data"`, `"levels"`, `"async_rounds.link_delay"`,
        /// `"pipeline.train_delay"`, …).
        section: &'static str,
        /// The hierarchy level, for a per-level rule.
        level: Option<usize>,
        /// Which parameter, as its owner names it (a config field's own
        /// row adds the range it must lie in).
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A length that must match one of the hierarchy's counts.
    CountMismatch {
        /// What is counted, and what it must match.
        what: &'static str,
        /// The configured length.
        got: usize,
        /// The hierarchy's count.
        expected: usize,
    },
    /// A combination the protocol does not define: a pre-aggregation
    /// nested in another, or `StalenessExploit` without `async_rounds`.
    Incompatible {
        /// The hierarchy level, for a per-level rule.
        level: Option<usize>,
        /// What is combined.
        what: &'static str,
    },
    /// With `strict_guarantees`, a Krum-family level whose smallest
    /// cluster violates `n ≥ 2f + 3`.
    KrumUnsound {
        /// The offending level.
        level: usize,
        /// Configured Byzantine count.
        f: usize,
        /// Smallest cluster size at that level.
        n_min: usize,
    },
    /// The fault plan doesn't fit the hierarchy.
    Faults(FaultPlanError),
}

impl ConfigError {
    /// Places an owner's `(which parameter, its value)` verdict at the
    /// config `section` (and `level`) it was found in.
    pub(crate) fn at(
        section: &'static str,
        level: Option<usize>,
    ) -> impl Fn((&'static str, f64)) -> Self {
        move |(what, value)| ConfigError::OutOfRange {
            section,
            level,
            what,
            value,
        }
    }
}

/// One row of a range check: `section`'s `what` is out of range at
/// `value` unless `ok`.
pub(crate) fn row(
    section: &'static str,
    what: &'static str,
    value: f64,
    ok: bool,
) -> Result<(), ConfigError> {
    match ok {
        true => Ok(()),
        false => Err(ConfigError::at(section, None)((what, value))),
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::OutOfRange {
                section,
                level: Some(level),
                what,
                value,
            } => write!(f, "{section}[{level}]: {what} out of range ({value})"),
            ConfigError::OutOfRange {
                section,
                level: None,
                what,
                value,
            } => write!(f, "{section}: {what} out of range ({value})"),
            ConfigError::CountMismatch {
                what,
                got,
                expected,
            } => write!(f, "{what}: config has {got}, hierarchy has {expected}"),
            ConfigError::Incompatible {
                level: Some(level),
                what,
            } => write!(f, "levels[{level}]: {what}"),
            ConfigError::Incompatible { level: None, what } => write!(f, "{what}"),
            ConfigError::KrumUnsound { level, f: byz, n_min } => write!(
                f,
                "Krum guarantee n >= 2f + 3 violated at level {level}: f = {byz} needs clusters of at least {}, smallest has {n_min}",
                byz.saturating_mul(2).saturating_add(3)
            ),
            ConfigError::Faults(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;
    use hfl_faults::FaultKind;
    use hfl_ml::sgd::LrSchedule;

    #[test]
    fn paper_config_is_consistent() {
        let cfg = HflConfig::paper_iid(AttackCfg::None, 0);
        let h = cfg.topology.build(cfg.seed);
        assert_eq!(cfg.try_validate(&h), Ok(()));
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
    fn wrong_levels_length_is_an_err() {
        let mut cfg = HflConfig::paper_iid(AttackCfg::None, 0);
        cfg.levels.pop();
        let h = cfg.topology.build(0);
        let err = cfg.try_validate(&h).unwrap_err();
        assert!(
            matches!(
                err,
                ConfigError::CountMismatch {
                    got: 2,
                    expected: 3,
                    ..
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("levels"), "{err}");
    }

    #[test]
    fn zero_quorum_is_an_err() {
        let mut cfg = HflConfig::paper_iid(AttackCfg::None, 0);
        cfg.quorum = 0.0;
        let h = cfg.topology.build(0);
        let err = cfg.try_validate(&h).unwrap_err();
        assert!(
            matches!(
                err,
                ConfigError::OutOfRange {
                    section: "quorum",
                    ..
                }
            ),
            "{err:?}"
        );
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
                matches!(
                    prepares(&cfg),
                    Some(ConfigError::OutOfRange {
                        section: "topology",
                        ..
                    })
                ),
                "{:?}",
                cfg.topology
            );
        }
    }

    /// The edges of each numeric type, as [`no_config_field_panics`]
    /// sets them.
    const USIZE: [usize; 3] = [0, 1, usize::MAX];
    const U64: [u64; 3] = [0, 1, u64::MAX];
    const U8: [u8; 3] = [0, 1, u8::MAX];
    const F64: [f64; 7] = [
        0.0,
        1.0,
        -1.0,
        f64::MAX,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    const F32: [f32; 7] = [
        0.0,
        1.0,
        -1.0,
        f32::MAX,
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ];

    type Set = Box<dyn Fn(&mut HflConfig, &mut PipelineConfig)>;

    /// Named one-field edits of a base config and its pipeline timing.
    #[derive(Default)]
    struct Cases(Vec<(String, Set)>);

    impl Cases {
        fn one(&mut self, name: &str, set: impl Fn(&mut HflConfig, &mut PipelineConfig) + 'static) {
            self.0.push((name.to_string(), Box::new(set)));
        }

        /// One case per edge of `edges`, each written in by `set`.
        fn edges<T: Copy + std::fmt::Debug + 'static>(
            &mut self,
            name: &str,
            edges: &[T],
            set: impl Fn(&mut HflConfig, &mut PipelineConfig, T) + Clone + 'static,
        ) {
            for &v in edges {
                let set = set.clone();
                self.0.push((
                    format!("{name} = {v:?}"),
                    Box::new(move |c, p| set(c, p, v)),
                ));
            }
        }

        /// A delay model's variants and each of their parameters.
        fn delays(
            &mut self,
            name: &str,
            set: impl Fn(&mut HflConfig, &mut PipelineConfig, DelayModel) + Clone + 'static,
        ) {
            let s = set.clone();
            self.edges(
                &format!("{name} Constant.micros"),
                &U64,
                move |c, p, micros| s(c, p, DelayModel::Constant { micros }),
            );
            let s = set.clone();
            self.edges(&format!("{name} Uniform.lo"), &U64, move |c, p, lo| {
                s(c, p, DelayModel::Uniform { lo, hi: 1_000 })
            });
            let s = set.clone();
            self.edges(&format!("{name} Uniform.hi"), &U64, move |c, p, hi| {
                s(c, p, DelayModel::Uniform { lo: 10, hi })
            });
            let s = set.clone();
            self.edges(
                &format!("{name} Exponential.mean"),
                &F64,
                move |c, p, mean| s(c, p, DelayModel::Exponential { mean }),
            );
            let s = set.clone();
            self.edges(&format!("{name} LogNormal.mu"), &F64, move |c, p, mu| {
                s(c, p, DelayModel::LogNormal { mu, sigma: 0.5 })
            });
            let s = set.clone();
            self.edges(
                &format!("{name} LogNormal.sigma"),
                &F64,
                move |c, p, sigma| s(c, p, DelayModel::LogNormal { mu: 7.0, sigma }),
            );
            let straggler = |p: f64, factor: f64| DelayModel::Straggler {
                base: Box::new(DelayModel::lan()),
                p,
                factor,
            };
            let s = set.clone();
            self.edges(&format!("{name} Straggler.p"), &F64, move |c, pc, p| {
                s(c, pc, straggler(p, 4.0))
            });
            let s = set.clone();
            self.edges(
                &format!("{name} Straggler.factor"),
                &F64,
                move |c, p, factor| s(c, p, straggler(0.1, factor)),
            );
            self.edges(
                &format!("{name} Straggler.base"),
                &F64,
                move |c, p, mean| {
                    set(
                        c,
                        p,
                        DelayModel::Straggler {
                            base: Box::new(DelayModel::Exponential { mean }),
                            p: 0.1,
                            factor: 4.0,
                        },
                    )
                },
            );
        }
    }

    /// Every edit [`no_config_field_panics`] tries: each field of
    /// `HflConfig` and `PipelineConfig`, and each parameter of each
    /// variant of the enums they hold.
    fn field_edits() -> Cases {
        let mut cases = Cases::default();
        // Topology (the shapes `malformed_topology_is_an_err_not_a_panic`
        // walks in full).
        cases.edges("Ecsm.total_levels", &USIZE, |c, _, total_levels| {
            c.topology = TopologyCfg::Ecsm {
                total_levels,
                m: 4,
                n_top: 4,
            }
        });
        cases.edges("Ecsm.m", &USIZE, |c, _, m| {
            c.topology = TopologyCfg::Ecsm {
                total_levels: 3,
                m,
                n_top: 4,
            }
        });
        cases.edges("Ecsm.n_top", &USIZE, |c, _, n_top| {
            c.topology = TopologyCfg::Ecsm {
                total_levels: 3,
                m: 4,
                n_top,
            }
        });
        let acsm = |n_bottom, total_levels, min_size, max_size| TopologyCfg::AcsmRandom {
            n_bottom,
            total_levels,
            min_size,
            max_size,
        };
        cases.edges("Acsm.n_bottom", &USIZE, move |c, _, v| {
            c.topology = acsm(v, 3, 2, 6)
        });
        cases.edges("Acsm.total_levels", &USIZE, move |c, _, v| {
            c.topology = acsm(64, v, 2, 6)
        });
        cases.edges("Acsm.min_size", &USIZE, move |c, _, v| {
            c.topology = acsm(64, 3, v, 6)
        });
        cases.edges("Acsm.max_size", &USIZE, move |c, _, v| {
            c.topology = acsm(64, 3, 2, v)
        });

        // The horizon: `usize::MAX` rounds or local iterations is a
        // config that runs for ever, so only 0 and 1 (and the same for
        // centered clipping's iteration count below).
        cases.edges("rounds", &USIZE[..2], |c, _, v| c.rounds = v);
        cases.edges("local_iters", &USIZE[..2], |c, _, v| c.local_iters = v);
        cases.edges("pipeline.rounds", &USIZE[..2], |_, p, v| p.rounds = v);

        cases.edges("sgd.lr", &F32, |c, _, v| c.sgd.lr = v);
        cases.edges("sgd.batch_size", &USIZE, |c, _, v| c.sgd.batch_size = v);
        cases.one("sgd.schedule = Constant", |c, _| {
            c.sgd.schedule = LrSchedule::Constant
        });
        cases.one("sgd.schedule = InvSqrt", |c, _| {
            c.sgd.schedule = LrSchedule::InvSqrt
        });
        cases.edges("sgd.schedule Step.every", &USIZE, |c, _, every| {
            c.sgd.schedule = LrSchedule::Step { every, factor: 0.5 }
        });
        cases.edges("sgd.schedule Step.factor", &F32, |c, _, factor| {
            c.sgd.schedule = LrSchedule::Step { every: 1, factor }
        });
        cases.edges("model Mlp.hidden", &USIZE, |c, _, hidden| {
            c.model = ModelCfg::Mlp { hidden }
        });

        cases.edges("data.dim", &USIZE, |c, _, v| c.data.dim = v);
        cases.edges("data.num_classes", &USIZE, |c, _, v| c.data.num_classes = v);
        cases.edges("data.train_samples", &USIZE, |c, _, v| {
            c.data.train_samples = v
        });
        cases.edges("data.test_samples", &USIZE, |c, _, v| {
            c.data.test_samples = v
        });
        cases.edges("data.separation", &F32, |c, _, v| c.data.separation = v);
        cases.edges("data.noise_std", &F32, |c, _, v| c.data.noise_std = v);
        cases.edges("data.seed", &U64, |c, _, v| c.data.seed = v);

        cases.one("distribution = Iid", |c, _| {
            c.distribution = DataDistribution::Iid
        });
        cases.edges(
            "distribution NonIid.labels_per_client",
            &USIZE,
            |c, _, v| {
                c.distribution = DataDistribution::NonIid {
                    labels_per_client: v,
                }
            },
        );
        cases.edges("distribution Dirichlet.alpha", &F64, |c, _, alpha| {
            c.distribution = DataDistribution::Dirichlet { alpha }
        });

        // Every aggregation rule at the bottom level, every consensus
        // mechanism at the top and one level below it.
        let bra = |c: &mut HflConfig, kind| c.levels[2] = LevelAgg::Bra(kind);
        for kind in [
            AggregatorKind::FedAvg,
            AggregatorKind::Median,
            AggregatorKind::GeoMed,
        ] {
            cases.one(&format!("levels[2] = {kind:?}"), move |c, _| {
                bra(c, kind.clone())
            });
        }
        cases.edges("Krum.f", &USIZE, move |c, _, f| {
            bra(c, AggregatorKind::Krum { f })
        });
        cases.edges("MultiKrum.f", &USIZE, move |c, _, f| {
            bra(c, AggregatorKind::MultiKrum { f, m: 3 })
        });
        cases.edges("MultiKrum.m", &USIZE, move |c, _, m| {
            bra(c, AggregatorKind::MultiKrum { f: 1, m })
        });
        cases.edges("TrimmedMean.ratio", &F64, move |c, _, ratio| {
            bra(c, AggregatorKind::TrimmedMean { ratio })
        });
        cases.edges("CenteredClip.tau", &F64, move |c, _, tau| {
            bra(c, AggregatorKind::CenteredClip { tau, iters: 3 })
        });
        cases.edges("CenteredClip.iters", &USIZE[..2], move |c, _, iters| {
            bra(c, AggregatorKind::CenteredClip { tau: 1.0, iters })
        });
        cases.edges(
            "CosineClustering.threshold",
            &F64,
            move |c, _, threshold| bra(c, AggregatorKind::CosineClustering { threshold }),
        );
        cases.edges("AutoGm.kappa", &F64, move |c, _, kappa| {
            bra(c, AggregatorKind::AutoGm { kappa })
        });
        let median = || Box::new(AggregatorKind::Median);
        cases.edges("Bucketing.s", &USIZE, move |c, _, s| {
            bra(c, AggregatorKind::Bucketing { s, inner: median() })
        });
        cases.edges("Nnm.k", &USIZE, move |c, _, k| {
            bra(c, AggregatorKind::Nnm { k, inner: median() })
        });
        cases.one("Bucketing.inner = Nnm", move |c, _| {
            let inner = Box::new(AggregatorKind::Nnm {
                k: 2,
                inner: median(),
            });
            bra(c, AggregatorKind::Bucketing { s: 2, inner })
        });
        cases.edges(
            "StreamingMedian.exact_threshold",
            &USIZE,
            move |c, _, exact_threshold| {
                bra(c, AggregatorKind::StreamingMedian { exact_threshold })
            },
        );
        cases.edges("StreamingTrimmedMean.ratio", &F64, move |c, _, ratio| {
            bra(
                c,
                AggregatorKind::StreamingTrimmedMean {
                    ratio,
                    exact_threshold: 256,
                },
            )
        });
        cases.edges(
            "StreamingTrimmedMean.exact_threshold",
            &USIZE,
            move |c, _, exact_threshold| {
                bra(
                    c,
                    AggregatorKind::StreamingTrimmedMean {
                        ratio: 0.2,
                        exact_threshold,
                    },
                )
            },
        );
        cases.edges("SampledKrum.f", &USIZE, move |c, _, f| {
            bra(c, AggregatorKind::SampledKrum { f, m: 4 })
        });
        cases.edges("SampledKrum.m", &USIZE, move |c, _, m| {
            bra(c, AggregatorKind::SampledKrum { f: 1, m })
        });

        for level in [0, 1] {
            let cba = move |c: &mut HflConfig, kind| c.levels[level] = LevelAgg::Cba(kind);
            let name = |what: &str| format!("levels[{level}] {what}");
            cases.one(&name("VoteMajority"), move |c, _| {
                cba(c, ConsensusKind::VoteMajority)
            });
            // PBFT is left out by name: whether it reaches its quorum
            // turns on which nodes are malicious in a round, not on the
            // config alone.
            cases.edges(&name("Vote.exclude"), &USIZE, move |c, _, exclude| {
                cba(c, ConsensusKind::Vote { exclude })
            });
            cases.edges(&name("Committee.size"), &USIZE, move |c, _, size| {
                cba(c, ConsensusKind::Committee { size, exclude: 1 })
            });
            cases.edges(&name("Committee.exclude"), &USIZE, move |c, _, exclude| {
                cba(c, ConsensusKind::Committee { size: 3, exclude })
            });
            cases.edges(&name("Approx.epsilon"), &F64, move |c, _, epsilon| {
                cba(c, ConsensusKind::Approx { epsilon, trim: 1 })
            });
            cases.edges(&name("Approx.trim"), &USIZE, move |c, _, trim| {
                cba(
                    c,
                    ConsensusKind::Approx {
                        epsilon: 0.01,
                        trim,
                    },
                )
            });
            cases.edges(&name("Gossip.epsilon"), &F64, move |c, _, epsilon| {
                cba(c, ConsensusKind::Gossip { epsilon })
            });
        }
        // Stake voting only at the top, which waits for every proposal:
        // below it, how many of a cluster's members a vote sees under
        // φ < 1 turns on a round's arrivals, as PBFT's quorum does.
        let stake_vote = |c: &mut HflConfig, stakes| {
            c.levels[0] = LevelAgg::Cba(ConsensusKind::StakeVote { stakes })
        };
        cases.one("StakeVote.stakes = []", move |c, _| {
            stake_vote(c, Vec::new())
        });
        cases.one("StakeVote.stakes = [1; 2]", move |c, _| {
            stake_vote(c, vec![1.0; 2])
        });
        cases.edges("StakeVote.stakes[0]", &F64, move |c, _, s| {
            stake_vote(c, vec![s, 1.0, 1.0, 1.0])
        });
        cases.edges("StakeVote.stakes (all)", &F64, move |c, _, s| {
            stake_vote(c, vec![s; 4])
        });
        cases.edges("quorum", &F64, |c, _, v| c.quorum = v);

        // Attacks: every variant's parameters, each family's proportion
        // and placement.
        let data = |c: &mut HflConfig, attack| {
            c.attack = AttackCfg::Data {
                attack,
                proportion: 0.25,
                placement: Placement::Prefix,
            }
        };
        cases.one("attack = None", |c, _| c.attack = AttackCfg::None);
        cases.one("DataAttack LabelFlipRandom", move |c, _| {
            data(c, DataAttack::LabelFlipRandom)
        });
        cases.edges(
            "DataAttack LabelFlipAll.target",
            &U8,
            move |c, _, target| data(c, DataAttack::LabelFlipAll { target }),
        );
        cases.edges("DataAttack FeatureNoise.std", &F32, move |c, _, std| {
            data(c, DataAttack::FeatureNoise { std })
        });
        let backdoor = |offset, width, value, target, fraction| DataAttack::BackdoorTrigger {
            offset,
            width,
            value,
            target,
            fraction,
        };
        cases.edges("Backdoor.offset", &USIZE, move |c, _, v| {
            data(c, backdoor(v, 4, 3.0, 0, 0.5))
        });
        cases.edges("Backdoor.width", &USIZE, move |c, _, v| {
            data(c, backdoor(0, v, 3.0, 0, 0.5))
        });
        cases.edges("Backdoor.value", &F32, move |c, _, v| {
            data(c, backdoor(0, 4, v, 0, 0.5))
        });
        cases.edges("Backdoor.target", &U8, move |c, _, v| {
            data(c, backdoor(0, 4, 3.0, v, 0.5))
        });
        cases.edges("Backdoor.fraction", &F64, move |c, _, v| {
            data(c, backdoor(0, 4, 3.0, 0, v))
        });
        let model = |c: &mut HflConfig, attack| {
            c.attack = AttackCfg::Model {
                attack,
                proportion: 0.25,
                placement: Placement::Prefix,
            }
        };
        cases.one("ModelAttack MinMax", move |c, _| {
            model(c, ModelAttack::MinMax)
        });
        cases.one("ModelAttack MinSum", move |c, _| {
            model(c, ModelAttack::MinSum)
        });
        cases.edges("SignFlip.scale", &F32, move |c, _, scale| {
            model(c, ModelAttack::SignFlip { scale })
        });
        cases.edges("GaussianNoise.std", &F32, move |c, _, std| {
            model(c, ModelAttack::GaussianNoise { std })
        });
        cases.edges("Alie.z", &F32, move |c, _, z| {
            model(c, ModelAttack::Alie { z })
        });
        cases.edges("Ipm.epsilon", &F32, move |c, _, epsilon| {
            model(c, ModelAttack::Ipm { epsilon })
        });
        cases.edges("Mimic.victim", &USIZE, move |c, _, victim| {
            model(c, ModelAttack::Mimic { victim })
        });
        cases.edges("Scaling.factor", &F32, move |c, _, factor| {
            model(c, ModelAttack::Scaling { factor })
        });
        let adaptive = |c: &mut HflConfig, attack| {
            c.attack = AttackCfg::Adaptive {
                attack,
                proportion: 0.25,
                placement: Placement::Prefix,
            }
        };
        cases.edges("Adaptive Alie.z_init", &F32, move |c, _, z_init| {
            adaptive(c, AdaptiveAttack::Alie { z_init, z_max: 6.0 })
        });
        cases.edges("Adaptive Alie.z_max", &F32, move |c, _, z_max| {
            adaptive(c, AdaptiveAttack::Alie { z_init: 1.0, z_max })
        });
        cases.edges("Adaptive Ipm.eps_init", &F32, move |c, _, eps_init| {
            adaptive(
                c,
                AdaptiveAttack::Ipm {
                    eps_init,
                    eps_max: 8.0,
                },
            )
        });
        cases.edges("Adaptive Ipm.eps_max", &F32, move |c, _, eps_max| {
            adaptive(
                c,
                AdaptiveAttack::Ipm {
                    eps_init: 1.0,
                    eps_max,
                },
            )
        });
        cases.edges(
            "Adaptive Scaling.factor_init",
            &F32,
            move |c, _, factor_init| {
                adaptive(
                    c,
                    AdaptiveAttack::Scaling {
                        factor_init,
                        factor_max: 10.0,
                    },
                )
            },
        );
        cases.edges(
            "Adaptive Scaling.factor_max",
            &F32,
            move |c, _, factor_max| {
                adaptive(
                    c,
                    AdaptiveAttack::Scaling {
                        factor_init: 1.0,
                        factor_max,
                    },
                )
            },
        );
        for (family, attack) in [
            (
                "Data",
                AttackCfg::Data {
                    attack: DataAttack::type_i(),
                    proportion: 0.0,
                    placement: Placement::Prefix,
                },
            ),
            (
                "Model",
                AttackCfg::Model {
                    attack: ModelAttack::Alie { z: 1.0 },
                    proportion: 0.0,
                    placement: Placement::Prefix,
                },
            ),
            (
                "Adaptive",
                AttackCfg::Adaptive {
                    attack: AdaptiveAttack::alie_default(),
                    proportion: 0.0,
                    placement: Placement::Prefix,
                },
            ),
        ] {
            let base = attack.clone();
            cases.edges(&format!("{family}.proportion"), &F64, move |c, _, v| {
                c.attack = base.clone();
                let (AttackCfg::Data { proportion, .. }
                | AttackCfg::Model { proportion, .. }
                | AttackCfg::Adaptive { proportion, .. }) = &mut c.attack
                else {
                    unreachable!()
                };
                *proportion = v;
            });
            for placement in [Placement::Prefix, Placement::Random, Placement::Spread] {
                let base = attack.clone();
                cases.one(
                    &format!("{family}.placement = {placement:?}"),
                    move |c, _| {
                        c.attack = base.clone();
                        let (AttackCfg::Data {
                            proportion,
                            placement: p,
                            ..
                        }
                        | AttackCfg::Model {
                            proportion,
                            placement: p,
                            ..
                        }
                        | AttackCfg::Adaptive {
                            proportion,
                            placement: p,
                            ..
                        }) = &mut c.attack
                        else {
                            unreachable!()
                        };
                        (*proportion, *p) = (0.5, placement);
                    },
                );
            }
        }
        cases.edges("Equivocate.flip_scale", &F32, |c, _, flip_scale| {
            c.protocol_attack = Some(ProtocolAttack::Equivocate { flip_scale })
        });
        cases.one("protocol_attack = Withhold", |c, _| {
            c.protocol_attack = Some(ProtocolAttack::Withhold)
        });
        cases.one("protocol_attack = StalenessExploit", |c, _| {
            c.protocol_attack = Some(ProtocolAttack::StalenessExploit)
        });

        cases.edges("correction.alpha_max", &F32, |c, _, v| {
            c.correction.alpha_max = v
        });
        cases.edges("correction.alpha_min", &F32, |c, _, v| {
            c.correction.alpha_min = v
        });
        cases.edges("correction.latency_half_life", &F64, |c, _, v| {
            c.correction.latency_half_life = v
        });
        cases.edges("flag_level", &USIZE, |c, _, v| c.flag_level = v);
        cases.edges("eval_every", &USIZE, |c, _, v| c.eval_every = v);
        cases.edges("seed", &U64, |c, _, v| c.seed = v);
        cases.one("malicious_override = []", |c, _| {
            c.malicious_override = Some(Vec::new())
        });
        cases.one("malicious_override = all", |c, _| {
            c.malicious_override = Some(vec![true; 64])
        });
        cases.edges("churn_leave_prob", &F64, |c, _, v| c.churn_leave_prob = v);
        cases.one("strict_guarantees", |c, _| c.strict_guarantees = true);

        // Faults: each kind's parameters and its activation round.
        let plan = |c: &mut HflConfig, at: usize, kind: FaultKind| {
            c.faults = Some(FaultPlan {
                specs: vec![hfl_faults::FaultSpec { at_round: at, kind }],
            })
        };
        cases.one("faults = empty", |c, _| c.faults = Some(FaultPlan::new()));
        cases.edges("fault at_round", &USIZE, move |c, _, at| {
            plan(c, at, FaultKind::CrashStop { node: 5 })
        });
        cases.edges("CrashStop.node", &USIZE, move |c, _, node| {
            plan(c, 0, FaultKind::CrashStop { node })
        });
        cases.edges("CrashRecover.node", &USIZE, move |c, _, node| {
            plan(
                c,
                0,
                FaultKind::CrashRecover {
                    node,
                    recover_round: 1,
                },
            )
        });
        cases.edges(
            "CrashRecover.recover_round",
            &USIZE,
            move |c, _, recover_round| {
                plan(
                    c,
                    0,
                    FaultKind::CrashRecover {
                        node: 5,
                        recover_round,
                    },
                )
            },
        );
        cases.edges("LeaderKill.level", &USIZE, move |c, _, level| {
            plan(
                c,
                0,
                FaultKind::LeaderKill {
                    level,
                    cluster: 0,
                    recover_round: None,
                },
            )
        });
        cases.edges("LeaderKill.cluster", &USIZE, move |c, _, cluster| {
            plan(
                c,
                0,
                FaultKind::LeaderKill {
                    level: 1,
                    cluster,
                    recover_round: None,
                },
            )
        });
        cases.edges("LeaderKill.recover_round", &USIZE, move |c, _, r| {
            plan(
                c,
                0,
                FaultKind::LeaderKill {
                    level: 0,
                    cluster: 0,
                    recover_round: Some(r),
                },
            )
        });
        cases.edges("Straggler.node", &USIZE, move |c, _, node| {
            plan(
                c,
                0,
                FaultKind::Straggler {
                    node,
                    factor: 4.0,
                    until_round: None,
                },
            )
        });
        cases.edges("Straggler.factor", &F64, move |c, _, factor| {
            plan(
                c,
                0,
                FaultKind::Straggler {
                    node: 5,
                    factor,
                    until_round: None,
                },
            )
        });
        cases.edges("Straggler.until_round", &USIZE, move |c, _, r| {
            plan(
                c,
                0,
                FaultKind::Straggler {
                    node: 5,
                    factor: 4.0,
                    until_round: Some(r),
                },
            )
        });
        cases.edges("LossBurst.prob", &F64, move |c, _, prob| {
            plan(
                c,
                0,
                FaultKind::LossBurst {
                    prob,
                    until_round: 2,
                },
            )
        });
        cases.edges("LossBurst.until_round", &USIZE, move |c, _, until_round| {
            plan(
                c,
                0,
                FaultKind::LossBurst {
                    prob: 0.5,
                    until_round,
                },
            )
        });
        cases.edges("Partition.heal_round", &USIZE, move |c, _, heal_round| {
            plan(
                c,
                0,
                FaultKind::Partition {
                    groups: vec![vec![0, 1], vec![2]],
                    heal_round,
                },
            )
        });
        cases.edges("Partition.groups node", &USIZE, move |c, _, node| {
            plan(
                c,
                0,
                FaultKind::Partition {
                    groups: vec![vec![node], vec![2]],
                    heal_round: 2,
                },
            )
        });
        cases.one("Partition.groups = []", move |c, _| {
            plan(
                c,
                0,
                FaultKind::Partition {
                    groups: Vec::new(),
                    heal_round: 2,
                },
            )
        });
        cases.one("Partition.groups = [[]]", move |c, _| {
            plan(
                c,
                0,
                FaultKind::Partition {
                    groups: vec![Vec::new()],
                    heal_round: 2,
                },
            )
        });
        cases.edges("Churn.leave_prob", &F64, move |c, _, leave_prob| {
            plan(
                c,
                0,
                FaultKind::Churn {
                    leave_prob,
                    until_round: None,
                },
            )
        });
        cases.edges("Churn.until_round", &USIZE, move |c, _, r| {
            plan(
                c,
                0,
                FaultKind::Churn {
                    leave_prob: 0.5,
                    until_round: Some(r),
                },
            )
        });

        cases.edges("suspicion.decay", &F64, |c, _, decay| {
            c.suspicion = Some(SuspicionConfig {
                decay,
                ..SuspicionConfig::default()
            })
        });
        cases.edges(
            "suspicion.quarantine_threshold",
            &F64,
            |c, _, quarantine_threshold| {
                c.suspicion = Some(SuspicionConfig {
                    quarantine_threshold,
                    ..SuspicionConfig::default()
                })
            },
        );
        cases.edges(
            "suspicion.release_threshold",
            &F64,
            |c, _, release_threshold| {
                c.suspicion = Some(SuspicionConfig {
                    release_threshold,
                    ..SuspicionConfig::default()
                })
            },
        );

        // Async collection: a lockstep base gains the LAN buffers first.
        fn lan(c: &mut HflConfig) -> &mut AsyncRoundCfg {
            c.async_rounds.get_or_insert_with(AsyncRoundCfg::lan)
        }
        cases.one("async_rounds = lan", move |c, _| {
            lan(c);
        });
        cases.edges("async.deadline_us", &U64, move |c, _, v| {
            lan(c).deadline_us = v
        });
        cases.edges("async.staleness_bound_us", &U64, move |c, _, v| {
            lan(c).staleness_bound_us = v
        });
        cases.delays("async.link_delay", move |c, _, d| lan(c).link_delay = d);
        cases.edges("async.tier_deadlines level", &USIZE, move |c, _, level| {
            lan(c).tier_deadlines = vec![(level, 10_000)]
        });
        cases.edges("async.tier_deadlines deadline", &U64, move |c, _, d| {
            lan(c).tier_deadlines = vec![(1, d)]
        });

        cases.edges(
            "heterogeneity.compute_spread",
            &F64,
            |c, _, compute_spread| {
                c.heterogeneity = Some(HeterogeneityCfg {
                    compute_spread,
                    bandwidth_spread: 2.0,
                })
            },
        );
        cases.edges(
            "heterogeneity.bandwidth_spread",
            &F64,
            |c, _, bandwidth_spread| {
                c.heterogeneity = Some(HeterogeneityCfg {
                    compute_spread: 2.0,
                    bandwidth_spread,
                })
            },
        );

        cases.edges("sampling.population", &USIZE, |c, _, population| {
            c.sampling = Some(SamplingCfg::uniform(population, 64))
        });
        cases.edges("sampling.cohort_size", &USIZE, |c, _, cohort_size| {
            c.sampling = Some(SamplingCfg::uniform(1_000, cohort_size))
        });
        cases.one("sampling.scheme = Stratified", |c, _| {
            c.sampling = Some(SamplingCfg::stratified(1_000, 64))
        });

        cases.delays("pipeline.train_delay", |_, p, d| p.train_delay = d);
        cases.delays("pipeline.agg_delay", |_, p, d| p.agg_delay = d);
        cases.edges("pipeline.cba_delay_factor", &F64, |_, p, v| {
            p.cba_delay_factor = v
        });
        cases
    }

    /// No config panics. Each edit of [`field_edits`] runs through
    /// `RunOptions::try_run` on two bases — a tiny lockstep config, and
    /// the same config pipelined under `async_rounds` at φ = 0.5 so the
    /// delay, buffer and correction paths run — and must give `Ok` or
    /// `Err`. The 1,422 runs take about 1.3 s under the test profile on a
    /// 2-core x86-64 host.
    #[test]
    fn no_config_field_panics() {
        use crate::run::RunOptions;

        let mut lockstep = HflConfig::quick(
            AttackCfg::Data {
                attack: DataAttack::type_i(),
                proportion: 0.25,
                placement: Placement::Prefix,
            },
            0,
        );
        lockstep.rounds = 1;
        lockstep.local_iters = 1;
        lockstep.eval_every = 1;
        lockstep.data.dim = 16;
        lockstep.data.train_samples = 640;
        lockstep.data.test_samples = 64;
        let pipelined = HflConfig {
            async_rounds: Some(AsyncRoundCfg::lan()),
            quorum: 0.5,
            ..lockstep.clone()
        };
        let pcfg = PipelineConfig {
            rounds: 2,
            ..PipelineConfig::default()
        };

        let mut panicked = Vec::new();
        let (mut ok, mut err) = (0, 0);
        for (case, (name, edit)) in field_edits().0.iter().enumerate() {
            for (base, schedule) in [(&lockstep, None), (&pipelined, Some(&pcfg))] {
                let (mut cfg, mut pcfg) = (base.clone(), pcfg.clone());
                cfg.seed = case as u64;
                edit(&mut cfg, &mut pcfg);
                let run = std::panic::catch_unwind(|| match schedule {
                    None => RunOptions::new().try_run(&cfg).is_ok(),
                    Some(_) => RunOptions::pipeline(&pcfg).try_run(&cfg).is_ok(),
                });
                match run {
                    Ok(true) => ok += 1,
                    Ok(false) => err += 1,
                    Err(_) => panicked.push(format!(
                        "{name} ({})",
                        if schedule.is_some() {
                            "pipelined"
                        } else {
                            "lockstep"
                        }
                    )),
                }
            }
        }
        assert!(
            panicked.is_empty(),
            "{} of {} configs panicked:\n{}",
            panicked.len(),
            ok + err + panicked.len(),
            panicked.join("\n")
        );
        assert!(ok > 0 && err > 0, "{ok} ran, {err} refused");
    }

    #[test]
    fn try_validate_reports_instead_of_panicking() {
        let mut cfg = HflConfig::paper_iid(AttackCfg::None, 0);
        let h = cfg.topology.build(0);
        assert_eq!(cfg.try_validate(&h), Ok(()));
        cfg.quorum = 2.0;
        let err = cfg.try_validate(&h).unwrap_err();
        assert!(matches!(
            err,
            ConfigError::OutOfRange {
                section: "quorum",
                ..
            }
        ));
        assert!(err.to_string().contains("quorum: φ (in (0, 1])"), "{err}");
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
            ("sgd: lr", |c| c.sgd.lr = 0.0),
            ("sgd: lr", |c| c.sgd.lr = -0.5),
            ("sgd: lr", |c| c.sgd.lr = f32::NAN),
            ("sgd: lr", |c| c.sgd.lr = f32::INFINITY),
            ("sgd: batch_size", |c| c.sgd.batch_size = 0),
            ("sgd: schedule step interval", |c| {
                c.sgd.schedule = step(0, 0.5)
            }),
            ("sgd: schedule step factor", |c| {
                c.sgd.schedule = step(3, 0.0)
            }),
            ("sgd: schedule step factor", |c| {
                c.sgd.schedule = step(3, 1.5)
            }),
            ("model: hidden width", |c| {
                c.model = ModelCfg::Mlp { hidden: 0 }
            }),
        ];
        for (needle, spoil) in spoiled {
            let mut cfg = base.clone();
            spoil(&mut cfg);
            let err = cfg.try_validate(&h).unwrap_err();
            assert!(
                matches!(
                    err,
                    ConfigError::OutOfRange {
                        section: "sgd" | "model",
                        ..
                    }
                ),
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
            ConfigError::CountMismatch {
                what,
                got: 32,
                expected: 64
            } if what.starts_with("sampling.cohort_size")
        ));
        // Population below the cohort cannot fill a round.
        cfg.sampling = Some(SamplingCfg::uniform(10, h.num_clients()));
        assert!(matches!(
            cfg.try_validate(&h).unwrap_err(),
            ConfigError::OutOfRange {
                section: "sampling",
                what,
                ..
            } if what.starts_with("population")
        ));
        // Empty cohort is rejected before the mismatch check.
        cfg.sampling = Some(SamplingCfg::uniform(100, 0));
        assert!(matches!(
            cfg.try_validate(&h).unwrap_err(),
            ConfigError::OutOfRange {
                section: "sampling",
                what,
                ..
            } if what.starts_with("cohort_size")
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
            ConfigError::CountMismatch {
                what,
                got: 64,
                expected: 1_000
            } if what.starts_with("malicious_override")
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
                ConfigError::OutOfRange {
                    section: "levels",
                    level: Some(2),
                    ..
                }
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
            Err(ConfigError::OutOfRange {
                section: "attack",
                what,
                ..
            }) if what.starts_with("max magnitude")
        ));

        cfg.attack = AttackCfg::None;
        cfg.suspicion = Some(SuspicionConfig {
            decay: 1.5,
            ..SuspicionConfig::default()
        });
        assert!(matches!(
            cfg.try_validate(&h),
            Err(ConfigError::OutOfRange {
                section: "suspicion",
                what: "decay",
                ..
            })
        ));
        cfg.suspicion = Some(SuspicionConfig::default());
        assert_eq!(cfg.try_validate(&h), Ok(()));

        cfg.protocol_attack = Some(ProtocolAttack::Equivocate { flip_scale: 0.0 });
        assert!(matches!(
            cfg.try_validate(&h),
            Err(ConfigError::OutOfRange {
                section: "protocol_attack",
                ..
            })
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
            matches!(
                err,
                ConfigError::OutOfRange {
                    section: "levels",
                    level: Some(1),
                    ..
                }
            ),
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
            Err(ConfigError::OutOfRange {
                section: "levels",
                level: Some(1),
                ..
            })
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
            ConfigError::Incompatible { level: Some(1), .. }
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
            Err(ConfigError::OutOfRange {
                section: "distribution",
                what,
                ..
            }) if what.starts_with("dirichlet alpha")
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
                ConfigError::OutOfRange {
                    section: "heterogeneity",
                    what,
                    ..
                } if what.starts_with("compute_spread")
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
        assert!(matches!(
            err,
            ConfigError::OutOfRange {
                section: "attack",
                ..
            }
        ));
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
