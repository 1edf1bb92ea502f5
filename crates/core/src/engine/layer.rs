//! The layer hook contract: what a pluggable round layer may observe
//! and decide at each phase of [`super::RoundEngine`]'s canonical round.
//!
//! A layer is consulted at fixed points; every hook defaults to a
//! no-op, so a layer only implements the phases it cares about. Hooks
//! come in two flavours:
//!
//! * **Decision hooks** are first-claim-wins in stack order
//!   ([`RoundLayer::select_collector`], [`RoundLayer::broadcast_reach`],
//!   [`RoundLayer::upward_value`], [`RoundLayer::select_top`],
//!   [`RoundLayer::dissemination_reach`],
//!   [`RoundLayer::training_attack`]). Most return `Option<T>`;
//!   `select_top` fills a caller buffer and claims with `true`.
//!   Declining everywhere falls back to the engine's fault-free
//!   default.
//! * **Filter/observer hooks** run for *every* layer in stack order
//!   ([`RoundLayer::filter_members`], [`RoundLayer::observe_verdict`],
//!   [`RoundLayer::audit_cluster`], [`RoundLayer::close_round`], ...):
//!   each layer sees the previous layer's output.
//!
//! The stack order is fixed by [`super::RoundEngine::for_experiment`]:
//! faults first (the physical world acts before anyone reasons about
//! it), then the defense, then the adversary (which reacts to what the
//! defense left standing).

use hfl_attacks::ModelAttack;
use hfl_robust::evidence::Acceptance;
use hfl_snapshot::LayerState;
use hfl_telemetry::{FaultRecord, SuspicionRecord};

use super::cost::CostCounters;
use super::telemetry::TelemetryLayer;

/// Mutable per-round context shared by the engine and its layers: the
/// cost ledger, the telemetry emitter, and the manifest logs.
pub struct RoundCtx<'r> {
    /// The global round index.
    pub round: usize,
    /// Payload size of one model transfer (`4 · d` bytes).
    pub model_bytes: u64,
    /// The run's cost accumulators.
    pub cost: &'r mut CostCounters,
    /// Structured-event emitter (no-ops when recording is disabled).
    pub telem: TelemetryLayer<'r>,
    /// Manifest fault log for this round (filled even when event
    /// recording is disabled, like the per-round time series).
    pub fault_log: &'r mut Vec<FaultRecord>,
    /// Manifest suspicion log for the run.
    pub susp_log: &'r mut Vec<SuspicionRecord>,
    /// Leaders convicted of equivocation during this round's close —
    /// written by the defense layer's audit, consumed by layers later
    /// in the stack (the adversary repairs convicted equivocators).
    pub convicted: Vec<usize>,
}

/// One cluster aggregation site, as the hooks see it.
pub struct ClusterCtx<'c> {
    /// Aggregation level (0 = top).
    pub level: usize,
    /// The hierarchy's bottom level.
    pub bottom: usize,
    /// Cluster index within the level.
    pub index: usize,
    /// Member slot ids (global node ids).
    pub members: &'c [usize],
    /// The slot that owns the collection role.
    pub leader: usize,
    /// How many members were expected before faults (the churn-present
    /// count at the bottom, the full cluster above).
    pub expected: usize,
    /// This round's churn presence mask over all clients.
    pub active: &'c [bool],
    /// Physical device collecting for this cluster (differs from
    /// `leader` after a failover).
    pub collector: usize,
    /// The global client id bound to each cohort slot this round,
    /// ascending (identity — `cohort[i] == i` — without sampling).
    /// Topological state (members, leaders, churn, faults) lives on
    /// slots; identity-bound state (malicious flags, suspicion,
    /// convictions, heterogeneity) maps through [`ClusterCtx::global`].
    pub cohort: &'c [usize],
}

impl ClusterCtx<'_> {
    /// True at the hierarchy's bottom (client) level, where training
    /// updates enter and most layers act.
    pub fn at_bottom(&self) -> bool {
        self.level == self.bottom
    }

    /// The global client id bound to cohort slot `slot` this round.
    pub fn global(&self, slot: usize) -> usize {
        self.cohort[slot]
    }
}

/// How an aggregation point collects its members' updates (DESIGN.md
/// §12): the synchronous barrier, or a deadline-driven buffer closing
/// on first-of `{quorum, deadline}` with a τ-bounded staleness window.
/// Decided per cluster through the first-`Some`-wins
/// [`RoundLayer::collector_policy`] hook; the engine's fallback derives
/// from `HflConfig::async_rounds` (`None` ⇒ `WaitForQuorum`, the
/// `deadline = ∞` special case).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollectorPolicy {
    /// Block until the quorum's updates are in — the synchronous
    /// barrier every config predating async rounds runs.
    WaitForQuorum,
    /// Admit arrivals as they come; close at
    /// `min(deadline, quorum arrival time)`. Arrivals within
    /// `staleness_bound` µs after close are admitted at discounted
    /// weight, later ones dropped.
    Deadline {
        /// Buffer deadline, µs from open.
        deadline_us: u64,
        /// Staleness bound τ, µs past close.
        staleness_bound_us: u64,
    },
}

/// A layer's answer to "who collects for this cluster?".
pub enum CollectorChoice {
    /// Proceed with this physical device as the collector.
    Collect {
        /// The collecting device id.
        device: usize,
    },
    /// Nobody can collect; the layer has recorded why and the engine
    /// skips the cluster for this round.
    SkipCluster,
}

/// A pluggable layer of the round engine. All hooks default to no-ops;
/// see the module docs for stack-order semantics.
#[allow(unused_variables)]
pub trait RoundLayer {
    /// Short stable identifier, used in introspection and docs.
    fn name(&self) -> &'static str;

    /// Round-open phase, before local training. Called once per round
    /// by [`super::RoundEngine::run_round`] (not by the bare
    /// aggregation entry point): scheduled-fault activation is
    /// announced here.
    fn open_round(&mut self, ctx: &mut RoundCtx<'_>) {}

    /// Reset per-aggregation state (slot freshness, per-round audit and
    /// feedback accumulators). Called at the top of every aggregation.
    fn begin_aggregate(&mut self, round: usize) {}

    /// The crafted model attack malicious clients substitute this
    /// round, when this layer steers one (the adaptive adversary).
    fn training_attack(&self) -> Option<ModelAttack> {
        None
    }

    /// True when this layer wants per-input acceptance verdicts
    /// ([`RoundLayer::observe_verdict`]) computed at the bottom level.
    fn wants_verdicts(&self) -> bool {
        false
    }

    /// Choose the physical collector for a cluster (`cl.collector`
    /// still holds the default, the leader slot). A fault layer
    /// promotes a deputy over a crashed leader here.
    fn select_collector(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        cl: &ClusterCtx<'_>,
    ) -> Option<CollectorChoice> {
        None
    }

    /// Remove members that cannot contribute (crashed, partitioned,
    /// quarantined, withholding...). `present` holds member indices
    /// into `cl.members`; churn-absent members are already gone.
    fn filter_members(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        cl: &ClusterCtx<'_>,
        present: &mut Vec<usize>,
    ) {
    }

    /// Reorder the shuffled arrival order (stragglers arrive last).
    fn reorder_arrivals(&self, round: usize, cl: &ClusterCtx<'_>, order: &mut Vec<usize>) {}

    /// How this cluster collects (first `Some` wins). `None` everywhere
    /// falls back to the config's `async_rounds` policy.
    fn collector_policy(&self, round: usize, cl: &ClusterCtx<'_>) -> Option<CollectorPolicy> {
        None
    }

    /// Multiplier on a member slot's synthesized link delay under a
    /// deadline policy (first `Some` wins; 1.0 otherwise). The fault
    /// layer routes `StragglerWindow` factors through here so
    /// stragglers actually risk missing deadlines.
    fn arrival_delay_factor(&self, round: usize, slot: usize) -> Option<f64> {
        None
    }

    /// True when this layer makes the member slot stall its upload
    /// until *just inside* the staleness bound τ of the cluster's
    /// buffer (the `StalenessExploit` adversary). Any layer answering
    /// true stalls the slot.
    fn stalls_until_stale(&self, round: usize, cl: &ClusterCtx<'_>, slot: usize) -> bool {
        false
    }

    /// How many members the leader's partial-broadcast reaches (BRA
    /// levels only). Default: the whole cluster.
    fn broadcast_reach(&self, round: usize, cl: &ClusterCtx<'_>) -> Option<u64> {
        None
    }

    /// Observe the per-input acceptance verdict of a bottom cluster's
    /// aggregation. `kept[i]` is the device whose update was input `i`.
    /// The defense turns strikes into suspicion; the adversary reads
    /// acceptance as its feedback signal.
    fn observe_verdict(&mut self, cl: &ClusterCtx<'_>, kept: &[usize], verdict: &Acceptance) {}

    /// The value the cluster's leader actually sends upward, when it
    /// differs from the honest partial (equivocation).
    fn upward_value(&self, cl: &ClusterCtx<'_>, partial: &[f32]) -> Option<Vec<f32>> {
        None
    }

    /// Audit the cluster's consensus/echo phase: `partial` is what the
    /// members saw, `up` what went upward. The defense collects echo
    /// digests here (and pays their cost).
    fn audit_cluster(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        cl: &ClusterCtx<'_>,
        partial: &[f32],
        up: &[f32],
    ) {
    }

    /// The cluster aggregated successfully (slot bookkeeping).
    fn after_cluster(&mut self, ctx: &mut RoundCtx<'_>, cl: &ClusterCtx<'_>) {}

    /// The cluster produced nothing this round (no collector or no
    /// contributors survived the filters).
    fn cluster_skipped(&mut self, ctx: &mut RoundCtx<'_>, cl: &ClusterCtx<'_>) {}

    /// Choose which top-cluster slots propose to the global
    /// aggregation by filling `out` (handed in empty) and returning
    /// `true` to claim the decision; the first claiming layer in stack
    /// order wins. Declining everywhere (`false`, the default) keeps
    /// every top slot. The fill-a-buffer shape (rather than returning
    /// `Option<Vec<usize>>`) lets the engine reuse one workspace buffer
    /// across rounds on the zero-allocation hot path.
    fn select_top(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        top: &ClusterCtx<'_>,
        out: &mut Vec<usize>,
    ) -> bool {
        false
    }

    /// How many level-`level` nodes the dissemination broadcast
    /// reaches. Default: all of them.
    fn dissemination_reach(&self, round: usize, level: usize) -> Option<u64> {
        None
    }

    /// Round-close phase, after dissemination: echo convictions,
    /// suspicion transitions, adversary adaptation — in stack order, so
    /// the defense's convictions (via [`RoundCtx::convicted`]) are
    /// visible to the adversary's close.
    fn close_round(&mut self, ctx: &mut RoundCtx<'_>) {}

    /// This layer's cross-round state at the top of `round` (that many
    /// rounds completed, none in flight), for an engine checkpoint.
    /// `None` means the layer is stateless across rounds and needs
    /// nothing restored on resume.
    fn snapshot_state(&self, round: usize) -> Option<LayerState> {
        None
    }

    /// Restores the state captured by [`RoundLayer::snapshot_state`] at
    /// the same `round`, onto a freshly built layer. The default
    /// rejects: a layer that snapshots must also restore, and a
    /// stateless layer must never be handed state.
    fn restore_state(&mut self, round: usize, state: &LayerState) -> Result<(), String> {
        Err(format!(
            "layer '{}' has no restorable state (got {})",
            self.name(),
            state.layer_name()
        ))
    }
}
