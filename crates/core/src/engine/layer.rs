//! What the engine's three layers see when [`super::RoundEngine`] calls
//! them: the round's shared context and one aggregation site.
//!
//! The layers are fixed (DESIGN.md §9): [`super::fault::FaultLayer`],
//! [`super::defense::DefenseLayer`] and
//! [`super::adversary::AdversaryLayer`], each present or absent by the
//! config. The engine calls a present layer's inherent methods where it
//! acts, so each round's call order reads top to bottom in
//! `RoundEngine::aggregate_round_into`. Every decision (who collects,
//! broadcast and dissemination reach, the top slots, arrival order and
//! delay, stalls, the upward value, the crafted attack) has exactly one
//! layer that can make it. Where more than one layer acts — opening an
//! aggregation, filtering members, observing a verdict, closing the
//! round, and the snapshot/restore pair — they run in the order
//! fault → defense → adversary: the physical world acts before anyone
//! reasons about it, and the adversary reacts to what the defense left
//! standing.

use hfl_telemetry::{FaultRecord, SuspicionRecord, Telemetry};

use super::cost::CostCounters;
use super::phase::PhaseClock;

/// Mutable per-round context shared by the engine and its layers: the
/// cost ledger, the telemetry bundle, the manifest logs and the phase
/// clock.
pub(crate) struct RoundCtx<'r> {
    /// The global round index.
    pub round: usize,
    /// Payload size of one model transfer (`4 · d` bytes).
    pub model_bytes: u64,
    /// The run's cost accumulators.
    pub cost: &'r mut CostCounters,
    /// Events and registry (events build only while recording).
    pub telem: &'r Telemetry,
    /// Manifest fault log for this round (filled even when event
    /// recording is disabled, like the per-round time series).
    pub fault_log: &'r mut Vec<FaultRecord>,
    /// Manifest suspicion log for the run.
    pub susp_log: &'r mut Vec<SuspicionRecord>,
    /// The engine's phase clock (write-only: nothing reads it back).
    pub phases: &'r mut PhaseClock,
}

/// One cluster aggregation site, as the layers see it.
pub(crate) struct ClusterCtx<'c> {
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
