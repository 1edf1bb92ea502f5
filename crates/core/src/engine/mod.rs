//! The round engine: **one** canonical execution of an ABD-HFL global
//! round, expressed as explicit phases that call the config's layers
//! directly.
//!
//! Phases (paper Algorithms 1–6):
//!
//! 1. **Round open** — scheduled faults activate
//!    (`FaultLayer::open_round`).
//! 2. **Local training** (Algorithm 2) — every client trains in
//!    parallel; the adversary layer may substitute this round's crafted
//!    attack ([`RoundEngine::training_attack`]).
//! 3. **Bottom-up aggregation** (Algorithms 3–4) — per cluster:
//!    collector selection (failover), member filtering (crashes,
//!    partitions, quarantine, withholding), seeded arrival shuffle +
//!    straggler reorder, quorum cut, BRA/CBA aggregation, acceptance
//!    verdicts, upward value (equivocation) and the echo audit.
//! 4. **Global aggregation** (Algorithm 6) — top-slot selection
//!    (fault fallback) and BRA or validation-voting consensus.
//! 5. **Dissemination + round close** (Algorithm 5) — reach-aware
//!    broadcast accounting, then echo convictions, suspicion
//!    transitions and adversary adaptation.
//!
//! There are three layers, each present or absent by the config: the
//! fault layer when a fault plan is compiled, and the defense and
//! adversary layers together when the arms race is engaged. A clean run
//! has none, a faulted run the fault layer, an arms-race run the other
//! two, a combined run all three. The engine calls a present layer where
//! it acts; each decision has exactly one layer that can make it, and
//! where several layers act in one phase they run fault → defense →
//! adversary (`engine/layer.rs`). `tests/golden_manifests.rs` pins each
//! mode's round byte for byte — RNG stream order, cost accounting,
//! event sequence — the combined mode included.
//!
//! The engine also clocks its phases ([`PhaseTimes`]): host wall time,
//! written and never read by a decision, returned beside a run's
//! manifest and never in it.

mod adversary;
mod clock;
pub mod cost;
mod defense;
mod fault;
mod layer;
mod phase;
pub mod pool;
mod step;

pub use cost::CostCounters;
pub use phase::{LevelTimes, PhaseTimes};
pub use pool::RoundWorkspace;

use rand::seq::SliceRandom;

use hfl_attacks::ModelAttack;
use hfl_ml::rng::rng_for_n;
use hfl_robust::SuspicionTracker;
use hfl_snapshot::LayerState;
use hfl_telemetry::{Event, FaultRecord, SuspicionRecord, Telemetry};

use crate::pipeline::{PipelineConfig, PipelineResult};
use crate::runner::{Experiment, RunResult};
use adversary::AdversaryLayer;
use clock::Clock;
use defense::DefenseLayer;
use fault::FaultLayer;
use layer::{ClusterCtx, RoundCtx};
pub(crate) use phase::Phase;
use phase::PhaseClock;

/// Executes canonical rounds for one experiment, calling its fault,
/// defense and adversary layers. The engine owns no RNG state of its
/// own — every stream is derived from `(seed, round, …)`, so a given
/// `(config, seed)` is reproducible regardless of how many engines ran
/// before.
pub struct RoundEngine<'e> {
    exp: &'e Experiment,
    fault: Option<FaultLayer<'e>>,
    defense: Option<DefenseLayer>,
    adversary: Option<AdversaryLayer<'e>>,
    /// The round clock of the pipelined schedule ([`clock`]); `None` is
    /// the lockstep schedule, where nothing is ever stamped.
    clock: Option<Clock<'e>>,
    /// Round-scoped buffer arena ([`pool`]): the leaders' partials,
    /// index scratch, the cluster step's buffers, training buffers.
    /// Taken out for the duration of each aggregation and restored at
    /// its exit, so steady-state rounds allocate nothing.
    workspace: RoundWorkspace,
    /// Wall time per round phase ([`phase`]), write-only.
    phases: PhaseClock,
}

impl<'e> RoundEngine<'e> {
    /// The engine for an experiment's config: the fault layer when a
    /// fault plan is compiled, and the defense + adversary pair when the
    /// arms race is engaged. All absent for a plain config, which makes
    /// the engine the fault-free reference path.
    pub fn for_experiment(exp: &'e Experiment) -> Self {
        Self {
            exp,
            fault: FaultLayer::for_experiment(exp),
            defense: DefenseLayer::for_experiment(exp),
            adversary: AdversaryLayer::for_experiment(exp),
            clock: None,
            workspace: RoundWorkspace::default(),
            phases: PhaseClock::new(exp.hierarchy.bottom_level() + 1),
        }
    }

    /// [`Self::for_experiment`] on the pipelined schedule (paper §III-D)
    /// under `pcfg`'s timing model: the same layers, cluster step,
    /// training body and cost ledger, with the round clock deciding
    /// when — and from which model — every slot starts a round.
    pub fn pipelined(exp: &'e Experiment, pcfg: &PipelineConfig) -> Self {
        Self {
            clock: Some(Clock::new(exp, pcfg)),
            ..Self::for_experiment(exp)
        }
    }

    /// The experiment this engine executes.
    pub(crate) fn experiment(&self) -> &'e Experiment {
        self.exp
    }

    /// Whether the engine runs the pipelined schedule (has a round
    /// clock).
    pub(crate) fn is_pipelined(&self) -> bool {
        self.clock.is_some()
    }

    /// What the pipelined schedule measured, folded with the run's
    /// outcome (`None` under lockstep).
    pub(crate) fn pipeline_result(&self, run: &RunResult) -> Option<PipelineResult> {
        self.clock.as_ref().map(|c| c.result(run))
    }

    /// Charges the wall time since the previous lap to `phase` (the run
    /// loop's own phases: evaluation and the rest).
    pub(crate) fn lap(&mut self, phase: Phase) {
        self.phases.lap(phase);
    }

    /// The phase totals so far; the clock starts over.
    pub(crate) fn take_phases(&mut self) -> PhaseTimes {
        self.phases.take()
    }

    /// The defense's suspicion tracker, when the config enables it.
    pub fn suspicion(&self) -> Option<&SuspicionTracker> {
        self.defense.as_ref().and_then(DefenseLayer::tracker)
    }

    /// The crafted model attack malicious clients substitute this
    /// round (the adaptive adversary's current magnitude), if the
    /// adversary steers one.
    pub fn training_attack(&self) -> Option<ModelAttack> {
        self.adversary
            .as_ref()
            .and_then(AdversaryLayer::training_attack)
    }

    /// Every present layer's cross-round state at the top of `round`,
    /// fault → defense → adversary — the `layers` section of an
    /// [`hfl_snapshot::EngineSnapshot`].
    pub fn snapshot_layers(&self, round: usize) -> Vec<LayerState> {
        [
            self.fault.as_ref().map(|f| f.snapshot_state(round)),
            self.defense.as_ref().map(DefenseLayer::snapshot_state),
            self.adversary.as_ref().map(AdversaryLayer::snapshot_state),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// Restores the states captured by [`Self::snapshot_layers`] onto a
    /// freshly built engine. They must pair with this engine's layers
    /// one to one, fault → defense → adversary — a count or variant
    /// mismatch means the snapshot was captured under a different
    /// config and is rejected.
    pub fn restore_layers(&mut self, round: usize, states: &[LayerState]) -> Result<(), String> {
        let present = [
            self.fault.is_some(),
            self.defense.is_some(),
            self.adversary.is_some(),
        ];
        let layers = present.iter().filter(|&&p| p).count();
        if states.len() != layers {
            return Err(format!(
                "snapshot carries {} layer states but this config runs {layers} layers",
                states.len()
            ));
        }
        let mut states = states.iter();
        if let Some(fault) = &mut self.fault {
            fault.restore_state(round, states.next().expect("counted above"))?;
        }
        if let Some(defense) = &mut self.defense {
            defense.restore_state(states.next().expect("counted above"))?;
        }
        if let Some(adversary) = &mut self.adversary {
            adversary.restore_state(states.next().expect("counted above"))?;
        }
        Ok(())
    }

    /// Executes one full round: round open (scheduled faults),
    /// local training with the current crafted attack, then bottom-up
    /// aggregation, writing the new global model into a caller-owned
    /// buffer. Training and aggregation both draw every buffer they
    /// need from the engine's [`RoundWorkspace`]; with one worker
    /// thread a steady-state round performs zero heap allocation (the
    /// invariant `crates/bench/tests/alloc_regression.rs` pins).
    #[allow(clippy::too_many_arguments)]
    pub fn run_round_into(
        &mut self,
        global: &[f32],
        round: usize,
        cost: &mut CostCounters,
        telem: &Telemetry,
        fault_log: &mut Vec<FaultRecord>,
        susp_log: &mut Vec<SuspicionRecord>,
        out: &mut Vec<f32>,
    ) {
        self.phases.lap(Phase::Other);
        if let Some(fault) = &self.fault {
            fault.open_round(round, telem, fault_log);
        }
        let attack = self.training_attack();
        self.phases.lap(Phase::Open);
        let exp = self.exp;
        // The training buffers leave the workspace for the duration of
        // the round: `updates` must outlive the aggregation call, and
        // the borrow of `self` must stay free for it.
        let mut updates = std::mem::take(&mut self.workspace.updates);
        let mut train = std::mem::take(&mut self.workspace.train);
        if let Some(clock) = &mut self.clock {
            clock.start_round(global, round, &mut train.starts);
        }
        exp.train_round_into(
            global,
            round,
            attack.as_ref(),
            telem,
            &mut updates,
            &mut train,
        );
        self.phases.lap(Phase::Train);
        self.workspace.train = train;
        self.aggregate_round_into(&updates, round, cost, telem, fault_log, susp_log, out);
        self.workspace.updates = updates;
    }

    /// Phases 3–5: one round of bottom-up aggregation over per-client
    /// updates, through the config's layers, writing the new global
    /// model into a caller-owned buffer and accumulating cost counters
    /// and manifest logs. Every intermediate buffer (the leaders'
    /// partials, member-index scratch, aggregation inputs, the per-rule
    /// scratch) comes from the engine's [`RoundWorkspace`] arena, and no
    /// row a level only reads is copied.
    #[allow(clippy::too_many_arguments)]
    pub fn aggregate_round_into(
        &mut self,
        updates: &[Vec<f32>],
        round: usize,
        cost: &mut CostCounters,
        telem: &Telemetry,
        fault_log: &mut Vec<FaultRecord>,
        susp_log: &mut Vec<SuspicionRecord>,
        out: &mut Vec<f32>,
    ) {
        let exp = self.exp;
        let cfg = exp.config();
        let h = &exp.hierarchy;
        let bottom = h.bottom_level();
        let model_bytes = (updates[0].len() * 4) as u64;
        // The workspace leaves the engine for the duration of the round
        // so the layers can borrow `self` freely; restored at the
        // single exit below. Disjoint-field borrows of `ws` (partials vs
        // scratch) coexist because it is a local. The phase clock leaves
        // with it, into the context the cluster step laps through.
        let mut ws = std::mem::take(&mut self.workspace);
        let mut phases = std::mem::take(&mut self.phases);
        exp.active_mask_into(round, &mut ws.active);
        // Which global client each cohort slot is bound to this round
        // (identity without sampling). All topological work below stays
        // on slots; identity-bound lookups map through this binding.
        exp.cohort_into(round, &mut ws.cohort);
        // Every update is ready at t = 0 under lockstep; the clock knows
        // when each training ends, and who is still at the last one.
        match &self.clock {
            Some(clock) => clock.open_buffers(&mut ws.ready_at, &mut ws.active),
            None => ws.ready_at.resize(updates.len(), 0),
        }

        let mut ctx = RoundCtx {
            round,
            model_bytes,
            cost,
            telem,
            fault_log,
            susp_log,
            phases: &mut phases,
        };
        if let Some(fault) = &mut self.fault {
            fault.begin_aggregate(round);
        }
        if let Some(defense) = &mut self.defense {
            defense.begin_aggregate();
        }
        if let Some(adversary) = &mut self.adversary {
            adversary.begin_aggregate();
        }
        for (client, _) in ws.active.iter().enumerate().filter(|(_, a)| !**a) {
            ctx.cost.absent += 1;
            ctx.telem
                .emit_with(|| Event::ChurnAbsence { round, client });
        }
        // The defense strikes on acceptance verdicts and the adversary
        // reads them as feedback; a round without either judges nothing.
        let verdicts = self.defense.is_some() || self.adversary.is_some();
        ctx.phases.lap(Phase::Open);

        // The model a slot carries upward is read where it is: its
        // update until it leads a cluster, that cluster's partial after.
        // No slot sits in two clusters of one level
        // (`Hierarchy::validate`), so a partial that lands is an input of
        // no later cluster of its level.
        ws.partials.open(updates.len());

        // Partial aggregation: levels L down to 1.
        for l in (1..=bottom).rev() {
            let level = h.level(l);
            for (ci, cluster) in level.clusters.iter().enumerate() {
                let leader = cluster.leader();
                let expected = if l == bottom {
                    cluster.members.iter().filter(|&&m| ws.active[m]).count()
                } else {
                    cluster.len()
                };
                let mut cl = ClusterCtx {
                    level: l,
                    bottom,
                    index: ci,
                    members: &cluster.members,
                    leader,
                    expected,
                    active: &ws.active,
                    collector: leader,
                    cohort: &ws.cohort,
                };
                if let Some(fault) = &mut self.fault {
                    match fault.select_collector(&mut ctx, &cl) {
                        Some(device) => cl.collector = device,
                        None => continue,
                    }
                }

                // Churn removes absent bottom members; the layers then
                // take out whatever crashed, partitioned, quarantined
                // or withholding members remain.
                ws.order.clear();
                ws.order.extend(
                    (0..cluster.len()).filter(|&mi| l != bottom || ws.active[cluster.members[mi]]),
                );
                if let Some(fault) = &mut self.fault {
                    fault.filter_members(&mut ctx, &cl, &mut ws.order);
                }
                if let Some(defense) = &mut self.defense {
                    defense.filter_members(&mut ctx, &cl, &mut ws.order);
                }
                if let Some(adversary) = &mut self.adversary {
                    adversary.filter_members(&mut ctx, &cl, &mut ws.order);
                }
                if ws.order.is_empty() {
                    if let Some(fault) = &mut self.fault {
                        fault.cluster_skipped(&cl);
                    }
                    continue;
                }

                // Arrival order: a seeded shuffle, stragglers last.
                let mut rng = rng_for_n(cfg.seed, &[round as u64, l as u64, ci as u64, 0xA221]);
                ws.order.shuffle(&mut rng);
                if let Some(fault) = &self.fault {
                    fault.reorder_arrivals(round, &cl, &mut ws.order);
                }
                for mi in ws.order.iter_mut() {
                    *mi = cluster.members[*mi];
                }

                // The partial is computed into the spare; its inputs —
                // the leader's own row among them — are read in place.
                let mut partial = ws.partials.take_spare();
                let (quorum, verdict) = self.cluster_step(
                    &mut ctx,
                    &cl,
                    &ws.order,
                    ws.partials.over(updates),
                    &ws.ready_at,
                    &mut rng,
                    verdicts && l == bottom,
                    &mut ws.step,
                    &mut partial,
                );
                if let Some(clock) = &mut self.clock {
                    ws.ready_at[leader] = clock.cluster_closed(round, (l, ci), &ws.step, &partial);
                }
                // Acceptance verdicts attach to *identities*: the global
                // client ids behind the kept slots.
                ws.kept_devices.clear();
                ws.kept_devices
                    .extend(ws.step.kept.iter().map(|&slot| ws.cohort[slot]));
                if let Some(v) = &verdict {
                    if let Some(defense) = &mut self.defense {
                        defense.observe_verdict(&ws.kept_devices, v);
                    }
                    if let Some(adversary) = &mut self.adversary {
                        adversary.observe_verdict(&ws.kept_devices, v);
                    }
                }
                ctx.telem.emit_with(|| Event::ClusterAggregated {
                    round,
                    level: l,
                    cluster: ci,
                    inputs: ws.kept_devices.len(),
                    quorum,
                });

                // What goes upward may differ from what the members saw
                // (equivocation); the audit sees both sides.
                let up = self
                    .adversary
                    .as_ref()
                    .and_then(|a| a.upward_value(&cl, &partial));
                if let Some(defense) = &mut self.defense {
                    defense.audit_cluster(&mut ctx, &cl, &partial, up.as_deref());
                }
                ws.partials.land(leader, up.unwrap_or(partial));
                if let Some(fault) = &mut self.fault {
                    fault.after_cluster(&cl);
                }
            }
            ctx.phases.lap(Phase::Engine(l));
        }

        // Global aggregation at the top cluster (Algorithm 6).
        let top = &h.level(0).clusters[0];
        let top_cl = ClusterCtx {
            level: 0,
            bottom,
            index: 0,
            members: &top.members,
            leader: top.leader(),
            expected: top.len(),
            active: &ws.active,
            collector: top.leader(),
            cohort: &ws.cohort,
        };
        ws.final_slots.clear();
        match &mut self.fault {
            Some(fault) => fault.select_top(&mut ctx, &top_cl, &mut ws.final_slots),
            None => ws.final_slots.extend_from_slice(&top.members),
        }
        // The same step closes the round (Algorithm 6): the surviving
        // top slots arrive in member order.
        let mut rng = rng_for_n(cfg.seed, &[round as u64, 0x601, 0xA221]);
        let (top_quorum, _) = self.cluster_step(
            &mut ctx,
            &top_cl,
            &ws.final_slots,
            ws.partials.over(updates),
            &ws.ready_at,
            &mut rng,
            false,
            &mut ws.step,
            out,
        );
        ctx.telem.emit_with(|| Event::ClusterAggregated {
            round,
            level: 0,
            cluster: 0,
            inputs: ws.step.kept.len(),
            quorum: top_quorum,
        });
        if let Some(clock) = &mut self.clock {
            let formed = clock.cluster_closed(round, (0, 0), &ws.step, out);
            clock.round_closed(round, formed, out);
        }
        ctx.phases.lap(Phase::Engine(0));

        // Dissemination: the global model travels one model-transfer
        // per reachable node per level on its way down (Algorithm 5).
        for l in 1..=bottom {
            let per_level = match &self.fault {
                Some(fault) => fault.dissemination_reach(round, l),
                None => h.level(l).num_nodes() as u64,
            };
            ctx.charge_transfers(l, per_level);
        }

        // Round close: defense convictions and suspicion transitions
        // first, then the adversary repairs the convicted and adapts.
        let convicted = match &mut self.defense {
            Some(defense) => defense.close_round(&mut ctx),
            None => Vec::new(),
        };
        if let Some(adversary) = &mut self.adversary {
            adversary.close_round(&mut ctx, &convicted);
        }
        ctx.phases.lap(Phase::Close);

        self.workspace = ws;
        self.phases = phases;
    }
}
