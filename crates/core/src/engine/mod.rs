//! The round engine: **one** canonical execution of an ABD-HFL global
//! round, expressed as explicit phases with pluggable layer hooks.
//!
//! Phases (paper Algorithms 1–6):
//!
//! 1. **Round open** — scheduled faults activate
//!    ([`RoundLayer::open_round`]).
//! 2. **Local training** (Algorithm 2) — every client trains in
//!    parallel; the adversary layer may substitute this round's crafted
//!    attack ([`RoundLayer::training_attack`]).
//! 3. **Bottom-up aggregation** (Algorithms 3–4) — per cluster:
//!    collector selection (failover), member filtering (crashes,
//!    partitions, quarantine, withholding), seeded arrival shuffle +
//!    straggler reorder, quorum cut, BRA/CBA aggregation, acceptance
//!    verdicts, upward value (equivocation) and the echo audit.
//! 4. **Global aggregation** (Algorithm 6) — top-slot selection
//!    (fault fallback) and BRA or validation-voting consensus.
//! 5. **Dissemination + round close** (Algorithm 5) — reach-aware
//!    broadcast accounting, then the close hooks in stack order: echo
//!    convictions, suspicion transitions, adversary adaptation.
//!
//! The layer stack replaces what used to be three textually-separate
//! copies of this round (`aggregate_round_clean` / `_faulted` /
//! `_armed`): a clean run is the empty stack, a faulted run is
//! `[faults]`, an arms-race run is `[defense, adversary]` — and, newly
//! possible, a combined run is `[faults, defense, adversary]`. With a
//! given stack the engine reproduces the corresponding pre-refactor
//! path byte-for-byte: same RNG stream order, same cost accounting,
//! same event sequence (pinned by `tests/golden_manifests.rs`).

pub mod adversary;
mod clock;
pub mod cost;
pub mod defense;
pub mod fault;
pub mod layer;
pub mod pool;
mod step;
pub mod telemetry;

pub use adversary::AdversaryLayer;
pub use cost::CostCounters;
pub use defense::DefenseLayer;
pub use fault::FaultLayer;
pub use layer::{ClusterCtx, CollectorChoice, CollectorPolicy, RoundCtx, RoundLayer};
pub use pool::RoundWorkspace;
pub use telemetry::TelemetryLayer;

use rand::seq::SliceRandom;

use hfl_attacks::{AdaptiveAdversary, ModelAttack};
use hfl_ml::rng::rng_for_n;
use hfl_robust::SuspicionTracker;
use hfl_telemetry::{FaultRecord, SuspicionRecord, Telemetry};

use crate::pipeline::{PipelineConfig, PipelineResult, RoundTiming};
use crate::runner::{Experiment, RunResult};
use clock::Clock;
use step::LevelRule;

/// Executes canonical rounds for one experiment through a stack of
/// [`RoundLayer`]s. The engine owns no RNG state of its own — every
/// stream is derived from `(seed, round, …)`, so a given `(config,
/// seed)` is reproducible regardless of how many engines ran before.
pub struct RoundEngine<'e> {
    exp: &'e Experiment,
    fault: Option<FaultLayer<'e>>,
    defense: Option<DefenseLayer>,
    adversary: Option<AdversaryLayer<'e>>,
    /// `rules[l]`: level `l`'s BRA rule or CBA mechanism. Levels are
    /// config-constant, so the boxes are built once per engine.
    rules: Vec<LevelRule>,
    /// The round clock of the pipelined schedule ([`clock`]); `None` is
    /// the lockstep schedule, where nothing is ever stamped.
    clock: Option<Clock<'e>>,
    /// Round-scoped buffer arena ([`pool`]): carried/next model rows,
    /// index scratch, the cluster step's buffers, training buffers.
    /// Taken out for the duration of each aggregation and restored at
    /// its exit, so steady-state rounds allocate nothing.
    workspace: RoundWorkspace,
}

impl<'e> RoundEngine<'e> {
    /// The canonical stack for an experiment's config: the fault layer
    /// when a fault plan is compiled, and the defense + adversary pair
    /// when the arms race is engaged. All absent for a plain config,
    /// which makes the engine the fault-free reference path.
    pub fn for_experiment(exp: &'e Experiment) -> Self {
        Self {
            exp,
            fault: FaultLayer::for_experiment(exp),
            defense: DefenseLayer::for_experiment(exp),
            adversary: AdversaryLayer::for_experiment(exp),
            rules: LevelRule::build_all(&exp.config().levels),
            clock: None,
            workspace: RoundWorkspace::default(),
        }
    }

    /// [`Self::for_experiment`] on the pipelined schedule (paper §III-D)
    /// under `pcfg`'s timing model: the same layer stack, cluster step,
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

    /// The pipelined schedule's per-round timing record so far (`None`
    /// under lockstep).
    pub fn round_timings(&self) -> Option<&[RoundTiming]> {
        self.clock.as_ref().map(Clock::rounds)
    }

    /// What the pipelined schedule measured, folded with the run's
    /// outcome (`None` under lockstep).
    pub(crate) fn pipeline_result(&self, run: &RunResult) -> Option<PipelineResult> {
        self.clock.as_ref().map(|c| c.result(run))
    }

    fn layers(&self) -> impl Iterator<Item = &(dyn RoundLayer + 'e)> + '_ {
        let f = self.fault.as_ref().map(|l| l as &(dyn RoundLayer + 'e));
        let d = self.defense.as_ref().map(|l| l as &(dyn RoundLayer + 'e));
        let a = self.adversary.as_ref().map(|l| l as &(dyn RoundLayer + 'e));
        f.into_iter().chain(d).chain(a)
    }

    fn layers_mut(&mut self) -> impl Iterator<Item = &mut (dyn RoundLayer + 'e)> + '_ {
        let f = self.fault.as_mut().map(|l| l as &mut (dyn RoundLayer + 'e));
        let d = self
            .defense
            .as_mut()
            .map(|l| l as &mut (dyn RoundLayer + 'e));
        let a = self
            .adversary
            .as_mut()
            .map(|l| l as &mut (dyn RoundLayer + 'e));
        f.into_iter().chain(d).chain(a)
    }

    /// Names of the active layers, in stack order.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers().map(RoundLayer::name).collect()
    }

    /// The defense's suspicion tracker, when the config enables it.
    pub fn suspicion(&self) -> Option<&SuspicionTracker> {
        self.defense.as_ref().and_then(DefenseLayer::tracker)
    }

    /// The adversary's magnitude-search state, when the attack is
    /// adaptive.
    pub fn adversary(&self) -> Option<&AdaptiveAdversary> {
        self.adversary.as_ref().and_then(AdversaryLayer::adversary)
    }

    /// Device ids the echo audit has convicted of equivocation so far.
    pub fn detected_equivocators(&self) -> Vec<usize> {
        self.adversary
            .as_ref()
            .map(AdversaryLayer::detected_equivocators)
            .unwrap_or_default()
    }

    /// The crafted model attack malicious clients substitute this
    /// round (the adaptive adversary's current magnitude), if any layer
    /// steers one.
    pub fn training_attack(&self) -> Option<ModelAttack> {
        self.layers().find_map(RoundLayer::training_attack)
    }

    /// Every stateful layer's cross-round state at the top of `round`,
    /// in stack order — the `layers` section of an
    /// [`hfl_snapshot::EngineSnapshot`].
    pub fn snapshot_layers(&self, round: usize) -> Vec<hfl_snapshot::LayerState> {
        self.layers()
            .filter_map(|l| l.snapshot_state(round))
            .collect()
    }

    /// Restores the state captured by [`Self::snapshot_layers`] onto a
    /// freshly built stack. The states must pair with this engine's
    /// stateful layers one-to-one in stack order — a count or variant
    /// mismatch means the snapshot was captured under a different
    /// config and is rejected.
    pub fn restore_layers(
        &mut self,
        round: usize,
        states: &[hfl_snapshot::LayerState],
    ) -> Result<(), String> {
        let stateful: Vec<&'static str> = self
            .layers()
            .filter(|l| l.snapshot_state(round).is_some())
            .map(RoundLayer::name)
            .collect();
        if stateful.len() != states.len() {
            return Err(format!(
                "snapshot carries {} layer states but the engine stack [{}] has {} stateful layers",
                states.len(),
                stateful.join(", "),
                stateful.len()
            ));
        }
        let mut it = states.iter();
        for layer in self.layers_mut() {
            // Pair in stack order, skipping stateless layers the same
            // way snapshot_layers' filter_map did.
            if layer.snapshot_state(round).is_none() {
                continue;
            }
            let state = it.next().expect("counted above");
            layer.restore_state(round, state)?;
        }
        Ok(())
    }

    /// Executes one full round: round-open hooks (scheduled faults),
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
        {
            let mut ctx = RoundCtx {
                round,
                model_bytes: (self.exp.template.param_len() * 4) as u64,
                cost: &mut *cost,
                telem: TelemetryLayer::new(telem),
                fault_log: &mut *fault_log,
                susp_log: &mut *susp_log,
                convicted: Vec::new(),
            };
            for layer in self.layers_mut() {
                layer.open_round(&mut ctx);
            }
        }
        let attack = self.training_attack();
        let exp = self.exp;
        // The training buffers leave the workspace for the duration of
        // the round: `updates` must outlive the aggregation call, and
        // the borrow of `self` must stay free for it.
        let mut updates = std::mem::take(&mut self.workspace.updates);
        let mut train = std::mem::take(&mut self.workspace.train);
        if let Some(clock) = &mut self.clock {
            clock.start_round(global, round, &mut train.starts);
        }
        exp.train_round_into(global, round, attack.as_ref(), telem, &mut updates, &mut train);
        self.workspace.train = train;
        self.aggregate_round_into(&updates, round, cost, telem, fault_log, susp_log, out);
        self.workspace.updates = updates;
    }

    /// Phases 3–5: one round of bottom-up aggregation over per-client
    /// updates, through the layer stack. Returns the new global model
    /// and accumulates cost counters and manifest logs.
    pub fn aggregate_round(
        &mut self,
        updates: &[Vec<f32>],
        round: usize,
        cost: &mut CostCounters,
        telem: &Telemetry,
        fault_log: &mut Vec<FaultRecord>,
        susp_log: &mut Vec<SuspicionRecord>,
    ) -> Vec<f32> {
        let mut out = Vec::new();
        self.aggregate_round_into(updates, round, cost, telem, fault_log, susp_log, &mut out);
        out
    }

    /// [`Self::aggregate_round`] writing the new global model into a
    /// caller-owned buffer. Byte-identical to the allocating path: same
    /// RNG stream order, same cost accounting, same event sequence —
    /// the only difference is that every intermediate buffer (carried
    /// rows, member-index scratch, aggregation inputs, the per-rule
    /// scratch) comes from the engine's [`RoundWorkspace`] arena.
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
        // so layer hooks can borrow `self` freely; restored at the
        // single exit below. Disjoint-field borrows of `ws` (carried vs
        // next vs scratch) coexist because it is a local.
        let mut ws = std::mem::take(&mut self.workspace);
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
            telem: TelemetryLayer::new(telem),
            fault_log,
            susp_log,
            convicted: Vec::new(),
        };
        for layer in self.layers_mut() {
            layer.begin_aggregate(round);
        }
        ctx.cost.absent += ws.active.iter().filter(|a| !**a).count() as u64;
        ctx.telem.churn_absences(round, &ws.active);

        let wants_verdicts = self.layers().any(RoundLayer::wants_verdicts);

        // carried[slot] = the model this node carries upward: its local
        // update at the bottom, the partial aggregate of the cluster it
        // leads above.
        ws.carried.resize_with(updates.len(), Vec::new);
        for (c, u) in ws.carried.iter_mut().zip(updates) {
            c.clear();
            c.extend_from_slice(u);
        }

        // Partial aggregation: levels L down to 1.
        for l in (1..=bottom).rev() {
            let level = h.level(l);
            // `next` starts as this level's copy of `carried`;
            // `clone_from` reuses the outer and per-row capacity.
            ws.next.clone_from(&ws.carried);
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
                let mut choice = None;
                for layer in self.layers_mut() {
                    if let Some(c) = layer.select_collector(&mut ctx, &cl) {
                        choice = Some(c);
                        break;
                    }
                }
                match choice {
                    Some(CollectorChoice::SkipCluster) => continue,
                    Some(CollectorChoice::Collect { device }) => cl.collector = device,
                    None => {}
                }

                // Churn removes absent bottom members; the layers then
                // take out whatever crashed, partitioned, quarantined
                // or withholding members remain.
                ws.order.clear();
                ws.order.extend(
                    (0..cluster.len())
                        .filter(|&mi| l != bottom || ws.active[cluster.members[mi]]),
                );
                for layer in self.layers_mut() {
                    layer.filter_members(&mut ctx, &cl, &mut ws.order);
                }
                if ws.order.is_empty() {
                    for layer in self.layers_mut() {
                        layer.cluster_skipped(&mut ctx, &cl);
                    }
                    continue;
                }

                // Arrival order: a seeded shuffle, stragglers last.
                let mut rng = rng_for_n(cfg.seed, &[round as u64, l as u64, ci as u64, 0xA221]);
                ws.order.shuffle(&mut rng);
                for layer in self.layers() {
                    layer.reorder_arrivals(round, &cl, &mut ws.order);
                }
                for mi in ws.order.iter_mut() {
                    *mi = cluster.members[*mi];
                }

                // The partial lands directly in `next[leader]`.
                let mut partial = std::mem::take(&mut ws.next[leader]);
                let (quorum, verdict) = self.cluster_step(
                    &mut ctx,
                    &cl,
                    &ws.order,
                    &ws.carried,
                    &ws.ready_at,
                    &mut rng,
                    wants_verdicts && l == bottom,
                    &mut ws.step,
                    &mut partial,
                );
                if let Some(clock) = &mut self.clock {
                    ws.ready_at[leader] =
                        clock.cluster_closed(round, (l, ci), &self.rules[l], &ws.step, &partial);
                }
                ws.next[leader] = partial;
                // Acceptance verdicts attach to *identities*: the global
                // client ids behind the kept slots.
                ws.kept_devices.clear();
                ws.kept_devices
                    .extend(ws.step.kept.iter().map(|&slot| ws.cohort[slot]));
                if let Some(v) = &verdict {
                    for layer in self.layers_mut() {
                        layer.observe_verdict(&cl, &ws.kept_devices, v);
                    }
                }
                ctx.telem
                    .cluster_aggregated(round, l, ci, ws.kept_devices.len(), quorum);

                // What goes upward may differ from what the members saw
                // (equivocation); the audit sees both sides.
                let up = self
                    .layers()
                    .find_map(|ly| ly.upward_value(&cl, &ws.next[leader]));
                {
                    let up_ref: &[f32] = up.as_deref().unwrap_or(&ws.next[leader]);
                    for layer in self.layers_mut() {
                        layer.audit_cluster(&mut ctx, &cl, &ws.next[leader], up_ref);
                    }
                }
                if let Some(u) = up {
                    ws.next[leader] = u;
                }
                for layer in self.layers_mut() {
                    layer.after_cluster(&mut ctx, &cl);
                }
            }
            std::mem::swap(&mut ws.carried, &mut ws.next);
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
        let mut top_decided = false;
        for layer in self.layers_mut() {
            if layer.select_top(&mut ctx, &top_cl, &mut ws.final_slots) {
                top_decided = true;
                break;
            }
        }
        if !top_decided {
            ws.final_slots.extend_from_slice(&top.members);
        }
        // The same step closes the round (Algorithm 6): the surviving
        // top slots arrive in member order.
        let mut rng = rng_for_n(cfg.seed, &[round as u64, 0x601, 0xA221]);
        let (top_quorum, _) = self.cluster_step(
            &mut ctx,
            &top_cl,
            &ws.final_slots,
            &ws.carried,
            &ws.ready_at,
            &mut rng,
            false,
            &mut ws.step,
            out,
        );
        ctx.telem
            .cluster_aggregated(round, 0, 0, ws.step.kept.len(), top_quorum);
        if let Some(clock) = &mut self.clock {
            let formed = clock.cluster_closed(round, (0, 0), &self.rules[0], &ws.step, out);
            clock.round_closed(round, formed, out);
        }

        // Dissemination: the global model travels one model-transfer
        // per reachable node per level on its way down (Algorithm 5).
        for l in 1..=bottom {
            let per_level = self
                .layers()
                .find_map(|ly| ly.dissemination_reach(round, l))
                .unwrap_or(h.level(l).num_nodes() as u64);
            ctx.charge_transfers(l, per_level);
        }

        // Round close, in stack order: defense convictions and
        // suspicion transitions first, then the adversary adapts.
        for layer in self.layers_mut() {
            layer.close_round(&mut ctx);
        }

        self.workspace = ws;
    }
}
