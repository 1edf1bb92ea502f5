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
pub mod cost;
pub mod defense;
pub mod fault;
pub mod layer;
pub mod pool;
pub mod telemetry;

pub use adversary::AdversaryLayer;
pub use cost::CostCounters;
pub use defense::DefenseLayer;
pub use fault::FaultLayer;
pub use layer::{ClusterCtx, CollectorChoice, CollectorPolicy, RoundCtx, RoundLayer};
pub use pool::{BufferPool, RoundWorkspace};
pub use telemetry::TelemetryLayer;

use rand::seq::SliceRandom;

use hfl_attacks::{AdaptiveAdversary, ModelAttack};
use hfl_consensus::eval::AccuracyEvaluator;
use hfl_consensus::quorum_size;
use hfl_ml::rng::rng_for_n;
use hfl_robust::evidence::{self, Acceptance};
use hfl_robust::SuspicionTracker;
use hfl_simnet::DelayModel;
use hfl_telemetry::{FaultRecord, SuspicionRecord, Telemetry};

use crate::config::LevelAgg;
use crate::runner::Experiment;

/// RNG stream tag for async arrival synthesis. Distinct from the
/// arrival-shuffle tag (`0xA221`) so the synchronous path consumes
/// exactly its pre-async draw sequence: the `0xA57C` stream is opened
/// only under a finite-deadline policy.
const ARRIVAL_STREAM: u64 = 0xA57C;

/// What a deadline-driven buffer admitted when it closed (DESIGN.md
/// §12). Positions index the caller's arrival-candidate slice.
struct BufferOutcome {
    /// Admitted candidate positions, in arrival order.
    admitted: Vec<usize>,
    /// `weights[i]`: aggregation weight of `admitted[i]` (1.0 on-time,
    /// staleness-discounted for τ-late arrivals).
    weights: Vec<f32>,
    /// `lateness_frac[i]`: lateness of `admitted[i]` as a fraction of
    /// τ (0 for on-time arrivals) — staleness evidence for the
    /// defense.
    lateness_frac: Vec<f64>,
}

/// Executes canonical rounds for one experiment through a stack of
/// [`RoundLayer`]s. The engine owns no RNG state of its own — every
/// stream is derived from `(seed, round, …)`, so a given `(config,
/// seed)` is reproducible regardless of how many engines ran before.
pub struct RoundEngine<'e> {
    exp: &'e Experiment,
    fault: Option<FaultLayer<'e>>,
    defense: Option<DefenseLayer>,
    adversary: Option<AdversaryLayer<'e>>,
    /// Round-scoped buffer arena ([`pool`]): carried/next model rows,
    /// index scratch, prebuilt BRA aggregators, training buffers. Taken
    /// out for the duration of each aggregation and restored at its
    /// exit, so steady-state rounds allocate nothing.
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
            workspace: RoundWorkspace::default(),
        }
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
            let acfg = self.exp.config().async_rounds.as_ref();
            let mut ctx = RoundCtx {
                round,
                model_bytes: (self.exp.template.param_len() * 4) as u64,
                cost: &mut *cost,
                telem: TelemetryLayer::new(telem),
                fault_log: &mut *fault_log,
                susp_log: &mut *susp_log,
                convicted: Vec::new(),
                deadline_us: acfg.map(|a| a.deadline_us),
                staleness_bound_us: acfg.map(|a| a.staleness_bound_us).unwrap_or(0),
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
        ws.ensure_aggregators(cfg);
        exp.active_mask_into(round, &mut ws.active);
        // Which global client each cohort slot is bound to this round
        // (identity without sampling). All topological work below stays
        // on slots; identity-bound lookups map through this binding.
        exp.cohort_into(round, &mut ws.cohort);

        let mut ctx = RoundCtx {
            round,
            model_bytes,
            cost,
            telem: TelemetryLayer::new(telem),
            fault_log,
            susp_log,
            convicted: Vec::new(),
            deadline_us: cfg.async_rounds.as_ref().map(|a| a.deadline_us),
            staleness_bound_us: cfg
                .async_rounds
                .as_ref()
                .map(|a| a.staleness_bound_us)
                .unwrap_or(0),
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
            let mut inputs = ws.refs.take();
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

                // The quorum keeps the first ⌈φ·present⌉ of a seeded
                // random arrival order (Algorithm 4's wait-until-quorum)
                // — or, under a deadline policy, whatever the collection
                // buffer admitted by first-of {quorum, deadline} with
                // its τ-bounded staleness window (DESIGN.md §12).
                let mut rng = rng_for_n(cfg.seed, &[round as u64, l as u64, ci as u64, 0xA221]);
                ws.order.shuffle(&mut rng);
                for layer in self.layers() {
                    layer.reorder_arrivals(round, &cl, &mut ws.order);
                }
                let quorum = quorum_size(cfg.quorum, ws.order.len());
                let policy = self
                    .layers()
                    .find_map(|ly| ly.collector_policy(round, &cl))
                    .unwrap_or_else(|| match &cfg.async_rounds {
                        Some(a) => CollectorPolicy::Deadline {
                            deadline_us: a.deadline_for(l),
                            staleness_bound_us: a.staleness_bound_us,
                        },
                        None => CollectorPolicy::WaitForQuorum,
                    });
                ws.kept.clear();
                let (weights, lateness): (Option<Vec<f32>>, Option<Vec<f64>>) = match policy {
                    CollectorPolicy::WaitForQuorum => {
                        ws.kept
                            .extend_from_slice(&ws.order[..quorum.min(ws.order.len())]);
                        ws.kept.sort_unstable();
                        (None, None)
                    }
                    CollectorPolicy::Deadline {
                        deadline_us,
                        staleness_bound_us,
                    } => {
                        let slots: Vec<usize> =
                            ws.order.iter().map(|&mi| cluster.members[mi]).collect();
                        let buf = self.close_deadline_buffer(
                            &mut ctx,
                            &cl,
                            &slots,
                            quorum,
                            deadline_us,
                            staleness_bound_us,
                        );
                        // Canonical member-index order, with weights
                        // and staleness evidence kept aligned.
                        let mut triples: Vec<(usize, f32, f64)> = buf
                            .admitted
                            .iter()
                            .zip(&buf.weights)
                            .zip(&buf.lateness_frac)
                            .map(|((&pos, &w), &f)| (ws.order[pos], w, f))
                            .collect();
                        triples.sort_unstable_by_key(|t| t.0);
                        ws.kept.extend(triples.iter().map(|t| t.0));
                        let weights = triples.iter().map(|t| t.1).collect();
                        let lateness = triples.iter().map(|t| t.2).collect();
                        (Some(weights), Some(lateness))
                    }
                };
                if ws.kept.len() < quorum {
                    // A deadline fired below quorum: sanctioned degraded
                    // close, mirroring the fault layer's record shape.
                    ctx.fault_log.push(FaultRecord {
                        round,
                        kind: "degraded_quorum".into(),
                        detail: format!(
                            "level {l} cluster {ci}: deadline closed with {alive} of quorum {quorum}",
                            alive = ws.kept.len()
                        ),
                    });
                    ctx.telem
                        .degraded_quorum(round, l, ci, ws.kept.len(), cl.expected);
                }
                inputs.clear();
                inputs.extend(
                    ws.kept
                        .iter()
                        .map(|&mi| ws.carried[cluster.members[mi]].as_slice()),
                );
                // Acceptance verdicts attach to *identities*: the global
                // client ids behind the kept slots.
                ws.kept_devices.clear();
                ws.kept_devices.extend(
                    ws.kept
                        .iter()
                        .map(|&mi| ws.cohort[cluster.members[mi]]),
                );
                let want_verdict = wants_verdicts && l == bottom;

                // The partial lands directly in `next[leader]` — the
                // BRA arm aggregates into it, the CBA arm swaps the
                // decided vector in (recycling the displaced buffer).
                let mut verdict = match &cfg.levels[l] {
                    LevelAgg::Bra(kind) => {
                        // Members upload to the collector; the partial
                        // broadcasts back as far as it can reach
                        // (Algorithm 3). `kept` is exactly the quorum on
                        // the synchronous path; a deadline buffer may
                        // admit more (τ-late) or fewer (degraded close).
                        let reach = self
                            .layers()
                            .find_map(|ly| ly.broadcast_reach(round, &cl))
                            .unwrap_or(cluster.len() as u64);
                        ctx.charge_transfers(l, ws.kept.len() as u64 + reach);
                        ws.level_aggs[l]
                            .as_deref()
                            .expect("BRA level has a prebuilt aggregator")
                            .aggregate_into(
                                &inputs,
                                weights.as_deref(),
                                &mut ws.next[leader],
                                &mut ws.agg,
                            );
                        want_verdict.then(|| evidence::judge(kind, &inputs))
                    }
                    LevelAgg::Cba(kind) => {
                        let byz: Vec<bool> = ws
                            .kept
                            .iter()
                            .map(|&mi| exp.protocol_byzantine(ws.cohort[cluster.members[mi]]))
                            .collect();
                        let own: Vec<Vec<f32>> = inputs.iter().map(|i| i.to_vec()).collect();
                        let eval = hfl_consensus::DistanceEvaluator::new(&own);
                        let mech = kind.build();
                        let decision = mech.decide(&inputs, &byz, &eval, &mut rng);
                        ctx.charge_consensus(l, ci, mech.name(), &decision);
                        // Consensus exclusion is the CBA acceptance
                        // verdict: excluded inputs are struck worst.
                        let verdict = want_verdict.then(|| {
                            let mut acc = Acceptance {
                                accepted: vec![true; ws.kept.len()],
                                strikes: vec![0.0; ws.kept.len()],
                            };
                            for &p in &decision.excluded {
                                acc.accepted[p] = false;
                                acc.strikes[p] = evidence::STRIKE_WORST;
                            }
                            acc
                        });
                        ws.pool
                            .put(std::mem::replace(&mut ws.next[leader], decision.decided));
                        verdict
                    }
                };
                // Lateness is acceptance evidence too: τ-late inputs
                // pick up staleness strikes on top of value strikes.
                if let (Some(v), Some(frac)) = (verdict.as_mut(), lateness.as_ref()) {
                    evidence::judge_staleness(v, frac);
                }
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
                    ws.pool.put(std::mem::replace(&mut ws.next[leader], u));
                }
                for layer in self.layers_mut() {
                    layer.after_cluster(&mut ctx, &cl);
                }
            }
            ws.refs.put(inputs);
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
        // The global collector runs the same deadline buffer over the
        // surviving top slots (Algorithm 6 under DESIGN.md §12); the
        // synchronous path keeps every proposal, reported as its own
        // quorum.
        let top_policy = self
            .layers()
            .find_map(|ly| ly.collector_policy(round, &top_cl))
            .unwrap_or_else(|| match &cfg.async_rounds {
                Some(a) => CollectorPolicy::Deadline {
                    deadline_us: a.deadline_for(0),
                    staleness_bound_us: a.staleness_bound_us,
                },
                None => CollectorPolicy::WaitForQuorum,
            });
        let (top_weights, top_quorum): (Option<Vec<f32>>, usize) = match top_policy {
            CollectorPolicy::WaitForQuorum => (None, ws.final_slots.len()),
            CollectorPolicy::Deadline {
                deadline_us,
                staleness_bound_us,
            } => {
                let quorum = quorum_size(cfg.quorum, ws.final_slots.len());
                let buf = self.close_deadline_buffer(
                    &mut ctx,
                    &top_cl,
                    &ws.final_slots,
                    quorum,
                    deadline_us,
                    staleness_bound_us,
                );
                let mut pairs: Vec<(usize, f32)> = buf
                    .admitted
                    .iter()
                    .zip(&buf.weights)
                    .map(|(&pos, &w)| (ws.final_slots[pos], w))
                    .collect();
                pairs.sort_unstable_by_key(|p| p.0);
                if pairs.len() < quorum {
                    ctx.fault_log.push(FaultRecord {
                        round,
                        kind: "degraded_quorum".into(),
                        detail: format!(
                            "level 0 cluster 0: deadline closed with {alive} of quorum {quorum}",
                            alive = pairs.len()
                        ),
                    });
                    ctx.telem
                        .degraded_quorum(round, 0, 0, pairs.len(), top_cl.expected);
                }
                ws.final_slots.clear();
                ws.final_slots.extend(pairs.iter().map(|p| p.0));
                (Some(pairs.iter().map(|p| p.1).collect()), quorum)
            }
        };
        let mut proposals = ws.refs.take();
        proposals.extend(
            ws.final_slots
                .iter()
                .map(|&dev| ws.carried[dev].as_slice()),
        );
        let n_proposals = proposals.len();
        let mut rng = rng_for_n(cfg.seed, &[round as u64, 0x601, 0xA221]);
        match &cfg.levels[0] {
            LevelAgg::Bra(_) => {
                ctx.charge_transfers(0, (2 * n_proposals) as u64);
                ws.level_aggs[0]
                    .as_deref()
                    .expect("BRA level has a prebuilt aggregator")
                    .aggregate_into(&proposals, top_weights.as_deref(), out, &mut ws.agg);
            }
            LevelAgg::Cba(kind) => {
                // Validation voting over the test shards (Appendix D.B).
                let eval = AccuracyEvaluator::split_rows(
                    exp.template.clone_box(),
                    &exp.task.test,
                    n_proposals.max(1),
                );
                let byz: Vec<bool> = ws
                    .final_slots
                    .iter()
                    .map(|&dev| exp.protocol_byzantine(ws.cohort[dev]))
                    .collect();
                let mech = kind.build();
                let decision = mech.decide(&proposals, &byz, &eval, &mut rng);
                ctx.charge_consensus(0, 0, mech.name(), &decision);
                out.clear();
                out.extend_from_slice(&decision.decided);
                ws.pool.put(decision.decided);
            }
        }
        ws.refs.put(proposals);
        ctx.telem
            .cluster_aggregated(round, 0, 0, n_proposals, top_quorum);

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

    /// Closes one deadline-driven collection buffer (DESIGN.md §12).
    ///
    /// `slots` holds the global device ids of the arrival candidates in
    /// draw order (the seeded shuffle); returned positions index that
    /// slice. Arrival times come from the dedicated [`ARRIVAL_STREAM`]
    /// RNG — exactly one draw per candidate regardless of stall state,
    /// so adversary decisions never shift another candidate's sample —
    /// scaled through [`RoundLayer::arrival_delay_factor`] (straggler
    /// windows) and the experiment's per-client heterogeneity profile,
    /// all in integer µs.
    /// [`RoundLayer::stalls_until_stale`] candidates are re-timed to
    /// `close + τ`, just inside the staleness bound.
    ///
    /// The buffer closes at first-of `{quorum-th non-stalled arrival,
    /// deadline}`. Liveness floor: a buffer with a candidate never
    /// closes empty — when nobody stalls (stalled candidates are always
    /// admitted) and every arrival lands beyond `close + τ`, the close
    /// extends to the earliest arrival.
    fn close_deadline_buffer(
        &self,
        ctx: &mut RoundCtx<'_>,
        cl: &ClusterCtx<'_>,
        slots: &[usize],
        quorum: usize,
        deadline_us: u64,
        staleness_bound_us: u64,
    ) -> BufferOutcome {
        let cfg = self.exp.config();
        let round = ctx.round;
        let delay = cfg
            .async_rounds
            .as_ref()
            .map(|a| a.link_delay.clone())
            .unwrap_or(DelayModel::Constant { micros: 0 });
        let tags: Vec<u64> = if cl.level == 0 {
            vec![round as u64, 0x601, ARRIVAL_STREAM]
        } else {
            vec![
                round as u64,
                cl.level as u64,
                cl.index as u64,
                ARRIVAL_STREAM,
            ]
        };
        let mut rng = rng_for_n(cfg.seed, &tags);
        let mut arrivals: Vec<(u64, usize)> = Vec::with_capacity(slots.len());
        let mut stalled = vec![false; slots.len()];
        for (pos, &slot) in slots.iter().enumerate() {
            let raw = delay.sample(&mut rng);
            let factor = self
                .layers()
                .find_map(|ly| ly.arrival_delay_factor(round, slot))
                .unwrap_or(1.0);
            // Device heterogeneity stacks multiplicatively on top of any
            // straggler window: a slow device is slow every round.
            // Straggler windows are topological (slot); the profile is
            // identity-bound (the global client behind the slot).
            let factor = factor * self.exp.arrival_profile(cl.global(slot));
            let t = raw.saturating_scale(factor).as_micros();
            stalled[pos] = self
                .layers()
                .any(|ly| ly.stalls_until_stale(round, cl, slot));
            arrivals.push((t, pos));
        }

        // Close time: the quorum-th non-stalled arrival if it beats the
        // deadline, the deadline otherwise.
        let mut non_stalled: Vec<u64> = arrivals
            .iter()
            .filter(|&&(_, pos)| !stalled[pos])
            .map(|&(t, _)| t)
            .collect();
        non_stalled.sort_unstable();
        let quorum_time =
            (quorum > 0 && non_stalled.len() >= quorum).then(|| non_stalled[quorum - 1]);
        let (mut close_us, deadline_fired) = match quorum_time {
            Some(qt) if qt <= deadline_us => (qt, false),
            _ => (deadline_us, true),
        };
        if !stalled.iter().any(|&s| s) {
            if let Some(&first) = non_stalled.first() {
                if first > close_us.saturating_add(staleness_bound_us) {
                    close_us = first;
                }
            }
        }
        // Stalled uploads land just inside τ of whatever close the
        // honest arrivals produced.
        let stall_t = close_us.saturating_add(staleness_bound_us);
        for a in arrivals.iter_mut() {
            if stalled[a.1] {
                a.0 = stall_t;
            }
        }
        arrivals.sort_unstable();

        let mut out = BufferOutcome {
            admitted: Vec::new(),
            weights: Vec::new(),
            lateness_frac: Vec::new(),
        };
        let mut on_time = 0usize;
        // (device, lateness, admitted weight / dropped) in arrival order.
        let mut stale: Vec<(usize, u64, Option<f32>)> = Vec::new();
        for &(t, pos) in &arrivals {
            if t <= close_us {
                out.admitted.push(pos);
                out.weights.push(1.0);
                out.lateness_frac.push(0.0);
                on_time += 1;
            } else {
                let late = t - close_us;
                if late <= staleness_bound_us {
                    let w = cfg.correction.admission_weight(late, staleness_bound_us);
                    out.admitted.push(pos);
                    out.weights.push(w);
                    out.lateness_frac
                        .push(late as f64 / staleness_bound_us as f64);
                    stale.push((slots[pos], late, Some(w)));
                } else {
                    stale.push((slots[pos], late, None));
                }
            }
        }
        ctx.telem.buffer_closed(
            round,
            cl.level,
            cl.index,
            deadline_fired,
            close_us,
            on_time,
            slots.len(),
        );
        for (device, late, w) in stale {
            match w {
                Some(w) => {
                    ctx.telem
                        .stale_admitted(round, cl.level, cl.index, device, late, f64::from(w))
                }
                None => ctx
                    .telem
                    .stale_dropped(round, cl.level, cl.index, device, late),
            }
        }
        out
    }
}
