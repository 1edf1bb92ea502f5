//! The cluster step — the paper's one per-cluster procedure
//! (Algorithms 3–4; Algorithm 6 is its level-0 instance), written once
//! as [`RoundEngine::cluster_step`]: **collect** until quorum φ *or
//! timeout*, **aggregate** by the level's BRA rule or CBA mechanism
//! ([`aggregate`] — the one place a round calls
//! `Aggregator::aggregate_into` or `Consensus::decide`), **judge** the
//! inputs from that aggregation, never beside it. Both schedules run it:
//! the candidates' `ready_at` stamps are all zero under lockstep and
//! carry the round clock ([`super::clock`]) under the pipelined one.

use rand::rngs::StdRng;

use hfl_consensus::eval::AccuracyEvaluator;
use hfl_consensus::{
    quorum_size, Consensus, ConsensusOutcome, DistanceEvaluator, ProposalEvaluator,
};
use hfl_ml::rng::rng_for_n;
use hfl_ml::{Dataset, Model};
use hfl_robust::evidence::{self, Acceptance};
use hfl_robust::{AggScratch, Aggregator, AggregatorKind};
use hfl_simnet::DelayModel;
use hfl_telemetry::FaultRecord;

use super::pool::StepScratch;
use super::{ClusterCtx, CollectorPolicy, RoundCtx, RoundEngine};
use crate::config::{HflConfig, LevelAgg};

/// RNG stream tag for async arrival synthesis. Distinct from the
/// arrival-shuffle tag (`0xA221`) so the synchronous path consumes
/// exactly its pre-async draw sequence: the `0xA57C` stream is opened
/// only under a finite-deadline policy.
const ARRIVAL_STREAM: u64 = 0xA57C;

/// The link-delay model of every model transfer, up or down the tree:
/// the config's `async_rounds.link_delay`; instantaneous without one.
pub(super) fn link_delay(cfg: &HflConfig) -> &DelayModel {
    static NONE: DelayModel = DelayModel::Constant { micros: 0 };
    cfg.async_rounds.as_ref().map_or(&NONE, |a| &a.link_delay)
}

/// One level's aggregation rule, boxed once per run from its
/// [`LevelAgg`] rather than per cluster per round.
pub(super) enum LevelRule {
    /// A BRA rule, with the selector the judge step dispatches on.
    Bra(AggregatorKind, Box<dyn Aggregator>),
    /// A CBA mechanism.
    Cba(Box<dyn Consensus>),
}

/// What [`aggregate`] ran, for the caller's accounting and evidence.
enum Aggregated<'r> {
    /// The BRA rule of this kind; its by-products are in the scratch.
    Bra(&'r AggregatorKind),
    /// The named CBA mechanism, with its outcome.
    Cba(&'static str, ConsensusOutcome),
}

impl LevelRule {
    /// The rules of every level, top first.
    pub(super) fn build_all(levels: &[LevelAgg]) -> Vec<Self> {
        levels
            .iter()
            .map(|l| match l {
                LevelAgg::Bra(kind) => LevelRule::Bra(kind.clone(), kind.build()),
                LevelAgg::Cba(kind) => LevelRule::Cba(kind.build()),
            })
            .collect()
    }
}

/// How the honest nodes of a CBA instance score proposals.
enum Scoring<'a> {
    /// By proximity to their own proposal — below the top.
    Distance,
    /// By a model of this architecture's accuracy on their even share
    /// of this data's rows — the paper's top-level validation vote over
    /// the held-out test set (Appendix D.B).
    Validation(&'a dyn Model, &'a Dataset),
}

/// The aggregate step: `inputs` → `out` under `rule`. BRA runs the
/// level's prebuilt rule in `scratch` (which afterwards holds the
/// rule's by-products for the judge step); CBA runs the mechanism
/// once. `byzantine(i)` says whether input `i`'s node misbehaves inside
/// the consensus protocol.
#[allow(clippy::too_many_arguments)]
fn aggregate<'r>(
    rule: &'r LevelRule,
    inputs: &[&[f32]],
    weights: Option<&[f32]>,
    byzantine: impl Fn(usize) -> bool,
    scoring: Scoring<'_>,
    rng: &mut StdRng,
    out: &mut Vec<f32>,
    scratch: &mut AggScratch,
) -> Aggregated<'r> {
    match rule {
        LevelRule::Bra(kind, rule) => {
            rule.aggregate_into(inputs, weights, out, scratch);
            Aggregated::Bra(kind)
        }
        LevelRule::Cba(mech) => {
            let byz: Vec<bool> = (0..inputs.len()).map(byzantine).collect();
            let (distance, validation);
            let eval: &dyn ProposalEvaluator = match scoring {
                Scoring::Distance => {
                    distance = DistanceEvaluator::new(inputs);
                    &distance
                }
                Scoring::Validation(template, data) => {
                    validation =
                        AccuracyEvaluator::split_rows(template.clone_box(), data, inputs.len());
                    &validation
                }
            };
            let outcome = mech.decide(inputs, &byz, eval, rng);
            out.clear();
            out.extend_from_slice(&outcome.decided);
            Aggregated::Cba(mech.name(), outcome)
        }
    }
}

impl<'e> RoundEngine<'e> {
    /// One cluster's collect → aggregate → judge. `arrivals` holds the
    /// candidate slots in arrival order, `carried` every slot's current
    /// model and `ready_at` when it is ready to send; the aggregate
    /// lands in `out`, the kept slots (ascending) stay in `ws.kept`, the
    /// close and first-arrival times in `ws.closed_at` / `ws.first_at`.
    /// Returns the quorum the close was held to and, when
    /// `want_verdict`, the per-input acceptance verdict (aligned with
    /// `ws.kept`).
    ///
    /// Algorithm 6 differs from Algorithms 3–4 in three places, all
    /// keyed on `cl.level == 0` here and in [`Self::collect`]: the
    /// synchronous top waits for every surviving proposal, its global
    /// model returns to exactly the proposers, and a consensus top
    /// votes on validation accuracy.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn cluster_step(
        &self,
        ctx: &mut RoundCtx<'_>,
        cl: &ClusterCtx<'_>,
        arrivals: &[usize],
        carried: &[Vec<f32>],
        ready_at: &[u64],
        rng: &mut StdRng,
        want_verdict: bool,
        ws: &mut StepScratch,
        out: &mut Vec<f32>,
    ) -> (usize, Option<Acceptance>) {
        let exp = self.exp;
        let (quorum, deadline) = self.collect(ctx, cl, arrivals, ready_at, ws);
        let StepScratch {
            kept,
            weights,
            lateness,
            refs,
            agg,
            ..
        } = ws;
        let mut inputs = refs.take();
        inputs.extend(kept.iter().map(|&slot| carried[slot].as_slice()));

        let scoring = if cl.level == 0 {
            Scoring::Validation(exp.template.as_ref(), &exp.task.test)
        } else {
            Scoring::Distance
        };
        let aggregated = aggregate(
            &self.rules[cl.level],
            &inputs,
            deadline.then_some(weights.as_slice()),
            |i| exp.protocol_byzantine(cl.global(kept[i])),
            scoring,
            rng,
            out,
            agg,
        );
        let mut verdict = match aggregated {
            Aggregated::Bra(kind) => {
                // Members upload to the collector; the partial
                // broadcasts back as far as it can reach (Algorithm 3).
                // `kept` is exactly the quorum on the synchronous path;
                // a deadline buffer may admit more (τ-late) or fewer
                // (degraded close).
                let reach = if cl.level == 0 {
                    kept.len() as u64
                } else {
                    self.layers()
                        .find_map(|ly| ly.broadcast_reach(ctx.round, cl))
                        .unwrap_or(cl.members.len() as u64)
                };
                ctx.charge_transfers(cl.level, kept.len() as u64 + reach);
                want_verdict.then(|| evidence::judge_aggregated(kind, &inputs, out, agg))
            }
            Aggregated::Cba(mechanism, decision) => {
                ctx.charge_consensus(cl.level, cl.index, mechanism, &decision);
                // Consensus exclusion is the CBA acceptance verdict:
                // excluded inputs are struck worst.
                want_verdict.then(|| {
                    let mut acc = Acceptance {
                        accepted: vec![true; kept.len()],
                        strikes: vec![0.0; kept.len()],
                    };
                    for &p in &decision.excluded {
                        acc.accepted[p] = false;
                        acc.strikes[p] = evidence::STRIKE_WORST;
                    }
                    acc
                })
            }
        };
        // Lateness is acceptance evidence too: τ-late inputs pick up
        // staleness strikes on top of value strikes.
        if let (Some(v), true) = (verdict.as_mut(), deadline) {
            evidence::judge_staleness(v, lateness);
        }
        refs.put(inputs);
        (quorum, verdict)
    }

    /// The collect step: resolves the cluster's [`CollectorPolicy`]
    /// (layer hook, then the config's `async_rounds`) and fills
    /// `ws.kept` with the admitted slots, ascending — which is member
    /// order. Returns the quorum and whether a deadline buffer ran; if
    /// so `ws.weights` / `ws.lateness` are aligned with `ws.kept`, and a
    /// close below quorum has been sanctioned as a `degraded_quorum`
    /// record.
    ///
    /// `WaitForQuorum` keeps the first ⌈φ·n⌉ of the arrival order
    /// (Algorithm 4's wait-until-quorum); it opens no arrival stream
    /// and emits no buffer telemetry, and closes when the last kept
    /// slot is ready.
    ///
    /// `Deadline` (DESIGN.md §12) opens its buffer when the first
    /// candidate is ready to send and draws one link delay per
    /// candidate from the [`ARRIVAL_STREAM`] RNG — unconditionally, so
    /// adversary decisions never shift another candidate's sample —
    /// scaled by the [`super::RoundLayer::arrival_delay_factor`] hook
    /// and the client's heterogeneity profile, in integer µs.
    /// Candidates are ordered by `(ready_at + link delay, arrival
    /// position)`, times counted from the buffer's opening. The buffer
    /// closes at first-of `{quorum-th non-stalled arrival, deadline}`;
    /// [`super::RoundLayer::stalls_until_stale`] candidates land at
    /// `close + τ`, arrivals within τ of the close are admitted at a
    /// discounted weight, later ones dropped. Liveness floor: when
    /// nobody stalls (stalled candidates are always admitted) and every
    /// arrival lands beyond `close + τ`, the close extends to the
    /// earliest arrival, so a buffer with a candidate never closes empty.
    fn collect(
        &self,
        ctx: &mut RoundCtx<'_>,
        cl: &ClusterCtx<'_>,
        arrivals: &[usize],
        ready_at: &[u64],
        ws: &mut StepScratch,
    ) -> (usize, bool) {
        let cfg = self.exp.config();
        let round = ctx.round;
        let n = arrivals.len();
        let policy = self
            .layers()
            .find_map(|ly| ly.collector_policy(round, cl))
            .unwrap_or_else(|| match &cfg.async_rounds {
                Some(a) => CollectorPolicy::Deadline {
                    deadline_us: a.deadline_for(cl.level),
                    staleness_bound_us: a.staleness_bound_us,
                },
                None => CollectorPolicy::WaitForQuorum,
            });
        ws.kept.clear();
        let CollectorPolicy::Deadline {
            deadline_us,
            staleness_bound_us: tau,
        } = policy
        else {
            let quorum = if cl.level == 0 {
                n
            } else {
                quorum_size(cfg.quorum, n)
            };
            ws.kept.extend_from_slice(&arrivals[..quorum.min(n)]);
            ws.kept.sort_unstable();
            let ready = ws.kept.iter().map(|&slot| ready_at[slot]);
            ws.first_at = ready.clone().min().unwrap_or(0);
            ws.closed_at = ready.max().unwrap_or(0);
            return (quorum, false);
        };
        let quorum = quorum_size(cfg.quorum, n);

        let delay = link_delay(cfg);
        let open = arrivals
            .iter()
            .map(|&slot| ready_at[slot])
            .min()
            .unwrap_or(0);
        let site = [
            round as u64,
            cl.level as u64,
            cl.index as u64,
            ARRIVAL_STREAM,
        ];
        let top = [round as u64, 0x601, ARRIVAL_STREAM];
        let tags: &[u64] = if cl.level == 0 { &top } else { &site };
        let mut rng = rng_for_n(cfg.seed, tags);
        ws.times.clear();
        ws.stalled.clear();
        for (pos, &slot) in arrivals.iter().enumerate() {
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
            let sent = ready_at[slot] - open;
            let link = raw.saturating_scale(factor).as_micros();
            ws.times.push((sent.saturating_add(link), pos));
            ws.stalled.push(
                self.layers()
                    .any(|ly| ly.stalls_until_stale(round, cl, slot)),
            );
        }
        ws.times.sort_unstable();

        // Close time: the quorum-th non-stalled arrival if it beats the
        // deadline, the deadline otherwise.
        let quorum_time = quorum.checked_sub(1).and_then(|q| {
            let mut honest = ws.times.iter().filter(|a| !ws.stalled[a.1]);
            honest.nth(q).map(|a| a.0)
        });
        let (mut close_us, deadline_fired) = match quorum_time {
            Some(qt) if qt <= deadline_us => (qt, false),
            _ => (deadline_us, true),
        };
        let earliest = ws.times.first().map_or(0, |a| a.0);
        if !ws.stalled.contains(&true) && earliest > close_us.saturating_add(tau) {
            close_us = earliest;
        }
        // Stalled uploads land just inside τ of whatever close the
        // honest arrivals produced.
        for a in ws.times.iter_mut().filter(|a| ws.stalled[a.1]) {
            a.0 = close_us.saturating_add(tau);
        }
        ws.times.sort_unstable();
        // Absolute times: what the clock stamps from, and what the
        // close event reports (under lockstep every buffer opens at 0).
        ws.first_at = open.saturating_add(ws.times.first().map_or(0, |a| a.0));
        ws.closed_at = open.saturating_add(close_us);

        let on_time = ws.times.partition_point(|a| a.0 <= close_us);
        ctx.telem.buffer_closed(
            round,
            cl.level,
            cl.index,
            deadline_fired,
            ws.closed_at,
            on_time,
            n,
        );
        ws.admitted.clear();
        for (i, &(t, pos)) in ws.times.iter().enumerate() {
            let slot = arrivals[pos];
            let late = t.saturating_sub(close_us);
            if i < on_time {
                ws.admitted.push((slot, 1.0, 0.0));
            } else if late <= tau {
                let w = cfg.correction.admission_weight(late, tau);
                ws.admitted.push((slot, w, late as f64 / tau as f64));
                ctx.telem
                    .stale_admitted(round, cl.level, cl.index, slot, late, f64::from(w));
            } else {
                ctx.telem
                    .stale_dropped(round, cl.level, cl.index, slot, late);
            }
        }
        // Canonical order, with weights and staleness evidence aligned.
        ws.admitted.sort_unstable_by_key(|a| a.0);
        ws.weights.clear();
        ws.lateness.clear();
        for &(slot, w, frac) in &ws.admitted {
            ws.kept.push(slot);
            ws.weights.push(w);
            ws.lateness.push(frac);
        }
        if ws.kept.len() < quorum {
            // A deadline fired below quorum: sanctioned degraded close,
            // mirroring the fault layer's record shape.
            ctx.fault_log.push(FaultRecord {
                round,
                kind: "degraded_quorum".into(),
                detail: format!(
                    "level {l} cluster {ci}: deadline closed with {alive} of quorum {quorum}",
                    l = cl.level,
                    ci = cl.index,
                    alive = ws.kept.len()
                ),
            });
            ctx.telem
                .degraded_quorum(round, cl.level, cl.index, ws.kept.len(), cl.expected);
        }
        (quorum, true)
    }
}
