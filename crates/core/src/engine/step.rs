//! The cluster step — the paper's one per-cluster procedure
//! (Algorithms 3–4; Algorithm 6 is its level-0 instance), written once
//! as [`RoundEngine::cluster_step`]: **collect** until quorum φ *or
//! timeout*, **aggregate** by the level's BRA rule or CBA mechanism
//! ([`aggregate`] — the one place a round calls
//! `Aggregator::aggregate_into` or `ConsensusKind::decide`), **judge** the
//! inputs from that aggregation, never beside it. Both schedules run it:
//! the candidates' `ready_at` stamps are all zero under lockstep and
//! carry the round clock ([`super::clock`]) under the pipelined one.

use rand::rngs::StdRng;

use hfl_consensus::eval::AccuracyEvaluator;
use hfl_consensus::{quorum_size, ConsensusOutcome, DistanceEvaluator, ProposalEvaluator};
use hfl_ml::rng::rng_for_n;
use hfl_ml::{Dataset, Model};
use hfl_robust::evidence::{self, Acceptance};
use hfl_robust::{AggScratch, Aggregator, AggregatorKind};
use hfl_simnet::DelayModel;
use hfl_telemetry::{Event, FaultRecord};

use super::pool::{Carried, StepScratch};
use super::{ClusterCtx, Phase, RoundCtx, RoundEngine};
use crate::config::{HflConfig, LevelAgg};

/// RNG stream tag for async arrival synthesis. Distinct from the
/// arrival-shuffle tag (`0xA221`) so the synchronous path consumes
/// exactly its pre-async draw sequence: the `0xA57C` stream is opened
/// only under a finite-deadline policy.
const ARRIVAL_STREAM: u64 = 0xA57C;

/// The registry counters a deadline buffer keeps: closes by cause, and
/// late uploads admitted inside τ or dropped past it.
const DEADLINE_CLOSES: &str = "hfl_deadline_closes_total";
const QUORUM_CLOSES: &str = "hfl_quorum_closes_total";
const STALE_ADMITTED: &str = "hfl_stale_admitted_total";
const STALE_DROPPED: &str = "hfl_stale_dropped_total";
pub(super) const BUFFER_COUNTERS: [&str; 4] = [
    DEADLINE_CLOSES,
    QUORUM_CLOSES,
    STALE_ADMITTED,
    STALE_DROPPED,
];
/// The gauge holding the last buffer's on-time occupancy.
pub(super) const OCCUPANCY_GAUGE: &str = "hfl_buffer_occupancy";

/// The link-delay model of every model transfer, up or down the tree:
/// the config's `async_rounds.link_delay`; instantaneous without one.
pub(super) fn link_delay(cfg: &HflConfig) -> &DelayModel {
    static NONE: DelayModel = DelayModel::Constant { micros: 0 };
    cfg.async_rounds.as_ref().map_or(&NONE, |a| &a.link_delay)
}

/// What [`aggregate`] ran, for the caller's accounting and evidence.
enum Aggregated<'r> {
    /// The BRA rule of this kind; its by-products are in the scratch.
    Bra(&'r AggregatorKind),
    /// The named CBA mechanism, with its outcome.
    Cba(&'static str, ConsensusOutcome),
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

/// The aggregate step: `inputs` → `out` under the `level`'s config. BRA
/// runs the level's rule in `scratch` (which afterwards holds the
/// rule's by-products for the judge step); CBA runs the mechanism
/// once. `byzantine(i)` says whether input `i`'s node misbehaves inside
/// the consensus protocol.
#[allow(clippy::too_many_arguments)]
fn aggregate<'r>(
    level: &'r LevelAgg,
    inputs: &[&[f32]],
    weights: Option<&[f32]>,
    byzantine: impl Fn(usize) -> bool,
    scoring: Scoring<'_>,
    rng: &mut StdRng,
    out: &mut Vec<f32>,
    scratch: &mut AggScratch,
) -> Aggregated<'r> {
    match level {
        LevelAgg::Bra(kind) => {
            kind.aggregate_into(inputs, weights, out, scratch);
            Aggregated::Bra(kind)
        }
        LevelAgg::Cba(kind) => {
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
            let outcome = kind.decide(inputs, &byz, eval, rng);
            out.clear();
            out.extend_from_slice(&outcome.decided);
            Aggregated::Cba(kind.name(), outcome)
        }
    }
}

impl<'e> RoundEngine<'e> {
    /// One cluster's collect → aggregate → judge. `arrivals` holds the
    /// candidate slots in arrival order, `carried` reads every slot's
    /// current model in place and `ready_at` says when it is ready to
    /// send; the aggregate lands in `out`, the kept slots (ascending)
    /// stay in `ws.kept`, the close and first-arrival times in
    /// `ws.closed_at` / `ws.first_at`.
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
        carried: Carried<'_>,
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
        inputs.extend(kept.iter().map(|&slot| carried.row(slot)));

        let scoring = if cl.level == 0 {
            Scoring::Validation(exp.template.as_ref(), &exp.task.test)
        } else {
            Scoring::Distance
        };
        ctx.phases.lap(Phase::Engine(cl.level));
        let aggregated = aggregate(
            &exp.config().levels[cl.level],
            &inputs,
            deadline.then_some(weights.as_slice()),
            |i| exp.protocol_byzantine(cl.global(kept[i])),
            scoring,
            rng,
            out,
            agg,
        );
        ctx.phases.lap(Phase::Rule(cl.level));
        let mut verdict = match aggregated {
            Aggregated::Bra(kind) => {
                // Members upload to the collector; the partial
                // broadcasts back as far as it can reach (Algorithm 3).
                // `kept` is exactly the quorum on the synchronous path;
                // a deadline buffer may admit more (τ-late) or fewer
                // (degraded close).
                let reach = match &self.fault {
                    _ if cl.level == 0 => kept.len() as u64,
                    Some(fault) => fault.broadcast_reach(ctx.round, cl),
                    None => cl.members.len() as u64,
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

    /// The collect step: fills `ws.kept` with the admitted slots,
    /// ascending — which is member order — by the config's
    /// `async_rounds`. Returns the quorum and whether a deadline buffer
    /// ran; if so `ws.weights` / `ws.lateness` are aligned with
    /// `ws.kept`, and a close below quorum has been sanctioned as a
    /// `degraded_quorum` record.
    ///
    /// Without `async_rounds` the cluster waits for its quorum: it
    /// keeps the first ⌈φ·n⌉ of the arrival order (Algorithm 4's
    /// wait-until-quorum), opens no arrival stream, emits no buffer
    /// telemetry, and closes when the last kept slot is ready.
    ///
    /// With it, a deadline buffer (DESIGN.md §12) opens when the first
    /// candidate is ready to send and draws one link delay per
    /// candidate from the [`ARRIVAL_STREAM`] RNG — unconditionally, so
    /// adversary decisions never shift another candidate's sample —
    /// scaled by the fault layer's straggler factor
    /// ([`super::fault::FaultLayer::arrival_delay_factor`]) and the
    /// client's heterogeneity profile, in integer µs. Candidates are
    /// ordered by `(ready_at + link delay, arrival position)`, times
    /// counted from the buffer's opening. The buffer closes at first-of
    /// `{quorum-th non-stalled arrival, deadline}`; candidates the
    /// adversary stalls
    /// ([`super::adversary::AdversaryLayer::stalls_until_stale`]) land
    /// at `close + τ`, arrivals within τ of the close are admitted at a
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
        ws.kept.clear();
        let Some(policy) = &cfg.async_rounds else {
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
        let deadline_us = policy.deadline_for(cl.level);
        let tau = policy.staleness_bound_us;

        let delay = &policy.link_delay;
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
                .fault
                .as_ref()
                .map_or(1.0, |f| f.arrival_delay_factor(round, slot));
            // Device heterogeneity stacks multiplicatively on top of any
            // straggler window: a slow device is slow every round.
            // Straggler windows are topological (slot); the profile is
            // identity-bound (the global client behind the slot).
            let factor = factor * self.exp.arrival_profile(cl.global(slot));
            let sent = ready_at[slot] - open;
            let link = raw.saturating_scale(factor).as_micros();
            ws.times.push((sent.saturating_add(link), pos));
            ws.stalled.push(
                self.adversary
                    .as_ref()
                    .is_some_and(|a| a.stalls_until_stale(cl, slot)),
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
        let (cause, closes) = match deadline_fired {
            true => ("deadline", DEADLINE_CLOSES),
            false => ("quorum", QUORUM_CLOSES),
        };
        let registry = ctx.telem.registry();
        registry.counter(closes, &[]).inc(1);
        registry.gauge(OCCUPANCY_GAUGE, &[]).set(on_time as f64);
        ctx.telem.emit_with(|| Event::BufferClosed {
            round,
            level: cl.level,
            cluster: cl.index,
            cause: cause.to_string(),
            close_us: ws.closed_at,
            occupancy: on_time,
            expected: n,
        });
        ws.admitted.clear();
        for (i, &(t, pos)) in ws.times.iter().enumerate() {
            let slot = arrivals[pos];
            let late = t.saturating_sub(close_us);
            if i < on_time {
                ws.admitted.push((slot, 1.0, 0.0));
            } else if late <= tau {
                let w = cfg.correction.admission_weight(late, tau);
                ws.admitted.push((slot, w, late as f64 / tau as f64));
                registry.counter(STALE_ADMITTED, &[]).inc(1);
                ctx.telem.emit_with(|| Event::StaleUpdateAdmitted {
                    round,
                    level: cl.level,
                    cluster: cl.index,
                    device: slot,
                    lateness_us: late,
                    weight: f64::from(w),
                });
            } else {
                registry.counter(STALE_DROPPED, &[]).inc(1);
                ctx.telem.emit_with(|| Event::StaleUpdateDropped {
                    round,
                    level: cl.level,
                    cluster: cl.index,
                    device: slot,
                    lateness_us: late,
                });
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
            ctx.telem.emit_with(|| Event::DegradedQuorum {
                round,
                level: cl.level,
                cluster: cl.index,
                alive: ws.kept.len(),
                expected: cl.expected,
            });
        }
        (quorum, true)
    }
}
