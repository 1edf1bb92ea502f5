//! The defense layer: the quarantine filter, per-aggregation evidence
//! strikes, and the echo audit that convicts equivocating leaders.
//! Owns the run's [`SuspicionTracker`] when the config enables it; the
//! audit itself runs whenever the arms race is active at all, so a
//! suspicion-free adaptive run still pays the (tiny) digest cost — as
//! the paper's protocol always ships the echoes.

use hfl_consensus::echo::{hash_update, EchoReport};
use hfl_robust::{evidence, SuspicionChange, SuspicionTracker};
use hfl_snapshot::{LayerState, TrackerState};
use hfl_telemetry::{Event, SuspicionRecord};

use super::layer::{ClusterCtx, RoundCtx};
use crate::runner::Experiment;

/// The registry counter of leaders the echo audit convicted.
pub(super) const EQUIVOCATIONS: &str = "hfl_equivocations_total";

/// Quarantine + evidence + echo-audit semantics for the round engine.
pub(crate) struct DefenseLayer {
    /// Suspicion over *global* client ids (the whole population under
    /// sampling): scores survive across rounds whatever cohort a client
    /// lands in.
    tracker: Option<SuspicionTracker>,
    /// Echo audits collected this round: `(cluster, global leader id,
    /// report)`.
    audits: Vec<(usize, usize, EchoReport)>,
    /// The hierarchy's bottom level (audited clusters live there).
    bottom: usize,
}

impl DefenseLayer {
    /// The defense layer for an experiment, when its config engages the
    /// arms race (adaptive attack, protocol attack, or suspicion).
    pub(crate) fn for_experiment(exp: &Experiment) -> Option<Self> {
        let cfg = exp.config();
        if !cfg.arms_race() {
            return None;
        }
        Some(Self {
            tracker: cfg
                .suspicion
                .map(|s| SuspicionTracker::new(exp.population_size(), s)),
            audits: Vec::new(),
            bottom: exp.hierarchy.bottom_level(),
        })
    }

    /// The suspicion tracker, when the config enables it.
    pub(crate) fn tracker(&self) -> Option<&SuspicionTracker> {
        self.tracker.as_ref()
    }

    /// The audit accumulator is per aggregation.
    pub(crate) fn begin_aggregate(&mut self) {
        self.audits.clear();
    }

    /// Quarantined clients are excluded from their cluster's inputs —
    /// unless that would empty the cluster (the defense must not DoS
    /// itself).
    pub(crate) fn filter_members(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        cl: &ClusterCtx<'_>,
        present: &mut Vec<usize>,
    ) {
        if !cl.at_bottom() {
            return;
        }
        if let Some(tracker) = &self.tracker {
            let kept: Vec<usize> = present
                .iter()
                .copied()
                .filter(|&mi| !tracker.is_quarantined(cl.global(cl.members[mi])))
                .collect();
            if !kept.is_empty() {
                ctx.cost.quarantined += (present.len() - kept.len()) as u64;
                *present = kept;
            }
        }
    }

    /// Strikes from the aggregation's evidence feed the tracker.
    pub(crate) fn observe_verdict(&mut self, kept: &[usize], verdict: &evidence::Acceptance) {
        let Some(tracker) = self.tracker.as_mut() else {
            return;
        };
        for (pos, &dev) in kept.iter().enumerate() {
            if verdict.strikes[pos] > 0.0 {
                tracker.strike(dev, verdict.strikes[pos]);
            }
        }
    }

    /// Every member echoes the digest of the partial it received; the
    /// parent collector digests the up-sent value — `up`, when the
    /// leader sent a vector other than the partial, else the partial's
    /// own digest, which is computed once. 8 bytes per member,
    /// negligible next to the model transfers.
    pub(crate) fn audit_cluster(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        cl: &ClusterCtx<'_>,
        partial: &[f32],
        up: Option<&[f32]>,
    ) {
        if !cl.at_bottom() {
            return;
        }
        ctx.charge_echo(cl.members.len());
        let echoed = hash_update(partial);
        self.audits.push((
            cl.index,
            // Convictions bind to the *identity* behind the leader slot.
            cl.global(cl.leader),
            EchoReport {
                up_digest: up.map_or(echoed, hash_update),
                member_digests: vec![echoed; cl.members.len()],
            },
        ));
    }

    /// Round close, phase 1: the echo audit convicts equivocators and
    /// returns them (detection latency is one round by construction —
    /// the corrupt partial already propagated; the adversary repairs
    /// them from the next round). Phase 2: the suspicion layer closes
    /// its round.
    pub(crate) fn close_round(&mut self, ctx: &mut RoundCtx<'_>) -> Vec<usize> {
        let round = ctx.round;
        let mut convicted = Vec::new();
        for (ci, leader, report) in self.audits.drain(..) {
            if report.equivocated() {
                convicted.push(leader);
                ctx.telem.registry().counter(EQUIVOCATIONS, &[]).inc(1);
                ctx.telem.emit_with(|| Event::EquivocationDetected {
                    round,
                    level: self.bottom,
                    cluster: ci,
                    leader,
                });
                if let Some(t) = self.tracker.as_mut() {
                    t.strike(leader, 3.0 * evidence::STRIKE_WORST);
                }
                ctx.susp_log.push(SuspicionRecord {
                    round,
                    kind: "equivocation".into(),
                    client: leader,
                    score: self
                        .tracker
                        .as_ref()
                        .map(|t| t.score(leader))
                        .unwrap_or(0.0),
                });
            }
        }
        if let Some(t) = self.tracker.as_mut() {
            for change in t.end_round() {
                match change {
                    SuspicionChange::Quarantined { client, score } => {
                        ctx.telem.emit_with(|| Event::ClientQuarantined {
                            round,
                            client,
                            score,
                        });
                        ctx.susp_log.push(SuspicionRecord {
                            round,
                            kind: "quarantined".into(),
                            client,
                            score,
                        });
                    }
                    SuspicionChange::Released { client, score } => {
                        ctx.telem.emit_with(|| Event::ClientReleased {
                            round,
                            client,
                            score,
                        });
                        ctx.susp_log.push(SuspicionRecord {
                            round,
                            kind: "released".into(),
                            client,
                            score,
                        });
                    }
                }
            }
        }
        convicted
    }

    /// The audit accumulator is per-round (cleared on every
    /// `begin_aggregate`), so only the tracker crosses rounds.
    pub(crate) fn snapshot_state(&self) -> LayerState {
        LayerState::Defense {
            tracker: self.tracker.as_ref().map(|t| TrackerState {
                scores: t.scores().to_vec(),
                quarantined: t.quarantined_mask().to_vec(),
                quarantine_events: t.quarantine_events(),
            }),
        }
    }

    pub(crate) fn restore_state(&mut self, state: &LayerState) -> Result<(), String> {
        let LayerState::Defense { tracker } = state else {
            return Err(format!("defense layer handed {} state", state.layer_name()));
        };
        match (self.tracker.as_mut(), tracker) {
            (Some(t), Some(s)) => t.restore_state(&s.scores, &s.quarantined, s.quarantine_events),
            (None, None) => Ok(()),
            (Some(_), None) => {
                Err("snapshot has no suspicion tracker but the config enables one".to_string())
            }
            (None, Some(_)) => {
                Err("snapshot carries a suspicion tracker but the config disables it".to_string())
            }
        }
    }
}
