//! The adversary layer: the coalition's side of the arms race — the
//! adaptive magnitude search fed by acceptance feedback, pivotal
//! withholding, and leader equivocation (with repair after the echo
//! audit convicts).

use hfl_attacks::{AdaptiveAdversary, AttackFeedback, ModelAttack, ProtocolAttack};
use hfl_consensus::quorum_size;
use hfl_robust::evidence::Acceptance;
use hfl_snapshot::{LayerState, SearchState};
use hfl_telemetry::Event;

use super::layer::{ClusterCtx, RoundCtx};
use crate::config::AttackCfg;
use crate::runner::Experiment;

/// Adaptive-attack + protocol-attack semantics for the round engine.
pub(crate) struct AdversaryLayer<'e> {
    adversary: Option<AdaptiveAdversary>,
    /// `Some(flip_scale)` while malicious bottom leaders equivocate.
    equivocate: Option<f32>,
    /// Malicious members withhold pivotally.
    withhold: bool,
    /// Malicious members stall uploads until just inside the staleness
    /// bound of their cluster's deadline buffer.
    staleness_exploit: bool,
    /// Equivocators convicted by the echo audit (by *global* client
    /// id over the whole population): they are repaired — behave
    /// honestly — from the round after detection, whatever cohort they
    /// next land in.
    detected: Vec<bool>,
    /// Coalition feedback accumulated during the current round.
    feedback: AttackFeedback,
    malicious: &'e [bool],
    /// The quorum fraction φ (pivotal withholding must not break it).
    phi: f64,
}

impl<'e> AdversaryLayer<'e> {
    /// The adversary layer for an experiment, when its config engages
    /// the arms race (adaptive attack, protocol attack, or suspicion —
    /// the last so acceptance feedback stays observable symmetrically
    /// with the defense).
    pub(crate) fn for_experiment(exp: &'e Experiment) -> Option<Self> {
        let cfg = exp.config();
        if !cfg.arms_race() {
            return None;
        }
        let adversary = match &cfg.attack {
            AttackCfg::Adaptive { attack, .. } => Some(AdaptiveAdversary::new(attack.clone())),
            _ => None,
        };
        let (equivocate, withhold, staleness_exploit) = match &cfg.protocol_attack {
            Some(ProtocolAttack::Equivocate { flip_scale }) => (Some(*flip_scale), false, false),
            Some(ProtocolAttack::Withhold) => (None, true, false),
            Some(ProtocolAttack::StalenessExploit) => (None, false, true),
            None => (None, false, false),
        };
        Some(Self {
            adversary,
            equivocate,
            withhold,
            staleness_exploit,
            detected: vec![false; exp.population_size()],
            feedback: AttackFeedback::default(),
            malicious: &exp.malicious,
            phi: cfg.quorum,
        })
    }

    /// The feedback accumulator is per aggregation.
    pub(crate) fn begin_aggregate(&mut self) {
        self.feedback = AttackFeedback::default();
    }

    /// The crafted model attack malicious clients substitute this
    /// round: the adaptive search's current magnitude.
    pub(crate) fn training_attack(&self) -> Option<ModelAttack> {
        self.adversary
            .as_ref()
            .map(AdaptiveAdversary::current_attack)
    }

    /// Pivotal withholding: malicious members drop their update exactly
    /// when the cluster still forms its quorum without them (only
    /// possible at φ < 1).
    pub(crate) fn filter_members(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        cl: &ClusterCtx<'_>,
        present: &mut Vec<usize>,
    ) {
        if !cl.at_bottom() || !self.withhold {
            return;
        }
        let withholding: Vec<usize> = present
            .iter()
            .copied()
            .filter(|&mi| {
                let slot = cl.members[mi];
                // Maliciousness is identity-bound; the leadership check
                // is topological (the slot holding the collection role).
                self.malicious[cl.global(slot)] && slot != cl.leader
            })
            .collect();
        let quorum_all = quorum_size(self.phi, present.len());
        if !withholding.is_empty() && present.len() - withholding.len() >= quorum_all {
            ctx.cost.withheld += withholding.len() as u64;
            for &mi in &withholding {
                ctx.telem.emit_with(|| Event::UpdateWithheld {
                    round: ctx.round,
                    client: cl.global(cl.members[mi]),
                });
            }
            present.retain(|mi| !withholding.contains(mi));
        }
    }

    /// Staleness exploit: malicious bottom members (never the leader,
    /// whose collection role would expose the stall immediately) time
    /// their upload to land just inside the buffer's staleness bound τ
    /// — the latest arrival the protocol still admits. They never help
    /// form the quorum, every buffer they touch ages toward its
    /// deadline, and their updates enter at the worst admitted
    /// discount.
    pub(crate) fn stalls_until_stale(&self, cl: &ClusterCtx<'_>, slot: usize) -> bool {
        self.staleness_exploit
            && cl.at_bottom()
            && self.malicious[cl.global(slot)]
            && slot != cl.leader
    }

    /// Acceptance feedback: did the coalition's crafted updates make it
    /// into the aggregate this round?
    pub(crate) fn observe_verdict(&mut self, kept: &[usize], verdict: &Acceptance) {
        for (pos, &dev) in kept.iter().enumerate() {
            if self.malicious[dev] {
                self.feedback.submitted += 1;
                if verdict.accepted[pos] {
                    self.feedback.accepted += 1;
                }
            }
        }
    }

    /// Equivocation: a malicious, undetected bottom leader sends
    /// `−flip_scale · partial` upward while echoing the true partial to
    /// its members.
    pub(crate) fn upward_value(&self, cl: &ClusterCtx<'_>, partial: &[f32]) -> Option<Vec<f32>> {
        if !cl.at_bottom() {
            return None;
        }
        let leader = cl.global(cl.leader);
        match self.equivocate {
            Some(flip) if self.malicious[leader] && !self.detected[leader] => {
                Some(partial.iter().map(|x| -flip * x).collect())
            }
            _ => None,
        }
    }

    /// Round close, phase 3: consume the defense's `convicted`
    /// leaders (repair from next round), then feed the acceptance
    /// feedback to the magnitude search.
    pub(crate) fn close_round(&mut self, ctx: &mut RoundCtx<'_>, convicted: &[usize]) {
        for &leader in convicted {
            self.detected[leader] = true;
        }
        if let Some(adv) = self.adversary.as_mut() {
            ctx.telem.emit_with(|| Event::AttackAdapted {
                round: ctx.round,
                magnitude: f64::from(adv.magnitude()),
                submitted: self.feedback.submitted,
                accepted: self.feedback.accepted,
            });
            adv.observe(ctx.round, self.feedback);
        }
    }

    /// Cross-round state: the magnitude-search window (adaptive attacks
    /// only) and which coalition leaders know themselves convicted. The
    /// feedback accumulator is per-round and resets on every
    /// `begin_aggregate`.
    pub(crate) fn snapshot_state(&self) -> LayerState {
        LayerState::Adversary {
            search: self.adversary.as_ref().map(|adv| {
                let (lo, hi, current, history) = adv.search_state();
                SearchState {
                    lo,
                    hi,
                    current,
                    history: history.to_vec(),
                }
            }),
            detected: self.detected.clone(),
        }
    }

    pub(crate) fn restore_state(&mut self, state: &LayerState) -> Result<(), String> {
        let LayerState::Adversary { search, detected } = state else {
            return Err(format!(
                "adversary layer handed {} state",
                state.layer_name()
            ));
        };
        if detected.len() != self.detected.len() {
            return Err(format!(
                "conviction flags are for {} clients, population has {}",
                detected.len(),
                self.detected.len()
            ));
        }
        match (self.adversary.as_mut(), search) {
            (Some(adv), Some(s)) => {
                adv.restore_search(s.lo, s.hi, s.current, s.history.clone())?;
            }
            (None, None) => {}
            (Some(_), None) => {
                return Err("snapshot has no search state but the attack is adaptive".to_string());
            }
            (None, Some(_)) => {
                return Err("snapshot carries search state but the attack is static".to_string());
            }
        }
        self.detected.copy_from_slice(detected);
        Ok(())
    }
}
