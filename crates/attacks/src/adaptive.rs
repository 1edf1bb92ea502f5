//! Adaptive, defense-aware model poisoning: an adversary that persists
//! state across rounds and tunes its attack magnitude from public
//! defense feedback (was the crafted update accepted by the aggregator
//! last round?), plus protocol-level misbehaviors (equivocation,
//! selective withholding) that attack the *hierarchy* rather than the
//! aggregation rule.
//!
//! The magnitude search is a bisection over the acceptance boundary:
//! ALIE's `z` and IPM's `epsilon` trade damage (larger is worse for the
//! defender) against detectability (larger is easier to filter). A
//! static attack picks one point on that trade-off for the whole run;
//! the adaptive adversary walks to the largest magnitude the configured
//! defense still accepts — the attack model of benchmark suites such as
//! Blades and ByzFL, where defense-aware adversaries are the ones that
//! actually separate aggregation rules.
//!
//! Everything here is deterministic: the search consumes no RNG, so an
//! adaptive run stays bit-reproducible from the seed.

use crate::model_poison::ModelAttack;

/// An adaptive attack family: which base attack to tune, its starting
/// magnitude, and the largest magnitude the search may probe.
#[derive(Clone, Debug, PartialEq)]
pub enum AdaptiveAttack {
    /// Tune ALIE's `z` (honest standard deviations of shift).
    Alie {
        /// Initial `z` before any feedback arrives.
        z_init: f32,
        /// Upper bound of the search interval.
        z_max: f32,
    },
    /// Tune IPM's `epsilon` (negative-scaling factor).
    Ipm {
        /// Initial `epsilon` before any feedback arrives.
        eps_init: f32,
        /// Upper bound of the search interval.
        eps_max: f32,
    },
    /// Tune the scaling / Fall-of-Empires reflection magnitude: at
    /// magnitude `m` the coalition submits `−m · mean(honest)`
    /// ([`ModelAttack::Scaling`] with `factor = −m`), so the search walks
    /// the reflected boundary toward the largest blow-up the defense
    /// still accepts.
    Scaling {
        /// Initial reflection magnitude before any feedback arrives.
        factor_init: f32,
        /// Upper bound of the search interval.
        factor_max: f32,
    },
}

impl AdaptiveAttack {
    /// The paper-default ALIE adaptive family: start at the classic
    /// z = 1.5 and allow the search up to z = 6.
    pub fn alie_default() -> Self {
        AdaptiveAttack::Alie {
            z_init: 1.5,
            z_max: 6.0,
        }
    }

    /// The paper-default IPM adaptive family: start at ε = 0.5 and allow
    /// the search up to ε = 8 (beyond reflection).
    pub fn ipm_default() -> Self {
        AdaptiveAttack::Ipm {
            eps_init: 0.5,
            eps_max: 8.0,
        }
    }

    /// The default adaptive scaling family: start at the pure reflection
    /// m = 1 and allow the search up to m = 10.
    pub fn scaling_default() -> Self {
        AdaptiveAttack::Scaling {
            factor_init: 1.0,
            factor_max: 10.0,
        }
    }

    /// `(init, max)` of the tuned magnitude.
    pub fn bounds(&self) -> (f32, f32) {
        match *self {
            AdaptiveAttack::Alie { z_init, z_max } => (z_init, z_max),
            AdaptiveAttack::Ipm { eps_init, eps_max } => (eps_init, eps_max),
            AdaptiveAttack::Scaling {
                factor_init,
                factor_max,
            } => (factor_init, factor_max),
        }
    }

    /// The concrete [`ModelAttack`] this family crafts with at a given
    /// magnitude.
    pub fn at_magnitude(&self, magnitude: f32) -> ModelAttack {
        match self {
            AdaptiveAttack::Alie { .. } => ModelAttack::Alie { z: magnitude },
            AdaptiveAttack::Ipm { .. } => ModelAttack::Ipm {
                epsilon: magnitude.max(f32::EPSILON),
            },
            AdaptiveAttack::Scaling { .. } => ModelAttack::Scaling {
                // ModelAttack::Scaling asserts factor ≠ 0; keep the
                // reflection strictly negative.
                factor: -magnitude.max(f32::EPSILON),
            },
        }
    }

    /// Stable label for reports (`"alie"` / `"ipm"` / `"scaling"`).
    pub fn name(&self) -> &'static str {
        match self {
            AdaptiveAttack::Alie { .. } => "alie",
            AdaptiveAttack::Ipm { .. } => "ipm",
            AdaptiveAttack::Scaling { .. } => "scaling",
        }
    }
}

/// Public defense feedback one round of aggregation grants the coalition:
/// of the crafted updates it submitted, how many did the configured
/// aggregation rule actually use? (Selection by Krum/Multi-Krum, survival
/// of the trim, inclusion by consensus, ...) This is observable by a real
/// adversary — the disseminated model reveals whether its contribution
/// moved the aggregate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AttackFeedback {
    /// Crafted updates the coalition submitted to aggregators this round.
    pub submitted: u64,
    /// Of those, updates the rule accepted (used in the aggregate).
    pub accepted: u64,
}

impl AttackFeedback {
    /// Majority-accepted: the round counts as "inside the acceptance
    /// region". Rounds where nothing was submitted count as accepted
    /// (no evidence of rejection).
    pub fn majority_accepted(&self) -> bool {
        self.submitted == 0 || 2 * self.accepted >= self.submitted
    }
}

/// When the bisection interval has collapsed below this fraction of the
/// full range, the upper bound re-expands to the maximum: defenses with
/// memory (suspicion scores, quarantine) move the acceptance boundary
/// over time, so the search must keep probing.
const REPROBE_FRACTION: f32 = 0.05;

/// The stateful coalition controller: one per run, shared by all
/// malicious clients (they collude). Holds the bisection state over the
/// attack magnitude and a per-round history for reports.
#[derive(Clone, Debug)]
pub struct AdaptiveAdversary {
    attack: AdaptiveAttack,
    /// Largest magnitude known (or assumed) accepted.
    lo: f32,
    /// Smallest magnitude known rejected, or the search maximum.
    hi: f32,
    current: f32,
    max: f32,
    /// `(round, magnitude used, majority-accepted)` per observed round.
    history: Vec<(usize, f32, bool)>,
}

impl AdaptiveAdversary {
    /// A fresh controller starting at the family's initial magnitude.
    pub fn new(attack: AdaptiveAttack) -> Self {
        let (init, max) = attack.bounds();
        let init = init.clamp(0.0, max);
        Self {
            attack,
            lo: 0.0,
            hi: max,
            current: init,
            max,
            history: Vec::new(),
        }
    }

    /// The magnitude the coalition uses this round.
    pub fn magnitude(&self) -> f32 {
        self.current
    }

    /// The concrete attack to craft with this round.
    pub fn current_attack(&self) -> ModelAttack {
        self.attack.at_magnitude(self.current)
    }

    /// The configured family.
    pub fn attack(&self) -> &AdaptiveAttack {
        &self.attack
    }

    /// Per-round `(round, magnitude, majority_accepted)` history.
    pub fn history(&self) -> &[(usize, f32, bool)] {
        &self.history
    }

    /// The full bisection state `(lo, hi, current, history)` for
    /// checkpointing.
    pub fn search_state(&self) -> (f32, f32, f32, &[(usize, f32, bool)]) {
        (self.lo, self.hi, self.current, &self.history)
    }

    /// Overwrites the bisection state from a checkpoint. The window must
    /// be finite and inside `[0, max]` of the configured family.
    pub fn restore_search(
        &mut self,
        lo: f32,
        hi: f32,
        current: f32,
        history: Vec<(usize, f32, bool)>,
    ) -> Result<(), String> {
        if !(lo.is_finite() && hi.is_finite() && current.is_finite()) {
            return Err(format!("non-finite search window ({lo}, {hi}, {current})"));
        }
        if !(0.0 <= lo && lo <= hi && hi <= self.max) {
            return Err(format!(
                "search window ({lo}, {hi}) outside [0, {}]",
                self.max
            ));
        }
        if !(0.0..=self.max).contains(&current) {
            return Err(format!("magnitude {current} outside [0, {}]", self.max));
        }
        self.lo = lo;
        self.hi = hi;
        self.current = current;
        self.history = history;
        Ok(())
    }

    /// Consumes one round of defense feedback and moves the magnitude:
    /// accepted ⇒ the boundary is above `current` (raise `lo`); rejected
    /// ⇒ it is below (lower `hi`); next magnitude is the interval
    /// midpoint. A collapsed interval re-expands its upper bound so the
    /// search tracks non-stationary defenses.
    pub fn observe(&mut self, round: usize, feedback: AttackFeedback) {
        let accepted = feedback.majority_accepted();
        self.history.push((round, self.current, accepted));
        if accepted {
            self.lo = self.current;
        } else {
            self.hi = self.current;
        }
        if self.hi - self.lo < REPROBE_FRACTION * self.max {
            self.hi = self.max;
        }
        self.current = 0.5 * (self.lo + self.hi);
    }
}

/// Protocol-level misbehavior of malicious devices *in their hierarchy
/// role*, orthogonal to how updates are crafted.
#[derive(Clone, Debug, PartialEq)]
pub enum ProtocolAttack {
    /// A malicious bottom-cluster leader sends a corrupted partial
    /// aggregate upward while echoing the true partial to its cluster —
    /// equivocation. Defended by the cross-cluster echo/audit digest
    /// check (`hfl_consensus::echo`): once detected, the true (echoed)
    /// value is used and the leader is flagged.
    Equivocate {
        /// The corrupted up-sent value is `−flip_scale · partial`.
        flip_scale: f32,
    },
    /// Malicious members send their update only when the cluster cannot
    /// form its quorum without them (pivotal withholding) — starving
    /// aggregation of their slots while never being *observed* absent
    /// at a quorum decision. Only manifests at φ < 1.
    Withhold,
    /// Malicious members stall their upload until *just inside* the
    /// staleness bound τ of a deadline-driven collection buffer: they
    /// never count toward the quorum (arriving after the close), can
    /// force deadline closes, yet are always admitted — at the worst
    /// staleness discount — so their poisoned updates keep entering
    /// aggregation. Only meaningful under `async_rounds`; defended by
    /// the staleness-discounted admission weight plus staleness
    /// strikes in the acceptance evidence.
    StalenessExploit,
}

impl ProtocolAttack {
    /// Stable label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolAttack::Equivocate { .. } => "equivocate",
            ProtocolAttack::Withhold => "withhold",
            ProtocolAttack::StalenessExploit => "staleness_exploit",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb(submitted: u64, accepted: u64) -> AttackFeedback {
        AttackFeedback {
            submitted,
            accepted,
        }
    }

    #[test]
    fn starts_at_init_magnitude() {
        let adv = AdaptiveAdversary::new(AdaptiveAttack::alie_default());
        assert_eq!(adv.magnitude(), 1.5);
        assert_eq!(adv.current_attack(), ModelAttack::Alie { z: 1.5 });
    }

    #[test]
    fn acceptance_raises_magnitude_rejection_lowers_it() {
        let mut adv = AdaptiveAdversary::new(AdaptiveAttack::Ipm {
            eps_init: 1.0,
            eps_max: 8.0,
        });
        adv.observe(0, fb(4, 4)); // accepted: lo = 1 → next = (1+8)/2
        assert!(adv.magnitude() > 1.0, "accepted must push up");
        let high = adv.magnitude();
        adv.observe(1, fb(4, 0)); // rejected: hi = high → next < high
        assert!(adv.magnitude() < high, "rejected must pull down");
    }

    #[test]
    fn bisection_converges_to_acceptance_boundary() {
        // Oracle defense: accepts iff magnitude ≤ 3.0 of an 8.0 range.
        let mut adv = AdaptiveAdversary::new(AdaptiveAttack::Ipm {
            eps_init: 4.0,
            eps_max: 8.0,
        });
        for round in 0..16 {
            let m = adv.magnitude();
            let accepted = m <= 3.0;
            adv.observe(round, fb(4, if accepted { 4 } else { 0 }));
        }
        // The re-probe keeps hi bouncing back to max, but the *used*
        // magnitudes must cluster at the boundary from below.
        let late: Vec<f32> = adv.history().iter().skip(8).map(|(_, m, _)| *m).collect();
        let near = late.iter().filter(|m| (**m - 3.0).abs() < 1.0).count();
        assert!(
            near * 2 >= late.len(),
            "late magnitudes should hug the 3.0 boundary: {late:?}"
        );
    }

    #[test]
    fn collapsed_interval_reprobes_upward() {
        let mut adv = AdaptiveAdversary::new(AdaptiveAttack::Alie {
            z_init: 1.0,
            z_max: 6.0,
        });
        // Reject everything: hi collapses toward lo = 0.
        for round in 0..12 {
            adv.observe(round, fb(2, 0));
        }
        // The interval must have re-expanded at least once (magnitude
        // cannot be pinned at ~0 forever).
        assert!(
            adv.history().iter().any(|(_, m, _)| *m > 1.0),
            "re-probe never fired: {:?}",
            adv.history()
        );
    }

    #[test]
    fn no_submissions_counts_as_accepted() {
        assert!(fb(0, 0).majority_accepted());
        assert!(fb(4, 2).majority_accepted());
        assert!(!fb(4, 1).majority_accepted());
    }

    #[test]
    fn search_is_deterministic() {
        let run = |seed_rounds: usize| {
            let mut adv = AdaptiveAdversary::new(AdaptiveAttack::alie_default());
            for round in 0..seed_rounds {
                let acc = round % 3 != 0;
                adv.observe(round, fb(3, if acc { 3 } else { 0 }));
            }
            adv.history().to_vec()
        };
        assert_eq!(run(20), run(20));
    }

    #[test]
    fn magnitudes_stay_in_bounds() {
        let mut adv = AdaptiveAdversary::new(AdaptiveAttack::Ipm {
            eps_init: 2.0,
            eps_max: 5.0,
        });
        for round in 0..40 {
            let m = adv.magnitude();
            assert!((0.0..=5.0).contains(&m), "magnitude {m} escaped [0, 5]");
            adv.observe(round, fb(1, u64::from(round % 2 == 0)));
        }
    }

    #[test]
    fn ipm_magnitude_never_crafts_zero_epsilon() {
        // ModelAttack::Ipm asserts ε > 0; the family must clamp.
        let a = AdaptiveAttack::ipm_default().at_magnitude(0.0);
        assert!(matches!(a, ModelAttack::Ipm { epsilon } if epsilon > 0.0));
    }

    #[test]
    fn scaling_magnitude_crafts_negative_reflection() {
        let fam = AdaptiveAttack::scaling_default();
        assert_eq!(fam.name(), "scaling");
        assert_eq!(fam.bounds(), (1.0, 10.0));
        let a = fam.at_magnitude(2.5);
        assert!(matches!(a, ModelAttack::Scaling { factor } if factor == -2.5));
        // ModelAttack::Scaling asserts factor ≠ 0; the family must clamp.
        let a = fam.at_magnitude(0.0);
        assert!(matches!(a, ModelAttack::Scaling { factor } if factor < 0.0));
    }

    #[test]
    fn scaling_family_bisects_like_the_others() {
        let mut adv = AdaptiveAdversary::new(AdaptiveAttack::scaling_default());
        assert_eq!(adv.magnitude(), 1.0);
        adv.observe(0, fb(3, 3));
        assert!(adv.magnitude() > 1.0, "accepted must push up");
        let high = adv.magnitude();
        adv.observe(1, fb(3, 0));
        assert!(adv.magnitude() < high, "rejected must pull down");
    }

    #[test]
    fn protocol_attack_labels() {
        assert_eq!(
            ProtocolAttack::Equivocate { flip_scale: 1.0 }.name(),
            "equivocate"
        );
        assert_eq!(ProtocolAttack::Withhold.name(), "withhold");
        assert_eq!(ProtocolAttack::StalenessExploit.name(), "staleness_exploit");
    }
}
