//! Defense-side memory: per-client exponentially-decayed suspicion
//! scores, quarantine above a threshold, rehabilitation on decay.
//!
//! The hierarchy's aggregation rules are memoryless — a client that
//! sign-flips every round is treated identically in round 50 and in
//! round 1. The tracker accumulates the per-round strike evidence the
//! rules already produce ([`crate::evidence`]) into a score
//!
//! ```text
//! score[c] ← decay · (score[c] + strikes_this_round[c])
//! ```
//!
//! and quarantines a client whose pre-decay score crosses
//! `quarantine_threshold`: its updates are excluded from aggregation
//! until the score decays below `release_threshold` (quarantined clients
//! accrue no new evidence, so rehabilitation is automatic — a client
//! that was struck by bad luck returns within a few rounds).
//!
//! Steady state: a client struck `s` per round converges to a pre-decay
//! score of `s / (1 − decay)`. With the defaults (decay 0.8, quarantine
//! 2.2) a persistent worst-rank outlier (s = 1.0, steady state 5.0)
//! crosses within 3 rounds, a persistent runner-up (s = 0.5, steady
//! state 2.5) within 7, while a client struck occasionally stays below
//! threshold forever.

/// Suspicion layer parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SuspicionConfig {
    /// Multiplicative per-round score decay, in `(0, 1)`.
    pub decay: f64,
    /// Quarantine a client whose pre-decay score reaches this.
    pub quarantine_threshold: f64,
    /// Release a quarantined client once its score decays below this
    /// (must be below `quarantine_threshold` for hysteresis).
    pub release_threshold: f64,
}

impl Default for SuspicionConfig {
    fn default() -> Self {
        Self {
            decay: 0.8,
            quarantine_threshold: 2.2,
            release_threshold: 0.8,
        }
    }
}

impl SuspicionConfig {
    /// First parameter out of range, if any (`None` = valid). The exact
    /// invariants: `decay ∈ (0, 1)`, thresholds positive and finite,
    /// `release_threshold < quarantine_threshold`.
    pub fn invalid_param(&self) -> Option<(&'static str, f64)> {
        if !(self.decay > 0.0 && self.decay < 1.0) {
            return Some(("decay", self.decay));
        }
        if !(self.quarantine_threshold > 0.0 && self.quarantine_threshold.is_finite()) {
            return Some(("quarantine_threshold", self.quarantine_threshold));
        }
        if !(self.release_threshold > 0.0 && self.release_threshold < self.quarantine_threshold) {
            return Some(("release_threshold", self.release_threshold));
        }
        None
    }
}

/// A quarantine-state transition produced by [`SuspicionTracker::end_round`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SuspicionChange {
    /// The client's score crossed the quarantine threshold.
    Quarantined {
        /// Client id.
        client: usize,
        /// Score at the transition.
        score: f64,
    },
    /// The quarantined client's score decayed below the release
    /// threshold (rehabilitation).
    Released {
        /// Client id.
        client: usize,
        /// Score at the transition.
        score: f64,
    },
}

/// Per-client suspicion state for one run. Purely arithmetic — no RNG,
/// no wall clock — so runs stay bit-reproducible.
#[derive(Clone, Debug)]
pub struct SuspicionTracker {
    cfg: SuspicionConfig,
    scores: Vec<f64>,
    quarantined: Vec<bool>,
    quarantine_events: u64,
}

impl SuspicionTracker {
    /// A fresh tracker for `n` clients.
    pub fn new(n: usize, cfg: SuspicionConfig) -> Self {
        Self {
            cfg,
            scores: vec![0.0; n],
            quarantined: vec![false; n],
            quarantine_events: 0,
        }
    }

    /// Adds strike evidence for `client` this round.
    pub fn strike(&mut self, client: usize, weight: f64) {
        self.scores[client] += weight;
    }

    /// True while `client`'s updates are excluded from aggregation.
    pub fn is_quarantined(&self, client: usize) -> bool {
        self.quarantined[client]
    }

    /// Current score of `client`.
    pub fn score(&self, client: usize) -> f64 {
        self.scores[client]
    }

    /// All current scores, indexed by client.
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Total quarantine transitions so far.
    pub fn quarantine_events(&self) -> u64 {
        self.quarantine_events
    }

    /// Per-client quarantine flags, indexed like [`Self::scores`].
    pub fn quarantined_mask(&self) -> &[bool] {
        &self.quarantined
    }

    /// Overwrites the tracker's mutable state from a checkpoint
    /// (scores, quarantine flags, transition count). Both slices must
    /// match the tracked population size.
    pub fn restore_state(
        &mut self,
        scores: &[f64],
        quarantined: &[bool],
        quarantine_events: u64,
    ) -> Result<(), String> {
        if scores.len() != self.scores.len() || quarantined.len() != self.quarantined.len() {
            return Err(format!(
                "suspicion state is for {} clients, tracker has {}",
                scores.len(),
                self.scores.len()
            ));
        }
        self.scores.copy_from_slice(scores);
        self.quarantined.copy_from_slice(quarantined);
        self.quarantine_events = quarantine_events;
        Ok(())
    }

    /// Closes the round: thresholds are checked on the accumulated
    /// (pre-decay) scores, then every score decays. Returns the state
    /// transitions in ascending client order.
    pub fn end_round(&mut self) -> Vec<SuspicionChange> {
        let mut changes = Vec::new();
        for c in 0..self.scores.len() {
            if !self.quarantined[c] && self.scores[c] >= self.cfg.quarantine_threshold {
                self.quarantined[c] = true;
                self.quarantine_events += 1;
                changes.push(SuspicionChange::Quarantined {
                    client: c,
                    score: self.scores[c],
                });
            } else if self.quarantined[c] && self.scores[c] < self.cfg.release_threshold {
                self.quarantined[c] = false;
                changes.push(SuspicionChange::Released {
                    client: c,
                    score: self.scores[c],
                });
            }
            self.scores[c] *= self.cfg.decay;
        }
        changes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(SuspicionConfig::default().invalid_param(), None);
    }

    #[test]
    fn invalid_params_are_caught() {
        let mut c = SuspicionConfig {
            decay: 1.0,
            ..SuspicionConfig::default()
        };
        assert_eq!(c.invalid_param(), Some(("decay", 1.0)));
        c = SuspicionConfig::default();
        c.quarantine_threshold = 0.0;
        assert!(c.invalid_param().is_some());
        c = SuspicionConfig::default();
        c.release_threshold = 3.0; // above quarantine
        assert_eq!(c.invalid_param(), Some(("release_threshold", 3.0)));
    }

    #[test]
    fn persistent_worst_rank_is_quarantined_within_three_rounds() {
        let mut t = SuspicionTracker::new(4, SuspicionConfig::default());
        let mut quarantined_at = None;
        for round in 0..5 {
            t.strike(2, 1.0);
            for ch in t.end_round() {
                if let SuspicionChange::Quarantined { client, .. } = ch {
                    assert_eq!(client, 2);
                    quarantined_at.get_or_insert(round);
                }
            }
        }
        assert!(quarantined_at.expect("must quarantine") <= 2);
        assert!(t.is_quarantined(2));
        assert_eq!(t.quarantine_events(), 1);
    }

    #[test]
    fn runner_up_strikes_eventually_quarantine() {
        // s = 0.5/round: steady state 2.5 > threshold 2.2 — the adaptive
        // attacker pinned at rank 2 is still caught, just slower.
        let mut t = SuspicionTracker::new(2, SuspicionConfig::default());
        for _ in 0..10 {
            t.strike(0, 0.5);
            t.end_round();
        }
        assert!(t.is_quarantined(0));
        assert!(!t.is_quarantined(1));
    }

    #[test]
    fn occasional_strikes_never_quarantine() {
        // An honest client that is the worst-ranked once every 4 rounds
        // (rotating bad luck) stays below threshold forever.
        let mut t = SuspicionTracker::new(1, SuspicionConfig::default());
        for round in 0..40 {
            if round % 4 == 0 {
                t.strike(0, 1.0);
            }
            t.end_round();
        }
        assert!(!t.is_quarantined(0), "score {}", t.score(0));
    }

    #[test]
    fn rehabilitation_on_decay() {
        let mut t = SuspicionTracker::new(1, SuspicionConfig::default());
        for _ in 0..4 {
            t.strike(0, 1.0);
            t.end_round();
        }
        assert!(t.is_quarantined(0));
        // No further evidence (quarantined inputs are excluded): the
        // score decays below release within a handful of rounds.
        let mut released_at = None;
        for round in 0..12 {
            for ch in t.end_round() {
                if let SuspicionChange::Released { client, .. } = ch {
                    assert_eq!(client, 0);
                    released_at.get_or_insert(round);
                }
            }
        }
        assert!(released_at.expect("must release") <= 8);
        assert!(!t.is_quarantined(0));
    }

    #[test]
    fn hysteresis_no_flapping_at_the_boundary() {
        // A score that hovers between release and quarantine thresholds
        // changes state at most once.
        let mut t = SuspicionTracker::new(1, SuspicionConfig::default());
        let mut transitions = 0;
        for _ in 0..30 {
            t.strike(0, 0.3); // steady state 1.5: between 0.8 and 2.2
            transitions += t.end_round().len();
        }
        assert_eq!(transitions, 0, "boundary hovering must not flap");
    }

    #[test]
    fn changes_are_deterministic_and_ordered() {
        let mut t = SuspicionTracker::new(5, SuspicionConfig::default());
        for c in [4, 1, 3] {
            t.strike(c, 3.0);
        }
        let changes = t.end_round();
        let clients: Vec<usize> = changes
            .iter()
            .map(|ch| match ch {
                SuspicionChange::Quarantined { client, .. }
                | SuspicionChange::Released { client, .. } => *client,
            })
            .collect();
        assert_eq!(clients, vec![1, 3, 4]);
    }
}
