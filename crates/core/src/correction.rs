//! The correction factor α of Eq. (1) — how a client merges a late-arriving
//! global model into the local model it is already training from a flag
//! partial model:
//!
//! `θ′ = α·θ_G + (1−α)·θ_local`,  α ∈ (0, 1].
//!
//! §III-B gives the two determinants:
//! * **global-model latency** — the staler the global model, the smaller α;
//! * **relative dataset size of θ_F vs θ_G** — the more of the global data
//!   the flag model already represents, the less new information θ_G
//!   carries, so the smaller α.

/// Policy computing α from the two paper-specified signals.
#[derive(Clone, Copy, Debug)]
pub struct CorrectionPolicy {
    /// α when the global model is perfectly fresh and the flag model
    /// carried no information (the ceiling), in `(0, 1]`.
    pub alpha_max: f32,
    /// Floor keeping α strictly positive (Eq. 1 requires α ∈ (0,1]).
    pub alpha_min: f32,
    /// Latency (in local-iteration units) at which the latency discount
    /// halves α's headroom.
    pub latency_half_life: f64,
}

impl Default for CorrectionPolicy {
    fn default() -> Self {
        Self {
            alpha_max: 0.8,
            alpha_min: 0.05,
            latency_half_life: 10.0,
        }
    }
}

impl CorrectionPolicy {
    /// Computes α.
    ///
    /// * `staleness` — how late the global model is, measured in local
    ///   iterations completed since the round's flag model was adopted
    ///   (≥ 0).
    /// * `flag_fraction` — the fraction of the global training data the
    ///   flag partial model was aggregated from, in `[0, 1]` (the paper's
    ///   "relative datasets size of θ_F to θ_G").
    ///
    /// Both signals discount multiplicatively from `alpha_max`, floored
    /// at `alpha_min`:
    /// `α = max(α_min, α_max · 2^(−staleness/half_life) · (1 − flag_fraction))`.
    pub fn alpha(&self, staleness: f64, flag_fraction: f64) -> f32 {
        assert!(staleness >= 0.0, "staleness must be non-negative");
        assert!(
            (0.0..=1.0).contains(&flag_fraction),
            "flag_fraction must be a proportion"
        );
        let latency_discount = (-staleness / self.latency_half_life * std::f64::consts::LN_2).exp();
        let info_gain = 1.0 - flag_fraction;
        let a = self.alpha_max as f64 * latency_discount * info_gain;
        (a as f32).clamp(self.alpha_min, self.alpha_max)
    }

    /// Staleness-discounted admission weight for a late arrival in a
    /// deadline-driven collection buffer (DESIGN.md §12): the same
    /// half-life law as [`CorrectionPolicy::alpha`], with the staleness
    /// bound τ as the half-life — an update arriving exactly τ late
    /// weighs half an on-time one. Floored at `alpha_min` so an
    /// admitted update is never weightless, capped at 1 (on-time
    /// weight).
    ///
    /// Integer µs in, so two runs can never disagree on a weight from
    /// float drift in the lateness measurement itself.
    pub fn admission_weight(&self, lateness_us: u64, staleness_bound_us: u64) -> f32 {
        if lateness_us == 0 {
            return 1.0;
        }
        if staleness_bound_us == 0 {
            // Degenerate τ: any lateness is maximally stale.
            return self.alpha_min;
        }
        let halves = lateness_us as f64 / staleness_bound_us as f64;
        let w = (-halves * std::f64::consts::LN_2).exp();
        (w as f32).clamp(self.alpha_min, 1.0)
    }

    /// Applies Eq. (1) in place: `local = α·global + (1−α)·local`.
    pub fn merge(&self, alpha: f32, global: &[f32], local: &mut [f32]) {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "correction factor must be in (0, 1]"
        );
        hfl_tensor::ops::axpby(alpha, global, 1.0 - alpha, local);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_uninformative_flag_gives_alpha_max() {
        let p = CorrectionPolicy::default();
        assert!((p.alpha(0.0, 0.0) - p.alpha_max).abs() < 1e-6);
    }

    #[test]
    fn alpha_decreases_with_staleness() {
        let p = CorrectionPolicy::default();
        let fresh = p.alpha(0.0, 0.25);
        let stale = p.alpha(20.0, 0.25);
        let very_stale = p.alpha(200.0, 0.25);
        assert!(fresh > stale);
        assert!(stale > very_stale || very_stale == p.alpha_min);
    }

    #[test]
    fn alpha_decreases_with_flag_coverage() {
        // A flag model already trained on most of the data ⇒ the global
        // model brings little, α small (paper §III-B, second bullet).
        let p = CorrectionPolicy::default();
        assert!(p.alpha(0.0, 0.1) > p.alpha(0.0, 0.9));
    }

    #[test]
    fn alpha_is_always_in_unit_interval() {
        let p = CorrectionPolicy::default();
        for s in [0.0, 1.0, 10.0, 1e6] {
            for f in [0.0, 0.5, 1.0] {
                let a = p.alpha(s, f);
                assert!(a > 0.0 && a <= 1.0, "alpha {a} out of range");
            }
        }
    }

    #[test]
    fn half_life_semantics() {
        let p = CorrectionPolicy {
            alpha_max: 0.8,
            alpha_min: 0.0001,
            latency_half_life: 10.0,
        };
        let a0 = p.alpha(0.0, 0.0);
        let a10 = p.alpha(10.0, 0.0);
        assert!((a10 / a0 - 0.5).abs() < 1e-3, "ratio {}", a10 / a0);
    }

    #[test]
    fn admission_weight_half_life_is_tau() {
        let p = CorrectionPolicy {
            alpha_min: 0.0001,
            ..CorrectionPolicy::default()
        };
        assert_eq!(p.admission_weight(0, 10_000), 1.0);
        let half = p.admission_weight(10_000, 10_000);
        assert!((half - 0.5).abs() < 1e-3, "{half}");
        let quarter = p.admission_weight(20_000, 10_000);
        assert!((quarter - 0.25).abs() < 1e-3, "{quarter}");
    }

    #[test]
    fn admission_weight_is_floored_and_monotone() {
        let p = CorrectionPolicy::default();
        let mut prev = 1.0f32;
        for lateness in [0u64, 1, 100, 5_000, 10_000, 1_000_000] {
            let w = p.admission_weight(lateness, 10_000);
            assert!(w <= prev, "weight must not grow with lateness");
            assert!(w >= p.alpha_min, "weight floored at alpha_min");
            prev = w;
        }
        // τ = 0: any lateness is worst-case stale.
        assert_eq!(p.admission_weight(1, 0), p.alpha_min);
    }

    #[test]
    fn merge_is_convex_combination() {
        let p = CorrectionPolicy::default();
        let global = [2.0f32, 0.0];
        let mut local = [0.0f32, 2.0];
        p.merge(0.25, &global, &mut local);
        assert_eq!(local, [0.5, 1.5]);
    }

    #[test]
    fn merge_alpha_one_adopts_global() {
        let p = CorrectionPolicy::default();
        let global = [7.0f32];
        let mut local = [1.0f32];
        p.merge(1.0, &global, &mut local);
        assert_eq!(local, [7.0]);
    }

    #[test]
    #[should_panic(expected = "correction factor")]
    fn merge_alpha_zero_panics() {
        let p = CorrectionPolicy::default();
        let mut local = [1.0f32];
        p.merge(0.0, &[1.0], &mut local);
    }
}
