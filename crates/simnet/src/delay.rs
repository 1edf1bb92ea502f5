//! Link-delay models realizing partial synchrony (Assumption 1).

use rand::rngs::StdRng;
use rand::Rng;

use crate::time::SimTime;

/// A stochastic message-delay distribution.
#[derive(Clone, Debug, PartialEq)]
pub enum DelayModel {
    /// Fixed delay (synchronous network).
    Constant {
        /// Delay in microseconds.
        micros: u64,
    },
    /// Uniform in `[lo, hi]` microseconds.
    Uniform {
        /// Lower bound (µs).
        lo: u64,
        /// Upper bound (µs), inclusive.
        hi: u64,
    },
    /// Exponential with the given mean — light-tailed asynchrony.
    Exponential {
        /// Mean delay (µs).
        mean: f64,
    },
    /// Log-normal (µ, σ of the underlying normal, in ln-µs) —
    /// heavy-tailed wide-area behaviour.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Std of the underlying normal.
        sigma: f64,
    },
    /// Straggler mixture: with probability `p` the delay is multiplied by
    /// `factor` — the paper's "stragglers in unreliable channels".
    Straggler {
        /// Base distribution.
        base: Box<DelayModel>,
        /// Straggler probability in `[0, 1]`.
        p: f64,
        /// Delay multiplier for stragglers (≥ 1).
        factor: f64,
    },
}

impl DelayModel {
    /// Checks every parameter [`DelayModel::sample`] asserts on, nested
    /// base models included: `Err((which parameter, its value))` for
    /// the first that would make a draw panic.
    pub fn validate(&self) -> Result<(), (&'static str, f64)> {
        let usable = |ok: bool, what, value| if ok { Ok(()) } else { Err((what, value)) };
        match self {
            DelayModel::Constant { .. } => Ok(()),
            DelayModel::Uniform { lo, hi } => {
                usable(lo <= hi, "uniform bounds (lo > hi)", *lo as f64)
            }
            DelayModel::Exponential { mean } => {
                usable(mean.is_finite() && *mean > 0.0, "exponential mean", *mean)
            }
            DelayModel::LogNormal { mu, sigma } => {
                usable(mu.is_finite(), "lognormal mu", *mu)?;
                usable(
                    sigma.is_finite() && *sigma >= 0.0,
                    "lognormal sigma",
                    *sigma,
                )
            }
            DelayModel::Straggler { base, p, factor } => {
                usable((0.0..=1.0).contains(p), "straggler probability", *p)?;
                usable(
                    factor.is_finite() && *factor >= 1.0,
                    "straggler factor",
                    *factor,
                )?;
                base.validate()
            }
        }
    }

    /// Draws one delay. Panics on parameters [`DelayModel::validate`]
    /// rejects.
    pub fn sample(&self, rng: &mut StdRng) -> SimTime {
        match self {
            DelayModel::Constant { micros } => SimTime::from_micros(*micros),
            DelayModel::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform delay bounds inverted");
                SimTime::from_micros(rng.gen_range(*lo..=*hi))
            }
            DelayModel::Exponential { mean } => {
                assert!(*mean > 0.0, "exponential mean must be positive");
                let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
                SimTime::from_micros((-mean * u.ln()) as u64)
            }
            DelayModel::LogNormal { mu, sigma } => {
                assert!(*sigma >= 0.0, "lognormal sigma must be non-negative");
                let z = hfl_tensor_normal(rng);
                SimTime::from_micros((mu + sigma * z).exp() as u64)
            }
            DelayModel::Straggler { base, p, factor } => {
                assert!((0.0..=1.0).contains(p), "straggler probability in [0,1]");
                assert!(*factor >= 1.0, "straggler factor must be >= 1");
                let d = base.sample(rng);
                if rng.gen_bool(*p) {
                    SimTime::from_micros((d.as_micros() as f64 * factor) as u64)
                } else {
                    d
                }
            }
        }
    }

    /// Mean delay in microseconds (analytic; used for reporting and for
    /// sanity checks in tests).
    pub fn mean_micros(&self) -> f64 {
        match self {
            DelayModel::Constant { micros } => *micros as f64,
            DelayModel::Uniform { lo, hi } => (*lo + *hi) as f64 / 2.0,
            DelayModel::Exponential { mean } => *mean,
            DelayModel::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            DelayModel::Straggler { base, p, factor } => {
                base.mean_micros() * (1.0 - p + p * factor)
            }
        }
    }

    /// Upper bound on a single draw, in µs — `None` for models with an
    /// unbounded tail. Liveness reasoning (DESIGN.md §12) needs this:
    /// "every buffer closes within `deadline + max link delay`" is only
    /// checkable against a bounded model.
    pub fn max_micros(&self) -> Option<u64> {
        match self {
            DelayModel::Constant { micros } => Some(*micros),
            DelayModel::Uniform { hi, .. } => Some(*hi),
            DelayModel::Exponential { .. } | DelayModel::LogNormal { .. } => None,
            DelayModel::Straggler { base, factor, .. } => base
                .max_micros()
                .map(|m| (m as f64 * factor.max(1.0)) as u64),
        }
    }

    /// A typical LAN-ish edge link: uniform 1–5 ms.
    pub fn lan() -> Self {
        DelayModel::Uniform {
            lo: 1_000,
            hi: 5_000,
        }
    }

    /// A typical WAN link: log-normal centred near 40 ms with heavy tail.
    pub fn wan() -> Self {
        DelayModel::LogNormal {
            mu: (40_000.0f64).ln(),
            sigma: 0.5,
        }
    }
}

/// Standard normal sample (local Box–Muller; avoids a tensor dependency
/// for one helper).
fn hfl_tensor_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn mean_of_samples(m: &DelayModel, n: usize) -> f64 {
        let mut rng = StdRng::seed_from_u64(42);
        (0..n)
            .map(|_| m.sample(&mut rng).as_micros() as f64)
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn validate_names_the_parameter_a_draw_would_panic_on() {
        let lan = || Box::new(DelayModel::lan());
        assert_eq!(DelayModel::lan().validate(), Ok(()));
        assert_eq!(DelayModel::wan().validate(), Ok(()));
        for (bad, what) in [
            (
                DelayModel::Uniform { lo: 2, hi: 1 },
                "uniform bounds (lo > hi)",
            ),
            (DelayModel::Exponential { mean: 0.0 }, "exponential mean"),
            (
                DelayModel::LogNormal {
                    mu: 0.0,
                    sigma: -1.0,
                },
                "lognormal sigma",
            ),
            (
                DelayModel::Straggler {
                    base: lan(),
                    p: f64::NAN,
                    factor: 2.0,
                },
                "straggler probability",
            ),
            (
                DelayModel::Straggler {
                    base: lan(),
                    p: 0.1,
                    factor: 0.9,
                },
                "straggler factor",
            ),
            (
                DelayModel::Straggler {
                    base: Box::new(DelayModel::Uniform { lo: 2, hi: 1 }),
                    p: 0.1,
                    factor: 2.0,
                },
                "uniform bounds (lo > hi)",
            ),
        ] {
            assert_eq!(bad.validate().unwrap_err().0, what, "{bad:?}");
        }
    }

    #[test]
    fn constant_is_constant() {
        let m = DelayModel::Constant { micros: 123 };
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng).as_micros(), 123);
        }
    }

    #[test]
    fn uniform_within_bounds() {
        let m = DelayModel::Uniform { lo: 10, hi: 20 };
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let d = m.sample(&mut rng).as_micros();
            assert!((10..=20).contains(&d));
        }
    }

    #[test]
    fn empirical_means_match_analytic() {
        for m in [
            DelayModel::Uniform { lo: 0, hi: 1000 },
            DelayModel::Exponential { mean: 500.0 },
            DelayModel::Straggler {
                base: Box::new(DelayModel::Constant { micros: 100 }),
                p: 0.1,
                factor: 10.0,
            },
        ] {
            let emp = mean_of_samples(&m, 20_000);
            let ana = m.mean_micros();
            assert!(
                (emp - ana).abs() / ana < 0.1,
                "{m:?}: empirical {emp} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn straggler_inflates_tail() {
        let base = DelayModel::Constant { micros: 100 };
        let m = DelayModel::Straggler {
            base: Box::new(base),
            p: 0.2,
            factor: 50.0,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<u64> = (0..1000).map(|_| m.sample(&mut rng).as_micros()).collect();
        let stragglers = samples.iter().filter(|d| **d == 5_000).count();
        assert!(stragglers > 120 && stragglers < 280, "got {stragglers}");
    }

    #[test]
    fn deterministic_in_seed() {
        let m = DelayModel::wan();
        let a: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..5).map(|_| m.sample(&mut rng).as_micros()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..5).map(|_| m.sample(&mut rng).as_micros()).collect()
        };
        assert_eq!(a, b);
    }
}
