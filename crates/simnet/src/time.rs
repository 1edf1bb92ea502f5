//! Simulated time, in integer microseconds.
//!
//! Integer time makes the event queue total order exact (no float
//! comparison hazards) and keeps runs bit-reproducible.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time (microseconds since simulation start).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// From whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// From whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// From seconds (saturating, rounding down).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid duration: {s}");
        SimTime((s * 1e6) as u64)
    }

    /// Microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Saturating sum, spelled out for call sites that want the
    /// clamping to be visible (`+` saturates too).
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Scales by a non-negative factor, saturating at `u64::MAX` so a
    /// huge straggler multiplier can never wrap the event-queue order.
    /// NaN and negative factors are treated as 0 (a degenerate factor
    /// must not produce a time in the past or a panic mid-simulation).
    pub fn saturating_scale(self, factor: f64) -> SimTime {
        if factor.is_nan() || factor <= 0.0 {
            return SimTime::ZERO;
        }
        let scaled = self.0 as f64 * factor;
        if scaled >= u64::MAX as f64 {
            SimTime(u64::MAX)
        } else {
            SimTime(scaled as u64)
        }
    }

    /// The far-future sentinel: no event is scheduled later. Used as
    /// the "deadline = ∞" encoding for synchronous rounds.
    pub const INFINITY: SimTime = SimTime(u64::MAX);
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        // Saturating: timer arithmetic near SimTime::INFINITY (the
        // deadline = ∞ encoding) must stay ordered, not wrap to 0.
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.0 as f64 / 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_secs_f64(0.5).as_micros(), 500_000);
        assert!((SimTime::from_micros(1_500_000).as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_micros(10);
        let b = SimTime::from_micros(4);
        assert_eq!(a + b, SimTime::from_micros(14));
        assert_eq!(a - b, SimTime::from_micros(6));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let _ = SimTime::from_micros(1) - SimTime::from_micros(2);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_micros(1) < SimTime::from_micros(2));
    }

    #[test]
    fn add_saturates_at_infinity() {
        let inf = SimTime::INFINITY;
        assert_eq!(inf + SimTime::from_micros(1), inf);
        let mut t = SimTime(u64::MAX - 1);
        t += SimTime::from_micros(10);
        assert_eq!(t, inf);
    }

    #[test]
    fn scale_basics() {
        let t = SimTime::from_micros(1_000);
        assert_eq!(t.saturating_scale(2.0), SimTime::from_micros(2_000));
        assert_eq!(t.saturating_scale(0.5), SimTime::from_micros(500));
        assert_eq!(t.saturating_scale(0.0), SimTime::ZERO);
        assert_eq!(t.saturating_scale(-3.0), SimTime::ZERO);
        assert_eq!(t.saturating_scale(f64::NAN), SimTime::ZERO);
        assert_eq!(t.saturating_scale(f64::INFINITY), SimTime::INFINITY);
        assert_eq!(SimTime(u64::MAX).saturating_scale(8.0), SimTime::INFINITY);
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// `+` never wraps: the sum is ≥ both operands.
            #[test]
            fn add_is_monotone(a in any::<u64>(), b in any::<u64>()) {
                let s = SimTime(a) + SimTime(b);
                prop_assert!(s >= SimTime(a));
                prop_assert!(s >= SimTime(b));
                prop_assert_eq!(s.0, a.saturating_add(b));
            }

            /// Scaling preserves order: t1 ≤ t2 ⇒ scale(t1) ≤ scale(t2)
            /// for any shared non-negative factor.
            #[test]
            fn scale_preserves_order(
                a in any::<u64>(),
                b in any::<u64>(),
                f in 0.0f64..1e12,
            ) {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                prop_assert!(
                    SimTime(lo).saturating_scale(f) <= SimTime(hi).saturating_scale(f)
                );
            }

            /// Factor 1.0 round-trips exactly for values that fit in an
            /// f64 mantissa (straggler factors only multiply delay-model
            /// samples, which are well under 2^53 µs ≈ 285 years).
            #[test]
            fn scale_by_one_roundtrips(us in 0u64..(1 << 53)) {
                prop_assert_eq!(SimTime(us).saturating_scale(1.0), SimTime(us));
            }

            /// add then saturating_sub round-trips when no saturation
            /// occurred.
            #[test]
            fn add_sub_roundtrip(a in 0u64..(u64::MAX / 2), b in 0u64..(u64::MAX / 2)) {
                let t = SimTime(a) + SimTime(b);
                prop_assert_eq!(t.saturating_sub(SimTime(b)), SimTime(a));
            }

            /// Scaling never panics and never produces a value above
            /// INFINITY, for arbitrary (even hostile) factors.
            #[test]
            fn scale_total(us in any::<u64>(), f in any::<f64>()) {
                let t = SimTime(us).saturating_scale(f);
                prop_assert!(t <= SimTime::INFINITY);
            }
        }
    }
}
