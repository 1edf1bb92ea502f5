//! Scoped span timers.
//!
//! The only clock in this crate is **sim-time** ([`SimSpan`]): simulated
//! microseconds supplied by the caller (the discrete-event engine's
//! `SimTime`), fully deterministic. Host time is inherently
//! non-reproducible, so nothing here reads it; wall timings are taken
//! from outside the library, by the benchmark in `ledger/`.

use crate::metrics::Histogram;

/// A sim-time span: begin with the current simulated time, finish with a
/// later one; the duration (in the caller's time unit, conventionally
/// microseconds) is recorded into the histogram.
#[derive(Debug)]
#[must_use = "a span records nothing until finished"]
pub struct SimSpan {
    hist: Histogram,
    start: u64,
}

impl SimSpan {
    /// Opens a span at simulated time `now`.
    pub fn begin(hist: Histogram, now: u64) -> Self {
        Self { hist, start: now }
    }

    /// Closes the span at simulated time `now`, recording the saturating
    /// duration.
    pub fn finish(self, now: u64) {
        self.hist.observe(now.saturating_sub(self.start) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn sim_span_records_duration() {
        let r = Registry::new();
        let h = r.histogram("phase_us", &[]);
        let span = SimSpan::begin(h.clone(), 1_000);
        span.finish(1_250);
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile(50.0), Some(250.0));
    }

    #[test]
    fn sim_span_saturates_backwards_time() {
        let r = Registry::new();
        let h = r.histogram("phase_us", &[]);
        SimSpan::begin(h.clone(), 500).finish(100);
        assert_eq!(h.percentile(50.0), Some(0.0));
    }
}
