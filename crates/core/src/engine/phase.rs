//! The phase clock: where a run loop's wall time goes, phase by phase.
//!
//! The clock is write-only. [`PhaseClock::lap`] is the one read of host
//! time in `crates/core/src` (an architecture rule), and what it reads
//! only ever adds to a [`PhaseTimes`] total: no decision of a round
//! reads it, and it never enters a manifest, an event or the registry,
//! so a run's outcome and its goldens cannot depend on the host's speed.
//! The totals leave the run in [`crate::runner::RunOutput::phases`].
//!
//! Laps are contiguous: each charges the time since the previous one to
//! the phase that just ended, so the phases split the loop's wall time
//! between them and their shares sum to one. A round reads the clock
//! about twice per cluster (entering and leaving its rule or mechanism)
//! plus once per phase boundary.

use std::time::Instant;

/// Which phase a lap closes.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Phase {
    /// Round open: scheduled faults, churn, the cohort and the buffers.
    Open,
    /// Local training (Algorithm 2).
    Train,
    /// Inside a level's BRA rule or CBA mechanism.
    Rule(usize),
    /// The engine's own work at a level: collection, arrival order,
    /// verdicts, the echo audit and the layers' hooks.
    Engine(usize),
    /// Dissemination and round close (Algorithm 5).
    Close,
    /// Evaluating the global model.
    Evaluate,
    /// The rest of the loop: events, cost counters, round records,
    /// checkpoints.
    Other,
}

/// Wall nanoseconds of one aggregation level.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LevelTimes {
    /// Inside the level's BRA rule or CBA mechanism.
    pub rule: u64,
    /// The engine's own work at the level around it.
    pub engine: u64,
}

/// Wall nanoseconds a run loop spent in each round phase, summed over
/// its rounds. Host time: it differs from run to run, which is why it
/// stays out of every manifest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Round open: scheduled faults, churn, the cohort and the buffers.
    pub open: u64,
    /// Local training, the pipelined schedule's start models included.
    pub train: u64,
    /// Per aggregation level, indexed by level (0 is the top).
    pub levels: Vec<LevelTimes>,
    /// Dissemination and round close.
    pub close: u64,
    /// Evaluating the global model.
    pub evaluate: u64,
    /// The rest of the loop.
    pub other: u64,
}

impl PhaseTimes {
    /// Each phase's name and nanoseconds, in round order: open, train,
    /// the levels bottom-up (rule, then engine), close, evaluate, other.
    pub fn phases(&self) -> Vec<(String, u64)> {
        let mut out = vec![
            ("open".to_string(), self.open),
            ("train".into(), self.train),
        ];
        for (l, t) in self.levels.iter().enumerate().rev() {
            let level = match l {
                0 => "top".to_string(),
                l => format!("level {l}"),
            };
            out.push((format!("{level} rule"), t.rule));
            out.push((format!("{level} engine"), t.engine));
        }
        out.extend([
            ("close".to_string(), self.close),
            ("evaluate".into(), self.evaluate),
            ("other".into(), self.other),
        ]);
        out
    }

    /// The loop's wall time: every phase's nanoseconds, summed.
    pub fn total(&self) -> u64 {
        self.phases().iter().map(|p| p.1).sum()
    }

    /// Each phase's share of [`Self::total`], in the order of
    /// [`Self::phases`]; all zero when nothing was timed.
    pub fn shares(&self) -> Vec<(String, f64)> {
        let total = self.total().max(1) as f64;
        let phases = self.phases().into_iter();
        phases.map(|(name, ns)| (name, ns as f64 / total)).collect()
    }
}

/// The accumulating clock a [`super::RoundEngine`] carries.
#[derive(Debug, Default)]
pub(crate) struct PhaseClock {
    /// When the previous lap ended; `None` before the first.
    mark: Option<Instant>,
    times: PhaseTimes,
}

impl PhaseClock {
    /// A clock for a hierarchy of `levels` aggregation levels, top
    /// included.
    pub(crate) fn new(levels: usize) -> Self {
        let times = PhaseTimes {
            levels: vec![LevelTimes::default(); levels],
            ..PhaseTimes::default()
        };
        Self { mark: None, times }
    }

    /// Charges the wall time since the previous lap to `phase` (the
    /// first lap only starts the clock).
    pub(crate) fn lap(&mut self, phase: Phase) {
        let now = Instant::now();
        let Some(mark) = self.mark.replace(now) else {
            return;
        };
        let ns = u64::try_from(now.duration_since(mark).as_nanos()).unwrap_or(u64::MAX);
        let t = &mut self.times;
        let slot = match phase {
            Phase::Open => &mut t.open,
            Phase::Train => &mut t.train,
            Phase::Rule(l) => &mut t.levels[l].rule,
            Phase::Engine(l) => &mut t.levels[l].engine,
            Phase::Close => &mut t.close,
            Phase::Evaluate => &mut t.evaluate,
            Phase::Other => &mut t.other,
        };
        *slot = slot.saturating_add(ns);
    }

    /// The totals so far; the clock starts over.
    pub(crate) fn take(&mut self) -> PhaseTimes {
        let levels = self.times.levels.len();
        std::mem::replace(self, Self::new(levels)).times
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_split_the_time_between_them() {
        let mut clock = PhaseClock::new(3);
        clock.lap(Phase::Other);
        for phase in [
            Phase::Open,
            Phase::Train,
            Phase::Engine(2),
            Phase::Rule(2),
            Phase::Rule(0),
            Phase::Close,
        ] {
            std::hint::black_box((0..10_000u64).sum::<u64>());
            clock.lap(phase);
        }
        let t = clock.take();
        let names: Vec<String> = t.phases().into_iter().map(|p| p.0).collect();
        assert_eq!(
            names,
            [
                "open",
                "train",
                "level 2 rule",
                "level 2 engine",
                "level 1 rule",
                "level 1 engine",
                "top rule",
                "top engine",
                "close",
                "evaluate",
                "other"
            ]
        );
        assert_eq!(t.other, 0, "the first lap only starts the clock");
        let sum: f64 = t.shares().iter().map(|s| s.1).sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
        assert_eq!(clock.take().total(), 0, "take starts the clock over");
    }
}
