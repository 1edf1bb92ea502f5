//! # hfl-telemetry
//!
//! The observability backbone of the ABD-HFL stack: structured events,
//! a metrics registry, and run manifests — every measured quantity of
//! the paper's evaluation (accuracy trajectories, message/byte costs,
//! exclusion counts, the timing decomposition τℓ/τ′ℓ/σ/ν) flows through
//! this crate so that the round engine, on either schedule, and the
//! bench harness report through one layer.
//!
//! Design rules:
//!
//! * **Deterministic.** Nothing in this crate reads host time or any
//!   other ambient state: timings arrive as sim-time values the round
//!   engine's clock computed, manifests serialize in a fixed field order
//!   with sorted metric snapshots, and identical seeds therefore produce
//!   byte-identical manifests.
//! * **Free when disabled.** [`Telemetry::disabled`] holds no log and
//!   reports `enabled() == false`, and [`Telemetry::emit_with`] builds
//!   its event only while recording, so a disabled event site on a hot
//!   path costs one check and constructs nothing.
//! * **Safe from worker threads.** The [`Registry`] is sharded behind
//!   cheap locks; [`Counter`]/[`Gauge`] handles are lock-free atomics and
//!   may be cloned into `hfl-parallel` workers.
//!
//! | Module | Contents |
//! |---|---|
//! | [`event`] | [`Event`], [`MemoryRecorder`] |
//! | [`metrics`] | [`Registry`], [`Counter`], [`Gauge`], [`Histogram`], snapshots |
//! | [`manifest`] | [`RunManifest`] and its JSON round-trip |
//! | [`json`] | the minimal self-contained JSON emitter/parser |
//! | [`export`] | the manifest JSONL writer behind every `repro` experiment |

pub mod event;
pub mod export;
pub mod json;
pub mod manifest;
pub mod metrics;

use std::sync::Arc;

pub use event::{Event, MemoryRecorder};
pub use json::{Json, JsonError};
pub use manifest::{
    fnv1a_hex, BuildInfo, ClientScore, FaultRecord, RoundRecord, RunManifest, RunTotals,
    SuspicionRecord, SuspicionSection,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramStats, MetricSample, MetricValue, Registry};

/// The bundle instrumented code threads around: an optional event log
/// plus one metrics registry. Cloning is cheap (at most two `Arc`
/// bumps) and clones share the same sinks.
#[derive(Clone)]
pub struct Telemetry {
    recorder: Option<Arc<MemoryRecorder>>,
    registry: Arc<Registry>,
}

impl Telemetry {
    /// Disabled telemetry: no event log, and `enabled()` is false, so
    /// instrumentation costs nothing beyond the branch. The registry
    /// still works (counters keep totals).
    pub fn disabled() -> Self {
        Self {
            recorder: None,
            registry: Arc::new(Registry::new()),
        }
    }

    /// Telemetry capturing every event in memory; returns the log's
    /// handle for post-run inspection.
    pub fn recording() -> (Self, Arc<MemoryRecorder>) {
        let rec = Arc::new(MemoryRecorder::new());
        let telem = Self {
            recorder: Some(Arc::clone(&rec)),
            ..Self::disabled()
        };
        (telem, rec)
    }

    /// True when events are kept — gate event construction on this in
    /// hot paths.
    pub fn enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Records one event (dropped when disabled).
    pub fn emit(&self, event: Event) {
        if let Some(rec) = &self.recorder {
            rec.record(event);
        }
    }

    /// Records the event `make` builds, running `make` only while
    /// recording — the hot-path form of [`Telemetry::emit`]: disabled,
    /// an event site costs the check and builds nothing.
    pub fn emit_with(&self, make: impl FnOnce() -> Event) {
        if let Some(rec) = &self.recorder {
            rec.record(make());
        }
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_drops_events() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        t.emit(Event::RoundStarted { round: 0 }); // must not panic
    }

    #[test]
    fn recording_captures_events() {
        let (t, rec) = Telemetry::recording();
        assert!(t.enabled());
        t.emit(Event::RoundStarted { round: 3 });
        t.emit(Event::RoundFinished {
            round: 3,
            messages: 1,
            bytes: 2,
            excluded: 0,
            absent: 0,
        });
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], Event::RoundStarted { round: 3 });
    }

    #[test]
    fn emit_with_builds_only_while_recording() {
        let built = std::cell::Cell::new(0);
        let make = || {
            built.set(built.get() + 1);
            Event::RoundStarted { round: 7 }
        };
        Telemetry::disabled().emit_with(make);
        assert_eq!(built.get(), 0, "a disabled bundle must not build the event");
        let (t, rec) = Telemetry::recording();
        t.emit_with(make);
        assert_eq!(built.get(), 1);
        assert_eq!(rec.events(), [Event::RoundStarted { round: 7 }]);
    }

    #[test]
    fn clones_share_sinks() {
        let (t, rec) = Telemetry::recording();
        let t2 = t.clone();
        t2.emit(Event::RoundStarted { round: 1 });
        t2.registry().counter("shared_total", &[]).inc(5);
        assert_eq!(rec.events().len(), 1);
        assert_eq!(t.registry().counter("shared_total", &[]).get(), 5);
    }
}
