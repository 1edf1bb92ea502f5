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
//!   other ambient state: spans measure simulated time ([`SimSpan`]),
//!   manifests serialize in a fixed field order with sorted metric
//!   snapshots, and identical seeds therefore produce byte-identical
//!   manifests.
//! * **Free when disabled.** The [`NullRecorder`] reports
//!   `enabled() == false`, letting instrumented code skip event
//!   construction entirely on hot paths.
//! * **Safe from worker threads.** The [`Registry`] is sharded behind
//!   cheap locks; [`Counter`]/[`Gauge`] handles are lock-free atomics and
//!   may be cloned into `hfl-parallel` workers.
//!
//! | Module | Contents |
//! |---|---|
//! | [`event`] | [`Event`], the [`Recorder`] trait, [`NullRecorder`], [`MemoryRecorder`] |
//! | [`metrics`] | [`Registry`], [`Counter`], [`Gauge`], [`Histogram`], snapshots |
//! | [`span`] | [`SimSpan`] (sim-time) |
//! | [`manifest`] | [`RunManifest`] and its JSON round-trip |
//! | [`json`] | the minimal self-contained JSON emitter/parser |
//! | [`export`] | JSONL/CSV writers shared by the `repro_*` binaries |

pub mod event;
pub mod export;
pub mod json;
pub mod manifest;
pub mod metrics;
pub mod span;

use std::sync::Arc;

pub use event::{Event, MemoryRecorder, NullRecorder, Recorder};
pub use json::{Json, JsonError};
pub use manifest::{
    fnv1a_hex, BuildInfo, ClientScore, FaultRecord, RoundRecord, RunManifest, RunTotals,
    SuspicionRecord, SuspicionSection,
};
pub use metrics::{Counter, Gauge, Histogram, HistogramStats, MetricSample, MetricValue, Registry};
pub use span::SimSpan;

/// The bundle instrumented code threads around: one event recorder plus
/// one metrics registry. Cloning is cheap (two `Arc` bumps) and clones
/// share the same sinks.
#[derive(Clone)]
pub struct Telemetry {
    recorder: Arc<dyn Recorder>,
    registry: Arc<Registry>,
}

impl Telemetry {
    /// Telemetry with a custom recorder and a fresh registry.
    pub fn new(recorder: Arc<dyn Recorder>) -> Self {
        Self {
            recorder,
            registry: Arc::new(Registry::new()),
        }
    }

    /// Disabled telemetry: events are dropped ([`NullRecorder`]) and
    /// `enabled()` is false, so instrumentation costs nothing beyond the
    /// branch. The registry still works (counters keep totals).
    pub fn disabled() -> Self {
        Self::new(Arc::new(NullRecorder))
    }

    /// Telemetry capturing every event in memory; returns the recorder
    /// handle for post-run inspection.
    pub fn recording() -> (Self, Arc<MemoryRecorder>) {
        let rec = Arc::new(MemoryRecorder::new());
        (Self::new(Arc::clone(&rec) as Arc<dyn Recorder>), rec)
    }

    /// True when the recorder consumes events — gate event construction
    /// on this in hot paths.
    pub fn enabled(&self) -> bool {
        self.recorder.enabled()
    }

    /// Records one event (no-op under [`NullRecorder`]).
    pub fn emit(&self, event: Event) {
        self.recorder.record(&event);
    }

    /// The shared recorder.
    pub fn recorder(&self) -> &Arc<dyn Recorder> {
        &self.recorder
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
    fn clones_share_sinks() {
        let (t, rec) = Telemetry::recording();
        let t2 = t.clone();
        t2.emit(Event::RoundStarted { round: 1 });
        t2.registry().counter("shared_total", &[]).inc(5);
        assert_eq!(rec.events().len(), 1);
        assert_eq!(t.registry().counter("shared_total", &[]).get(), 5);
    }
}
