//! Timeline tracing: the measurement substrate for the pipeline-workflow
//! analysis (paper §III-D).
//!
//! Actors record labelled events; the analysis reconstructs per-round,
//! per-cluster durations:
//! * `τℓ`  — first model received → quorum reached (collection),
//! * `τ′ℓ` — quorum reached → aggregate formed (aggregation),
//! * `σw`  — waiting time at the bottom until the flag model arrives,
//! * `σp`, `σg` — pipelined partial/global aggregation time,
//! * `ν = (σp + σg) / σ` — the efficiency indicator (Eq. 3).
//!
//! Queries (`first_time`, `span`, `times_of_kind`) run against a lazily
//! built index over `(round, level, cluster, kind)` instead of scanning
//! the full timeline: the pipeline analysis issues several queries per
//! round × cluster, which was O(rounds² · clusters²) with linear scans.

use std::cell::RefCell;
use std::collections::HashMap;


use crate::time::SimTime;

/// A labelled point on the simulation timeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global training round.
    pub round: usize,
    /// Hierarchy level (0 = top).
    pub level: usize,
    /// Cluster index within the level (0 for the top cluster).
    pub cluster: usize,
    /// What happened.
    pub kind: TraceKind,
}

/// Event labels, matching the paper's timing decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A leader received the first model of the round from its cluster.
    FirstModelReceived,
    /// The collection quorum (φℓ · Cℓ,i) was reached.
    QuorumReached,
    /// The partial (or global) aggregate is formed.
    AggregateFormed,
    /// The flag model reached a bottom-level cluster.
    FlagModelReceived,
    /// The global model reached a bottom-level cluster.
    GlobalModelReceived,
    /// A bottom-level device finished its local training iterations.
    LocalTrainingDone,
}

/// Query index, rebuilt on demand after any mutation.
#[derive(Clone, Debug, Default)]
struct TraceIndex {
    /// First occurrence time per `(round, level, cluster, kind)`.
    first: HashMap<(usize, usize, usize, TraceKind), SimTime>,
    /// All times per `(round, kind)`, in record (= time) order.
    by_round_kind: HashMap<(usize, TraceKind), Vec<SimTime>>,
}

impl TraceIndex {
    fn build(entries: &[(SimTime, TraceEvent)]) -> Self {
        let mut idx = Self::default();
        for (t, e) in entries {
            idx.first
                .entry((e.round, e.level, e.cluster, e.kind))
                .or_insert(*t);
            idx.by_round_kind
                .entry((e.round, e.kind))
                .or_default()
                .push(*t);
        }
        idx
    }
}

/// An append-only timeline of `(time, event)` pairs.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    entries: Vec<(SimTime, TraceEvent)>,
    /// Out-of-order records tolerated (clamped) instead of dropped.
    anomalies: u64,
    cache: RefCell<Option<TraceIndex>>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event. Times must be non-decreasing; a record earlier
    /// than the current timeline head is **saturated** to the last seen
    /// time (in all builds, not just debug) and counted in
    /// [`Self::anomalies`] — a quietly reordered timeline would corrupt
    /// every span measurement downstream, so we repair and count rather
    /// than trusting the caller.
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        let at = match self.entries.last() {
            Some((last, _)) if at < *last => {
                self.anomalies += 1;
                *last
            }
            _ => at,
        };
        *self.cache.get_mut() = None;
        self.entries.push((at, event));
    }

    /// How many out-of-order records have been saturated.
    pub fn anomalies(&self) -> u64 {
        self.anomalies
    }

    /// All entries in time order.
    pub fn entries(&self) -> &[(SimTime, TraceEvent)] {
        &self.entries
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Runs `f` against the (possibly just rebuilt) query index.
    fn with_index<R>(&self, f: impl FnOnce(&TraceIndex) -> R) -> R {
        let mut cache = self.cache.borrow_mut();
        let idx = cache.get_or_insert_with(|| TraceIndex::build(&self.entries));
        f(idx)
    }

    /// First time an event matching the filter occurs.
    pub fn first_time(
        &self,
        round: usize,
        level: usize,
        cluster: usize,
        kind: TraceKind,
    ) -> Option<SimTime> {
        self.with_index(|idx| idx.first.get(&(round, level, cluster, kind)).copied())
    }

    /// Duration between two event kinds within the same (round, level,
    /// cluster) — e.g. `τℓ = QuorumReached − FirstModelReceived`.
    pub fn span(
        &self,
        round: usize,
        level: usize,
        cluster: usize,
        from: TraceKind,
        to: TraceKind,
    ) -> Option<SimTime> {
        let a = self.first_time(round, level, cluster, from)?;
        let b = self.first_time(round, level, cluster, to)?;
        Some(b.saturating_sub(a))
    }

    /// All times of a given kind in a round (any level/cluster).
    pub fn times_of_kind(&self, round: usize, kind: TraceKind) -> Vec<SimTime> {
        self.with_index(|idx| {
            idx.by_round_kind
                .get(&(round, kind))
                .cloned()
                .unwrap_or_default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(round: usize, level: usize, cluster: usize, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            round,
            level,
            cluster,
            kind,
        }
    }

    #[test]
    fn record_and_query() {
        let mut t = Trace::new();
        t.record(SimTime::from_micros(10), ev(0, 2, 3, TraceKind::FirstModelReceived));
        t.record(SimTime::from_micros(25), ev(0, 2, 3, TraceKind::QuorumReached));
        t.record(SimTime::from_micros(30), ev(0, 2, 3, TraceKind::AggregateFormed));
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.first_time(0, 2, 3, TraceKind::QuorumReached),
            Some(SimTime::from_micros(25))
        );
        // τ = 15µs, τ' = 5µs
        assert_eq!(
            t.span(0, 2, 3, TraceKind::FirstModelReceived, TraceKind::QuorumReached),
            Some(SimTime::from_micros(15))
        );
        assert_eq!(
            t.span(0, 2, 3, TraceKind::QuorumReached, TraceKind::AggregateFormed),
            Some(SimTime::from_micros(5))
        );
    }

    #[test]
    fn missing_events_give_none() {
        let t = Trace::new();
        assert_eq!(t.first_time(0, 0, 0, TraceKind::AggregateFormed), None);
        assert!(t.is_empty());
    }

    #[test]
    fn times_of_kind_filters_by_round() {
        let mut t = Trace::new();
        t.record(SimTime::from_micros(1), ev(0, 2, 0, TraceKind::FlagModelReceived));
        t.record(SimTime::from_micros(2), ev(0, 2, 1, TraceKind::FlagModelReceived));
        t.record(SimTime::from_micros(3), ev(1, 2, 0, TraceKind::FlagModelReceived));
        assert_eq!(t.times_of_kind(0, TraceKind::FlagModelReceived).len(), 2);
        assert_eq!(t.times_of_kind(1, TraceKind::FlagModelReceived).len(), 1);
    }

    #[test]
    fn out_of_order_record_saturates_and_counts() {
        let mut t = Trace::new();
        t.record(SimTime::from_micros(100), ev(0, 0, 0, TraceKind::QuorumReached));
        t.record(SimTime::from_micros(40), ev(0, 0, 0, TraceKind::AggregateFormed));
        assert_eq!(t.anomalies(), 1);
        // Clamped to the timeline head, so spans stay non-negative.
        assert_eq!(
            t.first_time(0, 0, 0, TraceKind::AggregateFormed),
            Some(SimTime::from_micros(100))
        );
        assert_eq!(
            t.span(0, 0, 0, TraceKind::QuorumReached, TraceKind::AggregateFormed),
            Some(SimTime::from_micros(0))
        );
        // In-order records don't count.
        t.record(SimTime::from_micros(200), ev(0, 0, 0, TraceKind::FlagModelReceived));
        assert_eq!(t.anomalies(), 1);
    }

    #[test]
    fn index_is_invalidated_by_later_records() {
        let mut t = Trace::new();
        t.record(SimTime::from_micros(5), ev(0, 1, 0, TraceKind::QuorumReached));
        // Build the index via a query...
        assert_eq!(t.times_of_kind(0, TraceKind::QuorumReached).len(), 1);
        // ...then mutate and query again: the index must see the new entry.
        t.record(SimTime::from_micros(9), ev(0, 1, 1, TraceKind::QuorumReached));
        assert_eq!(t.times_of_kind(0, TraceKind::QuorumReached).len(), 2);
        assert_eq!(
            t.first_time(0, 1, 1, TraceKind::QuorumReached),
            Some(SimTime::from_micros(9))
        );
    }

    #[test]
    fn first_time_is_first_not_last() {
        let mut t = Trace::new();
        t.record(SimTime::from_micros(3), ev(0, 2, 0, TraceKind::LocalTrainingDone));
        t.record(SimTime::from_micros(7), ev(0, 2, 0, TraceKind::LocalTrainingDone));
        assert_eq!(
            t.first_time(0, 2, 0, TraceKind::LocalTrainingDone),
            Some(SimTime::from_micros(3))
        );
    }

    #[test]
    fn clone_and_serde_preserve_queries() {
        let mut t = Trace::new();
        t.record(SimTime::from_micros(10), ev(1, 2, 3, TraceKind::QuorumReached));
        let c = t.clone();
        assert_eq!(
            c.first_time(1, 2, 3, TraceKind::QuorumReached),
            Some(SimTime::from_micros(10))
        );
    }
}
