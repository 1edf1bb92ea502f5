//! Structured, typed events for every observable action of the stack,
//! plus [`MemoryRecorder`], the in-memory log they are pushed into
//! (SNIPPETS doctrine: "emit structured events for observable actions"
//! — if a system mutates world state, an event lets a replay log assert
//! behavior).

use std::sync::{Mutex, MutexGuard, PoisonError};

/// One observable action. Times are simulated microseconds where
/// present; wall time never appears here (determinism contract).
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A global training round began.
    RoundStarted {
        /// Round index (0-based).
        round: usize,
    },
    /// A global training round completed, with its cost deltas.
    RoundFinished {
        /// Round index (0-based).
        round: usize,
        /// Model-bearing messages exchanged this round.
        messages: u64,
        /// Payload bytes exchanged this round.
        bytes: u64,
        /// Proposals excluded by consensus this round.
        excluded: u64,
        /// Client absences caused by churn this round.
        absent: u64,
    },
    /// The global model was evaluated on the test set.
    Evaluated {
        /// Round index (0-based).
        round: usize,
        /// Test accuracy in `[0, 1]`.
        accuracy: f64,
    },
    /// One cluster formed its partial (or global) aggregate.
    ClusterAggregated {
        /// Round index (0-based).
        round: usize,
        /// Hierarchy level (0 = top).
        level: usize,
        /// Cluster index within the level.
        cluster: usize,
        /// Number of input models actually aggregated.
        inputs: usize,
        /// Quorum that was required (Algorithm 4's ⌈φ·present⌉).
        quorum: usize,
    },
    /// A consensus mechanism excluded a proposal as suspicious.
    ProposalExcluded {
        /// Round index (0-based).
        round: usize,
        /// Hierarchy level (0 = top).
        level: usize,
        /// Cluster index within the level.
        cluster: usize,
        /// Index of the excluded proposal within the cluster's inputs.
        proposal: usize,
    },
    /// A client was absent this round under churn (Assumption 3).
    ChurnAbsence {
        /// Round index (0-based).
        round: usize,
        /// The absent bottom-level client.
        client: usize,
    },
    /// Model-bearing messages were sent (aggregate accounting, matching
    /// the synchronous runner's bulk cost model).
    MessagesSent {
        /// Round index (0-based).
        round: usize,
        /// Hierarchy level the transfer belongs to (0 = top;
        /// `usize::MAX` is never used — dissemination is charged to the
        /// level it traverses).
        level: usize,
        /// Message count.
        count: u64,
        /// Payload bytes.
        bytes: u64,
    },
    /// Something violated an internal invariant but was tolerated and
    /// counted instead of crashing (e.g. an attack with no honest update
    /// to craft from).
    Anomaly {
        /// Anomaly class (e.g. `attack_no_honest_updates`).
        kind: String,
        /// Human-readable detail.
        detail: String,
    },
    /// A scheduled fault (or its recovery) activated (`hfl-faults`).
    FaultInjected {
        /// Round index (0-based).
        round: usize,
        /// Stable fault label (`crash_stop`, `partition_heal`, ...).
        kind: String,
        /// Deterministic detail (which node, which groups, ...).
        detail: String,
    },
    /// A cluster's leader was down and a deputy collected in its place.
    LeaderFailover {
        /// Round index (0-based).
        round: usize,
        /// Hierarchy level (0 = top).
        level: usize,
        /// Cluster index within the level.
        cluster: usize,
        /// The crashed leader's device id.
        failed: usize,
        /// The promoted deputy's device id.
        promoted: usize,
    },
    /// A cluster aggregated with fewer inputs than the fault-free quorum
    /// because faults removed members (Algorithm 4's timeout branch).
    DegradedQuorum {
        /// Round index (0-based).
        round: usize,
        /// Hierarchy level (0 = top).
        level: usize,
        /// Cluster index within the level.
        cluster: usize,
        /// Members that actually contributed.
        alive: usize,
        /// Members a fault-free round would have drawn from.
        expected: usize,
    },
    /// The suspicion layer crossed a client's score over the quarantine
    /// threshold: its updates are excluded until released.
    ClientQuarantined {
        /// Round index (0-based).
        round: usize,
        /// The quarantined client.
        client: usize,
        /// The score at the transition.
        score: f64,
    },
    /// A quarantined client's score decayed below the release threshold
    /// (rehabilitation): its updates re-enter aggregation.
    ClientReleased {
        /// Round index (0-based).
        round: usize,
        /// The released client.
        client: usize,
        /// The score at the transition.
        score: f64,
    },
    /// The echo/audit digest check caught a cluster leader sending a
    /// different aggregate upward than it echoed to its members.
    EquivocationDetected {
        /// Round index (0-based).
        round: usize,
        /// Hierarchy level of the equivocating cluster (bottom).
        level: usize,
        /// Cluster index within the level.
        cluster: usize,
        /// The equivocating leader's device id.
        leader: usize,
    },
    /// The adaptive adversary moved its attack magnitude after observing
    /// one round of defense feedback.
    AttackAdapted {
        /// Round index (0-based) of the feedback consumed.
        round: usize,
        /// The magnitude that was used this round.
        magnitude: f64,
        /// Crafted updates the coalition submitted this round.
        submitted: u64,
        /// Of those, updates the defense accepted.
        accepted: u64,
    },
    /// A malicious member selectively withheld its update (the cluster
    /// could form its quorum without it).
    UpdateWithheld {
        /// Round index (0-based).
        round: usize,
        /// The withholding client.
        client: usize,
    },
    /// A deadline-driven collection buffer closed (async rounds,
    /// DESIGN.md §12): first-of `{quorum reached, deadline fired}`.
    BufferClosed {
        /// Round index (0-based).
        round: usize,
        /// Hierarchy level (0 = top).
        level: usize,
        /// Cluster index within the level.
        cluster: usize,
        /// `"quorum"` when the ⌈φ·n⌉-th arrival closed the buffer,
        /// `"deadline"` when the timer fired first.
        cause: String,
        /// Simulated close time, µs on the round clock: absolute under
        /// the pipelined schedule; from buffer open under lockstep,
        /// where every buffer opens at 0.
        close_us: u64,
        /// Updates in the buffer at close (on-time arrivals).
        occupancy: usize,
        /// Members the buffer was waiting on.
        expected: usize,
    },
    /// A late update arrived within the staleness bound τ of a closed
    /// buffer and was admitted at a staleness-discounted weight.
    StaleUpdateAdmitted {
        /// Round index (0-based).
        round: usize,
        /// Hierarchy level (0 = top).
        level: usize,
        /// Cluster index within the level.
        cluster: usize,
        /// The late device.
        device: usize,
        /// How far past the buffer close it arrived, µs (≤ τ).
        lateness_us: u64,
        /// The discounted aggregation weight it was admitted with.
        weight: f64,
    },
    /// A late update arrived beyond the staleness bound τ of a closed
    /// buffer and was rejected.
    StaleUpdateDropped {
        /// Round index (0-based).
        round: usize,
        /// Hierarchy level (0 = top).
        level: usize,
        /// Cluster index within the level.
        cluster: usize,
        /// The too-late device.
        device: usize,
        /// How far past the buffer close it arrived, µs (> τ).
        lateness_us: u64,
    },
}

/// Keeps every event in memory, in record order — the assertion target
/// for tests and the source for post-run analyses. Events may be
/// recorded from `hfl-parallel` worker threads.
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    events: Mutex<Vec<Event>>,
}

impl MemoryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The event log. A worker that panics while holding it poisons
    /// the mutex, but the `Vec` behind it is still whole — recover the
    /// guard so one failed worker cannot take the recorder down too.
    fn log(&self) -> MutexGuard<'_, Vec<Event>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one event.
    pub fn record(&self, event: Event) {
        self.log().push(event);
    }

    /// A copy of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.log().clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.log().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.log().is_empty()
    }

    /// Drains the recorded events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.log())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_recorder_keeps_order() {
        let r = MemoryRecorder::new();
        for round in 0..3 {
            r.record(Event::RoundStarted { round });
        }
        let evs = r.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[2], Event::RoundStarted { round: 2 });
        assert_eq!(r.take().len(), 3);
        assert!(r.is_empty());
    }

    #[test]
    fn memory_recorder_is_shareable_across_threads() {
        let r = std::sync::Arc::new(MemoryRecorder::new());
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        r.record(Event::RoundStarted { round: i });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.len(), 400);
    }
}
