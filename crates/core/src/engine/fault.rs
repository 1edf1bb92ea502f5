//! The fault layer: wraps a compiled [`FaultInjector`] and gives the
//! canonical round its crash/partition/straggler semantics — leader
//! failover via the slot/carrier model, degraded quorums over the
//! survivors, straggler-last arrival order, and delivery-reach
//! accounting for broadcasts.

use hfl_faults::FaultInjector;
use hfl_simnet::Hierarchy;
use hfl_snapshot::LayerState;
use hfl_telemetry::{Event, FaultRecord, Telemetry};

use super::layer::{ClusterCtx, RoundCtx};
use crate::runner::Experiment;

/// Crash/partition/straggler semantics for the round engine.
pub(crate) struct FaultLayer<'e> {
    inj: &'e FaultInjector,
    hierarchy: &'e Hierarchy,
    /// `produced[slot]`: the slot's carried model is fresh this round.
    produced: Vec<bool>,
    /// `carrier[slot]`: physical device holding the slot's model
    /// (differs from the slot after a failover promoted a deputy).
    carrier: Vec<usize>,
}

impl<'e> FaultLayer<'e> {
    /// The fault layer for an experiment, when its config carries a
    /// compiled fault plan.
    pub(crate) fn for_experiment(exp: &'e Experiment) -> Option<Self> {
        exp.injector().map(|inj| Self {
            inj,
            hierarchy: &exp.hierarchy,
            produced: Vec::new(),
            carrier: Vec::new(),
        })
    }

    /// Round open, before training: the scheduled faults activating
    /// this round go into the log first; whatever the aggregation
    /// observes (failover, degraded quorums) is appended in order.
    pub(crate) fn open_round(
        &self,
        round: usize,
        telem: &Telemetry,
        fault_log: &mut Vec<FaultRecord>,
    ) {
        for ev in self.inj.faults_at(round) {
            fault_log.push(FaultRecord {
                round,
                kind: ev.kind.clone(),
                detail: ev.detail.clone(),
            });
            telem.emit_with(|| Event::FaultInjected {
                round,
                kind: ev.kind.clone(),
                detail: ev.detail.clone(),
            });
        }
    }

    /// Every slot starts the aggregation fresh unless its device is
    /// crashed, carried by its own device.
    pub(crate) fn begin_aggregate(&mut self, round: usize) {
        let n = self.hierarchy.num_clients();
        self.produced.clear();
        self.produced
            .extend((0..n).map(|dev| !self.inj.crashed(dev, round)));
        self.carrier.clear();
        self.carrier.extend(0..n);
    }

    /// Failover: the collector is the first member whose physical
    /// carrier is alive (and, at the bottom, present under churn).
    /// `None` when no member can collect: the cluster is skipped this
    /// round, and the record says why.
    pub(crate) fn select_collector(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        cl: &ClusterCtx<'_>,
    ) -> Option<usize> {
        let round = ctx.round;
        let collector_slot = cl.members.iter().copied().find(|&m| {
            !self.inj.crashed(self.carrier[m], round) && (!cl.at_bottom() || cl.active[m])
        });
        let Some(collector_slot) = collector_slot else {
            self.produced[cl.leader] = false;
            ctx.fault_log.push(FaultRecord {
                round,
                kind: "degraded_quorum".into(),
                detail: format!(
                    "level {l} cluster {ci}: no member able to collect (0 of {expected})",
                    l = cl.level,
                    ci = cl.index,
                    expected = cl.expected
                ),
            });
            ctx.telem.emit_with(|| Event::DegradedQuorum {
                round,
                level: cl.level,
                cluster: cl.index,
                alive: 0,
                expected: cl.expected,
            });
            return None;
        };
        let collector = self.carrier[collector_slot];
        if collector_slot != cl.leader {
            ctx.fault_log.push(FaultRecord {
                round,
                kind: "leader_failover".into(),
                detail: format!(
                    "level {l} cluster {ci}: node {collector} promoted over node {leader}",
                    l = cl.level,
                    ci = cl.index,
                    leader = cl.leader
                ),
            });
            ctx.telem.emit_with(|| Event::LeaderFailover {
                round,
                level: cl.level,
                cluster: cl.index,
                failed: cl.leader,
                promoted: collector,
            });
        }
        Some(collector)
    }

    /// Members lost to crashes, partitions or loss bursts are simply
    /// missing; the engine's quorum then degrades to ⌈φ·alive⌉ over the
    /// survivors (Algorithm 4's timeout branch) instead of hanging.
    pub(crate) fn filter_members(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        cl: &ClusterCtx<'_>,
        present: &mut Vec<usize>,
    ) {
        let round = ctx.round;
        let mut removed_by_fault = 0usize;
        present.retain(|&mi| {
            let m = cl.members[mi];
            if cl.at_bottom() {
                if self.inj.crashed(m, round) {
                    removed_by_fault += 1;
                    return false;
                }
            } else if !self.produced[m] {
                removed_by_fault += 1;
                return false;
            }
            let phys = self.carrier[m];
            if phys != cl.collector
                && (self.inj.partitioned(phys, cl.collector, round)
                    || self.inj.drop_upload(round, cl.level, cl.index, m))
            {
                removed_by_fault += 1;
                return false;
            }
            true
        });
        if cl.at_bottom() {
            ctx.cost.faulted += removed_by_fault as u64;
        }
        if removed_by_fault > 0 {
            ctx.fault_log.push(FaultRecord {
                round,
                kind: "degraded_quorum".into(),
                detail: format!(
                    "level {l} cluster {ci}: {alive} of {expected} contributed",
                    l = cl.level,
                    ci = cl.index,
                    alive = present.len(),
                    expected = cl.expected
                ),
            });
            ctx.telem.emit_with(|| Event::DegradedQuorum {
                round,
                level: cl.level,
                cluster: cl.index,
                alive: present.len(),
                expected: cl.expected,
            });
        }
    }

    /// Under a deadline policy stragglers do not merely sort last —
    /// their synthesized link delay stretches by the active
    /// `StragglerWindow` factor, so a slow enough device genuinely
    /// misses the close (and eventually the staleness bound).
    pub(crate) fn arrival_delay_factor(&self, round: usize, slot: usize) -> f64 {
        self.inj.straggle_factor(self.carrier[slot], round)
    }

    /// Stragglers arrive last; the stable sort keeps the shuffled
    /// arrival order among equally-fast members.
    pub(crate) fn reorder_arrivals(&self, round: usize, cl: &ClusterCtx<'_>, order: &mut [usize]) {
        order.sort_by(|&a, &b| {
            let fa = self.inj.straggle_factor(self.carrier[cl.members[a]], round);
            let fb = self.inj.straggle_factor(self.carrier[cl.members[b]], round);
            fa.total_cmp(&fb)
        });
    }

    /// Broadcasts only reach members whose device is up.
    pub(crate) fn broadcast_reach(&self, round: usize, cl: &ClusterCtx<'_>) -> u64 {
        cl.members
            .iter()
            .filter(|&&m| !self.inj.crashed(self.carrier[m], round))
            .count() as u64
    }

    /// The cluster aggregated: its leader slot carries a fresh partial,
    /// held by the device that collected it.
    pub(crate) fn after_cluster(&mut self, cl: &ClusterCtx<'_>) {
        self.produced[cl.leader] = true;
        self.carrier[cl.leader] = cl.collector;
    }

    /// The cluster produced nothing this round.
    pub(crate) fn cluster_skipped(&mut self, cl: &ClusterCtx<'_>) {
        self.produced[cl.leader] = false;
    }

    /// Global aggregation runs over the slots that produced a partial
    /// and can reach the top collector, filled into `out` (handed in
    /// empty); with nothing produced anywhere the engine falls back to
    /// the stale carried values rather than crash — the run records the
    /// anomaly and continues.
    pub(crate) fn select_top(
        &mut self,
        ctx: &mut RoundCtx<'_>,
        top: &ClusterCtx<'_>,
        out: &mut Vec<usize>,
    ) {
        let round = ctx.round;
        out.extend(top.members.iter().copied().filter(|&m| self.produced[m]));
        let expected = top.members.len();
        match out.first().copied() {
            Some(first) => {
                let coll = self.carrier[first];
                if first != top.leader {
                    ctx.fault_log.push(FaultRecord {
                        round,
                        kind: "leader_failover".into(),
                        detail: format!(
                            "level 0 cluster 0: node {coll} promoted over node {}",
                            top.leader
                        ),
                    });
                    ctx.telem.emit_with(|| Event::LeaderFailover {
                        round,
                        level: 0,
                        cluster: 0,
                        failed: top.leader,
                        promoted: coll,
                    });
                }
                // Same elements in the same order as the pre-workspace
                // filter/collect (the first slot trivially survives:
                // its carrier is the collector).
                out.retain(|&m| {
                    let phys = self.carrier[m];
                    phys == coll
                        || (!self.inj.partitioned(phys, coll, round)
                            && !self.inj.drop_upload(round, 0, 0, m))
                });
            }
            None => {
                ctx.fault_log.push(FaultRecord {
                    round,
                    kind: "degraded_quorum".into(),
                    detail: "level 0 cluster 0: no fresh partials, using stale models".into(),
                });
                ctx.telem.emit_with(|| Event::Anomaly {
                    kind: "global_aggregation_stalled".into(),
                    detail: format!("round {round}: no fresh partials reached the top"),
                });
                out.extend_from_slice(top.members);
            }
        }
        if out.len() < expected {
            ctx.telem.emit_with(|| Event::DegradedQuorum {
                round,
                level: 0,
                cluster: 0,
                alive: out.len(),
                expected,
            });
            ctx.fault_log.push(FaultRecord {
                round,
                kind: "degraded_quorum".into(),
                detail: format!(
                    "level 0 cluster 0: {alive} of {expected} contributed",
                    alive = out.len()
                ),
            });
        }
    }

    /// Dissemination reaches every device that is up (crashed nodes
    /// rejoin with the current global on recovery).
    pub(crate) fn dissemination_reach(&self, round: usize, level: usize) -> u64 {
        self.hierarchy
            .level(level)
            .clusters
            .iter()
            .flat_map(|c| c.members.iter())
            .filter(|&&m| !self.inj.crashed(m, round))
            .count() as u64
    }

    /// Everything here re-derives from the compiled schedule each
    /// round; the snapshot carries only the activation cursor so resume
    /// can detect a schedule that drifted from the captured run.
    pub(crate) fn snapshot_state(&self, round: usize) -> LayerState {
        LayerState::Fault {
            activated: self.inj.events_before(round),
        }
    }

    pub(crate) fn restore_state(&mut self, round: usize, state: &LayerState) -> Result<(), String> {
        let LayerState::Fault { activated } = state else {
            return Err(format!("fault layer handed {} state", state.layer_name()));
        };
        let want = self.inj.events_before(round);
        if *activated != want {
            return Err(format!(
                "fault schedule cursor mismatch at round {round}: \
                 snapshot saw {activated} activations, this plan has {want}"
            ));
        }
        Ok(())
    }
}
