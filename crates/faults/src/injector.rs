//! Compiling a [`FaultPlan`] into per-round queries.
//!
//! The injector resolves role-based specs (leader kills) to device ids,
//! indexes every window by round, and answers the questions the runner
//! and simulator ask on the hot path: *is this node crashed now? does
//! this link cross a partition? what's the current burst loss?* All
//! answers are pure functions of `(plan, hierarchy, seed, round)` —
//! no interior mutability, no wall clock — so fault-injected runs stay
//! byte-reproducible.

use std::collections::BTreeMap;

use hfl_simnet::topology::Hierarchy;

use crate::plan::{FaultKind, FaultPlan, FaultPlanError};

/// One manifest-ready fault or recovery occurrence at a known round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Stable kind label (`crash_stop`, `recover`, `partition_heal`, ...).
    pub kind: String,
    /// Deterministic human-readable detail.
    pub detail: String,
}

#[derive(Clone, Debug)]
struct StragglerWindow {
    node: usize,
    from: usize,
    until: Option<usize>,
    factor: f64,
}

#[derive(Clone, Debug)]
struct BurstWindow {
    from: usize,
    until: usize,
    prob: f64,
}

#[derive(Clone, Debug)]
struct PartitionWindow {
    from: usize,
    heal: usize,
    /// `group_of[node]`: partition group id; unlisted nodes share the
    /// implicit last group.
    group_of: Vec<usize>,
}

#[derive(Clone, Debug)]
struct ChurnWindow {
    from: usize,
    until: Option<usize>,
    prob: f64,
}

/// A compiled, queryable fault schedule. Built by [`FaultInjector::compile`].
#[derive(Clone, Debug)]
pub struct FaultInjector {
    seed: u64,
    num_nodes: usize,
    /// Per node: round it crashes, if any (later specs win).
    crash_from: Vec<Option<usize>>,
    /// Per node: round it recovers, if any.
    recover_at: Vec<Option<usize>>,
    stragglers: Vec<StragglerWindow>,
    bursts: Vec<BurstWindow>,
    partitions: Vec<PartitionWindow>,
    churn: Vec<ChurnWindow>,
    records: BTreeMap<usize, Vec<FaultEvent>>,
}

/// SplitMix64: the deterministic per-(seed, coordinates) hash behind
/// burst-loss upload draws. Matches the constants of Steele et al.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from a chain of SplitMix64 rounds over the
/// given words.
fn hash_unit(words: &[u64]) -> f64 {
    let mut acc = 0xABD0_F417_5EED_0001u64;
    for &w in words {
        acc = splitmix64(acc ^ w);
    }
    // 53 mantissa bits, same construction as rand's f64 sampling.
    (acc >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl FaultInjector {
    /// Validates `plan` against `hierarchy` and compiles it. `seed`
    /// drives the injector's own stochastic draws (burst-loss uploads);
    /// use the experiment seed so one seed fixes the whole run.
    pub fn compile(
        plan: &FaultPlan,
        hierarchy: &Hierarchy,
        seed: u64,
    ) -> Result<Self, FaultPlanError> {
        plan.validate(hierarchy)?;
        let n = hierarchy.num_clients();
        let mut inj = FaultInjector {
            seed,
            num_nodes: n,
            crash_from: vec![None; n],
            recover_at: vec![None; n],
            stragglers: Vec::new(),
            bursts: Vec::new(),
            partitions: Vec::new(),
            churn: Vec::new(),
            records: BTreeMap::new(),
        };
        let mut record = |round: usize, kind: &str, detail: String| {
            inj.records.entry(round).or_default().push(FaultEvent {
                kind: kind.to_string(),
                detail,
            });
        };
        // Borrowed mutably by the closure; collect crash bookkeeping
        // separately and merge after.
        let mut crashes: Vec<(usize, usize, Option<usize>)> = Vec::new();
        let mut stragglers = Vec::new();
        let mut bursts = Vec::new();
        let mut partitions = Vec::new();
        let mut churn = Vec::new();
        for spec in &plan.specs {
            let at = spec.at_round;
            match &spec.kind {
                FaultKind::CrashStop { node } => {
                    crashes.push((*node, at, None));
                    record(at, "crash_stop", format!("node {node} crashes"));
                }
                FaultKind::CrashRecover {
                    node,
                    recover_round,
                } => {
                    crashes.push((*node, at, Some(*recover_round)));
                    record(
                        at,
                        "crash_recover",
                        format!("node {node} crashes until round {recover_round}"),
                    );
                    record(*recover_round, "recover", format!("node {node} rejoins"));
                }
                FaultKind::LeaderKill {
                    level,
                    cluster,
                    recover_round,
                } => {
                    let node = hierarchy.level(*level).clusters[*cluster].leader();
                    crashes.push((node, at, *recover_round));
                    record(
                        at,
                        "leader_kill",
                        format!("leader of level {level} cluster {cluster} (node {node}) crashes"),
                    );
                    if let Some(r) = recover_round {
                        record(*r, "recover", format!("node {node} rejoins"));
                    }
                }
                FaultKind::Straggler {
                    node,
                    factor,
                    until_round,
                } => {
                    stragglers.push(StragglerWindow {
                        node: *node,
                        from: at,
                        until: *until_round,
                        factor: *factor,
                    });
                    record(at, "straggler", format!("node {node} slows by {factor}x"));
                    if let Some(r) = until_round {
                        record(*r, "straggler_end", format!("node {node} back to speed"));
                    }
                }
                FaultKind::LossBurst { prob, until_round } => {
                    bursts.push(BurstWindow {
                        from: at,
                        until: *until_round,
                        prob: *prob,
                    });
                    record(
                        at,
                        "loss_burst",
                        format!("drop probability {prob} until round {until_round}"),
                    );
                    record(*until_round, "loss_burst_end", "burst over".to_string());
                }
                FaultKind::Partition { groups, heal_round } => {
                    // Unlisted nodes form the implicit group `groups.len()`.
                    let mut group_of = vec![groups.len(); n];
                    for (g, members) in groups.iter().enumerate() {
                        for &node in members {
                            group_of[node] = g;
                        }
                    }
                    partitions.push(PartitionWindow {
                        from: at,
                        heal: *heal_round,
                        group_of,
                    });
                    record(
                        at,
                        "partition",
                        format!("groups {groups:?} split until round {heal_round}"),
                    );
                    record(
                        *heal_round,
                        "partition_heal",
                        format!("groups {groups:?} rejoined"),
                    );
                }
                FaultKind::Churn {
                    leave_prob,
                    until_round,
                } => {
                    churn.push(ChurnWindow {
                        from: at,
                        until: *until_round,
                        prob: *leave_prob,
                    });
                    record(at, "churn", format!("leave probability {leave_prob}"));
                    if let Some(r) = until_round {
                        record(*r, "churn_end", "churn reverts".to_string());
                    }
                }
            }
        }
        for (node, at, rec) in crashes {
            inj.crash_from[node] = Some(at);
            inj.recover_at[node] = rec;
        }
        inj.stragglers = stragglers;
        inj.bursts = bursts;
        inj.partitions = partitions;
        inj.churn = churn;
        Ok(inj)
    }

    /// Number of devices the injector was compiled against.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// True when `node` is down at `round`.
    pub fn crashed(&self, node: usize, round: usize) -> bool {
        match self.crash_from[node] {
            Some(from) => round >= from && self.recover_at[node].is_none_or(|r| round < r),
            None => false,
        }
    }

    /// Delay multiplier for `node`'s uplink at `round` (≥ 1; the max of
    /// all active straggler windows).
    pub fn straggle_factor(&self, node: usize, round: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|w| w.node == node && round >= w.from && w.until.is_none_or(|u| round < u))
            .map(|w| w.factor)
            .fold(1.0, f64::max)
    }

    /// Extra per-message drop probability at `round` (the max of all
    /// active bursts; 0 when quiet).
    pub fn burst_loss(&self, round: usize) -> f64 {
        self.bursts
            .iter()
            .filter(|b| round >= b.from && round < b.until)
            .map(|b| b.prob)
            .fold(0.0, f64::max)
    }

    /// True when an active partition separates `a` from `b` at `round`.
    pub fn partitioned(&self, a: usize, b: usize, round: usize) -> bool {
        self.partitions
            .iter()
            .filter(|p| round >= p.from && round < p.heal)
            .any(|p| p.group_of[a] != p.group_of[b])
    }

    /// Churn override at `round`: `Some(p)` while a churn window is
    /// active (the latest-declared active window wins), else `None`
    /// (fall back to the config's churn).
    pub fn churn_leave_prob(&self, round: usize) -> Option<f64> {
        self.churn
            .iter()
            .rfind(|c| round >= c.from && c.until.is_none_or(|u| round < u))
            .map(|c| c.prob)
    }

    /// Deterministic burst-loss draw for one upload: does the update
    /// from `member` toward its collector at (`level`, `cluster`) get
    /// dropped at `round`? Same (seed, coordinates) → same answer.
    pub fn drop_upload(&self, round: usize, level: usize, cluster: usize, member: usize) -> bool {
        let p = self.burst_loss(round);
        p > 0.0
            && hash_unit(&[
                self.seed,
                round as u64,
                level as u64,
                cluster as u64,
                member as u64,
            ]) < p
    }

    /// Fault and recovery occurrences scheduled exactly at `round`, in
    /// plan order — the manifest's per-round fault log.
    pub fn faults_at(&self, round: usize) -> &[FaultEvent] {
        self.records.get(&round).map_or(&[], Vec::as_slice)
    }

    /// Scheduled occurrences strictly before `round` — the schedule
    /// cursor a checkpoint of a run paused at `round` carries, letting
    /// resume validate it was handed the same fault plan.
    pub fn events_before(&self, round: usize) -> u64 {
        self.records
            .iter()
            .filter(|(&r, _)| r < round)
            .map(|(_, v)| v.len() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;

    fn h() -> Hierarchy {
        Hierarchy::ecsm(3, 2, 2)
    }

    fn compile(plan: FaultPlan) -> FaultInjector {
        FaultInjector::compile(&plan, &h(), 42).expect("plan must compile")
    }

    #[test]
    fn crash_stop_never_recovers() {
        let inj = compile(FaultPlan::new().crash_stop(5, 3));
        assert!(!inj.crashed(3, 4));
        assert!(inj.crashed(3, 5));
        assert!(inj.crashed(3, 500));
        assert!(!inj.crashed(2, 5));
    }

    #[test]
    fn crash_recover_window_is_half_open() {
        let inj = compile(FaultPlan::new().crash_recover(5, 3, 9));
        assert!(!inj.crashed(3, 4));
        assert!(inj.crashed(3, 5));
        assert!(inj.crashed(3, 8));
        assert!(!inj.crashed(3, 9));
    }

    #[test]
    fn leader_kill_resolves_to_device() {
        let hier = h();
        let leader = hier.level(1).clusters[1].leader();
        let inj =
            FaultInjector::compile(&FaultPlan::new().kill_leader(2, 1, 1, None), &hier, 0).unwrap();
        assert!(inj.crashed(leader, 2));
    }

    #[test]
    fn straggler_factor_is_max_of_active_windows() {
        let inj = compile(FaultPlan::new().straggler(0, 1, 2.0, Some(10)).straggler(
            3,
            1,
            8.0,
            Some(6),
        ));
        assert_eq!(inj.straggle_factor(1, 0), 2.0);
        assert_eq!(inj.straggle_factor(1, 4), 8.0);
        assert_eq!(inj.straggle_factor(1, 7), 2.0);
        assert_eq!(inj.straggle_factor(1, 10), 1.0);
        assert_eq!(inj.straggle_factor(0, 4), 1.0);
    }

    #[test]
    fn events_before_counts_strictly_earlier_occurrences() {
        let inj = compile(FaultPlan::new().crash_stop(2, 3).loss_burst(4, 0.5, 6));
        assert_eq!(inj.events_before(0), 0);
        assert_eq!(inj.events_before(2), 0);
        assert_eq!(inj.events_before(3), 1); // crash at round 2
        assert_eq!(inj.events_before(5), 2); // + burst onset at round 4
        assert_eq!(inj.events_before(100), inj.events_before(7));
    }

    #[test]
    fn burst_loss_window() {
        let inj = compile(FaultPlan::new().loss_burst(2, 0.5, 6));
        assert_eq!(inj.burst_loss(1), 0.0);
        assert_eq!(inj.burst_loss(2), 0.5);
        assert_eq!(inj.burst_loss(5), 0.5);
        assert_eq!(inj.burst_loss(6), 0.0);
    }

    #[test]
    fn partition_separates_groups_and_heals() {
        let inj = compile(FaultPlan::new().partition(4, vec![vec![0, 1]], 8));
        // 0 and 1 are in the named group; everyone else in the implicit one.
        assert!(!inj.partitioned(0, 2, 3));
        assert!(inj.partitioned(0, 2, 4));
        assert!(inj.partitioned(2, 1, 7));
        assert!(!inj.partitioned(0, 1, 5));
        assert!(!inj.partitioned(2, 3, 5));
        assert!(!inj.partitioned(0, 2, 8));
    }

    #[test]
    fn churn_override_latest_wins() {
        let inj = compile(
            FaultPlan::new()
                .churn(2, 0.3, Some(10))
                .churn(4, 0.6, Some(6)),
        );
        assert_eq!(inj.churn_leave_prob(1), None);
        assert_eq!(inj.churn_leave_prob(2), Some(0.3));
        assert_eq!(inj.churn_leave_prob(5), Some(0.6));
        assert_eq!(inj.churn_leave_prob(7), Some(0.3));
        assert_eq!(inj.churn_leave_prob(10), None);
    }

    #[test]
    fn drop_upload_is_deterministic_and_roughly_calibrated() {
        let inj = compile(FaultPlan::new().loss_burst(0, 0.5, 1));
        let mut dropped = 0;
        for member in 0..1000 {
            let a = inj.drop_upload(0, 2, 0, member);
            let b = inj.drop_upload(0, 2, 0, member);
            assert_eq!(a, b, "same coordinates must draw the same");
            if a {
                dropped += 1;
            }
        }
        assert!(
            (350..650).contains(&dropped),
            "dropped {dropped}/1000 at p=0.5"
        );
        // Quiet round: no drops at all.
        assert!(!inj.drop_upload(1, 2, 0, 0));
    }

    #[test]
    fn records_land_on_their_rounds() {
        let inj = compile(FaultPlan::new().crash_recover(5, 3, 9).partition(
            4,
            vec![vec![0, 1]],
            8,
        ));
        let kinds =
            |r: usize| -> Vec<String> { inj.faults_at(r).iter().map(|e| e.kind.clone()).collect() };
        assert_eq!(kinds(4), vec!["partition"]);
        assert_eq!(kinds(5), vec!["crash_recover"]);
        assert_eq!(kinds(8), vec!["partition_heal"]);
        assert_eq!(kinds(9), vec!["recover"]);
        assert!(inj.faults_at(0).is_empty());
    }
}
