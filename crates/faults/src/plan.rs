//! The fault-plan DSL: *what* goes wrong and *when*, as data.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultSpec`]s — each names a
//! round at which a [`FaultKind`] activates. Plans are plain data
//! (embeddable in `HflConfig`), are validated
//! against a concrete [`Hierarchy`] before use, and carry no
//! randomness themselves: all stochastic choices (burst-loss draws,
//! churn draws) happen in the compiled
//! [`FaultInjector`](crate::FaultInjector) under the experiment seed,
//! so the same plan + seed always injects the same faults.

use hfl_simnet::topology::Hierarchy;
use std::fmt;

/// One class of injected fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Node halts permanently (crash-stop): it trains nothing, sends
    /// nothing, and receives nothing from its activation round on.
    CrashStop {
        /// The crashed device (bottom-level client id).
        node: usize,
    },
    /// Node halts, then rejoins at `recover_round` with whatever global
    /// model it is sent (crash-recover).
    CrashRecover {
        /// The crashed device.
        node: usize,
        /// First round the node participates again (exclusive crash
        /// window end; must be `> at_round`).
        recover_round: usize,
    },
    /// Crash the *leader* of a named cluster — resolved to its device id
    /// at compile time so plans can target roles, not raw ids.
    LeaderKill {
        /// Hierarchy level of the cluster (0 = top).
        level: usize,
        /// Cluster index within the level.
        cluster: usize,
        /// `Some(r)`: the leader rejoins at round `r`; `None`: crash-stop.
        recover_round: Option<usize>,
    },
    /// Node's uplink slows down by `factor` (straggler).
    Straggler {
        /// The slow device.
        node: usize,
        /// Delay multiplier (≥ 1).
        factor: f64,
        /// `Some(r)`: back to normal at round `r`; `None`: forever.
        until_round: Option<usize>,
    },
    /// Extra per-message drop probability on every link while active.
    LossBurst {
        /// Drop probability in `[0, 1)`, applied on top of the channel's
        /// base loss.
        prob: f64,
        /// Round the burst ends (exclusive; must be `> at_round`).
        until_round: usize,
    },
    /// The network splits into disjoint groups; traffic between groups
    /// is dropped until the partition heals. Nodes not listed in any
    /// group form an implicit extra group.
    Partition {
        /// Disjoint, non-empty groups of device ids.
        groups: Vec<Vec<usize>>,
        /// Round the partition heals (exclusive; must be `> at_round`).
        heal_round: usize,
    },
    /// Overrides the config's churn: bottom-level clients independently
    /// sit out each round with probability `leave_prob` while active.
    Churn {
        /// Per-round leave probability in `[0, 1)`.
        leave_prob: f64,
        /// `Some(r)`: churn reverts at round `r`; `None`: forever.
        until_round: Option<usize>,
    },
}

impl FaultKind {
    /// Short stable label used in telemetry events and manifests.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::CrashStop { .. } => "crash_stop",
            FaultKind::CrashRecover { .. } => "crash_recover",
            FaultKind::LeaderKill { .. } => "leader_kill",
            FaultKind::Straggler { .. } => "straggler",
            FaultKind::LossBurst { .. } => "loss_burst",
            FaultKind::Partition { .. } => "partition",
            FaultKind::Churn { .. } => "churn",
        }
    }
}

/// A fault plus its activation round.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Round (0-based) at which the fault activates.
    pub at_round: usize,
    /// What happens.
    pub kind: FaultKind,
}

/// A whole experiment's fault schedule.
///
/// Built with the chainable constructors:
///
/// ```
/// use hfl_faults::FaultPlan;
/// let plan = FaultPlan::new()
///     .crash_stop(5, 3)
///     .kill_leader(5, 2, 0, Some(12))
///     .partition(4, vec![vec![0, 1, 2, 3]], 8);
/// assert_eq!(plan.specs.len(), 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The schedule, in insertion order.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    fn with(mut self, at_round: usize, kind: FaultKind) -> Self {
        self.specs.push(FaultSpec { at_round, kind });
        self
    }

    /// Crash-stop `node` at `at_round`.
    pub fn crash_stop(self, at_round: usize, node: usize) -> Self {
        self.with(at_round, FaultKind::CrashStop { node })
    }

    /// Crash `node` at `at_round`, recovering at `recover_round`.
    pub fn crash_recover(self, at_round: usize, node: usize, recover_round: usize) -> Self {
        self.with(
            at_round,
            FaultKind::CrashRecover {
                node,
                recover_round,
            },
        )
    }

    /// Kill the leader of `level`/`cluster` at `at_round`; `recover_round`
    /// as in [`FaultKind::LeaderKill`].
    pub fn kill_leader(
        self,
        at_round: usize,
        level: usize,
        cluster: usize,
        recover_round: Option<usize>,
    ) -> Self {
        self.with(
            at_round,
            FaultKind::LeaderKill {
                level,
                cluster,
                recover_round,
            },
        )
    }

    /// Inflate `node`'s uplink delay by `factor` from `at_round` until
    /// `until_round` (or forever).
    pub fn straggler(
        self,
        at_round: usize,
        node: usize,
        factor: f64,
        until_round: Option<usize>,
    ) -> Self {
        self.with(
            at_round,
            FaultKind::Straggler {
                node,
                factor,
                until_round,
            },
        )
    }

    /// Add a loss burst of probability `prob` over `[at_round, until_round)`.
    pub fn loss_burst(self, at_round: usize, prob: f64, until_round: usize) -> Self {
        self.with(at_round, FaultKind::LossBurst { prob, until_round })
    }

    /// Partition the network into `groups` over `[at_round, heal_round)`.
    pub fn partition(self, at_round: usize, groups: Vec<Vec<usize>>, heal_round: usize) -> Self {
        self.with(at_round, FaultKind::Partition { groups, heal_round })
    }

    /// Override churn to `leave_prob` from `at_round` until `until_round`
    /// (or forever).
    pub fn churn(self, at_round: usize, leave_prob: f64, until_round: Option<usize>) -> Self {
        self.with(
            at_round,
            FaultKind::Churn {
                leave_prob,
                until_round,
            },
        )
    }

    /// Checks every spec against a concrete hierarchy. All errors are
    /// recoverable ([`FaultPlanError`] implements `Display`); a valid
    /// plan compiles into a [`FaultInjector`](crate::FaultInjector).
    pub fn validate(&self, hierarchy: &Hierarchy) -> Result<(), FaultPlanError> {
        let n = hierarchy.num_clients();
        let check_node = |spec: usize, node: usize| {
            if node >= n {
                Err(FaultPlanError::NodeOutOfRange {
                    spec,
                    node,
                    clients: n,
                })
            } else {
                Ok(())
            }
        };
        let check_prob = |spec: usize, what: &'static str, p: f64| {
            if !(0.0..1.0).contains(&p) {
                Err(FaultPlanError::ProbabilityOutOfRange {
                    spec,
                    what,
                    value: p,
                })
            } else {
                Ok(())
            }
        };
        let check_window = |spec: usize, at: usize, end: usize| {
            if end <= at {
                Err(FaultPlanError::EmptyWindow {
                    spec,
                    at_round: at,
                    end_round: end,
                })
            } else {
                Ok(())
            }
        };
        for (i, s) in self.specs.iter().enumerate() {
            match &s.kind {
                FaultKind::CrashStop { node } => check_node(i, *node)?,
                FaultKind::CrashRecover {
                    node,
                    recover_round,
                } => {
                    check_node(i, *node)?;
                    check_window(i, s.at_round, *recover_round)?;
                }
                FaultKind::LeaderKill {
                    level,
                    cluster,
                    recover_round,
                } => {
                    if *level >= hierarchy.num_levels()
                        || *cluster >= hierarchy.level(*level).num_clusters()
                    {
                        return Err(FaultPlanError::NoSuchCluster {
                            spec: i,
                            level: *level,
                            cluster: *cluster,
                        });
                    }
                    if let Some(r) = recover_round {
                        check_window(i, s.at_round, *r)?;
                    }
                }
                FaultKind::Straggler {
                    node,
                    factor,
                    until_round,
                } => {
                    check_node(i, *node)?;
                    if !factor.is_finite() || *factor < 1.0 {
                        return Err(FaultPlanError::BadStragglerFactor {
                            spec: i,
                            factor: *factor,
                        });
                    }
                    if let Some(r) = until_round {
                        check_window(i, s.at_round, *r)?;
                    }
                }
                FaultKind::LossBurst { prob, until_round } => {
                    check_prob(i, "loss burst probability", *prob)?;
                    check_window(i, s.at_round, *until_round)?;
                }
                FaultKind::Partition { groups, heal_round } => {
                    check_window(i, s.at_round, *heal_round)?;
                    if groups.is_empty() || groups.iter().any(Vec::is_empty) {
                        return Err(FaultPlanError::EmptyPartitionGroup { spec: i });
                    }
                    let mut seen = vec![false; n];
                    for g in groups {
                        for &node in g {
                            check_node(i, node)?;
                            if seen[node] {
                                return Err(FaultPlanError::OverlappingPartitionGroups {
                                    spec: i,
                                    node,
                                });
                            }
                            seen[node] = true;
                        }
                    }
                }
                FaultKind::Churn {
                    leave_prob,
                    until_round,
                } => {
                    check_prob(i, "churn leave probability", *leave_prob)?;
                    if let Some(r) = until_round {
                        check_window(i, s.at_round, *r)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// Why a [`FaultPlan`] is unusable against a given hierarchy.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultPlanError {
    /// A spec names a device id beyond the client count.
    NodeOutOfRange {
        /// Index of the offending spec in `plan.specs`.
        spec: usize,
        /// The offending node id.
        node: usize,
        /// Number of clients in the hierarchy.
        clients: usize,
    },
    /// A `LeaderKill` names a level/cluster pair that doesn't exist.
    NoSuchCluster {
        /// Index of the offending spec.
        spec: usize,
        /// Named level.
        level: usize,
        /// Named cluster.
        cluster: usize,
    },
    /// A probability fell outside `[0, 1)`.
    ProbabilityOutOfRange {
        /// Index of the offending spec.
        spec: usize,
        /// Which probability.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A window's end round is not after its activation round.
    EmptyWindow {
        /// Index of the offending spec.
        spec: usize,
        /// Activation round.
        at_round: usize,
        /// End round.
        end_round: usize,
    },
    /// A straggler factor below 1 (or non-finite) would *speed up* the node.
    BadStragglerFactor {
        /// Index of the offending spec.
        spec: usize,
        /// The offending factor.
        factor: f64,
    },
    /// A partition listed no groups or an empty group.
    EmptyPartitionGroup {
        /// Index of the offending spec.
        spec: usize,
    },
    /// A node appears in two partition groups.
    OverlappingPartitionGroups {
        /// Index of the offending spec.
        spec: usize,
        /// The node listed twice.
        node: usize,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::NodeOutOfRange { spec, node, clients } => write!(
                f,
                "fault spec {spec}: node {node} out of range (hierarchy has {clients} clients)"
            ),
            FaultPlanError::NoSuchCluster { spec, level, cluster } => write!(
                f,
                "fault spec {spec}: no cluster {cluster} at level {level}"
            ),
            FaultPlanError::ProbabilityOutOfRange { spec, what, value } => write!(
                f,
                "fault spec {spec}: {what} must be in [0, 1), got {value}"
            ),
            FaultPlanError::EmptyWindow { spec, at_round, end_round } => write!(
                f,
                "fault spec {spec}: window end round {end_round} must be after activation round {at_round}"
            ),
            FaultPlanError::BadStragglerFactor { spec, factor } => write!(
                f,
                "fault spec {spec}: straggler factor must be a finite value >= 1, got {factor}"
            ),
            FaultPlanError::EmptyPartitionGroup { spec } => write!(
                f,
                "fault spec {spec}: partition groups must be non-empty"
            ),
            FaultPlanError::OverlappingPartitionGroups { spec, node } => write!(
                f,
                "fault spec {spec}: node {node} appears in more than one partition group"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Hierarchy {
        // 3 levels, clusters of 2, 2 top clusters: 8 clients.
        Hierarchy::ecsm(3, 2, 2)
    }

    #[test]
    fn empty_plan_is_valid() {
        assert_eq!(FaultPlan::new().validate(&h()), Ok(()));
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn full_plan_validates() {
        let plan = FaultPlan::new()
            .crash_stop(5, 0)
            .crash_recover(5, 1, 9)
            .kill_leader(3, 2, 1, Some(7))
            .straggler(0, 2, 4.0, Some(10))
            .loss_burst(2, 0.5, 6)
            .partition(4, vec![vec![0, 1], vec![2, 3]], 8)
            .churn(1, 0.3, None);
        assert_eq!(plan.validate(&h()), Ok(()));
    }

    #[test]
    fn node_bounds_checked() {
        let err = FaultPlan::new().crash_stop(0, 99).validate(&h());
        assert!(matches!(
            err,
            Err(FaultPlanError::NodeOutOfRange { node: 99, .. })
        ));
    }

    #[test]
    fn bad_cluster_rejected() {
        let err = FaultPlan::new().kill_leader(0, 9, 0, None).validate(&h());
        assert!(matches!(
            err,
            Err(FaultPlanError::NoSuchCluster { level: 9, .. })
        ));
    }

    #[test]
    fn probabilities_must_stay_below_one() {
        let err = FaultPlan::new().loss_burst(0, 1.0, 5).validate(&h());
        assert!(matches!(
            err,
            Err(FaultPlanError::ProbabilityOutOfRange { value, .. }) if value == 1.0
        ));
    }

    #[test]
    fn windows_must_be_nonempty() {
        let err = FaultPlan::new().crash_recover(5, 0, 5).validate(&h());
        assert!(matches!(err, Err(FaultPlanError::EmptyWindow { .. })));
    }

    #[test]
    fn straggler_speedups_rejected() {
        let err = FaultPlan::new().straggler(0, 0, 0.5, None).validate(&h());
        assert!(matches!(
            err,
            Err(FaultPlanError::BadStragglerFactor { .. })
        ));
    }

    #[test]
    fn overlapping_groups_rejected() {
        let err = FaultPlan::new()
            .partition(0, vec![vec![0, 1], vec![1, 2]], 4)
            .validate(&h());
        assert!(matches!(
            err,
            Err(FaultPlanError::OverlappingPartitionGroups { node: 1, .. })
        ));
    }

    #[test]
    fn errors_render_readably() {
        let err = FaultPlan::new()
            .crash_stop(0, 99)
            .validate(&h())
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("node 99"), "{msg}");
        assert!(msg.contains("clients"), "{msg}");
    }
}
