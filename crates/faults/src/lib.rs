//! # hfl-faults — deterministic fault injection for ABD-HFL
//!
//! The paper's availability claims (Algorithm 4 collects "until quorum
//! *or Timeout*"; §III-D's pipeline exists because leaders and clients
//! fail or straggle) need a systematic way to make things go wrong —
//! reproducibly. This crate provides it in two layers:
//!
//! 1. [`FaultPlan`] — a declarative schedule of faults as plain data:
//!    crash-stop and crash-recover nodes, leader kills, straggler delay
//!    inflation, message-loss bursts, network partitions with heal
//!    times, and churn overrides. Plans validate against a concrete
//!    hierarchy before use.
//! 2. [`FaultInjector`] — the compiled form: per-round queries
//!    (`crashed`, `partitioned`, `burst_loss`, `straggle_factor`,
//!    `churn_leave_prob`, `drop_upload`) that the round engine's fault
//!    layer consults every round — by round index, under either
//!    schedule — plus [`FaultInjector::faults_at`] feeding
//!    the run manifest's fault log.
//!
//! ## Determinism
//!
//! Everything is a pure function of `(plan, hierarchy, seed, round)`.
//! The injector never touches a wall clock or global RNG: burst draws
//! use a SplitMix64 hash of the seed and the message coordinates. Two
//! runs with identical seeds and plans produce byte-identical
//! manifests.

#![warn(missing_docs)]

pub mod injector;
pub mod plan;

pub use injector::{FaultEvent, FaultInjector};
pub use plan::{FaultKind, FaultPlan, FaultPlanError, FaultSpec};
