//! # abd-hfl-core
//!
//! The paper's primary contribution: **A**synchronous **B**yzantine-resistant
//! **D**ecentralized **H**ierarchical **F**ederated **L**earning.
//!
//! * [`config`] — experiment configuration: topology, per-level
//!   aggregation choice (BRA or CBA, Algorithm 3's flexibility), attack
//!   settings, flag level.
//! * [`scheme`] — the four Byzantine-setting combinations of Table III.
//! * [`theory`] — Theorems 1–2, Corollaries 1–3 (ECSM) and Theorem 3
//!   (ACSM) as checked analytic functions.
//! * [`correction`] — the correction factor of Eq. (1).
//! * [`runner`] — experiment preparation, the training step and the
//!   run loop (the paper's own evaluation mode) for ABD-HFL.
//! * [`engine`] — the round engine: one canonical round as explicit
//!   phases, with fault/defense/adversary semantics as pluggable layers
//!   and a round clock for the pipelined schedule.
//! * [`run`] — the entry point for a config ([`run::RunOptions`]): one
//!   engine, two schedules, optional telemetry, one [`RunOutput`].
//! * [`vanilla`] — the vanilla-FL baseline as a config: the one-cluster
//!   star ([`HflConfig::star`]) on the same engine.
//! * [`pipeline`] — the pipeline learning workflow's timing model and
//!   the efficiency indicator ν it measures.
//!
//! Attaching an [`hfl_telemetry::Telemetry`] bundle to a run yields
//! structured events, `hfl_*` metrics and a deterministic
//! [`hfl_telemetry::RunManifest`] (see DESIGN.md §"Telemetry & run
//! manifests").
//!
//! # Example
//!
//! Run the paper's Table V configuration under a 50 % Type I attack:
//!
//! ```no_run
//! use abd_hfl_core::config::{AttackCfg, ConfigError, HflConfig};
//! use abd_hfl_core::run::RunOptions;
//! use hfl_attacks::{DataAttack, Placement};
//!
//! # fn main() -> Result<(), ConfigError> {
//! let cfg = HflConfig::paper_iid(
//!     AttackCfg::Data {
//!         attack: DataAttack::type_i(),
//!         proportion: 0.5,
//!         placement: Placement::Prefix,
//!     },
//!     42,
//! );
//! let result = RunOptions::new().try_run(&cfg)?.result;
//! assert!(result.final_accuracy > 0.85); // vanilla FL sits at ~10 % here
//! # Ok(())
//! # }
//! ```

pub mod config;
pub mod correction;
pub mod engine;
pub mod pipeline;
pub mod run;
pub mod runner;
pub mod scheme;
pub mod theory;
pub mod vanilla;

pub use config::{
    AttackCfg, DataDistribution, HflConfig, LevelAgg, ModelCfg, SamplingCfg, SamplingScheme,
    TopologyCfg,
};
pub use correction::CorrectionPolicy;
pub use run::RunOptions;
pub use runner::{
    base_config_hash, resume_prepared_with, run_prepared_snapshotting, ResumeError, RunOutput,
    RunResult,
};
pub use scheme::Scheme;
