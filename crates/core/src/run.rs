//! The run entry point for a config: one options builder in front of
//! the one round engine, on either schedule. A prepared experiment runs
//! through [`crate::runner::run_prepared_with`] (or
//! [`crate::runner::run_prepared_snapshotting`]), and a checkpoint
//! resumes through [`crate::runner::resume_prepared_with`].
//!
//! ```no_run
//! use abd_hfl_core::config::{AttackCfg, ConfigError, HflConfig};
//! use abd_hfl_core::run::RunOptions;
//! use hfl_telemetry::Telemetry;
//!
//! # fn main() -> Result<(), ConfigError> {
//! let cfg = HflConfig::quick(AttackCfg::None, 42);
//! // Lockstep schedule, no telemetry.
//! let out = RunOptions::new().try_run(&cfg)?;
//!
//! // Instrumented: same schedule, recording events and a manifest.
//! let (telem, _rec) = Telemetry::recording();
//! let recorded = RunOptions::new().telemetry(&telem).try_run(&cfg)?;
//! assert_eq!(recorded.manifest.final_accuracy, out.result.final_accuracy);
//! # Ok(())
//! # }
//! ```

use hfl_simnet::DelayModel;
use hfl_telemetry::Telemetry;

use crate::config::{row, AsyncRoundCfg, ConfigError, HflConfig};
use crate::engine::RoundEngine;
use crate::pipeline::PipelineConfig;
use crate::runner::{run_engine, run_prepared_with, Experiment, RunOutput};

/// Options for one training run: the schedule plus optional telemetry.
#[derive(Clone, Default)]
pub struct RunOptions<'r> {
    /// The pipelined schedule's timing model; `None` is lockstep.
    pipeline: Option<PipelineConfig>,
    telem: Option<&'r Telemetry>,
}

impl<'r> RunOptions<'r> {
    /// Lockstep schedule, telemetry disabled.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pipelined schedule (paper §III-D) under `pcfg`'s timing model,
    /// for `pcfg.rounds` rounds, telemetry disabled. Links, deadlines,
    /// loss and device heterogeneity are the config's own
    /// (`async_rounds`, `faults`, `heterogeneity`); a config without
    /// `async_rounds` waits for every quorum on LAN links.
    #[must_use]
    pub fn pipeline(pcfg: &PipelineConfig) -> Self {
        Self {
            pipeline: Some(pcfg.clone()),
            telem: None,
        }
    }

    /// Attaches a telemetry bundle: structured events, `hfl_*` metrics,
    /// and a fuller manifest.
    #[must_use]
    pub fn telemetry(mut self, telem: &'r Telemetry) -> Self {
        self.telem = Some(telem);
        self
    }

    /// Executes the run, or reports the config inconsistency (a timing
    /// model the pipelined schedule cannot use included).
    pub fn try_run(&self, cfg: &HflConfig) -> Result<RunOutput, ConfigError> {
        let disabled = Telemetry::disabled();
        let telem = self.telem.unwrap_or(&disabled);
        let Some(pcfg) = &self.pipeline else {
            return Ok(run_prepared_with(&Experiment::try_prepare(cfg)?, telem));
        };
        pcfg.try_validate()?;
        row("rounds", "count (>= 1)", cfg.rounds as f64, cfg.rounds >= 1)?;
        let mut cfg = cfg.clone();
        cfg.rounds = pcfg.rounds;
        cfg.async_rounds.get_or_insert_with(|| AsyncRoundCfg {
            deadline_us: u64::MAX,
            staleness_bound_us: 0,
            link_delay: DelayModel::lan(),
            tier_deadlines: Vec::new(),
        });
        let exp = Experiment::try_prepare(&cfg)?;
        Ok(run_engine(RoundEngine::pipelined(&exp, pcfg), telem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AttackCfg;

    fn tiny(seed: u64) -> HflConfig {
        let mut cfg = HflConfig::quick(AttackCfg::None, seed);
        cfg.rounds = 3;
        cfg.eval_every = 3;
        cfg
    }

    #[test]
    fn try_run_reports_bad_configs() {
        let mut cfg = tiny(33);
        cfg.rounds = 0;
        let zero = |field: &str, e: ConfigError| {
            assert!(
                matches!(e, ConfigError::OutOfRange { section, .. } if section == field),
                "{field}: {e}"
            )
        };
        zero("rounds", RunOptions::new().try_run(&cfg).unwrap_err());
        let pcfg = PipelineConfig {
            rounds: 1,
            ..PipelineConfig::default()
        };
        zero(
            "rounds",
            RunOptions::pipeline(&pcfg).try_run(&cfg).unwrap_err(),
        );
        // A zero-round pipelined horizon under a valid config is reported
        // the same way.
        let pcfg = PipelineConfig {
            rounds: 0,
            ..PipelineConfig::default()
        };
        let err = RunOptions::pipeline(&pcfg).try_run(&tiny(33)).unwrap_err();
        zero("pipeline.rounds", err);
    }

    #[test]
    fn instrumented_output_carries_a_manifest() {
        let cfg = tiny(34);
        let (telem, rec) = hfl_telemetry::Telemetry::recording();
        let out = RunOptions::new().telemetry(&telem).try_run(&cfg);
        let out = out.expect("a valid config");
        assert_eq!(out.manifest.rounds.len(), 3);
        assert!(out.result.final_accuracy > 0.0);
        assert!(out.timing.is_none());
        assert!(!rec.events().is_empty());
    }
}
