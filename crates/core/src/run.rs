//! The unified run entry point: one options builder in front of both
//! drivers — the only way to start a run from a config.
//!
//! ```no_run
//! use abd_hfl_core::config::{AttackCfg, HflConfig};
//! use abd_hfl_core::run::{run, RunOptions};
//! use hfl_telemetry::Telemetry;
//!
//! let cfg = HflConfig::quick(AttackCfg::None, 42);
//! // The common case: synchronous driver, no telemetry.
//! let result = run(&cfg);
//!
//! // Instrumented: same driver, recording events and a manifest.
//! let (telem, _rec) = Telemetry::recording();
//! let out = RunOptions::new().telemetry(&telem).run(&cfg);
//! assert_eq!(out.manifest().final_accuracy, result.final_accuracy);
//! ```

use hfl_snapshot::EngineSnapshot;
use hfl_telemetry::{RunManifest, Telemetry};

use crate::config::{ConfigError, HflConfig};
use crate::pipeline::{PipelineConfig, PipelineResult};
use crate::runner::{
    resume_prepared_with, run_prepared_with, Experiment, InstrumentedRun, ResumeError, RunResult,
};

/// Which driver executes the run.
#[derive(Clone, Debug, Default)]
pub enum Driver {
    /// The synchronous-round reference driver ([`crate::runner`]) —
    /// the paper's own evaluation mode, and the only driver with the
    /// full fault/defense/adversary layer stack.
    #[default]
    Sync,
    /// The asynchronous pipeline driver ([`crate::pipeline`]) under
    /// this timing model — measures the efficiency indicator ν;
    /// arms-race configs degrade to static attacks there.
    Pipeline(PipelineConfig),
}

/// Options for one training run: driver choice plus optional telemetry.
#[derive(Clone, Default)]
pub struct RunOptions<'r> {
    driver: Driver,
    telem: Option<&'r Telemetry>,
}

/// What a run produced: always a [`RunManifest`], plus the
/// driver-specific outcome shape.
#[derive(Clone, Debug)]
pub enum RunOutput {
    /// Outcome of the synchronous driver.
    Sync(InstrumentedRun),
    /// Outcome of the pipeline driver.
    Pipeline {
        /// Timing decomposition and final accuracy.
        result: PipelineResult,
        /// The run's manifest (label `"pipeline"`).
        manifest: RunManifest,
    },
}

impl RunOutput {
    /// The run's manifest, whichever driver produced it.
    pub fn manifest(&self) -> &RunManifest {
        match self {
            RunOutput::Sync(run) => &run.manifest,
            RunOutput::Pipeline { manifest, .. } => manifest,
        }
    }

    /// Test accuracy of the final global model.
    pub fn final_accuracy(&self) -> f64 {
        match self {
            RunOutput::Sync(run) => run.result.final_accuracy,
            RunOutput::Pipeline { result, .. } => result.final_accuracy,
        }
    }

    /// The synchronous outcome.
    ///
    /// # Panics
    /// When the run used [`Driver::Pipeline`].
    pub fn into_sync(self) -> InstrumentedRun {
        match self {
            RunOutput::Sync(run) => run,
            RunOutput::Pipeline { .. } => {
                panic!("run used the pipeline driver; use into_pipeline()")
            }
        }
    }

    /// The pipeline outcome.
    ///
    /// # Panics
    /// When the run used [`Driver::Sync`].
    pub fn into_pipeline(self) -> (PipelineResult, RunManifest) {
        match self {
            RunOutput::Pipeline { result, manifest } => (result, manifest),
            RunOutput::Sync(_) => {
                panic!("run used the synchronous driver; use into_sync()")
            }
        }
    }
}

impl<'r> RunOptions<'r> {
    /// Synchronous driver, telemetry disabled.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Pipeline driver under `pcfg`, telemetry disabled.
    #[must_use]
    pub fn pipeline(pcfg: &PipelineConfig) -> Self {
        Self {
            driver: Driver::Pipeline(pcfg.clone()),
            telem: None,
        }
    }

    /// Selects the driver.
    #[must_use]
    pub fn driver(mut self, driver: Driver) -> Self {
        self.driver = driver;
        self
    }

    /// Attaches a telemetry bundle: structured events, `hfl_*`/`sim_*`
    /// metrics, and a fuller manifest.
    #[must_use]
    pub fn telemetry(mut self, telem: &'r Telemetry) -> Self {
        self.telem = Some(telem);
        self
    }

    /// Executes the run.
    ///
    /// # Panics
    /// On an inconsistent config; [`RunOptions::try_run`] reports
    /// instead.
    pub fn run(&self, cfg: &HflConfig) -> RunOutput {
        match self.try_run(cfg) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`RunOptions::run`] returning the config inconsistency (if any)
    /// instead of panicking.
    pub fn try_run(&self, cfg: &HflConfig) -> Result<RunOutput, ConfigError> {
        let disabled = Telemetry::disabled();
        let telem = self.telem.unwrap_or(&disabled);
        match &self.driver {
            Driver::Sync => {
                let exp = Experiment::try_prepare(cfg)?;
                Ok(RunOutput::Sync(run_prepared_with(&exp, telem)))
            }
            Driver::Pipeline(pcfg) => {
                let (result, manifest) = crate::pipeline::pipeline_run(cfg, pcfg, telem)?;
                Ok(RunOutput::Pipeline { result, manifest })
            }
        }
    }
}

/// The common case in one call: synchronous driver, telemetry disabled.
///
/// # Panics
/// On an inconsistent config; see [`try_run`].
pub fn run(cfg: &HflConfig) -> RunResult {
    RunOptions::new().run(cfg).into_sync().result
}

/// [`run`] returning the config inconsistency (if any) instead of
/// panicking.
pub fn try_run(cfg: &HflConfig) -> Result<RunResult, ConfigError> {
    Ok(RunOptions::new().try_run(cfg)?.into_sync().result)
}

/// Continues a checkpointed run through rounds
/// `snapshot.round..cfg.rounds` on the synchronous driver,
/// byte-identically to straight-through execution of `cfg`. The config
/// must be a horizon-extension of the one the snapshot was captured
/// under (same [`crate::runner::base_config_hash`]; only `rounds` and
/// `eval_every` may differ).
pub fn resume(snapshot: &EngineSnapshot, cfg: &HflConfig) -> Result<RunResult, ResumeError> {
    Ok(resume_with(snapshot, cfg, &Telemetry::disabled())?.result)
}

/// [`resume`] with telemetry: the snapshot's metric accumulators are
/// seeded into the (fresh) bundle's registry, so the final manifest
/// matches a straight-through instrumented run.
pub fn resume_with(
    snapshot: &EngineSnapshot,
    cfg: &HflConfig,
    telem: &Telemetry,
) -> Result<InstrumentedRun, ResumeError> {
    let exp = Experiment::try_prepare(cfg).map_err(|e| ResumeError::ConfigMismatch {
        detail: e.to_string(),
    })?;
    resume_prepared_with(&exp, telem, snapshot)
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
        assert_eq!(try_run(&cfg).unwrap_err(), ConfigError::ZeroRounds);
        let pcfg = PipelineConfig {
            rounds: 1,
            ..PipelineConfig::default()
        };
        let err = RunOptions::pipeline(&pcfg).try_run(&cfg).unwrap_err();
        assert_eq!(err, ConfigError::ZeroRounds);
        // A zero-round pipeline horizon under a valid config is reported
        // the same way, not asserted on inside the driver.
        let pcfg = PipelineConfig {
            rounds: 0,
            ..PipelineConfig::default()
        };
        let err = RunOptions::pipeline(&pcfg).try_run(&tiny(33)).unwrap_err();
        assert_eq!(err, ConfigError::ZeroRounds);
        // Lost deliveries with neither a collection timeout nor φ < 1
        // can never close a collection: reported, not asserted on.
        let lossy = PipelineConfig {
            rounds: 2,
            loss_prob: 0.10,
            ..PipelineConfig::default()
        };
        let err = RunOptions::pipeline(&lossy).try_run(&tiny(33)).unwrap_err();
        assert_eq!(err, ConfigError::PipelineLossNeedsTimeout);
        let mut crashing = tiny(33);
        crashing.faults = Some(hfl_faults::FaultPlan::new().crash_stop(1, 0));
        let pcfg = PipelineConfig {
            rounds: 2,
            ..PipelineConfig::default()
        };
        let err = RunOptions::pipeline(&pcfg).try_run(&crashing).unwrap_err();
        assert_eq!(err, ConfigError::PipelineFaultsNeedTimeout);
    }

    #[test]
    fn instrumented_output_carries_a_manifest() {
        let cfg = tiny(34);
        let (telem, rec) = hfl_telemetry::Telemetry::recording();
        let out = RunOptions::new().telemetry(&telem).run(&cfg);
        assert_eq!(out.manifest().rounds.len(), 3);
        assert!(out.final_accuracy() > 0.0);
        assert!(!rec.events().is_empty());
    }
}
