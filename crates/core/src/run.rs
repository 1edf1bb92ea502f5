//! The unified run entry point: one options builder in front of the one
//! round engine, on either schedule — the only way to start a run from
//! a config.
//!
//! ```no_run
//! use abd_hfl_core::config::{AttackCfg, HflConfig};
//! use abd_hfl_core::run::{run, RunOptions};
//! use hfl_telemetry::Telemetry;
//!
//! let cfg = HflConfig::quick(AttackCfg::None, 42);
//! // The common case: lockstep schedule, no telemetry.
//! let result = run(&cfg);
//!
//! // Instrumented: same schedule, recording events and a manifest.
//! let (telem, _rec) = Telemetry::recording();
//! let out = RunOptions::new().telemetry(&telem).run(&cfg);
//! assert_eq!(out.manifest().final_accuracy, result.final_accuracy);
//! ```

use hfl_simnet::DelayModel;
use hfl_snapshot::EngineSnapshot;
use hfl_telemetry::{RunManifest, Telemetry};

use crate::config::{AsyncRoundCfg, ConfigError, HflConfig};
use crate::engine::RoundEngine;
use crate::pipeline::{PipelineConfig, PipelineResult};
use crate::runner::{
    resume_prepared_with, run_engine, run_prepared_with, Experiment, InstrumentedRun, ResumeError,
    RunResult,
};

/// Options for one training run: the schedule plus optional telemetry.
#[derive(Clone, Default)]
pub struct RunOptions<'r> {
    /// The pipelined schedule's timing model; `None` is lockstep.
    pipeline: Option<PipelineConfig>,
    telem: Option<&'r Telemetry>,
}

/// What a run produced: the training outcome and its [`RunManifest`],
/// plus the timing decomposition when the schedule was pipelined.
#[derive(Clone, Debug)]
pub struct RunOutput {
    run: InstrumentedRun,
    timing: Option<PipelineResult>,
}

impl RunOutput {
    /// The run's manifest.
    pub fn manifest(&self) -> &RunManifest {
        &self.run.manifest
    }

    /// Test accuracy of the final global model.
    pub fn final_accuracy(&self) -> f64 {
        self.run.result.final_accuracy
    }

    /// The training outcome and manifest, on either schedule.
    pub fn into_sync(self) -> InstrumentedRun {
        self.run
    }

    /// The pipelined schedule's timing decomposition, with the manifest
    /// (label `"pipeline"`).
    ///
    /// # Panics
    /// When the run was lockstep: there is no timing to decompose.
    pub fn into_pipeline(self) -> (PipelineResult, RunManifest) {
        match self.timing {
            Some(timing) => (timing, self.run.manifest),
            None => panic!("run used the lockstep schedule; use into_sync()"),
        }
    }
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
    /// `async_rounds` waits for every quorum on LAN links. The run
    /// executes on the calling thread (see [`RunOptions::try_run`]).
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
        let Some(pcfg) = &self.pipeline else {
            let run = run_prepared_with(&Experiment::try_prepare(cfg)?, telem);
            return Ok(RunOutput { run, timing: None });
        };
        pcfg.try_validate()?;
        if cfg.rounds == 0 {
            return Err(ConfigError::ZeroRounds);
        }
        let mut cfg = cfg.clone();
        cfg.rounds = pcfg.rounds;
        cfg.async_rounds.get_or_insert_with(|| AsyncRoundCfg {
            deadline_us: u64::MAX,
            staleness_bound_us: 0,
            link_delay: DelayModel::lan(),
            tier_deadlines: Vec::new(),
        });
        // On the calling thread alone: a pipelined round is a few
        // milliseconds of host work, and a fork-join that short is as
        // fast as its slower thread — with a second core that is only
        // sometimes free, the same run read anywhere between one
        // thread's speed and 1.7× it. The engine itself is indifferent
        // (`RoundEngine::pipelined` at any thread count, same bytes).
        hfl_parallel::with_threads(1, || {
            let exp = Experiment::try_prepare(&cfg)?;
            let mut engine = RoundEngine::pipelined(&exp, pcfg);
            let run = run_engine(&mut engine, telem);
            let timing = engine.pipeline_result(&run.result);
            Ok(RunOutput { run, timing })
        })
    }
}

/// The common case in one call: lockstep schedule, telemetry disabled.
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
/// `snapshot.round..cfg.rounds` on the lockstep schedule,
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
        // A zero-round pipelined horizon under a valid config is reported
        // the same way.
        let pcfg = PipelineConfig {
            rounds: 0,
            ..PipelineConfig::default()
        };
        let err = RunOptions::pipeline(&pcfg).try_run(&tiny(33)).unwrap_err();
        assert_eq!(err, ConfigError::ZeroRounds);
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
