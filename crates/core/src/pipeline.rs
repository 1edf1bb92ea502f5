//! The **pipeline learning workflow** (paper §III-D, Fig. 2, Eq. 1–3) as
//! a *schedule* of the round engine, not a second executor.
//!
//! Algorithms 2–6 are the same under both schedules; what the pipeline
//! changes is *when* and *from which model* a device starts training:
//! round `r+1` starts at the arrival of the flag partial model formed at
//! level ℓ_F in round `r`, overlaps with the aggregation still running
//! above ℓ_F, and merges a global model through the correction factor
//! (Eq. 1) whenever one lands mid-training. The engine's
//! round clock (`engine::clock`, DESIGN.md §9) carries every slot's
//! times; this module holds the timing model a pipelined run adds to an
//! [`crate::config::HflConfig`], and the arithmetic that turns the
//! clock's stamps into the quantities of Eq. (2)–(3), per round and per
//! bottom cluster:
//!
//! * `σ_w` — first local model received by the bottom leader → flag
//!   model received (the only time devices actually wait);
//! * `σ` — first local model received → global model received;
//! * `σ_p + σ_g = σ − σ_w` — aggregation time hidden by the pipeline;
//! * `ν = (σ_p + σ_g) / σ` — the efficiency indicator (Eq. 3).
//!
//! Links, collection deadlines, message loss and per-device uplink
//! slowdowns are *not* stated here: they are the config's
//! `async_rounds` (link model, deadlines, τ), fault plan (loss bursts,
//! straggler windows) and `heterogeneity`, which the layer stack reads
//! under either schedule.

use hfl_simnet::DelayModel;

use crate::config::{row, ConfigError};
use crate::runner::RunResult;

/// The timing model of a pipelined run: what the lockstep schedule sets
/// to zero.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Duration of one full local-training phase (T iterations).
    pub train_delay: DelayModel,
    /// Duration of one aggregation (BRA) at a leader.
    pub agg_delay: DelayModel,
    /// Latency multiplier for CBA aggregations (consensus rounds are
    /// slower than a leader-side BRA pass).
    pub cba_delay_factor: f64,
    /// Number of global rounds to run (the pipelined horizon; the
    /// config's own `rounds` is the lockstep one).
    pub rounds: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            train_delay: DelayModel::Uniform {
                lo: 20_000,
                hi: 60_000,
            },
            agg_delay: DelayModel::Constant { micros: 2_000 },
            cba_delay_factor: 4.0,
            rounds: 5,
        }
    }
}

impl PipelineConfig {
    /// Reports the first unusable value instead of letting a delay draw
    /// panic mid-run.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        let (rounds, factor) = (self.rounds, self.cba_delay_factor);
        row(
            "pipeline.rounds",
            "count (>= 1)",
            rounds as f64,
            rounds >= 1,
        )?;
        let at = |section| ConfigError::at(section, None);
        self.train_delay
            .validate()
            .map_err(at("pipeline.train_delay"))?;
        self.agg_delay
            .validate()
            .map_err(at("pipeline.agg_delay"))?;
        row(
            "pipeline.cba_delay_factor",
            "factor (finite, >= 0)",
            factor,
            factor.is_finite() && factor >= 0.0,
        )
    }
}

/// Per-round pipeline measurements, averaged over bottom clusters.
#[derive(Clone, Copy, Debug)]
pub struct RoundTiming {
    /// Global round index.
    pub round: usize,
    /// Mean waiting time σ_w (seconds).
    pub sigma_w: f64,
    /// Mean total time σ (seconds).
    pub sigma: f64,
    /// Mean pipelined time σ_p + σ_g (seconds).
    pub sigma_pg: f64,
    /// Mean efficiency indicator ν = (σ_p + σ_g)/σ.
    pub nu: f64,
}

impl RoundTiming {
    /// Eq. (2)–(3) from the clock's stamps: one `(first local model
    /// received, flag model received, global model received)` triple of
    /// absolute µs per bottom cluster that collected this round. `None`
    /// when no cluster did.
    pub(crate) fn from_stamps(
        round: usize,
        stamps: impl Iterator<Item = (u64, u64, u64)>,
    ) -> Option<Self> {
        let (mut n, mut wait, mut total) = (0u64, 0u64, 0u64);
        for (first, flag, global) in stamps {
            n += 1;
            wait = wait.saturating_add(flag.saturating_sub(first));
            total = total.saturating_add(global.saturating_sub(first));
        }
        if n == 0 {
            return None;
        }
        let sigma_w = wait as f64 / n as f64 / 1e6;
        let sigma = total as f64 / n as f64 / 1e6;
        let sigma_pg = (sigma - sigma_w).max(0.0);
        Some(Self {
            round,
            sigma_w,
            sigma,
            sigma_pg,
            nu: if sigma > 0.0 { sigma_pg / sigma } else { 0.0 },
        })
    }
}

/// What a pipelined run measured on top of its [`RunResult`].
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// Per-round timing decomposition (rounds in which at least one
    /// bottom cluster collected).
    pub rounds: Vec<RoundTiming>,
    /// Total simulated wall-clock: the last global model's last arrival.
    pub sim_time_secs: f64,
    /// Model-bearing messages charged (Algorithms 3–5 accounting).
    pub messages: u64,
    /// Payload bytes charged.
    pub bytes: u64,
    /// Test accuracy of the last global model (training is real).
    pub final_accuracy: f64,
    /// Number of Eq. (1) correction-factor merges applied (a global
    /// model landing while a device was mid-training).
    pub corrections_applied: u64,
    /// Sequential-baseline estimate of one round's duration (seconds):
    /// what a round would cost if devices idled until the global model
    /// returned (σ measured) — compare with the pipelined round period.
    pub mean_sigma: f64,
    /// Mean round period actually achieved by the pipeline (seconds).
    pub mean_period: f64,
}

impl PipelineResult {
    /// Folds the clock's per-round record into the run's summary.
    /// `formed_us[r]` is when round `r`'s global model was formed.
    pub(crate) fn summarize(
        rounds: Vec<RoundTiming>,
        formed_us: &[u64],
        end_us: u64,
        corrections_applied: u64,
        run: &RunResult,
    ) -> Self {
        let mean_sigma = if rounds.is_empty() {
            0.0
        } else {
            rounds.iter().map(|r| r.sigma).sum::<f64>() / rounds.len() as f64
        };
        let mean_period = match formed_us {
            [first, .., last] => {
                last.saturating_sub(*first) as f64 / 1e6 / (formed_us.len() - 1) as f64
            }
            _ => mean_sigma,
        };
        Self {
            rounds,
            sim_time_secs: end_us as f64 / 1e6,
            messages: run.messages,
            bytes: run.bytes,
            final_accuracy: run.final_accuracy,
            corrections_applied,
            mean_sigma,
            mean_period,
        }
    }
}
