//! Asynchrony stress experiments — 1–3 on the pipelined schedule of the
//! round engine, 4 on the lockstep one:
//!
//! 1. **Straggler mitigation** — heavy-tailed training times with and
//!    without a collection deadline (Algorithm 4's "or Timeout").
//! 2. **Unreliable channels** — a loss burst of the fault plan over the
//!    whole run, under an 80 ms deadline.
//! 3. **Correction factor** — Eq. (1) ablation: merging the late global
//!    model with the policy α vs ignoring it (α→α_min) vs adopting it
//!    outright (α = α_max ceiling raised), measured by final accuracy.
//! 4. **Deadline-driven buffers** (DESIGN.md §12) — the round engine's
//!    quorum-or-deadline collection grid: deadline × staleness bound τ
//!    × straggler severity, reporting close causes, τ-window admissions
//!    and drops, and final accuracy. Two invocations with the same
//!    `--seed` produce byte-identical manifest logs
//!    (`async.manifests.jsonl`) — the determinism contract CI diffs.

use abd_hfl_core::config::{AsyncRoundCfg, AttackCfg, HflConfig};
use abd_hfl_core::correction::CorrectionPolicy;
use abd_hfl_core::pipeline::PipelineConfig;
use abd_hfl_core::run::RunOptions;
use hfl_faults::FaultPlan;
use hfl_simnet::DelayModel;
use hfl_telemetry::{MetricValue, RunManifest};

use super::{data, ms, pipeline};
use crate::report::pct;
use crate::sweep::{Labels, Repro, Sweep};

pub(super) const REPRO: Repro = Repro {
    name: "async",
    reproduces: "Stragglers, lossy channels, Eq. (1) correction, deadline buffers",
    csv: Some(("async", "experiment,setting,period_or_zero,final_accuracy")),
    manifests: Some(Labels::AsRun),
    recording: true,
    body,
};

/// Reads one counter out of a manifest's metric export (0 when the
/// counter was never touched — the registry only exports live rows).
fn counter(manifest: &RunManifest, name: &str) -> u64 {
    manifest
        .metrics
        .iter()
        .find_map(|s| match (&s.value, s.name.as_str()) {
            (MetricValue::Counter(v), n) if n == name => Some(*v),
            _ => None,
        })
        .unwrap_or(0)
}

/// LAN links under a collection deadline; late arrivals are dropped.
fn lan_deadline(deadline_us: u64) -> AsyncRoundCfg {
    AsyncRoundCfg {
        deadline_us,
        staleness_bound_us: 0,
        link_delay: DelayModel::lan(),
        tier_deadlines: Vec::new(),
    }
}

fn body(s: &mut Sweep) {
    let rounds = s.args.effective_rounds(10, 4);
    let seed = s.args.seed;
    let base = |seed| HflConfig {
        data: data(6_400, 1_000),
        ..HflConfig::paper_iid(AttackCfg::None, seed)
    };

    // ----- 1. Stragglers --------------------------------------------------
    s.table_unkept(
        "## Stragglers — collection deadline vs waiting (10 % × 20× tail)\n",
        &["policy", "round period", "final accuracy"],
    );
    let straggler_train = DelayModel::Straggler {
        base: Box::new(DelayModel::Uniform {
            lo: 20_000,
            hi: 40_000,
        }),
        p: 0.1,
        factor: 20.0,
    };
    for (name, deadline_us) in [
        ("wait for all", None),
        ("deadline 60 ms", Some(60_000)),
        ("deadline 30 ms", Some(30_000)),
    ] {
        let cfg = HflConfig {
            async_rounds: deadline_us.map(lan_deadline),
            ..base(seed)
        };
        s.row([name]);
        let options = RunOptions::pipeline(&PipelineConfig {
            rounds,
            train_delay: straggler_train.clone(),
            ..PipelineConfig::default()
        });
        s.cell(&format!("straggler/{name}"), cfg, options, |o| {
            let t = o.timing.as_ref().expect("a pipelined cell");
            let csv = format!(
                "straggler,{name},{:.6},{:.4}",
                t.mean_period, t.final_accuracy
            );
            (csv, [ms(t.mean_period), pct(t.final_accuracy)])
        });
    }

    // ----- 2. Message loss -------------------------------------------------
    s.table_unkept(
        "\n## Unreliable channels — loss with 80 ms deadline\n",
        &["loss", "round period", "final accuracy", "complete rounds"],
    );
    for loss in [0.0, 0.05, 0.15, 0.30] {
        let cfg = HflConfig {
            async_rounds: Some(lan_deadline(80_000)),
            faults: (loss > 0.0).then(|| FaultPlan::new().loss_burst(0, loss, rounds)),
            ..base(seed + 1)
        };
        s.row([format!("{:.0}%", loss * 100.0)]);
        s.cell(&format!("loss/{loss}"), cfg, pipeline(rounds), |o| {
            let t = o.timing.as_ref().expect("a pipelined cell");
            let csv = format!("loss,{loss},{:.6},{:.4}", t.mean_period, t.final_accuracy);
            let complete = t.rounds.len().to_string();
            (csv, [ms(t.mean_period), pct(t.final_accuracy), complete])
        });
    }

    // ----- 3. Correction factor ablation ------------------------------------
    // Non-IID clients: training from a flag partial model risks
    // overfitting the local label pair (§III-B's motivation), so the
    // global-model merge is load-bearing here. The correction factor
    // matters while the model is moving (staleness costs information);
    // at the plateau every policy converges, so both phases are run.
    s.table_unkept(
        "\n## Correction factor (Eq. 1) ablation — non-IID clients\n",
        &[
            "correction policy",
            "early (8 rounds)",
            "plateau (24+ rounds)",
        ],
    );
    for (name, correction) in [
        (
            "paper policy (latency + coverage)",
            CorrectionPolicy::default(),
        ),
        (
            "ignore global (α ≈ 0)",
            CorrectionPolicy {
                alpha_max: 0.01,
                alpha_min: 0.01,
                latency_half_life: 10.0,
            },
        ),
        (
            "adopt global outright (α ≈ 1)",
            CorrectionPolicy {
                alpha_max: 1.0,
                alpha_min: 0.99,
                latency_half_life: 1e9,
            },
        ),
    ] {
        let cfg = HflConfig {
            data: data(6_400, 1_000),
            correction,
            ..HflConfig::paper_noniid(AttackCfg::None, seed + 2)
        };
        let runs = [8, (3 * rounds).max(24)].map(|horizon| (cfg.clone(), pipeline(horizon)));
        s.row([name]);
        s.repeated(&format!("correction/{name}"), runs.into(), |o| {
            let (early, plateau) = (o[0].result.final_accuracy, o[1].result.final_accuracy);
            let csv = format!("correction,{name},{early:.4},{plateau:.4}");
            (csv, [pct(early), pct(plateau)])
        });
    }

    // ----- 4. Deadline-driven buffers (engine path, DESIGN.md §12) ----------
    s.table(
        "\n## Deadline buffers — deadline × τ × straggler severity\n",
        &[
            "deadline",
            "τ",
            "straggler",
            "final accuracy",
            "quorum / deadline closes",
            "stale admitted / dropped",
        ],
    );
    let engine_rounds = s.args.effective_rounds(12, 4);
    for (deadline_us, tau_us) in [(2_000u64, 1_000u64), (2_000, 4_000), (6_000, 4_000)] {
        for factor in [1.0f64, 10.0, 100.0] {
            let mut cfg = HflConfig::quick(AttackCfg::None, seed + 3);
            cfg.rounds = engine_rounds;
            cfg.eval_every = engine_rounds;
            cfg.async_rounds = Some(AsyncRoundCfg {
                deadline_us,
                staleness_bound_us: tau_us,
                link_delay: DelayModel::Uniform { lo: 500, hi: 5_000 },
                tier_deadlines: Vec::new(),
            });
            // One straggler per run: enough to age its cluster's buffer
            // toward the deadline without starving it.
            cfg.faults = (factor > 1.0).then(|| FaultPlan::new().straggler(0, 1, factor, None));
            s.row([
                format!("{} ms", deadline_us as f64 / 1e3),
                format!("{} ms", tau_us as f64 / 1e3),
                format!("{factor}×"),
            ]);
            let label = format!("deadline/d{deadline_us}/t{tau_us}/x{factor}");
            s.cell(&label, cfg, RunOptions::new(), |o| {
                let m = &o.manifest;
                let quorum_closes = counter(m, "hfl_quorum_closes_total");
                let deadline_closes = counter(m, "hfl_deadline_closes_total");
                let admitted = counter(m, "hfl_stale_admitted_total");
                let dropped = counter(m, "hfl_stale_dropped_total");
                let setting = format!("{deadline_us}/{tau_us}/{factor}");
                let acc = o.result.final_accuracy;
                let csv = format!("deadline,{setting},{quorum_closes},{acc:.4}");
                let columns = [
                    pct(acc),
                    format!("{quorum_closes} / {deadline_closes}"),
                    format!("{admitted} / {dropped}"),
                ];
                (csv, columns)
            });
        }
    }
}
