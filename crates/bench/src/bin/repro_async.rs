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
use abd_hfl_core::runner::{run_prepared_with, Experiment};
use hfl_bench::report::{markdown_table, pct, write_csv_or_exit, write_manifests_or_exit};
use hfl_bench::Args;
use hfl_faults::FaultPlan;
use hfl_ml::synth::SynthConfig;
use hfl_simnet::DelayModel;
use hfl_telemetry::{MetricValue, RunManifest, Telemetry};

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

fn base_cfg(seed: u64) -> HflConfig {
    let mut cfg = HflConfig::paper_iid(AttackCfg::None, seed);
    cfg.data = SynthConfig {
        train_samples: 6_400,
        test_samples: 1_000,
        ..SynthConfig::default()
    };
    cfg
}

fn main() {
    let args = Args::parse();
    let rounds = args.effective_rounds(10, 4);
    let mut csv = Vec::new();

    // ----- 1. Stragglers --------------------------------------------------
    if args.matches("straggler") {
        println!("## Stragglers — collection deadline vs waiting (10 % × 20× tail)\n");
        let straggler_train = DelayModel::Straggler {
            base: Box::new(DelayModel::Uniform {
                lo: 20_000,
                hi: 40_000,
            }),
            p: 0.1,
            factor: 20.0,
        };
        let mut rows = Vec::new();
        for (name, deadline_us) in [
            ("wait for all", None),
            ("deadline 60 ms", Some(60_000)),
            ("deadline 30 ms", Some(30_000)),
        ] {
            let pcfg = PipelineConfig {
                rounds,
                train_delay: straggler_train.clone(),
                ..PipelineConfig::default()
            };
            let mut cfg = base_cfg(args.seed);
            cfg.async_rounds = deadline_us.map(lan_deadline);
            let res = RunOptions::pipeline(&pcfg).run(&cfg).into_pipeline().0;
            rows.push(vec![
                name.to_string(),
                format!("{:.1} ms", res.mean_period * 1e3),
                format!("{:.1}%", res.final_accuracy * 100.0),
            ]);
            csv.push(format!(
                "straggler,{name},{:.6},{:.4}",
                res.mean_period, res.final_accuracy
            ));
            eprintln!("  straggler/{name}: period {:.1} ms", res.mean_period * 1e3);
        }
        println!(
            "{}",
            markdown_table(&["policy", "round period", "final accuracy"], &rows)
        );
    }

    // ----- 2. Message loss -------------------------------------------------
    if args.matches("loss") {
        println!("\n## Unreliable channels — loss with 80 ms deadline\n");
        let mut rows = Vec::new();
        for loss in [0.0, 0.05, 0.15, 0.30] {
            let pcfg = PipelineConfig {
                rounds,
                ..PipelineConfig::default()
            };
            let mut cfg = base_cfg(args.seed + 1);
            cfg.async_rounds = Some(lan_deadline(80_000));
            if loss > 0.0 {
                cfg.faults = Some(FaultPlan::new().loss_burst(0, loss, rounds));
            }
            let res = RunOptions::pipeline(&pcfg).run(&cfg).into_pipeline().0;
            rows.push(vec![
                format!("{:.0}%", loss * 100.0),
                format!("{:.1} ms", res.mean_period * 1e3),
                format!("{:.1}%", res.final_accuracy * 100.0),
                res.rounds.len().to_string(),
            ]);
            csv.push(format!(
                "loss,{loss},{:.6},{:.4}",
                res.mean_period, res.final_accuracy
            ));
            eprintln!("  loss {loss}: acc {:.3}", res.final_accuracy);
        }
        println!(
            "{}",
            markdown_table(
                &["loss", "round period", "final accuracy", "complete rounds"],
                &rows
            )
        );
    }

    // ----- 3. Correction factor ablation ------------------------------------
    if args.matches("correction") {
        // Non-IID clients: training from a flag partial model risks
        // overfitting the local label pair (§III-B's motivation), so the
        // global-model merge is load-bearing here.
        println!("\n## Correction factor (Eq. 1) ablation — non-IID clients\n");
        let mut rows = Vec::new();
        for (name, policy) in [
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
            let mut cfg = HflConfig::paper_noniid(AttackCfg::None, args.seed + 2);
            cfg.data = SynthConfig {
                train_samples: 6_400,
                test_samples: 1_000,
                ..SynthConfig::default()
            };
            cfg.correction = policy;
            // The correction factor matters while the model is moving
            // (staleness costs information); at the plateau every policy
            // converges. Report both phases.
            let early = RunOptions::pipeline(&PipelineConfig {
                rounds: 8,
                ..PipelineConfig::default()
            })
            .run(&cfg)
            .into_pipeline()
            .0;
            let plateau = RunOptions::pipeline(&PipelineConfig {
                rounds: (3 * rounds).max(24),
                ..PipelineConfig::default()
            })
            .run(&cfg)
            .into_pipeline()
            .0;
            rows.push(vec![
                name.to_string(),
                format!("{:.1}%", early.final_accuracy * 100.0),
                format!("{:.1}%", plateau.final_accuracy * 100.0),
            ]);
            csv.push(format!(
                "correction,{name},{:.4},{:.4}",
                early.final_accuracy, plateau.final_accuracy
            ));
            eprintln!(
                "  correction/{name}: early {:.3} plateau {:.3}",
                early.final_accuracy, plateau.final_accuracy
            );
        }
        println!(
            "{}",
            markdown_table(
                &[
                    "correction policy",
                    "early (8 rounds)",
                    "plateau (24+ rounds)"
                ],
                &rows
            )
        );
    }

    // ----- 4. Deadline-driven buffers (engine path, DESIGN.md §12) ----------
    let mut manifests = Vec::new();
    if args.matches("deadline") {
        println!("\n## Deadline buffers — deadline × τ × straggler severity\n");
        let engine_rounds = args.effective_rounds(12, 4);
        let mut rows = Vec::new();
        for (deadline_us, tau_us) in [(2_000u64, 1_000u64), (2_000, 4_000), (6_000, 4_000)] {
            for factor in [1.0f64, 10.0, 100.0] {
                let label = format!("deadline/d{deadline_us}/t{tau_us}/x{factor}");
                if !args.matches(&label) {
                    continue;
                }
                let mut cfg = HflConfig::quick(AttackCfg::None, args.seed + 3);
                cfg.rounds = engine_rounds;
                cfg.eval_every = engine_rounds;
                cfg.async_rounds = Some(AsyncRoundCfg {
                    deadline_us,
                    staleness_bound_us: tau_us,
                    link_delay: DelayModel::Uniform { lo: 500, hi: 5_000 },
                    tier_deadlines: Vec::new(),
                });
                if factor > 1.0 {
                    // One straggler per run: enough to age its cluster's
                    // buffer toward the deadline without starving it.
                    cfg.faults = Some(FaultPlan::new().straggler(0, 1, factor, None));
                }
                let exp = Experiment::prepare(&cfg);
                let (telem, _rec) = Telemetry::recording();
                let run = run_prepared_with(&exp, &telem);
                let quorum_closes = counter(&run.manifest, "hfl_quorum_closes_total");
                let deadline_closes = counter(&run.manifest, "hfl_deadline_closes_total");
                let admitted = counter(&run.manifest, "hfl_stale_admitted_total");
                let dropped = counter(&run.manifest, "hfl_stale_dropped_total");
                eprintln!(
                    "  {label}: acc {} closes {quorum_closes}q/{deadline_closes}d \
                     stale {admitted}+/{dropped}-",
                    pct(run.result.final_accuracy)
                );
                csv.push(format!(
                    "deadline,{deadline_us}/{tau_us}/{factor},{quorum_closes},{:.4}",
                    run.result.final_accuracy
                ));
                rows.push(vec![
                    format!("{} ms", deadline_us as f64 / 1e3),
                    format!("{} ms", tau_us as f64 / 1e3),
                    format!("{factor}×"),
                    pct(run.result.final_accuracy),
                    format!("{quorum_closes} / {deadline_closes}"),
                    format!("{admitted} / {dropped}"),
                ]);
                manifests.push(run.manifest);
            }
        }
        println!(
            "{}",
            markdown_table(
                &[
                    "deadline",
                    "τ",
                    "straggler",
                    "final accuracy",
                    "quorum / deadline closes",
                    "stale admitted / dropped"
                ],
                &rows
            )
        );
    }

    write_csv_or_exit(
        &args.out_dir,
        "async",
        "experiment,setting,period_or_zero,final_accuracy",
        &csv,
    );
    write_manifests_or_exit(&args.out_dir, "async", &manifests);
}
