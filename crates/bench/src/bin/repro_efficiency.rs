//! Reproduces the **pipeline learning workflow** analysis (§III-D,
//! Fig. 2, Eq. 2–3, Table VIII / Appendix E): the efficiency indicator
//! ν = (σp + σg)/σ measured by the round engine's clock under the
//! pipelined schedule, swept over
//! * the flag level ℓ_F,
//! * the four delay regimes of Table VIII (small/big partial-aggregation
//!   delay τ′ × small/big global-aggregation delay τg),
//! * the leaf devices' uplink bandwidth (Appendix E), and
//! * what the paper's analysis leaves out — the layer stack: a crash +
//!   partition fault plan, the suspicion layer, an adaptive ALIE
//!   coalition with equivocating leaders, and all three at once.

use abd_hfl_core::config::{AsyncRoundCfg, AttackCfg, HflConfig};
use abd_hfl_core::pipeline::{PipelineConfig, PipelineResult, RoundTiming};
use abd_hfl_core::run::RunOptions;
use hfl_attacks::{AdaptiveAttack, Placement, ProtocolAttack};
use hfl_bench::report::{markdown_table, pct, write_csv_or_exit, write_manifests_or_exit};
use hfl_bench::Args;
use hfl_faults::FaultPlan;
use hfl_ml::synth::SynthConfig;
use hfl_robust::SuspicionConfig;
use hfl_simnet::DelayModel;

/// Mean of one per-round quantity over the rounds a run measured.
fn mean(res: &PipelineResult, f: fn(&RoundTiming) -> f64) -> f64 {
    res.rounds.iter().map(f).sum::<f64>() / res.rounds.len().max(1) as f64
}

fn main() {
    let args = Args::parse();
    let rounds = args.effective_rounds(8, 3);
    eprintln!("Pipeline efficiency: {rounds} simulated rounds per cell");

    let mut cfg = HflConfig::paper_iid(AttackCfg::None, args.seed);
    cfg.data = SynthConfig {
        train_samples: 6_400,
        test_samples: 1_000,
        ..SynthConfig::default()
    };
    cfg.rounds = rounds;

    // --- Sweep 1: flag level (3-level hierarchy: ℓF ∈ {1, 2}) ----------
    println!("## Flag-level trade-off (Eq. 3): σw vs ν\n");
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut manifests = Vec::new();
    for flag in [1usize, 2] {
        let mut c = cfg.clone();
        c.flag_level = flag;
        let pcfg = PipelineConfig {
            rounds,
            ..PipelineConfig::default()
        };
        let (res, mut manifest) = RunOptions::pipeline(&pcfg).run(&c).into_pipeline();
        manifest.label = format!("efficiency/flag{flag}");
        manifests.push(manifest);
        rows.push(vec![
            format!("ℓF = {flag}"),
            format!("{:.1} ms", mean(&res, |r| r.sigma_w) * 1e3),
            format!("{:.1} ms", mean(&res, |r| r.sigma) * 1e3),
            format!("{:.3}", mean(&res, |r| r.nu)),
            format!("{:.1} ms", res.mean_period * 1e3),
        ]);
        for r in &res.rounds {
            csv.push(format!(
                "flag,{flag},default,{},{:.6},{:.6},{:.6},{:.6}",
                r.round, r.sigma_w, r.sigma, r.sigma_pg, r.nu
            ));
        }
        eprintln!("  flag {flag}: ν = {:.3}", mean(&res, |r| r.nu));
    }
    println!(
        "{}",
        markdown_table(&["flag level", "σw", "σ", "ν", "round period"], &rows)
    );

    // --- Sweep 2: Table VIII delay regimes ------------------------------
    println!("\n## Table VIII — delay regimes (big/small τ′ × τg)\n");
    let small = DelayModel::Constant { micros: 1_000 };
    let big = DelayModel::Constant { micros: 40_000 };
    let mut rows = Vec::new();
    for (name, agg, cba_factor) in [
        ("small τ′ – small τg", small.clone(), 2.0),
        ("small τ′ – big τg", small.clone(), 80.0),
        ("big τ′ – small τg", big.clone(), 1.0),
        ("big τ′ – big τg", big.clone(), 4.0),
    ] {
        if !args.matches(name) {
            continue;
        }
        let pcfg = PipelineConfig {
            agg_delay: agg,
            cba_delay_factor: cba_factor,
            rounds,
            ..PipelineConfig::default()
        };
        let res = RunOptions::pipeline(&pcfg).run(&cfg).into_pipeline().0;
        let (mean_w, mean_nu) = (mean(&res, |r| r.sigma_w), mean(&res, |r| r.nu));
        rows.push(vec![
            name.to_string(),
            format!("{:.1} ms", mean_w * 1e3),
            format!("{:.3}", mean_nu),
            format!("{:.1} ms", res.mean_period * 1e3),
        ]);
        for r in &res.rounds {
            csv.push(format!(
                "regime,{},{name},{},{:.6},{:.6},{:.6},{:.6}",
                cfg.flag_level, r.round, r.sigma_w, r.sigma, r.sigma_pg, r.nu
            ));
        }
        eprintln!("  {name}: ν = {mean_nu:.3}");
    }
    println!(
        "{}",
        markdown_table(&["delay regime", "σw", "ν", "round period"], &rows)
    );

    // --- Sweep 3: Appendix E — leaf-uplink bandwidth -------------------
    // A device's uplink slowdown is a straggler window of the fault
    // plan (the fault layer stretches that device's link draws); pure
    // leaves lead no cluster, so every leader keeps the default link.
    println!("\n## Appendix E — leaf-device uplink bandwidth\n");
    let hierarchy = cfg.topology.build(cfg.seed);
    let bottom = hierarchy.level(hierarchy.bottom_level());
    let leaves: Vec<usize> = bottom
        .clusters
        .iter()
        .flat_map(|c| c.members.iter().copied().filter(|&m| m != c.leader()))
        .collect();
    let mut rows = Vec::new();
    for (name, slowdown) in [
        ("uniform links", None),
        ("leaf uplink 5× slower", Some(5.0)),
        ("leaf uplink 20× slower", Some(20.0)),
    ] {
        if !args.matches(name) {
            continue;
        }
        let mut c = cfg.clone();
        c.faults = slowdown.map(|factor| {
            leaves.iter().fold(FaultPlan::new(), |plan, &leaf| {
                plan.straggler(0, leaf, factor, None)
            })
        });
        let pcfg = PipelineConfig {
            rounds,
            ..PipelineConfig::default()
        };
        let res = RunOptions::pipeline(&pcfg).run(&c).into_pipeline().0;
        let (mean_w, mean_nu) = (mean(&res, |r| r.sigma_w), mean(&res, |r| r.nu));
        rows.push(vec![
            name.to_string(),
            format!("{:.1} ms", mean_w * 1e3),
            format!("{mean_nu:.3}"),
            format!("{:.1} ms", res.mean_period * 1e3),
        ]);
        for r in &res.rounds {
            csv.push(format!(
                "bandwidth,{},{name},{},{:.6},{:.6},{:.6},{:.6}",
                cfg.flag_level, r.round, r.sigma_w, r.sigma, r.sigma_pg, r.nu
            ));
        }
        eprintln!("  bandwidth/{name}: σw {:.1} ms", mean_w * 1e3);
    }
    println!(
        "{}",
        markdown_table(&["leaf uplink", "σw", "ν", "round period"], &rows)
    );

    // --- Sweep 4: ν under the layer stack ------------------------------
    // 75 % quorums under a 60 ms deadline, so a missing member costs a
    // buffer time only when the quorum is lost with it. The fault plan
    // crashes one follower per bottom cluster for the middle third of
    // the run and cuts one bottom cluster off for a sixth of it.
    println!("\n## ν under faults, suspicion and an adaptive adversary\n");
    let armed_rounds = args.effective_rounds(48, 6);
    let mut base = cfg.clone();
    base.rounds = armed_rounds;
    base.quorum = 0.75;
    base.async_rounds = Some(AsyncRoundCfg {
        deadline_us: 60_000,
        staleness_bound_us: 10_000,
        link_delay: DelayModel::lan(),
        tier_deadlines: Vec::new(),
    });
    let third = armed_rounds / 3;
    let plan = bottom
        .clusters
        .iter()
        .fold(FaultPlan::new(), |plan, c| {
            plan.crash_recover(third, c.members[1], 2 * third)
        })
        .partition(
            third,
            vec![bottom.clusters[bottom.clusters.len() - 1].members.clone()],
            third + third / 2 + 1,
        );
    let adaptive = AttackCfg::Adaptive {
        attack: AdaptiveAttack::alie_default(),
        proportion: 0.25,
        placement: Placement::Prefix,
    };
    let mut rows = Vec::new();
    for (name, faults, suspicion, attack) in [
        ("clean", false, false, false),
        ("crash + partition plan", true, false, false),
        ("suspicion on", false, true, false),
        ("adaptive ALIE", false, false, true),
        ("suspicion + adaptive ALIE", false, true, true),
        ("all three", true, true, true),
    ] {
        if !args.matches(&format!("armed/{name}")) {
            continue;
        }
        let mut c = base.clone();
        c.faults = faults.then(|| plan.clone());
        c.suspicion = suspicion.then(SuspicionConfig::default);
        if attack {
            c.attack = adaptive.clone();
            c.protocol_attack = Some(ProtocolAttack::Equivocate { flip_scale: 1.0 });
        }
        let pcfg = PipelineConfig {
            rounds: armed_rounds,
            ..PipelineConfig::default()
        };
        let (res, mut manifest) = RunOptions::pipeline(&pcfg).run(&c).into_pipeline();
        let (mean_w, mean_nu) = (mean(&res, |r| r.sigma_w), mean(&res, |r| r.nu));
        // Prefix placement: the coalition is clients 0..n/4.
        let quarantines = manifest.suspicion.as_ref().map_or((0, 0), |s| {
            let hit = s.events.iter().filter(|e| e.kind == "quarantined");
            let (bad, good): (Vec<_>, Vec<_>) =
                hit.partition(|e| e.client < hierarchy.num_clients() / 4);
            (bad.len(), good.len())
        });
        rows.push(vec![
            name.to_string(),
            format!("{:.1} ms", mean_w * 1e3),
            format!("{mean_nu:.3}"),
            format!("{:.1} ms", res.mean_period * 1e3),
            pct(res.final_accuracy),
            format!("{} / {}", quarantines.0, quarantines.1),
            manifest.totals.absent.to_string(),
        ]);
        for r in &res.rounds {
            csv.push(format!(
                "armed,{},{name},{},{:.6},{:.6},{:.6},{:.6}",
                c.flag_level, r.round, r.sigma_w, r.sigma, r.sigma_pg, r.nu
            ));
        }
        eprintln!(
            "  armed/{name}: ν = {mean_nu:.3}, acc {}",
            pct(res.final_accuracy)
        );
        manifest.label = format!("efficiency/armed/{name}");
        manifests.push(manifest);
    }
    println!(
        "{}",
        markdown_table(
            &[
                "layer stack",
                "σw",
                "ν",
                "round period",
                "final accuracy",
                "quarantines (malicious / honest)",
                "client-rounds sat out"
            ],
            &rows
        )
    );

    write_csv_or_exit(
        &args.out_dir,
        "efficiency",
        "sweep,flag_or_level,regime,round,sigma_w,sigma,sigma_pg,nu",
        &csv,
    );
    write_manifests_or_exit(&args.out_dir, "efficiency", &manifests);
}
