//! The **pipeline learning workflow** analysis (§III-D, Fig. 2,
//! Eq. 2–3, Table VIII / Appendix E): the efficiency indicator
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
use hfl_faults::FaultPlan;
use hfl_robust::SuspicionConfig;
use hfl_simnet::DelayModel;

use super::{data, lines, mean, ms, pipeline};
use crate::report::pct;
use crate::sweep::{Labels, Repro, Sweep};

pub(super) const REPRO: Repro = Repro {
    name: "efficiency",
    reproduces: "§III-D / Fig. 2 — pipeline efficiency indicator ν",
    csv: Some((
        "efficiency",
        "sweep,flag_or_level,regime,round,sigma_w,sigma,sigma_pg,nu",
    )),
    manifests: Some(Labels::Cell),
    recording: false,
    body,
};

/// Mean of one per-round quantity over the rounds a run measured.
fn per_round(t: &PipelineResult, f: fn(&RoundTiming) -> f64) -> f64 {
    mean(t.rounds.iter().map(f))
}

/// One CSV line per measured round, after the cell's `key` columns.
fn round_lines(key: String, t: &PipelineResult) -> String {
    lines(t.rounds.iter().map(|r| {
        format!(
            "{key},{},{:.6},{:.6},{:.6},{:.6}",
            r.round, r.sigma_w, r.sigma, r.sigma_pg, r.nu
        )
    }))
}

/// Mean σw, mean ν and the round period.
fn columns(t: &PipelineResult) -> [String; 3] {
    [
        ms(per_round(t, |r| r.sigma_w)),
        format!("{:.3}", per_round(t, |r| r.nu)),
        ms(t.mean_period),
    ]
}

fn body(s: &mut Sweep) {
    let rounds = s.args.effective_rounds(8, 3);
    let mut cfg = HflConfig::paper_iid(AttackCfg::None, s.args.seed);
    cfg.data = data(6_400, 1_000);
    cfg.rounds = rounds;
    let flag = cfg.flag_level;

    // --- Sweep 1: flag level (3-level hierarchy: ℓF ∈ {1, 2}) ----------
    s.table(
        "## Flag-level trade-off (Eq. 3): σw vs ν\n",
        &["flag level", "σw", "σ", "ν", "round period"],
    );
    for flag in [1usize, 2] {
        let c = HflConfig {
            flag_level: flag,
            ..cfg.clone()
        };
        s.row([format!("ℓF = {flag}")]);
        s.cell(&format!("flag{flag}"), c, pipeline(rounds), |o| {
            let t = o.timing.as_ref().expect("a pipelined cell");
            let [sigma_w, nu, period] = columns(t);
            let sigma = ms(per_round(t, |r| r.sigma));
            let csv = round_lines(format!("flag,{flag},default"), t);
            (csv, [sigma_w, sigma, nu, period])
        });
    }

    // --- Sweep 2: Table VIII delay regimes ------------------------------
    s.table_unkept(
        "\n## Table VIII — delay regimes (big/small τ′ × τg)\n",
        &["delay regime", "σw", "ν", "round period"],
    );
    let small = DelayModel::Constant { micros: 1_000 };
    let big = DelayModel::Constant { micros: 40_000 };
    for (name, agg_delay, cba_delay_factor) in [
        ("small τ′ – small τg", small.clone(), 2.0),
        ("small τ′ – big τg", small, 80.0),
        ("big τ′ – small τg", big.clone(), 1.0),
        ("big τ′ – big τg", big, 4.0),
    ] {
        let options = RunOptions::pipeline(&PipelineConfig {
            agg_delay,
            cba_delay_factor,
            rounds,
            ..PipelineConfig::default()
        });
        s.row([name]);
        s.cell(name, cfg.clone(), options, |o| {
            let t = o.timing.as_ref().expect("a pipelined cell");
            (round_lines(format!("regime,{flag},{name}"), t), columns(t))
        });
    }

    // --- Sweep 3: Appendix E — leaf-uplink bandwidth -------------------
    // A device's uplink slowdown is a straggler window of the fault
    // plan (the fault layer stretches that device's link draws); pure
    // leaves lead no cluster, so every leader keeps the default link.
    s.table_unkept(
        "\n## Appendix E — leaf-device uplink bandwidth\n",
        &["leaf uplink", "σw", "ν", "round period"],
    );
    let hierarchy = cfg.topology.build(cfg.seed);
    let bottom = hierarchy.level(hierarchy.bottom_level());
    let leaves: Vec<usize> = bottom
        .clusters
        .iter()
        .flat_map(|c| c.members.iter().copied().filter(|&m| m != c.leader()))
        .collect();
    for (name, slowdown) in [
        ("uniform links", None),
        ("leaf uplink 5× slower", Some(5.0)),
        ("leaf uplink 20× slower", Some(20.0)),
    ] {
        let mut c = cfg.clone();
        c.faults = slowdown.map(|factor| {
            leaves.iter().fold(FaultPlan::new(), |plan, &leaf| {
                plan.straggler(0, leaf, factor, None)
            })
        });
        s.row([name]);
        s.cell(name, c, pipeline(rounds), |o| {
            let t = o.timing.as_ref().expect("a pipelined cell");
            (
                round_lines(format!("bandwidth,{flag},{name}"), t),
                columns(t),
            )
        });
    }

    // --- Sweep 4: ν under the layer stack ------------------------------
    // 75 % quorums under a 60 ms deadline, so a missing member costs a
    // buffer time only when the quorum is lost with it. The fault plan
    // crashes one follower per bottom cluster for the middle third of
    // the run and cuts one bottom cluster off for a sixth of it.
    s.table(
        "\n## ν under faults, suspicion and an adaptive adversary\n",
        &[
            "layer stack",
            "σw",
            "ν",
            "round period",
            "final accuracy",
            "quarantines (malicious / honest)",
            "client-rounds sat out",
        ],
    );
    let armed_rounds = s.args.effective_rounds(48, 6);
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
    // Prefix placement: the coalition is clients 0..n/4.
    let coalition = hierarchy.num_clients() / 4;
    for (name, faults, suspicion, attack) in [
        ("clean", false, false, false),
        ("crash + partition plan", true, false, false),
        ("suspicion on", false, true, false),
        ("adaptive ALIE", false, false, true),
        ("suspicion + adaptive ALIE", false, true, true),
        ("all three", true, true, true),
    ] {
        let mut c = base.clone();
        c.faults = faults.then(|| plan.clone());
        c.suspicion = suspicion.then(SuspicionConfig::default);
        if attack {
            c.attack = AttackCfg::Adaptive {
                attack: AdaptiveAttack::alie_default(),
                proportion: 0.25,
                placement: Placement::Prefix,
            };
            c.protocol_attack = Some(ProtocolAttack::Equivocate { flip_scale: 1.0 });
        }
        s.row([name]);
        s.cell(&format!("armed/{name}"), c, pipeline(armed_rounds), |o| {
            let t = o.timing.as_ref().expect("a pipelined cell");
            let quarantines = o.manifest.suspicion.as_ref().map_or((0, 0), |susp| {
                let hit = susp.events.iter().filter(|e| e.kind == "quarantined");
                let (bad, good): (Vec<_>, Vec<_>) = hit.partition(|e| e.client < coalition);
                (bad.len(), good.len())
            });
            let [sigma_w, nu, period] = columns(t);
            let columns = [
                sigma_w,
                nu,
                period,
                pct(t.final_accuracy),
                format!("{} / {}", quarantines.0, quarantines.1),
                o.manifest.totals.absent.to_string(),
            ];
            (round_lines(format!("armed,{flag},{name}"), t), columns)
        });
    }
}
