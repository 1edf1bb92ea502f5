//! The **adaptive arms-race sweep**: final accuracy of ABD-HFL under
//! static vs *adaptive* model-poisoning, with and without the
//! defense-side suspicion/quarantine layer, plus the two protocol-level
//! behaviors (leader equivocation, selective withholding).
//!
//! Grid (25 % malicious, prefix placement, paper IID topology — 64
//! clients in clusters of 4):
//!
//! * aggregator ∈ { Multi-Krum f = 1 m = 3, trimmed-mean 25 % } at every
//!   level;
//! * attack ∈ { ALIE z = 1.5, adaptive ALIE, IPM ε = 0.5, adaptive IPM }
//!   — the adaptive variants bisect their magnitude against the
//!   defense's acceptance feedback each round;
//! * suspicion ∈ { off, on } (defaults: decay 0.8, quarantine 2.2).
//!
//! Two protocol scenarios ride along: `equivocate` (malicious bottom
//! leaders send a flipped partial upward; the echo audit must convict
//! them) and `withhold` at φ = 0.75 with one malicious follower per
//! cluster (members drop their update exactly when the quorum still
//! forms — impossible at φ = 1).
//!
//! The printed summary reports, per aggregator × family, how much more
//! the adaptive attack degrades accuracy than the static one, and what
//! fraction of that gap the suspicion layer recovers.
//!
//! Two invocations with the same `--seed` produce byte-identical
//! manifest logs (`adaptive.manifests.jsonl`) — the determinism contract
//! CI checks by diffing.

use abd_hfl_core::config::{AttackCfg, HflConfig, LevelAgg};
use abd_hfl_core::run::RunOptions;
use abd_hfl_core::runner::RunOutput;
use hfl_attacks::{AdaptiveAttack, ModelAttack, Placement, ProtocolAttack};
use hfl_robust::{AggregatorKind, SuspicionConfig};

use super::paper;
use crate::report::pct;
use crate::sweep::{Labels, Repro, Sweep};

pub(super) const REPRO: Repro = Repro {
    name: "adaptive",
    reproduces: "Adaptive arms race — static vs adaptive attacks × suspicion layer",
    csv: Some((
        "adaptive",
        "aggregator,attack,suspicion,rounds,final_accuracy,quarantined_total,withheld_total",
    )),
    manifests: Some(Labels::AsRun),
    recording: false,
    body,
};

/// Malicious fraction: 16 of 64 clients, so the first 4 bottom clusters
/// (prefix placement) are fully malicious — leaders included, which is
/// what makes the equivocation scenario bite.
const PROPORTION: f64 = 0.25;

const AGGREGATORS: [(&str, AggregatorKind); 2] = [
    ("multikrum", AggregatorKind::MultiKrum { f: 1, m: 3 }),
    ("trimmed", AggregatorKind::TrimmedMean { ratio: 0.25 }),
];

fn attacks() -> [(&'static str, AttackCfg); 4] {
    let place = |attack| AttackCfg::Model {
        attack,
        proportion: PROPORTION,
        placement: Placement::Prefix,
    };
    let adapt = |attack| AttackCfg::Adaptive {
        attack,
        proportion: PROPORTION,
        placement: Placement::Prefix,
    };
    [
        ("alie-static", place(ModelAttack::Alie { z: 1.5 })),
        ("alie-adaptive", adapt(AdaptiveAttack::alie_default())),
        ("ipm-static", place(ModelAttack::Ipm { epsilon: 0.5 })),
        ("ipm-adaptive", adapt(AdaptiveAttack::ipm_default())),
    ]
}

/// The paper's IID setting with `agg` at every level.
fn base_cfg(seed: u64, rounds: usize, agg: &AggregatorKind, attack: AttackCfg) -> HflConfig {
    HflConfig {
        levels: vec![LevelAgg::Bra(agg.clone()); 3],
        ..paper(attack, seed, rounds)
    }
}

/// The CSV line of one run: `<key>,<rounds>,<accuracy>,<quarantined>,<withheld>`.
fn csv(key: String, rounds: usize, o: &RunOutput) -> String {
    let r = &o.result;
    format!(
        "{key},{rounds},{:.4},{},{}",
        r.final_accuracy, r.quarantined_total, r.withheld_total
    )
}

fn body(s: &mut Sweep) {
    let rounds = s.args.effective_rounds(60, 12);
    s.table(
        format!(
            "## Adaptive arms race — attack × aggregator × suspicion \
             ({:.0}% malicious, prefix placement)\n",
            PROPORTION * 100.0
        ),
        &["scenario", "suspicion off", "suspicion on"],
    );
    // label -> final accuracy, for the gap summary.
    let mut acc: Vec<(String, f64)> = Vec::new();
    for (agg_name, agg) in &AGGREGATORS {
        for (atk_name, atk) in attacks() {
            s.row([format!("{agg_name}/{atk_name}")]);
            for suspicion in [false, true] {
                let mut cfg = base_cfg(s.args.seed, rounds, agg, atk.clone());
                cfg.suspicion = suspicion.then(SuspicionConfig::default);
                let susp = if suspicion { "on" } else { "off" };
                let label = format!("{agg_name}/{atk_name}/susp-{susp}");
                s.cell(&label, cfg, RunOptions::new(), |o| {
                    acc.push((label.clone(), o.result.final_accuracy));
                    let key = format!("{agg_name},{atk_name},{susp}");
                    (csv(key, rounds, o), [pct(o.result.final_accuracy)])
                });
            }
        }
    }

    // Protocol-level scenarios, ALIE z = 1.5 under Multi-Krum.
    for proto in ["equivocate", "withhold"] {
        let alie = AttackCfg::Model {
            attack: ModelAttack::Alie { z: 1.5 },
            proportion: PROPORTION,
            placement: Placement::Prefix,
        };
        let mut cfg = base_cfg(s.args.seed, rounds, &AGGREGATORS[0].1, alie);
        if proto == "equivocate" {
            cfg.protocol_attack = Some(ProtocolAttack::Equivocate { flip_scale: 1.0 });
            cfg.suspicion = Some(SuspicionConfig::default());
        } else {
            cfg.protocol_attack = Some(ProtocolAttack::Withhold);
            cfg.quorum = 0.75;
            // One malicious *follower* per 4-cluster (clients 1, 5, 9,
            // …). A fully malicious prefix cluster could never withhold
            // without sinking its own quorum, and spread placement lands
            // on ids 0, 4, 8, … — all leaders, which the pivotal rule
            // also excludes.
            let n = cfg.topology.build(cfg.seed).num_clients();
            cfg.malicious_override = Some((0..n).map(|c| c % 4 == 1).collect());
        }
        let label = format!("proto/{proto}");
        s.row([label.clone()]);
        s.cell(&label, cfg, RunOptions::new(), |o| {
            let (q, w) = (o.result.quarantined_total, o.result.withheld_total);
            let csv = csv(format!("proto,{proto},on"), rounds, o);
            (csv, [pct(o.result.final_accuracy), format!("q={q} w={w}")])
        });
    }

    // Gap summary: adaptive-over-static degradation and suspicion
    // recovery, per aggregator × attack family.
    let get = |label: &str| acc.iter().find(|(l, _)| l == label).map(|(_, a)| *a);
    s.say("\n### Adaptive gap and suspicion recovery\n");
    for (agg_name, _) in &AGGREGATORS {
        for family in ["alie", "ipm"] {
            let (Some(st), Some(ad), Some(ad_susp)) = (
                get(&format!("{agg_name}/{family}-static/susp-off")),
                get(&format!("{agg_name}/{family}-adaptive/susp-off")),
                get(&format!("{agg_name}/{family}-adaptive/susp-on")),
            ) else {
                continue;
            };
            let gap = st - ad;
            let recovered = ad_susp - ad;
            let frac = if gap > 1e-4 {
                format!("{:.0}% of the gap", recovered / gap * 100.0)
            } else {
                "no gap to recover".to_string()
            };
            s.say(format!(
                "- {agg_name}/{family}: static {} → adaptive {} (gap {:+.1} pts); \
                 suspicion recovers {:+.1} pts ({frac})",
                pct(st),
                pct(ad),
                -gap * 100.0,
                recovered * 100.0,
            ));
        }
    }
}
