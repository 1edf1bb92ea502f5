//! The **combined-stress sweep**: the adaptive arms race (adaptive ALIE
//! poisoning + suspicion/quarantine defense, leader equivocation)
//! running *concurrently* with injected infrastructure faults — the
//! composition the `RoundEngine` layer stack makes legal.
//!
//! Grid (25 % malicious, prefix placement, paper IID ECSM topology — 64
//! clients in clusters of 4, Multi-Krum f = 1 m = 3 at every level):
//! the `none` / `crash-f` / `leader+f` / `partition` plans of
//! `crash_plan` at round 5 × suspicion ∈ {off, on} (defaults:
//! decay 0.8, quarantine 2.2).
//!
//! Every cell runs the adaptive ALIE attack plus equivocating malicious
//! leaders, so the defense must convict equivocators and quarantine
//! poisoners *while* the fault layer is promoting deputies and riding
//! out partitions. Two invocations with the same `--seed` produce
//! byte-identical manifest logs (`combined.manifests.jsonl`) — the
//! determinism contract CI checks by diffing.

use abd_hfl_core::config::{AttackCfg, LevelAgg};
use abd_hfl_core::run::RunOptions;
use hfl_attacks::{AdaptiveAttack, Placement, ProtocolAttack};
use hfl_robust::{AggregatorKind, SuspicionConfig};

use super::{availability, crash_plan, paper};
use crate::report::pct;
use crate::sweep::{Labels, Repro, Sweep};

pub(super) const REPRO: Repro = Repro {
    name: "combined",
    reproduces: "Arms race and infrastructure faults at once",
    csv: Some((
        "combined",
        "scenario,suspicion,rounds,final_accuracy,availability,faulted_total,quarantined_total",
    )),
    manifests: Some(Labels::AsRun),
    recording: false,
    body,
};

/// Malicious fraction: 16 of 64 clients — the first 4 bottom clusters
/// under prefix placement, leaders included (so equivocation bites).
const PROPORTION: f64 = 0.25;

/// The round every scenario's faults strike at.
const FAULT_ROUND: usize = 5;

fn body(s: &mut Sweep) {
    let rounds = s.args.effective_rounds(60, 12);
    s.table(
        format!(
            "## Combined stress — faults × suspicion under adaptive ALIE + equivocation \
             ({:.0}% malicious, faults at round {FAULT_ROUND})\n",
            PROPORTION * 100.0
        ),
        &[
            "fault scenario (acc / availability)",
            "suspicion off",
            "suspicion on",
        ],
    );
    for scenario in ["none", "crash-f", "leader+f", "partition"] {
        s.row([scenario]);
        for suspicion in [false, true] {
            let attack = AttackCfg::Adaptive {
                attack: AdaptiveAttack::alie_default(),
                proportion: PROPORTION,
                placement: Placement::Prefix,
            };
            let mut cfg = paper(attack, s.args.seed, rounds);
            cfg.levels = vec![LevelAgg::Bra(AggregatorKind::MultiKrum { f: 1, m: 3 }); 3];
            cfg.protocol_attack = Some(ProtocolAttack::Equivocate { flip_scale: 1.0 });
            cfg.suspicion = suspicion.then(SuspicionConfig::default);
            let h = cfg.topology.build(cfg.seed);
            // The last bottom cluster (honest under prefix placement)
            // loses its leader: the deputy takes over while the
            // suspicion layer is busy convicting equivocators.
            let last = h.level(h.bottom_level()).clusters.len() - 1;
            cfg.faults = crash_plan(scenario, &h, FAULT_ROUND, last);
            let clients = h.num_clients();
            let susp = if suspicion { "on" } else { "off" };
            s.cell(
                &format!("{scenario}/susp-{susp}"),
                cfg,
                RunOptions::new(),
                |o| {
                    let avail = availability(o, clients, rounds);
                    let r = &o.result;
                    let csv = format!(
                        "{scenario},{susp},{rounds},{:.4},{avail:.4},{},{}",
                        r.final_accuracy, r.faulted_total, r.quarantined_total
                    );
                    (
                        csv,
                        [format!("{} / {:.1}%", pct(r.final_accuracy), avail * 100.0)],
                    )
                },
            );
        }
    }
}
