//! The **fault-tolerance sweep**: final accuracy and availability of
//! ABD-HFL under deterministic crash faults, across crash severity ×
//! quorum fraction φ.
//!
//! Every scenario strikes at round 5 of the paper's IID ECSM topology
//! (64 clients in clusters of 4 with Multi-Krum f = 1): the `none` /
//! `crash-f` / `leader+f` / `crash-2f` plans of `crash_plan`,
//! the last beyond the Multi-Krum assumption.
//!
//! Two invocations with the same `--seed` produce byte-identical
//! manifest logs (`faults.manifests.jsonl`) — the determinism contract
//! CI checks by diffing.

use abd_hfl_core::config::AttackCfg;
use abd_hfl_core::run::RunOptions;

use super::{availability, crash_plan, paper};
use crate::report::pct;
use crate::sweep::{Labels, Repro, Sweep};

pub(super) const REPRO: Repro = Repro {
    name: "faults",
    reproduces: "Fault tolerance — availability/accuracy under crash faults × quorum φ",
    csv: Some((
        "faults",
        "scenario,quorum,rounds,final_accuracy,availability,faulted_total,fault_events",
    )),
    manifests: Some(Labels::AsRun),
    recording: false,
    body,
};

/// The round every scenario's faults strike at.
const CRASH_ROUND: usize = 5;

fn body(s: &mut Sweep) {
    let rounds = s.args.effective_rounds(60, 12);
    s.table(
        format!("## Fault tolerance — crash severity × quorum φ (faults at round {CRASH_ROUND})\n"),
        &[
            "scenario (acc / availability)",
            "φ = 1.0",
            "φ = 0.75",
            "φ = 0.5",
        ],
    );
    for scenario in ["none", "crash-f", "leader+f", "crash-2f"] {
        s.row([scenario]);
        for quorum in [1.0, 0.75, 0.5] {
            let mut cfg = paper(AttackCfg::None, s.args.seed, rounds);
            cfg.quorum = quorum;
            let h = cfg.topology.build(cfg.seed);
            // Under `leader+f` bottom cluster 1's leader dies: its deputy
            // must take over collection for the rest of the run.
            cfg.faults = crash_plan(scenario, &h, CRASH_ROUND, 1);
            let clients = h.num_clients();
            s.cell(
                &format!("{scenario}/phi{quorum}"),
                cfg,
                RunOptions::new(),
                |o| {
                    let (acc, avail) = (o.result.final_accuracy, availability(o, clients, rounds));
                    let (faulted, events) = (o.result.faulted_total, o.manifest.faults.len());
                    let csv = format!(
                        "{scenario},{quorum},{rounds},{acc:.4},{avail:.4},{faulted},{events}"
                    );
                    (csv, [format!("{} / {:.1}%", pct(acc), avail * 100.0)])
                },
            );
        }
    }
}
