//! Divergence search: given two runs that should agree, find the first
//! round where they stop agreeing.
//!
//! Works over [`RunManifest`]s (per-round records, fault log, suspicion
//! log) with a scan from round 0. A round's record holds only counts and
//! an optional accuracy, so two runs that differed at round `k` can
//! agree again later: no prefix predicate is monotone, and only a scan
//! names the first divergent round.

use hfl_telemetry::RunManifest;

/// The first point where two runs disagree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// 0-based engine round of the first disagreement. When the
    /// per-round logs agree entirely (component `totals`, `metrics`,
    /// `final_accuracy` or `header`), this is the round count.
    pub round: usize,
    /// Which part of the round log disagrees first:
    /// `round_record` / `faults` / `suspicion` / `missing_round` for
    /// in-round divergence, else `totals` / `final_accuracy` /
    /// `metrics` / `header`.
    pub component: &'static str,
    /// Rendering of the disagreeing piece in run A.
    pub a: String,
    /// Rendering of the disagreeing piece in run B.
    pub b: String,
}

/// Scans two manifests for their first divergent round.
///
/// Returns `None` when the manifests describe byte-identical runs.
pub fn first_divergence(a: &RunManifest, b: &RunManifest) -> Option<Divergence> {
    let rounds = a.rounds.len().max(b.rounds.len());
    let first = (0..rounds)
        .map(|r| (r, round_view(a, r), round_view(b, r)))
        .find(|(_, va, vb)| va != vb);
    if let Some((round, va, vb)) = first {
        for (component, ra, rb) in [
            ("round_record", &va.record, &vb.record),
            ("faults", &va.faults, &vb.faults),
            ("suspicion", &va.suspicion, &vb.suspicion),
        ] {
            if ra != rb {
                return Some(Divergence {
                    round,
                    component,
                    a: ra.clone(),
                    b: rb.clone(),
                });
            }
        }
        // Unreachable by construction, but keep the tool honest.
        return Some(Divergence {
            round,
            component: "missing_round",
            a: format!("{va:?}"),
            b: format!("{vb:?}"),
        });
    }
    let round = rounds;
    let tail: [(&'static str, String, String); 4] = [
        (
            "totals",
            format!("{:?}", a.totals),
            format!("{:?}", b.totals),
        ),
        (
            "final_accuracy",
            format!("{:?}", a.final_accuracy.to_bits()),
            format!("{:?}", b.final_accuracy.to_bits()),
        ),
        (
            "metrics",
            format!("{:?}", a.metrics),
            format!("{:?}", b.metrics),
        ),
        (
            "header",
            format!(
                "schema={} label={} seed={} config_hash={}",
                a.schema, a.label, a.seed, a.config_hash
            ),
            format!(
                "schema={} label={} seed={} config_hash={}",
                b.schema, b.label, b.seed, b.config_hash
            ),
        ),
    ];
    for (component, ra, rb) in tail {
        if ra != rb {
            return Some(Divergence {
                round,
                component,
                a: ra,
                b: rb,
            });
        }
    }
    None
}

/// Everything one manifest says about engine round `r` (its 1-based
/// record plus fault/suspicion entries), rendered for comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
struct RoundView {
    record: String,
    faults: String,
    suspicion: String,
}

fn round_view(m: &RunManifest, r: usize) -> RoundView {
    RoundView {
        record: m
            .rounds
            .iter()
            .find(|rec| rec.round == r + 1)
            .map_or_else(|| "<missing>".into(), |rec| format!("{rec:?}")),
        faults: m
            .faults
            .iter()
            .filter(|f| f.round == r)
            .map(|f| format!("{f:?}\n"))
            .collect(),
        suspicion: m
            .suspicion
            .as_ref()
            .map(|s| {
                s.events
                    .iter()
                    .filter(|e| e.round == r)
                    .map(|e| format!("{e:?}\n"))
                    .collect()
            })
            .unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfl_telemetry::{RoundRecord, RunManifest};

    fn manifest(rounds: usize, skew_from: Option<usize>) -> RunManifest {
        let mut m = RunManifest::new("test", 7, "cfg".to_string());
        for r in 0..rounds {
            let skew = skew_from.is_some_and(|s| r >= s) as u64;
            m.rounds.push(RoundRecord {
                round: r + 1,
                accuracy: None,
                messages: 100 + skew,
                bytes: 1_000,
                excluded: 0,
                absent: 0,
            });
            m.totals.messages += 100 + skew;
            m.totals.bytes += 1_000;
        }
        m
    }

    #[test]
    fn identical_manifests_have_no_divergence() {
        let a = manifest(8, None);
        let b = manifest(8, None);
        assert_eq!(first_divergence(&a, &b), None);
    }

    #[test]
    fn finds_the_first_divergent_round_with_log_probes() {
        let a = manifest(16, None);
        let b = manifest(16, Some(5));
        let d = first_divergence(&a, &b).unwrap();
        assert_eq!(d.round, 5);
        assert_eq!(d.component, "round_record");
    }

    /// Runs that differ in one round and agree again afterwards: the
    /// first divergent round is still the one reported, not the totals.
    #[test]
    fn a_divergence_the_last_round_no_longer_shows_is_found() {
        let a = manifest(8, None);
        let mut b = manifest(8, None);
        b.rounds[2].messages += 1;
        b.totals.messages += 1;
        let d = first_divergence(&a, &b).unwrap();
        assert_eq!((d.round, d.component), (2, "round_record"));
    }

    #[test]
    fn totals_only_divergence_is_reported_past_the_last_round() {
        let a = manifest(4, None);
        let mut b = manifest(4, None);
        b.totals.messages += 17;
        let d = first_divergence(&a, &b).unwrap();
        assert_eq!((d.round, d.component), (4, "totals"));
    }

    #[test]
    fn length_mismatch_diverges_at_the_missing_round() {
        let a = manifest(6, None);
        let b = manifest(4, None);
        let d = first_divergence(&a, &b).unwrap();
        assert_eq!(d.round, 4);
        assert_eq!(d.component, "round_record");
        assert_eq!(d.b, "<missing>");
    }
}
