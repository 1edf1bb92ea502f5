//! Aggregator evidence: after a rule has run over a cluster's updates,
//! which inputs did it *accept* (actually use in the aggregate) and
//! which does it consider suspicious enough to strike?
//!
//! The two signals are deliberately decoupled:
//!
//! * **Acceptance** is the public feedback an adaptive adversary can
//!   observe (its update visibly moved, or failed to move, the
//!   aggregate). It answers "was I inside the acceptance region this
//!   round?".
//! * **Strikes** feed the suspicion tracker and are persistence-
//!   oriented: only the most extreme inputs of a round are struck, so a
//!   client must be the outlier *repeatedly* to cross the quarantine
//!   threshold. An adaptive attacker pinned at the edge of acceptance
//!   still ranks worst round after round and accrues strikes, while an
//!   honest client is only occasionally the worst — that asymmetry is
//!   what lets the defense win the arms race without a single-round
//!   oracle.
//!
//! Rank alone is relative, though: in a homogeneous cluster *somebody*
//! is always ranked worst, and with deterministic shards the same
//! honest client can be rank-worst every round. Every family therefore
//! gates its strikes on the worst input actually *separating* from the
//! cohort (the scenario fuzzer's honest-quarantine oracle,
//! `hfl-oracle`, is what caught the ungated Krum path quarantining
//! honest clients under the default suspicion config).
//!
//! Per rule family:
//!
//! | Rule | Acceptance | Strike evidence |
//! |---|---|---|
//! | Krum / Multi-Krum | selected set membership | worst score rank 1.0, runner-up 0.5 (when score > 4 × median score) |
//! | Trimmed mean | trimmed-coordinate fraction < 0.75 | most-trimmed input 1.0, runner-up 0.5 (when > 1.5 × expected clip fraction) |
//! | Median / GeoMed / others | residual ≤ 1.5 × median residual | worst residual 1.0, runner-up 0.5 (when > 2 × median) |
//! | FedAvg | everything | none (no robustness signal) |

use crate::trimmed_mean::TrimmedMean;
use crate::{AggScratch, AggregatorKind};

/// Strike weight for the single most suspicious input of a round.
pub const STRIKE_WORST: f64 = 1.0;
/// Strike weight for the runner-up (only assigned when n ≥ 4, so small
/// clusters don't strike half their membership every round).
pub const STRIKE_RUNNER_UP: f64 = 0.5;
/// Krum-family strike gate: an input is struck only when its Krum
/// score exceeds this multiple of the cohort's median score. Scores
/// are summed *squared* distances, so 4 corresponds to a 2× separation
/// in distance units — the same margin `judge_by_residual` uses.
pub const KRUM_STRIKE_GATE: f64 = 4.0;

/// Per-input verdicts of one aggregation instance.
#[derive(Clone, Debug, PartialEq)]
pub struct Acceptance {
    /// `accepted[i]`: input `i` was used by the rule.
    pub accepted: Vec<bool>,
    /// `strikes[i]`: suspicion evidence weight for input `i` (0 for
    /// unremarkable inputs).
    pub strikes: Vec<f64>,
}

impl Acceptance {
    fn all_accepted(n: usize) -> Self {
        Self {
            accepted: vec![true; n],
            strikes: vec![0.0; n],
        }
    }
}

/// Judges one cluster's `updates` from the aggregation that just ran
/// over them: `aggregate` is what `kind`'s rule produced for exactly
/// these inputs and `scratch` the [`AggScratch`] it ran in. Nothing is
/// recomputed — Krum and Multi-Krum read the scores (and the selection)
/// the rule left in `scratch`, the residual family measures against
/// `aggregate`; trimmed mean and NNM, whose evidence is not a
/// by-product of the aggregate, run their own transforms. With fewer
/// than three inputs there is no meaningful outlier structure:
/// everything is accepted and nothing is struck.
pub fn judge_aggregated(
    kind: &AggregatorKind,
    updates: &[&[f32]],
    aggregate: &[f32],
    scratch: &AggScratch,
) -> Acceptance {
    let n = updates.len();
    if n < 3 {
        return Acceptance::all_accepted(n);
    }
    match kind {
        AggregatorKind::FedAvg => Acceptance::all_accepted(n),
        AggregatorKind::Krum { .. } | AggregatorKind::MultiKrum { .. } => {
            let scores = &scratch.scores;
            assert_eq!(scores.len(), n, "scratch is not this aggregation's");
            let multi = matches!(kind, AggregatorKind::MultiKrum { .. });
            let keep = if multi { scratch.idx.len() } else { 1 };
            let mut acc = judge_by_scores(scores, keep);
            gate_krum_strikes(&mut acc, scores);
            if multi {
                // Membership of the actual selection is the ground truth
                // for acceptance (scores only order; `m` decides the cut).
                acc.accepted = vec![false; n];
                for &i in &scratch.idx {
                    acc.accepted[i] = true;
                }
            }
            acc
        }
        AggregatorKind::TrimmedMean { ratio } => judge_trimmed(updates, *ratio),
        // NNM preserves index correspondence (mixed[i] derives from
        // input i), so the base rule's own evidence runs on the mixed
        // cohort and its verdicts map straight back to the inputs.
        AggregatorKind::Nnm { k, inner } => {
            let mixed = crate::PreAggregation::Nnm { k: *k }.transform(updates);
            let refs: Vec<&[f32]> = mixed.iter().map(|v| v.as_slice()).collect();
            let mut acc = judge(inner, &refs);
            // Mixing compresses the cohort, so the inner rule's
            // *relative* strike gates run on much smaller residuals and
            // can nominate an honest straggler in a non-IID cluster
            // (found by the honest-quarantine oracle). Keep a strike
            // only when the input also separates in the unmixed cohort:
            // a real outlier does, an honest client does not.
            let raw = judge_by_residual(updates, aggregate);
            for (s, r) in acc.strikes.iter_mut().zip(&raw.strikes) {
                if *r == 0.0 {
                    *s = 0.0;
                }
            }
            acc
        }
        // Bucketing destroys index correspondence (n inputs → ⌈n/s⌉
        // bucket means); fall back to residuals of the *original* inputs
        // against the composed aggregate.
        _ => judge_by_residual(updates, aggregate),
    }
}

/// [`judge_aggregated`] for callers holding only the inputs: runs
/// `kind`'s rule over them once, then judges from that aggregation.
pub fn judge(kind: &AggregatorKind, updates: &[&[f32]]) -> Acceptance {
    if updates.len() < 3 {
        return Acceptance::all_accepted(updates.len());
    }
    let mut scratch = AggScratch::default();
    let mut aggregate = Vec::new();
    kind.build()
        .aggregate_into(updates, None, &mut aggregate, &mut scratch);
    judge_aggregated(kind, updates, &aggregate, &scratch)
}

/// Strike weight added per unit of staleness (lateness / τ): a
/// maximally-late admitted input (lateness = τ) collects half a
/// [`STRIKE_WORST`] each round it exploits the staleness window, so a
/// coalition camping just inside τ accrues suspicion round after round
/// even when its *values* pass the rule's outlier tests.
pub const STALE_STRIKE_SCALE: f64 = 0.5;

/// Staleness-aware admission evidence for deadline-driven buffers:
/// folds each input's lateness fraction (`lateness / τ`, 0 for on-time
/// arrivals, in `(0, 1]` for τ-late admissions) into an existing
/// verdict. Late inputs accrue `STALE_STRIKE_SCALE · fraction` strikes
/// on top of whatever the value-based evidence assigned — staleness is
/// orthogonal evidence, not a replacement. Acceptance is untouched:
/// a τ-late input *was* admitted (at discounted weight), and telling
/// the adversary otherwise would corrupt its feedback signal.
pub fn judge_staleness(acc: &mut Acceptance, lateness_frac: &[f64]) {
    assert_eq!(
        acc.strikes.len(),
        lateness_frac.len(),
        "one lateness per judged input"
    );
    for (s, &frac) in acc.strikes.iter_mut().zip(lateness_frac) {
        if frac > 0.0 {
            *s += STALE_STRIKE_SCALE * frac.min(1.0);
        }
    }
}

/// Shared rank logic: given per-input badness scores (higher = worse),
/// accept the `keep` best and strike the worst (+ runner-up when n ≥ 4).
fn judge_by_scores(scores: &[f64], keep: usize) -> Acceptance {
    let n = scores.len();
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|a, b| scores[*a].total_cmp(&scores[*b]));
    let mut accepted = vec![false; n];
    for &i in idx.iter().take(keep.max(1).min(n)) {
        accepted[i] = true;
    }
    let mut strikes = vec![0.0; n];
    strikes[idx[n - 1]] = STRIKE_WORST;
    if n >= 4 {
        strikes[idx[n - 2]] = STRIKE_RUNNER_UP;
    }
    Acceptance { accepted, strikes }
}

/// Zeroes Krum-family strikes for inputs whose score does not clearly
/// separate from the cohort ([`KRUM_STRIKE_GATE`] × the median score):
/// homogeneous clusters — honest rounds — strike nobody even though
/// the rank logic always nominates a worst input. Below four inputs
/// strikes are dropped entirely: with n = 3 each score is a single
/// nearest-neighbour distance, so a large score says as much about
/// shard diversity as about the input (non-IID clusters of 3 were
/// quarantining honest clients through this path).
fn gate_krum_strikes(acc: &mut Acceptance, scores: &[f64]) {
    if scores.len() < 4 {
        acc.strikes.iter_mut().for_each(|s| *s = 0.0);
        return;
    }
    let mut sorted = scores.to_vec();
    sorted.sort_by(f64::total_cmp);
    let med = sorted[scores.len() / 2].max(1e-12);
    for (s, sc) in acc.strikes.iter_mut().zip(scores) {
        if *sc <= KRUM_STRIKE_GATE * med {
            *s = 0.0;
        }
    }
}

/// Trimmed mean: an input's badness is the fraction of coordinates on
/// which it landed in a trimmed tail. The expected fraction for an
/// inlier is `2t/n`; inputs clipped on ≥ 75 % of coordinates were
/// effectively excluded from the aggregate.
fn judge_trimmed(updates: &[&[f32]], ratio: f64) -> Acceptance {
    let n = updates.len();
    let d = updates[0].len();
    let t = TrimmedMean::new(ratio).trim_count(n);
    if t == 0 || d == 0 {
        return Acceptance::all_accepted(n);
    }
    let mut clipped = vec![0usize; n];
    let mut col: Vec<(f32, usize)> = Vec::with_capacity(n);
    for j in 0..d {
        col.clear();
        col.extend(updates.iter().enumerate().map(|(i, u)| (u[j], i)));
        col.sort_by(|a, b| a.0.total_cmp(&b.0));
        for &(_, i) in col.iter().take(t).chain(col.iter().rev().take(t)) {
            clipped[i] += 1;
        }
    }
    let frac: Vec<f64> = clipped.iter().map(|&c| c as f64 / d as f64).collect();
    let accepted: Vec<bool> = frac.iter().map(|&fr| fr < 0.75).collect();
    // Strike only above-random clipping: with everything i.i.d. each
    // input is clipped on ~2t/n of coordinates.
    let baseline = (2.0 * t as f64 / n as f64).min(0.99);
    let mut acc = judge_by_scores(&frac, n);
    acc.accepted = accepted;
    for (s, fr) in acc.strikes.iter_mut().zip(&frac) {
        if *fr <= 1.5 * baseline {
            *s = 0.0;
        }
    }
    acc
}

/// Distance-to-aggregate residuals: generic evidence for median, GeoMed,
/// clipping, clustering, AutoGM. Inputs far from the robust aggregate
/// relative to the cohort's median residual were effectively down-
/// weighted or ignored.
fn judge_by_residual(updates: &[&[f32]], aggregate: &[f32]) -> Acceptance {
    let n = updates.len();
    let res: Vec<f64> = updates
        .iter()
        .map(|u| hfl_tensor::ops::dist(u, aggregate))
        .collect();
    let mut sorted = res.clone();
    sorted.sort_by(f64::total_cmp);
    let med = sorted[n / 2].max(1e-12);
    let accepted: Vec<bool> = res.iter().map(|&r| r <= 1.5 * med + 1e-9).collect();
    let mut acc = judge_by_scores(&res, n);
    acc.accepted = accepted;
    for (s, r) in acc.strikes.iter_mut().zip(&res) {
        if *r <= 2.0 * med {
            *s = 0.0;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::cluster_with_outliers;

    fn refs(v: &[Vec<f32>]) -> Vec<&[f32]> {
        v.iter().map(|x| x.as_slice()).collect()
    }

    #[test]
    fn multikrum_strikes_the_outlier() {
        let updates = cluster_with_outliers(&[1.0, 1.0], 0.1, 6, &[50.0, 50.0], 1);
        let acc = judge(&AggregatorKind::MultiKrum { f: 1, m: 6 }, &refs(&updates));
        assert!(!acc.accepted[6], "outlier must not be selected");
        assert_eq!(acc.strikes[6], STRIKE_WORST);
        assert!(
            acc.strikes[..6].iter().all(|s| *s == 0.0),
            "inliers below the score gate collect no strikes"
        );
        assert!(acc.accepted[..6].iter().filter(|a| **a).count() >= 5);
    }

    #[test]
    fn trimmed_mean_strikes_the_clipped_input() {
        let updates = cluster_with_outliers(&[0.0, 0.0, 0.0], 0.2, 8, &[100.0, 100.0, 100.0], 1);
        let acc = judge(&AggregatorKind::TrimmedMean { ratio: 0.2 }, &refs(&updates));
        assert!(!acc.accepted[8], "fully-clipped input must be rejected");
        assert_eq!(acc.strikes[8], STRIKE_WORST);
        assert!(acc.accepted[..8].iter().all(|a| *a), "inliers accepted");
    }

    #[test]
    fn residual_evidence_flags_the_far_input() {
        let updates = cluster_with_outliers(&[2.0, -1.0], 0.1, 7, &[-60.0, 60.0], 1);
        for kind in [
            AggregatorKind::Median,
            AggregatorKind::GeoMed,
            AggregatorKind::CenteredClip { tau: 1.0, iters: 3 },
        ] {
            let acc = judge(&kind, &refs(&updates));
            assert!(!acc.accepted[7], "{kind:?} must reject the outlier");
            assert_eq!(acc.strikes[7], STRIKE_WORST, "{kind:?}");
            assert!(acc.strikes[..7].iter().all(|s| *s == 0.0), "{kind:?}");
        }
    }

    #[test]
    fn fedavg_judges_nothing() {
        let updates = cluster_with_outliers(&[0.0], 0.1, 3, &[9.0], 1);
        let acc = judge(&AggregatorKind::FedAvg, &refs(&updates));
        assert!(acc.accepted.iter().all(|a| *a));
        assert!(acc.strikes.iter().all(|s| *s == 0.0));
    }

    #[test]
    fn tiny_clusters_are_not_judged() {
        let a = vec![1.0f32];
        let b = vec![-1.0f32];
        let acc = judge(&AggregatorKind::Krum { f: 1 }, &[&a, &b]);
        assert_eq!(acc.accepted, vec![true, true]);
        assert_eq!(acc.strikes, vec![0.0, 0.0]);
    }

    #[test]
    fn homogeneous_round_strikes_nobody() {
        // With no real outlier the rank logic still nominates a worst
        // input, but the score gate zeroes the strike: deterministic
        // shards mean the *same* honest client would be rank-worst
        // round after round, and ungated rank strikes alone were enough
        // to quarantine it (found by the hfl-oracle honest-quarantine
        // invariant).
        let updates = cluster_with_outliers(&[1.0, 1.0], 0.3, 8, &[1.0, 1.0], 0);
        let acc = judge(&AggregatorKind::MultiKrum { f: 2, m: 6 }, &refs(&updates));
        assert!(
            acc.strikes.iter().all(|s| *s == 0.0),
            "homogeneous rounds must not strike: {:?}",
            acc.strikes
        );
    }

    #[test]
    fn staleness_strikes_stack_on_value_strikes() {
        let updates = cluster_with_outliers(&[1.0, 1.0], 0.1, 6, &[50.0, 50.0], 1);
        let kind = AggregatorKind::MultiKrum { f: 1, m: 6 };
        let mut acc = judge(&kind, &refs(&updates));
        let before = acc.strikes.clone();
        // Input 2 arrived half a τ late, the outlier (6) a full τ late.
        let mut lateness = vec![0.0; 7];
        lateness[2] = 0.5;
        lateness[6] = 1.0;
        judge_staleness(&mut acc, &lateness);
        assert_eq!(acc.strikes[2], before[2] + 0.5 * STALE_STRIKE_SCALE);
        assert_eq!(acc.strikes[6], before[6] + STALE_STRIKE_SCALE);
        assert_eq!(acc.strikes[0], before[0], "on-time inputs untouched");
        // Acceptance is staleness-blind: admission already happened.
        assert!(!acc.accepted[6]);
    }

    #[test]
    fn staleness_fraction_is_capped_at_one() {
        let mut acc = Acceptance {
            accepted: vec![true; 2],
            strikes: vec![0.0; 2],
        };
        judge_staleness(&mut acc, &[5.0, 0.0]);
        assert_eq!(acc.strikes[0], STALE_STRIKE_SCALE);
        assert_eq!(acc.strikes[1], 0.0);
    }

    #[test]
    fn nnm_evidence_maps_back_to_inputs() {
        // NNM pulls the honest cohort together, so the outlier's mixed
        // vector separates even more clearly for the base rule.
        let updates = cluster_with_outliers(&[1.0, 1.0], 0.4, 6, &[50.0, 50.0], 1);
        let kind = AggregatorKind::Nnm {
            k: 3,
            inner: Box::new(AggregatorKind::MultiKrum { f: 1, m: 5 }),
        };
        let acc = judge(&kind, &refs(&updates));
        assert_eq!(acc.accepted.len(), 7, "verdicts index the original inputs");
        assert!(!acc.accepted[6], "outlier must not be selected");
        assert_eq!(acc.strikes[6], STRIKE_WORST);
        assert!(acc.strikes[..6].iter().all(|s| *s == 0.0));
    }

    #[test]
    fn bucketing_evidence_uses_residuals_over_inputs() {
        let updates = cluster_with_outliers(&[0.0, 2.0], 0.2, 7, &[-30.0, 30.0], 1);
        let kind = AggregatorKind::Bucketing {
            s: 2,
            inner: Box::new(AggregatorKind::Median),
        };
        let acc = judge(&kind, &refs(&updates));
        assert_eq!(acc.accepted.len(), 8, "verdicts index the original inputs");
        assert!(!acc.accepted[7], "outlier residual must reject");
        assert_eq!(acc.strikes[7], STRIKE_WORST);
        assert!(acc.strikes[..7].iter().all(|s| *s == 0.0));
    }

    #[test]
    fn separated_outlier_is_still_struck_through_the_gate() {
        let updates = cluster_with_outliers(&[0.5, -0.5], 0.05, 5, &[8.0, 8.0], 1);
        let acc = judge(&AggregatorKind::Krum { f: 1 }, &refs(&updates));
        assert_eq!(acc.strikes[5], STRIKE_WORST);
        assert!(acc.strikes[..5].iter().all(|s| *s == 0.0));
    }
}
