//! Runs one scenario through the real entry points and collects the
//! cross-run observations the oracles judge.
//!
//! A scenario costs two fully independent instrumented runs (prepare +
//! train, so the determinism oracle compares end-to-end reproductions,
//! not a cached experiment) plus, when the Byzantine-degradation oracle
//! applies, a third same-seed run with the attack stripped.
//!
//! [`Mutation`] injects deliberate corruptions *at the observation
//! boundary* — the values a buggy engine would have produced — so
//! `tests/oracle_corpus.rs` can prove the oracles and the shrinker
//! actually catch a broken quorum rule or a leaked message without
//! compiling a broken engine (see `DESIGN.md` §10).

use abd_hfl_core::config::{ConfigError, HflConfig};
use abd_hfl_core::engine::cost::clean_round_messages;
use abd_hfl_core::runner::{run_prepared_with, Experiment, RunResult};
use hfl_telemetry::{Event, RunManifest, Telemetry};

use crate::scenario::{AttackSpec, ProtocolSpec, ScenarioSpec};

/// Relative accuracy slack of the Byzantine-degradation oracle: under
/// an in-tolerance static attack the final accuracy must stay within
/// this of the same-seed clean run.
pub const BYZANTINE_EPSILON: f64 = 0.25;

/// Everything the oracles look at for one scenario.
pub struct Observations {
    /// The scenario that was run.
    pub spec: ScenarioSpec,
    /// Outcome of the primary run.
    pub result: RunResult,
    /// Manifest of the primary run.
    pub manifest: RunManifest,
    /// `manifest.to_json()` of the primary run.
    pub manifest_json: String,
    /// Manifest JSON of the independent same-seed rerun.
    pub rerun_manifest_json: String,
    /// Structured events of the primary run.
    pub events: Vec<Event>,
    /// `cluster_sizes[level][cluster]` of the built hierarchy.
    pub cluster_sizes: Vec<Vec<usize>>,
    /// Malicious-member count of each bottom cluster.
    pub malicious_per_cluster: Vec<usize>,
    /// Bytes of one model transfer (`4·d`).
    pub model_bytes: u64,
    /// Closed-form per-round message count, when the scenario is clean
    /// enough for [`clean_round_messages`] to apply exactly.
    pub expected_round_messages: Option<u64>,
    /// Final accuracy of the attack-stripped same-seed twin, when the
    /// Byzantine-degradation oracle is eligible.
    pub clean_final_accuracy: Option<f64>,
}

impl Observations {
    /// True when nothing in the scenario removes contributors: the
    /// strict quorum / closed-form accounting forms apply. Deadline
    /// buffers disqualify too — late admissions make the kept set
    /// larger than the quorum.
    pub fn is_clean(&self) -> bool {
        let s = &self.spec;
        s.faults.is_empty()
            && s.churn == 0.0
            && !s.suspicion
            && s.protocol == ProtocolSpec::None
            && s.deadline_us.is_none()
    }
}

/// True when the scenario qualifies for the Byzantine-degradation
/// oracle: a static attack, full quorum (so the kept set is the whole
/// cluster and per-cluster tolerance arithmetic holds), nothing else
/// removing contributors, and every bottom cluster's malicious count
/// within the *composed* (pre-aggregation + base rule) tolerance.
/// Sampled populations re-bind cohort slots every round, so the
/// per-cluster malicious arithmetic has no fixed placement to bound —
/// those scenarios are ineligible.
fn byzantine_bound_eligible(spec: &ScenarioSpec, malicious_per_cluster: &[usize]) -> bool {
    let worst = malicious_per_cluster.iter().copied().max().unwrap_or(0);
    spec.attack.is_static()
        && spec.sampling_population == 0
        && spec.proportion > 0.0
        && spec.protocol == ProtocolSpec::None
        && spec.faults.is_empty()
        && spec.churn == 0.0
        && spec.phi == 1.0
        && spec.deadline_us.is_none()
        && worst >= 1
        && worst <= spec.tolerance()
        && spec.rounds >= 3
}

/// What a sequence of [`check_cached`] calls has run: the fuzz loop and
/// the shrinker thread one through every scenario they check. The
/// benchmark calls it by this name, which no longer says what it holds.
#[derive(Default)]
pub struct SnapshotCache {
    /// Rounds executed by every run under this counter: the primary
    /// run, its same-seed rerun and, when eligible, the clean twin.
    pub rounds_executed: u64,
}

impl SnapshotCache {
    /// A counter at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs `spec` and gathers [`Observations`]. `Err` means the spec does
/// not lower to a consistent config — a generator or corpus bug, never
/// an engine bug, so the fuzz loop treats it as fatal.
fn run_scenario(
    spec: &ScenarioSpec,
    cache: &mut SnapshotCache,
) -> Result<Observations, ConfigError> {
    let cfg = spec.to_config();

    let (result, manifest, events) = {
        let exp = Experiment::try_prepare(&cfg)?;
        let (telem, rec) = Telemetry::recording();
        let run = run_prepared_with(&exp, &telem);
        (run.result, run.manifest, rec.take())
    };

    // Fully independent reproduction: fresh prepare, fresh telemetry.
    // What the oracles read off a prepared experiment rather than off a
    // run is lifted out of this one before it drops, once its run is
    // done: no experiment is prepared a third time, and nothing extra is
    // alive while either run is at its heap peak: each run's final
    // model, which no oracle reads, drops with its block.
    let (rerun_manifest, facts) = {
        let rerun_exp = Experiment::try_prepare(&cfg)?;
        let (rerun_telem, _rerun_rec) = Telemetry::recording();
        let rerun = run_prepared_with(&rerun_exp, &rerun_telem);
        (rerun.manifest, ExperimentFacts::of(&rerun_exp, spec, &cfg))
    };
    cache.rounds_executed += 2 * spec.rounds as u64;

    let clean_final_accuracy = if byzantine_bound_eligible(spec, &facts.malicious_per_cluster) {
        let mut clean_spec = spec.clone();
        clean_spec.attack = AttackSpec::None;
        clean_spec.proportion = 0.0;
        let clean_exp = Experiment::try_prepare(&clean_spec.to_config())?;
        let clean = run_prepared_with(&clean_exp, &Telemetry::disabled());
        cache.rounds_executed += clean_spec.rounds as u64;
        Some(clean.result.final_accuracy)
    } else {
        None
    };

    let manifest_json = manifest.to_json();
    Ok(Observations {
        expected_round_messages: facts.expected_round_messages,
        spec: spec.clone(),
        result,
        manifest,
        manifest_json,
        rerun_manifest_json: rerun_manifest.to_json(),
        events,
        cluster_sizes: facts.cluster_sizes,
        malicious_per_cluster: facts.malicious_per_cluster,
        model_bytes: facts.model_bytes,
        clean_final_accuracy,
    })
}

/// What [`Observations`] reads off a prepared [`Experiment`] rather than
/// off a run: the built hierarchy's shape, the bottom clusters'
/// malicious counts, the model size and the closed-form message count.
struct ExperimentFacts {
    cluster_sizes: Vec<Vec<usize>>,
    malicious_per_cluster: Vec<usize>,
    model_bytes: u64,
    expected_round_messages: Option<u64>,
}

impl ExperimentFacts {
    fn of(exp: &Experiment, spec: &ScenarioSpec, cfg: &HflConfig) -> Self {
        let h = &exp.hierarchy;
        Self {
            cluster_sizes: (0..h.num_levels())
                .map(|l| h.level(l).clusters.iter().map(|c| c.len()).collect())
                .collect(),
            malicious_per_cluster: h
                .level(h.bottom_level())
                .clusters
                .iter()
                .map(|c| c.members.iter().filter(|&&d| exp.malicious[d]).count())
                .collect(),
            model_bytes: 4 * exp.template.param_len() as u64,
            // The closed form models only the base protocol: the arms
            // race (suspicion, protocol attacks, adaptive attacks) stacks
            // the defense layer, whose echo audit ships extra digests,
            // and deadline buffers change transfer counts via late
            // admissions.
            expected_round_messages: if spec.faults.is_empty()
                && spec.churn == 0.0
                && spec.deadline_us.is_none()
                && !cfg.arms_race()
            {
                clean_round_messages(cfg, h)
            } else {
                None
            },
        }
    }
}

/// A deliberate corruption of the observations — what a buggy engine
/// would have reported. Used by `repro fuzz --mutation` to prove the
/// oracle layer catches the failure class end to end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Every aggregation closes one input short of its quorum (a broken
    /// `quorum_size`, an off-by-one in the kept set...).
    QuorumUndershoot,
    /// The manifest's message total drifts from the per-round ledger
    /// (a transfer charged to the total but not the round, or vice
    /// versa).
    InflateMessages,
    /// The same-seed rerun produces a different manifest byte stream
    /// (any nondeterminism: unseeded RNG, map-order iteration...).
    SkewRerun,
    /// A buffer admits an update past its staleness bound τ (a broken
    /// lateness comparison, a buffer leaking onto the sync path...).
    OverdueAdmit,
    /// An in-tolerance attack sails through the defense and craters
    /// accuracy (a pre-aggregation transform that drops honest mass, a
    /// clipping radius that never clips...).
    DefenseBypass,
}

impl Mutation {
    /// Every mutation, in the order `repro fuzz`'s usage lists them.
    pub const ALL: [Mutation; 5] = [
        Mutation::QuorumUndershoot,
        Mutation::InflateMessages,
        Mutation::SkewRerun,
        Mutation::OverdueAdmit,
        Mutation::DefenseBypass,
    ];

    /// Parses a `--mutation` flag name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == name)
    }

    /// The `--mutation` flag name.
    pub fn name(&self) -> &'static str {
        match self {
            Mutation::QuorumUndershoot => "quorum",
            Mutation::InflateMessages => "conservation",
            Mutation::SkewRerun => "determinism",
            Mutation::OverdueAdmit => "staleness",
            Mutation::DefenseBypass => "defense-bypass",
        }
    }

    /// Applies the corruption to `obs` in place.
    pub fn apply(&self, obs: &mut Observations) {
        match self {
            Mutation::QuorumUndershoot => {
                for ev in &mut obs.events {
                    if let Event::ClusterAggregated { inputs, .. } = ev {
                        *inputs = inputs.saturating_sub(1);
                    }
                }
            }
            Mutation::InflateMessages => {
                obs.manifest.totals.messages += 17;
            }
            Mutation::SkewRerun => {
                obs.rerun_manifest_json.push(' ');
            }
            Mutation::OverdueAdmit => {
                // One admission past τ. On a sync spec the fabricated
                // buffer event is itself the violation (no buffer may
                // exist without a deadline), so the mutation trips the
                // staleness-safety oracle on every scenario.
                obs.events.push(Event::StaleUpdateAdmitted {
                    round: 0,
                    level: obs.spec.total_levels - 1,
                    cluster: 0,
                    device: 0,
                    lateness_us: obs.spec.staleness_bound_us + 1,
                    weight: 0.5,
                });
            }
            Mutation::DefenseBypass => {
                // Fabricate the clean twin a bypassed defense would
                // betray: the attacked run sits ε + slack below it. On
                // attack-free scenarios (no real twin exists) this is
                // exactly what a defense silently discarding honest
                // updates looks like, so the mutation trips the
                // Byzantine-degradation oracle on every scenario.
                obs.clean_final_accuracy =
                    Some(obs.result.final_accuracy + BYZANTINE_EPSILON + 0.1);
            }
        }
    }
}

/// Runs `spec`, optionally applies a [`Mutation`], and checks every
/// oracle, adding the rounds it ran to `cache`: the fuzz loop's single
/// step, the shrinker's probe and the corpus replay.
pub fn check_cached(
    spec: &ScenarioSpec,
    mutation: Option<Mutation>,
    cache: &mut SnapshotCache,
) -> Result<(Observations, Vec<crate::oracles::Violation>), ConfigError> {
    let mut obs = run_scenario(spec, cache)?;
    if let Some(m) = mutation {
        m.apply(&mut obs);
    }
    let violations = crate::oracles::check_all(&obs);
    Ok((obs, violations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioGen;

    /// A sampled population re-binds cohort slots every round, so the
    /// Byzantine-bound eligibility must skip those scenarios — and the
    /// rest of the oracle battery must still hold end to end on one.
    #[test]
    fn sampled_scenarios_skip_the_byzantine_bound_but_pass_every_oracle() {
        let mut gen = ScenarioGen::new(21);
        let mut spec = loop {
            let s = gen.draw();
            if s.sampling_population > 0 {
                break s;
            }
        };
        spec.rounds = spec.rounds.min(3);
        let obs = run_scenario(&spec, &mut SnapshotCache::new()).expect("sampled spec must lower");
        assert!(
            obs.clean_final_accuracy.is_none(),
            "sampled specs are Byzantine-bound ineligible: {spec:?}"
        );
        let violations = crate::oracles::check_all(&obs);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
