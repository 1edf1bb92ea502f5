//! TOML round-tripping for [`ScenarioSpec`] corpus cases.
//!
//! The workspace deliberately carries no serialization dependencies
//! (the telemetry manifest hand-rolls its JSON the same way), so this
//! module implements the small TOML subset the corpus needs: scalar
//! `key = value` lines at the root plus `[[fault]]` array-of-table
//! sections. Rust's `f64` `Display` is shortest-round-trip, so floats
//! survive write → parse exactly.

use crate::scenario::{AggSpec, AttackSpec, FaultEvent, PreAggSpec, ProtocolSpec, ScenarioSpec};

/// Corpus file schema version.
pub const SCHEMA: u64 = 1;

/// Renders a spec as a corpus TOML case.
pub fn to_toml(spec: &ScenarioSpec) -> String {
    let mut out = String::new();
    let mut line = |k: &str, v: String| {
        out.push_str(k);
        out.push_str(" = ");
        out.push_str(&v);
        out.push('\n');
    };
    line("schema", SCHEMA.to_string());
    line("seed", spec.seed.to_string());
    line("total_levels", spec.total_levels.to_string());
    line("m", spec.m.to_string());
    line("n_top", spec.n_top.to_string());
    line("rounds", spec.rounds.to_string());
    line("local_iters", spec.local_iters.to_string());
    line("phi", spec.phi.to_string());
    line("agg", quoted(spec.agg.name()));
    match &spec.agg {
        AggSpec::FedAvg | AggSpec::Median | AggSpec::GeoMed => {}
        AggSpec::Krum { f } => line("agg_f", f.to_string()),
        AggSpec::MultiKrum { f, m } => {
            line("agg_f", f.to_string());
            line("agg_m", m.to_string());
        }
        AggSpec::TrimmedMean { ratio } => line("agg_ratio", ratio.to_string()),
        AggSpec::CenteredClip { tau, iters } => {
            line("agg_tau", tau.to_string());
            line("agg_iters", iters.to_string());
        }
    }
    // Pre-aggregation keys are only written when a transform is
    // composed, so pre-gallery corpus files keep their exact shape.
    if spec.pre_agg != PreAggSpec::None {
        line("pre_agg", quoted(spec.pre_agg.name()));
    }
    match &spec.pre_agg {
        PreAggSpec::None => {}
        PreAggSpec::Bucketing { s } => line("pre_agg_s", s.to_string()),
        PreAggSpec::Nnm { k } => line("pre_agg_k", k.to_string()),
    }
    line("attack", quoted(spec.attack.name()));
    match &spec.attack {
        AttackSpec::SignFlip { scale: x }
        | AttackSpec::Alie { z: x }
        | AttackSpec::Ipm { epsilon: x }
        | AttackSpec::Scaling { factor: x } => line("attack_param", x.to_string()),
        AttackSpec::Mimic { victim } => line("attack_victim", victim.to_string()),
        AttackSpec::None
        | AttackSpec::LabelFlip
        | AttackSpec::MinMax
        | AttackSpec::MinSum
        | AttackSpec::AdaptiveAlie
        | AttackSpec::AdaptiveIpm
        | AttackSpec::AdaptiveScaling => {}
    }
    line("proportion", spec.proportion.to_string());
    line("random_placement", spec.random_placement.to_string());
    line("churn", spec.churn.to_string());
    line("suspicion", spec.suspicion.to_string());
    line("protocol", quoted(spec.protocol.name()));
    // Async keys are only written when set, so pre-async corpus files
    // and synchronous cases keep their exact historical shape.
    if let Some(deadline) = spec.deadline_us {
        line("deadline_us", deadline.to_string());
    }
    if spec.staleness_bound_us != 0 {
        line("staleness_bound_us", spec.staleness_bound_us.to_string());
    }
    line("noniid", spec.noniid.to_string());
    // Heterogeneity keys are likewise conditional on a non-default.
    if let Some(alpha) = spec.dirichlet_alpha {
        line("dirichlet_alpha", alpha.to_string());
    }
    if spec.heterogeneity {
        line("heterogeneity", "true".into());
    }
    // Sampling keys ride only on cross-device draws, keeping
    // pre-sampling corpus files byte-stable.
    if spec.sampling_population > 0 {
        line("sampling_population", spec.sampling_population.to_string());
        line("sampling_stratified", spec.sampling_stratified.to_string());
    }
    line("train_samples", spec.train_samples.to_string());
    for fault in &spec.faults {
        out.push_str("\n[[fault]]\n");
        let mut fline = |k: &str, v: String| {
            out.push_str(k);
            out.push_str(" = ");
            out.push_str(&v);
            out.push('\n');
        };
        fline("kind", quoted(fault.name()));
        match *fault {
            FaultEvent::CrashStop { at, node } => {
                fline("at", at.to_string());
                fline("node", node.to_string());
            }
            FaultEvent::CrashRecover { at, node, recover } => {
                fline("at", at.to_string());
                fline("node", node.to_string());
                fline("recover", recover.to_string());
            }
            FaultEvent::KillLeader { at, cluster } => {
                fline("at", at.to_string());
                fline("cluster", cluster.to_string());
            }
            FaultEvent::Straggler { at, node, factor } => {
                fline("at", at.to_string());
                fline("node", node.to_string());
                fline("factor", factor.to_string());
            }
            FaultEvent::LossBurst { at, prob, until } => {
                fline("at", at.to_string());
                fline("prob", prob.to_string());
                fline("until", until.to_string());
            }
        }
    }
    out
}

/// A TOML string value.
fn quoted(name: &str) -> String {
    format!("\"{name}\"")
}

/// One parsed `key = value` map (the root table or one fault table).
#[derive(Default)]
struct Table {
    entries: Vec<(String, String)>,
}

impl Table {
    fn get(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn req(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing key `{key}`"))
    }

    fn usize(&self, key: &str) -> Result<usize, String> {
        self.req(key)?
            .parse()
            .map_err(|e| format!("bad usize `{key}`: {e}"))
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.req(key)?
            .parse()
            .map_err(|e| format!("bad u64 `{key}`: {e}"))
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        self.req(key)?
            .parse()
            .map_err(|e| format!("bad f64 `{key}`: {e}"))
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        self.req(key)?
            .parse()
            .map_err(|e| format!("bad bool `{key}`: {e}"))
    }

    fn string(&self, key: &str) -> Result<String, String> {
        let raw = self.req(key)?;
        let s = raw
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("`{key}` must be a quoted string, got `{raw}`"))?;
        Ok(s.to_string())
    }
}

/// Parses a corpus TOML case back into a spec.
pub fn from_toml(text: &str) -> Result<ScenarioSpec, String> {
    let mut root = Table::default();
    let mut faults: Vec<Table> = Vec::new();
    let mut in_fault = false;
    for (ln, raw) in text.lines().enumerate() {
        let trimmed = raw.split('#').next().unwrap_or("").trim();
        if trimmed.is_empty() {
            continue;
        }
        if trimmed == "[[fault]]" {
            faults.push(Table::default());
            in_fault = true;
            continue;
        }
        if trimmed.starts_with('[') {
            return Err(format!("line {}: unknown section `{trimmed}`", ln + 1));
        }
        let (key, value) = trimmed
            .split_once('=')
            .ok_or_else(|| format!("line {}: expected `key = value`", ln + 1))?;
        let entry = (key.trim().to_string(), value.trim().to_string());
        if in_fault {
            faults
                .last_mut()
                .expect("fault table open")
                .entries
                .push(entry);
        } else {
            root.entries.push(entry);
        }
    }

    let schema = root.u64("schema")?;
    if schema != SCHEMA {
        return Err(format!(
            "unsupported corpus schema {schema} (want {SCHEMA})"
        ));
    }
    let agg = match root.string("agg")?.as_str() {
        "fedavg" => AggSpec::FedAvg,
        "krum" => AggSpec::Krum {
            f: root.usize("agg_f")?,
        },
        "multikrum" => AggSpec::MultiKrum {
            f: root.usize("agg_f")?,
            m: root.usize("agg_m")?,
        },
        "median" => AggSpec::Median,
        "trimmed_mean" => AggSpec::TrimmedMean {
            ratio: root.f64("agg_ratio")?,
        },
        "geomed" => AggSpec::GeoMed,
        "centered_clip" => AggSpec::CenteredClip {
            tau: root.f64("agg_tau")?,
            iters: root.usize("agg_iters")?,
        },
        other => return Err(format!("unknown agg `{other}`")),
    };
    let pre_agg = match root.get("pre_agg") {
        None => PreAggSpec::None,
        Some(_) => match root.string("pre_agg")?.as_str() {
            "bucketing" => PreAggSpec::Bucketing {
                s: root.usize("pre_agg_s")?,
            },
            "nnm" => PreAggSpec::Nnm {
                k: root.usize("pre_agg_k")?,
            },
            other => return Err(format!("unknown pre_agg `{other}`")),
        },
    };
    let attack = match root.string("attack")?.as_str() {
        "none" => AttackSpec::None,
        "signflip" => AttackSpec::SignFlip {
            scale: root.f64("attack_param")?,
        },
        "alie" => AttackSpec::Alie {
            z: root.f64("attack_param")?,
        },
        "ipm" => AttackSpec::Ipm {
            epsilon: root.f64("attack_param")?,
        },
        "labelflip" => AttackSpec::LabelFlip,
        "mimic" => AttackSpec::Mimic {
            victim: root.usize("attack_victim")?,
        },
        "scaling" => AttackSpec::Scaling {
            factor: root.f64("attack_param")?,
        },
        "minmax" => AttackSpec::MinMax,
        "minsum" => AttackSpec::MinSum,
        "adaptive_alie" => AttackSpec::AdaptiveAlie,
        "adaptive_ipm" => AttackSpec::AdaptiveIpm,
        "adaptive_scaling" => AttackSpec::AdaptiveScaling,
        other => return Err(format!("unknown attack `{other}`")),
    };
    let protocol = root.string("protocol")?;
    let protocol = ProtocolSpec::ALL
        .into_iter()
        .find(|p| p.name() == protocol)
        .ok_or_else(|| format!("unknown protocol `{protocol}`"))?;
    let deadline_us = match root.get("deadline_us") {
        Some(_) => Some(root.u64("deadline_us")?),
        None => None,
    };
    let staleness_bound_us = match root.get("staleness_bound_us") {
        Some(_) => root.u64("staleness_bound_us")?,
        None => 0,
    };
    let mut fault_events = Vec::new();
    for table in &faults {
        let ev = match table.string("kind")?.as_str() {
            "crash_stop" => FaultEvent::CrashStop {
                at: table.usize("at")?,
                node: table.usize("node")?,
            },
            "crash_recover" => FaultEvent::CrashRecover {
                at: table.usize("at")?,
                node: table.usize("node")?,
                recover: table.usize("recover")?,
            },
            "kill_leader" => FaultEvent::KillLeader {
                at: table.usize("at")?,
                cluster: table.usize("cluster")?,
            },
            "straggler" => FaultEvent::Straggler {
                at: table.usize("at")?,
                node: table.usize("node")?,
                factor: table.f64("factor")?,
            },
            "loss_burst" => FaultEvent::LossBurst {
                at: table.usize("at")?,
                prob: table.f64("prob")?,
                until: table.usize("until")?,
            },
            other => return Err(format!("unknown fault kind `{other}`")),
        };
        fault_events.push(ev);
    }
    let dirichlet_alpha = match root.get("dirichlet_alpha") {
        Some(_) => Some(root.f64("dirichlet_alpha")?),
        None => None,
    };
    let heterogeneity = match root.get("heterogeneity") {
        Some(_) => root.bool("heterogeneity")?,
        None => false,
    };
    let sampling_population = match root.get("sampling_population") {
        Some(_) => root.usize("sampling_population")?,
        None => 0,
    };
    let sampling_stratified = match root.get("sampling_stratified") {
        Some(_) => root.bool("sampling_stratified")?,
        None => false,
    };
    Ok(ScenarioSpec {
        seed: root.u64("seed")?,
        total_levels: root.usize("total_levels")?,
        m: root.usize("m")?,
        n_top: root.usize("n_top")?,
        rounds: root.usize("rounds")?,
        local_iters: root.usize("local_iters")?,
        phi: root.f64("phi")?,
        agg,
        pre_agg,
        attack,
        proportion: root.f64("proportion")?,
        random_placement: root.bool("random_placement")?,
        churn: root.f64("churn")?,
        suspicion: root.bool("suspicion")?,
        protocol,
        deadline_us,
        staleness_bound_us,
        noniid: root.bool("noniid")?,
        dirichlet_alpha,
        heterogeneity,
        sampling_population,
        sampling_stratified,
        train_samples: root.usize("train_samples")?,
        faults: fault_events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioGen;

    #[test]
    fn every_generated_spec_round_trips() {
        let mut gen = ScenarioGen::new(3);
        for _ in 0..100 {
            let spec = gen.draw();
            let text = to_toml(&spec);
            let back = from_toml(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(spec, back, "round-trip changed the spec:\n{text}");
        }
    }

    #[test]
    fn pre_async_cases_parse_with_synchronous_defaults() {
        let mut gen = ScenarioGen::new(8);
        let mut spec = gen.draw();
        spec.deadline_us = None;
        spec.staleness_bound_us = 0;
        if spec.protocol == ProtocolSpec::StalenessExploit {
            spec.protocol = ProtocolSpec::None;
        }
        let text = to_toml(&spec);
        assert!(
            !text.contains("deadline_us"),
            "sync cases must not grow async keys:\n{text}"
        );
        let back = from_toml(&text).unwrap();
        assert_eq!(back.deadline_us, None);
        assert_eq!(back.staleness_bound_us, 0);
    }

    #[test]
    fn pre_gallery_cases_parse_with_default_gallery_fields() {
        let mut gen = ScenarioGen::new(8);
        let mut spec = gen.draw();
        spec.pre_agg = PreAggSpec::None;
        spec.dirichlet_alpha = None;
        spec.heterogeneity = false;
        spec.sampling_population = 0;
        spec.sampling_stratified = false;
        let text = to_toml(&spec);
        for key in ["pre_agg", "dirichlet_alpha", "heterogeneity", "sampling"] {
            assert!(
                !text.contains(key),
                "default-shape cases must not grow `{key}`:\n{text}"
            );
        }
        let back = from_toml(&text).unwrap();
        assert_eq!(back.pre_agg, PreAggSpec::None);
        assert_eq!(back.dirichlet_alpha, None);
        assert!(!back.heterogeneity);
        assert_eq!(back.sampling_population, 0);
        assert!(!back.sampling_stratified);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let mut gen = ScenarioGen::new(4);
        let spec = gen.draw();
        let text = format!("# corpus case\n\n{}\n# trailing\n", to_toml(&spec));
        assert_eq!(from_toml(&text).unwrap(), spec);
    }

    #[test]
    fn parse_errors_name_the_offending_key() {
        let mut gen = ScenarioGen::new(7);
        let good = to_toml(&gen.draw());
        let bad = good.replace("seed = ", "seed = x");
        let err = from_toml(&bad).unwrap_err();
        assert!(err.contains("seed"), "{err}");
        let err = from_toml("schema = 9\n").unwrap_err();
        assert!(err.contains("schema 9"), "{err}");
    }

    /// Seeded specs whose corpus text, together, holds every key of the
    /// schema: each agg, pre-agg and attack parameter, the async,
    /// Dirichlet, heterogeneity and sampling keys, and every fault kind,
    /// on a 2-level and a 3-level topology.
    fn specs_with_every_key() -> Vec<ScenarioSpec> {
        let mut gen = ScenarioGen::new(19);
        let mut full = gen.draw();
        full.total_levels = 3;
        full.agg = AggSpec::MultiKrum { f: 1, m: 2 };
        full.pre_agg = PreAggSpec::Bucketing { s: 2 };
        full.attack = AttackSpec::SignFlip { scale: 2.0 };
        full.protocol = ProtocolSpec::StalenessExploit;
        full.deadline_us = Some(4_000);
        full.staleness_bound_us = 1_000;
        full.noniid = false;
        full.dirichlet_alpha = Some(1.0);
        full.heterogeneity = true;
        full.sampling_population = 2 * full.num_clients();
        full.sampling_stratified = true;
        full.faults = vec![
            FaultEvent::CrashStop { at: 0, node: 1 },
            FaultEvent::CrashRecover {
                at: 0,
                node: 2,
                recover: 1,
            },
            FaultEvent::KillLeader { at: 1, cluster: 0 },
            FaultEvent::Straggler {
                at: 0,
                node: 3,
                factor: 4.0,
            },
            FaultEvent::LossBurst {
                at: 0,
                prob: 0.2,
                until: 2,
            },
        ];
        let mut two_level = full.clone();
        two_level.total_levels = 2;
        two_level.agg = AggSpec::TrimmedMean { ratio: 0.2 };
        two_level.pre_agg = PreAggSpec::Nnm { k: 2 };
        two_level.attack = AttackSpec::Mimic { victim: 1 };
        two_level.sampling_population = 2 * two_level.num_clients();
        let mut clipped = gen.draw();
        clipped.agg = AggSpec::CenteredClip { tau: 2.0, iters: 3 };
        vec![full, two_level, clipped]
    }

    /// A corpus case is a file someone may edit by hand: whatever one
    /// value says, parsing, lowering and preparing it is `Ok` or `Err`,
    /// never a panic. Every key is set, one at a time, to 0, 1, the
    /// integer and float maxima, −1, NaN and ±∞ (values a key does not
    /// parse are an `Err` from `from_toml`).
    #[test]
    fn no_corpus_value_panics_from_parse_to_prepare() {
        use abd_hfl_core::runner::Experiment;
        const VALUES: [&str; 8] = [
            "0",
            "1",
            "18446744073709551615",
            "1.7976931348623157e308",
            "-1",
            "NaN",
            "inf",
            "-inf",
        ];
        let mut panicked = Vec::new();
        let (mut prepared, mut refused) = (0, 0);
        for spec in specs_with_every_key() {
            let text = to_toml(&spec);
            let lines: Vec<&str> = text.lines().collect();
            for (at, line) in lines.iter().enumerate() {
                let Some((key, _)) = line.split_once(" = ") else {
                    continue;
                };
                for value in VALUES {
                    let mut edited = lines.clone();
                    let replaced = format!("{key} = {value}");
                    edited[at] = &replaced;
                    let case = edited.join("\n");
                    let outcome = std::panic::catch_unwind(|| {
                        let spec = from_toml(&case).ok()?;
                        Some(Experiment::try_prepare(&spec.to_config()).is_ok())
                    });
                    match outcome {
                        Ok(Some(true)) => prepared += 1,
                        Ok(_) => refused += 1,
                        Err(_) => panicked.push(format!("line {at}: {replaced}\n{case}")),
                    }
                }
            }
        }
        assert!(
            panicked.is_empty(),
            "{} cases panicked:\n{}",
            panicked.len(),
            panicked.join("\n\n")
        );
        assert!(
            prepared > 0 && refused > 0,
            "{prepared} prepared, {refused} refused"
        );
    }
}
