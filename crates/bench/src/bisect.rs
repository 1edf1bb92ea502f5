//! `repro bisect`: given two runs that *should* agree, find the first
//! round where they stop agreeing.
//!
//! ```sh
//! # Manifest mode — compare two saved `RunManifest` JSON files:
//! repro bisect --manifest-a a.manifest.json --manifest-b b.manifest.json
//!
//! # Spec mode — run two scenario TOMLs (the corpus format) with
//! # per-round snapshot capture and compare the *full engine state*
//! # (model bytes, layer state, accounting) round by round, which
//! # catches silent divergences the manifest never surfaces:
//! repro bisect --spec-a tests/corpus/a.toml --spec-b tests/corpus/b.toml
//! ```
//!
//! Exit code: 0 when the runs agree, 1 when a divergence is found
//! (printed with its round and first differing component), 2 on usage
//! errors and on a file that cannot be read or parsed.

use std::process::ExitCode;

use abd_hfl_core::runner::{run_prepared_snapshotting, Experiment};
use hfl_oracle::toml;
use hfl_snapshot::{first_divergence, Divergence, EngineSnapshot};
use hfl_telemetry::{RunManifest, Telemetry};

/// What to compare.
pub enum Pair<'a> {
    /// Two saved run manifests (JSON).
    Manifests(&'a str, &'a str),
    /// Two scenario specs (TOML), run with per-round snapshots.
    Specs(&'a str, &'a str),
}

/// Finds the first divergence. `Err` names the file that could not be read or
/// parsed.
pub fn run(pair: Pair) -> Result<ExitCode, String> {
    match pair {
        Pair::Manifests(a, b) => Ok(manifest_mode(&read_manifest(a)?, &read_manifest(b)?)),
        Pair::Specs(a, b) => Ok(spec_mode(&capture(a)?, &capture(b)?)),
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn read_manifest(path: &str) -> Result<RunManifest, String> {
    RunManifest::from_json(read(path)?.trim())
        .map_err(|e| format!("{path} is not a run manifest: {e}"))
}

fn report(d: &Divergence) {
    println!("first divergence: round {} ({})", d.round, d.component);
    println!("  a: {}", summarize(&d.a));
    println!("  b: {}", summarize(&d.b));
}

/// Keeps terminal output sane when the differing component renders
/// large (a full metrics dump, a long event list).
fn summarize(s: &str) -> String {
    const LIMIT: usize = 200;
    let line = s.lines().next().unwrap_or("");
    if line.len() > LIMIT {
        let cut = (0..=LIMIT)
            .rev()
            .find(|&i| line.is_char_boundary(i))
            .unwrap_or(0);
        format!("{}… ({} bytes)", &line[..cut], s.len())
    } else if s.lines().count() > 1 {
        format!("{}… ({} lines)", line, s.lines().count())
    } else {
        line.to_string()
    }
}

fn manifest_mode(ma: &RunManifest, mb: &RunManifest) -> ExitCode {
    match first_divergence(ma, mb) {
        Some(d) => {
            report(&d);
            ExitCode::FAILURE
        }
        None => {
            println!(
                "manifests are byte-identical over {} rounds",
                ma.rounds.len()
            );
            ExitCode::SUCCESS
        }
    }
}

/// Runs one spec capturing a snapshot after every round, the last
/// included; the snapshot stream is the run's full state trajectory.
fn capture(path: &str) -> Result<Vec<EngineSnapshot>, String> {
    let spec =
        toml::from_toml(&read(path)?).map_err(|e| format!("{path} is not a scenario spec: {e}"))?;
    let exp = Experiment::try_prepare(&spec.to_config()).map_err(|e| format!("{path}: {e}"))?;
    let (telem, _rec) = Telemetry::recording();
    Ok(run_prepared_snapshotting(&exp, &telem, 1).1)
}

/// The snapshot's engine state: its bytes with the header (version,
/// seed and config hashes) blanked, so two specs that differ only in
/// config agree until their state does.
fn state_bytes(s: &EngineSnapshot) -> Vec<u8> {
    EngineSnapshot {
        version: 0,
        seed: 0,
        config_hash: String::new(),
        base_hash: String::new(),
        ..s.clone()
    }
    .to_bytes()
}

fn spec_mode(sa: &[EngineSnapshot], sb: &[EngineSnapshot]) -> ExitCode {
    let len = sa.len().max(sb.len());
    let first = (0..len).find(|&i| match (sa.get(i), sb.get(i)) {
        (Some(x), Some(y)) => state_bytes(x) != state_bytes(y),
        _ => true,
    });
    match first {
        Some(i) => {
            match (sa.get(i), sb.get(i)) {
                (Some(x), Some(y)) => {
                    let what = if x.model != y.model {
                        "model parameters"
                    } else if x.layers != y.layers {
                        "layer state"
                    } else if x.rounds != y.rounds {
                        "round records"
                    } else {
                        "accounting/metrics"
                    };
                    println!(
                        "first divergence: engine state after round {} ({what})",
                        i + 1
                    );
                }
                _ => println!("first divergence: run lengths differ at round {}", i + 1),
            }
            ExitCode::FAILURE
        }
        None => {
            println!("engine state identical after every one of {len} rounds");
            ExitCode::SUCCESS
        }
    }
}
