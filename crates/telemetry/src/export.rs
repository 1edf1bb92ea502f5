//! The exporter behind every `repro` experiment: manifests as JSONL (one
//! [`RunManifest`] per line).
//!
//! The writer returns `io::Result` — `repro` decides how to surface
//! failures (it exits non-zero with the path); library code must not
//! panic on a full disk.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::manifest::RunManifest;

/// Writes `manifests` to `dir/name.manifests.jsonl`, one JSON document
/// per line, creating `dir` if needed. Returns the written path.
pub fn write_manifests_jsonl(
    dir: &Path,
    name: &str,
    manifests: &[RunManifest],
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.manifests.jsonl"));
    let mut out = String::new();
    for m in manifests {
        out.push_str(&m.to_json());
        out.push('\n');
    }
    fs::write(&path, out)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::{fnv1a_hex, RoundRecord, RunTotals};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hfl-telemetry-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn manifest(label: &str, seed: u64) -> RunManifest {
        let mut m = RunManifest::new(label, seed, fnv1a_hex(label.as_bytes()));
        m.rounds.push(RoundRecord {
            round: 1,
            accuracy: Some(0.5),
            messages: 10,
            bytes: 40,
            excluded: 0,
            absent: 0,
        });
        m.totals = RunTotals {
            messages: 10,
            bytes: 40,
            excluded: 0,
            absent: 0,
        };
        m.final_accuracy = 0.5;
        m
    }

    #[test]
    fn manifests_roundtrip_through_jsonl() {
        let dir = temp_dir("jsonl");
        let written = vec![manifest("a", 1), manifest("b", u64::MAX)];
        let path = write_manifests_jsonl(&dir, "run", &written).unwrap();
        assert!(path.ends_with("run.manifests.jsonl"));
        let read: Vec<RunManifest> = fs::read_to_string(&path)
            .unwrap()
            .lines()
            .map(|line| RunManifest::from_json(line).unwrap())
            .collect();
        assert_eq!(read, written);
        fs::remove_dir_all(&dir).unwrap();
    }
}
