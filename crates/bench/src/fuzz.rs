//! `repro fuzz`: draws random-but-seeded scenarios, runs each through
//! the round engine, and holds every run to the seven `hfl-oracle`
//! invariants (quorum safety, accounting conservation, determinism,
//! Byzantine degradation bound, honest-quarantine bound, deadline-buffer
//! liveness, staleness safety).
//!
//! ```sh
//! # CI budget (also the acceptance gate):
//! repro fuzz --iters 200 --seed 42
//!
//! # Prove the oracles catch a broken quorum rule, end to end:
//! repro fuzz --mutation quorum --seed 42
//! ```
//!
//! On a real violation the failing scenario is shrunk to a minimal
//! spec and persisted as a TOML case under `tests/corpus/`, which
//! `tests/oracle_corpus.rs` replays forever after. `--mutation` runs
//! the same pipeline against deliberately corrupted observations (the
//! harness's self-check, see `DESIGN.md` §10) and writes its repro
//! under `target/oracle/` instead — the corpus is reserved for real
//! engine failures.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hfl_oracle::harness::{check_cached, Mutation, SnapshotCache};
use hfl_oracle::scenario::{ScenarioGen, ScenarioSpec};
use hfl_oracle::{shrink, toml};

use crate::report::write_or_exit;
use crate::Args;

/// Tallies which attack/defense families the stream exercised, so the
/// fuzz log attests gallery coverage (a family the generator silently
/// stopped drawing would show up as a zero here).
#[derive(Default)]
struct Coverage {
    families: BTreeMap<String, usize>,
}

impl Coverage {
    fn record(&mut self, spec: &ScenarioSpec) {
        let mut families = vec![
            format!("attack:{}", spec.attack.name()),
            format!("agg:{}", spec.agg.name()),
            format!("pre_agg:{}", spec.pre_agg.name()),
        ];
        for (drawn, family) in [
            (spec.dirichlet_alpha.is_some(), "data:dirichlet"),
            (spec.heterogeneity, "net:heterogeneity"),
            (spec.sampling_population > 0, "pop:sampled"),
        ] {
            if drawn {
                families.push(family.to_string());
            }
        }
        for family in families {
            *self.families.entry(family).or_insert(0) += 1;
        }
    }

    fn report(&self) {
        let line: Vec<String> = self
            .families
            .iter()
            .map(|(family, n)| format!("{family}={n}"))
            .collect();
        println!("family coverage: {}", line.join(" "));
    }
}

/// Re-runs a shrink candidate under the active mutation; invalid specs
/// (a topology edit orphaning a fault) count as "does not fail".
fn still_fails(spec: &ScenarioSpec, mutation: Option<Mutation>, cache: &mut SnapshotCache) -> bool {
    matches!(check_cached(spec, mutation, cache), Ok((_, v)) if !v.is_empty())
}

/// Runs the fuzzer: exit 0 when every scenario upholds the oracles (or
/// the mutation is caught), 1 otherwise.
pub fn run(args: &Args) -> ExitCode {
    let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let corpus_dir = args
        .corpus_dir
        .as_ref()
        .map_or(workspace.join("tests/corpus"), PathBuf::from);
    let out_dir = args
        .out
        .as_ref()
        .map_or(workspace.join("target/oracle"), PathBuf::from);
    let mut gen = ScenarioGen::new(args.seed);
    let mut cache = SnapshotCache::new();

    if let Some(mutation) = args.mutation {
        // Self-check mode: corrupted observations MUST trip an oracle.
        for i in 0..args.iters.max(1) {
            let spec = gen.draw();
            let (_, violations) = check_cached(&spec, Some(mutation), &mut cache)
                .expect("generated spec must be valid");
            if violations.is_empty() {
                continue;
            }
            println!(
                "mutation `{}` caught at iteration {i}: {}",
                mutation.name(),
                violations[0]
            );
            let minimal = shrink::shrink(&spec, |s| still_fails(s, Some(mutation), &mut cache));
            let file = format!("mutation_{}.toml", mutation.name());
            let path = write_or_exit(&out_dir, &file, &toml::to_toml(&minimal));
            println!(
                "minimal repro ({} clients, {} rounds): {}",
                minimal.num_clients(),
                minimal.rounds,
                path.display()
            );
            println!("rounds executed: {}", cache.rounds_executed);
            return ExitCode::SUCCESS;
        }
        eprintln!(
            "mutation `{}` was NOT caught in {} iterations — the oracles are blind to it",
            mutation.name(),
            args.iters
        );
        return ExitCode::FAILURE;
    }

    let mut coverage = Coverage::default();
    for i in 0..args.iters {
        let spec = gen.draw();
        coverage.record(&spec);
        let (_, violations) =
            check_cached(&spec, None, &mut cache).expect("generated spec must be valid");
        if violations.is_empty() {
            if (i + 1) % 25 == 0 {
                println!("{}/{} scenarios clean", i + 1, args.iters);
            }
            continue;
        }
        eprintln!("iteration {i} (seed {}) violated:", args.seed);
        for v in &violations {
            eprintln!("  {v}");
        }
        eprintln!("shrinking...");
        let minimal = shrink::shrink(&spec, |s| still_fails(s, None, &mut cache));
        let file = format!("fuzz_seed{}_iter{i}.toml", args.seed);
        let path = write_or_exit(&corpus_dir, &file, &toml::to_toml(&minimal));
        eprintln!(
            "minimal repro ({} clients, {} rounds) persisted to {} — \
             replayed by tests/oracle_corpus.rs",
            minimal.num_clients(),
            minimal.rounds,
            path.display()
        );
        println!("rounds executed: {}", cache.rounds_executed);
        return ExitCode::FAILURE;
    }
    println!(
        "all {} scenarios upheld the seven oracles (seed {})",
        args.iters, args.seed
    );
    coverage.report();
    println!("rounds executed: {}", cache.rounds_executed);
    ExitCode::SUCCESS
}
