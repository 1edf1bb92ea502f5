//! Replays every corpus case in `tests/corpus/` against all seven
//! oracles. Cases land here in two ways: seeded by hand as diverse
//! regression anchors, or persisted automatically by `repro fuzz`
//! when it shrinks a real violation — either way, once a case is in
//! the corpus it must pass forever. Also the harness's self-check:
//! each deliberate [`Mutation`] must trip an oracle and shrink to a
//! corpus case that still trips one.

use std::path::PathBuf;

use abd_hfl::oracle::harness::{check_cached, Mutation, SnapshotCache};
use abd_hfl::oracle::toml::{from_toml, to_toml};
use abd_hfl::oracle::{shrink, ScenarioGen, ScenarioSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every corpus case, sorted by path, with its text.
fn corpus() -> Vec<(PathBuf, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read corpus dir {dir}: {e}"))
        .map(|entry| entry.expect("corpus dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    paths.sort();
    assert!(
        !paths.is_empty(),
        "corpus at {dir} is empty — the seeded cases are missing"
    );
    paths
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            (path, text)
        })
        .collect()
}

#[test]
fn every_corpus_case_upholds_all_seven_oracles() {
    for (path, text) in corpus() {
        let spec =
            from_toml(&text).unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        let (_, violations) = check_cached(&spec, None, &mut SnapshotCache::new())
            .unwrap_or_else(|e| panic!("{} is not a valid scenario: {e}", path.display()));
        assert!(
            violations.is_empty(),
            "{} regressed:\n{}",
            path.display(),
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// True when `spec`'s observations, corrupted by `mutation`, trip an
/// oracle; an invalid spec (a shrink edit orphaning a fault) does not.
fn trips(spec: &ScenarioSpec, mutation: Mutation, cache: &mut SnapshotCache) -> bool {
    matches!(check_cached(spec, Some(mutation), cache), Ok((_, v)) if !v.is_empty())
}

/// `repro fuzz --mutation <name> --seed 42`, in process: the first
/// scenario of `ScenarioGen::new(42)` whose corrupted observations trip
/// an oracle, shrunk, must round-trip through the corpus format and
/// still trip one. A mutation no oracle catches means the oracles are
/// blind to that failure class (`DESIGN.md` §10).
#[test]
fn every_mutation_is_caught_and_shrinks_to_a_case_that_still_trips() {
    let mut cache = SnapshotCache::new();
    for mutation in Mutation::ALL {
        let name = mutation.name();
        let mut gen = ScenarioGen::new(42);
        let caught = (0..50)
            .map(|_| gen.draw())
            .find(|spec| trips(spec, mutation, &mut cache))
            .unwrap_or_else(|| panic!("mutation `{name}` was not caught in 50 scenarios"));
        let minimal = shrink::shrink(&caught, |s| trips(s, mutation, &mut cache));
        let text = to_toml(&minimal);
        let back = from_toml(&text).unwrap_or_else(|e| panic!("`{name}`: {e}\n{text}"));
        assert_eq!(
            back, minimal,
            "`{name}`'s repro changed in the round trip:\n{text}"
        );
        assert!(
            trips(&back, mutation, &mut cache),
            "`{name}`'s minimal repro no longer trips:\n{text}"
        );
    }
}

/// Text that is mostly the corpus format's own tokens, so the parser
/// gets past the first line, or arbitrary bytes — one or the other with
/// even odds.
fn toml_garbage(rng: &mut StdRng) -> String {
    let tokens: Vec<&str> = concat!(
        r#"schema|seed|agg|attack|kind|at|node| = |=| |#|[[fault]]|[fault]|[|]|"|"#,
        r#""krum"|"crash_stop"|"none"|1|-1|0.5|nan|inf|1e999|18446744073709551616|"#,
        "true|\n|\u{3c0}|\u{0}",
    )
    .split('|')
    .collect();
    if rng.gen() {
        let len = rng.gen_range(0usize..64);
        (0..len)
            .map(|_| tokens[rng.gen_range(0..tokens.len())])
            .collect()
    } else {
        let len = rng.gen_range(0usize..256);
        let raw: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
        String::from_utf8_lossy(&raw).into_owned()
    }
}

/// Parses `text`, failing with `case` named if the parser panics.
fn parse_must_not_panic(case: u64, text: &str) {
    let parsed = std::panic::catch_unwind(|| from_toml(text));
    assert!(
        parsed.is_ok(),
        "case {case}: from_toml panicked on {text:?}"
    );
}

// Malformed input is an `Err`, never a panic: a corpus case is a file
// someone may have edited by hand. Each property runs 256 cases; case
// `c` draws its input from `StdRng::seed_from_u64(c)`.

#[test]
fn from_toml_never_panics_on_garbage() {
    for case in 0..256 {
        let text = toml_garbage(&mut StdRng::seed_from_u64(case));
        parse_must_not_panic(case, &text);
    }
}

#[test]
fn from_toml_never_panics_on_a_corpus_case_with_one_line_damaged() {
    let corpus = corpus();
    for case in 0..256 {
        let mut rng = StdRng::seed_from_u64(case);
        let line: usize = rng.gen();
        let garble = toml_garbage(&mut rng);
        for (_, text) in &corpus {
            let lines: Vec<&str> = text.lines().collect();
            let at = line % lines.len();
            let mut removed = lines.clone();
            removed.remove(at);
            parse_must_not_panic(case, &removed.join("\n"));
            let mut garbled = lines;
            garbled[at] = &garble;
            parse_must_not_panic(case, &garbled.join("\n"));
        }
    }
}
