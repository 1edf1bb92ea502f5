#!/usr/bin/env bash
# Local CI gate: run before opening a PR. Mirrors what reviewers check.
# Source-shape rules are tests/architecture.rs, which `cargo test` runs.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every dependency is a path in this checkout: a registry crate, or a
# manifest change without its Cargo.lock, fails here first.
cargo build --release --offline --locked
cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Worker-set gate first, under a timeout: a wedged worker set hangs, not fails.
timeout 300 cargo test -p hfl-parallel --release -q
cargo test --workspace -q

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo build --release -p hfl-bench
repro="${CARGO_TARGET_DIR:-target}/release/repro"

# Same-seed runs write byte-identical manifests: faults, arms race, both, deadline
# buffers (DESIGN.md §12), gallery (§13), pipeline, cohort sampling (§14), and the
# vanilla star on the engine (§9; the filter matches IID and non-IID Type I).
same_seed_gate() {
    local name="$1" manifests="$2"
    shift 2
    for side in a b; do
        "$repro" "$name" "$@" --seed 42 --out "$tmp/$name.$side" >/dev/null
    done
    diff "$tmp/$name.a/$manifests" "$tmp/$name.b/$manifests" \
        || { echo "repro $name manifests differ across same-seed runs"; exit 1; }
    echo "repro $name determinism gate passed"
}
same_seed_gate faults faults.manifests.jsonl --quick
same_seed_gate adaptive adaptive.manifests.jsonl --quick
same_seed_gate combined combined.manifests.jsonl --quick
same_seed_gate async async.manifests.jsonl --quick --filter deadline
same_seed_gate gallery gallery.manifests.jsonl --quick
same_seed_gate efficiency efficiency.manifests.jsonl --quick
same_seed_gate table5 table5.manifests.jsonl --quick --filter iid/type1/vanilla
same_seed_gate scale scale.manifests.jsonl --smoke
test -s "$tmp/scale.a/scale.json" \
    || { echo "repro scale produced no scale.json"; exit 1; }

# Benchmark gate: the frozen ledger's tests smoke-run all six workloads; cargo
# may prune ledger/Cargo.lock while building, so the committed one goes back.
cp ledger/Cargo.lock "$tmp/ledger.Cargo.lock"
ledger_status=0
cargo test --offline --manifest-path ledger/Cargo.toml || ledger_status=$?
cp "$tmp/ledger.Cargo.lock" ledger/Cargo.lock
test "$ledger_status" -eq 0 || { echo "ledger gate failed"; exit 1; }
echo "ledger gate passed"

# Oracle fuzz gate (FUZZ_ITERS overrides the budget), then five mutation checks,
# each caught and shrunk (DESIGN.md §10) alike with and without --snapshots.
"$repro" fuzz --iters "${FUZZ_ITERS:-200}" --seed 42 --snapshots
for mutation in quorum conservation determinism staleness defense-bypass; do
    "$repro" fuzz --mutation "$mutation" --seed 42 --out "$tmp/oracle" >/dev/null \
        || { echo "oracle mutation check '$mutation' was not caught"; exit 1; }
    "$repro" fuzz --mutation "$mutation" --seed 42 --snapshots --out "$tmp/oracle-snap" >/dev/null \
        || { echo "oracle mutation check '$mutation' (snapshots) was not caught"; exit 1; }
    diff "$tmp/oracle/mutation_$mutation.toml" "$tmp/oracle-snap/mutation_$mutation.toml" \
        || { echo "snapshot-seeded shrink found a different '$mutation' repro"; exit 1; }
done
echo "oracle fuzz + mutation gates passed"
