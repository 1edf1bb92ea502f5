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

# The class-major forward compiles wide (DESIGN.md §15): the AVX-512 body
# that `forward_class_major_at` calls, directly or through `Width::run`,
# holds packed `zmm` FMAs. A kernel that is not inlined into that body —
# passed as a function item, say — runs at the baseline width and leaves
# none. x86_64 only: elsewhere there is no AVX-512 body to read.
wide_gate() {
    local asm="$tmp/repro.s" calls run body fmas=0
    objdump -d --no-show-raw-insn "$1" > "$asm"
    calls="$(awk '/^[0-9a-f]+ <.*>:/{n=$2} /call/ && n ~ /forward_class_major_at/ {print $NF}' "$asm")"
    run="$(grep -m1 'Width3run17h' <<< "$calls" || true)"
    if [ -n "$run" ]; then
        calls="$(awk -v r="$run:" '/^[0-9a-f]+ <.*>:/{f = ($2 == r)} f && /call/ {print $NF}' "$asm")"
    fi
    body="$(grep -m1 'Width3run6avx512' <<< "$calls" || true)"
    if [ -n "$body" ]; then
        fmas="$(awk -v h="$body:" '/^[0-9a-f]+ <.*>:/{f = ($2 == h)} f && /vfmadd[0-9]+pd.*zmm/' "$asm" | wc -l)"
    fi
    [ "$fmas" -gt 0 ] \
        || { echo "forward_class_major's AVX-512 body holds no zmm vfmadd (${body:-no body found})"; exit 1; }
    echo "class-major forward wide gate passed ($fmas zmm vfmadd)"
}
if [ "$(uname -m)" = x86_64 ]; then
    wide_gate "$repro"
fi

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

# Oracle fuzz gate (FUZZ_ITERS overrides the budget). The five mutation
# self-checks (DESIGN.md §10) are tests/oracle_corpus.rs, which `cargo test` runs.
"$repro" fuzz --iters "${FUZZ_ITERS:-200}" --seed 42
echo "oracle fuzz gate passed"
