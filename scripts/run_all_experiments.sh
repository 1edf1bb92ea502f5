#!/usr/bin/env bash
# Regenerates every table and figure of the ABD-HFL paper (DESIGN.md §3).
# Full fidelity run:   ./scripts/run_all_experiments.sh
# Smoke run:           ./scripts/run_all_experiments.sh --quick
set -uo pipefail
EXTRA="${1:-}"
OUT=results
BIN=target/release
mkdir -p "$OUT"
run() {
  local name="$1"; shift
  echo "=== $name ==="
  "$BIN/$name" "$@" $EXTRA > "$OUT/$name.md" 2> "$OUT/$name.log" || echo "FAILED: $name"
}
cargo build --release -p hfl-bench
run repro_table5 --rounds 100 --reps 3 --out "$OUT"
run repro_fig3 --rounds 100 --reps 3 --out "$OUT"
run repro_tolerance --out "$OUT"
run repro_schemes --out "$OUT"
run repro_attacks --out "$OUT"
run repro_defenses --out "$OUT"
run repro_efficiency --out "$OUT"
run repro_robustness_ablation --out "$OUT"
run repro_async --out "$OUT"
run repro_acsm --out "$OUT"
run repro_faults --out "$OUT"
run repro_adaptive --out "$OUT"
run repro_combined --out "$OUT"
run repro_gallery --out "$OUT"
run snapshot_resume --out "$OUT/snapshot"
# fuzz_oracle and bisect_divergence take no --quick flag; run them bare.
echo "=== fuzz_oracle ==="
iters=200; [ "$EXTRA" = "--quick" ] && iters=50
"$BIN/fuzz_oracle" --iters "$iters" --seed 42 --snapshots \
    > "$OUT/fuzz_oracle.md" 2> "$OUT/fuzz_oracle.log" || echo "FAILED: fuzz_oracle"
echo "=== bisect_divergence ==="
"$BIN/bisect_divergence" \
    --manifest-a "$OUT/snapshot/clean.straight.manifest.json" \
    --manifest-b "$OUT/snapshot/clean.resumed.manifest.json" \
    > "$OUT/bisect_divergence.md" 2> "$OUT/bisect_divergence.log" \
    || echo "FAILED: bisect_divergence"
echo "all experiments done; markdown in $OUT/*.md, raw data in $OUT/*.csv"
