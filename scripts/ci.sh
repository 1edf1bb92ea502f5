#!/usr/bin/env bash
# Local CI gate: run before opening a PR. Mirrors what reviewers check.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings

# Worker-set gate. It alone runs under a timeout: every suite below
# fork-joins on hfl-parallel's parked worker set, and a wedged set hangs
# instead of failing, so its lifecycle tests go first and get to say so.
timeout 300 cargo test -p hfl-parallel --release -q

# `--workspace`, because the root package is only the facade: every
# crate's unit tests, proptests and integration suites are members'.
# Three gates inside this one line are worth naming:
# - Kernel equivalence (tests/kernel_equivalence.rs): every optimized
#   hot kernel (the partner-major distance panel under the Krum family
#   and NNM — krum_scores_match_naive_across_blocks_and_tiles and
#   nnm_matches_the_per_row_scan_it_replaced, over every block and tile
#   shape; hfl-tensor's own
#   dist_sq_pairs_bitwise_matches_dist_sq_on_every_arm runs each vector
#   width the host has — the column-tile kernels under the coordinate
#   rules: coordinate_kernels_match_the_retired_per_column_loops,
#   streaming_rules_match_the_retired_scalar_estimator_and_reservoir,
#   mixed_sign_zero_columns_compare_equal_to_the_retired_loops,
#   trimmed_mean_sums_the_kept_values_ascending_in_f64 and
#   coordinate_rules_match_across_the_parallel_cutoff, over
#   hfl-tensor's column_stat_reads_the_same_bits_at_every_width and
#   hfl-robust's p2_reads_the_same_bits_at_every_width — fused
#   reductions, the block kernels under the dense layer —
#   block_forward_matches_dot_per_row_at_every_width and
#   rank_update_matches_the_retired_axpy_loop_at_every_width over every
#   tile shape, both panel tile caps, block size and vector width the
#   host has; the exact products the forward and the pair fill fuse,
#   over operands at the edges of the exactness argument (the forward
#   test's edge rows, pair_fill_matches_dist_sq_at_the_edges_of_exactness
#   and hfl-tensor's
#   dist_sq_pairs_bitwise_matches_dist_sq_at_the_edges_on_every_arm);
#   a ballot through one stacked panel —
#   a_panel_of_stacked_matrices_is_the_panel_of_their_concatenation and
#   scoring_a_ballot_matches_scoring_each_proposal —
#   prediction_from_logits_matches_argmax_of_softmax over ties,
#   near-ties and non-finite logits, and
#   a_trained_model_predicts_as_argmax_of_softmax_on_the_test_split —
#   the training and scoring paths over them (hfl-ml's
#   loss_and_gradient_bits_match_the_per_row_reference_at_every_batch_size
#   and count_correct_matches_per_sample_predict_on_the_set_and_on_sub_ranges),
#   work-stealing parallel paths, the voter-parallel
#   vote; the training set as a function of the sample index —
#   synth_plan_matches_the_sequential_generator_it_replaced, every
#   sample in descending and strided order and filled from 1/2/3/8
#   threads, over hfl-ml's own rng::tests, which pin the seekable
#   ChaCha12 stream to StdRng word for word, shuffle swap for swap, and
#   to the published zero-key vector) must be byte-identical to its naive
#   reference across thread counts 1/2/4/8 and adversarial values;
#   evidence read from the aggregation must equal the stand-alone
#   recompute; whole runs must be identical at 1/2/4/8 threads.
# - Allocation regression (crates/bench/tests/alloc_regression.rs,
#   steady_state_rounds_allocate_nothing): after a 5-round warmup,
#   BRA rounds perform exactly zero heap allocations on the clean, the
#   faulted, the deadline (every cluster closing a deadline buffer) and
#   the pipelined fixture (the same, on the round clock), at 1 thread
#   and at 2. A single new Vec on the round path
#   — or per buffer, or per fork-join — fails this. So does one in a
#   warm 128 × 4,810 Multi-Krum (wide_multikrum_allocates_nothing_once_warm),
#   and a d-long marker array or a row reservoir on the heap of a
#   sampled round under the streaming rules
#   (sampled_streaming_rounds_keep_their_state_off_the_heap: at most 4
#   allocations and 8 KB a round).
#   Set-up memory rides on the same counters
#   (prepare_holds_the_plan_not_the_training_set): a sampled population
#   prepares in at most 32 B per training sample, the identity cohort
#   holds its training rows once.
# - Vote allocation ceiling (same file,
#   vote_rounds_stay_under_the_allocation_ceiling): a paper_iid round,
#   validation vote on top, performs at most 45 allocations, at 1
#   thread and at 2. A Vec per scored sample (3 200 of them on this
#   fixture) fails this, and so does a weight panel per proposal (16
#   of them) in place of one stacked panel per voter.
cargo test --workspace -q

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Smoke + determinism gate: two same-seed runs of <bin> must produce a
# byte-identical <manifest-file>.
same_seed_gate() {
    local bin="$1" manifests="$2"
    shift 2
    for side in a b; do
        cargo run --release -p hfl-bench --bin "$bin" -- \
            "$@" --seed 42 --out "$tmp/$bin.$side" >/dev/null
    done
    diff "$tmp/$bin.a/$manifests" "$tmp/$bin.b/$manifests" \
        || { echo "$bin manifests differ across same-seed runs"; exit 1; }
    echo "$bin determinism gate passed"
}
# Injected faults, failovers and degraded quorums land in the manifest's fault log.
same_seed_gate repro_faults faults.manifests.jsonl --quick
# The adaptive adversary, suspicion layer and protocol attacks keep state across rounds.
same_seed_gate repro_adaptive adaptive.manifests.jsonl --quick
# Faults and the arms race in one run exercise every engine layer at once.
same_seed_gate repro_combined combined.manifests.jsonl --quick
# Deadline buffers (DESIGN.md §12) synthesize arrivals from a dedicated RNG stream.
same_seed_gate repro_async async.manifests.jsonl --quick --filter deadline
# The gallery grid (§13) has a seeded Dirichlet re-draw loop and AGR bisections.
same_seed_gate repro_gallery gallery.manifests.jsonl --quick
# The pipelined schedule: the engine's round clock draws training, aggregation and link
# delays from seeded streams; the last sweep runs it under faults, suspicion and an adversary.
same_seed_gate repro_efficiency efficiency.manifests.jsonl --quick
# Per-round cohort sampling and lazy shard derivation (§14) at 10⁴ clients.
same_seed_gate repro_scale scale.manifests.jsonl --smoke
test -s "$tmp/repro_scale.a/scale.json" \
    || { echo "repro_scale produced no scale.json"; exit 1; }

# One scheduler: the pipeline is a schedule of the round engine, not a
# second driver on the event simulator, and what is left of pipeline.rs
# is a timing config plus the ν arithmetic.
! grep -rq 'hfl_simnet::engine\|hfl_simnet::trace' crates/core/src crates/faults/src \
    || { echo "crates/core or crates/faults drives the event simulator again"; exit 1; }
test "$(wc -l < crates/core/src/pipeline.rs)" -lt 300 \
    || { echo "crates/core/src/pipeline.rs grew past 300 lines"; exit 1; }

# One dense layer for shared weights: several inputs under one θ go
# through hfl_tensor::ops::Panel a block at a time, a single input over
# the stored f32 rows; there is no widened row-major copy and no kernel
# generic over the element type to keep in step with either, no
# single-input panel kernel beside the block one and no per-input
# choice between the two, and the batch gradient is the rank update,
# not one axpy per (sample, row). (Scoped to the dense path's crates:
# hfl-robust's streaming rule has a `fn widen` of its own, over tile
# rows.)
! grep -rqE 'fn widen|ops::widen|Into<f64>' crates/tensor/src crates/ml/src \
    || { echo "a widened-copy dense path is back beside the panel"; exit 1; }
! grep -rnE 'fn affine_panel\(|Option<&Panel>' crates/tensor/src crates/ml/src \
    || { echo "a single-input panel kernel or a per-input kernel switch is back beside forward_block"; exit 1; }
! sed '/#\[cfg(test)\]/,$d' crates/ml/src/linear.rs crates/ml/src/mlp.rs | grep -n 'axpy' \
    || { echo "linear.rs / mlp.rs accumulate a gradient by axpy again instead of ops::rank_update"; exit 1; }

# One fused product: only a product of two widened f32s is exact in
# f64 (DESIGN.md §15), so only hfl_tensor::ops::add_exact_product —
# under forward_block and dist_sq_pairs — may fuse one into its sum;
# rank_update and axpy multiply in f32 and P² divides. And one scoring
# of a ballot: the accuracy evaluator hands the whole ballot to
# Model::count_correct_each (one stacked panel per voter) and loads no
# proposal into a model of its own.
test "$(sed '/#\[cfg(test)\]/,$d' crates/tensor/src/ops.rs | grep -c 'mul_add')" -eq 1 \
    && ! grep -rn 'mul_add' crates/ml/src crates/robust/src crates/consensus/src \
    || { echo "mul_add outside hfl_tensor::ops::add_exact_product: no other product is exact"; exit 1; }
! sed '/#\[cfg(test)\]/,$d' crates/consensus/src/eval.rs | grep -n 'clone_box\|set_params' \
    || { echo "crates/consensus/src/eval.rs loads proposals into a model clone again instead of scoring the ballot at once"; exit 1; }

# One pairwise-distance fill: the Krum family and NNM read the upper
# triangle hfl_tensor::ops::dist_sq_pairs fills (dist_sq_block stays
# only because the frozen ledger times it). Its body, the column-tile
# kernel's and P²'s run at the CPU's vector width through one helper
# (hfl_tensor::ops::Width::run), whose two calls are the tensor crate's
# only `unsafe`, each made right under the feature detection its SAFETY
# line cites (`fma` included: the wide arms fuse); hfl-robust has none.
! grep -rq 'dist_sq_block' crates/robust/src \
    || { echo "crates/robust calls dist_sq_block beside the pairwise panel kernel again"; exit 1; }
test "$(cat crates/tensor/src/*.rs | grep -c 'unsafe')" -eq 2 \
    && test "$(grep -h -B1 'unsafe' crates/tensor/src/*.rs | grep -c '// SAFETY:')" -eq 2 \
    || { echo "crates/tensor/src must hold exactly two unsafe tokens, each under a // SAFETY: line"; exit 1; }
! grep -rn 'unsafe' crates/robust/src \
    || { echo "crates/robust/src must hold no unsafe"; exit 1; }

# One coordinate-wise kernel: the streaming rules keep their state in
# column tiles on the stack and sort through hfl_tensor::stats, so
# streaming.rs holds no per-coordinate estimator array and no sort of
# its own (the scalar estimator lives on as kernel_equivalence.rs's
# reference).
! sed '/#\[cfg(test)\]/,$d' crates/robust/src/streaming.rs | grep -n 'vec!\[P2Median\|sort_unstable_by' \
    || { echo "crates/robust/src/streaming.rs holds a d-long estimator array or its own sort again"; exit 1; }

# One generator: a sample is a function of its index
# (SynthPlan::sample_into over the seekable stream in hfl_ml::rng); the
# sequential per-split loop lives on only as kernel_equivalence.rs's
# reference. The stream is plain integer code: hfl-ml has no `unsafe`.
! sed '/#\[cfg(test)\]/,$d' crates/ml/src/synth.rs | grep -n 'standard_normal(&mut rng)' \
    || { echo "crates/ml/src/synth.rs draws samples off a sequential rng again"; exit 1; }
! grep -rn 'unsafe' crates/ml/src \
    || { echo "crates/ml/src must hold no unsafe"; exit 1; }

# Snapshot-resume determinism gate: for every fixture class, 20 rounds
# straight through must equal 10 rounds + resume(10 more) from the
# round-10 snapshot, byte-for-byte at the manifest level (the binary
# also pushes the snapshot through its byte codec, so the on-disk
# format is what is proven). See DESIGN.md §11.
for config in clean faulted armed withhold; do
    cargo run --release -p hfl-bench --bin snapshot_resume -- \
        --config "$config" --rounds 20 --at 10 --out "$tmp/snapshot" \
        || { echo "snapshot resume diverged for '$config'"; exit 1; }
    diff "$tmp/snapshot/$config.straight.manifest.json" \
         "$tmp/snapshot/$config.resumed.manifest.json" \
        || { echo "snapshot manifests differ for '$config'"; exit 1; }
done
echo "snapshot resume determinism gate passed"

# Benchmark gate: the ledger (ledger/, the repository's benchmark — see
# BENCHMARK.json) is frozen and times the library through its public
# surface only, so its own tests are the guard that this surface still
# compiles for it; they also smoke-run all six workloads on two seeds.
# (Cargo may prune ledger/Cargo.lock while building; leave that out of
# a commit.)
cargo test --offline --manifest-path ledger/Cargo.toml
echo "ledger gate passed"

# Oracle fuzz gate: a fixed-seed scenario-fuzzing budget (override the
# iteration count with FUZZ_ITERS), then the five mutation self-checks
# — deliberately corrupted observations must be caught by the matching
# oracle and shrunk to a minimal repro (see DESIGN.md §10). Corpus
# replay itself runs inside `cargo test` (tests/oracle_corpus.rs).
# The fuzz pass runs with --snapshots (shrink candidates resume from
# checkpoints); the mutation loop then proves cached and uncached
# shrinking reach the *same* minimal TOML repro.
cargo run --release -p hfl-bench --bin fuzz_oracle -- \
    --iters "${FUZZ_ITERS:-200}" --seed 42 --snapshots
for mutation in quorum conservation determinism staleness defense-bypass; do
    cargo run --release -p hfl-bench --bin fuzz_oracle -- \
        --mutation "$mutation" --seed 42 --out "$tmp/oracle" >/dev/null \
        || { echo "oracle mutation check '$mutation' was not caught"; exit 1; }
    cargo run --release -p hfl-bench --bin fuzz_oracle -- \
        --mutation "$mutation" --seed 42 --snapshots --out "$tmp/oracle-snap" >/dev/null \
        || { echo "oracle mutation check '$mutation' (snapshots) was not caught"; exit 1; }
    diff "$tmp/oracle/mutation_$mutation.toml" "$tmp/oracle-snap/mutation_$mutation.toml" \
        || { echo "snapshot-seeded shrink found a different '$mutation' repro"; exit 1; }
done
echo "oracle fuzz + mutation gates passed"
