//! Differential kernel-equivalence suite — the hot-path overhaul's
//! safety net. Every optimized kernel (the partner-major pairwise
//! distance panel under Krum scoring and NNM, the column-tile kernels
//! under median, trimmed mean and the P² streaming median, fused
//! axpy/mean reductions, work-stealing parallel aggregation paths) is
//! pinned **byte-identical** to a retained naive reference over random
//! shapes — and, for the distance panel and the column tiles, a seeded
//! grid of every block and tile shape — thread counts ∈ {1, 2, 4, 8},
//! and adversarial values (NaN, ±∞, subnormals, signed zeros).
//!
//! "Byte-identical" is literal. f64 distances compare on `to_bits`
//! even for NaN: `dist_sq` and the kernels pinned to it
//! (`dist_sq_pairs`, `dist_sq_block`) canonicalize any NaN
//! accumulator to the positive quiet NaN, so payloads match exactly.
//! f32 mean kernels compare exact bits for non-NaN and accept
//! any-NaN-vs-any-NaN (the fused and naive summation trees can reach
//! differently-signed NaN payloads through `inf − inf`, which no
//! downstream consumer distinguishes).
//!
//! Thread-count invariance is the work-stealing determinism contract
//! (DESIGN.md §15): stealing only moves *which worker* computes a
//! chunk, never what is computed or where it lands.
//!
//! The dense layer under training and the validation vote is pinned
//! the same way: the block kernel (`forward_block`, four inputs in
//! lock step under a panel) and the single-input `affine_rows` against
//! `dot` + bias per row, the rank update against the per-(input, row)
//! `axpy` loop it replaced, prediction from logits against
//! `argmax(softmax)` — the first two at every vector width the host
//! has — the models' forward passes against the per-row loops they
//! replaced (kept here as executable references), a ballot scored
//! through one stacked panel against one model load per proposal,
//! `score_all` against per-proposal `score`, and the voter-parallel
//! mechanisms against their own single-threaded outcome. The two
//! kernels that fuse an exact product into its sum (`forward_block`,
//! `dist_sq_pairs`) also run over operands at the edges of the
//! exactness argument.
//!
//! The cluster step's evidence is pinned the same way: verdicts read
//! from the aggregation that just ran (`judge_aggregated`) against the
//! stand-alone recompute it replaced (kept here as the reference), and
//! whole runs against themselves across thread counts — the training
//! step has one body at any worker count.

use proptest::collection::vec as pvec;
use proptest::prelude::*;

use abd_hfl::attacks::{AdaptiveAttack, ModelAttack, Placement, ProtocolAttack};
use abd_hfl::consensus::eval::AccuracyEvaluator;
use abd_hfl::consensus::{
    CommitteeConsensus, Consensus, DistanceEvaluator, ProposalEvaluator, StakeVote, VoteConsensus,
};
use abd_hfl::core::config::{AsyncRoundCfg, AttackCfg, HflConfig, SamplingCfg};
use abd_hfl::core::engine::RoundEngine;
use abd_hfl::core::pipeline::PipelineConfig;
use abd_hfl::core::runner::{run_engine, run_prepared_with, Experiment};
use abd_hfl::faults::FaultPlan;
use abd_hfl::ml::loss::{argmax, predict, softmax_in_place};
use abd_hfl::ml::model::BatchScratch;
use abd_hfl::ml::synth::SynthConfig;
use abd_hfl::ml::{Dataset, LinearSoftmax, Mlp, Model};
use abd_hfl::robust::evidence::{
    self, Acceptance, KRUM_STRIKE_GATE, STRIKE_RUNNER_UP, STRIKE_WORST,
};
use abd_hfl::robust::geomed::GeoMed;
use abd_hfl::robust::krum::{self, reference as krum_reference};
use abd_hfl::robust::{
    median, trimmed_mean, AggScratch, AggregatorKind, MultiKrum, PreAggregation, SuspicionConfig,
    TrimmedMean,
};
use abd_hfl::telemetry::Telemetry;
use abd_hfl::tensor::ops::{self, reference};
use abd_hfl::tensor::stats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Held by each test that sweeps the process-wide thread override.
static THREAD_OVERRIDE: Mutex<()> = Mutex::new(());

fn bits_eq_f32(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Full adversarial value domain, NaN included.
fn adversarial_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        -100.0f32..100.0,
        -1.0e30f32..1.0e30,
        Just(0.0f32),
        Just(-0.0f32),
        Just(f32::NAN),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
        Just(1.0e-40f32),
        Just(-4.7e-42f32),
        Just(f32::MIN_POSITIVE),
    ]
}

/// Adversarial minus NaN, for kernels whose sort comparators reject
/// unordered values by contract (`median_in_place`,
/// `trimmed_mean_in_place`).
fn ordered_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        -100.0f32..100.0,
        -1.0e30f32..1.0e30,
        Just(0.0f32),
        Just(-0.0f32),
        Just(f32::INFINITY),
        Just(f32::NEG_INFINITY),
        Just(1.0e-40f32),
        Just(-4.7e-42f32),
    ]
}

/// `n` rows of dimension `d`, both random, values from `elem`.
fn rows_of(
    elem: fn() -> BoxedStrategy<f32>,
    max_n: usize,
    max_d: usize,
) -> impl Strategy<Value = Vec<Vec<f32>>> {
    (1usize..=max_n, 1usize..=max_d).prop_flat_map(move |(n, d)| pvec(pvec(elem(), d), n))
}

fn adv_elem() -> BoxedStrategy<f32> {
    adversarial_f32().boxed()
}

fn ord_elem() -> BoxedStrategy<f32> {
    ordered_f32().boxed()
}

fn as_refs(rows: &[Vec<f32>]) -> Vec<&[f32]> {
    rows.iter().map(|r| r.as_slice()).collect()
}

/// Softmax-then-argmax over naive logits — `LinearSoftmax::predict`'s
/// retired per-row loop. `theta` is `[W (k×d) | b (k)]`.
fn linear_predict_naive(theta: &[f32], classes: usize, x: &[f32]) -> u8 {
    let (w, b) = theta.split_at(classes * x.len());
    let mut probs = reference::affine_naive(w, b, x);
    softmax_in_place(&mut probs);
    argmax(&probs) as u8
}

/// `Mlp::predict`'s retired per-row loops. `theta` is
/// `[W1 (h×d) | b1 (h) | W2 (k×h) | b2 (k)]`.
fn mlp_predict_naive(theta: &[f32], hidden: usize, classes: usize, x: &[f32]) -> u8 {
    let (w1, rest) = theta.split_at(hidden * x.len());
    let (b1, rest) = rest.split_at(hidden);
    let (w2, b2) = rest.split_at(classes * hidden);
    let mut h = reference::affine_naive(w1, b1, x);
    h.iter_mut().for_each(|z| *z = z.max(0.0));
    let mut probs = reference::affine_naive(w2, b2, &h);
    softmax_in_place(&mut probs);
    argmax(&probs) as u8
}

/// `n` samples of dimension `d` over `classes` labels, flat features
/// drawn from `xs` (cycled) so one strategy sizes every shape.
fn dataset_from(xs: &[f32], labels: &[u8], n: usize, d: usize, classes: usize) -> Dataset {
    let feats: Vec<f32> = xs.iter().cycle().take(n * d).copied().collect();
    let ys: Vec<u8> = labels
        .iter()
        .cycle()
        .take(n)
        .map(|y| y % classes as u8)
        .collect();
    Dataset::from_parts(d, classes, feats, ys)
}

/// Checks `count_correct` on the whole set and on `rows` against the
/// naive per-sample predictions.
fn count_correct_matches(
    model: &dyn Model,
    data: &Dataset,
    naive: &[u8],
    rows: std::ops::Range<usize>,
) -> Result<(), TestCaseError> {
    let mut scratch = BatchScratch::default();
    for (i, want) in naive.iter().enumerate() {
        prop_assert_eq!(
            model.predict(data.x(i), &mut scratch),
            *want,
            "sample {}",
            i
        );
    }
    let hits = |r: std::ops::Range<usize>| r.filter(|&i| naive[i] == data.y(i)).count();
    prop_assert_eq!(
        model.count_correct(data, 0..data.len(), &mut scratch),
        hits(0..data.len())
    );
    prop_assert_eq!(
        model.count_correct(data, rows.clone(), &mut scratch),
        hits(rows)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Tiled distance rows == one naive `dist_sq` per row, exact f64
    /// bits (NaN canonicalization makes even NaN payloads equal).
    #[test]
    fn dist_sq_block_matches_naive(rows in rows_of(adv_elem, 12, 48), a in pvec(adversarial_f32(), 48)) {
        let d = rows[0].len();
        let a = &a[..d];
        let refs = as_refs(&rows);
        let mut blocked = vec![0.0f64; refs.len()];
        let mut naive = vec![0.0f64; refs.len()];
        ops::dist_sq_block(a, &refs, &mut blocked);
        reference::dist_sq_rows_naive(a, &refs, &mut naive);
        for (i, (b, n)) in blocked.iter().zip(&naive).enumerate() {
            prop_assert_eq!(
                b.to_bits(), n.to_bits(),
                "row {}: blocked {} vs naive {}", i, b, n
            );
        }
    }

    /// Krum scoring through the blocked upper-triangle matrix, at every
    /// thread count, == the retained pre-overhaul full-matrix scorer.
    #[test]
    fn krum_scores_match_naive_at_all_thread_counts(
        rows in rows_of(adv_elem, 12, 32),
        f in 0usize..4,
    ) {
        let refs = as_refs(&rows);
        let naive = krum_reference::krum_scores_naive(&refs, f, 1);
        for &t in &THREADS {
            let fast = krum::krum_scores_with_threads(&refs, f, t);
            prop_assert_eq!(fast.len(), naive.len());
            for (i, (a, b)) in fast.iter().zip(&naive).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "score {} at {} threads: {} vs naive {}", i, t, a, b
                );
            }
        }
    }

    /// Fused single-pass mean == zero/add/scale naive mean.
    #[test]
    fn mean_of_matches_naive(rows in rows_of(adv_elem, 12, 48)) {
        let d = rows[0].len();
        let refs = as_refs(&rows);
        let mut fused = vec![0.0f32; d];
        let mut naive = vec![0.0f32; d];
        ops::mean_of(&refs, &mut fused);
        reference::mean_of_naive(&refs, &mut naive);
        for (i, (a, b)) in fused.iter().zip(&naive).enumerate() {
            prop_assert!(bits_eq_f32(*a, *b), "coord {}: fused {} vs naive {}", i, a, b);
        }
    }

    /// Fused weighted mean == per-row axpy naive weighted mean.
    #[test]
    fn weighted_mean_of_matches_naive(
        rows in rows_of(adv_elem, 12, 48),
        raw_w in pvec(0.01f32..10.0, 12),
    ) {
        let d = rows[0].len();
        let refs = as_refs(&rows);
        let w = &raw_w[..refs.len()];
        let mut fused = vec![0.0f32; d];
        let mut naive = vec![0.0f32; d];
        ops::weighted_mean_of(&refs, w, &mut fused);
        reference::weighted_mean_of_naive(&refs, w, &mut naive);
        for (i, (a, b)) in fused.iter().zip(&naive).enumerate() {
            prop_assert!(bits_eq_f32(*a, *b), "coord {}: fused {} vs naive {}", i, a, b);
        }
    }

    /// Indexed (gather) mean == naive mean over the gathered subset.
    #[test]
    fn mean_of_indexed_matches_naive_on_subset(
        rows in rows_of(adv_elem, 12, 48),
        picks in pvec(0usize..12, 1..12),
    ) {
        let d = rows[0].len();
        let refs = as_refs(&rows);
        let idx: Vec<usize> = picks.iter().map(|p| p % refs.len()).collect();
        let subset: Vec<&[f32]> = idx.iter().map(|&i| refs[i]).collect();
        let mut fused = vec![0.0f32; d];
        let mut naive = vec![0.0f32; d];
        ops::mean_of_indexed(&refs, &idx, &mut fused);
        reference::mean_of_naive(&subset, &mut naive);
        for (i, (a, b)) in fused.iter().zip(&naive).enumerate() {
            prop_assert!(bits_eq_f32(*a, *b), "coord {}: indexed {} vs naive {}", i, a, b);
        }
    }

    /// Fused multi-row axpy == one scalar axpy per row.
    #[test]
    fn axpy_rows_matches_per_row_axpy(
        rows in rows_of(adv_elem, 12, 48),
        raw_w in pvec(-10.0f32..10.0, 12),
    ) {
        let d = rows[0].len();
        let refs = as_refs(&rows);
        let w = &raw_w[..refs.len()];
        let mut fused = vec![0.0f32; d];
        let mut naive = vec![0.0f32; d];
        ops::axpy_rows(w, &refs, &mut fused);
        for (r, &wi) in refs.iter().zip(w) {
            ops::axpy(wi, r, &mut naive);
        }
        for (i, (a, b)) in fused.iter().zip(&naive).enumerate() {
            prop_assert!(bits_eq_f32(*a, *b), "coord {}: fused {} vs naive {}", i, a, b);
        }
    }

    /// Work-stealing coordinate median, at every thread count, == the
    /// sequential per-coordinate kernel.
    #[test]
    fn coordinate_median_parallel_matches_sequential(rows in rows_of(ord_elem, 9, 40)) {
        let d = rows[0].len();
        let refs = as_refs(&rows);
        let mut seq = vec![0.0f32; d];
        stats::coordinate_median(&refs, &mut seq);
        for &t in &THREADS {
            let mut par = vec![0.0f32; d];
            median::coordinate_median_parallel(&refs, &mut par, t);
            for (i, (a, b)) in par.iter().zip(&seq).enumerate() {
                prop_assert!(
                    bits_eq_f32(*a, *b),
                    "coord {} at {} threads: {} vs sequential {}", i, t, a, b
                );
            }
        }
    }

    /// Work-stealing coordinate trimmed mean, at every thread count, ==
    /// the sequential per-coordinate kernel.
    #[test]
    fn coordinate_trimmed_mean_parallel_matches_sequential(
        rows in rows_of(ord_elem, 9, 40),
        trim_pick in 0usize..4,
    ) {
        let d = rows[0].len();
        let refs = as_refs(&rows);
        let trim = trim_pick.min((refs.len() - 1) / 2);
        let mut seq = vec![0.0f32; d];
        stats::coordinate_trimmed_mean(&refs, trim, &mut seq);
        for &t in &THREADS {
            let mut par = vec![0.0f32; d];
            trimmed_mean::coordinate_trimmed_mean_parallel(&refs, trim, &mut par, t);
            for (i, (a, b)) in par.iter().zip(&seq).enumerate() {
                prop_assert!(
                    bits_eq_f32(*a, *b),
                    "coord {} at {} threads (trim {}): {} vs sequential {}", i, t, trim, a, b
                );
            }
        }
    }

    /// The Weiszfeld loop's work-stealing distance fill at every thread
    /// count == its single-threaded run, iteration count included.
    #[test]
    fn geomed_identical_at_all_thread_counts(rows in rows_of(adv_elem, 9, 32)) {
        let refs = as_refs(&rows);
        let gm = GeoMed::default();
        let mut base = Vec::new();
        let base_iters = gm.compute_into(&refs, 1, &mut base, &mut AggScratch::default());
        for &t in &THREADS[1..] {
            let mut est = Vec::new();
            let iters = gm.compute_into(&refs, t, &mut est, &mut AggScratch::default());
            prop_assert_eq!(iters, base_iters, "iteration count diverged at {} threads", t);
            for (i, (a, b)) in est.iter().zip(&base).enumerate() {
                prop_assert!(
                    bits_eq_f32(*a, *b),
                    "coord {} at {} threads: {} vs single-threaded {}", i, t, a, b
                );
            }
        }
    }
}

/// Row counts around the distance kernel's partner block (8: under
/// one, exactly one, one and a bit, several, `agg_wide`'s sixteen) and
/// row lengths around its panel tile (256: under, exact, one over,
/// paper-sized, several) — shapes the random strategies above, capped
/// at 12 rows × 48 coordinates, never reach.
const PAIR_GRID_N: [usize; 10] = [1, 2, 3, 4, 7, 8, 9, 17, 33, 128];
const PAIR_GRID_D: [usize; 7] = [1, 7, 255, 256, 257, 650, 1031];

/// Deterministic rows for the grid (the generator of `hfl-tensor`'s
/// own arm-by-arm test): full-mantissa values across twenty binades,
/// so a sum of squares rounds at nearly every step and any reordering
/// shows in the last bits; subnormals and signed zeros everywhere;
/// every fourth row poisoned — `+∞` alone, or NaN and `±∞` mixed.
fn grid_rows(n: usize, d: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..d)
                .map(|c| {
                    let mut x = ((i as u64) << 32 | c as u64)
                        .wrapping_add(1)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    x ^= x >> 29;
                    let finite = f32::from_bits(
                        ((x >> 20) as u32 & 0x807f_ffff) | (117 + (x % 21) as u32) << 23,
                    );
                    match (i % 8, x % 16) {
                        (3, 0) => f32::INFINITY,
                        (7, 0) => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][c % 3],
                        (_, 1) => 1.0e-40,
                        (_, 2) => -0.0,
                        (_, 3) => 0.0,
                        _ => finite,
                    }
                })
                .collect()
        })
        .collect()
}

/// Rows at the edges of the exact-product argument (DESIGN.md §15),
/// one kind per row in turn: full-mantissa values at binade 2^60, at
/// 2^-60, subnormals, `±f32::MAX` among values near 1, `±∞` among
/// zeros and ones, and values near 1. As weights against inputs (or
/// row against row) every kind meets every other: subnormal ×
/// subnormal, `f32::MAX²`, `∞ · 0`, and sums that cancel to their last
/// bit.
fn edge_rows(n: usize, d: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            (0..d)
                .map(|c| {
                    let mut x = ((i as u64) << 32 | c as u64)
                        .wrapping_add(7)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    x ^= x >> 29;
                    let sign = ((x >> 63) as u32) << 31;
                    let at = |exp: u32| {
                        f32::from_bits(sign | exp << 23 | ((x >> 20) as u32 & 0x007f_ffff))
                    };
                    match i % 6 {
                        0 => at(127 + 60),
                        1 => at(127 - 60),
                        2 => at(0),
                        3 if x.is_multiple_of(4) => f32::from_bits(sign | f32::MAX.to_bits()),
                        4 => [f32::INFINITY, 0.0, -0.0, f32::NEG_INFINITY, 1.0][(x % 5) as usize],
                        _ => at(126 + (x % 3) as u32),
                    }
                })
                .collect()
        })
        .collect()
}

/// The pair fill over the edge rows == one `dist_sq` per pair, exact
/// bits (`hfl-tensor`'s own test runs them at every width): the
/// difference is taken in `f32`, so its square is exact whatever the
/// operands were.
#[test]
fn pair_fill_matches_dist_sq_at_the_edges_of_exactness() {
    for (n, d) in [(13usize, 1usize), (13, 64), (40, 257)] {
        let rows = edge_rows(n, d);
        let refs = as_refs(&rows);
        let mut got = vec![f64::NAN; n * n];
        for (b, chunk) in got.chunks_mut(ops::PAIR_LANES * n).enumerate() {
            ops::dist_sq_pairs(&refs, b * ops::PAIR_LANES, chunk);
        }
        let mut finite = 0;
        for i in 0..n {
            for j in i + 1..n {
                let want = ops::dist_sq(refs[i], refs[j]);
                finite += usize::from(want.is_finite() && want > 0.0);
                assert_eq!(
                    got[i * n + j].to_bits(),
                    want.to_bits(),
                    "n={n} d={d} pair ({i}, {j}): {} vs {want}",
                    got[i * n + j]
                );
            }
        }
        assert!(finite > n * n / 8, "n={n} d={d}: {finite} finite distances");
    }
}

/// Krum scoring over the partner-major distance panel — every block
/// and tile shape of the grid, at thread counts under, at and over the
/// block count — == the retained full-matrix `dist_sq`-per-pair scorer,
/// exact bits.
#[test]
fn krum_scores_match_naive_across_blocks_and_tiles() {
    for n in PAIR_GRID_N {
        for d in PAIR_GRID_D {
            let rows = grid_rows(n, d);
            let refs = as_refs(&rows);
            let f = n / 4;
            let naive = krum_reference::krum_scores_naive(&refs, f, 1);
            for threads in [1, 2, 3, 8] {
                let fast = krum::krum_scores_with_threads(&refs, f, threads);
                assert_eq!(fast.len(), naive.len());
                for (i, (a, b)) in fast.iter().zip(&naive).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "n={n} d={d} score {i} at {threads} threads: {a} vs naive {b}"
                    );
                }
            }
        }
    }
}

/// `PreAggregation::Nnm`'s retired distance scan: one blocked row of
/// all `n` distances per input, diagonal included, then the k nearest
/// by `(distance, index)`.
fn nnm_naive(updates: &[&[f32]], k: usize) -> Vec<Vec<f32>> {
    let n = updates.len();
    let k = k.min(n);
    let mut dvals = vec![0.0f64; n];
    updates
        .iter()
        .map(|u| {
            ops::dist_sq_block(u, updates, &mut dvals);
            let mut dists: Vec<(f64, usize)> = dvals
                .iter()
                .copied()
                .enumerate()
                .map(|(j, dv)| (dv, j))
                .collect();
            dists.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let idx: Vec<usize> = dists.iter().take(k).map(|&(_, j)| j).collect();
            let mut mean = vec![0.0f32; u.len()];
            ops::mean_of_indexed(updates, &idx, &mut mean);
            mean
        })
        .collect()
}

/// NNM reading the shared upper-triangle fill == the per-row scan it
/// replaced, poisoned rows (whose distance to themselves is NaN, so
/// they are their own last neighbour) included, at any thread count.
#[test]
fn nnm_matches_the_per_row_scan_it_replaced() {
    for n in PAIR_GRID_N {
        for d in [1usize, 7, 257, 650] {
            let rows = grid_rows(n, d);
            let refs = as_refs(&rows);
            for k in [1, 2, n.div_ceil(2), n] {
                let want = nnm_naive(&refs, k);
                for threads in [1, 2, 8] {
                    let got = abd_hfl::parallel::with_threads(threads, || {
                        PreAggregation::Nnm { k }.transform(&refs)
                    });
                    assert_eq!(got.len(), want.len());
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            g.len() == w.len() && g.iter().zip(w).all(|(a, b)| bits_eq_f32(*a, *b)),
                            "n={n} d={d} k={k} row {i} at {threads} threads"
                        );
                    }
                }
            }
        }
    }
}

/// The vector widths this host can run, each named once per test run.
fn widths_on_this_host(kernel: &str) -> Vec<ops::Width> {
    let widths: Vec<_> = ops::Width::ALL
        .into_iter()
        .filter(|w| w.detected())
        .collect();
    assert!(widths.contains(&ops::Width::Plain));
    println!("{kernel} widths run on this host: {widths:?}");
    widths
}

/// Both tile caps a [`ops::Panel`] is filled under: sixteen lanes
/// (what an AVX-512 host fills) and eight (any other).
const PANEL_CAPS: [ops::Width; 2] = [ops::Width::Avx512, ops::Width::Avx2];

/// The block forward — groups of four inputs in lock step, a last
/// group of one to three, blocks of one group and of several — == one
/// `dot` + bias per (input, row), exact bits, at every vector width the
/// host has over panels of both tile caps: every tile shape (one lane
/// padded, 2, 8 + 2, 16, 16 + 1, 16 + 2 + 1, the stacked 16 + 8 + 4 + 2
/// and 16 + 16 + 8, 4 × 16), row lengths short, odd, the paper's and
/// one past it, over NaN, ±∞, subnormals and signed zeros, and over
/// the edge rows. The output starts dirty, and a swapped pair of
/// accumulators or a dropped input would show in the last bits. A
/// fused multiply-add would not, and is there: the product of two
/// widened `f32`s is exact in `f64`, so it rounds once either way
/// (DESIGN.md §15) — at binades 2^±60, subnormal × subnormal,
/// `f32::MAX²` and `∞ · 0` as anywhere else. What pins the line between
/// that product and every other is the rank update: fusing
/// `rank_tile`'s `f32` product fails
/// `rank_update_matches_the_retired_axpy_loop_at_every_width`.
#[test]
fn block_forward_matches_dot_per_row_at_every_width() {
    let widths = widths_on_this_host("forward_block");
    let mut panel = ops::Panel::default();
    type Rows = fn(usize, usize) -> Vec<Vec<f32>>;
    for (kind, gen) in [("grid", grid_rows as Rows), ("edge", edge_rows)] {
        for rows in [1usize, 10, 16, 17, 19, 30, 40, 64] {
            for d in [1usize, 7, 64, 65] {
                let w: Vec<f32> = gen(rows, d).concat();
                let bias = &grid_rows(1, rows)[0];
                let pool = gen(33, d);
                for cap in PANEL_CAPS {
                    panel.fill_at(cap, [&w[..]], rows, d);
                    for block in [1usize, 2, 3, 4, 5, 7, 8, 31, 32, 33] {
                        // Distinct inputs, the poisoned rows of the grid
                        // among them, starting somewhere else for each
                        // block size.
                        let xs: Vec<&[f32]> =
                            (0..block).map(|s| &pool[(s + block) % 33][..]).collect();
                        let want: Vec<f32> = xs
                            .iter()
                            .flat_map(|x| reference::affine_naive(&w, bias, x))
                            .collect();
                        // `None` is the dispatch.
                        for width in widths.iter().copied().map(Some).chain([None]) {
                            let mut got = vec![f32::NAN; block * rows];
                            match width {
                                Some(w) => ops::forward_block_at(w, &panel, bias, &xs, &mut got)
                                    .expect("detected"),
                                None => ops::forward_block(&panel, bias, &xs, &mut got),
                            }
                            for (at, (g, w)) in got.iter().zip(&want).enumerate() {
                                assert!(
                                    bits_eq_f32(*g, *w),
                                    "{kind} {width:?} on {cap:?}'s tiles rows={rows} d={d} \
                                     block={block} input {} row {}: {g} vs {w}",
                                    at / rows,
                                    at % rows
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A panel filled from K matrices handed over one by one is the panel
/// filled from their concatenation — same tiles, same lanes, whatever
/// tile a matrix starts or ends in — so every logit that comes out of
/// it has the bits `dot` + bias gives its own matrix's row.
#[test]
fn a_panel_of_stacked_matrices_is_the_panel_of_their_concatenation() {
    let (mut stacked, mut whole) = (ops::Panel::default(), ops::Panel::default());
    for k in [1usize, 2, 4, 7] {
        for (rows, d) in [(10usize, 64usize), (3, 7), (5, 1)] {
            let mats: Vec<Vec<f32>> = grid_rows(k * rows, d)
                .chunks(rows)
                .map(|m| m.concat())
                .collect();
            let (w, bias) = (mats.concat(), &grid_rows(1, k * rows)[0]);
            let pool = edge_rows(9, d);
            let xs: Vec<&[f32]> = pool.iter().map(|x| &x[..]).collect();
            let want: Vec<f32> = xs
                .iter()
                .flat_map(|x| reference::affine_naive(&w, bias, x))
                .collect();
            for cap in PANEL_CAPS {
                stacked.fill_at(cap, mats.iter().map(|m| &m[..]), rows, d);
                whole.fill_at(cap, [&w[..]], k * rows, d);
                for panel in [&stacked, &whole] {
                    let mut got = vec![f32::NAN; want.len()];
                    ops::forward_block(panel, bias, &xs, &mut got);
                    for (at, (g, w)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            bits_eq_f32(*g, *w),
                            "k={k} rows={rows} d={d} on {cap:?}'s tiles, input {} row {}: \
                             {g} vs {w}",
                            at / (k * rows),
                            at % (k * rows)
                        );
                    }
                }
            }
        }
    }
}

/// The rank update == the retired per-(input, row) `axpy` loop, exact
/// bits, at every vector width the host has and in both skip modes:
/// row counts odd and even, column counts that are one tile, several,
/// and a tail of every power of two, a gradient that starts with `-0.0`
/// entries (which `+ 0.0 · x` would turn into `+0.0` and a skipped
/// `axpy` leaves alone), coefficients that are exactly `+0.0` and
/// `-0.0`, inputs with NaN and ±∞ (which `0.0 · x` would turn into
/// NaN), and batches that repeat an input, as a sample with
/// replacement does. Walking the batch in another order shows in the
/// last bits of nearly every entry.
#[test]
fn rank_update_matches_the_retired_axpy_loop_at_every_width() {
    let widths = widths_on_this_host("rank_update");
    for rows in [1usize, 2, 10, 19, 64] {
        for d in [1usize, 7, 64, 65] {
            let pool = grid_rows(9, d);
            let start: Vec<f32> = grid_rows(rows, d)
                .concat()
                .iter()
                .enumerate()
                .map(|(at, g)| match at % 5 {
                    0 => -0.0,
                    _ if g.is_finite() => *g,
                    _ => 1.5,
                })
                .collect();
            for block in [1usize, 2, 5, 32, 33] {
                // Nine distinct inputs at most: longer blocks repeat them.
                let xs: Vec<&[f32]> = (0..block).map(|s| &pool[(s * 4) % 9][..]).collect();
                let coeff: Vec<f32> = (0..block * rows)
                    .map(|k| match k % 7 {
                        0 => 0.0,
                        3 => -0.0,
                        _ => (k % 13) as f32 * 0.37 - 2.0,
                    })
                    .collect();
                for skip_zero in [true, false] {
                    let mut want = start.clone();
                    retired::rank_update(&mut want, &coeff, &xs, skip_zero);
                    for &width in &widths {
                        let mut got = start.clone();
                        ops::rank_update_at(width, &mut got, &coeff, &xs, skip_zero)
                            .expect("detected");
                        let what = format!(
                            "{width:?} rows={rows} d={d} block={block} skip_zero={skip_zero}"
                        );
                        assert_bits(&got, &want, &what);
                    }
                    let mut got = start.clone();
                    ops::rank_update(&mut got, &coeff, &xs, skip_zero);
                    assert_bits(&got, &want, "rank_update at the dispatch's width");
                }
            }
        }
    }
}

/// `argmax(softmax(logits))` spelled out — what [`predict`] must name.
fn argmax_of_softmax(logits: &[f32]) -> usize {
    let mut probs = logits.to_vec();
    softmax_in_place(&mut probs);
    argmax(&probs)
}

/// Prediction from logits == `argmax(softmax)`: exact ties in every
/// position, a runner-up 0–200 ulps under an *earlier* or *later*
/// maximum at magnitudes from 1e-3 to 1e4 and softmax sums from barely
/// over 1 to the class count (where the two probabilities do round to
/// the same value, and the first of them wins), and logits that are
/// not finite.
#[test]
fn prediction_from_logits_matches_argmax_of_softmax() {
    let check = |logits: &[f32]| {
        assert_eq!(
            predict(&mut logits.to_vec()),
            argmax_of_softmax(logits),
            "{logits:?}"
        );
    };
    for classes in [2usize, 3, 10] {
        // Ties: every pair of positions holds the maximum.
        for i in 0..classes {
            for j in 0..classes {
                let mut logits = vec![-1.0f32; classes];
                (logits[i], logits[j]) = (2.5, 2.5);
                check(&logits);
            }
        }
        // Near-ties: the maximum at `at`, a runner-up `ulps` below it
        // at `other`, the rest `gap` lower (the smaller the gap, the
        // larger the sum both probabilities are divided by).
        let mut rounded_together = 0;
        for magnitude in [1.0e-3f32, 0.03, 0.5, 1.0, 7.0, 100.0, 1.0e4] {
            for gap in [0.0f32, 1.0e-3, 1.0, 30.0] {
                for ulps in 0..=200u32 {
                    for (at, other) in [(0, classes - 1), (classes - 1, 0), (1, 0)] {
                        let below = f32::from_bits(magnitude.to_bits() - ulps);
                        for sign in [1.0f32, -1.0] {
                            // Negated, the runner-up is the maximum.
                            let mut logits = vec![sign * magnitude - gap; classes];
                            logits[at] = sign * magnitude;
                            logits[other] = sign * below;
                            check(&logits);
                            let mut probs = logits.clone();
                            softmax_in_place(&mut probs);
                            rounded_together += usize::from(ulps > 0 && probs[at] == probs[other]);
                        }
                    }
                }
            }
        }
        assert!(
            rounded_together > 1_000,
            "the grid holds {rounded_together} near-ties that round to one probability"
        );
        // Not finite: the softmax has rules of its own.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for at in 0..classes {
                let mut logits: Vec<f32> = (0..classes).map(|c| c as f32 * 0.5 - 1.0).collect();
                logits[at] = bad;
                check(&logits);
                logits[(at + 1) % classes] = bad;
                check(&logits);
            }
            check(&vec![bad; classes]);
        }
    }
}

/// The same on the real thing: a linear model trained on the paper's
/// task predicts every one of the 10,000 test samples as
/// `argmax(softmax)` of its logits does, and `count_correct` — block
/// kernel, prediction from logits — counts exactly those hits.
#[test]
fn a_trained_model_predicts_as_argmax_of_softmax_on_the_test_split() {
    let task = abd_hfl::ml::synth::paper_task(7);
    let (d, classes) = (task.train.dim(), task.train.num_classes());
    let mut model = LinearSoftmax::new(d, classes);
    let sgd = abd_hfl::ml::SgdConfig::default();
    abd_hfl::ml::sgd::train_local(
        &mut model,
        &task.train,
        &sgd,
        400,
        &mut StdRng::seed_from_u64(7),
    );
    let (w, bias) = model.params().split_at(classes * d);
    let mut scratch = BatchScratch::default();
    let mut hits = 0;
    for i in 0..task.test.len() {
        let mut logits = vec![0.0f32; classes];
        ops::affine_rows(w, bias, task.test.x(i), &mut logits);
        let want = argmax_of_softmax(&logits);
        assert_eq!(predict(&mut logits), want, "sample {i}");
        assert_eq!(
            model.predict(task.test.x(i), &mut scratch) as usize,
            want,
            "sample {i}"
        );
        hits += usize::from(want == task.test.y(i) as usize);
    }
    assert!(hits > 8_000, "the model is trained: {hits} of 10,000");
    assert_eq!(
        model.count_correct(&task.test, 0..task.test.len(), &mut scratch),
        hits
    );
}

/// A ballot scored at once — `LinearSoftmax`'s one stacked panel,
/// `Mlp`'s provided loop — == one `set_params` + `count_correct` per
/// proposal: K ∈ {0, 1, 2, 4, 7} proposals (40 stacked rows are tiles
/// 16 + 16 + 8, 70 end in 4 + 2), over the whole set, an empty range,
/// one row and a range that starts and ends mid-block, with a NaN
/// proposal among the honest ones, in one scratch throughout. The
/// counts differ from proposal to proposal, so one that lands on
/// another's slot shows.
#[test]
fn scoring_a_ballot_matches_scoring_each_proposal() {
    let (d, classes, n) = (9usize, 10usize, 75usize);
    let values = |seed: u64, len: usize| -> Vec<f32> {
        (0..len as u64)
            .map(|j| {
                let mut x = (seed << 32 | j).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                x ^= x >> 31;
                (x % 2_000) as f32 / 300.0 - 3.0
            })
            .collect()
    };
    let ys = (0..n).map(|i| ((i * 7 + 3) % classes) as u8).collect();
    let data = Dataset::from_parts(d, classes, values(1, n * d), ys);
    let models: [Box<dyn Model>; 2] = [
        Box::new(LinearSoftmax::new(d, classes)),
        Box::new(Mlp::new(d, 19, classes, &mut StdRng::seed_from_u64(2))),
    ];
    let mut scratch = BatchScratch::default();
    for (m, model) in models.iter().enumerate() {
        for k in [0usize, 1, 2, 4, 7] {
            let mut thetas: Vec<Vec<f32>> = (0..k as u64)
                .map(|p| values(10 * p + 3, model.param_len()))
                .collect();
            if k > 1 {
                thetas[1].iter_mut().step_by(5).for_each(|t| *t = f32::NAN);
            }
            let refs = as_refs(&thetas);
            for rows in [0..n, 0..0, 33..33, 33..34, 20..61] {
                let want: Vec<usize> = refs
                    .iter()
                    .map(|theta| {
                        let mut one = model.clone_box();
                        one.set_params(theta);
                        one.count_correct(&data, rows.clone(), &mut BatchScratch::default())
                    })
                    .collect();
                let mut got = vec![usize::MAX; k];
                model.count_correct_each(&refs, &data, rows.clone(), &mut scratch, &mut got);
                assert_eq!(got, want, "model {m}, {k} proposals, rows {rows:?}");
                if k == 7 && rows.len() == n {
                    let mut distinct = want.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    assert!(distinct.len() >= 4, "model {m}: hit counts {want:?}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The block kernel and the single-input kernel == one `dot` + bias
    /// per row, for every row count 1..=35 (each tile width, a padded
    /// last lane, up to four tiles) and d ≥ 0. One `Panel` serves two
    /// shapes in a row, so a refill is shown to leave nothing of the
    /// previous matrix behind. (Blocks of several inputs: the seeded
    /// grid below.)
    #[test]
    fn affine_rows_matches_dot_per_row(
        rows in 1usize..=35,
        d in 0usize..=48,
        w in pvec(adversarial_f32(), 35 * 48),
        bias in pvec(adversarial_f32(), 35),
        x in pvec(adversarial_f32(), 48),
    ) {
        let mut panel = ops::Panel::default();
        panel.fill([&w[..]], 35, 48);
        let (w, bias, x) = (&w[..rows * d], &bias[..rows], &x[..d]);
        let naive = reference::affine_naive(w, bias, x);
        let mut lockstep = vec![0.0f32; rows];
        ops::affine_rows(w, bias, x, &mut lockstep);
        panel.fill([w], rows, d);
        let mut paneled = vec![0.0f32; rows];
        ops::forward_block(&panel, bias, &[x], &mut paneled);
        for (r, ((a, p), b)) in lockstep.iter().zip(&paneled).zip(&naive).enumerate() {
            prop_assert!(bits_eq_f32(*a, *b), "row {} of {}: lockstep {} vs dot {}", r, rows, a, b);
            prop_assert!(bits_eq_f32(*p, *b), "row {} of {}: panel {} vs dot {}", r, rows, p, b);
        }
    }

    /// `LinearSoftmax` predicts (single-input kernel) and counts hits
    /// (panel kernel, or the single-input one on a one-row range)
    /// exactly as its retired per-row loop did — NaN logits included.
    #[test]
    fn linear_scoring_matches_per_row_reference(
        classes in 2usize..=19,
        d in 1usize..=24,
        theta in pvec(adversarial_f32(), 19 * 24 + 19),
        xs in pvec(adversarial_f32(), 64),
        labels in pvec(any::<u8>(), 16),
        n in 1usize..=40,
        cut in (0usize..=40, 0usize..=40),
    ) {
        let mut model = LinearSoftmax::new(d, classes);
        let theta = &theta[..model.param_len()];
        model.set_params(theta);
        let data = dataset_from(&xs, &labels, n, d, classes);
        let naive: Vec<u8> = (0..n).map(|i| linear_predict_naive(theta, classes, data.x(i))).collect();
        let (lo, hi) = (cut.0.min(cut.1).min(n), cut.0.max(cut.1).min(n));
        count_correct_matches(&model, &data, &naive, lo..hi)?;
    }

    /// Same for both layers of `Mlp`; widths past 16 split a layer
    /// into two panel tiles.
    #[test]
    fn mlp_scoring_matches_per_row_reference(
        classes in 2usize..=11,
        hidden in 1usize..=19,
        d in 1usize..=16,
        theta in pvec(adversarial_f32(), 19 * 16 + 19 + 11 * 19 + 11),
        xs in pvec(adversarial_f32(), 64),
        labels in pvec(any::<u8>(), 16),
        n in 1usize..=24,
        cut in (0usize..=24, 0usize..=24),
    ) {
        let mut model = Mlp::new(d, hidden, classes, &mut StdRng::seed_from_u64(0));
        let theta = &theta[..model.param_len()];
        model.set_params(theta);
        let data = dataset_from(&xs, &labels, n, d, classes);
        let naive: Vec<u8> = (0..n).map(|i| mlp_predict_naive(theta, hidden, classes, data.x(i))).collect();
        let (lo, hi) = (cut.0.min(cut.1).min(n), cut.0.max(cut.1).min(n));
        count_correct_matches(&model, &data, &naive, lo..hi)?;
    }

    /// Batched ballot scoring == one `score` per proposal, for the
    /// overriding `AccuracyEvaluator` (over owned shards and over
    /// borrowed row ranges, which must also agree with each other) and
    /// for the trait default.
    #[test]
    fn score_all_matches_per_proposal_score(
        voters in 1usize..=5,
        proposals in pvec(pvec(ordered_f32(), 3 * 4 + 3), 1..7),
        xs in pvec(-10.0f32..10.0, 64),
        labels in pvec(any::<u8>(), 16),
        n in 5usize..=40,
    ) {
        let data = dataset_from(&xs, &labels, n, 4, 3);
        let template = || -> Box<dyn Model> { Box::new(LinearSoftmax::new(4, 3)) };
        let owned = AccuracyEvaluator::new(template(), data.split_even(voters));
        let borrowed = AccuracyEvaluator::split_rows(template(), &data, voters);
        let own: Vec<Vec<f32>> = proposals.iter().cycle().take(voters).cloned().collect();
        let distance = DistanceEvaluator::new(&own);
        let refs = as_refs(&proposals);
        for v in 0..voters {
            let singly: Vec<f64> = refs.iter().map(|p| owned.score(v, p)).collect();
            for eval in [&owned as &dyn ProposalEvaluator, &borrowed] {
                let mut batched = vec![f64::NAN; refs.len()];
                eval.score_all(v, &refs, &mut batched);
                prop_assert_eq!(&batched, &singly, "voter {}", v);
            }
            let mut batched = vec![0.0f64; refs.len()];
            distance.score_all(v, &refs, &mut batched);
            for (b, p) in batched.iter().zip(&refs) {
                prop_assert_eq!(b.to_bits(), distance.score(v, p).to_bits());
            }
        }
    }
}

/// Every voter-parallel mechanism decides the identical
/// `ConsensusOutcome` at 1/2/4/8 threads, under the accuracy evaluator
/// (integer hit counts) and the distance evaluator alike.
#[test]
fn vote_outcomes_identical_at_all_thread_counts() {
    let _sweep = THREAD_OVERRIDE.lock().unwrap_or_else(|e| e.into_inner());
    // Deterministic pseudo-random values in [-3, 3).
    let value = |i: usize, j: usize| {
        let mut x = ((i as u64) << 32 | j as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 29;
        (x % 6_000) as f32 / 1_000.0 - 3.0
    };
    let (d, classes, samples) = (6usize, 4usize, 203usize);
    let mut data = Dataset::empty(d, classes);
    for i in 0..samples {
        let x: Vec<f32> = (0..d).map(|j| value(i, j)).collect();
        data.push(&x, (i % classes) as u8);
    }
    let template = LinearSoftmax::new(d, classes);
    for n in [1usize, 2, 4, 5, 7] {
        let proposals: Vec<Vec<f32>> = (0..n)
            .map(|p| {
                (0..template.param_len())
                    .map(|j| value(1_000 + p, j))
                    .collect()
            })
            .collect();
        let refs = as_refs(&proposals);
        let byz: Vec<bool> = (0..n).map(|v| v % 3 == 1).collect();
        let accuracy = AccuracyEvaluator::split_rows(Box::new(template.clone()), &data, n);
        let distance = DistanceEvaluator::new(&proposals);
        let mechanisms: Vec<Box<dyn Consensus>> = vec![
            Box::new(VoteConsensus::paper_default()),
            Box::new(VoteConsensus::new(1)),
            Box::new(CommitteeConsensus::new(3, 1)),
            Box::new(StakeVote::new(
                (0..n).map(|v| 1.0 + (v % 3) as f64).collect(),
            )),
        ];
        for eval in [&accuracy as &dyn ProposalEvaluator, &distance] {
            for mech in &mechanisms {
                let decide = |threads: usize| {
                    abd_hfl::parallel::set_default_threads(threads);
                    mech.decide(&refs, &byz, eval, &mut StdRng::seed_from_u64(9))
                };
                let base = decide(1);
                for &t in &THREADS[1..] {
                    assert_eq!(
                        decide(t),
                        base,
                        "{} over {n} proposals at {t} threads",
                        mech.name()
                    );
                }
            }
            let votes = |threads: usize| {
                abd_hfl::parallel::set_default_threads(threads);
                VoteConsensus::paper_default().vote_matrix(&refs, &byz, eval)
            };
            let base = votes(1);
            for &t in &THREADS[1..] {
                assert_eq!(
                    votes(t),
                    base,
                    "vote matrix over {n} proposals at {t} threads"
                );
            }
        }
    }
    abd_hfl::parallel::set_default_threads(0);
}

/// Wide-ranged but finite values, for rules whose distances must stay
/// ordered (`inf − inf` is NaN, which AutoGM's and the coordinate
/// kernels' comparators reject by contract) and whose inverse-distance
/// weights must not overflow (Weiszfeld's `1/d` at `d = 1e-12`).
fn finite_f32() -> impl Strategy<Value = f32> {
    prop_oneof![
        -100.0f32..100.0,
        -1.0e15f32..1.0e15,
        Just(0.0f32),
        Just(-0.0f32),
        Just(1.0e-40f32),
        Just(-4.7e-42f32),
        Just(f32::MIN_POSITIVE),
    ]
}

fn fin_elem() -> BoxedStrategy<f32> {
    finite_f32().boxed()
}

/// `evidence::judge` as it stood before verdicts were read from the
/// aggregation: every family recomputes what it needs from the inputs
/// alone — Krum scores and the Multi-Krum selection a second time, the
/// residual family's aggregate through a fresh `build().aggregate`.
mod judge_reference {
    use super::*;

    fn all_accepted(n: usize) -> Acceptance {
        Acceptance {
            accepted: vec![true; n],
            strikes: vec![0.0; n],
        }
    }

    pub fn judge(kind: &AggregatorKind, updates: &[&[f32]]) -> Acceptance {
        let n = updates.len();
        if n < 3 {
            return all_accepted(n);
        }
        match kind {
            AggregatorKind::FedAvg => all_accepted(n),
            AggregatorKind::Krum { f } => {
                let scores = krum::krum_scores(updates, *f);
                let mut acc = by_scores(&scores, 1);
                gate_krum(&mut acc, &scores);
                acc
            }
            AggregatorKind::MultiKrum { f, m } => {
                let scores = krum::krum_scores(updates, *f);
                let selected = MultiKrum::new(*f, (*m).max(1)).select(updates);
                let mut acc = by_scores(&scores, selected.len());
                gate_krum(&mut acc, &scores);
                acc.accepted = vec![false; n];
                for &i in &selected {
                    acc.accepted[i] = true;
                }
                acc
            }
            AggregatorKind::TrimmedMean { ratio } => trimmed(updates, *ratio),
            AggregatorKind::Nnm { k, inner } => {
                let mixed = PreAggregation::Nnm { k: *k }.transform(updates);
                let mut acc = judge(inner, &as_refs(&mixed));
                let raw = by_residual(kind, updates);
                for (s, r) in acc.strikes.iter_mut().zip(&raw.strikes) {
                    if *r == 0.0 {
                        *s = 0.0;
                    }
                }
                acc
            }
            _ => by_residual(kind, updates),
        }
    }

    fn by_scores(scores: &[f64], keep: usize) -> Acceptance {
        let n = scores.len();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|a, b| scores[*a].total_cmp(&scores[*b]));
        let mut acc = Acceptance {
            accepted: vec![false; n],
            strikes: vec![0.0; n],
        };
        for &i in idx.iter().take(keep.max(1).min(n)) {
            acc.accepted[i] = true;
        }
        acc.strikes[idx[n - 1]] = STRIKE_WORST;
        if n >= 4 {
            acc.strikes[idx[n - 2]] = STRIKE_RUNNER_UP;
        }
        acc
    }

    fn gate_krum(acc: &mut Acceptance, scores: &[f64]) {
        if scores.len() < 4 {
            acc.strikes.iter_mut().for_each(|s| *s = 0.0);
            return;
        }
        let mut sorted = scores.to_vec();
        sorted.sort_by(f64::total_cmp);
        let med = sorted[scores.len() / 2].max(1e-12);
        for (s, sc) in acc.strikes.iter_mut().zip(scores) {
            if *sc <= KRUM_STRIKE_GATE * med {
                *s = 0.0;
            }
        }
    }

    fn trimmed(updates: &[&[f32]], ratio: f64) -> Acceptance {
        let n = updates.len();
        let d = updates[0].len();
        let t = TrimmedMean::new(ratio).trim_count(n);
        if t == 0 || d == 0 {
            return all_accepted(n);
        }
        let mut clipped = vec![0usize; n];
        for j in 0..d {
            let mut col: Vec<(f32, usize)> =
                updates.iter().enumerate().map(|(i, u)| (u[j], i)).collect();
            col.sort_by(|a, b| a.0.total_cmp(&b.0));
            for &(_, i) in col.iter().take(t).chain(col.iter().rev().take(t)) {
                clipped[i] += 1;
            }
        }
        let frac: Vec<f64> = clipped.iter().map(|&c| c as f64 / d as f64).collect();
        let baseline = (2.0 * t as f64 / n as f64).min(0.99);
        let mut acc = by_scores(&frac, n);
        acc.accepted = frac.iter().map(|&fr| fr < 0.75).collect();
        for (s, fr) in acc.strikes.iter_mut().zip(&frac) {
            if *fr <= 1.5 * baseline {
                *s = 0.0;
            }
        }
        acc
    }

    fn by_residual(kind: &AggregatorKind, updates: &[&[f32]]) -> Acceptance {
        let n = updates.len();
        let agg = kind.build().aggregate(updates, None);
        let res: Vec<f64> = updates.iter().map(|u| ops::dist(u, &agg)).collect();
        let mut sorted = res.clone();
        sorted.sort_by(f64::total_cmp);
        let med = sorted[n / 2].max(1e-12);
        let mut acc = by_scores(&res, n);
        acc.accepted = res.iter().map(|&r| r <= 1.5 * med + 1e-9).collect();
        for (s, r) in acc.strikes.iter_mut().zip(&res) {
            if *r <= 2.0 * med {
                *s = 0.0;
            }
        }
        acc
    }
}

/// For every kind: aggregate `rows` the way the engine does (prebuilt
/// rule, `aggregate_into`, with and without deadline weights, in a
/// scratch a larger aggregation has already dirtied), judge from that
/// aggregation, and demand the reference's verdict bit for bit.
fn evidence_matches_reference(
    kinds: &[AggregatorKind],
    rows: &[Vec<f32>],
    weights: &[f32],
) -> Result<(), TestCaseError> {
    let refs = as_refs(rows);
    let doubled: Vec<&[f32]> = refs.iter().chain(&refs).copied().collect();
    for kind in kinds {
        let want = judge_reference::judge(kind, &refs);
        let rule = kind.build();
        let mut scratch = AggScratch::default();
        let mut out = Vec::new();
        rule.aggregate_into(&doubled, None, &mut out, &mut scratch);
        for w in [None, Some(&weights[..refs.len()])] {
            rule.aggregate_into(&refs, w, &mut out, &mut scratch);
            let got = evidence::judge_aggregated(kind, &refs, &out, &scratch);
            prop_assert_eq!(&got.accepted, &want.accepted, "{:?} weights {:?}", kind, w);
            let bits = |a: &Acceptance| a.strikes.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want), "{:?} weights {:?}", kind, w);
        }
        prop_assert_eq!(
            evidence::judge(kind, &refs),
            want,
            "{:?} (convenience)",
            kind
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The Krum family reads its scores and selection out of the
    /// scratch; NaN and ±∞ inputs included (NaN scores order last).
    #[test]
    fn krum_family_evidence_reads_the_aggregation(
        rows in rows_of(adv_elem, 13, 6),
        weights in pvec(0.05f32..=1.0, 13),
        f in 0usize..4,
        m in 1usize..14,
        k in 1usize..5,
        s in 1usize..4,
    ) {
        let multi = AggregatorKind::MultiKrum { f, m };
        let kinds = [
            AggregatorKind::FedAvg,
            AggregatorKind::Krum { f },
            multi.clone(),
            AggregatorKind::SampledKrum { f, m },
            AggregatorKind::Nnm { k, inner: Box::new(multi) },
            AggregatorKind::Nnm { k, inner: Box::new(AggregatorKind::Krum { f }) },
            AggregatorKind::Bucketing { s, inner: Box::new(AggregatorKind::Krum { f }) },
        ];
        evidence_matches_reference(&kinds, &rows, &weights)?;
    }

    /// The coordinate-wise rules (±∞ inputs included) measure residuals
    /// against the partial the aggregation produced.
    #[test]
    fn coordinate_rule_evidence_reads_the_aggregation(
        rows in rows_of(ord_elem, 13, 6),
        weights in pvec(0.05f32..=1.0, 13),
        ratio in 0.0f64..0.45,
    ) {
        let kinds = [
            AggregatorKind::Median,
            AggregatorKind::TrimmedMean { ratio },
            AggregatorKind::StreamingMedian { exact_threshold: 4 },
            AggregatorKind::StreamingTrimmedMean { ratio, exact_threshold: 4 },
        ];
        evidence_matches_reference(&kinds, &rows, &weights)?;
    }

    /// The iterative rules and the wrappers around coordinate rules,
    /// over extreme finite values.
    #[test]
    fn residual_rule_evidence_reads_the_aggregation(
        rows in rows_of(fin_elem, 13, 6),
        weights in pvec(0.05f32..=1.0, 13),
        ratio in 0.0f64..0.45,
        k in 1usize..5,
        s in 1usize..4,
    ) {
        let kinds = [
            AggregatorKind::GeoMed,
            AggregatorKind::CenteredClip { tau: 1.0, iters: 3 },
            AggregatorKind::CosineClustering { threshold: 0.5 },
            AggregatorKind::AutoGm { kappa: 3.0 },
            AggregatorKind::Bucketing { s, inner: Box::new(AggregatorKind::Median) },
            AggregatorKind::Nnm { k, inner: Box::new(AggregatorKind::TrimmedMean { ratio }) },
            AggregatorKind::Nnm { k, inner: Box::new(AggregatorKind::GeoMed) },
        ];
        evidence_matches_reference(&kinds, &rows, &weights)?;
    }
}

/// `hfl_ml::synth`'s retired sequential generator: one `StdRng` per
/// split, the label shuffle and then every coordinate of every sample
/// pulled off it in order.
fn sample_split_sequential(cfg: &SynthConfig, means: &[Vec<f32>], n: usize, seed: u64) -> Dataset {
    use rand::seq::SliceRandom;
    let mut rng = StdRng::seed_from_u64(seed);
    let k = cfg.num_classes;
    let mut labels: Vec<u8> = (0..n).map(|i| (i % k) as u8).collect();
    labels.shuffle(&mut rng);
    let mut ds = Dataset::empty(cfg.dim, k);
    let mut x = vec![0.0f32; cfg.dim];
    for y in labels {
        x.copy_from_slice(&means[y as usize]);
        for xi in x.iter_mut() {
            *xi += cfg.noise_std * abd_hfl::tensor::init::standard_normal(&mut rng);
        }
        ds.push(&x, y);
    }
    ds
}

fn assert_rows_bitwise(got: &[f32], want: &[f32], what: &str) {
    assert!(
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
        "{what}"
    );
}

/// The training set as a function of the sample index == the sequential
/// pass it replaced, bit for bit: `sample_into(i)` in descending and in
/// strided order, and the parallel fill from 1 / 2 / 3 / 8 threads.
/// Dimensions put a sample's first word on and off a ChaCha block
/// boundary (two words per coordinate, sixteen per block) behind a
/// label shuffle whose own word count varies with `n` and the seed.
#[test]
fn synth_plan_matches_the_sequential_generator_it_replaced() {
    use abd_hfl::ml::rng::derive_seed;
    use abd_hfl::ml::synth::{SynthTask, SyntheticDigits};
    use abd_hfl::ml::Labelled;

    for (d, dim) in [1usize, 7, 8, 63, 64, 65].into_iter().enumerate() {
        for n in [1usize, 2, 257, 5_003] {
            let cfg = SynthConfig {
                dim,
                train_samples: n,
                test_samples: 3 + d,
                seed: 0x5EED ^ ((n as u64) << 8) ^ dim as u64,
                ..SynthConfig::default()
            };
            let plan = SynthTask::plan(&cfg).train;
            let want =
                sample_split_sequential(&cfg, plan.class_means(), n, derive_seed(cfg.seed, 0x7124));
            assert_eq!(plan.labels(), want.labels(), "dim {dim} n {n} labels");

            let mut row = vec![0.0f32; dim];
            let descending = (0..n).rev();
            let strided = (0..7).flat_map(|r| (r..n).step_by(7));
            for i in descending.chain(strided) {
                plan.sample_into(i, &mut row);
                assert_rows_bitwise(&row, want.x(i), &format!("dim {dim} n {n} sample {i}"));
            }

            for threads in [1, 2, 3, 8] {
                let dense = abd_hfl::parallel::with_threads(threads, || plan.materialise());
                assert_eq!(dense.labels(), want.labels());
                for i in 0..n {
                    let what = format!("dim {dim} n {n} row {i} at {threads} threads");
                    assert_rows_bitwise(dense.x(i), want.x(i), &what);
                }
            }

            // `generate` is the same plan materialised, test split too.
            let task = SyntheticDigits::generate(&cfg);
            let test = sample_split_sequential(
                &cfg,
                &task.class_means,
                cfg.test_samples,
                derive_seed(cfg.seed, 0x7E57),
            );
            assert_eq!(task.test.labels(), test.labels());
            for i in 0..test.len() {
                assert_rows_bitwise(
                    task.test.x(i),
                    test.x(i),
                    &format!("dim {dim} test row {i}"),
                );
            }
            assert_rows_bitwise(
                task.train.x(n - 1),
                want.x(n - 1),
                "generate's last train row",
            );
        }
    }
}

/// Whole runs — clean, armed under deadline buffers, sampled, and the
/// armed one again with a fault plan on the pipelined schedule — produce
/// the identical manifest JSON and event log at 1/2/4/8 threads: the
/// training step hands cohort slots to however many workers there are,
/// and which worker (and which parked trainee) served a slot cannot
/// show in its update.
#[test]
fn whole_runs_identical_at_all_thread_counts() {
    let _sweep = THREAD_OVERRIDE.lock().unwrap_or_else(|e| e.into_inner());
    let small = |attack: AttackCfg, seed: u64| {
        let mut cfg = HflConfig::quick(attack, seed);
        cfg.rounds = 3;
        cfg.eval_every = 3;
        cfg.data = SynthConfig {
            train_samples: 3_200,
            test_samples: 800,
            ..SynthConfig::default()
        };
        cfg
    };
    let mut armed = small(
        AttackCfg::Adaptive {
            attack: AdaptiveAttack::alie_default(),
            proportion: 0.25,
            placement: Placement::Prefix,
        },
        71,
    );
    armed.suspicion = Some(SuspicionConfig::default());
    armed.protocol_attack = Some(ProtocolAttack::Equivocate { flip_scale: 1.0 });
    armed.async_rounds = Some(AsyncRoundCfg::lan());
    let mut sampled = small(
        AttackCfg::Model {
            attack: ModelAttack::SignFlip { scale: 2.0 },
            proportion: 0.25,
            placement: Placement::Random,
        },
        72,
    );
    sampled.sampling = Some(SamplingCfg::uniform(256, 64));
    let mut pipelined = armed.clone();
    pipelined.rounds = 5;
    pipelined.quorum = 0.75;
    pipelined.faults = Some(
        FaultPlan::new()
            .crash_recover(1, 5, 3)
            .kill_leader(2, 2, 15, None)
            .partition(1, vec![(60..64).collect()], 3),
    );
    let timing = PipelineConfig {
        rounds: 5,
        ..PipelineConfig::default()
    };

    for (name, cfg, timing) in [
        ("clean", small(AttackCfg::None, 70), None),
        ("armed + async", armed, None),
        ("sampled", sampled, None),
        ("armed + faulted, pipelined", pipelined, Some(&timing)),
    ] {
        let exp = Experiment::prepare(&cfg);
        let run = |threads: usize| {
            abd_hfl::parallel::set_default_threads(threads);
            let (telem, rec) = Telemetry::recording();
            let run = match timing {
                Some(pcfg) => run_engine(&mut RoundEngine::pipelined(&exp, pcfg), &telem),
                None => run_prepared_with(&exp, &telem),
            };
            (run.manifest.to_json(), rec.events())
        };
        let base = run(1);
        for &t in &THREADS[1..] {
            assert!(run(t) == base, "{name} run differs at {t} threads");
        }
    }
    abd_hfl::parallel::set_default_threads(0);
}

/// The code the column-tile kernels replaced, kept as their executable
/// references: the per-column gather + `sort_unstable_by(partial_cmp)`
/// loops of `hfl_tensor::stats`, the scalar P² estimator with its
/// d-long array, and the reservoir of row references.
mod retired {
    /// The backward pass's per-(sample, row) loop: one `axpy` into the
    /// gradient row per coefficient, skipped when the coefficient is
    /// exactly zero (linear `W`, MLP `W1`) or not (MLP `W2`).
    pub fn rank_update(grad: &mut [f32], coeff: &[f32], xs: &[&[f32]], skip_zero: bool) {
        let rows = coeff.len() / xs.len();
        for (x, coeff) in xs.iter().zip(coeff.chunks_exact(rows)) {
            for (row, a) in grad.chunks_exact_mut(x.len()).zip(coeff) {
                if !skip_zero || *a != 0.0 {
                    abd_hfl::tensor::ops::axpy(*a, x, row);
                }
            }
        }
    }

    pub fn median_in_place(buf: &mut [f32]) -> f32 {
        buf.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
        let n = buf.len();
        if n % 2 == 1 {
            buf[n / 2]
        } else {
            0.5 * (buf[n / 2 - 1] + buf[n / 2])
        }
    }

    pub fn trimmed_mean_in_place(buf: &mut [f32], trim: usize) -> f32 {
        buf.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in trimmed-mean input"));
        let kept = &buf[trim..buf.len() - trim];
        kept.iter().map(|x| *x as f64).sum::<f64>() as f32 / kept.len() as f32
    }

    /// `trim: None` is the median.
    pub fn coordinate(rows: &[&[f32]], trim: Option<usize>) -> Vec<f32> {
        let mut col = vec![0.0f32; rows.len()];
        (0..rows[0].len())
            .map(|j| {
                for (c, r) in col.iter_mut().zip(rows) {
                    *c = r[j];
                }
                match trim {
                    None => median_in_place(&mut col),
                    Some(trim) => trimmed_mean_in_place(&mut col, trim),
                }
            })
            .collect()
    }

    #[derive(Clone)]
    pub struct P2Median {
        q: [f64; 5],
        n: [f64; 5],
        np: [f64; 5],
        count: usize,
    }

    impl P2Median {
        pub fn new() -> Self {
            Self {
                q: [0.0; 5],
                n: [1.0, 2.0, 3.0, 4.0, 5.0],
                np: [1.0, 2.0, 3.0, 4.0, 5.0],
                count: 0,
            }
        }

        pub fn observe(&mut self, x: f64) {
            if self.count < 5 {
                self.q[self.count] = x;
                self.count += 1;
                if self.count == 5 {
                    self.q.sort_unstable_by(f64::total_cmp);
                }
                return;
            }
            self.count += 1;
            let k = if x < self.q[0] {
                self.q[0] = x;
                0
            } else if x >= self.q[4] {
                self.q[4] = self.q[4].max(x);
                3
            } else {
                let mut k = 0;
                for i in 1..4 {
                    if x >= self.q[i] {
                        k = i;
                    }
                }
                k
            };
            for i in (k + 1)..5 {
                self.n[i] += 1.0;
            }
            self.np[1] += 0.25;
            self.np[2] += 0.5;
            self.np[3] += 0.75;
            self.np[4] += 1.0;
            for i in 1..4 {
                let d = self.np[i] - self.n[i];
                if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                    || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
                {
                    let s = d.signum();
                    let qp = self.parabolic(i, s);
                    self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                        qp
                    } else {
                        self.linear(i, s)
                    };
                    self.n[i] += s;
                }
            }
        }

        fn parabolic(&self, i: usize, s: f64) -> f64 {
            let (q, n) = (&self.q, &self.n);
            q[i] + s / (n[i + 1] - n[i - 1])
                * ((n[i] - n[i - 1] + s) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - s) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
        }

        fn linear(&self, i: usize, s: f64) -> f64 {
            let j = (i as f64 + s) as usize;
            self.q[i] + s * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
        }

        pub fn estimate(&self) -> f64 {
            if self.count < 5 {
                let mut buf = self.q[..self.count].to_vec();
                buf.sort_unstable_by(f64::total_cmp);
                let m = self.count;
                return if m % 2 == 1 {
                    buf[m / 2]
                } else {
                    0.5 * (buf[m / 2 - 1] + buf[m / 2])
                };
            }
            self.q[2]
        }
    }

    pub fn streaming_median(updates: &[&[f32]], exact_threshold: usize) -> Vec<f32> {
        if updates.len() < exact_threshold {
            return coordinate(updates, None);
        }
        let mut est = vec![P2Median::new(); updates[0].len()];
        for row in updates {
            for (e, &x) in est.iter_mut().zip(row.iter()) {
                e.observe(x as f64);
            }
        }
        est.iter().map(|e| e.estimate() as f32).collect()
    }

    fn splitmix64(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `trim_of` is `TrimmedMean::trim_count` at the rule's ratio.
    pub fn streaming_trimmed_mean(
        updates: &[&[f32]],
        trim_of: impl Fn(usize) -> usize,
        cap: usize,
    ) -> Vec<f32> {
        if updates.len() < cap {
            return coordinate(updates, Some(trim_of(updates.len())));
        }
        let mut reservoir: Vec<&[f32]> = Vec::with_capacity(cap);
        for (i, row) in updates.iter().enumerate() {
            if i < cap {
                reservoir.push(row);
            } else {
                let j = (splitmix64(i as u64) % (i as u64 + 1)) as usize;
                if j < cap {
                    reservoir[j] = row;
                }
            }
        }
        coordinate(&reservoir, Some(trim_of(reservoir.len())))
    }
}

/// Row counts and dimensions of the column-tile grid: every network
/// size up to nine rows, sixteen ± 1, a pruned 64-network, the
/// per-column sort past `NETWORK_MAX_ROWS`; tiles short, exact, one
/// lane over, and the workloads' 650.
const TILE_ROWS: [usize; 14] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33, 300];
const TILE_DIMS: [usize; 5] = [1, 15, 16, 17, 650];
const TRIM_RATIOS: [f64; 6] = [0.0, 0.1, 0.2, 0.25, 0.4, 0.49];

/// What the grid's inputs hold beside full-mantissa values over twelve
/// binades and ties (a third of a column's values come from a pool of
/// three) and ±∞.
#[derive(Clone, Copy, PartialEq)]
enum Zeros {
    /// Zeros of one sign per column: every pair of values that compare
    /// equal is bit-identical, so any correct sort gives the same bits.
    OneSignPerColumn,
    /// −0.0 and +0.0 in one column: `partial_cmp` ties them and the
    /// retired unstable sort may leave either first.
    Mixed,
}

fn tile_rows(n: usize, d: usize, seed: u64, zeros: Zeros, nan: bool) -> Vec<Vec<f32>> {
    let mix = |a: u64, b: u64| {
        let mut x = (seed ^ (a << 32) ^ b)
            .wrapping_add(1)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 29;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^ (x >> 32)
    };
    let finite =
        |h: u64| f32::from_bits(((h >> 20) as u32 & 0x807f_ffff) | (118 + (h % 12) as u32) << 23);
    (0..n)
        .map(|r| {
            (0..d)
                .map(|c| {
                    let h = mix(r as u64, c as u64);
                    // ±∞ and NaN keep to every fifth and seventh column,
                    // so most columns stay finite whatever the row count.
                    match h % 48 {
                        0 if c % 5 == 0 => f32::INFINITY,
                        1 if c % 5 == 0 => f32::NEG_INFINITY,
                        2 | 3 => match zeros {
                            Zeros::OneSignPerColumn => [0.0, -0.0][c % 2],
                            Zeros::Mixed => [0.0, -0.0][(h >> 8) as usize % 2],
                        },
                        4 | 5 if nan && c % 7 == 3 => {
                            f32::from_bits(0x7fc0_0000 | ((h >> 9) as u32 & 0x8000_0000))
                        }
                        6..=21 => finite(mix(u64::MAX, ((c as u64) << 2) | ((h >> 8) % 3))),
                        _ => finite(h),
                    }
                })
                .collect()
        })
        .collect()
}

/// Exact bits (any NaN equals any NaN), and the comparison is worth
/// making: past a few coordinates, most of them are finite.
fn assert_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    let finite = want.iter().filter(|w| w.is_finite()).count();
    assert!(
        want.len() < 15 || finite * 2 > want.len(),
        "{what}: {finite} finite"
    );
    for (j, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(bits_eq_f32(*g, *w), "{what}, coordinate {j}: {g} vs {w}");
    }
}

/// Median and trimmed mean through every entry point — the sequential
/// kernel (fresh and dirty scratch), the tile-aligned parallel split at
/// 1 / 2 / 3 threads, the rules' `aggregate` and `aggregate_into` —
/// against the retired per-column loops, exact bits.
#[test]
fn coordinate_kernels_match_the_retired_per_column_loops() {
    let mut scratch = AggScratch::default();
    let mut out = Vec::new();
    for n in TILE_ROWS {
        for d in TILE_DIMS {
            let rows = tile_rows(n, d, 22, Zeros::OneSignPerColumn, false);
            let refs = as_refs(&rows);
            let trims = TRIM_RATIOS.map(|ratio| (ratio, TrimmedMean::new(ratio).trim_count(n)));
            for (ratio, trim) in [(None, None)]
                .into_iter()
                .chain(trims.map(|(r, t)| (Some(r), Some(t))))
            {
                let what = format!("n={n} d={d} trim={trim:?}");
                let want = retired::coordinate(&refs, trim);
                let mut got = vec![f32::NAN; d];
                let mut col = vec![7.0f32; 3];
                match trim {
                    None => stats::coordinate_median(&refs, &mut got),
                    Some(t) => stats::coordinate_trimmed_mean(&refs, t, &mut got),
                }
                assert_bits(&got, &want, &what);
                got.fill(f32::NAN);
                match trim {
                    None => stats::coordinate_median_into(&refs, &mut got, &mut col),
                    Some(t) => stats::coordinate_trimmed_mean_into(&refs, t, &mut got, &mut col),
                }
                assert_bits(&got, &want, &what);
                for threads in [1, 2, 3] {
                    got.fill(f32::NAN);
                    match trim {
                        None => median::coordinate_median_parallel(&refs, &mut got, threads),
                        Some(t) => trimmed_mean::coordinate_trimmed_mean_parallel(
                            &refs, t, &mut got, threads,
                        ),
                    }
                    assert_bits(&got, &want, &format!("{what} at {threads} threads"));
                }
                let rule = match ratio {
                    None => AggregatorKind::Median,
                    Some(ratio) => AggregatorKind::TrimmedMean { ratio },
                }
                .build();
                assert_bits(&rule.aggregate(&refs, None), &want, &what);
                rule.aggregate_into(&refs, None, &mut out, &mut scratch);
                assert_bits(&out, &want, &what);
            }
        }
    }
}

/// The kept values are summed smallest first, in `f64`: four values of
/// 2⁻⁵⁴ reach 2⁻⁵² before they meet 1 + 2⁻²⁴ and tip the `f32` rounding
/// up, where largest-first loses each of them to the running sum and
/// rounds the tie down. (On the grid's inputs every kept sum is exact in
/// `f64`, so the order would not show there.)
#[test]
fn trimmed_mean_sums_the_kept_values_ascending_in_f64() {
    let tiny = (-54f32).exp2();
    let column = [1.0, tiny, (-24f32).exp2(), tiny, -3.0e9, tiny, 7.0e9, tiny];
    // Every column holds the same values, each from another row first.
    let rows: Vec<Vec<f32>> = (0..8)
        .map(|r| (0..33).map(|c| column[(r + c) % 8]).collect())
        .collect();
    let refs = as_refs(&rows);
    let want = retired::coordinate(&refs, Some(1));
    assert_eq!(want[0], (1.0 + f32::EPSILON) / 6.0);
    let mut got = vec![0.0f32; 33];
    stats::coordinate_trimmed_mean(&refs, 1, &mut got);
    assert_bits(&got, &want, "ascending sum");
    let rule = AggregatorKind::StreamingTrimmedMean {
        ratio: 0.125,
        exact_threshold: 8,
    };
    assert_bits(&rule.build().aggregate(&refs, None), &want, "reservoir");
}

/// The rules past their parallel cut-offs, at 1 / 2 / 3 threads: 300
/// rows (sorted a column at a time) and 557,056 elements under the
/// network. Every shape of the grid above is below them.
#[test]
fn coordinate_rules_match_across_the_parallel_cutoff() {
    for (n, d) in [(300, 650), (17, 32_768)] {
        let rows = tile_rows(n, d, 23, Zeros::OneSignPerColumn, false);
        let refs = as_refs(&rows);
        for kind in [
            AggregatorKind::Median,
            AggregatorKind::TrimmedMean { ratio: 0.2 },
        ] {
            let trim = match kind {
                AggregatorKind::TrimmedMean { ratio } => {
                    Some(TrimmedMean::new(ratio).trim_count(n))
                }
                _ => None,
            };
            let want = retired::coordinate(&refs, trim);
            let rule = kind.build();
            for threads in [1, 2, 3] {
                let got = abd_hfl::parallel::with_threads(threads, || rule.aggregate(&refs, None));
                assert_bits(
                    &got,
                    &want,
                    &format!("{kind:?} {n}×{d} at {threads} threads"),
                );
            }
        }
    }
}

/// A column holding both −0.0 and +0.0 is the one input on which the
/// total order may read a different bit than the retired `partial_cmp`
/// sort did: the values still compare equal.
#[test]
fn mixed_sign_zero_columns_compare_equal_to_the_retired_loops() {
    for n in TILE_ROWS {
        let rows = tile_rows(n, 650, 24, Zeros::Mixed, false);
        let refs = as_refs(&rows);
        for trim in [None, Some(0), Some((n - 1) / 3)] {
            let want = retired::coordinate(&refs, trim);
            let mut got = vec![f32::NAN; 650];
            match trim {
                None => stats::coordinate_median(&refs, &mut got),
                Some(t) => stats::coordinate_trimmed_mean(&refs, t, &mut got),
            }
            for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    g == w || (g.is_nan() && w.is_nan()),
                    "n={n} {trim:?} {j}: {g} vs {w}"
                );
            }
        }
    }
}

/// The streaming rules against the retired scalar estimator and the
/// retired reservoir, exact bits, `aggregate` and `aggregate_into`:
/// thresholds 1 and 4 put n < 5 on the exact-prefix path, 4 and 5 run
/// P² and the reservoir from the first observation row on, 256 leaves
/// all but n = 300 to the exact fallback. NaN rows (P² only — the
/// retired exact path panicked on them) ride along wherever P² runs.
#[test]
fn streaming_rules_match_the_retired_scalar_estimator_and_reservoir() {
    let mut scratch = AggScratch::default();
    let mut out = Vec::new();
    for n in TILE_ROWS {
        for d in TILE_DIMS {
            for exact_threshold in [1usize, 4, 5, 256] {
                let what = format!("n={n} d={d} exact_threshold={exact_threshold}");
                // The exact fallback sorts whole columns by the total
                // order and the retired one panicked on NaN: it gets
                // neither mixed-sign zeros nor NaN rows.
                let exact = n < exact_threshold;
                for nan in [false, true] {
                    if nan && exact {
                        continue;
                    }
                    let zeros = if exact {
                        Zeros::OneSignPerColumn
                    } else {
                        Zeros::Mixed
                    };
                    let rows = tile_rows(n, d, 25, zeros, nan);
                    let refs = as_refs(&rows);
                    let rule = AggregatorKind::StreamingMedian { exact_threshold }.build();
                    let want = retired::streaming_median(&refs, exact_threshold);
                    assert_bits(&rule.aggregate(&refs, None), &want, &what);
                    rule.aggregate_into(&refs, None, &mut out, &mut scratch);
                    assert_bits(&out, &want, &what);
                }
                let rows = tile_rows(n, d, 26, Zeros::OneSignPerColumn, false);
                let refs = as_refs(&rows);
                for ratio in TRIM_RATIOS {
                    let rule = AggregatorKind::StreamingTrimmedMean {
                        ratio,
                        exact_threshold,
                    }
                    .build();
                    let trim_of = |n: usize| TrimmedMean::new(ratio).trim_count(n);
                    let want = retired::streaming_trimmed_mean(&refs, trim_of, exact_threshold);
                    let what = format!("{what} ratio={ratio}");
                    assert_bits(&rule.aggregate(&refs, None), &want, &what);
                    rule.aggregate_into(&refs, None, &mut out, &mut scratch);
                    assert_bits(&out, &want, &what);
                }
            }
        }
    }
}
