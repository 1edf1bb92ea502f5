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
//! the same way: the block kernel (`forward_class_major`, inputs as
//! lanes) and the single-input `affine_rows` against `dot` + bias per
//! row, the rank update against the per-(input, row) `axpy` loop it
//! replaced, prediction from logits against `argmax(softmax)` — the
//! first two at every vector width the host has — the models' forward
//! passes against the per-row loops they replaced (kept here as
//! executable references), a ballot scored through one stacked panel
//! against one model load per proposal, `score_all` against
//! per-proposal `score`, and the voter-parallel mechanisms against
//! their own single-threaded outcome. The two kernels that fuse an
//! exact product into its sum (`forward_class_major`,
//! `dist_sq_pairs`) also run over operands at the edges of the
//! exactness argument.
//!
//! The model attacks' reads of the honest set are pinned the same way:
//! ALIE's coordinate-lane variance at every vector width the host has,
//! and the whole craft, against the per-column gather into `mean_var`;
//! MinMax's and MinSum's crafted updates against `dist_sq` per ordered
//! pair and a fresh candidate per bisection step.
//!
//! The cluster step's evidence is pinned the same way: verdicts read
//! from the aggregation that just ran (`judge_aggregated`) against the
//! stand-alone recompute it replaced (kept here as the reference), and
//! whole runs against themselves across thread counts — the training
//! step has one body at any worker count.

use abd_hfl::attacks::{AdaptiveAttack, DataAttack, ModelAttack, Placement, ProtocolAttack};
use abd_hfl::consensus::eval::AccuracyEvaluator;
use abd_hfl::consensus::{ConsensusKind, DistanceEvaluator, ProposalEvaluator};
use abd_hfl::core::config::{
    AsyncRoundCfg, AttackCfg, DataDistribution, HflConfig, LevelAgg, SamplingCfg, TopologyCfg,
};
use abd_hfl::core::engine::{CostCounters, RoundEngine};
use abd_hfl::core::pipeline::PipelineConfig;
use abd_hfl::core::run::RunOptions;
use abd_hfl::core::runner::{run_prepared_with, Experiment, TrainWorkspace};
use abd_hfl::faults::FaultPlan;
use abd_hfl::ml::loss::{argmax, predict, softmax_in_place, NEAR_TIE};
use abd_hfl::ml::model::BatchScratch;
use abd_hfl::ml::synth::SynthConfig;
use abd_hfl::ml::{Dataset, LinearSoftmax, Mlp, Model};
use abd_hfl::robust::evidence::{
    self, Acceptance, KRUM_STRIKE_GATE, STRIKE_RUNNER_UP, STRIKE_WORST,
};
use abd_hfl::robust::krum::{self, reference as krum_reference};
use abd_hfl::robust::median::column_stat_parallel;
use abd_hfl::robust::preagg::nnm;
use abd_hfl::robust::trimmed_mean::trim_count;
use abd_hfl::robust::{AggScratch, Aggregator, AggregatorKind, SuspicionConfig};
use abd_hfl::telemetry::Telemetry;
use abd_hfl::tensor::ops::{self, reference};
use abd_hfl::tensor::stats::{self, ColumnStat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Held by each test that sweeps the process-wide thread override.
static THREAD_OVERRIDE: Mutex<()> = Mutex::new(());

fn bits_eq_f32(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Case numbers `0..n`, each with the generator it seeds: case `c` of a
/// property draws its inputs from `StdRng::seed_from_u64(c)`, and every
/// failure names `c`.
fn cases(n: u64) -> impl Iterator<Item = (u64, StdRng)> {
    (0..n).map(|case| (case, StdRng::seed_from_u64(case)))
}

/// A generator of one `f32`.
type Elem = fn(&mut StdRng) -> f32;

/// Full adversarial value domain, NaN included: two ranges and eight
/// edge values, the ten with even odds.
fn adversarial_f32(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0..10) {
        0 => rng.gen_range(-100.0f32..100.0),
        1 => rng.gen_range(-1.0e30f32..1.0e30),
        2 => 0.0,
        3 => -0.0,
        4 => f32::NAN,
        5 => f32::INFINITY,
        6 => f32::NEG_INFINITY,
        7 => 1.0e-40,
        8 => -4.7e-42,
        _ => f32::MIN_POSITIVE,
    }
}

/// Adversarial minus NaN, for kernels whose sort comparators reject
/// unordered values by contract (`median_in_place`,
/// `trimmed_mean_in_place`).
fn ordered_f32(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0..8) {
        0 => rng.gen_range(-100.0f32..100.0),
        1 => rng.gen_range(-1.0e30f32..1.0e30),
        2 => 0.0,
        3 => -0.0,
        4 => f32::INFINITY,
        5 => f32::NEG_INFINITY,
        6 => 1.0e-40,
        _ => -4.7e-42,
    }
}

/// `len` values from `elem`.
fn vec_of(rng: &mut StdRng, len: usize, elem: Elem) -> Vec<f32> {
    (0..len).map(|_| elem(rng)).collect()
}

/// `len` values uniform in `[lo, hi)`.
fn uniform_vec(rng: &mut StdRng, len: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

/// `len` labels, any byte.
fn labels_of(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect()
}

/// `n` rows of dimension `d`, both random, values from `elem`.
fn rows_of(rng: &mut StdRng, elem: Elem, max_n: usize, max_d: usize) -> Vec<Vec<f32>> {
    let n = rng.gen_range(1..=max_n);
    let d = rng.gen_range(1..=max_d);
    (0..n).map(|_| vec_of(rng, d, elem)).collect()
}

fn as_refs(rows: &[Vec<f32>]) -> Vec<&[f32]> {
    rows.iter().map(|r| r.as_slice()).collect()
}

/// Krum scores at `hfl_parallel::default_threads()` workers.
fn krum_scores(updates: &[&[f32]], f: usize) -> Vec<f64> {
    let mut scratch = AggScratch::default();
    krum::krum_scores_into(updates, f, &mut scratch);
    scratch.scores
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
/// drawn from `xs` (cycled) so one draw sizes every shape.
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
/// naive per-sample predictions; failures name `what`.
fn count_correct_matches(
    what: &str,
    model: &dyn Model,
    data: &Dataset,
    naive: &[u8],
    rows: std::ops::Range<usize>,
) {
    let mut scratch = BatchScratch::default();
    for (i, want) in naive.iter().enumerate() {
        assert_eq!(
            model.predict(data.x(i), &mut scratch),
            *want,
            "{what}: sample {i}"
        );
    }
    let hits = |r: std::ops::Range<usize>| r.filter(|&i| naive[i] == data.y(i)).count();
    assert_eq!(
        model.count_correct(data, 0..data.len(), &mut scratch),
        hits(0..data.len()),
        "{what}: whole set"
    );
    assert_eq!(
        model.count_correct(data, rows.clone(), &mut scratch),
        hits(rows.clone()),
        "{what}: rows {rows:?}"
    );
}

/// Cases per property of the kernel and scoring equivalences below.
const KERNEL_CASES: u64 = 192;

/// Tiled distance rows == one naive `dist_sq` per row, exact f64
/// bits (NaN canonicalization makes even NaN payloads equal).
#[test]
fn dist_sq_block_matches_naive() {
    for (case, mut rng) in cases(KERNEL_CASES) {
        let rows = rows_of(&mut rng, adversarial_f32, 12, 48);
        let a = vec_of(&mut rng, 48, adversarial_f32);
        let d = rows[0].len();
        let a = &a[..d];
        let refs = as_refs(&rows);
        let mut blocked = vec![0.0f64; refs.len()];
        let mut naive = vec![0.0f64; refs.len()];
        ops::dist_sq_block(a, &refs, &mut blocked);
        reference::dist_sq_rows_naive(a, &refs, &mut naive);
        for (i, (b, n)) in blocked.iter().zip(&naive).enumerate() {
            assert_eq!(
                b.to_bits(),
                n.to_bits(),
                "case {case}: row {i}: blocked {b} vs naive {n}"
            );
        }
    }
}

/// Krum scoring through the blocked upper-triangle matrix, at every
/// thread count, == the retained pre-overhaul full-matrix scorer.
#[test]
fn krum_scores_match_naive_at_all_thread_counts() {
    for (case, mut rng) in cases(KERNEL_CASES) {
        let rows = rows_of(&mut rng, adversarial_f32, 12, 32);
        let f = rng.gen_range(0usize..4);
        let refs = as_refs(&rows);
        let naive = krum_reference::krum_scores_naive(&refs, f);
        for &t in &THREADS {
            let fast = abd_hfl::parallel::with_threads(t, || krum_scores(&refs, f));
            assert_eq!(fast.len(), naive.len(), "case {case}");
            for (i, (a, b)) in fast.iter().zip(&naive).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "case {case}: score {i} at {t} threads: {a} vs naive {b}"
                );
            }
        }
    }
}

/// Fused single-pass mean == zero/add/scale naive mean.
#[test]
fn mean_of_matches_naive() {
    for (case, mut rng) in cases(KERNEL_CASES) {
        let rows = rows_of(&mut rng, adversarial_f32, 12, 48);
        let d = rows[0].len();
        let refs = as_refs(&rows);
        let mut fused = vec![0.0f32; d];
        let mut naive = vec![0.0f32; d];
        ops::mean_of(&refs, &mut fused);
        reference::mean_of_naive(&refs, &mut naive);
        for (i, (a, b)) in fused.iter().zip(&naive).enumerate() {
            assert!(
                bits_eq_f32(*a, *b),
                "case {case}: coord {i}: fused {a} vs naive {b}"
            );
        }
    }
}

/// Fused weighted mean == per-row axpy naive weighted mean.
#[test]
fn weighted_mean_of_matches_naive() {
    for (case, mut rng) in cases(KERNEL_CASES) {
        let rows = rows_of(&mut rng, adversarial_f32, 12, 48);
        let raw_w = uniform_vec(&mut rng, 12, 0.01, 10.0);
        let d = rows[0].len();
        let refs = as_refs(&rows);
        let w = &raw_w[..refs.len()];
        let mut fused = vec![0.0f32; d];
        let mut naive = vec![0.0f32; d];
        ops::weighted_mean_of(&refs, w, &mut fused);
        reference::weighted_mean_of_naive(&refs, w, &mut naive);
        for (i, (a, b)) in fused.iter().zip(&naive).enumerate() {
            assert!(
                bits_eq_f32(*a, *b),
                "case {case}: coord {i}: fused {a} vs naive {b}"
            );
        }
    }
}

/// Indexed (gather) mean == naive mean over the gathered subset.
#[test]
fn mean_of_indexed_matches_naive_on_subset() {
    for (case, mut rng) in cases(KERNEL_CASES) {
        let rows = rows_of(&mut rng, adversarial_f32, 12, 48);
        let picks = rng.gen_range(1usize..12);
        let d = rows[0].len();
        let refs = as_refs(&rows);
        let idx: Vec<usize> = (0..picks)
            .map(|_| rng.gen_range(0usize..12) % refs.len())
            .collect();
        let subset: Vec<&[f32]> = idx.iter().map(|&i| refs[i]).collect();
        let mut fused = vec![0.0f32; d];
        let mut naive = vec![0.0f32; d];
        ops::mean_of_indexed(&refs, &idx, &mut fused);
        reference::mean_of_naive(&subset, &mut naive);
        for (i, (a, b)) in fused.iter().zip(&naive).enumerate() {
            assert!(
                bits_eq_f32(*a, *b),
                "case {case}: coord {i}: indexed {a} vs naive {b}"
            );
        }
    }
}

/// Fused multi-row axpy == one scalar axpy per row.
#[test]
fn axpy_rows_matches_per_row_axpy() {
    for (case, mut rng) in cases(KERNEL_CASES) {
        let rows = rows_of(&mut rng, adversarial_f32, 12, 48);
        let raw_w = uniform_vec(&mut rng, 12, -10.0, 10.0);
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
            assert!(
                bits_eq_f32(*a, *b),
                "case {case}: coord {i}: fused {a} vs naive {b}"
            );
        }
    }
}

/// Work-stealing coordinate median, at every thread count, == the
/// sequential per-coordinate kernel.
#[test]
fn coordinate_median_parallel_matches_sequential() {
    for (case, mut rng) in cases(KERNEL_CASES) {
        let rows = rows_of(&mut rng, ordered_f32, 9, 40);
        let d = rows[0].len();
        let refs = as_refs(&rows);
        let mut seq = vec![0.0f32; d];
        stats::coordinate_median(&refs, &mut seq);
        for &t in &THREADS {
            let mut par = vec![0.0f32; d];
            abd_hfl::parallel::with_threads(t, || {
                column_stat_parallel(ColumnStat::Median, &refs, &mut par)
            });
            for (i, (a, b)) in par.iter().zip(&seq).enumerate() {
                assert!(
                    bits_eq_f32(*a, *b),
                    "case {case}: coord {i} at {t} threads: {a} vs sequential {b}"
                );
            }
        }
    }
}

/// Work-stealing coordinate trimmed mean, at every thread count, ==
/// the sequential per-coordinate kernel.
#[test]
fn coordinate_trimmed_mean_parallel_matches_sequential() {
    for (case, mut rng) in cases(KERNEL_CASES) {
        let rows = rows_of(&mut rng, ordered_f32, 9, 40);
        let trim_pick = rng.gen_range(0usize..4);
        let d = rows[0].len();
        let refs = as_refs(&rows);
        let trim = trim_pick.min((refs.len() - 1) / 2);
        let mut seq = vec![0.0f32; d];
        stats::coordinate_trimmed_mean(&refs, trim, &mut seq);
        for &t in &THREADS {
            let mut par = vec![0.0f32; d];
            abd_hfl::parallel::with_threads(t, || {
                column_stat_parallel(ColumnStat::TrimmedMean { trim }, &refs, &mut par)
            });
            for (i, (a, b)) in par.iter().zip(&seq).enumerate() {
                assert!(
                    bits_eq_f32(*a, *b),
                    "case {case}: coord {i} at {t} threads (trim {trim}): {a} vs sequential {b}"
                );
            }
        }
    }
}

/// The Weiszfeld loop's work-stealing distance fill at every thread
/// count == its single-threaded run.
#[test]
fn geomed_identical_at_all_thread_counts() {
    for (case, mut rng) in cases(KERNEL_CASES) {
        let rows = rows_of(&mut rng, adversarial_f32, 9, 32);
        let refs = as_refs(&rows);
        let geomed = |t| {
            abd_hfl::parallel::with_threads(t, || AggregatorKind::GeoMed.aggregate(&refs, None))
        };
        let base = geomed(1);
        for &t in &THREADS[1..] {
            let est = geomed(t);
            for (i, (a, b)) in est.iter().zip(&base).enumerate() {
                assert!(
                    bits_eq_f32(*a, *b),
                    "case {case}: coord {i} at {t} threads: {a} vs single-threaded {b}"
                );
            }
        }
    }
}

/// Row counts around the distance kernel's partner block (8: under
/// one, exactly one, one and a bit, several, `agg_wide`'s sixteen) and
/// row lengths around its panel tile (256: under, exact, one over,
/// paper-sized, several) — shapes the random cases above, capped
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
            let naive = krum_reference::krum_scores_naive(&refs, f);
            for threads in [1, 2, 3, 8] {
                let fast = abd_hfl::parallel::with_threads(threads, || krum_scores(&refs, f));
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

/// `preagg::nnm`'s retired distance scan: one blocked row of
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
                    let got = abd_hfl::parallel::with_threads(threads, || nnm(&refs, k));
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

/// Row sets with coalitions — rows that are bitwise copies of one row —
/// over the grid rows at `d` coordinates: the copied row, and the rows
/// set up to look like copies without being one.
fn coalition_sets(d: usize) -> Vec<(String, Vec<Vec<f32>>)> {
    // `copies` slots from the last, every other one, hold the extra row
    // `n` of the grid (row `src` of it, when given).
    let coalition = |n: usize, copies: usize, src: Option<usize>| {
        let mut rows = grid_rows(n + 1, d);
        let crafted = rows[src.unwrap_or(n)].clone();
        rows.truncate(n);
        for slot in (0..n).rev().step_by(2).take(copies) {
            rows[slot].clone_from(&crafted);
        }
        rows
    };
    let mut sets = vec![];
    for (n, copies) in [(9usize, 2usize), (17, 9), (128, 51)] {
        sets.push((format!("{copies} of {n}"), coalition(n, copies, None)));
    }
    let mut several = grid_rows(40, d);
    for i in 0..40 {
        if i % 5 == 4 {
            several[i] = several[4].clone();
        } else if i % 7 == 2 {
            several[i] = several[2].clone();
        } else if i > 30 {
            several[i] = several[31].clone();
        }
    }
    sets.push(("several coalitions".into(), several));
    sets.push((
        "every row equal".into(),
        vec![grid_rows(1, d)[0].clone(); 17],
    ));
    // Grid row 7 holds NaN and ±∞, row 3 +∞: their copies are NaN and
    // ∞ apart from each other.
    sets.push(("a NaN / ±∞ row repeated".into(), coalition(17, 5, Some(7))));
    sets.push(("an ∞ row repeated".into(), coalition(12, 3, Some(3))));
    // Rows that must stay apart, among copies that trigger the collapse:
    // a zero whose sign differs, and two coordinates of one key lane
    // (16 apart) whose bits moved one up and one down — the same
    // wrapping sum, a different last coordinate.
    let mut apart = coalition(12, 4, None);
    let last = d - 1;
    let mut zero = apart[1].clone();
    zero[0] = 0.0;
    let mut negative_zero = zero.clone();
    negative_zero[0] = -0.0;
    let nudge = |x: f32, up: bool| {
        let bits = x.to_bits();
        f32::from_bits(if up {
            bits.wrapping_add(1)
        } else {
            bits.wrapping_sub(1)
        })
    };
    let mut same_key = zero.clone();
    same_key[last] = nudge(zero[last], true);
    same_key[last - 16] = nudge(zero[last - 16], false);
    apart[1].clone_from(&zero);
    apart[2] = negative_zero;
    apart[3] = zero;
    apart[4] = same_key;
    sets.push(("a zero's sign and a shared key apart".into(), apart));
    sets
}

/// The pair fill over coalitions == one `dist_sq` per pair, exact bits,
/// at every vector width the host has and at 1/2/4/8 threads, through
/// one warm `RowGroups`: a coalition's rows are measured once and the
/// result expanded, and rows that only look alike are not merged. Krum
/// scoring, Multi-Krum and NNM over the same rows equal their reference
/// arms.
#[test]
fn pair_fill_measures_a_coalition_once_and_reads_as_dist_sq_per_pair() {
    let widths = widths_on_this_host("pairwise_dist_sq");
    let mut groups = ops::RowGroups::default();
    let mut dists = Vec::new();
    for (name, rows) in coalition_sets(257).into_iter().chain(coalition_sets(1031)) {
        let refs = as_refs(&rows);
        let n = refs.len();
        let d = refs[0].len();
        for &width in &widths {
            for threads in THREADS {
                abd_hfl::parallel::with_threads(threads, || {
                    ops::with_width(width, || {
                        ops::pairwise_dist_sq(&refs, &mut dists, &mut groups)
                    })
                })
                .expect("a detected width");
                for i in 0..n {
                    for j in 0..n {
                        let want = if i < j {
                            ops::dist_sq(refs[i], refs[j])
                        } else {
                            0.0
                        };
                        assert_eq!(
                            dists[i * n + j].to_bits(),
                            want.to_bits(),
                            "{name}, d={d}, {width:?} at {threads} threads: ({i}, {j})"
                        );
                    }
                }
            }
        }
        let f = n / 4;
        let naive = krum_reference::krum_scores_naive(&refs, f);
        let (m, k) = (n - f, n.div_ceil(3));
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|a, b| naive[*a].total_cmp(&naive[*b]));
        idx.truncate(m);
        let mut mean = vec![0.0f32; d];
        ops::mean_of_indexed(&refs, &idx, &mut mean);
        let mixed_naive = nnm_naive(&refs, k);
        for threads in [1, 2, 8] {
            let scores = abd_hfl::parallel::with_threads(threads, || krum_scores(&refs, f));
            assert!(
                scores
                    .iter()
                    .zip(&naive)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{name}, d={d}: Krum scores at {threads} threads"
            );
            let (got, mixed) = abd_hfl::parallel::with_threads(threads, || {
                (
                    AggregatorKind::MultiKrum { f, m }.aggregate(&refs, None),
                    nnm(&refs, k),
                )
            });
            assert!(
                got.iter().zip(&mean).all(|(a, b)| bits_eq_f32(*a, *b)),
                "{name}, d={d}: Multi-Krum at {threads} threads"
            );
            for (i, (g, w)) in mixed.iter().zip(&mixed_naive).enumerate() {
                assert!(
                    g.iter().zip(w).all(|(a, b)| bits_eq_f32(*a, *b)),
                    "{name}, d={d}: NNM row {i} at {threads} threads"
                );
            }
        }
    }
}

/// The vector widths this host can run, each named once per test run.
fn widths_on_this_host(kernel: &str) -> Vec<ops::Width> {
    let widths: Vec<_> = ops::Width::ALL
        .into_iter()
        .filter(|w| ops::with_width(*w, || ()).is_some())
        .collect();
    assert!(widths.contains(&ops::Width::Plain));
    println!("{kernel} widths run on this host: {widths:?}");
    widths
}

/// Rows whose large products cancel: values near 1 on even rows; on
/// odd rows each coordinate `c ≡ 0 (mod 4)` repeated at `c + 2`, as is
/// in a weight row and 2⁴⁰ times larger in an input, negated at `c + 2`.
/// Where two odd rows meet, the products run big, small, minus big,
/// small, …: each small one after a big one is rounded at the big one's
/// scale and the big ones cancel exactly, so a chain that visits two
/// coordinates out of order, restarts or reassociates leaves a
/// difference in the `f32` result that a chain of like magnitudes,
/// rounded once more to `f32`, hides.
fn cancel_rows(n: usize, d: usize, weights: bool) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            let mut row: Vec<f32> = (0..d)
                .map(|c| {
                    let mut x = ((i as u64) << 32 | c as u64)
                        .wrapping_add(u64::from(weights) + 11)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    x ^= x >> 29;
                    let (sign, exp) = (((x >> 63) as u32) << 31, 126 + (x % 2) as u32);
                    f32::from_bits(sign | exp << 23 | ((x >> 20) as u32 & 0x007f_ffff))
                })
                .collect();
            if i % 2 == 1 {
                for c in (0..d.saturating_sub(2)).step_by(4) {
                    if !weights {
                        row[c] *= (1u64 << 40) as f32;
                    }
                    row[c + 2] = if weights { row[c] } else { -row[c] };
                }
            }
            row
        })
        .collect()
}

/// The block forward — lane groups of 8, 16 and 32 inputs, a ragged
/// last group, blocks of one group and of several — == one `dot` + bias
/// per (input, row), exact bits, at every vector width the host has and
/// through the dispatch (which hands a block of one to `affine_rows`):
/// row counts that end in a whole group of rows (two or four run at a
/// time) and in a partial one,
/// row lengths short, odd, one input tile (64), one past it and two, over
/// the grid rows (NaN, ±∞, subnormals, signed zeros), the edge rows and
/// rows whose large products cancel ([`cancel_rows`]), which show a
/// chain visited out of order. The output starts dirty, and a swapped
/// pair of accumulators or a dropped input would show in the last bits.
/// A fused multiply-add would not, and is there: the product of two
/// widened `f32`s is exact in `f64`, so it rounds once either way
/// (DESIGN.md §15) — at binades 2^±60, subnormal × subnormal,
/// `f32::MAX²` and `∞ · 0` as anywhere else. What pins the line between
/// that product and every other is the rank update: fusing
/// `rank_tile`'s `f32` product fails
/// `rank_update_matches_the_retired_axpy_loop_at_every_width`.
#[test]
fn block_forward_matches_dot_per_row_at_every_width() {
    let widths = widths_on_this_host("forward_class_major");
    type Rows = fn(usize, usize) -> Vec<Vec<f32>>;
    let (cancel_w, cancel_x): (Rows, Rows) = (
        |n, d| cancel_rows(n, d, true),
        |n, d| cancel_rows(n, d, false),
    );
    for (kind, weights, inputs) in [
        ("grid", grid_rows as Rows, grid_rows as Rows),
        ("edge", edge_rows, edge_rows),
        ("cancel", cancel_w, cancel_x),
    ] {
        for rows in [1usize, 2, 3, 10, 16, 17] {
            for d in [1usize, 7, 64, 65, 130] {
                let w: Vec<f32> = weights(rows, d).concat();
                let bias = &grid_rows(1, rows)[0];
                let pool = inputs(33, d);
                for block in [1usize, 2, 3, 7, 8, 9, 16, 17, 31, 32, 33] {
                    // Distinct inputs, the poisoned rows of the grid
                    // among them, starting somewhere else for each
                    // block size.
                    let xs: Vec<&[f32]> = (0..block).map(|s| &pool[(s + block) % 33][..]).collect();
                    let mut want = vec![0.0f32; block * rows];
                    for (s, x) in xs.iter().enumerate() {
                        for (r, v) in reference::affine_naive(&w, bias, x).into_iter().enumerate() {
                            want[r * block + s] = v;
                        }
                    }
                    // `None` is the dispatch.
                    for width in widths.iter().copied().map(Some).chain([None]) {
                        let mut got = vec![f32::NAN; block * rows];
                        match width {
                            Some(at) => ops::with_width(at, || {
                                ops::forward_class_major(&w, bias, &xs, &mut got)
                            })
                            .expect("detected"),
                            None => ops::forward_class_major(&w, bias, &xs, &mut got),
                        }
                        for (at, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert!(
                                bits_eq_f32(*g, *w),
                                "{kind} {width:?} rows={rows} d={d} block={block} row {} \
                                 input {}: {g} vs {w}",
                                at / block,
                                at % block
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Both tile caps a [`ops::Panel`] is filled under: sixteen lanes
/// (what an AVX-512 host fills) and eight (any other).
const PANEL_CAPS: [ops::Width; 2] = [ops::Width::Avx512, ops::Width::Avx2];

/// A panel filled from K matrices handed over one by one is the panel
/// filled from their concatenation — same tiles, same lanes, whatever
/// tile a matrix starts or ends in — so the approximate pass a ballot is
/// decided from reads the same value for every (row, input) from
/// either, bit for bit at one width under each tile cap the host has.
#[test]
fn a_panel_of_stacked_matrices_is_the_panel_of_their_concatenation() {
    let (mut stacked, mut whole) = (ops::Panel::default(), ops::Panel::default());
    for k in [1usize, 2, 4, 7] {
        for (rows, d) in [(10usize, 64usize), (3, 7), (5, 1)] {
            let mats: Vec<Vec<f32>> = grid_rows(k * rows, d)
                .chunks(rows)
                .map(|m| m.concat())
                .collect();
            let w = mats.concat();
            let pool = edge_rows(9, d);
            let xs: Vec<&[f32]> = pool.iter().map(|x| &x[..]).collect();
            for cap in PANEL_CAPS {
                let filled = ops::with_width(cap, || {
                    stacked.fill(mats.iter().map(|m| &m[..]), rows, d);
                    whole.fill([&w[..]], k * rows, d);
                });
                if filled.is_none() {
                    continue;
                }
                let mut want = vec![f32::NAN; k * rows * xs.len()];
                ops::forward_approx(&whole, &xs, &mut want);
                let mut got = vec![0.0f32; want.len()];
                ops::forward_approx(&stacked, &xs, &mut got);
                for (at, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert!(
                        bits_eq_f32(*g, *w),
                        "k={k} rows={rows} d={d} on {cap:?}'s tiles, row {} input {}: \
                         {g} vs {w}",
                        at / xs.len(),
                        at % xs.len()
                    );
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
                        ops::with_width(width, || {
                            ops::rank_update(&mut got, &coeff, &xs, skip_zero)
                        })
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

/// A deterministic value in `[0, 1)`.
fn unit_at(seed: u64) -> f32 {
    let mut x = seed.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 29;
    (x >> 40) as f32 / (1u64 << 24) as f32
}

/// The rounding staircase: `2¹⁰` and then `2⁻²·(1 + 2⁻¹²)` at every
/// other coordinate. Under the weights `±x`, every `f32` step after the
/// first adds a little over half an ulp of `2²⁰` and rounds a whole ulp
/// up (down under `−x`), so a single-chain `f32` dot overstates the
/// real one by nearly `n·u·‖w‖·‖x‖` — half the certificate's `γ₂ₙ` term.
fn staircase(d: usize) -> Vec<f32> {
    let step = 0.25 * (1.0 + 1.0 / 4096.0);
    (0..d).map(|c| if c == 0 { 1024.0 } else { step }).collect()
}

/// The `(base, later)` logit pairs of the near-tie proposals: row 0 holds
/// `base`, row 1 `later`, every other row a little less. Ties, 1–40 ulps
/// either way at `0.03` (where gaps under 16 ulps round the softmax's
/// two probabilities together, and the earlier row wins), and `NEAR_TIE`
/// ± a few ulps over a zero.
fn near_ties() -> Vec<(f32, f32)> {
    let ulps = |v: f32, k: i32| f32::from_bits((v.to_bits() as i32 + k) as u32);
    let mut pairs: Vec<(f32, f32)> = [0, 1, 13, 15, 40, -1, -13]
        .into_iter()
        .map(|k| (0.03, ulps(0.03, k)))
        .collect();
    pairs.extend([1, 13].map(|k| (1.0, ulps(1.0, k))));
    pairs.extend([-2, -1, 0, 1, 3].map(|k| (0.0, ulps(NEAR_TIE, k))));
    pairs
}

/// 37 samples of dimension `d` (one full block of 32 and a short one):
/// basis vectors `2ᵗ·e_j` (the logits are a column of `W`, scaled by a
/// power of two — exact on both paths) labelled 0 and 1 in turn, the
/// staircase labelled 1, ordinary values, and one in four poisoned —
/// a NaN, a `+∞`, subnormals only, or an `f32::MAX / 4` coordinate.
fn ballot_samples(d: usize, classes: usize) -> Dataset {
    let n = 37;
    let (mut feats, mut ys) = (Vec::with_capacity(n * d), Vec::with_capacity(n));
    for i in 0..n {
        let h = |c: usize| unit_at((i * 7919 + c) as u64 ^ (d as u64) << 40);
        let ordinary = || (0..d).map(|c| h(c) * 6.0 - 3.0).collect::<Vec<f32>>();
        let mut x = match i % 4 {
            0 => {
                let scale = [1.0f32, 0.5, 0.25, 2.0][(i / 4) % 4];
                (0..d)
                    .map(|c| if c == (i / 4) % d { scale } else { 0.0 })
                    .collect()
            }
            1 if d > 1 => staircase(d),
            _ => ordinary(),
        };
        if i % 4 == 3 {
            let at = i % d;
            match i % 16 {
                3 => x[at] = f32::NAN,
                7 => x[at] = f32::INFINITY,
                11 => x.iter_mut().for_each(|v| *v *= 1e-40),
                _ => x[at] = f32::MAX / 4.0,
            }
        }
        feats.extend(x);
        ys.push(match i % 4 {
            0 => ((i / 4) % 2) as u8,
            1 => 1,
            _ => (h(d) * classes as f32) as u8 % classes as u8,
        });
    }
    Dataset::from_parts(d, classes, feats, ys)
}

/// The `q`-th proposal of the grid, `[W (classes × d) | b]`: near ties
/// (`q % 6 == 0`, one `near_ties` pair per column, the rest of a column
/// just below), the staircase's `±x` rows with the bias that puts the
/// exact logits half a unit apart the other way round from the `f32`
/// ones, ordinary weights at three scales, all zeros (every pair ties),
/// or poisoned: a NaN bias beside a row that wins by 10 (only the
/// finiteness check sees it), a NaN or `+∞` weight, `f32::MAX / 8`
/// weights, or subnormal weights.
fn ballot_proposal(q: usize, d: usize, classes: usize) -> Vec<f32> {
    let mut w = vec![0.0f32; classes * d];
    let mut b = vec![0.0f32; classes];
    let h = |c: usize| unit_at((q * 104_729 + c) as u64);
    let ordinary = |w: &mut [f32], b: &mut [f32], scale: f32| {
        w.iter_mut()
            .enumerate()
            .for_each(|(c, v)| *v = (h(c) - 0.5) * scale);
        b.iter_mut()
            .enumerate()
            .for_each(|(c, v)| *v = h(w.len() + c) - 0.5);
    };
    match q % 6 {
        0 => {
            let pairs = near_ties();
            for j in 0..d {
                let (base, later) = pairs[(q / 6 + j) % pairs.len()];
                for r in 0..classes {
                    w[r * d + j] = base - 0.001;
                }
                (w[j], w[d + j]) = (base, later);
            }
        }
        1 if d > 1 => {
            let x = staircase(d);
            let exact = ops::dot(&x, &x) as f32;
            w[..d].copy_from_slice(&x);
            w[d..2 * d].iter_mut().zip(&x).for_each(|(v, x)| *v = -x);
            b[1] = 2.0 * exact + 0.5;
            b[2..].iter_mut().for_each(|v| *v = -1_048_576.0);
        }
        2 => ordinary(&mut w, &mut b, [0.5, 1e3, 1e-3][q / 6 % 3]),
        3 => {}
        _ => match q / 6 % 5 {
            0 => {
                ordinary(&mut w, &mut b, 0.5);
                w[d..2 * d].iter_mut().for_each(|v| *v = 10.0);
                b[0] = f32::NAN;
            }
            1 => {
                ordinary(&mut w, &mut b, 0.5);
                w[(q % classes) * d + q % d] = f32::NAN;
            }
            2 => {
                ordinary(&mut w, &mut b, 0.5);
                w[(q % classes) * d + q % d] = f32::INFINITY;
            }
            3 => ordinary(&mut w, &mut b, f32::MAX / 4.0),
            _ => w
                .iter_mut()
                .enumerate()
                .for_each(|(c, v)| *v = h(c) * 1e-40),
        },
    }
    w.extend(b);
    w
}

/// The two-stage ballot (`f32` pass, certificate, exact fallback) ==
/// the retired `f64` ballot, hit for hit, at every vector width the host
/// has and through the dispatch: K ∈ {1, 2, 4, 5} proposals × classes ∈
/// {2, 3, 10, 17} × d ∈ {1, 7, 64, 65, 650}, over `ballot_samples` and
/// `ballot_proposal`. And for every pair the pass certified, the exact
/// logits are what the certificate claims: all finite, the certified
/// class more than `NEAR_TIE` above every other after `predict`'s own
/// subtraction — so `predict` names it without the softmax.
///
/// The grid has power: an *unguarded* `f32` argmax (the approximate
/// logits' first maximum) names another class than `predict` on some
/// pairs with finite logits, and hand mutations of `loss::decide` fail this test — the
/// bound divided by 4 (the staircase), the finiteness check dropped (the
/// NaN bias), `NEAR_TIE` dropped from the margin (near ties of 13 and 15
/// ulps, which the softmax rounds together).
#[test]
fn a_ballot_decided_in_f32_counts_the_retired_ballot_s_hits_at_every_width() {
    let widths = widths_on_this_host("count_correct_each");
    let (mut certified, mut fell_back, mut unguarded_wrong) = (0usize, 0usize, 0usize);
    let mut panel = ops::Panel::default();
    for d in [1usize, 7, 64, 65, 650] {
        let mut q = 0;
        for classes in [2usize, 3, 10, 17] {
            let data = ballot_samples(d, classes);
            let (n, model) = (data.len(), LinearSoftmax::new(d, classes));
            for k in [1usize, 2, 4, 5] {
                let thetas: Vec<Vec<f32>> = (0..k)
                    .map(|_| {
                        q += 1;
                        ballot_proposal(q, d, classes)
                    })
                    .collect();
                let refs = as_refs(&thetas);
                let want = retired::count_correct_each(&model, &refs, &data, 0..n);
                let exact: Vec<Vec<f32>> = (0..n * k)
                    .map(|at| {
                        let (w, b) = refs[at % k].split_at(classes * d);
                        reference::affine_naive(w, b, data.x(at / k))
                    })
                    .collect();
                let what = |width: &dyn std::fmt::Debug| {
                    format!("{width:?} d={d} classes={classes} k={k}")
                };
                for &width in &widths {
                    let (mut hits, mut cert) = (vec![usize::MAX; k], vec![None; n * k]);
                    let fallbacks = ops::with_width(width, || {
                        model.count_correct_each_certified(&refs, &data, 0..n, &mut hits, &mut cert)
                    })
                    .expect("detected");
                    assert_eq!(hits, want, "{}", what(&width));
                    assert_eq!(fallbacks, cert.iter().filter(|c| c.is_none()).count());
                    (certified, fell_back) = (certified + n * k - fallbacks, fell_back + fallbacks);
                    for (at, class) in cert.iter().enumerate() {
                        let Some(class) = class else { continue };
                        let (logits, c) = (&exact[at], *class as usize);
                        assert!(
                            logits.iter().all(|l| l.is_finite())
                                && (0..classes).all(|i| i == c || logits[c] - logits[i] > NEAR_TIE),
                            "{}: sample {} proposal {} certified as {c}: {logits:?}",
                            what(&width),
                            at / k,
                            at % k
                        );
                    }
                    // The same pass with no certificate.
                    let xs: Vec<&[f32]> = (0..n).map(|i| data.x(i)).collect();
                    let mut dots = vec![0.0f32; n * k * classes];
                    panel.fill(refs.iter().map(|t| &t[..classes * d]), classes, d);
                    ops::with_width(width, || ops::forward_approx(&panel, &xs, &mut dots))
                        .expect("detected");
                    for (at, logits) in exact.iter().enumerate() {
                        let (s, p) = (at / k, at % k);
                        let bias = &refs[p][classes * d..];
                        let approx: Vec<f32> = (0..classes)
                            .map(|r| dots[(p * classes + r) * n + s] + bias[r])
                            .collect();
                        let finite = logits.iter().all(|l| l.is_finite());
                        let misnamed = argmax(&approx) != predict(&mut logits.clone());
                        unguarded_wrong += usize::from(finite && misnamed);
                    }
                }
                let mut hits = vec![usize::MAX; k];
                model.count_correct_each(
                    &refs,
                    &data,
                    0..n,
                    &mut BatchScratch::default(),
                    &mut hits,
                );
                assert_eq!(hits, want, "{}", what(&"dispatch"));
                let mut first = model.clone();
                first.set_params(refs[0]);
                let part = retired::count_correct_each(&model, &refs[..1], &data, 5..34);
                let one = first.count_correct(&data, 5..34, &mut BatchScratch::default());
                assert_eq!(vec![one], part, "{}", what(&"count_correct"));
            }
        }
    }
    println!(
        "ballot grid: {certified} pairs certified, {fell_back} recomputed, \
         {unguarded_wrong} with finite logits misnamed by an unguarded f32 argmax"
    );
    assert!(unguarded_wrong > 0 && certified > 0 && fell_back > 0);
}

/// The single-input kernel == one `dot` + bias per row, for every row
/// count 1..=35 (each lockstep block size, even and uneven splits) and
/// d ≥ 0 — and so does the block kernel handed that one input, through
/// its dispatch (which takes `affine_rows`) and twice over (one lane
/// group of eight, six of them copies dropped). (Blocks of
/// several inputs: the seeded grid above.)
#[test]
fn affine_rows_matches_dot_per_row() {
    for (case, mut rng) in cases(KERNEL_CASES) {
        let rows = rng.gen_range(1usize..=35);
        let d = rng.gen_range(0usize..=48);
        let w = vec_of(&mut rng, 35 * 48, adversarial_f32);
        let bias = vec_of(&mut rng, 35, adversarial_f32);
        let x = vec_of(&mut rng, 48, adversarial_f32);
        let (w, bias, x) = (&w[..rows * d], &bias[..rows], &x[..d]);
        let naive = reference::affine_naive(w, bias, x);
        let mut lockstep = vec![0.0f32; rows];
        ops::affine_rows(w, bias, x, &mut lockstep);
        let mut dispatched = vec![f32::NAN; rows];
        ops::forward_class_major(w, bias, &[x], &mut dispatched);
        let mut lanes = vec![f32::NAN; 2 * rows];
        ops::forward_class_major(w, bias, &[x, x], &mut lanes);
        for (r, b) in naive.iter().enumerate() {
            for (what, got) in [
                ("lockstep", lockstep[r]),
                ("dispatched block", dispatched[r]),
                ("lane group", lanes[2 * r]),
            ] {
                assert!(
                    bits_eq_f32(got, *b),
                    "case {case}: row {r} of {rows}: {what} {got} vs dot {b}"
                );
            }
        }
    }
}

/// A random sub-range of `0..n`.
fn cut_of(rng: &mut StdRng, max: usize, n: usize) -> std::ops::Range<usize> {
    let (a, b) = (rng.gen_range(0..=max), rng.gen_range(0..=max));
    a.min(b).min(n)..a.max(b).min(n)
}

/// `LinearSoftmax` predicts (single-input kernel) and counts hits
/// (panel kernel, or the single-input one on a one-row range)
/// exactly as its retired per-row loop did — NaN logits included.
#[test]
fn linear_scoring_matches_per_row_reference() {
    for (case, mut rng) in cases(KERNEL_CASES) {
        let classes = rng.gen_range(2usize..=19);
        let d = rng.gen_range(1usize..=24);
        let theta = vec_of(&mut rng, 19 * 24 + 19, adversarial_f32);
        let xs = vec_of(&mut rng, 64, adversarial_f32);
        let labels = labels_of(&mut rng, 16);
        let n = rng.gen_range(1usize..=40);
        let rows = cut_of(&mut rng, 40, n);
        let mut model = LinearSoftmax::new(d, classes);
        let theta = &theta[..model.param_len()];
        model.set_params(theta);
        let data = dataset_from(&xs, &labels, n, d, classes);
        let naive: Vec<u8> = (0..n)
            .map(|i| linear_predict_naive(theta, classes, data.x(i)))
            .collect();
        count_correct_matches(&format!("case {case}"), &model, &data, &naive, rows);
    }
}

/// Same for both layers of `Mlp`; widths past 16 split a layer
/// into two panel tiles.
#[test]
fn mlp_scoring_matches_per_row_reference() {
    for (case, mut rng) in cases(KERNEL_CASES) {
        let classes = rng.gen_range(2usize..=11);
        let hidden = rng.gen_range(1usize..=19);
        let d = rng.gen_range(1usize..=16);
        let theta = vec_of(&mut rng, 19 * 16 + 19 + 11 * 19 + 11, adversarial_f32);
        let xs = vec_of(&mut rng, 64, adversarial_f32);
        let labels = labels_of(&mut rng, 16);
        let n = rng.gen_range(1usize..=24);
        let rows = cut_of(&mut rng, 24, n);
        let mut model = Mlp::new(d, hidden, classes, &mut StdRng::seed_from_u64(0));
        let theta = &theta[..model.param_len()];
        model.set_params(theta);
        let data = dataset_from(&xs, &labels, n, d, classes);
        let naive: Vec<u8> = (0..n)
            .map(|i| mlp_predict_naive(theta, hidden, classes, data.x(i)))
            .collect();
        count_correct_matches(&format!("case {case}"), &model, &data, &naive, rows);
    }
}

/// Batched ballot scoring == one `score` per proposal, for the
/// overriding `AccuracyEvaluator` (over owned shards and over
/// borrowed row ranges, which must also agree with each other) and
/// for the trait default.
#[test]
fn score_all_matches_per_proposal_score() {
    for (case, mut rng) in cases(KERNEL_CASES) {
        let voters = rng.gen_range(1usize..=5);
        let count = rng.gen_range(1usize..7);
        let proposals: Vec<Vec<f32>> = (0..count)
            .map(|_| vec_of(&mut rng, 3 * 4 + 3, ordered_f32))
            .collect();
        let xs = uniform_vec(&mut rng, 64, -10.0, 10.0);
        let labels = labels_of(&mut rng, 16);
        let n = rng.gen_range(5usize..=40);
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
                assert_eq!(&batched, &singly, "case {case}: voter {v}");
            }
            let mut batched = vec![0.0f64; refs.len()];
            distance.score_all(v, &refs, &mut batched);
            for (b, p) in batched.iter().zip(&refs) {
                assert_eq!(
                    b.to_bits(),
                    distance.score(v, p).to_bits(),
                    "case {case}: voter {v}"
                );
            }
        }
    }
}

/// Every voter-parallel mechanism decides the identical
/// `ConsensusOutcome` at 1/2/4/8 threads, under the accuracy evaluator
/// (integer hit counts) and the distance evaluator alike.
#[test]
fn vote_outcomes_identical_at_all_thread_counts() {
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
        let kinds = [
            ConsensusKind::VoteMajority,
            ConsensusKind::Vote { exclude: 1 },
            ConsensusKind::Committee {
                size: 3,
                exclude: 1,
            },
            ConsensusKind::StakeVote {
                stakes: (0..n).map(|v| 1.0 + (v % 3) as f64).collect(),
            },
        ];
        for eval in [&accuracy as &dyn ProposalEvaluator, &distance] {
            for kind in &kinds {
                let decide = |threads: usize| {
                    abd_hfl::parallel::with_threads(threads, || {
                        kind.decide(&refs, &byz, eval, &mut StdRng::seed_from_u64(9))
                    })
                };
                let base = decide(1);
                for &t in &THREADS[1..] {
                    assert_eq!(
                        decide(t),
                        base,
                        "{} over {n} proposals at {t} threads",
                        kind.name()
                    );
                }
            }
        }
    }
}

/// Wide-ranged but finite values, for rules whose distances must stay
/// ordered (`inf − inf` is NaN, which AutoGM's and the coordinate
/// kernels' comparators reject by contract) and whose inverse-distance
/// weights must not overflow (Weiszfeld's `1/d` at `d = 1e-12`).
fn finite_f32(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0..7) {
        0 => rng.gen_range(-100.0f32..100.0),
        1 => rng.gen_range(-1.0e15f32..1.0e15),
        2 => 0.0,
        3 => -0.0,
        4 => 1.0e-40,
        5 => -4.7e-42,
        _ => f32::MIN_POSITIVE,
    }
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
                let scores = krum_scores(updates, *f);
                let mut acc = by_scores(&scores, 1);
                gate_krum(&mut acc, &scores);
                acc
            }
            AggregatorKind::MultiKrum { f, m } => {
                let scores = krum_scores(updates, *f);
                let mut selected: Vec<usize> = (0..n).collect();
                selected.sort_by(|a, b| scores[*a].total_cmp(&scores[*b]));
                selected.truncate((*m).max(1).min(n));
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
                let mixed = nnm(updates, *k);
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
        let t = trim_count(ratio, n);
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
        let agg = kind.aggregate(updates, None);
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
    case: u64,
    kinds: &[AggregatorKind],
    rows: &[Vec<f32>],
    weights: &[f32],
) {
    let refs = as_refs(rows);
    let doubled: Vec<&[f32]> = refs.iter().chain(&refs).copied().collect();
    for kind in kinds {
        let want = judge_reference::judge(kind, &refs);
        let mut scratch = AggScratch::default();
        let mut out = Vec::new();
        kind.aggregate_into(&doubled, None, &mut out, &mut scratch);
        for w in [None, Some(&weights[..refs.len()])] {
            kind.aggregate_into(&refs, w, &mut out, &mut scratch);
            let got = evidence::judge_aggregated(kind, &refs, &out, &scratch);
            assert_eq!(
                &got.accepted, &want.accepted,
                "case {case}: {kind:?} weights {w:?}"
            );
            let bits = |a: &Acceptance| a.strikes.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&got),
                bits(&want),
                "case {case}: {kind:?} weights {w:?}"
            );
        }
        assert_eq!(
            evidence::judge(kind, &refs),
            want,
            "case {case}: {kind:?} (convenience)"
        );
    }
}

/// Cases per property of the evidence equivalences below.
const EVIDENCE_CASES: u64 = 96;

/// Deadline weights for up to 13 rows.
fn weights_of(rng: &mut StdRng) -> Vec<f32> {
    (0..13).map(|_| rng.gen_range(0.05f32..=1.0)).collect()
}

/// The Krum family reads its scores and selection out of the
/// scratch; NaN and ±∞ inputs included (NaN scores order last).
#[test]
fn krum_family_evidence_reads_the_aggregation() {
    for (case, mut rng) in cases(EVIDENCE_CASES) {
        let rows = rows_of(&mut rng, adversarial_f32, 13, 6);
        let weights = weights_of(&mut rng);
        let f = rng.gen_range(0usize..4);
        let m = rng.gen_range(1usize..14);
        let k = rng.gen_range(1usize..5);
        let s = rng.gen_range(1usize..4);
        let multi = AggregatorKind::MultiKrum { f, m };
        let kinds = [
            AggregatorKind::FedAvg,
            AggregatorKind::Krum { f },
            multi.clone(),
            AggregatorKind::SampledKrum { f, m },
            AggregatorKind::Nnm {
                k,
                inner: Box::new(multi),
            },
            AggregatorKind::Nnm {
                k,
                inner: Box::new(AggregatorKind::Krum { f }),
            },
            AggregatorKind::Bucketing {
                s,
                inner: Box::new(AggregatorKind::Krum { f }),
            },
        ];
        evidence_matches_reference(case, &kinds, &rows, &weights);
    }
}

/// The coordinate-wise rules (±∞ inputs included) measure residuals
/// against the partial the aggregation produced.
#[test]
fn coordinate_rule_evidence_reads_the_aggregation() {
    for (case, mut rng) in cases(EVIDENCE_CASES) {
        let rows = rows_of(&mut rng, ordered_f32, 13, 6);
        let weights = weights_of(&mut rng);
        let ratio = rng.gen_range(0.0f64..0.45);
        let kinds = [
            AggregatorKind::Median,
            AggregatorKind::TrimmedMean { ratio },
            AggregatorKind::StreamingMedian { exact_threshold: 4 },
            AggregatorKind::StreamingTrimmedMean {
                ratio,
                exact_threshold: 4,
            },
        ];
        evidence_matches_reference(case, &kinds, &rows, &weights);
    }
}

/// The iterative rules and the wrappers around coordinate rules,
/// over extreme finite values.
#[test]
fn residual_rule_evidence_reads_the_aggregation() {
    for (case, mut rng) in cases(EVIDENCE_CASES) {
        let rows = rows_of(&mut rng, finite_f32, 13, 6);
        let weights = weights_of(&mut rng);
        let ratio = rng.gen_range(0.0f64..0.45);
        let k = rng.gen_range(1usize..5);
        let s = rng.gen_range(1usize..4);
        let kinds = [
            AggregatorKind::GeoMed,
            AggregatorKind::CenteredClip { tau: 1.0, iters: 3 },
            AggregatorKind::CosineClustering { threshold: 0.5 },
            AggregatorKind::AutoGm { kappa: 3.0 },
            AggregatorKind::Bucketing {
                s,
                inner: Box::new(AggregatorKind::Median),
            },
            AggregatorKind::Nnm {
                k,
                inner: Box::new(AggregatorKind::TrimmedMean { ratio }),
            },
            AggregatorKind::Nnm {
                k,
                inner: Box::new(AggregatorKind::GeoMed),
            },
        ];
        evidence_matches_reference(case, &kinds, &rows, &weights);
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

/// The lane-wise ChaCha12 block body == the retired scalar block, at
/// every vector width the host has: lane `l` is the block at counter
/// `ctr[l]` under the zero key and two others, for sixteen consecutive
/// counters from 0, 15, 16, 2³² − 1 (the high counter word turns over
/// mid-pass), 2³² and 2³⁶ + 5, and for lanes whose counters are not
/// consecutive — descending, repeated, scattered across the high word,
/// `u64::MAX`. The output starts dirty. A swapped pair of lanes, a
/// rotation out of place or a dropped high counter word fails here.
#[test]
fn chacha_blocks_match_the_retired_scalar_block_at_every_width() {
    use abd_hfl::ml::rng::{blocks, splitmix64};
    let widths = widths_on_this_host("ChaCha12 blocks");
    let keys: [[u32; 8]; 3] = [
        [0; 8],
        [7; 8],
        std::array::from_fn(|j| splitmix64(j as u64) as u32),
    ];
    let mut lane_sets: Vec<[u64; 16]> = [0u64, 15, 16, (1 << 32) - 1, 1 << 32, (1 << 36) + 5]
        .into_iter()
        .map(|first| std::array::from_fn(|l| first + l as u64))
        .collect();
    lane_sets.push(std::array::from_fn(|l| 1_000 - 7 * l as u64));
    lane_sets.push([
        (1 << 36) + 5,
        0,
        16,
        (1 << 32) - 1,
        7,
        7,
        u64::MAX,
        1 << 32,
        3,
        (1 << 33) + 1,
        15,
        9,
        2,
        1 << 40,
        12_345,
        64,
    ]);
    for key in &keys {
        for ctr in &lane_sets {
            let want: Vec<[u32; 16]> = ctr.iter().map(|&c| retired::chacha_block(key, c)).collect();
            for &width in &widths {
                let mut got = [[0xDEAD_BEEF; 16]; 16];
                ops::with_width(width, || blocks(key, ctr, &mut got)).expect("detected");
                assert!(
                    got[..] == want[..],
                    "{width:?} key {key:?} counters {ctr:?}"
                );
            }
        }
    }
}

/// Both readers of the stream == the retired word-at-a-time stream:
/// `next_u32` after a seek and `words(…).read_into` over one range, from every start
/// offset 0..=32 for every length 1..=600 (so reads start on and off a
/// block boundary and straddle one or two 256-word passes), near the
/// turn of the high counter word, and `words` over a run of short,
/// empty, adjacent, repeated and backward ranges packed into the lanes.
#[test]
fn stream_reads_match_the_retired_word_at_a_time_stream() {
    use abd_hfl::ml::rng::{splitmix64, ChaCha12};
    use std::iter::once;
    /// The `len` words the ranges span, read in one `read_into`, which
    /// must fill them all and leave the ranges spent.
    fn read_words<R: IntoIterator<Item = std::ops::Range<u64>>>(
        stream: &ChaCha12,
        ranges: R,
        len: usize,
    ) -> Vec<u32> {
        let mut words = stream.words(ranges);
        let mut got = vec![0; len];
        assert!(words.read_into(&mut got), "the ranges hold {len} words");
        assert!(
            !words.read_into(&mut [0]),
            "the ranges hold only {len} words"
        );
        got
    }
    for seed in [0u64, 42, u64::MAX] {
        let mut reference = retired::WordStream::seed_from_u64(seed);
        let want: Vec<u32> = (0..6_000).map(|_| reference.next_u32()).collect();
        let stream = ChaCha12::seed_from_u64(seed);
        let mut sequential = stream.clone();
        for start in 0..=32usize {
            for len in 1..=600usize {
                let got = read_words(&stream, once(start as u64..(start + len) as u64), len);
                assert!(
                    got == want[start..start + len],
                    "seed {seed} words at {start} + {len}"
                );
            }
            sequential.set_word_pos(start as u64);
            for (off, want) in want[start..start + 600].iter().enumerate() {
                assert_eq!(
                    sequential.next_u32(),
                    *want,
                    "seed {seed} next_u32 at {start} + {off}"
                );
            }
        }

        // Across block counter 2³² − 1 → 2³², where the high word turns.
        let far = ((1u64 << 32) - 1) * 16 - 37;
        reference.set_word_pos(far);
        let want_far: Vec<u32> = (0..600).map(|_| reference.next_u32()).collect();
        let got = read_words(&stream, once(far..far + 600), 600);
        assert!(
            got == want_far,
            "seed {seed} words across the high counter word"
        );
        sequential.set_word_pos(far);
        assert!(
            want_far.iter().all(|w| sequential.next_u32() == *w),
            "seed {seed} next_u32 across the high counter word"
        );

        let ranges: Vec<std::ops::Range<u64>> = (0..300u64)
            .map(|k| {
                let h = splitmix64(seed ^ k);
                let start = match k % 5 {
                    0 => k * 16,
                    1 => 5_000 - k,
                    _ => h % 5_000,
                };
                let len = match k % 7 {
                    0 => 0,
                    1 => 1,
                    _ => (h >> 32) % 400,
                };
                start..(start + len).min(6_000)
            })
            .collect();
        let packed: Vec<u32> = ranges
            .iter()
            .flat_map(|r| want[r.start as usize..r.end as usize].iter().copied())
            .collect();
        let got = read_words(&stream, ranges.iter().cloned(), packed.len());
        assert!(got == packed, "seed {seed} packed ranges");
    }
}

/// Every way a sample is drawn == the retired per-word `sample_into`
/// (clone, seek, two words a coordinate off the word-at-a-time stream):
/// `sample_into` in descending order, `materialise` from 1 and 3
/// threads, and `push_samples` — the packed shard draw under
/// `Experiment::derive_shard_into` — over ascending, descending,
/// repeated, scattered and IID-shard index lists appended to a dataset
/// that already holds a row. Dimensions put a sample's noise in one
/// block or many, on and off a block boundary, and past a pass.
#[test]
fn synth_draws_match_the_retired_per_word_sample_into() {
    use abd_hfl::ml::rng::{derive_seed, splitmix64};
    use abd_hfl::ml::synth::SynthTask;
    use abd_hfl::ml::{ClientPopulation, Labelled};

    let n = 300;
    for dim in [1usize, 7, 8, 64, 65, 200] {
        let cfg = SynthConfig {
            dim,
            train_samples: n,
            test_samples: 2,
            seed: 0xB10C ^ dim as u64,
            ..SynthConfig::default()
        };
        let plan = SynthTask::plan(&cfg).train;
        let mut parked = retired::WordStream::seed_from_u64(derive_seed(cfg.seed, 0x7124));
        let mut labels: Vec<u8> = (0..n).map(|i| (i % cfg.num_classes) as u8).collect();
        parked.shuffle(&mut labels);
        assert_eq!(plan.labels(), &labels[..], "dim {dim} labels");
        let want: Vec<Vec<f32>> = (0..n)
            .map(|i| {
                let mut row = vec![0.0f32; dim];
                let mean = &plan.class_means()[labels[i] as usize];
                retired::sample_into(&parked, mean, cfg.noise_std, i, &mut row);
                row
            })
            .collect();

        let mut row = vec![0.0f32; dim];
        for i in (0..n).rev() {
            plan.sample_into(i, &mut row);
            assert_rows_bitwise(&row, &want[i], &format!("dim {dim} sample_into {i}"));
        }

        for threads in [1, 3] {
            let dense = abd_hfl::parallel::with_threads(threads, || plan.materialise());
            for (i, want) in want.iter().enumerate() {
                let what = format!("dim {dim} materialise row {i} at {threads} threads");
                assert_rows_bitwise(dense.x(i), want, &what);
            }
        }

        let scattered: Vec<usize> = (0..97)
            .map(|k| (splitmix64(k) % n as u64) as usize)
            .collect();
        let population = ClientPopulation::iid(&plan, 7, 5);
        let lists: Vec<(&str, Vec<usize>)> = vec![
            ("ascending", (0..n).collect()),
            ("descending", (0..n).rev().collect()),
            ("repeated", vec![4, 4, 4, 5, 4]),
            ("one", vec![n - 1]),
            ("scattered", scattered),
            ("IID shard", population.shard_indices(3).collect()),
        ];
        for (name, indices) in lists {
            let mut drawn = Dataset::empty(dim, cfg.num_classes);
            drawn.push(&want[0], labels[0]);
            plan.push_samples(indices.iter().copied(), &mut drawn);
            assert_eq!(drawn.len(), indices.len() + 1, "dim {dim} {name}");
            for (r, &i) in indices.iter().enumerate() {
                assert_eq!(drawn.y(r + 1), labels[i], "dim {dim} {name} label {r}");
                let what = format!("dim {dim} {name} row {r} (sample {i})");
                assert_rows_bitwise(drawn.x(r + 1), &want[i], &what);
            }
        }
    }
}

/// Whole runs — clean, armed under deadline buffers, sampled, and the
/// armed one again with a fault plan on the pipelined schedule, prepared
/// and run through `RunOptions::pipeline` — produce the identical
/// manifest JSON, event log and per-round ν at 1/2/4/8 threads: the
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
        let run = |threads: usize| {
            abd_hfl::parallel::with_threads(threads, || {
                let (telem, rec) = Telemetry::recording();
                let (manifest, nu) = match timing {
                    Some(pcfg) => {
                        let out = RunOptions::pipeline(pcfg).telemetry(&telem).try_run(&cfg);
                        let (timing, manifest) = out.expect("a valid config").into_pipeline();
                        let nu = timing.rounds.iter().map(|r| r.nu.to_bits()).collect();
                        (manifest, nu)
                    }
                    None => {
                        let exp = Experiment::try_prepare(&cfg).expect("a valid config");
                        (run_prepared_with(&exp, &telem).manifest, vec![])
                    }
                };
                (manifest.to_json(), rec.events(), nu)
            })
        };
        let base = run(1);
        for &t in &THREADS[1..] {
            assert!(run(t) == base, "{name} run differs at {t} threads");
        }
    }
}

/// A crafted slot does not train, and the round reads as when it did:
/// `train_round_into` == the retired train-every-slot-then-overwrite
/// body, exact bits, under every static craft, the adaptive ALIE, a
/// sampled cohort and a pipelined round whose start models differ per
/// slot and leave some slots (malicious and honest) sitting it out — at
/// 1 thread and at 4.
#[test]
fn crafted_slots_skip_training_and_the_round_reads_as_before() {
    let model = |attack: ModelAttack| AttackCfg::Model {
        attack,
        proportion: 0.25,
        placement: Placement::Random,
    };
    let small = |attack: AttackCfg, seed: u64| {
        let mut cfg = HflConfig::quick(attack, seed);
        cfg.data = SynthConfig {
            train_samples: 3_200,
            test_samples: 800,
            ..SynthConfig::default()
        };
        cfg
    };
    let mut cases: Vec<(String, HflConfig, Option<ModelAttack>, bool)> = [
        ModelAttack::Alie { z: 1.0 },
        ModelAttack::Ipm { epsilon: 0.5 },
        ModelAttack::MinMax,
        ModelAttack::MinSum,
        ModelAttack::Mimic { victim: 3 },
        ModelAttack::Scaling { factor: -2.0 },
    ]
    .into_iter()
    .enumerate()
    .map(|(i, a)| {
        (
            format!("{a:?}"),
            small(model(a), 80 + i as u64),
            None,
            false,
        )
    })
    .collect();
    let adaptive = AttackCfg::Adaptive {
        attack: AdaptiveAttack::alie_default(),
        proportion: 0.25,
        placement: Placement::Prefix,
    };
    let z = ModelAttack::Alie { z: 0.7 };
    cases.push(("adaptive ALIE".into(), small(adaptive, 86), Some(z), false));
    let mut sampled = small(model(ModelAttack::Alie { z: 1.0 }), 87);
    sampled.sampling = Some(SamplingCfg::uniform(256, 64));
    cases.push(("sampled".into(), sampled, None, false));
    let mut prefix = small(model(ModelAttack::MinSum), 88);
    prefix.attack = AttackCfg::Model {
        attack: ModelAttack::MinSum,
        proportion: 0.25,
        placement: Placement::Prefix,
    };
    cases.push(("pipelined, sit-outs".into(), prefix, None, true));

    let round = 2;
    for (name, cfg, adaptive, pipelined) in cases {
        let exp = Experiment::try_prepare(&cfg).expect("a valid config");
        let global = exp.template.params().to_vec();
        let slots = exp.hierarchy.num_clients();
        // Every fifth slot sits out (slots 0, 5, 10, 15 are malicious
        // under the prefix placement), every fifth after it starts from
        // an older model.
        let older: Vec<f32> = global.iter().map(|x| x * 0.5 + 0.01).collect();
        let starts: Vec<Vec<f32>> = if pipelined {
            (0..slots)
                .map(|slot| match slot % 5 {
                    0 => Vec::new(),
                    1 => older.clone(),
                    _ => global.clone(),
                })
                .collect()
        } else {
            Vec::new()
        };
        let want = retired::train_round(&exp, &global, round, adaptive.as_ref(), &starts);
        assert!(
            want.iter().any(|u| *u != want[0]),
            "{name}: the round crafted nothing worth comparing"
        );
        for threads in [1, 4] {
            let mut ws = TrainWorkspace::default();
            ws.starts.clone_from(&starts);
            let mut got = Vec::new();
            abd_hfl::parallel::with_threads(threads, || {
                exp.train_round_into(
                    &global,
                    round,
                    adaptive.as_ref(),
                    &Telemetry::disabled(),
                    &mut got,
                    &mut ws,
                )
            });
            assert_eq!(got.len(), want.len());
            for (slot, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    g.len() == w.len() && g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{name}: slot {slot} at {threads} threads"
                );
            }
        }
    }
}

/// The level loop reads every row where it is — a slot's update until
/// it leads a cluster, that cluster's partial after — and aggregates
/// exactly what the retired per-level copy of the row set held: three
/// levels of clusters of four (Multi-Krum, median, mean) and two levels
/// of clusters of sixteen (Multi-Krum over a coalition of crafted rows,
/// median), two rounds each through one engine, exact bits.
#[test]
fn the_level_loop_reads_in_place_what_the_per_level_copy_held() {
    let alie = |proportion| AttackCfg::Model {
        attack: ModelAttack::Alie { z: 1.0 },
        proportion,
        placement: Placement::Prefix,
    };
    let bra = LevelAgg::Bra;
    let mut paper = HflConfig::quick(alie(0.25), 90);
    paper.levels = vec![
        bra(AggregatorKind::FedAvg),
        bra(AggregatorKind::Median),
        bra(AggregatorKind::MultiKrum { f: 1, m: 3 }),
    ];
    // A fifth of 64: cluster 0 holds 12 crafted rows among 16.
    let mut wide = HflConfig::quick(alie(0.2), 91);
    wide.topology = TopologyCfg::Ecsm {
        total_levels: 2,
        m: 16,
        n_top: 4,
    };
    wide.levels = vec![
        bra(AggregatorKind::Median),
        bra(AggregatorKind::MultiKrum { f: 3, m: 10 }),
    ];
    wide.flag_level = 1;
    for (name, cfg) in [("clusters of 4", paper), ("clusters of 16", wide)] {
        let exp = Experiment::try_prepare(&cfg).expect("a valid config");
        let global = exp.template.params().to_vec();
        let mut engine = RoundEngine::for_experiment(&exp);
        let (mut updates, mut ws, mut got) = (Vec::new(), TrainWorkspace::default(), Vec::new());
        for round in 0..2 {
            let telem = Telemetry::disabled();
            exp.train_round_into(&global, round, None, &telem, &mut updates, &mut ws);
            let want = retired::aggregate_levels(&exp, &updates);
            let (cost, faults, suspicion) =
                (&mut CostCounters::default(), &mut vec![], &mut vec![]);
            engine.aggregate_round_into(&updates, round, cost, &telem, faults, suspicion, &mut got);
            assert!(
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(&want)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{name}: round {round}"
            );
        }
    }
}

/// Vanilla FL is the one-cluster star on the round engine: `run` of
/// `cfg.star(rule)` reads, evaluation by evaluation, the accuracy bits
/// of the retired star loop — the eight rules of the `defenses` grid ×
/// ten attack settings × IID and non-IID, six rounds evaluated every two.
#[test]
fn the_star_on_the_engine_reads_as_the_retired_vanilla_loop() {
    let n = 64;
    let f = n / 4;
    let rules = [
        AggregatorKind::FedAvg,
        AggregatorKind::Krum { f },
        AggregatorKind::MultiKrum { f, m: n - f },
        AggregatorKind::Median,
        AggregatorKind::TrimmedMean { ratio: 0.3 },
        AggregatorKind::GeoMed,
        AggregatorKind::CenteredClip { tau: 1.0, iters: 3 },
        AggregatorKind::CosineClustering { threshold: 0.0 },
    ];
    let data = |attack| AttackCfg::Data {
        attack,
        proportion: 0.3,
        placement: Placement::Prefix,
    };
    let model = |attack, proportion, placement| AttackCfg::Model {
        attack,
        proportion,
        placement,
    };
    let (prefix, sign_flip) = (Placement::Prefix, ModelAttack::SignFlip { scale: 4.0 });
    let backdoor = DataAttack::BackdoorTrigger {
        offset: 0,
        width: 8,
        value: 6.0,
        target: 7,
        fraction: 0.5,
    };
    let attacks = [
        AttackCfg::None,
        data(DataAttack::type_i()),
        data(DataAttack::type_ii()),
        data(DataAttack::FeatureNoise { std: 4.0 }),
        data(backdoor),
        model(sign_flip.clone(), 0.3, prefix),
        model(ModelAttack::GaussianNoise { std: 2.0 }, 0.3, prefix),
        model(ModelAttack::Alie { z: 2.0 }, 0.3, prefix),
        model(ModelAttack::Ipm { epsilon: 0.8 }, 0.3, prefix),
        model(sign_flip, 0.5, Placement::Spread),
    ];
    let noniid = DataDistribution::NonIid {
        labels_per_client: 2,
    };
    let bits = |acc: &[(usize, f64)]| -> Vec<(usize, u64)> {
        acc.iter().map(|&(r, a)| (r, a.to_bits())).collect()
    };
    for (a, attack) in attacks.iter().enumerate() {
        for distribution in [DataDistribution::Iid, noniid.clone()] {
            let cfg = HflConfig {
                rounds: 6,
                eval_every: 2,
                distribution,
                ..HflConfig::quick(attack.clone(), 100 + a as u64)
            };
            for rule in &rules {
                let want = retired::vanilla(&cfg, rule);
                let got = RunOptions::new().try_run(&cfg.star(rule.clone()));
                let got = got.expect("a valid config").result.accuracy;
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{rule:?} under {attack:?}, {:?}",
                    cfg.distribution
                );
            }
        }
    }
}

/// The code the column-tile kernels replaced, kept as their executable
/// references: the per-column gather + `sort_unstable_by(partial_cmp)`
/// loops of `hfl_tensor::stats`, the scalar P² estimator with its
/// d-long array, and the reservoir of row references. Also the retired
/// one-block ChaCha12 refill and the stream and per-word sample draw
/// over it, which the lane-wise block body replaced. And the crafts'
/// reads of the honest set as they were: ALIE's per-coordinate gather
/// into `mean_var`, MinMax's and MinSum's `dist_sq` per ordered pair,
/// and the bisection's fresh candidate per step. And the training step
/// as it was before a crafted slot stopped training, and the level loop
/// as it was before it read rows in place. And the ballot as it was
/// before it was decided in `f32`. And vanilla FL's own round loop, before
/// the star ran on the round engine.
mod retired {
    use abd_hfl::core::config::{AttackCfg, HflConfig, LevelAgg};
    use abd_hfl::core::runner::{Experiment, TrainWorkspace};
    use abd_hfl::ml::loss::predict;
    use abd_hfl::ml::rng::rng_for_n;
    use abd_hfl::ml::sgd::{train_local_scratch, TrainScratch};
    use abd_hfl::ml::{Dataset, LinearSoftmax};
    use abd_hfl::robust::{Aggregator, AggregatorKind};
    use abd_hfl::telemetry::Telemetry;
    use abd_hfl::tensor::{ops, splitmix64};

    use super::ModelAttack;

    /// `LinearSoftmax::count_correct_each` as it was before the `f32`
    /// pass: the exact logits of every (sample, proposal) pair — here
    /// one `dot` per row ([`ops::reference::affine_naive`]) — and
    /// `predict` on each.
    pub fn count_correct_each(
        model: &LinearSoftmax,
        thetas: &[&[f32]],
        data: &Dataset,
        rows: std::ops::Range<usize>,
    ) -> Vec<usize> {
        let weights = model.classes() * model.dim();
        thetas
            .iter()
            .map(|theta| {
                let (w, bias) = theta.split_at(weights);
                rows.clone()
                    .filter(|&i| {
                        let mut logits = ops::reference::affine_naive(w, bias, data.x(i));
                        predict(&mut logits) as u8 == data.y(i)
                    })
                    .count()
            })
            .collect()
    }

    /// `Experiment::train_round_into`'s body, one fresh model per slot:
    /// every slot trains from its start (`starts[slot]`, the global
    /// model past the end; an empty start sits the round out and carries
    /// the global model), then the round's craft — `adaptive`, else a
    /// static model attack — from the honest slots that trained
    /// overwrites every malicious slot.
    pub fn train_round(
        exp: &Experiment,
        global: &[f32],
        round: usize,
        adaptive: Option<&ModelAttack>,
        starts: &[Vec<f32>],
    ) -> Vec<Vec<f32>> {
        let cfg = exp.config();
        let mut cohort = Vec::new();
        exp.cohort_into(round, &mut cohort);
        let start_of = |slot: usize| starts.get(slot).map_or(global, Vec::as_slice);
        let mut updates: Vec<Vec<f32>> = cohort
            .iter()
            .enumerate()
            .map(|(slot, &c)| {
                let start = start_of(slot);
                if start.is_empty() {
                    return global.to_vec();
                }
                let mut model = exp.template.clone_box();
                model.set_params(start);
                let shard = exp.client_shard(c);
                if !shard.is_empty() {
                    let mut rng = rng_for_n(cfg.seed, &[round as u64, c as u64, 0x7247]);
                    train_local_scratch(
                        model.as_mut(),
                        &shard,
                        &cfg.sgd.at_round(round),
                        cfg.local_iters,
                        &mut rng,
                        &mut TrainScratch::default(),
                    );
                }
                model.params().to_vec()
            })
            .collect();
        let crafting = adaptive.or(match &cfg.attack {
            AttackCfg::Model { attack, .. } => Some(attack),
            _ => None,
        });
        if let Some(attack) = crafting {
            let honest: Vec<&[f32]> = updates
                .iter()
                .zip(&cohort)
                .enumerate()
                .filter(|&(slot, (_, &c))| !exp.malicious[c] && !start_of(slot).is_empty())
                .map(|(_, (u, _))| u.as_slice())
                .collect();
            let mut rng = rng_for_n(cfg.seed, &[round as u64, 0xE71]);
            let crafted = attack
                .try_craft(&honest, &mut rng)
                .unwrap_or_else(|| global.to_vec());
            for (u, &c) in updates.iter_mut().zip(&cohort) {
                if exp.malicious[c] {
                    u.copy_from_slice(&crafted);
                }
            }
        }
        updates
    }

    /// The engine's level loop over an all-BRA config at quorum 1 with
    /// no layers, as it was: the whole row set copied, then copied again
    /// per level, each cluster's aggregate over its members' rows in
    /// member order landing in its leader's row of the next copy.
    pub fn aggregate_levels(exp: &Experiment, updates: &[Vec<f32>]) -> Vec<f32> {
        let h = &exp.hierarchy;
        let rule = |l: usize| match &exp.config().levels[l] {
            LevelAgg::Bra(kind) => kind,
            LevelAgg::Cba(_) => unreachable!("an all-BRA fixture"),
        };
        let mut carried = updates.to_vec();
        for l in (1..=h.bottom_level()).rev() {
            let rule = rule(l);
            let mut next = carried.clone();
            for cluster in &h.level(l).clusters {
                let inputs: Vec<&[f32]> = cluster
                    .members
                    .iter()
                    .map(|&m| carried[m].as_slice())
                    .collect();
                next[cluster.leader()] = rule.aggregate(&inputs, None);
            }
            carried = next;
        }
        let top = &h.level(0).clusters[0];
        let inputs: Vec<&[f32]> = top.members.iter().map(|&m| carried[m].as_slice()).collect();
        rule(0).aggregate(&inputs, None)
    }

    /// Vanilla FL as its own round loop, before the star ran on the
    /// round engine: each round trains the cohort, drops the slots churn
    /// empties and aggregates the rest with `rule` in client order; the
    /// accuracy at every evaluation point.
    pub fn vanilla(cfg: &HflConfig, rule: &AggregatorKind) -> Vec<(usize, f64)> {
        let exp = Experiment::try_prepare(cfg).expect("a valid config");
        let mut global = exp.template.params().to_vec();
        let (mut updates, mut ws, mut active) = (Vec::new(), TrainWorkspace::default(), vec![]);
        let (mut accuracy, telem) = (Vec::new(), Telemetry::disabled());
        for round in 0..cfg.rounds {
            exp.train_round_into(&global, round, None, &telem, &mut updates, &mut ws);
            exp.active_mask_into(round, &mut active);
            let refs: Vec<&[f32]> = updates
                .iter()
                .zip(&active)
                .filter(|(_, a)| **a)
                .map(|(u, _)| u.as_slice())
                .collect();
            global = rule.aggregate(&refs, None);
            if (round + 1) % cfg.eval_every == 0 || round + 1 == cfg.rounds {
                accuracy.push((round + 1, exp.evaluate(&global)));
            }
        }
        accuracy
    }

    /// `hfl_tensor::stats::mean_var`: sample mean and (population)
    /// variance of a scalar slice.
    pub fn mean_var(xs: &[f32]) -> (f64, f64) {
        assert!(!xs.is_empty(), "mean_var of empty slice");
        let n = xs.len() as f64;
        let mean = xs.iter().map(|x| *x as f64).sum::<f64>() / n;
        let var = xs.iter().map(|x| (*x as f64 - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    /// The per-coordinate variance under ALIE: each column gathered,
    /// then `mean_var`.
    pub fn column_var(honest: &[&[f32]]) -> Vec<f64> {
        let mut col = vec![0.0f32; honest.len()];
        (0..honest[0].len())
            .map(|j| {
                for (c, h) in col.iter_mut().zip(honest) {
                    *c = h[j];
                }
                mean_var(&col).1
            })
            .collect()
    }

    /// `ModelAttack::Alie`'s arm.
    pub fn alie(honest: &[&[f32]], z: f32) -> Vec<f32> {
        let d = honest[0].len();
        let mut mean = vec![0.0f32; d];
        ops::mean_of(honest, &mut mean);
        let mut col = vec![0.0f32; honest.len()];
        for j in 0..d {
            for (c, h) in col.iter_mut().zip(honest) {
                *c = h[j];
            }
            let (_, var) = mean_var(&col);
            mean[j] -= z * var.sqrt() as f32;
        }
        mean
    }

    fn max_gamma(mean: &[f32], dir: &[f32], within_budget: impl Fn(&[f32]) -> bool) -> f32 {
        let crafted = |g: f32| -> Vec<f32> {
            let mut v = mean.to_vec();
            ops::axpy(g, dir, &mut v);
            v
        };
        if !within_budget(&crafted(0.0)) {
            // Degenerate budget (single honest update with itself): stay put.
            return 0.0;
        }
        // Grow until the budget breaks, then bisect the boundary.
        let mut hi = 1.0f32;
        let mut doublings = 0;
        while within_budget(&crafted(hi)) {
            hi *= 2.0;
            doublings += 1;
            if doublings >= 40 {
                return hi; // budget never binds at any sane magnitude
            }
        }
        let mut lo = if doublings == 0 { 0.0 } else { hi / 2.0 };
        for _ in 0..30 {
            let mid = 0.5 * (lo + hi);
            if within_budget(&crafted(mid)) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn agr_direction(mean: &[f32]) -> Vec<f32> {
        let n = ops::norm(mean);
        let mut dir = mean.to_vec();
        if n > 1e-12 {
            ops::scale(-(1.0 / n) as f32, &mut dir);
        } else {
            let u = -1.0 / (dir.len() as f32).sqrt();
            dir.iter_mut().for_each(|x| *x = u);
        }
        dir
    }

    /// `ModelAttack::MinMax`'s arm: its budget is `dist_sq` over every
    /// ordered pair.
    pub fn min_max(honest: &[&[f32]]) -> Vec<f32> {
        let mut mean = vec![0.0f32; honest[0].len()];
        ops::mean_of(honest, &mut mean);
        let dir = agr_direction(&mean);
        let max_pairwise = honest
            .iter()
            .flat_map(|a| honest.iter().map(move |b| ops::dist_sq(a, b)))
            .fold(0.0f64, f64::max);
        let g = max_gamma(&mean, &dir, |v| {
            honest.iter().all(|h| ops::dist_sq(v, h) <= max_pairwise)
        });
        ops::axpy(g, &dir, &mut mean);
        mean
    }

    /// `ModelAttack::MinSum`'s arm: its budget is every row's sum of
    /// `dist_sq` to every row.
    pub fn min_sum(honest: &[&[f32]]) -> Vec<f32> {
        let mut mean = vec![0.0f32; honest[0].len()];
        ops::mean_of(honest, &mut mean);
        let dir = agr_direction(&mean);
        let max_sum = honest
            .iter()
            .map(|a| honest.iter().map(|b| ops::dist_sq(a, b)).sum::<f64>())
            .fold(0.0f64, f64::max);
        let g = max_gamma(&mean, &dir, |v| {
            honest.iter().map(|h| ops::dist_sq(v, h)).sum::<f64>() <= max_sum
        });
        ops::axpy(g, &dir, &mut mean);
        mean
    }

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

    #[inline(always)]
    fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(16);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(12);
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(8);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(7);
    }

    /// `ChaCha12`'s retired scalar `fill`: block `block` of the key
    /// stream, one block at a time.
    pub fn chacha_block(key: &[u32; 8], block: u64) -> [u32; 16] {
        let mut init = [0u32; 16];
        init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        init[4..12].copy_from_slice(key);
        init[12] = block as u32;
        init[13] = (block >> 32) as u32;
        let mut s = init;
        for _ in 0..6 {
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for (s, i) in s.iter_mut().zip(init) {
            *s = s.wrapping_add(i);
        }
        s
    }

    /// The seekable stream as it was: a word at a time, the block under
    /// the position refilled by [`chacha_block`] whenever it changes.
    #[derive(Clone)]
    pub struct WordStream {
        key: [u32; 8],
        pos: u64,
        block: u64,
        buf: [u32; 16],
    }

    impl WordStream {
        /// PCG32 key expansion, as rand_core 0.6's `seed_from_u64`.
        pub fn seed_from_u64(mut state: u64) -> Self {
            let mut key = [0u32; 8];
            for word in key.iter_mut() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(11_634_580_027_462_260_723);
                let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
                *word = xorshifted.rotate_right((state >> 59) as u32);
            }
            Self {
                key,
                pos: 0,
                block: u64::MAX,
                buf: [0; 16],
            }
        }

        pub fn next_u32(&mut self) -> u32 {
            if self.pos / 16 != self.block {
                self.block = self.pos / 16;
                self.buf = chacha_block(&self.key, self.block);
            }
            let word = self.buf[(self.pos % 16) as usize];
            self.pos += 1;
            word
        }

        pub fn word_pos(&self) -> u64 {
            self.pos
        }

        pub fn set_word_pos(&mut self, pos: u64) {
            self.pos = pos;
        }

        /// Fisher–Yates from the back over rand 0.8.5's widening-multiply
        /// range sampler, as the label shuffle draws it.
        pub fn shuffle<T>(&mut self, items: &mut [T]) {
            for i in (1..items.len()).rev() {
                let range = i as u32 + 1;
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                let j = loop {
                    let wide = u64::from(self.next_u32()) * u64::from(range);
                    if wide as u32 <= zone {
                        break (wide >> 32) as usize;
                    }
                };
                items.swap(i, j);
            }
        }
    }

    /// `SynthPlan::sample_into` as it was: clone the stream parked at
    /// `base`, seek to sample `i`'s first noise word, and read two words
    /// a coordinate.
    pub fn sample_into(
        parked: &WordStream,
        mean: &[f32],
        noise_std: f32,
        i: usize,
        out: &mut [f32],
    ) {
        let mut noise = parked.clone();
        noise.set_word_pos(parked.word_pos() + 2 * (out.len() * i) as u64);
        for (x, m) in out.iter_mut().zip(mean) {
            let w1 = noise.next_u32();
            let w2 = noise.next_u32();
            *x = *m + noise_std * abd_hfl::tensor::init::standard_normal_from_words(w1, w2);
        }
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
            let trims = TRIM_RATIOS.map(|ratio| (ratio, trim_count(ratio, n)));
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
                        None => abd_hfl::parallel::with_threads(threads, || {
                            column_stat_parallel(ColumnStat::Median, &refs, &mut got)
                        }),
                        Some(trim) => abd_hfl::parallel::with_threads(threads, || {
                            column_stat_parallel(ColumnStat::TrimmedMean { trim }, &refs, &mut got)
                        }),
                    }
                    assert_bits(&got, &want, &format!("{what} at {threads} threads"));
                }
                let rule = match ratio {
                    None => AggregatorKind::Median,
                    Some(ratio) => AggregatorKind::TrimmedMean { ratio },
                };
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
    assert_bits(&rule.aggregate(&refs, None), &want, "reservoir");
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
                AggregatorKind::TrimmedMean { ratio } => Some(trim_count(ratio, n)),
                _ => None,
            };
            let want = retired::coordinate(&refs, trim);
            for threads in [1, 2, 3] {
                let got = abd_hfl::parallel::with_threads(threads, || kind.aggregate(&refs, None));
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
                    let rule = AggregatorKind::StreamingMedian { exact_threshold };
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
                    };
                    let trim_of = |n: usize| trim_count(ratio, n);
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

/// Honest-set shapes of the craft grid: a row, the four-row blocks'
/// every remainder, the bisection's blocks short and exact, the oracle's
/// largest cluster and `agg_wide`'s honest set; variance tiles short,
/// exact and one over, the workloads' 650 and `agg_wide`'s 4,810.
const CRAFT_ROWS: [usize; 9] = [1, 2, 3, 7, 8, 9, 17, 48, 205];
const CRAFT_DIMS: [usize; 10] = [1, 7, 255, 256, 257, 511, 512, 513, 650, 4810];

/// What an honest set for the craft grid holds beside full-mantissa
/// values over twenty binades (2⁻¹⁰..2¹⁰, either sign), subnormals,
/// zeros of both signs and one value in sixteen at 2^±40, so that a
/// column's `f64` sum rounds and its order shows.
#[derive(Clone, Copy, Debug)]
enum Honest {
    /// Nothing else: the bisections run their full course.
    Finite,
    /// Special columns by `c % 12` — a quarter of the rows NaN (one
    /// payload), `+∞`, `−∞` or `±∞`; `±f32::MAX` in half the rows;
    /// subnormals and zeros only; zeros of both signs — and the middle
    /// column all −0.0, where a sum that starts at +0.0 reads another bit.
    Columns,
    /// Row `r` holds `+∞` at coordinate `r % d`: its distance to itself
    /// is NaN and to a row without `+∞` there `+∞`.
    PoisonedRows,
}

fn honest_rows(n: usize, d: usize, kind: Honest) -> Vec<Vec<f32>> {
    (0..n)
        .map(|r| {
            (0..d)
                .map(|c| {
                    let mut x = ((r as u64) << 32 | c as u64)
                        .wrapping_add(3)
                        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    x ^= x >> 29;
                    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    x ^= x >> 32;
                    let mantissa = (x >> 20) as u32 & 0x807f_ffff;
                    let value = match x % 32 {
                        0 => f32::from_bits((x >> 8) as u32 & 0x807f_ffff),
                        1 => [0.0, -0.0][(x >> 8) as usize % 2],
                        2 | 3 => {
                            f32::from_bits(mantissa | [127 + 40, 127 - 40][(x % 2) as usize] << 23)
                        }
                        _ => f32::from_bits(mantissa | (117 + (x % 21) as u32) << 23),
                    };
                    let quarter = (x >> 40).is_multiple_of(4);
                    let pick = (x >> 44) as usize;
                    match kind {
                        Honest::Finite => value,
                        Honest::Columns if c == d / 2 => -0.0,
                        Honest::Columns => match c % 12 {
                            1 if quarter => f32::NAN,
                            3 if quarter => f32::INFINITY,
                            5 if quarter => f32::NEG_INFINITY,
                            7 if quarter => [f32::INFINITY, f32::NEG_INFINITY][pick % 2],
                            9 if pick.is_multiple_of(2) => [f32::MAX, -f32::MAX][pick / 2 % 2],
                            10 => f32::from_bits((x >> 8) as u32 & 0x807f_ffff),
                            11 => [0.0, -0.0][pick % 2],
                            _ => value,
                        },
                        Honest::PoisonedRows if c == r % d => f32::INFINITY,
                        Honest::PoisonedRows => value,
                    }
                })
                .collect()
        })
        .collect()
}

/// Exact bits, NaN payloads included: a column's computation meets one
/// NaN payload at most, so both sides reach the same one.
fn assert_same_bits<T: Copy + Into<f64>>(got: &[T], want: &[T], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (j, (g, w)) in got.iter().zip(want).enumerate() {
        let (g, w): (f64, f64) = ((*g).into(), (*w).into());
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}, coordinate {j}: {g} vs {w}"
        );
    }
}

/// ALIE's variance — the coordinate-lane kernel at every vector width
/// the host has, against `mean_var` per gathered column — and the whole
/// craft at z ∈ {0, 1, −1.5} against the retired arm, exact bits.
/// Summing the rows in another order, fusing `e * e` through `mul_add`,
/// or centring on an `f32` mean fails it.
#[test]
fn alie_matches_the_retired_per_column_loop_at_every_width() {
    let widths = widths_on_this_host("column_var");
    let mut rng = StdRng::seed_from_u64(0);
    for kind in [Honest::Finite, Honest::Columns, Honest::PoisonedRows] {
        for n in CRAFT_ROWS {
            for d in CRAFT_DIMS {
                let rows = honest_rows(n, d, kind);
                let refs = as_refs(&rows);
                let what = format!("{kind:?} n={n} d={d}");
                let want = retired::column_var(&refs);
                if n > 1 && d > 12 && !matches!(kind, Honest::PoisonedRows) {
                    let finite = want.iter().filter(|v| v.is_finite() && **v > 0.0).count();
                    assert!(finite * 2 > d, "{what}: {finite} finite variances");
                }
                for &width in &widths {
                    let mut got = vec![f64::NAN; d];
                    ops::with_width(width, || stats::column_var_into(&refs, 0, &mut got))
                        .expect("detected");
                    assert_same_bits(&got, &want, &format!("{what} variance at {width:?}"));
                }
                for z in [0.0f32, 1.0, -1.5] {
                    let got = ModelAttack::Alie { z }.craft(&refs, &mut rng);
                    assert_same_bits(&got, &retired::alie(&refs, z), &format!("{what} z={z}"));
                }
            }
        }
    }
}

/// MinMax and MinSum — budgets from the pair fill, the bisection's
/// distances four chains at a time, one candidate buffer — against the
/// retired `dist_sq` per ordered pair and per step, exact bits of the
/// crafted update. (The budgets themselves, which MinSum's diagonal can
/// move without moving a crafted update, are pinned by `hfl-attacks`'
/// `pair_budgets_match_dist_sq_per_ordered_pair`.)
#[test]
fn agr_crafts_match_the_retired_per_pair_loops() {
    type Craft = fn(&[&[f32]]) -> Vec<f32>;
    let mut rng = StdRng::seed_from_u64(0);
    for kind in [Honest::Finite, Honest::Columns, Honest::PoisonedRows] {
        for n in CRAFT_ROWS {
            for d in CRAFT_DIMS {
                let rows = honest_rows(n, d, kind);
                let refs = as_refs(&rows);
                for (attack, craft) in [
                    (ModelAttack::MinMax, retired::min_max as Craft),
                    (ModelAttack::MinSum, retired::min_sum),
                ] {
                    let got = attack.craft(&refs, &mut rng);
                    let what = format!("{attack:?} {kind:?} n={n} d={d}");
                    assert_same_bits(&got, &craft(&refs), &what);
                }
            }
        }
    }
}
