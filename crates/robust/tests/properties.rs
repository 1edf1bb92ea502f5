//! Property tests for the robust aggregation rules: the robustness
//! contracts that must survive arbitrary adversarial inputs.
//!
//! Each property runs [`CASES`] cases; case `c` draws its inputs from
//! `StdRng::seed_from_u64(c)`, and every failure names `c`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hfl_robust::{AggScratch, Aggregator, AggregatorKind, DEFAULT_EXACT_THRESHOLD};

const CASES: u64 = 64;

/// Case numbers, each with the generator it seeds.
fn cases() -> impl Iterator<Item = (u64, StdRng)> {
    (0..CASES).map(|case| (case, StdRng::seed_from_u64(case)))
}

/// Draws from `draw` until `keep` holds — the property's precondition —
/// so every case still checks one input.
fn draw_where<T>(
    case: u64,
    rng: &mut StdRng,
    draw: impl Fn(&mut StdRng) -> T,
    keep: impl Fn(&T) -> bool,
) -> T {
    (0..1_000)
        .map(|_| draw(rng))
        .find(|x| keep(x))
        .unwrap_or_else(|| panic!("case {case}: no input met the precondition"))
}

/// The inputs Multi-Krum averages, lowest score first.
fn multikrum_selection(updates: &[&[f32]], f: usize, m: usize) -> Vec<usize> {
    let (mut out, mut scratch) = (Vec::new(), AggScratch::default());
    AggregatorKind::MultiKrum { f, m }.aggregate_into(updates, None, &mut out, &mut scratch);
    scratch.idx
}

fn uniform_vec(rng: &mut StdRng, len: usize, lo: f32, hi: f32) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(lo..hi)).collect()
}

/// Max units-in-last-place gap between two f32 values (0 = bit-identical
/// up to signed-zero equivalence).
fn ulp_gap(a: f32, b: f32) -> u32 {
    if a == b {
        return 0;
    }
    let to_ordered = |x: f32| {
        let bits = x.to_bits() as i32;
        if bits < 0 {
            i32::MIN.wrapping_sub(bits)
        } else {
            bits
        }
    };
    to_ordered(a).abs_diff(to_ordered(b))
}

/// 4..10 honest updates within ±0.5 of `center`.
fn honest_around(rng: &mut StdRng, center: &[f32]) -> Vec<Vec<f32>> {
    let n_good = rng.gen_range(4usize..10);
    (0..n_good)
        .map(|_| {
            center
                .iter()
                .map(|c| c + rng.gen_range(-0.5f32..0.5))
                .collect()
        })
        .collect()
}

/// Honest updates in a small box around a center in `[-5, 5)⁴`, the
/// coalition strength `n_bad = ⌊(n_good − 1)/2⌋` (strict honest
/// majority), and an arbitrary adversarial vector its members all send.
fn scenario(rng: &mut StdRng) -> (Vec<Vec<f32>>, usize, Vec<f32>) {
    let center = uniform_vec(rng, 4, -5.0, 5.0);
    let honest = honest_around(rng, &center);
    let n_bad = (honest.len() - 1) / 2;
    (honest, n_bad, uniform_vec(rng, 4, -1e4, 1e4))
}

/// Per-coordinate bounding box of the honest updates, inflated by `eps`.
fn honest_box(honest: &[Vec<f32>], eps: f32) -> (Vec<f32>, Vec<f32>) {
    let d = honest[0].len();
    let mut lo = vec![f32::INFINITY; d];
    let mut hi = vec![f32::NEG_INFINITY; d];
    for h in honest {
        for j in 0..d {
            lo[j] = lo[j].min(h[j]);
            hi[j] = hi[j].max(h[j]);
        }
    }
    for j in 0..d {
        lo[j] -= eps;
        hi[j] += eps;
    }
    (lo, hi)
}

/// Honest updates in a tight box around a center far from the origin,
/// plus the coalition strength `n_bad = ⌊(n_good − 1)/2⌋` (strict honest
/// majority) and a sign-flip magnitude κ. Keeping `‖center‖` large makes
/// the reflected point `−κ · mean(honest)` unambiguously far from the
/// honest cloud, so resilience failures can't hide in noise.
fn signflip_scenario(rng: &mut StdRng) -> (Vec<Vec<f32>>, usize, f32) {
    let center = uniform_vec(rng, 4, 2.0, 5.0);
    let kappa = rng.gen_range(2.0f32..6.0);
    let honest = honest_around(rng, &center);
    let n_bad = (honest.len() - 1) / 2;
    (honest, n_bad, kappa)
}

/// The unanimous coalition vector: `−κ · mean(honest)`.
fn signflip_point(honest: &[Vec<f32>], kappa: f32) -> Vec<f32> {
    let refs: Vec<&[f32]> = honest.iter().map(|h| h.as_slice()).collect();
    let mut mean = vec![0.0f32; honest[0].len()];
    hfl_tensor::ops::mean_of(&refs, &mut mean);
    mean.iter().map(|m| -kappa * m).collect()
}

fn all_inputs<'a>(honest: &'a [Vec<f32>], bad: &'a [f32], n_bad: usize) -> Vec<&'a [f32]> {
    let mut refs: Vec<&[f32]> = honest.iter().map(|h| h.as_slice()).collect();
    refs.extend(std::iter::repeat_n(bad, n_bad));
    refs
}

/// A deterministic shuffle of `refs`, one arrival order per `seed`.
fn arrival_order(refs: &mut [&[f32]], seed: usize, mul: usize, step: usize) {
    let n = refs.len();
    for i in 0..n {
        let j = seed.wrapping_mul(mul).wrapping_add(i * step) % n;
        refs.swap(i, j);
    }
}

fn assert_in_box(case: u64, rule: &str, out: &[f32], (lo, hi): (Vec<f32>, Vec<f32>)) {
    for j in 0..out.len() {
        assert!(
            out[j] >= lo[j] && out[j] <= hi[j],
            "case {case}: {rule} coord {j}: {} outside [{}, {}]",
            out[j],
            lo[j],
            hi[j]
        );
    }
}

/// The adversarial point is ≥ 100 away from every honest update (the
/// scenario draws it from ±1e4 while honest live in ±6) and the
/// coalition is not empty.
fn far_scenario(case: u64, rng: &mut StdRng) -> (Vec<Vec<f32>>, usize, Vec<f32>) {
    draw_where(case, rng, scenario, |(honest, n_bad, bad)| {
        *n_bad >= 1 && honest.iter().all(|h| hfl_tensor::ops::dist(h, bad) > 100.0)
    })
}

#[test]
fn median_stays_in_honest_box() {
    for (case, mut rng) in cases() {
        let (honest, n_bad, bad) = scenario(&mut rng);
        let refs = all_inputs(&honest, &bad, n_bad);
        let out = AggregatorKind::Median.aggregate(&refs, None);
        assert_in_box(case, "median", &out, honest_box(&honest, 1e-3));
    }
}

#[test]
fn trimmed_mean_stays_in_honest_box() {
    for (case, mut rng) in cases() {
        let (honest, n_bad, bad) = scenario(&mut rng);
        let refs = all_inputs(&honest, &bad, n_bad);
        // Trim exactly the adversarial mass from each tail.
        let ratio = (n_bad as f64 / refs.len() as f64).min(0.49);
        let out = AggregatorKind::TrimmedMean { ratio }.aggregate(&refs, None);
        // Trimmed mean with exact-trim stays within the honest range per
        // coordinate (each tail removes at least the bad copies on that
        // side).
        assert_in_box(case, "trimmed mean", &out, honest_box(&honest, 1e-3));
    }
}

#[test]
fn krum_selects_a_real_input() {
    for (case, mut rng) in cases() {
        let (honest, n_bad, bad) = scenario(&mut rng);
        let refs = all_inputs(&honest, &bad, n_bad);
        let out = AggregatorKind::Krum { f: n_bad }.aggregate(&refs, None);
        assert!(refs.contains(&out.as_slice()), "case {case}");
    }
}

#[test]
fn krum_picks_honest_when_adversary_is_far() {
    for (case, mut rng) in cases() {
        let (honest, n_bad, bad) = far_scenario(case, &mut rng);
        let refs = all_inputs(&honest, &bad, n_bad);
        let out = AggregatorKind::Krum { f: n_bad }.aggregate(&refs, None);
        assert!(
            honest.iter().any(|h| h.as_slice() == out.as_slice()),
            "case {case}: Krum selected the adversarial point"
        );
    }
}

#[test]
fn multikrum_excludes_far_adversaries() {
    for (case, mut rng) in cases() {
        let (honest, n_bad, bad) = far_scenario(case, &mut rng);
        let refs = all_inputs(&honest, &bad, n_bad);
        let selected = multikrum_selection(&refs, n_bad, honest.len());
        assert!(
            selected.iter().all(|&i| i < honest.len()),
            "case {case}: Multi-Krum selected adversarial index in {selected:?}"
        );
    }
}

#[test]
fn geomed_bounded_displacement() {
    for (case, mut rng) in cases() {
        let (honest, n_bad, bad) = scenario(&mut rng);
        let refs = all_inputs(&honest, &bad, n_bad);
        let out = AggregatorKind::GeoMed.aggregate(&refs, None);
        // Geometric median with minority outliers stays within a modest
        // multiple of the honest diameter of the honest centroid.
        let mut centroid = vec![0.0f32; 4];
        let hrefs: Vec<&[f32]> = honest.iter().map(|h| h.as_slice()).collect();
        hfl_tensor::ops::mean_of(&hrefs, &mut centroid);
        let diam = honest
            .iter()
            .map(|h| hfl_tensor::ops::dist(h, &centroid))
            .fold(0.0f64, f64::max);
        let disp = hfl_tensor::ops::dist(&out, &centroid);
        assert!(
            disp <= 10.0 * (diam + 1.0),
            "case {case}: geomed displaced {disp} (honest diameter {diam})"
        );
    }
}

#[test]
fn centered_clip_bounded_displacement() {
    for (case, mut rng) in cases() {
        let (honest, n_bad, bad) = scenario(&mut rng);
        let refs = all_inputs(&honest, &bad, n_bad);
        let cc = AggregatorKind::CenteredClip { tau: 1.0, iters: 3 };
        let out = cc.aggregate(&refs, None);
        // Each of 3 iterations moves the estimate by at most τ; seeded at
        // the coordinate-median (inside the honest box), displacement is
        // bounded by iters·τ in every coordinate direction.
        assert_in_box(case, "centered clip", &out, honest_box(&honest, 3.0 + 1e-3));
    }
}

#[test]
fn fedavg_equals_manual_mean() {
    for (case, mut rng) in cases() {
        let n = rng.gen_range(1usize..8);
        let honest: Vec<Vec<f32>> = (0..n)
            .map(|_| uniform_vec(&mut rng, 4, -10.0, 10.0))
            .collect();
        let refs: Vec<&[f32]> = honest.iter().map(|h| h.as_slice()).collect();
        let out = AggregatorKind::FedAvg.aggregate(&refs, None);
        for j in 0..4 {
            let want: f32 = honest.iter().map(|h| h[j]).sum::<f32>() / honest.len() as f32;
            assert!(
                (out[j] - want).abs() <= 1e-3,
                "case {case}: coord {j}: {} vs {want}",
                out[j]
            );
        }
    }
}

// ≤ f-resilience under a *unanimous sign-flip coalition*: every
// Byzantine input is the same `−κ · mean(honest)` vector (the
// colluding-coalition shape the runner's model attacks produce,
// unlike the arbitrary `bad` point above). With a strict honest
// majority, each rule must stay with the honest cloud rather than
// the coalition's reflected point.

#[test]
fn median_resists_unanimous_sign_flip() {
    for (case, mut rng) in cases() {
        let (honest, n_bad, kappa) = signflip_scenario(&mut rng);
        let bad = signflip_point(&honest, kappa);
        let refs = all_inputs(&honest, &bad, n_bad);
        let out = AggregatorKind::Median.aggregate(&refs, None);
        assert_in_box(case, "median", &out, honest_box(&honest, 1e-3));
    }
}

#[test]
fn trimmed_mean_resists_unanimous_sign_flip() {
    for (case, mut rng) in cases() {
        let (honest, n_bad, kappa) = signflip_scenario(&mut rng);
        let bad = signflip_point(&honest, kappa);
        let refs = all_inputs(&honest, &bad, n_bad);
        let ratio = (n_bad as f64 / refs.len() as f64).min(0.49);
        let out = AggregatorKind::TrimmedMean { ratio }.aggregate(&refs, None);
        assert_in_box(case, "trimmed mean", &out, honest_box(&honest, 1e-3));
    }
}

#[test]
fn krum_family_rejects_unanimous_sign_flip() {
    for (case, mut rng) in cases() {
        let (honest, n_bad, kappa) = draw_where(case, &mut rng, signflip_scenario, |(h, _, k)| {
            let bad = signflip_point(h, *k);
            h.iter().all(|h| hfl_tensor::ops::dist(h, &bad) > 10.0)
        });
        let bad = signflip_point(&honest, kappa);
        let refs = all_inputs(&honest, &bad, n_bad);
        let out = AggregatorKind::Krum { f: n_bad }.aggregate(&refs, None);
        assert!(
            honest.iter().any(|h| h.as_slice() == out.as_slice()),
            "case {case}: Krum picked the coalition's point"
        );
        let selected = multikrum_selection(&refs, n_bad, honest.len());
        assert!(
            selected.iter().all(|&i| i < honest.len()),
            "case {case}: Multi-Krum selected coalition index in {selected:?}"
        );
    }
}

#[test]
fn geomed_sides_with_the_honest_majority() {
    for (case, mut rng) in cases() {
        let (honest, n_bad, kappa) =
            draw_where(case, &mut rng, signflip_scenario, |(_, n_bad, _)| {
                *n_bad >= 1
            });
        let bad = signflip_point(&honest, kappa);
        let refs = all_inputs(&honest, &bad, n_bad);
        let out = AggregatorKind::GeoMed.aggregate(&refs, None);
        let mut centroid = vec![0.0f32; 4];
        let hrefs: Vec<&[f32]> = honest.iter().map(|h| h.as_slice()).collect();
        hfl_tensor::ops::mean_of(&hrefs, &mut centroid);
        assert!(
            hfl_tensor::ops::dist(&out, &centroid) < hfl_tensor::ops::dist(&out, &bad),
            "case {case}: geomed landed nearer the coalition than the honest centroid"
        );
    }
}

#[test]
fn centered_clip_resists_unanimous_sign_flip() {
    for (case, mut rng) in cases() {
        let (honest, n_bad, kappa) = signflip_scenario(&mut rng);
        let bad = signflip_point(&honest, kappa);
        let refs = all_inputs(&honest, &bad, n_bad);
        let out = AggregatorKind::CenteredClip { tau: 1.0, iters: 3 }.aggregate(&refs, None);
        assert_in_box(case, "centered clip", &out, honest_box(&honest, 3.0 + 1e-3));
    }
}

// Streaming-kernel equivalence: below the exact-fallback threshold the
// streaming rules must reproduce the batch kernels on *any* arrival
// order, within 1 ulp.

#[test]
fn streaming_median_matches_exact_on_any_arrival_order() {
    for (case, mut rng) in cases() {
        let (honest, n_bad, bad) = scenario(&mut rng);
        let mut refs = all_inputs(&honest, &bad, n_bad);
        arrival_order(&mut refs, rng.gen_range(0usize..1000), 31, 17);
        let exact = AggregatorKind::Median.aggregate(&refs, None);
        let streamed = AggregatorKind::StreamingMedian {
            exact_threshold: DEFAULT_EXACT_THRESHOLD,
        }
        .aggregate(&refs, None);
        for (j, (e, s)) in exact.iter().zip(&streamed).enumerate() {
            assert!(
                ulp_gap(*e, *s) <= 1,
                "case {case}: coord {j}: exact {e} vs streamed {s}"
            );
        }
    }
}

#[test]
fn streaming_trimmed_mean_matches_exact_on_any_arrival_order() {
    for (case, mut rng) in cases() {
        let (honest, n_bad, bad) = scenario(&mut rng);
        let ratio = rng.gen_range(0u32..50) as f64 / 100.0;
        let mut refs = all_inputs(&honest, &bad, n_bad);
        arrival_order(&mut refs, rng.gen_range(0usize..1000), 37, 13);
        let exact = AggregatorKind::TrimmedMean { ratio }.aggregate(&refs, None);
        let streamed = AggregatorKind::StreamingTrimmedMean {
            ratio,
            exact_threshold: DEFAULT_EXACT_THRESHOLD,
        }
        .aggregate(&refs, None);
        for (j, (e, s)) in exact.iter().zip(&streamed).enumerate() {
            assert!(
                ulp_gap(*e, *s) <= 1,
                "case {case}: coord {j}: exact {e} vs streamed {s}"
            );
        }
    }
}

#[test]
fn sampled_krum_is_exact_krum_below_the_bucket_cut() {
    for (case, mut rng) in cases() {
        let (honest, n_bad, bad) = scenario(&mut rng);
        let refs = all_inputs(&honest, &bad, n_bad);
        let exact = AggregatorKind::Krum { f: n_bad }.aggregate(&refs, None);
        let sampled = AggregatorKind::SampledKrum {
            f: n_bad,
            m: refs.len(),
        }
        .aggregate(&refs, None);
        assert_eq!(exact, sampled, "case {case}");
    }
}

#[test]
fn aggregators_are_permutation_insensitive_median() {
    for (case, mut rng) in cases() {
        // Coordinate-wise median must not depend on input order.
        let (honest, n_bad, bad) = scenario(&mut rng);
        let mut refs = all_inputs(&honest, &bad, n_bad);
        let a = AggregatorKind::Median.aggregate(&refs, None);
        arrival_order(&mut refs, rng.gen_range(0usize..1000), 31, 17);
        let b = AggregatorKind::Median.aggregate(&refs, None);
        assert_eq!(a, b, "case {case}");
    }
}
