//! Model-update attacks: colluding Byzantine clients craft malicious
//! parameter vectors as a function of the honest updates they can observe
//! (the strongest, omniscient-adversary convention from the Byzantine-ML
//! literature).
//!
//! The omniscient crafts read the honest set as a matrix, bit for bit
//! what a scalar loop per column or per pair computes: ALIE's variance
//! is one coordinate-lane pass ([`stats::column_var_into`]), MinMax's and
//! MinSum's budgets come from the pairwise fill
//! [`ops::pairwise_dist_sq`], and their bisections measure a candidate
//! against four honest rows at a time ([`ops::dist_sq_block`]).

use std::cmp::Ordering;

use rand::rngs::StdRng;

use hfl_tensor::{ops, stats};

/// A model-update attack. Given the honest updates of the current round,
/// produces the vector every colluding Byzantine client submits.
#[derive(Clone, Debug, PartialEq)]
pub enum ModelAttack {
    /// Sign flip: submit `−scale · mean(honest)`.
    SignFlip {
        /// Magnitude multiplier (1.0 = pure reflection).
        scale: f32,
    },
    /// Additive Gaussian noise around the honest mean.
    GaussianNoise {
        /// Noise standard deviation per coordinate.
        std: f32,
    },
    /// *A Little Is Enough* (Baruch et al.): shift each coordinate of the
    /// honest mean by `z` honest standard deviations — large enough to
    /// bias, small enough to evade distance-based defenses.
    Alie {
        /// Number of standard deviations to shift by.
        z: f32,
    },
    /// *Inner-Product Manipulation* (Xie et al.): submit
    /// `−epsilon · mean(honest)` so the aggregate's inner product with the
    /// true gradient direction turns negative while staying small.
    Ipm {
        /// Negative-scaling factor, typically in `(0, 1]`.
        epsilon: f32,
    },
    /// *Mimic* (Karimireddy et al.): every colluder submits an exact copy
    /// of one pivotal honest update. Nothing is an outlier, so
    /// distance/rank defenses (Krum family, medians) over-represent the
    /// victim and under-represent everyone else — the attack starves
    /// heterogeneous (non-IID) clients of influence.
    Mimic {
        /// Index of the copied honest update (taken modulo the number of
        /// honest updates visible this round).
        victim: usize,
    },
    /// Scaling / *Fall of Empires* (Xie et al.): submit
    /// `factor · mean(honest)`. A negative factor reflects the honest
    /// direction through the origin (Fall of Empires uses
    /// `factor = −(1 + ε)`, sitting just past the inner-product boundary);
    /// a large positive factor is the classical model-replacement scaling
    /// attack that overwhelms plain averaging.
    Scaling {
        /// Multiplier on the honest mean — any non-zero finite value.
        factor: f32,
    },
    /// AGR-tailored *Min-Max* (Shejwalkar & Houmansadr): perturb the
    /// honest mean opposite to the update direction by the largest γ such
    /// that the crafted vector's distance to every honest update stays
    /// within the maximum honest pairwise distance — maximally harmful
    /// while provably unflaggable by distance tests.
    MinMax,
    /// AGR-tailored *Min-Sum*: like [`ModelAttack::MinMax`] but bounds the
    /// crafted vector's **sum** of squared distances to the honest updates
    /// by the worst honest update's own sum — a tighter budget that evades
    /// score-sum defenses (Krum's neighbourhood sums).
    MinSum,
}

/// Coordinates whose variances ALIE holds at once: 4 KB of stack, so the
/// shift needs no buffer on the heap.
const VAR_CHUNK: usize = 512;

/// ALIE's shift, in place: `mean[c] -= z · sqrt(var_c) as f32`, `var_c`
/// the honest population variance of coordinate `c` from
/// [`stats::column_var_into`], [`VAR_CHUNK`] coordinates at a time.
fn alie_shift(honest: &[&[f32]], z: f32, mean: &mut [f32]) {
    let mut var = [0.0f64; VAR_CHUNK];
    for (t, chunk) in mean.chunks_mut(VAR_CHUNK).enumerate() {
        let var = &mut var[..chunk.len()];
        stats::column_var_into(honest, t * VAR_CHUNK, var);
        for (m, v) in chunk.iter_mut().zip(var.iter()) {
            *m -= z * v.sqrt() as f32;
        }
    }
}

/// Honest rows per step of the AGR bisection's distance pass:
/// [`ops::dist_sq_block`]'s four independent chains, and the grain at
/// which MinMax stops at the first distance over its budget.
const BUDGET_BLOCK: usize = 4;

/// The AGR-tailored attacks' budgets, read off the upper triangle
/// [`ops::pairwise_dist_sq`] fills (an honest set of up to eight rows is
/// one block and forks nothing; every entry `dist_sq`'s bits, and
/// `dist_sq(a, b)` is `dist_sq(b, a)`'s). MinMax's
/// is the largest honest pairwise squared distance: the diagonal, 0 or
/// NaN, cannot raise a maximum that starts at 0 and passes over NaN.
/// MinSum's is the largest honest row sum, each row summed in index
/// order with its diagonal `dist_sq(a, a)` — a row holding a non-finite
/// coordinate sums to NaN and drops out, as it did when every pair was
/// computed twice.
fn pair_budget(min_sum: bool, honest: &[&[f32]]) -> f64 {
    let n = honest.len();
    let mut pairs = Vec::new();
    ops::pairwise_dist_sq(honest, &mut pairs, &mut ops::RowGroups::default());
    if !min_sum {
        return pairs.iter().fold(0.0f64, |m, d| m.max(*d));
    }
    let pair = |a: usize, b: usize| match a.cmp(&b) {
        Ordering::Less => pairs[a * n + b],
        Ordering::Equal => ops::dist_sq(honest[a], honest[a]),
        Ordering::Greater => pairs[b * n + a],
    };
    (0..n)
        .map(|a| (0..n).map(|b| pair(a, b)).sum::<f64>())
        .fold(0.0f64, f64::max)
}

/// Whether the crafted `v` is within MinMax's budget: no honest update
/// farther than `budget`, checked a block at a time.
fn within_max(v: &[f32], honest: &[&[f32]], budget: f64) -> bool {
    let mut dists = [0.0f64; BUDGET_BLOCK];
    honest.chunks(BUDGET_BLOCK).all(|block| {
        let dists = &mut dists[..block.len()];
        ops::dist_sq_block(v, block, dists);
        dists.iter().all(|d| *d <= budget)
    })
}

/// Whether the crafted `v` is within MinSum's budget: its squared
/// distances to the honest updates, summed in index order from −0.0 (as
/// `Iterator::sum` does), at most `budget`.
fn within_sum(v: &[f32], honest: &[&[f32]], budget: f64) -> bool {
    let mut dists = [0.0f64; BUDGET_BLOCK];
    let mut sum = -0.0f64;
    for block in honest.chunks(BUDGET_BLOCK) {
        let dists = &mut dists[..block.len()];
        ops::dist_sq_block(v, block, dists);
        for d in dists.iter() {
            sum += d;
        }
    }
    sum <= budget
}

/// Largest perturbation magnitude `γ` (via 1-D bisection) such that
/// `within_budget(mean + γ·dir)` still holds. Deterministic: pure
/// arithmetic, no RNG. Every candidate is built in one buffer.
fn max_gamma(mean: &[f32], dir: &[f32], within_budget: impl Fn(&[f32]) -> bool) -> f32 {
    let mut v = vec![0.0f32; mean.len()];
    let mut crafted_within = |g: f32| {
        v.copy_from_slice(mean);
        ops::axpy(g, dir, &mut v);
        within_budget(&v)
    };
    if !crafted_within(0.0) {
        // Degenerate budget (single honest update with itself): stay put.
        return 0.0;
    }
    // Grow until the budget breaks, then bisect the boundary.
    let mut hi = 1.0f32;
    let mut doublings = 0;
    while crafted_within(hi) {
        hi *= 2.0;
        doublings += 1;
        if doublings >= 40 {
            return hi; // budget never binds at any sane magnitude
        }
    }
    let mut lo = if doublings == 0 { 0.0 } else { hi / 2.0 };
    for _ in 0..30 {
        let mid = 0.5 * (lo + hi);
        if crafted_within(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Unit perturbation direction for the AGR-tailored attacks: opposite the
/// honest mean (the static "inverse unit vector" choice from Shejwalkar &
/// Houmansadr), falling back to a fixed unit diagonal when the mean is
/// (numerically) zero.
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

impl ModelAttack {
    /// Checks every parameter [`ModelAttack::craft`] asserts on, and the
    /// non-finite ones it would craft NaN from: `Err((which parameter,
    /// its value))` for the first unusable one.
    pub fn validate(&self) -> Result<(), (&'static str, f64)> {
        let (ok, what, value) = match *self {
            ModelAttack::SignFlip { scale: v } => (v > 0.0, "sign-flip scale", v),
            ModelAttack::GaussianNoise { std: v } => (v >= 0.0, "noise std", v),
            ModelAttack::Alie { z: v } => (true, "ALIE z", v),
            ModelAttack::Ipm { epsilon: v } => (v > 0.0, "IPM epsilon", v),
            ModelAttack::Scaling { factor: v } => (v != 0.0, "scaling factor", v),
            ModelAttack::Mimic { .. } | ModelAttack::MinMax | ModelAttack::MinSum => return Ok(()),
        };
        match ok && value.is_finite() {
            true => Ok(()),
            false => Err((what, f64::from(value))),
        }
    }

    /// [`Self::craft`] that degrades instead of panicking: returns `None`
    /// when `honest` is empty (an all-malicious cluster has nothing to
    /// observe — the caller should fall back to a neutral update, e.g.
    /// the last-round aggregate, and record the anomaly).
    pub fn try_craft(&self, honest: &[&[f32]], rng: &mut StdRng) -> Option<Vec<f32>> {
        if honest.is_empty() {
            return None;
        }
        Some(self.craft(honest, rng))
    }

    /// Crafts the malicious update from the honest updates of this round.
    ///
    /// # Panics
    /// If `honest` is empty (an omniscient attack needs something to
    /// observe) or updates have mismatched lengths. Use
    /// [`Self::try_craft`] where an empty honest set is reachable.
    pub fn craft(&self, honest: &[&[f32]], rng: &mut StdRng) -> Vec<f32> {
        assert!(!honest.is_empty(), "model attack needs honest updates");
        let d = honest[0].len();
        assert!(
            honest.iter().all(|h| h.len() == d),
            "honest update length mismatch"
        );
        let mut mean = vec![0.0f32; d];
        ops::mean_of(honest, &mut mean);
        match self {
            ModelAttack::SignFlip { scale } => {
                assert!(*scale > 0.0, "sign-flip scale must be positive");
                ops::scale(-scale, &mut mean);
                mean
            }
            ModelAttack::GaussianNoise { std } => {
                assert!(*std >= 0.0, "noise std must be non-negative");
                for m in mean.iter_mut() {
                    *m += std * hfl_tensor::init::standard_normal(rng);
                }
                mean
            }
            ModelAttack::Alie { z } => {
                // Per-coordinate honest std; shift mean by -z·std (the
                // direction is arbitrary; -z biases all coordinates the
                // same way, the classical formulation).
                alie_shift(honest, *z, &mut mean);
                mean
            }
            ModelAttack::Ipm { epsilon } => {
                assert!(*epsilon > 0.0, "IPM epsilon must be positive");
                ops::scale(-epsilon, &mut mean);
                mean
            }
            ModelAttack::Mimic { victim } => honest[victim % honest.len()].to_vec(),
            ModelAttack::Scaling { factor } => {
                assert!(
                    factor.is_finite() && *factor != 0.0,
                    "scaling factor must be finite and non-zero"
                );
                ops::scale(*factor, &mut mean);
                mean
            }
            ModelAttack::MinMax | ModelAttack::MinSum => {
                let min_sum = *self == ModelAttack::MinSum;
                let budget = pair_budget(min_sum, honest);
                let within = if min_sum { within_sum } else { within_max };
                let dir = agr_direction(&mean);
                let g = max_gamma(&mean, &dir, |v| within(v, honest, budget));
                ops::axpy(g, &dir, &mut mean);
                mean
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn honest() -> Vec<Vec<f32>> {
        vec![
            vec![1.0, 2.0, 3.0],
            vec![1.2, 2.2, 3.2],
            vec![0.8, 1.8, 2.8],
        ]
    }

    fn refs(v: &[Vec<f32>]) -> Vec<&[f32]> {
        v.iter().map(|x| x.as_slice()).collect()
    }

    #[test]
    fn sign_flip_reflects_mean() {
        let h = honest();
        let mut rng = StdRng::seed_from_u64(1);
        let m = ModelAttack::SignFlip { scale: 1.0 }.craft(&refs(&h), &mut rng);
        assert!(ops::approx_eq(&m, &[-1.0, -2.0, -3.0], 1e-6));
    }

    #[test]
    fn sign_flip_scale_amplifies() {
        let h = honest();
        let mut rng = StdRng::seed_from_u64(1);
        let m = ModelAttack::SignFlip { scale: 10.0 }.craft(&refs(&h), &mut rng);
        assert!(ops::approx_eq(&m, &[-10.0, -20.0, -30.0], 1e-5));
    }

    #[test]
    fn ipm_is_small_negative_multiple() {
        let h = honest();
        let mut rng = StdRng::seed_from_u64(1);
        let m = ModelAttack::Ipm { epsilon: 0.5 }.craft(&refs(&h), &mut rng);
        assert!(ops::approx_eq(&m, &[-0.5, -1.0, -1.5], 1e-6));
        // Inner product with the honest mean is negative.
        let mut mean = vec![0.0f32; 3];
        ops::mean_of(&refs(&h), &mut mean);
        assert!(ops::dot(&m, &mean) < 0.0);
    }

    #[test]
    fn alie_stays_within_z_std_of_mean() {
        let h = honest();
        let mut rng = StdRng::seed_from_u64(1);
        let m = ModelAttack::Alie { z: 1.5 }.craft(&refs(&h), &mut rng);
        let mut mean = vec![0.0f32; 3];
        ops::mean_of(&refs(&h), &mut mean);
        for j in 0..3 {
            let shift = (mean[j] - m[j]).abs();
            // honest per-coordinate std here is sqrt(2/75)·... small; just
            // check direction and boundedness.
            assert!(m[j] < mean[j], "ALIE must shift downward");
            assert!(shift < 1.0, "ALIE shift too large: {shift}");
        }
    }

    #[test]
    fn alie_zero_z_returns_mean() {
        let h = honest();
        let mut rng = StdRng::seed_from_u64(1);
        let m = ModelAttack::Alie { z: 0.0 }.craft(&refs(&h), &mut rng);
        assert!(ops::approx_eq(&m, &[1.0, 2.0, 3.0], 1e-6));
    }

    #[test]
    fn gaussian_noise_deterministic_in_seed() {
        let h = honest();
        let a =
            ModelAttack::GaussianNoise { std: 1.0 }.craft(&refs(&h), &mut StdRng::seed_from_u64(7));
        let b =
            ModelAttack::GaussianNoise { std: 1.0 }.craft(&refs(&h), &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "needs honest updates")]
    fn empty_honest_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        ModelAttack::SignFlip { scale: 1.0 }.craft(&[], &mut rng);
    }

    #[test]
    fn mimic_copies_the_victim_exactly() {
        let h = honest();
        let mut rng = StdRng::seed_from_u64(1);
        let m = ModelAttack::Mimic { victim: 2 }.craft(&refs(&h), &mut rng);
        assert_eq!(m, h[2]);
        // Out-of-range victims wrap instead of panicking.
        let m = ModelAttack::Mimic { victim: 5 }.craft(&refs(&h), &mut rng);
        assert_eq!(m, h[2]);
    }

    #[test]
    fn scaling_reflects_and_amplifies() {
        let h = honest();
        let mut rng = StdRng::seed_from_u64(1);
        let m = ModelAttack::Scaling { factor: -1.5 }.craft(&refs(&h), &mut rng);
        assert!(ops::approx_eq(&m, &[-1.5, -3.0, -4.5], 1e-5));
        let mut mean = vec![0.0f32; 3];
        ops::mean_of(&refs(&h), &mut mean);
        assert!(ops::dot(&m, &mean) < 0.0, "reflection crosses the boundary");
        let m = ModelAttack::Scaling { factor: 100.0 }.craft(&refs(&h), &mut rng);
        assert!(ops::approx_eq(&m, &[100.0, 200.0, 300.0], 1e-3));
    }

    #[test]
    #[should_panic(expected = "finite and non-zero")]
    fn scaling_rejects_zero_factor() {
        let h = honest();
        let mut rng = StdRng::seed_from_u64(1);
        ModelAttack::Scaling { factor: 0.0 }.craft(&refs(&h), &mut rng);
    }

    #[test]
    fn min_max_respects_the_pairwise_budget() {
        let h = honest();
        let mut rng = StdRng::seed_from_u64(1);
        let m = ModelAttack::MinMax.craft(&refs(&h), &mut rng);
        let max_pairwise = h
            .iter()
            .flat_map(|a| h.iter().map(move |b| ops::dist_sq(a, b)))
            .fold(0.0f64, f64::max);
        for hu in &h {
            assert!(
                ops::dist_sq(&m, hu) <= max_pairwise * 1.0001,
                "crafted update exceeds the max honest pairwise distance"
            );
        }
        // And it actually moved: strictly below the honest mean in dot
        // product (perturbation is anti-mean).
        let mut mean = vec![0.0f32; 3];
        ops::mean_of(&refs(&h), &mut mean);
        assert!(ops::dot(&m, &mean) < ops::dot(&mean, &mean));
    }

    #[test]
    fn min_sum_budget_is_tighter_than_min_max() {
        let h = honest();
        let mut rng = StdRng::seed_from_u64(1);
        let mm = ModelAttack::MinMax.craft(&refs(&h), &mut rng);
        let ms = ModelAttack::MinSum.craft(&refs(&h), &mut rng);
        let max_sum = h
            .iter()
            .map(|a| h.iter().map(|b| ops::dist_sq(a, b)).sum::<f64>())
            .fold(0.0f64, f64::max);
        let crafted_sum: f64 = h.iter().map(|hu| ops::dist_sq(&ms, hu)).sum();
        assert!(crafted_sum <= max_sum * 1.0001);
        let mut mean = vec![0.0f32; 3];
        ops::mean_of(&refs(&h), &mut mean);
        // Both shift anti-mean; the sum budget binds at least as early.
        assert!(ops::dist(&ms, &mean) <= ops::dist(&mm, &mean) * 1.0001);
    }

    /// Both budgets against `dist_sq` per ordered pair, exact bits, over
    /// one and several pair-fill blocks: finite rows, rows with NaN,
    /// `−∞`, −0.0 and `f32::MAX` scattered in, and rows that each hold
    /// `+∞` at their own coordinate. In the last set every row sum is NaN
    /// through its diagonal and the MinSum budget is 0; without the
    /// diagonal it would be `+∞`. No crafted update can show that — a
    /// non-finite row makes the mean, and so every candidate, non-finite
    /// — so the budget itself is pinned here.
    #[test]
    fn pair_budgets_match_dist_sq_per_ordered_pair() {
        for kind in 0..3 {
            for n in [1usize, 2, 3, 7, 8, 9, 17] {
                for d in [1usize, 7, 33] {
                    let h: Vec<Vec<f32>> = (0..n)
                        .map(|r| {
                            (0..d)
                                .map(|c| {
                                    let h = ((r * 7919 + c * 104_729 + 17) as u32)
                                        .wrapping_mul(0x9e37_79b9);
                                    let x = f32::from_bits(h >> 9 | 0x3f80_0000)
                                        * [1.0, -3.5][(h & 1) as usize];
                                    match (kind, h >> 26) {
                                        (1, 0) => f32::NAN,
                                        (1, 1) => f32::NEG_INFINITY,
                                        (1, 2) => -0.0,
                                        (1, 3) => f32::MAX,
                                        (2, _) if c == r % d => f32::INFINITY,
                                        _ => x,
                                    }
                                })
                                .collect()
                        })
                        .collect();
                    let h = refs(&h);
                    let max_pairwise = h
                        .iter()
                        .flat_map(|a| h.iter().map(move |b| ops::dist_sq(a, b)))
                        .fold(0.0f64, f64::max);
                    let max_sum = h
                        .iter()
                        .map(|a| h.iter().map(|b| ops::dist_sq(a, b)).sum::<f64>())
                        .fold(0.0f64, f64::max);
                    let what = format!("kind {kind}, n={n}, d={d}");
                    assert_eq!(
                        pair_budget(false, &h).to_bits(),
                        max_pairwise.to_bits(),
                        "MinMax {what}"
                    );
                    assert_eq!(
                        pair_budget(true, &h).to_bits(),
                        max_sum.to_bits(),
                        "MinSum {what}"
                    );
                }
            }
        }
    }

    #[test]
    fn agr_attacks_deterministic_without_rng_draws() {
        let h = honest();
        let a = ModelAttack::MinMax.craft(&refs(&h), &mut StdRng::seed_from_u64(1));
        let b = ModelAttack::MinMax.craft(&refs(&h), &mut StdRng::seed_from_u64(999));
        assert_eq!(a, b, "MinMax must not consume RNG");
        let a = ModelAttack::MinSum.craft(&refs(&h), &mut StdRng::seed_from_u64(1));
        let b = ModelAttack::MinSum.craft(&refs(&h), &mut StdRng::seed_from_u64(999));
        assert_eq!(a, b, "MinSum must not consume RNG");
    }

    #[test]
    fn min_max_single_honest_update_stays_put() {
        let h = vec![vec![1.0f32, -2.0, 0.5]];
        let mut rng = StdRng::seed_from_u64(1);
        let m = ModelAttack::MinMax.craft(&refs(&h), &mut rng);
        assert!(ops::approx_eq(&m, &h[0], 1e-3), "zero budget pins to mean");
    }

    #[test]
    fn try_craft_degrades_on_empty_honest() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            ModelAttack::SignFlip { scale: 1.0 }.try_craft(&[], &mut rng),
            None
        );
        let h = honest();
        let got = ModelAttack::SignFlip { scale: 1.0 }
            .try_craft(&refs(&h), &mut rng)
            .expect("non-empty honest crafts");
        assert!(ops::approx_eq(&got, &[-1.0, -2.0, -3.0], 1e-6));
    }

    #[test]
    fn validate_refuses_what_craft_would_panic_on() {
        for attack in [
            ModelAttack::SignFlip { scale: 0.0 },
            ModelAttack::SignFlip { scale: f32::NAN },
            ModelAttack::GaussianNoise { std: -1.0 },
            ModelAttack::Alie { z: f32::INFINITY },
            ModelAttack::Ipm { epsilon: 0.0 },
            ModelAttack::Scaling { factor: 0.0 },
            ModelAttack::Scaling {
                factor: f32::NEG_INFINITY,
            },
        ] {
            assert!(attack.validate().is_err(), "{attack:?} accepted");
        }
        let h = honest();
        let mut rng = StdRng::seed_from_u64(0);
        for attack in [
            ModelAttack::SignFlip { scale: 1.0 },
            ModelAttack::GaussianNoise { std: 0.0 },
            ModelAttack::Alie { z: -1.0 },
            ModelAttack::Ipm { epsilon: 0.5 },
            ModelAttack::Scaling { factor: -1.5 },
            ModelAttack::Mimic { victim: usize::MAX },
            ModelAttack::MinMax,
        ] {
            assert_eq!(attack.validate(), Ok(()), "{attack:?}");
            attack.craft(&refs(&h), &mut rng);
        }
    }
}
