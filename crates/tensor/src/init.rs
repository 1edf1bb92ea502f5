//! Deterministic parameter initializers.
//!
//! All initializers draw from a caller-supplied RNG so entire experiments
//! are reproducible from a single seed.

use rand::Rng;

use crate::math;
use crate::ops::at_current;

/// Fill `buf` with samples from `U(-a, a)`.
pub fn uniform<R: Rng + ?Sized>(rng: &mut R, a: f32, buf: &mut [f32]) {
    assert!(a >= 0.0, "uniform init bound must be non-negative");
    for x in buf.iter_mut() {
        *x = rng.gen_range(-a..=a);
    }
}

/// Xavier/Glorot uniform initialization for a dense layer with the given
/// fan-in and fan-out: `U(-sqrt(6/(fan_in+fan_out)), +...)`.
pub fn xavier_uniform<R: Rng + ?Sized>(
    rng: &mut R,
    fan_in: usize,
    fan_out: usize,
    buf: &mut [f32],
) {
    assert!(fan_in + fan_out > 0, "xavier init needs positive fan");
    let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(rng, a, buf);
}

/// Fill `buf` with i.i.d. `N(mean, std²)` samples (Box–Muller, no external
/// distribution crate needed).
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R, mean: f32, std: f32, buf: &mut [f32]) {
    assert!(std >= 0.0, "gaussian std must be non-negative");
    let mut i = 0;
    while i < buf.len() {
        let (z0, z1) = box_muller(rng);
        buf[i] = mean + std * z0;
        i += 1;
        if i < buf.len() {
            buf[i] = mean + std * z1;
            i += 1;
        }
    }
}

/// `Standard`'s `f32` of both `rand` resolutions: the top 24 bits of a
/// raw word, in `[0, 1)`.
#[inline]
pub fn unit_f32(word: u32) -> f32 {
    (word >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// Box–Muller over two raw generator words — the one place its
/// arithmetic is written, so a caller that seeks its own stream
/// (`hfl_ml::synth`) gets the bits a caller handing in an `Rng` gets.
/// The logarithm and the angle are [`math`]'s, so the draw is the same
/// on every host.
#[inline(always)]
pub fn box_muller_from_words(w1: u32, w2: u32) -> (f32, f32) {
    // Avoid log(0) by mapping u1 into (0, 1].
    let u1 = 1.0 - unit_f32(w1);
    let u2 = unit_f32(w2);
    let r = (-2.0 * math::ln(u1)).sqrt();
    let (sin, cos) = math::sin_cos_2pi(u2);
    (r * cos, r * sin)
}

/// The cosine branch of [`box_muller_from_words`]: one standard normal
/// sample per two words, the sine discarded.
#[inline(always)]
pub fn standard_normal_from_words(w1: u32, w2: u32) -> f32 {
    box_muller_from_words(w1, w2).0
}

/// `out[j] = means[j] + std · z_j`, `z_j` the
/// [`standard_normal_from_words`] of `words[2j]`, `words[2j + 1]`: one
/// lane-wise pass at [`Width::current`](crate::ops::Width::current), bit
/// for bit the scalar form's.
///
/// # Panics
/// If `means` and `out` differ in length or `words` is not twice it.
pub fn gaussians_from_words(words: &[u32], means: &[f32], std: f32, out: &mut [f32]) {
    assert_eq!(
        means.len(),
        out.len(),
        "gaussians: means / out length mismatch"
    );
    assert_eq!(
        words.len(),
        2 * out.len(),
        "gaussians: two words per output"
    );
    at_current(
        #[inline(always)]
        |(words, means, std), out, (), _| gaussians_body(words, means, std, out),
        (words, means, std),
        out,
        (),
    )
}

#[inline(always)]
fn gaussians_body(words: &[u32], means: &[f32], std: f32, out: &mut [f32]) {
    for ((x, m), w) in out.iter_mut().zip(means).zip(words.chunks_exact(2)) {
        *x = *m + std * standard_normal_from_words(w[0], w[1]);
    }
}

/// One Box–Muller draw: two independent standard normal samples from
/// the generator's next two words.
#[inline]
pub fn box_muller<R: Rng + ?Sized>(rng: &mut R) -> (f32, f32) {
    let w1 = rng.next_u32();
    let w2 = rng.next_u32();
    box_muller_from_words(w1, w2)
}

/// A standard normal sample in `f64`: Box–Muller over two `gen::<f64>()`
/// draws, through [`math`]'s `f64` forms (the link delays and the
/// Dirichlet partition's Gamma draws).
pub fn standard_normal_f64<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * math::ln_f64(u1)).sqrt() * math::cos_2pi_f64(u2)
}

/// A single standard normal sample (two words, always).
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    box_muller(rng).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{with_width, Width};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = vec![0.0f32; 1000];
        uniform(&mut rng, 0.5, &mut buf);
        assert!(buf.iter().all(|x| x.abs() <= 0.5));
        // not all identical
        assert!(buf.iter().any(|x| *x != buf[0]));
    }

    #[test]
    fn xavier_bound_shrinks_with_fan() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut big = vec![0.0f32; 1000];
        xavier_uniform(&mut rng, 10_000, 10_000, &mut big);
        let bound = (6.0f32 / 20_000.0).sqrt();
        assert!(big.iter().all(|x| x.abs() <= bound + 1e-6));
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = vec![0.0f32; 20_000];
        gaussian(&mut rng, 2.0, 3.0, &mut buf);
        let mean: f64 = buf.iter().map(|x| *x as f64).sum::<f64>() / buf.len() as f64;
        let var: f64 =
            buf.iter().map(|x| (*x as f64 - mean).powi(2)).sum::<f64>() / buf.len() as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean was {mean}");
        assert!((var.sqrt() - 3.0).abs() < 0.1, "std was {}", var.sqrt());
    }

    /// The word form is the `gen::<f32>()` form it replaced, bit for
    /// bit, under whichever `rand` is linked.
    #[test]
    fn box_muller_words_are_two_f32_draws() {
        let mut words = StdRng::seed_from_u64(5);
        let mut draws = StdRng::seed_from_u64(5);
        for _ in 0..1_000 {
            let u1: f32 = 1.0 - draws.gen::<f32>();
            let u2: f32 = draws.gen();
            let r = (-2.0 * math::ln(u1)).sqrt();
            let (sin, cos) = math::sin_cos_2pi(u2);
            let (z0, z1) = box_muller(&mut words);
            assert_eq!(z0.to_bits(), (r * cos).to_bits());
            assert_eq!(z1.to_bits(), (r * sin).to_bits());
        }
    }

    /// The lane-wise draw is the scalar one at every width the CPU has,
    /// over every word at both ends of the unit interval and a spread
    /// between, at lengths that leave every tail.
    #[test]
    fn gaussians_read_the_scalar_draw_at_every_width() {
        let mut words: Vec<u32> = (0..1u32 << 12).flat_map(|k| [k << 8, !(k << 8)]).collect();
        let mut rng = StdRng::seed_from_u64(9);
        words.extend((0..1 << 14).map(|_| rng.gen::<u32>()));
        words.extend([0, 0, u32::MAX, u32::MAX, 0, u32::MAX, u32::MAX, 0]);
        let n = words.len() / 2;
        let means: Vec<f32> = (0..n).map(|j| j as f32 * 0.01 - 3.0).collect();
        let want: Vec<f32> = (0..n)
            .map(|j| means[j] + 0.7 * standard_normal_from_words(words[2 * j], words[2 * j + 1]))
            .collect();
        for width in Width::ALL {
            for len in (0..40).chain([n]) {
                let mut got = vec![f32::NAN; len];
                let draw = || gaussians_from_words(&words[..2 * len], &means[..len], 0.7, &mut got);
                let Some(()) = with_width(width, draw) else {
                    break;
                };
                for (j, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "{width:?} length {len} draw {j}");
                }
            }
        }
        let mut dispatched = vec![0.0; n];
        gaussians_from_words(&words, &means, 0.7, &mut dispatched);
        assert!(dispatched
            .iter()
            .zip(&want)
            .all(|(g, w)| g.to_bits() == w.to_bits()));
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = vec![0.0f32; 16];
        let mut b = vec![0.0f32; 16];
        gaussian(&mut StdRng::seed_from_u64(42), 0.0, 1.0, &mut a);
        gaussian(&mut StdRng::seed_from_u64(42), 0.0, 1.0, &mut b);
        assert_eq!(a, b);
    }
}
