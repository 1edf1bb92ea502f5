//! Deterministic parameter initializers.
//!
//! All initializers draw from a caller-supplied RNG so entire experiments
//! are reproducible from a single seed.

use rand::Rng;

/// Fill `buf` with samples from `U(-a, a)`.
pub fn uniform<R: Rng + ?Sized>(rng: &mut R, a: f32, buf: &mut [f32]) {
    assert!(a >= 0.0, "uniform init bound must be non-negative");
    for x in buf.iter_mut() {
        *x = rng.gen_range(-a..=a);
    }
}

/// Xavier/Glorot uniform initialization for a dense layer with the given
/// fan-in and fan-out: `U(-sqrt(6/(fan_in+fan_out)), +...)`.
pub fn xavier_uniform<R: Rng + ?Sized>(rng: &mut R, fan_in: usize, fan_out: usize, buf: &mut [f32]) {
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
#[inline]
pub fn box_muller_from_words(w1: u32, w2: u32) -> (f32, f32) {
    // Avoid log(0) by mapping u1 into (0, 1].
    let u1 = 1.0 - unit_f32(w1);
    let u2 = unit_f32(w2);
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f32::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// The cosine branch of [`box_muller_from_words`]: one standard normal
/// sample per two words, the sine discarded.
#[inline]
pub fn standard_normal_from_words(w1: u32, w2: u32) -> f32 {
    box_muller_from_words(w1, w2).0
}

/// One Box–Muller draw: two independent standard normal samples from
/// the generator's next two words.
#[inline]
pub fn box_muller<R: Rng + ?Sized>(rng: &mut R) -> (f32, f32) {
    let w1 = rng.next_u32();
    let w2 = rng.next_u32();
    box_muller_from_words(w1, w2)
}

/// A single standard normal sample (two words, always).
#[inline]
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f32 {
    box_muller(rng).0
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            let (z0, z1) = box_muller(&mut words);
            assert_eq!(z0.to_bits(), (r * theta.cos()).to_bits());
            assert_eq!(z1.to_bits(), (r * theta.sin()).to_bits());
        }
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
