//! Transcendentals of our own: `exp`, `ln` and the Box–Muller angle,
//! written with `+ − × ÷`, comparisons and bit operations only — no
//! `mul_add`, no call into the platform's libm, whose results differ
//! from one C library to the next (DESIGN.md §15, "Transcendentals are
//! ours").
//!
//! Two consequences follow. A run's bits no longer depend on the host's
//! libm. And a function inlined into a lane of a SIMD loop performs the
//! same IEEE operations as its scalar call, so a slice kernel
//! ([`exp_in_place`]) computes exactly the scalar form's bits at every
//! [`Width`](crate::ops::Width) — what lets the softmax and the
//! Box–Muller draw run lane-wise without a golden moving.
//!
//! Every function evaluates in `f64` on fdlibm's reductions and
//! polynomials (Sun Microsystems' freely distributable libm: `e_exp.c`,
//! `e_log.c`, `k_sin.c`, `k_cos.c`), each within one `f64` ulp of the
//! real value. The `f32` forms round that once, so they are within one
//! `f32` ulp of the `f64` reference rounded to `f32` — correctly rounded
//! unless the real value lies within about 2⁻⁵² of a rounding boundary.
//!
//! | form | `f32` | `f64` (scalar) |
//! |---|---|---|
//! | `eˣ` | [`exp`] | [`exp_f64`] |
//! | `ln x` | [`ln`] | [`ln_f64`] |
//! | `sin 2πu`, `cos 2πu` | [`sin_cos_2pi`] | [`cos_2pi_f64`] (cosine only) |
//!
//! The angle takes the turn `u`, not `2πu`: Box–Muller's `u` is a
//! multiple of 2⁻²⁴ (2⁻⁵³ in `f64`), so the reduction to a quarter turn
//! is an exact subtraction on `u` itself, and only the final
//! `|θ| ≤ π/4` is rounded.

use crate::ops::at_current;

/// `1.5·2⁵²`: adding it to an `f64` of magnitude below 2⁵¹ rounds it to
/// an integer (ties to even), held in the low bits of the sum.
const SHIFT: f64 = 6_755_399_441_055_744.0;

/// `ln 2` split so that `k·LN2_HI` is exact for `|k| < 2¹¹`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
const INV_LN2: f64 = f64::from_bits(0x3ff7_1547_652b_82fe);

/// `e_exp.c`'s rational remainder: `R(r²) ≈ r·(eʳ + 1)/(eʳ − 1)`.
const P1: f64 = f64::from_bits(0x3fc5_5555_5555_553e);
const P2: f64 = f64::from_bits(0xbf66_c16c_16be_bd93);
const P3: f64 = f64::from_bits(0x3f11_566a_af25_de2c);
const P4: f64 = f64::from_bits(0xbebb_bd41_c5d2_6bf1);
const P5: f64 = f64::from_bits(0x3e66_3769_72be_a4d0);

/// `e_log.c`'s `log(1 + f) = 2s + s·R(s²)`, `s = f/(2 + f)`.
const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593);
const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04);
const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359);
const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af);
const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de);
const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f);
const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244);

/// `k_sin.c` on `|x| ≤ π/4`.
const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549);
const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6);
const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5);
const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d);
const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb);
const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c);

/// `k_cos.c` on `|x| ≤ π/4`.
const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c);
const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177);
const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590);
const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad);
const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4);
const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4);

/// Past this (≈ 709.78) `eˣ` overflows `f64`; below [`EXP_UNDER`]
/// (≈ −745.13) it rounds to 0.
const EXP_OVER: f64 = f64::from_bits(0x4086_2e42_fefa_39ef);
const EXP_UNDER: f64 = f64::from_bits(0xc087_4910_d52d_3051);

/// `eˣ` for `x` in `[EXP_UNDER, EXP_OVER]`, no branch: `x = k·ln 2 + r`
/// with `|r| ≤ ln 2 / 2`, `eʳ` from `e_exp.c`'s rational form, then
/// `2ᵏ` applied as two exact powers of two so that the one rounding a
/// subnormal result needs happens once.
#[inline(always)]
fn exp_core(x: f64) -> f64 {
    let t = x * INV_LN2 + SHIFT;
    let kf = t - SHIFT;
    let k = (t.to_bits() as i64).wrapping_sub(SHIFT.to_bits() as i64);
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let z = r * r;
    let c = r - z * (P1 + z * (P2 + z * (P3 + z * (P4 + z * P5))));
    let y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
    let half = k >> 1;
    let pow2 = |e: i64| f64::from_bits(((e + 1023) as u64) << 52);
    y * pow2(half) * pow2(k - half)
}

/// `ln x` for a positive normal `x` whose biased exponent is read
/// against `bias` (1023, or 1023 + 54 for a subnormal scaled by 2⁵⁴),
/// no branch: `x = 2ᵏ·(1 + f)` with `√2/2 ≤ 1 + f < √2`, then `e_log.c`.
#[inline(always)]
fn ln_core(x: f64, bias: u64) -> f64 {
    let bits = x.to_bits();
    let high = bits >> 32;
    // 2²⁰ when the mantissa is at least √2's: that x is read as 2·(x/2).
    let up = ((high & 0x000f_ffff) + 0x9_5f64) & 0x10_0000;
    let m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | ((up ^ 0x3ff0_0000) << 32));
    let e = (high >> 20) + (up >> 20);
    let k = f64::from_bits(0x4330_0000_0000_0000 | e) - (SHIFT / 1.5 + bias as f64);
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let r = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7))) + w * (LG2 + w * (LG4 + w * LG6));
    let hfsq = 0.5 * f * f;
    k * LN2_HI - ((hfsq - (s * (hfsq + r) + k * LN2_LO)) - f)
}

/// `(sin 2πv, cos 2πv)` for finite `|v| < 2⁴⁹`, no branch: `v = q/4 +
/// r` exactly, `|r| ≤ 1/8`, the kernels at `θ = 2πr` and the quadrant
/// `q mod 4` choosing and signing them.
#[inline(always)]
fn sin_cos_2pi_core(v: f64) -> (f64, f64) {
    let t = v * 4.0 + SHIFT;
    let quadrant = t.to_bits() & 3;
    let r = v - (t - SHIFT) * 0.25;
    let x = r * std::f64::consts::TAU;
    let z = x * x;
    let sin = x + z * x * (S1 + z * (S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)))));
    let rc = z * (C1 + z * (C2 + z * (C3 + z * (C4 + z * (C5 + z * C6)))));
    // `k_cos.c` takes `qx` off both halves of `1 − z/2` for |θ| ≥ 0.3.
    let ix = (x.to_bits() >> 32) & 0x7fff_ffff;
    let quarter = f64::from_bits(ix.wrapping_sub(0x20_0000) << 32);
    let qx = if ix < 0x3fd3_3333 {
        0.0
    } else if ix > 0x3fe9_0000 {
        0.28125
    } else {
        quarter
    };
    let cos = (1.0 - qx) - ((0.5 * z - qx) - z * rc);
    let (a, b) = if quadrant & 1 == 0 {
        (sin, cos)
    } else {
        (cos, sin)
    };
    let sin = if quadrant & 2 == 0 { a } else { -a };
    let cos = if (quadrant + 1) & 2 == 0 { b } else { -b };
    (sin, cos)
}

/// `eˣ` in `f32`: `±∞`, NaN and the overflow / underflow edges as IEEE
/// has them.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    // e⁸⁹ overflows `f32` and e⁻¹⁰⁴ is below half its least subnormal.
    let w = x as f64;
    let w = if w < 89.0 { w } else { 89.0 };
    let w = if w > -104.0 { w } else { -104.0 };
    let y = exp_core(w) as f32;
    if x.is_nan() {
        x
    } else {
        y
    }
}

/// `ln x` in `f32`: `−∞` at `±0`, NaN below 0 and at NaN, `∞` at `∞`.
#[inline(always)]
pub fn ln(x: f32) -> f32 {
    let y = ln_core(x as f64, 1023) as f32;
    let special = if x == 0.0 {
        f32::NEG_INFINITY
    } else if x < 0.0 {
        f32::NAN
    } else {
        x
    };
    if (x > 0.0) & (x < f32::INFINITY) {
        y
    } else {
        special
    }
}

/// `(sin 2πu, cos 2πu)` in `f32`; NaN at `±∞` and NaN.
#[inline(always)]
pub fn sin_cos_2pi(u: f32) -> (f32, f32) {
    // From 2²³ on every `f32` is an integer: a whole number of turns.
    let v = if u.abs() < 8_388_608.0 { u as f64 } else { 0.0 };
    let (sin, cos) = sin_cos_2pi_core(v);
    if u.abs() <= f32::MAX {
        (sin as f32, cos as f32)
    } else {
        (f32::NAN, f32::NAN)
    }
}

/// `eˣ` in `f64`.
pub fn exp_f64(x: f64) -> f64 {
    if x > EXP_OVER {
        f64::INFINITY
    } else if x < EXP_UNDER {
        0.0
    } else if x.is_nan() {
        x
    } else {
        exp_core(x)
    }
}

/// `ln x` in `f64`: `−∞` at `±0`, NaN below 0 and at NaN, `∞` at `∞`.
pub fn ln_f64(x: f64) -> f64 {
    if (f64::MIN_POSITIVE..f64::INFINITY).contains(&x) {
        ln_core(x, 1023)
    } else if x > 0.0 && x < f64::INFINITY {
        ln_core(x * f64::from_bits(0x4350_0000_0000_0000), 1023 + 54)
    } else if x == 0.0 {
        f64::NEG_INFINITY
    } else if x < 0.0 {
        f64::NAN
    } else {
        x
    }
}

/// `cos 2πu` in `f64`; NaN at `±∞` and NaN.
pub fn cos_2pi_f64(u: f64) -> f64 {
    const TWO_49: f64 = 562_949_953_421_312.0;
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let v = if u.abs() < TWO_49 {
        u
    } else if u.abs() < TWO_52 {
        // Whole turns off, exactly: an `f64` this large is a multiple of 2⁻³.
        u - (u as i64) as f64
    } else if u.abs() <= f64::MAX {
        0.0
    } else {
        return f64::NAN;
    };
    sin_cos_2pi_core(v).1
}

/// `xs[j] = exp(xs[j])` for every `j`, lane-wise at
/// [`Width::current`](crate::ops::Width::current): bit for bit [`exp`]
/// of each.
pub fn exp_in_place(xs: &mut [f32]) {
    at_current(
        #[inline(always)]
        |(), xs: &mut [f32], (), _| {
            for x in xs.iter_mut() {
                *x = exp(*x);
            }
        },
        (),
        xs,
        (),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{with_width, Width};

    /// Steps between two `f32`s on the line of all of them: `±0` are
    /// one point, NaN is only at NaN.
    fn ulps(a: f32, b: f32) -> u32 {
        if a.is_nan() || b.is_nan() {
            return if a.is_nan() && b.is_nan() {
                0
            } else {
                u32::MAX
            };
        }
        let key = |x: f32| {
            let bits = x.to_bits() as i32;
            if bits < 0 {
                i32::MIN.wrapping_sub(bits) as i64
            } else {
                bits as i64
            }
        };
        (key(a) - key(b)).unsigned_abs().min(u32::MAX as u64) as u32
    }

    /// [`ulps`] over `f64`.
    fn ulps64(a: f64, b: f64) -> u64 {
        if a.is_nan() || b.is_nan() {
            return if a.is_nan() && b.is_nan() {
                0
            } else {
                u64::MAX
            };
        }
        let key = |x: f64| {
            let bits = x.to_bits() as i64;
            if bits < 0 {
                i64::MIN.wrapping_sub(bits) as i128
            } else {
                bits as i128
            }
        };
        (key(a) - key(b)).unsigned_abs().min(u64::MAX as u128) as u64
    }

    /// `n` points spread over `[lo, hi]` (both ends in), ascending.
    fn grid(lo: f64, hi: f64, n: usize) -> impl Iterator<Item = f64> {
        (0..=n).map(move |i| lo + (hi - lo) * i as f64 / n as f64)
    }

    /// Every `f32` bit pattern at a stride, both signs: all binades,
    /// subnormals, `±∞` and NaNs included.
    fn all_f32(stride: u32) -> impl Iterator<Item = f32> {
        (0..=u32::MAX / stride).map(move |i| f32::from_bits(i * stride))
    }

    /// The edges every `f32` function is asked at.
    const EDGES: [f32; 12] = [
        0.0,
        -0.0,
        f32::from_bits(1),
        f32::MIN_POSITIVE,
        -f32::from_bits(1),
        1.0,
        -1.0,
        f32::MAX,
        f32::MIN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];

    /// `(sin 2πu, cos 2πu)` from `std`, reduced to a quarter turn as the
    /// period allows (exactly, on `u`): rounding `2π·u` itself would err
    /// by far more than an ulp where the cosine is near zero.
    fn sin_cos_2pi_std(u: f64) -> (f64, f64) {
        let q = (4.0 * u).round();
        let x = (u - q / 4.0) * std::f64::consts::TAU;
        let (s, c) = (x.sin(), x.cos());
        match q.rem_euclid(4.0) as u8 {
            0 => (s, c),
            1 => (c, -s),
            2 => (-s, -c),
            _ => (-c, s),
        }
    }

    fn check_f32(what: &str, ours: impl Fn(f32) -> f32, std: impl Fn(f64) -> f64, xs: &[f32]) {
        for &x in xs {
            let (got, want) = (ours(x), std(x as f64) as f32);
            assert!(
                ulps(got, want) <= 1,
                "{what}({x:e}) = {got:e}, std {want:e}"
            );
        }
    }

    fn exp_sample() -> Vec<f32> {
        let mut xs: Vec<f32> = grid(-110.0, 90.0, 400_000).map(|x| x as f32).collect();
        // The softmax's domain, finely: every logit lies at or below its maximum.
        xs.extend(grid(-30.0, 0.0, 300_000).map(|x| x as f32));
        xs.extend(all_f32(4_099).filter(|x| x.abs() < 1.0e-3 || x.is_nan() || x.is_infinite()));
        // Overflow (ln f32::MAX ≈ 88.72), the last normal (≈ −87.34) and
        // the last subnormal (≈ −103.28) result, and half of it (≈ −103.97).
        for edge in [88.722_84f32, -87.336_55, -103.278_93, -103.972_08] {
            let mut x = edge;
            for _ in 0..64 {
                x = x.next_down();
            }
            for _ in 0..128 {
                xs.push(x);
                x = x.next_up();
            }
        }
        xs.extend(EDGES);
        xs
    }

    #[test]
    fn exp_is_within_an_ulp_of_std() {
        check_f32("exp", exp, f64::exp, &exp_sample());
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(exp(f32::NEG_INFINITY), 0.0);
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(88.8), f32::INFINITY);
        assert_eq!(exp(-104.0), 0.0);
        assert!(exp(f32::NAN).is_nan());
    }

    fn ln_sample() -> Vec<f32> {
        // Box–Muller's u1 = 1 − k/2²⁴: every one near both ends, strided between.
        let unit = |k: u32| 1.0 - k as f32 / (1u32 << 24) as f32;
        let mut xs: Vec<f32> = (0..1 << 16).map(unit).collect();
        xs.extend(((1 << 24) - (1 << 16)..1 << 24).map(unit));
        xs.extend((0..1 << 24).step_by(97).map(unit));
        xs.extend(all_f32(4_099));
        xs.extend(EDGES);
        xs
    }

    #[test]
    fn ln_is_within_an_ulp_of_std() {
        check_f32("ln", ln, f64::ln, &ln_sample());
        assert_eq!(ln(1.0), 0.0);
        assert_eq!(ln(0.0), f32::NEG_INFINITY);
        assert_eq!(ln(-0.0), f32::NEG_INFINITY);
        assert_eq!(ln(f32::INFINITY), f32::INFINITY);
        assert!(ln(-1.0).is_nan() && ln(f32::NEG_INFINITY).is_nan() && ln(f32::NAN).is_nan());
    }

    fn angle_sample() -> Vec<f32> {
        // Box–Muller's u2 = k/2²⁴: near every quarter turn, strided between.
        let unit = |k: u32| k as f32 / (1u32 << 24) as f32;
        let mut xs: Vec<f32> = (0..1 << 24).step_by(61).map(unit).collect();
        for quarter in 0..=4u32 {
            let k = quarter << 22;
            xs.extend((k.saturating_sub(4_096)..(k + 4_096).min(1 << 24)).map(unit));
        }
        xs.extend(all_f32(4_099).filter(|u| u.abs() < 1.0e7 || !u.is_finite()));
        xs.extend(EDGES);
        xs
    }

    #[test]
    fn the_angle_is_within_an_ulp_of_std() {
        let xs = angle_sample();
        check_f32(
            "cos_2pi",
            |u| sin_cos_2pi(u).1,
            |u| sin_cos_2pi_std(u).1,
            &xs,
        );
        check_f32(
            "sin_2pi",
            |u| sin_cos_2pi(u).0,
            |u| sin_cos_2pi_std(u).0,
            &xs,
        );
        assert_eq!(sin_cos_2pi(0.0), (0.0, 1.0));
        assert_eq!(sin_cos_2pi(0.5), (-0.0, -1.0));
        assert_eq!(sin_cos_2pi(0.25).1, 0.0);
        assert_eq!(sin_cos_2pi(1.0e9).1, 1.0);
        assert!(sin_cos_2pi(f32::INFINITY).1.is_nan() && sin_cos_2pi(f32::NAN).1.is_nan());
    }

    #[test]
    fn exp_and_ln_are_monotone() {
        for (what, f, mut xs) in [
            ("exp", exp as fn(f32) -> f32, exp_sample()),
            ("ln", ln, ln_sample()),
        ] {
            xs.retain(|x| !x.is_nan() && (what == "exp" || *x >= 0.0));
            xs.sort_by(f32::total_cmp);
            for pair in xs.windows(2) {
                assert!(
                    f(pair[0]) <= f(pair[1]),
                    "{what} at {:e} < {:e}",
                    pair[0],
                    pair[1]
                );
            }
        }
    }

    #[test]
    fn f64_forms_are_within_an_ulp_of_std() {
        let unit = |k: u64| k as f64 / (1u64 << 53) as f64;
        let units: Vec<f64> = (0..1u64 << 53).step_by(1 << 30).map(unit).collect();
        let mut args: Vec<f64> = grid(-750.0, 720.0, 300_000).collect();
        args.extend(grid(-40.0, 12.0, 300_000));
        // Bit patterns spread over every binade, both signs.
        args.extend((0..400_000u64).map(|i| f64::from_bits(i.wrapping_mul(0x9e37_79b9_7f4a_7c15))));
        for x in [
            0.0,
            -0.0,
            1.0,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::MAX,
            EXP_OVER,
            EXP_UNDER,
        ] {
            args.extend([x, -x, x.next_up(), x.next_down()]);
        }
        args.extend([f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        for &x in &args {
            assert!(
                ulps64(exp_f64(x), x.exp()) <= 1,
                "exp_f64({x:e}) = {:e}, std {:e}",
                exp_f64(x),
                x.exp()
            );
        }
        for &x in args.iter().chain(&units).chain(&[40_000.0]) {
            let (got, want) = (ln_f64(1.0 - x), (1.0 - x).ln());
            assert!(
                ulps64(got, want) <= 1,
                "ln_f64({:e}) = {got:e}, std {want:e}",
                1.0 - x
            );
            let (got, want) = (ln_f64(x), x.ln());
            assert!(
                ulps64(got, want) <= 1,
                "ln_f64({x:e}) = {got:e}, std {want:e}"
            );
        }
        for &u in units
            .iter()
            .chain(&args)
            .filter(|u| u.abs() < 1.0e15 || !u.is_finite())
        {
            let (got, want) = (cos_2pi_f64(u), sin_cos_2pi_std(u).1);
            assert!(
                ulps64(got, want) <= 1,
                "cos_2pi_f64({u:e}) = {got:e}, std {want:e}"
            );
        }
    }

    #[test]
    fn the_slice_exp_is_the_scalar_exp_at_every_width() {
        let xs = exp_sample();
        for width in Width::ALL {
            let mut got = xs.clone();
            if with_width(width, || exp_in_place(&mut got)).is_none() {
                println!("{width:?}: not on this CPU");
                continue;
            }
            println!("{width:?}: tested");
            // Every length's tail too: the last partial vector is scalar code.
            for len in 0..40 {
                let mut short = xs[..len].to_vec();
                with_width(width, || exp_in_place(&mut short)).unwrap();
                assert!(short
                    .iter()
                    .zip(&xs)
                    .all(|(g, x)| g.to_bits() == exp(*x).to_bits()));
            }
            for (g, x) in got.iter().zip(&xs) {
                assert_eq!(g.to_bits(), exp(*x).to_bits(), "{width:?} exp({x:e})");
            }
        }
    }
}
