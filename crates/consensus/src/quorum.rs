//! The quorum rule of Algorithm 4, in one place.
//!
//! Leaders collect updates "until quorum or Timeout": the quorum over
//! `present` potential contributors at quorum fraction `φ` is
//! `⌈φ·present⌉`, clamped to at least one contributor (an aggregation
//! of zero inputs is meaningless) and at most everyone present. The
//! round engine's collect step — under either schedule, fault-degraded
//! or not — calls this one function, so its numerics cannot drift apart.

/// `⌈phi·present⌉`, clamped to `[1, present]` (and to 1 when nobody is
/// present, leaving the degenerate case to the caller), in integers.
///
/// A config states φ as a decimal, so φ is read back as one: `num /
/// 10ᵏ` with the least `k ≤ 17` for which `round(φ·10ᵏ) / 10ᵏ` is φ
/// again — `0.07` is 7/100, not the binary `0.07000000000000000666…`
/// the `f64` holds. The quorum is then `⌈num·present / 10ᵏ⌉` in `u128`,
/// which no float rounding can push across an integer (DESIGN.md §9).
/// A φ no 17-place decimal reads back — below 0.1, with more
/// significant digits than an `f64` carries — is taken at its
/// 17-place rounding, within 5·10⁻¹⁸ of it. φ ≤ 0 and NaN take one
/// contributor, φ ≥ 1 everyone.
pub fn quorum_size(phi: f64, present: usize) -> usize {
    let everyone = present.max(1);
    if phi >= 1.0 {
        everyone
    } else if phi > 0.0 {
        let (num, den) = shortest_decimal(phi);
        let quorum = (u128::from(num) * present as u128).div_ceil(u128::from(den));
        usize::try_from(quorum).map_or(everyone, |q| q.clamp(1, everyone))
    } else {
        1
    }
}

/// `φ ∈ (0, 1)` as `(num, 10ᵏ)`: see [`quorum_size`].
fn shortest_decimal(phi: f64) -> (u64, u64) {
    let mut den = 1u64;
    for _ in 0..17 {
        let num = (phi * den as f64).round();
        if num / den as f64 == phi {
            return (num as u64, den);
        }
        den *= 10;
    }
    ((phi * den as f64).round() as u64, den)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_quorum_takes_everyone() {
        assert_eq!(quorum_size(1.0, 4), 4);
        assert_eq!(quorum_size(1.0, 1), 1);
    }

    #[test]
    fn fractional_quorum_rounds_up() {
        assert_eq!(quorum_size(0.5, 4), 2);
        assert_eq!(quorum_size(0.5, 5), 3);
        assert_eq!(quorum_size(0.75, 4), 3);
        assert_eq!(quorum_size(0.6, 5), 3);
    }

    #[test]
    fn at_least_one_contributor() {
        assert_eq!(quorum_size(0.01, 4), 1);
        assert_eq!(quorum_size(0.1, 1), 1);
    }

    #[test]
    fn degenerate_empty_present() {
        assert_eq!(quorum_size(1.0, 0), 1);
        assert_eq!(quorum_size(0.5, 0), 1);
        assert_eq!(quorum_size(0.0, 0), 1);
    }

    #[test]
    fn single_member_quorum_is_always_one() {
        for phi in [0.0, 0.01, 0.5, 0.999, 1.0] {
            assert_eq!(quorum_size(phi, 1), 1, "phi = {phi}");
        }
    }

    #[test]
    fn float_slop_does_not_inflate_exact_products() {
        // 0.07 × 100 is 7.000000000000001 in IEEE arithmetic; a bare
        // ceil would demand 8 contributors where ⌈φ·present⌉ says 7.
        assert_eq!(quorum_size(0.07, 100), 7);
        // 2/3 of 3 members: the product 2.0000000000000004 must read
        // as the mathematical 2, not round up to all three.
        assert_eq!(quorum_size(2.0 / 3.0, 3), 2);
        // Exact dyadic products are untouched by the nudge.
        assert_eq!(quorum_size(0.75, 4), 3);
        assert_eq!(quorum_size(0.5, 8), 4);
    }

    #[test]
    fn boundary_crossings_still_round_up() {
        // Just above a ceiling boundary: a genuinely fractional excess
        // (far wider than the nudge) must still round up...
        assert_eq!(quorum_size(0.7 + 1e-9, 10), 8);
        // ...and just below it must not.
        assert_eq!(quorum_size(0.7 - 1e-9, 10), 7);
        // Products that IEEE places slightly *below* the exact integer
        // (0.3 × 10 = 2.9999999999999996) keep rounding up to it.
        assert_eq!(quorum_size(0.3, 10), 3);
    }

    /// φ read back as its decimal: tenths, hundredths, thirds.
    #[test]
    fn phi_is_its_shortest_decimal() {
        assert_eq!(shortest_decimal(0.75), (75, 100));
        assert_eq!(shortest_decimal(0.07), (7, 100));
        assert_eq!(shortest_decimal(0.5), (5, 10));
        assert_eq!(
            shortest_decimal(2.0 / 3.0),
            (6_666_666_666_666_666, 10u64.pow(16))
        );
        assert_eq!(shortest_decimal(1e-3), (1, 1_000));
        // 18 places: taken at its 17-place rounding.
        assert_eq!(
            shortest_decimal(0.012_345_678_901_234_567),
            (1_234_567_890_123_457, 10u64.pow(17))
        );
    }

    /// The rule it replaced: the `f64` product nudged down by one part
    /// in 10¹² before the ceiling.
    fn nudged(phi: f64, present: usize) -> usize {
        let raw = phi * present as f64;
        ((raw - raw.abs() * 1e-12).ceil() as usize).clamp(1, present.max(1))
    }

    /// The integer rule reads every cell the nudged float rule read:
    /// φ from the oracle corpus and generator, the presets, the
    /// experiments and a `k/1000` grid; every n to 2,000 and a seeded
    /// sample to 10⁶. The cells where they part are listed, and there
    /// are none.
    #[test]
    fn the_integer_quorum_reads_as_the_nudged_float_rule() {
        let mut phis = vec![
            1.0,
            0.75,
            0.5,
            2.0 / 3.0,
            0.07,
            0.6,
            0.3,
            0.01,
            0.999,
            0.9999999,
        ];
        phis.extend((0..=1_000).map(|k| k as f64 / 1_000.0));
        let mut ns: Vec<usize> = (0..=2_000).collect();
        let mut state = 0x5EED_0A0Du64;
        ns.extend((0..2_000).map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % 1_000_001
        }));
        ns.push(1_000_000);
        let mut differ = vec![];
        for &phi in &phis {
            for &n in &ns {
                if quorum_size(phi, n) != nudged(phi, n) {
                    differ.push((phi, n, quorum_size(phi, n), nudged(phi, n)));
                }
            }
        }
        assert!(differ.is_empty(), "(φ, n, integer, nudged): {differ:?}");
    }

    /// Where the two rules part: a φ·n within a part in 10¹² above an
    /// integer, which the nudge rounds down and the integers do not.
    #[test]
    fn a_fraction_the_nudge_swallowed_still_rounds_up() {
        let phi = 0.500_000_000_000_1;
        assert_eq!(quorum_size(phi, 4), 3);
        assert_eq!(nudged(phi, 4), 2);
    }

    #[test]
    fn never_exceeds_present() {
        // ceil(0.9999... * n) with float slop must still clamp to n.
        for n in 1..20 {
            assert!(quorum_size(1.0, n) <= n);
            assert!(quorum_size(0.9999999, n) <= n);
        }
    }
}
