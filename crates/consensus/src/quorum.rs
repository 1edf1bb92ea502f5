//! The quorum rule of Algorithm 4, in one place.
//!
//! Leaders collect updates "until quorum or Timeout": the quorum over
//! `present` potential contributors at quorum fraction `φ` is
//! `⌈φ·present⌉`, clamped to at least one contributor (an aggregation
//! of zero inputs is meaningless) and at most everyone present. The
//! round engine's collect step — under either schedule, fault-degraded
//! or not — calls this one function, so its numerics cannot drift apart.

/// `⌈phi·present⌉`, clamped to `[1, present]` (and to 1 when nobody is
/// present, leaving the degenerate case to the caller).
///
/// The product is nudged down by one part in 10¹² before the ceiling:
/// IEEE multiplication can land a hair *above* an exact integer (e.g.
/// `0.07 × 100 = 7.000000000000001`), which a bare `ceil` would round
/// to one contributor more than `⌈φ·present⌉` asks for. The nudge is
/// orders of magnitude wider than the error of a single multiplication
/// and orders of magnitude narrower than any meaningful φ step, so it
/// restores the mathematical ceiling without disturbing genuine
/// fractional products.
pub fn quorum_size(phi: f64, present: usize) -> usize {
    let raw = phi * present as f64;
    let adjusted = raw - raw.abs() * 1e-12;
    (adjusted.ceil() as usize).clamp(1, present.max(1))
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

    #[test]
    fn never_exceeds_present() {
        // ceil(0.9999... * n) with float slop must still clamp to n.
        for n in 1..20 {
            assert!(quorum_size(1.0, n) <= n);
            assert!(quorum_size(0.9999999, n) <= n);
        }
    }
}
