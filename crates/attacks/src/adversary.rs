//! Adversary placement: which clients are Byzantine.
//!
//! The paper's simulation orders clients by id (0..63) and poisons a
//! prefix proportional to the malicious percentage; we also provide
//! random and cluster-spread placements for ablations.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How malicious clients are positioned among client ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Clients `0..k` are malicious (the paper's simulation setting —
    /// clients are "ordered by client id from 0 to 63"). Concentrates
    /// adversaries into the fewest clusters.
    Prefix,
    /// A uniformly random subset of size `k`.
    Random,
    /// Round-robin across the client range, maximally spreading
    /// adversaries across clusters of any contiguous clustering.
    Spread,
}

/// Builds the malicious mask for `n` clients at a given proportion.
///
/// `k = round(proportion · n)` clients are marked malicious, positioned
/// per `placement`. Deterministic in `seed` (only `Random` consumes it).
///
/// # Panics
/// If `proportion` is outside `[0, 1]`.
pub fn malicious_mask(n: usize, proportion: f64, placement: Placement, seed: u64) -> Vec<bool> {
    assert!(
        (0.0..=1.0).contains(&proportion),
        "malicious proportion must be in [0, 1]"
    );
    let k = (proportion * n as f64).round() as usize;
    let k = k.min(n);
    let mut mask = vec![false; n];
    match placement {
        Placement::Prefix => {
            for m in mask.iter_mut().take(k) {
                *m = true;
            }
        }
        Placement::Random => {
            let mut ids: Vec<usize> = (0..n).collect();
            ids.shuffle(&mut StdRng::seed_from_u64(seed));
            for &i in ids.iter().take(k) {
                mask[i] = true;
            }
        }
        Placement::Spread => {
            if k > 0 {
                // Evenly spaced ids: floor(i·n/k) are distinct for i<k.
                for i in 0..k {
                    mask[i * n / k] = true;
                }
            }
        }
    }
    mask
}

/// Count of malicious entries in a mask.
pub fn count_malicious(mask: &[bool]) -> usize {
    mask.iter().filter(|m| **m).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_marks_first_k() {
        let m = malicious_mask(10, 0.3, Placement::Prefix, 0);
        assert_eq!(m[..3], [true, true, true]);
        assert!(m[3..].iter().all(|x| !x));
    }

    #[test]
    fn rounding_matches_paper_grid() {
        // 57.8 % of 64 = 36.99 → 37 clients.
        assert_eq!(
            count_malicious(&malicious_mask(64, 0.578, Placement::Prefix, 0)),
            37
        );
        // 5 % of 64 = 3.2 → 3.
        assert_eq!(
            count_malicious(&malicious_mask(64, 0.05, Placement::Prefix, 0)),
            3
        );
        assert_eq!(
            count_malicious(&malicious_mask(64, 0.65, Placement::Prefix, 0)),
            42
        );
    }

    #[test]
    fn zero_and_full_proportions() {
        assert_eq!(count_malicious(&malicious_mask(8, 0.0, Placement::Random, 1)), 0);
        assert_eq!(count_malicious(&malicious_mask(8, 1.0, Placement::Random, 1)), 8);
    }

    #[test]
    fn random_is_deterministic_in_seed() {
        let a = malicious_mask(64, 0.5, Placement::Random, 5);
        let b = malicious_mask(64, 0.5, Placement::Random, 5);
        let c = malicious_mask(64, 0.5, Placement::Random, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(count_malicious(&a), 32);
    }

    #[test]
    fn spread_marks_distinct_even_ids() {
        let m = malicious_mask(8, 0.5, Placement::Spread, 0);
        assert_eq!(count_malicious(&m), 4);
        assert_eq!(m, [true, false, true, false, true, false, true, false]);
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn bad_proportion_panics() {
        malicious_mask(8, 1.5, Placement::Prefix, 0);
    }
}
