//! The Byzantine-tolerance theory of ABD-HFL (paper §IV-B and Appendices
//! B–C), as executable, unit- and property-tested functions.
//!
//! Level indices follow the paper: `ℓ = 0` is the top, larger `ℓ` is
//! further down; in an `L+1`-level structure the bottom is `ℓ = L`.

/// Theorem 1 — in a *p*-ratio two-type complete *m*-ary tree of depth L,
/// level `ℓ` (`0 ≤ ℓ < L`... the root being level 0) contains `(p·m)^ℓ`
/// type-I nodes.
pub fn theorem1_type1_count(p: f64, m: usize, level: usize) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a proportion");
    (p * m as f64).powi(level as i32)
}

/// Theorem 1 (second clause) — the *proportion* of type-I nodes at level
/// `ℓ` is `p^ℓ`.
pub fn theorem1_type1_ratio(p: f64, level: usize) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a proportion");
    p.powi(level as i32)
}

/// Corollary 1 — a *p*-ratio ABD-HFL with `n_top` top nodes has
/// `n_top · m^ℓ` nodes at level `ℓ`.
pub fn corollary1_level_size(n_top: usize, m: usize, level: usize) -> usize {
    n_top * m.pow(level as u32)
}

/// Theorem 2 (count form) — the maximum number of Byzantine nodes
/// tolerated at level `ℓ` of a γ₁-γ₂ structure:
/// `N_t·m^ℓ − (1−γ₁)·N_t·[(1−γ₂)·m]^ℓ`.
pub fn theorem2_max_byzantine_count(
    n_top: usize,
    m: usize,
    gamma1: f64,
    gamma2: f64,
    level: usize,
) -> f64 {
    check_gamma(gamma1);
    check_gamma(gamma2);
    let nt = n_top as f64;
    let mf = m as f64;
    nt * mf.powi(level as i32) - (1.0 - gamma1) * nt * ((1.0 - gamma2) * mf).powi(level as i32)
}

/// Theorem 2 (proportion form) — the maximum tolerated Byzantine
/// *proportion* at level `ℓ`: `1 − (1−γ₁)(1−γ₂)^ℓ`.
///
/// For the paper's evaluation (γ₁ = γ₂ = 25 %, bottom ℓ = 2) this is
/// 57.8125 %.
pub fn theorem2_max_byzantine_ratio(gamma1: f64, gamma2: f64, level: usize) -> f64 {
    check_gamma(gamma1);
    check_gamma(gamma2);
    1.0 - (1.0 - gamma1) * (1.0 - gamma2).powi(level as i32)
}

/// Corollary 2 — a lower level tolerates a strictly greater Byzantine
/// proportion than its upper level (for γ₂ ∈ (0,1)). Returns the pair
/// `(upper, lower)` for inspection; asserts the monotonicity.
pub fn corollary2_monotone(gamma1: f64, gamma2: f64, level: usize) -> (f64, f64) {
    let upper = theorem2_max_byzantine_ratio(gamma1, gamma2, level);
    let lower = theorem2_max_byzantine_ratio(gamma1, gamma2, level + 1);
    if gamma2 > 0.0 && gamma2 < 1.0 && gamma1 < 1.0 {
        assert!(lower > upper, "Corollary 2 violated: {lower} <= {upper}");
    }
    (upper, lower)
}

/// Corollary 3 — with the bottom-level client count fixed, a structure
/// with more levels tolerates a greater Byzantine proportion at the
/// bottom. Returns the bottom-level tolerance of an `levels`-level
/// structure (`levels ≥ 2`), i.e. Theorem 2 at `ℓ = levels − 1`.
pub fn corollary3_bottom_tolerance(gamma1: f64, gamma2: f64, levels: usize) -> f64 {
    assert!(levels >= 2, "need at least top + bottom");
    theorem2_max_byzantine_ratio(gamma1, gamma2, levels - 1)
}

/// Appendix C, Definition 7 — the *relative reliable number* ψℓ: the
/// fraction of a level's nodes that live in honest clusters.
///
/// `cluster_sizes[i]` and `honest_cluster[i]` describe the level's
/// clusters.
pub fn relative_reliable_number(cluster_sizes: &[usize], honest_cluster: &[bool]) -> f64 {
    assert_eq!(cluster_sizes.len(), honest_cluster.len());
    assert!(!cluster_sizes.is_empty(), "level with no clusters");
    let total: usize = cluster_sizes.iter().sum();
    assert!(total > 0, "level with no nodes");
    let honest: usize = cluster_sizes
        .iter()
        .zip(honest_cluster)
        .filter(|(_, h)| **h)
        .map(|(s, _)| *s)
        .sum();
    honest as f64 / total as f64
}

/// Theorem 3 (ACSM) — the maximum tolerated Byzantine proportion at a
/// level with relative reliable number ψℓ is `1 − (1−γ₂)·ψℓ` (at the top
/// level, `1 − ψ₀`).
pub fn theorem3_max_byzantine_ratio(gamma2: f64, psi: f64, is_top: bool) -> f64 {
    check_gamma(gamma2);
    assert!((0.0..=1.0).contains(&psi), "psi must be a proportion");
    if is_top {
        1.0 - psi
    } else {
        1.0 - (1.0 - gamma2) * psi
    }
}

/// The paper's §V-A worked example: γ₁ = γ₂ = 25 %, 3 levels (bottom
/// ℓ = 2) → 57.8125 %.
pub fn paper_tolerance_bound() -> f64 {
    theorem2_max_byzantine_ratio(0.25, 0.25, 2)
}

/// Definition 4 adversary placement: builds the bottom-level Byzantine
/// mask of a *p-ratio ABD-HFL structure*.
///
/// * `top_byzantine` top nodes root fully-Byzantine subtrees (the last
///   ones, so device 0's subtree stays honest);
/// * inside every honest subtree, the **last** `per_cluster_byzantine`
///   members of each cluster are type-II (Byzantine), and a type-II
///   node's entire subtree is Byzantine — exactly the two-type tree of
///   Definition 2 (the leader, `members[0]`, inherits its parent's
///   honesty, keeping the structure consistent with leaders ascending).
///
/// The resulting bottom-level Byzantine proportion realizes the Theorem 2
/// maximum for `γ₁ = top_byzantine/N_t`, `γ₂ = per_cluster_byzantine/m`.
///
/// # Panics
/// If counts exceed the respective cluster sizes.
pub fn definition4_placement(
    h: &hfl_simnet::Hierarchy,
    top_byzantine: usize,
    per_cluster_byzantine: usize,
) -> Vec<bool> {
    let top = &h.level(0).clusters[0];
    assert!(
        top_byzantine <= top.len(),
        "more Byzantine top nodes than top nodes"
    );
    let bottom = h.bottom_level();
    // byz[level][device present at that level] — track per level because
    // type is a property of the tree position; we propagate down.
    let mut byz_at: Vec<std::collections::HashSet<usize>> =
        vec![std::collections::HashSet::new(); h.num_levels()];
    for &dev in top.members.iter().rev().take(top_byzantine) {
        byz_at[0].insert(dev);
    }
    for l in 0..bottom {
        let byz_parents = byz_at[l].clone();
        for cluster in &h.level(l + 1).clusters {
            assert!(
                per_cluster_byzantine < cluster.len(),
                "per-cluster Byzantine count must leave the leader honest"
            );
            let parent = cluster.leader();
            if byz_parents.contains(&parent) {
                // Type-II parent: all children type-II.
                for &m in &cluster.members {
                    byz_at[l + 1].insert(m);
                }
            } else {
                // Type-I parent: last `per_cluster_byzantine` children
                // are type-II.
                for &m in cluster.members.iter().rev().take(per_cluster_byzantine) {
                    byz_at[l + 1].insert(m);
                }
            }
        }
    }
    (0..h.num_clients())
        .map(|c| byz_at[bottom].contains(&c))
        .collect()
}

fn check_gamma(g: f64) {
    assert!((0.0..=1.0).contains(&g), "gamma must be a proportion");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bound_is_57_8125_percent() {
        assert!((paper_tolerance_bound() - 0.578125).abs() < 1e-12);
    }

    #[test]
    fn theorem1_base_cases() {
        // Root level: exactly one type-I node, ratio 1.
        assert_eq!(theorem1_type1_count(0.75, 4, 0), 1.0);
        assert_eq!(theorem1_type1_ratio(0.75, 0), 1.0);
        // First level: p·m type-I of m, ratio p.
        assert_eq!(theorem1_type1_count(0.75, 4, 1), 3.0);
        assert_eq!(theorem1_type1_ratio(0.75, 1), 0.75);
    }

    #[test]
    fn theorem1_inductive_step() {
        // count(ℓ+1) = count(ℓ) · p·m for several (p, m, ℓ).
        for (p, m) in [(0.5, 2usize), (0.75, 4), (1.0, 3)] {
            for l in 0..5 {
                let a = theorem1_type1_count(p, m, l);
                let b = theorem1_type1_count(p, m, l + 1);
                assert!((b - a * p * m as f64).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn corollary1_matches_paper_topology() {
        assert_eq!(corollary1_level_size(4, 4, 0), 4);
        assert_eq!(corollary1_level_size(4, 4, 1), 16);
        assert_eq!(corollary1_level_size(4, 4, 2), 64);
    }

    #[test]
    fn theorem2_count_and_ratio_agree() {
        // count / level_size == ratio.
        for level in 0..4 {
            let count = theorem2_max_byzantine_count(4, 4, 0.25, 0.25, level);
            let size = corollary1_level_size(4, 4, level) as f64;
            let ratio = theorem2_max_byzantine_ratio(0.25, 0.25, level);
            assert!((count / size - ratio).abs() < 1e-12, "level {level}");
        }
    }

    #[test]
    fn theorem2_top_level_is_gamma1() {
        assert!((theorem2_max_byzantine_ratio(0.3, 0.9, 0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn theorem2_equal_gammas_collapse() {
        // With γ1 = γ2 = γ the ratio is 1 − (1−γ)^(ℓ+1).
        let g: f64 = 0.2;
        for l in 0..4 {
            let want = 1.0 - (1.0 - g).powi(l as i32 + 1);
            assert!((theorem2_max_byzantine_ratio(g, g, l) - want).abs() < 1e-12);
        }
    }

    #[test]
    fn corollary2_lower_levels_tolerate_more() {
        for l in 0..5 {
            let (u, lo) = corollary2_monotone(0.25, 0.25, l);
            assert!(lo > u);
        }
    }

    #[test]
    fn corollary3_more_levels_tolerate_more() {
        let t3 = corollary3_bottom_tolerance(0.25, 0.25, 3);
        let t4 = corollary3_bottom_tolerance(0.25, 0.25, 4);
        let t5 = corollary3_bottom_tolerance(0.25, 0.25, 5);
        assert!(t4 > t3 && t5 > t4);
        // And with enough levels the bound approaches 1.
        assert!(corollary3_bottom_tolerance(0.25, 0.25, 40) > 0.99);
    }

    #[test]
    fn psi_counts_honest_cluster_mass() {
        let psi = relative_reliable_number(&[4, 4, 8], &[true, false, true]);
        assert!((psi - 12.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn theorem3_reduces_to_theorem2_in_ecsm() {
        // In ECSM with all clusters honest at minimum honesty, ψℓ of the
        // level equals (1−γ1)(1−γ2)^(ℓ−1) mass... sanity-check the simple
        // identity at the top: P0 = 1 − ψ0.
        assert!((theorem3_max_byzantine_ratio(0.25, 0.75, true) - 0.25).abs() < 1e-12);
        // Non-top: P = 1 − (1−γ2)·ψ.
        let p = theorem3_max_byzantine_ratio(0.25, 0.8, false);
        assert!((p - (1.0 - 0.75 * 0.8)).abs() < 1e-12);
    }

    #[test]
    fn theorem3_inverse_monotone_in_psi() {
        // Larger reliable mass → smaller tolerated Byzantine share.
        let hi = theorem3_max_byzantine_ratio(0.25, 0.9, false);
        let lo = theorem3_max_byzantine_ratio(0.25, 0.5, false);
        assert!(hi < lo);
    }

    #[test]
    #[should_panic(expected = "gamma must be a proportion")]
    fn bad_gamma_panics() {
        theorem2_max_byzantine_ratio(1.5, 0.2, 1);
    }

    #[test]
    fn definition4_realizes_theorem2_proportion() {
        // Paper topology: 3 levels, m = 4, Nt = 4, γ1 = γ2 = 25 %.
        let h = hfl_simnet::Hierarchy::ecsm(3, 4, 4);
        let mask = definition4_placement(&h, 1, 1);
        let bad = mask.iter().filter(|b| **b).count();
        // Theorem 2 at the bottom: 57.8125 % of 64 = 37 clients.
        assert_eq!(bad, 37, "bound placement must saturate Theorem 2");
        let ratio = bad as f64 / 64.0;
        assert!((ratio - paper_tolerance_bound()).abs() < 0.01);
    }

    #[test]
    fn definition4_every_honest_cluster_within_gamma2() {
        let h = hfl_simnet::Hierarchy::ecsm(3, 4, 4);
        let mask = definition4_placement(&h, 1, 1);
        // In every bottom cluster whose leader chain is honest, at most 1
        // member (25 %) is Byzantine.
        for cluster in &h.level(2).clusters {
            let bad = cluster.members.iter().filter(|m| mask[**m]).count();
            assert!(bad == cluster.len() || bad <= 1, "cluster had {bad} bad");
        }
    }

    #[test]
    fn definition4_zero_byzantine_is_all_honest() {
        let h = hfl_simnet::Hierarchy::ecsm(3, 4, 4);
        let mask = definition4_placement(&h, 0, 0);
        assert!(mask.iter().all(|b| !b));
    }

    #[test]
    fn definition4_deeper_tolerates_more() {
        // Corollary 3 realized: same 64 clients, deeper structure ⇒ a
        // larger at-bound Byzantine count.
        let shallow = hfl_simnet::Hierarchy::ecsm(2, 16, 4);
        let deep = hfl_simnet::Hierarchy::ecsm(3, 4, 4);
        let bad_shallow = definition4_placement(&shallow, 1, 4)
            .iter()
            .filter(|b| **b)
            .count();
        let bad_deep = definition4_placement(&deep, 1, 1)
            .iter()
            .filter(|b| **b)
            .count();
        assert!(bad_deep > bad_shallow, "{bad_deep} <= {bad_shallow}");
    }
}
