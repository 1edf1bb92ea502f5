//! Hierarchy builders: ECSM and ACSM (paper §III-A, §IV-B, Appendix C).
//!
//! ABD-HFL is "a collection of tree structures derived upwards from
//! leaves": all physical devices sit at the bottom level; the leader of
//! each cluster at level `ℓ` *also* occupies a position at level `ℓ−1`.
//! A `Hierarchy` therefore indexes the same device ids at multiple levels.
//!
//! * **ECSM** (Equal Cluster Size Model): every cluster below the top has
//!   exactly `m` members; each top node is the root of a complete m-ary
//!   tree — the structure Theorems 1–2 quantify over.
//! * **ACSM** (Arbitrary Cluster Size Model): cluster sizes vary freely
//!   (Appendix C / Theorem 3); built here by random bottom-up clustering.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Physical device identifier (a bottom-level client id).
pub type DeviceId = usize;

/// A cluster: an ordered member list; the leader is `members[0]`
/// ("the leader of each cluster is assigned virtually" — Appendix D).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cluster {
    /// Device ids of the members; `members[0]` is the leader `A_{ℓ,i}`.
    pub members: Vec<DeviceId>,
}

impl Cluster {
    /// The cluster leader.
    pub fn leader(&self) -> DeviceId {
        self.members[0]
    }

    /// Member count `C_{ℓ,i}`.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the cluster has no members (never valid in a built
    /// hierarchy; exists for the `len`/`is_empty` idiom).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// One hierarchy level: its clusters in index order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Level {
    /// Clusters `C_{ℓ,0} .. C_{ℓ,|C_ℓ|-1}`.
    pub clusters: Vec<Cluster>,
}

impl Level {
    /// Total nodes at this level `N_ℓ`.
    pub fn num_nodes(&self) -> usize {
        self.clusters.iter().map(Cluster::len).sum()
    }

    /// Number of clusters `C_ℓ`.
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }
}

/// The full ABD-HFL structure. `levels[0]` is the top `L_0`,
/// `levels[L]` the bottom `L_L`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hierarchy {
    levels: Vec<Level>,
}

impl Hierarchy {
    /// Builds the Equal Cluster Size Model.
    ///
    /// `total_levels` = `L + 1` (the paper's evaluation uses 3);
    /// `m` = cluster size; `n_top` = top-level node count. The bottom
    /// level then holds `n_top · m^L` clients with consecutive ids.
    ///
    /// # Panics
    /// If any argument is zero or `total_levels < 2`.
    pub fn ecsm(total_levels: usize, m: usize, n_top: usize) -> Self {
        assert!(total_levels >= 2, "need at least top + bottom levels");
        assert!(m >= 1 && n_top >= 1, "cluster size and top count must be positive");
        let depth = total_levels - 1; // the paper's L
        let mut levels = Vec::with_capacity(total_levels);
        // Level ℓ has n_top·m^ℓ nodes; node p at level ℓ is device
        // p · m^(L−ℓ) (leaders are the first members of their clusters).
        for l in 0..total_levels {
            let nodes = n_top * m.pow(l as u32);
            let stride = m.pow((depth - l) as u32);
            let cluster_size = if l == 0 { n_top } else { m };
            let clusters = (0..nodes / cluster_size)
                .map(|c| Cluster {
                    members: (0..cluster_size)
                        .map(|k| (c * cluster_size + k) * stride)
                        .collect(),
                })
                .collect();
            levels.push(Level { clusters });
        }
        let h = Self { levels };
        h.validate();
        h
    }

    /// Builds a random Arbitrary Cluster Size Model: bottom clients
    /// `0..n_bottom` are grouped bottom-up `total_levels − 1` times into
    /// clusters of size drawn uniformly from `[min_size, max_size]`
    /// (the final grouping becomes the single top cluster).
    ///
    /// # Panics
    /// If sizes are inconsistent or the hierarchy would degenerate
    /// (a level with zero clusters).
    pub fn acsm_random(
        n_bottom: usize,
        total_levels: usize,
        min_size: usize,
        max_size: usize,
        seed: u64,
    ) -> Self {
        assert!(total_levels >= 2, "need at least top + bottom levels");
        assert!(min_size >= 1 && min_size <= max_size, "bad cluster size range");
        assert!(n_bottom >= min_size, "not enough clients for one cluster");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut levels_rev: Vec<Level> = Vec::new(); // bottom first
        let mut current: Vec<DeviceId> = (0..n_bottom).collect();
        // One clustering per level below the top: the loop emits levels
        // L, L−1, ..., 1; the remaining leaders become the top cluster.
        for _ in 0..total_levels - 1 {
            let mut clusters = Vec::new();
            let mut i = 0;
            while i < current.len() {
                let remaining = current.len() - i;
                let size = if remaining <= max_size {
                    remaining
                } else {
                    // Keep at least min_size for the final chunk.
                    let hi = max_size.min(remaining - min_size).max(min_size);
                    rng.gen_range(min_size..=hi)
                };
                clusters.push(Cluster {
                    members: current[i..i + size].to_vec(),
                });
                i += size;
            }
            assert!(!clusters.is_empty(), "level degenerated to zero clusters");
            current = clusters.iter().map(Cluster::leader).collect();
            levels_rev.push(Level { clusters });
        }
        // Top level: all remaining leaders in one cluster.
        levels_rev.push(Level {
            clusters: vec![Cluster { members: current }],
        });
        let levels: Vec<Level> = levels_rev.into_iter().rev().collect();
        let h = Self { levels };
        h.validate();
        h
    }

    /// Checks structural invariants; called by the builders and available
    /// to property tests:
    /// 1. every cluster is non-empty,
    /// 2. the top level is a single cluster,
    /// 3. for `ℓ ≥ 1`, the leaders of level `ℓ` are exactly the nodes of
    ///    level `ℓ−1` (the defining ABD-HFL property),
    /// 4. within a level, no device appears twice,
    /// 5. a cluster lists its members in ascending id order, so member
    ///    order and slot order are one canonical order (the round
    ///    engine sorts kept slots and relies on it).
    ///
    /// # Panics
    /// On any violation.
    pub fn validate(&self) {
        assert!(self.levels.len() >= 2, "hierarchy needs >= 2 levels");
        assert_eq!(
            self.levels[0].num_clusters(),
            1,
            "top level must be a single cluster"
        );
        for (l, level) in self.levels.iter().enumerate() {
            assert!(!level.clusters.is_empty(), "level {l} has no clusters");
            let mut seen = std::collections::HashSet::new();
            for c in &level.clusters {
                assert!(!c.is_empty(), "empty cluster at level {l}");
                assert!(
                    c.members.windows(2).all(|w| w[0] < w[1]),
                    "cluster members out of id order at level {l}"
                );
                for m in &c.members {
                    assert!(seen.insert(*m), "device {m} duplicated at level {l}");
                }
            }
        }
        for l in 1..self.levels.len() {
            let leaders: Vec<DeviceId> = self.levels[l]
                .clusters
                .iter()
                .map(Cluster::leader)
                .collect();
            let upper: Vec<DeviceId> = self.levels[l - 1]
                .clusters
                .iter()
                .flat_map(|c| c.members.iter().copied())
                .collect();
            let mut a = leaders.clone();
            let mut b = upper.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(
                a, b,
                "leaders of level {l} must form level {} exactly",
                l - 1
            );
        }
    }

    /// Number of levels `L + 1`.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Index of the bottom level `L`.
    pub fn bottom_level(&self) -> usize {
        self.levels.len() - 1
    }

    /// The level structure at `ℓ`.
    pub fn level(&self, l: usize) -> &Level {
        &self.levels[l]
    }

    /// Total bottom-level clients.
    pub fn num_clients(&self) -> usize {
        self.levels[self.bottom_level()].num_nodes()
    }

    /// Locates `device` at level `ℓ`: `(cluster index, member index)`.
    pub fn position(&self, l: usize, device: DeviceId) -> Option<(usize, usize)> {
        for (ci, c) in self.levels[l].clusters.iter().enumerate() {
            if let Some(mi) = c.members.iter().position(|m| *m == device) {
                return Some((ci, mi));
            }
        }
        None
    }

    /// The cluster at level `ℓ+1` that `device` (a node of level `ℓ`)
    /// leads, as a cluster index — every non-bottom node leads exactly
    /// one cluster below it.
    pub fn led_cluster(&self, l: usize, device: DeviceId) -> Option<usize> {
        if l + 1 >= self.levels.len() {
            return None;
        }
        self.levels[l + 1]
            .clusters
            .iter()
            .position(|c| c.leader() == device)
    }

    /// All bottom-level clients in the subtree of cluster `(ℓ, i)` —
    /// the recipients of a flag model disseminated from that cluster.
    pub fn descendants(&self, l: usize, cluster: usize) -> Vec<DeviceId> {
        let bottom = self.bottom_level();
        let mut frontier: Vec<DeviceId> =
            self.levels[l].clusters[cluster].members.clone();
        for cur in l..bottom {
            let mut next = Vec::new();
            for device in &frontier {
                if let Some(ci) = self.led_cluster(cur, *device) {
                    next.extend(self.levels[cur + 1].clusters[ci].members.iter().copied());
                }
            }
            frontier = next;
        }
        frontier.sort_unstable();
        frontier
    }

    /// Per-level node counts `[N_0, N_1, ..., N_L]`.
    pub fn level_sizes(&self) -> Vec<usize> {
        self.levels.iter().map(Level::num_nodes).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's evaluation topology: 3 levels, m = 4, 4 top nodes.
    fn paper() -> Hierarchy {
        Hierarchy::ecsm(3, 4, 4)
    }

    #[test]
    fn paper_topology_shape() {
        let h = paper();
        assert_eq!(h.num_levels(), 3);
        assert_eq!(h.level_sizes(), vec![4, 16, 64]);
        assert_eq!(h.level(0).num_clusters(), 1);
        assert_eq!(h.level(1).num_clusters(), 4);
        assert_eq!(h.level(2).num_clusters(), 16);
        assert_eq!(h.num_clients(), 64);
    }

    #[test]
    fn ecsm_matches_corollary_1() {
        // Corollary 1: level ℓ has Nt·m^ℓ nodes.
        for (levels, m, nt) in [(3usize, 4usize, 4usize), (4, 3, 2), (2, 5, 7)] {
            let h = Hierarchy::ecsm(levels, m, nt);
            for l in 0..levels {
                assert_eq!(h.level(l).num_nodes(), nt * m.pow(l as u32));
            }
        }
    }

    #[test]
    fn bottom_ids_are_consecutive() {
        let h = paper();
        let bottom = h.level(2);
        let mut ids: Vec<usize> = bottom
            .clusters
            .iter()
            .flat_map(|c| c.members.iter().copied())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn leaders_ascend() {
        let h = paper();
        // Bottom cluster 0 = {0,1,2,3}, leader 0; its leader appears at L1.
        assert_eq!(h.level(2).clusters[0].members, vec![0, 1, 2, 3]);
        assert_eq!(h.level(2).clusters[0].leader(), 0);
        assert!(h.position(1, 0).is_some());
        // Top nodes are multiples of 16.
        assert_eq!(h.level(0).clusters[0].members, vec![0, 16, 32, 48]);
    }

    #[test]
    fn led_cluster_roundtrip() {
        let h = paper();
        // Device 16 sits at the top and leads L1 cluster 1.
        let led = h.led_cluster(0, 16).expect("16 leads an L1 cluster");
        assert_eq!(h.level(1).clusters[led].leader(), 16);
        // Bottom nodes lead nothing.
        assert_eq!(h.led_cluster(2, 1), None);
    }

    #[test]
    fn descendants_of_top_cluster_is_everyone() {
        let h = paper();
        assert_eq!(h.descendants(0, 0), (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn descendants_of_l1_cluster_is_16_clients() {
        let h = paper();
        let d = h.descendants(1, 0);
        assert_eq!(d.len(), 16);
        assert_eq!(d, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn two_level_degenerate_hierarchy() {
        // L=1: top nodes directly lead bottom clusters.
        let h = Hierarchy::ecsm(2, 8, 3);
        assert_eq!(h.level_sizes(), vec![3, 24]);
        assert_eq!(h.level(1).num_clusters(), 3);
    }

    #[test]
    fn acsm_random_is_valid_and_deterministic() {
        let a = Hierarchy::acsm_random(100, 4, 2, 6, 11);
        let b = Hierarchy::acsm_random(100, 4, 2, 6, 11);
        assert_eq!(a, b);
        a.validate();
        assert_eq!(a.num_levels(), 4);
        assert_eq!(a.num_clients(), 100);
        // Cluster sizes within bounds below the top.
        for l in 1..a.num_levels() {
            for c in &a.level(l).clusters {
                assert!(c.len() >= 2 && c.len() <= 6 + 2, "size {}", c.len());
            }
        }
    }

    #[test]
    fn acsm_different_seeds_differ() {
        let a = Hierarchy::acsm_random(100, 3, 2, 6, 1);
        let b = Hierarchy::acsm_random(100, 3, 2, 6, 2);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least top + bottom")]
    fn one_level_panics() {
        Hierarchy::ecsm(1, 4, 4);
    }
}
