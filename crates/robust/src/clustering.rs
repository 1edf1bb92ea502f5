//! Cosine-similarity clustering (Sattler et al., ICASSP 2020 style).
//!
//! Builds a similarity graph linking updates whose cosine similarity
//! exceeds a threshold, finds connected components, and averages the
//! largest one — the assumption (as in the paper's related work §II-A)
//! being that benign updates form the largest mutually-similar cluster.

use crate::validate_updates;

/// The mean of the largest connected component of the similarity graph
/// linking updates with cosine similarity `>= threshold`.
pub(crate) fn largest_cluster_mean(updates: &[&[f32]], threshold: f64, out: &mut Vec<f32>) {
    let d = validate_updates(updates);
    let comps = components(updates, threshold);
    out.clear();
    out.resize(d, 0.0);
    hfl_tensor::ops::mean_of_indexed(updates, &comps[0], out);
}

/// Partitions update indices into connected components of the
/// similarity graph, largest component first (ties broken by smallest
/// member index for determinism).
fn components(updates: &[&[f32]], threshold: f64) -> Vec<Vec<usize>> {
    let n = updates.len();
    let threads = hfl_parallel::default_threads();
    // Parallel upper-triangle similarity; row i holds sims to j>i.
    let sims: Vec<Vec<f64>> = hfl_parallel::par_map_indexed(n, threads, |i| {
        ((i + 1)..n)
            .map(|j| hfl_tensor::ops::cosine_similarity(updates[i], updates[j]))
            .collect()
    });
    // Union-find over edges above the threshold.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        let mut cur = x;
        while parent[cur] != root {
            let next = parent[cur];
            parent[cur] = root;
            cur = next;
        }
        root
    }
    for (i, row) in sims.iter().enumerate() {
        for (off, s) in row.iter().enumerate() {
            if *s >= threshold {
                let j = i + 1 + off;
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri.max(rj)] = ri.min(rj);
                }
            }
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for i in 0..n {
        let r = find(&mut parent, i);
        groups.entry(r).or_default().push(i);
    }
    let mut comps: Vec<Vec<usize>> = groups.into_values().collect();
    comps.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
    comps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aggregator, AggregatorKind};

    /// Honest updates point roughly along +e1; attackers along −e1.
    fn two_camps(n_good: usize, n_bad: usize) -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        for i in 0..n_good {
            out.push(vec![1.0, 0.02 * i as f32]);
        }
        for i in 0..n_bad {
            out.push(vec![-1.0, -0.02 * i as f32]);
        }
        out
    }

    #[test]
    fn splits_into_two_components() {
        let updates = two_camps(5, 3);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let comps = components(&refs, 0.5);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 5);
        assert!(comps[0].iter().all(|&i| i < 5));
    }

    #[test]
    fn aggregates_majority_camp() {
        let updates = two_camps(6, 4);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let out = AggregatorKind::CosineClustering { threshold: 0.5 }.aggregate(&refs, None);
        assert!(out[0] > 0.9, "picked the wrong camp: {out:?}");
    }

    #[test]
    fn threshold_minus_one_merges_everything() {
        let updates = two_camps(3, 3);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let comps = components(&refs, -1.0);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 6);
    }

    #[test]
    fn ties_resolve_to_smallest_index_component() {
        let updates = two_camps(3, 3);
        let refs: Vec<&[f32]> = updates.iter().map(|u| u.as_slice()).collect();
        let comps = components(&refs, 0.5);
        assert_eq!(comps[0][0], 0, "tie must resolve to component containing 0");
    }

    #[test]
    fn single_update_single_component() {
        let u = [1.0f32, 2.0];
        let comps = components(&[&u], 0.9);
        assert_eq!(comps, vec![vec![0]]);
    }

    #[test]
    #[should_panic(expected = "cosine-clustering threshold")]
    fn bad_threshold_panics() {
        AggregatorKind::CosineClustering { threshold: 1.5 }.aggregate(&[&[1.0]], None);
    }
}
