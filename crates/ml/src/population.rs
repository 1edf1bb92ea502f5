//! Lazy client populations: shard derivation as a pure function of
//! `(seed, client, distribution)`.
//!
//! The eager partitioners in [`crate::partition`] materialize one
//! [`Dataset`] per client, which couples memory and prepare time to the
//! population size `n`. At cross-device scale (n = 10⁶ clients, cohorts
//! of 64) only a handful of clients train per round, so the runner needs
//! the *plan* of the partition — which sample indices belong to which
//! client — without materializing any shard until that client is
//! actually sampled.
//!
//! [`ClientPopulation`] stores exactly that plan:
//!
//! * [`ShardPlan::Iid`] keeps the seeded per-label deal order once
//!   (O(dataset) integers, independent of `n`); client `c` owns the
//!   positions `p ≡ c (mod n)` of the sequence, matching the eager
//!   round-robin deal index-for-index.
//! * [`ShardPlan::Csr`] stores explicit per-client index lists in CSR
//!   layout for the non-IID and Dirichlet partitioners, whose shard
//!   composition is not expressible as a stride rule. Those partitioners
//!   require `data.len() ≥ n`, so the CSR arrays are O(dataset) too.
//!
//! Deriving a shard is a pure, idempotent gather: `shard(data, c)` called
//! any number of times, in any order, from any thread, yields the same
//! bytes the eager partitioner would have produced for client `c` — the
//! unit tests below pin that equivalence for every distribution at
//! n ≤ 64.
//!
//! A plan is built from labels alone ([`Labelled`]) and hands out
//! indices ([`ClientPopulation::shard_indices`]), so the training set
//! under it may itself be a function of the sample index
//! ([`crate::synth::SynthPlan`]) with no feature in memory until a
//! sampled client trains.

use crate::dataset::{Dataset, Labelled};
use crate::partition::{dirichlet_assignments, iid_deal_order, noniid_assignments};

/// The index-level description of a partition: how to find client `c`'s
/// sample indices without materializing anyone else's.
#[derive(Clone, Debug)]
pub enum ShardPlan {
    /// IID round-robin deal: client `c` owns positions `p ≡ c (mod n)`
    /// of the seeded deal order.
    Iid {
        /// The per-label-shuffled sample indices in deal (cursor) order.
        order: Vec<u32>,
    },
    /// Explicit per-client index lists in CSR layout: client `c`'s
    /// indices are `indices[offsets[c]..offsets[c + 1]]`, stored in the
    /// eager partitioner's materialization order.
    Csr {
        /// `n_clients + 1` row offsets into `indices`.
        offsets: Vec<u32>,
        /// Concatenated per-client sample indices.
        indices: Vec<u32>,
    },
}

/// A population of `n` clients whose shards are derived on demand.
#[derive(Clone, Debug)]
pub struct ClientPopulation {
    n_clients: usize,
    plan: ShardPlan,
}

fn csr_from_assignments(assignments: Vec<Vec<usize>>) -> ShardPlan {
    let total: usize = assignments.iter().map(|a| a.len()).sum();
    let mut offsets = Vec::with_capacity(assignments.len() + 1);
    let mut indices = Vec::with_capacity(total);
    offsets.push(0u32);
    for a in assignments {
        indices.extend(a.into_iter().map(|i| i as u32));
        offsets.push(indices.len() as u32);
    }
    ShardPlan::Csr { offsets, indices }
}

impl ClientPopulation {
    /// IID plan over `n_clients`, seeded identically to
    /// [`crate::partition::iid_partition`].
    pub fn iid<L: Labelled + ?Sized>(data: &L, n_clients: usize, seed: u64) -> Self {
        assert!(n_clients > 0, "need at least one client");
        let order = iid_deal_order(data, seed);
        Self {
            n_clients,
            plan: ShardPlan::Iid { order },
        }
    }

    /// Extreme non-IID plan, seeded identically to
    /// [`crate::partition::noniid_partition`].
    pub fn noniid<L: Labelled + ?Sized>(
        data: &L,
        n_clients: usize,
        labels_per_client: usize,
        malicious: &[bool],
        seed: u64,
    ) -> Self {
        let assignments = noniid_assignments(data, n_clients, labels_per_client, malicious, seed);
        Self {
            n_clients,
            plan: csr_from_assignments(assignments),
        }
    }

    /// Dirichlet-α plan, seeded identically to
    /// [`crate::partition::dirichlet_partition`].
    pub fn dirichlet<L: Labelled + ?Sized>(
        data: &L,
        n_clients: usize,
        alpha: f64,
        malicious: &[bool],
        seed: u64,
    ) -> Self {
        let assignments = dirichlet_assignments(data, n_clients, alpha, malicious, seed);
        Self {
            n_clients,
            plan: csr_from_assignments(assignments),
        }
    }

    /// Number of clients in the population.
    pub fn num_clients(&self) -> usize {
        self.n_clients
    }

    /// The shard plan (exposed for size accounting and tests).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Client `client`'s sample indices, in the eager partitioner's
    /// materialization order, read off the plan without allocating.
    pub fn shard_indices(&self, client: usize) -> impl Iterator<Item = usize> + Clone + '_ {
        assert!(client < self.n_clients, "client out of range");
        let (owned, stride) = match &self.plan {
            // Clients past the end of the deal order hold nothing.
            ShardPlan::Iid { order } => (order.get(client..).unwrap_or(&[]), self.n_clients),
            ShardPlan::Csr { offsets, indices } => (
                &indices[offsets[client] as usize..offsets[client + 1] as usize],
                1,
            ),
        };
        owned.iter().step_by(stride).map(|&i| i as usize)
    }

    /// Number of samples client `client` holds, without gathering them.
    pub fn shard_len(&self, client: usize) -> usize {
        assert!(client < self.n_clients, "client out of range");
        match &self.plan {
            ShardPlan::Iid { order } => {
                let n = order.len();
                n / self.n_clients + usize::from(client < n % self.n_clients)
            }
            ShardPlan::Csr { offsets, .. } => (offsets[client + 1] - offsets[client]) as usize,
        }
    }

    /// Derives client `client`'s shard: a pure ordered gather from
    /// `data`, byte-identical to the eager partitioner's output.
    pub fn shard(&self, data: &Dataset, client: usize) -> Dataset {
        data.subset(&self.shard_indices(client).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{dirichlet_partition, iid_partition, noniid_partition};
    use crate::synth::{SynthConfig, SyntheticDigits};

    fn task() -> SyntheticDigits {
        SyntheticDigits::generate(&SynthConfig {
            train_samples: 6_400,
            test_samples: 100,
            ..SynthConfig::tiny()
        })
    }

    fn assert_same_dataset(eager: &Dataset, lazy: &Dataset, client: usize) {
        assert_eq!(eager.len(), lazy.len(), "client {client} length");
        assert_eq!(eager.labels(), lazy.labels(), "client {client} labels");
        for i in 0..eager.len() {
            assert_eq!(eager.x(i), lazy.x(i), "client {client} row {i}");
        }
    }

    #[test]
    fn iid_lazy_matches_eager_byte_for_byte() {
        let t = task();
        for n in [1usize, 7, 64] {
            let eager = iid_partition(&t.train, n, 42);
            let pop = ClientPopulation::iid(&t.train, n, 42);
            for (c, e) in eager.iter().enumerate() {
                assert_same_dataset(e, &pop.shard(&t.train, c), c);
                assert_eq!(pop.shard_len(c), e.len());
            }
        }
    }

    #[test]
    fn noniid_lazy_matches_eager_byte_for_byte() {
        let t = task();
        let mut malicious = vec![false; 64];
        for m in malicious.iter_mut().take(20) {
            *m = true;
        }
        let eager = noniid_partition(&t.train, 64, 2, &malicious, 7);
        let pop = ClientPopulation::noniid(&t.train, 64, 2, &malicious, 7);
        for (c, e) in eager.iter().enumerate() {
            assert_same_dataset(e, &pop.shard(&t.train, c), c);
            assert_eq!(pop.shard_len(c), e.len());
        }
    }

    #[test]
    fn dirichlet_lazy_matches_eager_byte_for_byte() {
        let t = task();
        let malicious = vec![false; 32];
        let eager = dirichlet_partition(&t.train, 32, 0.3, &malicious, 11);
        let pop = ClientPopulation::dirichlet(&t.train, 32, 0.3, &malicious, 11);
        for (c, e) in eager.iter().enumerate() {
            assert_same_dataset(e, &pop.shard(&t.train, c), c);
            assert_eq!(pop.shard_len(c), e.len());
        }
    }

    /// A plan partitions as its dense form does (the partitioners read
    /// labels only), and gathering by generating writes the rows a
    /// gather from the dense set copies.
    #[test]
    fn planned_training_set_derives_the_dense_shards() {
        use crate::synth::SynthTask;
        let cfg = SynthConfig {
            train_samples: 6_400,
            test_samples: 100,
            ..SynthConfig::tiny()
        };
        let plan = SynthTask::plan(&cfg).train;
        let dense = plan.materialise();
        let malicious = vec![false; 32];
        for (on_plan, on_dense) in [
            (
                ClientPopulation::iid(&plan, 7, 42),
                ClientPopulation::iid(&dense, 7, 42),
            ),
            (
                ClientPopulation::noniid(&plan, 32, 2, &malicious, 7),
                ClientPopulation::noniid(&dense, 32, 2, &malicious, 7),
            ),
            (
                ClientPopulation::dirichlet(&plan, 32, 0.3, &malicious, 11),
                ClientPopulation::dirichlet(&dense, 32, 0.3, &malicious, 11),
            ),
        ] {
            let mut drawn = Dataset::empty(plan.dim(), plan.num_classes());
            for c in 0..on_plan.num_clients() {
                assert!(on_plan.shard_indices(c).eq(on_dense.shard_indices(c)));
                // Refilled, not rebuilt: the buffer carries over.
                drawn.clear();
                plan.push_samples(on_plan.shard_indices(c), &mut drawn);
                assert_same_dataset(&on_dense.shard(&dense, c), &drawn, c);
            }
        }
    }

    #[test]
    fn shard_derivation_is_pure() {
        let t = task();
        let pop = ClientPopulation::iid(&t.train, 16, 9);
        // Derive out of order, repeatedly: same bytes every time.
        let first = pop.shard(&t.train, 3);
        let _ = pop.shard(&t.train, 15);
        let again = pop.shard(&t.train, 3);
        assert_same_dataset(&first, &again, 3);
    }

    #[test]
    fn iid_plan_memory_is_population_independent() {
        let t = task();
        let small = ClientPopulation::iid(&t.train, 4, 1);
        let large = ClientPopulation::iid(&t.train, 100_000, 1);
        let order_len = |p: &ClientPopulation| match p.plan() {
            ShardPlan::Iid { order } => order.len(),
            _ => panic!("expected IID plan"),
        };
        // Same stored plan size regardless of client count.
        assert_eq!(order_len(&small), order_len(&large));
        assert_eq!(order_len(&large), t.train.len());
        // Beyond-dataset clients derive empty shards rather than panicking.
        assert_eq!(large.shard_len(99_999), 0);
        assert!(large.shard(&t.train, 99_999).is_empty());
    }
}
