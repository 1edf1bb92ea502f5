//! Client data partitioners (paper Appendix D).
//!
//! * **IID**: "training samples for each label are shuffled and then
//!   distributed equally to all clients" — every client sees every label.
//! * **Extreme non-IID**: equal-size shards, each client holds only
//!   `labels_per_client` (= 2) labels, with the paper's special guarantee
//!   that the *honest* clients as a whole cover all labels.
//! * **Dirichlet-α**: the benchmark-suite heterogeneity dial — per label,
//!   client proportions drawn from `Dirichlet(α)`; α → ∞ approaches IID,
//!   small α concentrates each label on few clients.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

use crate::dataset::{Dataset, Labelled};
use crate::rng::derive_seed;

/// The IID *deal order*: per-label shuffle, concatenated in cursor order.
/// Client `c` of an `n`-client IID partition owns exactly the positions
/// `p ≡ c (mod n)` of this sequence, so the deal order is a complete,
/// client-count-independent description of every IID partition of `data`
/// under `seed` — the lazy [`crate::population::ClientPopulation`] stores
/// it once (O(dataset), not O(n·shard)) and derives any client's shard on
/// demand. Like every index-level partitioner here it reads labels
/// only ([`Labelled`]), so `data` need not hold features.
pub fn iid_deal_order<L: Labelled + ?Sized>(data: &L, seed: u64) -> Vec<usize> {
    assert!(!data.labels().is_empty(), "cannot partition empty dataset");
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x11D));
    let mut order = Vec::with_capacity(data.labels().len());
    for mut group in data.indices_by_label() {
        group.shuffle(&mut rng);
        order.extend(group);
    }
    order
}

/// IID partition: per-label shuffle, then round-robin deal to clients so
/// each client receives a near-equal, label-balanced shard.
pub fn iid_partition(data: &Dataset, n_clients: usize, seed: u64) -> Vec<Dataset> {
    assert!(n_clients > 0, "need at least one client");
    let order = iid_deal_order(data, seed);
    let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); n_clients];
    for (cursor, idx) in order.into_iter().enumerate() {
        assignments[cursor % n_clients].push(idx);
    }
    assignments.iter().map(|a| data.subset(a)).collect()
}

/// Extreme non-IID partition with the honest-coverage guarantee.
///
/// Each label's samples are split into near-equal shards so that the
/// total shard count is `n_clients · labels_per_client`; every client
/// receives exactly `labels_per_client` shards and therefore holds at
/// most that many distinct labels. The paper's guarantee — *honest*
/// clients together cover all labels — is enforced constructively:
/// the first `⌈k / labels_per_client⌉` honest clients are *anchors*, and
/// anchor `i` receives one shard of each label in
/// `{i·lpc, …, i·lpc + lpc − 1}`. All remaining shards are shuffled and
/// dealt to the remaining clients.
///
/// # Panics
/// If honest clients cannot possibly cover all classes
/// (`#honest · labels_per_client < num_classes`) — the paper's evaluation
/// never enters that regime (it stops at 65 % malicious) — or the dataset
/// is too small for one shard per label slot.
pub fn noniid_partition(
    data: &Dataset,
    n_clients: usize,
    labels_per_client: usize,
    malicious: &[bool],
    seed: u64,
) -> Vec<Dataset> {
    noniid_assignments(data, n_clients, labels_per_client, malicious, seed)
        .iter()
        .map(|a| data.subset(a))
        .collect()
}

/// Index-level form of [`noniid_partition`]: each client's sample indices
/// in materialization order (anchor shards first, then leftover pops).
/// `noniid_partition` is exactly `subset` over these lists; the lazy
/// population stores them in CSR form and derives shards on demand.
pub fn noniid_assignments<L: Labelled + ?Sized>(
    data: &L,
    n_clients: usize,
    labels_per_client: usize,
    malicious: &[bool],
    seed: u64,
) -> Vec<Vec<usize>> {
    assert!(n_clients > 0, "need at least one client");
    assert_eq!(malicious.len(), n_clients, "malicious mask length mismatch");
    assert!(labels_per_client > 0);
    let k = data.num_classes();
    let lpc = labels_per_client;
    let honest_count = malicious.iter().filter(|m| !**m).count();
    assert!(
        honest_count * lpc >= k,
        "honest clients ({honest_count} × {lpc} labels) cannot cover {k} classes"
    );
    let n_shards = n_clients * lpc;
    assert!(n_shards >= k, "need at least one shard per label");

    let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0x2012));

    // Per-label shard quotas: base + 1 for the first (n_shards mod k).
    let base = n_shards / k;
    let mut by_label = data.indices_by_label();
    for g in by_label.iter_mut() {
        g.shuffle(&mut rng);
    }
    // shards_of_label[ℓ] = list of index-slices for label ℓ.
    let mut shards_of_label: Vec<Vec<Vec<usize>>> = Vec::with_capacity(k);
    for (l, group) in by_label.iter().enumerate() {
        let quota = base + usize::from(l < n_shards % k);
        assert!(
            !group.is_empty() || quota == 0,
            "label {l} has no samples to shard"
        );
        let mut shards = Vec::with_capacity(quota);
        let per = group.len() / quota;
        let extra = group.len() % quota;
        let mut start = 0;
        for s in 0..quota {
            let size = per + usize::from(s < extra);
            shards.push(group[start..start + size].to_vec());
            start += size;
        }
        shards_of_label.push(shards);
    }

    // Assignments: client -> list of shards (each a Vec of indices).
    let mut assigned: Vec<Vec<Vec<usize>>> = vec![Vec::new(); n_clients];
    let honest_ids: Vec<usize> = (0..n_clients).filter(|c| !malicious[*c]).collect();
    let n_anchors = k.div_ceil(lpc);

    // Anchors: one shard of each label in the anchor's label window.
    for (a, &client) in honest_ids.iter().take(n_anchors).enumerate() {
        for shards in &mut shards_of_label[(a * lpc)..((a + 1) * lpc).min(k)] {
            let shard = shards.pop().expect("quota >= 1 per label");
            assigned[client].push(shard);
        }
    }

    // Leftover shards, shuffled; label-grouped pops keep a client's shards
    // adjacent in label where possible but any deal preserves the ≤ lpc
    // distinct-labels bound because each client gets exactly lpc shards.
    let mut leftovers: Vec<Vec<usize>> = shards_of_label.into_iter().flatten().collect();
    leftovers.shuffle(&mut rng);
    for client_shards in &mut assigned {
        while client_shards.len() < lpc {
            client_shards.push(leftovers.pop().expect("shard accounting broke"));
        }
    }
    assert!(leftovers.is_empty(), "unassigned shards remain");

    // Flatten each client's shards in assignment order; `subset` over the
    // flat list gathers the same rows in the same order a per-shard push
    // loop would.
    assigned
        .into_iter()
        .map(|shards| shards.into_iter().flatten().collect())
        .collect()
}

/// RNG stream tag for the Dirichlet partitioner (distinct from the IID
/// `0x11D` and non-IID `0x2012` streams; re-draw attempt `a` salts the
/// tag so each attempt is an independent stream).
const DIRICHLET_TAG: u64 = 0xD112;

/// Re-draw budget for [`dirichlet_partition`] before giving up on a
/// usable draw (all clients non-empty, honest clients covering all
/// labels).
const DIRICHLET_MAX_ATTEMPTS: u64 = 32;

/// Dirichlet-α non-IID partition (Hsu et al.; the heterogeneity dial of
/// the Blades / ByzFL benchmark suites).
///
/// For every label, client shares are drawn from a symmetric
/// `Dirichlet(α)` and the label's shuffled samples are dealt by largest
/// remainder. Small `α` (0.1) concentrates each label on a handful of
/// clients; large `α` (100) approaches the IID deal.
///
/// A draw is **usable** when every client received at least one sample
/// and the honest clients together cover all labels (the same guarantee
/// [`noniid_partition`] enforces constructively). Unusable draws are
/// re-drawn from a fresh attempt-salted RNG stream — the fallback
/// re-draw — up to [`DIRICHLET_MAX_ATTEMPTS`] times; determinism is
/// preserved because the attempt index is part of the stream seed.
///
/// # Panics
/// If `alpha` is not finite-positive, the mask length mismatches, no
/// honest client exists, the dataset is smaller than the client count,
/// or no usable draw is found within the attempt budget (practically
/// reachable only with adversarially tiny datasets).
pub fn dirichlet_partition(
    data: &Dataset,
    n_clients: usize,
    alpha: f64,
    malicious: &[bool],
    seed: u64,
) -> Vec<Dataset> {
    dirichlet_assignments(data, n_clients, alpha, malicious, seed)
        .iter()
        .map(|a| data.subset(a))
        .collect()
}

/// Index-level form of [`dirichlet_partition`]: each client's sample
/// indices in deal order. The usability check (all clients non-empty,
/// honest label coverage) runs on the index lists, so the function is
/// draw-for-draw identical to materializing and checking datasets.
pub fn dirichlet_assignments<L: Labelled + ?Sized>(
    data: &L,
    n_clients: usize,
    alpha: f64,
    malicious: &[bool],
    seed: u64,
) -> Vec<Vec<usize>> {
    assert!(n_clients > 0, "need at least one client");
    assert!(alpha.is_finite() && alpha > 0.0, "alpha must be positive");
    assert_eq!(malicious.len(), n_clients, "malicious mask length mismatch");
    let labels = data.labels();
    assert!(!labels.is_empty(), "cannot partition empty dataset");
    assert!(
        labels.len() >= n_clients,
        "fewer samples than clients ({} < {n_clients})",
        labels.len()
    );
    let k = data.num_classes();
    let honest: Vec<usize> = (0..n_clients).filter(|c| !malicious[*c]).collect();
    assert!(!honest.is_empty(), "need at least one honest client");

    for attempt in 0..DIRICHLET_MAX_ATTEMPTS {
        let mut rng =
            StdRng::seed_from_u64(derive_seed(seed, DIRICHLET_TAG.wrapping_add(attempt << 16)));
        let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); n_clients];
        for mut group in data.indices_by_label() {
            group.shuffle(&mut rng);
            let shares = dirichlet_shares(&mut rng, alpha, n_clients);
            let counts = largest_remainder(&shares, group.len());
            let mut start = 0;
            for (client, &count) in counts.iter().enumerate() {
                assignments[client].extend_from_slice(&group[start..start + count]);
                start += count;
            }
        }
        let usable = assignments.iter().all(|a| !a.is_empty()) && {
            let mut seen = vec![false; k];
            for &c in &honest {
                for &i in &assignments[c] {
                    seen[labels[i] as usize] = true;
                }
            }
            seen.iter().all(|s| *s)
        };
        if usable {
            return assignments;
        }
    }
    panic!(
        "no usable Dirichlet(α = {alpha}) draw in {DIRICHLET_MAX_ATTEMPTS} attempts \
         (n_clients = {n_clients}, samples = {})",
        labels.len()
    );
}

/// One symmetric `Dirichlet(α)` draw over `n` categories: normalized
/// `Gamma(α, 1)` samples.
fn dirichlet_shares(rng: &mut StdRng, alpha: f64, n: usize) -> Vec<f64> {
    let mut shares: Vec<f64> = (0..n).map(|_| gamma_sample(rng, alpha)).collect();
    let sum: f64 = shares.iter().sum();
    if sum <= 0.0 || !sum.is_finite() {
        // Numerically degenerate draw (all gammas underflowed at tiny α):
        // fall back to uniform; the caller's usability check still runs.
        shares.iter_mut().for_each(|s| *s = 1.0 / n as f64);
    } else {
        shares.iter_mut().for_each(|s| *s /= sum);
    }
    shares
}

/// `Gamma(shape, 1)` via Marsaglia–Tsang squeeze (shape ≥ 1) with the
/// `Gamma(shape+1) · U^{1/shape}` boost below 1. Hand-rolled because the
/// vendored `rand` carries no distribution crate.
fn gamma_sample(rng: &mut StdRng, shape: f64) -> f64 {
    if shape < 1.0 {
        let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
        return gamma_sample(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal_f64(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

/// Standard normal via Box–Muller in f64 (the tensor helper is f32).
fn standard_normal_f64(rng: &mut StdRng) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Integer apportionment of `total` by `shares` (largest remainder,
/// index tie-break): deterministic, sums exactly to `total`.
fn largest_remainder(shares: &[f64], total: usize) -> Vec<usize> {
    let mut counts: Vec<usize> = shares.iter().map(|s| (s * total as f64) as usize).collect();
    let assigned: usize = counts.iter().sum();
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|a, b| {
        let fa = shares[*a] * total as f64 - counts[*a] as f64;
        let fb = shares[*b] * total as f64 - counts[*b] as f64;
        fb.total_cmp(&fa).then(a.cmp(b))
    });
    for &i in order.iter().take(total - assigned) {
        counts[i] += 1;
    }
    counts
}

/// True when the union of the given clients' datasets covers every class.
pub fn covers_all_labels(shards: &[Dataset], clients: &[usize], num_classes: usize) -> bool {
    let mut seen = vec![false; num_classes];
    for &c in clients {
        for l in shards[c].present_labels() {
            seen[l as usize] = true;
        }
    }
    seen.iter().all(|s| *s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{SynthConfig, SyntheticDigits};

    fn task() -> SyntheticDigits {
        SyntheticDigits::generate(&SynthConfig {
            train_samples: 6_400,
            test_samples: 100,
            ..SynthConfig::tiny()
        })
    }

    #[test]
    fn iid_sizes_are_near_equal() {
        let t = task();
        let parts = iid_partition(&t.train, 64, 1);
        assert_eq!(parts.len(), 64);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, t.train.len());
        let min = parts.iter().map(|p| p.len()).min().unwrap();
        let max = parts.iter().map(|p| p.len()).max().unwrap();
        assert!(max - min <= 10, "IID sizes spread too wide: {min}..{max}");
    }

    #[test]
    fn iid_clients_see_all_labels() {
        let t = task();
        let parts = iid_partition(&t.train, 64, 1);
        for p in &parts {
            assert_eq!(p.present_labels().len(), 10);
        }
    }

    #[test]
    fn iid_deterministic() {
        let t = task();
        let a = iid_partition(&t.train, 8, 7);
        let b = iid_partition(&t.train, 8, 7);
        assert_eq!(a[0].labels(), b[0].labels());
    }

    #[test]
    fn noniid_two_labels_per_client() {
        let t = task();
        let malicious = vec![false; 64];
        let parts = noniid_partition(&t.train, 64, 2, &malicious, 3);
        for (i, p) in parts.iter().enumerate() {
            let l = p.present_labels().len();
            assert!(l <= 2, "client {i} has {l} labels");
            assert!(!p.is_empty());
        }
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, t.train.len());
    }

    #[test]
    fn noniid_honest_coverage_even_at_65_percent_malicious() {
        let t = task();
        let n = 64usize;
        let n_bad = 42; // 65.6 %
        let mut malicious = vec![false; n];
        for m in malicious.iter_mut().take(n_bad) {
            *m = true;
        }
        let parts = noniid_partition(&t.train, n, 2, &malicious, 5);
        let honest: Vec<usize> = (0..n).filter(|c| !malicious[*c]).collect();
        assert!(covers_all_labels(&parts, &honest, 10));
    }

    #[test]
    fn noniid_honest_coverage_random_masks() {
        let t = task();
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut malicious = vec![false; 64];
            // random ~50 %
            for m in malicious.iter_mut() {
                *m = rand::Rng::gen_bool(&mut rng, 0.5);
            }
            if malicious.iter().filter(|m| !**m).count() * 2 < 10 {
                continue;
            }
            let parts = noniid_partition(&t.train, 64, 2, &malicious, seed);
            let honest: Vec<usize> = (0..64).filter(|c| !malicious[*c]).collect();
            assert!(
                covers_all_labels(&parts, &honest, 10),
                "coverage failed at seed {seed}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cannot cover")]
    fn impossible_coverage_panics() {
        let t = task();
        let mut malicious = vec![true; 64];
        malicious[0] = false; // one honest client, 2 labels < 10 classes
        noniid_partition(&t.train, 64, 2, &malicious, 1);
    }

    #[test]
    fn dirichlet_conserves_samples_and_covers() {
        let t = task();
        let malicious = vec![false; 32];
        let parts = dirichlet_partition(&t.train, 32, 0.3, &malicious, 11);
        assert_eq!(parts.len(), 32);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, t.train.len());
        assert!(parts.iter().all(|p| !p.is_empty()));
        let honest: Vec<usize> = (0..32).collect();
        assert!(covers_all_labels(&parts, &honest, 10));
    }

    #[test]
    fn dirichlet_deterministic_per_seed() {
        let t = task();
        let malicious = vec![false; 16];
        let a = dirichlet_partition(&t.train, 16, 0.5, &malicious, 21);
        let b = dirichlet_partition(&t.train, 16, 0.5, &malicious, 21);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.labels(), y.labels());
        }
        let c = dirichlet_partition(&t.train, 16, 0.5, &malicious, 22);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.labels() != y.labels()),
            "different seeds should shuffle differently"
        );
    }

    #[test]
    fn small_alpha_is_more_skewed_than_large_alpha() {
        let t = task();
        let malicious = vec![false; 16];
        // Mean distinct-labels-per-client: concentration shrinks it.
        let mean_labels = |alpha: f64| -> f64 {
            let parts = dirichlet_partition(&t.train, 16, alpha, &malicious, 31);
            parts
                .iter()
                .map(|p| p.present_labels().len() as f64)
                .sum::<f64>()
                / 16.0
        };
        let skewed = mean_labels(0.1);
        let near_iid = mean_labels(100.0);
        assert!(
            skewed + 1.0 < near_iid,
            "α=0.1 ({skewed}) should be visibly more skewed than α=100 ({near_iid})"
        );
        assert!(near_iid > 9.0, "α=100 approaches the IID deal");
    }

    #[test]
    fn dirichlet_redraw_rescues_tight_draws() {
        // 50 samples over 10 clients at a tiny α: single draws routinely
        // leave a client empty, so success implies the re-draw loop ran
        // (and stayed deterministic).
        let t = SyntheticDigits::generate(&SynthConfig {
            train_samples: 50,
            test_samples: 10,
            ..SynthConfig::tiny()
        });
        let malicious = vec![false; 10];
        let a = dirichlet_partition(&t.train, 10, 0.05, &malicious, 3);
        let b = dirichlet_partition(&t.train, 10, 0.05, &malicious, 3);
        assert!(a.iter().all(|p| !p.is_empty()));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.labels(), y.labels());
        }
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn dirichlet_rejects_bad_alpha() {
        let t = task();
        dirichlet_partition(&t.train, 8, 0.0, &[false; 8], 1);
    }

    #[test]
    fn gamma_sampler_matches_moments() {
        // E[Gamma(a,1)] = a, Var = a: check to ~5 % over 20k draws.
        for a in [0.3f64, 1.0, 2.5, 8.0] {
            let mut rng = StdRng::seed_from_u64(77);
            let n = 20_000;
            let xs: Vec<f64> = (0..n).map(|_| gamma_sample(&mut rng, a)).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            assert!((mean - a).abs() / a < 0.05, "Gamma({a}) mean off: {mean}");
            assert!(xs.iter().all(|x| *x >= 0.0 && x.is_finite()));
        }
    }

    #[test]
    fn largest_remainder_sums_exactly() {
        let shares = [0.205, 0.205, 0.205, 0.205, 0.18];
        let counts = largest_remainder(&shares, 997);
        assert_eq!(counts.iter().sum::<usize>(), 997);
        let uniform = largest_remainder(&[0.25; 4], 10);
        assert_eq!(uniform.iter().sum::<usize>(), 10);
        assert!(uniform.iter().all(|c| *c == 2 || *c == 3));
    }
}
